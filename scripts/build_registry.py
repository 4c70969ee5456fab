#!/usr/bin/env python3
"""Regenerate the bundled identity registry data file.

The eta-quotient combinations F1/F2/F3/S0/S1/H0/H1/R0 are rendered from
their structured definitions in qid.expressions; everything else is written
out by hand here.  Run from the repository root:

    python3 scripts/build_registry.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qid import dsl  # noqa: E402
from qid.expressions import (F1, F2, F3, H0, H1, R0, S0, S1,  # noqa: E402
                             eta_expression_to_dsl)

F1D = eta_expression_to_dsl(F1)
F2D = eta_expression_to_dsl(F2)
F3D = eta_expression_to_dsl(F3)
S0D = eta_expression_to_dsl(S0)
S1D = eta_expression_to_dsl(S1)
H0D = eta_expression_to_dsl(H0)
H1D = eta_expression_to_dsl(H1)
R0D = eta_expression_to_dsl(R0)


def ident(id, tier, anchor, lhs, rhs, order=200):
    return {"id": id, "tier": tier, "anchor": anchor,
            "kind": "identity", "lhs": lhs, "rhs": rhs, "order": order}


def cong(id, anchor, step, residue, modulus, count):
    return {"id": id, "tier": "background", "anchor": anchor,
            "kind": "congruence", "series": "B1", "step": step,
            "residue": residue, "modulus": modulus, "count": count}


RECORDS = [
    # -- core: the three main theorems ------------------------------------
    ident("nath-das-1.10", "core", "1-10",
          "EXTRACT(MT(B1), 3, 0)", "f2^7*f3^2/(f1^6*f4*f6)"),
    ident("nath-das-1.11", "core", "1-11",
          "EXTRACT(MT(A1), 3, 1)", "f2^4*f3^2*f4/(f1^5*f6)"),
    ident("nath-das-1.12", "core", "1-12",
          "EXTRACT(MT(MU2), 3, 1)", "-f2^7*f12^2/(f1*f4^6*f6)"),

    # -- core: the vanishing lemmas and their even/odd splits -------------
    ident("lemma-f1-zero", "core", "2-2", F1D, "0"),
    ident("lemma-f2-zero", "core", "3-2", F2D, "0"),
    ident("lemma-f3-zero", "core", "4-1", F3D, "0"),
    ident("split-f1", "core", "2-7",
          F1D, f"q*SUBST({S1D}, 2) + SUBST({S0D}, 2)"),
    ident("split-f2", "core", "3-5",
          F2D, f"q*SUBST({H1D}, 2) + SUBST({H0D}, 2)"),
    ident("split-f3", "core", "4-5", F3D, f"SUBST({R0D}, 2)"),
    ident("zero-s0", "core", "2-16", S0D, "0"),
    ident("zero-s1", "core", "2-16", S1D, "0"),
    ident("zero-h0", "core", "3-6", H0D, "0"),
    ident("zero-h1", "core", "3-6", H1D, "0"),
    ident("zero-r0", "core", "4-7", R0D, "0"),

    # -- core: Appell-Lerch instantiations and derivation lines -----------
    ident("al-z-change-b", "core", "2-19",
          "AL(q^0, 4, q^3) - AL(q^0, 4, -q^0)",
          "-f2^6*f4^3/(4*f1^4*f8^4)", 150),
    ident("al-cube-b", "core", "2-21",
          "AL(q^0, 4, -q^0)",
          "AL(q^12, 36, -q^0) - AL(q^0, 36, -q^0)/q^4"
          " + AL(q^-12, 36, -q^0)/q^12"
          " + f4^3*f12^3*f36/(4*q^4*f8^3*f24*f72^2)", 150),
    ident("al-z-change-a", "core", "3-8",
          "AL(q, 4, q^2) - AL(q, 4, -q^0)",
          "-f4^9/(2*f1*f2^3*f8^4)", 150),
    ident("al-cube-a", "core", "3-9",
          "AL(q, 4, -q^0)",
          "AL(q^15, 36, -q^0) - AL(q^3, 36, -q^0)/q^3"
          " + AL(q^-9, 36, -q^0)/q^10"
          " + f2*f3*f12^2*f24*f36/(2*q^3*f6^2*f8*f72^2)", 150),
    ident("b-al-base36", "core", "2-22",
          "MT(B1)",
          "-AL(q^12, 36, -q^0)/q + AL(q^0, 36, -q^0)/q^5"
          " - AL(q^-12, 36, -q^0)/q^13"
          " - (f4^2/f8)*(f4/f8^2)*(f12^3*f36/(f24*f72^2))/(4*q^5)"
          " + (f2*f4/(f1*f8))^4*(f2^2/f4)/(4*q)", 150),
    ident("b-trisection-via-f1", "core", "2-26",
          "EXTRACT(MT(B1), 3, 0)",
          f"({F1D}) + f2^7*f3^2/(f1^6*f4*f6)", 150),
    ident("a-al-base36", "core", "3-10",
          "MT(A1)",
          "-AL(q^15, 36, -q^0) + AL(q^3, 36, -q^0)/q^3"
          " - AL(q^-9, 36, -q^0)/q^10"
          " + (1/2)*(f2/(f1*f4))*(f4^5/(f2^2*f8^2))^2"
          " - (f2/f4^2)*(f4^2/f8)*(f3*f12^2*f24*f36/(f6^2*f72^2))/(2*q^3)",
          150),
    ident("a-trisection-via-f2", "core", "3-closing",
          "EXTRACT(MT(A1), 3, 1)",
          f"(({F2D}) + f2^4*f3^2*f4/(f1^6*f6))*f1", 150),
    ident("mu2-al-base36", "core", "4-9",
          "MT(MU2)",
          "4*AL(-q^15, 36, -q^0) + 4*AL(-q^3, 36, -q^0)/q^3"
          " + 4*AL(-q^-9, 36, -q^0)/q^10"
          " - 2*(f2/f4^2)*(f4^2/f8)*(f6*f12*f24*f36/(f3*f72^2))/q^3"
          " - (f2^5/(f1^2*f4^2))^2*(f1/f2^2)", 150),
    ident("mu2-trisection-via-f3", "core", "4-10",
          "EXTRACT(MT(MU2), 3, 1)",
          f"(({F3D}) - f2^7*f12^2/(f4^6*f6))/f1", 150),

    # -- classical: Appell-Lerch representations --------------------------
    ident("hm-b-appell", "classical", "2-17",
          "MT(B1)", "-AL(q^0, 4, q^3)/q", 150),
    ident("hm-a-appell", "classical", "3-A",
          "MT(A1)", "-AL(q, 4, q^2)", 150),
    ident("hm-mu2-appell", "classical", "4-8",
          "MT(MU2)", "4*AL(-q, 4, -q^0) - f2^8/(f1^3*f4^4)", 150),

    # -- classical: quoted dissection identities --------------------------
    ident("quartic-recip-f1", "classical", "2-3",
          "1/f1^4",
          "f4^14/(f2^14*f8^4) + 4*q*f4^2*f8^4/f2^10"),
    ident("quartic-recip-f3", "classical", "2-4",
          "1/f3^4",
          "f12^14/(f6^14*f24^4) + 4*q^3*f12^2*f24^4/f6^10"),
    ident("quartic-f3", "classical", "2-4-1",
          "f3^4",
          "f12^10/(f6^2*f24^4) - 4*q^3*f6^2*f24^4/f12^2"),
    ident("recip-f1f3", "classical", "2-5",
          "1/(f1*f3)",
          "f8^2*f12^5/(f2^2*f4*f6^4*f24^2)"
          " + q*f4^5*f24^2/(f2^4*f6^2*f8^2*f12)"),
    ident("f3-over-f1cubed", "classical", "2-6",
          "f3/f1^3",
          "f4^6*f6^3/(f2^9*f12^2) + 3*q*f4^2*f6*f12^2/f2^7"),
    ident("f2fifth-trisection", "classical", "3-11",
          "f2^5/(f1^2*f4^2)",
          "f18^5/(f9^2*f36^2) + 2*q*f6^2*f9*f36/(f3*f12*f18)"),
    ident("f1sq-over-f2-trisection", "classical", "2-23",
          "f1^2/f2",
          "f9^2/f18 - 2*q*f3*f18^2/(f6*f9)"),
    ident("f2-over-f1f4-trisection", "classical", "3-12",
          "f2/(f1*f4)",
          "f18^9/(f3^2*f9^3*f12^2*f36^3) + q*f6^2*f18^3/(f3^3*f12^3)"
          " + q^2*f6^4*f9^3*f36^3/(f3^4*f12^4*f18^3)"),
    ident("f1-over-f2sq-trisection", "classical", "2-24",
          "f1/f2^2",
          "f3^2*f9^3/f6^6 - q*f3^3*f18^3/f6^7 + q^2*f3^4*f18^6/(f6^8*f9^3)"),
    ident("f2f4-over-f1f8-trisection", "classical", "2-25",
          "f2*f4/(f1*f8)",
          "f6^2*f9*f36^6/(f3^2*f12*f18^3*f24*f72^2)"
          " + q*f12^2*f18^6*f72/(f3*f6*f9^2*f24^2*f36^3)"
          " + q^2*f6*f9*f12*f72/(f3^2*f24^2)"),
    ident("f3cubed-over-f1", "classical", "3-3",
          "f3^3/f1", "f4^3*f6^2/(f2^2*f12) + q*f12^3/f4"),
    ident("f1-over-f3cubed", "classical", "3-4",
          "f1/f3^3",
          "f2*f4^2*f12^2/f6^7 - q*f2^3*f12^6/(f4^2*f6^9)"),
    ident("f1cubed-over-f3", "classical", "4-2",
          "f1^3/f3", "f4^3/f12 - 3*q*f2^2*f12^3/(f4*f6^2)"),
    ident("f1sq-over-f3sq", "classical", "4-3",
          "f1^2/f3^2",
          "f2*f4^2*f12^4/(f6^5*f8*f24) - 2*q*f2^2*f8*f12*f24/(f4*f6^4)"),
    ident("f1f3-split", "classical", "4-4",
          "f1*f3",
          "f2*f8^2*f12^4/(f4^2*f6*f24^2)"
          " - q*f4^4*f6*f24^2/(f2*f8^2*f12^2)"),

    # -- classical: definitional cross-equalities -------------------------
    ident("a-forms-agree", "classical", "1-def-A", "MT(A1)", "MT(A2)", 300),
    ident("b-forms-agree-12", "classical", "1-def-B", "MT(B1)", "MT(B2)", 300),

    # -- background: third-party claims quoted in the introduction --------
    ident("chan-mao-b4n1", "background", "1-CM1",
          "EXTRACT(MT(B1), 4, 1)", "2*f2^10/f1^9", 100),
    ident("chan-mao-b4n2", "background", "1-CM2",
          "EXTRACT(MT(B1), 4, 2)", "2*f2^2*f4^4/f1^5", 100),
    ident("mao-b6n2", "background", "1-M1",
          "EXTRACT(MT(B1), 6, 2)", "4*f2^10*f3^2/(f1^10*f6)", 100),
    ident("mao-b6n4", "background", "1-M2",
          "EXTRACT(MT(B1), 6, 4)", "9*f2^4*f3^4*f6/f1^8", 100),
    cong("nath-das-b6n3", "1-ND-c1", 6, 3, 6, 40),
    cong("nath-das-b36n22", "1-ND-c2", 36, 22, 36, 8),
    cong("nath-das-b12n9", "1-ND-c3", 12, 9, 54, 20),
    cong("mao-b10n6", "1-M-c1", 10, 6, 5, 25),
    cong("mao-b10n8", "1-M-c2", 10, 8, 5, 25),
    cong("kaur-rana-b12n10", "1-KR1", 12, 10, 36, 15),
    cong("kaur-rana-b18n16", "1-KR2", 18, 16, 72, 15),
    {"id": "wang-parity", "tier": "background", "anchor": "1-W",
     "kind": "parity", "series": "B1", "count": 301},
]


def main():
    for rec in RECORDS:
        for side in ("lhs", "rhs"):
            if side in rec:
                parsed = dsl.parse(rec[side])
                assert dsl.parse(dsl.print_expr(parsed)) == parsed, rec["id"]
    out = pathlib.Path(__file__).resolve().parents[1] / "src/qid/data/registry.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"version": 1, "records": RECORDS}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} ({len(RECORDS)} records)")


if __name__ == "__main__":
    main()
