"""The benchmark's workloads: which qid processes a pass launches, the
seed-generated inputs they get, and the check of every output against the
pinned values in pins.json.

A workload is a list of `Proc`s, launched one after another in fresh
interpreters.  Each `Proc` runs one or more qid commands; each command is
checked on its own and yields one or more items (an item is one verdict or
one coefficient listing, and has its own time to verdict).

Generated inputs never use selector B3, `change_z_identity_check` or the
`*-forms-agree` records, so the benchmark survives their removal.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

_HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(_HERE, "pins.json")) as _fh:
    PINS = json.load(_fh)

#: the 26 pure eta-quotient identity records
SUITE_ETA_IDS = tuple(PINS["suite_eta_ids"])
#: the 28 records that use MT(...), AL(...) or EXTRACT of them
VERIFY_MOCK_IDS = tuple(PINS["verify_mock_ids"])
PARAM_TARGETS = ("S0", "S1", "H0", "H1", "R0")
#: `qid coeffs` items: (selector, order).  A2 and B2 cost far more per
#: coefficient than A1, B1 and MU2, so they run at a lower order; every
#: listing then takes about a second, and a run holds many passes
COEFF_ITEMS = (("A1", 500), ("B1", 500), ("MU2", 500), ("A2", 80), ("B2", 80))
#: pairs of selectors that are the same series, checked through order 80
COEFF_SAME = (("A1", "A2"), ("B1", "B2"))
COEFF_SAME_UPTO = 80

ROUNDTRIPS = 12         # seeded dissection round-trips added to suite-eta
ROUNDTRIP_ORDER = 200
CHANGE_Z = 6            # seeded change-of-z instances added to verify-mock
CHANGE_Z_ORDER = 150
# One base, and theta arguments q^e with 0 <= e < base (no principal parts,
# so no pad-and-retry round), keep the cost of every instance alike, so the
# seed moves the workload's figures little.
CHANGE_Z_BASE = 4


@dataclass
class Proc:
    """One child process: the qid commands it runs, in order."""

    commands: list[list[str]]
    checks: list  # one per command: result -> list[Item]


@dataclass
class Item:
    name: str
    ms: float | None  # None for a check that is not a verdict, or no verdict
    ok: bool
    detail: str = ""


# -- checks --------------------------------------------------------------

def _report_fields(entry: dict) -> dict:
    return {k: entry[k] for k in ("status", "compared_order", "first_mismatch")}


def _expected_record(rid: str, generated: dict) -> dict:
    if rid in generated:
        return {"status": "pass", "compared_order": generated[rid],
                "first_mismatch": None}
    return PINS["records"][rid]


def _check_report(result: dict, expected_ids: list[str],
                  generated: dict) -> list[Item]:
    """Items of a `suite --json` or `verify --json` command; elapsed_ms is
    qid's own time for the record, the rest is pinned."""
    try:
        report = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return [Item(rid, None, False, "unparsable report")
                for rid in expected_ids]
    by_id = {e["id"]: e for e in report}
    items = []
    for rid in expected_ids:
        entry = by_id.get(rid)
        if entry is None:
            items.append(Item(rid, None, False, "missing from report"))
            continue
        got, want = _report_fields(entry), _expected_record(rid, generated)
        ok = got == want
        items.append(Item(rid, entry["elapsed_ms"], ok,
                          "" if ok else f"got {got}, pinned {want}"))
    if len(report) != len(expected_ids):
        items.append(Item("report-size", None, False,
                          f"{len(report)} records, expected {len(expected_ids)}"))
    return items


def _command_ms(result: dict) -> float:
    return (result["t_end"] - result["t_start"]) * 1e3


def check_suite(expected_ids, generated):
    def check(result):
        items = _check_report(result, expected_ids, generated)
        if result["code"] != 0:
            items.append(Item("suite-exit", None, False,
                              f"exit code {result['code']}, expected 0"))
        return items
    return check


def check_verify(rid, generated, name=None):
    def check(result):
        # the registry's fail verdicts exit 1, everything else 0
        want_code = 1 if _expected_record(rid, generated)["status"] == "fail" else 0
        items = _check_report(result, [rid], generated)
        if result["code"] != want_code:
            items[0].ok = False
            items[0].detail += f" exit code {result['code']}, expected {want_code}"
        items[0].ms = _command_ms(result)
        items[0].name = name or rid
        return items
    return check


def check_param(target):
    def check(result):
        want = PINS["param_check"][target]
        ok = result["code"] == 0 and result["stdout"] == want
        return [Item(f"param-check-{target}", _command_ms(result), ok,
                     "" if ok else f"output {result['stdout']!r}")]
    return check


def check_coeffs(sel, order):
    def check(result):
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        want = PINS["coeffs"][f"{sel}@{order}"]
        ok = result["code"] == 0 and digest == want
        return [Item(f"coeffs-{sel}@{order}", _command_ms(result), ok,
                     "" if ok else f"sha256 {digest}, pinned {want}")]
    return check


def cross_check_coeffs(outputs: dict[str, str]) -> list[Item]:
    """A1 and A2 (and B1 and B2) are two defining series of one function:
    their printed coefficients must agree through COEFF_SAME_UPTO."""
    items = []
    for a, b in COEFF_SAME:
        if a not in outputs or b not in outputs:
            continue
        la = outputs[a].splitlines()[:COEFF_SAME_UPTO + 1]
        lb = outputs[b].splitlines()[:COEFF_SAME_UPTO + 1]
        ok = la == lb and len(la) == COEFF_SAME_UPTO + 1
        items.append(Item(f"same-{a}-{b}", None, ok,
                          "" if ok else "coefficient lists differ"))
    return items


# -- seeded generators -----------------------------------------------------

# Every E is a product of f_k^e over these k and e, paired at random, so
# each E takes the same series operations and the seed moves the workload's
# figures little.
_ROUNDTRIP_KS = (1, 2, 3, 4)
_ROUNDTRIP_EXPS = (-3, -1, 2, 4)


def gen_roundtrips(rng: random.Random, count: int) -> list[dict]:
    """Registry records E = sum_r q^r * SUBST(EXTRACT(E, 3, r), 3) for random
    eta-quotients E; true for every E, so each must pass."""
    records = []
    for i in range(count):
        exps = rng.sample(_ROUNDTRIP_EXPS, len(_ROUNDTRIP_KS))
        coeff = rng.choice((1, -1, 2, -3))
        e = f"{coeff}*q^{rng.randint(0, 2)}*" + "*".join(
            f"f{k}^{x}" for k, x in zip(_ROUNDTRIP_KS, exps))
        rhs = " + ".join(f"q^{r}*SUBST(EXTRACT({e}, 3, {r}), 3)" for r in range(3))
        records.append({"id": f"gen-roundtrip-{i}", "tier": "core",
                        "anchor": "generated", "lhs": e, "rhs": rhs,
                        "order": ROUNDTRIP_ORDER})
    return records


def _sm(sign: int, exp: int) -> str:
    return f"{'-' if sign < 0 else ''}q^{exp}"


def gen_change_z(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Instances of the change-of-z identity for Appell-Lerch sums,
    m(x,Q,z1) - m(x,Q,z0)
      = z0 J^3 j(z1/z0) j(x z0 z1) / (j(z0) j(z1) j(x z0) j(x z1)),
    with Q = q^b, j(.) = j(.;Q), J = f_b and x, z0, z1 signed monomials."""
    b = CHANGE_Z_BASE
    out = []
    while len(out) < count:
        (sx, a), (s0, e0), (s1, e1) = [
            (rng.choice((1, -1)), rng.randint(0, b - 1)) for _ in range(3)]
        thetas = [(s0, e0), (s1, e1), (s1 * s0, e1 - e0),
                  (sx * s0 * s1, a + e0 + e1), (sx * s0, a + e0), (sx * s1, a + e1)]
        # every theta argument q^e has 0 <= e < b and is not +1 (j(1;Q) = 0)
        if (s0, e0) == (s1, e1) or not all(
                0 <= e < b and (s, e) != (1, 0) for s, e in thetas):
            continue
        j = [f"J({_sm(s, e)}, {b})" for s, e in thetas]
        lhs = (f"AL({_sm(sx, a)}, {b}, {_sm(s1, e1)})"
               f" - AL({_sm(sx, a)}, {b}, {_sm(s0, e0)})")
        rhs = (f"{'-' if s0 < 0 else ''}q^{e0}*f{b}^3*{j[2]}*{j[3]}"
               f"/({j[0]}*{j[1]}*{j[4]}*{j[5]})")
        out.append((lhs, rhs))
    return out


# -- workloads ----------------------------------------------------------------

def suite_eta(rng: random.Random, src: str, workdir: str, short: bool) -> list[Proc]:
    ids = list(SUITE_ETA_IDS[:3] if short else SUITE_ETA_IDS)
    gen = gen_roundtrips(rng, 1 if short else ROUNDTRIPS)
    with open(os.path.join(src, "qid", "data", "registry.json")) as fh:
        source = {r["id"]: r for r in json.load(fh)["records"]}
    missing = [rid for rid in ids if rid not in source]
    if missing:
        raise SystemExit(f"registry lacks pinned records: {', '.join(missing)}")
    path = os.path.join(workdir, "suite-eta-registry.json")
    with open(path, "w") as fh:
        json.dump({"version": 1, "records": [source[r] for r in ids] + gen}, fh)
    generated = {r["id"]: r["order"] for r in gen}
    targets = PARAM_TARGETS[:1] if short else PARAM_TARGETS
    expected = sorted(ids + list(generated))
    return [Proc(
        [["suite", "--registry", path, "--json"]]
        + [["param-check", t] for t in targets],
        [check_suite(expected, generated)] + [check_param(t) for t in targets])]


def verify_mock(rng: random.Random, src: str, workdir: str, short: bool) -> list[Proc]:
    ids = list(VERIFY_MOCK_IDS[:2] if short else VERIFY_MOCK_IDS)
    procs = [Proc([["verify", rid, "--json"]], [check_verify(rid, {})])
             for rid in ids]
    for i, (lhs, rhs) in enumerate(gen_change_z(rng, 1 if short else CHANGE_Z)):
        procs.append(Proc(
            [["verify", f"--expr={lhs}", f"--expr={rhs}",
              "--order", str(CHANGE_Z_ORDER), "--json"]],
            [check_verify("adhoc", {"adhoc": CHANGE_Z_ORDER}, f"change-z-{i}")]))
    rng.shuffle(procs)
    return procs


def oracle_coeffs(rng: random.Random, src: str, workdir: str, short: bool) -> list[Proc]:
    # short: A1 and A2 only, so the cross-check still runs
    items = list(COEFF_ITEMS[::3] if short else COEFF_ITEMS)
    rng.shuffle(items)
    return [Proc([["coeffs", sel, "--upto", str(n)]], [check_coeffs(sel, n)])
            for sel, n in items]


WORKLOADS = {
    "suite-eta": suite_eta,
    "verify-mock": verify_mock,
    "oracle-coeffs": oracle_coeffs,
}
