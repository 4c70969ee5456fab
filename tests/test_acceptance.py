"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All comparisons are exact rational equality; the stated orders are minimums
actually achieved (compared_order is asserted, not assumed).
"""

import random
import time

import pytest

from qid import (SignedMonomial, TruncatedLaurentSeries, appell_lerch_m,
                 AppellLerchSpec, dissect_extract, dissect_reconstruct,
                 eta_f, load_registry, mock_theta_series, prove_zero,
                 series_zero_crosscheck, theta_j, verify)
from qid.errors import WindowUnstableError
from qid.expressions import PARAM_TARGETS

from test_qproducts import bilateral_theta_sum, pentagonal_terms


@pytest.fixture(scope="module")
def registry():
    return {r.id: r for r in load_registry()}


def report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def check_records(registry, ids, order):
    failures = []
    for rid in ids:
        out = verify(registry[rid], order=order)
        if out.status != "pass" or out.compared_order < order:
            failures.append((rid, out.status, out.message))
    return failures


def test_criterion_1_main_theorems(registry):
    t0 = time.perf_counter()
    failures = check_records(
        registry, ["nath-das-1.10", "nath-das-1.11", "nath-das-1.12"], 200)
    elapsed = time.perf_counter() - t0
    report(1, "main theorems at order 200", not failures and elapsed < 180)


def test_criterion_2_lemmas(registry):
    failures = check_records(
        registry, ["lemma-f1-zero", "lemma-f2-zero", "lemma-f3-zero"], 200)
    report(2, "vanishing lemmas at order 200", not failures)


def test_criterion_3_two_path_zero_proofs():
    ok = True
    for name, e in PARAM_TARGETS.items():
        symbolic = prove_zero(e)
        numeric = series_zero_crosscheck(e, 200)
        if symbolic.status != "ProvedZero" or numeric.status != "pass":
            ok = False
    report(3, "two-path zero proofs for S0/S1/H0/H1/R0", ok)


def test_criterion_4_structural_splits(registry):
    failures = check_records(
        registry, ["split-f1", "split-f2", "split-f3"], 200)
    report(4, "even/odd structural splits at order 200", not failures)


def test_criterion_5_appell_lerch_layer(registry):
    ids = ["hm-b-appell", "hm-a-appell", "hm-mu2-appell",
           "al-z-change-b", "al-cube-b", "al-z-change-a", "al-cube-a",
           "b-al-base36", "b-trisection-via-f1", "a-al-base36",
           "a-trisection-via-f2", "mu2-al-base36", "mu2-trisection-via-f3"]
    failures = check_records(registry, ids, 150)
    report(5, "Appell-Lerch representations and derivations at order 150",
           not failures)


def test_criterion_6_classical_dissections(registry):
    ids = ["quartic-recip-f1", "quartic-recip-f3", "quartic-f3",
           "recip-f1f3", "f3-over-f1cubed", "f1sq-over-f2-trisection",
           "f1-over-f2sq-trisection", "f2f4-over-f1f8-trisection",
           "f3cubed-over-f1", "f1-over-f3cubed", "f2fifth-trisection",
           "f2-over-f1f4-trisection", "f1cubed-over-f3", "f1sq-over-f3sq",
           "f1f3-split"]
    failures = check_records(registry, ids, 200)
    report(6, "classical dissection identities at order 200", not failures)


def test_criterion_7_congruences(registry):
    ids = ["nath-das-b6n3", "nath-das-b36n22", "nath-das-b12n9",
           "mao-b10n6", "mao-b10n8", "kaur-rana-b12n10", "kaur-rana-b18n16",
           "wang-parity"]
    failures = [(rid, verify(registry[rid]).status) for rid in ids
                if verify(registry[rid]).status != "pass"]
    report(7, "partition congruences and parity characterization",
           not failures)


def test_criterion_8_property_suites():
    ok = True

    # multi-form agreement to order 300
    ok &= mock_theta_series("A1", 300) == mock_theta_series("A2", 300)
    ok &= mock_theta_series("B1", 300) == mock_theta_series("B2", 300)
    ok &= mock_theta_series("B2", 300) == mock_theta_series("B3", 300)

    # pentagonal oracle for f1 to order 500
    ok &= eta_f(1, 500).nonzero_terms() == pentagonal_terms(500)

    # Jacobi triple product cross-check, 20 random instantiations, order 200
    rng = random.Random(552301)
    done = 0
    while done < 20:
        base = rng.randint(1, 12)
        z = SignedMonomial(rng.choice([1, -1]), rng.randint(-6, 6))
        if z.sign == 1 and z.exp % base == 0:
            continue
        ok &= theta_j(z, base, 200) == bilateral_theta_sum(z, base, 200)
        done += 1

    # dissection round-trip on 50 random series
    for _ in range(50):
        m = rng.choice([2, 3, 4, 6])
        min_exp = rng.randint(-6, 3)
        coeffs = {min_exp + i: rng.randint(-9, 9) for i in range(rng.randint(1, 30))}
        order = max(coeffs) + rng.randint(0, 3)
        s = TruncatedLaurentSeries.from_terms(coeffs, order)
        back = dissect_reconstruct(
            [dissect_extract(s, m, r) for r in range(m)], m)
        joint = min(back.order, s.order)
        ok &= back.truncate(joint) == s.truncate(joint)

    # adaptive window stability assertions must not fire
    try:
        for spec in [AppellLerchSpec(SignedMonomial(1, 0), 4, SignedMonomial(1, 3)),
                     AppellLerchSpec(SignedMonomial(-1, 1), 4, SignedMonomial(-1, 0)),
                     AppellLerchSpec(SignedMonomial(1, -12), 36, SignedMonomial(-1, 0))]:
            for order in (0, 25, 80):
                appell_lerch_m(spec, order)
    except WindowUnstableError:
        ok = False

    report(8, "property suites (forms, pentagonal, theta, dissection, window)",
           ok)


def test_criterion_9_background_findings(registry):
    ids = ["chan-mao-b4n1", "chan-mao-b4n2", "mao-b6n2", "mao-b6n4"]
    outcomes = {rid: verify(registry[rid], order=100) for rid in ids}
    ok = True
    for rid, out in outcomes.items():
        # definitive pass/fail with precise diagnostics, never an error
        ok &= out.status in ("pass", "fail")
        if out.status == "fail":
            ok &= out.first_mismatch is not None
    # the two quoted identities that disagree with direct summation are
    # surfaced as structured findings with their first mismatch pinned
    ok &= outcomes["mao-b6n2"].status == "pass"
    ok &= outcomes["mao-b6n4"].status == "pass"
    b4n2 = outcomes["chan-mao-b4n2"]
    ok &= b4n2.status == "fail" and b4n2.first_mismatch[0] == 0
    ok &= (b4n2.first_mismatch[1], b4n2.first_mismatch[2]) == (4, 2)
    report(9, "background tier verified with structured findings", ok)
