"""Valence-formula certificates of eta-quotient sums, checked against a
test-local reference and shown able to fail."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qid import (EtaMonomial, QidError, VerificationOutcome, eta_expression,
                 expr_to_eta, load_registry, verify)
from qid import dsl
from qid.caches import clear_all
from qid.certificate import Certificate, certify, cusp_order, valence_bound
from qid.dsl import parse
from qid.paramcheck import prove_zero

from test_engine import identity, two_sided


@pytest.fixture(scope="module")
def records():
    return {r.id: r for r in load_registry()}


def flat(node) -> list:
    """The terms (coeff, qpow, {k: e}) of an eta-quotient sum, a sum of
    such sums, q times one, or SUBST(E, m) of one, read from the tree."""
    if isinstance(node, dsl.Add):
        return flat(node.left) + flat(node.right)
    if isinstance(node, dsl.Mul) and node.left == dsl.Q():
        return [(c, a + 1, ex) for c, a, ex in flat(node.right)]
    if isinstance(node, dsl.Subst):
        m = node.m
        return [(c, m * a, {m * k: e for k, e in ex.items()})
                for c, a, ex in flat(node.expr)]
    form = expr_to_eta(node)
    return [(Fraction(t.num, form.den), t.qpow, dict(t.exps))
            for t in form.terms]


def difference(lhs: str, rhs: str) -> list:
    """The terms of lhs - rhs, like terms summed where the first stands
    and zero sums dropped."""
    sums = {}
    for c, a, ex in flat(parse(lhs)) + [(-c, a, ex)
                                        for c, a, ex in flat(parse(rhs))]:
        key = a, tuple(sorted((k, e) for k, e in ex.items() if e))
        sums[key] = sums.get(key, 0) + c
    return [(c, a, dict(ex)) for (a, ex), c in sums.items() if c]


# -- an independent reference: own divisors, phi, gcd and Fraction code ----

def ref_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def ref_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def ref_phi(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if ref_gcd(j, n) == 1)


def ref_is_square(x: Fraction) -> bool:
    return all(isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


def ref_order(g: dict, n: int, d: int) -> Fraction:
    """Ligozat's order of prod_k eta(k tau)^(g_k) at the cusps c/d of
    Gamma0(n), summed term by term in Fractions."""
    return Fraction(n, 24) * sum(
        Fraction(ref_gcd(d, k) ** 2 * r, ref_gcd(d, n // d) * d * k)
        for k, r in g.items())


def reference_level_and_bound(terms: list) -> tuple[int, int]:
    """(N, B) of a sum of at least two terms (coeff, qpow, {k: e}): the
    quotients by the first term of least qpow, the least multiple N of
    their indices' lcm that meets Newman's conditions, found by trying
    each multiple, and the sum over the cusps other than infinity of the
    pole orders, counted phi(gcd(d, N/d)) times for each d."""
    weights = {sum(ex.values()) for _, _, ex in terms}
    offsets = {24 * a - sum(k * e for k, e in ex.items()) for _, a, ex in terms}
    assert len(weights) == len(offsets) == 1
    low = min(a for _, a, _ in terms)
    base = next(ex for _, a, ex in terms if a == low)
    gs = []
    for _, a, ex in terms:
        if ex is not base:
            g = {k: ex.get(k, 0) - base.get(k, 0) for k in set(ex) | set(base)}
            gs.append({k: r for k, r in g.items() if r})
    lcm = 1
    for g in gs:
        for k in g:
            lcm = lcm * k // ref_gcd(lcm, k)
    n = lcm
    while any(sum(n // k * r for k, r in g.items()) % 24 for g in gs):
        n += lcm
    for g in gs:
        assert sum(k * r for k, r in g.items()) % 24 == 0
        assert sum(g.values()) == 0
        product = Fraction(1)
        for k, r in g.items():
            product *= Fraction(k) ** r
        assert ref_is_square(product)
    bound = Fraction(0)
    for d in ref_divisors(n)[:-1]:
        orders = [ref_order(g, n, d) for g in gs]
        assert all(o.denominator == 1 for o in orders)
        bound += ref_phi(ref_gcd(d, n // d)) * max(0, -min(orders))
    assert bound.denominator == 1
    return n, int(bound)


#: (N, B) of lhs - rhs for the 26 eta-quotient identity records
LEVELS_AND_BOUNDS = {
    "f1-over-f2sq-trisection": (18, 2), "f1-over-f3cubed": (12, 1),
    "f1cubed-over-f3": (12, 1), "f1f3-split": (24, 2),
    "f1sq-over-f2-trisection": (18, 1), "f1sq-over-f3sq": (24, 2),
    "f2-over-f1f4-trisection": (36, 4), "f2f4-over-f1f8-trisection": (72, 6),
    "f2fifth-trisection": (36, 2), "f3-over-f1cubed": (12, 1),
    "f3cubed-over-f1": (12, 1), "lemma-f1-zero": (24, 8),
    "lemma-f2-zero": (24, 5), "lemma-f3-zero": (24, 4), "quartic-f3": (24, 4),
    "quartic-recip-f1": (8, 1), "quartic-recip-f3": (24, 4),
    "recip-f1f3": (24, 2), "split-f1": (24, 19), "split-f2": (24, 9),
    "split-f3": (24, 4), "zero-h0": (12, 5), "zero-h1": (12, 3),
    "zero-r0": (12, 3), "zero-s0": (12, 9), "zero-s1": (12, 8),
}


def test_the_eta_records_are_the_ones_pinned(records):
    flattens = set()
    for rid, rec in records.items():
        if rec.kind == "identity":
            try:
                difference(rec.lhs, rec.rhs)
            except QidError:
                continue
            flattens.add(rid)
    assert flattens == set(LEVELS_AND_BOUNDS)


@pytest.mark.parametrize("rid", sorted(LEVELS_AND_BOUNDS))
def test_level_and_bound_match_the_reference(records, rid):
    rec = records[rid]
    terms = difference(rec.lhs, rec.rhs)
    want = LEVELS_AND_BOUNDS[rid]
    assert reference_level_and_bound(terms) == want
    form = eta_expression(terms)
    assert valence_bound(form) == want
    clear_all()
    assert certify(form, rec.default_order) == Certificate("proved", *want)


def test_ligozat_orders_of_textbook_quotients():
    # eta(2 tau)^24 / eta(tau)^24 on Gamma0(2): a simple zero at infinity
    # (d = 2) and a simple pole at 0 (d = 1)
    r = {2: 24, 1: -24}
    assert [cusp_order(r, 2, d) for d in (2, 1)] == [1, -1]
    # eta(tau)^8 / eta(4 tau)^8 on Gamma0(4): a pole at infinity, a zero
    # at 0, neither at 1/2
    r = {1: 8, 4: -8}
    assert [cusp_order(r, 4, d) for d in (4, 1, 2)] == [-1, 1, 0]
    # the reference sums the same orders another way
    for r, n in (({2: 24, 1: -24}, 2), ({1: 8, 4: -8}, 4),
                 ({3: 12, 1: -12}, 3), ({2: 8, 1: 8, 4: -16}, 4)):
        assert [cusp_order(r, n, d) for d in ref_divisors(n)] \
            == [ref_order(r, n, d) for d in ref_divisors(n)]


def test_empty_sum_and_single_term():
    assert certify(expr_to_eta(parse("f1 - f1")), 10) \
        == Certificate("proved", 1, 0)
    one = expr_to_eta(parse("3*q^4*f2^5/f7"))
    assert certify(one, 4) == Certificate("nonzero", 1, 0)
    assert certify(one, 3) == Certificate("bound_exceeds_order", 1, 0)


@pytest.mark.parametrize("k", [0, -2])
def test_an_index_below_one_is_refused(k):
    # f_0 would reach valence_bound as a division by zero
    with pytest.raises(ValueError, match="index k must be positive"):
        EtaMonomial(1, 0, ((k, 1),))
    with pytest.raises(ValueError, match="index k must be positive"):
        certify(eta_expression([(1, 0, {k: 2, 2: 1}), (-1, 0, {1: 2, k: 1})]),
                10)


F3CUBED = ("f3^3/f1", "f4^3*f6^2/(f2^2*f12) + q*f12^3/f4")


@pytest.mark.parametrize("order", [1, 2, 60])
def test_a_doubled_coefficient_is_nonzero(order):
    lhs, rhs = F3CUBED[0], "f4^3*f6^2/(f2^2*f12) + 2*q*f12^3/f4"
    clear_all()
    assert certify(eta_expression(difference(lhs, rhs)), order) \
        == Certificate("nonzero", 12, 1)
    out = verify(identity(lhs, rhs), order)
    assert out == two_sided(lhs, rhs, order)
    assert (out.status, out.first_mismatch[0]) == ("fail", 1)
    # below a0 + B = 1 the sum is not expanded, and agrees through q^0
    assert certify(eta_expression(difference(lhs, rhs)), 0) \
        == Certificate("bound_exceeds_order", 12, 1)
    assert verify(identity(lhs, rhs), 0) == VerificationOutcome("pass", 0)


def test_an_exponent_edit_is_not_applicable():
    # f12^3/f4 -> f12^3/f4^2 changes that term's weight
    lhs, rhs = F3CUBED[0], "f4^3*f6^2/(f2^2*f12) + q*f12^3/f4^2"
    form = eta_expression(difference(lhs, rhs))
    assert valence_bound(form) is None
    assert certify(form, 60) == Certificate("not_applicable")
    out = verify(identity(lhs, rhs), 60)
    assert out == two_sided(lhs, rhs, 60) and out.status == "fail"


def test_a_stray_term_is_not_applicable_and_still_fails(records):
    rec = records["f1sq-over-f2-trisection"]
    rhs = f"{rec.rhs} + q^40*f9^2/f18"
    form = eta_expression(difference(rec.lhs, rhs))
    assert certify(form, 200) == Certificate("not_applicable")
    out = verify(identity(rec.lhs, rhs), 200)
    assert out == two_sided(rec.lhs, rhs, 200)
    assert (out.status, out.first_mismatch[0]) == ("fail", 40)


def test_a_level_above_the_cap_is_not_applicable():
    # eta(10007 tau)^12 / eta(tau)^12 meets Newman's conditions on
    # Gamma0(10007), above MAX_LEVEL
    form = expr_to_eta(parse("f1^12 - q^5003*f10007^12"))
    assert certify(form, 1000) == Certificate("not_applicable")
    assert verify(identity("f1^12", "q^5003*f10007^12"), 1000) \
        == two_sided("f1^12", "q^5003*f10007^12", 1000)


def test_a_bound_above_the_order_expands_through_the_order(records):
    rec = records["zero-s0"]
    form = eta_expression(difference(rec.lhs, rec.rhs))
    for order in (0, 8):
        assert certify(form, order) \
            == Certificate("bound_exceeds_order", 12, 9)
        assert verify(rec, order) == VerificationOutcome("pass", order)


# -- the certificate agrees with the (p,k)-parametrization -----------------

#: the registry identities qid.paramcheck.prove_zero proves: every index
#: is one of 1, 2, 3, 4, 6 and 12
PARAMETRIZED = ("zero-s0", "zero-s1", "zero-h0", "zero-h1", "zero-r0",
                "f3-over-f1cubed", "f3cubed-over-f1", "f1-over-f3cubed",
                "f1cubed-over-f3")


def test_the_parametrized_records_are_the_ones_proved(records):
    proved = set()
    for rid in LEVELS_AND_BOUNDS:
        rec = records[rid]
        try:
            out = prove_zero(expr_to_eta(parse(f"({rec.lhs}) - ({rec.rhs})")))
        except QidError:
            continue  # an index without a parametrization
        if out.proved:
            proved.add(rid)
    assert proved == set(PARAMETRIZED)
    assert {LEVELS_AND_BOUNDS[rid][0] for rid in PARAMETRIZED} == {12}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PARAMETRIZED),
       st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       st.integers(0, 20), st.data())
def test_a_parametrized_proof_is_certified(records, rid, exps, extra, data):
    # lhs - rhs times a quotient of f1, f2, f3, f4, f6 and f12, which
    # multiplies every term alike: proved by both, the certificate at any
    # order from a0 + B up; with one coefficient doubled, by neither
    quotient = dict(zip((1, 2, 3, 4, 6, 12), exps))
    rec = records[rid]
    terms = [(c, a, {k: ex.get(k, 0) + quotient.get(k, 0)
                     for k in ex.keys() | quotient.keys()})
             for c, a, ex in difference(rec.lhs, rec.rhs)]
    form = eta_expression(terms)
    _, bound = valence_bound(form)
    order = min(t.qpow for t in form.terms) + bound + extra
    clear_all()
    assert prove_zero(form).proved
    assert certify(form, order).status == "proved"
    i = data.draw(st.integers(0, len(terms) - 1))
    c, a, ex = terms[i]
    doubled = eta_expression(terms[:i] + [(2 * c, a, ex)] + terms[i + 1:])
    clear_all()
    assert not prove_zero(doubled).proved
    assert certify(doubled, order).status != "proved"
