"""Appell-Lerch sums and the instantiated parameter-change identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qid import (AppellLerchSpec, IdentityRecord, NonGenericParameterError,
                 SignedMonomial, appell_lerch_m, eta_expression,
                 eta_expression_eval, load_registry, mock_theta_series,
                 verify)
from qid.appell_lerch import _term_min_exp, _window
from qid.caches import clear_all
from qid.dsl import parse
from qid.engine import change_z_exprs, cube_decomposition_exprs, eval_expr

SM = SignedMonomial
ONE = SM(1, 0)
MINUS_ONE = SM(-1, 0)


def _verify_pair(lhs, rhs, order):
    return verify(IdentityRecord(id="t", tier="core", anchor="", lhs=lhs,
                                 rhs=rhs), order)


def test_b_representation():
    # -q^{-1} m(1, q^4, q^3) equals the direct summation of the B series
    m = appell_lerch_m(AppellLerchSpec(ONE, 4, SM(1, 3)), 61)
    series = m.scale(-1).shift(-1)
    oracle = mock_theta_series("B1", 60)
    assert series.truncate(60) == oracle
    assert [series.coefficient(i) for i in range(3)] == [1, 2, 4]


def test_a_representation():
    m = appell_lerch_m(AppellLerchSpec(SM(1, 1), 4, SM(1, 2)), 60)
    series = m.scale(-1)
    assert series.truncate(60) == mock_theta_series("A1", 60)
    assert [series.coefficient(i) for i in range(2)] == [0, 1]


def test_mu2_representation():
    m = appell_lerch_m(AppellLerchSpec(SM(-1, 1), 4, MINUS_ONE), 60)
    correction = eta_expression_eval(
        eta_expression([(1, 0, {2: 8, 1: -3, 4: -4})]), 60)
    assert m.scale(4) - correction == mock_theta_series("MU2", 60)


def test_half_denominator_term():
    # m(1, q^36, -1): the r=0 summand denominator is 1-(-1) = 2
    s = appell_lerch_m(AppellLerchSpec(ONE, 36, MINUS_ONE), 40)
    from fractions import Fraction
    assert s.coefficient(0) == Fraction(1, 4)
    assert s.coefficient(36) == Fraction(3, 4)


@pytest.mark.parametrize("x, base, z", [
    (ONE, 4, SM(1, 3)), (SM(-1, 1), 4, MINUS_ONE), (ONE, 36, MINUS_ONE),
    # x or z a negative power of q
    (SM(1, -3), 4, SM(1, 2)), (SM(-1, 2), 3, SM(1, -5)),
    (SM(1, -6), 5, SM(-1, -1)), (SM(-1, -9), 7, SM(1, 4))])
def test_a_kept_sum_truncates_to_a_fresh_one(x, base, z):
    spec = AppellLerchSpec(x, base, z)
    for n in (0, 3, 17, 60):
        clear_all()
        long = appell_lerch_m(spec, 120)
        short = appell_lerch_m(spec, n)  # from the memo
        clear_all()
        fresh = appell_lerch_m(spec, n)
        assert short == fresh and fresh.order == n
        assert long.truncate(n) == fresh


def test_non_generic_pole_rejected():
    # x*z*q^{4r} = +1 at r = 0
    with pytest.raises(NonGenericParameterError):
        AppellLerchSpec(SM(1, 2), 4, SM(1, -2))


def test_change_z_pinned_instantiations():
    out = _verify_pair(*change_z_exprs(ONE, 4, SM(1, 3), MINUS_ONE), 100)
    assert out.status == "pass", out.message

    out = _verify_pair(*change_z_exprs(SM(1, 1), 4, SM(1, 2), MINUS_ONE),
                       100)
    assert out.status == "pass", out.message


def test_change_z_rhs_values():
    # the difference equals -f2^6 f4^3 / (4 f1^4 f8^4)
    from fractions import Fraction
    m1 = appell_lerch_m(AppellLerchSpec(ONE, 4, SM(1, 3)), 50)
    m0 = appell_lerch_m(AppellLerchSpec(ONE, 4, MINUS_ONE), 50)
    rhs = eta_expression_eval(
        eta_expression([(Fraction(-1, 4), 0, {2: 6, 4: 3, 1: -4, 8: -4})]), 50)
    assert (m1 - m0).truncate(40) == rhs.truncate(40)


def test_change_z_random_generic():
    # z ranges over twelve periods of Q either way, so the summands that
    # reach the truncation order lie up to twelve indices from r = 0
    rng = random.Random(77003)
    checked = 0
    while checked < 20:
        base = rng.randint(1, 8)
        x = SM(rng.choice([1, -1]), rng.randint(-3, 3))
        z0 = SM(rng.choice([1, -1]), rng.randint(-12 * base, 12 * base))
        z1 = SM(rng.choice([1, -1]), rng.randint(-12 * base, 12 * base))
        out = _verify_pair(*change_z_exprs(x, base, z1, z0), 200)
        if out.status == "error":
            continue  # non-generic draw or z1 = z0, try another
        assert out.status == "pass", (x, base, z1, z0, out.message)
        checked += 1


def test_cube_decomposition_instantiations():
    for x in (ONE, SM(1, 1), SM(-1, 1)):
        out = _verify_pair(*cube_decomposition_exprs(x, 4), 100)
        assert out.status == "pass", (x, out.message)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda base: st.tuples(
    st.just(base), st.integers(-8, 8), st.integers(-12 * base, 12 * base))),
    st.integers(0, 40))
def test_window_matches_brute_force(params, order):
    # the window against every index of a range far wider than any window
    # drawn here: at the order appell_lerch_m sums to, and at the orders
    # where the window holds only the minimising indices or none
    base, a, t = params
    e_theta = sum(range(t, 0, base)) + sum(range(base - t, 0, base))
    lows = {r: _term_min_exp(a, t, base, r) for r in range(-400, 401)}
    low = min(lows.values())
    for order_s in (order - (t - e_theta), low, low - 1):
        assert min(lows[-400], lows[400]) > order_s
        brute = [r for r, e in lows.items() if e <= order_s]
        assert list(_window(a, t, base, order_s)) == brute


@pytest.mark.parametrize("x, base, z, k", [
    (SM(1, 1), 1, SM(-1, -20), 20), (SM(1, 1), 1, MINUS_ONE, -20),
    (ONE, 4, SM(1, 3), 7), (SM(-1, 1), 4, SM(-1, -30), 9),
    (SM(1, -12), 36, MINUS_ONE, -5), (SM(1, 2), 3, SM(-1, 40), -15),
])
def test_z_shift_invariance(x, base, z, k):
    # m(x,Q,z) = m(x,Q,zQ^k): the summands that reach the truncation order
    # lie k indices apart on the two sides
    zk = z.times(SM(1, base * k))
    out = _verify_pair(f"AL({x}, {base}, {z})", f"AL({x}, {base}, {zk})", 10)
    assert (out.status, out.compared_order) == ("pass", 10), out.message


def test_templates_can_fail():
    lhs, rhs = change_z_exprs(ONE, 4, SM(1, 3), MINUS_ONE)
    out = _verify_pair(lhs, rhs + " + q^7", 60)
    assert (out.status, out.first_mismatch[0]) == ("fail", 7)

    lhs, rhs = cube_decomposition_exprs(SM(1, 1), 4)
    out = _verify_pair(lhs, rhs + " + q^7", 60)
    assert (out.status, out.first_mismatch[0]) == ("fail", 7)

    # the correction term's coefficient is eps/2; its sign matters
    lhs, rhs = cube_decomposition_exprs(ONE, 4)
    assert rhs.count("(1/2)") == 1
    out = _verify_pair(lhs, rhs.replace("(1/2)", "(-1/2)"), 60)
    assert out.status == "fail"
    assert out.first_mismatch == (-4, Fraction(0), Fraction(-1, 2))


@pytest.mark.parametrize("rec_id, exprs", [
    ("al-z-change-b", change_z_exprs(ONE, 4, SM(1, 3), MINUS_ONE)),
    ("al-z-change-a", change_z_exprs(SM(1, 1), 4, SM(1, 2), MINUS_ONE)),
    ("al-cube-b", cube_decomposition_exprs(ONE, 4)),
    ("al-cube-a", cube_decomposition_exprs(SM(1, 1), 4)),
])
def test_templates_match_registry(rec_id, exprs):
    rec = {r.id: r for r in load_registry()}[rec_id]
    lhs, rhs = exprs
    assert parse(lhs) == parse(rec.lhs)
    assert eval_expr(parse(rhs), 150) == eval_expr(parse(rec.rhs), 150)


def test_non_generic_draw_is_an_error():
    # x*z1 = q^0: the summand denominator of m(x, q^4, z1) vanishes at r = 0
    out = _verify_pair(*change_z_exprs(SM(1, 2), 4, SM(1, -2), MINUS_ONE), 30)
    assert (out.status, out.compared_order) == ("error", -1)
    assert "non-generic" in out.message
