"""Appell-Lerch sums and the instantiated parameter-change identities."""

import random

import pytest

from qid import (AppellLerchSpec, NonGenericParameterError, SignedMonomial,
                 appell_lerch_m, change_z_identity_check,
                 cube_decomposition_check, eta_expression,
                 eta_expression_eval, mock_theta_series)

SM = SignedMonomial
ONE = SM(1, 0)
MINUS_ONE = SM(-1, 0)


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


def test_non_generic_pole_rejected():
    # x*z*q^{4r} = +1 at r = 0
    with pytest.raises(NonGenericParameterError):
        AppellLerchSpec(SM(1, 2), 4, SM(1, -2))


def test_change_z_equal_arguments():
    out = change_z_identity_check(ONE, 4, SM(1, 3), SM(1, 3), 30)
    assert out.status == "pass"


def test_change_z_pinned_instantiations():
    out = change_z_identity_check(ONE, 4, SM(1, 3), MINUS_ONE, 100)
    assert out.status == "pass", out.message

    out = change_z_identity_check(SM(1, 1), 4, SM(1, 2), MINUS_ONE, 100)
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
    rng = random.Random(77003)
    checked = 0
    while checked < 10:
        base = rng.randint(1, 8)
        x = SM(rng.choice([1, -1]), rng.randint(-3, 3))
        z0 = SM(rng.choice([1, -1]), rng.randint(-3, 3))
        z1 = SM(rng.choice([1, -1]), rng.randint(-3, 3))
        out = change_z_identity_check(x, base, z1, z0, 200)
        if out.status == "error":
            continue  # non-generic draw, try another
        assert out.status == "pass", (x, base, z1, z0, out.message)
        checked += 1


def test_cube_decomposition_instantiations():
    for x in (ONE, SM(1, 1), SM(-1, 1)):
        out = cube_decomposition_check(x, 4, 100)
        assert out.status == "pass", (x, out.message)


def test_window_stability_sweep():
    # the runtime window checks raise WindowUnstableError if the adaptive
    # bilateral truncation were unsound; exercise a spread of shapes
    specs = [
        AppellLerchSpec(ONE, 4, SM(1, 3)),
        AppellLerchSpec(SM(1, 1), 4, SM(1, 2)),
        AppellLerchSpec(SM(-1, 1), 4, MINUS_ONE),
        AppellLerchSpec(SM(1, 12), 36, MINUS_ONE),
        AppellLerchSpec(SM(1, -12), 36, MINUS_ONE),
        AppellLerchSpec(SM(-1, -9), 36, MINUS_ONE),
        AppellLerchSpec(SM(-1, 2), 3, SM(-1, 0)),
    ]
    for spec in specs:
        for order in (0, 1, 17, 60):
            appell_lerch_m(spec, order)
