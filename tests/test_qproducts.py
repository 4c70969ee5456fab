"""Pochhammer products, f_k expansion, eta expressions and theta_j."""

import random
from fractions import Fraction

import pytest

from qid import (SignedMonomial, ThetaVanishesError, TruncatedLaurentSeries,
                 eta_expression, eta_expression_eval, eta_f, pochhammer_finite,
                 theta_j)
from qid.qproducts import div_one_minus, mul_one_minus

S = TruncatedLaurentSeries


def pentagonal_terms(order):
    """Euler pentagonal expansion of (q;q)_inf up to the given order."""
    terms = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        sign = (-1) ** k
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                terms[e] = sign
        k += 1
    return terms


def test_pochhammer_examples():
    one_factor = pochhammer_finite(SignedMonomial(-1, 1), 2, 1, 5)
    assert one_factor.nonzero_terms() == {0: 1, 1: 1}

    two = pochhammer_finite(SignedMonomial(1, 1), 2, 2, 5)
    assert two.nonzero_terms() == {0: 1, 1: -1, 3: -1, 4: 1}

    even = pochhammer_finite(SignedMonomial(-1, 2), 2, 2, 8)
    assert even.nonzero_terms() == {0: 1, 2: 1, 4: 1, 6: 1}

    assert pochhammer_finite(SignedMonomial(1, 1), 1, 0, 4) == S.one(4)


def test_pochhammer_composition():
    a = SignedMonomial(-1, 1)
    for n, m in [(0, 3), (2, 2), (3, 1)]:
        left = pochhammer_finite(a, 2, n, 30) \
            * pochhammer_finite(a.times(SignedMonomial(1, 2 * n)), 2, m, 30)
        right = pochhammer_finite(a, 2, n + m, 30)
        assert left.truncate(right.order).nonzero_terms() == right.nonzero_terms()


def test_eta_f_pentagonal_short():
    f1 = eta_f(1, 15)
    assert f1.nonzero_terms() == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1,
                                  15: -1}


def test_eta_f_pentagonal_oracle_500():
    f1 = eta_f(1, 500)
    assert f1.nonzero_terms() == pentagonal_terms(500)


def test_eta_f_small():
    assert eta_f(2, 3).nonzero_terms() == {0: 1, 2: -1}
    assert eta_f(7, 5) == S.one(5)  # no factor within the order


def test_eta_quotients():
    e = eta_expression([(1, 0, {2: 7, 3: 2, 1: -6, 4: -1, 6: -1})])
    s = eta_expression_eval(e, 1)
    assert s.coefficient(0) == 1 and s.coefficient(1) == 6

    e = eta_expression([(1, 0, {2: 4, 3: 2, 4: 1, 1: -5, 6: -1})])
    assert eta_expression_eval(e, 0).coefficient(0) == 1

    assert eta_expression_eval(eta_expression([]), 5) == S.zero(5)


def test_eta_expression_concat_distributes():
    t1 = [(2, 1, {1: 2, 3: -1})]
    t2 = [(Fraction(-1, 2), 0, {2: -3, 6: 1})]
    left = eta_expression_eval(eta_expression(t1 + t2), 20)
    right = eta_expression_eval(eta_expression(t1), 20) \
        + eta_expression_eval(eta_expression(t2), 20)
    assert left == right


def test_theta_j_constant():
    s = theta_j(SignedMonomial(-1, 0), 1, 6)
    assert s.coefficient(0) == 2


def test_theta_j_vanishing():
    with pytest.raises(ThetaVanishesError):
        theta_j(SignedMonomial(1, 0), 1, 5)
    with pytest.raises(ThetaVanishesError):
        theta_j(SignedMonomial(1, 8), 4, 5)


def bilateral_theta_sum(z, base, order):
    """j(z; q^base) = sum over n of (-1)^n q^{base*n(n-1)/2} z^n."""
    terms = {}
    reach = 2 * (order + abs(z.exp)) + 10
    for n in range(-reach, reach + 1):
        e = base * n * (n - 1) // 2 + z.exp * n
        if e <= order:
            coeff = 1 if n % 2 == 0 else -z.sign
            terms[e] = terms.get(e, 0) + coeff
    return S.from_terms({e: c for e, c in terms.items() if c}, order)


def test_theta_j_jacobi_triple_product_example():
    z, base, order = SignedMonomial(-1, 1), 3, 40
    assert theta_j(z, base, order) == bilateral_theta_sum(z, base, order)


def test_theta_j_jacobi_triple_product_random():
    rng = random.Random(20240817)
    done = 0
    while done < 20:
        base = rng.randint(1, 12)
        sign = rng.choice([1, -1])
        exp = rng.randint(-6, 6)
        z = SignedMonomial(sign, exp)
        if sign == 1 and exp % base == 0:
            continue  # vanishing theta
        assert theta_j(z, base, 200) == bilateral_theta_sum(z, base, 200), \
            (sign, exp, base)
        done += 1


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 40])
def test_div_one_minus_inverts_mul_one_minus(eps, d):
    s = S.from_terms({-3: Fraction(1, 6), -1: Fraction(-5, 4), 0: 2,
                      4: Fraction(7, 3), 11: -9}, 20)
    assert s.den != 1 and s.min_exp == -3
    assert div_one_minus(mul_one_minus(s, eps, d), eps, d) == s
    geometric = S.from_terms({d * k: eps ** k for k in range(24 // d + 1)}, 24)
    assert div_one_minus(s, eps, d) == s * geometric


def test_div_one_minus_rejects_nonpositive_power():
    for d in (0, -1, -5):
        with pytest.raises(ValueError):
            div_one_minus(S.one(5), 1, d)
