"""Truncated Laurent series arithmetic: order contracts and exactness."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qid import (TruncatedLaurentSeries, TruncationError, compare_series,
                 dissect_extract, eta_f)
from qid.qproducts import mul_one_minus
from qid.series import _convolve_int

S = TruncatedLaurentSeries


def from_coeffs(coeffs, min_exp, order):
    return S.from_terms({min_exp + i: c for i, c in enumerate(coeffs)}, order)


def test_add_examples():
    a = S.from_terms({0: 1, 1: 1}, 5)
    b = S.from_terms({1: 1}, 5)
    assert (a + b).nonzero_terms() == {0: 1, 1: 2}
    assert (a + b).order == 5

    s = S.from_terms({0: 3, 2: -1}, 7)
    assert s + S.zero(7) == s


def test_add_joint_order():
    a = S.from_terms({0: 1, 1: 1}, 3)
    b = S.from_terms({4: 1}, 10)
    c = a + b
    assert c.order == 3
    assert c.nonzero_terms() == {0: 1, 1: 1}


def test_mul_examples():
    a = S.from_terms({0: 1, 1: -1}, 3)
    b = S.from_terms({0: 1, 1: 1, 2: 1, 3: 1}, 3)
    assert (a * b).nonzero_terms() == {0: 1}

    p = S.monomial(-2, 5)
    q = S.monomial(2, 5)
    assert (p * q).nonzero_terms() == {0: 1}

    f1 = eta_f(1, 4)
    sq = f1 * f1
    assert [sq.coefficient(i) for i in range(5)] == [1, -2, -1, 2, 1]


def test_mul_order_contract():
    a = from_coeffs([1, 2], -1, 4)
    b = from_coeffs([3], 2, 6)
    c = a * b
    assert c.min_exp == a.min_exp + b.min_exp
    assert c.order == min(a.order + b.min_exp, b.order + a.min_exp)


def test_invert_examples():
    a = S.from_terms({0: 1, 1: -1}, 4)
    assert a.invert().nonzero_terms() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}

    q = S.monomial(1, 3)
    assert q.invert().nonzero_terms() == {-1: 1}

    partitions = eta_f(1, 5).invert()
    assert [partitions.coefficient(n) for n in range(6)] == [1, 1, 2, 3, 5, 7]


def test_invert_order_contract():
    a = S.from_terms({2: 1, 3: 5}, 9)  # lowest exponent e = 2
    b = a.invert()
    assert b.min_exp == -2
    assert b.order == 9 - 4
    prod = a * b
    for n in range(prod.order + 1):
        assert prod.coefficient(n) == (1 if n == 0 else 0)


def test_invert_zero_window():
    from qid import NotInvertibleError
    with pytest.raises(NotInvertibleError):
        S.zero(5).invert()


def test_substitute_power():
    a = S.from_terms({0: 1, 1: 1}, 1)
    assert a.substitute_power(3).nonzero_terms() == {0: 1, 3: 1}
    assert a.substitute_power(3).order == 3 * 1 + 2

    p = S.monomial(-1, 2)
    assert p.substitute_power(2).nonzero_terms() == {-2: 1}


def test_substitute_power_composes():
    s = S.from_terms({-1: 2, 0: 1, 3: -4}, 6)
    assert s.substitute_power(2).substitute_power(3) == s.substitute_power(6)


def test_coefficient_access():
    s = S.from_terms({0: 1, 1: 2}, 1)
    assert s.coefficient(1) == 2
    assert s.coefficient(-5) == 0
    with pytest.raises(TruncationError):
        s.coefficient(2)


def test_equality_ignores_leading_zeros():
    a = from_coeffs([0, 0, 1], -2, 4)
    b = S.from_terms({0: 1}, 4)
    assert a == b
    assert a != b.truncate(3)  # orders differ


coeff_st = st.integers(-9, 9)


@st.composite
def poly_st(draw, max_len=8):
    coeffs = draw(st.lists(coeff_st, min_size=1, max_size=max_len))
    min_exp = draw(st.integers(-4, 4))
    return coeffs, min_exp


@given(poly_st(), poly_st(), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_mul_truncation_soundness(pa, pb, cut_a, cut_b):
    """Every coefficient the contract declares determined must equal the
    untruncated polynomial product's coefficient."""
    (ca, ma), (cb, mb) = pa, pb
    order_a = ma + len(ca) - 1 - cut_a
    order_b = mb + len(cb) - 1 - cut_b
    if order_a < ma or order_b < mb:
        return
    a = from_coeffs(ca[:order_a - ma + 1], ma, order_a)
    b = from_coeffs(cb[:order_b - mb + 1], mb, order_b)
    prod = a * b

    exact = {}
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            e = ma + i + mb + j
            exact[e] = exact.get(e, 0) + x * y
    for n in range(prod.min_exp, prod.order + 1):
        assert prod.coefficient(n) == exact.get(n, 0)


@given(poly_st(), st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_invert_contract_random(p, lead):
    coeffs, min_exp = p
    coeffs = [lead] + coeffs
    a = from_coeffs(coeffs, min_exp, min_exp + len(coeffs) - 1)
    b = a.invert()
    e = a.lowest_nonzero()
    assert b.order == a.order - 2 * e
    prod = a * b
    for n in range(prod.order + 1):
        assert prod.coefficient(n) == (1 if n == 0 else 0)


@given(poly_st(), poly_st())
@settings(max_examples=60, deadline=None)
def test_add_mul_commute(pa, pb):
    (ca, ma), (cb, mb) = pa, pb
    a = from_coeffs(ca, ma, ma + len(ca) - 1)
    b = from_coeffs(cb, mb, mb + len(cb) - 1)
    # commutativity holds exactly when operands share the window
    if a.order == b.order and a.min_exp == b.min_exp:
        assert a + b == b + a
    assert (a * b).nonzero_terms() == (b * a).nonzero_terms()


def test_exactness_with_rationals():
    a = S.from_terms({0: Fraction(1, 3), 1: Fraction(1, 7)}, 10)
    s = a
    for _ in range(5):
        s = s * a
    assert s.coefficient(0) == Fraction(1, 3) ** 6


def test_pow():
    a = S.from_terms({0: 1, 1: 1}, 6)
    assert a.pow(0) == S.one(6)
    assert a.pow(3).nonzero_terms() == {0: 1, 1: 3, 2: 3, 3: 1}


# -- integer kernel and (numerators, den) representation --------------------

def schoolbook(a, b, n_out):
    out = [0] * n_out
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n_out:
                out[i + j] += x * y
    return out


big_int_st = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2 ** 200), 2 ** 200),
    st.builds(lambda k, s, d: s * (2 ** k + d),
              st.integers(0, 130), st.sampled_from([1, -1]), st.integers(-1, 1)),
)


@st.composite
def int_list_st(draw):
    kind = draw(st.sampled_from(["mixed", "negative", "single", "zeros"]))
    n = draw(st.integers(0, 60))
    if kind == "mixed":
        return draw(st.lists(big_int_st, min_size=n, max_size=n))
    if kind == "negative":
        return [-abs(c) - 1 for c in draw(st.lists(big_int_st, min_size=n, max_size=n))]
    if kind == "single":
        out = [0] * max(n, 1)
        out[draw(st.integers(0, len(out) - 1))] = draw(big_int_st)
        return out
    return [0] * n


@given(int_list_st(), int_list_st(), st.integers(0, 130))
@settings(max_examples=300, deadline=None)
def test_convolve_int_matches_schoolbook(a, b, n_out):
    assert _convolve_int(a, b, n_out) == schoolbook(a, b, n_out)


@pytest.mark.parametrize("width", [1, 2, 3, 8])
@pytest.mark.parametrize("delta", [-1, 0])
@pytest.mark.parametrize("sign", [1, -1])
def test_convolve_int_at_digit_bound(width, delta, sign):
    # 32 equal coefficients of magnitude 2^k + delta: the middle product
    # coefficient is 32 * M^2, which for delta = 0 is exactly 2^(8*width-1),
    # the first value that no longer fits a signed digit of `width` bytes
    k = 4 * width - 3
    m = sign * (2 ** k + delta)
    a = [m] * 32
    b = [-m] * 32
    assert _convolve_int(a, b, 63) == schoolbook(a, b, 63)
    assert _convolve_int(a, a, 63) == schoolbook(a, a, 63)


frac_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def frac_poly_st(draw, min_len=1, max_len=40):
    coeffs = draw(st.lists(frac_st, min_size=min_len, max_size=max_len))
    return coeffs, draw(st.integers(-4, 4))


def assert_normalised(s):
    assert s.den > 0
    assert all(isinstance(c, int) for c in s.coeffs)
    assert gcd(s.den, *s.coeffs) == 1
    if s.is_zero():
        assert s.den == 1


def reference_invert(c, n):
    inv = [1 / c[0]]
    for k in range(1, n):
        inv.append(-sum(c[j] * inv[k - j] for j in range(1, min(k, len(c) - 1) + 1)) / c[0])
    return inv


@given(frac_poly_st(), frac_poly_st())
@settings(max_examples=150, deadline=None)
def test_mul_matches_fraction_reference(pa, pb):
    (ca, ma), (cb, mb) = pa, pb
    a = from_coeffs(ca, ma, ma + len(ca) - 1)
    b = from_coeffs(cb, mb, mb + len(cb) - 1)
    prod = a * b
    assert_normalised(prod)
    ref = schoolbook(ca, cb, len(ca) + len(cb))
    for e in range(prod.min_exp, prod.order + 1):
        i = e - ma - mb
        assert prod.coefficient(e) == (ref[i] if i >= 0 else 0)


@given(frac_poly_st(), frac_st.filter(bool))
@settings(max_examples=150, deadline=None)
def test_invert_matches_fraction_reference(p, lead):
    coeffs, min_exp = p
    coeffs = [lead] + coeffs
    a = from_coeffs(coeffs, min_exp, min_exp + len(coeffs) - 1)
    b = a.invert()
    assert_normalised(b)
    ref = reference_invert(coeffs, len(coeffs))
    assert [b.coefficient(-min_exp + i) for i in range(len(coeffs))] == ref


@given(frac_poly_st(min_len=0), frac_poly_st(min_len=0), frac_st, st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_results_are_normalised(pa, pb, c, m):
    (ca, ma), (cb, mb) = pa, pb
    a = from_coeffs(ca, ma, ma + len(ca) - 1)
    b = from_coeffs(cb, mb, mb + len(cb) - 1)
    results = [a, b, a + b, a - b, -a, a * b, a.scale(c), a.shift(3),
               a.substitute_power(m), a.truncate(a.order - 1),
               mul_one_minus(a, -1, 0), mul_one_minus(a, 1, -2),
               dissect_extract(a, m, 0)]
    if not a.is_zero():
        results.append(a.invert())
    for s in results:
        assert_normalised(s)
    # equal values compare equal whatever the window or the operand order
    assert a + b == b + a
    assert a - a == S.zero(a.order)
    assert a.scale(c).scale(2) == a.scale(2 * c)


@given(frac_poly_st(), frac_poly_st())
@settings(max_examples=150, deadline=None)
def test_compare_series_matches_fraction_reference(pa, pb):
    # compare_series compares cross-multiplied numerators; the first
    # mismatch it reports must be the first differing Fraction coefficient
    (ca, ma), (cb, mb) = pa, pb
    a = from_coeffs(ca, ma, ma + len(ca) - 1)
    b = from_coeffs(cb, mb, mb + len(cb) - 1)
    out = compare_series(a, b)
    compared = min(a.order, b.order)
    assert out.compared_order == compared
    diffs = [e for e in range(min(a.min_exp, b.min_exp), compared + 1)
             if a.coefficient(e) != b.coefficient(e)]
    if diffs:
        e = diffs[0]
        assert out.first_mismatch == (e, a.coefficient(e), b.coefficient(e))
    else:
        assert out.status == "pass"
