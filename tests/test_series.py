"""Truncated Laurent series arithmetic: order contracts and exactness."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qid import (NotInvertibleError, QidError, TruncatedLaurentSeries,
                 TruncationError, compare_series, dissect_extract, eta_power,
                 series)
from qid.qproducts import mul_one_minus
from qid.series import MAX_LITERAL_BITS, _convolve_int, _pack, _unpack

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

    f1 = eta_power(1, 1, 4)
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

    partitions = eta_power(1, 1, 5).invert()
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


def test_substitute_power_to_order():
    # the window through q^order is exactly the truncated substitution
    s = S.from_terms({-1: 2, 0: 1, 3: -4}, 6)
    for m in (1, 2, 5):
        for cut in range(-8, 7 * m):
            got = s.substitute_power(m, cut)
            want = s.substitute_power(m).truncate(cut)
            assert (got.min_exp, got.order, got.coeffs, got.den) == \
                (want.min_exp, want.order, want.coeffs, want.den), (m, cut)
    # nothing past q^order is built: f_1 to order 0 spread by 10^9
    one = S.one(0).substitute_power(10**9, 10)
    assert (one.order, len(one.coeffs), one.nonzero_terms()) == (10, 11, {0: 1})


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


@given(st.lists(st.integers(-60, 60), max_size=90), st.integers(1, 9),
       st.sampled_from((1, -1)), st.integers(1, 6), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_invert_times_self_is_one(tail, c, sign, den, min_exp):
    # Newton steps of every length up to 90 terms, both kernels (more than
    # _SMALL_CONV nonzeros), either sign of the constant term, den != 1
    coeffs = [sign * c] + tail
    s = from_coeffs(coeffs, min_exp, min_exp + len(coeffs) - 1).scale(
        Fraction(1, den))
    e = s.lowest_nonzero()
    inv = s.invert()
    assert inv.order == s.order - 2 * e
    assert s * inv == S.one(s.order - 2 * e)


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
    # a plain NotInvertibleError: eval_expr pads the order and retries on it
    with pytest.raises(NotInvertibleError):
        S.zero(6).pow(-2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8),
       st.integers(-3, 3), st.integers(1, 5), st.integers(-6, 6))
def test_pow_is_repeated_multiplication(coeffs, min_exp, den, n):
    s = S(min_exp, min_exp + len(coeffs) - 1, tuple(coeffs), den)
    assume(n >= 0 or not s.is_zero())
    base = s.invert() if n < 0 else s
    want = S.one(s.order) if n == 0 else base
    for _ in range(abs(n) - 1):
        want = want * base
    assert s.pow(n) == want


def product_bound(a, b):
    """The bits a*b may hold, as pow counts them: numerator m those of the
    largest of a's first m+1 plus those of b's, den those of both dens."""
    total = big_a = big_b = 0
    for m in range(min(len(a.coeffs), len(b.coeffs))):
        big_a = max(big_a, abs(a.coeffs[m]).bit_length())
        big_b = max(big_b, abs(b.coeffs[m]).bit_length())
        total += big_a + big_b
    return total + a.den.bit_length() + b.den.bit_length()


def test_pow_refuses_exactly_above_the_limit(monkeypatch):
    # s^3 multiplies s*s, then s*s^2: each product is refused when it may
    # hold more than the limit, and only then
    s = S(-1, 2, (3, -5, 0, 7), 2)
    square = product_bound(s, s)
    odd = product_bound(s, s * s)
    assert square < odd
    for n, limit, bits in [(2, square, None), (2, square - 1, square),
                           (3, odd, None), (3, odd - 1, odd)]:
        monkeypatch.setattr(series, "MAX_LITERAL_BITS", limit)
        if bits is None:
            assert s.pow(n) == (s * s if n == 2 else s * s * s)
        else:
            with pytest.raises(QidError) as info:
                s.pow(n)
            assert str(info.value) == (
                f"a product in the series power s^{n} would hold about "
                f"{bits} bits, above the limit {limit}")
    monkeypatch.undo()
    # the limit itself: a constant of 255,999 bits (and den 1, of 1 bit)
    # may be squared, one of 256,000 bits may not
    assert MAX_LITERAL_BITS == 512000
    assert S(0, 0, (2 ** 255998,)).pow(2) == S(0, 0, (2 ** 511996,))
    with pytest.raises(QidError, match="above the limit 512000"):
        S(0, 0, (2 ** 255999,)).pow(2)


def test_invert_refuses_a_step_above_the_limit(monkeypatch):
    u = S.from_terms({0: 1, 1: -1024}, 40)
    want = S.from_terms({i: 1024 ** i for i in range(41)}, 40)
    assert u.invert() == want
    monkeypatch.setattr(series, "MAX_INVERSE_BITS", 1000)
    with pytest.raises(QidError, match="^a series inverse would hold about "
                       r"\d+ bits, above the limit 1000$"):
        u.invert()


def test_invert_in_q_g_refused_at_the_same_limit(monkeypatch):
    # 1 - 1024*q^2 is inverted as 1 - 1024*q on 41 terms: the same nonzero
    # numerators, so the same refusal
    u = S.from_terms({0: 1, 2: -1024}, 80)
    want = S.from_terms({2 * i: 1024 ** i for i in range(41)}, 80)
    assert u.invert() == want
    monkeypatch.setattr(series, "MAX_INVERSE_BITS", 1000)
    with pytest.raises(QidError, match="^a series inverse would hold about "
                       r"\d+ bits, above the limit 1000$"):
        u.invert()


@given(st.lists(st.integers(-9, 9), max_size=40), st.integers(1, 9),
       st.sampled_from((1, -1)), st.integers(0, 3), st.integers(-3, 3),
       st.integers(1, 6), st.integers(1, 6))
@example(tail=[], c=3, sign=-1, zeros=2, min_exp=1, den=5, g=4)  # constant only
@settings(max_examples=100, deadline=None)
def test_invert_commutes_with_substitute_power(tail, c, sign, zeros, min_exp,
                                               den, g):
    # the inverse of a series in q^g is a series in q^g: inverting after
    # q -> q^g (Newton on the g times shorter series) equals substituting
    # after inverting, window included
    coeffs = [0] * zeros + [sign * c] + tail
    s = S(min_exp, min_exp + len(coeffs) - 1, tuple(coeffs), den)
    spread = s.substitute_power(g)
    got, want = spread.invert(), s.invert().substitute_power(g)
    assert got == want
    assert (got.min_exp, got.order) == (want.min_exp, want.order)
    prod = spread * got
    known = min(prod.order, got.order)  # 1 + O(q^(known+1))
    assert prod.truncate(known) == S.one(known)


def test_invert_runs_newton_in_q_g(monkeypatch):
    lengths = []
    invert_int = series._invert_int

    def recording(u, n_out):
        lengths.append(n_out)
        return invert_int(u, n_out)

    monkeypatch.setattr(series, "_invert_int", recording)
    f2_cubed = S.from_terms({0: 1, 2: -3, 4: 3, 6: -1}, 200)  # (1 - q^2)^3
    f2_cubed.invert()
    S.from_terms({0: 1, 1: -1}, 200).invert()  # a series in q
    S.from_terms({3: 2, 7: -1}, 40).invert()  # 2*q^3*(1 - q^4/2)
    S.from_terms({0: 7}, 30).invert()  # the constant alone
    assert lengths == [101, 201, 10, 1]


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


@pytest.mark.parametrize("width", range(1, 11))
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


INT64_EDGES = [2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63), 2 ** 63]


@pytest.mark.parametrize("edge", INT64_EDGES)
def test_convolve_int_at_int64_edges(edge):
    # the edges of a signed 64-bit int among small coefficients: 2^63 sends
    # _pack to one digit per coefficient, the others pack as int64s
    a = [edge, 1, -1, 0, 3] * 6
    b = [-5, 2, 0, 7, -1] * 6 + [edge]
    assert _convolve_int(a, b, 40) == schoolbook(a, b, 40)
    assert _convolve_int(a, a, 40) == schoolbook(a, a, 40)
    assert _convolve_int(INT64_EDGES * 5, b, 45) == schoolbook(
        INT64_EDGES * 5, b, 45)


@pytest.mark.parametrize("width", range(1, 17))
def test_pack_unpack_round_trip(width):
    half = 2 ** (8 * width - 1)
    small = [0, 1, -1, 127, -128, 2 ** 62, -(2 ** 63)]
    for coeffs in ([half - 1, -(half - 1), 0, 1 - half, half - 1],
                   [c for c in small if abs(c) < half] * 3, [1 - half]):
        x = _pack(coeffs, width, half)
        assert x == sum(c * 256 ** (width * i) for i, c in enumerate(coeffs))
        assert _unpack(x, width, half, len(coeffs)) == coeffs


def per_coefficient_runs(monkeypatch, a, b, n_out):
    """(calls of _pack and _unpack, how many of them ran one coefficient at
    a time) while _convolve_int(a, b, n_out) runs: a call whose digits are
    built as int64s makes exactly one _int64 call that returns."""
    calls = [0, 0]

    def counted(f, i):
        def wrapper(*args):
            out = f(*args)  # a raising _int64 call is not counted
            calls[i] += 1
            return out
        return wrapper

    monkeypatch.setattr(series, "_pack", counted(series._pack, 0))
    monkeypatch.setattr(series, "_unpack", counted(series._unpack, 0))
    monkeypatch.setattr(series, "_int64", counted(series._int64, 1))
    assert _convolve_int(a, b, n_out) == schoolbook(a, b, n_out)
    monkeypatch.undo()
    return calls[0], calls[0] - calls[1]


def test_pack_regimes(monkeypatch):
    small = [(-1) ** i * (i * 997 % 1000) for i in range(40)]
    big = [c * 2 ** 70 + 1 for c in small]
    # every coefficient and digit within 64 bits: no per-coefficient pass
    assert per_coefficient_runs(monkeypatch, small, small[::-1], 60) == (3, 0)
    # beyond 64 bits: one per call, for each pack and the wide unpack
    assert per_coefficient_runs(monkeypatch, big, big[::-1], 60) == (3, 3)
    assert per_coefficient_runs(monkeypatch, big, small, 60) == (3, 2)


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
               a.substitute_power(m), a.substitute_power(m, a.order),
               a.truncate(a.order - 1),
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
