"""Pochhammer products, f_k expansion, eta expressions and theta_j."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qid import (EtaExpression, EtaMonomial, QidError, SignedMonomial,
                 ThetaVanishesError, TruncatedLaurentSeries, eta_expression,
                 eta_expression_eval, eta_power, qproducts, theta_j)
from qid.caches import clear_all
from qid.qproducts import div_one_minus, mul_one_minus

S = TruncatedLaurentSeries


def theta_product(z, base, order):
    """j(z; q^base) as the literal product (z; Q)_inf (Q/z; Q)_inf (Q; Q)_inf,
    Q = q^base, multiplied out one binomial at a time.  Each binomial with
    a negative exponent -d lowers the order by d, so the product starts
    that much higher and is truncated at the end."""
    eps, t = z.sign, z.exp
    progressions = ((t, eps), (base - t, eps), (base, 1))
    work = order + sum(-e for start, _ in progressions
                       for e in range(start, 0, base))
    s = S.one(work)
    for start, sign in progressions:
        for e in range(start, work + 1, base):
            s = mul_one_minus(s, sign, e)
    return s.truncate(order)


def f1_product(order):
    """(q; q)_inf through q^order, one binomial at a time."""
    s = S.one(order)
    for j in range(1, order + 1):
        s = mul_one_minus(s, 1, j)
    return s


def window(s):
    """The whole stored form, so that a differing window or denominator
    fails where == (which ignores leading zeros) would not."""
    return s.min_exp, s.order, s.coeffs, s.den


def binomials(eps, exps, order):
    """prod_d (1 - eps*q^d) over d in exps, one mul_one_minus at a time: a
    negative d lowers both ends of the window by -d."""
    s = S.one(order)
    for d in exps:
        s = mul_one_minus(s, eps, d)
    return s


def test_pochhammer_examples():
    assert binomials(-1, [1], 5).nonzero_terms() == {0: 1, 1: 1}
    assert binomials(1, [1, 3], 5).nonzero_terms() \
        == {0: 1, 1: -1, 3: -1, 4: 1}
    assert binomials(-1, [2, 4], 8).nonzero_terms() \
        == {0: 1, 2: 1, 4: 1, 6: 1}
    assert binomials(1, [], 4) == S.one(4)
    laurent = binomials(1, [-2, 1], 6)
    assert (laurent.min_exp, laurent.order) == (-2, 4)
    assert laurent.nonzero_terms() == {-2: -1, -1: 1, 0: 1, 1: -1}


def test_pochhammer_composition():
    # (-q; q^2)_n (-q^(2n+1); q^2)_m = (-q; q^2)_(n+m)
    for n, m in [(0, 3), (2, 2), (3, 1)]:
        left = binomials(-1, range(1, 2 * n, 2), 30) \
            * binomials(-1, range(2 * n + 1, 2 * (n + m), 2), 30)
        right = binomials(-1, range(1, 2 * (n + m), 2), 30)
        assert left.truncate(right.order).nonzero_terms() \
            == right.nonzero_terms()


def test_eta_f_pentagonal_short():
    f1 = eta_power(1, 1, 15)
    assert f1.nonzero_terms() == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1,
                                  15: -1}


def test_eta_f_pentagonal_oracle_500():
    assert window(eta_power(1, 1, 500)) == window(f1_product(500))


def test_f1_matches_product_orders_0_to_1000():
    product = f1_product(1000)
    for order in range(1001):
        expected = window(product.truncate(order))
        assert window(theta_j(SignedMonomial(1, 1), 3, order)) == expected
        clear_all()
        assert window(eta_power(1, 1, order)) == expected, order


def may_hold(a, b):
    """Numerator m of a*b has at most the bits of the largest of a's first
    m+1 plus those of b's; a and b have denominator 1."""
    total = big_a = big_b = 0
    for ca, cb in zip(a.coeffs, b.coeffs):
        big_a = max(big_a, abs(ca).bit_length())
        big_b = max(big_b, abs(cb).bit_length())
        total += big_a + big_b
    return total + 2


def test_f1_power_refuses_a_product_above_the_limit(monkeypatch):
    # at order 100, built through q^128: f1^3 is Jacobi's series, with no
    # product; f1^6 is f1^3*f1^3 and f1^7 is f1^6*f1; each product is
    # refused when it may hold more than the limit
    f1 = theta_j(SignedMonomial(1, 1), 3, 128)
    cube = f1 * f1 * f1
    square = may_hold(cube, cube)
    odd = may_hold(cube * cube, f1)
    assert square < odd
    for limit, bits6, bits7 in [(odd, None, None), (odd - 1, None, odd),
                                (square - 1, square, square)]:
        monkeypatch.setattr(qproducts, "MAX_ETA_BITS", limit)
        for e, bits in ((6, bits6), (7, bits7)):
            clear_all()
            if bits is None:
                want = cube * cube * (f1 if e == 7 else S.one(128))
                assert eta_power(1, e, 100) == want.truncate(100)
                continue
            with pytest.raises(QidError) as info:
                eta_power(1, e, 100)
            assert str(info.value) == (
                f"a product in the power f1^{e} would hold about {bits} "
                f"bits, above the limit {limit}")


def test_f1_power_equals_the_repeated_product():
    # Jacobi's f1^3 and the splits above it against e factors of Euler's
    # f1, at orders below, at and above one memo step of 64
    f1 = theta_j(SignedMonomial(1, 1), 3, 200)
    power = S.one(200)
    for e in range(1, 41):
        power = power * f1
        for order in (1, 63, 64, 200):
            clear_all()
            assert window(eta_power(1, e, order)) \
                == window(power.truncate(order)), (e, order)


def test_f1_power_refusal_names_the_power_asked_for():
    # f1^100000 is refused in a product of f1^1562, one of its halvings;
    # the message names the power the caller asked for
    clear_all()
    with pytest.raises(QidError) as info:
        eta_power(1, 100000, 1000)
    assert str(info.value).startswith(
        "a product in the power f1^100000 would hold about ")


def test_eta_power_exponent_bound():
    # a product of DSL powers may sum past the exponent limit of one
    for k in (1, 2):
        with pytest.raises(QidError, match=f"f{k}.e, e of 64 bits, has an "
                           f"exponent above the limit {2 ** 63 - 1}"):
            eta_power(k, 2 ** 63, 10)
    # and a sum names the power it asked for, on either side of FLAT_ORDER
    e = eta_expression([(1, 0, {2: 2 ** 63}), (1, 0, {1: 1})])
    for order in (10, 2 * qproducts.FLAT_ORDER):
        clear_all()
        with pytest.raises(QidError, match="the power f2.e, e of 64 bits"):
            eta_expression_eval(e, order)


def test_eta_f_small():
    assert eta_power(2, 1, 3).nonzero_terms() == {0: 1, 2: -1}
    assert eta_power(7, 1, 5) == S.one(5)  # no factor within the order


def test_index_above_the_order_is_not_factored(monkeypatch):
    """f_k with k > order is 1 through q^order and is dropped before the
    split, so a 13-digit prime index costs no trial division; a fresh
    process must end well within its timeout.  Below FLAT_ORDER nothing
    is split, so nothing is factored."""
    big = 1000000000039  # prime
    factored = []
    factorize = qproducts.factorize
    monkeypatch.setattr(qproducts, "factorize",
                        lambda n: factored.append(n) or factorize(n))
    clear_all()
    e = eta_expression([(1, 0, {1: 1, 2: 1, big: 1}), (-1, 0, {1: 1, 2: 1})])
    assert eta_expression_eval(e, 10) == S.zero(10)
    assert not factored
    order = 2 * qproducts.FLAT_ORDER
    assert eta_expression_eval(e, order) == S.zero(order)
    assert factored and max(factored) <= order
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "qid.cli", "verify", "--expr", f"f1*f{big}",
         "--expr", "1", "--order", "10"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "first mismatch at q^1: lhs=-1 rhs=0" in proc.stdout


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


def test_eta_expression_combines_like_terms():
    # terms with one qpow and one exponent map (zero exponents aside) are
    # summed where the first stands; zero sums are dropped, and den is
    # that of the sums left
    e = eta_expression([
        (Fraction(1, 2), 1, {2: 1}), (3, 0, {1: 1, 2: 0}),
        (Fraction(1, 3), 0, {1: -1}), (Fraction(1, 2), 1, {2: 1, 4: 0}),
        (-3, 0, {1: 1}), (0, 5, {3: 1}), (Fraction(2, 3), 0, {1: -1})])
    assert e == EtaExpression((EtaMonomial(1, 1, ((2, 1),)),
                               EtaMonomial(1, 0, ((1, -1),))), 1)
    assert eta_expression([(1, 0, {2: 1}), (-1, 0, {2: 1})]) \
        == EtaExpression()


def test_eta_expression_vanishes_without_an_inverse(monkeypatch):
    # 1/f1^4 against its 2-dissection: the normal form's sum vanishes;
    # one coefficient more does not, and neither answer inverts anything
    zero = [(1, 0, {1: -4}), (-1, 0, {4: 14, 2: -14, 8: -4}),
            (-4, 1, {4: 2, 8: 4, 2: -10})]
    clear_all()
    monkeypatch.setattr(S, "invert", None)
    assert qproducts.eta_expression_vanishes(eta_expression(zero), 100)
    assert not qproducts.eta_expression_vanishes(
        eta_expression(zero + [(1, 40, {})]), 100)
    assert not qproducts.eta_expression_vanishes(
        eta_expression(zero[1:]), 100)
    # a vanishing value is kept: evaluating it again builds nothing
    monkeypatch.setattr(qproducts, "_normal_form_eval", None)
    assert eta_expression_eval(eta_expression(zero), 100) == S.zero(100)


def test_theta_j_constant():
    s = theta_j(SignedMonomial(-1, 0), 1, 6)
    assert s.coefficient(0) == 2


def test_theta_j_vanishing():
    with pytest.raises(ThetaVanishesError):
        theta_j(SignedMonomial(1, 0), 1, 5)
    with pytest.raises(ThetaVanishesError):
        theta_j(SignedMonomial(1, 8), 4, 5)


def test_theta_j_jacobi_triple_product_example():
    z, base, order = SignedMonomial(-1, 1), 3, 40
    assert window(theta_j(z, base, order)) == window(theta_product(z, base, order))


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
        assert window(theta_j(z, base, 200)) \
            == window(theta_product(z, base, 200)), (sign, exp, base)
        done += 1


@st.composite
def theta_args(draw):
    base = draw(st.integers(1, 40))
    t = draw(st.integers(-12 * base, 12 * base))
    return SignedMonomial(draw(st.sampled_from([1, -1])), t), base


@given(theta_args(), st.integers(-50, 300))
@settings(max_examples=300, deadline=None)
def test_theta_j_equals_product_property(zb, order):
    """The triple product sum against the product it sums, on the whole
    window, for orders below the lowest exponent too; a z with
    z = Q^k (k in Z) is refused."""
    z, base = zb
    if z.sign == 1 and z.exp % base == 0:
        with pytest.raises(ThetaVanishesError):
            theta_j(z, base, order)
        return
    assert window(theta_j(z, base, order)) \
        == window(theta_product(z, base, order))


def divided(s, eps, d, p=1):
    """s / (1 - eps*q^d)^p on s's window, by the list kernel, which reads
    the window as its list of numerators."""
    t = list(s.coeffs)
    assert div_one_minus(t, eps, d, p) is None  # in place
    return S(s.min_exp, s.order, tuple(t), s.den)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 40])
def test_div_one_minus_inverts_mul_one_minus(eps, d):
    s = S.from_terms({-3: Fraction(1, 6), -1: Fraction(-5, 4), 0: 2,
                      4: Fraction(7, 3), 11: -9}, 20)
    assert s.den != 1 and s.min_exp == -3
    assert divided(mul_one_minus(s, eps, d), eps, d) == s
    twice = mul_one_minus(mul_one_minus(s, eps, d), eps, d)
    assert divided(twice, eps, d, 2) == s
    geometric = S.from_terms({d * k: eps ** k for k in range(24 // d + 1)}, 24)
    assert divided(s, eps, d) == s * geometric
    assert divided(s, eps, d, 2) == s * geometric * geometric


def literal_division(s, eps, d, p=1):
    """s / (1 - eps*q^d)^p as p passes of the recurrence
    y[i] = x[i] + eps*y[i-d] over s's window, one index at a time."""
    for _ in range(p):
        y = []
        for i, x in enumerate(s.coeffs):
            y.append(x + eps * y[i - d] if i >= d else x)
        s = S(s.min_exp, s.order, tuple(y), s.den)
    return s


@given(st.integers(0, 300), st.integers(1, 60), st.sampled_from([1, -1]),
       st.sampled_from([2, 3, 6]), st.integers(-20, 20).filter(bool),
       st.integers(0, 2 ** 32), st.sampled_from([1, 2]))
# both sides of d*d < len, for either sign and power
@example(100, 10, 1, 2, -3, 1, 1)
@example(101, 10, 1, 2, -3, 1, 1)
@example(99, 10, -1, 3, 5, 2, 1)
@example(100, 10, -1, 3, 5, 2, 1)
@example(101, 10, -1, 6, -7, 3, 1)
@example(300, 1, -1, 6, 1, 4, 1)
@example(101, 10, 1, 2, -3, 1, 2)
@example(99, 10, -1, 3, 5, 2, 2)
@example(100, 10, -1, 6, -7, 3, 2)
@example(101, 10, -1, 6, -7, 3, 2)
@example(290, 17, -1, 2, 9, 5, 2)
@example(288, 17, -1, 2, 9, 5, 2)
@settings(max_examples=300, deadline=None)
def test_div_one_minus_matches_recurrence(n, d, eps, den, lo, seed, p):
    """Running sums per residue class (with the odd entries of each
    class negated around them for eps = -1) and the block recurrence give
    the literal recurrence's window, over a denominator and off q^0, once
    or twice."""
    rng = random.Random(seed)
    s = S(lo, lo + n - 1, tuple(rng.randint(-10 ** 6, 10 ** 6)
                                for _ in range(n)), den)
    assert window(divided(s, eps, d, p)) \
        == window(literal_division(s, eps, d, p))


def regime_sums(monkeypatch, n, eps, d, p):
    """The `accumulate` calls of one division of 1 + 2q + ... + n*q^(n-1),
    checked against the literal recurrence."""
    calls = []

    def counted(xs):
        calls.append(1)
        return accumulate(xs)
    monkeypatch.setattr(qproducts, "accumulate", counted)
    s = S(0, n - 1, tuple(range(1, n + 1)))
    assert window(divided(s, eps, d, p)) \
        == window(literal_division(s, eps, d, p))
    return len(calls)


@pytest.mark.parametrize("n, eps, d, sums", [
    (500, 1, 1, 1), (500, 1, 22, 22), (484, 1, 22, 0), (80, 1, 60, 0),
    (500, -1, 2, 2), (401, -1, 10, 10), (400, -1, 10, 10), (300, -1, 15, 15),
    (80, -1, 60, 0), (99, -1, 10, 0), (100, -1, 10, 0), (101, -1, 10, 10)])
def test_div_one_minus_regime(monkeypatch, n, eps, d, sums):
    """The regime is a property of the input, the same for either sign:
    running sums, one `accumulate` per residue class, when the window
    holds more than d blocks of d, the block recurrence otherwise; both
    give the literal recurrence."""
    assert regime_sums(monkeypatch, n, eps, d, 1) == sums


@pytest.mark.parametrize("n, eps, d, sums", [
    (500, 1, 22, 44), (484, 1, 22, 0), (500, -1, 2, 4), (400, -1, 10, 20),
    (99, -1, 10, 0), (100, -1, 10, 0), (101, -1, 10, 20)])
def test_div_one_minus_regime_squared(monkeypatch, n, eps, d, sums):
    """Dividing by a squared binomial takes the same regime, with two
    nested running sums per residue class."""
    assert regime_sums(monkeypatch, n, eps, d, 2) == sums


def test_div_one_minus_rejects_nonpositive_power():
    for d in (0, -1, -5):
        with pytest.raises(ValueError):
            div_one_minus([1, 0, 0, 0, 0, 0], 1, d)


def _product_sum(terms, order: int) -> list[int]:
    """_eta_sum's list by series arithmetic alone: each term's eta powers
    multiplied one after another, scaled, shifted and added."""
    total = S.zero(order)
    for c, s, exps in terms:
        t = S.one(order - s)
        for k, e in exps:
            t = t * eta_power(k, e, order - s)
        total = total + t.scale(c).shift(s)
    return list(total.coeffs)


_flat_terms = st.lists(st.tuples(
    st.sampled_from([1, -1, 2, -7, 3 ** 40, -(5 ** 60)]), st.integers(0, 12),
    st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24, 70]),
                       st.integers(1, 40)), max_size=5, unique_by=lambda f: f[0])),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_flat_terms, st.integers(0, 2 * qproducts.FLAT_ORDER))
# digits wider than 8 bytes, which _unpack reads one at a time
@example([(3 ** 40, 0, [(1, 40)]), (-(5 ** 60), 2, [(1, 39), (2, 40)])], 90)
@example([(1, 0, [(70, 1)])], 69)
def test_flat_sum_matches_the_products(terms, order):
    terms = [t for t in terms if t[1] <= order]
    want = _product_sum(terms, order)
    assert qproducts._flat_sum(terms, order) == want
    # _eta_sum takes the divisor recursion from FLAT_ORDER up
    assert qproducts._eta_sum(terms, order) == want
