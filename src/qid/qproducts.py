"""q-Pochhammer products, the eta-like functions f_k, eta-quotient
expressions, and the theta function j(z;q^base) for signed-monomial z.

A binomial (1 - eps*q^d) multiplies a series exactly (mul_one_minus)
and divides a list of numerators in place (div_one_minus).  j(z;q^base)
is its Jacobi triple product sum, O(sqrt(N)) terms through q^N, f_1 =
j(q;q^3) by Euler's pentagonal theorem (Andrews, The Theory of
Partitions, Thm 2.8) and f_1^3 by Jacobi's identity, so that f_1^6 takes
one product, not three.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, mul, neg, sub

from .caches import kept
from .errors import QidError, ThetaVanishesError
from .record import Record
from .series import (MAX_INVERSE_BITS, MAX_LITERAL_BITS, MAX_POW_EXPONENT,
                     MAX_WORK_ORDER, TruncatedLaurentSeries, _unpack,
                     check_work_order, checked_product)

_CACHE_STEP = 64

#: Most bits one product of _f1_power may hold (see checked_product):
#: the last product of f_1^1000 at order 1000, built through q^1024, may
#: hold about 0.9 million.  So f_1^e is built for e up to 1247 at order
#: 1000 and 65 at MAX_WORK_ORDER, and refused fast above.
MAX_ETA_BITS = 5 * MAX_LITERAL_BITS // 2


class SignedMonomial(Record):
    """eps * q^exp with eps in {+1, -1}."""

    __slots__ = __match_args__ = ("sign", "exp")

    def _check(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def times(self, other: "SignedMonomial") -> "SignedMonomial":
        return SignedMonomial(self.sign * other.sign, self.exp + other.exp)

    def inverse(self) -> "SignedMonomial":
        # 1/eps == eps for eps in {+1,-1}
        return SignedMonomial(self.sign, -self.exp)

    def __str__(self):
        s = "-" if self.sign < 0 else ""
        return f"{s}q^{self.exp}" if self.exp != 1 else f"{s}q"


def mul_one_minus(s: TruncatedLaurentSeries, eps: int, d: int) -> TruncatedLaurentSeries:
    """Multiply s by the exact binomial (1 - eps*q^d)."""
    lo = s.min_exp + min(0, d)
    order = s.order + min(0, d)
    c = s.coeffs
    n = len(c)  # the window keeps its length: both ends move by min(0, d)
    combine = sub if eps > 0 else add
    if d >= 0:
        # out[i] = c[i] - eps*c[i-d]
        out = list(c)
        if d < n:
            out[d:] = map(combine, out[d:], c[:n - d])
    else:
        # out[i] = c[i+d] - eps*c[i]
        lag = min(-d, n)
        out = map(combine, (0,) * lag + c[:n - lag], c)
    return TruncatedLaurentSeries(lo, order, tuple(out), s.den)


def div_one_minus(t: list, eps: int, d: int, p: int = 1) -> None:
    """Divide the power series t, a list of numerators from q^0, by the
    exact binomial (1 - eps*q^d)^p, d >= 1, p >= 1, in place.

    1/(1 - eps*q^d) is a power series with constant term 1, so the window
    is kept: y[i] = x[i] + eps*y[i-d].  A window of more than d blocks of
    d (d*d < len) takes p nested running sums along each residue class
    mod d, d slice assignments in all; for eps = -1 the class's odd
    entries are negated before and after, as 1/(1 + X)^p is
    N (1/(1 - X))^p N with N: X -> -X.  A shorter window is walked one
    block of d at a time, p times."""
    if d < 1:
        raise ValueError("div_one_minus needs d >= 1")
    n = len(t)
    if d * d < n:
        for r in range(d):
            column = t[r::d]
            if eps < 0:
                column[1::2] = map(neg, column[1::2])
            for _ in range(p):
                column = accumulate(column)
            column = list(column)
            if eps < 0:
                column[1::2] = map(neg, column[1::2])
            t[r::d] = column
    else:
        combine = add if eps > 0 else sub
        for _ in range(p):
            for i in range(d, n, d):
                t[i:i + d] = map(combine, t[i:i + d], t[i - d:i])


def _jacobi_cube(order: int) -> TruncatedLaurentSeries:
    """f_1^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2) through q^order >= 0:
    Jacobi's identity, a limit of the triple product."""
    coeffs = [0] * (order + 1)
    n = 0
    while (e := n * (n + 1) // 2) <= order:
        coeffs[e] = -2 * n - 1 if n % 2 else 2 * n + 1
        n += 1
    return TruncatedLaurentSeries(0, order, tuple(coeffs))


def _f1_power(e: int, order: int, what: str = "") -> TruncatedLaurentSeries:
    """f_1^e, e >= 1, order >= 0: f_1 is Euler's pentagonal series
    j(q; q^3) and f_1^3 Jacobi's series, with no product.  Above them
    f_1^e is f_1^(e - e%3) * f_1^(e%3), and f_1^(3t) is (f_1^(3(t//2)))^2,
    times f_1^3 when t is odd, so one request keeps O(log e) powers in the
    memo (qid.caches), each built through a multiple of _CACHE_STEP so
    that nearby orders share it.  A product that may hold more than
    MAX_ETA_BITS is refused before it is computed; what names the power
    first asked for."""
    def build():
        work = -(-max(order, 1) // _CACHE_STEP) * _CACHE_STEP
        if e == 1:
            return theta_j(SignedMonomial(1, 1), 3, work)
        if e == 3:
            return _jacobi_cube(work)
        named = what or f"a product in the power f1^{e}"
        if e % 3 == 0:
            half = _f1_power(3 * (e // 6), work, named)
            s = checked_product(half, half, named, MAX_ETA_BITS)
            if e % 6:
                s = checked_product(s, _f1_power(3, work), named, MAX_ETA_BITS)
            return s
        low = 1 if e == 2 else e - e % 3
        a = _f1_power(low, work, named)
        b = a if e == 2 else _f1_power(e - low, work, named)
        return checked_product(a, b, named, MAX_ETA_BITS)
    return kept(("f1", e), order, build)


def eta_power(k: int, e: int, order: int) -> TruncatedLaurentSeries:
    """f_k^e for e >= 0, truncated.

    Only f_1^e is built and cached; f_k^e is f_1^e(q^k), so
    substitute_power spreads the first order//k coefficients of f_1^e,
    which costs a copy rather than a product.  Negative powers are not
    built here: eta_expression_eval inverts one product of positive
    powers instead.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if e < 0:
        raise ValueError("eta_power builds nonnegative powers only")
    if e > MAX_POW_EXPONENT:
        # a sum or product of DSL powers, each within the limit
        raise QidError(f"the power f{k}^e, e of {e.bit_length()} bits, has an "
                       f"exponent above the limit {MAX_POW_EXPONENT}")
    if order < 0:
        return TruncatedLaurentSeries.from_terms({}, order)
    if e == 0:
        return TruncatedLaurentSeries.one(order)
    if k == 1:
        return _f1_power(e, order)
    return _f1_power(e, order // k).substitute_power(k, order)


class EtaMonomial(Record):
    """num * q^qpow * prod_k f_k^(e_k), over the den of its EtaExpression;
    num is an int, exps a sorted tuple of (k, e_k) pairs, every k >= 1
    and no e_k zero."""

    __slots__ = __match_args__ = ("num", "qpow", "exps")

    def _check(self):
        if type(self.num) is not int:
            raise ValueError("EtaMonomial numerator must be an int")
        if any(e == 0 for _, e in self.exps):
            raise ValueError("EtaMonomial exponent map must not contain zeros")
        if any(k < 1 for k, _ in self.exps):
            raise ValueError("EtaMonomial index k must be positive")


class EtaExpression(Record):
    """(sum of the EtaMonomial terms) / den, stored as a series is: integer
    numerators over one den >= 1 with gcd(den, *nums) == 1 (see
    eta_expression).  No two terms share their qpow and exponents, and no
    numerator is 0; the empty sum is zero."""

    __slots__ = __match_args__ = ("terms", "den")
    _defaults = {"terms": (), "den": 1}


def eta_expression(terms) -> EtaExpression:
    """Build an EtaExpression from (coeff, qpow, {k: e}) triples, coeff an
    int or a Fraction.  Like terms, with the same qpow and exponents, are
    summed where the first of them stands, and zero sums are dropped; den
    is the lcm of the denominators of the sums."""
    sums: dict = {}
    for c, p, exps in terms:
        key = p, tuple(sorted((k, e) for k, e in exps.items() if e))
        sums[key] = sums.get(key, 0) + c
    sums = {key: c for key, c in sums.items() if c}
    den = lcm(*(c.denominator for c in sums.values()))
    return EtaExpression(tuple(
        EtaMonomial(c.numerator * (den // c.denominator), p, exps)
        for (p, exps), c in sums.items()), den)


def factorize(n: int) -> dict[int, int]:
    """{p: v} with n = prod p^v over the primes p dividing n >= 1, by
    trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


#: Below this order a product of eta powers is multiplied flat (see
#: _flat_sum): splitting it by a shared divisor d, as _eta_product does
#: above, shortens series of at most this many terms, where a product
#: costs little more than the calls and factorizations the split takes.
FLAT_ORDER = 64


def _eta_product(exps: dict[int, int], order: int) -> TruncatedLaurentSeries:
    """prod_k f_k^(e_k), every e_k >= 0, through q^order.

    f_k^e(q) = f_(k/d)^e(q^d) for d dividing k, so from FLAT_ORDER up
    factors whose indices share a divisor d are multiplied at order//d and
    then spread by substitute_power: a product of series d times shorter.
    A factor f_k with k > order is 1 through q^order and is dropped first,
    so no index above the order is factored."""
    exps = {k: e for k, e in exps.items() if e and k <= order}
    if order < FLAT_ORDER:
        return TruncatedLaurentSeries(
            0, order, tuple(_flat_sum([(1, 0, exps.items())], order)))
    if len(exps) <= 1:
        k, e = next(iter(exps.items()), (1, 0))
        return eta_power(k, e, order)
    g = gcd(*exps)
    if g > 1:
        return _eta_product({k // g: e for k, e in exps.items()},
                            order // g).substitute_power(g, order)
    # split off the indices divisible by the divisor that most of them
    # share, the first in increasing order; g == 1, so neither part is
    # empty.  That divisor is a prime, since a composite d's least prime
    # factor divides every index d divides, so only the primes of the
    # indices are tried
    d = max(sorted({p for k in exps for p in factorize(k)}),
            key=lambda d: sum(k % d == 0 for k in exps))
    group = {k: e for k, e in exps.items() if k % d == 0}
    rest = {k: e for k, e in exps.items() if k % d}
    return _eta_product(rest, order) * _eta_product(group, order)


def _eta_sum(terms, order: int) -> list[int]:
    """The numerators of q^0 .. q^order of sum_i c_i q^(s_i) prod_k
    f_k^(e_ik), over terms (c_i, s_i, ((k, e_ik), ...)), every c_i a
    nonzero int, 0 <= s_i <= order and e_ik >= 1: each term's product
    (_eta_product) scaled into one list, or below FLAT_ORDER the flat
    sum."""
    if order < FLAT_ORDER:
        return _flat_sum(terms, order)
    total = [0] * (order + 1)
    for c, s, exps in terms:
        product = _eta_product(dict(exps), order - s).coeffs
        total[s:] = map(add, total[s:], map(mul, product, repeat(c)))
    return total


def _flat_sum(terms, order: int) -> list[int]:
    """_eta_sum's list, as one packed integer.

    Each power f_k^e with 1 <= k <= order and e >= 1 is fetched once
    (eta_power), and its coefficients at q^0, q^k, ..., those of f_1^e,
    are packed in Horner form as f_1^e(q^k) at q = X = 2^(8*width); a
    term is c times q^s, times each of its powers, every product kept
    modulo X^(order+1), and the terms are summed the same way.  That ring map is exact for the
    digits of the sum once each of them lies below X/2 in absolute value,
    as width makes sure: no coefficient of the sum exceeds the sum over
    the terms of |c| times the product of the l1 norms of its powers."""
    n = order + 1
    terms = [(c, s, [f for f in exps if f[0] <= order])
             for c, s, exps in terms]
    powers = {}
    for _, _, exps in terms:
        for f in exps:
            if f not in powers:
                powers[f] = eta_power(*f, order).coeffs[::f[0]]
    norms = {f: sum(map(abs, cs)) for f, cs in powers.items()}
    bound = 0
    for c, _, exps in terms:
        b = abs(c)
        for f in exps:
            b *= norms[f]
        bound += b
    width = (bound.bit_length() + 8) // 8
    digit = 8 * width
    mask = (1 << (digit * n)) - 1
    packed = {}
    for f, cs in powers.items():
        step, x = digit * f[0], 0
        for c in reversed(cs):
            x = (x << step) + c
        packed[f] = x
    total = 0
    for c, s, exps in terms:
        x = c << (digit * s)
        for f in exps:
            x = x * packed[f] & mask
        total += x
    return _unpack(total, width, 1 << (digit - 1), n)


def eta_expression_eval(expr: EtaExpression, order: int) -> TruncatedLaurentSeries:
    """sum_i c_i q^(a_i) prod_k f_k^(e_ik), exact through q^order.

    The one evaluator of eta quotients, through a normal form: the sum
    is U times cleared_sum's sum of it, with U = q^A prod_k f_k^(m_k) its
    common eta denominator.  The cleared sum takes its nonnegative powers
    from the memo of f_1 powers, with small coefficients, and needs no
    inversion; U's negative part costs one inversion of the positive
    product prod_k f_k^(-m_k), and none when the sum vanishes (see
    eta_expression_vanishes).  Each f_k^e has constant term 1, so
    nothing loses order: the cleared sum is needed through
    q^(order - A), and the result is known through q^order exactly.  A
    request at or below the order of a kept value is that value,
    truncated (qid.caches): a dissection check such as
    E = sum_r q^r SUBST(EXTRACT(E, m, r), m) evaluates the same E m + 1
    times at about the same order.
    """
    return kept(expr, order, lambda: _normal_form_eval(expr, order))


def eta_expression_vanishes(expr: EtaExpression, order: int,
                            keep: int | None = None) -> bool:
    """Whether expr vanishes through q^order, decided on the sum of
    eta_expression_eval's normal form, so that nothing is inverted
    whatever the answer.  A vanishing expr is kept in the memo as zero,
    its value, through q^keep (order when None; a caller that knows expr
    vanishes identically may keep more): a later eta_expression_eval of
    it builds nothing."""
    total, low_q, _ = cleared_sum(
        [(t.num, t.qpow, dict(t.exps), None) for t in expr.terms], order)
    if not total.is_zero():
        return False
    top = order if keep is None else keep
    kept(expr, top, lambda: TruncatedLaurentSeries.zero(top - low_q)
         .shift(low_q))
    return True


def cleared_sum(summands, order: int):
    """(S, A, {k: m_k}): the sum of summands (c, a, {k: e}, s), each
    c*q^a*prod_k f_k^(e_k) times s, over its common eta denominator
    U = q^A prod_k f_k^(m_k), through q^(order - A).

    c is an int or a Fraction; s is the series of a factor that is no eta
    quotient, exact through q^(order - a), or None for 1.  A is the least
    a and m_k the least e_k or 0, over the summands but the eta terms
    whose c is 0.  U is q^A times a unit, so the sum vanishes through
    q^order exactly when S does through q^(order - A), and every power
    left in S is nonnegative: S takes no inversion.  Like eta terms are
    summed, and the sums go into one list of numerators over the lcm of
    their denominators (_eta_sum); the factors that share a
    cleared eta factor F = prod_k f_k^(e_k - m_k) are summed and
    multiplied by F once, F built through the order the group's least
    q-power leaves, and as far again as their sum reaches below it, a
    product refused first when it may hold more than MAX_INVERSE_BITS.
    A work order order - A above MAX_WORK_ORDER raises QidError."""
    live = [t for t in summands if t[0] or t[3] is not None]
    low_q = min((a for _, a, _, _ in live), default=0)
    work = order - low_q
    check_work_order(work)
    low_f: dict[int, int] = {}
    for _, _, exps, _ in live:
        for k, e in exps.items():
            low_f[k] = min(low_f.get(k, 0), e)
    like, groups = {}, {}
    for c, a, exps, s in live:
        # the cleared powers but the zero ones, indexed alike for every
        # summand
        cleared = tuple([(k, e - m) for k, m in low_f.items()
                         if (e := exps.get(k, 0)) != m])
        if s is None:
            like[a, cleared] = like.get((a, cleared), 0) + c
        else:
            groups.setdefault(cleared, []).append((c, a - low_q, s))
    # a term above q^order is zero through it
    terms = [(c, a - low_q, cleared) for (a, cleared), c in like.items()
             if c and a <= order]
    total = TruncatedLaurentSeries.zero(work)
    if terms:
        den = lcm(*(c.denominator for c, _, _ in terms))
        total = TruncatedLaurentSeries(0, work, tuple(_eta_sum(
            [(c.numerator * (den // c.denominator), s, cleared)
             for c, s, cleared in terms], work)), den)
    for cleared, members in groups.items():
        low = min(shift for _, shift, _ in members)
        parts = [s.scale(c).shift(shift - low) for c, shift, s in members]
        g = sum(parts[1:], parts[0])
        if any(e for _, e in cleared):
            f_order = max(work - low - min(g.min_exp, 0), 0)
            check_work_order(f_order)
            g = checked_product(g, _eta_product(dict(cleared), f_order),
                                "a series product", MAX_INVERSE_BITS)
        total = total + g.shift(low)
    return total.truncate(work), low_q, low_f


def _normal_form_eval(expr: EtaExpression, order: int) -> TruncatedLaurentSeries:
    total, low_q, low_f = cleared_sum(
        [(t.num, t.qpow, dict(t.exps), None) for t in expr.terms], order)
    if any(low_f.values()) and not total.is_zero():
        total = total * _eta_product(
            {k: -m for k, m in low_f.items()}, total.order).invert()
    # the one division by den, together with the shift by q^low_q
    return TruncatedLaurentSeries(total.min_exp + low_q, total.order + low_q,
                                  total.coeffs, total.den * expr.den)


def theta_valuation(t: int, base: int) -> int:
    """The lowest exponent of j(eps*q^t; q^base), at n = -(t // base)."""
    return base * (t // base) * (t // base + 1) // 2 - t * (t // base)


def theta_j(z: SignedMonomial, base: int, order: int) -> TruncatedLaurentSeries:
    """j(z; q^base) = (z; Q)_inf (Q/z; Q)_inf (Q; Q)_inf with Q = q^base,
    summed by the Jacobi triple product: z = eps*q^t gives (-eps)^n at
    q^(base*n(n-1)/2 + t*n), n in Z.  The exponent moves by base*n + t from
    n to n + 1, so the terms through q^order are grown outwards from the
    least one, at n = -(t // base), and no other n is visited."""
    if base < 1:
        raise ValueError("base must be positive")
    eps, t = z.sign, z.exp
    if eps == 1 and t % base == 0:
        raise ThetaVanishesError(f"theta is identically zero: z = q^(base*{t // base})")
    low = theta_valuation(t, base)
    check_work_order(order - low - min(0, t, base - t))
    coeffs = [0] * max(0, order - low + 1)
    for n, step in ((-(t // base), 1), (-(t // base) - 1, -1)):
        while (e := base * n * (n - 1) // 2 + t * n) <= order:
            coeffs[e - low] += 1 if n % 2 == 0 else -eps
            n += step
    return TruncatedLaurentSeries(min(low, order + 1), order, tuple(coeffs))
