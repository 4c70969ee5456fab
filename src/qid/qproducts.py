"""q-Pochhammer products, the eta-like functions f_k, eta-quotient
expressions, and the theta function j(z;q^base) for signed-monomial z.

Binomial factors (1 - eps*q^d) are multiplied directly, including d < 0,
which are treated as exact two-term Laurent polynomials; each such factor
lowers the working truncation order by |d|, so products start from an
inflated internal order and end exactly at the requested one.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import ThetaVanishesError
from .record import Record
from .series import TruncatedLaurentSeries

_CACHE_STEP = 64


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

    def pow(self, n: int) -> "SignedMonomial":
        return SignedMonomial(self.sign if n % 2 else 1, self.exp * n)

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


def div_one_minus(s: TruncatedLaurentSeries, eps: int, d: int) -> TruncatedLaurentSeries:
    """Divide s by the exact binomial (1 - eps*q^d), d >= 1.

    1/(1 - eps*q^d) is a power series with constant term 1, so the window
    is kept: y[i] = x[i] + eps*y[i-d], done one block of d at a time."""
    if d < 1:
        raise ValueError("div_one_minus needs d >= 1")
    combine = add if eps > 0 else sub
    out = list(s.coeffs)
    for i in range(d, len(out), d):
        out[i:i + d] = map(combine, out[i:i + d], out[i - d:i])
    return TruncatedLaurentSeries(s.min_exp, s.order, tuple(out), s.den)


def pochhammer_finite(a: SignedMonomial, step: int, n: int, order: int) -> TruncatedLaurentSeries:
    """The finite product prod_{j=0}^{n-1} (1 - a*q^(step*j)), truncated."""
    if step < 1:
        raise ValueError("step must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    exps = [a.exp + step * j for j in range(n)]
    slack = sum(-e for e in exps if e < 0)
    s = TruncatedLaurentSeries.one(order + slack)
    for e in exps:
        if e <= order + slack:
            s = mul_one_minus(s, a.sign, e)
    return s.truncate(order)


_eta_cache: dict[int, TruncatedLaurentSeries] = {}
_eta_power_cache: dict[tuple[int, int], TruncatedLaurentSeries] = {}


def eta_f(k: int, order: int) -> TruncatedLaurentSeries:
    """f_k = (q^k; q^k)_infinity = prod_{j>=1} (1 - q^(k*j)), truncated."""
    if k < 1:
        raise ValueError("k must be positive")
    if order < 0:
        return TruncatedLaurentSeries.from_terms({}, order)
    cached = _eta_cache.get(k)
    if cached is None or cached.order < order:
        work = -(-max(order, 1) // _CACHE_STEP) * _CACHE_STEP
        s = TruncatedLaurentSeries.one(work)
        for e in range(k, work + 1, k):
            s = mul_one_minus(s, 1, e)
        _eta_cache[k] = cached = s
    return cached.truncate(order)


def eta_power(k: int, e: int, order: int) -> TruncatedLaurentSeries:
    """f_k^e, with negative e via series inversion (no order loss: f_k(0)=1)."""
    if e == 0:
        return TruncatedLaurentSeries.one(order)
    cached = _eta_power_cache.get((k, e))
    if cached is None or cached.order < order:
        work = -(-max(order, 1) // _CACHE_STEP) * _CACHE_STEP
        base = eta_f(k, work)
        if e < 0:
            base = base.invert()
        _eta_power_cache[(k, e)] = cached = base.pow(abs(e))
    return cached.truncate(order)


class EtaMonomial(Record):
    """coeff * q^qpow * prod_k f_k^(e_k); exps holds no zero exponents.

    coeff is a Fraction, exps a tuple of (k, e_k) pairs."""

    __slots__ = __match_args__ = ("coeff", "qpow", "exps")

    def _check(self):
        if any(e == 0 for _, e in self.exps):
            raise ValueError("EtaMonomial exponent map must not contain zeros")


class EtaExpression(Record):
    """A finite sum of EtaMonomial terms (a tuple); the empty sum is zero."""

    __slots__ = __match_args__ = ("terms",)
    _defaults = {"terms": ()}


def eta_monomial(coeff, qpow: int, exps: dict[int, int]) -> EtaMonomial:
    items = tuple(sorted((k, e) for k, e in exps.items() if e != 0))
    return EtaMonomial(Fraction(coeff), qpow, items)


def eta_expression(terms) -> EtaExpression:
    """Build an EtaExpression from (coeff, qpow, {k: e}) triples."""
    return EtaExpression(tuple(eta_monomial(c, p, d) for c, p, d in terms))


def eta_expression_eval(expr: EtaExpression, order: int) -> TruncatedLaurentSeries:
    total = TruncatedLaurentSeries.zero(order)
    for t in expr.terms:
        inner = order - t.qpow
        if inner < 0:
            continue  # the whole term lies beyond the truncation order
        s = TruncatedLaurentSeries.one(inner)
        for k, e in t.exps:
            s = s * eta_power(k, e, inner)
        total = total + s.scale(t.coeff).shift(t.qpow)
    return total


def theta_j(z: SignedMonomial, base: int, order: int) -> TruncatedLaurentSeries:
    """j(z; q^base) = (z; Q)_inf (Q/z; Q)_inf (Q; Q)_inf with Q = q^base."""
    if base < 1:
        raise ValueError("base must be positive")
    eps, t = z.sign, z.exp
    if eps == 1 and t % base == 0:
        raise ThetaVanishesError(f"theta is identically zero: z = q^(base*{t // base})")
    factors: list[tuple[int, int]] = []
    slack = 0
    for start, sign in ((t, eps), (base - t, eps), (base, 1)):
        e = start
        while e < 0:
            factors.append((sign, e))
            slack += -e
            e += base
    work = order + slack
    for start, sign in ((t, eps), (base - t, eps), (base, 1)):
        # nonnegative members of the arithmetic progression start + base*j
        e = start if start >= 0 else start + base * ((-start + base - 1) // base)
        while e <= work:
            factors.append((sign, e))
            e += base
    s = TruncatedLaurentSeries.one(work)
    for sign, e in factors:
        s = mul_one_minus(s, sign, e)
    return s.truncate(order)
