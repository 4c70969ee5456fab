"""The Appell-Lerch sum m(x,q,z) for signed-monomial x and z.

m(x,Q,z) = (-z / j(z;Q)) * sum_r (-1)^r Q^(r(r+1)/2) z^r / (1 - x z Q^r),
with Q = q^base.  Every summand denominator 1 - eps*q^d is expanded
exactly: geometrically for d > 0, via the rewrite
1/(1-eps*q^d) = -eps*q^(-d)/(1-eps*q^(-d)) for d < 0, and as the constant
1/2 for d = 0 with eps = -1.  The sum runs over the summands that reach
the truncation order, found in closed form by _window.
"""

from __future__ import annotations

from functools import partial

from .caches import kept
from .errors import NonGenericParameterError
from .qproducts import theta_j, theta_valuation
from .record import Record
from .series import TruncatedLaurentSeries


class AppellLerchSpec(Record):
    """m(x, q^base, z) for signed monomials x and z."""

    __slots__ = __match_args__ = ("x", "base", "z")

    def _check(self):
        if self.base < 1:
            raise ValueError("base must be positive")
        if self.x.sign * self.z.sign == 1 and (self.x.exp + self.z.exp) % self.base == 0:
            raise NonGenericParameterError(
                "non-generic parameters: x*z*q^(base*r) = 1 for some integer r")


def _term_min_exp(a: int, t: int, base: int, r: int) -> int:
    """The lowest exponent of the r-th summand of the bilateral sum."""
    return base * r * (r + 1) // 2 + t * r + max(0, -(a + t + base * r))


def _window(a: int, t: int, base: int, order_s: int) -> range:
    """The indices r with _term_min_exp(r) <= order_s.

    The step _term_min_exp(r + 1) - _term_min_exp(r) is base*(r + 1) + t
    plus one that rises from -base to 0 with r.  So the steps increase, and
    with k = -(t // base) they are negative for r < k - 1 and nonnegative
    for r >= k: the minimum lies at k - 1 or k, and the indices form one
    interval around it, grown here from the empty one."""
    f = partial(_term_min_exp, a, t, base)
    k = -(t // base)
    lo = min(k - 1, k, key=f)
    hi = lo - 1
    while f(hi + 1) <= order_s:
        hi += 1
    while f(lo - 1) <= order_s:
        lo -= 1
    return range(lo, hi + 1)


def appell_lerch_m(spec: AppellLerchSpec, order: int) -> TruncatedLaurentSeries:
    """m(x, q^base, z) through q^order, kept in the memo (qid.caches) so
    that a shorter request is a truncation: the two sides of a failing
    identity reuse the m that lhs - rhs built."""
    return kept(("AL", spec), order, lambda: _summed(spec, order))


def _summed(spec: AppellLerchSpec, order: int) -> TruncatedLaurentSeries:
    a, t, base = spec.x.exp, spec.z.exp, spec.base
    ez, eps = spec.z.sign, spec.x.sign * spec.z.sign

    # j(z;Q) starts at q^e_theta and -z/j(z;Q) at q^(t - e_theta), so the
    # sum is needed through q^order_s
    e_theta = theta_valuation(t, base)
    order_s = order - t + e_theta
    window = _window(a, t, base, order_s)
    low = partial(_term_min_exp, a, t, base)
    smin = min(map(low, window), default=order_s + 1)

    # the prefactor, to an order making the product sound, comes first:
    # theta_j's work bound refuses an oversized sum
    theta_order = order - min(smin, 0) - t + 2 * e_theta
    pf = theta_j(spec.z, base, max(theta_order, e_theta)).invert().scale(-ez).shift(t)

    # numerators over 2, which the d == 0 summand 1/2 needs, of the sum's
    # coefficients of q^smin ... q^order_s
    acc = [0] * (order_s - smin + 1)
    for r in window:
        c = 1 if r % 2 == 0 else -ez  # (-1)^r * z.sign^r
        d = a + t + base * r
        if d == 0:  # eps == -1 here: AppellLerchSpec rejects eps == 1
            acc[low(r) - smin] += c
            continue
        c *= 2 if d > 0 else -2 * eps  # twice the first term of 1/(1 - eps*q^d)
        for e in range(low(r) - smin, len(acc), abs(d)):
            acc[e] += c
            c *= eps
    return (pf * TruncatedLaurentSeries(smin, order_s, tuple(acc), 2)).truncate(order)
