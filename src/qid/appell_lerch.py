"""The Appell-Lerch sum m(x,q,z) for signed-monomial x and z.

m(x,Q,z) = (-z / j(z;Q)) * sum_r (-1)^r Q^(r(r+1)/2) z^r / (1 - x z Q^r),
with Q = q^base.  Every summand denominator 1 - eps*q^d is expanded
exactly: geometrically for d > 0, via the rewrite
1/(1-eps*q^d) = -eps*q^(-d)/(1-eps*q^(-d)) for d < 0, and as the constant
1/2 for d = 0 with eps = -1.  The bilateral window is chosen from the
exact per-term minimal exponent bound and its adequacy is checked at
runtime on every evaluation (WindowUnstableError otherwise).
"""

from __future__ import annotations

from .errors import NonGenericParameterError, WindowUnstableError
from .qproducts import SignedMonomial, theta_j
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


def _theta_lowest_exp(z: SignedMonomial, base: int) -> int:
    """Lowest exponent of the (nonzero) theta product j(z;q^base)."""
    t = z.exp
    low = 0
    for start in (t, base - t):
        e = start
        while e < 0:
            low += e
            e += base
    return low


def _term_min_exp(r: int, a: int, t: int, base: int) -> int:
    d = a + t + base * r
    return base * r * (r + 1) // 2 + t * r + max(0, -d)


def appell_lerch_m(spec: AppellLerchSpec, order: int) -> TruncatedLaurentSeries:
    a, ex = spec.x.exp, spec.x.sign
    t, ez = spec.z.exp, spec.z.sign
    base = spec.base
    eps = ex * ez

    e_theta = _theta_lowest_exp(spec.z, base)
    p0 = t - e_theta  # min_exp of the -z/j(z;Q) prefactor
    order_s = order - p0

    # bilateral window from the exact minimal-exponent bound
    def scan(direction: int) -> int:
        r, last_in = 0, 0
        misses = 0
        while misses < 3:
            r += direction
            if _term_min_exp(r, a, t, base) <= order_s:
                last_in = r
                misses = 0
            else:
                misses += 1
        return last_in

    r_hi = max(scan(+1), 0)
    r_lo = min(scan(-1), 0)

    # window-stability check: the next two indices on each side are
    # entirely beyond the truncation order
    for r in (r_hi + 1, r_hi + 2, r_lo - 1, r_lo - 2):
        if _term_min_exp(r, a, t, base) <= order_s:
            raise WindowUnstableError(
                f"Appell-Lerch window unstable at r={r} for {spec} (order {order})")

    # integer numerators of the bilateral sum over the denominator 2, which
    # the d == 0 summand 1/2 needs; the series normalises it away otherwise
    acc: dict[int, int] = {}

    def put(e: int, c: int):
        if e <= order_s:
            acc[e] = acc.get(e, 0) + c

    smin = order_s + 1
    for r in range(r_lo, r_hi + 1):
        if _term_min_exp(r, a, t, base) > order_s:
            continue
        smin = min(smin, _term_min_exp(r, a, t, base))
        s_r = 1 if r % 2 == 0 else -ez  # (-1)^r * z.sign^r
        e_r = base * r * (r + 1) // 2 + t * r
        d = a + t + base * r
        if d == 0:
            if eps == 1:
                raise NonGenericParameterError(
                    "non-generic parameters: summand denominator 1 - q^0")
            put(e_r, s_r)
        elif d > 0:
            j = 0
            while e_r + d * j <= order_s:
                put(e_r + d * j, 2 * s_r * eps ** j)
                j += 1
        else:
            i = 1
            while e_r - d * i <= order_s:
                put(e_r - d * i, -2 * s_r * eps ** i)
                i += 1

    if smin > order_s:
        ssum = TruncatedLaurentSeries(order_s + 1, order_s, ())
    else:
        ssum = TruncatedLaurentSeries(
            smin, order_s, tuple(acc.get(e, 0) for e in range(smin, order_s + 1)), 2)

    # prefactor -z / j(z;Q) to an order making the product sound
    pf_order = order - min(smin, 0)
    theta_order = pf_order - t + 2 * e_theta
    theta = theta_j(spec.z, base, max(theta_order, e_theta))
    pf = theta.invert().scale(-ez).shift(t)

    return (pf * ssum).truncate(order)

