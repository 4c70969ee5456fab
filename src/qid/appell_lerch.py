"""The Appell-Lerch sum m(x,q,z) for signed-monomial x and z, and the
instantiated change-of-z and cubic decomposition identities.

m(x,Q,z) = (-z / j(z;Q)) * sum_r (-1)^r Q^(r(r+1)/2) z^r / (1 - x z Q^r),
with Q = q^base.  Every summand denominator 1 - eps*q^d is expanded
exactly: geometrically for d > 0, via the rewrite
1/(1-eps*q^d) = -eps*q^(-d)/(1-eps*q^(-d)) for d < 0, and as the constant
1/2 for d = 0 with eps = -1.  The bilateral window is chosen from the
exact per-term minimal exponent bound and its adequacy is checked at
runtime on every evaluation (WindowUnstableError otherwise).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonGenericParameterError, QidError, WindowUnstableError
from .outcome import VerificationOutcome, compare_series
from .qproducts import SignedMonomial, eta_f, theta_j
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


def _with_order(build, order: int, attempts: int = 8) -> TruncatedLaurentSeries:
    """Evaluate build(n) with growing n until the result order reaches order."""
    pad = 0
    for _ in range(attempts):
        s = build(order + pad)
        if s.order >= order:
            return s.truncate(order)
        pad += (order - s.order) + 4
    raise QidError(f"could not reach truncation order {order}")


def change_z_identity_check(x: SignedMonomial, base: int, z1: SignedMonomial,
                            z0: SignedMonomial, order: int) -> VerificationOutcome:
    """m(x,Q,z1) - m(x,Q,z0) against the theta-quotient right-hand side."""
    if z1 == z0:
        return VerificationOutcome("pass", order, None,
                                   "z1 = z0: both sides vanish identically")
    try:
        lhs = appell_lerch_m(AppellLerchSpec(x, base, z1), order) \
            - appell_lerch_m(AppellLerchSpec(x, base, z0), order)

        def rhs_at(n: int) -> TruncatedLaurentSeries:
            num = eta_f(base, n).pow(3) \
                * theta_j(z1.times(z0.inverse()), base, n) \
                * theta_j(x.times(z0).times(z1), base, n)
            den = theta_j(z0, base, n) * theta_j(z1, base, n) \
                * theta_j(x.times(z0), base, n) * theta_j(x.times(z1), base, n)
            return num.scale(z0.sign).shift(z0.exp) * den.invert()

        rhs = _with_order(rhs_at, order)
    except QidError as exc:
        return VerificationOutcome("error", order, None, str(exc))
    return compare_series(lhs, rhs)


def cube_decomposition_check(x: SignedMonomial, base: int,
                             order: int) -> VerificationOutcome:
    """m(x,Q,-1) against its decomposition into three m(.,Q^9,-1) values
    plus an eta/theta correction, instantiated at x = eps*q^a, Q = q^base."""
    a, ex = x.exp, x.sign
    minus_one = SignedMonomial(-1, 0)
    try:
        lhs = appell_lerch_m(AppellLerchSpec(x, base, minus_one), order)

        def rhs_at(n: int) -> TruncatedLaurentSeries:
            b9 = 9 * base
            m1 = appell_lerch_m(
                AppellLerchSpec(SignedMonomial(ex, 3 * a + 3 * base), b9, minus_one), n)
            m2 = appell_lerch_m(
                AppellLerchSpec(SignedMonomial(ex, 3 * a), b9, minus_one), n + abs(a - base) + 1)
            m3 = appell_lerch_m(
                AppellLerchSpec(SignedMonomial(ex, 3 * a - 3 * base), b9, minus_one),
                n + abs(2 * a - 3 * base) + 1)
            total = m1 \
                + m2.scale(-ex).shift(a - base) \
                + m3.shift(2 * a - 3 * base)
            num = eta_f(base, n) * eta_f(3 * base, n).pow(2) * eta_f(6 * base, n) \
                * eta_f(9 * base, n) * theta_j(SignedMonomial(1, 2 * a + base), 2 * base, n)
            den = eta_f(2 * base, n).pow(2) * eta_f(18 * base, n).pow(2) \
                * theta_j(SignedMonomial(-ex, 3 * a), 3 * base, n)
            corr = num.scale(Fraction(ex, 2)).shift(a - base) * den.invert()
            return total + corr

        rhs = _with_order(rhs_at, order)
    except QidError as exc:
        return VerificationOutcome("error", order, None, str(exc))
    return compare_series(lhs, rhs)
