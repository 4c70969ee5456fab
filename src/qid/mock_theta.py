"""Direct summation of the defining q-series of the second-order mock
theta functions A(q), B(q), mu2(q).

Each outer term is evaluated literally as
(finite Pochhammer numerator) * q^shift * invert(finite Pochhammer
denominator) in exact series arithmetic; this module is the independent
oracle the Appell-Lerch and eta-quotient representations are checked
against, so no closed-form shortcuts are taken.  The outer sum stops once
a term's exact minimal exponent exceeds the truncation order.
"""

from __future__ import annotations

from fractions import Fraction

from .qproducts import SignedMonomial, pochhammer_finite
from .series import TruncatedLaurentSeries

#: selector -> (minimal exponent of term n)
_MIN_EXP = {
    "A1": lambda n: (n + 1) ** 2,
    "A2": lambda n: n + 1,
    "B1": lambda n: n * (n + 1),
    "B2": lambda n: n,
    "B3": lambda n: n,
    "MU2": lambda n: n * n,
}

SELECTORS = tuple(_MIN_EXP)

_cache: dict[str, TruncatedLaurentSeries] = {}


def _term(sel: str, n: int, order: int) -> TruncatedLaurentSeries:
    mq = SignedMonomial(-1, 1)     # -q
    mq2 = SignedMonomial(-1, 2)    # -q^2
    pq = SignedMonomial(1, 1)      # q
    if sel == "A1":
        num = pochhammer_finite(mq, 2, n, order)
        den = pochhammer_finite(pq, 2, n + 1, order).invert().pow(2)
        shift = (n + 1) ** 2
    elif sel == "A2":
        num = pochhammer_finite(mq2, 2, n, order)
        den = pochhammer_finite(pq, 2, n + 1, order).invert()
        shift = n + 1
    elif sel == "B1":
        num = pochhammer_finite(mq2, 2, n, order)
        den = pochhammer_finite(pq, 2, n + 1, order).invert().pow(2)
        shift = n * (n + 1)
    elif sel in ("B2", "B3"):
        num = pochhammer_finite(mq, 2, n, order)
        den = pochhammer_finite(pq, 2, n + 1, order).invert()
        shift = n
    elif sel == "MU2":
        num = pochhammer_finite(pq, 2, n, order).scale((-1) ** n)
        den = pochhammer_finite(mq2, 2, n, order).invert().pow(2)
        shift = n * n
    else:
        raise ValueError(f"unknown mock theta selector {sel!r}")
    return (num * den).shift(shift)


def mock_theta_series(sel: str, order: int) -> TruncatedLaurentSeries:
    if sel not in _MIN_EXP:
        raise ValueError(f"unknown mock theta selector {sel!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    cached = _cache.get(sel)
    if cached is None or cached.order < order:
        total = TruncatedLaurentSeries.zero(order)
        min_exp = _MIN_EXP[sel]
        n = 0
        while min_exp(n) <= order:
            total = total + _term(sel, n, order)
            n += 1
        _cache[sel] = cached = total
    return cached.truncate(order)


def mock_theta_coefficient(sel: str, n: int) -> Fraction:
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    return mock_theta_series(sel, n).coefficient(n)
