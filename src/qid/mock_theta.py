"""Direct summation of the defining q-series of the second-order mock
theta functions A(q), B(q), mu2(q) (McIntosh, "Second order mock theta
functions", Canad. Math. Bull. 50, 2007).

Every selector is a sum over n >= 0 of

    sign^n * q^shift(n) * (a; q^2)_n / (b; q^2)_(n+k)^p

with a, b signed monomials, k in {0, 1} and p in {1, 2}.  The power-series
part T_n = (a; q^2)_n / (b; q^2)_(n+k)^p is T_0 * r_0 * ... * r_(n-1),
with r_n = (1 - a*q^(2n)) / (1 - b*q^(2(n+k)))^p, so the sum is taken in
nested (Horner) form, from the last term N with shift(N) <= order
inwards:

    T_0 * q^shift(0) * V_0,
    V_n = sign^n + q^(shift(n+1) - shift(n)) * r_n * V_(n+1),  V_N = sign^N.

V_n is needed through q^(order - shift(n)), the window the forward term
T_n would need, and is one list of integer numerators, changed in place:
V_(n+1) times one numerator binomial (one slice-assigned map), divided
by (1 - b*q^(2(n+k)))^p (qproducts.div_one_minus), with its gap of zeros
and sign^n put in front, so no term is added into a separate total.  A
division whose window holds more than d blocks of its divisor's exponent
d is p nested running sums along each residue class mod d, a few C-level
passes, for MU2's 1 + q^d as well.  The divisors grow as 2n, so that
covers the divisions by r_n for small n (done last); A2's and B2's many
later terms, whose shift(n) grows as n, not n^2, walk the window block
by block.  T_0 = 1/(b; q^2)_k^p is divided out once, at the end.  The
sum is an integer series from q^0 over den 1, which `qid coeffs` and the
congruence and parity checks read directly.  Every summand is still the
literal defining term, never a closed form, so this module stays the
independent oracle the Appell-Lerch and eta-quotient representations are
checked against.
"""

from __future__ import annotations

from operator import add, sub

from .caches import kept
from .qproducts import SignedMonomial, div_one_minus
from .series import TruncatedLaurentSeries

_Q = SignedMonomial(1, 1)      # q
_MQ = SignedMonomial(-1, 1)    # -q
_MQ2 = SignedMonomial(-1, 2)   # -q^2

#: selector -> (shift, a, b, k, p, sign) for the terms
#: sign^n * q^shift(n) * (a; q^2)_n / (b; q^2)_(n+k)^p
_FORMS = {
    "A1": (lambda n: (n + 1) ** 2, _MQ, _Q, 1, 2, 1),
    "A2": (lambda n: n + 1, _MQ2, _Q, 1, 1, 1),
    "B1": (lambda n: n * (n + 1), _MQ2, _Q, 1, 2, 1),
    "B2": (lambda n: n, _MQ, _Q, 1, 1, 1),
    "MU2": (lambda n: n * n, _Q, _MQ2, 0, 2, -1),
}

SELECTORS = tuple(_FORMS)


def _summed(sel: str, order: int) -> TruncatedLaurentSeries:
    shift_of, a, b, k, p, sign = _FORMS[sel]
    last = -1  # the last term that reaches q^order; shift_of increases
    while shift_of(last + 1) <= order:
        last += 1
    if last < 0:
        return TruncatedLaurentSeries(0, order, (0,) * (order + 1))
    times = sub if a.sign > 0 else add  # by the numerator's 1 - a*q^d
    # V_last, then V_n from V_(n+1), each through q^(order - shift(n))
    v = [sign ** last] + [0] * (order - shift_of(last))
    for n in range(last - 1, -1, -1):
        d = a.exp + 2 * n
        # map stops at v[d:]'s end, and is read whole before v is written
        v[d:] = map(times, v[d:], v)
        div_one_minus(v, b.sign, b.exp + 2 * (n + k), p)
        v[:0] = [sign ** n] + [0] * (shift_of(n + 1) - shift_of(n) - 1)
    for j in range(k):  # T_0 = 1/(b; q^2)_k^p
        div_one_minus(v, b.sign, b.exp + 2 * j, p)
    v[:0] = [0] * shift_of(0)
    return TruncatedLaurentSeries(0, order, tuple(v))


def mock_theta_series(sel: str, order: int) -> TruncatedLaurentSeries:
    """The direct sum of selector sel through q^order, kept in the memo
    (qid.caches) so that a shorter request is a truncation."""
    if sel not in _FORMS:
        raise ValueError(f"unknown mock theta selector {sel!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return kept(("MT", sel), order, lambda: _summed(sel, order))
