"""Direct summation of the defining q-series of the second-order mock
theta functions A(q), B(q), mu2(q) (McIntosh, "Second order mock theta
functions", Canad. Math. Bull. 50, 2007).

Every selector is a sum over n >= 0 of

    sign^n * q^shift(n) * (a; q^2)_n / (b; q^2)_(n+k)^p

with a, b signed monomials, k in {0, 1} and p in {1, 2}.  The power-series
part T_n = (a; q^2)_n / (b; q^2)_(n+k)^p is carried from term to term as
one list of integer numerators, changed in place: T_(n+1) is T_n times
one numerator binomial (1 - a*q^(2n)), one slice-assigned map, divided
by (1 - b*q^(2(n+k)))^p (qproducts.div_one_minus).  A division whose
window holds more than d blocks of its divisor's exponent d is p nested
running sums along each residue class mod d, a few C-level passes.  The
divisors grow as 2n, so that covers the first terms of each selector: at
order 500, two thirds of the coefficients that A1 and B1 divide and a
third of MU2's (whose eps = -1 halves the reach), but a few per cent of
A2's and B2's, whose shift(n) grows as n, not n^2, so that their many
later terms walk the window block by block.  Term n is needed only
through q^(order - shift(n)), so the list is cut (del) as n grows.  The
sum starts at q^0 with integer numerators over den 1, which `qid coeffs`
and the congruence and parity checks read directly.  Every summand is
still the literal defining term, never a closed form, so this module
stays the independent oracle the Appell-Lerch and eta-quotient
representations are checked against.  The outer sum stops once shift(n)
exceeds the truncation order.
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
    total = [0] * (order + 1)
    shift = shift_of(0)
    t = [1] + [0] * (order - shift)  # T_0, one list from here on
    for j in range(k):
        div_one_minus(t, b.sign, b.exp + 2 * j, p)
    times = sub if a.sign > 0 else add  # by the numerator's 1 - a*q^d
    n = 0
    while shift <= order:
        combine = sub if sign < 0 and n % 2 else add
        total[shift:] = map(combine, total[shift:], t)
        shift = shift_of(n + 1)
        # T_n -> T_(n+1), on the window term n+1 needs
        del t[max(order - shift + 1, 0):]
        d = a.exp + 2 * n
        t[d:] = map(times, t[d:], t[:max(len(t) - d, 0)])
        div_one_minus(t, b.sign, b.exp + 2 * (n + k), p)
        n += 1
    return TruncatedLaurentSeries(0, order, tuple(total))


def mock_theta_series(sel: str, order: int) -> TruncatedLaurentSeries:
    """The direct sum of selector sel through q^order, kept in the memo
    (qid.caches) so that a shorter request is a truncation."""
    if sel not in _FORMS:
        raise ValueError(f"unknown mock theta selector {sel!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return kept(("MT", sel), order, lambda: _summed(sel, order))
