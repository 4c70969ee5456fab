"""Valence-formula certificates: an eta-quotient sum that vanishes through
q^(a0 + B) vanishes identically (Frye & Garvan, "Automatic proof of
theta-function identities", 2019).

Write f_k = q^(-k/24) eta(k tau).  A sum of terms c_i q^(a_i) prod_k
f_k^(e_ik) whose terms share their weight sum_k e_ik / 2 and their q-offset
24 a_i - sum_k k e_ik is c_0 T_0 (1 + sum_(i>0) (c_i/c_0) g_i), where T_0
is the first term of least q-power a0 and g_i = T_i/T_0 = prod_k
eta(k tau)^(r_ik) is an eta quotient of weight 0.  Each g_i is a modular
function on Gamma0(N) when N is a multiple of every index and Newman's
conditions hold (Newman 1959): sum_k k r_k = 0 mod 24 (the equal
q-offsets), sum_k (N/k) r_k = 0 mod 24, prod_k k^(r_k) a rational square,
and sum_k r_k = 0 (the equal weights).  Its order at the cusps c/d with
d | N is Ligozat's (1975)

    (N/24) sum_k gcd(d, k)^2 r_k / (gcd(d, N/d) d k),

the same at the phi(gcd(d, N/d)) inequivalent cusps of each d, and d = N
is the cusp at infinity.  The function 1 + sum_i (c_i/c_0) g_i has no
pole in the upper half-plane and a pole of order at most
-min(0, min_i ord_d(g_i)) at each cusp; if it does not vanish, its zeros
and poles on X0(N) balance, so its order at infinity is at most B, the
sum of those pole orders over the cusps other than infinity.  Hence the
sum vanishes identically once it vanishes through q^(a0 + B).

Everything is exact integer and Fraction arithmetic over the divisors of
the level; the level is capped at MAX_LEVEL, which bounds that walk.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from operator import mul, sub

from .qproducts import EtaExpression, eta_expression_vanishes, factorize
from .record import Record

#: Largest level N a certificate is sought at: past it the sum is
#: not_applicable.  The divisors of N are found by trial division up to
#: sqrt(N), and every one of them but N is a class of cusps.
MAX_LEVEL = 10_000


class Certificate(Record):
    """What the valence formula says of an eta-quotient sum at an order.

    status is one of
      proved               -- the sum vanishes identically;
      nonzero              -- a coefficient through q^(a0 + bound), at or
                              below the order, is not zero;
      bound_exceeds_order  -- a0 + bound lies above the order, so the
                              sum was not expanded;
      not_applicable       -- the terms differ in weight or q-offset, a
                              quotient fails Newman's conditions, or the
                              level exceeds MAX_LEVEL.
    level and bound are N and B, None when not_applicable."""

    __slots__ = __match_args__ = ("status", "level", "bound")
    _defaults = {"level": None, "bound": None}


def valence_bound(expr: EtaExpression) -> tuple[int, int] | None:
    """(N, B): the least level N, a multiple of every index of the
    quotients g_i, on which every g_i is a modular function, and the
    bound B of the module docstring; (1, 0) for the empty sum and a
    single term.  None when the terms differ in weight or q-offset, a g_i
    fails Newman's square condition, or N exceeds MAX_LEVEL."""
    terms = expr.terms
    indices = sorted({k for t in terms for k, _ in t.exps})
    rows = []
    for t in terms:
        exps = dict(t.exps)
        rows.append([exps.get(k, 0) for k in indices])
    if len({(sum(row), 24 * t.qpow - sum(map(mul, indices, row)))
            for t, row in zip(terms, rows)}) > 1:
        return None
    if not terms:
        return 1, 0
    base = min(range(len(terms)), key=lambda i: terms[i].qpow)
    # the exponents r_k of each g_i, over the indices some g_i holds
    quotients = [list(map(sub, row, rows[base]))
                 for i, row in enumerate(rows) if i != base]
    held = [j for j in range(len(indices)) if any(r[j] for r in quotients)]
    indices = [indices[j] for j in held]
    quotients = [[r[j] for j in held] for r in quotients]
    level = 1
    for k in indices:
        level = lcm(level, k)
        if level > MAX_LEVEL:
            return None
    # the least multiple of that lcm with sum_k (N/k) r_k = 0 mod 24
    cofactors = [level // k for k in indices]
    level *= lcm(*(24 // gcd(24, sum(map(mul, cofactors, r)))
                   for r in quotients))
    if level > MAX_LEVEL:
        return None
    # prod_k k^(r_k) is a rational square when every prime occurs in it
    # to an even power
    factors = [factorize(k) for k in indices]
    for p in {p for f in factors for p in f}:
        powers = [f.get(p, 0) for f in factors]
        if any(sum(map(mul, powers, r)) % 2 for r in quotients):
            return None
    bound = Fraction(0)
    for d in _divisors(level)[:-1]:
        weights = _cusp_weights(indices, level, d)
        low = min(0, *(sum(map(mul, weights, r)) for r in quotients))
        g = gcd(d, level // d)
        bound -= Fraction(_phi(g) * low, 24 * g * d)
    # the order at infinity is an integer, so it exceeds B when it
    # exceeds floor(B)
    return level, floor(bound)


def cusp_order(r: dict[int, int], level: int, d: int) -> Fraction:
    """Ligozat's order of prod_k eta(k tau)^(r_k) at the cusps c/d of
    Gamma0(level), d | level and every k | level, in the local
    uniformizer there: (N/24) sum_k gcd(d, k)^2 r_k / (gcd(d, N/d) d k)."""
    return Fraction(sum(map(mul, _cusp_weights(r, level, d), r.values())),
                    24 * gcd(d, level // d) * d)


def _cusp_weights(indices, level: int, d: int) -> list[int]:
    """gcd(d, k)^2 N/k for each index k: 24 gcd(d, N/d) d times the
    order at the cusps of d is the sum of these times the r_k."""
    return [gcd(d, k) ** 2 * (level // k) for k in indices]


def certify(expr: EtaExpression, order: int) -> Certificate:
    """The certificate of expr at order: with (N, B) = valence_bound(expr)
    and a0 the least q-power of its terms, expr is expanded through
    q^(a0 + B), and only when that lies at or below order.  A proved expr
    is kept in the memo as zero through q^order."""
    found = valence_bound(expr)
    if found is None:
        return Certificate("not_applicable")
    level, bound = found
    top = min((t.qpow for t in expr.terms), default=0) + bound
    if top > order:
        status = "bound_exceeds_order"
    elif eta_expression_vanishes(expr, top, keep=order):
        status = "proved"
    else:
        status = "nonzero"
    return Certificate(status, level, bound)


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, in increasing order."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    out = 1
    for p, v in factorize(n).items():
        out *= (p - 1) * p ** (v - 1)
    return out
