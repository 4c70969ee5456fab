"""Exact symbolic vanishing proofs for eta-quotient expressions in
f_1, f_2, f_3, f_4, f_6, f_12 via the (p,k)-parametrization.

Each f_k is a product of fractional powers of the eight bases
(2, p, 1-p, 1+p, 1+2p, 2+p, k, q), so a term maps to an 8-vector of
exponents with denominators dividing 24.  Terms whose k- or q-exponents
differ are NonUniform.  Otherwise those factor out, and the terms fall
into classes by their other six exponents mod 1.  Less its componentwise
minimum a class has integer exponents, so it is that factor times a
polynomial in p, expanded exactly.  The expression is ProvedZero when
every class polynomial is zero, else NotZero, reported for the first class
in term order whose polynomial is not, with its factor relative to the
smallest exponents of all terms.

Each class decides on its own.  Let p be transcendental,
L = Q(zeta_24, 2^(1/24)) and K = L(p).  By Kummer theory (Lang, Algebra,
VI Sec. 8) products of powers of p, 1-p, 1+p, 1+2p and 2+p with exponents
in Z/24 that lie in distinct classes mod K* are linearly independent over
K.  These five bases are distinct primes of L[p], so products whose
exponents differ by a non-integer lie in distinct classes, and the
coefficient of each, in Q(p)(2^(1/24)), must vanish.  x^24 - 2 is
irreducible over Q(p) (Eisenstein's criterion at 2), so 1, 2^(1/24), ...,
2^(23/24) are linearly independent over Q(p): each class of the exponent
of 2 must vanish too.

The proof runs in integers: exponents are kept as 24 times their value,
so the checks are integer comparisons and `% 24`; each residual power
(a + b*p)^n is expanded by binomial coefficients, a term's powers are
multiplied with the series kernel `_convolve_int`, and a class's terms are
summed as the expression stores them, integer numerators over its one
denominator.  Fractions appear only in what is reported.

`qid param-check ID` proves lhs - rhs of the registry identity ID zero,
read as expr_to_eta(parse("(lhs) - (rhs)")); S0, S1, H0, H1 and R0 name
zero-s0 ... zero-r0.  The independent numeric path for the same record is
engine.verify, which expands lhs - rhs as a series.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add

from .errors import QidError, UnsupportedEtaIndexError
from .outcome import fraction_str
from .qproducts import MAX_WORK_ORDER, EtaExpression, EtaMonomial
from .record import Record
from .series import _convolve_int

_F = Fraction

#: the exponent slots
SLOTS = ("2", "p", "1-p", "1+p", "1+2p", "2+p", "k", "q")

#: f_k -> 24 times its exponent vector over SLOTS, in integers
_BASE24 = {1: (-4, 1, 12, 4, 3, 3, 12, -1), 2: (-8, 2, 6, 2, 6, 6, 12, -2),
           3: (-4, 3, 4, 12, 1, 1, 12, -3), 4: (-16, 4, 3, 1, 3, 12, 12, -4),
           6: (-8, 6, 2, 6, 2, 2, 12, -6), 12: (-16, 12, 1, 3, 1, 4, 12, -12)}


def _vector24(t: EtaMonomial) -> list[int]:
    """24 times the exponent vector of the term t.  Its q-slot,
    24*qpow - sum_k k*e_k, is the term's q-offset: it is derived here
    rather than stored with the term."""
    vec = [0] * 7 + [24 * t.qpow]
    for k, e in t.exps:
        base = _BASE24.get(k)
        if base is None:
            raise UnsupportedEtaIndexError(f"no parametrization for f_{k}")
        vec = [a + e * b for a, b in zip(vec, base)]
    return vec


class PPolynomial(Record):
    """Exact polynomial in p with rational coefficients, trailing zeros trimmed."""

    __slots__ = __match_args__ = ("coeffs",)
    _defaults = {"coeffs": ()}

    @classmethod
    def make(cls, coeffs) -> "PPolynomial":
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{fraction_str(c)}*p^{i}" if i else fraction_str(c)
                          for i, c in enumerate(self.coeffs) if c)


def _binomial_power(a: int, b: int, n: int) -> list[int]:
    """The integer coefficients of (a + b*p)^n in ascending powers of p."""
    return [comb(n, i) * a ** (n - i) * b ** i for i in range(n + 1)]


#: (a, b) of the bases a + b*p in slots 2..5: 1-p, 1+p, 1+2p, 2+p
_BINOMIALS = ((1, -1), (1, 1), (1, 2), (2, 1))


#: Largest sum of the residual powers r0 + ... + r5 of one term that
#: prove_zero expands.  (a + b*p)^r has r + 1 coefficients of up to
#: r*log2(3) bits, so the work and the NotZero polynomial printed grow
#: about as r^2; MAX_WORK_ORDER // 8 (1000) keeps a proof to a fraction of
#: a second, far above the registry's largest sum, 14.
MAX_POWER = MAX_WORK_ORDER // 8


class ParamProofOutcome(Record):
    """status is "ProvedZero", "NotZero" or "NonUniform"."""

    __slots__ = __match_args__ = ("status", "detail", "polynomial")
    _defaults = {"detail": "", "polynomial": None}

    @property
    def proved(self) -> bool:
        return self.status == "ProvedZero"


def prove_zero(e: EtaExpression) -> ParamProofOutcome:
    vectors = [_vector24(t) for t in e.terms]

    ks, qs = ({v[i] for v in vectors} for i in (6, 7))
    if len(ks) > 1 or len(qs) > 1:
        ks, qs = (", ".join(fraction_str(_F(x, 24)) for x in sorted(xs))
                  for xs in (ks, qs))
        return ParamProofOutcome(
            "NonUniform", f"k-exponents [{ks}], q-exponents [{qs}] are not uniform")

    # the classes of the six p-slot exponents mod 1, in term order
    classes: dict[tuple, list] = {}
    for t, v in zip(e.terms, vectors):
        classes.setdefault(tuple([c % 24 for c in v[:6]]), []).append((t, v))
    lows = [min(col) for col in zip(*vectors)]
    for members in classes.values():
        mins = [min(col) for col in zip(*(v for _, v in members))]
        residuals = [[a - m for a, m in zip(v, mins)] for _, v in members]
        # sum_i n_i 2^r0 p^r1 (1-p)^r2 (1+p)^r3 (1+2p)^r4 (2+p)^r5, over
        # the expression's one denominator
        power = max(sum(r[:6]) for r in residuals) // 24
        if power > MAX_POWER:
            raise QidError(f"a term's residual powers of 2, p, 1-p, 1+p, 1+2p "
                           f"and 2+p sum to {power}, above the limit {MAX_POWER}")
        total: list[int] = []
        for (t, _), r in zip(members, residuals):
            e2, ep, *rest = (c // 24 for c in r[:6])
            poly = [t.num << e2]
            for (a, b), n in zip(_BINOMIALS, rest):
                if n:
                    poly = _convolve_int(poly, _binomial_power(a, b, n),
                                         len(poly) + n)
            poly[:0] = [0] * ep
            if len(poly) > len(total):
                total += [0] * (len(poly) - len(total))
            total[:len(poly)] = map(add, total, poly)

        if any(total):
            poly = PPolynomial.make([_F(c, e.den) for c in total])
            factor = "*".join(f"({s})^({fraction_str(_F(m - lo, 24))})"
                              for s, m, lo in zip(SLOTS, mins, lows) if m != lo)
            return ParamProofOutcome(
                "NotZero", f"residual polynomial: {poly}"
                + (f", times {factor}" if factor else ""), polynomial=poly)
    return ParamProofOutcome("ProvedZero", "polynomial in p collapses to 0")
