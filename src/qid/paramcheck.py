"""Exact symbolic vanishing proofs for eta-quotient expressions in
f_1, f_2, f_3, f_4, f_6, f_12 via the (p,k)-parametrization.

Each f_k is a product of fractional powers of the eight bases
(2, p, 1-p, 1+p, 1+2p, 2+p, k, q).  A term of an eta expression therefore
maps to an 8-vector of rational exponents with denominators dividing 24.
If the k- and q-exponents agree across all terms they factor out, and
after removing the componentwise minimum the remaining exponents must be
nonnegative integers, reducing the claim to a polynomial identity in p
that is expanded and checked exactly.

The proof runs in integers.  Exponents are kept as 24 times their value
(BASE_VECTORS scaled by 24), so the uniformity and integrality checks are
integer comparisons and `% 24`.  Each residual power (a + b*p)^n is
expanded by binomial coefficients, the powers of one term are multiplied
with the series kernel `_convolve_int`, and the terms are summed over the
common denominator of their coefficients.  Fractions appear only in what
is reported: param_vector_of_term, the messages, the NotZero polynomial
and the NonIntegral numeric evaluation.

The expressions come from the registry: `qid param-check ID` proves
lhs - rhs of the identity record ID zero, read as
expr_to_eta(parse("(lhs) - (rhs)")), with S0, S1, H0, H1 and R0 naming the
split components zero-s0 ... zero-r0.  The independent numeric path for
the same record is engine.verify, which expands both sides as series.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add

from .errors import QidError, UnsupportedEtaIndexError
from .outcome import fraction_str
from .qproducts import MAX_WORK_ORDER, EtaExpression, EtaMonomial
from .record import Record
from .series import _convolve_int

_F = Fraction

# exponent slots: (2, p, 1-p, 1+p, 1+2p, 2+p, k, q)
SLOTS = ("2", "p", "1-p", "1+p", "1+2p", "2+p", "k", "q")


class ParamVector(Record):
    """Fraction exponents over the slots (2, p, 1-p, 1+p, 1+2p, 2+p, k, q)."""

    __slots__ = __match_args__ = ("e2", "ep", "e1m", "e1p", "e12p", "e2p",
                                  "ek", "eq")

    def as_tuple(self):
        return (self.e2, self.ep, self.e1m, self.e1p, self.e12p, self.e2p,
                self.ek, self.eq)


#: f_k -> exponent vector over (2, p, 1-p, 1+p, 1+2p, 2+p, k, q)
BASE_VECTORS: dict[int, ParamVector] = {
    1: ParamVector(_F(-1, 6), _F(1, 24), _F(1, 2), _F(1, 6), _F(1, 8), _F(1, 8),
                   _F(1, 2), _F(-1, 24)),
    2: ParamVector(_F(-1, 3), _F(1, 12), _F(1, 4), _F(1, 12), _F(1, 4), _F(1, 4),
                   _F(1, 2), _F(-1, 12)),
    3: ParamVector(_F(-1, 6), _F(1, 8), _F(1, 6), _F(1, 2), _F(1, 24), _F(1, 24),
                   _F(1, 2), _F(-1, 8)),
    4: ParamVector(_F(-2, 3), _F(1, 6), _F(1, 8), _F(1, 24), _F(1, 8), _F(1, 2),
                   _F(1, 2), _F(-1, 6)),
    6: ParamVector(_F(-1, 3), _F(1, 4), _F(1, 12), _F(1, 4), _F(1, 12), _F(1, 12),
                   _F(1, 2), _F(-1, 4)),
    12: ParamVector(_F(-2, 3), _F(1, 2), _F(1, 24), _F(1, 8), _F(1, 24), _F(1, 6),
                    _F(1, 2), _F(-1, 2)),
}

#: BASE_VECTORS times 24: every exponent as an integer count of 1/24
_BASE24 = {k: tuple(c.numerator * 24 // c.denominator for c in v.as_tuple())
           for k, v in BASE_VECTORS.items()}


def _vector24(t: EtaMonomial) -> list[int]:
    """24 times the exponent vector of the term t."""
    vec = [0] * 7 + [24 * t.qpow]
    for k, e in t.exps:
        base = _BASE24.get(k)
        if base is None:
            raise UnsupportedEtaIndexError(f"no parametrization for f_{k}")
        vec = [a + e * b for a, b in zip(vec, base)]
    return vec


def param_vector_of_term(t: EtaMonomial) -> ParamVector:
    return ParamVector(*(_F(c, 24) for c in _vector24(t)))


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
    """status is "ProvedZero", "NotZero", "NonUniform" or "NonIntegral"."""

    __slots__ = __match_args__ = ("status", "detail", "polynomial",
                                  "numeric_report")
    _defaults = {"detail": "", "polynomial": None, "numeric_report": ()}

    @property
    def proved(self) -> bool:
        return self.status == "ProvedZero"


_SAMPLE_POINTS = (_F(1, 7), _F(1, 5), _F(1, 3), _F(1, 2), _F(2, 3))


def _numeric_report(terms, residuals):
    """Advisory 200-digit evaluation at rational sample points p in (0,1),
    with the uniform k/q factors and the common minimum vector removed;
    residuals holds 24 times each term's remaining exponents."""
    import mpmath

    report = []
    with mpmath.workdps(200):
        tol = mpmath.mpf(10) ** -150
        for p in _SAMPLE_POINTS:
            pv = mpmath.mpf(p.numerator) / p.denominator
            bases = (mpmath.mpf(2), pv, 1 - pv, 1 + pv, 1 + 2 * pv, 2 + pv)
            total = mpmath.mpf(0)
            for t, resid in zip(terms, residuals):
                val = mpmath.mpf(t.coeff.numerator) / t.coeff.denominator
                for b, r in zip(bases, resid[:6]):
                    e = _F(r, 24)
                    val *= mpmath.power(b, mpmath.mpf(e.numerator) / e.denominator)
                total += val
            report.append((p, mpmath.nstr(total, 20), bool(abs(total) < tol)))
    return tuple(report)


def prove_zero(e: EtaExpression) -> ParamProofOutcome:
    if not e.terms:
        raise ValueError("prove_zero requires a nonempty expression")
    vectors = [_vector24(t) for t in e.terms]

    ks = {v[6] for v in vectors}
    qs = {v[7] for v in vectors}
    if len(ks) > 1 or len(qs) > 1:
        ks, qs = (sorted(_F(x, 24) for x in xs) for xs in (ks, qs))
        return ParamProofOutcome(
            "NonUniform", f"k-exponents {ks}, q-exponents {qs} are not uniform")

    mins = [min(col) for col in zip(*vectors)]
    residuals = [[a - m for a, m in zip(v, mins)] for v in vectors]
    if any(c % 24 for r in residuals for c in r):
        return ParamProofOutcome(
            "NonIntegral",
            "residual exponents are not all integers; numeric evaluation attached",
            numeric_report=_numeric_report(e.terms, residuals))

    # sum_i c_i 2^r0 p^r1 (1-p)^r2 (1+p)^r3 (1+2p)^r4 (2+p)^r5 over the
    # common denominator of the c_i
    power = max(sum(r[:6]) for r in residuals) // 24
    if power > MAX_POWER:
        raise QidError(f"a term's residual powers of 2, p, 1-p, 1+p, 1+2p "
                       f"and 2+p sum to {power}, above the limit {MAX_POWER}")
    den = lcm(*(t.coeff.denominator for t in e.terms))
    total: list[int] = []
    for t, r in zip(e.terms, residuals):
        e2, ep, *rest = (c // 24 for c in r[:6])
        poly = [t.coeff.numerator * (den // t.coeff.denominator) << e2]
        for (a, b), n in zip(_BINOMIALS, rest):
            if n:
                poly = _convolve_int(poly, _binomial_power(a, b, n), len(poly) + n)
        poly[:0] = [0] * ep
        if len(poly) > len(total):
            total += [0] * (len(poly) - len(total))
        total[:len(poly)] = map(add, total, poly)

    if not any(total):
        return ParamProofOutcome("ProvedZero", "polynomial in p collapses to 0")
    poly = PPolynomial.make([_F(c, den) for c in total])
    return ParamProofOutcome("NotZero", f"residual polynomial: {poly}",
                             polynomial=poly)
