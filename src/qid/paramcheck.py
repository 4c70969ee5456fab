"""Exact symbolic vanishing proofs for eta-quotient expressions in
f_1, f_2, f_3, f_4, f_6, f_12 via the (p,k)-parametrization.

Each f_k is a product of fractional powers of the eight bases
(2, p, 1-p, 1+p, 1+2p, 2+p, k, q).  A term of an eta expression therefore
maps to an 8-vector of rational exponents with denominators dividing 24.
If the k- and q-exponents agree across all terms they factor out, and
after removing the componentwise minimum the remaining exponents must be
nonnegative integers, reducing the claim to a polynomial identity in p
that is expanded and checked exactly.

The expressions come from the registry: `qid param-check ID` proves
lhs - rhs of the identity record ID zero, read as
expr_to_eta(parse("(lhs) - (rhs)")), with S0, S1, H0, H1 and R0 naming the
split components zero-s0 ... zero-r0.  The independent numeric path for
the same record is engine.verify, which expands both sides as series.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedEtaIndexError
from .qproducts import EtaExpression, EtaMonomial
from .record import Record

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

    def __add__(self, other):
        return ParamVector(*(a + b for a, b in zip(self.as_tuple(), other.as_tuple())))

    def __sub__(self, other):
        return ParamVector(*(a - b for a, b in zip(self.as_tuple(), other.as_tuple())))

    def scaled(self, c):
        return ParamVector(*(c * a for a in self.as_tuple()))


_ZERO_VEC = ParamVector(*([_F(0)] * 8))

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


def param_vector_of_term(t: EtaMonomial) -> ParamVector:
    vec = ParamVector(*(_ZERO_VEC.as_tuple()[:7] + (_F(t.qpow),)))
    for k, e in t.exps:
        if k not in BASE_VECTORS:
            raise UnsupportedEtaIndexError(f"no parametrization for f_{k}")
        vec = vec + BASE_VECTORS[k].scaled(e)
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

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PPolynomial.make(
            [(self.coeffs[i] if i < len(self.coeffs) else 0)
             + (other.coeffs[i] if i < len(other.coeffs) else 0) for i in range(n)])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return PPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PPolynomial.make(out)

    def pow(self, n: int) -> "PPolynomial":
        acc = PPolynomial.make([1])
        for _ in range(n):
            acc = acc * self
        return acc

    def scaled(self, c) -> "PPolynomial":
        return PPolynomial.make([c * a for a in self.coeffs])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*p^{i}" if i else str(c)
                          for i, c in enumerate(self.coeffs) if c)


# the five non-factored bases, as polynomials in p, matching slots 1..5
_BASE_POLYS = (
    PPolynomial.make([0, 1]),      # p
    PPolynomial.make([1, -1]),     # 1-p
    PPolynomial.make([1, 1]),      # 1+p
    PPolynomial.make([1, 2]),      # 1+2p
    PPolynomial.make([2, 1]),      # 2+p
)


class ParamProofOutcome(Record):
    """status is "ProvedZero", "NotZero", "NonUniform" or "NonIntegral"."""

    __slots__ = __match_args__ = ("status", "detail", "polynomial",
                                  "numeric_report")
    _defaults = {"detail": "", "polynomial": None, "numeric_report": ()}

    @property
    def proved(self) -> bool:
        return self.status == "ProvedZero"


_SAMPLE_POINTS = (_F(1, 7), _F(1, 5), _F(1, 3), _F(1, 2), _F(2, 3))


def _numeric_report(terms, vectors, mins):
    """Advisory 200-digit evaluation at rational sample points p in (0,1),
    with the uniform k/q factors and the common minimum vector removed."""
    import mpmath

    report = []
    with mpmath.workdps(200):
        tol = mpmath.mpf(10) ** -150
        for p in _SAMPLE_POINTS:
            pv = mpmath.mpf(p.numerator) / p.denominator
            bases = (mpmath.mpf(2), pv, 1 - pv, 1 + pv, 1 + 2 * pv, 2 + pv)
            total = mpmath.mpf(0)
            for t, vec in zip(terms, vectors):
                resid = vec - mins
                val = mpmath.mpf(t.coeff.numerator) / t.coeff.denominator
                for b, e in zip(bases, resid.as_tuple()[:6]):
                    val *= mpmath.power(b, mpmath.mpf(e.numerator) / e.denominator)
                total += val
            report.append((p, mpmath.nstr(total, 20), bool(abs(total) < tol)))
    return tuple(report)


def prove_zero(e: EtaExpression) -> ParamProofOutcome:
    if not e.terms:
        raise ValueError("prove_zero requires a nonempty expression")
    vectors = [param_vector_of_term(t) for t in e.terms]

    ks = {v.ek for v in vectors}
    qs = {v.eq for v in vectors}
    if len(ks) > 1 or len(qs) > 1:
        return ParamProofOutcome(
            "NonUniform",
            f"k-exponents {sorted(ks)}, q-exponents {sorted(qs)} are not uniform")

    mins = ParamVector(*(min(v.as_tuple()[i] for v in vectors) for i in range(8)))
    residuals = [v - mins for v in vectors]
    bad = [r for r in residuals
           if any(c.denominator != 1 for c in r.as_tuple())]
    if bad:
        return ParamProofOutcome(
            "NonIntegral",
            "residual exponents are not all integers; numeric evaluation attached",
            numeric_report=_numeric_report(e.terms, vectors, mins))

    total = PPolynomial()
    for t, r in zip(e.terms, residuals):
        a = r.as_tuple()
        poly = PPolynomial.make([t.coeff * _F(2) ** int(a[0])])
        for base_poly, exp in zip(_BASE_POLYS, a[1:6]):
            poly = poly * base_poly.pow(int(exp))
        total = total + poly

    if total.is_zero():
        return ParamProofOutcome("ProvedZero", "polynomial in p collapses to 0")
    return ParamProofOutcome("NotZero", f"residual polynomial: {total}",
                             polynomial=total)

