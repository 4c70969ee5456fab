"""Exact truncated Laurent series with integer numerators over one common
denominator.

A series is stored densely on an integer exponent window [min_exp, order]
and is known modulo q^(order+1).  The coefficients are `coeffs[i] / den`,
with `coeffs` a tuple of ints and `den` a positive int.  The form is
normalised: gcd(den, *coeffs) == 1 and the zero series has den == 1, so two
series are equal exactly when their orders, denominators and nonzero
numerators agree.  Nearly every series qid builds has integer
coefficients, so den == 1 is the fast path; only den != 1 pays for a gcd
pass.  `Fraction` appears only at the boundary: `from_terms`, `scale`,
`coefficient`, `nonzero_terms` and `repr`.

Truncation order is data: every operation computes the tightest order that
is sound for its inputs, so precision loss is visible rather than silent.
All coefficient arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from .errors import NotInvertibleError, TruncationError
from .record import Record

# Below this many nonzeros schoolbook convolution beats big-integer packing.
_SMALL_CONV = 16


def _offsets(width: int, n: int) -> int:
    """half = 2^(8*width-1) in each of n digits of width bytes."""
    return int.from_bytes((b"\x00" * (width - 1) + b"\x80") * n, "little")


def _pack(coeffs, width: int, half: int) -> int:
    """sum coeffs[i] * 256^(width*i), for |coeffs[i]| < half = 2^(8*width-1).

    Each coefficient is written as the offset digit c + half, which lies in
    [0, 2*half); one `int.from_bytes` reads them all and one subtraction of
    the offsets restores the signed value.
    """
    digits = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(digits, "little") - _offsets(width, len(coeffs))


def _unpack(x: int, width: int, half: int, n: int) -> list[int]:
    """The n lowest signed digits of x in base 256^width, each of absolute
    value < half.  Adding half to every digit makes all of them
    nonnegative, so no carry crosses a digit boundary and the bytes of the
    sum can be cut apart directly."""
    nbytes = width * n
    low = (x + _offsets(width, n)) & ((1 << (8 * nbytes)) - 1)
    raw = low.to_bytes(nbytes, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + width], "little") - half
            for i in range(0, nbytes, width)]


def _convolve_int(a, b, n_out: int) -> list[int]:
    """First n_out coefficients of the product of two integer polynomials.

    Uses Kronecker substitution (see Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", 2009): both
    lists are packed into one big integer each with byte-aligned digits
    wide enough for every product coefficient, so the cost is one big-int
    multiply plus linear packing.  Below _SMALL_CONV nonzeros in either
    operand a row-wise schoolbook product is used instead.
    """
    out = [0] * n_out
    if n_out <= 0:
        return out
    square = a is b  # x*x is cheaper than x*y in CPython
    a = a[:n_out]
    b = b[:n_out]
    nnz_a = len(a) - a.count(0)
    nnz_b = len(b) - b.count(0)
    if nnz_a == 0 or nnz_b == 0:
        return out
    if min(nnz_a, nnz_b) <= _SMALL_CONV:
        if nnz_a > nnz_b:
            a, b = b, a
        for i, ai in enumerate(a):
            if ai:
                k = min(len(b), n_out - i)
                out[i:i + k] = map(add, out[i:i + k], map(mul, b[:k], repeat(ai)))
        return out
    max_a = max(max(a), -min(a))
    max_b = max(max(b), -min(b))
    bound = min(len(a), len(b)) * max_a * max_b
    # |every coefficient| <= bound < half = 2^(8*width - 1)
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    x = _pack(a, width, half)
    prod = x * x if square else x * _pack(b, width, half)
    return _unpack(prod, width, half, n_out)


def _invert_int(u, n_out: int) -> tuple[list[int], int]:
    """Inverse of the integer power series u (u[0] != 0) through n_out
    coefficients, as (numerators, denominator), by Newton iteration
    x <- x * (2 - u*x) on x = X/D: X' = X * (2D - u*X), D' = D^2.

    D ends as |u[0]|^(2^steps) <= |u[0]|^(2*n_out), which the caller's
    series normalises."""
    x, d = ([1], u[0]) if u[0] > 0 else ([-1], -u[0])
    k = 1
    while k < n_out:
        k = min(2 * k, n_out)
        corr = _convolve_int(u, x, k)
        corr = [-t for t in corr]
        corr[0] += 2 * d
        x = _convolve_int(x, corr, k)
        d *= d
    return x, d


class TruncatedLaurentSeries(Record):
    """Dense exact Laurent series known modulo q^(order+1).

    coeffs[i] / den is the coefficient of q^(min_exp + i), with coeffs a
    tuple of ints.  An empty window (order == min_exp - 1) means "known to
    be O(q^(order+1)) only".  A den other than 1 is normalised on
    construction (den > 0, gcd 1).  Series are immutable; they are not
    hashable, since defining __eq__ here drops Record.__hash__.
    """

    __slots__ = __match_args__ = ("min_exp", "order", "coeffs", "den")

    def __init__(self, min_exp: int, order: int, coeffs: tuple[int, ...], den: int = 1):
        if len(coeffs) != order - min_exp + 1:
            raise ValueError("coefficient window does not match [min_exp, order]")
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("series denominator is zero")
            g = gcd(den, *coeffs)
            if den < 0:
                g = -g
            coeffs = tuple(c // g for c in coeffs)
            den //= g
        set_min_exp, set_order, set_coeffs, set_den = self._setters
        set_min_exp(self, min_exp)
        set_order(self, order)
        set_coeffs(self, coeffs)
        set_den(self, den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: dict[int, Fraction | int], order: int) -> "TruncatedLaurentSeries":
        terms = {e: Fraction(c) for e, c in terms.items() if e <= order and c != 0}
        if not terms:
            return cls(0, order, (0,) * (order + 1)) if order >= 0 \
                else cls(order + 1, order, ())
        den = lcm(*(c.denominator for c in terms.values()))
        lo = min(min(terms), 0)
        nums = [0] * (order - lo + 1)
        for e, c in terms.items():
            nums[e - lo] = c.numerator * (den // c.denominator)
        return cls(lo, order, tuple(nums), den)

    @classmethod
    def zero(cls, order: int) -> "TruncatedLaurentSeries":
        return cls.from_terms({}, order)

    @classmethod
    def one(cls, order: int) -> "TruncatedLaurentSeries":
        return cls.from_terms({0: 1}, order)

    @classmethod
    def monomial(cls, exp: int, order: int, coeff: Fraction | int = 1) -> "TruncatedLaurentSeries":
        return cls.from_terms({exp: coeff}, order)

    # -- inspection ----------------------------------------------------------

    def coefficient(self, n: int) -> Fraction:
        if n > self.order:
            raise TruncationError(f"coefficient of q^{n} is beyond truncation order {self.order}")
        if n < self.min_exp:
            return Fraction(0)
        return Fraction(self.coeffs[n - self.min_exp], self.den)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lowest_nonzero(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c:
                return self.min_exp + i
        return None

    def _nonzero_numerators(self) -> dict[int, int]:
        return {self.min_exp + i: c for i, c in enumerate(self.coeffs) if c}

    def nonzero_terms(self) -> dict[int, Fraction]:
        return {e: Fraction(c, self.den) for e, c in self._nonzero_numerators().items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self._nonzero_numerators() == other._nonzero_numerators())

    def __repr__(self):
        terms = self.nonzero_terms()
        if not terms:
            body = "0"
        else:
            parts = []
            for e in sorted(terms):
                c = terms[e]
                mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
                parts.append(f"{c}*{mono}" if e != 0 else str(c))
            body = " + ".join(parts)
        return f"<{body} + O(q^{self.order + 1})>"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        order = min(self.order, other.order)
        lo = min(self.min_exp, other.min_exp)
        n = order - lo + 1
        if n <= 0:
            return TruncatedLaurentSeries(order + 1, order, ())
        den = lcm(self.den, other.den)
        out = [0] * n
        for s in (self, other):
            off = s.min_exp - lo
            k = min(len(s.coeffs), n - off)
            if k <= 0:
                continue
            src = s.coeffs[:k]
            if s.den != den:
                src = [c * (den // s.den) for c in src]
            out[off:off + k] = map(add, out[off:off + k], src)
        return TruncatedLaurentSeries(lo, order, tuple(out), den)

    def __neg__(self) -> "TruncatedLaurentSeries":
        return TruncatedLaurentSeries(self.min_exp, self.order,
                                      tuple(-c for c in self.coeffs), self.den)

    def __sub__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        lo = self.min_exp + other.min_exp
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        n = order - lo + 1
        if n <= 0:
            return TruncatedLaurentSeries(order + 1, order, ())
        out = _convolve_int(self.coeffs, other.coeffs, n)
        return TruncatedLaurentSeries(lo, order, tuple(out), self.den * other.den)

    def scale(self, c: Fraction | int) -> "TruncatedLaurentSeries":
        c = Fraction(c)
        num = c.numerator
        return TruncatedLaurentSeries(self.min_exp, self.order,
                                      tuple(num * x for x in self.coeffs),
                                      self.den * c.denominator)

    def shift(self, r: int) -> "TruncatedLaurentSeries":
        """Exact multiplication by q^r."""
        return TruncatedLaurentSeries(self.min_exp + r, self.order + r, self.coeffs, self.den)

    def invert(self) -> "TruncatedLaurentSeries":
        """Inverse b with self*b = 1 + O(q^(M+1)), M = order - 2e, where
        c*q^e is the lowest nonzero term of self."""
        e = self.lowest_nonzero()
        if e is None:
            raise NotInvertibleError("not invertible at this truncation: all-zero window")
        unit = self.coeffs[e - self.min_exp :]  # power-series part, constant term nonzero
        inv, d = _invert_int(unit, len(unit))
        if self.den != 1:
            inv = [self.den * c for c in inv]
        return TruncatedLaurentSeries(-e, self.order - 2 * e, tuple(inv), d)

    def substitute_power(self, m: int) -> "TruncatedLaurentSeries":
        """q -> q^m (m >= 1): exponent e becomes m*e."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        lo = m * self.min_exp
        order = m * self.order + (m - 1)
        out = [0] * (order - lo + 1)
        out[::m] = self.coeffs
        return TruncatedLaurentSeries(lo, order, tuple(out), self.den)

    def pow(self, n: int) -> "TruncatedLaurentSeries":
        if n < 0:
            return self.invert().pow(-n)
        # exponentiation by squaring; order bookkeeping is handled by __mul__
        acc = None
        base = self
        k = n
        if k == 0:
            return TruncatedLaurentSeries.one(self.order)
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def truncate(self, new_order: int) -> "TruncatedLaurentSeries":
        """Restrict to a (weakly) smaller order."""
        if new_order >= self.order:
            return self
        n = new_order - self.min_exp + 1
        if n <= 0:
            return TruncatedLaurentSeries(new_order + 1, new_order, ())
        return TruncatedLaurentSeries(self.min_exp, new_order, self.coeffs[:n], self.den)
