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

import sys
from array import array
from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import NotInvertibleError, QidError, TruncationError
from .record import Record

# Up to this many nonzeros schoolbook convolution beats big-integer packing:
# with the packing in C the two cross near 8 nonzeros at 50-200 terms.
_SMALL_CONV = 8

#: Largest order any step of an evaluation works at: eight times the
#: largest order the CLI accepts (engine.MAX_ORDER, 1000).  EXTRACT(e, m, r)
#: evaluates e at m*n + r, eval_expr pads the order of Laurent and
#: Appell-Lerch terms, and theta_j refuses the span its product form
#: would cover; the registry's largest EXTRACT modulus is 6, which
#: stays within this at order 1000 with room for padding.
MAX_WORK_ORDER = 8000

#: Most bits a power may hold: 64 for each coefficient at MAX_WORK_ORDER.
#: A literal c^k counts |k| times the bits of c's numerator or
#: denominator, a series power each product it builds (see pow).
MAX_LITERAL_BITS = 64 * MAX_WORK_ORDER

#: Largest absolute value of a power's exponent: a DSL `^k` (see dsl.Pow)
#: and each f_k power the normal form builds.  Squaring then takes at most
#: 63 products, and f_1^e at most 63 levels of halving.
MAX_POW_EXPONENT = 2 ** 63 - 1

#: Most bits a Newton iterate of _invert_int may hold, bounded before it is
#: built: 2048 for each coefficient at MAX_WORK_ORDER.  An inverse's
#: coefficients can grow far faster than a power's: 1/f_1^24 at
#: MAX_WORK_ORDER holds about 8.0 million bits, bounded by 13.1 million.
MAX_INVERSE_BITS = 32 * MAX_LITERAL_BITS


def check_work_order(n: int) -> None:
    if n > MAX_WORK_ORDER:
        raise QidError(f"evaluation would work at order {n}, "
                       f"above the limit {MAX_WORK_ORDER}")


def check_bits(what: str, bits: int, limit: int) -> None:
    if bits > limit:
        raise QidError(f"{what} would hold about {bits} bits, "
                       f"above the limit {limit}")


def checked_product(a: "TruncatedLaurentSeries", b: "TruncatedLaurentSeries",
                    what: str, limit: int) -> "TruncatedLaurentSeries":
    """a*b, refused first when it may hold more than limit bits: its m-th
    numerator has at most the bits of the largest of a's first m+1 plus
    those of b's, but for those of its count of terms."""
    n = min(len(a.coeffs), len(b.coeffs))  # the length of a*b
    ca, cb = a.coeffs[:n], b.coeffs[:n]
    bits = a.den.bit_length() + b.den.bit_length()
    # n times the largest bits bound that sum and cost far less
    if n and n * (_max_bits(ca) + _max_bits(cb)) + bits > limit:
        check_bits(what, bits + sum(accumulate(map(int.bit_length, ca), max))
                   + sum(accumulate(map(int.bit_length, cb), max)), limit)
    return a * b


def _max_bits(a) -> int:
    return max(max(a), -min(a)).bit_length()


def _offsets(width: int, n: int) -> int:
    """half = 2^(8*width-1) in each of n digits of width bytes."""
    return int.from_bytes((b"\x00" * (width - 1) + b"\x80") * n, "little")


# byte maps for bytes.translate: flip the top bit; the sign-extension byte
# of a two's complement top byte; the same for an offset digit's top byte,
# whose top bit is set when the value is nonnegative
_FLIP = bytes(b ^ 0x80 for b in range(256))
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))
_OFFSET_SIGN = bytes(0 if b & 0x80 else 0xFF for b in range(256))


def _int64(x) -> array:
    """array("q", x), its items stored little-endian whatever the host."""
    a = array("q", x)
    if sys.byteorder == "big":
        a.byteswap()
    return a


def _pack(coeffs, width: int, half: int) -> int:
    """sum coeffs[i] * 256^(width*i), for |coeffs[i]| < half = 2^(8*width-1).

    Each coefficient is written as the offset digit c + half, which lies in
    [0, 2*half); one `int.from_bytes` reads them all and one subtraction of
    the offsets restores the signed value.  When every coefficient fits a
    signed 64-bit int the digits are built by the byte: the low width
    bytes of each two's complement int64 go in by strided slices, and
    bytes.translate writes the sign-extension bytes above 8 and flips each
    digit's top bit (adding half).  Only a coefficient beyond 64 bits sends
    the call to one `to_bytes` per coefficient.
    """
    n = len(coeffs)
    try:
        raw = _int64(coeffs).tobytes()
    except OverflowError:
        digits = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    else:
        digits = bytearray(width * n)
        for j in range(min(width - 1, 8)):
            digits[j::width] = raw[j::8]
        top = raw[min(width, 8) - 1::8]
        if width > 8:
            ext = top.translate(_SIGN)
            for j in range(8, width - 1):
                digits[j::width] = ext
            top = ext
        digits[width - 1::width] = top.translate(_FLIP)
    return int.from_bytes(digits, "little") - _offsets(width, n)


def _unpack(x: int, width: int, half: int, n: int) -> list[int]:
    """The n lowest signed digits of x in base 256^width, each of absolute
    value < half.  Adding half to every digit makes all of them
    nonnegative, so no carry crosses a digit boundary and the bytes of the
    sum can be cut apart directly.  Digits of at most 8 bytes are widened
    to int64s by the byte (the top bit flipped back, sign-extension bytes
    by bytes.translate) and read by one array; wider digits are read one
    `from_bytes` per coefficient."""
    nbytes = width * n
    low = (x + _offsets(width, n)) & ((1 << (8 * nbytes)) - 1)
    raw = low.to_bytes(nbytes, "little")
    if width > 8:
        from_bytes = int.from_bytes
        return [from_bytes(raw[i:i + width], "little") - half
                for i in range(0, nbytes, width)]
    words = bytearray(8 * n)
    for j in range(width - 1):
        words[j::8] = raw[j::width]
    top = raw[width - 1::width]
    words[width - 1::8] = top.translate(_FLIP)
    if width < 8:
        ext = top.translate(_OFFSET_SIGN)
        for j in range(width, 8):
            words[j::8] = ext
    return _int64(words).tolist()


def _convolve_int(a, b, n_out: int) -> list[int]:
    """First n_out coefficients of the product of two integer polynomials.

    Uses Kronecker substitution (see Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", 2009): both
    lists are packed into one big integer each with byte-aligned digits
    wide enough for every product coefficient, so the cost is one big-int
    multiply plus packing and unpacking, which run as a few byte-slice
    copies in C when every coefficient and digit fits 64 bits (see _pack
    and _unpack).  Up to _SMALL_CONV nonzeros in either operand a row-wise
    schoolbook product is used instead.
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

    With X known through h terms, u*X = D + q^h*H through k = 2h terms,
    so X' = D*X - q^h*(X*H): the second product takes operands of h terms
    and only its k - h lowest terms are kept.

    D ends as |u[0]|^(2^steps) <= |u[0]|^(2*n_out), which the caller's
    series normalises.  A step is refused before X*H is computed when X'
    may hold more than MAX_INVERSE_BITS: h numerators of at most the bits
    of D and the largest of X, k - h of those of X's and H's largest."""
    x, d = ([1], u[0]) if u[0] > 0 else ([-1], -u[0])
    h = 1
    while h < n_out:
        k = min(2 * h, n_out)
        high = _convolve_int(u, x, k)[h:]
        check_bits("a series inverse", h * d.bit_length() + k * _max_bits(x)
                   + (k - h) * _max_bits(high), MAX_INVERSE_BITS)
        x = [d * c for c in x] + [-c for c in _convolve_int(x, high, k - h)]
        d *= d
        h = k
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
        num = c.numerator  # an int is its own numerator, over 1
        return TruncatedLaurentSeries(self.min_exp, self.order,
                                      tuple(num * x for x in self.coeffs),
                                      self.den * c.denominator)

    def shift(self, r: int) -> "TruncatedLaurentSeries":
        """Exact multiplication by q^r."""
        return TruncatedLaurentSeries(self.min_exp + r, self.order + r, self.coeffs, self.den)

    def invert(self) -> "TruncatedLaurentSeries":
        """Inverse b with self*b = 1 + O(q^(M+1)), M = order - 2e, where
        c*q^e is the lowest nonzero term of self.

        When the unit part u = self / (c*q^e) is a series in q^g, g > 1 (g
        the gcd of the exponents of its nonzero terms), so is its inverse:
        Newton runs on u with q^g read as q, g times shorter, and the
        result is spread back to every g-th exponent."""
        e = self.lowest_nonzero()
        if e is None:
            raise NotInvertibleError("not invertible at this truncation: all-zero window")
        unit = self.coeffs[e - self.min_exp :]  # power-series part, constant term nonzero
        n = len(unit)
        g = gcd(*compress(range(n), unit)) or n  # n: the constant alone
        inv, d = _invert_int(unit[::g], -(-n // g))
        if g > 1:
            spread = [0] * n
            spread[::g] = inv
            inv = spread
        if self.den != 1:
            inv = [self.den * c for c in inv]
        return TruncatedLaurentSeries(-e, self.order - 2 * e, tuple(inv), d)

    def substitute_power(self, m: int, order: int | None = None) -> "TruncatedLaurentSeries":
        """q -> q^m (m >= 1): exponent e becomes m*e.  The result is known
        through q^(m*self.order + m - 1); a caller that keeps less passes
        order, and only the window through q^order is built."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        lo = m * self.min_exp
        top = m * self.order + (m - 1)
        if order is not None and order < top:
            top = order
        n = top - lo + 1
        if n <= 0:
            return TruncatedLaurentSeries(top + 1, top, ())
        out = [0] * n
        out[::m] = self.coeffs[:(n + m - 1) // m]
        return TruncatedLaurentSeries(lo, top, tuple(out), self.den)

    def pow(self, n: int) -> "TruncatedLaurentSeries":
        """self^n by squaring (self inverted when n < 0), refused before
        any product that may hold more than MAX_LITERAL_BITS."""
        if n < 0:
            return self.invert().pow(-n)
        if n == 0:
            return TruncatedLaurentSeries.one(self.order)
        what = f"a product in the series power s^{n}"
        acc = None
        base = self
        k = n
        while k:
            if k & 1:
                acc = base if acc is None else checked_product(
                    acc, base, what, MAX_LITERAL_BITS)
            k >>= 1
            if k:
                base = checked_product(base, base, what, MAX_LITERAL_BITS)
        return acc

    def truncate(self, new_order: int) -> "TruncatedLaurentSeries":
        """Restrict to a (weakly) smaller order."""
        if new_order >= self.order:
            return self
        n = new_order - self.min_exp + 1
        if n <= 0:
            return TruncatedLaurentSeries(new_order + 1, new_order, ())
        return TruncatedLaurentSeries(self.min_exp, new_order, self.coeffs[:n], self.den)
