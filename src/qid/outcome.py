"""Verification outcome record and series comparison."""

from __future__ import annotations

import sys
from fractions import Fraction

from .record import Record
from .series import TruncatedLaurentSeries


class VerificationOutcome(Record):
    """status is "pass", "fail" or "error"; first_mismatch is
    (exponent, lhs coefficient, rhs coefficient) exactly when it is "fail"."""

    __slots__ = __match_args__ = ("status", "compared_order",
                                  "first_mismatch", "message")
    _defaults = {"first_mismatch": None, "message": ""}

    def _check(self):
        if (self.status == "fail") != (self.first_mismatch is not None):
            raise ValueError("first_mismatch must be present exactly when status is 'fail'")


def _numerators(s: TruncatedLaurentSeries, lo: int, hi: int) -> list[int]:
    """Numerators over s.den of the coefficients of q^lo .. q^hi, for
    lo <= s.min_exp and hi <= s.order."""
    lead = max(0, min(hi + 1, s.min_exp) - lo)
    return [0] * lead + list(s.coeffs[: max(0, hi - s.min_exp + 1)])


def compare_series(lhs: TruncatedLaurentSeries,
                   rhs: TruncatedLaurentSeries) -> VerificationOutcome:
    """Compare on the overlap of determined windows, reporting the compared order."""
    compared = min(lhs.order, rhs.order)
    lo = min(lhs.min_exp, rhs.min_exp)
    left = _numerators(lhs, lo, compared)
    right = _numerators(rhs, lo, compared)
    if lhs.den != rhs.den:
        left = [c * rhs.den for c in left]
        right = [c * lhs.den for c in right]
    if left != right:
        e = lo + next(i for i, (cl, cr) in enumerate(zip(left, right)) if cl != cr)
        return VerificationOutcome("fail", compared,
                                   (e, lhs.coefficient(e), rhs.coefficient(e)),
                                   f"first mismatch at q^{e}")
    return VerificationOutcome("pass", compared)


#: the most decimal digits int_str writes out and the DSL reads; CPython's
#: default limit on int/str conversion, which sys.set_int_max_str_digits
#: can lower
MAX_DIGITS = 4300


def max_digits() -> int:
    """MAX_DIGITS, or the interpreter's own limit on int/str conversion
    where that is lower (sys.get_int_max_str_digits, absent before CPython
    3.10.7, where 0 means no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or MAX_DIGITS
    return min(limit, MAX_DIGITS)


def int_str(n: int) -> str:
    """str(n), or, for an integer that may have more decimal digits than
    max_digits(), a placeholder keeping its sign and size, such as
    "-<integer of 20001 bits>".  The size comes from bit_length, so no
    long conversion is attempted."""
    bits = n.bit_length()
    # a b-bit integer has at most floor(b * log10(2)) + 1 digits
    if bits * 30103 // 100000 + 1 <= max_digits():
        return str(n)
    return f"{'-' if n < 0 else ''}<integer of {bits} bits>"


def fraction_str(f: Fraction) -> str:
    """str(f), with numerator and denominator written by int_str."""
    num = int_str(f.numerator)
    return num if f.denominator == 1 else f"{num}/{int_str(f.denominator)}"
