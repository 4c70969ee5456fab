"""Verification outcome record and series comparison."""

from __future__ import annotations

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

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _numerators(s: TruncatedLaurentSeries, lo: int, hi: int) -> list[int]:
    """Numerators over s.den of the coefficients of q^lo .. q^hi, for
    lo <= s.min_exp and hi <= s.order."""
    lead = max(0, min(hi + 1, s.min_exp) - lo)
    return [0] * lead + list(s.coeffs[: max(0, hi - s.min_exp + 1)])


def compare_series(lhs: TruncatedLaurentSeries, rhs: TruncatedLaurentSeries,
                   message: str = "") -> VerificationOutcome:
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
                                   message or f"first mismatch at q^{e}")
    return VerificationOutcome("pass", compared, None, message)
