"""m-dissection: extraction of exponent residue classes and reconstruction.

Residues are reduced with floor division, so Laurent series with principal
parts dissect correctly.
"""

from __future__ import annotations

from .series import TruncatedLaurentSeries


def dissect_extract(s: TruncatedLaurentSeries, m: int, r: int) -> TruncatedLaurentSeries:
    """Sum over e == r (mod m) of coeff(s, e) * q^((e-r)/m)."""
    if m < 1:
        raise ValueError("modulus m must be positive")
    if not 0 <= r < m:
        raise ValueError(f"residue {r} out of range [0, {m})")
    order = (s.order - r) // m
    # smallest exponent >= min_exp congruent to r mod m
    e0 = s.min_exp + (r - s.min_exp) % m
    if e0 > s.order:
        return TruncatedLaurentSeries(order + 1, order, ())
    lo = (e0 - r) // m
    return TruncatedLaurentSeries(lo, order, s.coeffs[e0 - s.min_exp::m], s.den)


def dissect_reconstruct(parts, m: int) -> TruncatedLaurentSeries:
    """Sum over r of q^r * parts[r](q^m); inverse of full extraction."""
    if len(parts) != m:
        raise ValueError(f"expected {m} parts, got {len(parts)}")
    total = None
    for r, p in enumerate(parts):
        piece = p.substitute_power(m).shift(r)
        total = piece if total is None else total + piece
    return total
