"""Residue-class extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qid import TruncatedLaurentSeries, dissect_extract

S = TruncatedLaurentSeries


def test_extract_examples():
    s = S.from_terms({0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, 4)
    assert dissect_extract(s, 2, 1).nonzero_terms() == {0: 2, 1: 4}
    assert dissect_extract(s, 1, 0) == s


def test_extract_negative_exponents():
    # floor-division residue reduction: q^{-1} lands in residue class 2 mod 3
    s = S.from_terms({-1: 7, 2: 3}, 5)
    part = dissect_extract(s, 3, 2)
    assert part.nonzero_terms() == {-1: 7, 0: 3}


def test_extract_residue_range():
    s = S.one(5)
    with pytest.raises(ValueError):
        dissect_extract(s, 3, 3)
    with pytest.raises(ValueError):
        dissect_extract(s, 3, -1)


@st.composite
def series_st(draw):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=24))
    min_exp = draw(st.integers(-8, 4))
    return S.from_terms({min_exp + i: c for i, c in enumerate(coeffs)},
                        min_exp + len(coeffs) - 1)


@given(series_st(), st.sampled_from([2, 3, 4, 6]))
@settings(max_examples=50, deadline=None)
def test_round_trip(s, m):
    # sum_r q^r parts[r](q^m)
    back = dissect_extract(s, m, 0).substitute_power(m)
    for r in range(1, m):
        back = back + dissect_extract(s, m, r).substitute_power(m).shift(r)
    assert back.truncate(min(back.order, s.order)) == \
        s.truncate(min(back.order, s.order))


@given(series_st(), series_st(), st.sampled_from([2, 3, 4]),
       st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_linearity(a, b, m, r):
    if r >= m:
        return
    joint = min(a.order, b.order)
    a, b = a.truncate(joint), b.truncate(joint)
    assert dissect_extract(a + b, m, r) == \
        dissect_extract(a, m, r) + dissect_extract(b, m, r)


@given(series_st(), st.sampled_from([2, 3, 5]), st.integers(0, 4))
@settings(max_examples=50, deadline=None)
def test_extract_inverts_substitution(s, m, r):
    if r >= m:
        return
    assert dissect_extract(s.substitute_power(m).shift(r), m, r) == s
