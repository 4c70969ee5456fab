"""Direct summation of the three second-order series and their agreement."""

import hashlib
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qid import (SELECTORS, eta_expression, eta_expression_eval, eta_power,
                 mock_theta, mock_theta_series, qproducts)
from qid.caches import clear_all
from qid.cli import main


def test_pinned_coefficients():
    b = mock_theta_series("B1", 6)
    assert [b.coefficient(n) for n in range(7)] == [1, 2, 4, 6, 9, 14, 20]
    a = mock_theta_series("A2", 5)
    assert [a.coefficient(n) for n in range(6)] == [0, 1, 2, 3, 5, 8]
    mu = mock_theta_series("MU2", 5)
    assert [mu.coefficient(n) for n in range(6)] == [1, -1, 1, 2, -1, -4]


def test_coefficient_accessor():
    assert mock_theta_series("B1", 0).coefficient(0) == 1
    assert mock_theta_series("A1", 0).coefficient(0) == 0
    assert mock_theta_series("B1", 3).coefficient(3) == 6
    with pytest.raises(ValueError):
        mock_theta_series("B1", -1)
    with pytest.raises(ValueError):
        mock_theta_series("C9", 5)


def test_multi_form_agreement_300():
    assert mock_theta_series("B1", 300) == mock_theta_series("B2", 300)
    assert mock_theta_series("A1", 300) == mock_theta_series("A2", 300)


def test_integrality_and_sign_300():
    for sel in ("A1", "B1"):
        s = mock_theta_series(sel, 300)
        for n in range(301):
            c = s.coefficient(n)
            assert c.denominator == 1 and c >= 0, (sel, n, c)
    mu = mock_theta_series("MU2", 300)
    for n in range(301):
        assert mu.coefficient(n).denominator == 1, n


def test_parity_characterization_300():
    b = mock_theta_series("B1", 300)
    pronic_doubled = {2 * k * k + 2 * k for k in range(13)}
    for n in range(301):
        odd = b.coefficient(n).numerator % 2 == 1
        assert odd == (n in pronic_doubled), n


def test_selectors_cover_all_forms():
    assert set(SELECTORS) == {"A1", "A2", "B1", "B2", "MU2"}


# SHA-256 of `qid coeffs SEL --upto 300`, pinned before the oracle was
# rewritten to carry each term from n to n+1.
_COEFFS_300_SHA256 = {
    "A1": "473d218783bee8245cc7277c92c38d7139d5f89e42568da2f702680874600e1b",
    "A2": "473d218783bee8245cc7277c92c38d7139d5f89e42568da2f702680874600e1b",
    "B1": "fce3af0da6056b53e8332c13bdf316648ce099e6b4fbd9e7b6d17f53be02f102",
    "B2": "fce3af0da6056b53e8332c13bdf316648ce099e6b4fbd9e7b6d17f53be02f102",
    "MU2": "03c9871b2004f7c8b55a55d0c91e0f9301aa80973e060bb7abcad254a315a5f9",
}


@pytest.mark.parametrize("sel", sorted(_COEFFS_300_SHA256))
def test_coeffs_300_sha256(sel, capsys):
    assert main(["coeffs", sel, "--upto", "300"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _COEFFS_300_SHA256[sel]
    s = mock_theta_series(sel, 300)
    assert (s.min_exp, s.order, len(s.coeffs), s.den) == (0, 300, 301, 1)


# SHA-256 of `qid coeffs SEL --upto 1000`, pinned before the oracle was
# rewritten to sum from the last term inwards; the two defining series of
# A(q), and of B(q), share a pin.
_COEFFS_1000_SHA256 = {
    "A1": "4bcc2c913845cd29c9b1033e3ced0cf48c65b8fdf2b20e3bb75391e5b05b8f99",
    "A2": "4bcc2c913845cd29c9b1033e3ced0cf48c65b8fdf2b20e3bb75391e5b05b8f99",
    "B1": "a426046d6e436c75c3a4f160d2770334d798c6ecd2339d1225d4f0800ae2ab4f",
    "B2": "a426046d6e436c75c3a4f160d2770334d798c6ecd2339d1225d4f0800ae2ab4f",
    "MU2": "20e105b988503dcff83295e18f082e9a3c44b0f5e5ed441bfca5aa89632db1af",
}


@pytest.mark.parametrize("sel", sorted(_COEFFS_1000_SHA256))
def test_coeffs_1000_sha256(sel, capsys):
    clear_all()
    assert main(["coeffs", sel, "--upto", "1000"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _COEFFS_1000_SHA256[sel]


def _times_binomial(c, eps, d):
    """c * (1 - eps*q^d) on a coefficient list, truncated to its length."""
    return [c[i] - eps * c[i - d] if i >= d else c[i] for i in range(len(c))]


def _times_geometric(c, eps, d):
    """c / (1 - eps*q^d) = c * sum_k eps^k q^(d*k), truncated."""
    return [sum(eps ** k * c[i - d * k] for k in range(i // d + 1))
            for i in range(len(c))]


def _reference_term(sel, n):
    """(sign, q-power, numerator binomials, denominator binomials) of the
    n-th defining term (McIntosh, "Second order mock theta functions",
    2007); a binomial (eps, d) is 1 - eps*q^d."""
    odd = [2 * j + 1 for j in range(n + 1)]  # (q; q^2)_(n+1)
    even = [2 * j + 2 for j in range(n)]     # (q^2; q^2)_n
    if sel == "A1":
        return 1, (n + 1) ** 2, [(-1, d) for d in odd[:n]], [(1, d) for d in odd] * 2
    if sel == "A2":
        return 1, n + 1, [(-1, d) for d in even], [(1, d) for d in odd]
    if sel == "B1":
        return 1, n * (n + 1), [(-1, d) for d in even], [(1, d) for d in odd] * 2
    if sel == "B2":
        return 1, n, [(-1, d) for d in odd[:n]], [(1, d) for d in odd]
    assert sel == "MU2"
    return (-1) ** n, n * n, [(1, d) for d in odd[:n]], [(-1, d) for d in even] * 2


def _reference_series(sel, order):
    """Literal summation, first term first, in exact integers (every term
    has denominator 1): each term is its numerator Pochhammer product
    times one geometric series per denominator factor."""
    total = [0] * (order + 1)
    n = 0
    while True:
        sign, shift, num, den = _reference_term(sel, n)
        if shift > order:
            return total
        term = [sign] + [0] * (order - shift)
        for eps, d in num:
            term = _times_binomial(term, eps, d)
        for eps, d in den:
            term = _times_geometric(term, eps, d)
        for i, c in enumerate(term):
            total[shift + i] += c
        n += 1


def _examples(test):
    """Orders 0-3, and the orders at and beside each selector's first four
    q-powers shift(n), where the last term that reaches the order changes."""
    for sel in SELECTORS:
        shifts = [_reference_term(sel, n)[1] for n in range(4)]
        for order in {*range(4), *(max(s + i, 0) for s in shifts
                                   for i in (-1, 0, 1))}:
            test = example(sel, order)(test)
    return test


# through q^120 a selector's early divisions take running sums (d*d < len)
# and its later ones the block recurrence; MU2's, by (1 + q^(2n+2))^2,
# are the signed ones
@given(st.sampled_from(SELECTORS), st.integers(0, 120))
@_examples
@settings(max_examples=60, deadline=None)
def test_matches_fraction_reference(sel, order):
    s = mock_theta_series(sel, order)
    assert [s.coefficient(i) for i in range(order + 1)] == _reference_series(sel, order)


#: name -> (the series through q^n, the module and name of what builds
#: it on a miss): each kind of series qid keeps
_KEPT = {
    **{sel: (partial(mock_theta_series, sel), mock_theta, "_summed")
       for sel in SELECTORS},
    "f1^7": (partial(eta_power, 1, 7), qproducts, "theta_j"),
    "eta-quotient": (partial(eta_expression_eval, eta_expression(
        [(1, 0, {2: 7, 3: 2, 1: -6, 4: -1, 6: -1}), (-3, 1, {1: 2, 4: -1})])),
        qproducts, "_normal_form_eval"),
}


@pytest.mark.parametrize("name", _KEPT)
def test_cache_growth_matches_fresh(name, monkeypatch):
    series, module, builder = _KEPT[name]
    builds = []
    build = getattr(module, builder)
    monkeypatch.setattr(module, builder,
                        lambda *a: builds.append(a) or build(*a))
    clear_all()
    first = series(50)
    grown = series(300)
    shrunk = series(100)
    assert len(builds) == 2  # the shorter request is a truncation
    for order, got in ((100, shrunk), (50, first), (300, grown)):
        clear_all()
        del builds[:]
        assert got == series(order) and got.order == order
        assert builds  # emptied, the memo builds anew
