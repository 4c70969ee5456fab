"""Symbolic vanishing proofs via the (p,k)-parametrization."""

from fractions import Fraction

import pytest

from qid import (UnsupportedEtaIndexError, eta_expression, eta_monomial,
                 expr_to_eta, load_registry, param_vector_of_term, prove_zero,
                 verify)
from qid.dsl import parse

F = Fraction

#: the split components S0, S1, H0, H1 and R0, each written as lhs = 0
ZERO_IDS = ("zero-s0", "zero-s1", "zero-h0", "zero-h1", "zero-r0")


@pytest.fixture(scope="module")
def registry():
    return {r.id: r for r in load_registry()}


def difference(rec):
    """lhs - rhs of an identity record, read as `qid param-check` reads it."""
    return expr_to_eta(parse(f"({rec.lhs}) - ({rec.rhs})"))


def test_base_vector_f1():
    v = param_vector_of_term(eta_monomial(1, 0, {1: 1}))
    assert (v.e2, v.ep, v.e1m, v.e1p, v.e12p, v.e2p, v.ek, v.eq) == \
        (F(-1, 6), F(1, 24), F(1, 2), F(1, 6), F(1, 8), F(1, 8),
         F(1, 2), F(-1, 24))


def test_base_vector_f12():
    v = param_vector_of_term(eta_monomial(1, 0, {12: 1}))
    assert (v.e2, v.ep, v.e1m, v.e1p, v.e12p, v.e2p, v.ek, v.eq) == \
        (F(-2, 3), F(1, 2), F(1, 24), F(1, 8), F(1, 24), F(1, 6),
         F(1, 2), F(-1, 2))


def test_pure_q_power():
    v = param_vector_of_term(eta_monomial(1, 1, {}))
    assert v.as_tuple() == (0, 0, 0, 0, 0, 0, 0, 1)


def test_unsupported_index():
    with pytest.raises(UnsupportedEtaIndexError):
        param_vector_of_term(eta_monomial(1, 0, {8: 1}))


def test_trivial_difference_proved_zero():
    e = eta_expression([(1, 0, {1: 1}), (-1, 0, {1: 1})])
    assert prove_zero(e).status == "ProvedZero"


def test_single_term_never_proved_zero():
    for term in [(1, 0, {1: 1}), (F(3, 7), 2, {2: -5, 12: 3})]:
        assert prove_zero(eta_expression([term])).status != "ProvedZero"


def test_named_targets_two_paths(registry):
    for rid in ZERO_IDS:
        rec = registry[rid]
        assert prove_zero(difference(rec)).status == "ProvedZero", rid
        out = verify(rec, order=200)
        assert (out.status, out.compared_order) == ("pass", 200), \
            (rid, out.message)


def test_reorder_and_scale_invariance(registry):
    e = difference(registry["zero-r0"])
    reordered = eta_expression(
        [(t.coeff, t.qpow, dict(t.exps)) for t in reversed(e.terms)])
    scaled = eta_expression(
        [(t.coeff * F(7, 3), t.qpow, dict(t.exps)) for t in e.terms])
    assert prove_zero(reordered).status == "ProvedZero"
    assert prove_zero(scaled).status == "ProvedZero"


def test_non_uniform_detected():
    # f1 and f2 have different fractional q-exponents
    e = eta_expression([(1, 0, {1: 1}), (-1, 0, {2: 1})])
    assert prove_zero(e).status == "NonUniform"


def test_non_integral_reports_numerics():
    # uniform k and q exponents but fractional residual exponents
    e = eta_expression([(1, 0, {1: 4}), (-1, 1, {12: 2, 2: 2})])
    out = prove_zero(e)
    assert out.status == "NonIntegral"
    assert len(out.numeric_report) == 5
    for p, value, small in out.numeric_report:
        assert 0 < p < 1


def test_not_zero_attaches_polynomial():
    e = eta_expression([(1, 0, {1: 24}), (-1, 0, {1: 24}),
                        (1, 0, {1: 24})])  # sums to f1^24, not zero
    out = prove_zero(e)
    assert out.status == "NotZero"
    assert out.polynomial is not None and not out.polynomial.is_zero()


def test_empty_expression_rejected():
    with pytest.raises(ValueError):
        prove_zero(eta_expression([]))
