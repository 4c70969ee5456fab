"""Symbolic vanishing proofs via the (p,k)-parametrization."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qid import (BASE_VECTORS, UnsupportedEtaIndexError, eta_expression,
                 eta_monomial, expr_to_eta, load_registry,
                 param_vector_of_term, prove_zero, verify)
from qid.cli import main
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


# -- pinned outputs -----------------------------------------------------------

PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"


def param_check_output(capsys, *argv):
    code = main(["param-check", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("target", ["S0", "S1", "H0", "H1", "R0"])
def test_param_check_output_matches_pins(capsys, target):
    pinned = json.loads(PINS.read_text())["param_check"][target]
    assert param_check_output(capsys, target) == (0, pinned)


def perturbed_s1(registry):
    """zero-s1 with the coefficient -3/4 of its f2^7 term changed to -2/3."""
    lhs = registry["zero-s1"].lhs
    assert lhs.count("- 3/4*f2^7") == 1
    return lhs.replace("- 3/4*f2^7", "- 2/3*f2^7")


def test_param_check_not_zero_output(capsys, registry):
    poly = ("8/3 + -32/3*p^1 + 32/3*p^2 + 32/3*p^3 + -80/3*p^4 + 32/3*p^5"
            " + 32/3*p^6 + -32/3*p^7 + 8/3*p^8")
    assert param_check_output(capsys, "--expr", perturbed_s1(registry)) == \
        (1, f"NotZero\n  residual polynomial: {poly}\n")
    out = prove_zero(expr_to_eta(parse(perturbed_s1(registry))))
    assert out.polynomial.coeffs == (F(8, 3), F(-32, 3), F(32, 3), F(32, 3),
                                     F(-80, 3), F(32, 3), F(32, 3),
                                     F(-32, 3), F(8, 3))


def test_param_check_non_uniform_output(capsys):
    assert param_check_output(
        capsys, "--expr", "(1/3)*f1^3*f2 - 2*q*f1^2*f3 + f4*f1") == (
        1, "NonUniform\n  k-exponents [Fraction(1, 1), Fraction(3, 2), "
           "Fraction(2, 1)], q-exponents [Fraction(-5, 24), "
           "Fraction(19, 24)] are not uniform\n")


def test_param_check_non_integral_output(capsys):
    assert param_check_output(capsys, "--expr", "f1^4 - q*f12^2*f2^2") == (
        1, "NonIntegral\n"
           "  residual exponents are not all integers; numeric evaluation "
           "attached\n"
           "  p=1/7: 1.9061834109041725938 (nonzero)\n"
           "  p=1/5: 1.6550429616789532301 (nonzero)\n"
           "  p=1/3: 1.0632188624752640761 (nonzero)\n"
           "  p=1/2: 0.32561231444914244258 (nonzero)\n"
           "  p=2/3: -0.38828868262735494753 (nonzero)\n")


# -- every proof can fail -------------------------------------------------------

def with_term(e, i, coeff=None, exps=None):
    terms = [(t.coeff, t.qpow, dict(t.exps)) for t in e.terms]
    c, a, ex = terms[i]
    terms[i] = (c if coeff is None else coeff, a, ex if exps is None else exps)
    return eta_expression(terms)


@pytest.mark.parametrize("rid", ZERO_IDS)
def test_zero_records_break_when_edited(registry, rid):
    e = difference(registry[rid])
    for i, t in enumerate(e.terms):
        # each term is a nonzero polynomial in p, so changing its
        # coefficient leaves a nonzero sum
        assert prove_zero(with_term(e, i, coeff=2 * t.coeff)).status == \
            "NotZero", (rid, i)
        # one more f_k moves the k-exponent by 1/2
        k, x = t.exps[0]
        assert prove_zero(with_term(e, i, exps={**dict(t.exps), k: x + 1})
                          ).status == "NonUniform", (rid, i)
        # f1^2 f4 / f2^3 keeps the k- and q-exponents but adds 3/8 to the
        # exponent of 1-p
        ex = dict(t.exps)
        for k, d in ((1, 2), (2, -3), (4, 1)):
            ex[k] = ex.get(k, 0) + d
        assert prove_zero(with_term(e, i, exps=ex)).status == \
            "NonIntegral", (rid, i)


# -- the integer prover against a Fraction reference ---------------------------

#: the polynomials p, 1-p, 1+p, 1+2p, 2+p of slots 1..5
_REF_BASES = ((0, 1), (1, -1), (1, 1), (1, 2), (2, 1))


def reference_prove(e):
    """(status, polynomial coefficients) by plain Fraction arithmetic."""
    vectors = []
    for t in e.terms:
        v = [F(0)] * 7 + [F(t.qpow)]
        for k, x in t.exps:
            v = [a + x * b for a, b in zip(v, BASE_VECTORS[k].as_tuple())]
        vectors.append(v)
    if len({v[6] for v in vectors}) > 1 or len({v[7] for v in vectors}) > 1:
        return "NonUniform", None
    mins = [min(col) for col in zip(*vectors)]
    residuals = [[a - m for a, m in zip(v, mins)] for v in vectors]
    if any(c.denominator != 1 for r in residuals for c in r):
        return "NonIntegral", None
    total = []
    for t, r in zip(e.terms, residuals):
        poly = [t.coeff * 2 ** int(r[0])]
        for base, x in zip(_REF_BASES, r[1:6]):
            for _ in range(int(x)):
                out = [F(0)] * (len(poly) + 1)
                for i, c in enumerate(poly):
                    out[i] += c * base[0]
                    out[i + 1] += c * base[1]
                poly = out
        total += [F(0)] * (len(poly) - len(total))
        for i, c in enumerate(poly):
            total[i] += c
    while total and total[-1] == 0:
        total.pop()
    return ("NotZero", tuple(total)) if total else ("ProvedZero", None)


_INDICES = (1, 2, 3, 4, 6, 12)
#: exponent changes over f1..f12 of weight 0 that move every parametrized
#: exponent by an integer: a term times such a quotient keeps the residual
#: exponents integral, so the polynomial has every base in it
_INTEGRAL_MOVES = ((-3, 0, 1, 3, 0, -1), (-2, 0, -2, 2, 0, 2),
                   (-4, 2, 4, 0, -2, 0), (0, -2, 0, 4, 2, -4),
                   (-4, -4, 4, 0, 4, 0))
_coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
_exps = st.lists(st.integers(-3, 3), min_size=6, max_size=6)


@st.composite
def eta_sums(draw):
    """Sums over f1..f12 in which every status occurs.  Each further term
    is the first one times an eta quotient that is integral (a sum of
    _INTEGRAL_MOVES), or of weight 0 with an integral q-offset, or is
    unrelated to it."""
    base = draw(_exps)
    terms = [(draw(_coeffs), draw(st.integers(-2, 2)), base)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("integral", "uniform", "any")))
        if kind == "integral":
            ns = draw(st.lists(st.integers(-1, 1), min_size=5, max_size=5))
            d = [sum(n * m[i] for n, m in zip(ns, _INTEGRAL_MOVES))
                 for i in range(6)]
        else:
            d = draw(_exps)
        if kind == "uniform":
            d[0] -= sum(d)  # weight 0
            s = sum(k * x for k, x in zip(_INDICES, d))
            r = (-s + 12) % 24 - 12  # f2/f1 raises the offset by 1/24
            d[1] += r
            d[0] -= r
        if kind == "any":
            a = draw(st.integers(-2, 2))
        else:
            a = terms[0][1] + sum(k * x for k, x in zip(_INDICES, d)) // 24
        terms.append((draw(_coeffs), a, [b + x for b, x in zip(base, d)]))
    cancelled = draw(st.lists(st.booleans(), min_size=len(terms),
                              max_size=len(terms)))
    terms += [(-c, a, ex) for (c, a, ex), x in zip(terms, cancelled) if x]
    return eta_expression([(c, a, dict(zip(_INDICES, ex)))
                           for c, a, ex in draw(st.permutations(terms))])


@settings(max_examples=300, deadline=None)
@given(eta_sums())
def test_prove_zero_matches_fraction_reference(e):
    out = prove_zero(e)
    status, poly = reference_prove(e)
    assert out.status == status
    assert (out.polynomial.coeffs if out.polynomial else None) == poly
