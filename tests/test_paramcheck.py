"""Symbolic vanishing proofs via the (p,k)-parametrization."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qid import (EtaMonomial, UnsupportedEtaIndexError, eta_expression,
                 expr_to_eta, load_registry, prove_zero, verify)
from qid.cli import main
from qid.dsl import parse
from qid.paramcheck import _vector24
from qid.qproducts import eta_expression_eval

F = Fraction

#: f_k -> its exponent vector over (2, p, 1-p, 1+p, 1+2p, 2+p, k, q)
BASES = {
    1: (F(-1, 6), F(1, 24), F(1, 2), F(1, 6), F(1, 8), F(1, 8), F(1, 2),
        F(-1, 24)),
    2: (F(-1, 3), F(1, 12), F(1, 4), F(1, 12), F(1, 4), F(1, 4), F(1, 2),
        F(-1, 12)),
    3: (F(-1, 6), F(1, 8), F(1, 6), F(1, 2), F(1, 24), F(1, 24), F(1, 2),
        F(-1, 8)),
    4: (F(-2, 3), F(1, 6), F(1, 8), F(1, 24), F(1, 8), F(1, 2), F(1, 2),
        F(-1, 6)),
    6: (F(-1, 3), F(1, 4), F(1, 12), F(1, 4), F(1, 12), F(1, 12), F(1, 2),
        F(-1, 4)),
    12: (F(-2, 3), F(1, 2), F(1, 24), F(1, 8), F(1, 24), F(1, 6), F(1, 2),
         F(-1, 2)),
}

#: the split components S0, S1, H0, H1 and R0, each written as lhs = 0
ZERO_IDS = ("zero-s0", "zero-s1", "zero-h0", "zero-h1", "zero-r0")


@pytest.fixture(scope="module")
def registry():
    return {r.id: r for r in load_registry()}


def difference(rec):
    """lhs - rhs of an identity record, read as `qid param-check` reads it."""
    return expr_to_eta(parse(f"({rec.lhs}) - ({rec.rhs})"))


def vector(qpow, exps):
    """The exponent vector of q^qpow prod f_k^e_k as prove_zero reads it."""
    return tuple(F(c, 24) for c in _vector24(EtaMonomial(1, qpow, exps)))


def test_base_vector_f1():
    assert vector(0, ((1, 1),)) == BASES[1]


def test_base_vector_f12():
    assert vector(0, ((12, 1),)) == BASES[12]


def test_pure_q_power():
    assert vector(1, ()) == (0, 0, 0, 0, 0, 0, 0, 1)


def test_unsupported_index():
    with pytest.raises(UnsupportedEtaIndexError):
        vector(0, ((8, 1),))


def triples(e):
    """The (coeff, qpow, {k: e}) triples eta_expression builds e from."""
    return [(F(t.num, e.den), t.qpow, dict(t.exps)) for t in e.terms]


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
    reordered = eta_expression(triples(e)[::-1])
    scaled = eta_expression([(c * F(7, 3), a, ex) for c, a, ex in triples(e)])
    assert prove_zero(reordered).status == "ProvedZero"
    assert prove_zero(scaled).status == "ProvedZero"


def test_non_uniform_detected():
    # f1 and f2 have different fractional q-exponents
    e = eta_expression([(1, 0, {1: 1}), (-1, 0, {2: 1})])
    assert prove_zero(e).status == "NonUniform"


def test_fractional_classes_decided_exactly():
    # uniform k and q exponents; the two terms' exponents of 2, 1-p, 1+p,
    # 1+2p and 2+p differ by non-integers, so each is a class of its own
    e = eta_expression([(1, 0, {1: 4}), (-1, 1, {12: 2, 2: 2})])
    out = prove_zero(e)
    assert out.status == "NotZero"
    assert out.polynomial.coeffs == (1,)
    assert out.detail == ("residual polynomial: 1, times "
                          "(2)^(4/3)*(1-p)^(17/12)*(1+p)^(1/4)")


def times(e, a, exps):
    """The terms of e, each multiplied by q^a prod f_k^exps[k]."""
    out = []
    for c, qpow, ex in triples(e):
        for k, x in exps.items():
            ex[k] = ex.get(k, 0) + x
        out.append((c, qpow + a, ex))
    return out


def test_two_class_identity(registry):
    # zero-s0 times f1 plus zero-r0 times q f12^2 f2 / f1^3: uniform k and
    # q exponents, two classes, each of which vanishes on its own
    s0 = times(difference(registry["zero-s0"]), 0, {1: 1})
    r0 = times(difference(registry["zero-r0"]), 1, {12: 2, 2: 1, 1: -3})
    e = eta_expression(s0 + r0)
    vectors = [vector(t.qpow, t.exps)[:6] for t in e.terms]
    assert len({tuple(x % 1 for x in v) for v in vectors}) == 2
    assert prove_zero(e).status == "ProvedZero"
    assert not any(eta_expression_eval(e, 60).coeffs)
    # either class broken alone is found; the second one after the first
    # has vanished, with its factor relative to the smallest exponents
    for i in (0, len(s0)):
        out = prove_zero(with_term(e, i, coeff=2 * triples(e)[i][0]))
        assert out.status == "NotZero", i
    assert out.detail == (
        "residual polynomial: 24*p^1 + 24*p^2, times (2)^(8/3)*(p)^(1)"
        "*(1-p)^(31/12)*(1+p)^(7/4)*(2+p)^(4/3)")


def test_not_zero_attaches_polynomial():
    e = eta_expression([(1, 0, {1: 24}), (-1, 0, {1: 24}),
                        (1, 0, {1: 24})])  # sums to f1^24, not zero
    out = prove_zero(e)
    assert out.status == "NotZero"
    assert out.polynomial is not None and not out.polynomial.is_zero()


# -- pinned outputs -----------------------------------------------------------

PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"


def param_check_output(capsys, *argv):
    code = main(["param-check", *argv])
    return code, capsys.readouterr().out


def test_empty_sum_proved_zero(capsys):
    # the empty sum is zero; "0" and "0 + 0" parse to it
    out = prove_zero(eta_expression([]))
    assert (out.status, out.detail) == ("ProvedZero",
                                        "polynomial in p collapses to 0")
    for src in ("0", "0 + 0"):
        assert param_check_output(capsys, "--expr", src) == (
            0, "ProvedZero\n  polynomial in p collapses to 0\n")


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
        1, "NonUniform\n  k-exponents [1, 3/2, 2], q-exponents "
           "[-5/24, 19/24] are not uniform\n")


def test_param_check_class_denominator_output(capsys):
    # the first class's own denominator (14) differs from the
    # expression's (42): the residual 3/42 is reported as 1/14
    assert param_check_output(
        capsys, "--expr", "(1/14)*q*f12^2*f2^2 - (1/6)*f1^4") == (
        1, "NotZero\n"
           "  residual polynomial: 1/14, times "
           "(p)^(1)*(1+2p)^(1/12)*(2+p)^(1/3)\n")


def test_param_check_zero_coefficient_term(capsys):
    # like terms are summed and zero sums dropped before the exponent
    # check: a sum that cancels term by term is the empty sum, and a term
    # with coefficient 0 does not count
    for expr in ("0*f2 + f1 - f1", "f2 - f2 + f1 - f1"):
        assert param_check_output(capsys, "--expr", expr) == (
            0, "ProvedZero\n  polynomial in p collapses to 0\n"), expr
    assert param_check_output(capsys, "--expr", "0*f12 + f1 - f2") == (
        1, "NonUniform\n  k-exponents [1/2], q-exponents [-1/12, -1/24] "
           "are not uniform\n")
    # 5/14 - 2/7 of one term is one term, 1/14, over the denominator 14
    assert param_check_output(
        capsys, "--expr", "(1/6)*f1^4 - (1/6)*f1^4 + (5/14)*q*f12^2*f2^2"
        " - (2/7)*q*f12^2*f2^2") == (
        1, "NotZero\n  residual polynomial: 1/14\n")


def test_param_check_two_class_output(capsys):
    assert param_check_output(capsys, "--expr", "f1^4 - q*f12^2*f2^2") == (
        1, "NotZero\n"
           "  residual polynomial: 1, times "
           "(2)^(4/3)*(1-p)^(17/12)*(1+p)^(1/4)\n")


# -- every proof can fail -------------------------------------------------------

def with_term(e, i, coeff=None, exps=None):
    terms = triples(e)
    c, a, ex = terms[i]
    terms[i] = (c if coeff is None else coeff, a, ex if exps is None else exps)
    return eta_expression(terms)


@pytest.mark.parametrize("rid", ZERO_IDS)
def test_zero_records_break_when_edited(registry, rid):
    e = difference(registry[rid])
    for i, t in enumerate(e.terms):
        # each term is a nonzero polynomial in p, so changing its
        # coefficient leaves a nonzero sum
        doubled = with_term(e, i, coeff=2 * F(t.num, e.den))
        assert prove_zero(doubled).status == "NotZero", (rid, i)
        # one more f_k moves the k-exponent by 1/2
        k, x = t.exps[0]
        assert prove_zero(with_term(e, i, exps={**dict(t.exps), k: x + 1})
                          ).status == "NonUniform", (rid, i)
        # f1^2 f4 / f2^3 keeps the k- and q-exponents but adds 3/8 to the
        # exponent of 1-p: the term is a class of its own, and nonzero
        ex = dict(t.exps)
        for k, d in ((1, 2), (2, -3), (4, 1)):
            ex[k] = ex.get(k, 0) + d
        assert prove_zero(with_term(e, i, exps=ex)).status == \
            "NotZero", (rid, i)


# -- the integer prover against a Fraction reference ---------------------------

#: the polynomials p, 1-p, 1+p, 1+2p, 2+p of slots 1..5
_REF_BASES = ((0, 1), (1, -1), (1, 1), (1, 2), (2, 1))


def reference_prove(e):
    """(status, polynomial coefficients) by plain Fraction arithmetic: the
    terms grouped by the fractional parts of their first six exponents,
    each group expanded less its own minimum, the first nonzero reported."""
    vectors = []
    for t in e.terms:
        v = [F(0)] * 7 + [F(t.qpow)]
        for k, x in t.exps:
            v = [a + x * b for a, b in zip(v, BASES[k])]
        vectors.append(v)
    if len({v[6] for v in vectors}) > 1 or len({v[7] for v in vectors}) > 1:
        return "NonUniform", None
    groups = {}
    for t, v in zip(e.terms, vectors):
        groups.setdefault(tuple(c % 1 for c in v[:6]), []).append((t, v))
    for group in groups.values():
        mins = [min(col) for col in zip(*(v for _, v in group))]
        total = []
        for t, v in group:
            r = [a - m for a, m in zip(v, mins)]
            assert all(c.denominator == 1 for c in r)
            poly = [F(t.num, e.den) * 2 ** int(r[0])]
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
        if total:
            return "NotZero", tuple(total)
    return "ProvedZero", None


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
    _INTEGRAL_MOVES), or of weight 0 with an integral q-offset (mostly in
    another class), or is unrelated to it."""
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


@settings(max_examples=200, deadline=None)
@given(eta_sums())
def test_prove_zero_matches_series(e):
    # every decided input: ProvedZero exactly when the series vanishes (a
    # NonUniform sum may still cancel term by term, so it is left out)
    out = prove_zero(e)
    if out.status != "NonUniform":
        assert out.proved == (not any(eta_expression_eval(e, 100).coeffs))
