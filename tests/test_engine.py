"""Registry loading, expression evaluation and the verification harness."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qid import (SELECTORS, EtaExpression, IdentityRecord, QidError,
                 SignedMonomial, VerificationOutcome, check_congruence,
                 compare_series, eta_expression, eval_expr, expr_to_eta,
                 load_registry, report_json, run_suite, verify)
from qid import appell_lerch, dsl, engine, qproducts
from qid.caches import clear_all
from qid.dsl import parse, print_expr
from qid.engine import check_parity_characterization
from qid.mock_theta import mock_theta_series
from qid.qproducts import eta_expression_eval, eta_power
from qid.series import TruncatedLaurentSeries as S


@pytest.fixture(scope="module")
def registry():
    return load_registry()


REQUIRED_ANCHORS = {
    "1-10", "1-11", "1-12",
    "2-2", "2-3", "2-4", "2-4-1", "2-5", "2-6", "2-7", "2-16", "2-17",
    "2-19", "2-21", "2-22", "2-23", "2-24", "2-25", "2-26",
    "3-2", "3-3", "3-4", "3-5", "3-6", "3-8", "3-9", "3-10", "3-11", "3-12",
    "4-2", "4-3", "4-4", "4-5", "4-7", "4-8", "4-9", "4-10",
    "1-def-A", "1-def-B",
    # background claims quoted in the introduction
    "1-CM1", "1-CM2", "1-M1", "1-M2",
    "1-ND-c1", "1-ND-c2", "1-ND-c3", "1-M-c1", "1-M-c2",
    "1-KR1", "1-KR2", "1-W",
}


def test_registry_completeness(registry):
    anchors = {r.anchor for r in registry}
    missing = REQUIRED_ANCHORS - anchors
    assert not missing, f"missing anchors: {sorted(missing)}"


def test_registry_ids_unique(registry):
    ids = [r.id for r in registry]
    assert len(ids) == len(set(ids))


def test_eval_examples():
    s = eval_expr(parse("f1"), 7)
    assert s.nonzero_terms() == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}

    s = eval_expr(parse("MT(B2)"), 1)
    assert [s.coefficient(i) for i in range(2)] == [1, 2]

    s = eval_expr(parse("EXTRACT(MT(B2), 3, 0)"), 1)
    assert [s.coefficient(i) for i in range(2)] == [1, 6]


def test_eval_handles_laurent_division():
    s = eval_expr(parse("(q^2 + q^3)/q^2"), 10)
    assert s.order >= 10
    assert s.nonzero_terms() == {0: 1, 1: 1}


def test_verify_pass(registry):
    rec = {r.id: r for r in registry}["nath-das-1.10"]
    out = verify(rec, order=60)
    assert out.status == "pass"
    assert out.compared_order >= 60
    assert out.first_mismatch is None


def test_verify_perturbed_rhs_fails():
    rec = IdentityRecord(id="x", tier="core", anchor="",
                         lhs="f1*f2", rhs="f1*f2 + q^5")
    out = verify(rec, order=20)
    assert out.status == "fail"
    assert out.first_mismatch[0] == 5


def test_verify_symmetry():
    a = IdentityRecord(id="a", tier="core", anchor="", lhs="f1", rhs="f1+q^3")
    b = IdentityRecord(id="b", tier="core", anchor="", lhs="f1+q^3", rhs="f1")
    oa, ob = verify(a, order=10), verify(b, order=10)
    assert oa.status == ob.status == "fail"
    assert oa.first_mismatch[0] == ob.first_mismatch[0] == 3
    assert oa.first_mismatch[1] == ob.first_mismatch[2]
    assert oa.first_mismatch[2] == ob.first_mismatch[1]


def test_verify_error_status():
    rec = IdentityRecord(id="x", tier="core", anchor="",
                         lhs="J(q^4, 4)", rhs="0")  # identically zero theta
    out = verify(rec, order=10)
    assert out.status == "error"
    assert out.first_mismatch is None


def test_divisor_zero_through_the_working_order(registry):
    # an eta quotient whose lowest term lies above the working order is
    # known through that term, so dividing by it costs order, not an error
    assert eval_expr(parse("((q+q)^1)^-1"), 0) == \
        S.from_terms({-1: Fraction(1, 2)}, 0)
    # q - q*f1 = q^2 + q^3 + ...: its q^1 terms cancel, and the padding
    # grows until the divisor has a nonzero term
    e = parse("(q - q*f1)^-1")
    assert eval_expr(e, 0) == eval_expr(e, 20).truncate(0)
    # a divisor that is zero stays an error
    out = verify(IdentityRecord(id="x", tier="core", anchor="",
                                lhs="1/(f1-f1)", rhs="0"), order=10)
    assert (out.status, out.message) == \
        ("error", "not invertible at this truncation: all-zero window")
    # AL(q^-12, 36, -q^0)/q^13 at order 10 and the cube decomposition's
    # 1/q^12 at order 0 divide by such a term
    records = {r.id: r for r in registry}
    for rid, order in (("b-al-base36", 10), ("al-cube-b", 0)):
        assert verify(records[rid], order=order).status == "pass", rid


def test_check_congruence():
    out = check_congruence("B1", 6, 3, 6, 40)
    assert out.status == "pass"

    out = check_congruence("B1", 10, 6, 5, 30)
    assert out.status == "pass"

    with pytest.raises(ValueError):
        check_congruence("B1", 1, 0, 1, 10)  # modulus must be >= 2

    out = check_congruence("B1", 4, 1, 7, 5)  # b(1)=2 not divisible by 7
    assert out.status == "fail"


def test_parity_characterization():
    assert check_parity_characterization("B1", 301).status == "pass"
    # A's coefficients do not follow B's parity pattern
    assert check_parity_characterization("A1", 30).status == "fail"


def congruence_per_index(series, step, residue, modulus, count):
    """check_congruence's verdict read one Fraction coefficient at a time."""
    top = step * (count - 1) + residue
    for n in range(count):
        idx = step * n + residue
        c = series.coefficient(idx)
        if c.denominator != 1:
            return ("error", top, None,
                    f"non-integer coefficient at index {idx}: {c}")
        if c.numerator % modulus:
            return ("fail", top, (idx, c.numerator % modulus, 0),
                    f"coefficient({idx}) = {c} is not 0 mod {modulus}")
    return ("pass", top, None, f"{count} coefficients divisible by {modulus}")


def parity_per_index(series, count):
    """check_parity_characterization's verdict, one coefficient at a time."""
    top = count - 1
    for n in range(count):
        c = series.coefficient(n)
        if c.denominator != 1:
            return ("error", top, None,
                    f"non-integer coefficient at index {n}: {c}")
        expected = int(any(2 * k * k + 2 * k == n for k in range(n + 1)))
        if c.numerator % 2 != expected:
            return ("fail", top, (n, c.numerator % 2, expected),
                    f"parity of coefficient({n}) breaks the characterization")
    return ("pass", top, None, f"parity characterization holds for n <= {top}")


def fields(out):
    return out.status, out.compared_order, out.first_mismatch, out.message


@pytest.mark.parametrize("sel", SELECTORS)
def test_congruence_and_parity_match_per_index_reading(sel):
    for step, residue, modulus, count in [
            (1, 0, 2, 50), (4, 1, 7, 5), (6, 3, 6, 40), (5, 4, 5, 60),
            (10, 6, 5, 30), (3, 2, 3, 100), (7, 0, 2, 20)]:
        top = step * (count - 1) + residue
        want = congruence_per_index(mock_theta_series(sel, top), step,
                                    residue, modulus, count)
        got = check_congruence(sel, step, residue, modulus, count)
        assert fields(got) == want, (sel, step, residue, modulus, count)
    for count in (1, 2, 13, 301):
        want = parity_per_index(mock_theta_series(sel, count - 1), count)
        assert fields(check_parity_characterization(sel, count)) == want


def test_congruence_and_parity_over_a_denominator(monkeypatch):
    # the oracle's den is 1; a series over a denominator is read exactly:
    # a non-integer coefficient among those checked is an error, named by
    # the first, ahead of any mismatch, and integer ones are checked as
    # integers
    halves = S.from_terms({0: 2, 1: Fraction(1, 2), 2: 4, 3: 7, 4: 6}, 40)
    monkeypatch.setattr(engine, "mock_theta_series",
                        lambda sel, order: halves.truncate(order))
    error = ("error", 1, None, "non-integer coefficient at index 1: 1/2")
    for args, want in [((2, 0, 2, 3), ("pass", 4, None,
                                       "3 coefficients divisible by 2")),
                       ((3, 0, 2, 2), ("fail", 3, (3, 1, 0),
                                       "coefficient(3) = 7 is not 0 mod 2")),
                       ((1, 0, 2, 2), error), ((2, 1, 2, 1), error)]:
        assert fields(check_congruence("B1", *args)) == want, args
    # coefficient 0 is even, so per index this was a fail at q^0
    assert fields(check_parity_characterization("B1", 2)) == error
    assert fields(check_parity_characterization("B1", 1))[:3] \
        == ("fail", 0, (0, 0, 1))


def test_run_suite_deterministic(registry):
    subset = [r for r in registry if r.kind == "identity"][:4]
    r1 = report_json(run_suite(subset, order=20))
    r2 = report_json(run_suite(subset, order=20))
    strip = lambda rep: [{k: v for k, v in row.items() if k != "elapsed_ms"}
                         for row in rep]
    assert strip(r1) == strip(r2)
    assert [row["id"] for row in r1] == sorted(row["id"] for row in r1)


def test_report_json_shape():
    rec = IdentityRecord(id="x", tier="core", anchor="", lhs="q", rhs="2*q")
    rep = report_json(run_suite([rec], order=5))
    row = rep[0]
    assert set(row) == {"id", "tier", "status", "compared_order",
                        "first_mismatch", "elapsed_ms", "message"}
    assert row["status"] == "fail"
    assert row["first_mismatch"] == {"exponent": 1, "lhs": "1/1", "rhs": "2/1"}
    json.dumps(rep)  # serializable


def test_expr_to_eta_matches_eval():
    src = "f2^7*f3^2/(f1^6*f4*f6) - 3*q*f1^2/f4 + 1/2"
    e = expr_to_eta(parse(src))
    got = eta_expression_eval(e, 30)
    assert got == eval_expr(parse(src), 30)
    # eval_expr evaluates through expr_to_eta as well, so check both
    # against the same sum built from series arithmetic
    f1, f2, f3, f4, f6 = (eta_power(k, 1, 30) for k in (1, 2, 3, 4, 6))
    want = (f2.pow(7) * f3.pow(2) * (f1.pow(6) * f4 * f6).invert()
            - (S.monomial(1, 30) * f1.pow(2) * f4.invert()).scale(3)
            + S.one(30).scale(Fraction(1, 2)))
    assert got == want and got.order == want.order == 30


def test_expr_to_eta_rejects_non_eta():
    with pytest.raises(QidError):
        expr_to_eta(parse("MT(B1)"))


def test_load_registry_rejects_bad_tier(tmp_path):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps({"version": 1, "records": [
        {"id": "x", "tier": "bogus", "lhs": "q", "rhs": "q"}]}))
    with pytest.raises(QidError):
        load_registry(p)


@pytest.mark.parametrize("n", [0, 1, 63, 65, 200])
def test_eta_powers_use_cache(n, monkeypatch):
    clear_all()
    got = eval_expr(parse("f3^-7*f2^5"), n)
    want = eta_power(3, 1, n).pow(-7) * eta_power(2, 1, n).pow(5)
    assert got == want and got.order == want.order == n
    # the normal form needs f2^5 and f3^7 (inverted once), which are f1^5
    # and f1^7 at q -> q^2, q^3; a second normal form that needs the same
    # powers builds no power of f1 again
    built = []
    product, theta = qproducts.checked_product, qproducts.theta_j
    monkeypatch.setattr(qproducts, "checked_product",
                        lambda *a: built.append(a) or product(*a))
    monkeypatch.setattr(qproducts, "theta_j",
                        lambda *a: built.append(a) or theta(*a))
    assert eval_expr(parse("2*f3^-7*f2^5"), n) == got.scale(2)
    assert built == []
    # with the memo emptied, the same evaluation builds them again; below
    # q^2, f2 and f3 are 1 and are dropped, so nothing is built
    clear_all()
    assert eval_expr(parse("2*f3^-7*f2^5"), n) == got.scale(2)
    assert bool(built) == (n >= 2)


def test_verdicts_do_not_depend_on_the_memo(registry):
    # one pass with whatever earlier records left in the memo, against
    # each record evaluated alone from an empty one
    def fields(results):
        return [{k: v for k, v in row.items() if k != "elapsed_ms"}
                for row in report_json(results)]

    warm = fields(run_suite(registry))
    cold = []
    for rec in sorted(registry, key=lambda r: r.id):
        clear_all()
        cold += fields(run_suite([rec]))
    assert len(warm) == len(registry) and warm == cold


class _UncheckedSubst(dsl.Subst):
    """A SUBST node that skips the power check, so that print_expr can
    render the text SUBST(e, m) with m < 1 for the parser to refuse."""

    def _check(self):
        pass


def test_subst_node_refuses_power_below_one():
    for m in (0, -2):
        with pytest.raises(ValueError, match=f"SUBST power {m} is not positive"):
            dsl.Subst(dsl.Q(), m)
    rec = IdentityRecord(id="t", tier="core", anchor="",
                         lhs=print_expr(_UncheckedSubst(dsl.Q(), 0)), rhs="q")
    out = verify(rec, 5)
    assert (out.status, out.message) == (
        "error", "SUBST power 0 is not positive at line 1, column 10")


# every node kind of the DSL, with every integer slot drawn from [-3, 3]:
# invalid slots included, since a verdict on them must be an error
_ints = st.integers(-3, 3)
_monomials = st.builds(SignedMonomial, st.sampled_from((1, -1)), _ints)
_lits = st.builds(lambda a, b: dsl.Lit(Fraction(a, b)), _ints,
                  st.integers(1, 3))
_leaves = st.one_of(
    _lits,
    st.just(dsl.Q()), st.builds(dsl.F, _ints),
    st.builds(dsl.AL, _monomials, _ints, _monomials),
    st.builds(dsl.J, _monomials, _ints),
    st.builds(lambda z, b, m: dsl.Subst(dsl.J(z, b), m), _monomials, _ints,
              st.integers(1, 3)),
    st.sampled_from(SELECTORS).map(dsl.MT))
_asts = st.recursive(_leaves, lambda inner: st.one_of(
    st.builds(dsl.Add, inner, inner), st.builds(dsl.Sub, inner, inner),
    st.builds(dsl.Mul, inner, inner), st.builds(dsl.Div, inner, inner),
    st.builds(dsl.Neg, inner), st.builds(dsl.Pow, inner, _ints),
    st.builds(dsl.Extract, inner, _ints, _ints),
    st.builds(_UncheckedSubst, inner, _ints)), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_asts, _asts, st.integers(0, 12))
def test_verify_returns_an_outcome(lhs, rhs, order):
    # a bad expression is an error verdict, never an exception
    rec = IdentityRecord(id="t", tier="core", anchor="",
                         lhs=print_expr(lhs), rhs=print_expr(rhs))
    assert verify(rec, order).status in ("pass", "fail", "error")


def reference_expr_to_eta(e) -> EtaExpression:
    """expr_to_eta by a plain recursive walk in Fraction arithmetic."""

    def monomial(node):
        match node:
            case dsl.Lit(v):
                return v, 0, {}
            case dsl.Q():
                return Fraction(1), 1, {}
            case dsl.F(k):
                return Fraction(1), 0, {k: 1}
            case dsl.Neg(a):
                c, p, ex = monomial(a)
                return -c, p, ex
            case dsl.Mul(a, b) | dsl.Div(a, b):
                ca, pa, ea = monomial(a)
                cb, pb, eb = monomial(b)
                sign = 1 if isinstance(node, dsl.Mul) else -1
                if sign < 0 and not cb:
                    raise QidError(f"division by zero: {print_expr(node)}")
                for k, v in eb.items():
                    ea[k] = ea.get(k, 0) + sign * v
                return ca * cb ** sign, pa + sign * pb, ea
            case dsl.Pow(a, k):
                c, p, ex = monomial(a)
                if not c and k < 0:
                    raise QidError(f"division by zero: {print_expr(node)}")
                return c ** k, p * k, {f: v * k for f, v in ex.items()}
        raise QidError(f"not an eta-quotient term: {print_expr(node)}")

    def walk(node, sign):
        match node:
            case dsl.Add(a, b) | dsl.Sub(a, b):
                return walk(a, sign) + walk(
                    b, sign if isinstance(node, dsl.Add) else -sign)
            case dsl.Neg(a):
                return walk(a, -sign)
            case dsl.Lit(v) if v == 0:
                return []
        c, p, ex = monomial(node)
        return [(sign * c, p, ex)]

    return eta_expression(walk(e, 1))


def flattened(flatten, e):
    # a ValueError is an EtaMonomial refusing an index below 1, as in f0
    # built in code, where the parser refuses the text
    try:
        return flatten(e)
    except (QidError, ValueError) as exc:
        return str(exc)


# trees of eta-quotient nodes only, zero literals included
_eta_asts = st.recursive(
    st.one_of(_lits, st.just(dsl.Lit(Fraction(0))), st.just(dsl.Q()),
              st.builds(dsl.F, st.integers(1, 4))),
    lambda inner: st.one_of(
        st.builds(dsl.Add, inner, inner), st.builds(dsl.Sub, inner, inner),
        st.builds(dsl.Mul, inner, inner), st.builds(dsl.Div, inner, inner),
        st.builds(dsl.Neg, inner), st.builds(dsl.Pow, inner, _ints)),
    max_leaves=6)


@pytest.mark.parametrize("asts", [_asts, _eta_asts], ids=["any", "eta"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_expr_to_eta_matches_reference(asts, data):
    e = data.draw(asts)
    got = flattened(expr_to_eta, e)
    assert got == flattened(reference_expr_to_eta, e)
    if isinstance(got, EtaExpression):
        # integer numerators over one positive denominator, in lowest terms
        nums = [t.num for t in got.terms]
        assert all(type(n) is int for n in nums)
        assert got.den >= 1
        assert gcd(got.den, *nums) == 1


# -- eta forms: recorded by the parser, or found by the walk ----------------

def _nodes(root) -> list:
    """root's nodes, parents first, as dsl.eta_forms lists them."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(dsl.children(node))
    return out


def _strict(form, same=None):
    """A form that compares strictly: each coefficient with its type, each
    exponent map in its order, a Rejected by its reason and by the id of
    its node, mapped through same (an id to an id) where given."""
    def key(x):
        if type(x) is dsl.Rejected:
            return "rejected", x.reason, (same or {}).get(id(x.node), id(x.node))
        if x is True:
            return True
        c, p, ex = x
        return type(c), c, p, list(ex.items())
    return tuple(map(key, form))


def assert_forms_agree(src: str, e=None):
    """The forms parse records while it reads src equal, node for node,
    those dsl.eta_forms finds for e, a tree equal to the one parse
    returns (that tree itself when None)."""
    recorded = {}
    tree = parse(src, recorded)
    e = tree if e is None else e
    assert tree == e
    pairs = list(zip(_nodes(tree), _nodes(e)))
    assert recorded.keys() == {id(a) for a, _ in pairs}
    walked = dsl.eta_forms(e)
    same = {id(b): id(a) for a, b in pairs}
    for a, b in pairs:
        assert _strict(recorded[id(a)]) == _strict(walked[id(b)], same)


def test_forms_agree_on_every_registry_side(registry):
    sides = [s for r in registry if r.kind == "identity" for s in (r.lhs, r.rhs)]
    assert len(sides) == 96
    for src in sides:
        assert_forms_agree(src)


@pytest.mark.parametrize("asts", [_asts, _eta_asts], ids=["any", "eta"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_forms_agree_on_printed_trees(asts, data):
    e = data.draw(asts)
    try:
        tree = parse(print_expr(e))
    except QidError:  # a slot the parser refuses, as in f0 or J(q, -1)
        return
    # a negative literal prints as a negation, which the parser reads as
    # one: then the forms are compared on the tree it reads
    assert_forms_agree(print_expr(e), e if tree == e else None)


def test_a_refused_literal_power_waits_for_the_whole_input():
    # the parser records forms as it goes, but reports a literal power that
    # they refuse only once the input has parsed: a later syntax error
    # comes first, as when the forms were found after parsing
    big = "2^10000000000"
    with pytest.raises(dsl.ParseError, match="unexpected '\\)'"):
        parse(f"{big} + )", {})
    with pytest.raises(QidError, match="literal power") as info:
        parse(f"q + {big} + 3^10000000000", {})
    assert not isinstance(info.value, dsl.ParseError)
    tree = parse(f"q + {big} + 3^10000000000")
    with pytest.raises(QidError) as walked:
        dsl.eta_forms(tree)
    assert str(walked.value) == str(info.value)
    assert big in str(walked.value)


# -- a pass decided on lhs - rhs over its common eta denominator -------------

def two_sided(lhs: str, rhs: str, order: int):
    """The verdict of both sides evaluated on their own, as verify reached
    every verdict before a pass could be decided on lhs - rhs."""
    try:
        return compare_series(eval_expr(parse(lhs), order),
                              eval_expr(parse(rhs), order))
    except (QidError, ValueError) as exc:
        return VerificationOutcome("error", -1, None, str(exc))


def identity(lhs: str, rhs: str) -> IdentityRecord:
    return IdentityRecord(id="t", tier="core", anchor="", lhs=lhs, rhs=rhs)


def clears(lhs: str, rhs: str, order: int) -> bool:
    """Whether verify decides the pass on lhs - rhs alone."""
    forms = {}
    diff = dsl.record_form(dsl.Sub(parse(lhs, forms), parse(rhs, forms)),
                           forms)
    return engine._vanishes(diff, order, forms)


_coeffs = st.sampled_from(["1", "-1", "2", "(1/2)", "(-3/4)"])
_eta_monomials = st.builds(
    lambda c, a, es: f"{c}*q^{a}" + "".join(
        f"*f{k}^{e}" for k, e in zip((1, 2, 3, 4), es) if e),
    _coeffs, st.integers(-3, 3), st.lists(st.integers(-3, 3), min_size=4,
                                          max_size=4))
#: factors that are no eta quotient: Laurent ones (J(q^-2, 4),
#: SUBST(J(q^-1, 3), 2)), one that divides, so that its summand is not
#: cleared, and one that is refused (J(q^4, 4), identically zero)
_factors = st.sampled_from([
    "MT(B1)", "MT(A1)", "MT(MU2)", "EXTRACT(MT(B2), 2, 1)",
    "EXTRACT(MT(A1), 3, 0)", "AL(q, 4, -q^0)", "AL(q^0, 4, q^3)",
    "AL(-q, 4, -q^0)", "SUBST(MT(B1), 2)", "SUBST(J(-q, 2), 3)", "J(-q, 3)",
    "J(q^-2, 4)", "SUBST(J(q^-1, 3), 2)", "J(-q, 3)/J(-q^2, 4)",
    "J(q^4, 4)"])


@st.composite
def _sides(draw, depth=1):
    """A sum of eta monomials, factors times or over eta monomials, and,
    depth levels down, an eta monomial times such a sum."""
    kinds = ["mono*factor", "factor/mono", "mono", "factor"]
    if depth:
        kinds.append("mono*(side)")
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        mono, factor = draw(_eta_monomials), draw(_factors)
        terms.append({"mono*factor": f"{mono}*{factor}",
                      "factor/mono": f"{factor}/({mono})", "mono": mono,
                      "factor": factor}.get(kind) or
                     f"{mono}*({draw(_sides(depth - 1))})")
    return " + ".join(terms)


def _is_eta_sum(src: str) -> bool:
    forms = {}
    e = parse(src, forms)
    return forms[id(e)][1] is True


#: the registry identities whose two sides are eta-quotient sums, with
#: the terms of each lhs
_ETA_IDENTITIES = [(r.lhs, r.rhs, expr_to_eta(parse(r.lhs)).terms)
                   for r in load_registry() if r.kind == "identity"
                   and _is_eta_sum(r.lhs) and _is_eta_sum(r.rhs)]
_quotients = st.lists(st.integers(-3, 3), min_size=6, max_size=6).map(
    lambda es: "*".join([f"f{k}^{e}" for k, e in enumerate(es, 1)]))


@st.composite
def _identities(draw):
    """lhs and a rhs that is another side, lhs itself, lhs plus a
    monomial, or lhs times f1/f1; or a registry eta identity times an
    f1-f6 quotient, with one lhs term added to its rhs at times, so that
    that coefficient of lhs - rhs is off by one."""
    kind = draw(st.sampled_from(["other", "same", "plus", "f1/f1", "eta"]))
    if kind == "eta":
        lhs, rhs, terms = draw(st.sampled_from(_ETA_IDENTITIES))
        if draw(st.booleans()):
            t = draw(st.sampled_from(terms))
            rhs = f"{rhs} + q^{t.qpow}" + "".join(
                f"*f{k}^{e}" for k, e in t.exps)
        quotient = draw(_quotients)
        return f"({lhs})*{quotient}", f"({rhs})*{quotient}"
    lhs = draw(_sides())
    rhs = {"other": draw(_sides()), "same": lhs,
           "plus": f"{lhs} + q^{draw(st.integers(-3, 30))}",
           "f1/f1": f"({lhs})*f1/f1"}[kind]
    return lhs, rhs


@settings(max_examples=120, deadline=None)
@given(_identities(), st.integers(0, 30))
# an error of the lhs comes before a parse error or a refused literal
# power of the rhs, as when each side was read and evaluated in turn
@example(("J(q^4, 4)", "SUBST(q, 0)"), 5)
@example(("J(q^4, 4)", "2^10000000000"), 5)
@example(("MT(B1) + 2^10000000000", "SUBST(q, 0)"), 5)
# a factor whose summand lies above the order reaches back into it: -q^19
@example(("q^21*J(q^-2, 4) + MT(B1)", "MT(B1) - q^19"), 20)
@example(("q^21*J(q^-2, 4) + MT(B1)", "MT(B1) - q^19 + q^20"), 20)
# an eta term with coefficient 0 does not move the common denominator
@example(("0*f1^-5*f2 + MT(B1)", "MT(B1)"), 20)
@example(("0*f1^-5*f2 + MT(B1)", "MT(B1) + q^20"), 20)
# two factors share the cleared eta factor f1^2, at q^1 and q^3
@example(("q*f1*MT(B1) + q^3*f1*MT(A1) + 1/f1",
          "1/f1 + f1*(q*MT(B1) + q^3*MT(A1))"), 30)
@example(("q*f1*MT(B1) + q^3*f1*MT(A1) + 1/f1",
          "1/f1 + f1*(q*MT(B1) + q^3*MT(A1)) + q^25"), 30)
def test_cleared_pass_agrees_with_the_two_sides(ids, order):
    lhs, rhs = ids
    clear_all()
    want = two_sided(lhs, rhs, order)
    clear_all()
    assert verify(identity(lhs, rhs), order) == want
    if want.status == "fail":
        assert not clears(lhs, rhs, order)


@pytest.mark.parametrize("lhs, rhs", [
    # Euler's f_1 = j(q; q^3): the J group cancels the eta terms
    ("f2*J(q, 3)", "f1*f2"),
    # and two groups, with factors J(q, 3)*J(-q, 2) and J(-q, 2), cancel
    ("f2*J(q, 3)*J(-q, 2)", "f1*f2*J(-q, 2)")])
def test_a_factor_group_cancelling_eta_terms_clears(lhs, rhs):
    assert clears(lhs, rhs, 50)
    assert not clears(lhs, f"{rhs} + q^50", 50)


def test_a_refused_work_order_evaluates_no_factor(monkeypatch):
    # lhs - rhs needs work order 1000 + 7500, above MAX_WORK_ORDER: that
    # is refused before MT(B2) is summed, and the lhs reports it
    calls = []
    mt = engine.mock_theta_series
    monkeypatch.setattr(engine, "mock_theta_series",
                        lambda *a: calls.append(a) or mt(*a))
    clear_all()
    src = "q^-7500*f1 + MT(B2)"
    assert verify(identity(src, src), 1000) == VerificationOutcome(
        "error", -1, None,
        "evaluation would work at order 8500, above the limit 8000")
    assert calls == []


#: the identity records whose pass is not decided on lhs - rhs, since
#: they do not vanish.  hm-a-appell and the *-forms-agree records clear
#: with no eta denominator to clear, and the split-* records since SUBST
#: of an eta-quotient sum is one more eta-quotient sum
NOT_CLEARED = {"chan-mao-b4n1", "chan-mao-b4n2"}


def test_which_records_clear(registry):
    cleared = {r.id for r in registry if r.kind == "identity"
               and clears(r.lhs, r.rhs, r.default_order)}
    identities = {r.id for r in registry if r.kind == "identity"}
    assert len(identities) == 48 and len(cleared) == 46
    assert identities - cleared == NOT_CLEARED


def test_cleared_records_fail_where_the_two_sides_do(registry):
    # q^k added to the rhs: the pass is not decided on lhs - rhs, and the
    # two sides report the first mismatch at q^k
    for rec in registry:
        if rec.kind != "identity" or rec.id in NOT_CLEARED:
            continue
        order, k = 60, 41
        rhs = f"({rec.rhs}) + q^{k}"
        assert not clears(rec.lhs, rhs, order), rec.id
        out = verify(identity(rec.lhs, rhs), order)
        assert out == two_sided(rec.lhs, rhs, order), rec.id
        assert (out.status, out.first_mismatch[0]) == ("fail", k), rec.id


@pytest.mark.parametrize("rid", ["al-cube-a", "al-cube-b", "a-al-base36",
                                 "b-al-base36", "mu2-al-base36",
                                 "hm-b-appell"])
def test_each_appell_lerch_summand_is_evaluated_once(registry, rid,
                                                     monkeypatch):
    rec = {r.id: r for r in registry}[rid]
    calls = []
    al = engine.appell_lerch_m
    monkeypatch.setattr(engine, "appell_lerch_m",
                        lambda *a: calls.append(a) or al(*a))
    assert verify(rec).status == "pass"
    assert len(calls) == (rec.lhs + rec.rhs).count("AL(")


def test_a_failing_identity_builds_each_appell_lerch_sum_once(monkeypatch):
    # lhs - rhs builds AL(q, 4, q^2) and does not vanish; the two sides
    # then take it from the memo
    builds = []
    summed = appell_lerch._summed
    monkeypatch.setattr(appell_lerch, "_summed",
                        lambda *a: builds.append(a) or summed(*a))
    clear_all()
    out = verify(identity("MT(A1)", "-AL(q, 4, q^2) + q^140"), 150)
    assert out.first_mismatch == (140, 2717279628, 2717279629)
    assert len(builds) == 1


def test_long_sums_clear_in_loops():
    # 2000 eta terms, and a factor so that the summands are walked rather
    # than read as one eta sum, checked against themselves
    terms = "".join(f" + {k}*q^{k % 7}*f{k % 5 + 1}^{k % 3 - 1}"
                    for k in range(2000))
    for lhs in (terms[3:], f"MT(B1)/q{terms}"):
        assert clears(lhs, lhs, 20)
        assert verify(identity(lhs, lhs), 20) \
            == VerificationOutcome("pass", 20)


@pytest.mark.parametrize("quotient", ["f1^-3*f2^4*f3^2*f4^-1",
                                      "-3*q^2*f1^4*f2^-1*f3^-3*f4^2"])
def test_dissection_round_trip_is_not_cleared(quotient):
    # E = sum_r q^r*SUBST(EXTRACT(E, 3, r), 3) with E a quotient: each
    # EXTRACT inverts E's denominator either way, so the two sides decide
    # the pass rather than a cleared difference that would multiply each
    # group by the inverse of the common denominator as well
    rhs = " + ".join(f"q^{r}*SUBST(EXTRACT({quotient}, 3, {r}), 3)"
                     for r in range(3))
    assert not clears(quotient, rhs, 60)
    assert verify(identity(quotient, rhs), 60) \
        == VerificationOutcome("pass", 60)
