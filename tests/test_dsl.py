"""Expression DSL: parsing, precedence, printing, error reporting."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qid import ParseError, SignedMonomial, load_registry
from qid.dsl import (AL, MAX_NESTING, MT, Add, Div, Extract, F, Lit, Mul, Neg,
                     Pow, Q, Sub, parse, print_expr)


def test_eta_quotient_ast():
    e = parse("f2^7*f3^2/(f1^6*f4*f6)")
    assert isinstance(e, Div)
    assert e.left == Mul(Pow(F(2), 7), Pow(F(3), 2))


def test_appell_lerch_call():
    e = parse("-(1/q)*AL(q^0, 4, q^3)")
    assert isinstance(e, Mul)
    assert e.right == AL(SignedMonomial(1, 0), 4, SignedMonomial(1, 3))
    assert e.left == Neg(Div(Lit(Fraction(1)), Q()))


def test_precedence_and_associativity():
    assert parse("1+2*3") == Add(Lit(Fraction(1)),
                                 Mul(Lit(Fraction(2)), Lit(Fraction(3))))
    assert parse("8-3-2") == Sub(Sub(Lit(Fraction(8)), Lit(Fraction(3))),
                                 Lit(Fraction(2)))
    assert parse("2*f1^3") == Mul(Lit(Fraction(2)), Pow(F(1), 3))
    assert parse("-q^2") == Neg(Pow(Q(), 2))


def test_rational_literals():
    assert parse("3/4") == Lit(Fraction(3, 4))
    # a powered denominator is not folded into the literal
    assert parse("8/4^2") == Div(Lit(Fraction(8)), Pow(Lit(Fraction(4)), 2))


def test_signed_monomial_arguments():
    e = parse("AL(-q^3, 36, -q^0)")
    assert e == AL(SignedMonomial(-1, 3), 36, SignedMonomial(-1, 0))
    e = parse("MT(B2)")
    assert e == MT("B2")
    e = parse("EXTRACT(MT(B2), 3, 0)")
    assert e == Extract(MT("B2"), 3, 0)


def test_negative_exponents():
    e = parse("f1^-2")
    assert e == Pow(F(1), -2)
    e = parse("AL(q^-12, 36, -q^0)")
    assert e.x == SignedMonomial(1, -12)


def test_syntax_errors():
    for bad in ["q^", "AL(q, 4)", "f1 +", "(f1", "EXTRACT(f1, 3, 5)",
                "MT(Z9)", "1/0", "@", "", "SUBST(f1, 0)", "f0"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_error_location_and_expectation():
    with pytest.raises(ParseError) as info:
        parse("f1 + %")
    assert info.value.line == 1
    assert info.value.column == 6


_CALLS = ("'AL'", "'EXTRACT'", "'J'", "'MT'", "'P'", "'SUBST'")
_ATOM = ("'('", "'f<k>'", "'q'", "call", "number")
_END = ("end of input", "operator")


# (source, message, line, column, expected): an end-of-input error sits one
# column after the start of the last token, or at column 2 when there is none
@pytest.mark.parametrize("src, message, line, column, expected", [
    ("q^", "unexpected 'end of input' at line 1, column 3 (expected integer)",
     1, 3, ("integer",)),
    ("AL(q, 4)", "unexpected ')' at line 1, column 8 (expected ',')",
     1, 8, ("','",)),
    ("f1 +", "unexpected 'end of input' at line 1, column 5 (expected '(', "
     "'f<k>', 'q', call, number)", 1, 5, _ATOM),
    ("(f1", "unexpected 'end of input' at line 1, column 3 (expected ')')",
     1, 3, ("')'",)),
    ("EXTRACT(f1, 3, 5)", "EXTRACT residue 5 not in [0, 3) at line 1, column 17",
     1, 17, ()),
    ("MT(Z9)", "unexpected 'Z9' at line 1, column 4 (expected 'A1', 'A2', "
     "'B1', 'B2', 'MU2')", 1, 4, ("'A1'", "'A2'", "'B1'", "'B2'", "'MU2'")),
    ("1/0", "zero denominator in rational literal at line 1, column 1",
     1, 1, ()),
    ("@", "unexpected character '@' at line 1, column 1", 1, 1, ()),
    ("", "unexpected 'end of input' at line 1, column 2 (expected '(', "
     "'f<k>', 'q', call, number)", 1, 2, _ATOM),
    ("f1 + %", "unexpected character '%' at line 1, column 6", 1, 6, ()),
    ("f1 +\n  f2 *\n  @", "unexpected character '@' at line 3, column 3",
     3, 3, ()),
    ("EXTRACT(f1,\n 3, 7)",
     "EXTRACT residue 7 not in [0, 3) at line 2, column 6", 2, 6, ()),
    ("f1 +\n 2/0", "zero denominator in rational literal at line 2, column 2",
     2, 2, ()),
    ("SUBST(f1\n,2", "unexpected 'end of input' at line 2, column 3 "
     "(expected ')')", 2, 3, ("')'",)),
    ("  \n\n f1 ) ", "unexpected ')' at line 3, column 5 (expected end of "
     "input, operator)", 3, 5, _END),
    ("f1 f2", "unexpected 'f2' at line 1, column 4 (expected end of input, "
     "operator)", 1, 4, _END),
    ("AL(q, 4, 2)", "unexpected '2' at line 1, column 10 (expected '-q', 'q')",
     1, 10, ("'-q'", "'q'")),
    ("J(q^x, 3)", "unexpected 'x' at line 1, column 5 (expected integer)",
     1, 5, ("integer",)),
    ("f12 +\n", "unexpected 'end of input' at line 1, column 6 (expected "
     "'(', 'f<k>', 'q', call, number)", 1, 6, _ATOM),
    ("\n\n  @", "unexpected character '@' at line 3, column 3", 3, 3, ()),
    ("MT(\n A1", "unexpected 'end of input' at line 2, column 3 (expected "
     "')')", 2, 3, ("')'",)),
    ("ZZ(1)", "unexpected 'ZZ' at line 1, column 1 (expected 'AL', "
     "'EXTRACT', 'J', 'MT', 'P', 'SUBST', 'f<k>', 'q')",
     1, 1, _CALLS + ("'f<k>'", "'q'")),
    ("f1^2^3", "unexpected '^' at line 1, column 5 (expected end of input, "
     "operator)", 1, 5, _END),
    ("q^\n", "unexpected 'end of input' at line 1, column 3 (expected "
     "integer)", 1, 3, ("integer",)),
    ("\t(f1\t+\tq", "unexpected 'end of input' at line 1, column 9 "
     "(expected ')')", 1, 9, ("')'",)),
    ("SUBST(q, 0)", "SUBST power 0 is not positive at line 1, column 10",
     1, 10, ()),
    ("SUBST(f1,\n -2)", "SUBST power -2 is not positive at line 2, column 2",
     2, 2, ()),
    ("f0*f1", "unexpected 'f0' at line 1, column 1 (expected 'AL', "
     "'EXTRACT', 'J', 'MT', 'P', 'SUBST', 'f<k>', 'q')",
     1, 1, _CALLS + ("'f<k>'", "'q'")),
    ("f1 +\n  f00", "unexpected 'f00' at line 2, column 3 (expected 'AL', "
     "'EXTRACT', 'J', 'MT', 'P', 'SUBST', 'f<k>', 'q')",
     2, 3, _CALLS + ("'f<k>'", "'q'")),
])
def test_error_report_pinned(src, message, line, column, expected):
    with pytest.raises(ParseError) as info:
        parse(src)
    err = info.value
    assert (str(err), err.line, err.column, err.expected) == \
        (message, line, column, expected)


def test_leading_zeros_in_eta_index():
    assert parse("f01") == F(1)


def test_round_trip_simple():
    for src in ["f2^7*f3^2/(f1^6*f4*f6)", "-(1/q)*AL(q^0, 4, q^3)",
                "SUBST(EXTRACT(MT(MU2), 3, 1), 2)", "q^2 - 1/2",
                "J(-q, 3)*P(-q^2, 2, 5)", "((2^3)^-2)^4"]:
        ast = parse(src)
        assert parse(print_expr(ast)) == ast


def test_round_trip_registry():
    # every expression shipped in the registry reparses identically
    for rec in load_registry():
        for src in (rec.lhs, rec.rhs):
            if not src:
                continue
            ast = parse(src)
            assert parse(print_expr(ast)) == ast, rec.id


def test_nesting_bound():
    # the top level counts as one level, each parenthesis, call argument
    # and unary minus as one more
    deepest = "(" * (MAX_NESTING - 1) + "q" + ")" * (MAX_NESTING - 1)
    assert parse(deepest) == Q()
    assert parse("-" * (MAX_NESTING - 1) + "q").operand is not None
    for bad in ("(" + deepest + ")", "-" * MAX_NESTING + "q",
                "SUBST(" * MAX_NESTING + "q" + ", 1)" * MAX_NESTING):
        with pytest.raises(ParseError, match="nested more than 100 deep"):
            parse(bad)


def test_print_long_chains():
    # a left-deep chain thousands of nodes long prints flat, without
    # recursion, and parses back to the same tree
    for op in "+-*/":
        text = op.join(["f1"] * 3000)
        printed = print_expr(parse(text))
        assert printed == f"({text})"
        assert print_expr(parse(printed)) == printed


def full_parens(e):
    """print_expr as it was before chains printed flat: every binary node
    in its own parentheses."""
    match e:
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b):
            op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(e)]
            return f"({full_parens(a)}{op}{full_parens(b)})"
        case Neg(a):
            return f"(-{full_parens(a)})"
        case Pow(Pow() as a, n):
            return f"({full_parens(a)})^{n}"
        case Pow(a, n):
            return f"{full_parens(a)}^{n}"
    return print_expr(e)


# trees the parser can build, integer literals often, since a bare integer
# before "/" would be folded into a rational literal
_ints = st.integers(0, 9).map(lambda n: Lit(Fraction(n)))
_leaves = st.one_of(
    _ints, _ints, _ints,
    st.builds(lambda a, b: Lit(Fraction(a, b)), st.integers(0, 9),
              st.integers(2, 9)),
    st.just(Q()), st.integers(1, 12).map(F))
_trees = st.recursive(_leaves, lambda inner: st.one_of(
    st.builds(Add, inner, inner), st.builds(Sub, inner, inner),
    st.builds(Mul, inner, inner), st.builds(Div, inner, inner),
    st.builds(Neg, inner), st.builds(Pow, inner, st.integers(-3, 3))),
    max_leaves=12)


@given(_trees)
@example(Div(Mul(Q(), Lit(Fraction(3))), Lit(Fraction(4))))
@settings(max_examples=300, deadline=None)
def test_flat_chains_parse_as_full_parentheses(tree):
    def parsed(text):  # a literal n/0 is a ParseError either way
        try:
            return parse(text)
        except ParseError:
            return ParseError
    assert parsed(print_expr(tree)) == parsed(full_parens(tree))
