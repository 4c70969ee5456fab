"""The eta-quotient normal form against plain node-by-node evaluation.

`eval_expr` sends every subtree that `expr_to_eta` accepts through
`eta_expression_eval`, which factors out q^(min a) prod f_k^(min(0, e)) and
inverts once.  The reference here evaluates the same AST one node at a time,
as series arithmetic on f_k built as finite products, with its own
pad-and-retry loop; both must give the same coefficients and the same
order.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qid import NotInvertibleError, QidError, dissect_extract, eval_expr
from qid import dsl
from qid.engine import _eta_forms, _eval
from qid.qproducts import mul_one_minus
from qid.series import TruncatedLaurentSeries as S


def plain_eval(e, n: int) -> S:
    match e:
        case dsl.Lit(v):
            return S.from_terms({0: v}, max(n, 0))
        case dsl.Q():
            return S.monomial(1, max(n, 1))
        case dsl.F(k):  # the product (1 - q^k)...(1 - q^(k*(n//k)))
            s = S.one(max(n, 0))
            for d in range(k, n + 1, k):
                s = mul_one_minus(s, 1, d)
            return s
        case dsl.Add(a, b):
            return plain_eval(a, n) + plain_eval(b, n)
        case dsl.Sub(a, b):
            return plain_eval(a, n) - plain_eval(b, n)
        case dsl.Mul(a, b):
            return plain_eval(a, n) * plain_eval(b, n)
        case dsl.Div(a, b):
            return plain_eval(a, n) * plain_eval(b, n).invert()
        case dsl.Neg(a):
            return -plain_eval(a, n)
        case dsl.Pow(a, k):
            return plain_eval(a, n).pow(k)
        case dsl.Extract(inner, m, r):
            return dissect_extract(plain_eval(inner, m * n + r), m, r)
        case dsl.Subst(inner, m):
            return plain_eval(inner, max(-(-(n - m + 1) // m), 0)).substitute_power(m)
    raise TypeError(e)


def reference(e, order: int) -> S | None:
    """plain_eval padded and retried on eval_expr's schedule, or None when
    a divisor is zero at every pad eval_expr tries.

    Its order bookkeeping is loose (q at order 0 is a window [0, 1], so
    q*q is known to q^1 only and q/(q*q) divides by an all-zero window),
    where the normal form is exact; a higher order, truncated, is the same
    series."""
    pad = 0
    for _ in range(10):
        try:
            s = plain_eval(e, order + pad)
        except NotInvertibleError:
            pad = 2 * pad + 8
            if pad > order + 64:
                return None
            continue
        if s.order >= order:
            return s.truncate(order)
        pad += (order - s.order) + 4
    raise QidError(f"evaluation did not reach order {order}")


literals = st.builds(lambda a, b: dsl.Lit(Fraction(a, b)),
                     st.integers(-3, 3), st.integers(1, 3))
atoms = st.one_of(literals, st.just(dsl.Q()),
                  st.integers(1, 4).map(dsl.F))
# q^a and f_k^e with a and e of either sign, and products and quotients of
# them: single monomials
powers = st.builds(dsl.Pow, atoms, st.integers(-4, 4))
factors = st.one_of(atoms, powers)
monomials = st.recursive(
    factors,
    lambda inner: st.one_of(st.builds(dsl.Mul, inner, inner),
                            st.builds(dsl.Div, inner, inner),
                            st.builds(dsl.Neg, inner),
                            st.builds(dsl.Pow, inner, st.integers(-3, 3))),
    max_leaves=4)
# sums, differences of equal summands that cancel to zero, and powers of
# sums, which are not eta quotients themselves but have eta operands
sums = st.recursive(
    monomials,
    lambda inner: st.one_of(st.builds(dsl.Add, inner, inner),
                            st.builds(dsl.Sub, inner, inner),
                            inner.map(lambda x: dsl.Sub(x, x)),
                            st.builds(dsl.Pow, inner, st.integers(-2, 2))),
    max_leaves=4)


@st.composite
def eta_asts(draw):
    """An eta-quotient AST, as is or as the operand of EXTRACT or SUBST."""
    e = draw(sums)
    wrap = draw(st.sampled_from(("none", "extract", "subst")))
    if wrap == "extract":
        m = draw(st.integers(1, 3))
        return dsl.Extract(e, m, draw(st.integers(0, m - 1)))
    if wrap == "subst":
        return dsl.Subst(e, draw(st.integers(1, 3)))
    return e


@settings(max_examples=300, deadline=None)
@given(eta_asts(), st.integers(0, 30))
# a divisor whose lowest term lies 40 orders up: pads 8, 24 and 56
@example(dsl.Pow(dsl.Add(dsl.Pow(dsl.Q(), 40), dsl.Pow(dsl.Q(), 41)), -1), 0)
def test_normal_form_matches_node_by_node(e, n):
    want = reference(e, n)
    if want is None:  # a division by zero: the normal form refuses it too
        with pytest.raises(QidError):
            eval_expr(e, n)
        return
    got = eval_expr(e, n)
    assert got == want and got.order == want.order == n
    # one round: each side agrees with the other wherever both are known
    try:
        want = plain_eval(e, n)
    except QidError:
        return
    got = _eval(e, n, _eta_forms(e))
    common = min(got.order, want.order)
    assert got.truncate(common) == want.truncate(common)
