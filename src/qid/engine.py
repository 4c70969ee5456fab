"""Expression evaluation, the identity registry, and the verification harness.

The registry is a JSON data file; records come in three kinds:

  identity   -- lhs/rhs DSL expressions compared as series
  congruence -- coefficient(step*n + residue) == 0 (mod modulus) for n < count
  parity     -- coefficient parity matches the exact characterization
                "odd iff the index is twice a pronic number"

Tiers: "core" and "classical" must pass; "background" failures are reported
as transcription findings rather than suite failures.
"""

from __future__ import annotations

import functools
import json
import os
import time
from fractions import Fraction
from operator import add, sub

from . import dsl
from .appell_lerch import AppellLerchSpec, appell_lerch_m
from .certificate import certify
from .dissection import dissect_extract
from .errors import NotInvertibleError, QidError
from .mock_theta import mock_theta_series
from .outcome import VerificationOutcome, compare_series, int_str
from .qproducts import (EtaExpression, SignedMonomial, cleared_sum,
                        eta_expression, eta_expression_eval,
                        eta_expression_vanishes, theta_j)
from .record import Record
from .series import (MAX_INVERSE_BITS, MAX_LITERAL_BITS,
                     TruncatedLaurentSeries, check_bits, check_work_order,
                     checked_product)

TIERS = ("core", "classical", "background")


#: Largest `--order` (verify, suite) and `--upto` (coeffs) the CLI accepts.
#: Work grows faster than linearly in the order (direct summation takes
#: about N^2 coefficient steps, series products more, on coefficients that
#: grow with N), so an unbounded order could hang the machine or run it out
#: of memory; every registry record (at most 300) and every benchmark
#: listing (at most 500) stays below this.
MAX_ORDER = 1000

#: the binary nodes and the series operation each stands for.  A product,
#: of two factors or of a dividend and an inverse, is refused before it
#: may hold more than MAX_INVERSE_BITS, as much as one inverse may: so an
#: inverse times a small factor evaluates, and a chain of factors that
#: each pass their own checks stops at that size
_COMBINE = {
    dsl.Add: add, dsl.Sub: sub,
    dsl.Mul: lambda a, b: checked_product(a, b, "a series product",
                                          MAX_INVERSE_BITS),
    dsl.Div: lambda a, b: checked_product(a, b.invert(), "a series quotient",
                                          MAX_INVERSE_BITS)}


def _eval(e, n: int, forms: dict) -> TruncatedLaurentSeries:
    """One evaluation round at working order n.

    forms is _eta_forms of the tree eval_expr holds: a subtree that is an
    eta quotient goes to the normal form."""
    check_work_order(n)
    if forms[id(e)][1] is True:
        form = eta_expression([t[:3] for t in _summands(e, forms)])
        # through its lowest term at least, so that a divisor above q^n is
        # not all zero
        low = min((t.qpow for t in form.terms), default=0)
        check_work_order(n - low)
        return eta_expression_eval(form, max(n, low))
    if type(e) in _COMBINE:
        # x1 + x2 + ... + xk parses as a left-deep tree: its left side is
        # walked in a loop, not k calls deep
        spine = []
        while type(e) in _COMBINE and forms[id(e)][1] is not True:
            spine.append(e)
            e = e.left
        s = _eval(e, n, forms)
        for node in reversed(spine):
            s = _COMBINE[type(node)](s, _eval(node.right, n, forms))
        return s
    match e:
        case dsl.Neg(a):
            return -_eval(a, n, forms)
        case dsl.Pow(a, k):
            return _eval(a, n, forms).pow(k)
        case dsl.AL(x, base, z):
            return appell_lerch_m(AppellLerchSpec(x, base, z), n)
        case dsl.J(z, base):
            return theta_j(z, base, max(n, 0))
        case dsl.MT(sel):
            return mock_theta_series(sel, max(n, 0))
        case dsl.Extract(inner, m, r):
            return dissect_extract(_eval(inner, m * n + r, forms), m, r)
        case dsl.Subst(inner, m):
            inner_order = max(-(-(n - m + 1) // m), 0)
            # for m > n + 1 the inner series is its constant term, and the
            # window through q^(m-1) would be mostly zeros beyond q^n
            return _eval(inner, inner_order, forms).substitute_power(
                m, n if m > n + 1 else None)
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e, order: int, forms: dict | None = None) -> TruncatedLaurentSeries:
    """Evaluate to at least the requested truncation order.

    Every subtree that is an eta quotient (see expr_to_eta) goes to
    qproducts.eta_expression_eval as one normal form, which is exact
    through the order it is asked for; one pass of _eta_forms finds them
    all before the first round, unless the caller passes forms, the map
    _eta_forms made of a tree that holds e.  Elsewhere, inner divisions and
    Laurent factors can lose order; the loss is a fixed structural
    constant of the expression, so re-evaluating with the measured deficit
    as padding converges in a couple of rounds.  A divisor that is zero
    through the working order doubles the padding instead (8, 24, 56, ...),
    up to the requested order plus 64; a divisor still zero there is
    reported as not invertible.  This is the package's
    only order padding: every identity, including the change-of-z and
    cube-decomposition templates below, reaches its requested order here.
    No step may work above MAX_WORK_ORDER; such an evaluation raises
    QidError instead.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    pad = 0
    if forms is None:
        forms = _eta_forms(e)
    for _ in range(10):
        try:
            s = _eval(e, order + pad, forms)
        except NotInvertibleError:
            # a divisor is zero through the working order; its lowest term,
            # if it has one, may lie higher up
            pad = 2 * pad + 8
            if pad > order + 64:
                raise
            continue
        if s.order >= order:
            return s.truncate(order)
        pad += (order - s.order) + 4
    raise QidError(f"evaluation did not reach order {order}")


class _Rejected(Record):
    """Why a subtree is not an eta quotient: the reason and the node it
    names, rendered only when expr_to_eta reports it."""

    __slots__ = __match_args__ = ("reason", "node")

    def error(self) -> QidError:
        return QidError(f"{self.reason}: {dsl.print_expr(self.node)}")


def _reciprocal(c):
    """1/c for a nonzero int or Fraction c; an int stays one when c is +-1."""
    return c if c == 1 or c == -1 else Fraction(1, c)


def _times(a: dict, b: dict, sign: int) -> dict:
    """The exponent map {k: e} of a product (sign 1) or quotient (sign -1)
    of eta quotients with exponent maps a and b."""
    ex = dict(a)
    for k, v in b.items():
        ex[k] = ex.get(k, 0) + sign * v
    return ex


def _children(node) -> tuple:
    kind = type(node)
    if kind in _COMBINE:
        return node.left, node.right
    if kind is dsl.Pow:
        return (node.base,)
    if kind is dsl.Neg:
        return (node.operand,)
    if isinstance(node, dsl.Call):
        return node.operands()
    return ()


def _eta_forms(root) -> dict:
    """Every node's eta form, children before parents.

    Maps id(node) to (monomial, summable).  monomial is the node as one
    eta-quotient term (coeff, qpow, {k: e}) built from literals, q, f_k,
    *, /, ^ and unary minus; summable is True when the node is a sum of
    such terms (see _summands).  Where either fails it is a _Rejected naming
    the first offending node from the left.  A coefficient stays an int
    until a non-integral literal, or a division or negative power of a
    coefficient other than +-1, makes it a Fraction; a literal power
    estimated above MAX_LITERAL_BITS raises QidError.  The nodes are listed
    parents first from a stack and visited in reverse, so a sum of
    thousands of terms needs no recursion.  The caller keeps root alive
    while it reads the map."""
    forms: dict = {}
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(_children(node))
    for node in reversed(nodes):
        kind = type(node)
        if kind is dsl.Mul or kind is dsl.Div:
            ma, mb = forms[id(node.left)][0], forms[id(node.right)][0]
            if type(ma) is _Rejected:
                mono = ma
            elif type(mb) is _Rejected:
                mono = mb
            else:
                (ca, pa, ea), (cb, pb, eb) = ma, mb
                if kind is dsl.Mul:
                    mono = (ca * cb, pa + pb, _times(ea, eb, 1))
                elif cb:
                    mono = (ca * _reciprocal(cb), pa - pb, _times(ea, eb, -1))
                else:
                    mono = _Rejected("division by zero", node)
            summable = mono if type(mono) is _Rejected else True
        elif kind is dsl.Pow:
            mono = forms[id(node.base)][0]
            if type(mono) is not _Rejected:
                c, p, ex = mono
                k = node.exp
                if k < 0 and not c:
                    mono = _Rejected("division by zero", node)
                else:
                    if c not in (0, 1, -1):
                        check_bits(f"literal power {dsl.print_expr(node)}",
                                   abs(k) * max(c.numerator.bit_length(),
                                                c.denominator.bit_length()),
                                   MAX_LITERAL_BITS)
                    mono = (c ** k if k >= 0 else _reciprocal(c) ** -k, p * k,
                            {f: v * k for f, v in ex.items()})
            summable = mono if type(mono) is _Rejected else True
        elif kind is dsl.F:
            mono, summable = (1, 0, {node.k: 1}), True
        elif kind is dsl.Lit:
            v = node.value
            mono, summable = (v.numerator if v.denominator == 1 else v, 0, {}), True
        elif kind is dsl.Add or kind is dsl.Sub:
            sa, sb = forms[id(node.left)][1], forms[id(node.right)][1]
            mono = _Rejected("not an eta-quotient term", node)
            summable = sa if sa is not True else sb
        elif kind is dsl.Q:
            mono, summable = (1, 1, {}), True
        elif kind is dsl.Neg:
            mono, summable = forms[id(node.operand)]
            if type(mono) is not _Rejected:
                c, p, ex = mono
                mono = (-c, p, ex)
        else:
            mono = summable = _Rejected("not an eta-quotient term", node)
        forms[id(node)] = (mono, summable)
    return forms


def _summands(root, forms: dict) -> list | None:
    """root as a sum of summands (c, a, {k: e}, x), each c*q^a*prod f_k^e
    times a node x that is not an eta quotient, or x None; None when
    some such x holds a Div or a negative power.

    The eta monomials below root's sums and negations are its terms, left
    to right, zero literals left out: so an eta-quotient sum (see
    _eta_forms) is read into its normal form here as well.  Eta monomials
    are multiplied into sums, a quotient by an eta monomial into its
    dividend, and SUBST(E, m) of an eta-quotient sum E is the sum of E's
    terms with f_k -> f_(mk) and q^a -> q^(ma); any other node that
    _eta_forms finds no eta quotient is an x, MT, AL, EXTRACT, SUBST and J
    among them, or a sum or product of such nodes.  The summands are
    walked from a stack, so a sum of thousands of terms needs no
    recursion."""
    out = []
    stack = [(root, 1, 0, {})]
    while stack:
        node, c, a, ex = stack.pop()
        kind = type(node)
        if kind is dsl.Add or kind is dsl.Sub:
            stack.append((node.right, c if kind is dsl.Add else -c, a, ex))
            stack.append((node.left, c, a, ex))
        elif kind is dsl.Neg:
            stack.append((node.operand, -c, a, ex))
        elif kind is dsl.Lit and not node.value:
            pass
        elif type(mono := forms[id(node)][0]) is not _Rejected:
            mc, ma, mex = mono
            out.append((c * mc, a + ma, _times(ex, mex, 1) if ex else mex,
                        None))
        elif kind is dsl.Subst and forms[id(node.expr)][1] is True:
            m = node.m  # f_k -> f_(mk) and q^a -> q^(ma)
            out += [(c * tc, a + m * ta,
                     _times(ex, {m * k: e for k, e in tex.items()}, 1), None)
                    for tc, ta, tex, _ in _summands(node.expr, forms)]
        elif kind is dsl.Mul and type(forms[id(node.left)][0]) is not _Rejected:
            mc, ma, mex = forms[id(node.left)][0]
            stack.append((node.right, c * mc, a + ma, _times(ex, mex, 1)))
        elif kind is dsl.Mul and type(forms[id(node.right)][0]) is not _Rejected:
            mc, ma, mex = forms[id(node.right)][0]
            stack.append((node.left, c * mc, a + ma, _times(ex, mex, 1)))
        elif kind is dsl.Div and type(forms[id(node.right)][0]) is not _Rejected \
                and forms[id(node.right)][0][0]:
            mc, ma, mex = forms[id(node.right)][0]
            stack.append((node.left, c * _reciprocal(mc), a - ma,
                          _times(ex, mex, -1)))
        elif _divides(node):
            return None
        else:
            out.append((c, a, ex, node))
    return out


def _divides(root) -> bool:
    """Whether a Div or a negative power lies in root's tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        if type(node) is dsl.Div or type(node) is dsl.Pow and node.exp < 0:
            return True
        stack.extend(_children(node))
    return False


def _vanishes(diff, n: int, forms: dict) -> bool:
    """Whether diff = lhs - rhs is shown to vanish through q^n by products
    alone, with forms = _eta_forms(diff).

    A diff whose summands (see _summands) have no x is one eta-quotient
    sum.  The valence formula (qid.certificate) proves it zero once it
    vanishes through q^(a0 + B), a0 its least q-power, so when that lies
    at or below q^n only that much of its sum over its common eta
    denominator (qproducts.cleared_sum) is expanded: a proved sum is kept
    in the memo as zero through q^n, and a nonzero coefficient there
    fails at n as well.  When the certificate does not apply or its bound
    lies above q^n, that sum is expanded through q^n
    (qproducts.eta_expression_vanishes).

    Otherwise each x is evaluated through q^(n - a), the order its
    summand c*q^a*prod_k f_k^(e_k) leaves, and diff vanishes when its
    cleared sum does.  False when diff does not vanish, when an x
    divides, or on an error: the two sides then decide, as they alone
    can pin a first mismatch or report an error.  An x that divides is
    not cleared because its inverse is paid for either way, and clearing
    adds a product by the denominator's eta part to each group: the
    dissection round-trips sum_r q^r*SUBST(EXTRACT(E, m, r), m) of a
    quotient E pass sooner on the two sides."""
    try:
        summands = _summands(diff, forms)
        if summands is None:
            return False
        if all(x is None for _, _, _, x in summands):
            form = eta_expression([s[:3] for s in summands])
            check_work_order(n - min((t.qpow for t in form.terms), default=0))
            status = certify(form, n).status
            if status in ("proved", "nonzero"):
                return status == "proved"
            return eta_expression_vanishes(form, n)
        return cleared_sum(
            [(c, a, ex,
              None if x is None else eval_expr(x, max(n - a, 0), forms))
             for c, a, ex, x in summands], n)[0].is_zero()
    except (QidError, ValueError):
        return False


def expr_to_eta(e) -> EtaExpression:
    """Flatten an AST built from literals, q, f_k, *, /, ^, unary minus and
    sums into an EtaExpression; raises QidError on any other node kind."""
    forms = _eta_forms(e)
    summable = forms[id(e)][1]
    if summable is not True:
        raise summable.error()
    return eta_expression([t[:3] for t in _summands(e, forms)])


class IdentityRecord(Record):
    __slots__ = __match_args__ = (
        "id", "tier", "anchor", "kind", "lhs", "rhs", "default_order",
        "series", "step", "residue", "modulus", "count")
    _defaults = {"kind": "identity", "lhs": "", "rhs": "",
                 "default_order": 200, "series": "", "step": 0,
                 "residue": 0, "modulus": 0, "count": 0}

    def _check(self):
        """Each field has its registry JSON type and range; a QidError
        names the record and the field by its registry key."""
        name = f"record {self.id}"
        for key in ("id", "tier", "anchor", "kind", "lhs", "rhs", "series"):
            if not isinstance(getattr(self, key), str):
                raise QidError(f"{name}: field '{key}' must be a string")
        if self.tier not in TIERS:
            raise QidError(f"{name}: unknown tier {self.tier!r}")
        for key, value in (("order", self.default_order), ("step", self.step),
                           ("residue", self.residue),
                           ("modulus", self.modulus), ("count", self.count)):
            if type(value) is not int or value < 0:
                raise QidError(
                    f"{name}: field '{key}' must be a nonnegative integer")
        if self.default_order > MAX_ORDER:
            raise QidError(f"{name}: field 'order' {self.default_order} "
                           f"exceeds the maximum order {MAX_ORDER}")
        top = {"congruence": self.step * (self.count - 1) + self.residue,
               "parity": self.count - 1}.get(self.kind, 0)
        if top > MAX_ORDER:
            raise QidError(f"{name}: field 'count' reaches coefficient {top}, "
                           f"above the maximum order {MAX_ORDER}")


#: the bundled registry, read from the package directory
REGISTRY_PATH = os.path.join(os.path.dirname(__file__), "data", "registry.json")


def load_registry(path=None) -> tuple[IdentityRecord, ...]:
    """The records of the registry file at path, checked field by field;
    QidError, OSError or json.JSONDecodeError says why a file is refused.

    The bundled registry (path None) is read and checked once per process
    and the same tuple is returned from then on; a file named by path is
    read on every call, so an edit between two calls is seen."""
    if path is None:
        return _bundled_registry()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise QidError("registry lacks a 'records' list")
    records = []
    for i, entry in enumerate(doc["records"]):
        if not isinstance(entry, dict):
            raise QidError(f"registry record {i} is not an object")
        try:
            # positional, in field order: the fast path of Record.__init__
            rec = IdentityRecord(
                entry["id"], entry["tier"], entry.get("anchor", ""),
                entry.get("kind", "identity"),
                entry.get("lhs", ""), entry.get("rhs", ""), entry.get("order", 200),
                entry.get("series", ""), entry.get("step", 0),
                entry.get("residue", 0), entry.get("modulus", 0),
                entry.get("count", 0))
        except KeyError as exc:
            raise QidError(f"registry record {i} lacks the key {exc}") from None
        records.append(rec)
    ids = [r.id for r in records]
    if len(ids) != len(set(ids)):
        raise QidError("duplicate record ids in registry")
    return tuple(records)


@functools.cache
def _bundled_registry() -> tuple[IdentityRecord, ...]:
    return load_registry(REGISTRY_PATH)


def _oracle_numerators(sel: str, top: int, indices: range):
    """(the coefficients of q^0 .. q^top of mock theta sel as ints, None),
    or (None, the error outcome naming the first of indices whose
    coefficient is not an integer).  The oracle sums integer terms, so its
    den is 1; the check is made once, before any coefficient is read."""
    series = mock_theta_series(sel, top)
    nums, den = series.coeffs, series.den
    if den != 1:
        for idx in indices:
            if nums[idx] % den:
                return None, VerificationOutcome(
                    "error", top, None, f"non-integer coefficient at index "
                    f"{idx}: {Fraction(nums[idx], den)}")
        nums = [c // den for c in nums]
    return nums, None


def check_congruence(sel: str, step: int, residue: int, modulus: int,
                     count: int) -> VerificationOutcome:
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if not 0 <= residue < step:
        raise ValueError("residue must satisfy 0 <= residue < step")
    if count < 1:
        raise ValueError("count must be positive")
    top = step * (count - 1) + residue
    indices = range(residue, top + 1, step)
    nums, error = _oracle_numerators(sel, top, indices)
    if error is not None:
        return error
    idx = next((i for i in indices if nums[i] % modulus), None)
    if idx is not None:
        return VerificationOutcome(
            "fail", top, (idx, Fraction(nums[idx] % modulus), Fraction(0)),
            f"coefficient({idx}) = {nums[idx]} is not 0 mod {modulus}")
    return VerificationOutcome("pass", top, None,
                               f"{count} coefficients divisible by {modulus}")


def check_parity_characterization(sel: str, count: int) -> VerificationOutcome:
    """Coefficient is odd exactly at indices 2k^2+2k (k >= 0)."""
    top = count - 1
    nums, error = _oracle_numerators(sel, top, range(count))
    if error is not None:
        return error
    expected = [0] * count
    k = 0
    while 2 * k * k + 2 * k <= top:
        expected[2 * k * k + 2 * k] = 1
        k += 1
    parities = [c % 2 for c in nums]
    if parities != expected:
        n = next(i for i, (p, e) in enumerate(zip(parities, expected)) if p != e)
        return VerificationOutcome(
            "fail", top, (n, Fraction(parities[n]), Fraction(expected[n])),
            f"parity of coefficient({n}) breaks the characterization")
    return VerificationOutcome("pass", top, None,
                               f"parity characterization holds for n <= {top}")


def verify(rec: IdentityRecord, order: int | None = None) -> VerificationOutcome:
    """The verdict on one record at order (its own when None).

    An identity passes when lhs - rhs, one tree whose eta forms both
    sides then share, vanishes over its common eta denominator (see
    _vanishes), which takes no inversion of an eta quotient; when lhs -
    rhs is one eta-quotient sum, the valence formula may prove it zero
    from fewer coefficients than the order.  Any other identity is
    decided by its two sides, each evaluated through the order: they
    alone pin a first mismatch or report an error, so every fail and
    every error reads as if the difference had not been tried."""
    try:
        if rec.kind == "identity":
            n = order if order is not None else rec.default_order
            lhs, rhs, forms = dsl.parse(rec.lhs), None, None
            try:
                rhs = dsl.parse(rec.rhs)
                diff = dsl.Sub(lhs, rhs)
                forms = _eta_forms(diff)
            except QidError:
                pass  # the lhs, evaluated first, may report its own error
            else:
                if _vanishes(diff, n, forms):
                    return VerificationOutcome("pass", n)
            left = eval_expr(lhs, n, forms)
            if rhs is None:
                rhs = dsl.parse(rec.rhs)
            return compare_series(left, eval_expr(rhs, n, forms))
        if rec.kind == "congruence":
            return check_congruence(rec.series, rec.step, rec.residue,
                                    rec.modulus, rec.count)
        if rec.kind == "parity":
            return check_parity_characterization(rec.series, rec.count)
        return VerificationOutcome("error", -1, None,
                                   f"unknown record kind {rec.kind!r}")
    except (QidError, ValueError) as exc:
        return VerificationOutcome("error", -1, None, str(exc))


def change_z_exprs(x: SignedMonomial, base: int, z1: SignedMonomial,
                   z0: SignedMonomial) -> tuple[str, str]:
    """The change-of-z identity as an (lhs, rhs) pair of DSL strings:
    m(x,Q,z1) - m(x,Q,z0)
      = z0 f_base^3 j(z1/z0) j(x z0 z1) / (j(z0) j(z1) j(x z0) j(x z1)),
    with Q = q^base and every j taken at Q."""
    def j(z):
        return f"J({z}, {base})"
    lhs = f"AL({x}, {base}, {z1}) - AL({x}, {base}, {z0})"
    rhs = (f"{z0}*f{base}^3*{j(z1.times(z0.inverse()))}*{j(x.times(z0).times(z1))}"
           f"/({j(z0)}*{j(z1)}*{j(x.times(z0))}*{j(x.times(z1))})")
    return lhs, rhs


def cube_decomposition_exprs(x: SignedMonomial, base: int) -> tuple[str, str]:
    """The decomposition of m(x,Q,-1) into three m(.,Q^9,-1) values plus an
    eta/theta correction, at x = eps*q^a and Q = q^base, as an (lhs, rhs)
    pair of DSL strings."""
    a, ex = x.exp, x.sign
    sm = SignedMonomial

    def m9(e):
        return f"AL({sm(ex, e)}, {9 * base}, -q^0)"
    lhs = f"AL({x}, {base}, -q^0)"
    rhs = (f"{m9(3 * a + 3 * base)} + {sm(-ex, a - base)}*{m9(3 * a)}"
           f" + {sm(1, 2 * a - 3 * base)}*{m9(3 * a - 3 * base)}"
           f" + ({Fraction(ex, 2)})*{sm(1, a - base)}*f{base}*f{3 * base}^2"
           f"*f{6 * base}*f{9 * base}*J({sm(1, 2 * a + base)}, {2 * base})"
           f"/(f{2 * base}^2*f{18 * base}^2*J({sm(-ex, 3 * a)}, {3 * base}))")
    return lhs, rhs


class SuiteResult(Record):
    __slots__ = __match_args__ = ("record", "outcome", "elapsed_ms")


def run_suite(records, tier_filter: str | None = None,
              order: int | None = None) -> list[SuiteResult]:
    selected = sorted((r for r in records
                       if tier_filter is None or r.tier == tier_filter),
                      key=lambda r: r.id)
    results = []
    for rec in selected:
        t0 = time.perf_counter()
        out = verify(rec, order)
        results.append(SuiteResult(rec, out, (time.perf_counter() - t0) * 1e3))
    return results


def _frac_str(f: Fraction) -> str:
    return f"{int_str(f.numerator)}/{int_str(f.denominator)}"


def report_json(results) -> list[dict]:
    report = []
    for r in sorted(results, key=lambda s: s.record.id):
        mismatch = None
        if r.outcome.first_mismatch is not None:
            e, cl, cr = r.outcome.first_mismatch
            mismatch = {"exponent": e, "lhs": _frac_str(cl), "rhs": _frac_str(cr)}
        report.append({
            "id": r.record.id,
            "tier": r.record.tier,
            "status": r.outcome.status,
            "compared_order": r.outcome.compared_order,
            "first_mismatch": mismatch,
            "elapsed_ms": round(r.elapsed_ms, 3),
            "message": r.outcome.message,
        })
    return report
