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
from operator import add, mul, sub

from . import dsl
from .appell_lerch import AppellLerchSpec, appell_lerch_m
from .dissection import dissect_extract
from .errors import NotInvertibleError, QidError
from .mock_theta import mock_theta_series
from .outcome import VerificationOutcome, compare_series, int_str
from .qproducts import (MAX_WORK_ORDER, EtaExpression, SignedMonomial,
                        check_work_order, eta_expression, eta_expression_eval,
                        pochhammer_finite, theta_j)
from .record import Record
from .series import TruncatedLaurentSeries

TIERS = ("core", "classical", "background")


#: Largest `--order` (verify, suite) and `--upto` (coeffs) the CLI accepts.
#: Work grows faster than linearly in the order (direct summation takes
#: about N^2 coefficient steps, series products more, on coefficients that
#: grow with N), so an unbounded order could hang the machine or run it out
#: of memory; every registry record (at most 300) and every benchmark
#: listing (at most 500) stays below this.
MAX_ORDER = 1000

#: Most bits a power may hold, estimated before it is computed: for a
#: literal c^k, |k| times the bit length of c's numerator or denominator;
#: for a series, see _check_power_bits.  64 bits for each coefficient of a
#: series at MAX_WORK_ORDER; 2^20000 is well inside the bound.
MAX_LITERAL_BITS = 64 * MAX_WORK_ORDER

def _check_power_bits(node, s: TruncatedLaurentSeries, k: int) -> None:
    """Refuse s^k, k > 1, estimated above MAX_LITERAL_BITS before it is
    computed.  With c_0, c_1, ... the numerators of s from its lowest term,
    |c_i| <= |c_0| R^i and S = sum |c_i|, the j-th numerator of s^k is at
    most S^k and at most |c_0|^k R^j C(k+j-1, j), the coefficient of
    c_0^k/(1 - Rq)^k; the denominator is at most s.den^k."""
    low = s.lowest_nonzero()
    if k < 2 or low is None:
        return
    cs = s.coeffs[low - s.min_exp:]
    j, h = len(cs) - 1, abs(cs[0]).bit_length() - 1
    growth = max([0] + [-(-j * ((abs(a) - 1).bit_length() - h) // i)
                        for i, a in enumerate(cs) if i and a])
    each = min(k * (sum(map(abs, cs)) - 1).bit_length(),
               k * (abs(cs[0]) - 1).bit_length() + growth
               + min(j, k - 1) * (k + j - 2).bit_length())
    bits = len(cs) * each + k * (s.den - 1).bit_length()
    if bits > MAX_LITERAL_BITS:
        raise QidError(f"power {dsl.print_expr(node)} would hold about {bits} "
                       f"bits, above the limit {MAX_LITERAL_BITS}")


#: the binary nodes and the series operation each stands for
_COMBINE = {dsl.Add: add, dsl.Sub: sub, dsl.Mul: mul,
            dsl.Div: lambda a, b: a * b.invert()}


def _eval(e, n: int, forms: dict) -> TruncatedLaurentSeries:
    """One evaluation round at working order n.

    forms is _eta_forms of the tree eval_expr holds: a subtree that is an
    eta quotient goes to the normal form."""
    check_work_order(n)
    if forms[id(e)][1] is True:
        form = eta_expression(_terms(e, forms))
        # through its lowest term at least, so that a divisor above q^n is
        # not all zero
        low = min((t.qpow for t in form.terms if t.coeff), default=0)
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
            s = _eval(a, n, forms)
            if k < 0:
                s, k = s.invert(), -k
            _check_power_bits(e, s, k)
            return s.pow(k)
        case dsl.AL(x, base, z):
            return appell_lerch_m(AppellLerchSpec(x, base, z), n)
        case dsl.J(z, base):
            return theta_j(z, base, max(n, 0))
        case dsl.P(a, step, count):
            return pochhammer_finite(a, step, count, max(n, 0))
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


def eval_expr(e, order: int) -> TruncatedLaurentSeries:
    """Evaluate to at least the requested truncation order.

    Every subtree that is an eta quotient (see expr_to_eta) goes to
    qproducts.eta_expression_eval as one normal form, which is exact
    through the order it is asked for; one pass of _eta_forms finds them
    all before the first round.  Elsewhere, inner divisions and
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


def _children(node) -> tuple:
    kind = type(node)
    if kind in _COMBINE:
        return node.left, node.right
    if kind is dsl.Pow:
        return (node.base,)
    if kind is dsl.Neg:
        return (node.operand,)
    if kind is dsl.Extract or kind is dsl.Subst:
        return (node.expr,)
    return ()


def _eta_forms(root) -> dict:
    """Every node's eta form, children before parents.

    Maps id(node) to (monomial, summable).  monomial is the node as one
    eta-quotient term (coeff, qpow, {k: e}) built from literals, q, f_k,
    *, /, ^ and unary minus; summable is True when the node is a sum of
    such terms (see _terms).  Where either fails it is a _Rejected naming
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
                ex = dict(ea)
                if kind is dsl.Mul:
                    for k, v in eb.items():
                        ex[k] = ex.get(k, 0) + v
                    mono = (ca * cb, pa + pb, ex)
                elif cb:
                    for k, v in eb.items():
                        ex[k] = ex.get(k, 0) - v
                    mono = (ca * _reciprocal(cb), pa - pb, ex)
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
                        bits = abs(k) * max(c.numerator.bit_length(),
                                            c.denominator.bit_length())
                        if bits > MAX_LITERAL_BITS:
                            raise QidError(
                                f"literal power {dsl.print_expr(node)} would "
                                f"hold about {bits} bits, above the limit "
                                f"{MAX_LITERAL_BITS}")
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


def _terms(e, forms: dict) -> list:
    """The terms (coeff, qpow, {k: e}) of a node that _eta_forms found
    summable, left to right: the monomials below its sums and negations,
    zero literals left out."""
    terms = []
    stack = [(e, 1)]
    while stack:
        node, sign = stack.pop()
        kind = type(node)
        if kind is dsl.Add or kind is dsl.Sub:
            stack.append((node.right, sign if kind is dsl.Add else -sign))
            stack.append((node.left, sign))
        elif kind is dsl.Neg:
            stack.append((node.operand, -sign))
        elif kind is not dsl.Lit or node.value:
            c, p, ex = forms[id(node)][0]
            terms.append((c if sign > 0 else -c, p, ex))
    return terms


def expr_to_eta(e) -> EtaExpression:
    """Flatten an AST built from literals, q, f_k, *, /, ^, unary minus and
    sums into an EtaExpression; raises QidError on any other node kind."""
    forms = _eta_forms(e)
    summable = forms[id(e)][1]
    if summable is not True:
        raise summable.error()
    return eta_expression(_terms(e, forms))


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


def check_congruence(sel: str, step: int, residue: int, modulus: int,
                     count: int) -> VerificationOutcome:
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if not 0 <= residue < step:
        raise ValueError("residue must satisfy 0 <= residue < step")
    if count < 1:
        raise ValueError("count must be positive")
    top = step * (count - 1) + residue
    series = mock_theta_series(sel, top)
    for n in range(count):
        idx = step * n + residue
        c = series.coefficient(idx)
        if c.denominator != 1:
            return VerificationOutcome(
                "error", top, None, f"non-integer coefficient at index {idx}: {c}")
        if c.numerator % modulus != 0:
            return VerificationOutcome(
                "fail", top, (idx, Fraction(c.numerator % modulus), Fraction(0)),
                f"coefficient({idx}) = {c} is not 0 mod {modulus}")
    return VerificationOutcome("pass", top, None,
                               f"{count} coefficients divisible by {modulus}")


def check_parity_characterization(sel: str, count: int) -> VerificationOutcome:
    """Coefficient is odd exactly at indices 2k^2+2k (k >= 0)."""
    top = count - 1
    series = mock_theta_series(sel, top)
    odd_set = set()
    k = 0
    while 2 * k * k + 2 * k <= top:
        odd_set.add(2 * k * k + 2 * k)
        k += 1
    for n in range(count):
        c = series.coefficient(n)
        if c.denominator != 1:
            return VerificationOutcome("error", top, None,
                                       f"non-integer coefficient at index {n}: {c}")
        expected = 1 if n in odd_set else 0
        if c.numerator % 2 != expected:
            return VerificationOutcome(
                "fail", top, (n, Fraction(c.numerator % 2), Fraction(expected)),
                f"parity of coefficient({n}) breaks the characterization")
    return VerificationOutcome("pass", top, None,
                               f"parity characterization holds for n <= {top}")


def verify(rec: IdentityRecord, order: int | None = None) -> VerificationOutcome:
    try:
        if rec.kind == "identity":
            n = order if order is not None else rec.default_order
            lhs = eval_expr(dsl.parse(rec.lhs), n)
            rhs = eval_expr(dsl.parse(rec.rhs), n)
            return compare_series(lhs, rhs)
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


def change_z_identity_check(x: SignedMonomial, base: int, z1: SignedMonomial,
                            z0: SignedMonomial, order: int) -> VerificationOutcome:
    """m(x,Q,z1) - m(x,Q,z0) against the theta-quotient right-hand side."""
    if z1 == z0:  # the rhs factor j(q^0;Q) vanishes, so it cannot be evaluated
        return VerificationOutcome("pass", order, None,
                                   "z1 = z0: both sides vanish identically")
    lhs, rhs = change_z_exprs(x, base, z1, z0)
    return verify(IdentityRecord(id="change-z", tier="core", anchor="",
                                 lhs=lhs, rhs=rhs), order)


def cube_decomposition_check(x: SignedMonomial, base: int,
                             order: int) -> VerificationOutcome:
    """m(x,Q,-1) against its cubic decomposition, instantiated at x, Q = q^base."""
    lhs, rhs = cube_decomposition_exprs(x, base)
    return verify(IdentityRecord(id="cube-decomposition", tier="core",
                                 anchor="", lhs=lhs, rhs=rhs), order)


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
