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

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import dsl
from .appell_lerch import AppellLerchSpec, appell_lerch_m
from .dissection import dissect_extract
from .errors import QidError
from .mock_theta import mock_theta_series
from .outcome import VerificationOutcome, compare_series
from .qproducts import (EtaExpression, eta_expression, eta_f, eta_power,
                        pochhammer_finite, theta_j)
from .series import TruncatedLaurentSeries

TIERS = ("core", "classical", "background")


def _eval(e, n: int) -> TruncatedLaurentSeries:
    match e:
        case dsl.Lit(v):
            return TruncatedLaurentSeries.from_terms({0: v}, max(n, 0))
        case dsl.Q():
            return TruncatedLaurentSeries.monomial(1, max(n, 1))
        case dsl.F(k):
            return eta_f(k, max(n, 0))
        case dsl.Add(a, b):
            return _eval(a, n) + _eval(b, n)
        case dsl.Sub(a, b):
            return _eval(a, n) - _eval(b, n)
        case dsl.Mul(a, b):
            return _eval(a, n) * _eval(b, n)
        case dsl.Div(a, b):
            return _eval(a, n) * _eval(b, n).invert()
        case dsl.Neg(a):
            return -_eval(a, n)
        case dsl.Pow(dsl.F(k), power):
            return eta_power(k, power, max(n, 0))
        case dsl.Pow(a, k):
            return _eval(a, n).pow(k)
        case dsl.AL(x, base, z):
            return appell_lerch_m(AppellLerchSpec(x, base, z), n)
        case dsl.J(z, base):
            return theta_j(z, base, max(n, 0))
        case dsl.P(a, step, count):
            return pochhammer_finite(a, step, count, max(n, 0))
        case dsl.MT(sel):
            return mock_theta_series(sel, max(n, 0))
        case dsl.Extract(inner, m, r):
            return dissect_extract(_eval(inner, m * n + r), m, r)
        case dsl.Subst(inner, m):
            inner_order = max(-(-(n - m + 1) // m), 0)
            return _eval(inner, inner_order).substitute_power(m)
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e, order: int) -> TruncatedLaurentSeries:
    """Evaluate to at least the requested truncation order.

    Inner divisions and Laurent factors can lose order; the loss is a fixed
    structural constant of the expression, so re-evaluating with the
    measured deficit as padding converges in a couple of rounds.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    pad = 0
    for _ in range(10):
        s = _eval(e, order + pad)
        if s.order >= order:
            return s.truncate(order)
        pad += (order - s.order) + 4
    raise QidError(f"evaluation did not reach order {order}")


def expr_to_eta(e) -> EtaExpression:
    """Flatten an AST built from literals, q, f_k, *, /, ^, unary minus and
    sums into an EtaExpression; raises on any other node kind."""

    def monomial(node) -> tuple[Fraction, int, dict[int, int]]:
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
            case dsl.Mul(a, b):
                ca, pa, ea = monomial(a)
                cb, pb, eb = monomial(b)
                for k, v in eb.items():
                    ea[k] = ea.get(k, 0) + v
                return ca * cb, pa + pb, ea
            case dsl.Div(a, b):
                ca, pa, ea = monomial(a)
                cb, pb, eb = monomial(b)
                for k, v in eb.items():
                    ea[k] = ea.get(k, 0) - v
                return ca / cb, pa - pb, ea
            case dsl.Pow(a, k):
                c, p, ex = monomial(a)
                return c ** k, p * k, {f: v * k for f, v in ex.items()}
        raise QidError(f"not an eta-quotient term: {dsl.print_expr(node)}")

    terms: list[tuple[Fraction, int, dict[int, int]]] = []

    def walk(node, negate: bool):
        match node:
            case dsl.Add(a, b):
                walk(a, negate)
                walk(b, negate)
            case dsl.Sub(a, b):
                walk(a, negate)
                walk(b, not negate)
            case dsl.Neg(a):
                walk(a, not negate)
            case dsl.Lit(v) if v == 0:
                pass
            case _:
                c, p, ex = monomial(node)
                terms.append((-c if negate else c, p, ex))

    walk(e, False)
    return eta_expression(terms)


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    tier: str
    anchor: str
    kind: str = "identity"
    lhs: str = ""
    rhs: str = ""
    default_order: int = 200
    series: str = ""
    step: int = 0
    residue: int = 0
    modulus: int = 0
    count: int = 0


def load_registry(path=None) -> list[IdentityRecord]:
    if path is None:
        raw = resources.files("qid").joinpath("data/registry.json").read_text()
    else:
        with open(path) as fh:
            raw = fh.read()
    doc = json.loads(raw)
    records = []
    for entry in doc["records"]:
        rec = IdentityRecord(
            id=entry["id"], tier=entry["tier"], anchor=entry.get("anchor", ""),
            kind=entry.get("kind", "identity"),
            lhs=entry.get("lhs", ""), rhs=entry.get("rhs", ""),
            default_order=entry.get("order", 200),
            series=entry.get("series", ""), step=entry.get("step", 0),
            residue=entry.get("residue", 0), modulus=entry.get("modulus", 0),
            count=entry.get("count", 0))
        if rec.tier not in TIERS:
            raise QidError(f"record {rec.id}: unknown tier {rec.tier!r}")
        records.append(rec)
    ids = [r.id for r in records]
    if len(ids) != len(set(ids)):
        raise QidError("duplicate record ids in registry")
    return records


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


@dataclass(frozen=True)
class SuiteResult:
    record: IdentityRecord
    outcome: VerificationOutcome
    elapsed_ms: float


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
    return f"{f.numerator}/{f.denominator}"


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
