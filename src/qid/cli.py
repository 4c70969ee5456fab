"""Command line front end.

Exit codes: 0 all pass, 1 any fail, 2 any error / bad invocation.
Background-tier failures in `suite` are downgraded to findings and do not
affect the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsl, engine
from .errors import ParseError, QidError, UnsupportedEtaIndexError
from .expressions import PARAM_TARGETS
from .mock_theta import SELECTORS, mock_theta_series
from .paramcheck import prove_zero

#: short selector aliases accepted by `coeffs`
_COEFF_ALIASES = {"A": "A1", "B": "B1", "MU2": "MU2"}

_EXIT = {"pass": 0, "fail": 1, "error": 2}

#: Largest `--order` (verify, suite) and `--upto` (coeffs) accepted.  Work
#: grows faster than linearly in the order (direct summation takes about N^2
#: coefficient steps, series products more, on coefficients that grow with
#: N), so an unbounded order could hang the machine or run it out of
#: memory; every registry record (at most 300) and every benchmark listing
#: (at most 500) stays below this.
MAX_ORDER = 1000


def _order_out_of_range(flag: str, value: int | None) -> bool:
    """Report and return True when value is negative or exceeds MAX_ORDER."""
    if value is None:
        return False
    if value < 0:
        print(f"{flag} must be nonnegative", file=sys.stderr)
        return True
    if value > MAX_ORDER:
        print(f"{flag} {value} exceeds the maximum order {MAX_ORDER}",
              file=sys.stderr)
        return True
    return False


def _resolve_registry(args):
    path = getattr(args, "registry", None) or os.environ.get("QID_REGISTRY")
    return engine.load_registry(path)


def _print_outcome(name, out):
    line = f"{name}: {out.status}"
    if out.compared_order >= 0:
        line += f" (order {out.compared_order})"
    print(line)
    if out.first_mismatch is not None:
        e, lhs, rhs = out.first_mismatch
        print(f"  first mismatch at q^{e}: lhs={lhs} rhs={rhs}")
    if out.message and out.status != "pass":
        print(f"  {out.message}")


def cmd_verify(args) -> int:
    if _order_out_of_range("--order", args.order):
        return 2
    if args.expr:
        if len(args.expr) != 2:
            print("verify --expr requires exactly two expressions",
                  file=sys.stderr)
            return 2
        rec = engine.IdentityRecord(
            id="adhoc", tier="core", anchor="", lhs=args.expr[0],
            rhs=args.expr[1], default_order=args.order or 50)
        records = [rec]
    else:
        if not args.id:
            print("verify requires an identity id or --expr pairs",
                  file=sys.stderr)
            return 2
        registry = {r.id: r for r in _resolve_registry(args)}
        missing = [i for i in args.id if i not in registry]
        if missing:
            print(f"unknown identity id(s): {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        records = [registry[i] for i in args.id]

    results = engine.run_suite(records, order=args.order)
    if args.json:
        print(json.dumps(engine.report_json(results), indent=2))
    else:
        for r in results:
            _print_outcome(r.record.id, r.outcome)
    return max(_EXIT[r.outcome.status] for r in results)


def cmd_coeffs(args) -> int:
    sel = _COEFF_ALIASES.get(args.series, args.series)
    if sel not in SELECTORS:
        choices = sorted(set(SELECTORS) | set(_COEFF_ALIASES))
        print(f"unknown series {args.series!r}; choose from "
              f"{', '.join(choices)}", file=sys.stderr)
        return 2
    if _order_out_of_range("--upto", args.upto):
        return 2
    if args.mod is not None and args.mod < 1:
        print("--mod must be positive", file=sys.stderr)
        return 2
    series = mock_theta_series(sel, args.upto)
    for n in range(args.upto + 1):
        c = series.coefficient(n)
        if args.mod is not None:
            print(f"{n} {c.numerator % args.mod if c.denominator == 1 else c}")
        else:
            print(f"{n} {c if c.denominator != 1 else c.numerator}")
    return 0


def cmd_suite(args) -> int:
    if _order_out_of_range("--order", args.order):
        return 2
    try:
        records = _resolve_registry(args)
    except (OSError, QidError, json.JSONDecodeError) as exc:
        print(f"cannot load registry: {exc}", file=sys.stderr)
        return 2
    results = engine.run_suite(records, tier_filter=args.tier,
                               order=args.order)
    report = engine.report_json(results)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for r in results:
            _print_outcome(f"[{r.record.tier}] {r.record.id}", r.outcome)
    findings = [r for r in results
                if r.record.tier == "background" and r.outcome.status != "pass"]
    if findings and not args.json:
        print("\nfindings (background tier, informational):")
        for r in findings:
            detail = r.outcome.message
            if r.outcome.first_mismatch is not None:
                e, lhs, rhs = r.outcome.first_mismatch
                detail = f"first mismatch at q^{e}: computed {lhs}, stated {rhs}"
            print(f"  {r.record.id} ({r.record.anchor}): {detail}")
    scored = [r for r in results if r.record.tier != "background"]
    background_errors = [r for r in results if r.record.tier == "background"
                         and r.outcome.status == "error"]
    code = max((_EXIT[r.outcome.status] for r in scored), default=0)
    if background_errors:
        code = max(code, 2)
    return code


def cmd_param_check(args) -> int:
    if args.expr is not None:
        try:
            e = engine.expr_to_eta(dsl.parse(args.expr))
        except (ParseError, QidError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.target in PARAM_TARGETS:
        e = PARAM_TARGETS[args.target]
    else:
        print(f"unknown target {args.target!r}; choose from "
              f"{', '.join(sorted(PARAM_TARGETS))} or use --expr",
              file=sys.stderr)
        return 2
    try:
        outcome = prove_zero(e)
    except (UnsupportedEtaIndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outcome.status)
    if outcome.detail:
        print(f"  {outcome.detail}")
    if outcome.numeric_report:
        for p, value, small in outcome.numeric_report:
            print(f"  p={p}: {value} ({'~0' if small else 'nonzero'})")
    return 0 if outcome.proved else 1


def cmd_list(args) -> int:
    records = _resolve_registry(args)
    for r in sorted(records, key=lambda r: r.id):
        print(f"{r.id:28s} {r.tier:10s} {r.anchor}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qid",
        description="Exact verification of q-series identities.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify registry records or ad hoc expressions")
    p.add_argument("id", nargs="*", help="registry record id(s)")
    p.add_argument("--expr", action="append",
                   help="give twice: lhs expression, rhs expression")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--registry", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coeffs", help="print series coefficients")
    p.add_argument("series", help="A, B, MU2 or a full selector name")
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--mod", type=int, default=None)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("suite", help="run the registry verification suite")
    p.add_argument("--tier", choices=engine.TIERS, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--registry", default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("param-check",
                       help="symbolic vanishing proof for an eta expression")
    p.add_argument("target", nargs="?", default=None)
    p.add_argument("--expr", default=None)
    p.set_defaults(func=cmd_param_check)

    p = sub.add_parser("list", help="list registry ids, tiers and anchors")
    p.add_argument("--registry", default=None)
    p.set_defaults(func=cmd_list)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
