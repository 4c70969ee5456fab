"""Command line front end: `qid COMMAND [ARGS]`.

COMMANDS lists each command with its handler, its positional argument and
its flags; _parse reads argv against that table and the help text is
printed from it.  A flag is spelt in full and takes its value as
`--flag value` or `--flag=value`; the value may start with "-".  A
single-value flag given twice keeps its last value.  `-h` or `--help`
prints help and returns 0; a malformed call prints a usage line and one
`qid: error: ...` line to stderr and returns 2.  main returns the exit
code and raises no SystemExit.

Exit codes: 0 all pass, 1 any fail, 2 any error / bad invocation.
Background-tier failures in `suite` are downgraded to findings and do not
affect the exit code.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import dsl, engine
from .engine import MAX_ORDER
from .errors import QidError
from .mock_theta import SELECTORS, mock_theta_series
from .outcome import fraction_str
from .paramcheck import prove_zero
from .record import Record

#: short selector aliases accepted by `coeffs`
_COEFF_ALIASES = {"A": "A1", "B": "B1", "MU2": "MU2"}

_EXIT = {"pass": 0, "fail": 1, "error": 2}

#: short names of the split components, aliases of their zero-* records
_PARAM_ALIASES = {"S0": "zero-s0", "S1": "zero-s1", "H0": "zero-h0",
                  "H1": "zero-h1", "R0": "zero-r0"}


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
    """The records of --registry, $QID_REGISTRY or the bundled registry; on
    an unreadable or malformed file, report why and return None (exit 2)."""
    path = getattr(args, "registry", None) or os.environ.get("QID_REGISTRY")
    try:
        return engine.load_registry(path)
    except (OSError, QidError, json.JSONDecodeError) as exc:
        print(f"cannot load registry: {exc}", file=sys.stderr)
        return None


def _print_outcome(name, out):
    line = f"{name}: {out.status}"
    if out.compared_order >= 0:
        line += f" (order {out.compared_order})"
    print(line)
    head = None
    if out.first_mismatch is not None:
        e, lhs, rhs = out.first_mismatch
        head = f"first mismatch at q^{e}"
        print(f"  {head}: lhs={fraction_str(lhs)} rhs={fraction_str(rhs)}")
    # an identity's message is the mismatch line's head: printed once
    if out.message and out.status != "pass" and out.message != head:
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
        records = _resolve_registry(args)
        if records is None:
            return 2
        registry = {r.id: r for r in records}
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
    # the oracle sums integer terms from q^0: coeffs[n] is the coefficient
    # of q^n, over den 1
    coeffs = mock_theta_series(sel, args.upto).coeffs
    if args.mod is not None:
        coeffs = [c % args.mod for c in coeffs]
    sys.stdout.write("".join([f"{n} {c}\n" for n, c in enumerate(coeffs)]))
    return 0


def cmd_suite(args) -> int:
    if _order_out_of_range("--order", args.order):
        return 2
    records = _resolve_registry(args)
    if records is None:
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
                detail = (f"first mismatch at q^{e}: computed "
                          f"{fraction_str(lhs)}, stated {fraction_str(rhs)}")
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
        src = args.expr
    elif args.target is None:
        print("param-check requires an identity id or --expr", file=sys.stderr)
        return 2
    else:
        records = _resolve_registry(args)
        if records is None:
            return 2
        rid = _PARAM_ALIASES.get(args.target, args.target)
        rec = next((r for r in records if r.id == rid), None)
        if rec is None or rec.kind != "identity":
            what = "unknown identity id" if rec is None else f"{rec.kind} record"
            print(f"{what} {rid!r}: param-check takes an identity id, one of "
                  f"{', '.join(_PARAM_ALIASES)}, or --expr", file=sys.stderr)
            return 2
        src = f"({rec.lhs}) - ({rec.rhs})"
    try:
        forms: dict = {}
        outcome = prove_zero(engine.expr_to_eta(dsl.parse(src, forms), forms))
    except (QidError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outcome.status)
    if outcome.detail:
        print(f"  {outcome.detail}")
    return 0 if outcome.proved else 1


def cmd_list(args) -> int:
    records = _resolve_registry(args)
    if records is None:
        return 2
    for r in sorted(records, key=lambda r: r.id):
        print(f"{r.id:28s} {r.tier:10s} {r.anchor}")
    return 0


class _Flag(Record):
    """One flag of a command, stored as args.<its name without "--">.  type
    is int or str, or bool for a bare switch such as --json; a repeatable
    flag collects its values in a tuple, any other keeps the last one
    given, or None."""

    __slots__ = __match_args__ = ("type", "help", "repeat", "choices",
                                  "required")
    _defaults = {"repeat": False, "choices": (), "required": False}


class _Command(Record):
    """One command: its handler and help line, its positional argument
    (name, arity, help) with arity "1" (exactly one), "?" (at most one) or
    "*" (any number), or None, its flags, and the flag, if any, that the
    positional argument excludes."""

    __slots__ = __match_args__ = ("handler", "help", "positional", "flags",
                                  "excludes")
    _defaults = {"excludes": None}


_ORDER = _Flag(int, f"truncation order, at most {MAX_ORDER} (default: each "
                    "record's own)")
_JSON = _Flag(bool, "print the JSON report")
_REGISTRY = _Flag(str, "registry JSON file (default: $QID_REGISTRY, else the "
                       "bundled registry)")

COMMANDS = {
    "verify": _Command(
        cmd_verify, "verify registry records or ad hoc expressions",
        ("id", "*", "registry record id"),
        {"--expr": _Flag(str, "give twice: lhs expression, rhs expression",
                         repeat=True),
         "--order": _Flag(int, _ORDER.help[:-1] + ", 50 for --expr)"),
         "--json": _JSON, "--registry": _REGISTRY},
        excludes="--expr"),
    "coeffs": _Command(
        cmd_coeffs, "print series coefficients",
        ("series", "1", "A, B, MU2 or a full selector name"),
        {"--upto": _Flag(int, f"last exponent printed, at most {MAX_ORDER}",
                         required=True),
         "--mod": _Flag(int, "print integer coefficients modulo MOD")}),
    "suite": _Command(
        cmd_suite, "run the registry verification suite", None,
        {"--tier": _Flag(str, "run one tier only", choices=engine.TIERS),
         "--order": _ORDER, "--json": _JSON,
         "--out": _Flag(str, "also write the JSON report to this file"),
         "--registry": _REGISTRY}),
    "param-check": _Command(
        cmd_param_check, "symbolic vanishing proof for an eta expression",
        ("target", "?", "identity id (lhs - rhs is proved zero) or "
                        f"{', '.join(_PARAM_ALIASES)}"),
        {"--expr": _Flag(str, "eta expression to prove zero")},
        excludes="--expr"),
    "list": _Command(
        cmd_list, "list registry ids, tiers and anchors", None,
        {"--registry": _REGISTRY}),
}


class _UsageError(Exception):
    """A malformed call; command is the command named, or None."""

    def __init__(self, command, message):
        super().__init__(message)
        self.command = command


def _synopsis(name) -> str:
    if name is None:
        return "qid {" + ",".join(COMMANDS) + "} ..."
    cmd = COMMANDS[name]
    parts = [f"qid {name}"]
    if cmd.positional is not None:
        dest, arity, _ = cmd.positional
        parts.append({"1": "{}", "?": "[{}]", "*": "[{} ...]"}[arity]
                     .format(dest.upper()))
    for flag, spec in cmd.flags.items():
        part = _flag_form(flag, spec)
        parts.append(part if spec.required else f"[{part}]")
    return " ".join(parts)


def _flag_form(flag: str, spec: _Flag) -> str:
    if spec.type is bool:
        return flag
    if spec.choices:
        return f"{flag} {{{','.join(spec.choices)}}}"
    return f"{flag} {flag[2:].upper()}"


def _help(name) -> str:
    if name is None:
        lines = [f"usage: {_synopsis(None)}", "",
                 "Exact verification of q-series identities.", "",
                 "commands:"]
        for cname, cmd in COMMANDS.items():
            lines += [f"  {_synopsis(cname)}", f"      {cmd.help}"]
        lines += ["", "`qid COMMAND --help` describes one command.  Exit "
                  "codes: 0 all pass, 1 any fail, 2 any error or bad "
                  "invocation."]
        return "\n".join(lines)
    cmd = COMMANDS[name]
    rows = [(_flag_form(flag, spec), spec.help)
            for flag, spec in cmd.flags.items()]
    if cmd.positional is not None:
        rows.insert(0, (cmd.positional[0].upper(), cmd.positional[2]))
    width = max(len(form) for form, _ in rows)
    return "\n".join([f"usage: {_synopsis(name)}", "", cmd.help, ""]
                     + [f"  {form:{width}}  {text}" for form, text in rows])


def _parse(argv):
    """(command name, argument namespace) for argv, whose first item names
    the command; the namespace is None when help was asked for, and the
    name None for help on qid itself.  A malformed call raises
    _UsageError."""
    if not argv:
        raise _UsageError(None, "a command is required")
    name = argv[0]
    if name in ("-h", "--help"):
        return None, None
    cmd = COMMANDS.get(name)
    if cmd is None:
        raise _UsageError(None, f"unknown command {name!r} (choose from "
                                f"{', '.join(COMMANDS)})")
    values = {flag[2:]: () if spec.repeat else False if spec.type is bool
              else None for flag, spec in cmd.flags.items()}
    given, positional = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return name, None
        if not token.startswith("-"):
            positional.append(token)
            continue
        flag, eq, value = token.partition("=")
        spec = cmd.flags.get(flag)
        if spec is None:
            raise _UsageError(name, f"unrecognized flag {flag}")
        given.add(flag)
        if spec.type is bool:
            if eq:
                raise _UsageError(name, f"{flag} takes no value")
            values[flag[2:]] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(name, f"{flag} needs a value")
        if spec.type is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(
                    name, f"{flag}: {value!r} is not an integer") from None
        if spec.choices and value not in spec.choices:
            raise _UsageError(name, f"{flag}: {value!r} is not one of "
                                    f"{', '.join(spec.choices)}")
        values[flag[2:]] = (values[flag[2:]] + (value,) if spec.repeat
                            else value)
    for flag, spec in cmd.flags.items():
        if spec.required and flag not in given:
            raise _UsageError(name, f"{flag} is required")
    extra = positional
    if cmd.positional is not None:
        dest, arity, _ = cmd.positional
        if positional and cmd.excludes in given:
            raise _UsageError(name, f"give {dest.upper()} or {cmd.excludes}, "
                                    "not both")
        if arity == "1" and not positional:
            raise _UsageError(name, f"{dest.upper()} is required")
        if arity == "*":
            values[dest], extra = positional, []
        else:
            values[dest] = positional[0] if positional else None
            extra = positional[1:]
    if extra:
        raise _UsageError(name, f"unexpected argument {extra[0]!r}")
    return name, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        name, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"usage: {_synopsis(exc.command)}\nqid: error: {exc}",
              file=sys.stderr)
        return 2
    if args is None:
        print(_help(name))
        return 0
    return COMMANDS[name].handler(args)


if __name__ == "__main__":
    sys.exit(main())
