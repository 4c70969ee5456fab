"""Command line interface: exit codes, output shapes, registry resolution."""

import hashlib
import json
import re
import time

import pytest

from qid import cli
from qid.cli import main
from qid.engine import MAX_LITERAL_BITS, load_registry
from qid.qproducts import MAX_ETA_BITS
from qid.series import MAX_INVERSE_BITS, MAX_POW_EXPONENT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_known_id(capsys):
    code, out, _ = run(capsys, "verify", "nath-das-1.10", "--order", "40")
    assert code == 0
    assert "pass" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "no-such-id")
    assert code == 2
    assert "no-such-id" in err


def test_verify_expr_pair(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "f1-f1", "--expr", "0",
                       "--order", "10")
    assert code == 0

    code, _, _ = run(capsys, "verify", "--expr", "f1", "--expr", "f2",
                     "--order", "10")
    assert code == 1

    code, _, err = run(capsys, "verify", "--expr", "f1")
    assert code == 2


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json", "--order", "10",
                       "--expr", "q", "--expr", "2*q")
    assert code == 1
    rep = json.loads(out)
    assert rep[0]["first_mismatch"] == {"exponent": 1, "lhs": "1/1",
                                        "rhs": "2/1"}


def test_coeffs(capsys):
    code, out, _ = run(capsys, "coeffs", "B", "--upto", "3")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 2", "2 4", "3 6"]

    code, out, _ = run(capsys, "coeffs", "A", "--upto", "1")
    assert (code, out.splitlines()) == (0, ["0 0", "1 1"])

    code, out, _ = run(capsys, "coeffs", "MU2", "--upto", "1")
    assert (code, out.splitlines()) == (0, ["0 1", "1 -1"])

    code, out, _ = run(capsys, "coeffs", "B", "--upto", "3", "--mod", "2")
    assert out.splitlines() == ["0 1", "1 0", "2 0", "3 0"]

    code, out, _ = run(capsys, "coeffs", "B", "--upto", "2", "--mod", "1")
    assert (code, out.splitlines()) == (0, ["0 0", "1 0", "2 0"])

    for mod in ("0", "-3"):
        code, out, err = run(capsys, "coeffs", "B", "--upto", "3", "--mod", mod)
        assert (code, out) == (2, ""), mod
        assert err.strip() == "--mod must be positive"

    code, _, err = run(capsys, "coeffs", "Z", "--upto", "3")
    assert code == 2


# SHA-256 of `qid coeffs SEL --upto 1000` and of the same with --mod 7,
# pinned from the listing as it was written one print() per coefficient.
# Each pair of selectors is two defining series of one function.
_COEFFS_1000_SHA256 = {
    "A1": ("4bcc2c913845cd29c9b1033e3ced0cf48c65b8fdf2b20e3bb75391e5b05b8f99",
           "7a8d644ae01e3611ac808110b07756dc9b358f5daa2fd0b74bd010d2dc0377e1"),
    "A2": ("4bcc2c913845cd29c9b1033e3ced0cf48c65b8fdf2b20e3bb75391e5b05b8f99",
           "7a8d644ae01e3611ac808110b07756dc9b358f5daa2fd0b74bd010d2dc0377e1"),
    "B1": ("a426046d6e436c75c3a4f160d2770334d798c6ecd2339d1225d4f0800ae2ab4f",
           "3097678daa8d8e8a78604cab08bcf1c98be7167b3b773bd3495a8024e574591e"),
    "B2": ("a426046d6e436c75c3a4f160d2770334d798c6ecd2339d1225d4f0800ae2ab4f",
           "3097678daa8d8e8a78604cab08bcf1c98be7167b3b773bd3495a8024e574591e"),
    "MU2": ("20e105b988503dcff83295e18f082e9a3c44b0f5e5ed441bfca5aa89632db1af",
            "06eeb678ff847a563fb4d2cdc94b1aefd6517e70ad52714af1f7dae1d56130fb"),
}


@pytest.mark.parametrize("sel", sorted(_COEFFS_1000_SHA256))
@pytest.mark.parametrize("mod", [(), ("--mod", "7")])
def test_coeffs_1000_sha256(capsys, sel, mod):
    code, out, err = run(capsys, "coeffs", sel, "--upto", "1000", *mod)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1001 and out.endswith("\n")
    assert hashlib.sha256(out.encode()).hexdigest() \
        == _COEFFS_1000_SHA256[sel][len(mod) // 2]


def test_param_check(capsys):
    code, out, _ = run(capsys, "param-check", "S1")
    assert code == 0 and "ProvedZero" in out

    code, out, _ = run(capsys, "param-check", "R0")
    assert code == 0 and "ProvedZero" in out

    code, out, _ = run(capsys, "param-check", "--expr", "f1")
    assert code == 1 and "NotZero" in out

    code, _, err = run(capsys, "param-check", "--expr", "f8")
    assert code == 2

    # a zero divisor is not an eta-quotient term: an error, no traceback
    code, _, err = run(capsys, "param-check", "--expr", "f1/0")
    assert code == 2 and err.strip() == "error: division by zero: (f1/0)"

    # a target is a registry identity, by id or by its short alias
    for target in ("zero-s0", "S0"):
        code, out, _ = run(capsys, "param-check", target)
        assert (code, out) == (0, "ProvedZero\n  polynomial in p collapses to 0\n")

    # an unknown id, a record of another kind, or an identity that is not
    # an eta quotient in f1..f12: one stderr line, no traceback
    for target, reason in [
            ("NOPE", "unknown identity id 'NOPE'"),
            ("wang-parity", "parity record 'wang-parity'"),
            ("nath-das-1.10", "error: not an eta-quotient term: "
                              "EXTRACT(MT(B1), 3, 0)"),
            ("lemma-f1-zero", "error: no parametrization for f_8")]:
        code, out, err = run(capsys, "param-check", target)
        assert (code, out) == (2, ""), target
        assert err.startswith(reason) and len(err.splitlines()) == 1, err

    code, out, err = run(capsys, "param-check")
    assert (code, out) == (2, "")
    assert err.strip() == "param-check requires an identity id or --expr"


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    lines = out.splitlines()
    assert any("nath-das-1.10" in line for line in lines)
    assert lines == sorted(lines)


def test_suite_background_findings(capsys):
    code, out, _ = run(capsys, "suite", "--tier", "background")
    assert code == 0  # background failures downgrade to findings
    assert "findings" in out
    assert "chan-mao-b4n2" in out


def test_suite_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "suite", "--tier", "background", "--json",
                     "--out", str(target))
    assert code == 0
    rep = json.loads(target.read_text())
    assert all(set(row) >= {"id", "tier", "status"} for row in rep)

    code, _, err = run(capsys, "suite", "--tier", "background",
                       "--out", str(tmp_path / "nodir" / "x.json"))
    assert code == 2


def test_registry_flag_and_env(tmp_path, capsys, monkeypatch):
    reg = tmp_path / "mini.json"
    reg.write_text(json.dumps({"version": 1, "records": [
        {"id": "only", "tier": "core", "anchor": "x",
         "lhs": "q", "rhs": "q", "order": 5}]}))

    code, out, _ = run(capsys, "list", "--registry", str(reg))
    assert code == 0 and out.split() [0] == "only"

    monkeypatch.setenv("QID_REGISTRY", str(reg))
    code, out, _ = run(capsys, "suite")
    assert code == 0 and "only" in out

    # param-check reads the same registry: q - q is proved zero, and the
    # bundled records are out of reach
    code, out, _ = run(capsys, "param-check", "only")
    assert code == 0 and out.startswith("ProvedZero")
    code, _, err = run(capsys, "param-check", "S0")
    assert code == 2 and err.startswith("unknown identity id 'zero-s0'")


def test_upto_bound(capsys):
    code, out, err = run(capsys, "coeffs", "B", "--upto", "1001")
    assert (code, out) == (2, "")
    assert err.strip() == "--upto 1001 exceeds the maximum order 1000"

    code, out, err = run(capsys, "coeffs", "B", "--upto", "-1")
    assert (code, out) == (2, "")
    assert err.strip() == "--upto must be nonnegative"


def test_order_bound(capsys):
    for argv in (["verify", "nath-das-1.10"], ["suite", "--tier", "core"],
                 ["verify", "--expr", "f1", "--expr", "f1"]):
        code, out, err = run(capsys, *argv, "--order", "1001")
        assert (code, out) == (2, ""), argv
        assert err.strip() == "--order 1001 exceeds the maximum order 1000"

        code, out, err = run(capsys, *argv, "--order", "-1")
        assert (code, out) == (2, ""), argv
        assert err.strip() == "--order must be nonnegative"

    # the bound itself is accepted
    code, _, _ = run(capsys, "verify", "--expr", "q", "--expr", "q",
                     "--order", "1000")
    assert code == 0

    # inner working orders are bounded too, by MAX_WORK_ORDER: an
    # EXTRACT operand at m*n + r and the q^-200000 shift of an eta quotient
    # are error verdicts rather than hours of work
    for expr in ("EXTRACT(f1, 1000, 0)", "q^-200000*f1"):
        code, out, _ = run(capsys, "verify", "--expr", expr, "--expr", "0",
                           "--order", "1000")
        assert code == 2 and out.startswith("adhoc: error"), expr
        assert "above the limit 8000" in out, expr


def test_work_order_bounds_slack_and_substitution(capsys):
    # J, under SUBST as well, and AL's theta prefactor start above their
    # order by the binomials with negative exponents; f_k and SUBST spread
    # a series by k or m; a literal power c^k holds about k times c's
    # bits.  Each ends fast: the bounded ones as error verdicts naming
    # their limit, the rest by building only the window through q^10 or by
    # the power of -1
    for expr, status, limit in [
            ("J(q^-3000, 7)", "error", 8000),
            ("SUBST(J(q^-3000, 7), 2)", "error", 8000),
            ("AL(q, 7, q^-100000000)", "error", 8000),
            ("2^10000000000", "error", MAX_LITERAL_BITS),
            ("((2^1000)^1000)^1000", "error", MAX_LITERAL_BITS),
            ("f1000000000", "pass", None),
            ("SUBST(f1, 1000000000)", "pass", None),
            ("-(-1)^10000000001", "pass", None),
            # 10^300 would recurse once per bit, 10^150 and 10^1000 square
            # hundreds of times before a bound is met
            ("f1^1" + "0" * 300, "error", MAX_POW_EXPONENT),
            ("f1^1" + "0" * 150, "error", MAX_POW_EXPONENT),
            ("(1+q)^1" + "0" * 1000, "error", MAX_POW_EXPONENT)]:
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--expr", expr, "--expr", "1",
                           "--order", "10")
        assert time.perf_counter() - t0 < 1, expr
        assert out.startswith(f"adhoc: {status}"), (expr, out)
        if status == "error":
            assert code == 2 and f"above the limit {limit}" in out, expr
        else:
            assert code == 0, expr

    # a power of a series that is not one eta-quotient term, a power of
    # f1 and a series inverse are refused before a product that may hold
    # too many bits: a lowest coefficient 2, binomial growth alone,
    # geometric growth (coefficients 1024^i or 2^2000i), one large
    # coefficient below many small ones, or a large power of f1 is enough;
    # what stays below the limits evaluates, checked against products and
    # quotients
    for expr, order, limit, other in [
            ("(2+q)^3000000", 5, MAX_LITERAL_BITS, "1"),
            ("(1+q)^10000000000", 1000, MAX_LITERAL_BITS, "1"),
            ("(1+q)^-10000000000", 1000, MAX_LITERAL_BITS, "1"),
            ("(1-1024*q)^-2", 1000, MAX_LITERAL_BITS, "1"),
            ("(2^200000+q/(1-q))^2", 1000, MAX_LITERAL_BITS, "1"),
            ("f1^100000", 1000, MAX_ETA_BITS, "1"),
            ("f1^1000000000", 1000, MAX_ETA_BITS, "1"),
            ("f1^-1000000000", 1000, MAX_ETA_BITS, "1"),
            ("1/(1-2^2000*q)", 1000, MAX_INVERSE_BITS, "1"),
            ("1/(1-2^20000*q)", 1000, MAX_INVERSE_BITS, "1"),
            ("(1+q)^3", 10, None, "1 + 3*q + 3*q^2 + q^3"),
            ("(f1+q)^-3", 10, None, "1/((f1+q)*(f1+q)*(f1+q))"),
            ("(1+q)^200", 1000, None, "(1+q)^100*(1+q)^100"),
            ("MT(B1)^10", 1000, None, "MT(B1)^8*MT(B1)^2"),
            ("f1^1000", 1000, None, "f1^500*f1^500"),
            ("(1-1024*q)*(1/(1-1024*q))", 1000, None, "1")]:
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--expr", expr, "--expr", other,
                           "--order", str(order))
        assert time.perf_counter() - t0 < 1, expr
        if limit is not None:
            assert code == 2 and out.startswith("adhoc: error"), (expr, out)
            assert " would hold about " in out, expr
            assert f"above the limit {limit}" in out, expr
        else:
            assert code == 0 and out.startswith("adhoc: pass"), (expr, out)

    # param-check expands the same literal powers: one stderr line
    for expr, power in [("2^10000000000", "2^10000000000"),
                        ("((2^1000)^1000)^1000", "(2^1000)^1000")]:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "param-check", "--expr", expr)
        assert time.perf_counter() - t0 < 1, expr
        assert (code, out) == (2, ""), expr
        assert err.startswith(f"error: literal power {power} would hold "), err
        assert err.endswith(f"above the limit {MAX_LITERAL_BITS}\n"), err
        assert len(err.splitlines()) == 1, err
    code, out, _ = run(capsys, "param-check", "--expr", "(-1)^10000000001 + 1")
    assert (code, out) == (0, "ProvedZero\n  polynomial in p collapses to 0\n")


@pytest.mark.parametrize("expr, message", [
    ("SUBST(q, 0)", "SUBST power 0 is not positive at line 1, column 10"),
    ("f0*f1", "unexpected 'f0' at line 1, column 1 (expected 'AL', 'EXTRACT', "
     "'J', 'MT', 'SUBST', 'f<k>', 'q')"),
])
def test_verify_parse_error_verdict(capsys, expr, message):
    # an error verdict on one line, not a traceback
    code, out, err = run(capsys, "verify", "--expr", expr, "--expr", "1")
    assert (code, err) == (2, "")
    assert out.splitlines() == ["adhoc: error", f"  {message}"]


@pytest.mark.parametrize("text, argv, reason", [
    ('{"version": 1}', ["suite"], "registry lacks a 'records' list"),
    ('{"version": 1, "records": [{"tier": "core", "lhs": "q", "rhs": "q"}]}',
     ["list"], "registry record 0 lacks the key 'id'"),
    (None, ["verify", "x"], "No such file or directory"),
    (None, ["list"], "No such file or directory"),
    ('{"records": 5}', ["verify", "x"], "registry lacks a 'records' list"),
    ('{"records": ["x"]}', ["suite"], "registry record 0 is not an object"),
    ('{"records": [', ["list"], "Expecting value"),
    ('{"records": [{"id": "x", "tier": "core", "order": "x"}]}', ["list"],
     "record x: field 'order' must be a nonnegative integer"),
    ('{"records": [{"id": 5, "tier": "core"}]}', ["suite"],
     "record 5: field 'id' must be a string"),
    ('{"records": [{"id": "x", "tier": "core", "order": 100000}]}', ["suite"],
     "record x: field 'order' 100000 exceeds the maximum order 1000"),
    ('{"records": [{"id": "p", "tier": "core", "kind": "parity",'
     ' "series": "B1", "count": 5000}]}', ["suite"],
     "record p: field 'count' reaches coefficient 4999, above the maximum"),
    ('{"records": [{"id": "c", "tier": "core", "kind": "congruence",'
     ' "series": "B1", "step": 6, "residue": 3, "modulus": 6,'
     ' "count": 200}]}', ["suite"],
     "record c: field 'count' reaches coefficient 1197, above the maximum"),
])
def test_registry_load_errors(tmp_path, capsys, text, argv, reason):
    reg = tmp_path / "reg.json"
    if text is not None:
        reg.write_text(text)
    code, out, err = run(capsys, *argv, "--registry", str(reg))
    assert (code, out) == (2, "")
    assert err.startswith("cannot load registry: ") and reason in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_huge_coefficients_print_as_placeholders(capsys):
    # 2^20000 has 6021 digits, past CPython's int-to-str limit of 4300
    argv = ("verify", "--expr", "2^20000", "--expr=-(2^20000)/3")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "adhoc: fail (order 50)",
        "  first mismatch at q^0: lhs=<integer of 20001 bits> "
        "rhs=-<integer of 20001 bits>/3"]

    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)[0]["first_mismatch"] == {
        "exponent": 0, "lhs": "<integer of 20001 bits>/1",
        "rhs": "-<integer of 20001 bits>/3"}


def test_failure_lines_print_once(tmp_path, capsys):
    # an identity's message is its mismatch line's head and is not printed
    # again; a congruence's or a parity record's message and an error's
    # reason add to what the verdict line says and are printed
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"records": [
        {"id": "i", "tier": "core", "lhs": "1+q", "rhs": "1+2*q",
         "order": 5},
        {"id": "c", "tier": "core", "kind": "congruence", "series": "B1",
         "step": 4, "residue": 1, "modulus": 7, "count": 5},
        {"id": "p", "tier": "core", "kind": "parity", "series": "A1",
         "count": 10},
        {"id": "e", "tier": "core", "lhs": "EXTRACT(f1, 3, 3)", "rhs": "1",
         "order": 5}]}))
    code, out, err = run(capsys, "verify", "i", "c", "p", "e",
                         "--registry", str(reg))
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "c: fail (order 17)",
        "  first mismatch at q^1: lhs=2 rhs=0",
        "  coefficient(1) = 2 is not 0 mod 7",
        "e: error",
        "  EXTRACT residue 3 not in [0, 3) at line 1, column 17",
        "i: fail (order 5)",
        "  first mismatch at q^1: lhs=1 rhs=2",
        "p: fail (order 9)",
        "  first mismatch at q^0: lhs=0 rhs=1",
        "  parity of coefficient(0) breaks the characterization"]

    code, out, _ = run(capsys, "verify", "i", "--registry", str(reg),
                       "--json")
    assert json.loads(out)[0]["message"] == "first mismatch at q^1"

    code, out, _ = run(capsys, "suite", "--tier", "background")
    assert out.splitlines()[:4] == [
        "[background] chan-mao-b4n1: fail (order 100)",
        "  first mismatch at q^1: lhs=14 rhs=18",
        "[background] chan-mao-b4n2: fail (order 100)",
        "  first mismatch at q^0: lhs=4 rhs=2"]


def test_series_products_are_bounded(capsys):
    # each factor passes its own checks, and a product or a quotient is
    # refused before it may hold more bits than an inverse may: a chain of
    # factors of 1.5 million bits at the eleventh, where each further
    # factor would cost more than the last, and a quotient of 12 million
    # bits by an inverse of 5 million; below the limit both evaluate
    c = "2^250000"
    y = f"({c}+q)"
    for expr, order, what in [
            ("*".join([y] * 160), 5, "a series product"),
            ("(2^12000+q)/(1-1024*q)", 1000, "a series quotient")]:
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--expr", expr, "--expr", "1",
                           "--order", str(order))
        assert time.perf_counter() - t0 < 1, expr[:40]
        assert code == 2 and out.startswith("adhoc: error"), out
        assert f"{what} would hold about " in out
        assert out.endswith(f"above the limit {MAX_INVERSE_BITS}\n"), out
    for lhs, rhs, order in [
            ("*".join([y] * 4), "*".join([f"({c}*{c}+2*{c}*q+q^2)"] * 2), 5),
            ("(2^6000+q)/(1-1024*q)", "(2^6000+q)*(1/(1-1024*q))", 1000)]:
        code, out, _ = run(capsys, "verify", "--expr", lhs, "--expr", rhs,
                           "--order", str(order))
        assert (code, out) == (0, f"adhoc: pass (order {order})\n"), lhs


_LONG = "1" + "0" * 5000


@pytest.mark.parametrize("expr, column", [
    (f"J(q^{_LONG}, 3)", 5), (_LONG, 1), (f"SUBST(f1, {_LONG})", 11),
    (f"2/{_LONG}", 3), (f"f{_LONG}", 1)])
def test_long_integer_literals(capsys, expr, column):
    # refused by the parser, with a position, on every CPython version
    message = (f"integer literal with 5001 digits (the limit is 4300) at "
               f"line 1, column {column}")
    code, out, err = run(capsys, "verify", "--expr", expr, "--expr", "1")
    assert (code, err) == (2, "")
    assert out.splitlines() == ["adhoc: error", f"  {message}"]
    code, out, err = run(capsys, "param-check", "--expr", expr)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_int_str_bound():
    from qid.outcome import int_str
    assert int_str(-10 ** 4299) == "-1" + "0" * 4299  # 4300 digits
    assert int_str(10 ** 4300) == "<integer of 14285 bits>"
    assert int_str(0) == "0"


def test_long_sums_are_walked_in_loops(capsys):
    # the parser builds a sum of k terms as a tree k deep; flattening it,
    # evaluating it and printing it in an error message take no recursion
    many_q = "+".join(["q"] * 1500)
    code, out, err = run(capsys, "verify", "--expr", many_q,
                         "--expr", "1500*q", "--order", "5")
    assert (code, out, err) == (0, "adhoc: pass (order 5)\n", "")

    many_j = "-".join(["J(-q^0, 1)"] * 1200)
    code, out, err = run(capsys, "verify", "--expr", many_j,
                         "--expr", "-1198*J(-q^0, 1)", "--order", "5")
    assert (code, out, err) == (0, "adhoc: pass (order 5)\n", "")

    code, out, err = run(capsys, "param-check", "--expr",
                         f"{many_q} - 1500*q")
    assert (code, out) == (0, "ProvedZero\n  polynomial in p collapses to 0\n")

    code, out, err = run(capsys, "param-check", "--expr",
                         f"({many_q})*J(q, 2)")
    assert (code, out) == (2, "")
    assert err == f"error: not an eta-quotient term: ({many_q})\n"


@pytest.mark.parametrize("expr, column", [
    ("(" * 300 + "q" + ")" * 300, 101),
    ("-" * 3000 + "q", 100),
    ("EXTRACT(" * 150 + "q" + ", 1, 0)" * 150, 801),
])
def test_deep_nesting_is_an_error_verdict(capsys, expr, column):
    message = f"expression nested more than 100 deep at line 1, column {column}"
    code, out, err = run(capsys, "verify", f"--expr={expr}", "--expr", "q",
                         "--order", "5")
    assert (code, err) == (2, "")
    assert out.splitlines() == ["adhoc: error", f"  {message}"]

    code, out, err = run(capsys, "param-check", f"--expr={expr}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_param_check_bounds_residual_powers(capsys):
    # (a + b*p)^e is expanded exactly, so e is bounded before any work
    def family(n):
        return f"f1^-{3 * n}*f3^{n}*f4^{3 * n}*f12^-{n} - 1"

    t0 = time.perf_counter()
    code, out, err = run(capsys, "param-check", "--expr", family(10000))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == ("error: a term's residual powers of 2, p, 1-p, 1+p, 1+2p "
                   "and 2+p sum to 20000, above the limit 1000\n")

    code, _, err = run(capsys, "param-check", "--expr", family(501))
    assert code == 2 and "sum to 1002, above the limit 1000" in err

    # the limit itself is expanded
    code, out, err = run(capsys, "param-check", "--expr", family(500))
    assert (code, err) == (1, "") and out.startswith("NotZero")


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required"),
    (["check"], "unknown command 'check' (choose from verify, coeffs, suite, "
                "param-check, list)"),
    (["verify", "zero-s0", "--ord", "5"], "unrecognized flag --ord"),
    (["list", "--json"], "unrecognized flag --json"),
    (["verify", "-q"], "unrecognized flag -q"),
    (["verify", "zero-s0", "--order"], "--order needs a value"),
    (["verify", "--json=yes", "zero-s0"], "--json takes no value"),
    (["suite", "--order", "ten"], "--order: 'ten' is not an integer"),
    (["coeffs", "B", "--upto", "3.5"], "--upto: '3.5' is not an integer"),
    (["coeffs", "B", "--upto", "3", "--mod=x"], "--mod: 'x' is not an integer"),
    (["suite", "--tier", "gold"],
     "--tier: 'gold' is not one of core, classical, background"),
    (["coeffs", "B"], "--upto is required"),
    (["coeffs", "--upto", "3"], "SERIES is required"),
    (["list", "nath-das-1.10"], "unexpected argument 'nath-das-1.10'"),
    (["suite", "core"], "unexpected argument 'core'"),
    (["coeffs", "A", "B", "--upto", "3"], "unexpected argument 'B'"),
    (["param-check", "S0", "S1"], "unexpected argument 'S1'"),
    (["verify", "zero-s0", "--expr", "f1", "--expr", "f1"],
     "give ID or --expr, not both"),
    (["param-check", "S0", "--expr", "f1"], "give TARGET or --expr, not both"),
])
def test_malformed_calls(capsys, argv, message):
    # a usage line for the command named, then one error line; no output
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    command = argv[0] if argv and argv[0] in cli.COMMANDS else "{"
    assert err.splitlines() == [err.splitlines()[0], f"qid: error: {message}"]
    assert err.startswith(f"usage: qid {command}")


@pytest.mark.parametrize("spaced, joined", [
    (["coeffs", "B", "--upto", "3", "--mod", "2"],
     ["coeffs", "B", "--upto=3", "--mod=2"]),
    (["verify", "--expr", "f1-f1", "--expr", "0", "--order", "10"],
     ["verify", "--expr=f1-f1", "--expr=0", "--order=10"]),
    (["verify", "nath-das-1.10", "--order", "40"],
     ["verify", "--order=40", "nath-das-1.10"]),
    (["suite", "--tier", "background", "--order", "20"],
     ["suite", "--order=20", "--tier=background"]),
    (["param-check", "--expr", "f1-f1"], ["param-check", "--expr=f1-f1"]),
])
def test_flag_equals_value(capsys, spaced, joined):
    assert run(capsys, *spaced) == run(capsys, *joined)


def test_flag_values(capsys):
    # a value may start with "-"; a single-value flag keeps its last value
    code, out, err = run(capsys, "verify", "--expr", "-q", "--expr", "-q",
                         "--order", "5")
    assert (code, out, err) == (0, "adhoc: pass (order 5)\n", "")
    code, out, _ = run(capsys, "coeffs", "B", "--upto", "9", "--upto=1")
    assert (code, out) == (0, "0 1\n1 2\n")
    code, out, err = run(capsys, "param-check", "--expr", "f1", "--expr=-f1+f1")
    assert (code, out[:10], err) == (0, "ProvedZero", "")


def test_help_lists_every_flag(capsys):
    for argv in (["-h"], ["--help"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        for name, cmd in cli.COMMANDS.items():
            synopsis = next(line for line in out.splitlines()
                            if line.startswith(f"  qid {name} "))
            assert re.findall(r"--[a-z]+", synopsis) == list(cmd.flags)
    for name, cmd in cli.COMMANDS.items():
        # help ends the parse: a bad flag after it is never read
        for argv in ([name, "--help"], [name, "-h", "--no-such-flag"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: qid {name}")
            for flag, spec in cmd.flags.items():
                assert f"  {flag}" in out and spec.help in out, flag


def test_bundled_registry_read_once(tmp_path, capsys, monkeypatch):
    assert load_registry() is load_registry()

    # a named registry is read on every call: an edit between two is seen
    reg = tmp_path / "reg.json"
    for rid in ("first", "second"):
        reg.write_text(json.dumps({"records": [
            {"id": rid, "tier": "core", "lhs": "q", "rhs": "q", "order": 5}]}))
        code, out, _ = run(capsys, "list", "--registry", str(reg))
        assert (code, out.split()[0]) == (0, rid)
        monkeypatch.setenv("QID_REGISTRY", str(reg))
        code, out, _ = run(capsys, "verify", rid)
        assert (code, out) == (0, f"{rid}: pass (order 5)\n")
        monkeypatch.delenv("QID_REGISTRY")
