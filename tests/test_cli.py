"""Command line interface: exit codes, output shapes, registry resolution."""

import json

import pytest

from qid.cli import main


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


def test_param_check(capsys):
    code, out, _ = run(capsys, "param-check", "S1")
    assert code == 0 and "ProvedZero" in out

    code, out, _ = run(capsys, "param-check", "R0")
    assert code == 0 and "ProvedZero" in out

    code, out, _ = run(capsys, "param-check", "--expr", "f1")
    assert code == 1 and "NotZero" in out

    code, _, err = run(capsys, "param-check", "--expr", "f8")
    assert code == 2

    code, _, err = run(capsys, "param-check", "NOPE")
    assert code == 2


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
