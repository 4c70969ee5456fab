"""The registry file: its canonical form, and that every check in it can
fail."""

import json

import pytest

from qid import IdentityRecord, load_registry, verify
from qid.dsl import parse
from qid.engine import REGISTRY_PATH

#: the background findings that fail as stated; test_acceptance pins their
#: first mismatches
FAILING = {"chan-mao-b4n1", "chan-mao-b4n2"}


@pytest.fixture(scope="module")
def records():
    return load_registry()


def changed(rec, **fields):
    """rec with some fields replaced."""
    kept = {f: getattr(rec, f) for f in IdentityRecord.__match_args__}
    return IdentityRecord(**{**kept, **fields})


def test_registry_file_canonical():
    # the file is edited by hand; kept in the form json.dumps writes, every
    # edit is a readable diff
    with open(REGISTRY_PATH, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    ids = [r["id"] for r in doc["records"]]
    assert len(ids) == len(set(ids))


def test_every_identity_can_fail(records):
    # q^n added to the rhs must be caught at q^n, the last coefficient
    # compared: a check that stops short of its order, or compares a side
    # with itself, cannot pass this
    passing = [r for r in records
               if r.kind == "identity" and r.id not in FAILING]
    assert len(passing) == 46
    for rec in passing:
        n = min(rec.default_order, 60)
        out = verify(changed(rec, rhs=f"({rec.rhs}) + q^{n}"), order=n)
        assert out.status == "fail" and out.first_mismatch[0] == n, \
            (rec.id, out)


def test_every_coefficient_check_can_fail(records):
    congruences = [r for r in records if r.kind == "congruence"]
    assert len(congruences) == 7
    for rec in congruences:
        assert verify(rec).status == "pass", rec.id
        wrong = changed(rec, modulus=rec.modulus + 1)
        assert verify(wrong).status == "fail", rec.id

    parity = next(r for r in records if r.kind == "parity")
    assert verify(parity).status == "pass"
    assert verify(changed(parity, series="A1")).status == "fail"


def test_no_identity_stated_twice(records):
    seen = {}
    for rec in records:
        if rec.kind == "identity":
            sides = (parse(rec.lhs), parse(rec.rhs))
            assert sides not in seen, (rec.id, seen.get(sides))
            seen[sides] = rec.id
