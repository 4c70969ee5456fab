"""The behavioural contract: the `qid suite --json` report of each tier,
timings removed, hashes to the pinned digest (scripts/report_digest.py).

A change to the internals must leave these digests as they are; a change
that means to alter a verdict, a compared order, a mismatch or a message
updates the pin and says why."""

import os
import subprocess
import sys

import pytest

import qid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qid.__file__)))

DIGESTS = {
    "core": ("643ee4faeb7497d99f3597125b0699a49547a15502ddb15fa01b3f6241fe3fc1", 24),
    "classical": ("bd1e447ecdac5328ad685bb46c04ee24b76bd65d9917f3d4f8a7b13824191c14", 20),
    "background": ("5e9c2de876f689646df052c2a6a97b0aef685bf35e74ccaa0b7ef2be869ebffa", 12),
}


@pytest.mark.parametrize("tier", sorted(DIGESTS))
def test_report_digest(tier):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("QID_REGISTRY", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "report_digest.py"),
         "--tier", tier],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest, count = DIGESTS[tier]
    assert proc.stdout.strip() == f"{digest}  {count} records"
