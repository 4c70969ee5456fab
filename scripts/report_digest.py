"""Print the SHA-256 of a `qid suite --json` report with timings removed.

The suite report is qid's behavioural contract: a change to the internals
must leave it byte-identical apart from `elapsed_ms`.  This script runs the
suite in a fresh interpreter, drops `elapsed_ms` from every record, and
hashes the canonical JSON (sorted keys, compact separators), so two
checkouts can be compared by one line each:

    PYTHONPATH=src python scripts/report_digest.py --tier core
    PYTHONPATH=src python scripts/report_digest.py --tier classical --registry reg.json

It prints `<sha256>  <records> records` and exits with qid's exit code
when that code is 2 (an error or bad invocation); 0 and 1 are verdicts
and still yield a digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tier", default=None, help="passed to `qid suite --tier`")
    ap.add_argument("--registry", default=None, help="passed to `qid suite --registry`")
    args = ap.parse_args(argv)

    cmd = [sys.executable, "-m", "qid.cli", "suite", "--json"]
    if args.tier:
        cmd += ["--tier", args.tier]
    if args.registry:
        cmd += ["--registry", args.registry]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode == 2:
        sys.stderr.write(proc.stderr)
        return 2
    report = json.loads(proc.stdout)
    for rec in report:
        rec.pop("elapsed_ms", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(f"{hashlib.sha256(canonical.encode()).hexdigest()}  {len(report)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
