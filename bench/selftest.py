"""The benchmark's own checks.

    python3 bench/selftest.py

Run from the root of a qid checkout.  For every workload, a short run (a
few items, one pass of each kind) must exit 0 and print exactly the metric
names and units that BENCHMARK.json declares: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  Then, in a copy of the
benchmark whose pins.json has one verdict altered, the same short run must
report the wrong verdict and exit 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = ".bench_selftest"


def short_run(run_py: str, workload: str, trace: int) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run_py = os.path.join(_HERE, "run.py")
    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = short_run(run_py, w, trace)
            if code != 0 or result is None:
                failures.append(f"{w} --trace {trace}: exit {code}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{w} --trace {trace}: result keys {sorted(result)}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != declared[trace]:
                failures.append(f"{w} --trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(declared[trace]))}")
            print(f"ok   {w} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks")

    # one altered pin must fail the gate
    shutil.rmtree(SCRATCH, ignore_errors=True)
    copy = os.path.join(SCRATCH, "bench")
    shutil.copytree(_HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    pins_path = os.path.join(copy, "pins.json")
    with open(pins_path) as fh:
        pins = json.load(fh)
    victim = pins["suite_eta_ids"][0]
    pins["records"][victim]["compared_order"] -= 1
    with open(pins_path, "w") as fh:
        json.dump(pins, fh)
    code, result = short_run(os.path.join(copy, "run.py"), "suite-eta", 0)
    if code != 1 or result is None or result["correct"] or result["failed"] != 1:
        failures.append(f"altered pin of {victim}: exit {code}, result {result}")
    else:
        print(f"ok   altered pin of {victim} fails the gate")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
