"""qid benchmark: the command that runs one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

Run from the root of a qid checkout.  Every qid process is a fresh
interpreter (bench/child.py) started one at a time, so each starts with cold
module caches.  A run repeats passes over the workload's processes (see
workloads.py) until S seconds have gone, checks every output against the
pinned values, prints one line per metric and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 passes
alternate between untraced and traced, and the metrics are the per-layer
ones.  Exit code 0 when every output is correct, 1 when one is wrong, 2 when
the run cannot be made.

The host reference kernel (hostref.py) is timed at the start and after
every pass; its median, host.ref_s, is printed beside the metrics, so a
change in host speed can be told apart from a change in qid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

from hostref import host_ref_s  # noqa: E402
from layertrace import LAYER_NAMES  # noqa: E402
from workloads import WORKLOADS, cross_check_coeffs  # noqa: E402

CHILD = os.path.join(_HERE, "child.py")
WORKDIR = ".bench_work"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 5   # extra set-up-only processes per run, after one warm-up
REF_REPEATS = 5


class RunError(Exception):
    pass


def launch(src: str, commands: list[list[str]], spans: str | None = None) -> dict:
    """Run one child to completion; add its launch time to its record."""
    # -E -s: PYTHON* variables and user site-packages of the caller's
    # environment do not change what is measured
    argv = [sys.executable, "-E", "-s", CHILD, src]
    if spans is not None:
        argv += ["--trace", spans]
    argv += [json.dumps(c) for c in commands]
    t_launch = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child timed out after {CHILD_TIMEOUT_S} s: {commands}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"child failed ({proc.returncode}): {commands}\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["t_launch"] = t_launch
    return record


def run_pass(src: str, procs, spans_dir: str | None = None) -> dict:
    records = []
    for i, proc in enumerate(procs):
        spans = None if spans_dir is None else os.path.join(spans_dir, f"proc{i}.jsonl")
        records.append(launch(src, proc.commands, spans))
    items, coeff_out = [], {}
    for proc, rec in zip(procs, records):
        for check, result in zip(proc.checks, rec["commands"]):
            items += check(result)
            if result["argv"][0] == "coeffs":
                coeff_out[result["argv"][1]] = result["stdout"]
    items += cross_check_coeffs(coeff_out)
    return {
        "wall_s": records[-1]["commands"][-1]["t_end"] - records[0]["t_launch"],
        "setup_s": [r["t_ready"] - r["t_launch"] for r in records],
        "items": items,
        "rss_kb": max(r["maxrss_kb"] for r in records),
        "layers": [r["layers"] for r in records if "layers" in r],
    }


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n items above it;
    with n <= 10 there is none, and the slowest item (p100) is used."""
    return 100 if n <= 10 else math.floor(100 * (n - 10) / n)


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass of each
    ((i-1)/n, i/n].  It moves smoothly where single order statistics jump
    from one item to the next."""
    v = sorted(values)
    n = len(v)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule on each of the n intervals
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        xs = (i / n + (k + 0.5) * h for k in range(steps))
        weights.append(h * sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in xs))
    return sum(w * x for w, x in zip(weights, v)) / sum(weights)


def item_stats(passes: list[dict]) -> dict:
    """Median and tail over items, each item taken at its median time over
    the run's passes.  With more than ten items both are Harrell-Davis
    estimates; with ten or fewer they are the middle and the slowest item."""
    per_item: dict[str, list[float]] = {}
    for p in passes:
        for i in p["items"]:
            if i.ms is not None:
                per_item.setdefault(i.name, []).append(i.ms)
    ms = sorted(statistics.median(v) for v in per_item.values())
    pct = tail_percentile(len(ms))
    if pct == 100:
        p50, tail = statistics.median(ms), ms[-1]
    else:
        p50, tail = harrell_davis(ms, 0.5), harrell_davis(ms, pct / 100)
    return {"p50": p50, "tail": tail, "tail_pct": pct, "n_items": len(ms)}


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer totals over the children of the traced pass whose wall time
    is the median, so that its self times and the unattributed remainder
    add up to its wall time."""
    p = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    tot = {n: {"calls": 0, "self_s": 0.0, "misses": 0, "coeffs_out": 0,
               "rounds": 0} for n in LAYER_NAMES}
    for proc_layers in p["layers"]:
        for name, st in proc_layers.items():
            for k, v in st.items():
                tot[name][k] += v

    def ratio(name, num, den):
        return tot[name][num] / tot[name][den] if tot[name][den] else 0.0

    m = {}
    for name in LAYER_NAMES:
        m[f"{name}.calls"] = (tot[name]["calls"], "count")
        m[f"{name}.self_s"] = (tot[name]["self_s"], "s")
    m["series.mul.coeffs_out"] = (tot["series.mul"]["coeffs_out"], "count")
    for name in ("qproducts.eta_f", "mock_theta.mock_theta_series"):
        m[f"{name}.miss_ratio"] = (ratio(name, "misses", "calls"), "ratio")
    m["engine.eval_expr.rounds_per_call"] = (
        ratio("engine.eval_expr", "rounds", "calls"), "ratio")
    m["trace.wall_s"] = (p["wall_s"], "s")
    m["trace.unattributed_s"] = (
        p["wall_s"] - sum(t["self_s"] for t in tot.values()), "s")
    m["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="a few items per workload and one pass, for self-checks")
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "qid", "cli.py")):
        print("bench/run.py: run from the root of a qid checkout "
              "(src/qid not found)", file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)

    t_start = time.perf_counter()
    procs = WORKLOADS[args.workload](random.Random(args.seed), src, WORKDIR,
                                     args.short)
    try:
        launch(src, [])  # warm-up: byte-compiles qid once
        setups = []
        for _ in range(SETUP_PROBES):
            rec = launch(src, [])
            setups.append(rec["t_ready"] - rec["t_launch"])
        readings = [host_ref_s(REF_REPEATS)]
        passes, traced = [], []
        while True:
            if args.trace and len(traced) < len(passes):
                spans_dir = os.path.join(WORKDIR, f"spans-pass{len(traced)}")
                os.makedirs(spans_dir)
                traced.append(run_pass(src, procs, spans_dir))
            else:
                passes.append(run_pass(src, procs))
            readings.append(host_ref_s(REF_REPEATS))
            done = len(passes) + len(traced)
            elapsed = time.perf_counter() - t_start
            per_pass = elapsed / done
            if (traced or not args.trace) and (
                    args.short or elapsed + per_pass > args.seconds):
                break
    except RunError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 2

    all_passes = passes + traced
    host_ref = statistics.median(readings)
    # every item's time in every pass, for a closer look than the metrics give
    with open(os.path.join(WORKDIR, "passes.json"), "w") as fh:
        json.dump({"readings": readings, "setup_probes": setups, "passes": [
            {"traced": p in traced, "wall_s": p["wall_s"], "setup_s": p["setup_s"],
             "items": [[i.name, i.ms, i.ok] for i in p["items"]]}
            for p in all_passes]}, fh)
    items = [i for p in all_passes for i in p["items"]]
    bad = [i for i in items if not i.ok]
    for i in bad:
        print(f"WRONG {i.name}: {i.detail}")
    stats = item_stats(passes)
    setups += [s for p in all_passes for s in p["setup_s"]]

    if args.trace:
        metrics = layer_metrics(traced, passes)
        metrics["host.ref_s"] = (host_ref, "s")
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "item_p50_ms": (stats["p50"], "ms"),
            "item_tail_ms": (stats["tail"], "ms"),
            "peak_rss_mb": (max(p["rss_kb"] for p in all_passes) / 1024, "MB"),
        }

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced "
          f"and {len(traced)} traced passes of {len(procs)} processes")
    print(f"item_tail_ms is p{stats['tail_pct']} of {stats['n_items']} items per pass")
    print(f"error_share {len(bad) / len(items):.6f} ({len(bad)} of {len(items)})")
    print(f"host.ref_s {host_ref} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not bad, "attempted": len(items), "failed": len(bad),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
