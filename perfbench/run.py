#!/usr/bin/env python3
"""bdom benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the library is imported from `src/`).
Every repetition is a fresh `worker.py` process, so each one starts with the
library's caches empty, as a `bdom` command or a sweep script does.  The run
repeats the workload while time remains and reports medians.  Set-up time is
also sampled from extra processes that only import and build the inputs, two
after each repetition, so that its median rests on at least MIN_SETUPS
samples spread over the whole run.  Workers run with one OpenBLAS thread:
the library makes no BLAS call, and the idle pool that NumPy's import starts
made set-up time depend on whether the host's other core was free (0.14 s
or 0.25 s, by turns).

The time metrics are scaled by the speed of a reference loop timed next to
what they time (see reference.py), because this host's speed drifts by more
than the bound over a run: `wall_norm_s` is the timed phase and `setup_s`
the set-up at the loop's nominal speed.  The times as measured are in the
report line and, with `--trace 1`, in the layer metrics.

With `--trace 0` the last line holds the end-to-end metrics; with `--trace 1`
the run alternates untraced and traced repetitions and the last line holds
the per-layer metrics, including the tracing overhead (median traced wall
time minus median untraced wall time, as measured and normalised).
The line before it is a JSON report with the counts, the input digest and
every repetition.  The exit code is 0
whenever a result is printed; the result's `correct` says whether every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The names in workloads.py, which this process does not import: it would import bdom.
WORKLOADS = ("broadcast-ladder", "set-ladder", "tree-sweep", "large-trees")
MIN_SETUPS = 9
SETUPS_PER_REP = 2
WORKER_TIMEOUT_S = 120
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
# Node counts of the published baselines, reproduced at seed 0.
SEED0_BASELINE_NODES = {"Gamma_b C12": 5187, "Gamma_b C16": 68068}


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["mode"] = mode
    return out


def repetitions(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Fresh-process repetitions, each followed by SETUPS_PER_REP set-up-only
    processes, until the next would end more than half a repetition past
    `seconds`; with tracing, untraced and traced alternate.  Returns the
    repetitions and every process that sampled set-up time."""
    modes = ("untraced", "traced") if trace else ("untraced",)
    started = time.perf_counter()
    reps, setups, took = [], [], []
    while True:
        rep_started = time.perf_counter()
        reps.append(worker(workload, seed, modes[len(reps) % len(modes)]))
        setups.append(reps[-1])
        for _ in range(SETUPS_PER_REP):
            setups.append(worker(workload, seed, "setup"))
        took.append(time.perf_counter() - rep_started)
        elapsed = time.perf_counter() - started
        if len(reps) >= len(modes) and elapsed + statistics.median(took) / 2 > seconds:
            return reps, setups


def summarize(workload: str, seed: int, reps: list[dict], setups: list[dict], trace: bool):
    problems = sorted({p for rep in reps for p in rep["problems"]})
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append(f"repetitions measured different inputs: {sorted(digests)}")
    for mode in ("untraced", "traced"):
        counts = [json.dumps(rep["counts"], sort_keys=True) for rep in reps if rep["mode"] == mode]
        if len(set(counts)) > 1:
            problems.append(f"{mode} repetitions disagree on exact counts")
    untraced = [rep for rep in reps if rep["mode"] == "untraced"]
    traced = [rep for rep in reps if rep["mode"] == "traced"]
    counts = (traced or untraced)[0]["counts"]
    report = {
        "workload": workload,
        "seed": seed,
        "digest": sorted(digests),
        "counts": counts,
        "problems": problems,
        "cpu_s": statistics.median(rep["cpu_s"] for rep in untraced),
        "wall_s": statistics.median(rep["wall_s"] for rep in untraced),
        "setup_samples_s": [rep["setup_s"] for rep in setups],
        "setup_norm_samples_s": [rep["setup_norm_s"] for rep in setups],
        "reps": [
            {k: rep[k] for k in ("mode", "wall_s", "wall_norm_s", "ref_ms", "cpu_s", "setup_s", "peak_rss_mb", "attempted", "failed")}
            for rep in reps
        ],
    }
    if workload == "broadcast-ladder" and seed == 0:
        found = {k: counts["rung_nodes"].get(k) for k in SEED0_BASELINE_NODES}
        report["seed0_baseline_nodes"] = {"expected": SEED0_BASELINE_NODES, "found": found}
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    def median_of(key: str, mode_reps: list[dict]) -> float:
        return statistics.median(rep[key] for rep in mode_reps)

    if trace:
        names = traced[0]["layers"]
        metrics = {name: statistics.median(rep["layers"][name] for rep in traced) for name in names}
        metrics["trace.untraced_wall_s"] = median_of("wall_s", untraced)
        metrics["trace.traced_wall_s"] = median_of("wall_s", traced)
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["trace.overhead_norm_s"] = median_of("wall_norm_s", traced) - median_of("wall_norm_s", untraced)
        metrics["host.ref_ms"] = median_of("ref_ms", reps)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        metrics = {
            "wall_norm_s": {"value": median_of("wall_norm_s", untraced), "unit": "s"},
            "setup_s": {"value": median_of("setup_norm_s", setups), "unit": "s"},
            "peak_rss_mb": {"value": median_of("peak_rss_mb", untraced), "unit": "MB"},
        }
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bdom" / "__init__.py").is_file():
        print(f"no bdom sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        worker(args.workload, args.seed, "setup")  # warms the page cache and bytecode; not counted
        reps, setups = repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
        while len(setups) < MIN_SETUPS:
            setups.append(worker(args.workload, args.seed, "setup"))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    report, result = summarize(args.workload, args.seed, reps, setups, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
