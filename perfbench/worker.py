#!/usr/bin/env python3
"""One cold run of one workload, in a fresh process; prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --mode untraced|traced|setup

`setup` stops after importing bdom and building the inputs.  The other modes
then run every operation one after another (the timed phase), read the peak
resident memory, and only then check the results, so that the checks neither
count in the time nor in the memory.  `traced` also records spans and writes
them to `.perfbench/` in the checkout.  Run without `-O`: the solvers' own
witness asserts are part of what users pay for.

A reference loop is timed around the set-up and between the operations,
outside what it times, and `setup_norm_s` and `wall_norm_s` are the set-up
and the timed phase at the loop's nominal speed (see reference.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import SWEEP_KINDS, Clock
from tracing import Tracer, durations, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5  # reference loops on each side of the set-up


def _p(samples: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (0 without samples)."""
    if len(samples) < 2:
        return 1000 * sum(samples)
    return 1000 * statistics.quantiles(samples, n=100)[q - 1]


def layer_metrics(spans, ops, counts: dict) -> dict:
    d = durations(spans)

    def matching(key: str):
        """(calls, seconds) of the spans named `key`, or under it if it ends in a dot."""
        return [v for name, v in d.items() if name == key or key.endswith(".") and name.startswith(key)]

    def total(key: str) -> float:
        return sum(t for _, t in matching(key))

    def calls(key: str) -> int:
        return sum(c for c, _ in matching(key))

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    metrics_s = total("graphs.metrics")
    build_s = total("graphs.") - metrics_s
    entries = sum(g.n * g.n for g in {op.graph for op in ops})
    gamma_b_s = total("solvers.solve_gamma_b")
    Gamma_b_s = total("solvers.solve_upper_gamma_b")
    sweep_s = total("solvers.solve_gamma")
    check_s = total("broadcasts.")
    classify_s = total("diametrical.classify_tree")
    Gamma_b_ops = [end - start for name, _, start, end in spans if name == "solvers.solve_upper_gamma_b"]
    out = {
        "bdom.import_s": total("bdom.import"),
        "graphs.build_s": build_s,
        "graphs.metrics_s": metrics_s,
        "graphs.metrics_calls": calls("graphs.metrics"),
        "graphs.dist_entries_per_s": rate(entries, metrics_s),
        "trees.enumerate_s": total("trees.enumerate_trees"),
        "trees.enumerated": counts["enumerated"],
        "trees.random_s": total("trees.random_tree"),
        "broadcasts.check_s": check_s,
        "broadcasts.checks": calls("broadcasts."),
        "broadcasts.checks_per_s": rate(calls("broadcasts."), check_s),
        "solvers.gamma_b_s": gamma_b_s,
        "solvers.gamma_b_nodes": counts["gamma_b_nodes"],
        "solvers.Gamma_b_s": Gamma_b_s,
        "solvers.Gamma_b_nodes": counts["Gamma_b_nodes"],
        "solvers.nodes_per_s": rate(counts["gamma_b_nodes"] + counts["Gamma_b_nodes"], gamma_b_s + Gamma_b_s),
        "solvers.Gamma_b_op_p50_ms": _p(Gamma_b_ops, 50),
        "solvers.Gamma_b_op_p95_ms": _p(Gamma_b_ops, 95),
        "solvers.sweep_s": sweep_s,
        "solvers.subsets": counts["gamma_nodes"],
        "solvers.subsets_per_s": rate(counts["gamma_nodes"], sweep_s),
        "solvers.Gamma_after_gamma_s": total("solvers.solve_upper_gamma"),
        "solvers.budget_errors": counts["budget_errors"],
        "diametrical.classify_s": classify_s,
        "diametrical.longest_paths": counts["longest_paths"],
        "diametrical.trees_per_s": rate(calls("diametrical.classify_tree"), classify_s),
        "formulas.mismatches": counts["mismatches"],
        "diametrical.disagreements": counts["disagreements"],
        "trace.spans": len(spans),
    }
    out.update({f"{layer}.self_s": t for layer, t in self_times(spans).items()})
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced", "setup"), required=True)
    args = parser.parse_args()
    if not __debug__:
        print("run without -O: the solvers' witness asserts must stay in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(args.mode == "traced")

    clock = Clock()
    clock.sample(SETUP_SAMPLES)
    started = time.perf_counter()
    import bdom  # noqa: F401  (timed: numpy's import dominates set-up)

    tracer.record("bdom.import", started, time.perf_counter())
    from bdom.errors import CapabilityError

    import workloads

    ops, counts = workloads.build(args.workload, args.seed, tracer)
    setup_s = time.perf_counter() - started
    clock.sample(SETUP_SAMPLES)
    out = {"setup_s": setup_s, "setup_norm_s": setup_s * clock.scale(), "digest": workloads.digest(ops)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    results, op_times = [], []
    cpu_s = 0.0
    for op in ops:
        cpu_started = time.process_time()
        op_started = time.perf_counter()
        with tracer.span("bench.op"):
            try:
                results.append((workloads.run(op, tracer), None))
            except Exception as exc:  # a failed operation, counted below
                results.append((None, exc))
        op_times.append(time.perf_counter() - op_started)
        cpu_s += time.process_time() - cpu_started
        clock.sample_after(op_times[-1])
    scale = clock.scale()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # canonical_form recurses once per level of the tree: a 1500-vertex path
    # needs more than the default limit
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
    problems = []
    for op, (result, exc) in zip(ops, results):
        if exc is not None:
            counts["budget_errors"] += isinstance(exc, CapabilityError)
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        with tracer.span("bench.check"):
            problem = workloads.check(op, result, tracer, counts)
        if problem is not None:
            problems.append(problem)
    failed = len(problems)
    problems += workloads.finding_problems(args.workload, args.seed, counts)
    out.update(
        wall_s=sum(op_times),
        wall_norm_s=sum(took if op.kind in SWEEP_KINDS else took * scale for op, took in zip(ops, op_times)),
        ref_ms=clock.median_ms(),
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        failed=failed,
        problems=problems,
        counts=counts,
    )
    if tracer.enabled:
        out["layers"] = layer_metrics(tracer.spans, ops, counts)
        out["layers"]["process.cpu_s"] = cpu_s
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        spans_file = spans_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
