"""The four workloads: their inputs, the operation each input is put through,
and the checks on every result.

Inputs depend only on the seed.  Seed 0 keeps the generators' canonical
labels and the random-tree stream of `scripts/tree_classification_sweep.py`,
so it reproduces the published baselines; any other seed relabels every fixed
instance by a seeded permutation and redraws the random trees.  Every value
checked below is an isomorphism invariant, so the expected values hold for
every seed.  No graph enters a run twice: a generated graph equal to one
already taken is relabelled again, which keeps the library's caches cold.
The one deliberate reuse is `solve_upper_gamma` after `solve_gamma` on the
same graph, as the set sweep does.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from bdom.broadcasts import cost, is_minimal_dominating_broadcast, is_minimal_dominating_set
from bdom.diametrical import classify_tree, is_diametrical_exact, witness_matches
from bdom.formulas import evaluate
from bdom.graphs import (
    Graph,
    LobsterSpec,
    build_graph,
    gen_cycle,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_torus,
    metrics,
)
from bdom.solvers import solve_gamma, solve_gamma_b, solve_upper_gamma, solve_upper_gamma_b
from bdom.trees import enumerate_trees, random_tree

from tracing import Tracer

SOLVERS = {
    "gamma": solve_gamma,
    "Gamma": solve_upper_gamma,
    "gamma_b": solve_gamma_b,
    "Gamma_b": solve_upper_gamma_b,
}

# Exact values recorded from the solvers at seed 0 (invariant under relabelling).
GAMMA_B_CYCLE = {n: n - 2 if n % 2 == 0 else n - 3 for n in range(8, 18)}
LOWER_GAMMA_B_CYCLE = {n: -(-n // 3) for n in range(8, 21)}
TORUS_GAMMA_B = {(3, 3): 3, (3, 4): 6, (3, 5): 6, (4, 4): 8, (4, 5): 10}
TORUS_LOWER_GAMMA_B = {(3, 3): 2, (3, 4): 3, (3, 5): 3, (4, 4): 3, (4, 5): 4, (5, 5): 4}
GRID_GAMMA_B = {(3, 4): 9, (3, 5): 12, (4, 4): 12}
GRID_LOWER_GAMMA_B = {(3, 4): 3, (3, 5): 3, (4, 4): 4}
# Gamma_b(C4xC5) is 10 with a witness both predicates accept; the row-product
# formula gives 8.  It is the one known closed-form mismatch of this ladder.
TORUS_GAMMA_B_CLOSED = {(3, 3): 3, (3, 4): 6, (3, 5): 6, (4, 4): 8, (4, 5): 8}

# (family, m, n): (gamma, Gamma) for the set ladder.
SET_VALUES = {
    ("torus", 3, 3): (3, 3),
    ("torus", 3, 4): (3, 6),
    ("torus", 3, 5): (4, 6),
    ("torus", 4, 4): (4, 8),
    ("torus", 4, 5): (5, 10),
    ("torus", 5, 5): (5, 10),
    ("grid", 3, 6): (5, 9),
    ("grid", 4, 5): (6, 10),
    ("grid", 4, 6): (7, 12),
    ("cycle", None, 20): (7, 10),
    ("cycle", None, 24): (8, 12),
}
# Published closed forms on the tori: gamma (None where no formula covers the
# point) and Gamma.  Gamma disagrees with the exact value at 3x4, 3x5, 4x5 and
# 5x5; these are the known torus upper-domination mismatches.
TORUS_SET_CLOSED = {
    (3, 3): (None, 3),
    (3, 4): (3, 4),
    (3, 5): (4, 5),
    (4, 4): (4, 8),
    (4, 5): (5, 8),
    (5, 5): (5, 9),
}

# Oracle and classifier verdicts on the 95 trees with at most 9 vertices, in
# enumeration order.  They differ on three trees.
ENUMERATED_EXACT = (
    "01110110111000111000110001111001101000000000000011110011111010100000000000000000000000000000000"
)
ENUMERATED_CLASSIFIER = (
    "01110110111000111000110001111001111000000000000011110011111011100000000010000000000000000000000"
)

# Known findings per workload, as exact counts.  Tree-sweep disagreements are
# fixed only at seed 0, where the random trees are those of the sweep script.
EXPECTED_MISMATCHES = {"broadcast-ladder": 1, "set-ladder": 4, "tree-sweep": 0, "large-trees": 0}
SEED0_TREE_DISAGREEMENTS = 9

SPIDER_LEGS = (20, 30, 40, 50, 60)
PATH_SIZES = (250, 500, 1000, 1500)
LOBSTER_DIAMETERS = (100, 200, 300, 400, 500, 600)
RANDOM_LARGE_SIZES = (200, 400, 600, 800, 1000)


@dataclass
class Op:
    label: str
    kind: str  # gamma | Gamma | gamma_b | Gamma_b | tree | large
    graph: Graph
    expected: object = None  # value or verdict; None when no value is recorded
    family: str | None = None
    m: int | None = None
    n: int | None = None
    closed: int | None = None  # recorded closed-form value; None: not evaluated
    oracle: bool | None = None  # tree-sweep: recorded oracle verdict


class Inputs:
    """Seeded graph source that never hands out the same graph twice."""

    def __init__(self, seed: int, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer
        self.enumerated = 0
        self.rng = random.Random(f"relabel:{seed}")
        self.seen: set[Graph] = set()

    def take(self, g: Graph) -> Graph:
        if self.seed != 0 or g in self.seen:
            g = self._relabel(g)
            while g in self.seen:
                g = self._relabel(g)
        self.seen.add(g)
        return g

    def make(self, gen, *args) -> Graph:
        return self.take(self.tracer.call(f"graphs.{gen.__name__}", gen, *args))

    def _relabel(self, g: Graph) -> Graph:
        perm = list(range(g.n))
        self.rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        return self.tracer.call("graphs.build_graph", build_graph, g.n, edges)


def spider(legs: int) -> Graph:
    """Center 0 with `legs` pendant paths of two edges."""
    edges = [(0, i) for i in range(1, legs + 1)] + [(i, i + legs) for i in range(1, legs + 1)]
    return build_graph(2 * legs + 1, edges)


def legal_lobster(d: int) -> LobsterSpec:
    """Limbs every 4 spine steps, kinds cycling A, B, C: every gap is legal."""
    return LobsterSpec(d, tuple((p, "ABC"[(p // 4) % 3]) for p in range(4, d - 3, 4)))


def _broadcast_ladder(src: Inputs) -> list[Op]:
    ops = []
    for n, value in GAMMA_B_CYCLE.items():
        ops.append(Op(f"Gamma_b C{n}", "Gamma_b", src.make(gen_cycle, n), value, "cycle", None, n, value))
    for n, value in LOWER_GAMMA_B_CYCLE.items():
        ops.append(Op(f"gamma_b C{n}", "gamma_b", src.make(gen_cycle, n), value))
    for (m, n), value in TORUS_GAMMA_B.items():
        g = src.make(gen_torus, m, n)
        ops.append(Op(f"Gamma_b C{m}xC{n}", "Gamma_b", g, value, "torus", m, n, TORUS_GAMMA_B_CLOSED[m, n]))
    for (m, n), value in TORUS_LOWER_GAMMA_B.items():
        g = src.make(gen_torus, m, n)
        ops.append(Op(f"gamma_b C{m}xC{n}", "gamma_b", g, value, "torus", m, n, value))
    for (m, n), value in GRID_GAMMA_B.items():
        ops.append(Op(f"Gamma_b P{m}xP{n}", "Gamma_b", src.make(gen_grid, m, n), value))
    for (m, n), value in GRID_LOWER_GAMMA_B.items():
        ops.append(Op(f"gamma_b P{m}xP{n}", "gamma_b", src.make(gen_grid, m, n), value))
    return ops


def _set_ladder(src: Inputs) -> list[Op]:
    ops = []
    for (family, m, n), values in SET_VALUES.items():
        if family == "torus":
            g, name, closed = src.make(gen_torus, m, n), f"C{m}xC{n}", TORUS_SET_CLOSED[m, n]
        elif family == "grid":
            g, name, closed = src.make(gen_grid, m, n), f"P{m}xP{n}", (None, None)
        else:
            g, name, closed = src.make(gen_cycle, n), f"C{n}", (None, None)
        for kind, value, formula in zip(("gamma", "Gamma"), values, closed):
            ops.append(Op(f"{kind} {name}", kind, g, value, family, m, n, formula))
    return ops


def _tree_sweep(src: Inputs) -> list[Op]:
    trees = src.tracer.call("trees.enumerate_trees", lambda: list(enumerate_trees(9)))
    src.enumerated = len(trees)
    ops = [
        Op(f"tree {i}", "tree", src.take(t), ENUMERATED_CLASSIFIER[i] == "1", oracle=ENUMERATED_EXACT[i] == "1")
        for i, t in enumerate(trees)
    ]
    # Seed 0 draws each size just before its tree, as the sweep script does.
    # Other seeds draw 40 trees of each size, in a seeded order: the oracle's
    # DFS work doubles with each vertex, so free sizes would move the
    # workload's work by about 7% from seed to seed, and fixed counts move it
    # by about 2%.
    rng = random.Random(src.seed)
    sizes = [10 + i % 5 for i in range(200)]
    if src.seed != 0:
        rng.shuffle(sizes)
    for i, n in enumerate(sizes):
        if src.seed == 0:
            n = rng.randrange(10, 15)
        t = src.tracer.call("trees.random_tree", random_tree, n, rng)
        ops.append(Op(f"random tree {i}", "tree", src.take(t)))
    return ops


def _large_trees(src: Inputs) -> list[Op]:
    ops = [Op(f"spider {k}x2", "large", src.make(spider, k), False) for k in SPIDER_LEGS]
    ops += [Op(f"path {k}", "large", src.make(gen_path, k), True) for k in PATH_SIZES]
    ops += [
        Op(f"lobster d={d}", "large", src.take(src.tracer.call("graphs.gen_lobster", gen_lobster, legal_lobster(d))), True)
        for d in LOBSTER_DIAMETERS
    ]
    rng = random.Random(src.seed)
    for k in RANDOM_LARGE_SIZES:
        t = src.tracer.call("trees.random_tree", random_tree, k, rng)
        ops.append(Op(f"random tree {k}", "large", src.take(t)))
    return ops


WORKLOADS = {
    "broadcast-ladder": _broadcast_ladder,
    "set-ladder": _set_ladder,
    "tree-sweep": _tree_sweep,
    "large-trees": _large_trees,
}


def build(workload: str, seed: int, tracer: Tracer) -> tuple[list[Op], dict]:
    """The workload's operations, and the exact counts that checking them
    fills in; at a fixed seed every count must repeat."""
    src = Inputs(seed, tracer)
    ops = WORKLOADS[workload](src)
    counts = dict.fromkeys(
        ("gamma_nodes", "gamma_b_nodes", "Gamma_b_nodes", "mismatches", "disagreements", "longest_paths", "budget_errors"),
        0,
    )
    counts.update(rung_nodes={}, enumerated=src.enumerated)
    return ops, counts


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.label, op.graph.adjacency)).encode())
    return h.hexdigest()[:16]


# --- the timed operation ------------------------------------------------------


def run(op: Op, tr: Tracer):
    """What a sweep does with one input.  The traced run computes the BFS
    metrics first so that they are attributed to `graphs` apart from the
    consumer, and calls the solver behind `is_diametrical_exact` directly so
    that its nodes are counted."""
    g = op.graph
    if tr.enabled:
        tr.call("graphs.metrics", metrics, g)
    if op.kind in SOLVERS:
        report = tr.call(f"solvers.{SOLVERS[op.kind].__name__}", SOLVERS[op.kind], g)
        closed = None
        if op.closed is not None:
            closed = tr.call("formulas.evaluate", evaluate, op.family, op.kind, op.m, op.n).value
        return report, closed
    verdict = tr.call("diametrical.classify_tree", classify_tree, g)
    if op.kind == "large":
        return verdict, None
    if not tr.enabled:
        return verdict, is_diametrical_exact(g)
    if g.n == 1:
        return verdict, False
    report = tr.call("solvers.solve_upper_gamma_b", solve_upper_gamma_b, g)
    return verdict, report


# --- checks, outside the timed phase -------------------------------------------


def is_lobster(t: Graph) -> bool:
    """Removing the leaves twice leaves a path (independent of the classifier)."""
    alive = set(range(t.n))
    for _ in range(2):
        if len(alive) <= 2:
            return True
        alive -= {v for v in alive if sum(w in alive for w in t.adjacency[v]) <= 1}
    return all(sum(w in alive for w in t.adjacency[v]) <= 2 for v in alive)


def check(op: Op, result, tr: Tracer, counts: dict) -> str | None:
    """Problem with the result of `op`, or None.  Updates the finding counts."""
    g = op.graph
    if op.kind in SOLVERS:
        report, closed = result
        if op.kind != "Gamma":  # Gamma reuses the sweep that gamma made
            counts[f"{op.kind}_nodes"] += report.nodes
        if op.kind.endswith("_b"):
            counts["rung_nodes"][op.label] = report.nodes
            w = report.witness_broadcast
            ok = tr.call("broadcasts.is_minimal_dominating_broadcast", is_minimal_dominating_broadcast, g, w)
            ok = ok and cost(w) == report.value
        else:
            w = report.witness_set
            ok = tr.call("broadcasts.is_minimal_dominating_set", is_minimal_dominating_set, g, w)
            ok = ok and len(w) == report.value
        if closed is not None and closed != report.value:
            counts["mismatches"] += 1
        if report.value != op.expected:
            return f"{op.label}: value {report.value}, expected {op.expected}"
        if not ok:
            return f"{op.label}: witness rejected by the predicate layer"
        if closed != op.closed:
            return f"{op.label}: closed form {closed}, expected {op.closed}"
        return None
    verdict, oracle = result
    counts["longest_paths"] += _longest_paths(g)
    if verdict.diametrical and not tr.call("diametrical.witness_matches", witness_matches, g, verdict.witness):
        return f"{op.label}: accepted with a decomposition that does not rebuild the tree"
    if op.kind == "large":
        expected = op.expected if op.expected is not None else (None if is_lobster(g) else False)
        if expected is not None and verdict.diametrical != expected:
            return f"{op.label}: classifier says {verdict.diametrical}, expected {expected}"
        return None
    if not isinstance(oracle, bool):  # traced run: the solver report
        counts["Gamma_b_nodes"] += oracle.nodes
        w = oracle.witness_broadcast
        if not (
            tr.call("broadcasts.is_minimal_dominating_broadcast", is_minimal_dominating_broadcast, g, w)
            and cost(w) == oracle.value
        ):
            return f"{op.label}: oracle witness rejected by the predicate layer"
        oracle = oracle.value == metrics(g).diameter
    counts["disagreements"] += verdict.diametrical != oracle
    if op.oracle is not None and (oracle, verdict.diametrical) != (op.oracle, op.expected):
        return f"{op.label}: oracle/classifier {oracle}/{verdict.diametrical}, expected {op.oracle}/{op.expected}"
    return None


def _longest_paths(t: Graph) -> int:
    m = metrics(t)
    return sum(row[u + 1 :].count(m.diameter) for u, row in enumerate(m.dist)) if t.n > 1 else 1


def finding_problems(workload: str, seed: int, counts: dict) -> list[str]:
    problems = []
    if counts["mismatches"] != EXPECTED_MISMATCHES[workload]:
        problems.append(
            f"{counts['mismatches']} closed-form mismatches, expected {EXPECTED_MISMATCHES[workload]}"
        )
    if workload == "tree-sweep" and seed == 0 and counts["disagreements"] != SEED0_TREE_DISAGREEMENTS:
        problems.append(
            f"{counts['disagreements']} disagreements at seed 0, expected {SEED0_TREE_DISAGREEMENTS}"
        )
    return problems

