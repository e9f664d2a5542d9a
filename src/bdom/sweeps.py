"""The two verification sweeps, defined once for the CLI (which the scripts
run) and the acceptance tests: closed form against solver, one row per point
(`verify_point`), and classifier against oracle over a tree corpus
(`classification_corpus`, `check_tree`).  The oracle behind both is the
decision search `beats_diameter`; a tree check keeps the broadcast it finds,
which certifies a non-diametrical tree.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

from . import formulas
from .broadcasts import Broadcast
from .diametrical import Verdict, classify_tree
from .errors import CapabilityError, DepthCapError, InputError
from .graphs import FAMILIES, Graph, serialize
from .solvers import (
    DEFAULT_NODE_BUDGET,
    beats_diameter,
    diameter_search,
    solve_gamma,
    solve_gamma_b,
    solve_upper_gamma,
    solve_upper_gamma_b,
)
from .trees import enumerate_trees, random_tree

INVARIANT_SOLVERS = {
    "gamma": solve_gamma,
    "Gamma": solve_upper_gamma,
    "gamma_b": solve_gamma_b,
    "Gamma_b": solve_upper_gamma_b,
}


def verify_point(family: str, which: str, m: int | None, n: int,
                 budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """One sweep row: the closed form ("n/a" when none covers the point), the
    exact value ("skipped:budget" past the node budget, "skipped:depth" past
    the search's depth cap, "n/a" when the solver refuses the point),
    whether they match, the solver's nodes and the row's wall time in
    milliseconds.  A point skipped past the budget searched budget + 1
    nodes, since every search raises at the first node past it; one skipped
    past the depth cap, or refused, searched none."""
    row = {
        "family": family,
        "m": "" if m is None else m,
        "n": n,
        "invariant": which,
        "closed_form": "",
        "exact": "",
        "match": "",
        "nodes": 0,
        "millis": 0,
    }
    started = time.monotonic()
    try:
        row["closed_form"] = formulas.evaluate(family, which, m, n).value
    except (InputError, CapabilityError):
        row["closed_form"] = "n/a"
    gen, _ = FAMILIES[family]
    g = gen(n) if m is None else gen(m, n)
    try:
        if which == "diametrical":
            # a lone vertex has no dominating broadcast, so no search
            beats, row["nodes"] = (None, 0) if g.n == 1 else diameter_search(g, budget)
            row["exact"] = int(g.n > 1 and beats is None)
        else:
            rep = INVARIANT_SOLVERS[which](g, budget)
            row["exact"] = rep.value
            row["nodes"] = rep.nodes
    except DepthCapError:
        row["exact"] = "skipped:depth"
    except CapabilityError:
        row["exact"] = "skipped:budget"
        row["nodes"] = budget + 1
    except InputError:  # a point the solver refuses, as a lone vertex for gamma_b
        row["exact"] = "n/a"
    if isinstance(row["closed_form"], int) and isinstance(row["exact"], int):
        row["match"] = "true" if row["closed_form"] == row["exact"] else "false"
    row["millis"] = int((time.monotonic() - started) * 1000)
    return row


def classification_corpus(max_n: int = 9, count: int = 200, lo: int = 10,
                          hi: int = 14, seed: int = 0) -> list[Graph]:
    """Every tree with up to max_n vertices, then `count` seeded random trees
    with lo..hi vertices.  The defaults give the 295-tree acceptance corpus."""
    if count < 0:
        raise InputError(f"random tree count must be non-negative, got {count}")
    if count > 0 and hi < lo:
        raise InputError(f"random tree sizes {lo}..{hi}: the range is empty")
    trees = list(enumerate_trees(max_n))
    rng = random.Random(seed)
    for _ in range(count):
        trees.append(random_tree(rng.randrange(lo, hi + 1), rng))
    return trees


@dataclass(frozen=True)
class TreeCheck:
    tree: Graph
    verdict: Verdict  # the structural rule's
    # a minimal dominating broadcast costing more than diam: the largest one
    # with strengths read in the oracle's order (by distance from the
    # least-labelled peripheral vertex, then by label), not in label order as
    # the broadcast solvers' printed witnesses are; nothing prints it
    beats: Broadcast | None

    @property
    def exact(self) -> bool:
        """The oracle's verdict: no broadcast beats the diameter, and the tree
        has a dominating broadcast at all (a single vertex has none)."""
        return self.tree.n > 1 and self.beats is None

    @property
    def agrees(self) -> bool:
        return self.verdict.diametrical == self.exact


def check_tree(t: Graph, budget: int = DEFAULT_NODE_BUDGET) -> TreeCheck:
    """Classify t and search for a broadcast that beats its diameter."""
    return TreeCheck(t, classify_tree(t), beats_diameter(t, budget) if t.n > 1 else None)


def summarize(checks: list[TreeCheck]) -> dict:
    agreements = sum(c.agrees for c in checks)
    return {
        "trees": len(checks),
        "diametrical": sum(c.exact for c in checks),
        "agreements": agreements,
        "disagreements": len(checks) - agreements,
    }


def dump_disagreements(checks: list[TreeCheck], directory: Path) -> None:
    """Write each disagreeing tree, if any, to directory as an edge list."""
    trees = [c.tree for c in checks if not c.agrees]
    if trees:
        directory.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(trees):
        (directory / f"disagreement_{i:04d}.edges").write_text(serialize(t))
