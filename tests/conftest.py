"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's search machinery: they
enumerate raw subsets or raw strength vectors and apply only the predicate
layer, so solver tests have something genuinely independent to agree with.
`enumerate_minimal_broadcasts` is the exception: it drives the package's
broadcast search over a whole cost window, so that the solver tests can
compare its full stream with the unpruned enumeration.
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdom import solvers
from bdom.broadcasts import Broadcast, is_minimal_dominating_broadcast, is_minimal_dominating_set
from bdom.diametrical import (
    SINGLE_VERTEX,
    TOO_MANY_LIMBS,
    LimbDecomposition,
    Verdict,
    Violation,
    check_spacing,
    decompose,
)
from bdom.graphs import Graph, build_graph, metrics
from bdom.trees import canonical_form


@pytest.fixture
def fig_graph() -> Graph:
    """Five-vertex path 0-1-2-3 with an extra leaf 4 at vertex 2."""
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


@pytest.fixture
def fig_broadcasts(fig_graph):
    """The three named minimal dominating broadcasts on the figure graph."""
    f = Broadcast((1, 0, 1, 0, 0))
    g = Broadcast((3, 0, 0, 0, 0))
    h = Broadcast((1, 0, 0, 1, 1))
    return f, g, h


def all_strength_vectors(g: Graph):
    ecc = metrics(g).ecc
    return itertools.product(*(range(e + 1) for e in ecc))


def brute_minimal_broadcasts(g: Graph, cost_bound=None):
    """Unpruned enumeration: every strength vector, predicate-filtered."""
    out = []
    for vec in all_strength_vectors(g):
        if cost_bound is not None and sum(vec) > cost_bound:
            continue
        b = Broadcast(vec)
        if is_minimal_dominating_broadcast(g, b):
            out.append(b)
    return out


def enumerate_minimal_broadcasts(g: Graph, cost_bound: int):
    """Every minimal dominating broadcast of cost <= cost_bound that the
    package's broadcast search meets, exactly once, in lexicographic
    strength-vector order."""
    solvers._require_searchable(g)
    found = []
    solvers._Search(g, g.n, solvers.DEFAULT_NODE_BUDGET).run(
        [0, min(cost_bound, g.edge_count())], lambda _c, vec: found.append(Broadcast(vec))
    )
    return found[::-1]  # the search meets them largest first


def brute_minimal_dominating_sets(g: Graph):
    out = []
    for r in range(1, g.n + 1):
        for comb in itertools.combinations(range(g.n), r):
            if is_minimal_dominating_set(g, comb):
                out.append(comb)
    return out


def reference_longest_paths(t: Graph):
    """All-pairs reference for the longest paths of a tree: the pairs u < v
    at distance diam, in endpoint order, each walked from v down dist[u];
    `longest_path` is the first of them."""
    m = metrics(t)
    paths = []
    for u in range(t.n):
        for v in range(u + 1, t.n):
            if m.dist[u][v] == m.diameter:
                path = [v]
                while path[-1] != u:
                    x = path[-1]
                    path.append(next(w for w in t.adjacency[x] if m.dist[u][w] < m.dist[u][x]))
                paths.append(tuple(reversed(path)))
    return paths or [(0,)]


def reference_centers(t: Graph):
    """All-pairs reference for `tree_centers`: the vertices of least eccentricity."""
    m = metrics(t)
    return tuple(v for v, e in enumerate(m.ecc) if e == m.radius)


def reference_rule(t: Graph, path):
    """The stated rule on one longest path: the decomposition when the path
    passes, else its first violation."""
    dec = decompose(t, path)
    if isinstance(dec, Violation):
        return dec
    d = dec.diameter()
    if 2 * len(dec.limbs) >= d:
        return Violation(TOO_MANY_LIMBS, count=len(dec.limbs), required=d)
    return check_spacing(dec) or dec


def reference_classify(t: Graph) -> dict:
    """All-paths reference for `classify_tree`, as `to_json_dict`: accept on
    the first longest path in endpoint order that passes the rule, else
    reject with the first violation on the first path."""
    if t.n == 1:
        return Verdict(False, reason=Violation(SINGLE_VERTEX)).to_json_dict()
    outcomes = [reference_rule(t, p) for p in reference_longest_paths(t)]
    passed = [o for o in outcomes if isinstance(o, LimbDecomposition)]
    verdict = Verdict(True, witness=passed[0]) if passed else Verdict(False, reason=outcomes[0])
    return verdict.to_json_dict()


def reference_trees(max_n: int):
    """The walk over every rooting: each canonical level sequence on 1..max_n
    vertices in decreasing lexicographic order (Beyer and Hedetniemi's
    successor rule), its tree built, and a tree kept when `canonical_form`
    first meets its class."""
    for n in range(1, max_n + 1):
        seen = set()
        seq = list(range(n))
        while True:
            stack, edges = [0], []
            for i in range(1, n):
                del stack[seq[i]:]
                edges.append((stack[-1], i))
                stack.append(i)
            t = build_graph(n, edges)
            key = canonical_form(t)
            if key not in seen:
                seen.add(key)
                yield t
            p = max((i for i in range(n) if seq[i] > 1), default=None)
            if p is None:
                break
            q = max(i for i in range(p) if seq[i] == seq[p] - 1)
            for i in range(p, n):
                seq[i] = seq[i - (p - q)]
