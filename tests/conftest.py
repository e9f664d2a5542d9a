"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's search machinery: they
enumerate raw subsets or raw strength vectors and apply only the predicate
layer, so solver tests have something genuinely independent to agree with.
`enumerate_minimal_broadcasts` is the exception: it drives the package's
broadcast search over a whole cost window, so that the solver tests can
compare its full stream with the unpruned enumeration.

The predicates and constructions at the end are used by the tests alone:
validated broadcasts, hearer and private-neighbour sets, efficiency, the
private-neighbour characterization of minimality, tree concatenation and
the Cartesian product.
"""

import itertools
import sys
from pathlib import Path
from typing import Iterable

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdom import solvers
from bdom.broadcasts import (
    Broadcast,
    _connected_dist,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from bdom.diametrical import (
    SINGLE_VERTEX,
    TOO_MANY_LIMBS,
    LimbDecomposition,
    Verdict,
    Violation,
    _validate_diametrical_path,
    check_spacing,
    decompose,
)
from bdom.errors import InputError
from bdom.graphs import Graph, build_graph, metrics
from bdom.trees import _distances_from_end, canonical_form


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


# --- predicates and constructions that only the tests use ---------------------


def make_broadcast(g: Graph, strengths: Iterable[int]) -> Broadcast:
    """Validated broadcast on `g`.

    The eccentricity bound can only be checked on connected graphs; on a
    disconnected graph construction succeeds and the domination predicate
    rejects instead (this keeps the type usable component-wise).
    """
    vec = tuple(int(s) for s in strengths)
    if len(vec) != g.n:
        raise InputError(f"expected {g.n} strengths, got {len(vec)}")
    if any(s < 0 for s in vec):
        raise InputError("strengths must be non-negative")
    m = metrics(g)
    if m.connected:
        for v, s in enumerate(vec):
            if s > m.ecc[v]:
                raise InputError(
                    f"strength {s} at vertex {v} exceeds its eccentricity {m.ecc[v]}"
                )
    return Broadcast(vec)


def broadcast_from_set(g: Graph, vertices: Iterable[int]) -> Broadcast:
    """Strength-1 broadcast on the given vertex set."""
    vec = [0] * g.n
    for v in vertices:
        vec[v] = 1
    return make_broadcast(g, vec)


def hearers(g: Graph, f: Broadcast, v: int) -> frozenset[int]:
    """Broadcasters that v can hear: {u : f(u) >= d(u, v) > unreachable}."""
    dist = metrics(g).dist
    return frozenset(
        u
        for u, s in enumerate(f.strengths)
        if s > 0 and 0 <= dist[u][v] <= s
    )


def private_neighbors(g: Graph, f: Broadcast, v: int) -> frozenset[int]:
    """Vertices whose hearer set is exactly {v}."""
    if f.strengths[v] <= 0:
        raise InputError(f"vertex {v} is not broadcasting")
    return frozenset(u for u in range(g.n) if hearers(g, f, u) == {v})


def _hearer_sets(g: Graph, f: Broadcast) -> list[frozenset[int]]:
    """Every vertex's hearers, from one pass over the distance table of a
    connected graph."""
    dist = _connected_dist(g)
    support = [(u, s) for u, s in enumerate(f.strengths) if s > 0]
    return [frozenset(u for u, s in support if dist[u][v] <= s) for v in range(g.n)]


def minimal_via_private_neighbors(g: Graph, f: Broadcast) -> bool:
    """Minimality through the private-neighbor characterization.

    A dominating broadcast is minimal iff every broadcaster v has a private
    neighbor at distance exactly f(v), or f(v) = 1 and v hears only itself.
    Kept as an independent implementation; tests assert it agrees with the
    decrement-based predicate on exhaustively enumerated broadcasts.
    """
    heard = _hearer_sets(g, f)
    if not all(heard):
        return False
    dist = metrics(g).dist
    for v, s in enumerate(f.strengths):
        if s == 0:
            continue
        privates = [u for u, h in enumerate(heard) if h == {v}]
        if any(dist[v][u] == s for u in privates):
            continue
        if s == 1 and v in privates:
            continue
        return False
    return True


def is_efficient(g: Graph, f: Broadcast) -> bool:
    """True iff every vertex hears exactly one broadcaster."""
    heard = _hearer_sets(g, f)
    if not all(heard):
        raise InputError("efficiency is only defined for dominating broadcasts")
    return all(len(h) == 1 for h in heard)


def concatenate(t1: Graph, d1, t2: Graph, d2) -> Graph:
    """Glue two trees by identifying the end of one longest path with the
    start of another; the result is a tree of diameter len(d1) + len(d2) - 2."""
    diam1, diam2 = (max(_distances_from_end(t, "concatenate requires trees")) for t in (t1, t2))
    d1 = _validate_diametrical_path(t1, d1, diam1)
    d2 = _validate_diametrical_path(t2, d2, diam2)
    rest = [w for w in range(t2.n) if w != d2[0]]  # numbered after t1's vertices
    mapping = {d2[0]: d1[-1], **{w: t1.n + i for i, w in enumerate(rest)}}
    edges = t1.edges() + [(mapping[a], mapping[b]) for a, b in t2.edges()]
    return build_graph(t1.n + len(rest), edges)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; vertex (a, b) maps to index a*g2.n + b."""
    n1, n2 = g1.n, g2.n
    edges = []
    for a in range(n1):
        for b, b2 in ((b, b2) for b in range(n2) for b2 in g2.adjacency[b] if b < b2):
            edges.append((a * n2 + b, a * n2 + b2))
    for a, a2 in ((a, a2) for a in range(n1) for a2 in g1.adjacency[a] if a < a2):
        for b in range(n2):
            edges.append((a * n2 + b, a2 * n2 + b))
    return build_graph(n1 * n2, edges)
