"""Tree recognition, eccentricities, canonical forms, and tree generation.

A tree needs no all-pairs distance table.  One double sweep answers every
tree question: the BFS from 0 tests that the graph is a tree and finds a,
the least-labelled vertex farthest from 0, the BFS from a finds b, the least
farthest from a, and the BFS from b ends it.  Every vertex is farthest from
a or from b, so the larger of its two distances is its eccentricity.  A
question that needs no eccentricity stops early: the first longest path
(`diametrical.longest_path`, read by `classify_tree`) takes two BFS, or
three when it starts at b, and a check against the diameter takes two.

Exhaustive generation walks the canonical level sequences of rooted trees
(the Beyer-Hedetniemi successor rule, which rewrites the tail of the
sequence) and keeps one representative per free-tree isomorphism class via a
center-rooted canonical string.  The walk meets the sequences in decreasing
lexicographic order, so it first meets each free tree at its largest rooting.
A canonical sequence of a root of height h starts 0, 1, ..., h, and every
other entry is at most h, so a taller rooting is the larger one; the tallest
rootings have height diam, and for n >= 3 their roots are the leaves ending a
longest path.  So only leaf rootings need walking: the rooted trees on n - 1
vertices, each hung under a new root, in the same relative order.  Of those,
only a rooting whose height equals its diameter can be a first meeting, and
the others are skipped before any string is built.  This yields the same
trees, with the same labels and in the same order, as the walk over every
rooting, and builds a `Graph` only for a tree it yields.  (Wright, Richmond,
Odlyzko and McKay, SIAM J. Comput. 15, 1986, generate free trees directly,
in another order.)

Random trees come from uniform Prüfer sequences with a caller-supplied RNG.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, Sequence

from .errors import CapabilityError, InputError
from .graphs import UNREACHABLE, Graph, bfs_distances, build_graph

EXHAUSTIVE_TREE_CAP = 14


def _tree_distances_from_0(g: Graph) -> list[int] | None:
    """The sweep's first BFS: the distances from 0 if g is a tree, else None."""
    from_0 = bfs_distances(g, 0) if g.edge_count() == g.n - 1 else [UNREACHABLE]
    return None if UNREACHABLE in from_0 else from_0


def is_tree(g: Graph) -> bool:
    return _tree_distances_from_0(g) is not None


def _distances_from_end(t: Graph, refusal: str) -> list[int]:
    """The distances from a, whose maximum is the diameter: two BFS, or
    InputError(refusal) if t is not a tree."""
    from_0 = _tree_distances_from_0(t)
    if from_0 is None:
        raise InputError(refusal)
    return bfs_distances(t, from_0.index(max(from_0)))


def _double_sweep(t: Graph, refusal: str) -> tuple[list[int], list[int]]:
    """The distances from a and from b: three BFS."""
    from_a = _distances_from_end(t, refusal)
    return from_a, bfs_distances(t, from_a.index(max(from_a)))


def eccentricities(t: Graph) -> list[int]:
    """Every vertex's eccentricity in a tree, from the double sweep."""
    return [max(x, y) for x, y in zip(*_double_sweep(t, "eccentricities requires a tree"))]


def tree_centers(g: Graph) -> tuple[int, ...]:
    """The one or two vertices of least eccentricity, ceil(diam / 2), in a tree."""
    from_a, from_b = _double_sweep(g, "tree_centers requires a tree")
    radius = (max(from_a) + 1) // 2
    return tuple(v for v, (x, y) in enumerate(zip(from_a, from_b)) if max(x, y) == radius)


def _rooted_canonical(adjacency: Sequence[Sequence[int]], root: int) -> str:
    """The children's strings of each vertex, sorted, in parentheses; built
    children before parents, in reverse BFS order, so depth costs no stack."""
    parent = [-1] * len(adjacency)
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: dict[int, str] = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted([code.pop(w) for w in adjacency[v] if w != parent[v]])) + ")"
    return code[root]


def canonical_form(g: Graph) -> str:
    """Isomorphism-invariant string for a tree (equal iff trees isomorphic)."""
    return min(_rooted_canonical(g.adjacency, c) for c in tree_centers(g))


def _level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical level sequences of rooted trees on n vertices."""
    if n == 1:
        yield [0]
        return
    seq = list(range(n))  # the path, lexicographically largest sequence
    while True:
        yield seq
        p = n - 1  # the last entry above 1
        while seq[p] <= 1:
            if p == 1:  # the star, the smallest sequence
                return
            p -= 1
        q = p - 1  # the parent of p
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def _leaf_rooted_key(seq: list[int]) -> tuple[list[int], str | None]:
    """The parent array of a leaf-rooted level sequence, and the canonical
    string of its tree if its height equals its diameter, else None.

    The sequence starts 0, 1, ..., h, so when h is the diameter the vertices
    0..h are a longest path and its middle one or two are the centers."""
    n = len(seq)
    parent = [0] * n
    stack = [0]  # vertices on the path from the root, indexed by level
    for i in range(1, n):
        del stack[seq[i]:]
        parent[i] = stack[-1]
        stack.append(i)
    down = [0] * n  # the height of each vertex's subtree
    diameter = 0
    for i in range(n - 1, 0, -1):  # children before parents
        p, h = parent[i], down[i] + 1
        if down[p] + h > diameter:
            diameter = down[p] + h
        if h > down[p]:
            down[p] = h
    if down[0] != diameter:
        return parent, None
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        adjacency[i].append(parent[i])
        adjacency[parent[i]].append(i)
    return parent, min(_rooted_canonical(adjacency, c) for c in {diameter // 2, (diameter + 1) // 2})


def enumerate_trees(max_n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on 1..max_n vertices.

    Deterministic order: by vertex count, then by first appearance in the
    level-sequence walk, each tree labelled by its largest rooting's
    sequence.  Capped because the class counts grow fast.
    """
    if max_n < 1:
        raise InputError(f"max_n must be positive, got {max_n}")
    if max_n > EXHAUSTIVE_TREE_CAP:
        raise CapabilityError(
            f"exhaustive tree enumeration capped at {EXHAUSTIVE_TREE_CAP} vertices"
            f" (asked for {max_n}); use random_tree for larger sizes"
        )
    yield build_graph(1, [])
    for n in range(2, max_n + 1):
        seen: set[str] = set()
        for sub in _level_sequences(n - 1):
            parent, key = _leaf_rooted_key([0] + [x + 1 for x in sub])
            if key is not None and key not in seen:
                seen.add(key)
                yield build_graph(n, [(parent[i], i) for i in range(1, n)])


def prufer_to_graph(seq: tuple[int, ...], n: int) -> Graph:
    """Labeled tree on n vertices decoded from a Prüfer sequence."""
    if n < 2:
        raise InputError("Prüfer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise InputError(f"Prüfer sequence for n={n} must have length {n - 2}")
    degree = [1] * n
    for x in seq:
        if not (0 <= x < n):
            raise InputError(f"Prüfer entry {x} out of range")
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree on n vertices."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if n == 1:
        return build_graph(1, [])
    if n == 2:
        return build_graph(2, [(0, 1)])
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return prufer_to_graph(seq, n)
