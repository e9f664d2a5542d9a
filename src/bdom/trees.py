"""Tree recognition, eccentricities, canonical forms, and tree generation.

A tree needs no all-pairs distance table.  The vertex a farthest from 0 ends
a longest path, and so does the vertex b farthest from a; every vertex is
farthest from a or from b, so three BFS give every eccentricity, and with
them the centers.

Exhaustive generation walks rooted level sequences (the classic successor
rule that rewrites the tail of the sequence) and keeps one representative per
free-tree isomorphism class via a center-rooted canonical string.  Random
trees come from uniform Prüfer sequences with a caller-supplied RNG.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator

from .errors import CapabilityError, InputError
from .graphs import Graph, bfs_distances, build_graph, is_connected

EXHAUSTIVE_TREE_CAP = 12


def is_tree(g: Graph) -> bool:
    return g.edge_count() == g.n - 1 and is_connected(g)


def eccentricities(t: Graph) -> list[int]:
    """Every vertex's eccentricity in a tree, from three BFS."""
    from_0 = bfs_distances(t, 0)
    from_a = bfs_distances(t, from_0.index(max(from_0)))
    from_b = bfs_distances(t, from_a.index(max(from_a)))
    return [max(x, y) for x, y in zip(from_a, from_b)]


def tree_centers(g: Graph) -> tuple[int, ...]:
    """The one or two vertices of least eccentricity in a tree."""
    if not is_tree(g):
        raise InputError("tree_centers requires a tree")
    ecc = eccentricities(g)
    radius = min(ecc)
    return tuple(v for v, e in enumerate(ecc) if e == radius)


def _rooted_canonical(g: Graph, root: int) -> str:
    """The children's strings of each vertex, sorted, in parentheses; built
    children before parents, in reverse BFS order, so depth costs no stack."""
    parent = [-1] * g.n
    order = [root]
    for v in order:
        for w in g.adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: dict[int, str] = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted([code.pop(w) for w in g.adjacency[v] if w != parent[v]])) + ")"
    return code[root]


def canonical_form(g: Graph) -> str:
    """Isomorphism-invariant string for a tree (equal iff trees isomorphic)."""
    centers = tree_centers(g)
    return min(_rooted_canonical(g, c) for c in centers)


def _level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical level sequences of rooted trees on n vertices."""
    if n == 1:
        yield [0]
        return
    seq = list(range(n))  # the path, lexicographically largest sequence
    while True:
        yield seq
        p = max((i for i in range(n) if seq[i] > 1), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def _level_sequence_to_graph(seq: list[int]) -> Graph:
    n = len(seq)
    edges = []
    stack = [0]  # vertices on the path from the root, indexed by level
    for i in range(1, n):
        level = seq[i]
        del stack[level:]
        edges.append((stack[-1], i))
        stack.append(i)
    return build_graph(n, edges)


def enumerate_trees(max_n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on 1..max_n vertices.

    Deterministic order: by vertex count, then by first appearance in the
    level-sequence walk.  Capped because the class counts grow fast.
    """
    if max_n < 1:
        raise InputError(f"max_n must be positive, got {max_n}")
    if max_n > EXHAUSTIVE_TREE_CAP:
        raise CapabilityError(
            f"exhaustive tree enumeration capped at {EXHAUSTIVE_TREE_CAP} vertices"
            f" (asked for {max_n}); use random_tree for larger sizes"
        )
    for n in range(1, max_n + 1):
        seen: set[str] = set()
        for seq in _level_sequences(n):
            t = _level_sequence_to_graph(seq)
            key = canonical_form(t)
            if key not in seen:
                seen.add(key)
                yield t


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
