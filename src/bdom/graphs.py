"""Immutable simple graphs, BFS metrics, family generators, and edge-list I/O.

Vertices are always 0..n-1.  Grid and torus generators label vertices
row-major: the vertex in row i, column j (both 0-based) gets index i*n + j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import InputError

UNREACHABLE = -1  # sentinel distance for vertex pairs in different components

LIMB_KINDS = ("A", "B", "C")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    @cached_property
    def _metrics(self) -> Metrics:
        rows = tuple(tuple(bfs_distances(self, s)) for s in range(self.n))
        connected = all(d != UNREACHABLE for d in rows[0]) if self.n > 0 else True
        if not connected:
            return Metrics(rows, False, None, None, None)
        ecc = tuple(max(row) for row in rows)
        return Metrics(rows, True, ecc, min(ecc), max(ecc))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, collapsing duplicate edges.

    Rejects self-loops and out-of-range endpoints.
    """
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj))


@dataclass(frozen=True)
class Metrics:
    """All-pairs hop distances plus derived eccentricity data.

    Distances use UNREACHABLE for disconnected pairs; ecc/radius/diameter are
    only populated for connected graphs (operations that need them must check
    `connected` and reject, rather than work with infinite values).
    """

    dist: tuple[tuple[int, ...], ...]
    connected: bool
    ecc: tuple[int, ...] | None
    radius: int | None
    diameter: int | None


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distance from `source` to every vertex (UNREACHABLE if none)."""
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    adjacency = g.adjacency
    queue = [source]  # grows as the walk reads it, so it is never popped
    for u in queue:
        d = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = d
                queue.append(w)
    return dist


def metrics(g: Graph) -> Metrics:
    """BFS-exact metrics of `g`, kept on `g` and freed with it."""
    return g._metrics


def is_connected(g: Graph) -> bool:
    return UNREACHABLE not in bfs_distances(g, 0)


def gen_path(k: int) -> Graph:
    """Path on k vertices."""
    if k < 1:
        raise InputError(f"path needs at least 1 vertex, got {k}")
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def gen_cycle(k: int) -> Graph:
    """Cycle on k vertices (k >= 3)."""
    if k < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {k}")
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def gen_grid(m: int, n: int) -> Graph:
    """m-by-n grid (path product), row-major labels."""
    if m < 1 or n < 1:
        raise InputError(f"grid dimensions must be positive, got {m}x{n}")
    edges = [(i * n + j, i * n + j + 1) for i in range(m) for j in range(n - 1)]
    edges += [(i * n + j, (i + 1) * n + j) for i in range(m - 1) for j in range(n)]
    return build_graph(m * n, edges)


def gen_torus(m: int, n: int) -> Graph:
    """m-by-n toroidal grid (cycle product), row-major labels."""
    if m < 3 or n < 3:
        raise InputError(f"torus rows/columns must have length >= 3, got {m}x{n}")
    edges = [(i * n + j, i * n + (j + 1) % n) for i in range(m) for j in range(n)]
    edges += [(i * n + j, (i + 1) % m * n + j) for i in range(m) for j in range(n)]
    return build_graph(m * n, edges)


def gen_star(k: int) -> Graph:
    """Star with k leaves (center is vertex 0)."""
    if k < 1:
        raise InputError(f"star needs at least 1 leaf, got {k}")
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


# family name -> (generator, number of integer parameters); a one-parameter
# generator takes n, a two-parameter one (m, n).  Lobsters take a LobsterSpec.
FAMILIES = {
    "path": (gen_path, 1),
    "cycle": (gen_cycle, 1),
    "star": (gen_star, 1),
    "grid": (gen_grid, 2),
    "torus": (gen_torus, 2),
}


@dataclass(frozen=True)
class LobsterSpec:
    """Spine of `path_length` edges plus typed limbs at interior positions.

    Limb kinds: A = pendant path of two edges, B = two leaves at one spine
    vertex, C = a single leaf.  Positions must be strictly increasing and
    strictly between 0 and path_length.
    """

    path_length: int
    limbs: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self):
        if self.path_length < 1:
            raise InputError(f"spine must have at least 1 edge, got {self.path_length}")
        prev = 0
        for pos, kind in self.limbs:
            if kind not in LIMB_KINDS:
                raise InputError(f"unknown limb kind {kind!r}")
            if not (0 < pos < self.path_length):
                raise InputError(f"limb position {pos} not strictly inside the spine")
            if pos <= prev:
                raise InputError("limb positions must be strictly increasing")
            prev = pos


def gen_lobster(spec: LobsterSpec) -> Graph:
    """Tree from a lobster spec: spine 0..d, limb vertices appended in order."""
    d = spec.path_length
    edges = [(i, i + 1) for i in range(d)]
    next_id = d + 1
    for pos, kind in spec.limbs:
        if kind == "C":
            edges.append((pos, next_id))
            next_id += 1
        elif kind == "B":
            edges.append((pos, next_id))
            edges.append((pos, next_id + 1))
            next_id += 2
        else:  # A: pendant path of two edges
            edges.append((pos, next_id))
            edges.append((next_id, next_id + 1))
            next_id += 2
    return build_graph(next_id, edges)


# --- edge-list text format -------------------------------------------------
#
# First non-empty line: vertex count.  Each further non-empty line: "u v".
# '#' starts a comment (whole line or trailing).


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise InputError(f"line {lineno}: expected a single vertex count")
            try:
                n = int(parts[0])
            except ValueError:
                raise InputError(f"line {lineno}: vertex count is not an integer") from None
            if n < 1:
                raise InputError(f"line {lineno}: vertex count must be positive")
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: endpoints are not integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: vertex out of range (n={n})")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if n is None:
        raise InputError("empty edge-list input")
    return build_graph(n, edges)


def serialize(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
        n = obj["n"]
        edges = [(u, v) for u, v in obj["edges"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph JSON: {exc}") from None
    if not _is_int(n):
        raise InputError(f"bad graph JSON: vertex count must be an integer, got {n!r}")
    for u, v in edges:
        if not (_is_int(u) and _is_int(v)):
            raise InputError(f"bad graph JSON: edge endpoints must be integers, got {[u, v]!r}")
    return build_graph(n, edges)
