"""Diametrical-tree classification via limb decomposition of longest paths.

A tree is diametrical when its maximum minimal-broadcast cost equals its
diameter.  `classify_tree` applies the stated structural rule: along a
longest path every protrusion must be a legal limb, that is a pendant
two-edge path (kind A), a pair of leaves (kind B) or a single leaf (kind C);
there must be strictly fewer limbs than half the diameter; and neighboring
limbs and the spine ends must keep minimum spine gaps:

    A-A >= 4   A-B >= 3   A-C >= 3
    B-B >= 3   B-C >= 2   C-C >= 2
    end-A >= 2 end-B >= 2 end-C >= 1

`classify_tree` reads one longest path, because the rule gives the same
verdict on every longest path.  Suppose the longest path p0..pd passes.  A
vertex at depth k in a limb at position i has eccentricity k + max(i, d - i),
which is d only when k = min(i, d - i).  A and B limbs keep a gap of at least
2 from the ends, so the only vertices off the path of eccentricity d are the
leaf of a C limb at position 1 or d - 1 and the tip of an A limb at position
2 or d - 2, and every other longest path swaps one or both ends of p0..pd for
such a vertex.  A swap turns the old end into a limb of the same kind at the
same position, so the other path has the same limbs at the same positions,
read in the same or the reverse order; both gap tables are symmetric under
reversal, so it passes too.  Hence a tree that fails on one longest path
fails on all.  It reads that path off the double sweep of `trees` in three
BFS, the path starting at a sweep end (see `_longest_path`); `decompose`
checks a caller's path against the diameter from the sweep's first two.

The exact oracle `is_diametrical_exact` refutes the rule in both directions,
with broadcasts the predicate layer accepts, so the rule is neither
sufficient nor necessary:

* a diameter-5 spine with a two-edge limb at position 3 passes every
  condition, yet has a minimal dominating broadcast of cost 6;
* the path 0-1-...-8 with the two-edge limb 4-9-10 and the leaf 4-11 is
  diametrical, yet `decompose` reports IllegalLimbShape at spine vertex 4, so
  a diametrical tree need not be a lobster of A/B/C limbs.

On the acceptance corpus (all trees up to 9 vertices plus 200 seeded random
trees) the rule and the oracle disagree on 9 of 295 trees.

The oracle is a decision search, `solvers.beats_diameter`: it returns the
first minimal dominating broadcast it finds that costs more than the
diameter, which certifies a non-diametrical graph, or None for a
diametrical one.  It searches the vertices by distance from the
least-labelled vertex of largest eccentricity, ties by label, so that its
work does not hang on how a tree happens to be labelled; its witness is the
lexicographically largest such broadcast read in that order.  The solvers
behind the invariants keep label order, since their witnesses are printed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph, LobsterSpec, build_graph, gen_lobster
from .solvers import DEFAULT_NODE_BUDGET, beats_diameter
from .trees import _distances_from_end, _double_sweep, canonical_form

PAIR_MIN_GAP = {
    ("A", "A"): 4,
    ("A", "B"): 3,
    ("A", "C"): 3,
    ("B", "B"): 3,
    ("B", "C"): 2,
    ("C", "C"): 2,
}
END_MIN_GAP = {"A": 2, "B": 2, "C": 1}

SINGLE_VERTEX = "SingleVertex"
LIMB_TOO_DEEP = "LimbTooDeep"
ILLEGAL_LIMB_SHAPE = "IllegalLimbShape"
TOO_MANY_LIMBS = "TooManyLimbs"
SPACING_VIOLATION = "SpacingViolation"


def _min_gap(a: str, b: str) -> int:
    """The least spine gap between neighbouring stops a and b: limb kinds or
    the ends e1 and e2."""
    if a == "e1":
        return END_MIN_GAP[b]
    if b == "e2":
        return END_MIN_GAP[a]
    return PAIR_MIN_GAP[(a, b)] if (a, b) in PAIR_MIN_GAP else PAIR_MIN_GAP[(b, a)]


@dataclass(frozen=True)
class Limb:
    attach: int  # spine index
    kind: str  # A | B | C


@dataclass(frozen=True)
class Violation:
    """Why a tree (or one longest path of it) fails the classification."""

    kind: str
    at: int | None = None  # spine position
    pair: tuple[str, str] | None = None
    required: int | None = None
    actual: int | None = None
    count: int | None = None

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("at", "pair", "required", "actual", "count"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out


@dataclass(frozen=True)
class LimbDecomposition:
    """A longest path plus the typed limbs hanging off it.

    limb_vertices[i] lists the off-spine vertices of limbs[i]; together the
    spine and the limbs cover the whole tree.
    """

    spine: tuple[int, ...]
    limbs: tuple[Limb, ...]
    limb_vertices: tuple[tuple[int, ...], ...]

    def diameter(self) -> int:
        return len(self.spine) - 1

    def to_json_dict(self) -> dict:
        return {
            "spine": list(self.spine),
            "limbs": [[l.attach, l.kind] for l in self.limbs],
        }


@dataclass(frozen=True)
class Verdict:
    diametrical: bool
    witness: LimbDecomposition | None = None
    reason: Violation | None = None

    def to_json_dict(self) -> dict:
        return {
            "diametrical": self.diametrical,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "reason": self.reason.to_json_dict() if self.reason else None,
        }


def _longest_path(t: Graph, from_a: list[int], from_b: list[int]) -> tuple[int, ...]:
    """The path from the least-index peripheral vertex u to the least index v
    at distance diam from u (v > u, or v would be the peripheral one).

    u is a or b.  Cut the tree at its center (a vertex, or the middle edge):
    peripheral vertices are diam apart exactly when they lie in different
    parts.  Those of a part without 0 are all as far from 0, and farther than
    any vertex of the part of 0, so a is the least peripheral vertex of its
    part, and b the least of the other parts."""
    d, a = max(from_a), from_a.index(0)
    dist = from_a if a < from_a.index(d) else from_b
    path = [dist.index(d)]
    for k in range(d - 1, -1, -1):
        path.append(next(w for w in t.adjacency[path[-1]] if dist[w] == k))
    return tuple(reversed(path))


def longest_path(t: Graph) -> tuple[int, ...]:
    """The first longest path of a tree in endpoint order, from the double
    sweep alone, with no all-pairs table."""
    return _longest_path(t, *_double_sweep(t, "longest_path requires a tree"))


def _validate_diametrical_path(t: Graph, path, diameter: int) -> tuple[int, ...]:
    path = tuple(path)
    if len(path) != len(set(path)):
        raise InputError("path revisits a vertex")
    for a, b in zip(path, path[1:]):
        if b not in t.adjacency[a]:
            raise InputError(f"path step {a}-{b} is not an edge")
    if len(path) - 1 != diameter:
        raise InputError("path is not a longest path of the tree")
    return path


def decompose(t: Graph, path) -> LimbDecomposition | Violation:
    """Classify every protrusion along the given longest path.

    Each protrusion is read two levels deep from its spine vertex v: its
    roots are v's off-spine neighbours, and a root's child with a neighbour
    of its own makes it LimbTooDeep.  Otherwise the sorted child counts of
    the roots name the limb from one shape table: (0,) is a leaf C, (0, 0)
    two leaves B, (1,) a two-edge path A, and any other shape is
    IllegalLimbShape.  Returns the decomposition when every protrusion is a
    legal limb, else the first violation scanning the spine left to right,
    with the depth test before the shape test at each vertex.
    """
    diameter = max(_distances_from_end(t, "decompose requires a tree"))
    return _decompose(t, _validate_diametrical_path(t, path, diameter))


def _decompose(t: Graph, path: tuple[int, ...]) -> LimbDecomposition | Violation:
    """`decompose` on a path known to be a longest path of the tree t."""
    on_spine = set(path)
    adj = t.adjacency
    limbs: list[Limb] = []
    limb_vertices: list[tuple[int, ...]] = []
    for i, v in enumerate(path):
        roots = [u for u in adj[v] if u not in on_spine]
        if not roots:
            continue
        # a longest path cannot have protrusions at its endpoints
        assert 0 < i < len(path) - 1
        children = [w for r in roots for w in adj[r] if w != v]
        if any(len(adj[w]) > 1 for w in children):
            return Violation(LIMB_TOO_DEEP, at=i)
        shape = tuple(sorted(len(adj[r]) - 1 for r in roots))
        kind = {(0,): "C", (0, 0): "B", (1,): "A"}.get(shape)
        if kind is None:
            return Violation(ILLEGAL_LIMB_SHAPE, at=i)
        limbs.append(Limb(i, kind))
        limb_vertices.append(tuple(sorted(roots + children)))
    return LimbDecomposition(path, tuple(limbs), tuple(limb_vertices))


def check_spacing(dec: LimbDecomposition) -> Violation | None:
    """The first spine gap below its minimum, walking the stops e1 at 0, the
    limbs, and e2 at the diameter; `at` is the limb's position."""
    if not dec.limbs:
        return None
    stops = [(0, "e1"), *((l.attach, l.kind) for l in dec.limbs), (dec.diameter(), "e2")]
    for (i, a), (j, b) in zip(stops, stops[1:]):
        need = _min_gap(a, b)
        if j - i < need:
            return Violation(SPACING_VIOLATION, at=j if a == "e1" else i,
                             pair=(a, b), required=need, actual=j - i)
    return None


def classify_tree(t: Graph) -> Verdict:
    """Structural diametricality verdict for a tree, by the stated rule.

    Accepts when the tree's first longest path decomposes into legal limbs,
    strictly fewer than half the diameter of them, with all spine gaps
    satisfied; every other longest path gets the same verdict (see the module
    docstring).  On rejection the reason is the first failure on that path.
    The rule is neither sufficient nor necessary for diametricality;
    `is_diametrical_exact` decides it exactly.
    """
    sweep = _double_sweep(t, "classify_tree requires a tree")
    if t.n == 1:
        return Verdict(False, reason=Violation(SINGLE_VERTEX))
    dec = _decompose(t, _longest_path(t, *sweep))
    if isinstance(dec, Violation):
        return Verdict(False, reason=dec)
    d = dec.diameter()
    if 2 * len(dec.limbs) >= d:
        return Verdict(False, reason=Violation(TOO_MANY_LIMBS, count=len(dec.limbs), required=d))
    bad = check_spacing(dec)
    if bad is not None:
        return Verdict(False, reason=bad)
    return Verdict(True, witness=dec)


def witness_matches(t: Graph, dec: LimbDecomposition) -> bool:
    """Whether the lobster rebuilt from dec is isomorphic to t."""
    spec = LobsterSpec(dec.diameter(), tuple((l.attach, l.kind) for l in dec.limbs))
    return canonical_form(gen_lobster(spec)) == canonical_form(t)


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


def is_diametrical_exact(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Oracle: no minimal dominating broadcast costs more than the diameter.

    A single vertex has no dominating broadcast at all and counts as
    non-diametrical.
    """
    return g.n > 1 and beats_diameter(g, budget) is None
