"""Exact solvers for the four domination invariants, with witnesses.

All four, and the diametricality oracle `beats_diameter`, come from one
depth-first search over strength vectors, `_Search.run`.  A minimal
dominating set is a minimal dominating broadcast of strengths 0 and 1
(strength 1 at v hears N[v], and v may be its own private neighbor), so
gamma and Gamma cap the strengths at 1, and gamma_b and Gamma_b at the
eccentricity.  The search reports every minimal dominating vector whose
cost lies in a window [lo, hi], hi <= |E|, which the caller narrows as
finds come in.

Its rules, one line each: what the rule cuts; the nodes with it against
without it on B and S, the benchmark's broadcast and set ladders at seed 0,
and on T, the oracle's 294 corpus trees; and the test in
tests/test_solvers.py that fails without it.

* private neighbor: a strength with no unheard spot at its own distance, or
  one that takes an earlier broadcaster's last; every answer rests on it
  (test_witnesses_are_lexicographically_largest_vectors)
* window: strengths past hi - total, and all once lo passes hi: B 13,920
  against 204,198 (test_bipartite_witness_search_ignores_labels)
* reach: strength 0 while an unheard vertex lies in no later ball: S 5,210
  against 90,814 (test_torus_minimum_within_a_small_budget)
* floor: strength 0 while the later caps sum below lo - total: B 13,920
  against 15,085 (test_upper_broadcast_of_c5_c7_within_a_small_budget)
* unheard count: a strength after which the unheard vertices cannot lift
  the cost to lo: B 13,920 against 27,461, T 19,786 against 26,322
  (test_torus_maxima_within_small_budgets)
* cover ratio, while hi < |E|: unheard vertices that cost more than
  hi - total: B 13,920 against 1,082,966
  (test_gamma_b_of_a_long_path_within_a_small_budget)
* lookahead, for broadcasts with lo >= 1: a broadcaster that no later safe
  ball leaves a private neighbor: T 19,786 against 118,832
  (test_lookahead_cuts_two_thirds_of_a_diametrical_lobster)
* private geodesics, with the lookahead on trees: later broadcasters that
  cannot lift the cost to lo: T 19,786 against 41,648
  (test_private_geodesic_bound_keeps_every_oracle_answer)
* orbit rounds, for the maxima on vertex-transitive graphs: B 13,920
  against 69,095 (test_orbit_cut_fires_on_relabelled_inputs)
* lex-leader, for the maxima: a prefix that shows f < f o pi: B 13,920
  against 22,267, S 5,210 against 24,901
  (test_lex_leader_cut_halves_grid_nodes)
* automorphism levels past 0, for the lex-leader maps: S 5,210 against
  14,569 (test_large_groups_fill_the_map_cap)
* bipartite window, for Gamma: [beta, beta] for [top cap, |E|]: S 5,210
  against 9,438 (test_bipartite_window_cuts_the_proof)

The strength loop makes neither the reach nor the floor test: the child
catches those branches a level down, and the two saved 87 of B's nodes.

Proofs.  Hearer sets only grow along a branch, so a broadcaster that has
lost every private spot never regains one.  The positions from i + 1 on add
at most their caps and hear only their balls at those caps.  Each later
broadcaster keeps a private neighbor that it alone hears, so one still
unheard and no other's (Dunbar et al., "Broadcasts in graphs", 2006): they
add at most the unheard count times their largest cap.  With rho the
largest |ball(v, s)| / s over the vertices v and s from 1 to v's cap, which
the orbit rounds only lower, the unheard set U costs at least |U| / rho.
That cut is idle once hi >= |E|: by the lemma below the geodesics of the
broadcasters placed so far share no edge, and each of their edges has both
ends heard, so hi - total is at least the edges that meet U, at least
|U| / 2, and rho >= 2 when n >= 2 (a lone vertex has hi = 1 = rho).

The lookahead: let q be the spots of the broadcaster v just placed that
only v still hears.  A later vertex p hears an unheard u only at a strength
of at least max(1, d(p, u)), and once p's ball holds all of q, v has lost
them all.  So p hears u and spares v only when u lies in p's safe ball, its
largest ball of radius 1 to its cap that misses part of q.  q only shrinks.
A position whose row is not yet built counts at its whole ball.

The private-geodesic lemma: in a minimal dominating broadcast f give each
broadcaster v a private neighbor u_v at distance f(v) and a geodesic P_v to
it, or one edge at v when f(v) = 1 and v is its own only private neighbor.
These edge sets are pairwise disjoint, so f costs at most the edges they
use.  If P_v and P_w share an edge, the triangle inequality through its
ends gives d(w, u_v) + d(v, u_w) <= f(v) + f(w) when both cross it the same
way, and 2 less the opposite ways, while privacy needs more; a vertex that
is its own private neighbor lies in no other ball, so on no other
geodesic, and no two such are adjacent.  On a tree a later broadcaster's
private geodesic lies in F_i(U): the edges that separate a position >= i
from an unheard vertex, and the edges at a vertex that is both (`_Spans`).

The orbit rounds: on a vertex-transitive graph, which `_automorphisms`
proves by moving vertex 0 everywhere, every optimum has an image with its
largest strength s0 at vertex 0, so one search per s0, with vertex 0 fixed
at s0 and every cap at most s0, finds it; the lexicographically largest
optimum is such an image.  The lex-leader cut (Crawford, Ginsberg, Luks and
Roy, KR 1996) skips a branch once its prefix shows f < f o pi for an
automorphism pi, read on positions: pi'[i] = pos[pi[order[i]]].  An image
of a minimal dominating broadcast is one of the same cost within the same
caps, since automorphisms keep eccentricities.  The witness w has
w >= w o pi and is never cut; a cut vector has a larger image of the same
cost, and larger images through the finite orbit end at one no map cuts.
No map need fix vertex 0: in round s0 it first compares f[0] = s0 with
f[pi[0]] <= s0.  On trees the automorphism search costs more than it saves.

The bipartite window: Gamma = beta on bipartite graphs (Cockayne, Favaron,
Payan and Thomason, Discrete Math. 33, 1981), and beta = n - nu, with nu a
maximum matching, by König's theorem.  The rules above need only that the
lexicographically largest optimum lies in the window, so the first find is
that optimum; `nodes` counts only this witness search, and a solve that
finds no set of cost beta raises.

Each position tries its strengths from the top down, 0 last, so each
witness is the first optimum found: the lexicographically largest, read in
the search order.  The broadcast solvers search in label order, which takes
the tori row by row (breadth-first, Gamma_b(C5xC7) takes 324,646 nodes
against 277,960).  The set solvers search by distance from vertex 0, and
the oracle from the least-labelled vertex of largest eccentricity, ties by
label (`_breadth_first`, the start of Cuthill and McKee's bandwidth order),
so each branch's vertices come together whatever the labels.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

from .broadcasts import (
    Broadcast,
    cost,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from .errors import CapabilityError, DepthCapError, InputError
from .graphs import Graph, bfs_distances, is_connected, metrics

# search nodes, for all four solvers and beats_diameter
DEFAULT_NODE_BUDGET = 50_000_000
# The most positions a search takes.  It recurses once per position, and
# CPython 3.10 also spends a C stack frame on each Python call.
_DEPTH_CAP = 5_000


@dataclass(frozen=True)
class InvariantReport:
    """Value of an invariant plus the witness that attains it; a closed-form
    value carries its citation tag and parameter domain instead."""

    invariant: str  # gamma | Gamma | gamma_b | Gamma_b | diametrical
    value: int
    method: str  # exact | closed_form
    witness_set: tuple[int, ...] | None = None
    witness_broadcast: Broadcast | None = None
    nodes: int = 0
    source: str | None = None
    applicability: str | None = None

    def witness_json(self):
        if self.witness_set is not None:
            return {"vertices": list(self.witness_set)}
        if self.witness_broadcast is not None:
            return {"strengths": list(self.witness_broadcast.strengths)}
        return None

    def to_json_dict(self) -> dict:
        out = {"invariant": self.invariant, "value": self.value, "method": self.method}
        for key in ("source", "applicability"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        out["witness"] = self.witness_json()
        out["nodes"] = self.nodes
        return out


def _require_searchable(g: Graph) -> None:
    # one BFS, so that a graph the search refuses never builds the all-pairs table
    if not is_connected(g):
        raise CapabilityError("solver requires a connected graph")
    if g.n > _DEPTH_CAP:
        raise DepthCapError(f"search of depth {g.n} exceeds the depth cap ({_DEPTH_CAP})")


def _check_witness(invariant: str, ok: bool) -> None:
    """Fail loudly when the predicate layer rejects a solver's witness.

    An explicit raise, not an assert, so that the check also runs under
    `python -O`.
    """
    if not ok:
        raise AssertionError(f"{invariant} witness rejected by the predicate layer")


class _Spans:
    """The edges of a tree that the broadcasters from each search position
    on may use for their private geodesics (module docstring), for any
    order.  built[i] = (always, masks), or None until the search first
    reaches position i: with U the unheard set, |F_i(U)| is always plus the
    number of masks that meet U, when U is not empty.

    Let L be the vertices at positions >= i.  Rooted at order[0], the edge
    from a vertex to its child c has two sides, c's subtree and the rest,
    which no rooting changes.  When L meets both it is in F_i(U) for every
    nonempty U; otherwise it is in F_i(U) once U meets the side L misses or
    one of the edge's ends in L."""

    def __init__(self, g: Graph, order: tuple[int, ...]):
        n = g.n
        depth = metrics(g).dist[order[0]]
        full = (1 << n) - 1
        sub = [1 << v for v in range(n)]  # the subtree below each vertex, as a bit mask
        self.edges = []  # (the child's subtree, the rest, the two ends) per edge
        # children before parents; the root, alone at depth 0, comes last
        for v in sorted(range(n), key=depth.__getitem__, reverse=True)[:-1]:
            p = next(w for w in g.adjacency[v] if depth[w] < depth[v])
            sub[p] |= sub[v]
            self.edges.append((sub[v], full ^ sub[v], 1 << v | 1 << p))
        self.later = list(accumulate((1 << v for v in reversed(order)), operator.or_))[::-1]
        self.built: list[tuple[int, list[int]] | None] = [None] * n

    def build(self, i: int) -> tuple[int, list[int]]:
        later = self.later[i]
        always, masks = 0, []
        for side, rest, ends in self.edges:
            if side & later and rest & later:
                always += 1
            else:
                masks.append((rest if side & later else side) | ends & later)
        row = self.built[i] = (always, masks)
        return row


class _Search:
    """One solve's search of g: position i is vertex order[i] (label order
    when None), with strengths up to tops[i] = min(ecc, top), at least 1.
    top = 1 searches vertex sets, and top = n broadcasts; a lone vertex still
    forms the set {v}.  `nodes` counts the nodes of every `run` against one `budget`.

    rows[i] = (ball, cand) for the strengths 0..tops[i] of v = order[i], or
    None until a run first reaches position i: ball[s] holds the vertices
    within distance s of v, cand[s] the spots where a broadcaster of
    strength s at v may keep its private neighbor, as bit masks over the
    graph's own labels."""

    def __init__(self, g: Graph, top: int, budget: int, order: tuple[int, ...] | None = None):
        m = metrics(g)
        n = self.n = g.n
        self.g, self.dist, self.ecc, self.edges = g, m.dist, m.ecc, g.edge_count()
        self.order = order = tuple(range(n)) if order is None else order
        self.tops = tuple(min(max(m.ecc[v], 1), top) for v in order)
        self.rows: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None] * n
        self.spans: _Spans | None = None  # for the private-geodesic bound, on trees
        self.top, self.nodes, self.budget = top, 0, budget
        self.suffixes: dict[tuple[int, ...], tuple] = {}  # caps -> suffix tables

    @cached_property
    def cover_ratio(self) -> tuple[int, int]:
        """rho, the largest |ball(v, s)| / s over the positions' vertices v and
        their strengths s from 1 to their tops, as (num, den)."""
        num, den = 0, 1
        for v, cap in zip(self.order, self.tops):
            ball = sorted(self.dist[v])  # |ball(v, s)| = bisect_right(ball, s)
            s = 1
            while s <= cap:
                size = bisect.bisect_right(ball, s)
                if size * den > num * s:
                    num, den = size, s
                # a larger radius r beats num / den only with over
                # num * r / den >= k vertices, so only from ball[k] on
                k = num * (s + 1) // den
                if k >= self.n:
                    break
                s = ball[k]
        return num, den

    def build_row(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        v = self.order[i]
        top = self.tops[i]
        spheres = [0] * (top + 1)
        for u, d in enumerate(self.dist[v]):
            if d <= top:
                spheres[d] |= 1 << u
        ball = tuple(accumulate(spheres, operator.or_))
        # a private neighbor must sit at distance exactly s, except that a
        # strength-1 broadcaster may also be its own private neighbor
        spheres[1] |= 1 << v
        row = self.rows[i] = (ball, tuple(spheres))
        return row

    def lookahead(self, window: list[int]) -> bool:
        """Whether a run in `window` makes the lookahead and, on a tree, the
        private-geodesic bound: in a search of broadcasts with a floor.  The
        set searches and the minima skip them: there they save few nodes
        and cost time."""
        return self.top > 1 and window[0] >= 1

    def suffix_tables(self, caps: tuple[int, ...]) -> tuple:
        """For each position i, the union of the balls at positions >= i at
        their caps, the sum of those caps, and the largest of them: what
        each later broadcaster adds."""
        n = self.n
        cover = [0] * (n + 1)
        strength = [0] * (n + 1)
        most = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            v, cap = self.order[i], caps[i]
            if cap >= self.ecc[v]:
                ball = (1 << n) - 1
            else:
                ball = sum(1 << u for u, d in enumerate(self.dist[v]) if d <= cap)
            cover[i] = cover[i + 1] | ball
            strength[i] = strength[i + 1] + cap
            most[i] = max(most[i + 1], cap)
        return cover, strength, most

    def run(
        self,
        window: list[int],
        on_found: Callable[[int, tuple[int, ...]], None],
        s0: int = 0,
        maps: Sequence[Sequence[int]] = (),
    ) -> None:
        """DFS over strength vectors, largest first in lexicographic order:
        position i tries its strengths from caps[i] down, with 0 last.  The
        caps are the tops, each cut to s0 when s0 >= 1, so that the cover
        ratio still bounds them.

        Calls on_found(cost, strengths) for every minimal dominating
        broadcast whose cost lies in the window [lo, hi] = `window`, with hi
        at most the edge count; strengths[i] is the strength of vertex
        order[i].  on_found may raise lo; past hi, that ends the search.
        With s0 >= 1, position 0 is fixed at strength s0 (at most its top).
        A budget error also reports the size of the space.  Each of `maps`
        is an automorphism read on positions that keeps every cap.

        The rules (module docstring): every node passes the window, the
        cover ratio and, on a tree under the lookahead, the private
        geodesics; a strength s > 0 passes the private neighbor, the
        unheard count, the lex-leader maps and the lookahead; strength 0
        passes the reach, the floor, the unheard count and the maps.
        """
        n = self.n
        caps = tuple(min(c, s0) for c in self.tops) if s0 else self.tops
        if caps not in self.suffixes:
            self.suffixes[caps] = self.suffix_tables(caps)
        suffix_cover, suffix_strength, suffix_top = self.suffixes[caps]
        strengths = [0] * n
        support: list[int] = []  # private-neighbor spots of the broadcasters so far
        rows = self.rows
        build_row = self.build_row
        # the cover-ratio cut can fire only when hi < |E| (module docstring); 1 / 0 never does
        cover_num, cover_den = self.cover_ratio if window[1] < self.edges else (1, 0)
        count = self.nodes
        node_cap = self.budget
        covers: dict[tuple[int, int], int] = {}
        lookahead = self.lookahead(window)
        spans = None
        if lookahead and self.g.edge_count() == n - 1:
            spans = self.spans = self.spans or _Spans(self.g, self.order)
        if spans is not None:
            span_rows, build_spans = spans.built, spans.build

        def safe_cover(j: int, q: int) -> int:
            # the vertices some position from j on hears at a strength whose
            # ball misses part of q; a position without a row counts its whole
            # ball at its cap, and a cover kept from before its row was built
            # stays so, weaker but still sound
            key = (j, q)
            cover = covers.get(key)
            if cover is None:
                cover = 0
                while j < n and rows[j] is not None:
                    balls = rows[j][0]
                    r = caps[j]
                    while r and not q & ~balls[r]:
                        r -= 1
                    if r:
                        cover |= balls[r]
                    j += 1
                cover = covers[key] = cover | suffix_cover[j]
            return cover

        def rec(i: int, total: int, unheard: int, exactly_one: int, watch: tuple):
            nonlocal count
            count += 1
            if count > node_cap:
                logsize = sum(math.log10(c + 1) for c in caps)
                raise CapabilityError(
                    f"broadcast search exceeded the node budget ({node_cap}); "
                    f"search space ~10^{logsize:.0f} strength vectors"
                )
            if i == n:
                if unheard == 0:
                    on_found(total, tuple(strengths))
                return
            lo, hi = window
            if hi < lo or unheard.bit_count() * cover_den > cover_num * (hi - total):
                return
            if spans is not None:
                # the broadcasters from i on add at most |F_i(U)|
                always, masks = span_rows[i] or build_spans(i)
                need = lo - total - always
                if need > 0:
                    for mask in masks:
                        if mask & unheard:
                            need -= 1
                            if not need:
                                break
                    else:
                        return
            # each later broadcaster adds at most `most` and keeps a private
            # neighbor of its own that is still unheard; past the last
            # position most = 0, so there any cost below lo is cut
            most = suffix_top[i + 1]
            row = rows[i]
            if row is None:
                row = build_row(i)
            balls, cands = row
            top = hi - total
            if top > caps[i]:
                top = caps[i]
            low = 0
            deciding = None
            if watch[0][0] == i:
                # the maps whose next comparison reads position i bound its
                # strength: f[i] >= f[pi[i]] for k = i, f[i] <= f[k] for pi[k] = i
                split = 1
                while watch[split][0] == i:
                    split += 1
                deciding, watch = watch[:split], watch[split:]
                for _, k, pi in deciding:
                    if k == i:
                        if strengths[pi[i]] > low:
                            low = strengths[pi[i]]
                    elif strengths[k] < top:
                        top = strengths[k]
            for s in range(top, low - 1 if low else 0, -1):
                mine = cands[s]
                # mine lies inside the ball, whose unheard vertices are the only
                # ones there left heard exactly once: a private neighbor must be one
                if mine & unheard == 0:
                    continue
                b = balls[s]
                heard_now = unheard & b
                new_unheard = unheard ^ heard_now
                need = lo - total - s
                if need > 0 and new_unheard.bit_count() * most < need:
                    continue
                heard_twice = exactly_one & b
                new_exactly_one = exactly_one ^ heard_twice | heard_now
                # only vertices heard for the second time can take a private
                # neighbor away from an earlier broadcaster
                if heard_twice:
                    ok = True
                    for cm in support:
                        if cm & new_exactly_one == 0:
                            ok = False
                            break
                    if not ok:
                        continue
                if lookahead and new_unheard and new_unheard & ~safe_cover(i + 1, mine & unheard):
                    continue
                strengths[i] = s
                after = watch if deciding is None else _lex_advance(deciding, watch, i, strengths)
                if after is not None:
                    support.append(mine)
                    rec(i + 1, total + s, new_unheard, new_exactly_one, after)
                    support.pop()
                strengths[i] = 0
                lo = window[0]
                if hi < lo:
                    return
            # the floor and the reach test strength 0 alone, since a child
            # tests them a level down: first, the least strength at i that
            # full strength at every later position lifts to lo (the lo the
            # children left), must be 0, and no unheard vertex may lie
            # outside every later ball at its cap
            first = lo - suffix_strength[i + 1] - total
            outside = ~suffix_cover[i + 1]
            if low == 0 and first <= 0 and unheard & outside == 0:
                need = lo - total
                if need <= 0 or unheard.bit_count() * most >= need:
                    after = watch if deciding is None else _lex_advance(deciding, watch, i, strengths)
                    if after is not None:
                        rec(i + 1, total, unheard, exactly_one, after)

        start, unheard, exactly_one = 0, (1 << n) - 1, 0
        if s0:
            balls, cands = rows[0] or build_row(0)
            start, unheard, exactly_one = 1, unheard ^ balls[s0], balls[s0]
            strengths[0] = s0
            support.append(cands[s0])
        # entries (r, k, pi), sorted on r: pi's next comparison f[k] against
        # f[pi[k]], decided once position r = max(k, pi[k]) is set; the last
        # entry never comes due
        watch = _lex_advance([(0, 0, pi) for pi in maps], ((n,),), start - 1, strengths)
        if watch is None:
            return
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + n)  # one frame per position
        try:
            rec(start, s0, unheard, exactly_one, watch)
        finally:
            sys.setrecursionlimit(limit)
            self.nodes = count


_DUE = operator.itemgetter(0)  # a watch entry's position r


def _lex_advance(entries, watch: tuple, i: int, f: list[int]) -> tuple | None:
    """`watch` with `entries` put back once positions 0..i of f are set.

    Each entry moves its comparison k on past every pair f[k] == f[pi[k]]
    that positions 0..i decide.  It leaves the watch once f[k] > f[pi[k]],
    since then f beats its image whatever follows, or once k runs past the
    last position; the result is None once f[k] < f[pi[k]], since then the
    image beats f and f is cut."""
    out = list(watch)
    for _, k, pi in entries:
        n = len(pi)
        while k < n:
            j = pi[k]
            if j > i or k > i:
                if j != k:
                    bisect.insort(out, (max(j, k), k, pi), key=_DUE)
                    break
            elif f[k] != f[j]:
                if f[k] < f[j]:
                    return None
                break
            k += 1
    return tuple(out)


# Distance and adjacency tests the automorphism search may make on one graph
# before it stops and returns the maps it has found.
_AUTOMORPHISM_CHECK_CAP = 1_000_000
# The most automorphisms a maximum search tests its vectors against.
_LEX_MAP_CAP = 8


def _orbit(v: int, maps) -> set[int]:
    """The orbit of v under the group that `maps` generate."""
    orbit, frontier = {v}, [v]
    while frontier:
        x = frontier.pop()
        for m in maps:
            if m[x] not in orbit:
                orbit.add(m[x])
                frontier.append(m[x])
    return orbit


def _automorphisms(g: Graph) -> list[list[int]]:
    """Automorphisms of g, found and checked here, level by level: the maps
    of level k fix the vertices 0..k-1 and send k to each vertex that the
    level's maps so far do not already reach from k.

    Level 0 is searched in full, so g is vertex-transitive exactly when the
    orbit of 0 under the result is every vertex (`_orbit`); the deeper
    levels, whose maps fix vertex 0, stop once they hold _LEX_MAP_CAP maps.
    The search also stops, with the maps it has, once it has made
    _AUTOMORPHISM_CHECK_CAP distance and adjacency tests.
    """
    n = g.n
    adjacency = g.adjacency
    m = metrics(g)
    dist = m.dist
    degree = [len(a) for a in adjacency]
    layers: dict[int, list[int]] = {}  # vertices by distance from 0
    for v, d in enumerate(dist[0]):
        layers.setdefault(d, []).append(v)
    edges = g.edges()
    neighbors = [set(a) for a in adjacency]
    checks = _AUTOMORPHISM_CHECK_CAP  # distance and adjacency tests left

    def extend(k: int, w: int, rest, parent) -> list[int] | None:
        """A bijection that fixes 0..k-1 and sends k to w and preserves
        adjacency, by backtracking over the vertices of `rest` in order: each
        goes to a neighbor of its parent's image that keeps its degree, its
        distances to 0..k and its adjacency to the vertices placed before
        it.  None when there is none."""
        nonlocal checks
        image = [-1] * n
        used = [False] * n
        image[: k + 1] = targets = list(range(k)) + [w]
        for y in targets:
            used[y] = True
        pending: list = [None] * len(rest)  # the candidates left at each depth
        depth = 0
        while depth < len(rest):
            u = rest[depth]
            if pending[depth] is None:
                pending[depth] = iter(adjacency[image[parent[u]]])
            want = dist[u][: k + 1]
            placed = [image[x] for x in adjacency[u] if image[x] >= 0]
            for y in pending[depth]:
                if used[y] or degree[y] != degree[u]:
                    continue
                checks -= k + 1 + degree[u]
                if checks < 0:
                    return None
                near = neighbors[y]
                if (
                    tuple(map(dist[y].__getitem__, targets)) == want
                    and all(x in near for x in placed)
                    and sum(used[z] for z in near) == len(placed)
                ):
                    image[u], used[y] = y, True
                    depth += 1
                    break
            else:
                pending[depth] = None
                depth -= 1
                if depth < 0:
                    return None
                u = rest[depth]
                used[image[u]] = False
                image[u] = -1
        return image

    maps: list[list[int]] = []
    deeper = 0  # maps of the levels past 0
    for k in range(n):
        if k == 0:
            profile = sorted(dist[0])
            candidates = [
                w for w in range(1, n)
                if degree[w] == degree[0] and m.ecc[w] == m.ecc[0] and sorted(dist[w]) == profile
            ]
        else:
            # an image of k keeps k's distances to the fixed vertices 0..k-1
            head = dist[k][:k]
            candidates = [
                w for w in layers[dist[0][k]] if w > k and degree[w] == degree[k]
                and dist[w][:k] == head
            ]
        if not candidates:
            continue
        # the other vertices in breadth-first order from 0..k, each after a
        # neighbor placed before it
        parent = list(range(k + 1)) + [-1] * (n - k - 1)
        order = list(range(k + 1))
        for x in order:
            for y in adjacency[x]:
                if parent[y] < 0:
                    parent[y] = x
                    order.append(y)
        level: list[list[int]] = []
        reached = {k}
        for w in candidates:
            if w in reached:
                continue
            sigma = extend(k, w, order[k + 1 :], parent)
            if checks < 0:
                return maps
            if sigma is None:
                continue
            # the search preserves adjacency by construction; check the
            # result independently: a bijection that sends edges to edges
            if len(set(sigma)) != n or any(sigma[b] not in neighbors[sigma[a]] for a, b in edges):
                continue
            level.append(sigma)
            maps.append(sigma)
            reached = _orbit(k, level)
            if k:
                deeper += 1
                if deeper == _LEX_MAP_CAP:
                    return maps
    return maps


def _bipartite_independence(g: Graph) -> int | None:
    """The independence number of a connected bipartite g, n - nu by
    König's theorem with nu the size of a maximum matching; None when g has
    an odd cycle.

    It 2-colours g by the parity of the distance from vertex 0: g has an
    odd cycle exactly when some edge joins two vertices at the same
    distance.  It then grows the matching by augmenting paths in phases:
    each phase searches from every unmatched vertex of colour 0, with one
    visited mark per vertex for the whole phase, and the matching is
    maximum after a phase that finds none.  The path search keeps its own
    stack, so a long path takes no Python frames.
    """
    n, adjacency = g.n, g.adjacency
    depth = bfs_distances(g, 0)
    if any(depth[a] == depth[b] for a, b in g.edges()):
        return None
    left = [v for v in range(n) if depth[v] % 2 == 0]
    mate = [-1] * n
    grew = True
    while grew:
        grew = False
        seen = [False] * n  # vertices of colour 1 this phase has reached
        for root in left:
            if mate[root] >= 0:
                continue
            # a depth-first search for an alternating path from root that
            # ends at an unmatched vertex: stack[k] reaches stack[k + 1]
            # through its neighbor via[k], the vertex matched to stack[k + 1]
            stack, via, branches = [root], [], [iter(adjacency[root])]
            while stack:
                for w in branches[-1]:
                    if seen[w]:
                        continue
                    seen[w] = True
                    via.append(w)
                    if mate[w] < 0:
                        for u, x in zip(stack, via):
                            mate[u], mate[x] = x, u
                        stack, grew = [], True
                    else:
                        stack.append(mate[w])
                        branches.append(iter(adjacency[mate[w]]))
                    break
                else:
                    stack.pop()
                    branches.pop()
                    if via:
                        via.pop()
    return n - sum(mate[v] >= 0 for v in left)


def _breadth_first(g: Graph, root: int) -> tuple[int, ...]:
    """The vertices by distance from root, ties by label (the sort is
    stable): root comes first."""
    depth = metrics(g).dist[root]
    return tuple(sorted(range(g.n), key=depth.__getitem__))


def _solve(g: Graph, invariant: str, top: int, budget: int, maximize: bool) -> InvariantReport:
    """The least or greatest cost of a minimal dominating vector with
    strengths up to top (1: a set), and its witness (module docstring);
    every find raises lo past its cost."""
    _require_searchable(g)
    order = _breadth_first(g, 0) if top == 1 else tuple(range(g.n))
    search = _Search(g, top, budget, order)
    found: list = []

    def on_found(c, vec):
        found.append((c, vec))
        window[0] = c + 1

    if maximize:
        # a vertex of the largest cap at full strength dominates minimally
        # (a peripheral vertex attains the diameter); a lone vertex has no
        # edge but forms the set {v}
        top_cap = max(search.tops)
        beta = _bipartite_independence(g) if top == 1 else None
        window = [top_cap, max(search.edges, 1)] if beta is None else [beta, beta]
        rounds = [0]
        # each automorphism pi read on positions, pi'[i] = pos[pi[order[i]]],
        # keeps the caps, which follow the eccentricities
        maps = _automorphisms(g)
        transitive = len(_orbit(0, maps)) == g.n
        pos = [0] * g.n
        for i, v in enumerate(order):
            pos[v] = i
        maps = [[pos[pi[v]] for v in order] for pi in maps[:_LEX_MAP_CAP]]
        if transitive:
            # one round per s0 from the top cap down, each on the same rows
            # with caps min(cap, s0) and the window the rounds before left;
            # a set search has one round, over the sets that hold vertex 0
            rounds = range(top_cap, 0, -1)
        for s0 in rounds:
            search.run(window, on_found, s0=s0, maps=maps)
        if not found:
            # an explicit raise, not an assert, so that it also runs under -O
            raise AssertionError(
                f"{invariant}: no minimal dominating set of the bipartite bound {beta} (n - nu)"
            )
    else:
        # deepen hi until a round finds something, with one node budget for
        # all rounds; each round found nothing below hi, so its first find
        # closes it
        for hi in range(1, sum(search.tops) + 1):
            window = [0, hi]
            search.run(window, on_found)
            if found:
                break
    value, vec = found[-1]
    if top == 1:
        members = tuple(sorted(v for v, s in zip(order, vec) if s))
        _check_witness(invariant, is_minimal_dominating_set(g, members) and len(members) == value)
        return InvariantReport(invariant, value, "exact", witness_set=members, nodes=search.nodes)
    witness = Broadcast(vec)
    ok = is_minimal_dominating_broadcast(g, witness) and cost(witness) == value
    _check_witness(invariant, ok)
    return InvariantReport(invariant, value, "exact", witness_broadcast=witness, nodes=search.nodes)


def _broadcast_top(g: Graph) -> int:
    """The strength cap of a broadcast search: n, above every eccentricity."""
    if g.n == 1:
        raise InputError("a single vertex admits no dominating broadcast")
    return g.n


def solve_gamma(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """Minimum size of a minimal dominating set."""
    return _solve(g, "gamma", 1, budget, maximize=False)


def solve_upper_gamma(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """Maximum size of a minimal dominating set."""
    return _solve(g, "Gamma", 1, budget, maximize=True)


def solve_gamma_b(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """Minimum cost of a minimal dominating broadcast."""
    return _solve(g, "gamma_b", _broadcast_top(g), budget, maximize=False)


def solve_upper_gamma_b(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """Maximum cost of a minimal dominating broadcast."""
    return _solve(g, "Gamma_b", _broadcast_top(g), budget, maximize=True)


def beats_diameter(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> Broadcast | None:
    """A minimal dominating broadcast that costs more than the diameter;
    None when there is none, that is when Gamma_b equals the diameter.

    The witness is the lexicographically largest such broadcast, with its
    strengths read in the oracle's breadth-first order (module docstring).
    """
    return diameter_search(g, budget)[0]


def diameter_search(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> tuple[Broadcast | None, int]:
    """`beats_diameter`'s broadcast, and the nodes its search visited."""
    _require_searchable(g)
    m = metrics(g)
    order = _breadth_first(g, m.ecc.index(m.diameter))
    search = _Search(g, _broadcast_top(g), budget, order)
    window = [m.diameter + 1, search.edges]
    found: list = []

    def on_found(_c, vec):
        found.append(vec)
        window[0] = window[1] + 1  # the first find decides

    search.run(window, on_found)
    if not found:
        return None, search.nodes
    strengths = [0] * g.n
    for v, s in zip(order, found[-1]):
        strengths[v] = s
    witness = Broadcast(tuple(strengths))
    ok = is_minimal_dominating_broadcast(g, witness) and cost(witness) > m.diameter
    _check_witness("beats_diameter", ok)
    return witness, search.nodes
