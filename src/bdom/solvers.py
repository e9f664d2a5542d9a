"""Exact solvers for the four domination invariants, with witnesses.

All four come from one depth-first search over strength vectors in
lexicographic order.  A minimal dominating set is a minimal dominating
broadcast whose strengths are all 0 or 1: strength 1 at v hears N[v], and
v's private neighbor may be v itself.  So the set invariants (gamma, Gamma)
search strengths capped at 1, and the broadcast invariants (gamma_b,
Gamma_b) strengths capped at the eccentricity.  The search reports every
minimal dominating vector whose cost lies in a window [lo, hi], which the
caller may narrow as results come in, and it cuts a subtree when

* some broadcaster can no longer gain a private neighbor at the required
  distance (hearer sets only grow, so the test is monotone and never cuts a
  completable branch);
* some vertex that no later vertex can reach is still unheard;
* the window is empty, or full strength on every later vertex cannot lift
  the cost to lo;
* the unheard set U' left after a position cannot lift the cost to lo:
  every later broadcaster needs a private neighbor heard by it alone, so
  one still in U' and no other's (Dunbar et al., "Broadcasts in graphs",
  2006), and the later positions add at most |U'| times their largest cap;
* hearing the unheard set U cannot fit under hi: with rho = max |ball(v, s)|
  / s over all vertices v and strengths s from 1 to v's cap, which the orbit
  rounds below only lower, a broadcaster of strength s hears at most rho * s
  vertices, so U costs at least |U| / rho;
* (`beats_diameter` alone, the private-neighbor lookahead) the broadcaster v
  just placed can keep no private neighbor: let q be its private-neighbor
  spots still heard only by v.  A later vertex p hears an unheard vertex u
  only at a strength of at least max(1, d(p, u)), and once p's ball holds
  all of q, v has lost them all.  So p hears u and spares v only when u lies
  in p's safe ball, the largest ball of radius 1 to p's cap that misses part
  of q, and the branch dies when some unheard vertex lies in no later safe
  ball.  q only shrinks as the search goes on, so the test never cuts a
  completable branch, and verdict and witness stay.  Each (position, q)
  cover is computed once per search; a position whose row is not yet built
  counts at its whole ball, so the rows stay lazy.
* (`beats_diameter` on trees, under the same flag, the private-geodesic
  bound) the broadcasters from position i on cannot lift the cost to lo.
  In a minimal dominating broadcast f give each broadcaster v a private
  neighbor u_v at distance f(v) and a geodesic P_v from v to it, or one
  edge at v when f(v) = 1 and v is its own only private neighbor.  These
  edge sets are pairwise disjoint, so f costs at most the edges they use.
  If P_v and P_w share an edge, the triangle inequality through its ends
  gives d(w, u_v) + d(v, u_w) <= f(v) + f(w) when both cross it the same
  way, and 2 less the opposite ways, while privacy needs more than
  f(v) + f(w); a vertex that is its own private neighbor lies in no other
  ball, so on no other geodesic, and no two such are adjacent.  A later
  broadcaster's private neighbor is still unheard, so on a tree its edges
  lie in F_i(U): the edges that separate a position >= i from an unheard
  vertex, and the edges at a vertex that is both.  The search cuts a node
  when its cost so far plus |F_i(U)| is below lo.  An edge whose two sides
  both hold a position >= i counts for every nonempty U, and any other once
  U meets the side without one or an end of the edge at one (`_Spans`);
  each position's masks are built on its first visit.

Each solve builds one `_Search`, which holds the search order, each
position's top strength, rho, the ball rows, built on a run's first visit,
and the node count against the budget.  Each round of the solve (the
minimum's deepening, the orbit rounds below) is one `run`, which builds the
suffix tables once per caps.  `run` takes one Python frame per position and
raises the recursion limit by n while it runs; a graph of more than
_DEPTH_CAP vertices is refused before its distance table is built.

No minimal dominating broadcast costs more than the edge count, which caps
hi.  Every search tries each vertex's strengths from the top down, with 0
last, so it meets the vectors largest first in lexicographic order.  Each
solver's witness is the lexicographically largest optimal strength vector,
the first optimum found; for a set that is the lexicographically smallest
sorted member list.  The diametricality oracle `beats_diameter` decides
rather than optimizes: its window is [diam + 1, |E|], and its first find
closes it.  It searches the vertices by distance from the least-labelled
vertex of largest eccentricity, ties by label, the starting rule of
Cuthill and McKee's bandwidth ordering: each branch's vertices then come
together, so its cuts fire early whatever the labels.  Its witness is the
lexicographically largest vector in the window with strengths read in that
order.  The four solvers keep label order: their witnesses, which the CLI
prints, are defined on the graph's own labels, and the orbit search below
fixes vertex 0 first.

Gamma_b and Gamma use the automorphisms that `_automorphisms` finds and
checks.  On a vertex-transitive graph they search one orbit: every optimum
has an image under some automorphism with its largest strength s0 at vertex
0, so one search per s0, with vertex 0 fixed at s0 and every cap at most s0,
finds the optimum.  The lexicographically largest optimum is such an image,
so the round of its s0 meets it first and it is the last find.  The solver
proves transitivity itself, by finding automorphisms that move vertex 0 to
every vertex.

Both maximum searches also make the lex-leader cut (Crawford, Ginsberg, Luks
and Roy, "Symmetry-breaking predicates for search problems", KR 1996): for
an automorphism pi they skip a branch once its prefix shows f < f o pi,
where (f o pi)[v] = f[pi[v]].  An image of a minimal dominating broadcast is
one of the same cost, and automorphisms keep eccentricities, so f o pi lies
in the searched space.  The witness w, the lexicographically largest
optimum, satisfies w >= w o pi for every pi and is never cut; a vector that
is cut has a larger image of the same cost, and following larger images
through the finite orbit ends at one that no map cuts.  So values and
witnesses stay, and only intermediate finds and node counts change.  No map
need fix vertex 0, so every orbit round gets the same maps: in round s0 a
map that moves vertex 0 first compares f[0] = s0 with f[pi[0]] <= s0, and
leaves the watch at once unless the image too starts with s0.  At most
_LEX_MAP_CAP maps are tracked, each from the depth where its first
undecided comparison f[k] against f[pi[k]] can be read.  `beats_diameter`
makes no such cut: on trees the automorphism search costs more than the
nodes it saves.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .broadcasts import (
    Broadcast,
    cost,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from .errors import CapabilityError, InputError
from .graphs import Graph, is_connected, metrics

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
        raise CapabilityError(f"search of depth {g.n} exceeds the depth cap ({_DEPTH_CAP})")


def _check_witness(invariant: str, ok: bool) -> None:
    """Fail loudly when the predicate layer rejects a solver's witness.

    An explicit raise, not an assert, so that the check also runs under
    `python -O`.
    """
    if not ok:
        raise AssertionError(f"{invariant} witness rejected by the predicate layer")


class _Spans:
    """The edges of a tree that the broadcasters from each search position
    on may use for their private geodesics (module docstring), for an order
    that is breadth-first from order[0].  built[i] = (always, masks), or
    None until the search first reaches position i: with U the unheard set,
    |F_i(U)| is always plus the number of masks that meet U, when U is not
    empty.

    Let L be the vertices at positions >= i.  The edge from a vertex to its
    child c has two sides, c's subtree and the rest.  When L meets both it
    is in F_i(U) for every nonempty U; otherwise it is in F_i(U) once U
    meets the side L misses or one of the edge's ends in L."""

    def __init__(self, g: Graph, order: tuple[int, ...]):
        n = g.n
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        full = (1 << n) - 1
        sub = [1 << v for v in range(n)]  # the subtree below each vertex, as a bit mask
        self.edges = []  # (the child's subtree, the rest, the two ends) per edge
        for v in reversed(order[1:]):
            p = min(g.adjacency[v], key=pos.__getitem__)
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
    forms the set {v}.  `nodes` counts the nodes of every `run` against one
    `budget`.

    rows[i] = (ball, cand) for the strengths 0..tops[i] of v = order[i], or
    None until a run first reaches position i: ball[s] holds the vertices
    within distance s of v, cand[s] the spots where a broadcaster of
    strength s at v may keep its private neighbor, as bit masks over the
    graph's own labels."""

    def __init__(self, g: Graph, top: int, budget: int, order: tuple[int, ...] | None = None):
        m = metrics(g)
        n = self.n = g.n
        self.g, self.dist, self.ecc = g, m.dist, m.ecc
        self.order = order = tuple(range(n)) if order is None else order
        self.tops = tops = tuple(min(max(m.ecc[v], 1), top) for v in order)
        num, den = 0, 1  # largest |ball(v, s)| / s
        for v, cap in zip(order, tops):
            ball = sorted(m.dist[v])  # |ball(v, s)| = bisect_right(ball, s)
            s = 1
            while s <= cap:
                size = bisect.bisect_right(ball, s)
                if size * den > num * s:
                    num, den = size, s
                # a larger radius r beats num / den only with over
                # num * r / den >= k vertices, so only from ball[k] on
                k = num * (s + 1) // den
                if k >= n:
                    break
                s = ball[k]
        self.cover_ratio = (num, den)  # max |ball(v, s)| / s, 1 <= s <= top of v
        self.rows: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None] * n
        self.spans: _Spans | None = None  # for the private-geodesic bound, on trees
        self.nodes, self.budget = 0, budget
        self.suffixes: dict[tuple[int, ...], tuple] = {}  # caps -> suffix tables

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
        caps: tuple[int, ...] | None = None,
        s0: int = 0,
        maps: Sequence[Sequence[int]] = (),
        lookahead: bool = False,
    ) -> None:
        """DFS over strength vectors, largest first in lexicographic order:
        position i tries its strengths from caps[i] down, with 0 last; caps
        is tops when None, and each cap is at most its top, so that the
        cover ratio still bounds it.

        Calls on_found(cost, strengths) for every minimal dominating
        broadcast whose cost lies in the window [lo, hi] = `window`, with hi
        at most the edge count; strengths[i] is the strength of vertex
        order[i].  on_found may narrow the window by raising lo; raising it
        past hi closes the window and ends the search.  With s0 >= 1,
        position 0 is fixed at strength s0 (at most its cap) and the search
        starts from the state after it.  A budget error also reports the
        size of the space.

        Each of `maps` is an automorphism read as a map pi on positions
        that keeps every cap; the search skips every f that is
        lexicographically smaller than f o pi (the lex-leader cut).  With
        `lookahead` it also makes the private-neighbor lookahead and, on a
        tree, the private-geodesic bound (module docstring).
        """
        n = self.n
        caps = self.tops if caps is None else caps
        if caps not in self.suffixes:
            self.suffixes[caps] = self.suffix_tables(caps)
        suffix_cover, suffix_strength, suffix_top = self.suffixes[caps]
        strengths = [0] * n
        support: list[int] = []  # private-neighbor spots of the broadcasters so far
        rows = self.rows
        build_row = self.build_row
        cover_num, cover_den = self.cover_ratio
        count = self.nodes
        node_cap = self.budget
        covers: dict[tuple[int, int], int] = {}
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
            # the optimistic bound total + s + rest must reach lo; it rises with
            # s, so only strengths from `first` on can pass
            rest = suffix_strength[i + 1]
            first = lo - rest - total
            # each later broadcaster adds at most `most` and keeps a private
            # neighbor of its own that is still unheard
            most = suffix_top[i + 1]
            outside = ~suffix_cover[i + 1]  # vertices no later broadcaster can reach
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
                if s < first:  # every smaller strength fails too; first rises with lo
                    break
                mine = cands[s]
                # mine lies inside the ball, whose unheard vertices are the only
                # ones there left heard exactly once: a private neighbor must be one
                if mine & unheard == 0:
                    continue
                b = balls[s]
                heard_now = unheard & b
                new_unheard = unheard ^ heard_now
                if new_unheard & outside:
                    continue
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
                first = lo - rest - total
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


def _solve(g: Graph, invariant: str, top: int, budget: int, maximize: bool) -> InvariantReport:
    """The least or greatest cost of a minimal dominating vector with
    strengths up to top (1: a set), and its lexicographically largest
    witness.

    The search meets the vectors largest first, so the witness is the
    first optimum found, and every find raises lo past its cost.
    """
    _require_searchable(g)
    search = _Search(g, top, budget)
    found: list = []

    def on_found(c, vec):
        found.append((c, vec))
        window[0] = c + 1

    if maximize:
        # a vertex of the largest cap at full strength dominates minimally
        # (a peripheral vertex attains the diameter); a lone vertex has no
        # edge but forms the set {v}
        top_cap = max(search.tops)
        window = [top_cap, max(g.edge_count(), 1)]
        rounds = [(None, 0)]
        # positions are labels here, so each automorphism is its own map on
        # positions, and it keeps the caps, which follow the eccentricities
        maps = _automorphisms(g)
        if len(_orbit(0, maps)) == g.n:
            # one round per s0 from the top cap down, each on the same rows
            # with caps min(cap, s0) and the window the rounds before left;
            # a set search has one round, over the sets that hold vertex 0
            rounds = [(tuple(min(c, s0) for c in search.tops), s0) for s0 in range(top_cap, 0, -1)]
        maps = maps[:_LEX_MAP_CAP]
        for caps, s0 in rounds:
            search.run(window, on_found, caps=caps, s0=s0, maps=maps)
    else:
        # deepen hi until a round finds something, with one node budget for
        # all rounds; each round found nothing below hi, so its first find
        # closes it
        window = [0, 0]
        for hi in range(1, sum(search.tops) + 1):
            window[:] = [0, hi]
            search.run(window, on_found)
            if found:
                break
    value, vec = found[-1]
    if top == 1:
        members = tuple(v for v, s in enumerate(vec) if s)
        _check_witness(invariant, is_minimal_dominating_set(g, members) and len(members) == value)
        return InvariantReport(invariant, value, "exact", witness_set=members, nodes=search.nodes)
    witness = Broadcast(vec)
    _check_witness(
        invariant, is_minimal_dominating_broadcast(g, witness) and cost(witness) == value
    )
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

    The search takes the vertices by distance from the least-labelled vertex
    of largest eccentricity, ties by label, so that each branch's vertices
    come together and the cuts fire early whatever the labels.  The witness
    is the lexicographically largest such broadcast with its strengths read
    in that order.

    It alone makes the private-neighbor lookahead (module docstring), which
    cuts only branches that hold no minimal dominating broadcast at any
    cost, so the first find, verdict and witness, is the one the search
    without it makes.  On trees most branches die only at the last levels,
    when some broadcaster loses its last private neighbor, and the lookahead
    sees that early.  On trees it also makes the private-geodesic bound,
    which cuts only branches whose every completion costs less than the
    window's lo: most of the nodes the lookahead leaves lie on branches that
    do complete, but only below lo.  The four solvers leave both off: the
    lookahead cut only 10% of the benchmark's broadcast-ladder nodes and 1%
    of its set-ladder nodes, and on cycles and tori almost every edge stays
    in F_i(U).
    """
    _require_searchable(g)
    m = metrics(g)
    far = m.dist[m.ecc.index(m.diameter)]
    order = tuple(sorted(range(g.n), key=far.__getitem__))  # stable: ties by label
    search = _Search(g, _broadcast_top(g), budget, order)
    window = [m.diameter + 1, g.edge_count()]
    found: list = []

    def on_found(_c, vec):
        found.append(vec)
        window[0] = window[1] + 1  # the first find decides

    search.run(window, on_found, lookahead=True)
    if not found:
        return None
    strengths = [0] * g.n
    for v, s in zip(order, found[-1]):
        strengths[v] = s
    witness = Broadcast(tuple(strengths))
    _check_witness(
        "beats_diameter",
        is_minimal_dominating_broadcast(g, witness) and cost(witness) > m.diameter,
    )
    return witness
