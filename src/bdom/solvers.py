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
* hearing the unheard set U cannot fit under hi: with rho = max |ball(v, s)|
  / s over all vertices v and searched strengths s >= 1, a broadcaster of
  strength s hears at most rho * s vertices, so U costs at least |U| / rho.

No minimal dominating broadcast costs more than the edge count, which caps
hi.  The callers differ only in their windows and in which optimum they keep:
each witness is the lexicographically smallest optimal broadcast or set.  The
diametricality oracle `beats_diameter` decides rather than optimizes: its
window is [diam + 1, |E|], and its first find closes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .broadcasts import (
    Broadcast,
    cost,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from .errors import CapabilityError, InputError
from .graphs import Graph, metrics

DEFAULT_BROADCAST_NODE_CAP = 50_000_000


@dataclass(frozen=True)
class SolverBudget:
    broadcast_node_cap: int = DEFAULT_BROADCAST_NODE_CAP  # search nodes, for all four solvers


DEFAULT_BUDGET = SolverBudget()


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


def _require_connected(g: Graph) -> None:
    if not metrics(g).connected:
        raise CapabilityError("solver requires a connected graph")


def _check_witness(invariant: str, ok: bool) -> None:
    """Fail loudly when the predicate layer rejects a solver's witness.

    An explicit raise, not an assert, so that the check also runs under
    `python -O`.
    """
    if not ok:
        raise AssertionError(f"{invariant} witness rejected by the predicate layer")


@dataclass(frozen=True)
class _SearchContext:
    n: int
    edge_count: int
    caps: tuple[int, ...]  # caps[v]: the largest strength searched at v
    ball: tuple[tuple[int, ...], ...]  # ball[v][s]: vertices within distance s of v
    cand: tuple[tuple[int, ...], ...]  # cand[v][s]: allowed private-neighbor spots
    suffix_cover: tuple[int, ...]  # union of the balls of vertices >= i at their caps
    suffix_strength: tuple[int, ...]  # sum of the caps of vertices >= i
    cover_ratio: tuple[int, int]  # (num, den): max |ball(v, s)| / s over 1 <= s <= caps[v]


def _search_context(g: Graph, top: int) -> _SearchContext:
    """Search tables for strengths up to min(ecc(v), top) at each vertex v.

    top = 1 searches vertex sets, and top = n broadcasts.  A lone vertex, of
    eccentricity 0, still forms the set {v}, so its cap is 1.
    """
    m = metrics(g)
    n = g.n
    dist = m.dist
    caps = tuple(min(max(e, 1), top) for e in m.ecc)
    ball = []
    cand = []
    num, den = 0, 1  # largest |ball(v, s)| / s
    for v in range(n):
        by_s = [1 << v]
        spheres = [1 << v]
        for s in range(1, caps[v] + 1):
            sphere = sum(1 << u for u in range(n) if dist[v][u] == s)
            spheres.append(sphere)
            by_s.append(by_s[-1] | sphere)
            size = by_s[-1].bit_count()
            if size * den > num * s:
                num, den = size, s
        ball.append(tuple(by_s))
        # a private neighbor must sit at distance exactly s, except that a
        # strength-1 broadcaster may also be its own private neighbor
        cand.append(
            tuple(
                spheres[s] | ((1 << v) if s == 1 else 0)
                for s in range(len(spheres))
            )
        )
    suffix_cover = [0] * (n + 1)
    suffix_strength = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_cover[v] = suffix_cover[v + 1] | ball[v][caps[v]]
        suffix_strength[v] = suffix_strength[v + 1] + caps[v]
    return _SearchContext(
        n,
        g.edge_count(),
        caps,
        tuple(ball),
        tuple(cand),
        tuple(suffix_cover),
        tuple(suffix_strength),
        (num, den),
    )


class _Nodes:
    __slots__ = ("count", "cap")

    def __init__(self, cap: int):
        self.count = 0
        self.cap = cap


def _search_minimal_broadcasts(
    ctx: _SearchContext,
    window: list[int],
    nodes: _Nodes,
    on_found: Callable[[int, tuple[int, ...]], None],
) -> None:
    """DFS over strength vectors in lexicographic order.

    Calls on_found(cost, strengths) for every minimal dominating broadcast
    whose cost lies in the window [lo, hi] = `window`, with hi at most the
    edge count.  on_found may narrow the window by raising lo; raising it
    past hi closes the window and ends the search.
    """
    n = ctx.n
    strengths = [0] * n
    support: list[int] = []  # private-neighbor spots of the broadcasters so far
    ball = ctx.ball
    cand = ctx.cand
    caps = ctx.caps
    suffix_cover = ctx.suffix_cover
    suffix_strength = ctx.suffix_strength
    cover_num, cover_den = ctx.cover_ratio
    count = nodes.count
    node_cap = nodes.cap

    def rec(i: int, total: int, unheard: int, exactly_one: int):
        nonlocal count
        count += 1
        if count > node_cap:
            raise CapabilityError(
                f"broadcast search exceeded the node budget ({node_cap})"
            )
        if i == n:
            if unheard == 0:
                on_found(total, tuple(strengths))
            return
        lo, hi = window
        if hi < lo or unheard.bit_count() * cover_den > cover_num * (hi - total):
            return
        # the optimistic bound total + s + rest must reach lo; it rises with
        # s, so only strengths from `first` on can pass
        rest = suffix_strength[i + 1]
        first = lo - rest - total
        outside = ~suffix_cover[i + 1]  # vertices no later broadcaster can reach
        # strength 0 first: lexicographic order over full vectors
        if first <= 0 and unheard & outside == 0:
            rec(i + 1, total, unheard, exactly_one)
            lo = window[0]
            if hi < lo:
                return
            first = lo - rest - total
        balls = ball[i]
        cands = cand[i]
        top = hi - total
        if top > caps[i]:
            top = caps[i]
        for s in range(first if first > 1 else 1, top + 1):
            if s < first:
                continue
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
            strengths[i] = s
            support.append(mine)
            rec(i + 1, total + s, new_unheard, new_exactly_one)
            support.pop()
            strengths[i] = 0
            lo = window[0]
            if hi < lo:
                return
            first = lo - rest - total

    try:
        rec(0, 0, (1 << n) - 1, 0)
    finally:
        nodes.count = count


def _search(ctx: _SearchContext, window: list[int], nodes: _Nodes, on_found) -> None:
    """Run the search; a budget error also reports the size of the space."""
    try:
        _search_minimal_broadcasts(ctx, window, nodes, on_found)
    except CapabilityError as exc:
        logsize = sum(math.log10(c + 1) for c in ctx.caps)
        raise CapabilityError(
            f"{exc}; search space ~10^{logsize:.0f} strength vectors"
        ) from None


def enumerate_minimal_broadcasts(
    g: Graph, cost_bound: int, budget: SolverBudget = DEFAULT_BUDGET
) -> list[Broadcast]:
    """Every minimal dominating broadcast of cost <= cost_bound, exactly once,
    in lexicographic strength-vector order."""
    _require_connected(g)
    if cost_bound < 0:
        raise InputError("cost bound must be non-negative")
    ctx = _search_context(g, g.n)
    found: list[Broadcast] = []
    _search(
        ctx,
        [0, min(cost_bound, ctx.edge_count)],
        _Nodes(budget.broadcast_node_cap),
        lambda _c, vec: found.append(Broadcast(vec)),
    )
    return found


def _solve(
    g: Graph, invariant: str, top: int, budget: SolverBudget, maximize: bool
) -> InvariantReport:
    """The least or greatest cost of a minimal dominating vector with
    strengths up to top (1: a set), and its lexicographically smallest witness.

    The search runs in lexicographic vector order, so that witness is the
    first optimal vector found for a broadcast and the last one for a set:
    of two sets of equal size, the one holding the smaller first differing
    vertex has the larger vector.  So a set search does not stop at its
    first optimum.
    """
    _require_connected(g)
    ctx = _search_context(g, top)
    nodes = _Nodes(budget.broadcast_node_cap)
    sets = top == 1
    found: list = []
    if maximize:
        # a vertex of the largest cap at full strength dominates minimally
        # (a peripheral vertex attains the diameter); a lone vertex has no
        # edge but forms the set {v}
        window = [max(ctx.caps), max(ctx.edge_count, 1)]

        def on_found(c, vec):
            found.append((c, vec))
            window[0] = c if sets else c + 1

        _search(ctx, window, nodes, on_found)
    else:
        # deepen hi until a round finds something, with one node budget for
        # all rounds
        window = [0, 0]

        def on_found(c, vec):
            found.append((c, vec))
            if not sets:
                window[0] = window[1] + 1

        for hi in range(1, ctx.suffix_strength[0] + 1):
            window[:] = [0, hi]
            _search(ctx, window, nodes, on_found)
            if found:
                break
    value, vec = found[-1]
    if sets:
        members = tuple(v for v, s in enumerate(vec) if s)
        _check_witness(invariant, is_minimal_dominating_set(g, members) and len(members) == value)
        return InvariantReport(invariant, value, "exact", witness_set=members, nodes=nodes.count)
    witness = Broadcast(vec)
    _check_witness(
        invariant, is_minimal_dominating_broadcast(g, witness) and cost(witness) == value
    )
    return InvariantReport(
        invariant, value, "exact", witness_broadcast=witness, nodes=nodes.count
    )


def _broadcast_top(g: Graph) -> int:
    """The strength cap of a broadcast search: n, above every eccentricity."""
    if g.n == 1:
        raise InputError("a single vertex admits no dominating broadcast")
    return g.n


def solve_gamma(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Minimum size of a minimal dominating set."""
    return _solve(g, "gamma", 1, budget, maximize=False)


def solve_upper_gamma(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Maximum size of a minimal dominating set."""
    return _solve(g, "Gamma", 1, budget, maximize=True)


def solve_gamma_b(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Minimum cost of a minimal dominating broadcast."""
    return _solve(g, "gamma_b", _broadcast_top(g), budget, maximize=False)


def solve_upper_gamma_b(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Maximum cost of a minimal dominating broadcast."""
    return _solve(g, "Gamma_b", _broadcast_top(g), budget, maximize=True)


def beats_diameter(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> Broadcast | None:
    """The lexicographically first minimal dominating broadcast that costs
    more than the diameter; None when there is none, that is when Gamma_b
    equals the diameter."""
    _require_connected(g)
    ctx = _search_context(g, _broadcast_top(g))
    diameter = metrics(g).diameter
    window = [diameter + 1, ctx.edge_count]
    found: list = []

    def on_found(_c, vec):
        found.append(vec)
        window[0] = window[1] + 1  # the first find decides

    _search(ctx, window, _Nodes(budget.broadcast_node_cap), on_found)
    if not found:
        return None
    witness = Broadcast(found[-1])
    _check_witness(
        "beats_diameter",
        is_minimal_dominating_broadcast(g, witness) and cost(witness) > diameter,
    )
    return witness
