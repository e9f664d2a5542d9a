"""Exact solvers for the four domination invariants, with witnesses.

Set invariants (gamma, Gamma) come from a vectorized sweep over all 2^n
vertex subsets with bitmask domination and private-neighbor tests; this is
exact and practical up to the configured vertex cap.

Broadcast invariants (gamma_b, Gamma_b) come from one depth-first search over
strength vectors in lexicographic order.  It reports every minimal dominating
broadcast whose cost lies in a window [lo, hi], which the caller may narrow
as results come in, and it cuts a subtree when

* some broadcaster can no longer gain a private neighbor at the required
  distance (hearer sets only grow, so the test is monotone and never cuts a
  completable branch);
* some vertex that no later vertex can reach is still unheard;
* the window is empty, or full strength on every later vertex cannot lift
  the cost to lo;
* hearing the unheard set U cannot fit under hi: with rho = max |ball(v, s)|
  / s over all vertices v and strengths 1 <= s <= ecc(v), a broadcaster of
  strength s hears at most rho * s vertices, so U costs at least |U| / rho.

No minimal dominating broadcast costs more than the edge count, which caps
hi.  The callers differ only in their windows, and since the order is
lexicographic, each witness they report is the lexicographically smallest
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .broadcasts import (
    Broadcast,
    cost,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from .errors import CapabilityError, InputError
from .graphs import Graph, metrics

DEFAULT_SUBSET_VERTEX_CAP = 25
MAX_SUBSET_VERTEX_CAP = 32  # the sweep's subset masks are uint32
DEFAULT_BROADCAST_NODE_CAP = 50_000_000

_CHUNK_BITS = 20  # subsets are swept in chunks of 2^20


@dataclass(frozen=True)
class SolverBudget:
    subset_vertex_cap: int = DEFAULT_SUBSET_VERTEX_CAP
    broadcast_node_cap: int = DEFAULT_BROADCAST_NODE_CAP


DEFAULT_BUDGET = SolverBudget()


@dataclass(frozen=True)
class InvariantReport:
    """Value of an invariant plus the witness that attains it."""

    invariant: str  # gamma | Gamma | gamma_b | Gamma_b
    value: int
    method: str  # exact
    witness_set: tuple[int, ...] | None = None
    witness_broadcast: Broadcast | None = None
    nodes: int = 0

    def witness_json(self):
        if self.witness_set is not None:
            return {"vertices": list(self.witness_set)}
        if self.witness_broadcast is not None:
            return {"strengths": list(self.witness_broadcast.strengths)}
        return None

    def to_json_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "value": self.value,
            "method": self.method,
            "witness": self.witness_json(),
            "nodes": self.nodes,
        }


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


# --- minimal dominating SET sweep -------------------------------------------


def _reverse_bits(x, n):
    """Bit-reversal within n low bits (vectorized on uint32)."""
    x = ((x & np.uint32(0x55555555)) << np.uint32(1)) | (
        (x >> np.uint32(1)) & np.uint32(0x55555555)
    )
    x = ((x & np.uint32(0x33333333)) << np.uint32(2)) | (
        (x >> np.uint32(2)) & np.uint32(0x33333333)
    )
    x = ((x & np.uint32(0x0F0F0F0F)) << np.uint32(4)) | (
        (x >> np.uint32(4)) & np.uint32(0x0F0F0F0F)
    )
    x = ((x & np.uint32(0x00FF00FF)) << np.uint32(8)) | (
        (x >> np.uint32(8)) & np.uint32(0x00FF00FF)
    )
    x = (x << np.uint32(16)) | (x >> np.uint32(16))
    return x >> np.uint32(32 - n)


@lru_cache(maxsize=32)
def _minimal_set_sweep(g: Graph, cap: int):
    """Scan all subsets; return (gamma, gamma_witness, Gamma, Gamma_witness, nodes).

    Witnesses are the lexicographically smallest optimal sets; on equal size,
    the set containing the smallest vertices first wins, which equals taking
    the maximal bit-reversed mask.
    """
    n = g.n
    cap = min(cap, MAX_SUBSET_VERTEX_CAP)
    if n > cap:
        raise CapabilityError(
            f"subset search capped at {cap} vertices, graph has {n}"
        )
    _require_connected(g)
    closed = [
        np.uint32((1 << v) | sum(1 << w for w in g.adjacency[v])) for v in range(n)
    ]
    gamma_val = Gamma_val = None
    gamma_rev = Gamma_rev = -1
    total = 1 << n
    step = 1 << _CHUNK_BITS
    for lo in range(0, total, step):
        S = np.arange(lo, min(lo + step, total), dtype=np.uint32)
        minimal = np.ones(S.shape, dtype=bool)
        for u in range(n):
            minimal &= (S & closed[u]) != 0
        for v in range(n):
            bit = np.uint32(1 << v)
            has_private = np.zeros(S.shape, dtype=bool)
            for w in (v, *g.adjacency[v]):
                has_private |= (S & closed[w]) == bit
            minimal &= ((S & bit) == 0) | has_private
        masks = S[minimal]
        if masks.size == 0:
            continue
        sizes = np.bitwise_count(masks)
        for target, keep_smaller in ((int(sizes.min()), True), (int(sizes.max()), False)):
            best, best_rev = (gamma_val, gamma_rev) if keep_smaller else (Gamma_val, Gamma_rev)
            better = best is None or (target < best if keep_smaller else target > best)
            if better:
                best, best_rev = target, -1
            if target == best:
                rev = int(_reverse_bits(masks[sizes == target], n).max())
                best_rev = max(best_rev, rev)
            if keep_smaller:
                gamma_val, gamma_rev = best, best_rev
            else:
                Gamma_val, Gamma_rev = best, best_rev
    if gamma_val is None:
        raise InputError("graph admits no dominating set")  # unreachable for n >= 1

    def decode(rev):
        mask = int(_reverse_bits(np.uint32(rev), n))
        return tuple(v for v in range(n) if mask >> v & 1)

    return gamma_val, decode(gamma_rev), Gamma_val, decode(Gamma_rev), total


def solve_gamma(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Minimum size of a minimal dominating set, by exhaustive subset sweep."""
    value, witness, _, _, nodes = _minimal_set_sweep(g, budget.subset_vertex_cap)
    _check_witness("gamma", is_minimal_dominating_set(g, witness) and len(witness) == value)
    return InvariantReport("gamma", value, "exact", witness_set=witness, nodes=nodes)


def solve_upper_gamma(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Maximum size of a minimal dominating set, by exhaustive subset sweep."""
    _, _, value, witness, nodes = _minimal_set_sweep(g, budget.subset_vertex_cap)
    _check_witness("Gamma", is_minimal_dominating_set(g, witness) and len(witness) == value)
    return InvariantReport("Gamma", value, "exact", witness_set=witness, nodes=nodes)


# --- minimal dominating BROADCAST search ------------------------------------


@dataclass(frozen=True)
class _SearchContext:
    n: int
    edge_count: int
    diameter: int
    ecc: tuple[int, ...]
    ball: tuple[tuple[int, ...], ...]  # ball[v][s]: vertices within distance s of v
    cand: tuple[tuple[int, ...], ...]  # cand[v][s]: allowed private-neighbor spots
    suffix_cover: tuple[int, ...]  # union of maximal balls of vertices >= i
    suffix_strength: tuple[int, ...]  # sum of eccentricities of vertices >= i
    cover_ratio: tuple[int, int]  # (num, den): max |ball(v, s)| / s over 1 <= s <= ecc(v)


@lru_cache(maxsize=256)
def _search_context(g: Graph) -> _SearchContext:
    m = metrics(g)
    n = g.n
    dist = m.dist
    ball = []
    cand = []
    num, den = 0, 1  # largest |ball(v, s)| / s; a lone vertex hears nothing
    for v in range(n):
        by_s = [1 << v]
        spheres = [1 << v]
        for s in range(1, m.ecc[v] + 1):
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
        suffix_cover[v] = suffix_cover[v + 1] | ball[v][m.ecc[v]]
        suffix_strength[v] = suffix_strength[v + 1] + m.ecc[v]
    return _SearchContext(
        n,
        g.edge_count(),
        m.diameter,
        m.ecc,
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
    ecc = ctx.ecc
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
        if top > ecc[i]:
            top = ecc[i]
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
        logsize = sum(math.log10(e + 1) for e in ctx.ecc)
        raise CapabilityError(
            f"{exc}; search space ~10^{logsize:.0f} strength vectors"
        ) from None


def enumerate_minimal_broadcasts(
    g: Graph, cost_bound: int, budget: SolverBudget = DEFAULT_BUDGET
) -> Iterator[Broadcast]:
    """Every minimal dominating broadcast of cost <= cost_bound, exactly once,
    in lexicographic strength-vector order.

    The search runs to completion before this returns: the result is an
    iterator over a list already built, so a budget error is raised here,
    never midway through iteration."""
    _require_connected(g)
    if cost_bound < 0:
        raise InputError("cost bound must be non-negative")
    ctx = _search_context(g)
    found: list[Broadcast] = []
    _search(
        ctx,
        [0, min(cost_bound, ctx.edge_count)],
        _Nodes(budget.broadcast_node_cap),
        lambda _c, vec: found.append(Broadcast(vec)),
    )
    return iter(found)


def _broadcast_search(g: Graph, budget: SolverBudget) -> tuple[_SearchContext, _Nodes]:
    _require_connected(g)
    if g.n == 1:
        raise InputError("a single vertex admits no dominating broadcast")
    return _search_context(g), _Nodes(budget.broadcast_node_cap)


def _broadcast_report(
    g: Graph, invariant: str, value: int, vec: tuple[int, ...], nodes: _Nodes
) -> InvariantReport:
    witness = Broadcast(vec)
    _check_witness(
        invariant, is_minimal_dominating_broadcast(g, witness) and cost(witness) == value
    )
    return InvariantReport(
        invariant, value, "exact", witness_broadcast=witness, nodes=nodes.count
    )


def solve_gamma_b(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Minimum cost of a minimal dominating broadcast.

    Iterative deepening on the window's upper end, with one node budget for
    all rounds; the first broadcast the lexicographic search finds under the
    first feasible bound is the lexicographically smallest optimal witness,
    and closes the window.
    """
    ctx, nodes = _broadcast_search(g, budget)
    window = [0, 0]
    found: list = []

    def on_found(c, vec):
        found.append((c, vec))
        window[0] = window[1] + 1

    for hi in range(1, metrics(g).radius + 1):
        window[:] = [0, hi]
        _search(ctx, window, nodes, on_found)
        if found:
            break
    return _broadcast_report(g, "gamma_b", *found[0], nodes)


def solve_upper_gamma_b(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Maximum cost of a minimal dominating broadcast.

    The window starts at [diam, |E|], because a peripheral vertex
    broadcasting at full eccentricity attains the diameter, and each find
    raises lo past its cost.
    """
    ctx, nodes = _broadcast_search(g, budget)
    window = [ctx.diameter, ctx.edge_count]
    found: list = []

    def on_found(c, vec):
        found.append((c, vec))
        window[0] = c + 1

    _search(ctx, window, nodes, on_found)
    return _broadcast_report(g, "Gamma_b", *found[-1], nodes)
