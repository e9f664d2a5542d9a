"""Exact solvers for the four domination invariants, with witnesses.

Set invariants (gamma, Gamma) come from a vectorized sweep over all 2^n
vertex subsets with bitmask domination and private-neighbor tests; this is
exact and practical up to the configured vertex cap.

Broadcast invariants (gamma_b, Gamma_b) come from a depth-first search over
strength vectors in lexicographic order.  Three prunings keep it exact:

* a partial support is abandoned once some broadcaster can no longer gain a
  private neighbor at the required distance (hearer sets only grow, so the
  test is monotone and never cuts a completable branch);
* vertices that no later vertex could reach at maximal strength must already
  be heard (domination is impossible otherwise);
* the total cost of any minimal dominating broadcast never exceeds the edge
  count, so branches beyond that are dead.

The maximum-cost search additionally carries an incumbent initialized to the
diameter (a peripheral vertex broadcasting at full eccentricity is always a
minimal dominating broadcast); because the enumeration order is lexicographic,
the first witness recorded at the final value is the lexicographically
smallest optimal witness.

The minimum-cost search and the enumeration, which have no incumbent, add a
coverage bound instead.  With rho = max |ball(v, s)| / s over all vertices v
and strengths 1 <= s <= ecc(v), a broadcaster of strength s hears at most
rho * s vertices, so hearing the unheard set U costs at least |U| / rho, and a
branch with cost + |U| / rho above the cost bound has no completion.
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
    method: str  # exact | closed_form
    witness_set: tuple[int, ...] | None = None
    witness_broadcast: Broadcast | None = None
    nodes: int = 0
    source: str | None = None  # citation tag, closed-form reports only

    def witness_json(self):
        if self.witness_set is not None:
            return {"vertices": list(self.witness_set)}
        if self.witness_broadcast is not None:
            return {"strengths": list(self.witness_broadcast.strengths)}
        return None

    def to_json_dict(self) -> dict:
        out = {
            "invariant": self.invariant,
            "value": self.value,
            "method": self.method,
            "witness": self.witness_json(),
            "nodes": self.nodes,
        }
        if self.source is not None:
            out["source"] = self.source
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


class _StopSearch(Exception):
    pass


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
    cost_bound: int,
    nodes: _Nodes,
    on_found: Callable[[int, tuple[int, ...]], None],
    incumbent: list | None = None,
) -> None:
    """DFS over strength vectors in lexicographic order.

    Calls on_found(cost, strengths) for every minimal dominating broadcast of
    cost <= cost_bound that survives incumbent pruning.  `incumbent`, when
    given, is a mutable [floor, have_witness] pair: subtrees that cannot beat
    the floor (or merely tie it once a witness exists) are skipped, which is
    sound for a maximum search because the bound never underestimates a
    subtree's best completion.  Without an incumbent, subtrees whose unheard
    vertices cannot be covered within the cost bound are skipped instead.
    """
    n = ctx.n
    cap = min(cost_bound, ctx.edge_count)
    strengths = [0] * n
    support: list[int] = []  # private-neighbor spots of the broadcasters so far
    ball = ctx.ball
    cand = ctx.cand
    ecc = ctx.ecc
    suffix_cover = ctx.suffix_cover
    suffix_strength = ctx.suffix_strength
    cover_num, cover_den = ctx.cover_ratio
    bound_cover = incumbent is None
    floor = (0, False) if incumbent is None else incumbent
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
        if bound_cover and unheard.bit_count() * cover_den > cover_num * (cap - total):
            return
        # the optimistic bound min(total + s + rest, cap) must reach `need`;
        # it rises with s, so only strengths from `first` on can pass
        need = floor[0] + floor[1]
        if cap < need:
            return
        rest = suffix_strength[i + 1]
        first = need - rest - total
        outside = ~suffix_cover[i + 1]  # vertices no later broadcaster can reach
        # strength 0 first: lexicographic order over full vectors
        if first <= 0 and unheard & outside == 0:
            rec(i + 1, total, unheard, exactly_one)
            need = floor[0] + floor[1]
            if cap < need:
                return
            first = need - rest - total
        balls = ball[i]
        cands = cand[i]
        top = cap - total
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
            need = floor[0] + floor[1]
            if cap < need:
                return
            first = need - rest - total

    try:
        rec(0, 0, (1 << n) - 1, 0)
    finally:
        nodes.count = count


def _space_estimate(ctx: _SearchContext) -> str:
    logsize = sum(math.log10(e + 1) for e in ctx.ecc)
    return f"~10^{logsize:.0f} strength vectors"


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
    nodes = _Nodes(budget.broadcast_node_cap)
    found: list[Broadcast] = []

    def on_found(_c, vec):
        found.append(Broadcast(vec))

    try:
        _search_minimal_broadcasts(ctx, cost_bound, nodes, on_found)
    except CapabilityError as exc:
        raise CapabilityError(f"{exc}; search space {_space_estimate(ctx)}") from None
    return iter(found)


def solve_gamma_b(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Minimum cost of a minimal dominating broadcast.

    Iterative deepening on the cost bound; the first broadcast the
    lexicographic search finds under the first feasible bound is the
    lexicographically smallest optimal witness.
    """
    _require_connected(g)
    if g.n == 1:
        raise InputError("a single vertex admits no dominating broadcast")
    ctx = _search_context(g)
    nodes = _Nodes(budget.broadcast_node_cap)
    best: list = []

    def on_found(c, vec):
        best.append((c, vec))
        raise _StopSearch

    radius = metrics(g).radius
    for bound in range(1, radius + 1):
        try:
            _search_minimal_broadcasts(ctx, bound, nodes, on_found)
        except _StopSearch:
            break
        except CapabilityError as exc:
            raise CapabilityError(
                f"{exc}; search space {_space_estimate(ctx)}"
            ) from None
    value, vec = best[0]
    witness = Broadcast(vec)
    _check_witness(
        "gamma_b", is_minimal_dominating_broadcast(g, witness) and cost(witness) == value
    )
    return InvariantReport(
        "gamma_b", value, "exact", witness_broadcast=witness, nodes=nodes.count
    )


def solve_upper_gamma_b(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Maximum cost of a minimal dominating broadcast."""
    _require_connected(g)
    if g.n == 1:
        raise InputError("a single vertex admits no dominating broadcast")
    ctx = _search_context(g)
    nodes = _Nodes(budget.broadcast_node_cap)
    # a peripheral broadcast at full strength always attains the diameter,
    # so the incumbent can start there without a witness in hand
    incumbent = [ctx.diameter, False]
    best: list = [None]

    def on_found(c, vec):
        if c > incumbent[0]:
            incumbent[0] = c
            incumbent[1] = True
            best[0] = vec
        elif c == incumbent[0] and not incumbent[1]:
            incumbent[1] = True
            best[0] = vec

    try:
        _search_minimal_broadcasts(
            ctx, ctx.edge_count, nodes, on_found, incumbent=incumbent
        )
    except CapabilityError as exc:
        raise CapabilityError(f"{exc}; search space {_space_estimate(ctx)}") from None
    value = incumbent[0]
    witness = Broadcast(best[0])
    _check_witness(
        "Gamma_b", is_minimal_dominating_broadcast(g, witness) and cost(witness) == value
    )
    return InvariantReport(
        "Gamma_b", value, "exact", witness_broadcast=witness, nodes=nodes.count
    )
