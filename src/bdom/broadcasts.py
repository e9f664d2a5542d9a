"""Broadcasts and the domination predicates built on them.

A broadcast assigns each vertex a non-negative integer strength bounded by
its eccentricity.  A vertex u "hears" every broadcaster v whose strength
covers the distance between them.  A broadcast dominates when every vertex
hears someone; it is minimal when lowering any broadcaster by one breaks
domination.  Monotonicity of hearing in the strengths makes the single-unit
decrement test equivalent to testing every smaller broadcast.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .errors import CapabilityError
from .graphs import Graph, metrics


@dataclass(frozen=True)
class Broadcast:
    """Per-vertex strength assignment."""

    strengths: tuple[int, ...]


def cost(f: Broadcast) -> int:
    return sum(f.strengths)


def _connected_dist(g: Graph) -> tuple[tuple[int, ...], ...]:
    m = metrics(g)
    if not m.connected:
        raise CapabilityError("domination is only defined on connected graphs")
    return m.dist


def is_dominating(g: Graph, f: Broadcast) -> bool:
    """True iff every vertex hears at least one broadcaster."""
    dist = _connected_dist(g)
    support = [(u, s) for u, s in enumerate(f.strengths) if s > 0]
    return all(any(dist[u][v] <= s for u, s in support) for v in range(g.n))


def is_minimal_dominating_broadcast(g: Graph, f: Broadcast) -> bool:
    """Dominating, and every single-unit decrement breaks domination.

    Each broadcaster's hearers at its strength s and at s - 1 are bit masks
    read from the distance table; one lowered to 0 broadcasts no more, so
    not even it hears itself.  The broadcast with broadcaster i lowered
    dominates when the balls before i, its lowered ball and the balls after
    i cover every vertex, read from prefix and suffix ORs.
    """
    dist = _connected_dist(g)
    balls, lowered = [], []
    for v, s in enumerate(f.strengths):
        if s > 0:
            ball = below = 0
            for u, d in enumerate(dist[v]):
                if d <= s:
                    ball |= 1 << u
                    if d < s:
                        below |= 1 << u
            balls.append(ball)
            lowered.append(below if s > 1 else 0)
    full = (1 << g.n) - 1
    suffix = list(accumulate(reversed(balls), operator.or_, initial=0))[::-1]
    if suffix[0] != full:
        return False
    prefix = 0
    for ball, below, after in zip(balls, lowered, suffix[1:]):
        if prefix | below | after == full:
            return False
        prefix |= ball
    return True


def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    chosen = set(s)
    return all(
        v in chosen or any(w in chosen for w in g.adjacency[v]) for v in range(g.n)
    )


def is_minimal_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """Dominating, and every member keeps a private neighbor.

    w is private for v in S when the closed neighborhood of w meets S exactly
    in {v}; w may be v itself.
    """
    chosen = set(s)
    if not is_dominating_set(g, chosen):
        return False
    for v in chosen:
        for w in (v, *g.adjacency[v]):
            closed_w = {w, *g.adjacency[w]}
            if closed_w & chosen == {v}:
                break
        else:
            return False
    return True
