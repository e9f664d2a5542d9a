import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_strength_vectors,
    broadcast_from_set,
    brute_minimal_broadcasts,
    hearers,
    is_efficient,
    make_broadcast,
    minimal_via_private_neighbors,
    private_neighbors,
)

from bdom.broadcasts import (
    Broadcast,
    cost,
    is_dominating,
    is_dominating_set,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from bdom.errors import CapabilityError, InputError
from bdom.graphs import build_graph, gen_cycle, gen_grid, gen_path, gen_star, metrics
from bdom.trees import enumerate_trees, prufer_to_graph


def test_cost(fig_broadcasts):
    f, g, h = fig_broadcasts
    assert cost(f) == 2 and cost(g) == 3 and cost(h) == 3
    assert cost(Broadcast((0, 0, 0, 0, 0))) == 0


def test_hearers_examples(fig_graph, fig_broadcasts):
    f, g, _ = fig_broadcasts
    assert hearers(fig_graph, f, 1) == {0, 2}
    assert hearers(fig_graph, g, 4) == {0}
    assert hearers(fig_graph, Broadcast((0,) * 5), 3) == frozenset()


def test_dominating(fig_graph, fig_broadcasts):
    for b in fig_broadcasts:
        assert is_dominating(fig_graph, b)
    p2 = gen_path(2)
    assert not is_dominating(p2, Broadcast((0, 0)))
    # a peripheral vertex at full strength reaches everything
    ecc = metrics(fig_graph).ecc
    assert is_dominating(fig_graph, Broadcast((ecc[0], 0, 0, 0, 0)))


def test_dominating_rejects_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    for predicate in (is_dominating, minimal_via_private_neighbors, is_efficient):
        with pytest.raises(CapabilityError):
            predicate(g, Broadcast((1, 0, 1, 0)))


def test_private_neighbors_cycle_example():
    c8 = gen_cycle(8)
    f = Broadcast((3, 0, 0, 0, 0, 0, 0, 3))
    assert private_neighbors(c8, f, 0) == {3}
    assert private_neighbors(c8, f, 7) == {4}


def test_private_neighbors_figure(fig_graph, fig_broadcasts):
    _, g, h = fig_broadcasts
    assert private_neighbors(fig_graph, h, 3) == {3}
    # a lone broadcaster reaching everything owns every vertex
    assert private_neighbors(fig_graph, g, 0) == frozenset(range(5))


def test_private_neighbors_requires_broadcaster(fig_graph, fig_broadcasts):
    f, _, _ = fig_broadcasts
    with pytest.raises(InputError):
        private_neighbors(fig_graph, f, 1)


def test_minimal_examples(fig_graph, fig_broadcasts):
    for b in fig_broadcasts:
        assert is_minimal_dominating_broadcast(fig_graph, b)
    c4 = gen_cycle(4)
    assert is_minimal_dominating_broadcast(c4, Broadcast((2, 0, 0, 0)))
    p2 = gen_path(2)
    assert not is_minimal_dominating_broadcast(p2, Broadcast((1, 1)))
    p3 = gen_path(3)
    assert not is_minimal_dominating_broadcast(p3, Broadcast((1, 1, 0)))
    assert is_minimal_dominating_broadcast(p3, Broadcast((0, 1, 0)))


def test_strength_capped_by_eccentricity():
    with pytest.raises(InputError):
        make_broadcast(gen_path(3), (0, 2, 0))
    make_broadcast(gen_path(3), (2, 0, 0))  # endpoints do reach distance 2


def test_efficient(fig_graph, fig_broadcasts):
    f, g, h = fig_broadcasts
    assert is_efficient(fig_graph, g)
    assert not is_efficient(fig_graph, f)
    assert not is_efficient(fig_graph, h)
    with pytest.raises(InputError):
        is_efficient(fig_graph, Broadcast((0, 0, 0, 0, 0)))


def test_minimal_dominating_set_examples(fig_graph):
    assert is_minimal_dominating_set(fig_graph, {0, 2})
    assert is_minimal_dominating_set(fig_graph, {1, 3, 4})
    assert not is_minimal_dominating_set(fig_graph, {0, 1, 2})


MINIMALITY_GRAPHS = [
    gen_path(5),
    gen_path(6),
    gen_cycle(5),
    gen_cycle(7),
    gen_star(4),
    gen_grid(2, 3),
    build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
]


@pytest.mark.parametrize("g", MINIMALITY_GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_minimality_characterizations_agree(g):
    # exhaustively over every strength vector on graphs up to 8 vertices
    for vec in all_strength_vectors(g):
        b = Broadcast(vec)
        assert is_minimal_dominating_broadcast(g, b) == minimal_via_private_neighbors(g, b)


def test_a_broadcaster_lowered_to_zero_hears_nothing():
    # lowered to 0, vertex 0 no longer hears itself, so P3 is left with
    # vertex 0 unheard; counted as heard, {0, 2} would not be minimal
    assert is_minimal_dominating_broadcast(gen_path(3), Broadcast((1, 0, 1)))
    assert is_minimal_dominating_broadcast(gen_star(3), Broadcast((0, 1, 1, 1)))


@given(st.integers(3, 5), st.data())
@settings(max_examples=25, deadline=None)
def test_minimality_characterizations_agree_random_trees(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    t = prufer_to_graph(seq, n)
    for vec in all_strength_vectors(t):
        b = Broadcast(vec)
        assert is_minimal_dominating_broadcast(t, b) == minimal_via_private_neighbors(t, b)


@pytest.mark.parametrize("g", [gen_path(4), gen_cycle(5), gen_star(3)],
                         ids=["P4", "C5", "K13"])
def test_sets_as_unit_broadcasts(g):
    for r in range(1, g.n + 1):
        for comb in itertools.combinations(range(g.n), r):
            b = broadcast_from_set(g, comb)
            assert is_dominating_set(g, comb) == is_dominating(g, b)
            assert is_minimal_dominating_set(g, comb) == is_minimal_dominating_broadcast(g, b)


@pytest.mark.parametrize("g", [gen_path(5), gen_cycle(6), gen_star(4)],
                         ids=["P5", "C6", "K14"])
def test_efficient_broadcast_balls_partition(g):
    dist = metrics(g).dist
    for b in brute_minimal_broadcasts(g):
        if not is_efficient(g, b):
            continue
        covered = sum(
            sum(1 for u in range(g.n) if dist[v][u] <= s)
            for v, s in enumerate(b.strengths)
            if s > 0
        )
        assert covered == g.n


def test_broadcast_allowed_on_disconnected_at_construction():
    g = build_graph(4, [(0, 1), (2, 3)])
    make_broadcast(g, (1, 0, 1, 0))  # rejected only by the domination predicate
