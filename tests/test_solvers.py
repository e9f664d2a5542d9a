import hashlib
import itertools
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_minimal_broadcasts,
    brute_minimal_dominating_sets,
    cartesian_product,
    enumerate_minimal_broadcasts,
    hearers,
)

from bdom import solvers
from bdom.broadcasts import (
    Broadcast,
    cost,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from bdom.errors import CapabilityError, InputError
from bdom.graphs import (
    LobsterSpec,
    build_graph,
    gen_cycle,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_star,
    gen_torus,
    metrics,
)
from bdom.solvers import (
    beats_diameter,
    solve_gamma,
    solve_gamma_b,
    solve_upper_gamma,
    solve_upper_gamma_b,
)
from bdom.sweeps import classification_corpus
from bdom.trees import enumerate_trees, prufer_to_graph, random_tree


def test_gamma_figure(fig_graph):
    assert solve_gamma(fig_graph).value == 2
    assert solve_upper_gamma(fig_graph).value == 3


def test_gamma_single_vertex():
    k1 = build_graph(1, [])
    assert solve_gamma(k1).value == 1
    assert solve_upper_gamma(k1).value == 1


def test_upper_gamma_torus_3_3():
    assert solve_upper_gamma(gen_torus(3, 3)).value == 3


def test_upper_gamma_b_cycles():
    assert solve_upper_gamma_b(gen_cycle(8)).value == 6
    assert solve_upper_gamma_b(gen_cycle(7)).value == 4


def test_upper_gamma_b_star_meets_edge_count():
    g = gen_star(4)
    assert solve_upper_gamma_b(g).value == 4 == g.edge_count()


def test_gamma_b_path():
    g = gen_path(5)
    rep = solve_gamma_b(g)
    assert rep.value == 2 == metrics(g).radius


def test_reports_carry_valid_witnesses(fig_graph):
    for solver in (solve_gamma, solve_upper_gamma):
        rep = solver(fig_graph)
        assert is_minimal_dominating_set(fig_graph, rep.witness_set)
        assert len(rep.witness_set) == rep.value
    for solver in (solve_gamma_b, solve_upper_gamma_b):
        rep = solver(fig_graph)
        assert is_minimal_dominating_broadcast(fig_graph, rep.witness_broadcast)
        assert cost(rep.witness_broadcast) == rep.value
        assert rep.nodes > 0


def test_enumerate_p2():
    got = list(enumerate_minimal_broadcasts(gen_path(2), 1))
    assert [b.strengths for b in got] == [(0, 1), (1, 0)]


def test_enumerate_c4_bound_two():
    c4 = gen_cycle(4)
    got = [b.strengths for b in enumerate_minimal_broadcasts(c4, 2)]
    assert (2, 0, 0, 0) in got and (0, 0, 2, 0) in got  # lone full-strength vertices
    assert (1, 0, 1, 0) in got and (0, 1, 0, 1) in got  # antipodal unit pairs
    assert (1, 1, 0, 0) in got and (0, 0, 1, 1) in got  # adjacent unit pairs
    brute = [b.strengths for b in brute_minimal_broadcasts(c4, cost_bound=2)]
    assert got == sorted(brute)


def test_enumerate_contains_figure_broadcasts(fig_graph, fig_broadcasts):
    got = set(b.strengths for b in enumerate_minimal_broadcasts(fig_graph, 3))
    for b in fig_broadcasts:
        assert b.strengths in got


def test_enumerate_lexicographic_and_unique(fig_graph):
    got = [b.strengths for b in enumerate_minimal_broadcasts(fig_graph, 4)]
    assert got == sorted(set(got))


PRUNED_VS_BRUTE = [
    gen_path(4),
    gen_path(7),
    gen_cycle(5),
    gen_cycle(6),
    gen_cycle(7),
    gen_star(5),
    gen_grid(2, 3),
    gen_torus(3, 3),
    build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
    build_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]),
    build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]),
]


def set_search_order(g):
    """The set solvers' search order: by distance from vertex 0, then by label."""
    depth = metrics(g).dist[0]
    return sorted(range(g.n), key=lambda v: (depth[v], v))


def assert_set_solvers_match_brute(g):
    """gamma and Gamma, value and witness, as the subset oracle finds them:
    of the optimal sets, the one whose 0/1 vector, read in the set search
    order, is lexicographically largest."""
    sets = brute_minimal_dominating_sets(g)
    sizes = [len(s) for s in sets]
    order = set_search_order(g)
    for solver, size in ((solve_gamma, min(sizes)), (solve_upper_gamma, max(sizes))):
        rep = solver(g)
        assert rep.value == size
        assert rep.witness_set == max(
            (s for s in sets if len(s) == size), key=lambda s: [v in s for v in order]
        )


def assert_broadcast_solvers_match_brute(g, brute):
    """gamma_b and Gamma_b, value and lexicographically largest witness, as
    the unpruned enumeration finds them."""
    costs = [cost(b) for b in brute]
    for solver, value in ((solve_gamma_b, min(costs)), (solve_upper_gamma_b, max(costs))):
        rep = solver(g)
        assert rep.value == value
        assert rep.witness_broadcast == max(
            (b for b in brute if cost(b) == value), key=lambda b: b.strengths
        )


@pytest.mark.parametrize("g", PRUNED_VS_BRUTE, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_pruned_search_equals_unpruned_enumeration(g):
    assert_set_solvers_match_brute(g)
    brute = brute_minimal_broadcasts(g)
    assert_broadcast_solvers_match_brute(g, brute)
    # full stream agrees, not just the extremes
    bound = g.edge_count()
    got = [b.strengths for b in enumerate_minimal_broadcasts(g, bound)]
    assert got == sorted(b.strengths for b in brute)
    assert_beats_diameter_matches_brute(g, brute)


def assert_beats_diameter_matches_brute(g, brute):
    """The decision search finds the largest broadcast of the unpruned
    enumeration that costs more than the diameter, or None, comparing
    strengths read in the oracle's order: by distance from the
    least-labelled vertex of largest eccentricity, then by label."""
    m = metrics(g)
    far = min(v for v in range(g.n) if m.ecc[v] == m.diameter)
    order = sorted(range(g.n), key=lambda v: (m.dist[far][v], v))
    largest = max(
        (b for b in brute if cost(b) > m.diameter),
        key=lambda b: [b.strengths[v] for v in order],
        default=None,
    )
    assert beats_diameter(g) == largest


@given(st.integers(4, 7), st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_pruned_equals_unpruned_random_trees(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    t = prufer_to_graph(seq, n)
    brute = brute_minimal_broadcasts(t)
    assert_broadcast_solvers_match_brute(t, brute)
    assert_beats_diameter_matches_brute(t, brute)


@st.composite
def connected_non_trees(draw):
    """A random tree on at most 6 vertices plus 1-3 extra edges."""
    n = draw(st.integers(3, 6))
    seq = tuple(draw(st.integers(0, n - 1)) for _ in range(n - 2))
    tree = prufer_to_graph(seq, n)
    present = set(tree.edges())
    missing = [e for e in itertools.combinations(range(n), 2) if e not in present]
    extra = draw(
        st.lists(st.sampled_from(missing), min_size=1, max_size=min(3, len(missing)), unique=True)
    )
    return build_graph(n, list(tree.edges()) + extra)


@given(connected_non_trees())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_pruned_equals_unpruned_random_non_trees(g):
    # balls of uneven size across vertices and strengths, where a wrong
    # coverage ratio would cut a completable branch
    assert_set_solvers_match_brute(g)
    brute = brute_minimal_broadcasts(g)
    assert_broadcast_solvers_match_brute(g, brute)
    got = [b.strengths for b in enumerate_minimal_broadcasts(g, g.edge_count())]
    assert got == sorted(b.strengths for b in brute)
    assert_beats_diameter_matches_brute(g, brute)


@pytest.mark.parametrize(
    "g",
    [gen_cycle(n) for n in range(3, 13)]
    + [gen_torus(m, n) for m, n in [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)]],
    ids=lambda g: f"n{g.n}m{g.edge_count()}",
)
def test_beats_diameter_equals_full_search(g):
    d = metrics(g).diameter
    beats = beats_diameter(g)
    assert (beats is None) == (solve_upper_gamma_b(g).value == d)
    if beats is not None:
        assert is_minimal_dominating_broadcast(g, beats) and cost(beats) > d


RING_WITH_LEAVES = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)])


@pytest.mark.parametrize(
    "g",
    [random_tree(n, random.Random(n)) for n in range(10, 15)]
    + [gen_lobster(LobsterSpec(8, ((2, "C"), (5, "B")))),
       gen_lobster(LobsterSpec(9, ((2, "A"), (6, "C"))))]
    + [RING_WITH_LEAVES, gen_grid(3, 4)],
    ids=lambda g: f"n{g.n}m{g.edge_count()}",
)
def test_beats_diameter_verdict_ignores_labels(g):
    # the oracle's search order follows the labels, its verdict must not;
    # the full label-order search gives the verdict
    verdict = solve_upper_gamma_b(g).value == metrics(g).diameter
    for seed in range(12):
        h = relabelled(g, seed)
        beats = beats_diameter(h)
        assert (beats is None) == verdict
        if beats is not None:
            assert is_minimal_dominating_broadcast(h, beats) and cost(beats) > metrics(h).diameter


SANDWICH_GRAPHS = [
    gen_path(6),
    gen_cycle(6),
    gen_cycle(9),
    gen_star(4),
    gen_grid(3, 3),
    gen_torus(3, 3),
    gen_torus(3, 4),
    build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
]


@pytest.mark.parametrize("g", SANDWICH_GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_invariant_sandwich(g):
    m = metrics(g)
    gamma = solve_gamma(g).value
    Gamma = solve_upper_gamma(g).value
    gamma_b = solve_gamma_b(g).value
    Gamma_b = solve_upper_gamma_b(g).value
    assert gamma_b <= gamma
    assert Gamma <= Gamma_b
    assert m.diameter <= Gamma_b
    assert gamma_b <= m.radius
    assert Gamma_b <= g.edge_count()


def test_witnesses_are_lexicographically_largest_vectors(fig_graph):
    for g in (fig_graph, gen_cycle(5), gen_cycle(6), gen_path(4), gen_star(3), gen_torus(3, 3)):
        assert_set_solvers_match_brute(g)
        assert_broadcast_solvers_match_brute(g, brute_minimal_broadcasts(g))


def test_gamma_b_of_a_long_path_within_a_small_budget():
    # strongest-first, the deepening round at hi = 20 meets an optimum at once
    assert solve_gamma_b(gen_path(60), 10_000).value == 20


def test_torus_maxima_within_small_budgets():
    # the unheard-count and lex-leader cuts: Gamma_b(C6xC6) takes 103,346
    # nodes and Gamma(C6xC6) 7,430, without the first 767,834 and 13,140,
    # without the second 347,812 and 152,891
    g = gen_torus(6, 6)
    assert solve_upper_gamma_b(g, 150_000).value == 24
    assert solve_upper_gamma(g, 80_000).value == 18


def test_torus_minimum_within_a_small_budget():
    # the unreachable-vertex test of the 0-branch: gamma(C6xC6) takes 2,490
    # nodes with it and 111,273 without it
    assert solve_gamma(gen_torus(6, 6), 10_000).value == 8


def test_node_budget_reports_estimate():
    # C3xC4 takes 44 nodes
    g = gen_torus(3, 4)
    with pytest.raises(CapabilityError, match="search space"):
        solve_upper_gamma_b(g, 10)


def test_node_budget_bounds_the_set_search():
    g = gen_torus(3, 4)
    with pytest.raises(CapabilityError, match="search space"):
        solve_upper_gamma(g, 10)


def test_solvers_reject_disconnected():
    # a path of 200 vertices cut in two: one BFS refuses it, and the
    # all-pairs table, kept on the graph once built, never exists
    g = build_graph(200, [(i, i + 1) for i in range(199) if i != 99])
    for search in (
        solve_gamma, solve_upper_gamma, solve_gamma_b, solve_upper_gamma_b, beats_diameter,
        lambda g: enumerate_minimal_broadcasts(g, 3),
    ):
        with pytest.raises(CapabilityError, match="connected"):
            search(g)
        assert "_metrics" not in vars(g)


def test_broadcast_solvers_reject_single_vertex():
    k1 = build_graph(1, [])
    with pytest.raises(InputError):
        solve_gamma_b(k1)
    with pytest.raises(InputError):
        solve_upper_gamma_b(k1)


def test_determinism(fig_graph):
    a = solve_upper_gamma_b(fig_graph)
    b = solve_upper_gamma_b(fig_graph)
    assert a == b


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


PETERSEN = build_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)],
)
# 3-regular, and its only automorphism is the identity (LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2])
FRUCHT = build_graph(
    12,
    [(i, (i + 1) % 12) for i in range(12)]
    + [(i, (i + d) % 12) for i, d in enumerate((-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2))],
)
# 4-regular with one distance profile at every vertex, yet not vertex-transitive:
# the automorphism search runs and cannot close the orbit of vertex 0
EVEN_PROFILE_NOT_TRANSITIVE = build_graph(
    7,
    [(a, b) for a in (0, 1, 2) for b in (3, 4, 5, 6)] + [(3, 6), (4, 5)],
)
SYMMETRIC = (
    [gen_cycle(n) for n in range(3, 17)]
    + [gen_torus(m, n) for m, n in [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)]]
)
# vertex-transitive beyond cycles and tori: the cube, a prism and K_{3,3}
OTHER_TRANSITIVE = [
    cartesian_product(gen_cycle(4), gen_path(2)),
    cartesian_product(gen_cycle(5), gen_path(2)),
    build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
]
ORBIT_CUT_GRAPHS = (
    SYMMETRIC + [relabelled(g, 9) for g in SYMMETRIC] + OTHER_TRANSITIVE + [PETERSEN, FRUCHT]
)


def plain_search(g, monkeypatch, solver=solve_upper_gamma_b):
    """`solver`'s report from the search over every vector: with no
    automorphism found, neither the orbit cut nor the lex-leader cut fires."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_automorphisms", lambda _g: [])
        return solver(g)


def transitive(g):
    """Whether the automorphisms the solver finds move vertex 0 everywhere."""
    return len(solvers._orbit(0, solvers._automorphisms(g))) == g.n


@pytest.mark.parametrize("g", ORBIT_CUT_GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_orbit_cut_equals_plain_search(g, monkeypatch):
    cut, plain = solve_upper_gamma_b(g), plain_search(g, monkeypatch)
    assert (cut.value, cut.witness_broadcast) == (plain.value, plain.witness_broadcast)
    cut, plain = solve_upper_gamma(g), plain_search(g, monkeypatch, solve_upper_gamma)
    assert (cut.value, cut.witness_set) == (plain.value, plain.witness_set)


@pytest.mark.parametrize(
    "g",
    [gen_cycle(n) for n in range(3, 8)] + [gen_torus(3, 3), relabelled(gen_torus(3, 3), 4), PETERSEN],
    ids=lambda g: f"n{g.n}m{g.edge_count()}",
)
def test_orbit_cut_equals_brute_force(g):
    assert transitive(g)
    # Gamma_b through the orbit rounds and gamma_b through the deepening ones
    assert_broadcast_solvers_match_brute(g, brute_minimal_broadcasts(g))
    # Gamma through the orbit cut and gamma through the deepening rounds; a
    # set search that tried strength 0 before 1 would meet the largest
    # optimal set first and fail the witness check
    assert_set_solvers_match_brute(g)


@pytest.mark.parametrize("g", [relabelled(gen_cycle(20), 1), relabelled(gen_torus(4, 5), 1)])
def test_orbit_cut_fires_on_relabelled_inputs(g, monkeypatch):
    assert transitive(g)
    cut, plain = solve_upper_gamma_b(g), plain_search(g, monkeypatch)
    assert cut.value == plain.value
    assert cut.nodes * 5 < plain.nodes


@pytest.mark.parametrize("g", [gen_torus(4, 5), relabelled(gen_torus(5, 5), 2)],
                         ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_every_orbit_round_gets_maps_that_move_vertex_0(g, monkeypatch):
    assert transitive(g)
    rounds = []
    run = solvers._Search.run

    def recording(search, window, on_found, s0=0, maps=(), **kwargs):
        rounds.append((s0, maps))
        return run(search, window, on_found, s0=s0, maps=maps, **kwargs)

    monkeypatch.setattr(solvers._Search, "run", recording)
    for solver, top_cap in ((solve_upper_gamma_b, metrics(g).diameter), (solve_upper_gamma, 1)):
        rounds.clear()
        solver(g)
        # every round from the top cap down, all with one map list
        assert [s0 for s0, _ in rounds] == list(range(top_cap, 0, -1))
        assert all(maps == rounds[0][1] for _, maps in rounds)
        assert any(m[0] != 0 for m in rounds[0][1])


@pytest.mark.parametrize(
    "g",
    [FRUCHT, EVEN_PROFILE_NOT_TRANSITIVE, relabelled(EVEN_PROFILE_NOT_TRANSITIVE, 2),
     gen_path(8), gen_grid(3, 4), gen_star(4)],
    ids=lambda g: f"n{g.n}m{g.edge_count()}",
)
def test_orbit_cut_does_not_fire(g, monkeypatch):
    assert not transitive(g)
    # the lex-leader cut still fires where g has automorphisms, so only the
    # node counts may differ
    cut, plain = solve_upper_gamma_b(g), plain_search(g, monkeypatch)
    assert (cut.value, cut.witness_broadcast) == (plain.value, plain.witness_broadcast)


def test_transitivity_verdict_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(4)
    graphs = [nx.circulant_graph(n, rng.sample(range(1, n // 2 + 1), rng.randint(1, 2)))
              for n in range(5, 13) for _ in range(3)]
    graphs += [nx.random_regular_graph(3, n, seed=rng.randrange(10**6)) for n in (6, 8, 10, 12) * 4]
    graphs += [nx.moebius_kantor_graph(), nx.heawood_graph(), nx.frucht_graph()]
    verdicts = []
    for h in graphs:
        if not nx.is_connected(h):
            continue
        h = nx.convert_node_labels_to_integers(h)
        g = relabelled(build_graph(h.number_of_nodes(), h.edges()), rng.randrange(10**6))
        orbit = {m[0] for m in GraphMatcher(h, h).isomorphisms_iter()}
        verdicts.append(len(orbit) == g.n)
        assert transitive(g) == verdicts[-1], sorted(g.edges())
    assert True in verdicts and False in verdicts


def test_automorphism_search_past_its_cap_runs_the_plain_search(monkeypatch):
    g = relabelled(gen_cycle(9), 3)
    plain = plain_search(g, monkeypatch)
    monkeypatch.setattr(solvers, "_AUTOMORPHISM_CHECK_CAP", 3)
    assert solvers._automorphisms(g) == []
    assert solve_upper_gamma_b(g) == plain


def complete_bipartite(a, b):
    return build_graph(a + b, [(x, a + y) for x in range(a) for y in range(b)])


GRIDS = [gen_grid(m, n) for m in (2, 3, 4) for n in range(m, 6)]
# graphs with nontrivial groups, all but the 2x2 grid (C4) not
# vertex-transitive; the larger stars and K_{a,b} fill _LEX_MAP_CAP
LEX_CUT_GRAPHS = (
    GRIDS + [relabelled(g, 5) for g in GRIDS]
    + [gen_star(k) for k in (3, 6, 9)] + [relabelled(gen_star(9), 2)]
    + [complete_bipartite(a, b) for a, b in [(1, 4), (2, 3), (2, 5), (3, 5), (4, 5)]]
    + [relabelled(complete_bipartite(3, 5), 6), gen_path(9), relabelled(gen_path(9), 1)]
)


@pytest.mark.parametrize("g", LEX_CUT_GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_lex_leader_cut_equals_plain_search(g, monkeypatch):
    assert solvers._automorphisms(g)
    cut, plain = solve_upper_gamma_b(g), plain_search(g, monkeypatch)
    assert (cut.value, cut.witness_broadcast) == (plain.value, plain.witness_broadcast)
    cut, plain = solve_upper_gamma(g), plain_search(g, monkeypatch, solve_upper_gamma)
    assert (cut.value, cut.witness_set) == (plain.value, plain.witness_set)


@pytest.mark.parametrize(
    "g",
    [gen_grid(2, 3), relabelled(gen_grid(2, 3), 3), gen_cycle(4), complete_bipartite(2, 3),
     relabelled(complete_bipartite(2, 3), 1), gen_star(4), gen_path(6)],
    ids=lambda g: f"n{g.n}m{g.edge_count()}",
)
def test_lex_leader_cut_equals_brute_force(g):
    assert solvers._automorphisms(g)
    assert_broadcast_solvers_match_brute(g, brute_minimal_broadcasts(g))
    assert_set_solvers_match_brute(g)


RELABELLED_PRODUCTS = [
    relabelled(g, seed)
    for g in (gen_torus(3, 3), gen_torus(3, 4), gen_grid(2, 4), gen_grid(3, 3), gen_grid(3, 4))
    for seed in (1, 2, 3)
]


@pytest.mark.parametrize("g", RELABELLED_PRODUCTS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_set_solvers_on_relabelled_products_equal_brute_force(g):
    # the set search reads its positions breadth-first from vertex 0, so the
    # automorphisms it cuts with must be read on positions too, and its
    # witness mapped back to labels
    assert solvers._automorphisms(g)
    assert set_search_order(g) != list(range(g.n))
    assert_set_solvers_match_brute(g)


def test_lex_leader_cut_halves_grid_nodes(monkeypatch):
    g = gen_grid(4, 4)
    assert solve_upper_gamma_b(g).nodes * 2 < plain_search(g, monkeypatch).nodes


@pytest.mark.parametrize(
    "g",
    [gen_torus(4, 5), relabelled(gen_torus(5, 5), 2), gen_grid(3, 4), relabelled(gen_grid(4, 4), 7),
     PETERSEN, FRUCHT, gen_star(9), complete_bipartite(4, 5),
     cartesian_product(gen_cycle(4), gen_path(2))],
    ids=lambda g: f"n{g.n}m{g.edge_count()}",
)
def test_automorphisms_are_checked_maps_by_level(g):
    maps = solvers._automorphisms(g)
    edges = set(g.edges())
    level = 0
    for sigma in maps:
        assert sorted(sigma) == list(range(g.n))
        assert all(tuple(sorted((sigma[a], sigma[b]))) in edges for a, b in edges)
        # level k fixes 0..k-1 and moves k; the levels come in order
        k = next(v for v in range(g.n) if sigma[v] != v)
        assert k >= level
        level = k
    # past level 0 the search stops at the map cap
    assert sum(sigma[0] == 0 for sigma in maps) <= solvers._LEX_MAP_CAP


@pytest.mark.parametrize("g", [gen_star(9), complete_bipartite(4, 5), relabelled(gen_star(9), 2)],
                         ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_large_groups_fill_the_map_cap(g):
    assert sum(sigma[0] == 0 for sigma in solvers._automorphisms(g)) == solvers._LEX_MAP_CAP


def random_bipartite(n, seed):
    """A connected bipartite graph on n vertices and its sides, vertex 0 on
    side 0: a random spanning tree whose edges cross the sides, each vertex
    joined to an earlier one, then up to 2n more crossing edges."""
    rng = random.Random(seed)
    side, edges = [0] * n, set()
    for v in range(1, n):
        side[v] = rng.randrange(2) if 1 in side[:v] else 1
        edges.add((rng.choice([u for u in range(v) if side[u] != side[v]]), v))
    for _ in range(rng.randrange(2 * n + 1)):
        u, v = sorted(rng.sample(range(n), 2))
        if side[u] != side[v]:
            edges.add((u, v))
    return build_graph(n, sorted(edges)), side


def windowless(g, monkeypatch):
    """`solve_upper_gamma(g)` as a graph with no bipartite bound gets it:
    the window opens at [top cap, |E|] and the search proves the bound."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_bipartite_independence", lambda _g: None)
        return solve_upper_gamma(g)


RANDOM_BIPARTITE = [random_bipartite(2 + seed % 13, seed)[0] for seed in range(60)]
BIPARTITE_WINDOW_GRAPHS = {
    "trees": [t for t in enumerate_trees(10) if t.n >= 2],
    "grids": [gen_grid(m, n) for m in range(1, 5) for n in range(max(m, 2), 7)],
    "tori": [gen_torus(4, 4), gen_torus(4, 5), gen_torus(4, 6), gen_torus(6, 6)],
    "cycles": [gen_cycle(n) for n in range(4, 25)],
    "complete-bipartite": [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6)],
    "random": RANDOM_BIPARTITE + [relabelled(g, seed) for seed, g in enumerate(RANDOM_BIPARTITE)],
}


@pytest.mark.parametrize("family", BIPARTITE_WINDOW_GRAPHS)
def test_bipartite_window_equals_the_windowless_search(family, monkeypatch):
    # Gamma = beta on bipartite graphs (Cockayne, Favaron, Payan and
    # Thomason 1981), so the window [beta, beta] keeps value and witness,
    # and its search is a prefix of the windowless one
    windowed = 0
    for g in BIPARTITE_WINDOW_GRAPHS[family]:
        cut, plain = solve_upper_gamma(g), windowless(g, monkeypatch)
        assert (cut.value, cut.witness_set) == (plain.value, plain.witness_set), g.edges()
        assert cut.nodes <= plain.nodes
        windowed += solvers._bipartite_independence(g) is not None
    # C4xC5 and the odd cycles keep the windowless search
    assert windowed == len(BIPARTITE_WINDOW_GRAPHS[family]) - {"tori": 1, "cycles": 10}.get(family, 0)


def test_bipartite_window_cuts_the_proof(monkeypatch):
    # the windowless search takes 46,178 nodes to prove Gamma(P6xP6) = 18
    g = gen_grid(6, 6)
    assert solve_upper_gamma(g).nodes * 100 < windowless(g, monkeypatch).nodes


@pytest.mark.parametrize("g", [gen_cycle(40), gen_torus(8, 8)], ids=["C40", "C8xC8"])
def test_bipartite_witness_search_ignores_labels(g):
    # breadth-first from vertex 0, the first set of cost beta the search
    # meets is its first leaf, one node per position, at every labelling; in
    # label order the relabelled C40 passed 200,000 nodes
    for seed in range(1, 9):
        rep = solve_upper_gamma(relabelled(g, seed), 10_000)
        assert rep.value == g.n // 2 and rep.nodes == g.n


def test_bipartite_independence_is_n_less_a_maximum_matching():
    nx = pytest.importorskip("networkx")
    rng = random.Random(26)
    for seed in range(60):
        g, side = random_bipartite(rng.randrange(2, 301), seed)
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        top = [v for v in range(g.n) if side[v] == 0]
        matching = nx.bipartite.hopcroft_karp_matching(h, top_nodes=top)
        assert solvers._bipartite_independence(g) == g.n - len(matching) // 2


@pytest.mark.parametrize(
    "g", [gen_cycle(n) for n in (3, 5, 7, 25)] + [PETERSEN, gen_torus(3, 4), gen_torus(5, 5)],
    ids=lambda g: f"n{g.n}m{g.edge_count()}",
)
def test_bipartite_independence_refuses_odd_cycles(g):
    assert solvers._bipartite_independence(g) is None


def test_bipartite_independence_of_a_long_path():
    # the augmenting paths keep their own stack, so 5000 vertices take no frames
    assert solvers._bipartite_independence(gen_path(5000)) == 2500
    assert solvers._bipartite_independence(build_graph(1, [])) == 1


BIPARTITE_BOUND_UNDER_O = """
import sys
from bdom import solvers
from bdom.graphs import build_graph, gen_cycle, gen_path, gen_torus

beta = solvers._bipartite_independence
solvers._bipartite_independence = lambda g: beta(g) + 1
k23 = build_graph(5, [(a, b) for a in range(2) for b in range(2, 5)])
for g in (gen_path(4), gen_cycle(6), gen_torus(4, 4), k23):
    try:
        solvers.solve_upper_gamma(g)
    except AssertionError as exc:
        print("optimize", sys.flags.optimize, "raised:", exc)
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_bipartite_bound_past_gamma_raises(optimize):
    # a bound one above beta leaves the window empty of finds, on a path, a
    # vertex-transitive cycle and torus, and K_{2,3}
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", BIPARTITE_BOUND_UNDER_O], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert all(f"optimize {len(optimize)} raised: Gamma: no minimal dominating set of the "
               f"bipartite bound" in line for line in lines)


def test_rows_are_built_where_the_search_goes():
    # ten nodes reach at most ten vertices, so at most ten of the 1000 rows
    # exist, and a window that ends at |E| needs no cover ratio
    g = gen_path(1000)
    search = solvers._Search(g, g.n, 10)
    with pytest.raises(CapabilityError, match="node budget"):
        search.run([0, g.edge_count()], lambda _c, _vec: None)
    assert sum(row is not None for row in search.rows) <= 10
    assert "cover_ratio" not in vars(search)


WITNESS_CHECK_UNDER_O = """
import sys
from bdom import solvers
from bdom.graphs import gen_cycle, gen_grid, gen_path

def bad_run(search, window, on_found, maps=(), **_):
    # (1, 1, 1, 1, 0, ...) dominates P4, C5 and P2xP3, as a broadcast and as
    # the set of vertices 0-3, but vertex 0 or 1 keeps no private neighbour
    print("maps", len(maps))
    on_found(4, (1, 1, 1, 1) + (0,) * (search.n - 4))

g = {graph}
print("transitive", len(solvers._orbit(0, solvers._automorphisms(g))) == g.n)
solvers._Search.run = bad_run
try:
    solvers.{solver}(g)
except AssertionError as exc:
    print("optimize", sys.flags.optimize, "rejected:", exc)
"""


@pytest.mark.parametrize(
    "solver, graph",
    [
        pytest.param(solver, "gen_path(4)", id=solver)
        for solver in (
            "solve_gamma", "solve_upper_gamma", "solve_gamma_b", "solve_upper_gamma_b",
            "beats_diameter",
        )
    ]
    # vertex-transitive: the orbit rounds, whose last find is the witness
    + [pytest.param(solver, "gen_cycle(5)", id=f"{solver}-C5")
       for solver in ("solve_upper_gamma_b", "solve_upper_gamma")]
    # not vertex-transitive, with maps for the lex-leader cut
    + [pytest.param(solver, "gen_grid(2, 3)", id=f"{solver}-P2xP3")
       for solver in ("solve_upper_gamma_b", "solve_upper_gamma")],
)
def test_witness_check_survives_optimize_flag(solver, graph):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = WITNESS_CHECK_UNDER_O.format(solver=solver, graph=graph)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert f"transitive {graph.startswith('gen_cycle')}" in proc.stdout
    if graph == "gen_grid(2, 3)":
        assert "maps 2" in proc.stdout  # two reflections generate the grid's group
    assert "optimize 1 rejected:" in proc.stdout
    assert "witness rejected by the predicate layer" in proc.stdout


def test_package_imports_without_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import bdom, sys; assert 'numpy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def without_lookahead(patch):
    """Make every run leave out the private-neighbor lookahead and the
    private-geodesic bound, whatever its search and window."""
    patch.setattr(solvers._Search, "lookahead", lambda _search, _window: False)


def oracle_search(g, monkeypatch, cut=True, spans=True, eager=False):
    """`beats_diameter(g)` and the nodes its search visits, with the
    private-neighbor lookahead on or, with cut=False, off; spans=False turns
    off only the private-geodesic bound, by building no spans, and
    eager=True builds every ball row before the search starts."""
    run = solvers._Search.run
    counts = []

    def counted(search, window, on_found, **kwargs):
        if eager:
            for i in range(search.n):
                search.build_row(i)
        try:
            run(search, window, on_found, **kwargs)
        finally:
            counts.append(search.nodes)

    with monkeypatch.context() as patch:
        patch.setattr(solvers._Search, "run", counted)
        if not cut:
            without_lookahead(patch)
        if not spans:
            patch.setattr(solvers, "_Spans", lambda _g, _order: None)
        return beats_diameter(g), sum(counts)


def random_lobsters(count, seed):
    """Relabelled lobsters of 12-16 vertices with one to three random limbs;
    15 of the 40 that seed 22 gives are diametrical."""
    rng = random.Random(seed)
    while count:
        d = rng.randint(6, 13)
        spots = sorted(rng.sample(range(1, d), rng.randint(1, 3)))
        t = gen_lobster(LobsterSpec(d, tuple((p, rng.choice("ABC")) for p in spots)))
        if 12 <= t.n <= 16:
            count -= 1
            yield relabelled(t, rng.randrange(10**6))


def lookahead_corpus():
    """Every tree of 2-12 vertices, 120 seeded random trees of 15-18 vertices
    and 40 relabelled random lobsters."""
    rng = random.Random(22)
    trees = [t for t in enumerate_trees(12) if t.n >= 2]
    trees += [random_tree(rng.randint(15, 18), rng) for _ in range(120)]
    trees += list(random_lobsters(40, 22))
    return trees


def test_lookahead_keeps_every_oracle_answer(monkeypatch):
    # the cut removes only branches with no minimal dominating completion, so
    # the first find, and so broadcast and verdict, stay, and no node is added
    trees = lookahead_corpus()
    diametrical = cut_total = plain_total = 0
    for t in trees:
        (beats, cut_nodes), (plain, plain_nodes) = (
            oracle_search(t, monkeypatch), oracle_search(t, monkeypatch, cut=False)
        )
        assert beats == plain
        assert cut_nodes <= plain_nodes
        diametrical += beats is None
        cut_total += cut_nodes
        plain_total += plain_nodes
    assert len(trees) == 1146 and diametrical > 140
    assert cut_total * 2 < plain_total


def test_private_geodesic_bound_keeps_every_oracle_answer(monkeypatch):
    # the bound cuts only branches whose every completion costs less than
    # lo, so the first find stays.  The lookahead reads a ball row only once
    # the search has built it, so a branch the bound cuts can leave a row
    # unbuilt and a later lookahead weaker: the bound adds a few nodes on 58
    # of these 1146 trees, and none once every row is built up front.  In
    # all it takes the nodes from 254,314 to 83,782
    on_total = off_total = 0
    for t in lookahead_corpus():
        (on, on_nodes), (off, off_nodes) = (
            oracle_search(t, monkeypatch), oracle_search(t, monkeypatch, spans=False)
        )
        (eager_on, eager_on_nodes), (eager_off, eager_off_nodes) = (
            oracle_search(t, monkeypatch, eager=True),
            oracle_search(t, monkeypatch, spans=False, eager=True),
        )
        assert on == off == eager_on == eager_off
        assert eager_on_nodes <= eager_off_nodes
        on_total += on_nodes
        off_total += off_nodes
    assert on_total * 5 <= off_total * 3


def count_cover_ratios(monkeypatch):
    """A list to which every computation of rho appends rho."""
    calls = []
    compute = solvers._Search.cover_ratio.func

    def counted(search):
        calls.append(compute(search))
        return calls[-1]

    counted_ratio = cached_property(counted)
    counted_ratio.__set_name__(solvers._Search, "cover_ratio")
    monkeypatch.setattr(solvers._Search, "cover_ratio", counted_ratio)
    return calls


def force_cover_ratio(monkeypatch):
    """Make every run cut on rho, whatever its window: the run reads rho
    only when its window ends below `edges`, which this sets past hi while
    the run lasts."""
    run = solvers._Search.run

    def forced(search, window, on_found, **kwargs):
        edges, search.edges = search.edges, window[1] + 1
        try:
            run(search, window, on_found, **kwargs)
        finally:
            search.edges = edges

    monkeypatch.setattr(solvers._Search, "run", forced)


def random_connected_non_trees(count, seed):
    """Seeded random trees of 6-10 vertices plus 1-4 random extra edges."""
    rng = random.Random(seed)
    for _ in range(count):
        t = random_tree(rng.randint(6, 10), rng)
        present = set(t.edges())
        missing = [e for e in itertools.combinations(range(t.n), 2) if e not in present]
        yield build_graph(t.n, t.edges() + rng.sample(missing, rng.randint(1, 4)))


def test_cover_ratio_is_idle_at_the_edge_count(monkeypatch):
    # with hi = |E| the cover-ratio cut never fires, on any graph (module
    # docstring): the Gamma_b maximum, the non-bipartite Gamma maximum and
    # the oracle compute no rho, and forcing rho into every run of theirs
    # leaves witnesses and nodes alone.  The minima's deepening windows end
    # below |E|, so each of their solves computes rho once, unless |E| = 1,
    # and so does the bipartite Gamma window [beta, beta] when beta < |E|.
    # Gamma_b skips the corpus trees of more than 11 vertices, on which it
    # takes 17 s
    non_trees = (
        [gen_cycle(n) for n in range(3, 16)]
        + [gen_torus(m, n) for m, n in [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)]]
        + [gen_grid(m, n) for m in range(2, 5) for n in range(m, 5)]
        + list(random_connected_non_trees(60, 28))
    )
    calls = count_cover_ratios(monkeypatch)
    for g in lookahead_corpus() + non_trees:
        beta = solvers._bipartite_independence(g)
        maxima = [lambda g: oracle_search(g, monkeypatch)]
        if g.n <= 11 or g.edge_count() >= g.n:
            maxima.append(solve_upper_gamma_b)
        if beta is None:
            maxima.append(solve_upper_gamma)
        plain = [solver(g) for solver in maxima]
        assert not calls
        with monkeypatch.context() as patch:
            force_cover_ratio(patch)
            assert [solver(g) for solver in maxima] == plain
        # one rho per forced search, and rho >= 2, as the proof needs
        assert len(calls) == len(maxima) and all(num >= 2 * den for num, den in calls)
        calls.clear()
        for solver, computes in ((solve_gamma, g.edge_count() > 1),
                                 (solve_gamma_b, g.edge_count() > 1),
                                 (solve_upper_gamma, beta is not None and beta < g.edge_count())):
            solver(g)
            assert len(calls) == computes, (solver.__name__, g.edges())
            calls.clear()


def test_private_geodesic_bound_counts_self_private_edges():
    # K_{1,3} searched from leaf 1: (1, 0, 1, 1) in the search order (1, 0,
    # 2, 3).  When leaf 3 is reached, only 3 itself is unheard and no path
    # from 3 to an unheard vertex has an edge; without its own edge, or with
    # position 3 counted as placed, the bound would read 0 and call K_{1,3}
    # diametrical
    assert beats_diameter(gen_star(3)) == Broadcast((0, 1, 1, 1))


def keep_spans(monkeypatch):
    """A list to which each search appends its (spans, order) once it has run."""
    made = []
    run = solvers._Search.run

    def kept(search, *args, **kwargs):
        try:
            run(search, *args, **kwargs)
        finally:
            made.append((search.spans, search.order))

    monkeypatch.setattr(solvers._Search, "run", kept)
    return made


def brute_span_count(t, order, i):
    """U -> |F_i(U)| by the definition: the edges on a path from a position
    >= i to a vertex of U, plus the edges at a vertex that is both."""
    dist = metrics(t).dist
    later = set(order[i:])
    rows = []  # per edge: the vertices it separates from some later vertex, and its later ends
    for a, b in t.edges():
        far = sum(
            1 << y for y in range(t.n) if any(
                dist[x][a] + 1 + dist[b][y] == dist[x][y] or dist[x][b] + 1 + dist[a][y] == dist[x][y]
                for x in later
            )
        )
        rows.append((far, sum(1 << v for v in (a, b) if v in later)))
    return lambda unheard: sum(bool((far | ends) & unheard) for far, ends in rows)


def test_span_rows_count_the_private_geodesic_edges(monkeypatch):
    # every position and nonempty U on the trees of 2-8 vertices, and a
    # seeded sample of U on relabelled random trees of 12-16 vertices, each
    # in the order beats_diameter searches it and in label order, which the
    # Gamma_b maximum searches and which is not breadth-first
    made = keep_spans(monkeypatch)
    small = [t for t in enumerate_trees(8) if t.n >= 2]
    rng = random.Random(24)
    large = [relabelled(random_tree(rng.randint(12, 16), rng), rng.randrange(10**6)) for _ in range(6)]
    for t in small + large:
        beats_diameter(t)
        labels = tuple(range(t.n))
        for spans, order in (made.pop(), (solvers._Spans(t, labels), labels)):
            for i in range(t.n):
                if t.n <= 8:
                    unheards = range(1, 1 << t.n)
                else:
                    unheards = [rng.randrange(1, 1 << t.n) for _ in range(100)]
                    unheards += [1 << v for v in range(t.n)]
                always, masks = spans.build(i)
                count = brute_span_count(t, order, i)
                for unheard in unheards:
                    assert always + sum(bool(mask & unheard) for mask in masks) == count(unheard)


def test_span_rows_are_built_where_the_search_goes(monkeypatch):
    # ten nodes reach at most ten positions of the 1000-vertex lobster
    made = keep_spans(monkeypatch)
    t = gen_lobster(LobsterSpec(998, ((499, "C"),)))
    assert t.n == 1000
    with pytest.raises(CapabilityError, match="node budget"):
        beats_diameter(t, 10)
    spans, _ = made.pop()
    assert 0 < sum(row is not None for row in spans.built) <= 10


def private_geodesics(g, f):
    """The edge set of each broadcaster v of f: a BFS geodesic from v to its
    first private neighbor at distance f(v), or, when f(v) = 1 and v is its
    own only private neighbor, the edge to v's first neighbor."""
    dist = metrics(g).dist
    s = f.strengths
    heard = [hearers(g, f, u) for u in range(g.n)]
    out = []
    for v in range(g.n):
        if not s[v]:
            continue
        private = [u for u in range(g.n) if heard[u] == {v}]
        far = [u for u in private if dist[v][u] == s[v]]
        if not far:
            assert s[v] == 1 and private == [v]
            out.append({frozenset((v, g.adjacency[v][0]))})
            continue
        path = [far[0]]
        while path[-1] != v:
            x = path[-1]
            path.append(next(w for w in g.adjacency[x] if dist[v][w] < dist[v][x]))
        out.append({frozenset(e) for e in zip(path, path[1:])})
    return out


def test_private_geodesics_are_edge_disjoint():
    # the lemma behind the bound, on every minimal dominating broadcast: the
    # unpruned enumeration on the trees of up to 6 vertices and on the
    # non-trees of PRUNED_VS_BRUTE, and the search's full stream, which
    # the tests above check against it, on the 34 trees of 7 and 8
    # vertices (the unpruned enumeration would read 10.6M vectors there)
    small = [t for t in enumerate_trees(8) if t.n >= 2]
    streams = [(t, brute_minimal_broadcasts(t)) for t in small if t.n <= 6]
    streams += [(g, brute_minimal_broadcasts(g)) for g in PRUNED_VS_BRUTE
                if g.edge_count() >= g.n]
    streams += [(t, enumerate_minimal_broadcasts(t, t.edge_count())) for t in small if t.n > 6]
    checked = 0
    for g, broadcasts in streams:
        for f in broadcasts:
            edges = private_geodesics(g, f)
            assert sum(map(len, edges)) == len(set().union(*edges)) == cost(f)
            checked += 1
    assert checked == 156 + 161 + 1300


def test_lookahead_cuts_two_thirds_of_a_diametrical_lobster(monkeypatch):
    # 43,171 nodes without either oracle cut, 7,091 with the lookahead alone
    # and 1,008 with the private-geodesic bound too
    t = gen_lobster(LobsterSpec(12, ((4, "B"), (8, "C"))))
    (beats, cut_nodes), (_, plain_nodes) = (
        oracle_search(t, monkeypatch), oracle_search(t, monkeypatch, cut=False)
    )
    assert beats is None
    assert cut_nodes * 3 <= plain_nodes


# A tree whose label order is not breadth-first: span masks that take each
# vertex's parent from the search order are wrong on it, and the Gamma_b
# maximum then returns (0, 0, 5, 3, 0, ...), not its lexicographically
# largest optimum
LABEL_ORDER_TREE = build_graph(
    10, [(0, 3), (0, 6), (1, 7), (1, 8), (2, 4), (3, 8), (4, 8), (5, 7), (6, 9)]
)


def test_lookahead_keeps_every_upper_broadcast_answer(monkeypatch):
    # the lookahead and, on trees, the private-geodesic bound cut only
    # branches with no minimal dominating completion of cost >= lo, so the
    # Gamma_b maximum finds what it finds without them: the same values and
    # witnesses, and no node added.  Every tree of 2-10 vertices, the tree
    # above, the tori of up to 30 vertices and the grids of up to 20; without
    # the cut the grids from 3x8 on take over a second each (3x10: 46 s)
    graphs = [t for t in enumerate_trees(10) if t.n >= 2] + [LABEL_ORDER_TREE]
    graphs += [gen_torus(m, n) for m in range(3, 6) for n in range(m, 11) if m * n <= 30]
    graphs += [gen_grid(m, n) for m in range(2, 5) for n in range(m, 11) if m * n <= 20]
    cut_total = plain_total = 0
    for g in graphs:
        cut = solve_upper_gamma_b(g)
        with monkeypatch.context() as patch:
            without_lookahead(patch)
            plain = solve_upper_gamma_b(g)
        assert (cut.value, cut.witness_broadcast) == (plain.value, plain.witness_broadcast)
        assert cut.nodes <= plain.nodes
        cut_total += cut.nodes
        plain_total += plain.nodes
    assert solve_upper_gamma_b(LABEL_ORDER_TREE).witness_broadcast.strengths == (0, 2) + (0,) * 7 + (6,)
    assert len(graphs) == 230 and cut_total * 3 < plain_total * 2  # 197,678 against 315,712


def test_upper_broadcast_of_c5_c7_within_a_small_budget():
    # the floor of the 0-branch and the lookahead: 277,960 nodes, 352,780
    # without the first and 406,865 without the second
    assert solve_upper_gamma_b(gen_torus(5, 7), 300_000).value == 20


def ladder_rows(workload):
    """(label, value, witness, nodes) per operation of a benchmark ladder at
    seed 0, and the node total per invariant."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from tracing import Tracer
        from workloads import SOLVERS, build
    finally:
        sys.path.pop(0)
    rows, totals = [], {}
    for op in build(workload, 0, Tracer(False))[0]:
        r = SOLVERS[op.kind](op.graph)
        rows.append((op.label, r.value, r.witness_set or r.witness_broadcast.strengths, r.nodes))
        totals[op.kind] = totals.get(op.kind, 0) + r.nodes
    return rows, totals


def sha256(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_lookahead_leaves_the_broadcast_ladder_alone():
    # the benchmark's 40 broadcast-ladder operations at seed 0, whose values
    # and witnesses were recorded before the oracle had the lookahead; a
    # change to the ladder in perfbench/workloads.py records them again.
    # The node counts were recorded again when the Gamma_b maximum took the
    # lookahead (13,650 Gamma_b nodes before), and when the strength loop
    # lost its unreachable-vertex test and its `first` break (1,703 gamma_b
    # nodes before)
    rows, totals = ladder_rows("broadcast-ladder")
    assert totals == {"Gamma_b": 12130, "gamma_b": 1790}
    assert sha256([row[:3] for row in rows]) == (
        "0fab8a7e52c463345105cb577d18f5b370df960557e48965eabcdbf694da65dc"
    )
    assert sha256(rows) == "1e6605bd44cbd99de2f2d048c93112982cfb8725d2fbae57bc4cdc752d8047e2"


def test_set_order_leaves_the_set_ladder_values_alone():
    # the 22 set-ladder operations at seed 0.  Their values were recorded
    # before the set search took its breadth-first order; the witnesses and
    # node counts were recorded again then (3,803 gamma and 4,471 Gamma
    # nodes before, over label order, and 9,789 Gamma nodes before Gamma on
    # bipartite graphs took the window [beta, beta])
    rows, totals = ladder_rows("set-ladder")
    assert totals == {"gamma": 2827, "Gamma": 2383}
    assert sha256([row[:2] for row in rows]) == (
        "4ef673b4ecf8fc93cfe27e0eaf1ea35c735dbe23aeca8a17a666e4371a32172a"
    )
    assert sha256(rows) == "57f3dd1789aea6b5f02fabe83c97b2c3fa75dd0367fca9cbe6e5cff851db49d9"


def test_oracle_leaves_the_corpus_alone(monkeypatch):
    # the tree-side twin of the test above: the oracle on the 294 corpus
    # trees of two or more vertices, whose node total and witnesses were
    # recorded before the search's state was folded into one `_Search`
    rows = [oracle_search(t, monkeypatch) for t in classification_corpus() if t.n > 1]
    assert len(rows) == 294 and sum(nodes for _, nodes in rows) == 19786
    witnesses = [None if beats is None else beats.strengths for beats, _ in rows]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
        "a4642f76109b08f5e655342f812b84f7e37965f6686edb7cc2c016c0c49bf7a6"
    )
