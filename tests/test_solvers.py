import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_minimal_broadcasts, brute_minimal_dominating_sets

from bdom.broadcasts import (
    Broadcast,
    cost,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from bdom.errors import CapabilityError, InputError
from bdom.graphs import (
    build_graph,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_star,
    gen_torus,
    metrics,
)
from bdom.solvers import (
    SolverBudget,
    beats_diameter,
    enumerate_minimal_broadcasts,
    solve_gamma,
    solve_gamma_b,
    solve_upper_gamma,
    solve_upper_gamma_b,
)
from bdom.trees import enumerate_trees, prufer_to_graph


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


def assert_set_solvers_match_brute(g):
    """gamma and Gamma, value and lexicographically smallest witness, as the
    subset oracle finds them."""
    sets = brute_minimal_dominating_sets(g)
    sizes = [len(s) for s in sets]
    for solver, size in ((solve_gamma, min(sizes)), (solve_upper_gamma, max(sizes))):
        rep = solver(g)
        assert rep.value == size
        assert rep.witness_set == min(s for s in sets if len(s) == size)


@pytest.mark.parametrize("g", PRUNED_VS_BRUTE, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_pruned_search_equals_unpruned_enumeration(g):
    assert_set_solvers_match_brute(g)
    brute = brute_minimal_broadcasts(g)
    assert solve_upper_gamma_b(g).value == max(cost(b) for b in brute)
    assert solve_gamma_b(g).value == min(cost(b) for b in brute)
    # full stream agrees, not just the extremes
    bound = g.edge_count()
    got = [b.strengths for b in enumerate_minimal_broadcasts(g, bound)]
    assert got == sorted(b.strengths for b in brute)


def assert_beats_diameter_matches_brute(g, brute):
    """The decision search finds the lexicographically first broadcast of
    the unpruned enumeration that costs more than the diameter, or None."""
    d = metrics(g).diameter
    first = min((b for b in brute if cost(b) > d), key=lambda b: b.strengths, default=None)
    assert beats_diameter(g) == first


@given(st.integers(4, 7), st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_pruned_equals_unpruned_random_trees(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    t = prufer_to_graph(seq, n)
    brute = brute_minimal_broadcasts(t)
    assert solve_upper_gamma_b(t).value == max(cost(b) for b in brute)
    assert solve_gamma_b(t).value == min(cost(b) for b in brute)
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
    assert solve_upper_gamma_b(g).value == max(cost(b) for b in brute)
    assert solve_gamma_b(g).value == min(cost(b) for b in brute)
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


def test_witnesses_are_lexicographically_smallest(fig_graph):
    for g in (fig_graph, gen_cycle(5), gen_cycle(6), gen_path(4), gen_star(3), gen_torus(3, 3)):
        sets = brute_minimal_dominating_sets(g)
        lo = min(len(s) for s in sets)
        hi = max(len(s) for s in sets)
        assert solve_gamma(g).witness_set == min(s for s in sets if len(s) == lo)
        assert solve_upper_gamma(g).witness_set == min(s for s in sets if len(s) == hi)
        casts = brute_minimal_broadcasts(g)
        top = max(cost(b) for b in casts)
        bottom = min(cost(b) for b in casts)
        assert solve_upper_gamma_b(g).witness_broadcast.strengths == min(
            b.strengths for b in casts if cost(b) == top
        )
        assert solve_gamma_b(g).witness_broadcast.strengths == min(
            b.strengths for b in casts if cost(b) == bottom
        )


def test_node_budget_reports_estimate():
    g = gen_torus(3, 4)
    with pytest.raises(CapabilityError, match="search space"):
        solve_upper_gamma_b(g, SolverBudget(broadcast_node_cap=50))


def test_node_budget_bounds_the_set_search():
    g = gen_torus(3, 4)
    with pytest.raises(CapabilityError, match="search space"):
        solve_upper_gamma(g, SolverBudget(broadcast_node_cap=50))


def test_solvers_reject_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(CapabilityError):
        solve_gamma(g)
    with pytest.raises(CapabilityError):
        solve_upper_gamma_b(g)


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


WITNESS_CHECK_UNDER_O = """
import sys
from bdom import solvers
from bdom.graphs import gen_path

def bad_search(ctx, window, nodes, on_found):
    # (1, 1, 1, 0) dominates P4, as a broadcast and as the set of vertices
    # 0, 1 and 2, but vertex 1 keeps no private neighbour
    on_found(3, (1, 1, 1, 0))

solvers._search_minimal_broadcasts = bad_search
try:
    solvers.{solver}(gen_path(4))
except AssertionError as exc:
    print("optimize", sys.flags.optimize, "rejected:", exc)
"""


@pytest.mark.parametrize(
    "solver",
    ["solve_gamma", "solve_upper_gamma", "solve_gamma_b", "solve_upper_gamma_b", "beats_diameter"],
)
def test_witness_check_survives_optimize_flag(solver):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = WITNESS_CHECK_UNDER_O.format(solver=solver)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
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
