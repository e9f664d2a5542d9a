import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cartesian_product

from bdom.errors import InputError
from bdom.graphs import (
    LobsterSpec,
    UNREACHABLE,
    build_graph,
    gen_cycle,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_star,
    gen_torus,
    graph_from_json,
    graph_to_json,
    metrics,
    parse_edge_list,
    serialize,
)
from bdom.trees import canonical_form, is_tree, prufer_to_graph


def test_build_graph_smallest_edge():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_build_graph_figure_degrees(fig_graph):
    assert sorted(fig_graph.degree(v) for v in range(5)) == [1, 1, 1, 2, 3]


def test_build_graph_rejects_self_loop():
    with pytest.raises(InputError):
        build_graph(3, [(0, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])


def test_build_graph_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_metrics_cycle():
    m = metrics(gen_cycle(8))
    assert m.diameter == 4 and m.radius == 4


def test_metrics_figure(fig_graph):
    m = metrics(fig_graph)
    assert m.diameter == 3
    assert m.dist[0][3] == 3
    assert m.ecc[2] == 2


def test_metrics_torus_3_3():
    assert metrics(gen_torus(3, 3)).diameter == 2


def test_metrics_disconnected_sentinel():
    g = build_graph(4, [(0, 1), (2, 3)])
    m = metrics(g)
    assert not m.connected
    assert m.dist[0][2] == UNREACHABLE
    assert m.ecc is None and m.radius is None and m.diameter is None


def test_metrics_symmetry_and_triangle(fig_graph):
    m = metrics(fig_graph)
    n = fig_graph.n
    for i in range(n):
        assert m.dist[i][i] == 0
        for j in range(n):
            assert m.dist[i][j] == m.dist[j][i]
            for k in range(n):
                assert m.dist[i][j] <= m.dist[i][k] + m.dist[k][j]


def test_metrics_are_freed_with_their_graph():
    g = gen_cycle(30)
    m = metrics(g)
    assert metrics(g) is m
    table = weakref.ref(m)
    del g, m
    gc.collect()
    assert table() is None


def test_product_square():
    g = cartesian_product(gen_path(2), gen_path(2))
    assert g.n == 4 and g.edge_count() == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_product_torus_regular():
    g = cartesian_product(gen_cycle(3), gen_cycle(3))
    assert g.n == 9 and all(g.degree(v) == 4 for v in range(9))


def test_product_edge_count():
    assert cartesian_product(gen_cycle(3), gen_cycle(4)).edge_count() == 24


def test_product_diameter_additive_all_small_families():
    factors = [gen_path(k) for k in range(2, 7)] + [gen_cycle(k) for k in range(3, 7)]
    for a in factors:
        for b in factors:
            prod = cartesian_product(a, b)
            assert metrics(prod).diameter == metrics(a).diameter + metrics(b).diameter


def test_generators_match_products():
    # grids and tori are built edge by edge, so check them against the
    # product, square and not, with the row-major labels
    for m in range(1, 6):
        for n in range(1, 6):
            assert gen_grid(m, n) == cartesian_product(gen_path(m), gen_path(n)), (m, n)
            if m >= 3 and n >= 3:
                assert gen_torus(m, n) == cartesian_product(gen_cycle(m), gen_cycle(n)), (m, n)


def test_star():
    g = gen_star(4)
    assert g.n == 5 and metrics(g).diameter == 2


def test_generator_domain_errors():
    with pytest.raises(InputError):
        gen_cycle(2)
    with pytest.raises(InputError):
        gen_torus(2, 5)
    with pytest.raises(InputError):
        gen_torus(5, 2)


@pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (4, 6), (6, 6)])
def test_torus_four_regular(m, n):
    g = gen_torus(m, n)
    assert all(g.degree(v) == 4 for v in range(g.n))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (4, 4), (6, 5)])
def test_grid_degrees(m, n):
    g = gen_grid(m, n)
    assert set(g.degree(v) for v in range(g.n)) <= {2, 3, 4}


def test_lobster_figure_tree():
    g = gen_lobster(LobsterSpec(12, ((2, "A"), (5, "C"), (8, "B"), (11, "C"))))
    assert g.n == 19  # 13 spine vertices plus 2+1+2+1 limb vertices
    assert is_tree(g)
    assert metrics(g).diameter == 12


def test_lobster_single_leaf_is_star():
    g = gen_lobster(LobsterSpec(2, ((1, "C"),)))
    assert canonical_form(g) == canonical_form(gen_star(3))


def test_lobster_three_leaves_ten_vertices():
    g = gen_lobster(LobsterSpec(6, ((1, "C"), (3, "C"), (5, "C"))))
    assert g.n == 10 and is_tree(g) and metrics(g).diameter == 6


def test_lobster_spec_validation():
    with pytest.raises(InputError):
        LobsterSpec(4, ((0, "C"),))
    with pytest.raises(InputError):
        LobsterSpec(4, ((4, "C"),))
    with pytest.raises(InputError):
        LobsterSpec(6, ((3, "C"), (2, "C")))
    with pytest.raises(InputError):
        LobsterSpec(6, ((2, "X"),))


@given(
    d=st.integers(2, 9),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lobster_always_tree(d, data):
    n_limbs = data.draw(st.integers(0, max(0, d - 1)))
    positions = data.draw(
        st.lists(st.integers(1, d - 1), min_size=n_limbs, max_size=n_limbs, unique=True)
    )
    limbs = tuple(
        (p, data.draw(st.sampled_from("ABC"))) for p in sorted(positions)
    )
    g = gen_lobster(LobsterSpec(d, limbs))
    assert g.edge_count() == g.n - 1
    assert is_tree(g)


def test_parse_simple():
    g = parse_edge_list("2\n0 1\n")
    assert g == gen_path(2)


def test_parse_figure_file(fig_graph):
    text = "# comment line\n5\n0 1\n1 2\n2 3  # trailing comment\n2 4\n"
    assert parse_edge_list(text) == fig_graph


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list("3\n0 3\n")
    with pytest.raises(InputError, match="line 1"):
        parse_edge_list("x\n")
    with pytest.raises(InputError):
        parse_edge_list("")


@given(st.integers(3, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_random_trees(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    g = prufer_to_graph(seq, n)
    assert parse_edge_list(serialize(g)) == g
    assert graph_from_json(graph_to_json(g)) == g


def test_round_trip_stability(fig_graph):
    assert parse_edge_list(serialize(fig_graph)) == fig_graph
