import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdom import formulas
from bdom.errors import CapabilityError, InputError
from bdom.graphs import bfs_distances, gen_torus


def test_upper_gamma_c3_torus():
    assert formulas.upper_gamma_c3_torus(3) == 3
    assert formulas.upper_gamma_c3_torus(4) == 4
    with pytest.raises(InputError):
        formulas.upper_gamma_c3_torus(2)


def test_upper_gamma_torus_parity_cases():
    assert formulas.upper_gamma_torus(4, 4) == 8
    assert formulas.upper_gamma_torus(3, 3) == 3
    assert formulas.upper_gamma_torus(4, 5) == 8
    assert formulas.upper_gamma_torus(3, 4) == 4
    with pytest.raises(InputError):
        formulas.upper_gamma_torus(2, 4)


def test_upper_gamma_torus_specializes_to_three_rows():
    for n in range(3, 200):
        assert formulas.upper_gamma_torus(3, n) == formulas.upper_gamma_c3_torus(n)


def test_upper_gamma_b_cycle():
    assert formulas.upper_gamma_b_cycle(3) == 1
    assert formulas.upper_gamma_b_cycle(8) == 6
    assert formulas.upper_gamma_b_cycle(7) == 4
    with pytest.raises(InputError):
        formulas.upper_gamma_b_cycle(2)


def test_upper_gamma_b_torus():
    assert formulas.upper_gamma_b_torus(3, 3) == 3
    assert formulas.upper_gamma_b_torus(3, 4) == 6
    with pytest.raises(InputError):
        formulas.upper_gamma_b_torus(4, 3)  # stated only for m <= n


def test_gamma_torus_small():
    assert formulas.gamma_torus_small(3, 4) == 3
    assert formulas.gamma_torus_small(4, 5) == 5
    assert formulas.gamma_torus_small(3, 5) == 4
    assert formulas.gamma_torus_small(5, 10) == 10
    assert formulas.gamma_torus_small(5, 11) == 12
    with pytest.raises(CapabilityError):
        formulas.gamma_torus_small(5, 8)  # 8 = 5k+3: only a bound is known
    with pytest.raises(InputError):
        formulas.gamma_torus_small(6, 5)
    with pytest.raises(InputError):
        formulas.gamma_torus_small(3, 3)  # stated for n >= 4


def test_gamma_b_torus_cited():
    assert formulas.gamma_b_torus_cited(3, 4) == 3
    assert formulas.gamma_b_torus_cited(4, 4) == 3
    assert formulas.gamma_b_torus_cited(3, 3) == 2


def test_cycle_is_diametrical():
    assert formulas.cycle_is_diametrical(3)
    assert formulas.cycle_is_diametrical(4)
    assert formulas.cycle_is_diametrical(5)
    assert not formulas.cycle_is_diametrical(6)


def test_torus_is_diametrical():
    assert not formulas.torus_is_diametrical(3, 3)
    assert not formulas.torus_is_diametrical(4, 5)


def test_grid_is_diametrical():
    assert formulas.grid_is_diametrical(2, 2)
    assert formulas.grid_is_diametrical(1, 7)
    assert not formulas.grid_is_diametrical(2, 3)
    assert not formulas.grid_is_diametrical(1, 1)  # a single vertex never is


@given(st.integers(3, 50), st.integers(3, 50))
@settings(max_examples=120, deadline=None)
def test_upper_broadcast_torus_exceeds_diameter(m, n):
    if m > n:
        m, n = n, m
    # the torus is vertex-transitive, so one eccentricity is the diameter
    assert formulas.upper_gamma_b_torus(m, n) > max(bfs_distances(gen_torus(m, n), 0))


def test_evaluate_dispatch():
    fr = formulas.evaluate("cycle", "Gamma_b", None, 8)
    assert fr.value == 6 and fr.source
    fr = formulas.evaluate("torus", "gamma_b", 3, 4)
    assert fr.value == 3
    with pytest.raises(InputError):
        formulas.evaluate("grid", "Gamma", 3, 3)
    with pytest.raises(InputError):
        formulas.evaluate("cycle", "gamma", None, 8)
