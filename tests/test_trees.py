import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_trees

from bdom.errors import CapabilityError, InputError
from bdom.graphs import build_graph, gen_path, gen_star, metrics
from bdom.trees import (
    _leaf_rooted_key,
    _level_sequences,
    canonical_form,
    enumerate_trees,
    is_tree,
    prufer_to_graph,
    random_tree,
    tree_centers,
)

# classes of trees on 1..12 vertices (OEIS A000055)
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def counts_by_size(max_n):
    counts = dict.fromkeys(range(1, max_n + 1), 0)
    for t in enumerate_trees(max_n):
        counts[t.n] += 1
    return [counts[i] for i in range(1, max_n + 1)]


def test_counts_up_to_four():
    assert sum(counts_by_size(4)) == 5


def test_counts_up_to_seven():
    assert counts_by_size(7) == [1, 1, 1, 2, 3, 6, 11]


def test_counts_up_to_ten():
    assert counts_by_size(12) == TREE_COUNTS


def test_single_vertex_tree():
    trees = list(enumerate_trees(1))
    assert len(trees) == 1 and trees[0].n == 1


@pytest.mark.parametrize("n", range(3, 8))
def test_prufer_oracle_counts(n):
    # independent count: decode every labeled tree and deduplicate
    classes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        classes.add(canonical_form(prufer_to_graph(seq, n)))
    assert len(classes) == TREE_COUNTS[n - 1]


def test_enumeration_pairwise_non_isomorphic():
    forms = [canonical_form(t) for t in enumerate_trees(8)]
    assert len(forms) == len(set(forms))


def test_enumeration_yields_trees():
    assert all(is_tree(t) for t in enumerate_trees(7))


def test_enumeration_deterministic():
    assert list(enumerate_trees(7)) == list(enumerate_trees(7))


def test_enumeration_cap():
    with pytest.raises(CapabilityError):
        list(enumerate_trees(15))
    with pytest.raises(InputError):
        list(enumerate_trees(0))


def test_random_tree_deterministic():
    a = random_tree(12, random.Random(5))
    b = random_tree(12, random.Random(5))
    assert a == b and is_tree(a) and a.n == 12


@given(st.integers(1, 20), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_tree_is_tree(n, seed):
    t = random_tree(n, random.Random(seed))
    assert t.n == n and is_tree(t)


def test_centers_of_paths():
    assert tree_centers(gen_path(5)) == (2,)
    assert tree_centers(gen_path(6)) == (2, 3)
    assert tree_centers(gen_star(4)) == (0,)


@given(st.integers(3, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_form_relabeling_invariant(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    t = prufer_to_graph(seq, n)
    perm = data.draw(st.permutations(range(n)))
    relabeled = build_graph(n, [(perm[u], perm[v]) for u, v in t.edges()])
    assert canonical_form(relabeled) == canonical_form(t)


def test_canonical_form_distinguishes():
    assert canonical_form(gen_path(4)) != canonical_form(gen_star(3))


def test_canonical_form_of_a_deep_tree():
    # 3000 levels, far deeper than the default recursion limit
    n = 3000
    perm = random.Random(6).sample(range(n), n)
    relabeled = build_graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
    assert canonical_form(relabeled) == canonical_form(gen_path(n))
    assert len(canonical_form(gen_path(n))) == 2 * n


def test_enumeration_matches_networkx_classes():
    # the classes themselves, not only their counts, against an independent
    # generator, up to the enumeration cap
    nx = pytest.importorskip("networkx")
    ours: dict[int, set[str]] = {n: set() for n in range(2, 15)}
    for t in enumerate_trees(14):
        if t.n >= 2:
            ours[t.n].add(canonical_form(t))
    for n in range(2, 15):
        theirs = {canonical_form(build_graph(n, h.edges())) for h in nx.nonisomorphic_trees(n)}
        assert ours[n] == theirs, n


def test_enumeration_equals_the_walk_over_every_rooting():
    # the leaf-rooted walk yields graph for graph, labels and order included,
    # what the walk over every rooting keeps
    assert list(enumerate_trees(12)) == list(reference_trees(12))


@pytest.mark.parametrize("max_n, digest", [
    (9, "2ed05064d35fb7ea92b2b147db0efe83f5924000f39ba25967cdfeb7353b833b"),
    (12, "0e9772cb3dfe07c415c895d89e73f4cde025997a088ba99525163854d81e2ff5"),
])
def test_enumeration_digest(max_n, digest):
    # the sweeps' enumeration order and labels, pinned as the walk over every
    # rooting produced them
    text = "".join(repr(t.adjacency) for t in enumerate_trees(max_n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(2, 11))
def test_leaf_rooted_key_is_the_canonical_form(n):
    # every leaf rooting: the key is canonical_form of its tree when the
    # height equals the diameter, and None when it falls short
    for sub in _level_sequences(n - 1):
        seq = [0] + [x + 1 for x in sub]
        parent, key = _leaf_rooted_key(seq)
        t = build_graph(n, [(parent[i], i) for i in range(1, n)])
        if key is None:
            assert metrics(t).ecc[0] < metrics(t).diameter
        else:
            assert metrics(t).ecc[0] == metrics(t).diameter
            assert key == canonical_form(t)
