import random

import pytest

from conftest import (
    concatenate,
    reference_centers,
    reference_classify,
    reference_longest_paths,
    reference_rule,
)

from bdom import diametrical, graphs, trees
from bdom.diametrical import (
    ILLEGAL_LIMB_SHAPE,
    LIMB_TOO_DEEP,
    SINGLE_VERTEX,
    SPACING_VIOLATION,
    TOO_MANY_LIMBS,
    Limb,
    LimbDecomposition,
    Violation,
    check_spacing,
    classify_tree,
    decompose,
    is_diametrical_exact,
    longest_path,
    witness_matches,
)
from bdom.errors import InputError
from bdom.graphs import (
    LobsterSpec,
    build_graph,
    gen_cycle,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_star,
    metrics,
)
from bdom.solvers import solve_upper_gamma_b
from bdom.sweeps import check_tree, summarize
from bdom.trees import canonical_form, eccentricities, enumerate_trees, is_tree, random_tree, tree_centers


@pytest.fixture
def left_tree():
    return gen_lobster(LobsterSpec(12, ((2, "A"), (5, "C"), (8, "B"), (11, "C"))))


@pytest.fixture
def right_tree():
    # diameter-8 spine with a depth-3 protrusion at 3, two leaves at 6, a leaf at 7
    edges = [(i, i + 1) for i in range(8)]
    edges += [(3, 9), (9, 10), (10, 11), (6, 12), (6, 13), (7, 14)]
    return build_graph(15, edges)


def test_longest_path_path():
    assert longest_path(gen_path(5)) == (0, 1, 2, 3, 4)


def test_longest_path_star():
    assert longest_path(gen_star(3)) == (1, 0, 2)


def test_longest_path_left_tree(left_tree):
    assert longest_path(left_tree) == tuple(range(13))


def test_longest_path_rejects_non_tree():
    with pytest.raises(InputError):
        longest_path(gen_cycle(4))


def test_decompose_left_tree(left_tree):
    dec = decompose(left_tree, range(13))
    assert isinstance(dec, LimbDecomposition)
    assert [(l.attach, l.kind) for l in dec.limbs] == [(2, "A"), (5, "C"), (8, "B"), (11, "C")]
    # every off-spine vertex lands in exactly one limb
    covered = sorted(v for vs in dec.limb_vertices for v in vs)
    assert covered == sorted(set(range(19)) - set(range(13)))


def test_decompose_right_tree_limb_too_deep(right_tree):
    dec = decompose(right_tree, range(9))
    assert isinstance(dec, Violation)
    assert dec.kind == LIMB_TOO_DEEP and dec.at == 3


def test_decompose_path_has_no_limbs():
    dec = decompose(gen_path(6), range(6))
    assert isinstance(dec, LimbDecomposition) and dec.limbs == ()


def test_decompose_rejects_non_diametrical_path():
    t = gen_path(5)
    with pytest.raises(InputError):
        decompose(t, (1, 2, 3))


def test_check_spacing_left_tree(left_tree):
    dec = decompose(left_tree, range(13))
    assert check_spacing(dec) is None
    gaps = [dec.limbs[0].attach] + [
        b.attach - a.attach for a, b in zip(dec.limbs, dec.limbs[1:])
    ] + [dec.diameter() - dec.limbs[-1].attach]
    assert gaps == [2, 3, 3, 3, 1]


def test_check_spacing_b_next_to_c():
    t = gen_lobster(LobsterSpec(8, ((3, "B"), (4, "C"))))
    dec = decompose(t, range(9))
    bad = check_spacing(dec)
    assert bad is not None and bad.kind == SPACING_VIOLATION
    assert bad.pair == ("B", "C") and bad.required == 2 and bad.actual == 1


def test_check_spacing_two_cs_at_gap_two():
    t = gen_lobster(LobsterSpec(8, ((3, "C"), (5, "C"))))
    dec = decompose(t, range(9))
    assert check_spacing(dec) is None


# The rule pinned by hand, independently of `decompose` and `check_spacing`:
# each row is a spine 0..d, its off-spine edges (new vertices numbered from
# d + 1) and what the two functions must return on the path 0..d.


def _limb_edges(d, limbs):
    edges, n = [], d + 1
    for pos, kind in limbs:
        edges += {"C": [(pos, n)], "B": [(pos, n), (pos, n + 1)], "A": [(pos, n), (n, n + 1)]}[kind]
        n += 1 if kind == "C" else 2
    return edges


def _legal(name, d, extra, limbs, limb_vertices):
    want = {"limbs": limbs, "limb_vertices": limb_vertices, "spacing": None}
    return pytest.param(d, extra, want, id=name)


def _illegal(name, d, extra, kind, at):
    return pytest.param(d, extra, {"violation": {"kind": kind, "at": at}}, id=name)


def _gap(name, d, limbs, at, pair, required, actual, longest=True):
    """A lobster whose first short gap is `pair`; when `longest` is False an
    end limb lengthens the tree past d, so 0..d is no longest path and the
    spacing is checked on the decomposition built by hand."""
    spacing = {"kind": SPACING_VIOLATION, "at": at, "pair": list(pair),
               "required": required, "actual": actual}
    want = {"limbs": [list(l) for l in limbs], "spacing": spacing, "longest": longest}
    return pytest.param(d, _limb_edges(d, limbs), want, id=name)


RULE_TABLE = [
    _legal("no-protrusion", 6, [], [], []),
    _legal("C", 6, [(3, 7)], [[3, "C"]], [[7]]),
    _legal("B", 6, [(3, 7), (3, 8)], [[3, "B"]], [[7, 8]]),
    _legal("A", 6, [(3, 7), (7, 8)], [[3, "A"]], [[7, 8]]),
    _legal("A-tip-numbered-first", 6, [(3, 8), (8, 7)], [[3, "A"]], [[7, 8]]),
    _legal("gaps-at-their-minimum", 13, _limb_edges(13, [(2, "B"), (4, "C"), (7, "A"), (11, "A")]),
           [[2, "B"], [4, "C"], [7, "A"], [11, "A"]], [[14, 15], [16], [17, 18], [19, 20]]),
    _illegal("three-leaves", 6, [(3, 7), (3, 8), (3, 9)], ILLEGAL_LIMB_SHAPE, 3),
    _illegal("root-with-two-leaf-children", 6, [(3, 7), (7, 8), (7, 9)], ILLEGAL_LIMB_SHAPE, 3),
    _illegal("leaf-beside-two-edge-path", 6, [(3, 7), (3, 8), (8, 9)], ILLEGAL_LIMB_SHAPE, 3),
    _illegal("two-two-edge-paths", 6, [(3, 7), (7, 8), (3, 9), (9, 10)], ILLEGAL_LIMB_SHAPE, 3),
    _illegal("depth-3", 6, [(3, 7), (7, 8), (8, 9)], LIMB_TOO_DEEP, 3),
    _illegal("deep-beside-fork", 6, [(3, 7), (7, 8), (8, 9), (3, 10), (10, 11), (10, 12)],
             LIMB_TOO_DEEP, 3),
    _illegal("fork-left-of-deep", 8, [(2, 9), (9, 10), (9, 11), (4, 12), (12, 13), (13, 14)],
             ILLEGAL_LIMB_SHAPE, 2),
    _illegal("deep-left-of-fork", 8, [(4, 9), (9, 10), (10, 11), (6, 12), (12, 13), (12, 14)],
             LIMB_TOO_DEEP, 4),
    _gap("e1-A", 6, [(1, "A")], 1, ("e1", "A"), 2, 1, longest=False),
    _gap("A-e2", 6, [(5, "A")], 5, ("A", "e2"), 2, 1, longest=False),
    _gap("e1-B", 8, [(1, "B"), (4, "C")], 1, ("e1", "B"), 2, 1),
    _gap("B-e2", 8, [(3, "C"), (7, "B")], 7, ("B", "e2"), 2, 1),
    _gap("e1-C", 6, [(0, "C")], 0, ("e1", "C"), 1, 0, longest=False),
    _gap("C-e2", 6, [(6, "C")], 6, ("C", "e2"), 1, 0, longest=False),
    _gap("e1-before-pair", 8, [(1, "B"), (2, "C")], 1, ("e1", "B"), 2, 1),
    _gap("A-A", 10, [(3, "A"), (6, "A")], 3, ("A", "A"), 4, 3),
    _gap("A-B", 10, [(3, "A"), (5, "B")], 3, ("A", "B"), 3, 2),
    _gap("B-A", 10, [(3, "B"), (5, "A")], 3, ("B", "A"), 3, 2),
    _gap("A-C", 10, [(3, "A"), (5, "C")], 3, ("A", "C"), 3, 2),
    _gap("C-A", 10, [(3, "C"), (5, "A")], 3, ("C", "A"), 3, 2),
    _gap("B-B", 10, [(3, "B"), (5, "B")], 3, ("B", "B"), 3, 2),
    _gap("B-C", 10, [(3, "B"), (4, "C")], 3, ("B", "C"), 2, 1),
    _gap("C-B", 10, [(3, "C"), (4, "B")], 3, ("C", "B"), 2, 1),
    _gap("C-C", 10, [(3, "C"), (4, "C")], 3, ("C", "C"), 2, 1),
    _gap("legal-pair-then-C-C", 10, [(2, "B"), (4, "C"), (5, "C")], 4, ("C", "C"), 2, 1),
]


@pytest.mark.parametrize("d, extra, want", RULE_TABLE)
def test_rule_table(d, extra, want):
    spine = tuple(range(d + 1))
    edges = [(i, i + 1) for i in range(d)] + extra
    t = build_graph(1 + max(max(e) for e in edges), edges)
    if not want.get("longest", True):
        with pytest.raises(InputError):
            decompose(t, spine)
        dec = LimbDecomposition(spine, tuple(Limb(p, k) for p, k in want["limbs"]), ())
    else:
        dec = decompose(t, spine)
        if "violation" in want:
            assert dec.to_json_dict() == want["violation"]
            return
        assert dec.to_json_dict() == {"spine": list(spine), "limbs": want["limbs"]}
        if "limb_vertices" in want:
            assert [list(vs) for vs in dec.limb_vertices] == want["limb_vertices"]
    bad = check_spacing(dec)
    assert (bad.to_json_dict() if bad else None) == want["spacing"]


def test_classify_left_tree(left_tree):
    v = classify_tree(left_tree)
    assert v.diametrical
    assert [(l.attach, l.kind) for l in v.witness.limbs] == [(2, "A"), (5, "C"), (8, "B"), (11, "C")]
    assert is_diametrical_exact(left_tree)


def test_classify_three_c_limbs():
    t = gen_lobster(LobsterSpec(6, ((1, "C"), (3, "C"), (5, "C"))))
    v = classify_tree(t)
    assert not v.diametrical
    assert v.reason.kind == TOO_MANY_LIMBS and v.reason.count == 3
    assert solve_upper_gamma_b(t).value == metrics(t).diameter + 1 == 7


def test_classify_claw():
    v = classify_tree(gen_star(3))
    assert not v.diametrical and v.reason.kind == TOO_MANY_LIMBS
    assert solve_upper_gamma_b(gen_star(3)).value == 3 > 2


def test_classify_short_lobster():
    t = gen_lobster(LobsterSpec(3, ((1, "C"),)))
    assert classify_tree(t).diametrical
    assert solve_upper_gamma_b(t).value == 3


def test_classify_single_vertex():
    v = classify_tree(build_graph(1, []))
    assert not v.diametrical and v.reason.kind == SINGLE_VERTEX


def test_classify_paths_diametrical():
    for k in (2, 3, 7, 10):
        assert classify_tree(gen_path(k)).diametrical


def test_classify_rejects_non_tree():
    with pytest.raises(InputError):
        classify_tree(gen_cycle(5))


def test_concatenate_paths():
    g = concatenate(gen_path(3), (0, 1, 2), gen_path(3), (0, 1, 2))
    assert canonical_form(g) == canonical_form(gen_path(5))


def test_concatenate_diametrical_pair():
    t = gen_lobster(LobsterSpec(3, ((1, "C"),)))
    g = concatenate(t, (0, 1, 2, 3), t, (0, 1, 2, 3))
    assert metrics(g).diameter == 6
    assert classify_tree(g).diametrical and is_diametrical_exact(g)


def test_concatenate_through_path():
    t = gen_lobster(LobsterSpec(3, ((1, "C"),)))
    mid = concatenate(t, (0, 1, 2, 3), gen_path(4), (0, 1, 2, 3))
    full = concatenate(mid, longest_path(mid), t, (0, 1, 2, 3))
    assert metrics(full).diameter == 9
    assert classify_tree(full).diametrical and is_diametrical_exact(full)


def test_concatenate_diameter_additivity():
    rng = random.Random(3)
    pool = [t for t in enumerate_trees(7) if t.n >= 2]
    for _ in range(15):
        a, b = rng.choice(pool), rng.choice(pool)
        pa, pb = longest_path(a), longest_path(b)
        g = concatenate(a, pa, b, pb)
        assert metrics(g).diameter == (len(pa) - 1) + (len(pb) - 1)
        assert g.n == a.n + b.n - 1


def test_concatenate_rejects_non_tree():
    with pytest.raises(InputError):
        concatenate(gen_cycle(4), (0, 1), gen_path(2), (0, 1))


def test_exhaustive_sweep_up_to_12_vertices():
    # every tree of up to 12 vertices, the rule against the oracle
    checks = [check_tree(t) for t in enumerate_trees(12)]
    assert summarize(checks) == {"trees": 987, "diametrical": 121, "agreements": 967, "disagreements": 20}
    assert sum(c.tree.n > 1 for c in checks) == 986
    assert sum(c.verdict.diametrical and not c.exact for c in checks) == 17
    assert sum(c.exact and not c.verdict.diametrical for c in checks) == 3


def test_is_diametrical_exact_named_graphs():
    ring_with_leaves = build_graph(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)]
    )
    assert metrics(ring_with_leaves).diameter == 5
    assert solve_upper_gamma_b(ring_with_leaves).value == 5
    assert is_diametrical_exact(ring_with_leaves)
    assert not is_diametrical_exact(gen_cycle(6))
    assert solve_upper_gamma_b(gen_cycle(6)).value == 4 > 3
    assert is_diametrical_exact(gen_grid(2, 2))
    assert not is_diametrical_exact(build_graph(1, []))


def test_witness_reconstructs_isomorphic_tree():
    rng = random.Random(11)
    trees = [t for t in enumerate_trees(8)] + [random_tree(rng.randrange(6, 13), rng) for _ in range(30)]
    for t in trees:
        v = classify_tree(t)
        if v.witness is not None:
            assert witness_matches(t, v.witness)


def test_classifier_rule_closed_under_concatenation():
    rng = random.Random(4)
    pool = [t for t in enumerate_trees(8) if t.n >= 2 and classify_tree(t).diametrical]
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        g = concatenate(a, longest_path(a), b, longest_path(b))
        assert classify_tree(g).diametrical


def test_single_limb_at_legal_spacing_can_still_fail_oracle():
    # the structural rule accepts this tree (one two-edge limb, gaps 3 and 2)
    # but a limb-tip broadcast paired with a spine broadcast beats the
    # diameter, so the exact solver rejects it; pinned as a known boundary
    # of the structural test's soundness
    t = gen_lobster(LobsterSpec(5, ((3, "A"),)))
    assert classify_tree(t).diametrical
    assert solve_upper_gamma_b(t).value == 6 == metrics(t).diameter + 1
    assert not is_diametrical_exact(t)


def test_mixed_limbs_at_one_spine_vertex_can_still_be_diametrical():
    # the structural rule rejects this tree (a two-edge limb and a leaf at
    # the same spine vertex are no legal limb shape, and the spine is its only
    # longest path) but no minimal dominating broadcast beats the diameter,
    # so the exact solver accepts it; pinned as a known boundary of the
    # structural test's necessity
    edges = [(i, i + 1) for i in range(8)] + [(4, 9), (9, 10), (4, 11)]
    t = build_graph(12, edges)
    assert reference_longest_paths(t) == [tuple(range(9))]
    dec = decompose(t, range(9))
    assert isinstance(dec, Violation)
    assert dec.kind == ILLEGAL_LIMB_SHAPE and dec.at == 4
    assert not classify_tree(t).diametrical
    assert solve_upper_gamma_b(t).value == 8 == metrics(t).diameter
    assert is_diametrical_exact(t)


@pytest.mark.xfail(
    reason="attaching a legal limb at the junction of two diametrical trees "
    "does not always preserve diametricality even when all spacing gaps "
    "hold; counterexample: a two-edge limb at position 2 of a diameter-5 "
    "spine (see test above). Recorded as stated; the exact solver is the "
    "authority.",
    strict=True,
)
def test_limb_attachment_at_junction_preserves_diametricality():
    # spot-check: glue two paths, hang one limb at the junction, keep all
    # spacing gaps legal, and require the result to stay diametrical
    failures = []
    for d1 in range(2, 5):
        for d2 in range(2, 5):
            for kind in "ABC":
                spec = LobsterSpec(d1 + d2, ((d1, kind),))
                t = gen_lobster(spec)
                dec = decompose(t, range(d1 + d2 + 1))
                assert isinstance(dec, LimbDecomposition)
                if check_spacing(dec) is not None:
                    continue
                if not is_diametrical_exact(t):
                    failures.append((d1, d2, kind))
    assert not failures, f"junction attachments losing diametricality: {failures}"


def _small_and_random_trees():
    trees = list(enumerate_trees(10))
    rng = random.Random(17)
    return trees + [random_tree(rng.randrange(2, 61), rng) for _ in range(500)]


def test_longest_paths_and_centers_equal_all_pairs_reference():
    for t in _small_and_random_trees():
        assert longest_path(t) == reference_longest_paths(t)[0], t.edges()
        assert tree_centers(t) == reference_centers(t), t.edges()


def test_tree_eccentricities_match_networkx():
    nx = pytest.importorskip("networkx")
    for t in _small_and_random_trees():
        h = nx.Graph(t.edges())
        h.add_nodes_from(range(t.n))
        ecc = nx.eccentricity(h)
        assert eccentricities(t) == [ecc[v] for v in range(t.n)], t.edges()
        assert tree_centers(t) == tuple(sorted(nx.center(h))), t.edges()
        assert len(longest_path(t)) - 1 == nx.diameter(h), t.edges()


def _spider(legs: int):
    """`legs` paths of two edges from the center 0."""
    return build_graph(
        2 * legs + 1, [(0, i) for i in range(1, legs + 1)] + [(i, i + legs) for i in range(1, legs + 1)]
    )


def test_tree_questions_leave_the_all_pairs_cache_alone():
    for t in (gen_path(1500), _spider(40)):
        classify_tree(t)
        longest_path(t)
        tree_centers(t)
        canonical_form(t)
        assert vars(t).keys() == {"n", "adjacency"}  # no metrics table cached on t


def _random_lobsters(count: int, seed: int, spine_below: int = 20):
    """Randomly relabelled lobsters with spines of 2 to spine_below - 1 edges
    and random A/B/C limbs one to four positions apart."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randrange(2, spine_below)
        limbs, pos = [], rng.randrange(1, 4)
        while pos < d:
            limbs.append((pos, rng.choice("ABC")))
            pos += rng.randrange(1, 5)
        t = gen_lobster(LobsterSpec(d, tuple(limbs)))
        perm = rng.sample(range(t.n), t.n)
        yield build_graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()])


def test_one_longest_path_decides():
    trees = list(enumerate_trees(12)) + list(_random_lobsters(1500, 8)) + [_spider(k) for k in (20, 41, 60)]
    accepted = 0
    for t in trees:
        verdicts = {isinstance(reference_rule(t, p), LimbDecomposition) for p in reference_longest_paths(t)}
        assert len(verdicts) == 1, t.edges()
        assert classify_tree(t).to_json_dict() == reference_classify(t), t.edges()
        accepted += verdicts == {True}
    assert accepted > 200


def _sweep_ends_and_u(t):
    """From the all-pairs table: the double sweep's ends a (the least vertex
    farthest from 0) and b (the least farthest from a), and the least
    peripheral vertex u, where `longest_path` starts."""
    m = metrics(t)
    a = m.dist[0].index(max(m.dist[0]))
    return a, m.dist[a].index(m.diameter), m.ecc.index(m.diameter)


def test_least_peripheral_vertex_is_a_sweep_end():
    # the lemma in `_longest_path` that lets it walk the sweep's distances
    rng = random.Random(4)
    trees_ = list(enumerate_trees(10)) + list(_random_lobsters(300, 21))
    trees_ += [random_tree(rng.randrange(2, 80), rng) for _ in range(300)]
    for t in trees_:
        perm = rng.sample(range(t.n), t.n)
        for g in (t, build_graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()])):
            a, b, u = _sweep_ends_and_u(g)
            assert u == min(a, b), g.edges()


def test_tree_questions_equal_references_on_large_trees():
    trees_ = [_spider(k) for k in range(20, 61, 8)] + [gen_path(k) for k in (2, 3, 150, 400)]
    trees_ += list(_random_lobsters(40, 20, spine_below=240))  # up to ~400 vertices
    # both sweep ends start the path, and the spines hold runs of degree 2
    rng = random.Random(27)
    for _ in range(30):
        t = random_tree(rng.randrange(2, 401), rng)
        perm = rng.sample(range(t.n), t.n)
        trees_.append(build_graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()]))
    for t in trees_:
        assert longest_path(t) == reference_longest_paths(t)[0], t.edges()
        assert tree_centers(t) == reference_centers(t), t.edges()
        assert eccentricities(t) == list(metrics(t).ecc), t.edges()
        assert canonical_form(t) == min(trees._rooted_canonical(t.adjacency, c) for c in reference_centers(t))
        assert classify_tree(t).to_json_dict() == reference_classify(t), t.edges()


def test_tree_questions_bfs_counts(monkeypatch):
    calls = []
    bfs = graphs.bfs_distances

    def counting(g, source):
        calls.append(source)
        return bfs(g, source)

    # patched in every tree module, diametrical included, so that a BFS any
    # of them imports directly is counted too
    for module in (graphs, trees, diametrical):
        monkeypatch.setattr(module, "bfs_distances", counting, raising=False)
    rng = random.Random(3)
    shuffled = rng.sample(range(300), 300)
    relabelled = build_graph(300, [(shuffled[u], shuffled[v]) for u, v in random_tree(300, rng).edges()])
    # the path 1-0-2 has a = 1 < b = 2, so its longest path starts at a and
    # needs no BFS from b; the path 0-1-2 has a = 2 > b = 0, and it does
    starts = []
    for t in (build_graph(3, [(0, 1), (0, 2)]), gen_path(3), gen_path(1500), _spider(40), relabelled):
        a, b, _ = _sweep_ends_and_u(t)
        starts.append("a" if a < b else "b")
        path = longest_path(t)
        sweep = 2 if a < b else 3
        for question, count in (
            (is_tree, 1),
            (classify_tree, sweep),
            (longest_path, sweep),
            (lambda t: decompose(t, path), 2),
            (tree_centers, 3),
            (canonical_form, 3),
            (eccentricities, 3),
        ):
            calls.clear()
            question(t)
            assert len(calls) == count, (t.n, question)
    assert starts[:4] == ["a", "b", "b", "a"]


NON_TREES = {
    "forest": build_graph(4, [(0, 1), (2, 3)]),
    "cycle": gen_cycle(4),
    # n - 1 edges, so only the BFS from 0 can tell
    "triangle-and-vertex": build_graph(4, [(0, 1), (1, 2), (0, 2)]),
}


@pytest.mark.parametrize("g", NON_TREES.values(), ids=NON_TREES.keys())
def test_tree_questions_refuse_non_trees(g):
    assert not is_tree(g)
    t = gen_path(4)
    for question, message in (
        (longest_path, "longest_path requires a tree"),
        (classify_tree, "classify_tree requires a tree"),
        (lambda g: decompose(g, (0, 1)), "decompose requires a tree"),
        (tree_centers, "tree_centers requires a tree"),
        (canonical_form, "tree_centers requires a tree"),
        (lambda g: concatenate(g, (0, 1), t, (0, 1, 2, 3)), "concatenate requires trees"),
        (lambda g: concatenate(t, (0, 1, 2, 3), g, (0, 1)), "concatenate requires trees"),
    ):
        with pytest.raises(InputError, match=f"^{message}$"):
            question(g)


@pytest.mark.parametrize("g", NON_TREES.values(), ids=NON_TREES.keys())
def test_eccentricities_refuse_non_trees(g):
    # three BFS on a non-tree give wrong numbers, such as 1 for two vertices
    # of C4, whose eccentricities are all 2
    with pytest.raises(InputError, match="^eccentricities requires a tree$"):
        eccentricities(g)


@pytest.mark.parametrize(
    "path, message",
    [
        ((0, 1, 2, 4, 5, 6), "path step 2-4 is not an edge"),
        ((0, 1, 2, 1, 0, 1), "path revisits a vertex"),
        ((1, 2, 3, 4, 5), "path is not a longest path of the tree"),
        ((8, 7, 2, 3, 4, 5), "path is not a longest path of the tree"),
    ],
)
def test_decompose_refuses_bad_paths(path, message):
    t = gen_lobster(LobsterSpec(6, ((2, "A"),)))  # spine 0..6, limb 2-7-8
    with pytest.raises(InputError, match=f"^{message}$"):
        decompose(t, path)
    with pytest.raises(InputError, match=f"^{message}$"):
        concatenate(t, path, gen_path(2), (0, 1))


def test_witness_of_a_deep_path_matches():
    # a 1000-vertex path is deeper than the default recursion limit
    t = gen_path(1000)
    assert witness_matches(t, classify_tree(t).witness)
