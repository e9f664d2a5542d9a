"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2, 4 and 6 carry the counterexamples the exact solvers found to the
torus upper-domination formulas and to the structural rule for diametrical
trees.  They assert what the program promises: the exact value, a witness
that the predicate layer accepts, the closed form's own value, and whether
the two agree.  Where they disagree the test checks the refutation: a
verified witness larger than the formula, or a tree on which the rule and
the oracle differ.  A solver, formula or classifier that moves off these
findings makes the test fail.
"""

import functools
import itertools
import random
import time

import pytest

from conftest import (
    all_strength_vectors,
    brute_minimal_dominating_sets,
    concatenate,
    is_efficient,
    minimal_via_private_neighbors,
)

from bdom.broadcasts import (
    Broadcast,
    cost,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from bdom.diametrical import (
    SPACING_VIOLATION,
    check_spacing,
    classify_tree,
    is_diametrical_exact,
    longest_path,
    witness_matches,
)
from bdom.formulas import (
    gamma_b_torus_cited,
    gamma_torus_small,
    upper_gamma_b_cycle,
    upper_gamma_b_torus,
    upper_gamma_c3_torus,
    upper_gamma_torus,
)
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
    solve_gamma,
    solve_gamma_b,
    solve_upper_gamma,
    solve_upper_gamma_b,
)
from bdom.sweeps import check_tree, classification_corpus
from bdom.trees import canonical_form, enumerate_trees, is_tree

FIG_GRAPH = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
RING_WITH_LEAVES = build_graph(
    8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)]
)


@functools.lru_cache(maxsize=None)
def _upper_gamma_b(g):
    """One Gamma_b report per graph, shared by the criteria that solve the
    same cycles, tori and corpus trees (criteria 6 and 8 solve the 294
    classification-corpus trees with two or more vertices)."""
    return solve_upper_gamma_b(g)


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _columns(m, n, cols):
    """Row-major labels of the full columns `cols` of the m-by-n torus."""
    return tuple(sorted(i * n + j for i in range(m) for j in cols))


def _rows(m, n, rows):
    """Row-major labels of the full rows `rows` of the m-by-n torus."""
    return tuple(i * n + j for i in rows for j in range(n))


# (m, n): (exact Gamma, value of upper_gamma_torus, a hand-checkable witness
# of the exact value or None), for every torus with mn <= 35 and for 5x8 and
# 6x6, where Gamma = |V|/2.  The formula holds at 3x3, 3x6, 4x4, 4x6, 4x8,
# 5x6 and 6x6 only.  On 6x6 the even colour class of the bipartite torus is
# minimal dominating: each member is its own private neighbour.
TORUS_UPPER_DOMINATION = {
    (3, 3): (3, 3, None),
    (3, 4): (6, 4, _columns(3, 4, (0, 1))),
    (3, 5): (6, 5, _columns(3, 5, (0, 2))),
    (3, 6): (6, 6, None),
    (3, 7): (9, 7, None),
    (3, 8): (12, 8, _columns(3, 8, (0, 1, 4, 5))),
    (3, 9): (12, 9, None),
    (3, 10): (12, 10, None),
    (3, 11): (15, 11, None),
    (4, 4): (8, 8, None),
    (4, 5): (10, 8, _rows(4, 5, (0, 1))),
    (4, 6): (12, 12, _rows(4, 6, (0, 1))),
    (4, 7): (14, 12, _rows(4, 7, (0, 1))),
    (4, 8): (16, 16, _rows(4, 8, (0, 1))),
    (5, 5): (10, 9, _rows(5, 5, (0, 2))),
    (5, 6): (12, 12, _rows(5, 6, (0, 2))),
    (5, 7): (15, 13, None),
    (5, 8): (20, 16, _columns(5, 8, (0, 1, 4, 5))),
    (6, 6): (18, 18, tuple(v for v in range(36) if (v // 6 + v % 6) % 2 == 0)),
}
# Tori small enough for the conftest oracle, which applies the predicate
# layer to every vertex subset without the solver's pruned search.
BRUTE_FORCE_TORI = {(3, 3), (3, 4), (3, 5), (4, 4)}

# Canonical forms of the corpus trees on which classify_tree and the exact
# oracle disagree.  The rule accepts the first list, yet each carries a
# minimal dominating broadcast of cost diam + 1: the enumerated trees with
# 8, 9 and 9 vertices, then random draws 13 and 32 (isomorphic), 70, 125 and
# 131.  It rejects random draw 94 for spacing although no minimal dominating
# broadcast beats its diameter.
RULE_ACCEPTS_NON_DIAMETRICAL = sorted([
    "(((())(()))(()))",
    "(((()))((()))(()))",
    "(((()()))(())()())",
    "((((()))(()))((())))",
    "((((()))(()))((())))",
    "((((()()))())((())()()))",
    "((((()))(()))(((()))))",
    "(((((())()())))(((()))(())))",
])
RULE_REJECTS_DIAMETRICAL = ["(((())(()))((()))())"]


def test_criterion_1_cycle_upper_broadcast_table():
    started = time.monotonic()
    mismatches = []
    for n in range(3, 13):
        got = _upper_gamma_b(gen_cycle(n)).value
        want = upper_gamma_b_cycle(n)
        if got != want:
            mismatches.append((n, got, want))
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 10
    _report(1, ok, f"cycles 3..12, {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed < 10


def _set_witness_failures(g, label, value, witnesses):
    """Witnesses that are not minimal dominating sets of exactly `value`."""
    return [
        (label, w)
        for w in witnesses
        if w is not None and (len(w) != value or not is_minimal_dominating_set(g, w))
    ]


def test_criterion_2_torus_upper_domination():
    started = time.monotonic()
    failures = []
    rows = []
    for (m, n), (exact, claimed, hand) in TORUS_UPPER_DOMINATION.items():
        g = gen_torus(m, n)
        report = solve_upper_gamma(g)
        if report.value != exact:
            failures.append(("exact", m, n, report.value, exact))
        failures += _set_witness_failures(g, (m, n), exact, [report.witness_set, hand])
        # optimality from outside the solver's search where it is affordable;
        # the points below |V|/2 past the brute-force ones rest on the search
        if (m, n) in BRUTE_FORCE_TORI:
            brute = max(map(len, brute_minimal_dominating_sets(g)))
            if brute != exact:
                failures.append(("brute force", m, n, brute, exact))
        elif 2 * exact == g.n:
            # regular graphs have Gamma <= |V|/2, so the witness is optimal
            if len({g.degree(v) for v in range(g.n)}) != 1:
                failures.append(("regular bound", m, n, g.n // 2, exact))
        formula = upper_gamma_torus(m, n)
        if formula != claimed:
            failures.append(("formula", m, n, formula, claimed))
        rows.append((m, n, report.value, formula))
    elapsed = time.monotonic() - started
    # (m, n, exact, formula) where the parity-case formula undershoots; e.g.
    # on the 3x4 torus the full columns {(i,0),(i,1)} are minimal dominating:
    # each (i,0) keeps private neighbour (i,3) and each (i,1) keeps (i,2).
    # With the checks above, the formula agrees at the other points.  5x7
    # refutes the odd-odd case; 3x8 and 4x7 fall in the family where 4
    # divides a side, and so does 5x8.
    refuted = [r for r in rows if r[2] > r[3]]
    expected_refuted = [
        (3, 4, 6, 4), (3, 5, 6, 5), (3, 7, 9, 7), (3, 8, 12, 8), (3, 9, 12, 9), (3, 10, 12, 10),
        (3, 11, 15, 11), (4, 5, 10, 8), (4, 7, 14, 12), (5, 5, 10, 9), (5, 7, 15, 13),
        (5, 8, 20, 16),
    ]
    ok = not failures and refuted == expected_refuted and elapsed < 300
    matched = sum(r[2] == r[3] for r in rows)
    _report(2, ok, f"{matched}/{len(rows)} points match, {len(refuted)} refuted by "
                   f"verified witnesses, {elapsed:.1f}s")
    assert elapsed < 300
    assert not failures, failures
    assert refuted == expected_refuted, refuted


# (m, n): exact Gamma_b.  The row-product formula m * Gamma_b(C_n) holds at
# every point but 4x5.  There a minimal dominating set is a minimal dominating
# broadcast, so Gamma_b >= Gamma = 10 (rows {0, 1}, criterion 2) > 8 = 4 * Gamma_b(C5).
TORUS_UPPER_BROADCAST = {
    (3, 3): 3, (3, 4): 6, (4, 4): 8, (4, 5): 10, (3, 6): 12, (3, 7): 12, (4, 6): 16, (5, 5): 10,
}


def test_criterion_3_torus_upper_broadcast():
    started = time.monotonic()
    failures = []
    rows = []
    for (m, n), exact in TORUS_UPPER_BROADCAST.items():
        g = gen_torus(m, n)
        report = _upper_gamma_b(g)
        if report.value != exact:
            failures.append(("exact", m, n, report.value, exact))
        if not is_minimal_dominating_broadcast(g, report.witness_broadcast):
            failures.append(("witness", m, n, report.witness_broadcast))
        rows.append((m, n, report.value, upper_gamma_b_torus(m, n)))
    elapsed = time.monotonic() - started
    refuted = [r for r in rows if r[2] != r[3]]
    ok = not failures and refuted == [(4, 5, 10, 8)] and elapsed < 600
    _report(3, ok, f"{len(rows) - len(refuted)}/{len(rows)} tori match, "
                   f"{len(refuted)} refuted by a verified witness, {elapsed:.1f}s")
    assert not failures, failures
    assert refuted == [(4, 5, 10, 8)], refuted
    assert elapsed < 600


def test_torus_upper_domination_when_4_divides_a_side():
    # The rows i = 0, 1 (mod 4) of C_m x C_n with 4 | m form a minimal
    # dominating set of mn/2 vertices: a member in row 4k keeps its neighbour
    # in row 4k - 1 as private neighbour, one in row 4k + 1 its neighbour in
    # row 4k + 2.  The torus is 4-regular, so Gamma <= |V|/2 and the set is
    # optimal.  The parity formula gives m(n-1)/2 at odd n: it undershoots
    # there, and only there.
    failures = []
    for m in (4, 8, 12):
        for n in range(3, 14):
            g = gen_torus(m, n)
            witness = _rows(m, n, [i for i in range(m) if i % 4 in (0, 1)])
            if len(witness) != g.n // 2 or not is_minimal_dominating_set(g, witness):
                failures.append(("witness", m, n))
            if {g.degree(v) for v in range(g.n)} != {4}:
                failures.append(("regular", m, n))
            for a, b in ((m, n), (n, m)):
                if (upper_gamma_torus(a, b) < g.n // 2) != (n % 2 == 1):
                    failures.append(("formula", a, b, upper_gamma_torus(a, b)))
    assert not failures, failures


def test_torus_upper_broadcast_column_copy():
    # Copy an optimal broadcast f of C_m down every column: vertex (i, j) of
    # C_m x C_n gets f(i).  If i' is the private neighbour of i in C_m, then
    # (i', j) is one of (i, j): only broadcasters in row i reach row i' with
    # column distance to spare, and only (i, j) reaches (i', j).  So
    # Gamma_b(C_m x C_n) >= n * Gamma_b(C_m), and with the row copy
    # >= max(m * Gamma_b(C_n), n * Gamma_b(C_m)).  The row-product formula
    # undershoots the column copy at m even, n odd, m < n < 3m/2.
    failures = []
    undershoots = set()
    for m in range(3, 12):
        cycle = solve_upper_gamma_b(gen_cycle(m))
        f = cycle.witness_broadcast.strengths
        for n in range(3, 14):
            g = gen_torus(m, n)
            copy = Broadcast(tuple(f[i] for i in range(m) for _ in range(n)))
            if cost(copy) != n * cycle.value or not is_minimal_dominating_broadcast(g, copy):
                failures.append(("copy", m, n))
            if upper_gamma_b_torus(min(m, n), max(m, n)) < cost(copy):
                undershoots.add((m, n))
    family = {
        (m, n) for m in range(3, 12) for n in range(3, 14)
        if m % 2 == 0 and n % 2 == 1 and m < n < 3 * m / 2
    }
    assert family == {(4, 5), (6, 7), (8, 9), (8, 11), (10, 11), (10, 13)}
    assert not failures, failures
    assert undershoots == family, sorted(undershoots ^ family)


def test_criterion_4_three_row_torus():
    started = time.monotonic()
    failures = []
    rows = []
    for n in (3, 4, 5):
        exact, _, hand = TORUS_UPPER_DOMINATION[(3, n)]
        g = gen_torus(3, n)
        report = solve_upper_gamma(g)
        failures += _set_witness_failures(g, n, exact, [report.witness_set, hand])
        rows.append((n, report.value, upper_gamma_c3_torus(n)))
    # symbolic consistency of the two closed forms across the stated range
    symbolic_ok = all(upper_gamma_torus(3, n) == n for n in range(3, 10**6 + 1))
    # two adjacent full columns are minimal dominating at n = 4 only: at
    # n = 3 the third column is heard twice, from n = 5 on it goes unheard
    adjacent_columns = [
        n for n in (3, 4, 5) if is_minimal_dominating_set(gen_torus(3, n), _columns(3, n, (0, 1)))
    ]
    elapsed = time.monotonic() - started
    # (n, exact, formula): Gamma = n holds at n = 3 and is refuted at 4 and 5
    # by the witnesses of criterion 2, columns {0,1} and columns {0,2}
    expected = [(3, 3, 3), (4, 6, 4), (5, 6, 5)]
    ok = symbolic_ok and not failures and rows == expected and adjacent_columns == [4]
    refuted = sum(exact > formula for _, exact, formula in rows)
    _report(4, ok, f"exact {3 - refuted}/3 match, {refuted} refuted by verified witnesses, "
                   f"symbolic n<=1e6 {symbolic_ok}, {elapsed:.1f}s")
    assert symbolic_ok
    assert not failures, failures
    assert rows == expected, rows
    assert adjacent_columns == [4], adjacent_columns


def test_criterion_5_cited_formulas():
    started = time.monotonic()
    gamma_mismatch = []
    for m, n in [(3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]:
        got = solve_gamma(gen_torus(m, n)).value
        want = gamma_torus_small(m, n)
        if got != want:
            gamma_mismatch.append((m, n, got, want))
    gamma_b_mismatch = []
    for m, n in [(3, 3), (3, 4), (4, 4)]:
        got = solve_gamma_b(gen_torus(m, n)).value
        want = gamma_b_torus_cited(m, n)
        if got != want:
            gamma_b_mismatch.append((m, n, got, want))
    elapsed = time.monotonic() - started
    ok = not gamma_mismatch and not gamma_b_mismatch
    _report(5, ok, f"5 domination + 3 broadcast points, {elapsed:.1f}s")
    assert not gamma_mismatch, gamma_mismatch
    assert not gamma_b_mismatch, gamma_b_mismatch


def test_criterion_6_classifier_against_oracle():
    started = time.monotonic()
    checks = [check_tree(t) for t in classification_corpus()]
    failures = []
    accepted_non_diametrical = []
    rejected_diametrical = []
    oracle_checked = 0
    for check in checks:
        t, verdict = check.tree, check.verdict
        if verdict != classify_tree(t):
            failures.append(("verdict", t.edges()))
        if verdict.diametrical:
            dec = verdict.witness
            legal = (witness_matches(t, dec) and 2 * len(dec.limbs) < dec.diameter()
                     and check_spacing(dec) is None)
            if not legal:
                failures.append(("decomposition", t.edges(), dec.to_json_dict()))
        if t.n == 1:
            continue  # no dominating broadcast; both sides say non-diametrical
        # the full search's verdict, with its witness checked by the predicate
        # layer, against the decision search that check_tree runs; a broadcast
        # the decision search reports must beat diam and pass the predicates
        d = metrics(t).diameter
        report = _upper_gamma_b(t)
        w = report.witness_broadcast
        if cost(w) != report.value or report.value < d or not is_minimal_dominating_broadcast(t, w):
            failures.append(("oracle witness", t.edges(), w.strengths))
        if check.beats is not None and not (
            cost(check.beats) > d and is_minimal_dominating_broadcast(t, check.beats)
        ):
            failures.append(("beating broadcast", t.edges(), check.beats.strengths))
        exact = report.value == d
        oracle_checked += 1
        if check.exact != exact:
            failures.append(("check_tree verdict", t.edges()))
        if verdict.diametrical == exact:
            continue
        if is_diametrical_exact(t) != exact:
            failures.append(("is_diametrical_exact", t.edges()))
        if verdict.diametrical:
            accepted_non_diametrical.append(canonical_form(t))
            if report.value != d + 1:
                failures.append(("beats diam by more than 1", t.edges(), report.value, d))
        else:
            rejected_diametrical.append(canonical_form(t))
            if verdict.reason.kind != SPACING_VIOLATION:
                failures.append(("rejection reason", t.edges(), verdict.reason))
    elapsed = time.monotonic() - started
    disagreements = len(accepted_non_diametrical) + len(rejected_diametrical)
    ok = (not failures and oracle_checked == 294
          and sorted(accepted_non_diametrical) == RULE_ACCEPTS_NON_DIAMETRICAL
          and rejected_diametrical == RULE_REJECTS_DIAMETRICAL and elapsed < 900)
    _report(6, ok, f"{len(checks)} trees, {disagreements} disagreements certified by "
                   f"verified witnesses, {elapsed:.1f}s")
    assert elapsed < 900
    assert not failures, failures
    assert oracle_checked == 294, oracle_checked
    # the rule is not sufficient: the smallest accepted tree, a diameter-5
    # spine with a two-edge limb at position 3, has a minimal dominating
    # broadcast of cost 6
    assert sorted(accepted_non_diametrical) == RULE_ACCEPTS_NON_DIAMETRICAL, accepted_non_diametrical
    # nor necessary: random draw 94 is diametrical but fails the spacing table
    assert rejected_diametrical == RULE_REJECTS_DIAMETRICAL, rejected_diametrical


def test_criterion_7_named_instances():
    started = time.monotonic()
    checks = []

    checks.append(("fig gamma", solve_gamma(FIG_GRAPH).value == 2))
    checks.append(("fig Gamma", solve_upper_gamma(FIG_GRAPH).value == 3))

    named = [Broadcast((1, 0, 1, 0, 0)), Broadcast((3, 0, 0, 0, 0)), Broadcast((1, 0, 0, 1, 1))]
    checks.append(
        ("three broadcasts minimal",
         all(is_minimal_dominating_broadcast(FIG_GRAPH, b) for b in named))
    )
    checks.append(
        ("only the lone full-strength broadcast is efficient",
         [is_efficient(FIG_GRAPH, b) for b in named] == [False, True, False])
    )

    left = gen_lobster(LobsterSpec(12, ((2, "A"), (5, "C"), (8, "B"), (11, "C"))))
    checks.append(("left tree diametrical",
                   classify_tree(left).diametrical and is_diametrical_exact(left)))
    right = build_graph(15, [(i, i + 1) for i in range(8)]
                        + [(3, 9), (9, 10), (10, 11), (6, 12), (6, 13), (7, 14)])
    checks.append(("right tree non-diametrical",
                   not classify_tree(right).diametrical and not is_diametrical_exact(right)))

    three_c = gen_lobster(LobsterSpec(6, ((1, "C"), (3, "C"), (5, "C"))))
    checks.append(("three-leaf lobster cost",
                   _upper_gamma_b(three_c).value == metrics(three_c).diameter + 1 == 7))

    checks.append(("modified six-ring", _upper_gamma_b(RING_WITH_LEAVES).value == 5
                   == metrics(RING_WITH_LEAVES).diameter))
    checks.append(("six-ring itself", _upper_gamma_b(gen_cycle(6)).value == 4
                   and metrics(gen_cycle(6)).diameter == 3))
    checks.append(("2x2 grid diametrical", is_diametrical_exact(gen_grid(2, 2))))

    elapsed = time.monotonic() - started
    failed = [name for name, ok in checks if not ok]
    _report(7, not failed, f"{len(checks) - len(failed)}/{len(checks)} instances, {elapsed:.1f}s")
    assert not failed, failed


def _is_path_graph(g):
    return is_tree(g) and all(g.degree(v) <= 2 for v in range(g.n))


def _is_star_graph(g):
    return is_tree(g) and g.n >= 2 and max(g.degree(v) for v in range(g.n)) == g.n - 1


def test_criterion_8_structural_property_suites():
    started = time.monotonic()

    # torus invariants never exceed the matching grid invariants
    monotonicity = []
    for m, n in [(3, 3), (3, 4), (4, 3), (4, 4)]:
        tor, grid = gen_torus(m, n), gen_grid(m, n)
        for name, solver in [
            ("gamma", solve_gamma),
            ("Gamma", solve_upper_gamma),
            ("gamma_b", solve_gamma_b),
            ("Gamma_b", _upper_gamma_b),
        ]:
            tv, gv = solver(tor).value, solver(grid).value
            if tv > gv:
                monotonicity.append((name, m, n, tv, gv))

    # every minimal dominating set of the 2x2 grid has at most 2 vertices
    g22 = gen_grid(2, 2)
    oversized = [
        comb
        for r in range(3, 5)
        for comb in itertools.combinations(range(4), r)
        if is_minimal_dominating_set(g22, comb)
    ]

    # concatenation closure on 20 seeded pairs, every third through a path
    pool = [t for t in enumerate_trees(8) if t.n >= 2 and is_diametrical_exact(t)]
    rng = random.Random(0)
    closure_failures = []
    for k in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        pa, pb = longest_path(a), longest_path(b)
        if k % 3 == 2:
            mid = gen_path(rng.randrange(2, 5))
            joined = concatenate(a, pa, mid, tuple(range(mid.n)))
            glued = concatenate(joined, longest_path(joined), b, pb)
        else:
            glued = concatenate(a, pa, b, pb)
        if not is_diametrical_exact(glued):
            closure_failures.append(k)

    # maximum broadcast cost is bounded by the edge count, tight only on
    # nontrivial stars and paths; sweep every graph the other criteria solved
    corpus = (
        [gen_cycle(n) for n in range(3, 13)]
        + [gen_torus(m, n) for m, n in [(3, 3), (3, 4), (4, 4)]]
        + [FIG_GRAPH, RING_WITH_LEAVES, gen_grid(2, 2), gen_star(3),
           gen_lobster(LobsterSpec(6, ((1, "C"), (3, "C"), (5, "C"))))]
    )
    corpus += [t for t in classification_corpus() if t.n > 1]
    solved = [(g, _upper_gamma_b(g).value) for g in corpus]
    edge_bound_failures = []
    for g, value in solved:
        tight = value == g.edge_count()
        if value > g.edge_count() or tight != (_is_path_graph(g) or _is_star_graph(g)):
            edge_bound_failures.append((g.n, g.edges()))

    elapsed = time.monotonic() - started
    ok = not (monotonicity or oversized or closure_failures or edge_bound_failures)
    _report(8, ok, f"4 suites, {elapsed:.1f}s")
    assert not monotonicity, monotonicity
    assert not oversized, oversized
    assert not closure_failures, closure_failures
    assert not edge_bound_failures, edge_bound_failures


def test_criterion_9_minimality_equivalence():
    started = time.monotonic()
    checked = 0
    for t in enumerate_trees(7):
        for vec in all_strength_vectors(t):
            b = Broadcast(vec)
            assert is_minimal_dominating_broadcast(t, b) == minimal_via_private_neighbors(t, b), (
                t.edges(),
                vec,
            )
            checked += 1
    elapsed = time.monotonic() - started
    _report(9, True, f"{checked} broadcasts over all trees up to 7 vertices, {elapsed:.1f}s")
