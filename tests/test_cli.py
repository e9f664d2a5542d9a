import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdom import cli, solvers, sweeps
from bdom.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, main, parse_family
from bdom.errors import InputError
from bdom.graphs import FAMILIES, LobsterSpec, gen_lobster, gen_torus, parse_edge_list, serialize
from bdom.solvers import InvariantReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_family_specs():
    assert parse_family("torus:3,3")[3] == gen_torus(3, 3)
    kind, m, n, g = parse_family("lobster:12:2,A;5,C;8,B;11,C")
    assert kind == "lobster" and g.n == 19
    with pytest.raises(InputError):
        parse_family("torus:3")
    with pytest.raises(InputError):
        parse_family("blob:3,3")


@pytest.mark.parametrize("spec, message", [
    # values the generator refuses keep the generator's own message
    ("cycle:2", "cycle needs at least 3 vertices, got 2"),
    ("star:0", "star needs at least 1 leaf, got 0"),
    ("torus:2,5", "torus rows/columns must have length >= 3, got 2x5"),
    ("lobster:5:0,A", "limb position 0 not strictly inside the spine"),
    ("lobster:5:2,Z", "unknown limb kind 'Z'"),
    # bad syntax and a wrong parameter count are malformed specs
    ("cycle", "malformed family spec 'cycle'"),
    ("cycle:x", "malformed family spec 'cycle:x'"),
    ("torus:3,a", "malformed family spec 'torus:3,a'"),
    ("lobster:x", "malformed family spec 'lobster:x'"),
    ("lobster:5:2,A;", "malformed family spec 'lobster:5:2,A;'"),
    ("lobster:5:2,A,B", "malformed family spec 'lobster:5:2,A,B'"),
    # a name in no table is an unknown family, whatever follows it
    ("blob:3,3", "unknown family 'blob'"),
    ("blob:x", "unknown family 'blob'"),
])
def test_parse_family_error_messages(spec, message):
    with pytest.raises(InputError) as exc:
        parse_family(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_one_family_table(name, monkeypatch):
    gen, arity = FAMILIES[name]
    params = (3, 4)[-arity:]
    kind, m, n, g = parse_family(f"{name}:{','.join(map(str, params))}")
    assert (kind, m, n) == (name, params[0] if arity == 2 else None, 4)
    assert g == gen(*params)
    # the verify sweep builds the same graph from the same table
    seen = []

    def record(graph, budget):
        seen.append(graph)
        return InvariantReport("gamma", 0, "exact")

    monkeypatch.setitem(sweeps.INVARIANT_SOLVERS, "gamma", record)
    sweeps.verify_point(name, "gamma", m, n)
    assert seen == [g]


@pytest.mark.parametrize("spec", ["cycle:3,4", "path:3,4", "torus:3", "grid:3,4,5"])
def test_wrong_parameter_count_is_malformed(spec):
    with pytest.raises(InputError, match="malformed family spec"):
        parse_family(spec)


def test_invariant_both_matching(capsys):
    code, out, _ = run(
        capsys, "invariant", "--family", "cycle:8", "--which", "Gamma_b",
        "--method", "both",
    )
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["match"] is True and rep["value"] == 6
    assert rep["exact"]["witness"]["strengths"] is not None


def test_invariant_closed_form_only(capsys):
    code, out, _ = run(
        capsys, "invariant", "--family", "cycle:8", "--which", "Gamma_b",
        "--method", "closed-form",
    )
    rep = json.loads(out)
    assert code == EXIT_OK and rep["value"] == 6
    assert rep["method"] == "closed_form" and rep["source"]


def test_invariant_mismatch_exit_code(capsys):
    # the parity-case formula undershoots the solver on the 3x4 torus
    code, out, _ = run(
        capsys, "invariant", "--family", "torus:3,4", "--which", "Gamma",
        "--method", "both",
    )
    rep = json.loads(out)
    assert code == EXIT_MISMATCH
    assert rep["exact"]["value"] == 6 and rep["closed_form"]["value"] == 4


@pytest.mark.parametrize("family, which, expected, message", [
    ("torus:5,8", "gamma", EXIT_BUDGET, "only an upper bound is known for m=5, n=5k+3"),
    ("grid:4,5", "Gamma_b", EXIT_INPUT, "no closed form"),
])
def test_invariant_both_asks_the_formula_first(capsys, family, which, expected, message):
    # one search node is too few for either solve, so only a formula that
    # refuses before the solver starts can give its own message
    code, out, err = run(
        capsys, "invariant", "--family", family, "--which", which,
        "--method", "both", "--budget-nodes", "1",
    )
    assert code == expected and message in err and "node budget" not in err and out == ""


def test_invariant_from_file(tmp_path, capsys, fig_graph):
    path = tmp_path / "fig.edges"
    path.write_text(serialize(fig_graph))
    code, out, _ = run(capsys, "invariant", "--graph", str(path), "--which", "gamma")
    assert code == EXIT_OK and json.loads(out)["value"] == 2


def test_invariant_bad_family(capsys):
    code, out, err = run(capsys, "invariant", "--family", "cycle:2", "--which", "gamma")
    assert code == EXIT_INPUT and out == ""
    assert err == "error: cycle needs at least 3 vertices, got 2\n"
    # an empty spec is still a spec, not a missing one
    code, out, err = run(capsys, "invariant", "--family", "", "--which", "gamma")
    assert (code, out, err) == (EXIT_INPUT, "", "error: malformed family spec ''\n")


def test_verify_cycles(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "verify", "--family", "cycle", "--which", "Gamma_b",
        "--n", "3:12", "--output", str(out_path),
    )
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "family,m,n,invariant,closed_form,exact,match,nodes,millis"
    assert len(lines) == 11
    assert all(line.split(",")[6] == "true" for line in lines[1:])


def test_verify_torus_gamma_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "torus", "--which", "gamma",
        "--m", "3:4", "--n", "4:5", "--format", "json",
    )
    rows = json.loads(out)
    assert code == EXIT_OK
    assert [(r["m"], r["n"]) for r in rows] == [(3, 4), (3, 5), (4, 4), (4, 5)]
    assert all(r["match"] == "true" for r in rows)


def test_verify_torus_upper_domination_surfaces_mismatch(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "torus", "--which", "Gamma",
        "--m", "3:4", "--n", "3:4", "--format", "json",
    )
    rows = json.loads(out)
    assert code == EXIT_MISMATCH
    assert len(rows) == 3
    by_point = {(r["m"], r["n"]): r["match"] for r in rows}
    assert by_point == {(3, 3): "true", (3, 4): "false", (4, 4): "true"}


def test_verify_exits_budget_when_points_are_skipped(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "cycle", "--which", "Gamma_b", "--n", "3:8",
        "--budget-nodes", "10",
    )
    # the whole table is written first, then the unchecked points fail the run
    lines = out.splitlines()
    assert code == EXIT_BUDGET and len(lines) == 7
    assert [line.split(",")[5] for line in lines[1:]] == ["1", "2"] + ["skipped:budget"] * 4
    assert err == "capability error: 4 of 6 points skipped past the node budget\n"


def test_verify_budget_exit_outranks_mismatch(capsys):
    # C3xC4 mismatches within 40 nodes; C3xC5 and C4xC5 need 179 and 293
    # and are skipped, while bipartite C4xC4 takes 16 under the window
    # [beta, beta]
    code, out, _ = run(
        capsys, "verify", "--family", "torus", "--which", "Gamma", "--m", "3:4", "--n", "4:5",
        "--budget-nodes", "40", "--format", "json",
    )
    rows = json.loads(out)
    assert code == EXIT_BUDGET
    assert [(r["exact"], r["match"]) for r in rows] == [
        (6, "false"), ("skipped:budget", ""), (8, "true"), ("skipped:budget", ""),
    ]


def test_verify_reports_the_nodes_of_points_skipped_past_the_budget(capsys):
    # a search raises at its first node past the budget, so a skipped point
    # searched budget + 1 nodes
    _, out, _ = run(
        capsys, "verify", "--family", "torus", "--which", "Gamma", "--m", "3:4", "--n", "4:5",
        "--budget-nodes", "40", "--format", "json",
    )
    nodes = {(r["m"], r["n"]): r["nodes"] for r in json.loads(out)}
    assert nodes[(3, 5)] == nodes[(4, 5)] == 41


def test_verify_names_the_depth_cap_for_points_past_it(capsys):
    # C5001 is one vertex past the search's depth cap: no node is searched
    code, out, err = run(
        capsys, "verify", "--family", "cycle", "--which", "gamma_b", "--n", "5001:5001",
    )
    rows = [line.split(",") for line in out.splitlines()]
    assert code == EXIT_BUDGET
    assert [row[5] for row in rows] == ["exact", "skipped:depth"] and rows[1][7] == "0"
    assert err == "capability error: 1 of 1 points skipped past the depth cap\n"


def test_verify_grid_diametrical(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "grid", "--which", "diametrical",
        "--m", "1:3", "--n", "1:4", "--format", "json",
    )
    rows = json.loads(out)
    assert code == EXIT_OK
    assert len(rows) == 9  # pairs with m <= n
    assert all(r["match"] == "true" for r in rows)


def test_verify_reports_the_oracle_nodes_of_diametrical_points(capsys, monkeypatch):
    # each row counts the nodes of its oracle search; a path's window is
    # empty, so its search is one node
    searched = []
    run_search = solvers._Search.run

    def counted(search, *args, **kwargs):
        run_search(search, *args, **kwargs)
        searched.append(search.nodes)

    monkeypatch.setattr(solvers._Search, "run", counted)
    code, out, _ = run(
        capsys, "verify", "--family", "grid", "--which", "diametrical", "--m", "1:2", "--n", "2:4",
    )
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == EXIT_OK
    assert [int(row[7]) for row in rows] == searched == [1, 1, 1, 9, 7, 9]


def test_verify_writes_n_a_where_the_solver_refuses_a_point(capsys):
    # a 1x1 grid is a lone vertex, which has no dominating broadcast
    code, out, _ = run(
        capsys, "verify", "--family", "grid", "--which", "gamma_b", "--m", "1:2", "--n", "1:3",
    )
    rows = [line.split(",") for line in out.splitlines()]
    assert code == EXIT_OK
    assert [row[1:3] + row[5:7] for row in rows[1:]] == [
        ["1", "1", "n/a", ""], ["1", "2", "1", ""], ["1", "3", "1", ""],
        ["2", "2", "2", ""], ["2", "3", "2", ""],
    ]


def test_verify_deterministic_apart_from_timing(tmp_path, capsys):
    argv = ["verify", "--family", "cycle", "--which", "Gamma_b", "--n", "3:8"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)

    def strip_millis(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert code1 == code2 == EXIT_OK
    assert strip_millis(out1) == strip_millis(out2)


def test_classify_left_tree(tmp_path, capsys):
    code, _, _ = run(
        capsys, "generate", "--family", "lobster:12:2,A;5,C;8,B;11,C",
        "--output", str(tmp_path / "left.edges"),
    )
    assert code == EXIT_OK
    code, out, _ = run(
        capsys, "classify", "--graph", str(tmp_path / "left.edges"), "--oracle",
    )
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["diametrical"] is True
    assert rep["witness"]["limbs"] == [[2, "A"], [5, "C"], [8, "B"], [11, "C"]]
    assert rep["match"] is True


def test_classify_right_tree(tmp_path, capsys):
    edges = [(i, i + 1) for i in range(8)]
    edges += [(3, 9), (9, 10), (10, 11), (6, 12), (6, 13), (7, 14)]
    text = "15\n" + "".join(f"{u} {v}\n" for u, v in edges)
    path = tmp_path / "right.edges"
    path.write_text(text)
    code, out, _ = run(capsys, "classify", "--graph", str(path), "--oracle")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["diametrical"] is False and rep["reason"]["kind"] == "LimbTooDeep"
    assert rep["match"] is True


def test_classify_non_tree_is_input_error(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    code, _, err = run(capsys, "classify", "--graph", str(path))
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", [("invariant", "--which", "gamma"), ("classify",)],
                         ids=lambda argv: argv[0])
def test_empty_graph_path_is_refused(capsys, command):
    # an empty path would read the working directory
    code, out, err = run(capsys, command[0], "--graph", "", *command[1:])
    assert (code, out, err) == (EXIT_INPUT, "", "error: --graph needs a file path, got ''\n")


def test_enumerate_check_small(capsys, tmp_path):
    code, out, _ = run(
        capsys, "enumerate-check", "--max-n", "6",
        "--dump-dir", str(tmp_path / "dumps"),
    )
    summary = json.loads(out)
    assert code == EXIT_OK
    assert summary["trees"] == 14 and summary["disagreements"] == 0
    assert not (tmp_path / "dumps").exists()


def test_enumerate_check_reports_structural_gaps(capsys, tmp_path):
    # trees on 8 vertices include the known limb-tip counterexample, so the
    # sweep must flag it, dump it, and exit with the mismatch code
    dump = tmp_path / "dumps"
    code, out, _ = run(
        capsys, "enumerate-check", "--max-n", "8", "--dump-dir", str(dump),
    )
    summary = json.loads(out)
    assert code == EXIT_MISMATCH
    assert summary["disagreements"] == 1
    dumped = sorted(dump.iterdir())
    assert len(dumped) == 1
    t = parse_edge_list(dumped[0].read_text())
    assert t.n == 8


def test_enumerate_check_cap(capsys):
    code, _, err = run(capsys, "enumerate-check", "--max-n", "30")
    assert code == EXIT_BUDGET and "capability" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BD_BUDGET_NODES", "10")
    code, _, err = run(
        capsys, "invariant", "--family", "torus:3,4", "--which", "Gamma_b",
    )
    assert code == EXIT_BUDGET and "node budget" in err


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("BD_BUDGET_NODES", "10")
    code, out, _ = run(
        capsys, "invariant", "--family", "cycle:6", "--which", "Gamma_b",
        "--budget-nodes", "100000",
    )
    assert code == EXIT_OK and json.loads(out)["value"] == 4


def test_budget_ends_a_large_search_before_its_tables(capsys):
    # the search builds a vertex's ball rows when it first reaches the vertex,
    # so ten nodes cost ten rows, not the 1000 x 999 of the whole path
    code, out, err = run(
        capsys, "invariant", "--family", "path:1000", "--which", "Gamma_b", "--budget-nodes", "10",
    )
    assert code == EXIT_BUDGET and "node budget" in err and out == ""


def test_budget_ends_a_large_oracle_search(tmp_path, capsys):
    # 3000 vertices: a path of 2999 with a leaf at its middle.  A bare path
    # would need no node: its edge count is its diameter, so no broadcast
    # can beat the diameter and the oracle's window is empty.
    path = tmp_path / "tree.edges"
    path.write_text(serialize(gen_lobster(LobsterSpec(2998, ((1499, "C"),)))))
    code, out, err = run(
        capsys, "classify", "--graph", str(path), "--oracle", "--budget-nodes", "10",
    )
    assert code == EXIT_BUDGET and "node budget" in err and out == ""


def bdom_at_the_default_recursion_limit(*argv):
    """`bdom argv` in a fresh interpreter, which keeps Python's default
    recursion limit of 1000."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-m", "bdom", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, text=True, timeout=60,
    )


def test_search_deeper_than_the_recursion_limit_is_refused():
    # the search recurses once per vertex, and a star of 5000 leaves has 5001,
    # one past the deepest search; it is refused before any distance table
    proc = bdom_at_the_default_recursion_limit(
        "invariant", "--family", "star:5000", "--which", "Gamma_b"
    )
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr == "capability error: search of depth 5001 exceeds the depth cap (5000)\n"


def test_search_deeper_than_the_default_recursion_limit_answers():
    # 1100 positions, past the default limit of 1000 frames
    proc = bdom_at_the_default_recursion_limit(
        "invariant", "--family", "path:1100", "--which", "Gamma_b"
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["value"] == 1099


def test_verify_parallel_matches_serial(capsys):
    argv = ["verify", "--family", "cycle", "--which", "Gamma_b", "--n", "3:8"]
    _, serial, _ = run(capsys, *argv)
    _, parallel, _ = run(capsys, *argv, "--jobs", "2")

    def strip_millis(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip_millis(serial) == strip_millis(parallel)


def test_verify_starts_no_more_workers_than_points(capsys, monkeypatch):
    started = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    argv = ["verify", "--family", "cycle", "--which", "gamma_b", "--n", "4:5", "--jobs", "64"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and len(out.splitlines()) == 3
    assert started == [2]


def test_generate_torus(capsys):
    code, out, _ = run(capsys, "generate", "--family", "torus:3,3")
    g = parse_edge_list(out)
    assert code == EXIT_OK and g.n == 9 and g.edge_count() == 18


def test_generate_bad_family(capsys):
    code, _, _ = run(capsys, "generate", "--family", "cycle:2")
    assert code == EXIT_INPUT


def test_generate_into_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x.edges"
    code, out, err = run(capsys, "generate", "--family", "path:3", "--output", str(target))
    assert code == EXIT_INPUT and f"error: cannot write {target}" in err and out == ""


def test_invariant_output_is_a_directory(tmp_path, capsys, fig_graph):
    path = tmp_path / "fig.edges"
    path.write_text(serialize(fig_graph))
    code, out, err = run(
        capsys, "invariant", "--graph", str(path), "--which", "Gamma", "--output", str(tmp_path),
    )
    assert code == EXIT_INPUT and f"error: cannot write {tmp_path}" in err and out == ""


def test_enumerate_check_dump_dir_is_a_file(tmp_path, capsys):
    # 8 vertices give one disagreement to dump
    dump = tmp_path / "dumps"
    dump.write_text("")
    code, out, err = run(capsys, "enumerate-check", "--max-n", "8", "--dump-dir", str(dump))
    assert code == EXIT_INPUT and f"error: cannot write {dump}" in err and out == ""


def refuse_to_run(*_args):
    raise AssertionError("the computation ran before the write target was checked")


def test_invariant_output_directory_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.INVARIANT_SOLVERS, "Gamma", refuse_to_run)
    code, out, err = run(
        capsys, "invariant", "--family", "torus:3,3", "--which", "Gamma", "--output", str(tmp_path),
    )
    assert code == EXIT_INPUT and f"error: cannot write {tmp_path}" in err and out == ""


def test_enumerate_check_dump_file_is_refused_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweeps, "check_tree", refuse_to_run)
    dump = tmp_path / "dumps"
    dump.write_text("")
    for target in (dump, dump / "below"):
        code, out, err = run(capsys, "enumerate-check", "--max-n", "8", "--dump-dir", str(target))
        assert code == EXIT_INPUT and f"error: cannot write {target}" in err and out == ""


def test_gamma_past_32_vertices(capsys):
    code, out, _ = run(capsys, "invariant", "--family", "path:33", "--which", "gamma")
    assert code == EXIT_OK and json.loads(out)["value"] == 11


def test_enumerate_check_empty_random_size_range(capsys):
    code, out, err = run(
        capsys, "enumerate-check", "--max-n", "3", "--random", "2",
        "--random-min", "14", "--random-max", "10",
    )
    assert code == EXIT_INPUT and "14..10" in err and out == ""


def test_budget_env_var_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("BD_BUDGET_NODES", "abc")
    code, out, err = run(capsys, "invariant", "--family", "cycle:5", "--which", "Gamma_b")
    assert code == EXIT_INPUT and "BD_BUDGET_NODES" in err and out == ""


def test_graph_json_fractional_vertex_count(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2.5, "edges": [[0, 1]]}')
    code, out, err = run(capsys, "invariant", "--graph", str(path), "--which", "gamma")
    assert code == EXIT_INPUT and "vertex count" in err and out == ""


def test_graph_json_fractional_edge_endpoint(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1.7], [1, 2]]}')
    code, out, err = run(capsys, "invariant", "--graph", str(path), "--which", "gamma")
    assert code == EXIT_INPUT and "endpoints" in err and out == ""


def test_enumerate_check_negative_random_count(capsys):
    code, out, err = run(capsys, "enumerate-check", "--max-n", "3", "--random", "-2")
    assert code == EXIT_INPUT and "-2" in err and out == ""


@pytest.mark.parametrize("nodes", ["0", "-5"])
def test_budget_flag_not_positive(capsys, nodes):
    code, out, err = run(
        capsys, "invariant", "--family", "cycle:5", "--which", "Gamma_b", "--budget-nodes", nodes,
    )
    assert code == EXIT_INPUT and "--budget-nodes must be positive" in err and out == ""


@pytest.mark.parametrize("nodes", ["0", "-5"])
def test_budget_env_var_not_positive(capsys, monkeypatch, nodes):
    monkeypatch.setenv("BD_BUDGET_NODES", nodes)
    code, out, err = run(capsys, "invariant", "--family", "cycle:5", "--which", "Gamma_b")
    assert code == EXIT_INPUT and "BD_BUDGET_NODES must be positive" in err and out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_not_positive(capsys, jobs):
    code, out, err = run(
        capsys, "verify", "--family", "cycle", "--which", "Gamma_b", "--n", "3:4", "--jobs", jobs,
    )
    assert code == EXIT_INPUT and "--jobs" in err and out == ""


@pytest.mark.parametrize("argv, message", [
    ("verify --family path --which gamma --n 3:4", "argument --family: invalid choice: 'path'"),
    ("invariant --family cycle:5", "the following arguments are required: --which"),
    ("invariant --which gamma", "one of the arguments --family --graph is required"),
    ("invariant --which gamma --family cycle:5 --graph g.txt",
     "argument --graph: not allowed with argument --family"),
    ("enumerate-check --max-n x", "argument --max-n: invalid int value: 'x'"),
    ("", "the following arguments are required: command"),
])
def test_usage_errors_are_input_errors(capsys, argv, message):
    # argparse's own errors end as every input error does: the usage on
    # stderr, then one `error:` line, and exit 1 (exit 2 is the budget's)
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_INPUT and out == ""
    *usage, last = err.splitlines()
    assert usage[0].startswith("usage: bdom") and last.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and "usage: bdom" in capsys.readouterr().out


@pytest.mark.parametrize("argv, expected", [
    (["invariant", "--family", "cycle:8", "--which", "Gamma_b"], EXIT_OK),
    (["verify", "--family", "torus", "--which", "Gamma", "--m", "3:3", "--n", "4:4"], EXIT_MISMATCH),
])
def test_closed_stdout_pipe_exits_quietly(argv, expected):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bdom", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected
    assert proc.stderr == ""


# --- input fuzzing -------------------------------------------------------------
#
# Every integer is drawn from -2..12, and every separator holds no digit, so no
# two numbers run together: no example asks for a graph of more than a few
# hundred vertices.

SMALL = st.integers(-2, 12)


@st.composite
def graph_parts(draw):
    """A vertex count and edges: often a path plus chords, so that many
    examples are connected graphs, and now and then an edge drawn from the
    whole range, which may be out of range or a self-loop."""
    n = draw(SMALL)
    edges = [(i, i + 1) for i in range(n - 1)] if draw(st.booleans()) else []
    inside = st.integers(0, max(n - 1, 0))
    edges += draw(st.lists(st.tuples(inside, inside).filter(lambda e: e[0] != e[1]), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        edges.append(draw(st.tuples(SMALL, SMALL)))
    return n, edges


EDGE_TOKENS = st.one_of(SMALL.map(str), st.sampled_from(["", "#", "x", "1.5", "-", "0x3"]))
EDGE_LIST_TEXT = st.one_of(
    graph_parts().map(lambda p: "\n".join([str(p[0])] + [f"{u} {v}" for u, v in p[1]])),
    # lines of loose tokens
    st.lists(st.lists(EDGE_TOKENS, max_size=3).map(" ".join), max_size=6).map("\n".join),
)
JSON_SCALARS = st.one_of(SMALL, st.booleans(), st.none(), st.just(1.5), st.sampled_from(["3", "n"]))
JSON_GRAPH_TEXT = st.one_of(
    graph_parts().map(lambda p: json.dumps({"n": p[0], "edges": p[1]})),
    st.fixed_dictionaries({
        "n": JSON_SCALARS,
        "edges": st.one_of(
            st.lists(st.one_of(st.lists(JSON_SCALARS, max_size=3), JSON_SCALARS), max_size=6),
            JSON_SCALARS,
        ),
    }).map(json.dumps),
    st.lists(JSON_SCALARS, max_size=3).map(json.dumps),
    st.sampled_from(["", "{", "[]", "null", '{"n": 3}', '{"edges": []}']),
)
FAMILY_SPECS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["path", "cycle", "star"]), SMALL),
    st.builds("{}:{},{}".format, st.sampled_from(["grid", "torus"]), SMALL, SMALL),
    st.builds(
        lambda d, limbs: f"lobster:{d}" + "".join(
            f"{':' if i == 0 else ';'}{pos},{kind}" for i, (pos, kind) in enumerate(limbs)
        ),
        SMALL, st.lists(st.tuples(SMALL, st.sampled_from("ABCD")), max_size=4),
    ),
    # loose numbers joined by separators that hold no digit
    st.builds(
        lambda head, colon, first, rest: head + colon + str(first) + "".join(map("".join, rest)),
        st.sampled_from(["path", "cycle", "star", "grid", "torus", "lobster", "blob", ""]),
        st.sampled_from([":", "", "::"]),
        SMALL,
        st.lists(
            st.tuples(st.sampled_from([",", ";", ":", ",A;", ",B;", ",C", ",D", "x", " "]),
                      SMALL.map(str)),
            max_size=4,
        ),
    ),
)


def run_quietly(argv):
    """main's exit code, stdout and stderr, with the streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET, EXIT_MISMATCH)
    if code == EXIT_INPUT:
        assert err.startswith("error: ") and out == ""
    elif code == EXIT_BUDGET:
        assert err.startswith("capability error: ") and out == ""


GRAPH_FILES = st.one_of(
    EDGE_LIST_TEXT.map(lambda text: ("g.edges", text)),
    JSON_GRAPH_TEXT.map(lambda text: ("g.json", text)),
)


@given(GRAPH_FILES, st.sampled_from(sorted(sweeps.INVARIANT_SOLVERS)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_invariant_survives_any_graph_file(graph_file, which):
    name, text = graph_file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        code, out, err = run_quietly(
            ["invariant", "--graph", str(path), "--which", which, "--budget-nodes", "1000"]
        )
    assert_clean_exit(code, out, err)
    if code == EXIT_OK:
        assert json.loads(out)["invariant"] == which


@given(FAMILY_SPECS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_generate_survives_any_family_spec(spec):
    code, out, err = run_quietly(["generate", f"--family={spec}"])
    assert_clean_exit(code, out, err)
    if code == EXIT_OK:
        assert parse_edge_list(out) == parse_family(spec)[3]
