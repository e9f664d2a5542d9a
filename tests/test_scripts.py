"""The two experiment scripts are fixed argument lists for the CLI: run as
programs, they print what `bdom verify` and `bdom enumerate-check` print,
exit with the CLI's codes and read BD_BUDGET_NODES."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bdom.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_MISMATCH, main

ROOT = Path(__file__).resolve().parent.parent

VERIFY_SWEEPS = [
    ["--family", "cycle", "--which", "Gamma_b", "--n", "3:12"],
    ["--family", "torus", "--which", "gamma", "--m", "3:5", "--n", "4:5"],
    ["--family", "torus", "--which", "gamma_b", "--m", "3:4", "--n", "3:4"],
    ["--family", "torus", "--which", "Gamma", "--m", "3:5", "--n", "3:5"],
    ["--family", "torus", "--which", "Gamma_b", "--m", "3:4", "--n", "3:4"],
]


def run_script(path: Path, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
    )


@pytest.fixture
def tree_script(tmp_path) -> Path:
    """A copy of the tree script, which dumps beside itself, so into tmp_path."""
    script = tmp_path / "scripts" / "tree_classification_sweep.py"
    script.parent.mkdir()
    shutil.copy(ROOT / "scripts" / script.name, script)
    return script


def strip_millis(text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def test_verify_script_is_five_verify_runs(capsys):
    # the golden rows, millis stripped, hold the values, the four torus
    # Gamma mismatches and every point's nodes; a change that moves a count
    # records them again and names the move
    proc = run_script(ROOT / "scripts" / "verify_closed_forms.py")
    assert proc.returncode == EXIT_MISMATCH and proc.stderr == ""
    codes = [main(["verify", *argv]) for argv in VERIFY_SWEEPS]
    expected = capsys.readouterr().out
    assert codes == [0, 0, 0, EXIT_MISMATCH, 0]
    assert strip_millis(proc.stdout) == strip_millis(expected)
    golden = (ROOT / "tests" / "golden" / "verify_closed_forms.csv").read_text().splitlines()
    assert strip_millis(proc.stdout) == golden
    assert len(golden) == 32 and sum(line.split(",")[6] == "false" for line in golden) == 4


def test_verify_script_stops_at_the_first_failure():
    proc = run_script(ROOT / "scripts" / "verify_closed_forms.py", BD_BUDGET_NODES="0")
    assert proc.returncode == EXIT_INPUT and proc.stdout == ""
    assert proc.stderr == "error: BD_BUDGET_NODES must be positive, got 0\n"


def test_verify_script_stops_at_a_sweep_with_skipped_points():
    # the cycle sweep checks C3 and C4 within ten nodes and skips the rest
    proc = run_script(ROOT / "scripts" / "verify_closed_forms.py", BD_BUDGET_NODES="10")
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout.count("family,") == 1 and proc.stdout.count("skipped:budget") == 8
    assert proc.stderr == "capability error: 8 of 10 points skipped past the node budget\n"


def test_tree_script_is_enumerate_check(tree_script, tmp_path, capsys):
    proc = run_script(tree_script)
    assert proc.returncode == EXIT_MISMATCH and proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "trees": 295, "diametrical": 67, "agreements": 286, "disagreements": 9,
    }
    dumps = sorted((tmp_path / "scripts" / "disagreements").iterdir())
    assert len(dumps) == 9
    reference = tmp_path / "reference"
    argv = ["enumerate-check", "--max-n", "9", "--random", "200", "--dump-dir", str(reference)]
    assert main(argv) == EXIT_MISMATCH
    assert proc.stdout == capsys.readouterr().out
    assert [p.read_bytes() for p in dumps] == [
        p.read_bytes() for p in sorted(reference.iterdir())
    ]


def test_tree_script_reads_the_budget_variable(tree_script):
    proc = run_script(tree_script, BD_BUDGET_NODES="10")
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr.startswith("capability error:")
    assert "Traceback" not in proc.stderr
