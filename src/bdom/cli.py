"""Command-line front end.

Subcommands: invariant, verify, classify, enumerate-check, generate.
Exit codes: 0 success, 1 input or usage error, 2 budget/capability error,
3 verification mismatch.  All output is deterministic for a fixed config and
seed, except the `millis` timing column of verify reports.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import formulas, sweeps
from .diametrical import classify_tree, is_diametrical_exact
from .errors import CapabilityError, InputError
from .graphs import (
    FAMILIES,
    Graph,
    LobsterSpec,
    gen_lobster,
    graph_from_json,
    parse_edge_list,
    serialize,
)
from .solvers import DEFAULT_NODE_BUDGET
from .sweeps import INVARIANT_SOLVERS

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3

BUDGET_ENV_VAR = "BD_BUDGET_NODES"

def budget_from_args(args) -> int:
    """The node budget from --budget-nodes, else the environment."""
    nodes, source = args.budget_nodes, "--budget-nodes"
    if nodes is None:
        env, source = os.environ.get(BUDGET_ENV_VAR), BUDGET_ENV_VAR
        try:
            nodes = int(env) if env else DEFAULT_NODE_BUDGET
        except ValueError:
            raise InputError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if nodes < 1:
        raise InputError(f"{source} must be positive, got {nodes}")
    return nodes


def parse_family(spec: str) -> tuple[str, int | None, int, Graph]:
    """Parse a family spec like torus:3,4 or lobster:12:2,A;5,C.

    Returns (kind, m, n, graph); m is None for one-parameter families.  Bad
    syntax is a malformed spec; values the generator refuses keep its message.
    """
    head, _, rest = spec.partition(":")
    malformed = InputError(f"malformed family spec {spec!r}")
    if not rest:
        raise malformed
    if head == "lobster":
        d_str, _, limb_str = rest.partition(":")
        try:
            d = int(d_str)
            parts = limb_str.split(";") if limb_str else []
            limbs = tuple((int(pos), kind) for pos, kind in (p.split(",") for p in parts))
        except ValueError:
            raise malformed from None
        return head, None, d, gen_lobster(LobsterSpec(d, limbs))
    if head not in FAMILIES:
        raise InputError(f"unknown family {head!r}")
    gen, arity = FAMILIES[head]
    try:
        params = [int(p) for p in rest.split(",")]
        m, n = params if arity == 2 else (None, *params)  # unpacks only the right count
    except ValueError:
        raise malformed from None
    return head, m, n, gen(*params)


def _load_graph(path: str) -> Graph:
    if not path:
        raise InputError("--graph needs a file path, got ''")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if path.endswith(".json"):
        return graph_from_json(text)
    return parse_edge_list(text)


def _refuse_unwritable(output: str | None, dump_dir: str | None) -> None:
    """Refuse, before any computation, an output file that is a directory or
    lies in a missing one, and a dump directory at or below an existing file."""
    if output and Path(output).is_dir():
        raise InputError(f"cannot write {output}: {os.strerror(errno.EISDIR)}")
    if output and not Path(output).parent.is_dir():
        raise InputError(f"cannot write {output}: {os.strerror(errno.ENOENT)}")
    if dump_dir and any(p.is_file() for p in (Path(dump_dir), *Path(dump_dir).parents)):
        raise InputError(f"cannot write {dump_dir}: {os.strerror(errno.ENOTDIR)}")


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc.strerror}") from None
        return
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: keep the exit code, and silence the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# --- invariant ---------------------------------------------------------------


def cmd_invariant(args) -> int:
    budget = budget_from_args(args)
    family = m = n = None
    if args.family is not None:
        family, m, n, g = parse_family(args.family)
    else:
        g = _load_graph(args.graph)

    if args.method != "exact":
        if family is None:
            raise InputError("closed-form evaluation needs --family, not --graph")
        # a formula that cannot answer refuses the run before the solver starts
        closed = formulas.evaluate(family, args.which, m, n).to_json_dict()
    if args.method == "closed-form":
        out = closed
    else:
        out = INVARIANT_SOLVERS[args.which](g, budget).to_json_dict()
    if args.method == "both":
        out = {
            "invariant": args.which,
            "value": out["value"],
            "exact": out,
            "closed_form": closed,
            "match": out["value"] == closed["value"],
        }
    _emit(json.dumps(out, indent=2), args.output)
    if args.method == "both" and not out["match"]:
        return EXIT_MISMATCH
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if hi else lo_i
    except ValueError:
        raise InputError(f"bad range {text!r}, expected LO:HI") from None
    if hi_i < lo_i:
        raise InputError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


def cmd_verify(args) -> int:
    budget = budget_from_args(args)
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    family = args.family
    if FAMILIES[family][1] == 1:
        points = [(None, n) for n in _parse_range(args.n)]
    else:
        if not args.m:
            raise InputError(f"--m is required for family {family!r}")
        points = [
            (m, n)
            for m in _parse_range(args.m)
            for n in _parse_range(args.n)
            if m <= n
        ]
    if not points:
        raise InputError("sweep range is empty")
    tasks = [(family, args.which, m, n, budget) for m, n in points]
    if args.jobs > 1:
        # the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(sweeps.verify_point, *zip(*tasks)))
    else:
        rows = [sweeps.verify_point(*t) for t in tasks]
    if args.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, args.output)
    # a sweep that left points unchecked has not verified them
    skipped = 0
    for key, cap in (("budget", "node budget"), ("depth", "depth cap")):
        count = sum(r["exact"] == f"skipped:{key}" for r in rows)
        if count:
            print(f"capability error: {count} of {len(rows)} points skipped past the {cap}",
                  file=sys.stderr)
            skipped += count
    if skipped:
        return EXIT_BUDGET
    if any(r["match"] == "false" for r in rows):
        return EXIT_MISMATCH
    return EXIT_OK


# --- classify ----------------------------------------------------------------


def cmd_classify(args) -> int:
    budget = budget_from_args(args)
    g = _load_graph(args.graph)
    verdict = classify_tree(g)
    out = verdict.to_json_dict()
    code = EXIT_OK
    if args.oracle:
        exact = is_diametrical_exact(g, budget)
        out["oracle"] = {"diametrical": exact}
        out["match"] = verdict.diametrical == exact
        if not out["match"]:
            code = EXIT_MISMATCH
    _emit(json.dumps(out, indent=2), args.output)
    return code


# --- enumerate-check ---------------------------------------------------------


def cmd_enumerate_check(args) -> int:
    budget = budget_from_args(args)
    trees = sweeps.classification_corpus(
        args.max_n, args.random, args.random_min, args.random_max, args.seed
    )
    checks = [sweeps.check_tree(t, budget) for t in trees]
    if args.dump_dir:
        try:
            sweeps.dump_disagreements(checks, Path(args.dump_dir))
        except OSError as exc:
            raise InputError(f"cannot write {args.dump_dir}: {exc.strerror}") from None
    summary = sweeps.summarize(checks)
    _emit(json.dumps(summary, indent=2), args.output)
    return EXIT_MISMATCH if summary["disagreements"] else EXIT_OK


# --- generate ----------------------------------------------------------------


def cmd_generate(args) -> int:
    _, _, _, g = parse_family(args.family)
    _emit(serialize(g), args.output)
    return EXIT_OK


# --- wiring ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, its subcommands' too, are input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bdom",
        description="Domination and broadcast-domination invariants of finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_opts(p):
        p.add_argument("--budget-nodes", type=int, default=None,
                       help=f"search node cap (env {BUDGET_ENV_VAR})")

    p = sub.add_parser("invariant", help="compute one invariant of one graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="family spec, e.g. torus:3,4 or cycle:8")
    source.add_argument("--graph", help="edge-list (or .json) graph file")
    p.add_argument("--which", required=True, choices=sorted(INVARIANT_SOLVERS))
    p.add_argument("--method", default="exact", choices=["exact", "closed-form", "both"])
    p.add_argument("--output")
    add_budget_opts(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("verify", help="sweep a family, comparing closed forms with solvers")
    p.add_argument("--family", required=True, choices=["cycle", "torus", "grid"])
    p.add_argument("--which", required=True,
                   choices=sorted(INVARIANT_SOLVERS) + ["diametrical"])
    p.add_argument("--m", help="row range LO:HI (omitted for cycles)")
    p.add_argument("--n", required=True, help="column range LO:HI")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output")
    add_budget_opts(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="diametrical-tree verdict for a tree file")
    p.add_argument("--graph", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact solver and report agreement")
    p.add_argument("--output")
    add_budget_opts(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate-check",
                       help="classifier vs exact solver over all small trees")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--random", type=int, default=0,
                   help="additionally check this many random trees")
    p.add_argument("--random-min", type=int, default=10)
    p.add_argument("--random-max", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-dir", help="directory for disagreeing trees")
    p.add_argument("--output")
    add_budget_opts(p)
    p.set_defaults(func=cmd_enumerate_check)

    p = sub.add_parser("generate", help="write a family graph as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _refuse_unwritable(getattr(args, "output", None), getattr(args, "dump_dir", None))
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
