"""Command-line front end.

Subcommands: invariant, verify, classify, enumerate-check, generate.
Exit codes: 0 success, 1 input error, 2 budget/capability error,
3 verification mismatch.  All output is deterministic for a fixed config and
seed, except the `millis` timing column of verify reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import formulas
from .diametrical import classify_tree, is_diametrical_exact
from .errors import CapabilityError, InputError
from .graphs import (
    Graph,
    LobsterSpec,
    gen_cycle,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_star,
    gen_torus,
    graph_from_json,
    parse_edge_list,
    serialize,
)
from .solvers import (
    MAX_SUBSET_VERTEX_CAP,
    SolverBudget,
    solve_gamma,
    solve_gamma_b,
    solve_upper_gamma,
    solve_upper_gamma_b,
)
from .trees import enumerate_trees, random_tree

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3

BUDGET_ENV_VAR = "BD_BUDGET_NODES"

INVARIANT_SOLVERS = {
    "gamma": solve_gamma,
    "Gamma": solve_upper_gamma,
    "gamma_b": solve_gamma_b,
    "Gamma_b": solve_upper_gamma_b,
}

CSV_COLUMNS = [
    "family", "m", "n", "invariant", "closed_form", "exact", "match", "nodes", "millis",
]


@dataclass(frozen=True)
class RunConfig:
    """Resolved options shared by the subcommands."""

    budget: SolverBudget = SolverBudget()
    seed: int = 0
    jobs: int = 1
    output: str | None = None
    fmt: str = "json"


def config_from_args(args) -> RunConfig:
    nodes = getattr(args, "budget_nodes", None)
    if nodes is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        nodes = int(env) if env else SolverBudget().broadcast_node_cap
    subset_cap = getattr(args, "subset_cap", None)
    if subset_cap is None:
        subset_cap = SolverBudget().subset_vertex_cap
    elif not 1 <= subset_cap <= MAX_SUBSET_VERTEX_CAP:
        raise InputError(
            f"--subset-cap must be between 1 and {MAX_SUBSET_VERTEX_CAP}, got {subset_cap}"
        )
    return RunConfig(
        budget=SolverBudget(subset_vertex_cap=subset_cap, broadcast_node_cap=nodes),
        seed=getattr(args, "seed", 0),
        jobs=getattr(args, "jobs", 1),
        output=getattr(args, "output", None),
        fmt=getattr(args, "format", "json"),
    )


def parse_family(spec: str) -> tuple[str, int | None, int, Graph]:
    """Parse a family spec like torus:3,4 or lobster:12:2,A;5,C.

    Returns (kind, m, n, graph); m is None for one-parameter families.
    """
    head, _, rest = spec.partition(":")
    if not rest:
        raise InputError(f"malformed family spec {spec!r}")
    try:
        if head in ("path", "cycle", "star"):
            n = int(rest)
            g = {"path": gen_path, "cycle": gen_cycle, "star": gen_star}[head](n)
            return head, None, n, g
        if head in ("grid", "torus"):
            m_str, n_str = rest.split(",")
            m, n = int(m_str), int(n_str)
            g = (gen_grid if head == "grid" else gen_torus)(m, n)
            return head, m, n, g
        if head == "lobster":
            d_str, _, limb_str = rest.partition(":")
            d = int(d_str)
            limbs = []
            if limb_str:
                for part in limb_str.split(";"):
                    pos_str, kind = part.split(",")
                    limbs.append((int(pos_str), kind))
            g = gen_lobster(LobsterSpec(d, tuple(limbs)))
            return head, None, d, g
    except (ValueError, KeyError):
        raise InputError(f"malformed family spec {spec!r}") from None
    raise InputError(f"unknown family {head!r}")


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if path.endswith(".json"):
        return graph_from_json(text)
    return parse_edge_list(text)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# --- invariant ---------------------------------------------------------------


def _closed_form_report(family: str, which: str, m: int | None, n: int) -> dict:
    fr = formulas.evaluate(family, which, m, n)
    return {
        "invariant": which,
        "value": fr.value,
        "method": "closed_form",
        "source": fr.source,
        "applicability": fr.applicability,
        "witness": None,
        "nodes": 0,
    }


def cmd_invariant(args) -> int:
    cfg = config_from_args(args)
    if bool(args.family) == bool(args.graph):
        raise InputError("exactly one of --family / --graph is required")
    family = m = n = None
    if args.family:
        family, m, n, g = parse_family(args.family)
    else:
        g = _load_graph(args.graph)

    if args.method == "exact":
        out = INVARIANT_SOLVERS[args.which](g, cfg.budget).to_json_dict()
    elif args.method == "closed-form":
        if family is None:
            raise InputError("closed-form evaluation needs --family, not --graph")
        out = _closed_form_report(family, args.which, m, n)
    else:
        if family is None:
            raise InputError("closed-form evaluation needs --family, not --graph")
        exact = INVARIANT_SOLVERS[args.which](g, cfg.budget).to_json_dict()
        closed = _closed_form_report(family, args.which, m, n)
        out = {
            "invariant": args.which,
            "value": exact["value"],
            "exact": exact,
            "closed_form": closed,
            "match": exact["value"] == closed["value"],
        }
    _emit(json.dumps(out, indent=2), cfg.output)
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


def _verify_point(family: str, which: str, m: int | None, n: int,
                  subset_cap: int, node_cap: int) -> dict:
    budget = SolverBudget(subset_vertex_cap=subset_cap, broadcast_node_cap=node_cap)
    row = {
        "family": family,
        "m": "" if m is None else m,
        "n": n,
        "invariant": which,
        "closed_form": "",
        "exact": "",
        "match": "",
        "nodes": 0,
        "millis": 0,
    }
    started = time.monotonic()
    try:
        row["closed_form"] = formulas.evaluate(family, which, m, n).value
    except (InputError, CapabilityError):
        row["closed_form"] = "n/a"
    g = {
        "cycle": lambda: gen_cycle(n),
        "torus": lambda: gen_torus(m, n),
        "grid": lambda: gen_grid(m, n),
    }[family]()
    try:
        if which == "diametrical":
            row["exact"] = int(is_diametrical_exact(g, budget))
        else:
            rep = INVARIANT_SOLVERS[which](g, budget)
            row["exact"] = rep.value
            row["nodes"] = rep.nodes
    except CapabilityError:
        row["exact"] = "skipped:budget"
    if isinstance(row["closed_form"], int) and isinstance(row["exact"], int):
        row["match"] = "true" if row["closed_form"] == row["exact"] else "false"
    row["millis"] = int((time.monotonic() - started) * 1000)
    return row


def cmd_verify(args) -> int:
    cfg = config_from_args(args)
    family = args.family
    if family == "cycle":
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
    tasks = [
        (family, args.which, m, n,
         cfg.budget.subset_vertex_cap, cfg.budget.broadcast_node_cap)
        for m, n in points
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_verify_point, *zip(*tasks)))
    else:
        rows = [_verify_point(*t) for t in tasks]
    rows.sort(key=lambda r: (r["m"] if r["m"] != "" else 0, r["n"]))

    if cfg.fmt == "json":
        text = json.dumps(rows, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, cfg.output)
    if any(r["match"] == "false" for r in rows):
        return EXIT_MISMATCH
    return EXIT_OK


# --- classify ----------------------------------------------------------------


def cmd_classify(args) -> int:
    cfg = config_from_args(args)
    g = _load_graph(args.graph)
    verdict = classify_tree(g)
    out = verdict.to_json_dict()
    code = EXIT_OK
    if args.oracle:
        exact = is_diametrical_exact(g, cfg.budget)
        out["oracle"] = {"diametrical": exact}
        out["match"] = verdict.diametrical == exact
        if not out["match"]:
            code = EXIT_MISMATCH
    _emit(json.dumps(out, indent=2), cfg.output)
    return code


# --- enumerate-check ---------------------------------------------------------


def cmd_enumerate_check(args) -> int:
    cfg = config_from_args(args)
    trees = list(enumerate_trees(args.max_n))
    rng = random.Random(cfg.seed)
    for _ in range(args.random):
        size = rng.randrange(args.random_min, args.random_max + 1)
        trees.append(random_tree(size, rng))
    total = len(trees)
    diametrical = agreements = 0
    disagreements = []
    for t in trees:
        structural = classify_tree(t).diametrical
        exact = is_diametrical_exact(t, cfg.budget)
        diametrical += exact
        if structural == exact:
            agreements += 1
        else:
            disagreements.append(t)
    if args.dump_dir and disagreements:
        dump = Path(args.dump_dir)
        dump.mkdir(parents=True, exist_ok=True)
        for i, t in enumerate(disagreements):
            (dump / f"disagreement_{i:04d}.edges").write_text(serialize(t))
    summary = {
        "trees": total,
        "diametrical": diametrical,
        "agreements": agreements,
        "disagreements": total - agreements,
    }
    _emit(json.dumps(summary, indent=2), cfg.output)
    return EXIT_MISMATCH if disagreements else EXIT_OK


# --- generate ----------------------------------------------------------------


def cmd_generate(args) -> int:
    _, _, _, g = parse_family(args.family)
    _emit(serialize(g), args.output)
    return EXIT_OK


# --- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdom",
        description="Domination and broadcast-domination invariants of finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_opts(p):
        p.add_argument("--budget-nodes", type=int, default=None,
                       help=f"broadcast-search node cap (env {BUDGET_ENV_VAR})")
        p.add_argument("--subset-cap", type=int, default=None,
                       help="vertex cap for subset-sweep solvers, 1 to "
                            f"{MAX_SUBSET_VERTEX_CAP} (default 25)")

    p = sub.add_parser("invariant", help="compute one invariant of one graph")
    p.add_argument("--family", help="family spec, e.g. torus:3,4 or cycle:8")
    p.add_argument("--graph", help="edge-list (or .json) graph file")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
