#!/usr/bin/env python3
"""Structural diametrical-tree test versus the exact solver, at desk scale.

Checks every tree on up to 9 vertices exhaustively plus 200 seeded random
trees on 10..14 vertices, prints the agreement summary, and writes each
disagreeing tree to disagreements/ as an edge list.  The rule fails both
ways: some trees pass every structural condition while a limb-tip broadcast
still beats the diameter, and one diametrical tree fails the spacing table.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdom import sweeps


def main() -> int:
    started = time.monotonic()
    checks = [sweeps.check_tree(t) for t in sweeps.classification_corpus()]
    out_dir = Path(__file__).resolve().parent / "disagreements"
    sweeps.dump_disagreements(checks, out_dir)
    summary = sweeps.summarize(checks)

    elapsed = time.monotonic() - started
    print(f"trees checked:     {summary['trees']}")
    print(f"diametrical:       {summary['diametrical']}")
    print(f"agreements:        {summary['agreements']}")
    print(f"disagreements:     {summary['disagreements']}")
    print(f"elapsed:           {elapsed:.1f}s")
    if summary["disagreements"]:
        print(f"disagreeing trees written to {out_dir}/")
    return 3 if summary["disagreements"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
