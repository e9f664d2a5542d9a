#!/usr/bin/env python3
"""Structural diametrical-tree test versus the exact solver, at desk scale.

Runs `bdom enumerate-check` on every tree of up to 9 vertices plus 200 seeded
random trees of 10..14 vertices, prints its JSON summary and exit code, and
writes each disagreeing tree to disagreements/ beside this script.  The rule
fails both ways: some trees pass every structural condition while a limb-tip
broadcast still beats the diameter, and one diametrical tree fails the
spacing table.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdom.cli import main

if __name__ == "__main__":
    dump_dir = Path(__file__).resolve().parent / "disagreements"
    raise SystemExit(main(["enumerate-check", "--max-n", "9", "--random", "200",
                           "--dump-dir", str(dump_dir)]))
