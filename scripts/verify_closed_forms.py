#!/usr/bin/env python3
"""Sweep every closed form against its exact solver and tabulate agreement.

Exits nonzero when any point mismatches, mirroring `bdom verify`.  On this
corpus the cycle and domination-number rows agree everywhere; the torus
upper-domination rows do not, and the table makes the gap visible.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdom.sweeps import verify_point

SWEEPS = [
    ("cycle", "Gamma_b", [(None, n) for n in range(3, 13)]),
    ("torus", "gamma", [(3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]),
    ("torus", "gamma_b", [(3, 3), (3, 4), (4, 4)]),
    ("torus", "Gamma", [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]),
    ("torus", "Gamma_b", [(3, 3), (3, 4), (4, 4)]),
]
MATCH = {"true": "yes", "false": "NO", "": ""}


def main() -> int:
    mismatches = 0
    print(f"{'family':8s} {'point':8s} {'invariant':10s} {'closed':>7s} {'exact':>6s}  match")
    for family, which, points in SWEEPS:
        for m, n in points:
            row = verify_point(family, which, m, n)
            match = MATCH[row["match"]]
            mismatches += match == "NO"
            point = f"{n}" if m is None else f"{m}x{n}"
            print(f"{family:8s} {point:8s} {which:10s} {row['closed_form']!s:>7s} "
                  f"{row['exact']!s:>6s}  {match:3s} ({row['millis'] / 1000:.1f}s)")
    print(f"\nmismatches: {mismatches}")
    return 3 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
