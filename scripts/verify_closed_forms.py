#!/usr/bin/env python3
"""Sweep every closed form against its exact solver, one `bdom verify` each.

Prints each sweep's CSV.  Exits with the first code that is neither 0 nor 3,
else 3 when any point mismatches.  On this corpus the cycle and
domination-number rows agree everywhere; the torus upper-domination rows do
not.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdom.cli import EXIT_MISMATCH, EXIT_OK, main

SWEEPS = [
    "--family cycle --which Gamma_b --n 3:12",
    "--family torus --which gamma --m 3:5 --n 4:5",
    "--family torus --which gamma_b --m 3:4 --n 3:4",
    "--family torus --which Gamma --m 3:5 --n 3:5",
    "--family torus --which Gamma_b --m 3:4 --n 3:4",
]

if __name__ == "__main__":
    codes = []
    for sweep in SWEEPS:
        codes.append(main(["verify", *sweep.split()]))
        if codes[-1] not in (EXIT_OK, EXIT_MISMATCH):
            raise SystemExit(codes[-1])
    raise SystemExit(max(codes))
