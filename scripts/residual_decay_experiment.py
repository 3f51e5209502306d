#!/usr/bin/env python3
"""Residual-mass decay of iterated gratings across parameters.

Sweeps the grating constant c and the level count over the fixture
measures and writes one CSV row per run: measures carried by
finite-entropy sets keep a sticky residual, measures charging no such set
get ground down as levels accumulate.

Usage:
    python scripts/residual_decay_experiment.py [--out decay.csv]
"""

import argparse
import csv
import sys

from gst import fixtures, weights
from gst.grids import DyadicGrid
from gst.roberts import decompose


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="residual_decay.csv")
    ap.add_argument("--kmax", type=int, default=6)
    args = ap.parse_args()

    w = weights.power(1.0)
    grid = DyadicGrid((4, 8, 12, 16, 20, 24))
    rows = []
    for name, mu in fixtures.measure_fixtures().items():
        for c in (0.05, 0.1, 0.2):
            for k in range(1, args.kmax + 1):
                dec = decompose(mu, grid, c, w, k)
                rows.append({
                    "measure": name,
                    "c": c,
                    "k_max": k,
                    "residual_mass": dec.residual.total_mass(),
                    "heavy_final": dec.reports[-1].heavy_count,
                    "ledger": dec.light_entropy_ledgers[-1],
                    "ledger_bound": dec.carrier_entropy_bound,
                })
                print(f"{name:18s} c={c:<5g} k={k}: residual "
                      f"{rows[-1]['residual_mass']:.6f}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
