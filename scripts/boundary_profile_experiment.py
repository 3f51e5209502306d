#!/usr/bin/env python3
"""Boundary decay profile of the gap-family outer function.

For a chosen set and weight, builds the outer function at increasing N and
records |G| against w(dist(., set)) along the circle and against w(1-|z|)
along the star-domain lid: the data behind the choice of N.

Usage:
    python scripts/boundary_profile_experiment.py [--set triadic] [--out profile.csv]
"""

import argparse
import csv
import sys

import numpy as np

from gst import fixtures, weights
from gst.circle import point_set
from gst.inner_outer import carleson_many, carleson_outer, unit_point
from gst.privalov import PrivalovDomain, boundary_samples_with_profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", default="point",
                    choices=["point", "triadic"])
    ap.add_argument("--weight", default="power:1")
    ap.add_argument("--out", default="boundary_profile.csv")
    args = ap.parse_args()

    E = point_set([0.0]) if args.set == "point" \
        else fixtures.triadic_cantor_set(6)
    w = weights.from_spec(args.weight)
    D = PrivalovDomain(E)

    rows = []
    for N in (1.0, 2.0, 4.0, 8.0, 16.0):
        G = carleson_outer(E, w, N)
        # circle samples in the largest gap, log-spaced toward one endpoint
        j = int(np.argmax(E.lengths))
        ss = 2.0 ** -np.arange(2, 24)
        ts = (E.starts[j] + E.lengths[j] * ss) % 1.0
        zc = unit_point(ts) * (1.0 - 1e-12)
        vals, _ = carleson_many(G, zc)
        dists = E.dist(ts)
        for t, d, v in zip(ts, dists, vals):
            rows.append({"N": N, "kind": "circle", "coord": float(t),
                         "dist": float(d), "abs_G": float(abs(v)),
                         "w_ref": float(w(d))})
        zs, hs = boundary_samples_with_profile(D, 256)
        vals, _ = carleson_many(G, zs)
        worst = float(np.max((np.abs(vals)) / np.asarray(w(hs))))
        rows.append({"N": N, "kind": "lid_max_ratio", "coord": "",
                     "dist": "", "abs_G": worst, "w_ref": 1.0})
        print(f"N={N:<4g} lid max |G|/w(1-|z|) = {worst:.4g}"
              f" {'<= 1 OK' if worst <= 1 + 1e-9 else ''}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
