"""Scaling sweep for the traced run: layer times against problem size.

Times ``realized``, ``arc_masses_at_depth``, a 6-level ``decompose`` and
``singular_inner_many`` (256 targets) on the triadic Cantor measure at
2^14, 2^16 and 2^18 atoms, and the Herglotz sum (``log_modulus_many`` on
2^14 atoms) and ``psi_sum_many`` (depth-7 triadic Carleson function) at
256, 1024 and 4096 targets.  Each time is the wall time of one call.
"""

from __future__ import annotations

import gc
import math
import random
import time

ATOM_STAGES = (14, 16, 18)
TARGETS = (256, 1024, 4096)
DECOMPOSE_GRID = (4, 8, 12, 16, 20, 24)


def _targets(rng: random.Random, count: int):
    import numpy as np
    r = [1.0 - 2.0 ** -rng.uniform(1.0, 12.0) for _ in range(count)]
    t = [rng.random() for _ in range(count)]
    return np.asarray(r) * np.exp(2j * math.pi * np.asarray(t))


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def run(seed: int) -> dict:
    from gst import fixtures, grids, inner_outer, roberts, weights
    rng = random.Random(seed)
    w = weights.power(1.0)
    grid = grids.DyadicGrid(DECOMPOSE_GRID)
    out = {}
    for stages in ATOM_STAGES:
        mu = fixtures.triadic_cantor_measure(stages)
        z = _targets(rng, 256)
        out[f"circle.realize_s.a{stages}"] = _timed(mu.realized)
        out[f"circle.arc_masses_s.a{stages}"] = _timed(
            mu.arc_masses_at_depth, 12)
        out[f"roberts.decompose_s.a{stages}"] = _timed(
            roberts.decompose, mu, grid, 0.1, w, len(DECOMPOSE_GRID))
        out[f"inner_outer.singular_inner_s.a{stages}"] = _timed(
            inner_outer.singular_inner_many, mu, z)
        del mu
        gc.collect()
    mu = fixtures.triadic_cantor_measure(14)
    mu.realized()
    G = inner_outer.carleson_outer(fixtures.triadic_cantor_set(7), w, 8.0)
    for count in TARGETS:
        z = _targets(rng, count)
        out[f"inner_outer.herglotz_s.t{count}"] = _timed(
            inner_outer.log_modulus_many, mu, z)
        out[f"inner_outer.psi_s.t{count}"] = _timed(
            inner_outer.psi_sum_many, G, z)
    return out
