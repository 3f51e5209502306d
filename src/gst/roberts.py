"""Grating of singular measures over dyadic grids and the iterated
decomposition mu = sum_k mu_k + mu_inf.

A depth-n grating caps the measure of every depth-n dyadic arc at the
threshold c 2^-n log(1/w(2^-n)): arcs at or below the threshold ("light")
pass through untouched, arcs above it ("heavy") are rescaled so the capped
arc carries exactly the threshold.  Iterating over the depths of a w-grid
peels the measure into pieces with controlled modulus of continuity plus a
residual supported on the nested intersection of heavy unions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleMeasure, MultiplierLayer
from .grids import DyadicGrid, verify_grid
from .weights import Weight


def grating_threshold(n: int, c: float, w: Weight) -> float:
    """c * 2^-n * log(1/w(2^-n)); positive for every admissible weight."""
    u = w.neg_log_at_depth(n)
    if not u > 0:
        raise ValueError(f"w(2^-{n}) must lie strictly below 1")
    return c * 2.0 ** -n * u


@dataclass(frozen=True, eq=False)
class GratingReport:
    """Index arrays are typed as ``Realization.indices`` types them."""

    depth: int
    threshold: float
    heavy_arcs: np.ndarray     # dyadic indices, increasing
    heavy_masses: np.ndarray   # mass before capping, per heavy arc
    light_arcs: np.ndarray     # mass-carrying light indices, increasing
    total_mass_before: float

    @property
    def heavy_count(self) -> int:
        return self.heavy_arcs.size


def grate(mu: CircleMeasure, n: int, c: float, w: Weight):
    """One grating pass; returns (capped piece, report, remainder).

    Ties (arc mass equal to the threshold) count as light, so the piece
    agrees with mu there.  One ``Realization.arcs`` pass groups the atoms
    by depth-n arc.  On a heavy arc of mass m the piece keeps thr/m of mu
    and the remainder 1 - thr/m; on a light arc the piece keeps all of it
    and the remainder nothing.  Both are realized at once from mu's
    realization.
    """
    if c <= 0:
        raise ValueError("grating parameter c must be positive")
    if n < 1:
        raise ValueError("grating depth must be at least 1")
    thr = grating_threshold(n, c, w)
    r = mu.realized()
    keys, where = r.arcs(n)
    # bincount adds each arc's masses in atom order; int64 when empty
    masses = np.bincount(where, weights=r.masses).astype(float, copy=False)
    heavy, held = masses > thr, masses > 0
    report = GratingReport(
        depth=n, threshold=thr, heavy_arcs=keys[heavy],
        heavy_masses=masses[heavy], light_arcs=keys[held & ~heavy],
        total_mass_before=mu.total_mass())
    cap = np.ones(keys.size)
    cap[heavy] = thr / report.heavy_masses
    rest = 1.0 - cap  # 0 on light arcs
    piece = mu.scaled_on_arcs(
        MultiplierLayer(n, report.heavy_arcs, cap[heavy]), cap, where,
        name=f"{mu.name}|grate{n}")
    remainder = mu.scaled_on_arcs(MultiplierLayer(n, keys[held], rest[held]),
                                  rest, where, name=f"{mu.name}|rem{n}")
    return piece, report, remainder


@dataclass
class RobertsDecomposition:
    pieces: list
    residual: CircleMeasure
    residual_masses: list         # residual total mass after each level
    reports: list                 # one GratingReport per level
    beta: float
    carrier_entropy_bound: float
    light_entropy_ledgers: list   # the light-entropy ledger after each level
    total_mass: float = 0.0

    def mass_balance_error(self, levels: int = 0) -> float:
        """|pieces + residual - total| after ``levels`` levels, or all (0)."""
        recon = math.fsum(p.total_mass() for p in self.pieces[:levels or None])
        recon += self.residual_masses[levels - 1]
        return abs(recon - self.total_mass)

    def heavy_nesting_ok(self) -> bool:
        return all(np.isin(r1.heavy_arcs >> (r1.depth - r0.depth),
                           r0.heavy_arcs).all()
                   for r0, r1 in zip(self.reports, self.reports[1:]))

    def residual_carrier_gaps(self) -> list:
        """Gap lengths of the recorded carrier: complement arcs of the final
        heavy union.  At finite level count the carrier is a finite arc
        union, so the gap family is finite."""
        depth, heavy = self.reports[-1].depth, self.reports[-1].heavy_arcs
        if depth > 500:
            raise ValueError("carrier gaps not materializable at this depth")
        if not heavy.size:
            raise ValueError("no heavy arcs at the final level")
        # runs of consecutive heavy arcs; a gap runs from the end of one to
        # the start of the next, the last one around to the first
        breaks = np.flatnonzero(np.diff(heavy) != 1)
        ends = heavy[np.append(breaks, heavy.size - 1)]
        starts = heavy[np.append(0, breaks + 1)]
        lengths = (np.append(starts[1:], starts[0] + 2 ** depth) - ends - 1
                   ) * 2.0 ** -depth
        return lengths[lengths > 0].tolist()


def decompose(mu: CircleMeasure, grid: DyadicGrid, c: float, w: Weight,
              k_max: int) -> RobertsDecomposition:
    """Iterated gratings over the grid depths; stops after k_max levels.

    Each level grates the last remainder (``grate``, one arc pass), which
    gives that level's piece and the next remainder.  The residual is the
    remainder after the last level; its mass and the
    light-entropy ledger are recorded after every level, which does not
    depend on later ones, so one call at k levels answers every k_max <= k.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    levels = min(k_max, len(grid.depths))
    check = verify_grid(grid, w)
    if not check.is_w_grid:
        raise ValueError("grid fails the w-grid condition")
    total = mu.total_mass()
    remainder = mu
    pieces, reports, residual_masses = [], [], []
    for n in grid.depths[:levels]:
        piece, report, remainder = grate(remainder, n, c, w)
        pieces.append(piece)
        reports.append(report)
        residual_masses.append(remainder.total_mass())
    # entropy bookkeeping: all light arcs inside the previous heavy union,
    # counted in closed form since depth-n arcs share one length
    ledgers = [0.0]
    for prev, rep in zip(reports, reports[1:]):
        n_k = rep.depth
        light_count = prev.heavy_count * 2 ** (n_k - prev.depth) \
            - rep.heavy_count
        # exact int division: past depth 1023 the count overflows a float
        ledgers.append(
            ledgers[-1] + light_count / 2 ** n_k * w.neg_log_at_depth(n_k))
    beta = check.beta
    return RobertsDecomposition(
        pieces=pieces, residual=remainder, residual_masses=residual_masses,
        reports=reports, beta=beta,
        carrier_entropy_bound=(beta / c) * total,
        light_entropy_ledgers=ledgers, total_mass=total)
