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


def grate(mu: CircleMeasure, n: int, c: float, w: Weight, idx=None):
    """One grating pass; returns (capped measure, report).

    Ties (arc mass equal to the threshold) count as light, so the capped
    measure agrees with mu there.  ``idx`` are the atoms' depth-n indices
    (computed here when not given); the capped measure is realized from
    them at once, with no second index pass.
    """
    if c <= 0:
        raise ValueError("grating parameter c must be positive")
    if n < 1:
        raise ValueError("grating depth must be at least 1")
    thr = grating_threshold(n, c, w)
    if idx is None:
        idx = mu.realized().indices(n)
    keys, masses = mu.arc_masses_at_depth(n, idx)
    heavy = masses > thr
    light = (masses > 0) & ~heavy
    report = GratingReport(
        depth=n, threshold=thr, heavy_arcs=keys[heavy],
        heavy_masses=masses[heavy], light_arcs=keys[light],
        total_mass_before=mu.total_mass())
    piece = mu.scaled_on_arcs(
        MultiplierLayer(n, report.heavy_arcs, thr / report.heavy_masses),
        idx, name=f"{mu.name}|grate{n}")
    return piece, report


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

    The residual is the remainder after the last level; its mass and the
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
    for k in range(levels):
        n = grid.depths[k]
        # one index pass per level, shared by the grating and the remainder
        idx = remainder.realized().indices(n)
        piece, report = grate(remainder, n, c, w, idx)
        pieces.append(piece)
        reports.append(report)
        # the remainder keeps 1 - thr/m of a heavy arc, nothing of a light one
        keys = np.concatenate([report.heavy_arcs, report.light_arcs])
        factors = np.concatenate([1.0 - report.threshold / report.heavy_masses,
                                  np.zeros(report.light_arcs.size)])
        order = np.argsort(keys, kind="stable")
        remainder = remainder.scaled_on_arcs(
            MultiplierLayer(n, keys[order], factors[order]), idx,
            name=f"{mu.name}|rem{k + 1}")
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
