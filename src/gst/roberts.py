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
from dataclasses import dataclass, field

from .circle import CircleMeasure
from .grids import DyadicGrid, neg_log_at_depth, verify_grid
from .weights import Weight


def grating_threshold(n: int, c: float, w: Weight) -> float:
    """c * 2^-n * log(1/w(2^-n)); positive for every admissible weight."""
    u = neg_log_at_depth(w, n)
    if not u > 0:
        raise ValueError(f"w(2^-{n}) must lie strictly below 1")
    return c * 2.0 ** -n * u


@dataclass(frozen=True)
class GratingReport:
    depth: int
    threshold: float
    heavy_arcs: tuple          # dyadic indices, sorted
    heavy_masses: tuple        # mass before capping, per heavy arc
    light_arcs: tuple          # mass-carrying light indices, sorted
    total_mass_before: float

    @property
    def heavy_count(self) -> int:
        return len(self.heavy_arcs)


def grate(mu: CircleMeasure, n: int, c: float, w: Weight):
    """One grating pass; returns (capped measure, report).

    Ties (arc mass equal to the threshold) count as light, so the capped
    measure agrees with mu there.
    """
    if c <= 0:
        raise ValueError("grating parameter c must be positive")
    if n < 1:
        raise ValueError("grating depth must be at least 1")
    thr = grating_threshold(n, c, w)
    masses = mu.arc_masses_at_depth(n)
    heavy = sorted((i, m) for i, m in masses.items() if m > thr)
    light = tuple(sorted(i for i, m in masses.items() if 0 < m <= thr))
    factors = {i: thr / m for i, m in heavy}
    meta = {"depth": n, "c": c, "threshold": thr}
    piece = mu.scaled_on_arcs(n, factors, meta=meta, name=f"{mu.name}|grate{n}")
    report = GratingReport(
        depth=n, threshold=thr, heavy_arcs=tuple(i for i, _ in heavy),
        heavy_masses=tuple(m for _, m in heavy), light_arcs=light,
        total_mass_before=mu.total_mass())
    return piece, report


@dataclass
class RobertsDecomposition:
    pieces: list
    residual: CircleMeasure
    residual_masses: list         # residual total mass after each level
    heavy_sets: list              # (depth, sorted indices) per level
    reports: list
    c: float
    grid: DyadicGrid
    beta: float
    carrier_entropy_bound: float
    light_entropy_ledger: float
    decay_certificates: list = field(default_factory=list)
    total_mass: float = 0.0

    def mass_balance_error(self) -> float:
        recon = math.fsum(p.total_mass() for p in self.pieces)
        recon += self.residual.total_mass()
        return abs(recon - self.total_mass)

    def heavy_nesting_ok(self) -> bool:
        for (d0, h0), (d1, h1) in zip(self.heavy_sets, self.heavy_sets[1:]):
            parents = set(h0)
            shift = d1 - d0
            if any((i >> shift) not in parents for i in h1):
                return False
        return True

    def residual_in_heavy_sets(self) -> bool:
        r = self.residual.realized()
        return all(set(r.indices(depth).tolist()) <= set(heavy)
                   for depth, heavy in self.heavy_sets)

    def residual_carrier_gaps(self) -> list:
        """Gap lengths of the recorded carrier: complement arcs of the final
        heavy union.  At finite level count the carrier is a finite arc
        union, so the gap family is finite."""
        depth, heavy = self.heavy_sets[-1]
        if depth > 500:
            raise ValueError("carrier gaps not materializable at this depth")
        if not heavy:
            raise ValueError("no heavy arcs at the final level")
        scale = 2.0 ** -depth
        idx = sorted(heavy)
        runs = []
        run_start = prev = idx[0]
        for i in idx[1:]:
            if i != prev + 1:
                runs.append((run_start, prev))
                run_start = i
            prev = i
        runs.append((run_start, prev))
        gaps = []
        for (a0, a1), (b0, _b1) in zip(
                runs, runs[1:] + [(runs[0][0] + 2 ** depth, 0)]):
            length = (b0 - a1 - 1) * scale
            if length > 0:
                gaps.append(length)
        return gaps


def decompose(mu: CircleMeasure, grid: DyadicGrid, c: float, w: Weight,
              k_max: int) -> RobertsDecomposition:
    """Iterated gratings over the grid depths; stops after k_max levels.

    The residual is the remainder after the last level; ``residual_masses``
    records the remainder's mass after every level, so one call at k levels
    answers every k_max up to k.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    levels = min(k_max, len(grid.depths))
    check = verify_grid(grid, w)
    if not check.is_w_grid:
        raise ValueError("grid fails the w-grid condition")
    total = mu.total_mass()
    remainder = mu
    pieces, reports, heavy_sets, residual_masses = [], [], [], []
    for k in range(levels):
        n = grid.depths[k]
        piece, report = grate(remainder, n, c, w)
        pieces.append(piece)
        reports.append(report)
        heavy_sets.append((n, report.heavy_arcs))
        rem_factors = {i: 1.0 - report.threshold / m
                       for i, m in zip(report.heavy_arcs, report.heavy_masses)}
        for i in report.light_arcs:
            rem_factors[i] = 0.0
        remainder = remainder.scaled_on_arcs(
            n, rem_factors, name=f"{mu.name}|rem{k + 1}")
        residual_masses.append(remainder.total_mass())
    # entropy bookkeeping: all light arcs inside the previous heavy union,
    # counted in closed form since depth-n arcs share one length
    ledger = 0.0
    for k in range(1, levels):
        n_prev, heavy_prev = heavy_sets[k - 1]
        n_k, heavy_k = heavy_sets[k]
        sub = 2 ** (n_k - n_prev)
        light_count = len(heavy_prev) * sub - len(heavy_k)
        # exact int division: past depth 1023 the count overflows a float
        ledger += light_count / 2 ** n_k * neg_log_at_depth(w, n_k)
    beta = check.beta
    decay = []
    for (n, heavy), rep in zip(heavy_sets, reports):
        m_h = len(heavy) / 2 ** n
        decay.append({"depth": n, "heavy_measure": m_h,
                      "bound_value": c * m_h * neg_log_at_depth(w, n),
                      "total_mass": total})
    return RobertsDecomposition(
        pieces=pieces, residual=remainder, residual_masses=residual_masses,
        heavy_sets=heavy_sets, reports=reports, c=c, grid=grid, beta=beta,
        carrier_entropy_bound=(beta / c) * total,
        light_entropy_ledger=ledger, decay_certificates=decay,
        total_mass=total)
