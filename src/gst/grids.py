"""Dyadic depth sequences adapted to a weight.

A depth sequence {n_k} is a w-grid when some power beta makes
w^beta(2^-n_k) <= w(2^-n_{k+1}) for all k.  The constructor scans, for each
level, for the smallest depth multiplying eta(t) = lambda log(1/w(t)) by at
least C; monotonicity and the halving inequality
(1/2) eta(t/2) <= eta(t) <= eta(t/2) pin the post-hoc ratio below 10C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .util import as_float, as_int, as_list, fields
from .weights import Weight, effective_lambda

DEPTH_CAP = 10 ** 7  # deepest grid level: n log 2 stays an ordinary float


class GridConstructionError(RuntimeError):
    """A grid level that cannot be built, after the levels ``depths``."""

    def __init__(self, message: str, depths: tuple = ()):
        super().__init__(message)
        self.depths = depths


@dataclass(frozen=True)
class DyadicGrid:
    depths: tuple
    C_param: Optional[float] = None
    lam: float = 1.0

    def __post_init__(self):
        if not self.depths or self.depths[0] < 1:
            raise ValueError("grid depths must start at a positive depth")
        if any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ValueError("grid depths must be strictly increasing")
        if self.depths[-1] > DEPTH_CAP:
            raise ValueError(f"grid depths must be at most {DEPTH_CAP}")
        if self.C_param is not None and not self.C_param > 2:
            raise ValueError("construction parameter C must exceed 2")
        if not self.lam > 0:
            raise ValueError("grid lambda must be positive")


def build_grid(w: Weight, n0: int, C: float, k_max: int) -> DyadicGrid:
    """Recursive grid construction: each step multiplies eta by at least C."""
    if C <= 2:
        raise ValueError("C must exceed 2")
    if not 1 <= n0 <= DEPTH_CAP:
        raise ValueError(f"n0 must be an integer in 1 .. {DEPTH_CAP}")
    if k_max < 0:
        raise ValueError(f"k_max {k_max} is negative")
    lam = effective_lambda(w)
    if lam * w.neg_log_at_depth(n0) <= math.log(2.0) * (1.0 + 1e-12):
        raise ValueError(
            f"w^lambda(2^-{n0}) >= 1/2: choose a larger starting depth n0")

    def eta(n: int) -> float:
        return lam * w.neg_log_at_depth(n)

    depths = [n0]
    for _ in range(k_max):
        cur = depths[-1]
        # relative slack so exact ratio ties are not lost to rounding
        target = C * eta(cur) * (1.0 - 1e-12)
        lo, hi = cur, cur + 1
        while eta(hi) < target:
            lo = hi
            hi = min(2 * hi, DEPTH_CAP)
            if hi == DEPTH_CAP and eta(hi) < target:
                raise GridConstructionError(
                    f"depth cap {DEPTH_CAP} reached before eta ratio {C}",
                    tuple(depths))
        while hi - lo > 1:  # smallest n with eta(n) >= target
            mid = (lo + hi) // 2
            if eta(mid) >= target:
                hi = mid
            else:
                lo = mid
        ratio = eta(hi) / eta(cur)
        if ratio >= 10 * C:
            raise GridConstructionError(
                "eta ratio overshoots 10C: the halving inequality "
                "(1/2) eta(t/2) <= eta(t) fails for this weight",
                tuple(depths))
        depths.append(hi)
    return DyadicGrid(tuple(depths), C_param=C, lam=lam)


def feasible_grid(w: Weight, n0: int, C: float, k_max: int) -> DyadicGrid:
    """build_grid with the level count backed off to fit the depth cap.

    Slow weights (iterated logs) may exhaust the 10^7 depth cap after a few
    levels; the deepest achievable grid still certifies the construction.
    The levels are greedy: it is the levels built before the first error.
    """
    try:
        g = build_grid(w, n0, C, k_max)
    except GridConstructionError as exc:
        g = DyadicGrid(exc.depths, C_param=C, lam=effective_lambda(w))
    if len(g.depths) < 2:
        raise GridConstructionError(
            f"no grid level fits below the depth cap for {w.label()}")
    return g


@dataclass(frozen=True)
class GridCheck:
    is_w_grid: bool
    beta: float
    superlacunary: bool


def verify_grid(g: DyadicGrid, w: Weight) -> GridCheck:
    """Smallest admissible beta plus the product-domination property.

    beta is max_k log w(2^-n_{k+1}) / log w(2^-n_k); the grid condition
    holds with that exponent.  The product property is checked in log
    space: sum_{j<=k} log(1/w(2^-n_j)) <= log(1/w(2^-n_{k+1})).
    """
    us = [w.neg_log_at_depth(n) for n in g.depths]
    if any(u <= 0 or not math.isfinite(u) for u in us):
        return GridCheck(False, math.nan, False)
    if len(us) == 1:
        return GridCheck(True, 1.0, True)
    ratios = [b / a for a, b in zip(us, us[1:])]
    beta = max(ratios)
    running = 0.0
    superlac = True
    for j in range(len(us) - 1):
        running += us[j]
        if running > us[j + 1] * (1.0 + 1e-12):
            superlac = False
            break
    return GridCheck(math.isfinite(beta), beta, superlac)


def geometric_sum_margin(g: DyadicGrid, w: Weight) -> float:
    """Worst slack in sum_{j<=k} eta_j <= eta_{k+1} / (C-1) over built grids."""
    if g.C_param is None:
        raise ValueError("grid lacks a construction parameter")
    us = [w.neg_log_at_depth(n) for n in g.depths]
    worst = -math.inf
    running = 0.0
    for j in range(len(us) - 1):
        running += us[j]
        worst = max(worst, running - us[j + 1] / (g.C_param - 1.0))
    return worst


def grid_to_json(g: DyadicGrid) -> dict:
    return {"depths": list(g.depths), "C": g.C_param, "lambda": g.lam}


def grid_from_json(obj) -> DyadicGrid:
    """A grid from its JSON form, or from the bare list of its depths."""
    if isinstance(obj, list):
        obj = {"depths": obj}
    fields(obj, "grid", "depths", optional=("C", "lambda"))
    C = obj.get("C")
    return DyadicGrid(tuple(as_int(n, "grid depth")
                            for n in as_list(obj["depths"], "grid depths")),
                      C_param=None if C is None else as_float(C, "grid C"),
                      lam=as_float(obj.get("lambda", 1.0), "grid lambda"))
