"""Arc arithmetic, Lebesgue-null closed sets and singular measures on the circle.

The circle has total length 1 (unit-normalized arc length).  Arcs are
half-open [start, start + length) with wraparound, so partitions are exact.
Closed null sets are stored through their complementary open arcs ("gaps"),
optionally with a closed-form tail model describing gap families too deep
to materialize.  Cantor-type measure components are realized exactly, at a
finite stage count, as atoms sitting at left endpoints of the terminal
cells; the left endpoints are genuine carrier points, mass queries become
exact, and the component still remembers its carrier set for entropy-based
classification.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

CIRCLE_TOL = 1e-12


def frac_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def dyadic_index(pos: Fraction, depth: int) -> int:
    """Index of the depth-n dyadic arc containing pos (exact)."""
    num, den = pos.numerator, pos.denominator
    return ((num << depth) // den) % (1 << depth)


@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, start + length) mod 1; m(Arc) = length."""

    start: float
    length: float

    def __post_init__(self):
        if not (0.0 <= self.start < 1.0):
            raise ValueError("arc start must lie in [0,1)")
        if not (0.0 < self.length <= 1.0):
            raise ValueError("arc length must lie in (0,1]")

    @property
    def end(self) -> float:
        return (self.start + self.length) % 1.0

    @property
    def midpoint(self) -> float:
        return (self.start + self.length / 2.0) % 1.0

    def contains(self, x) -> bool:
        rel = (x - self.start) % 1
        return rel < self.length

    def contains_open(self, x, margin: float = 0.0) -> bool:
        rel = (x - self.start) % 1
        return margin < rel < self.length - margin


def dyadic_arc(index: int, depth: int) -> Arc:
    scale = 2.0 ** -depth
    return Arc((index % (1 << depth)) * scale, scale)


# ---------------------------------------------------------------------------
# Tail models for gap families that are not materialized
# ---------------------------------------------------------------------------

# S = sum_{k>=2} 1/(k log^2 k), to double precision: the partial sum to N
# plus the Euler-Maclaurin midpoint tail 1/log(N + 1/2) gives this value
# for every N from 10^6 to 4 10^6.  The log-series gap families normalize
# their amplitude by it.
LOG_SERIES = 2.109742801236892
LOG_SERIES_TERMS = 4_000_000


def log_series_tail(K) -> float:
    """sum_{k > K} 1/(k log^2 k); the midpoint tail beyond the summed terms."""
    if K >= LOG_SERIES_TERMS:
        return 1.0 / math.log(K + 0.5)
    ks = np.arange(2.0, K + 1.0)
    return LOG_SERIES - float(np.sum(1.0 / (ks * np.log(ks) ** 2)))


@dataclass(frozen=True)
class GapTail:
    """Closed-form description of the unmaterialized gaps of a set.

    kinds:
      geometric_levels: level n > first_level has ``count_base**(n-1) * count0``
          gaps of length ``length0 * ratio**n`` (triadic Cantor and relatives).
      harmonic_log: gaps l_k = amp / (k log^2 k) for k > first_index.
      stagewise_log: stage j >= first_stage removes 2^j gaps of total length
          s_j = amp / ((j+2) log^2 (j+2)).
    """

    kind: str
    params: tuple

    def gap_mass(self) -> float:
        if self.kind == "geometric_levels":
            count0, base, length0, ratio, first = self.params
            # sum_{n > first} count0 * base^(n-1) * length0 * ratio^n
            q = base * ratio
            return count0 * length0 * ratio * q ** first / (1.0 - q) * 1.0 \
                if q < 1 else math.inf
        if self.kind == "harmonic_log":
            amp, first = self.params
            return amp * log_series_tail(first)
        if self.kind == "stagewise_log":
            amp, first = self.params
            # stage j holds the k = j + 2 term
            return amp * log_series_tail(first + 1)
        raise ValueError(self.kind)

    def levels(self, n_levels: int):
        """(count, length) arrays for the first n_levels unmaterialized levels."""
        if self.kind == "geometric_levels":
            count0, base, length0, ratio, first = self.params
            n = np.arange(first + 1, first + 1 + n_levels, dtype=float)
            return count0 * base ** (n - 1), length0 * ratio ** n
        if self.kind == "harmonic_log":
            amp, first = self.params
            k = np.arange(first + 1, first + 1 + n_levels, dtype=float)
            return np.ones_like(k), amp / (k * np.log(k) ** 2)
        if self.kind == "stagewise_log":
            amp, first = self.params
            j = np.arange(first, first + n_levels, dtype=float)
            s = amp / ((j + 2.0) * np.log(j + 2.0) ** 2)
            return 2.0 ** j, s / 2.0 ** j
        raise ValueError(self.kind)


# ---------------------------------------------------------------------------
# Closed null sets
# ---------------------------------------------------------------------------

class ClosedCircleSet:
    """A closed Lebesgue-null subset of the circle, stored via its gaps.

    ``gaps`` are disjoint open arcs sorted by start; their lengths together
    with the tail model's gap mass must exhaust the circle.  Points of the
    set are exactly the points in no open gap.
    """

    def __init__(self, gaps: Iterable[Arc], tail: Optional[GapTail] = None,
                 name: str = ""):
        self.gaps = tuple(sorted(gaps, key=lambda g: g.start))
        self.tail = tail
        self.name = name
        total = math.fsum(g.length for g in self.gaps)
        tail_mass = tail.gap_mass() if tail is not None else 0.0
        # the empty-gap set is the whole circle: the degenerate identity
        # element for restriction, exempt from the null-set requirement
        if self.gaps or tail is not None:
            if abs(total + tail_mass - 1.0) > 1e-9:
                raise ValueError(
                    f"gap lengths sum to {total + tail_mass}, expected 1")
        for a, b in zip(self.gaps, self.gaps[1:]):
            if a.start + a.length > b.start + CIRCLE_TOL:
                raise ValueError("gaps overlap")
        self._starts = [g.start for g in self.gaps]

    def __repr__(self):
        return (f"ClosedCircleSet({self.name or len(self.gaps)} gaps"
                f"{', tailed' if self.tail else ''})")

    def _gap_at(self, x: float, margin: float = 0.0) -> Optional[Arc]:
        if not self.gaps:
            return None
        i = bisect_right(self._starts, x) - 1
        for j in (i, len(self.gaps) - 1):  # last gap may wrap past 1
            g = self.gaps[j]
            if g.contains_open(x, margin):
                return g
        return None

    def dist(self, x: float) -> float:
        """Arc-length distance from x to the set (0 on the set itself)."""
        g = self._gap_at(x % 1.0)
        if g is None:
            return 0.0
        rel = (x - g.start) % 1.0
        return min(rel, g.length - rel)

    def contains_point(self, x) -> bool:
        # points within CIRCLE_TOL of a gap endpoint count as set points:
        # endpoints belong to the set and float images of exact endpoints
        # may land a few ulps inside the open gap
        return self._gap_at(float(x) % 1.0, margin=CIRCLE_TOL) is None

    def points(self) -> list:
        """Gap endpoints (all are set points); the full set for finite sets."""
        pts = set()
        for g in self.gaps:
            pts.add(g.start % 1.0)
            pts.add((g.start + g.length) % 1.0)
        return sorted(pts)

    def gap_lengths_decreasing(self) -> np.ndarray:
        return np.sort(np.array([g.length for g in self.gaps]))[::-1]


def point_set(positions) -> ClosedCircleSet:
    """The finite set consisting of the given points."""
    pos = sorted(p % 1.0 for p in positions)
    if not pos:
        raise ValueError("need at least one point")
    gaps = []
    for a, b in zip(pos, pos[1:] + [pos[0] + 1.0]):
        if b - a > 0:
            gaps.append(Arc(a % 1.0, b - a))
    return ClosedCircleSet(gaps, name=f"{len(pos)} points")


def set_union(e1: ClosedCircleSet, e2: ClosedCircleSet) -> ClosedCircleSet:
    """Union of two sets via intersected gap lists (explicit gaps only)."""
    if e1.tail is not None and e2.tail is not None:
        raise ValueError("cannot union two tailed sets")
    if e2.tail is not None:
        e1, e2 = e2, e1
    # insert every point of e2 into the gap structure of e1
    gaps = list(e1.gaps)
    for p in e2.points():
        out = []
        for g in gaps:
            rel = (p - g.start) % 1.0
            if 0 < rel < g.length:
                out.append(Arc(g.start, rel))
                out.append(Arc((g.start + rel) % 1.0, g.length - rel))
            else:
                out.append(g)
        gaps = out
    return ClosedCircleSet(gaps, tail=e1.tail,
                           name=f"union({e1.name},{e2.name})")


# ---------------------------------------------------------------------------
# Cantor-type generators and measure components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CantorGenerator:
    """Binary splitting rule: stage j removes a centered gap from each cell.

    ``stage_gap(j)`` is the total length removed at stage j across all 2^j
    cells; the two children keep half the parent's mass each.
    """

    kind: str  # "triadic" or "stagewise_log"
    amp: Fraction = Fraction(0)

    def stage_gap(self, j: int) -> Fraction:
        if self.kind == "triadic":
            # middle thirds: total removed at stage j is (1/3)(2/3)^j
            return Fraction(1, 3) * Fraction(2, 3) ** j
        if self.kind == "stagewise_log":
            val = float(self.amp) / ((j + 2.0) * math.log(j + 2.0) ** 2)
            return Fraction(val)  # float value, hence an exact dyadic rational
        raise ValueError(self.kind)


class CantorPart:
    """A Cantor-type singular component realized at a finite stage count.

    The realization places each terminal cell's mass as an atom at the
    cell's left endpoint (a point of the true carrier).  ``carrier`` keeps
    the underlying closed set, including its unmaterialized tail, for
    entropy certificates.
    """

    def __init__(self, generator: CantorGenerator, stages: int, mass: float,
                 carrier_depth: int = 10):
        if stages < 1 or stages > 22:
            raise ValueError("stages must lie in 1..22 at desk scale")
        self.generator = generator
        self.stages = stages
        self.mass = float(mass)
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"component mass {mass!r} must be finite and "
                             "positive")
        self._atoms_cache = None
        self.carrier = self._build_carrier(min(carrier_depth, stages))

    def _cells(self, upto: int):
        """(left endpoint, length) of the stage-``upto`` cells, in order."""
        cells = [(Fraction(0), Fraction(1))]
        for j in range(upto):
            g = self.generator.stage_gap(j) / (1 << j)  # per-cell gap
            out = []
            for pos, ln in cells:
                child = (ln - g) / 2
                if child <= 0:
                    raise ValueError("stage gaps exceed cell length")
                out.append((pos, child))
                out.append((pos + child + g, child))
            cells = out
        return cells

    def _build_carrier(self, depth: int) -> ClosedCircleSet:
        # the gaps removed by stages < depth are exactly the spaces between
        # consecutive stage-depth cells (the first starts at 0, the last
        # ends at 1, so no gap wraps)
        cells = self._cells(depth)
        gaps = [Arc(float(pos + ln) % 1.0, float(nxt - pos - ln))
                for (pos, ln), (nxt, _) in zip(cells, cells[1:])]
        if self.generator.kind == "triadic":
            # level n has 2^(n-1) gaps of length 3^-n
            tail = GapTail("geometric_levels", (1.0, 2.0, 1.0, 1.0 / 3.0, depth))
            name = f"triadic({depth})"
        else:
            tail = GapTail("stagewise_log", (float(self.generator.amp), depth))
            name = f"stagewise({depth})"
        return ClosedCircleSet(gaps, tail=tail, name=name)

    def atoms(self):
        """(positions as Fractions, masses ndarray) of the realization."""
        if self._atoms_cache is None:
            cells = self._cells(self.stages)
            pos = [c[0] for c in cells]
            masses = np.full(len(cells), self.mass / len(cells))
            self._atoms_cache = (pos, masses)
        return self._atoms_cache


def triadic_generator() -> CantorGenerator:
    return CantorGenerator("triadic")


def stagewise_log_generator() -> CantorGenerator:
    return CantorGenerator("stagewise_log", Fraction(1.0 / LOG_SERIES))


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierLayer:
    """Per-dyadic-arc damping factors at one depth (sparse; default 1)."""

    depth: int
    factors: dict  # arc index -> factor in [0,1]

    def __post_init__(self):
        if not all(0.0 <= f <= 1.0 for f in self.factors.values()):
            raise ValueError("multiplier factors must lie in [0,1]")

    def factor_at(self, pos: Fraction) -> float:
        return self.factors.get(dyadic_index(pos, self.depth), 1.0)


@dataclass(frozen=True)
class MassResult:
    mass: float
    err: float


class CircleMeasure:
    """A positive finite singular measure: atoms plus Cantor-type parts.

    Multiplier layers damp the measure on selected dyadic arcs; gratings
    are recorded this way.  All mass queries are exact (err = 0) because
    components realize to finitely many atoms.
    """

    def __init__(self, atoms=(), cantor_parts=(), multipliers=(),
                 grating_meta: Optional[dict] = None, name: str = ""):
        self.atom_list = []
        for p, m in atoms:
            if isinstance(p, float) and not math.isfinite(p):
                raise ValueError(f"atom position {p!r} is not finite")
            m = float(m)
            if not 0.0 < m < math.inf:
                raise ValueError(f"atom mass {m!r} must be finite and "
                                 "positive")
            self.atom_list.append(
                (p if isinstance(p, Fraction) else Fraction(p), m))
        self.cantor_parts = tuple(cantor_parts)
        self.multipliers = tuple(multipliers)
        self.grating_meta = grating_meta
        self.name = name
        self._realized = None

    # -- realization --------------------------------------------------------

    def realized(self):
        """(positions list[Fraction], masses ndarray) with multipliers applied."""
        if self._realized is None:
            pos: list = [frac_mod1(p) for p, _ in self.atom_list]
            masses = [m for _, m in self.atom_list]
            for part in self.cantor_parts:
                ppos, pmass = part.atoms()
                pos.extend(frac_mod1(p) for p in ppos)
                masses.extend(pmass)
            masses = np.array(masses, dtype=float)
            for layer in self.multipliers:
                fac = np.array([layer.factor_at(p) for p in pos])
                masses = masses * fac
            # masses are validated positive: zeros come from factor-0 layers
            keep = masses > 0
            pos = [p for p, k in zip(pos, keep) if k]
            self._realized = (pos, masses[keep])
        return self._realized

    def positions_float(self) -> np.ndarray:
        pos, _ = self.realized()
        return np.array([float(p) for p in pos])

    def total_mass(self) -> float:
        _, masses = self.realized()
        return float(np.sum(masses))

    # -- queries -------------------------------------------------------------

    def mass_of_arc(self, arc: Arc) -> MassResult:
        """Measure of a half-open arc; exact by the atomic realization."""
        pos, masses = self.realized()
        start = Fraction(arc.start)
        length = Fraction(arc.length)
        total = 0.0
        for p, m in zip(pos, masses):
            if frac_mod1(p - start) < length:
                total += m
        return MassResult(total, 0.0)

    def arc_masses_at_depth(self, depth: int) -> dict:
        """Masses of all depth-n dyadic arcs carrying mass (exact)."""
        pos, masses = self.realized()
        out: dict = {}
        for p, m in zip(pos, masses):
            i = dyadic_index(p, depth)
            out[i] = out.get(i, 0.0) + m
        return out

    def scaled_on_arcs(self, depth: int, factors: dict, meta=None,
                       name: str = "") -> "CircleMeasure":
        """New measure with an extra multiplier layer at the given depth."""
        return CircleMeasure(
            atoms=self.atom_list, cantor_parts=self.cantor_parts,
            multipliers=self.multipliers + (MultiplierLayer(depth, factors),),
            grating_meta=meta, name=name or self.name)

    def restrict(self, closed_set: ClosedCircleSet) -> "CircleMeasure":
        """Restriction to a closed set: atoms kept iff they lie in the set."""
        pos, masses = self.realized()
        kept = [(p, m) for p, m in zip(pos, masses)
                if closed_set.contains_point(float(p))]
        return CircleMeasure(atoms=kept, name=f"{self.name}|restricted")


def zero_measure() -> CircleMeasure:
    return CircleMeasure(name="zero")


def atom_measure(position, mass: float = 1.0, name: str = "") -> CircleMeasure:
    return CircleMeasure(atoms=[(Fraction(position), mass)],
                         name=name or "atom")


# ---------------------------------------------------------------------------
# Modulus of continuity of a measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusOfMeasure:
    delta: float
    upper: float
    lower: float


def modulus_of_continuity(nu: CircleMeasure, delta: float,
                          eps: float = 1e-12) -> ModulusOfMeasure:
    """Two-sided bracket for sup { nu(I) : m(I) <= delta }.

    lower: exact maximum over windows anchored at atom positions; for the
    realized measure this is the true supremum, so it is also reported as
    the upper bound.  The covering family of 2*delta-arcs at stride delta
    dominates the supremum by subadditivity and is kept as a cross-check
    (the returned upper never exceeds it).
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0,1]")
    pos = nu.positions_float()
    _, masses = nu.realized()
    if pos.size == 0:
        return ModulusOfMeasure(delta, 0.0, 0.0)
    order = np.argsort(pos)
    p = pos[order]
    m = masses[order]
    # unroll one extra turn so windows may wrap
    p2 = np.concatenate([p, p + 1.0])
    csum = np.concatenate([[0.0], np.cumsum(np.concatenate([m, m]))])
    n = p.size
    total = float(np.sum(m))
    ends = np.searchsorted(p2, p + delta, side="left")
    lo = float(np.max(csum[ends] - csum[np.arange(n)]))
    lo = min(lo, total)
    # covering upper bound: only the stride windows that meet an atom matter
    width = min(2.0 * delta, 1.0)
    js = np.unique(np.concatenate([np.floor(p / delta),
                                   np.floor(p / delta) - 1.0]))
    starts = (js * delta) % 1.0
    a2 = np.searchsorted(p2, starts, side="left")
    b2 = np.searchsorted(p2, starts + width, side="left")
    covering = float(np.max(csum[b2] - csum[a2])) if starts.size else 0.0
    covering = min(covering, total)
    return ModulusOfMeasure(delta, min(lo, covering), lo)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def set_to_json(e: ClosedCircleSet) -> dict:
    out = {"gaps": [[g.start, g.length] for g in e.gaps]}
    if e.tail is not None:
        out["tail"] = {"kind": e.tail.kind, "params": list(e.tail.params)}
    if e.name:
        out["name"] = e.name
    return out


def set_from_json(obj: dict) -> ClosedCircleSet:
    tail = None
    if "tail" in obj:
        tail = GapTail(obj["tail"]["kind"], tuple(obj["tail"]["params"]))
    return ClosedCircleSet([Arc(s, ln) for s, ln in obj["gaps"]], tail=tail,
                           name=obj.get("name", ""))


def measure_to_json(mu: CircleMeasure) -> dict:
    out: dict = {"atoms": [{"pos": float(p), "mass": m}
                           for p, m in mu.atom_list]}
    cantor = []
    for part in mu.cantor_parts:
        cantor.append({"generator": part.generator.kind,
                       "depth": part.stages, "mass": part.mass})
    out["cantor"] = cantor
    if mu.multipliers:
        out["multipliers"] = [
            {"depth": layer.depth,
             "factors": {str(k): v for k, v in layer.factors.items()}}
            for layer in mu.multipliers]
    if mu.name:
        out["name"] = mu.name
    return out


def measure_from_json(obj: dict) -> CircleMeasure:
    atoms = [(a["pos"], a["mass"]) for a in obj.get("atoms", ())]
    parts = []
    for c in obj.get("cantor", ()):
        gen_name = c["generator"]
        if gen_name == "triadic":
            gen = triadic_generator()
        elif gen_name in ("stagewise_log", "divergent"):
            gen = stagewise_log_generator()
        else:
            raise ValueError(f"unknown generator {gen_name!r}")
        parts.append(CantorPart(gen, int(c["depth"]), c["mass"]))
    raw_layers = obj.get("multipliers", ())
    if isinstance(raw_layers, dict):  # a single grating layer
        raw_layers = [raw_layers]
    layers = []
    for lay in raw_layers:
        layers.append(MultiplierLayer(int(lay["depth"]),
                                      {int(k): float(v)
                                       for k, v in lay["factors"].items()}))
    return CircleMeasure(atoms=atoms, cantor_parts=parts, multipliers=layers,
                         name=obj.get("name", ""))
