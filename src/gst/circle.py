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
import operator
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .util import as_dict, as_float, as_floats, as_int, as_list, as_str, \
    fields

CIRCLE_TOL = 1e-12
# the one spelling of a multiplier arc index in JSON
ARC_INDEX = re.compile("0|[1-9][0-9]*")
# most bits of exact arc indices (atoms times depth) one pass may form
INDEX_BITS = 2 ** 30


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

    def __post_init__(self):
        count = {"geometric_levels": 5, "harmonic_log": 2,
                 "stagewise_log": 2}.get(self.kind)
        if count is None:
            raise ValueError(f"unknown tail kind {reprlib.repr(self.kind)}")
        *scales, first = as_floats(self.params, f"{self.kind} parameter",
                                   count)
        if not all(x > 0 for x in scales):
            raise ValueError(f"{self.kind} needs positive parameters before "
                             f"the first level, got {self.params!r}")
        if as_int(first, f"{self.kind} first level") < (
                2 if self.kind == "harmonic_log" else 0):
            raise ValueError(f"{self.kind} first level {first!r} is too "
                             "small")
        if self.kind == "geometric_levels" and not scales[1] * scales[3] < 1:
            raise ValueError("geometric_levels needs base * ratio < 1")

    def level_log(self, y, shift: float):
        """log(1 + u), rising in y and free of overflow to y ~ 1e300, at
        level x + shift of a log family, log x = y: u = max(log(1/s), 0) +
        j log 2 for the gap mass s = amp/(x log^2 x) over 2^j gaps (stage
        j = x - 2, or j = 0 for harmonic_log); no tail level has s > 1."""
        ys = y + np.log1p(shift * np.exp(-y))  # log(x + shift)
        ell = np.log1p(np.maximum(
            ys + 2.0 * np.log(ys) - math.log(self.params[0]), 0.0))
        if self.kind == "harmonic_log":
            return ell
        with np.errstate(divide="ignore"):  # log j = -inf at j = 0
            return np.logaddexp(ell, math.log(math.log(2.0)) + y + np.log1p(
                (shift - 2.0) * np.exp(-y)))

    def gap_mass(self) -> float:
        if self.kind == "geometric_levels":
            count0, base, length0, ratio, first = self.params
            # sum_{n > first} count0 * base^(n-1) * length0 * ratio^n
            q = base * ratio
            return count0 * length0 * ratio * q ** first / (1.0 - q)
        if self.kind == "harmonic_log":
            amp, first = self.params
            return amp * log_series_tail(first)
        amp, first = self.params  # stagewise_log
        # stage j holds the k = j + 2 term
        return amp * log_series_tail(first + 1)


# ---------------------------------------------------------------------------
# Closed null sets
# ---------------------------------------------------------------------------

class ClosedCircleSet:
    """A closed Lebesgue-null subset of the circle, stored via its gaps.

    The gaps are the disjoint open arcs (start, start + length), given in
    any order and kept as two read-only float arrays ``starts`` and
    ``lengths`` sorted by start; their lengths together with the tail
    model's gap mass must exhaust the circle.  The last gap may wrap past
    angle 0.  Points of the set are exactly the points in no open gap.
    """

    def __init__(self, starts, lengths, tail: Optional[GapTail] = None,
                 name: str = ""):
        starts = np.asarray(starts, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if starts.ndim != 1 or lengths.shape != starts.shape:
            raise ValueError("a closed set needs one gap length per start")
        # NaN fails both comparisons
        if not np.all((starts >= 0.0) & (starts < 1.0)):
            raise ValueError("gap starts must lie in [0,1)")
        if not np.all((lengths > 0.0) & (lengths <= 1.0)):
            raise ValueError("gap lengths must lie in (0,1]")
        order = starts.argsort(kind="stable")
        self.starts = _frozen(starts[order])
        self.lengths = _frozen(lengths[order])
        self.tail = tail
        self.name = name
        total = math.fsum(self.lengths.tolist())
        tail_mass = tail.gap_mass() if tail is not None else 0.0
        # the empty-gap set is the whole circle: the degenerate identity
        # element for restriction, exempt from the null-set requirement
        if self.starts.size or tail is not None:
            if abs(total + tail_mass - 1.0) > 1e-9:
                raise ValueError(
                    f"gap lengths sum to {total + tail_mass}, expected 1")
        ends = self.starts + self.lengths
        # each gap against the next, and the last, past angle 0, against
        # the first
        if np.any(ends[:-1] > self.starts[1:] + CIRCLE_TOL) or (
                ends.size and ends[-1] - 1.0 > self.starts[0] + CIRCLE_TOL):
            raise ValueError("gaps overlap")

    def __repr__(self):
        return (f"ClosedCircleSet({self.name or self.starts.size} gaps"
                f"{', tailed' if self.tail else ''})")

    def gap_index(self, xs, tol: float = 0.0) -> np.ndarray:
        """Index of the open gap holding each entry of a float array, or -1,
        with every gap shrunk by ``tol`` at both ends.

        Only the gap starting at or before x can hold it, or the last gap,
        which may wrap past 1.
        """
        xs = np.asarray(xs, dtype=float) % 1.0
        n = self.starts.size
        if not n:
            return np.full(xs.shape, -1)

        def holds(j):
            rel = (xs - self.starts[j]) % 1.0
            return (tol < rel) & (rel < self.lengths[j] - tol)

        # before the first start, the gap at or before x is the last
        i = (np.searchsorted(self.starts, xs, side="right") - 1) % n
        return np.where(holds(i), i, np.where(holds(n - 1), n - 1, -1))

    def dist(self, xs) -> np.ndarray:
        """Arc-length distance from each entry of a float array to the set
        (0 on the set itself)."""
        xs = np.asarray(xs, dtype=float)
        j = self.gap_index(xs)
        if not self.starts.size:
            return np.zeros(xs.shape)
        rel = (xs - self.starts[j]) % 1.0
        return np.where(j < 0, 0.0, np.minimum(rel, self.lengths[j] - rel))

    def contains_points(self, xs) -> np.ndarray:
        """Set membership of each entry of a float array.

        Points within CIRCLE_TOL of a gap endpoint count as set points:
        endpoints belong to the set and float images of exact endpoints
        may land a few ulps inside the open gap.
        """
        return self.gap_index(xs, CIRCLE_TOL) < 0


def point_set(positions) -> ClosedCircleSet:
    """The finite set consisting of the given points."""
    pos = np.sort(np.asarray(positions, dtype=float) % 1.0)
    if not pos.size:
        raise ValueError("need at least one point")
    step = np.append(pos[1:], pos[0] + 1.0) - pos
    keep = step > 0
    return ClosedCircleSet(pos[keep] % 1.0, step[keep],
                           name=f"{pos.size} points")


def set_union(e1: ClosedCircleSet, e2: ClosedCircleSet) -> ClosedCircleSet:
    """Union of two sets via intersected gap lists (explicit gaps only)."""
    if e1.tail is not None and e2.tail is not None:
        raise ValueError("cannot union two tailed sets")
    if e2.tail is not None:
        e1, e2 = e2, e1
    # insert every point of e2, its gap endpoints, into the gaps of e1
    gaps = list(zip(e1.starts.tolist(), e1.lengths.tolist()))
    for p in np.unique(np.concatenate([
            e2.starts % 1.0, (e2.starts + e2.lengths) % 1.0])).tolist():
        out = []
        for start, length in gaps:
            rel = (p - start) % 1.0
            if 0 < rel < length:
                out += [(start, rel), ((start + rel) % 1.0, length - rel)]
            else:
                out.append((start, length))
        gaps = out
    return ClosedCircleSet(*np.array(gaps, dtype=float).reshape(-1, 2).T,
                           tail=e1.tail, name=f"union({e1.name},{e2.name})")


# ---------------------------------------------------------------------------
# Cantor-type generators and measure components
# ---------------------------------------------------------------------------

# exact numerators are summed in two int64 limbs: hi 2^LIMB + lo
LIMB = 40
LIMB_MASK = (1 << LIMB) - 1


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    cell's left endpoint (a point of the true carrier).  Cell i turns right
    at stage j when bit ``stages - 1 - j`` of i is set (stage 0 is the most
    significant bit), and its left endpoint is the sum of the right-turn
    offsets of those stages.  The offsets are integers over one common
    denominator ``den`` (3^stages for triadic parts, a power of two for
    stagewise ones), so every endpoint is known exactly.  ``carrier``
    keeps the underlying closed set, including its unmaterialized tail,
    for entropy certificates.
    """

    def __init__(self, generator: CantorGenerator, stages: int, mass: float,
                 carrier_depth: int = 10):
        stages = as_int(stages, "stage count")
        if stages < 1 or stages > 22:
            raise ValueError("stages must lie in 1..22 at desk scale")
        self.generator = generator
        self.stages = stages
        self.size = 1 << stages
        self.mass = as_float(mass, "component mass")
        if not self.mass > 0.0:
            raise ValueError(f"component mass {mass!r} must be finite and "
                             "positive")
        self.den, self._offsets, self._lengths = self._stage_offsets()
        self.carrier = self._build_carrier(min(carrier_depth, stages))

    def _stage_offsets(self):
        """(den, right-turn offset per stage, cell length after each
        stage), the last two as integer numerators over den."""
        child, offsets, lengths = Fraction(1), [], []
        for j in range(self.stages):
            g = self.generator.stage_gap(j) / (1 << j)  # per-cell gap
            child = (child - g) / 2
            if child <= 0:
                raise ValueError("stage gaps exceed cell length")
            offsets.append(child + g)
            lengths.append(child)
        den = math.lcm(*(f.denominator for f in offsets + lengths))
        # positions round once (see positions): a numerator below 2^53 is
        # exact in float, a power-of-two denominator divides exactly
        if not (den < 2 ** 53 or
                (den & (den - 1) == 0 and den <= 2 ** (53 + LIMB))):
            raise ValueError("stage offsets need a denominator below 2^53 "
                             f"or a power of two up to 2^{53 + LIMB}")
        return (den, [int(f * den) for f in offsets],
                [int(f * den) for f in lengths])

    def _build_carrier(self, depth: int) -> ClosedCircleSet:
        # the gaps removed by stages < depth are exactly the spaces between
        # consecutive stage-depth cells (the first starts at 0, the last
        # ends at 1, so no gap wraps); a stage-depth cell starts where its
        # leftmost terminal cell does
        hi, lo = self._limbs(
            np.arange(1 << depth, dtype=np.int64) << (self.stages - depth))
        ln = self._lengths[depth - 1] if depth else self.den
        # a gap runs from a cell's start plus ln to the next cell's start
        hi_s, lo_s = hi[:-1] + (ln >> LIMB), lo[:-1] + (ln & LIMB_MASK)
        starts = self._quotient(hi_s, lo_s) % 1.0
        lengths = self._quotient(hi[1:] - hi_s, lo[1:] - lo_s)
        if self.generator.kind == "triadic":
            # level n has 2^(n-1) gaps of length 3^-n
            tail = GapTail("geometric_levels", (1.0, 2.0, 1.0, 1.0 / 3.0, depth))
            name = f"triadic({depth})"
        else:
            tail = GapTail("stagewise_log", (float(self.generator.amp), depth))
            name = f"stagewise({depth})"
        return ClosedCircleSet(starts, lengths, tail=tail, name=name)

    def realize(self):
        """(positions, keys) of the terminal cells' left endpoints in cell
        order: each position the correctly rounded float64 of the exact
        endpoint x, each key floor(2^62 x) in int64.

        Built by doubling in place: before stage j the 2^j cells sit every
        size/2^j entries, and each stage writes every cell's right child
        half that far after it, offset by that stage's step.  A step is
        split once as 2^62 step/den = k + r/u, u = den/gcd(den, 2^62) and
        0 <= r < u, so a key is K + floor(R/u) for the sums K of k and R of
        r over the cell's right turns; u < 2^53, so R < 22 u fits int64.
        """
        g = math.gcd(self.den, 1 << 62)
        u, scale = self.den // g, (1 << 62) // g
        # four arrays, not views of one block, which would outlive them all
        hi, lo, key, rem = (np.zeros(self.size, dtype=np.int64)
                            for _ in range(4))
        for j, step in enumerate(self._offsets):
            k, r = divmod(step * scale, u)
            for a, part in ((hi, step >> LIMB), (lo, step & LIMB_MASK),
                            (key, k), (rem, r)):
                cells = a.reshape(1 << j, 2, self.size >> (j + 1))
                np.add(cells[:, 0, 0], part, out=cells[:, 1, 0])
        key += rem // u
        return self._quotient(hi, lo), key

    def _quotient(self, hi, lo) -> np.ndarray:
        """The correctly rounded float64 of (hi 2^LIMB + lo) / den."""
        # hi 2^LIMB and lo are exact floats: the sum rounds once, and the
        # division is exact or the numerator was
        x = hi * 2.0 ** LIMB
        x += lo
        x /= float(self.den)
        return x

    def masses(self) -> np.ndarray:
        return np.full(self.size, self.mass / self.size)

    def exact(self, cells: np.ndarray):
        """(numerators, den) of the exact left endpoints of the given cells:
        an object array of Python ints over one denominator."""
        hi, lo = self._limbs(cells)
        return hi.astype(object) * (1 << LIMB) + lo.astype(object), self.den

    def _limbs(self, cells: np.ndarray):
        """(hi, lo): int64 limbs of the exact left endpoints' numerators,
        hi 2^LIMB + lo."""
        hi = np.zeros(cells.size, dtype=np.int64)
        lo = np.zeros(cells.size, dtype=np.int64)
        for j, step in enumerate(self._offsets):
            turn = (cells >> (self.stages - 1 - j)) & 1
            hi += turn * (step >> LIMB)
            lo += turn * (step & LIMB_MASK)
        return hi, lo


def triadic_generator() -> CantorGenerator:
    return CantorGenerator("triadic")


def stagewise_log_generator() -> CantorGenerator:
    return CantorGenerator("stagewise_log", Fraction(1.0 / LOG_SERIES))


class _Atoms:
    """The point masses of a measure, reduced mod 1, as one block of its
    realization (beside the Cantor parts)."""

    def __init__(self, atom_list):
        self.num = np.array([p.numerator % p.denominator
                             for p, _ in atom_list], dtype=object)
        self.den = np.array([p.denominator for p, _ in atom_list],
                            dtype=object)
        self._masses = np.array([m for _, m in atom_list], dtype=float)
        self.size = len(atom_list)

    def realize(self):
        # int / int is the correctly rounded quotient
        return (self.num / self.den).astype(float), np.array(
            [(n << 62) // d for n, d in zip(self.num, self.den)],
            dtype=np.int64)

    def masses(self) -> np.ndarray:
        return self._masses

    def exact(self, rows: np.ndarray):
        return self.num[rows], self.den[rows]


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiplierLayer:
    """Per-dyadic-arc damping factors at one depth (sparse; default 1).

    ``keys`` are the listed arc indices, strictly increasing: int64 up to
    depth 62 and Python ints (an object array) beyond, as
    ``Realization.indices`` gives them; ``factors`` are their factors in
    [0,1].
    """

    depth: int
    keys: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        depth = as_int(self.depth, "multiplier depth")
        if depth < 0:
            raise ValueError(f"multiplier depth {depth} is negative")
        keys, factors = np.asarray(self.keys), np.asarray(self.factors)
        if keys.ndim != 1 or factors.shape != keys.shape:
            raise ValueError("a multiplier layer needs one factor per key")
        if factors.dtype.kind != "f" or not np.all(
                (factors >= 0.0) & (factors <= 1.0)):
            raise ValueError("multiplier factors must lie in [0,1]")
        if keys.dtype == object:
            ok = all(type(i) is int for i in keys.tolist())
        else:
            ok = keys.dtype.kind in "iu"
        # increasing, so the first and last keys bound the rest
        if not (ok and np.all(keys[1:] > keys[:-1]) and (
                keys.size == 0 or (int(keys[0]) >= 0 and
                                   int(keys[-1]) >> depth == 0))):
            raise ValueError("multiplier arc indices must be integers in "
                             f"0..2^{depth}-1, increasing")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "keys", _frozen(
            keys.astype(np.int64 if depth <= 62 else object)))
        object.__setattr__(self, "factors", _frozen(factors.astype(float)))

    @classmethod
    def from_dict(cls, depth, factors: dict) -> "MultiplierLayer":
        """The layer of an ``{arc index: factor}`` dict, its keys read one
        by one: any integer passes, anything else is rejected."""
        if not all(hasattr(i, "__index__") for i in factors):
            raise ValueError("multiplier arc indices must be integers in "
                             f"0..2^{depth}-1")
        items = sorted((operator.index(i), f) for i, f in factors.items())
        return cls(depth, np.array([i for i, _ in items], dtype=object),
                   np.array([f for _, f in items], dtype=float))

    def as_dict(self) -> dict:
        return dict(zip(self.keys.tolist(), self.factors.tolist()))

    def factors_at(self, keys: np.ndarray) -> np.ndarray:
        """The factor of each given arc index (1 off the listed arcs), one
        lookup per entry: given the keys of ``Realization.arcs``, one per
        arc holding atoms."""
        if not self.keys.size:
            return np.ones(keys.size)
        at = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[at] == keys, self.factors[at], 1.0)


def _runs(idx: np.ndarray):
    """(keys, counts): the distinct entries of a nondecreasing index array,
    increasing, and how many times each occurs, found in one run-length
    pass; None when the array decreases somewhere."""
    if not np.all(idx[1:] >= idx[:-1]):
        return None
    if not idx.size:
        return idx, np.zeros(0, dtype=np.intp)
    start = np.flatnonzero(np.concatenate([[True], idx[1:] != idx[:-1]]))
    return idx[start], np.diff(start, append=idx.size)


class Realization(NamedTuple):
    """The atoms of a measure with its multiplier layers applied.

    ``keys`` holds the exact depth-62 dyadic index floor(2^62 x) of each
    block row's position x, in int64, and ``pos`` its correctly rounded
    float64, for the kernel sums and ``restrict``'s set test; both are
    shared by every realization of the same blocks: atom i's key is
    ``keys[rows[i]]`` and its float ``pos[rows[i]]``.  Every dyadic index
    to depth 62 is a shift of a key, and keys decide every exact
    comparison: an atom whose key is above or below floor(2^62 t) lies
    above or below t.  ``rows`` locates the atom in ``blocks`` (the
    measure's atoms, then each Cantor part's cells), whose exact data
    settles a tie of keys.  All arrays are read-only.
    """

    pos: np.ndarray
    masses: np.ndarray
    rows: np.ndarray
    blocks: tuple
    keys: np.ndarray

    def exact(self, sel: np.ndarray):
        """(numerators, denominators) of the exact positions of the atoms
        ``sel``, as object arrays of Python ints."""
        rows = self.rows[sel]
        num = np.empty(rows.size, dtype=object)
        den = np.empty(rows.size, dtype=object)
        start = 0
        for block in self.blocks:
            inside = (rows >= start) & (rows < start + block.size)
            num[inside], den[inside] = block.exact(rows[inside] - start)
            start += block.size
        return num, den

    def indices(self, depth: int) -> np.ndarray:
        """Index of the depth-n dyadic arc holding each atom (exact): int64
        up to depth 62, each the atom's key shifted right by 62 - n, and
        Python ints (an object array) beyond, formed from the exact
        positions, for at most INDEX_BITS bits in all."""
        if depth > 62:
            if self.rows.size * depth > INDEX_BITS:
                raise ValueError(
                    f"exact arc indices of {self.rows.size} atoms at depth "
                    f"{depth} exceed {INDEX_BITS} bits")
            num, den = self.exact(np.arange(self.rows.size))
            return (num << depth) // den
        idx = self.keys[self.rows]
        return np.right_shift(idx, 62 - depth, out=idx)

    def in_arc(self, start: float, length: float) -> np.ndarray:
        """Mask of the atoms in the half-open arc [start, start + length)
        mod 1 (exact): the keys decide, and only the atoms on the key of
        an end read their exact positions."""
        s = Fraction(start)
        e = s + Fraction(length)
        # x lies in the arc iff s <= x < e, or x < e - 1 when it wraps; the
        # end keys fit int64, as s < 1, e < 2 and e - 1 >= -1
        ends = [math.floor(t * 2 ** 62) for t in (s, e, e - 1)]
        k = self.keys[self.rows]
        inside = ((k >= ends[0]) & (k < ends[1])) | (k < ends[2])
        near = np.flatnonzero(np.any([k == t for t in ends], axis=0))
        if near.size:
            num, den = self.exact(near)
            inside[near] = [s <= Fraction(a, b) < e or Fraction(a, b) < e - 1
                            for a, b in zip(num, den)]
        return inside

    def arcs(self, depth: int):
        """(keys, where): the increasing indices of the depth-n dyadic arcs
        holding atoms, as ``indices`` types them, and each atom's position
        in ``keys``; the one pass that groups the atoms by arc.
        Nondecreasing indices (every realization of one Cantor part) are
        grouped by runs, others by ``np.unique``."""
        idx = self.indices(depth)
        runs = _runs(idx)
        if runs is None:
            return np.unique(idx, return_inverse=True)
        keys, counts = runs
        return keys, np.repeat(np.arange(keys.size), counts)

    def scaled(self, arc_factors: np.ndarray,
               where: np.ndarray) -> "Realization":
        """This realization with each atom's mass times its arc's factor,
        ``arc_factors`` one per arc of ``arcs`` and ``where`` as it gives
        them; atoms whose mass drops to 0 (factor-0 arcs) are left out."""
        masses = self.masses * arc_factors[where]
        keep = masses > 0
        if keep.all():
            return self._replace(masses=_frozen(masses))
        return self._replace(masses=_frozen(masses[keep]),
                             rows=_frozen(self.rows[keep]))


def _joined(arrays) -> np.ndarray:
    """The arrays end to end; the one nonempty array itself if only one
    is."""
    full = [a for a in arrays if a.size]
    return full[0] if len(full) == 1 else np.concatenate(arrays)


def _realize_blocks(blocks: tuple) -> Realization:
    pos, keys = map(_joined, zip(*[b.realize() for b in blocks]))
    masses = _joined([b.masses() for b in blocks])
    return Realization(_frozen(pos), _frozen(masses),
                       _frozen(np.arange(pos.size, dtype=np.int64)), blocks,
                       _frozen(keys))


@dataclass(frozen=True)
class MassResult:
    mass: float
    err: float


class CircleMeasure:
    """A positive finite singular measure: atoms plus Cantor-type parts.

    Multiplier layers damp the measure on selected dyadic arcs; gratings
    are recorded this way.  All mass queries are exact (err = 0) because
    components realize to finitely many atoms with exact positions.
    """

    def __init__(self, atoms=(), cantor_parts=(), multipliers=(),
                 name: str = ""):
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
        self.name = name
        self._realized = None
        self._total = None
        self._sorted = None
        self._kernel_tree = None  # built by inner_outer on first use

    # -- realization --------------------------------------------------------

    def realized(self) -> Realization:
        """The atoms with every multiplier layer applied (cached)."""
        if self._realized is None:
            r = _realize_blocks((_Atoms(self.atom_list),) + self.cantor_parts)
            for layer in self.multipliers:
                keys, where = r.arcs(layer.depth)
                r = r.scaled(layer.factors_at(keys), where)
            self._realized = r
        return self._realized

    def positions_float(self) -> np.ndarray:
        """The correctly rounded float64 of each atom's position."""
        r = self.realized()
        return r.pos[r.rows]

    def total_mass(self) -> float:
        if self._total is None:
            self._total = float(np.sum(self.realized().masses))
        return self._total

    def sorted_atoms(self):
        """(sorted keys, masses, their prefix sums over two turns, total
        mass, sorting order), cached: one stable sort of the keys, and
        atoms at one exact position merge, found by one exact pass over
        the tied keys."""
        if self._sorted is None:
            r = self.realized()
            keys = r.keys[r.rows]
            order = np.argsort(keys, kind="stable")
            keys, m = keys[order], r.masses[order]
            tie = np.flatnonzero(keys[1:] == keys[:-1])
            num, den = r.exact(order[np.concatenate([tie, tie + 1])])
            k, keep = tie.size, np.ones(keys.size, dtype=bool)
            keep[tie[num[:k] * den[k:] == num[k:] * den[:k]] + 1] = False
            total, m = float(np.sum(m)), np.bincount(np.cumsum(keep) - 1, m)
            self._sorted = (
                keys[keep], m,
                np.concatenate([[0.0], np.cumsum(np.concatenate([m, m]))]),
                total, order[keep])
        return self._sorted

    # -- queries -------------------------------------------------------------

    def mass_of_arc(self, arc: Arc) -> MassResult:
        """Measure of a half-open arc; exact by the atomic realization."""
        r = self.realized()
        inside = r.masses[r.in_arc(arc.start, arc.length)]
        # cumsum adds in atom order, one mass at a time
        return MassResult(float(np.cumsum(inside)[-1]) if inside.size else 0.0,
                          0.0)

    def arc_masses_at_depth(self, depth: int) -> tuple:
        """(keys, masses): the ``Realization.arcs`` keys at depth n and each
        arc's mass (exact)."""
        r = self.realized()
        keys, where = r.arcs(depth)
        # bincount adds each arc's masses in atom order
        masses = np.bincount(where, weights=r.masses)
        return keys, masses.astype(float, copy=False)  # int64 when empty

    def scaled_on_arcs(self, layer: MultiplierLayer, factors: np.ndarray,
                       where: np.ndarray, name: str = "") -> "CircleMeasure":
        """New measure with one more multiplier layer, realized at once from
        this measure's realization: ``factors`` are the layer's factors on
        the arcs of ``Realization.arcs`` at its depth, ``where`` as that
        gives it."""
        out = CircleMeasure(
            atoms=self.atom_list, cantor_parts=self.cantor_parts,
            multipliers=self.multipliers + (layer,), name=name or self.name)
        out._realized = self.realized().scaled(factors, where)
        return out

    def restrict(self, closed_set: ClosedCircleSet) -> "CircleMeasure":
        """Restriction to a closed set: atoms kept iff they lie in the set."""
        r = self.realized()
        kept = np.flatnonzero(closed_set.contains_points(
            self.positions_float()))
        num, den = r.exact(kept)
        atoms = zip(map(Fraction, num, den), r.masses[kept].tolist())
        return CircleMeasure(atoms=atoms, name=f"{self.name}|restricted")


def atom_measure(position, mass: float = 1.0, name: str = "") -> CircleMeasure:
    return CircleMeasure(atoms=[(Fraction(position), mass)],
                         name=name or "atom")


# ---------------------------------------------------------------------------
# Modulus of continuity of a measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusOfMeasure:
    upper: float


def modulus_of_continuity(nu: CircleMeasure, delta: float) -> ModulusOfMeasure:
    """sup { nu(I) : m(I) <= delta }, exact up to the order of summation.

    A half-open window of length delta can slide right until its start
    meets an atom without losing mass, so the supremum is the maximum over
    windows [x, x + delta) mod 1 anchored at the atoms x.  The keys place
    them: with D = min(floor(2^62 delta), 2^62 - 1), so that D <= 2^62
    delta < D + 2, the window anchored at key k ends at t with floor(2^62
    t) one of end = k + D and end + 1.  Keys below end lie inside it, keys
    above end + 1 outside, and the same a turn on (end - 2^62); only atoms
    on those two keys or on the anchor's own read ``Realization.exact``.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0,1]")
    k, m, csum, total, order = nu.sorted_atoms()
    if k.size == 0:
        return ModulusOfMeasure(0.0)
    turn = 1 << 62
    end = k + min(int(math.ldexp(delta, 62)), turn - 1)
    rows = np.arange(k.size)
    # the anchor is in its window, also when D = 0
    first = np.maximum(np.searchsorted(k, end), rows + 1)
    second = np.searchsorted(k, end - turn)
    sums = csum[first + second] - csum[rows]
    bands = [(np.searchsorted(k, c), np.searchsorted(k, c + w, "right"))
             for c, w in ((k, 0), (end, 1), (end - turn, 1))]
    unsure = np.flatnonzero(sum(hi - lo - ((lo <= rows) & (rows < hi))
                                for lo, hi in bands))
    near = [np.setdiff1d(np.concatenate(
        [np.arange(lo[i], hi[i]) for lo, hi in bands]), [i]) for i in unsure]
    ix = np.unique(np.concatenate([unsure, *near]))  # one exact pass
    x = dict(zip(ix.tolist(), map(Fraction, *nu.realized().exact(order[ix]))))
    for i, js in zip(unsure, near):
        held = np.array([(x[j] - x[i]) % 1 < delta for j in js], float)
        read = ((js >= i) & (js < first[i])) | (js < second[i])
        sums[i] += m[js] @ (held - read)
    return ModulusOfMeasure(min(float(np.max(sums)), total))


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def set_to_json(e: ClosedCircleSet) -> dict:
    out = {"gaps": np.stack([e.starts, e.lengths], axis=-1).tolist()}
    if e.tail is not None:
        out["tail"] = {"kind": e.tail.kind, "params": list(e.tail.params)}
    if e.name:
        out["name"] = e.name
    return out


def set_from_json(obj: dict) -> ClosedCircleSet:
    fields(obj, "set", "gaps", optional=("tail", "name"))
    tail = None
    if "tail" in obj:
        t = fields(obj["tail"], "set tail", "kind", "params")
        tail = GapTail(as_str(t["kind"], "tail kind"),
                       tuple(as_floats(t["params"], "tail parameter")))
    gaps = np.array([as_floats(g, "gap", 2)
                     for g in as_list(obj["gaps"], "gaps")], dtype=float)
    return ClosedCircleSet(*gaps.reshape(-1, 2).T, tail=tail,
                           name=as_str(obj.get("name", ""), "set name"))


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
             "factors": {str(k): v for k, v in layer.as_dict().items()}}
            for layer in mu.multipliers]
    if mu.name:
        out["name"] = mu.name
    return out


def measure_from_json(obj: dict) -> CircleMeasure:
    fields(obj, "measure", optional=("atoms", "cantor", "multipliers", "name"))
    atoms = []
    for a in as_list(obj.get("atoms", []), "atoms"):
        fields(a, "atom", "pos", "mass")
        atoms.append((as_float(a["pos"], "atom position"),
                      as_float(a["mass"], "atom mass")))
    parts = []
    for c in as_list(obj.get("cantor", []), "cantor"):
        fields(c, "cantor part", "generator", "depth", "mass")
        gen_name = c["generator"]
        if gen_name == "triadic":
            gen = triadic_generator()
        elif gen_name == "stagewise_log":
            gen = stagewise_log_generator()
        else:
            raise ValueError(f"unknown generator {reprlib.repr(gen_name)}")
        parts.append(CantorPart(gen, c["depth"], c["mass"]))
    layers = []
    for lay in as_list(obj.get("multipliers", []), "multipliers"):
        fields(lay, "multiplier layer", "depth", "factors")
        factors = as_dict(lay["factors"], "multiplier factors")
        for k in factors:
            if not (isinstance(k, str) and ARC_INDEX.fullmatch(k)):
                raise ValueError(f"multiplier arc index {reprlib.repr(k)} "
                                 "must be a decimal integer without sign, "
                                 "spaces or leading zeros")
        layers.append(MultiplierLayer.from_dict(lay["depth"], {
            int(k): as_float(v, "multiplier factor")
            for k, v in factors.items()}))
    return CircleMeasure(atoms=atoms, cantor_parts=parts, multipliers=layers,
                         name=as_str(obj.get("name", ""), "measure name"))
