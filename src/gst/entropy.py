"""w-entropy of closed null sets, in sum and integral form, and the induced
splitting of a singular measure into its entropy-carried and entropy-free
parts.

A lazily generated gap family is decided only by a closed-form
certificate on its tail: divergence and a log tail's sum by integral
comparison, a geometric tail's sum by a remainder bound past explicit
levels.  Else the result is undecided, with bounds -inf and +inf.  The
integral form takes each gap from ``weights.neg_log_integral``: closed
forms under power, log and exp_log weights, certified Riemann sums for the
rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circle import CircleMeasure, ClosedCircleSet, GapTail
from .weights import (ROUND_REL, UNIT_ROUNDOFF, Bracket, Weight, _nested_log,
                      effective_lambda, neg_log_integral)

FINITE = "finite"
DIVERGES = "diverges"
UNDECIDED = "undecided"

TAIL_V = 690.0  # where the cells of a log tail end: log x ~ 1e300
# 2^14 cells in v = log log x, graded cubically, finest where A is largest
TAIL_GRID = np.linspace(0.0, 1.0, 2 ** 14 + 1) ** 3
DIVERGENT_TAIL = Bracket(-math.inf, -math.inf)
UNCERTIFIED_TAIL = Bracket(-math.inf, math.inf)


@dataclass(frozen=True)
class TaggedValue:
    """Signed entropy value with a finiteness tag and bracketing bounds."""

    tag: str
    value: Optional[float]
    low: float
    high: float
    evidence: str = ""


def _lambda_log_bound(w: Weight, lam: float) -> float:
    """c0 with  -log w(t) <= (log(1/t) + c0) / lam  for t in (0,1]."""
    u1 = max(0.0, -float(w.log(1.0)))
    return math.log(2.0) + lam * u1


def _sum_pad(size: float, n: int) -> float:
    """Rounding bound of a float sum of n computed terms whose magnitudes
    add to ``size``: ROUND_REL of each value (w.log and the products) and
    (n - 1) u of the sum (Higham, ch. 4)."""
    return (ROUND_REL + max(n - 1, 0) * UNIT_ROUNDOFF) * size


def _log_tail_sum(tail: GapTail, w: Weight) -> Bracket:
    """Bracket of sum A(x) log w(l) over a log family's tail levels
    x = k or j + 2: the gap mass A = amp/(x log^2 x) falls and
    g = log(1/w(l)) rises with x, so each term lies between the integrals
    of A(t) g(t - 1) on [x, x + 1] and A(t) g(t + 1) on [x - 1, x] (Knopp,
    integral test).  In v = log log t, A dt = amp e^-v dv: each cell of v
    holds that mass times g at its ends.  Past TAIL_V, g <= c (v + log 2)
    under log_power and a (2 e^v)^b under exp_log."""
    amp, first = tail.params
    x0, (c, d) = first + 1.0 + (tail.kind == "stagewise_log"), w.params
    if x0 < 3.0:  # stage 0: the integral of A from t = 1 diverges
        return UNCERTIFIED_TAIL
    if w.kind == "log_power":  # g / c of ell = GapTail.level_log, <= ell
        def g(ell): return _nested_log(1.0 + ell, d) - 1.0
        past = (TAIL_V + 1.0 + math.log(2.0)) * math.exp(-TAIL_V)
    else:  # exp_log with beta d < 1: g / c, below e^691
        def g(ell): return np.exp(d * ell)
        past = 2.0 ** d * math.exp((d - 1.0) * TAIL_V) / (1.0 - d)
    sums = []
    for start, shift, extra in ((x0 - 1.0, 1.0, past), (x0, -1.0, 0.0)):
        v = np.interp(TAIL_GRID, (0, 1), (math.log(math.log(start)), TAIL_V))
        gv = g(tail.level_log(np.exp(v), shift))
        s = amp * c * (extra + float(np.sum(np.exp(-v[:-1]) * -np.expm1(
            v[:-1] - v[1:]) * (gv[1:] if shift > 0 else gv[:-1]))))
        sums.append(s + shift * _sum_pad(s, TAIL_GRID.size + 1))
    return Bracket(-sums[0], -sums[1])


def _tail_sum_bounds(tail: GapTail, w: Weight) -> Bracket:
    """Bracket of the sum over unmaterialized gaps of m*log w(m).

    A divergence certificate gives Bracket(-inf, -inf), and a (tail,
    weight) pair that nothing certifies gives Bracket(-inf, inf).
    """
    if tail.kind == "geometric_levels":
        count0, base, length0, ratio, first = tail.params
        lam = effective_lambda(w)
        c0 = _lambda_log_bound(w, lam)
        q = base * ratio  # below 1, as GapTail checks
        # |log w(l_n)| <= (n log(1/ratio) - log(length0) + c0)/lam
        a = math.log(1.0 / ratio) / lam
        b = (c0 - math.log(length0)) / lam
        scale, q_sum = count0 * length0 / base, q / (1 - q)
        # explicit levels until the remainder bound is negligible, or up
        # to one whose count overflows or whose length or mass leaves the
        # normal range, where a rounding is no longer relative
        acc, size, n, block = 0.0, 0.0, first + 1, 256
        while True:
            k = np.arange(n, n + block, dtype=float)
            lens = length0 * ratio ** k
            with np.errstate(all="ignore"):
                mass = count0 * base ** (k - 1) * lens
                terms = mass * np.asarray(w.log(lens))
            tiny = np.finfo(float).tiny
            normal = (mass < math.inf) & (np.minimum(mass, lens) >= tiny)
            end = int(np.argmin(np.append(normal, False)))
            terms = terms[:end]
            if np.any(np.isneginf(terms)):
                return DIVERGENT_TAIL
            acc += float(np.sum(terms))
            size += float(np.sum(np.abs(terms)))
            n += end
            rem = scale * q ** n * (a * (n + q_sum) + b) / (1 - q)
            if rem < 1e-15 * (1.0 + abs(acc)) or n > first + 100_000 or (
                    end < block):
                rem += _sum_pad(size, n - first - 1)
                return Bracket(acc - rem, acc + rem)
    if w.kind not in ("power", "log_power", "exp_log"):
        return UNCERTIFIED_TAIL
    # log families: the terms are >~ c/(x log x) under power, exp_log with
    # beta >= 1 and, on stagewise_log's 2^j gaps a stage, any exp_log or log:c
    stages, last = tail.kind == "stagewise_log", w.params[-1]
    if w.kind == "power" or (w.kind == "exp_log" and (
            stages or last >= 1)) or (stages and last == 1):
        return DIVERGENT_TAIL
    return _log_tail_sum(tail, w)


def gap_entropy_sum(lengths, w: Weight) -> tuple:
    """(sum, rounding bound) of m log w(m) over an explicit finite gap
    family, one term at a time, largest first; the sum is -inf where w
    vanishes on a gap length."""
    lens = np.sort(np.asarray(lengths, dtype=float))[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = lens * np.asarray(w.log(lens))
    if np.any(np.isneginf(terms)):
        return -math.inf, 0.0
    # cumsum adds one term at a time
    return (float(np.cumsum(terms)[-1]) if terms.size else 0.0,
            _sum_pad(float(np.sum(np.abs(terms))), terms.size))


def _tagged(explicit: float, part: Bracket,
            tail: Optional[Bracket]) -> TaggedValue:
    """A set's entropy from its explicit part, that part's enclosure and
    its tail's bracket (None without a tail).  A tail with low end -inf
    decides alone: undecided if its high end is inf, else divergent."""
    if tail is None:
        return TaggedValue(FINITE, explicit, part.low, part.high,
                           "finite gap family")
    if tail.low == -math.inf:
        if tail.high == math.inf:
            return TaggedValue(UNDECIDED, None, -math.inf, math.inf,
                               "no tail certificate for this weight")
        return TaggedValue(DIVERGES, None, -math.inf, -math.inf,
                           "generator tail certificate (integral comparison)")
    return TaggedValue(FINITE, explicit + tail.mid, part.low + tail.low,
                       part.high + tail.high, "generator tail bound")


@dataclass(frozen=True)
class EntropySumResult:
    result: TaggedValue
    tail_bounds: Optional[Bracket] = None  # the tail's bracket, when built


def entropy_sum(E: ClosedCircleSet, w: Weight) -> EntropySumResult:
    """Sum of m(I) log w(m(I)) over complementary arcs, the explicit ones
    by gap_entropy_sum."""
    explicit, err = gap_entropy_sum(E.lengths, w)
    if explicit == -math.inf:
        tv = TaggedValue(DIVERGES, None, -math.inf, -math.inf,
                         "w vanishes on a gap length")
        return EntropySumResult(tv)
    tail = None if E.tail is None else _tail_sum_bounds(E.tail, w)
    return EntropySumResult(
        _tagged(explicit, Bracket(explicit - err, explicit + err), tail), tail)


def entropy_integral(E: ClosedCircleSet, w: Weight,
                     summed: Optional[EntropySumResult] = None) -> TaggedValue:
    """Circle integral of log w(dist(., E)) via per-gap change of variables.

    Each gap of length L contributes 2*int_0^{L/2} log w(t) dt: the distance
    to the set sweeps (0, L/2] twice per gap.  ``summed``, the caller's
    ``entropy_sum(E, w)``, lends its tail bracket, so a report of both
    forms brackets the tail once.  A tail with no certificate leaves the
    result undecided, as in the sum form.

    A divergent tail certificate is read before lambda is needed: each
    gap's integral is at most L log w(L/2) <= L log w(L), its sum term,
    for any nondecreasing w, so it holds for a weight that is no majorant.
    """
    tail = None
    if E.tail is not None:
        tail = (summed and summed.tail_bounds) or _tail_sum_bounds(E.tail, w)
        if tail.low == -math.inf:  # the tail decides alone
            return _tagged(-math.inf, DIVERGENT_TAIL, tail)
    lam = effective_lambda(w)
    low, high = neg_log_integral(w, E.lengths / 2.0, lam)
    vals = -(low + high)  # -2 times each gap's midpoint
    if np.any(~np.isfinite(vals)):
        return TaggedValue(DIVERGES, None, -math.inf, -math.inf,
                           "log w not integrable on a gap")
    if tail is not None:  # a gap's integral is its sum term less <= slack L
        slack = (1.0 + 2.0 * math.log(2.0) + _lambda_log_bound(w, lam)) / lam
        tail = Bracket(tail.low - slack * E.tail.gap_mass(), tail.high)
    err = (_sum_pad(float(np.sum(np.abs(vals))), vals.size)
           + float(np.sum(high - low)))
    explicit = float(np.sum(vals))
    return _tagged(explicit, Bracket(explicit - err, explicit + err), tail)


# ---------------------------------------------------------------------------
# Measure classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    mu_P: CircleMeasure
    mu_C: CircleMeasure
    undecided: tuple
    certificates: tuple


def classify_measure(mu: CircleMeasure, w: Weight) -> Classification:
    """Split a measure into the part carried by finite-entropy sets and the rest.

    Atoms always land in the carried part (singletons have finite entropy
    for every majorant).  Each Cantor-type component is classified through
    the entropy certificate of its own carrier set; components whose
    certificate is inconclusive are excluded from both parts and reported.
    """
    certs = []
    p_parts, c_parts, undecided = [], [], []
    if mu.atom_list:
        certs.append({"component": "atoms", "tag": FINITE,
                      "evidence": "atoms lie on finite point sets"})
    for i, part in enumerate(mu.cantor_parts):
        res = entropy_sum(part.carrier, w).result
        certs.append({"component": f"cantor[{i}]({part.carrier.name})",
                      "tag": res.tag, "value": res.value,
                      "evidence": res.evidence})
        if res.tag == FINITE:
            p_parts.append(part)
        elif res.tag == DIVERGES:
            c_parts.append(part)
        else:
            undecided.append(part)
    # a class that is all of mu is mu itself, realized once
    mu_p = mu_c = mu
    if len(p_parts) < len(mu.cantor_parts):
        mu_p = CircleMeasure(atoms=mu.atom_list, cantor_parts=p_parts,
                             multipliers=mu.multipliers, name=f"{mu.name}_P")
    if mu.atom_list or len(c_parts) < len(mu.cantor_parts):
        mu_c = CircleMeasure(cantor_parts=c_parts, multipliers=mu.multipliers,
                             name=f"{mu.name}_C")
    return Classification(mu_p, mu_c, tuple(undecided), tuple(certs))
