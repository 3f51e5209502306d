"""w-entropy of closed null sets, in sum and integral form, and the induced
splitting of a singular measure into its entropy-carried and entropy-free
parts.

A lazily generated gap family is decided only by a closed-form
certificate on its tail: divergence by integral comparison, finiteness by
a bound on the remainder past explicitly summed terms.  When neither
applies the result is tagged undecided, with bounds -inf and +inf.  The
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
from .weights import (ROUND_REL, UNIT_ROUNDOFF, Bracket, Weight,
                      effective_lambda, neg_log_integral)

FINITE = "finite"
DIVERGES = "diverges"
UNDECIDED = "undecided"

GENERATOR_TERM_BUDGET = 10 ** 6
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
        # explicit levels until the remainder bound is negligible
        acc, n, block = 0.0, first + 1, 256
        while True:
            counts, lens = tail.levels(n - first - 1, block)
            terms = counts * lens * np.asarray(w.log(lens))
            if np.any(np.isneginf(terms)):
                return DIVERGENT_TAIL
            acc += float(np.sum(terms))
            n += block
            rem = scale * q ** n * (a * (n + q_sum) + b) / (1 - q)
            if rem < 1e-15 * (1.0 + abs(acc)) or n > first + 100_000:
                return Bracket(acc - rem, acc + rem)
    if tail.kind == "harmonic_log":
        amp, first = tail.params
        if w.kind == "power" or (w.kind == "exp_log" and w.params[1] >= 1):
            # log(1/w(l)) >~ log(1/l), so sum_k l_k log(1/w(l_k))
            # >~ sum_k c/(k log k) = inf
            return DIVERGENT_TAIL
        if not (w.kind == "exp_log" or
                (w.kind == "log_power" and w.params[1] == 1)):
            return UNCERTIFIED_TAIL
        # explicit terms, then a bound on the rest from k = m on
        counts, lens = tail.levels(0, GENERATOR_TERM_BUDGET)
        acc = float(np.sum(counts * lens * np.asarray(w.log(lens))))
        m = float(first + GENERATOR_TERM_BUDGET + 1)
        y = math.log(m)
        c0 = max(0.0, math.log(1.0 / amp))
        if w.kind == "log_power":
            c = w.params[0]
            # remainder via  u(l_k) <= c (k0 + log log k),  integral in y = log x
            k0 = math.log(3.0) + c0
            rem = amp * c * (k0 + math.log(y) + 1.0) / y
            return Bracket(acc - rem, acc + rem)
        # exp_log, beta < 1: log(1/l_k) <= log k + 2 log log k + c0, so
        # log(1/w(l_k)) <= alpha log^beta(k) (1 + delta)^beta for k >= m,
        # delta decreasing in k; the terms are then at most
        # alpha amp (1 + delta)^beta / (k log^(2 - beta) k), whose sum from
        # m on is at most the integral from m - 1
        alpha, beta = w.params
        delta = (1.0 + c0 + 2.0 * math.log(y)) / y
        rem = (alpha * amp * (1.0 + delta) ** beta
               * math.log(m - 1.0) ** (beta - 1.0) / (1.0 - beta))
        return Bracket(acc - rem, acc)
    if tail.kind == "stagewise_log":
        amp, first = tail.params
        if w.kind in ("power", "exp_log") or (
                w.kind == "log_power" and w.params[1] == 1):
            # per-stage gaps have length ~ 2^-j: -log w(g_j) grows at least
            # like log j, so the stage series dominates sum 1/(j log j) = inf
            return DIVERGENT_TAIL
    return UNCERTIFIED_TAIL


def gap_entropy_sum(lengths, w: Weight) -> float:
    """Sum of m log w(m) over an explicit finite gap-length family, one
    term at a time, largest first; -inf where w vanishes on a gap length."""
    lens = np.sort(np.asarray(lengths, dtype=float))[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = lens * np.asarray(w.log(lens))
    if np.any(np.isneginf(terms)):
        return -math.inf
    # cumsum adds one term at a time
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


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
    explicit = gap_entropy_sum(E.lengths, w)
    if explicit == -math.inf:
        tv = TaggedValue(DIVERGES, None, -math.inf, -math.inf,
                         "w vanishes on a gap length")
        return EntropySumResult(tv)
    tail = None if E.tail is None else _tail_sum_bounds(E.tail, w)
    return EntropySumResult(
        _tagged(explicit, Bracket(explicit, explicit), tail), tail)


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
    # the widths, ROUND_REL per value, (n - 1) u of the sum (Higham, ch. 4)
    size = float(np.sum(np.abs(vals)))
    err = ((ROUND_REL + max(vals.size - 1, 0) * UNIT_ROUNDOFF) * size
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
    mu_p = CircleMeasure(atoms=mu.atom_list, cantor_parts=p_parts,
                         multipliers=mu.multipliers, name=f"{mu.name}_P")
    mu_c = CircleMeasure(cantor_parts=c_parts, multipliers=mu.multipliers,
                         name=f"{mu.name}_C")
    return Classification(mu_p, mu_c, tuple(undecided), tuple(certs))
