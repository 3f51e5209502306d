"""Weights and majorants on [0,1] and their regularity checks.

A weight is a continuous nondecreasing function w on [0,1] with w(0) = 0.
A majorant is a weight such that w^lambda is a modulus of continuity
(nondecreasing, subadditive, vanishing at 0) for some lambda > 0.

Every weight is one ``KINDS`` record, continuous and nondecreasing with
w(0) = 0 by construction: the closed forms for every positive parameter,
a table because ``table_weight`` rejects a start off (0, 0), a fall, a
negative value and a jump.  The records prove what they can: each
closed-form record gives the exact slope sup over u >= 0 of
d/du log(1/w(e^-u)), and lambda times it at most 1 makes w^lambda(t)/t
nonincreasing, so w^lambda a modulus of continuity, while an unbounded
slope disproves every lambda; a table's segments are checked exactly.
The dyadic subadditivity sweeps to MAJORANT_GRID_DEPTH, compared with a
relative tolerance of ORDER_TOL, are the fallback for what no record
settles: a violation they find is a disproof, a pass only evidence at the
sampled resolution.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .util import as_float, as_floats, as_int, as_list, fields

ORDER_TOL = 1e-12
MAX_LOG_DEPTH = 16  # most nested logs in a log_power weight
SWEEP_BLOCK = 2 ** 16  # elements one block of the subadditivity sweep compares
DEFAULT_LAMBDAS = (4.0, 2.0, 1.0, 0.5, 0.25, 0.125)
MAJORANT_GRID_DEPTH = 10  # finest grid of every subadditivity sweep
UNIT_ROUNDOFF = 2.0 ** -53
# relative error allowed in one computed value of w or of an integrand:
# 2^13 ulps, room for the exp/log/pow chains of the analytic kinds at
# arguments up to about 700 in magnitude
ROUND_REL = 2.0 ** -40
DINI_CELLS = 2 ** 12  # cells per dyadic block of a Dini integral
DINI_NODES = 2 ** 20  # past this many nodes a Dini block gets fewer cells
NEG_LOG_BLOCKS = 48
NEG_LOG_CELLS = 2 ** 8  # cells per dyadic block of neg_log_integral
SUP_RTOL = 2.0 ** -20  # how far a moment_sup cell's bound may pass its best
SUP_SPLIT = 8
SUP_ROUNDS = 16
CF_TERMS = 4096  # most terms of Legendre's continued fraction


class InvalidWeightError(ValueError):
    """Weight evaluation broke a structural requirement (negative, NaN, or 0)."""


class UncertifiedError(RuntimeError):
    """A tail or error bound could not be certified for this weight."""


def _nested_log(val, depth: int, log=np.log):
    # L_1(t) = 1 + log(1/t) = val, L_{d+1}(t) = 1 + log L_d(t); L_d(1) = 1,
    # L_d(0+) = inf.  ``log`` is np.log on arrays, math.log on a float.
    for _ in range(depth - 1):
        val = 1.0 + log(val)
    return val


@dataclass(frozen=True)
class WeightKind:
    """Everything one built-in weight kind decides.

    ``fields`` name the parameters in ``params`` order, as the JSON form
    spells them and the compact form ``short:v1,v2`` lists them; a spec
    gives at least the first ``required``.  ``make`` builds the weight
    from them and ``spec(params)`` gives them back.  ``value(t, *params)``
    is w on an array t, ``label(*params)`` its name and ``hint(*params)``
    the default lambda_hint.  A closed-form kind also gives log w(t) as
    ``log(t, *params)`` and log(1/w(e^-u)) for a float u as
    ``neg_log(u, *params)``, both free of underflow, and its ``value``
    itself gives the t -> 0 limit w(0) = +0.0.  Its ``slope(*params)`` is
    the exact sup over u >= 0 of d/du log(1/w(e^-u)), a Fraction of the
    float params, or None where the slope is unbounded (``_record_verdict``
    reads it).
    """

    fields: tuple
    required: int
    make: Callable
    value: Callable
    label: Callable
    hint: Callable = lambda *params: None
    short: Optional[str] = None
    spec: Callable = tuple
    log: Optional[Callable] = None
    neg_log: Optional[Callable] = None
    slope: Optional[Callable] = None


@dataclass(frozen=True)
class Weight:
    """A weight of one ``KINDS`` record, with vectorized evaluation.

    ``log`` returns log w(t); the closed-form kinds keep it analytic, so
    checks can reason about weights whose values underflow float64 (the
    fast-decay fixtures).
    """

    kind: str
    params: tuple = ()
    lambda_hint: Optional[float] = None

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = KINDS[self.kind].value(t_arr, *self.params)
        return float(out) if np.isscalar(t) or out.ndim == 0 else out

    def log(self, t):
        """log w(t), finite for t > 0 whenever mathematically finite."""
        t_arr = np.asarray(t, dtype=float)
        kind = KINDS[self.kind]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if kind.log is not None:
                out = kind.log(t_arr, *self.params)
            else:
                vals = self(t_arr)
                bad = (np.asarray(vals) == 0.0) & (t_arr > 0)
                if np.any(bad):
                    raise InvalidWeightError(
                        f"{self.label()} underflows to 0 at t>0 and has no log form"
                    )
                out = np.log(vals)
        return float(out) if np.isscalar(t) or out.ndim == 0 else out

    def neg_log_at_depth(self, n: int) -> float:
        """log(1/w(2^-n)), free of underflow for the closed-form kinds."""
        kind = KINDS[self.kind]
        if kind.neg_log is not None:
            return kind.neg_log(n * math.log(2.0), *self.params)
        t = 2.0 ** -n
        if t == 0.0:
            return math.inf
        return -float(self.log(t))

    def label(self) -> str:
        return KINDS[self.kind].label(*self.params)


def _positive(value, what: str) -> float:
    x = as_float(value, what)
    if not x > 0:
        raise InvalidWeightError(f"{what} must be positive, got {x!r}")
    return x


def _weight(kind: str, params: tuple, lambda_hint) -> Weight:
    """A built-in weight; a lambda_hint of None takes the kind's default."""
    return Weight(kind, params, lambda_hint=KINDS[kind].hint(*params)
                  if lambda_hint is None
                  else _positive(lambda_hint, "lambda_hint"))


def power(alpha: float, lambda_hint: Optional[float] = None) -> Weight:
    return _weight("power", (_positive(alpha, "power exponent"),),
                   lambda_hint)


def log_power(c: float, depth: int = 1,
              lambda_hint: Optional[float] = None) -> Weight:
    c = _positive(c, "log_power c")
    depth = as_int(depth, "log depth")
    if not 1 <= depth <= MAX_LOG_DEPTH:
        raise InvalidWeightError(
            f"log_power depth must lie in 1 .. {MAX_LOG_DEPTH}, got {depth}")
    return _weight("log_power", (c, depth), lambda_hint)


def exp_log(alpha: float, beta: float,
            lambda_hint: Optional[float] = None) -> Weight:
    return _weight("exp_log", (_positive(alpha, "exp_log alpha"),
                               _positive(beta, "exp_log beta")), lambda_hint)


def exp_recip(c: float, depth: int = 1,
              lambda_hint: Optional[float] = None) -> Weight:
    """log(1/w(t)) = c E_depth(1/t), with E_1(x) = x and E_2(x) = e^x:
    exp(-c/t) and exp(-c e^(1/t)), which vanish too fast at 0 to be
    majorants."""
    c = _positive(c, "exp_recip c")
    depth = as_int(depth, "exp_recip depth")
    if depth not in (1, 2):
        raise InvalidWeightError(
            f"exp_recip depth must be 1 or 2, got {depth}")
    return _weight("exp_recip", (c, depth), lambda_hint)


def table_weight(points, lambda_hint: Optional[float] = None) -> Weight:
    """The piecewise-linear weight through ``points``.  It must be a
    weight as it stands, since nothing samples it for continuity: no value
    below 0, w(0) = 0 exactly, no fall at all and no jump (one t
    with two values)."""
    pts = sorted(tuple(as_floats(p, "table point", 2)) for p in points)
    if not pts:
        raise InvalidWeightError("table needs points")
    ts = tuple(p[0] for p in pts)
    ws = tuple(p[1] for p in pts)
    if min(ws) < 0.0:
        raise InvalidWeightError("table values must be nonnegative")
    if ts[0] != 0.0 or ws[0] != 0.0:
        raise InvalidWeightError("table must start at (0, 0)")
    if ts[-1] != 1.0:
        raise InvalidWeightError("table must reach t = 1")
    if any(b < a for a, b in zip(ws, ws[1:])):
        raise InvalidWeightError("table values must be nondecreasing")
    jump = next((t0 for (t0, v0), (t1, v1) in zip(pts, pts[1:])
                 if t0 == t1 and v0 != v1), None)
    if jump is not None:
        raise InvalidWeightError(f"table jumps at t = {jump!r}")
    return _weight("table", (ts, ws), lambda_hint)


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _iter_exp(x, depth: int, exp=np.exp):
    # E_1(x) = x, E_2(x) = e^x; ``exp`` is np.exp on arrays
    return x if depth == 1 else exp(x)


def _reciprocal_hint(slope: float) -> float:
    """min(1, the largest float lam with lam * slope <= 1 exactly): the
    default lambda, which the slope then proves."""
    if slope <= 1.0:
        return 1.0  # and 1 / slope may overflow
    lam = 1.0 / slope
    if Fraction(lam) * Fraction(slope) > 1:
        lam = math.nextafter(lam, 0.0)
    return lam


KINDS = {
    "power": WeightKind(
        fields=("alpha",), required=1, short="power", make=power,
        value=lambda t, a: np.power(t, a),
        log=lambda t, a: a * np.log(t),
        neg_log=lambda u, a: a * u,
        slope=Fraction,
        label=lambda a: f"t^{a:g}",
        hint=_reciprocal_hint),
    "log_power": WeightKind(
        fields=("c", "depth"), required=1, short="log", make=log_power,
        value=lambda t, c, depth: np.power(
            _nested_log(1.0 - np.log(t), depth), -c),
        log=lambda t, c, depth: -c * np.log(
            _nested_log(1.0 - np.log(t), depth)),
        neg_log=lambda u, c, depth: c * math.log(
            _nested_log(1.0 + u, depth, math.log)),
        # d/du log L_d(u) is at most 1, its value at u = 0, at any depth
        slope=lambda c, depth: Fraction(c),
        label=lambda c, depth: f"{'log' * depth}^-{c:g}",
        hint=lambda c, depth: _reciprocal_hint(c)),
    "exp_log": WeightKind(
        fields=("alpha", "beta"), required=2, short="exp_log", make=exp_log,
        value=lambda t, a, b: np.exp(-a * np.power(1.0 - np.log(t), b)),
        log=lambda t, a, b: -a * np.power(1.0 - np.log(t), b),
        neg_log=lambda u, a, b: a * (1.0 + u) ** b,
        # a b (1 + u)^(b - 1): its value at u = 0 for b <= 1, unbounded past
        slope=lambda a, b: Fraction(a) * Fraction(b) if b <= 1 else None,
        label=lambda a, b: f"exp(-{a:g} log^{b:g})",
        hint=lambda a, b: 1.0 if b <= 1 else None),
    "table": WeightKind(
        fields=("points",), required=1,
        # a JSON table is a list of points; table_weight takes any iterable
        make=lambda points, lambda_hint=None: table_weight(
            as_list(points, "table points"), lambda_hint),
        value=lambda t, ts, ws: np.interp(t, ts, ws),
        label=lambda ts, ws: "table",
        spec=lambda params: ([[t, v] for t, v in zip(*params)],)),
    "exp_recip": WeightKind(
        fields=("c", "depth"), required=1, make=exp_recip,
        value=lambda t, c, depth: np.exp(-c * _iter_exp(1.0 / t, depth)),
        log=lambda t, c, depth: -c * _iter_exp(1.0 / t, depth),
        neg_log=lambda u, c, depth: c * _iter_exp(
            _exp_or_inf(u), depth, _exp_or_inf),
        # d/du of c e^u or of c exp(e^u) grows without bound
        slope=lambda c, depth: None,
        label=lambda c, depth: f"exp(-{c:g}"
                               f"{'/t' if depth == 1 else ' exp(1/t)'})"),
}


def from_spec(spec) -> Weight:
    """Build a weight from its JSON form, e.g. {"kind": "power", "alpha": 0.5},
    or from its compact form: power:a, log:c[,depth] or exp_log:a,b.  The
    compact form is read into the JSON form, so both build the same weight.
    """
    if isinstance(spec, Weight):
        return spec
    if isinstance(spec, str):
        short, _, rest = spec.partition(":")
        args = [float(x) for x in rest.split(",") if x]
        kind = next((k for k, rec in KINDS.items() if rec.short == short
                     and rec.required <= len(args) <= len(rec.fields)), None)
        if kind is None:
            raise InvalidWeightError(
                f"weight spec {spec!r} is not power:a, log:c[,depth] or "
                "exp_log:a,b")
        spec = {"kind": kind, **dict(zip(KINDS[kind].fields, args))}
    # any field here: the kind's own fields are checked below
    kind = fields(spec, "weight", "kind", optional=spec)["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise InvalidWeightError(f"unknown weight kind {reprlib.repr(kind)}")
    rec = KINDS[kind]
    fields(spec, f"{kind} weight", "kind", *rec.fields[:rec.required],
           optional=rec.fields + ("lambda_hint",))
    return rec.make(*(spec[f] for f in rec.fields if f in spec),
                    lambda_hint=spec.get("lambda_hint"))


def to_spec(w: Weight) -> dict:
    kind = KINDS[w.kind]
    return {"kind": w.kind, **dict(zip(kind.fields, kind.spec(w.params))),
            "lambda_hint": w.lambda_hint}


# ---------------------------------------------------------------------------
# Regularity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusCheck:
    ok: bool
    witness: Optional[tuple] = None
    reason: str = ""


def _validate_values(w: Weight, vals: np.ndarray, lam: float = 1.0) -> None:
    if not (np.isfinite(vals).all() and vals.min() >= 0):
        name = w.label() if lam == 1.0 else f"{w.label()}^{lam:g}"
        raise InvalidWeightError(
            f"{name} returned a negative or non-finite value")


def _values(w: Weight, grid: np.ndarray, lam: float) -> np.ndarray:
    """w(grid)^lam, validated.  The power is taken of w's own values, so a
    table is read as itself, not as the table through (t, v^lam)."""
    vals = np.asarray(w(grid))
    if lam != 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.power(vals, lam)
    _validate_values(w, vals, lam)
    return vals


def _table_proof(ts, vs, lam: float) -> bool:
    """Whether f^lam(t)/t is proved nonincreasing on (0, 1], f the
    piecewise-linear table through (ts, vs), with f(0) = 0 and f
    nondecreasing and continuous.

    Exactly, in Fractions of the floats: v(0) = 0, and every segment
    f = v0 + m (t - t0) rises over a positive width with lam m t <= f(t),
    a linear condition checked at both ends.  At lam = 1 that says the
    segment meets t = 0 at or above 0.
    """
    t, v = [Fraction(x) for x in ts], [Fraction(x) for x in vs]
    lam = Fraction(lam)
    return v[0] == 0 and all(
        t1 > t0 and v1 >= v0 and lam * (v1 - v0) * t0 <= v0 * (t1 - t0)
        and lam * (v1 - v0) * t1 <= v1 * (t1 - t0)
        for t0, t1, v0, v1 in zip(t, t[1:], v, v[1:]))


def _record_verdict(w: Weight, lam: float, work=None) -> Optional[bool]:
    """Whether the record of w's kind proves (True) or disproves (False)
    that w^lam is a modulus of continuity; None where it settles neither.

    With g(u) = lam log(1/w(e^-u)), w^lam(t)/t is nonincreasing exactly
    when g' <= 1, that is lam times the kind's slope at most 1, compared
    in Fractions.  A nonincreasing w^lam(t)/t with w(0) = 0 makes w^lam
    subadditive, w(s + t) <= s w(s)/s + t w(t)/t, and the closed forms
    are continuous and nondecreasing.  An unbounded slope (exp_log with
    beta > 1, exp_recip) disproves every lam: there w^lam(t)/t -> 0,
    while a nonzero nondecreasing subadditive f on [0, 1] has
    f(t) >= f(1) t/2.  A table is proved by _table_proof of w^lam itself,
    the function the grid fallback sweeps, and never disproved.  ``work``,
    a Counter, gains one ``slope_proofs`` per settled verdict.
    """
    if w.kind == "table":
        verdict = _table_proof(*w.params, lam) or None
    else:
        slope = KINDS[w.kind].slope(*w.params)
        verdict = slope is not None and (Fraction(lam) * slope <= 1 or None)
    if work is not None and verdict is not None:
        work["slope_proofs"] += 1
    return verdict


def _first_violation(vals: np.ndarray, work=None) -> Optional[tuple]:
    """The first (i, j), row-major, with vals[i] + vals[j] <
    vals[i + j] (1 - ORDER_TOL) over 1 <= i <= j <= n - i, where
    n = vals.size - 1.  The tolerance is relative, so a pass of f is a
    pass of every f^p with p <= 1 on the same grid:
    f(s)^p + f(t)^p >= (f(s) + f(t))^p.

    Rows [i0, i1) are compared at once, at most SWEEP_BLOCK elements: row i
    reads vals[i + k] and vals[2i + k] for k < n - 2 i0 + 1 through two
    read-only sliding windows.  The source is zero-padded and the target
    -inf-padded, so no window reads past its array and every k past the
    row's own end, k > n - 2i, compares against -inf and is no violation.
    ``work``, a Counter, gains the rows compared as ``sweep_rows``.
    """
    n = vals.size - 1
    last = n // 2
    rows = max(1, min(last, SWEEP_BLOCK // n))
    src = sliding_window_view(np.concatenate([vals, np.zeros(last)]), n - 1)
    tgt = sliding_window_view(np.concatenate(
        [vals * (1.0 - ORDER_TOL), np.full(n - 1, -np.inf)]), n - 1)
    for i0 in range(1, last + 1, rows):
        i1 = min(i0 + rows, last + 1)
        width = n - 2 * i0 + 1
        viol = (vals[i0:i1, None] + src[i0:i1, :width]
                < tgt[2 * i0:2 * i1:2, :width])
        if work is not None:
            work["sweep_rows"] += i1 - i0
        hit = viol.any(axis=1)
        if hit.any():
            r = int(np.argmax(hit))
            return i0 + r, i0 + r + int(np.argmax(viol[r]))
    return None


def _modulus_check(w: Weight, lam: float, work=None) -> tuple:
    """(verdict, check): whether f = w^lam is a modulus of continuity.

    The record of w's kind settles it where ``_record_verdict`` gives a
    verdict, True or False, a disproof with no witness.  Else (verdict
    None) the grids k/2^d for d = 2 .. MAJORANT_GRID_DEPTH are swept
    coarse to fine for a pair (s, t) with f(s) + f(t) <
    f(s + t) (1 - ORDER_TOL), and each grid's values are validated: a
    negative or non-finite one raises InvalidWeightError.
    """
    verdict = _record_verdict(w, lam, work)
    if verdict is not None:
        return verdict, ModulusCheck(True) if verdict else ModulusCheck(
            False, None, "w(t)/t -> 0 as t -> 0: not subadditive")
    for depth in range(2, MAJORANT_GRID_DEPTH + 1):
        n = 2 ** depth
        grid = np.arange(n + 1) / n
        hit = _first_violation(_values(w, grid, lam), work)
        if hit is not None:
            return None, ModulusCheck(
                False, (grid[hit[0]], grid[hit[1]]), "not subadditive")
    return None, ModulusCheck(True)


def check_modulus_of_continuity(w: Weight) -> ModulusCheck:
    """Subadditivity of w, the other modulus properties holding by
    construction: check_majorant's step at lambda 1 (``_modulus_check``).
    A record's disproof has no witness; a sweep's witness is the first
    violating pair, row-major, on the coarsest failing grid, and a sweep's
    pass is evidence at its resolution only.
    """
    return _modulus_check(w, 1.0)[1]


@dataclass(frozen=True)
class MajorantCheck:
    """The first lambda that passed, if any.  ``certified`` says that the
    verdict rests on the kind's record alone: it proves lam, or it
    disproves every candidate.  ``modulus`` is check_modulus_of_continuity
    as the walk found it, or None where the candidates skip 1; it is no
    part of the verdict, so equality ignores it."""

    ok: bool
    lam: Optional[float] = None
    certified: bool = False
    modulus: Optional[ModulusCheck] = field(default=None, compare=False)


def lambda_candidates(w: Weight) -> tuple:
    """DEFAULT_LAMBDAS and w's lambda_hint, largest first, since a larger
    exponent tightens every bound downstream."""
    if w.lambda_hint is None:
        return DEFAULT_LAMBDAS
    return tuple(sorted(set(DEFAULT_LAMBDAS) | {float(w.lambda_hint)},
                        reverse=True))


def check_majorant(w: Weight, candidates, work=None) -> MajorantCheck:
    """First lambda in ``candidates`` with w^lambda a modulus of continuity.

    Each candidate is settled as in check_modulus_of_continuity, of
    w(t)^lambda (``_modulus_check``): the kind's record first, where a
    proof takes the candidate and a disproof skips it, else the
    subadditivity sweep.  The candidates that pass form a down-set, as
    f^p is subadditive for p <= 1 when f is, so a pass at some lambda >= 1
    makes w itself a modulus of continuity, and else the step at lambda 1
    is that check.  ``work``, a Counter, gains ``slope_proofs`` and
    ``sweep_rows``.
    """
    if not candidates:
        raise ValueError("need at least one lambda candidate")
    disproved, modulus = True, None
    for lam in candidates:
        verdict, res = _modulus_check(w, lam, work)
        if res.ok:
            return MajorantCheck(True, lam, verdict is not None,
                                 ModulusCheck(True) if lam >= 1.0
                                 else modulus)
        if lam == 1.0:
            modulus = res
        disproved = disproved and verdict is not None
    return MajorantCheck(False, None, disproved, modulus)


@lru_cache(maxsize=256)
def effective_lambda(w: Weight) -> float:
    """Largest lambda with w^lambda a modulus of continuity, by
    check_majorant: proved by the kind's record, or else grid evidence.

    The declared lambda_hint is validated before use.
    """
    res = check_majorant(w, lambda_candidates(w))
    if not res.ok:
        raise UncertifiedError(f"{w.label()} is not certified as a majorant")
    return res.lam


@dataclass(frozen=True)
class A1Check:
    ratio_low: float
    ratio_high: float
    ok: bool


def check_A1(w: Weight, depth: int) -> A1Check:
    """Comparability of log(1/w) at t and t^2 over the dyadic grid.

    Returns the extreme ratios log(1/w(t^2)) / log(1/w(t)); the acceptance
    band (0, 64) is a pragmatic stand-in for two-sided comparability with
    an unspecified constant.  A closed-form log w is linear in the first
    parameter, so the ratio is taken with that parameter's binary exponent
    cancelled: exact, and no huge or tiny one overflows both logs.
    """
    if KINDS[w.kind].log is not None:
        w = Weight(w.kind, (math.frexp(w.params[0])[0],) + w.params[1:])
    js = np.arange(2, depth + 1)
    t = 2.0 ** -js
    u_t = -np.asarray(w.log(t))
    u_t2 = -np.asarray(w.log(t * t))
    if np.any(np.isnan(u_t)) or np.any(u_t[np.isfinite(u_t)] <= 0):
        raise InvalidWeightError("check_A1 needs 0 < w(t) < 1 on the sample grid")
    with np.errstate(invalid="ignore"):
        ratios = u_t2 / u_t
    # An infinite log(1/w) (value underflowing any float) shows up as an
    # inf or inf/inf ratio: comparability fails on the grid.
    if np.any(~np.isfinite(ratios)):
        finite = ratios[np.isfinite(ratios)]
        lo = float(np.min(finite)) if finite.size else math.nan
        return A1Check(lo, math.inf, False)
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    ok = 0.0 < lo and hi < 64.0
    return A1Check(lo, hi, ok)


# ---------------------------------------------------------------------------
# Certified brackets for integrals and sups of monotone functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bracket:
    """A certified enclosure low <= value <= high; high may be inf."""

    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))

    @property
    def mid(self) -> float:
        # halves first: the sum of two large ends may overflow
        return 0.5 * self.low + 0.5 * self.high

    def __add__(self, other: "Bracket") -> "Bracket":
        # fsum rounds once, so one step outward keeps the enclosure
        return Bracket(
            math.nextafter(math.fsum((self.low, other.low)), -math.inf),
            math.nextafter(math.fsum((self.high, other.high)), math.inf))


def _widen(low: float, high: float, rel: float = ROUND_REL) -> Bracket:
    """[low, high] moved outward by ``rel`` of each magnitude."""
    return Bracket(low - rel * abs(low), high + rel * abs(high))


def monotone_integral(fn, nodes) -> Bracket:
    """Bracket of the integral of a monotone fn over [nodes[0], nodes[-1]].

    ``nodes`` is an increasing array and fn a vectorized function on it.
    On each cell between two nodes the integral lies between the cell's
    width times the smaller and times the larger endpoint value, so the
    lower and upper Riemann sums enclose the whole integral whichever way
    fn runs.  Each sum is widened by ROUND_REL per value plus one unit
    roundoff per cell for the products and the summation (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 4), taken of
    the largest |fn| times the interval's length.
    """
    vals = np.asarray(fn(nodes), dtype=float)
    if np.isnan(vals).any():
        raise InvalidWeightError("integrand is NaN on the quadrature grid")
    widths = np.diff(nodes)
    lower = float(np.sum(np.minimum(vals[:-1], vals[1:]) * widths))
    upper = float(np.sum(np.maximum(vals[:-1], vals[1:]) * widths))
    size = float(np.max(np.abs(vals))) * float(nodes[-1] - nodes[0])
    pad = (ROUND_REL + (widths.size + 1) * UNIT_ROUNDOFF) * size
    return Bracket(lower - pad, upper + pad)


def _legendre_cf(sigma: float, x) -> tuple:
    """(low, high, terms): two consecutive convergents of Legendre's
    continued fraction (DLMF 8.9.2)

        e^x x^-sigma Gamma(sigma, x)
            = 1/(x + (1 - sigma)/(1 + 1/(x + (2 - sigma)/(1 + 2/(x + ...)))))

    for 0 <= sigma <= 1 and x > 0, on an array x elementwise.  Every partial
    numerator is then >= 0, so any two consecutive convergents enclose the
    value; it stops when all agree to a few ulps, or after CF_TERMS terms.
    """
    p0, p1, q0, q1 = 1.0, 0.0, 0.0, 1.0  # numerators and denominators
    f_prev = f = math.inf
    for j in range(1, CF_TERMS + 1):
        m = j // 2
        if j % 2:
            num, den = float(max(m, 1)), x
        else:
            num, den = m - sigma, 1.0
        p0, p1 = p1, den * p1 + num * p0
        q0, q1 = q1, den * q1 + num * q0
        p0, p1, q0, q1 = p0 / q1, p1 / q1, q0 / q1, 1.0  # rescale
        f_prev, f = f, p1
        if np.all(abs(f - f_prev) <= 4.0 * UNIT_ROUNDOFF * f):
            break
    low, high = np.minimum(f, f_prev), np.maximum(f, f_prev)
    return (low, high, j) if np.ndim(x) else (float(low), float(high), j)


def _lower_series(sigma: float, x: float) -> tuple:
    """(low, high, terms): a bracket of e^x x^-sigma Gamma(sigma, x) for
    0 < sigma <= 1 and 0 < x < 1, as e^x x^-sigma Gamma(sigma) - S with the
    lower series S = sum_n x^n / (sigma)_(n+1) (DLMF 8.7.1, 8.2.3).

    The terms are positive and fall by x / (sigma + n) < 1, so the sum
    stops at the first term below a unit roundoff of the sum, and the rest
    is at most that term over 1 - x / (sigma + terms + 1), a geometric
    bound.  The first term is exp(x - sigma log x + log Gamma(sigma)), with
    math.lgamma's log Gamma(sigma) in the exponent, so no factor overflows
    apart; it is widened by ROUND_REL and for the exponent's rounding, the
    terms and their sum for theirs.  The value is at least
    Gamma(sigma, 1) >= E_1(1) > 0.2, which keeps the low end positive where
    the difference cancels.
    """
    term, total, terms = 1.0 / sigma, 0.0, 0
    while term > UNIT_ROUNDOFF * total:
        total += term
        terms += 1
        term *= x / (sigma + terms)
    rest = term / (1.0 - x / (sigma + terms + 1.0))
    rel_sum = 8.0 * (terms + 2) * UNIT_ROUNDOFF
    parts = (x, -sigma * math.log(x), math.lgamma(sigma))  # lgamma >= 0
    lead = _exp_or_inf(math.fsum(parts))
    rel_lead = ROUND_REL + (4.0 * sum(map(abs, parts)) + 4.0) * UNIT_ROUNDOFF
    low = lead * (1.0 - rel_lead) - (total + rest) * (1.0 + rel_sum)
    high = lead * (1.0 + rel_lead) - total * (1.0 - rel_sum)
    return (max(0.2, math.nextafter(low, -math.inf)),
            math.nextafter(high, math.inf), terms)


def _pow_or_inf(y: float, p: float) -> float:
    """y ** p, or inf where it overflows."""
    try:
        return y ** p
    except OverflowError:
        return math.inf


def _exp_log_tail(c: float, beta: float) -> Bracket:
    """Bracket of int_1^inf exp(-c y^beta) dy = Gamma(s, c) / (beta c^s)
    with s = 1/beta.

    The recurrence Gamma(m + 1, x) = x^m e^-x + m Gamma(m, x) (DLMF 8.8.2)
    lowers s into sigma in (0, 1], where Gamma(sigma, x) is bracketed by
    _lower_series for x < 1 and by _legendre_cf, which converges slowly
    near x = 0, from x = 1 on; here x = c.  With Gamma(m, x) = x^(m-1)
    e^-x Q_m it reads Q_(m+1) = 1 + (m/x) Q_m, whose terms are positive,
    and the integral is e^-x Q_s / (beta c), formed on the log scale.  Past
    CF_TERMS steps of the recurrence (beta < 1/CF_TERMS), or where x
    underflows, the bracket is [0, inf].  The integrand is positive, so
    the low end is at least 0.
    """
    s, x = 1.0 / beta, c
    if s > CF_TERMS + 1 or not x > 0.0:
        return Bracket(0.0, math.inf)
    steps = math.ceil(s) - 1
    sigma = s - steps
    low, high, terms = (_lower_series if x < 1.0 else _legendre_cf)(sigma, x)
    q_low, q_high, m = x * low, x * high, sigma
    for _ in range(steps):
        q_low, q_high = 1.0 + m / x * q_low, 1.0 + m / x * q_high
        m += 1.0
    # log beta and log c apart: beta c may round to 0 or lose digits
    parts = (-x, -math.log(beta), -math.log(c))
    log_low = math.fsum(parts + (math.log(q_low),))
    log_high = math.fsum(parts + (math.log(q_high),))
    # the recurrences' rounding grows with their lengths, the exponential's
    # with the size of its argument's parts; past the float range low stays
    # finite and high is inf, and an underflowed exponential is off by at
    # most the least subnormal
    size = sum(abs(p) for p in parts) + abs(math.log(q_high))
    rel = (8.0 * (terms + steps) + 4.0 * (size + 4.0)) * UNIT_ROUNDOFF
    high = math.exp(log_high) if log_high < 709.0 else math.inf
    return Bracket(max(0.0, math.exp(min(log_low, 709.0)) * (1.0 - rel)),
                   high * (1.0 + rel) + math.ulp(0.0))


def _riemann_dini(w: Weight, alpha: float, ua: float, ub: float) -> Bracket:
    """monotone_integral of the nondecreasing w(e^u)^alpha over [ua, ub],
    with DINI_CELLS uniform cells per octave, fewer past DINI_NODES."""
    blocks = max(1, math.ceil((ub - ua) / math.log(2.0)))
    cells = max(1, min(DINI_CELLS, DINI_NODES // blocks))
    nodes = np.linspace(ua, ub, blocks * cells + 1)
    # w(e^u)^alpha is nondecreasing in u = log t
    return monotone_integral(
        lambda u: np.exp(alpha * np.asarray(w.log(np.exp(u)))), nodes)


def _closed_form(value) -> Bracket:
    """A closed form's value widened by ROUND_REL; one past the float range
    is finite but no float, so its bracket is [largest float, inf]."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        return Bracket(sys.float_info.max, math.inf)
    return _widen(value, value)


def _dini_integral(w: Weight, alpha: float) -> Bracket:
    """Bracket of int_0^1 w^alpha(t) dt/t, which is int_1^inf of
    w^alpha dy in y = 1 + log(1/t), by weight kind:
    - t^a: 1/e, e = alpha a, exact in Fractions;
    - log^-c: 1/(e - 1), e = alpha c, where e > 1 exactly, else divergent;
    - iterated logs: divergent, as the integrand in u = log(1/t) is at
      least (1 + log(1 + u))^-(alpha c);
    - exp_log: int_1^inf exp(-alpha a y^beta) dy (_exp_log_tail), at least
      the box (Y - 1) e^(-1/beta) at Y = (beta alpha a)^(-1/beta) where
      Y > 2, else exp(-alpha a 2^beta), the integrand's least value on
      [1, 2]; a box past the float range gives [largest float, inf];
    - a table: w(t) = v1 t/t1 below its first knot t1 > 0, which gives
      v1^alpha/alpha, plus _riemann_dini over [log t1, 0];
    - exp_recip: [0, inf], no certificate.
    A divergent integral is [inf, inf].
    """
    if w.kind == "power":
        return _closed_form(1 / (Fraction(alpha) * Fraction(w.params[0])))
    if w.kind == "log_power":
        excess = Fraction(alpha) * Fraction(w.params[0]) - 1
        if w.params[1] > 1 or excess <= 0:
            return Bracket(math.inf, math.inf)
        return _closed_form(1 / excess)
    if w.kind == "exp_log":
        c, beta = alpha * w.params[0], w.params[1]
        whole = _exp_log_tail(c, beta)
        # the integrand falls, so it tops the box (Y - 1) exp(-c Y^beta);
        # at Y = (beta c)^(-1/beta), where c Y^beta = 1/beta, in logs with
        # log beta and log c apart (beta c may round to 0)
        log_y = -(math.log(beta) + math.log(alpha)
                  + math.log(w.params[0])) / beta
        if log_y <= math.log(2.0):
            # the box [1, 2]: the exponent's rounding is below ROUND_REL up
            # to exp's underflow, where one ulp of 0 covers it
            floor = (math.exp(-c * _pow_or_inf(2.0, beta))
                     * (1.0 - ROUND_REL) - math.ulp(0.0))
        else:
            log_box = log_y + math.log1p(-math.exp(-log_y)) - 1.0 / beta
            if log_box >= 709.0:
                return Bracket(sys.float_info.max, math.inf)
            rel = 4.0 * (abs(log_y) + 1.0 / beta + 4.0) * UNIT_ROUNDOFF
            floor = math.exp(log_box) * (1.0 - rel)
        return Bracket(max(whole.low, floor), whole.high)
    if w.kind == "table":
        ts, vs = w.params
        t1, v1 = next((t, v) for t, v in zip(ts, vs) if t > 0.0)
        head = _closed_form(v1 ** alpha / alpha)
        return head if t1 == 1.0 else head + _riemann_dini(
            w, alpha, math.log(t1), 0.0)
    return Bracket(0.0, math.inf)


@dataclass(frozen=True)
class A2Check:
    """The Dini-type integral int_0^1 w^alpha(t) dt/t.

    [low, high] encloses it, both inf where it diverges, and
    ``dini_integral`` is the midpoint, inf whenever high is; ``ok`` says
    that high is finite.  Every number is a Python float.
    """

    dini_integral: float
    ok: bool
    low: float
    high: float


def check_A2(w: Weight, alpha: float) -> A2Check:
    """Dini-type integral of w^alpha, one bracket of all of (0, 1].

    (A2) is stated for majorants and presumes one: w^(1+alpha) is a
    majorant exactly when w is, as (w^(1+alpha))^(lam/(1+alpha)) = w^lam,
    so callers read the premise from w's own check_majorant.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0,1]")
    whole = _dini_integral(w, alpha)
    return A2Check(whole.mid, math.isfinite(whole.high), whole.low,
                   whole.high)


def moment_sup(w: Weight, n: int) -> Bracket:
    """Bracket of sup over 0 < t < 1 of t^n w(1 - t).

    In s = 1 - t the function is (1 - s)^n w(s), a nonincreasing factor
    times a nondecreasing one, so on a cell [a, b] it is at most
    (1 - a)^n w(b), while its values at the nodes are lower bounds.  Cells
    are geometric in s, since the maximum sits near s = 1/n: one per octave
    from 2^-1022 to 1, plus [0, 2^-1022], where the bound is w(2^-1022).
    Each cell whose bound beats the best node value by more than SUP_RTOL
    is split into SUP_SPLIT, for at most SUP_ROUNDS rounds.  Power weights
    take the closed form at s = a/(n + a).
    """
    if w.kind == "power":
        a = w.params[0]
        s = a / (n + a)
        peak = math.exp(n * math.log1p(-s) + a * math.log(s))
        return _widen(peak, peak)
    edges = np.arange(-1022.0, 1.0)[None, :]  # log2 s, one row per parent
    steps = np.arange(SUP_SPLIT + 1) / SUP_SPLIT
    low, high = 0.0, float(w(2.0 ** -1022))
    for round_ in range(SUP_ROUNDS + 1):
        s = np.exp2(edges)
        with np.errstate(divide="ignore"):
            decay = np.exp(n * np.log1p(-s))
        vals = np.asarray(w(s), dtype=float)
        low = max(low, float(np.max(decay * vals)))
        bound = (np.maximum(decay[:, :-1], decay[:, 1:])
                 * np.maximum(vals[:, :-1], vals[:, 1:]))
        split = bound > low * (1.0 + SUP_RTOL)
        if round_ == SUP_ROUNDS or not split.any():
            high = max(high, float(np.max(bound)))
            break
        high = max(high, float(np.max(bound[~split], initial=0.0)))
        left, right = edges[:, :-1][split], edges[:, 1:][split]
        edges = left[:, None] + (right - left)[:, None] * steps
        edges[:, -1] = right
    # each value is a product of two computed factors
    return _widen(low, high, 3.0 * ROUND_REL)


@dataclass(frozen=True)
class ConditionACheck:
    kappa: float
    C1: float
    ok: bool


def check_condition_a(w: Weight, n_max: int) -> ConditionACheck:
    """Moment-type decay: sup_t t^n w(1-t) <= C1 w(1/n)^kappa with C1 <= 10.

    Each sup is moment_sup's upper bound, so a passing check is certified.
    """
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    ns, sups = [], []
    n = 2
    while n <= n_max:
        ns.append(n)
        sups.append(moment_sup(w, n).high)
        n *= 2
    c1_cap = 10.0
    kappas = []
    for n, sup in zip(ns, sups):
        wn = w(1.0 / n)
        if wn >= 1.0 - ORDER_TOL or sup <= 0:
            continue
        kappas.append(math.log(sup / c1_cap) / math.log(wn))
    if not kappas:
        return ConditionACheck(math.nan, math.nan, False)
    kappa = min(kappas)
    if kappa <= 0:
        return ConditionACheck(kappa, math.inf, False)
    c1 = max(sup / w(1.0 / n) ** kappa for n, sup in zip(ns, sups)
             if w(1.0 / n) < 1.0)
    return ConditionACheck(kappa, c1, c1 <= c1_cap + ORDER_TOL)


@dataclass(frozen=True)
class ConditionBCheck:
    C2: float
    ok: bool


def neg_log_integral(w: Weight, ell, lam: float) -> tuple:
    """(low, high) arrays bracketing int_0^ell log(1/w(t)) dt at each ell of
    an array in (0, 1/2], w^lam subadditive, each end up to ROUND_REL of its
    size, which the caller adds once.  With y0 = 1 + log(1/ell):
    - t^a: a ell y0, as a L (1 + log 2 - log L)/2 with L = 2 ell, which
      keeps the integral form's a L (log L - (1 + log 2)) bit for bit;
    - log^-c: c ell (log y0 + e^y0 E_1(y0)) (DLMF 6.2);
    - exp_log, b <= 1: a ell y0^b (1 + b e^y0 y0^-b Gamma(b, y0)) (8.8.2);
    their Gamma factors are _legendre_cf's, moved out by 8 u per term.
    Else log(1/w), nonincreasing, goes to monotone_integral once per
    distinct ell, on NEG_LOG_BLOCKS dyadic blocks of NEG_LOG_CELLS cells;
    below eps = ell 2^-NEG_LOG_BLOCKS, or below the first node that does
    not underflow for a subnormal ell, it lies between log(1/w(eps)) and
    log(1/w(eps)) + log(2 eps/t)/lam, as w^lam(t) >= w^lam(eps) t/(2 eps).
    """
    ell = np.asarray(ell, dtype=float)
    if w.kind == "power":
        L = 2.0 * ell
        value = 0.5 * (w.params[0] * L * ((1.0 + math.log(2.0)) - np.log(L)))
        return value, value
    if (w.kind == "log_power" and w.params[1] == 1
            or w.kind == "exp_log" and w.params[1] <= 1):
        c, b = w.params[0], 0.0 if w.kind == "log_power" else w.params[1]
        y0 = 1.0 - np.log(ell)
        f_low, f_high, terms = _legendre_cf(b, y0)
        rel = 8.0 * terms * UNIT_ROUNDOFF
        lead = np.log(y0) if b == 0.0 else y0 ** b  # value c ell (lead + kF)
        k = 1.0 if b == 0.0 else b * lead
        return (c * ell * (lead + k * f_low * (1.0 - rel)),
                c * ell * (lead + k * f_high * (1.0 + rel)))
    uniq, where = np.unique(ell, return_inverse=True)
    grid = np.append(np.ravel(np.exp2(-np.arange(NEG_LOG_BLOCKS, 0, -1.0))[
        :, None] * (1.0 + np.arange(NEG_LOG_CELLS) / NEG_LOG_CELLS)), 1.0)
    out = np.empty((2, uniq.size))
    for i, x in enumerate(uniq):
        nodes = np.trim_zeros(x * grid, "f")  # underflowed for a subnormal x
        body = monotone_integral(lambda t: -np.asarray(w.log(t)), nodes)
        eps = nodes[0]
        at_eps = -w.log(eps)
        out[:, i] = (body.low + eps * at_eps,
                     body.high + eps * (at_eps + (1.0 + math.log(2.0)) / lam))
    return out[0][where], out[1][where]


def check_condition_b(w: Weight, depth: int) -> ConditionBCheck:
    """Averaged-entropy comparability: int_0^l log(1/w) <= C2 l log(1/w(l))
    at l = 2^-2 .. 2^-depth, with the integral's upper bound in C2."""
    ell = 2.0 ** -np.arange(2, depth + 1)
    high = neg_log_integral(w, ell, effective_lambda(w))[1] * (1.0 + ROUND_REL)
    denom = -np.asarray(w.log(ell)) * ell
    # w(l) = 1 boundary convention: excluded from the max
    worst = float(np.max(high[denom > 0] / denom[denom > 0], initial=0.0))
    return ConditionBCheck(worst, math.isfinite(worst) and worst > 0)
