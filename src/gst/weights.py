"""Weights and majorants on [0,1] with grid-certified regularity checks.

A weight is a continuous nondecreasing function w on [0,1] with w(0) = 0.
A majorant is a weight such that w^lambda is a modulus of continuity
(nondecreasing, subadditive, vanishing at 0) for some lambda > 0.  All
checks in this module operate on dyadic sample grids with an absolute
comparison tolerance of ORDER_TOL; they certify behaviour at the sampled
resolution, nothing finer.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate, optimize, special

from .util import as_float, as_floats, as_int, as_list, fields

ORDER_TOL = 1e-12
CONTINUITY_DEPTH = 20
MAX_GRID_DEPTH = 16
MAX_LOG_DEPTH = 16  # most nested logs in a log_power weight
CONTINUITY_TOL = 1e-2
SWEEP_BLOCK = 2 ** 16  # elements one block of the subadditivity sweep compares
DEFAULT_LAMBDAS = (4.0, 2.0, 1.0, 0.5, 0.25, 0.125)

_CONTINUITY_GRID = np.linspace(0.0, 1.0, 2 ** CONTINUITY_DEPTH + 1)
_CONTINUITY_GRID.setflags(write=False)


class InvalidWeightError(ValueError):
    """Weight evaluation broke a structural requirement (negative, NaN, or 0)."""


class UncertifiedError(RuntimeError):
    """A tail or error bound could not be certified for this weight."""


def _nested_log(t: np.ndarray, depth: int) -> np.ndarray:
    # L_1(t) = log(e/t), L_{d+1}(t) = 1 + log L_d(t); L_d(1) = 1, L_d(0+) = inf.
    with np.errstate(divide="ignore"):
        val = 1.0 + np.log(1.0 / t)
    for _ in range(depth - 1):
        val = 1.0 + np.log(val)
    return val


@dataclass(frozen=True)
class Weight:
    """A weight with vectorized evaluation and an analytic log form.

    ``log_eval`` returns log w(t); keeping it analytic lets checks reason
    about weights whose values underflow float64 (fast-decay fixtures).
    """

    kind: str
    params: tuple = ()
    lambda_hint: Optional[float] = None
    name: str = ""
    _eval: Optional[Callable] = field(default=None, repr=False, compare=False)
    _log_eval: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.kind == "power":
                (alpha,) = self.params
                out = np.power(t_arr, alpha)
            elif self.kind == "log_power":
                c, depth = self.params
                out = np.power(_nested_log(t_arr, depth), -c)
            elif self.kind == "exp_log":
                alpha, beta = self.params
                out = np.exp(-alpha * np.power(1.0 + np.log(1.0 / t_arr), beta))
            elif self.kind == "table":
                ts, ws = self.params
                out = np.interp(t_arr, ts, ws)
            else:
                out = np.asarray(self._eval(t_arr), dtype=float)
        if self.kind in ("power", "log_power", "exp_log"):
            out = np.where(t_arr == 0.0, 0.0, out)  # the t -> 0 limit
        return float(out) if np.isscalar(t) or out.ndim == 0 else out

    def log(self, t):
        """log w(t), finite for t > 0 whenever mathematically finite."""
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.kind == "power":
                (alpha,) = self.params
                out = alpha * np.log(t_arr)
            elif self.kind == "log_power":
                c, depth = self.params
                out = -c * np.log(_nested_log(t_arr, depth))
            elif self.kind == "exp_log":
                alpha, beta = self.params
                out = -alpha * np.power(1.0 + np.log(1.0 / t_arr), beta)
            elif self._log_eval is not None:
                out = np.asarray(self._log_eval(t_arr), dtype=float)
            else:
                vals = self(t_arr)
                bad = (np.asarray(vals) == 0.0) & (t_arr > 0)
                if np.any(bad):
                    raise InvalidWeightError(
                        f"{self.label()} underflows to 0 at t>0 and has no log form"
                    )
                out = np.log(vals)
        return float(out) if np.isscalar(t) or out.ndim == 0 else out

    def pow(self, lam: float) -> "Weight":
        """The weight w^lam (exact on the analytic kinds)."""
        if self.kind == "power":
            return Weight("power", (self.params[0] * lam,),
                          name=f"{self.label()}^{lam:g}")
        if self.kind == "log_power":
            c, depth = self.params
            return Weight("log_power", (c * lam, depth),
                          name=f"{self.label()}^{lam:g}")
        if self.kind == "exp_log":
            a, b = self.params
            return Weight("exp_log", (a * lam, b), name=f"{self.label()}^{lam:g}")
        if self.kind == "table":
            ts, ws = self.params
            return Weight("table", (ts, tuple(v ** lam for v in ws)),
                          name=f"{self.label()}^{lam:g}")
        base = self
        return Weight(
            "custom", (lam,) + self.params, name=f"{self.label()}^{lam:g}",
            _eval=lambda t: np.power(base(t), lam),
            _log_eval=(lambda t: lam * np.asarray(base.log(t)))
            if base._log_eval is not None else None,
        )

    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "power":
            return f"t^{self.params[0]:g}"
        if self.kind == "log_power":
            c, depth = self.params
            return f"{'log' * depth}^-{c:g}"
        if self.kind == "exp_log":
            return f"exp(-{self.params[0]:g} log^{self.params[1]:g})"
        return self.kind


def _positive(value, what: str) -> float:
    x = as_float(value, what)
    if not x > 0:
        raise InvalidWeightError(f"{what} must be positive, got {x!r}")
    return x


def _hint(lambda_hint, default: Optional[float] = None) -> Optional[float]:
    """A finite positive lambda_hint, or ``default`` in place of None."""
    return default if lambda_hint is None else _positive(lambda_hint,
                                                         "lambda_hint")


def power(alpha: float, lambda_hint: Optional[float] = None) -> Weight:
    alpha = _positive(alpha, "power exponent")
    return Weight("power", (alpha,),
                  lambda_hint=_hint(lambda_hint, min(1.0, 1.0 / alpha)))


def log_power(c: float, depth: int = 1,
              lambda_hint: Optional[float] = None) -> Weight:
    c = _positive(c, "log_power c")
    depth = as_int(depth, "log depth")
    if not 1 <= depth <= MAX_LOG_DEPTH:
        raise InvalidWeightError(
            f"log_power depth must lie in 1 .. {MAX_LOG_DEPTH}, got {depth}")
    # log^-c is subadditive only once the exponent is brought down to ~1
    return Weight("log_power", (c, depth),
                  lambda_hint=_hint(lambda_hint, min(1.0, 1.0 / c)))


def exp_log(alpha: float, beta: float,
            lambda_hint: Optional[float] = None) -> Weight:
    alpha = _positive(alpha, "exp_log alpha")
    beta = _positive(beta, "exp_log beta")
    return Weight("exp_log", (alpha, beta),
                  lambda_hint=_hint(lambda_hint, 1.0 if beta <= 1 else None))


def table_weight(points, lambda_hint: Optional[float] = None) -> Weight:
    pts = sorted(tuple(as_floats(p, "table point", 2)) for p in points)
    if not pts:
        raise InvalidWeightError("table needs points")
    ts = tuple(p[0] for p in pts)
    ws = tuple(p[1] for p in pts)
    if ts[0] != 0.0 or abs(ws[0]) > ORDER_TOL:
        raise InvalidWeightError("table must start at (0, 0)")
    if ts[-1] != 1.0:
        raise InvalidWeightError("table must reach t = 1")
    if any(b < a - ORDER_TOL for a, b in zip(ws, ws[1:])):
        raise InvalidWeightError("table values must be nondecreasing")
    return Weight("table", (ts, ws), lambda_hint=_hint(lambda_hint),
                  name="table")


def custom_weight(name, eval_fn, log_eval=None, lambda_hint=None) -> Weight:
    return Weight("custom", (), lambda_hint=lambda_hint, name=name,
                  _eval=eval_fn, _log_eval=log_eval)


# every field a weight's JSON form may hold; each kind takes some of them
_SPEC_FIELDS = ("alpha", "beta", "c", "depth", "points", "lambda_hint")


def from_spec(spec) -> Weight:
    """Build a weight from its JSON form, e.g. {"kind": "power", "alpha": 0.5}."""
    if isinstance(spec, Weight):
        return spec
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        args = [float(x) for x in rest.split(",") if x]
        if kind == "power" and len(args) == 1:
            return power(args[0])
        if kind == "log" and len(args) <= 2:
            return log_power(*(args or [1.0]))
        if kind == "exp_log" and len(args) == 2:
            return exp_log(args[0], args[1])
        raise InvalidWeightError(
            f"weight spec {spec!r} is not power:a, log[:c[,depth]] or "
            "exp_log:a,b")
    kind = fields(spec, "weight", "kind", optional=_SPEC_FIELDS)["kind"]
    hint = spec.get("lambda_hint")
    if kind == "power":
        fields(spec, "power weight", "kind", "alpha",
               optional=("lambda_hint",))
        return power(spec["alpha"], hint)
    if kind == "log_power":
        fields(spec, "log_power weight", "kind", "c",
               optional=("depth", "lambda_hint"))
        return log_power(spec["c"], spec.get("depth", 1),
                         hint if hint is not None else 1.0)
    if kind == "exp_log":
        fields(spec, "exp_log weight", "kind", "alpha", "beta",
               optional=("lambda_hint",))
        return exp_log(spec["alpha"], spec["beta"], hint)
    if kind == "table":
        fields(spec, "table weight", "kind", "points",
               optional=("lambda_hint",))
        return table_weight(as_list(spec["points"], "table points"), hint)
    raise InvalidWeightError(f"unknown weight kind {reprlib.repr(kind)}")


def to_spec(w: Weight) -> dict:
    if w.kind == "power":
        return {"kind": "power", "alpha": w.params[0], "lambda_hint": w.lambda_hint}
    if w.kind == "log_power":
        return {"kind": "log_power", "c": w.params[0], "depth": w.params[1],
                "lambda_hint": w.lambda_hint}
    if w.kind == "exp_log":
        return {"kind": "exp_log", "alpha": w.params[0], "beta": w.params[1],
                "lambda_hint": w.lambda_hint}
    if w.kind == "table":
        ts, ws = w.params
        return {"kind": "table", "points": [[t, v] for t, v in zip(ts, ws)],
                "lambda_hint": w.lambda_hint}
    raise InvalidWeightError(f"weight kind {w.kind!r} has no JSON form")


# ---------------------------------------------------------------------------
# Regularity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusCheck:
    ok: bool
    witness: Optional[tuple] = None
    reason: str = ""


def _validate_values(w: Weight, vals: np.ndarray) -> None:
    if not (np.isfinite(vals).all() and vals.min() >= 0):
        raise InvalidWeightError(f"{w.label()} returned a negative or non-finite value")


def _check_grid_depth(grid_depth: int) -> None:
    if grid_depth < 4:
        raise ValueError("grid_depth must be at least 4")
    if grid_depth > MAX_GRID_DEPTH:
        raise ValueError(f"grid_depth must be at most {MAX_GRID_DEPTH}")


def _continuity_violation(w: Weight, work=None) -> Optional[ModulusCheck]:
    """The failed check of w on the 2^CONTINUITY_DEPTH grid, or None.

    Raises InvalidWeightError on a negative or non-finite value, then checks
    w(0) = 0, monotonicity and jumps.  ``work``, a Counter, gains one
    ``continuity_grids``.
    """
    if work is not None:
        work["continuity_grids"] += 1
    fine = _CONTINUITY_GRID
    fvals = np.asarray(w(fine))
    _validate_values(w, fvals)
    if abs(fvals[0]) > ORDER_TOL:
        return ModulusCheck(False, (0.0, 0.0), "w(0) != 0")
    jumps = np.diff(fvals)
    if jumps.min() < -ORDER_TOL:
        i = int(np.argmax(jumps < -ORDER_TOL))
        return ModulusCheck(False, (fine[i], fine[i + 1]), "not nondecreasing")
    # The step off t = 0 is exempt: slowly-vanishing weights (iterated logs)
    # are continuous at 0 but no finite grid resolves that; w(0) = 0 plus
    # monotonicity certifies the endpoint.
    if jumps[1:].max() > CONTINUITY_TOL:
        i = 1 + int(np.argmax(jumps[1:] > CONTINUITY_TOL))
        return ModulusCheck(False, (fine[i], fine[i + 1]), "jump discontinuity")
    return None


def _first_violation(vals: np.ndarray, work=None) -> Optional[tuple]:
    """The first (i, j), row-major, with vals[i] + vals[j] + ORDER_TOL <
    vals[i + j] over 1 <= i <= j <= n - i, where n = vals.size - 1.

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
    tgt = sliding_window_view(
        np.concatenate([vals, np.full(n - 1, -np.inf)]), n - 1)
    for i0 in range(1, last + 1, rows):
        i1 = min(i0 + rows, last + 1)
        width = n - 2 * i0 + 1
        viol = (vals[i0:i1, None] + src[i0:i1, :width] + ORDER_TOL
                < tgt[2 * i0:2 * i1:2, :width])
        if work is not None:
            work["sweep_rows"] += i1 - i0
        hit = viol.any(axis=1)
        if hit.any():
            r = int(np.argmax(hit))
            return i0 + r, i0 + r + int(np.argmax(viol[r]))
    return None


def _subadditivity_violation(w: Weight, grid_depth: int,
                             work=None) -> Optional[ModulusCheck]:
    """The first pair (s, t) with w(s) + w(t) + ORDER_TOL < w(s + t), or None.

    The grids k/2^d for d = 2 .. grid_depth are swept coarse to fine, and
    each grid's values are validated as the continuity grid's are.
    """
    for depth in range(2, grid_depth + 1):
        n = 2 ** depth
        grid = np.arange(n + 1) / n
        vals = np.asarray(w(grid))
        _validate_values(w, vals)
        hit = _first_violation(vals, work)
        if hit is not None:
            return ModulusCheck(False, (grid[hit[0]], grid[hit[1]]),
                                "not subadditive")
    return None


def check_modulus_of_continuity(w: Weight, grid_depth: int,
                                work=None) -> ModulusCheck:
    """Certify monotonicity, continuity, w(0)=0 and subadditivity on a dyadic grid.

    The check has two halves, run in this order.  Monotonicity and
    continuity are checked on the fixed 2^CONTINUITY_DEPTH grid
    (``_continuity_violation``).  Subadditivity, w(s) + w(t) >= w(s + t), is
    then swept over the grids k/2^d for d = 2 .. grid_depth, coarse to fine,
    in blocks of rows s = i/2^d, each row against every t = j/2^d with
    i <= j and i + j <= 2^d (``_subadditivity_violation``).  The returned
    witness is thus the first failed continuity check, or else the first
    violating pair, in row-major order, at the coarsest failing resolution.
    Scratch memory is O(2^grid_depth) and time O(4^grid_depth); grid_depth
    must lie in 4 .. MAX_GRID_DEPTH.  ``work``, a Counter, gains
    ``continuity_grids`` and ``sweep_rows``.
    """
    _check_grid_depth(grid_depth)
    return (_continuity_violation(w, work)
            or _subadditivity_violation(w, grid_depth, work)
            or ModulusCheck(True))


@dataclass(frozen=True)
class MajorantCheck:
    ok: bool
    lam: Optional[float] = None


def check_majorant(w: Weight, lambda_candidates=DEFAULT_LAMBDAS,
                   grid_depth: int = 10, work=None) -> MajorantCheck:
    """First lambda in the candidate list with w^lambda a modulus of continuity.

    A candidate passes when both halves of check_modulus_of_continuity
    pass, so each is swept first: the sweep usually fails on the coarsest
    grids, and only a candidate that passes it pays for the
    2^CONTINUITY_DEPTH continuity grid.  A NaN or negative value off every
    sweep grid is thus found (InvalidWeightError) only at a candidate whose
    sweep passes.  ``work`` is as in check_modulus_of_continuity.
    """
    if not lambda_candidates:
        raise ValueError("need at least one lambda candidate")
    _check_grid_depth(grid_depth)
    for lam in lambda_candidates:
        wl = w.pow(lam)
        if (_subadditivity_violation(wl, grid_depth, work) is None
                and _continuity_violation(wl, work) is None):
            return MajorantCheck(True, lam)
    return MajorantCheck(False)


@lru_cache(maxsize=256)
def effective_lambda(w: Weight, grid_depth: int = 10) -> float:
    """Largest certified lambda with w^lambda a modulus of continuity.

    The declared lambda_hint is validated before use; candidates are tried
    largest first because a larger exponent tightens every bound downstream.
    """
    cands = list(DEFAULT_LAMBDAS)
    if w.lambda_hint is not None:
        cands = sorted(set(cands) | {float(w.lambda_hint)}, reverse=True)
    res = check_majorant(w, tuple(cands), grid_depth)
    if not res.ok:
        raise UncertifiedError(f"{w.label()} is not certified as a majorant")
    return res.lam


def almost_decreasing_violation(w: Weight, lam: float, depth: int = 12) -> float:
    """Worst violation of  w^lam(t)/t <= 2 w^lam(s)/s  over sampled 0<s<t<1."""
    t = np.arange(1, 2 ** depth + 1) / 2 ** depth
    with np.errstate(divide="ignore"):
        q = lam * np.asarray(w.log(t)) - np.log(t)  # log of w^lam(t)/t
    # violation at t is q[t] - min_{s<t} q[s] - log 2, positive where the
    # factor-2 almost-decrease fails on the grid
    best_prefix = np.minimum.accumulate(q)
    viol = q[1:] - (best_prefix[:-1] + math.log(2.0))
    return float(np.max(viol))


@dataclass(frozen=True)
class A1Check:
    ratio_low: float
    ratio_high: float
    ok: bool


def check_A1(w: Weight, depth: int) -> A1Check:
    """Comparability of log(1/w) at t and t^2 over the dyadic grid.

    Returns the extreme ratios log(1/w(t^2)) / log(1/w(t)); the acceptance
    band (0, 64) is a pragmatic stand-in for two-sided comparability with
    an unspecified constant.
    """
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


@dataclass(frozen=True)
class A2Check:
    dini_integral: float
    ok: bool
    tail: float = 0.0


def _dini_tail(w: Weight, alpha: float, s: float) -> float:
    """Closed-form bound for int_0^s w^alpha(t) dt/t, by weight kind."""
    if w.kind == "power":
        e = alpha * w.params[0]
        return s ** e / e
    if w.kind == "log_power":
        c, depth = w.params
        if depth > 1:
            return math.inf  # iterated-log weights are never Dini
        e = alpha * c
        if e <= 1.0:
            return math.inf
        return (1.0 + math.log(1.0 / s)) ** (1.0 - e) / (e - 1.0)
    if w.kind == "exp_log":
        a, beta = w.params
        c = alpha * a
        x = 1.0 + math.log(1.0 / s)
        # int_x^inf exp(-c y^beta) dy via the upper incomplete gamma function
        return (special.gamma(1.0 / beta) *
                special.gammaincc(1.0 / beta, c * x ** beta) /
                (beta * c ** (1.0 / beta)))
    if w.lambda_hint is None:
        raise UncertifiedError(
            f"no tail certificate for {w.label()} (missing lambda_hint)")
    # Evidence-based geometric extrapolation from trailing dyadic blocks.
    blocks = []
    for j in range(4):
        a, b = s / 2 ** (j + 1), s / 2 ** j
        val, _ = integrate.quad(lambda t: w(t) ** alpha / t, a, b)
        blocks.append(val)
    if blocks[0] <= 0:
        return 0.0
    rho = (blocks[3] / blocks[0]) ** (1.0 / 3.0) if blocks[3] > 0 else 0.0
    if rho >= 0.95:
        return math.inf
    return blocks[0] * rho / (1.0 - rho) + sum(blocks[1:])


def check_A2(w: Weight, alpha: float, quad_depth: int, work=None) -> A2Check:
    """Dini-type integral of w^alpha with a certified (or evidenced) tail.

    ``work`` is as in check_modulus_of_continuity, for the majorant check.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0,1]")
    if quad_depth < 1:
        raise ValueError("quad_depth must be at least 1")
    # precondition at majorant level: some power of w^(1+alpha) is subadditive
    if not check_majorant(w.pow(1.0 + alpha), grid_depth=8, work=work).ok:
        raise InvalidWeightError("w^(1+alpha) is not a majorant")
    total = 0.0
    for j in range(quad_depth):
        a, b = 2.0 ** -(j + 1), 2.0 ** -j
        val, _ = integrate.quad(
            lambda u: math.exp(alpha * w.log(math.exp(u))),
            math.log(a), math.log(b), limit=100)
        total += val
    tail = _dini_tail(w, alpha, 2.0 ** -quad_depth)
    ok = math.isfinite(tail)
    return A2Check(total + (tail if ok else 0.0), ok, tail)


def _maximize_unit(fn) -> tuple:
    """Max of fn over (0,1): coarse bracket plus bounded local refinement."""
    grid = np.linspace(1e-9, 1.0 - 1e-9, 513)
    vals = np.array([fn(t) for t in grid])
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(lambda t: -fn(t), bounds=(lo, hi),
                                   method="bounded",
                                   options={"xatol": 1e-12})
    if -res.fun >= vals[i]:
        return float(res.x), float(-res.fun)
    return float(grid[i]), float(vals[i])


@dataclass(frozen=True)
class ConditionACheck:
    kappa: float
    C1: float
    ok: bool


def check_condition_a(w: Weight, n_max: int) -> ConditionACheck:
    """Moment-type decay: sup_t t^n w(1-t) <= C1 w(1/n)^kappa with C1 <= 10."""
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    w0 = w(0.0)
    if abs(w0) > ORDER_TOL:
        raise InvalidWeightError("w(0) must vanish")
    ns, sups = [], []
    n = 2
    while n <= n_max:
        _, sup = _maximize_unit(lambda t: t ** n * w(1.0 - t))
        ns.append(n)
        sups.append(sup)
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


def neg_log_integral(w: Weight, ell: float, lam: float) -> float:
    """int_0^ell log(1/w(t)) dt with a certified bracket at the endpoint."""
    eps = ell * 2.0 ** -48
    total = 0.0
    for j in range(48):
        a, b = ell * 2.0 ** -(j + 1), ell * 2.0 ** -j
        val, _ = integrate.quad(lambda t: -w.log(t), a, b, limit=80)
        total += val
    # |log w| <= (1/lam)(log(1/t) + c0) below eps, c0 from almost-decreasing at eps
    c0 = -lam * w.log(eps) - math.log(eps)
    total += (eps * (1.0 + math.log(1.0 / eps)) + eps * max(c0, 0.0)) / lam
    return total


def check_condition_b(w: Weight, depth: int) -> ConditionBCheck:
    """Averaged-entropy comparability: int_0^l log(1/w) <= C2 l log(1/w(l))."""
    lam = effective_lambda(w)
    worst = 0.0
    for j in range(2, depth + 1):
        ell = 2.0 ** -j
        denom = -w.log(ell) * ell
        if denom <= 0:
            continue  # w(l) = 1 boundary convention: excluded from the max
        worst = max(worst, neg_log_integral(w, ell, lam) / denom)
    return ConditionBCheck(worst, math.isfinite(worst) and worst > 0)
