"""Certified evaluation of Blaschke products, singular inner and outer
functions, growth-space norms, and the Carleson outer function built from
Whitney arcs.

Singular inner functions of realized measures evaluate in closed form
(finite exponential sums); error radii track float accumulation.  The
Carleson outer function is a truncated series of simple-pole terms with
poles just outside the disc above each Whitney arc; truncation errors are
bounded through the per-gap coefficient tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
import numpy as np

from .circle import Arc, CircleMeasure, ClosedCircleSet, modulus_of_continuity
from .entropy import entropy_sum
from .grids import neg_log_at_depth
from .weights import Weight, effective_lambda, _maximize_unit

TWO_PI = 2.0 * math.pi
FLOAT_TERM = 5e-15
WHITNEY_LEVELS = 60
CHUNK = 1 << 14  # source columns per partial sum of a kernel sum
BLOCK_ELEMS = 1 << 14  # terms per kernel-sum block: scratch stays in cache


@dataclass(frozen=True)
class AnalyticValue:
    value: complex
    err: float

    @property
    def modulus(self) -> float:
        return abs(self.value)


def unit_point(t):
    return np.exp(2j * math.pi * np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlaschkeSeq:
    zeros: tuple
    rotation: float = 0.0

    def __post_init__(self):
        if any(abs(z) >= 1.0 for z in self.zeros):
            raise ValueError("Blaschke zeros must lie in the open disc")


def blaschke_many(B: BlaschkeSeq, z: np.ndarray) -> np.ndarray:
    out = np.full(z.shape, np.exp(1j * B.rotation), dtype=complex)
    for lam in B.zeros:
        if lam == 0:
            out = out * z
        else:
            out = out * (abs(lam) / lam) * (lam - z) / (1.0 - np.conj(lam) * z)
    return out


def eval_blaschke(B: BlaschkeSeq, z: complex) -> AnalyticValue:
    if abs(z) > 1.0 + 1e-12:
        raise ValueError("Blaschke products are evaluated on the closed disc")
    val = complex(blaschke_many(B, np.array([z]))[0])
    return AnalyticValue(val, len(B.zeros) * 1e-14 * max(1.0, abs(val)))


# ---------------------------------------------------------------------------
# Singular inner functions (realized measures: closed-form exponential sums)
# ---------------------------------------------------------------------------

def _cauchy_sum(z, sources, terms, dtypes=(complex,)):
    """Per-target sums over the sources of a kernel's terms.

    ``terms(zt, *chunk, work, *parts)`` writes the (targets, sources)
    terms of each output, one per dtype, into ``parts``; ``work`` is
    complex scratch of the same shape.  Sources go in chunks of CHUNK
    columns, summed in order; targets go in row blocks of about
    BLOCK_ELEMS terms, and the scratch is allocated once and reused by
    every block.  A target's sum depends only on that target and the
    sources: batching, order and BLOCK_ELEMS never change a bit.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    n = sources[0].size
    cols = max(1, min(CHUNK, n))
    rows = max(1, BLOCK_ELEMS // cols)
    outs = [np.zeros(flat.size, dtype=d) for d in dtypes]
    size = min(rows, flat.size) * cols
    scratch = [np.empty(size, dtype=d) for d in (complex,) + tuple(dtypes)]
    for r in range(0, flat.size, rows):
        zt = flat[r:r + rows, None]
        accs = [out[r:r + rows] for out in outs]
        for i in range(0, n, CHUNK):
            chunk = [s[i:i + CHUNK] for s in sources]
            shape = (zt.shape[0], chunk[0].size)
            work, *parts = [b[:shape[0] * shape[1]].reshape(shape)
                            for b in scratch]
            terms(zt, *chunk, work, *parts)
            for acc, part in zip(accs, parts):
                acc += np.sum(part, axis=-1)
    return tuple(out.reshape(z.shape) for out in outs)


def _herglotz_terms(zt, zc, mz, mc, work, terms, budget):
    # (zeta + z) / (zeta - z) times m, and m |.| for the budget; ``terms``
    # holds zeta - z until the product overwrites it
    ker = np.divide(np.add(zc, zt, out=work), np.subtract(zc, zt, out=terms),
                    out=work)
    np.multiply(mz, ker, out=terms)
    np.multiply(mc, np.abs(ker, out=budget), out=budget)


def _herglotz_sum(mu: CircleMeasure, z: np.ndarray):
    """sum_atoms m (zeta+z)/(zeta-z) and the accumulated |term| budget."""
    pos, masses = mu.realized()[:2]
    # the masses as complex once: the cast the product would make per term
    return _cauchy_sum(z, (unit_point(pos), masses.astype(complex), masses),
                       _herglotz_terms, (complex, float))


def singular_inner_many(mu: CircleMeasure, z: np.ndarray):
    """(values, errs) of S_mu on an array of interior points."""
    z = np.asarray(z, dtype=complex)
    h, budget = _herglotz_sum(mu, z)
    with np.errstate(under="ignore"):
        vals = np.exp(-h)
    errs = np.abs(vals) * budget * FLOAT_TERM * 2.0
    return vals, errs


def log_modulus_many(mu: CircleMeasure, z: np.ndarray):
    """(log|S_mu|, err) on interior points, safe where |S| underflows."""
    z = np.asarray(z, dtype=complex)
    h, budget = _herglotz_sum(mu, z)
    return -h.real, budget * FLOAT_TERM * 2.0


def eval_singular_inner(mu: CircleMeasure, z: complex,
                        eps: float = 1e-10) -> AnalyticValue:
    if abs(z) >= 1.0:
        raise ValueError("singular inner functions are evaluated inside the disc")
    vals, errs = singular_inner_many(mu, np.array([z]))
    return AnalyticValue(complex(vals[0]), float(errs[0]))


def _deriv_terms(zt, zc, res, work, terms):
    # m 2 zeta / (zeta - z)^2; the residues m 2 zeta are formed once per sum
    np.divide(res, np.square(np.subtract(zc, zt, out=work), out=work),
              out=terms)


def singular_inner_deriv_many(mu: CircleMeasure, z: np.ndarray) -> np.ndarray:
    # S' = -S * sum m 2 zeta / (zeta - z)^2
    pos, masses = mu.realized()[:2]
    z = np.asarray(z, dtype=complex)
    vals, _ = singular_inner_many(mu, z)
    if pos.size == 0:
        return np.zeros(z.shape, dtype=complex)
    zeta = unit_point(pos)
    acc, = _cauchy_sum(z, (zeta, masses * 2.0 * zeta), _deriv_terms)
    return -vals * acc


# ---------------------------------------------------------------------------
# Outer functions from piecewise-constant boundary data
# ---------------------------------------------------------------------------

def _herglotz_arc(a: float, b: float, z: complex):
    """int over t in [a,b] of (zeta+z)/(zeta-z) dt, adaptive bisection."""
    nodes, wts = np.polynomial.legendre.leggauss(12)
    nodes6, wts6 = np.polynomial.legendre.leggauss(6)

    def kernel(t):
        zeta = unit_point(t)
        return (zeta + z) / (zeta - z)

    out = 0.0 + 0.0j
    err = 0.0
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        mid = 0.5 * (lo + hi)
        rad = 0.5 * (hi - lo)
        d = abs(unit_point(mid) - z)
        if TWO_PI * rad > 0.5 * d and rad > 1e-12:
            stack.append((lo, mid))
            stack.append((mid, hi))
            continue
        coarse = np.sum(wts6 * kernel(mid + rad * nodes6)) * rad
        fine = np.sum(wts * kernel(mid + rad * nodes)) * rad
        out += fine
        err += abs(fine - coarse)
    return out, err


def eval_outer(segments, z: complex) -> AnalyticValue:
    """Outer function with piecewise-constant boundary log-modulus.

    ``segments``: iterable of (Arc, log_modulus).  They should cover the
    circle up to null overlap; uncovered parts contribute log-modulus 0.
    """
    if abs(z) >= 1.0:
        raise ValueError("outer functions are evaluated inside the disc")
    total = 0.0 + 0.0j
    err = 0.0
    for arc, logm in segments:
        if logm == 0.0:
            continue
        h, e = _herglotz_arc(arc.start, arc.start + arc.length, z)
        total += logm * h
        err += abs(logm) * e
    val = np.exp(total)
    return AnalyticValue(complex(val), float(abs(val) * (err + 1e-14)))


# ---------------------------------------------------------------------------
# Growth-space norms and moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthEstimate:
    sup_estimate: float
    argmax: complex

    def __float__(self):
        return self.sup_estimate


def growth_norm_estimate(f, w: Weight, J: int = 12) -> GrowthEstimate:
    """Grid lower bound for sup w(1-|z|) |f(z)|.

    Radii 1 - 2^-j for j <= J with ~2^(j+3) angles each; the estimate is a
    lower bound of the true norm by construction.
    """
    best = -math.inf
    best_z = 0.0 + 0.0j
    for j in range(J + 1):
        r = 1.0 - 2.0 ** -j
        n_ang = 2 ** (min(j, 14) + 3)
        th = np.arange(n_ang) / n_ang
        zs = r * unit_point(th)
        vals = np.abs(f(zs))
        wv = w(2.0 ** -j)
        i = int(np.argmax(vals))
        if wv * vals[i] > best:
            best = float(wv * vals[i])
            best_z = complex(zs[i])
    return GrowthEstimate(best, best_z)


@dataclass(frozen=True)
class MomentCheck:
    sup: float
    bound: float
    ok: bool


def moment_check(w: Weight, n: int) -> MomentCheck:
    """Monomial growth norm against the 3 w(1/n) envelope."""
    if n < 2:
        raise ValueError("moment bound applies from n = 2 on")
    _, sup = _maximize_unit(lambda r: w(1.0 - r) * r ** n)
    bound = 3.0 * w(1.0 / n)
    return MomentCheck(sup, bound, sup <= bound * (1.0 + 1e-12))


# ---------------------------------------------------------------------------
# Lower envelope and corona datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundCheck:
    min_margin: float
    ok: bool


def lower_bound_check(nu: CircleMeasure, samples, eps: float = 1e-9
                      ) -> LowerBoundCheck:
    """log|S_nu(z)| + 6 omega(1-|z|)/(1-|z|) >= 0 at each sample.

    Everything runs on the log scale (|S| may underflow float64 close to
    the carrier while the envelope still holds by orders of magnitude).
    The certified upper modulus enters the margin, so a negative margin
    can only come from a genuine violation of the envelope.
    """
    zs = np.asarray(samples, dtype=complex)
    if np.any(np.abs(zs) >= 1.0):
        raise ValueError("samples must lie in the open disc")
    logmods, errs = log_modulus_many(nu, zs)
    margins = []
    for z, lm, e in zip(zs, logmods, errs):
        d = 1.0 - abs(z)
        om = modulus_of_continuity(nu, d)
        margins.append(lm - e + 6.0 * om.upper / d)
    worst = float(min(margins))
    return LowerBoundCheck(worst, worst >= -eps)


@dataclass(frozen=True)
class CoronaCheck:
    min_combined: float
    bound: float
    ok: bool
    n_samples: int


def corona_datum_check(mu_k: CircleMeasure, n_k: int, c: float, w: Weight,
                       grid_density: int = 64) -> CoronaCheck:
    """inf over the disc of |S_mu_k(z)| + |z|^(2^n_k) against w(2^-n_k)^(12c).

    Sampling is two-zone: a radial-angular grid on |z| <= 1 - 2^-n_k (with
    extra rays through the support), and radial rays beyond, where the
    monomial term alone is at least 1/4 and dominates the bound.
    """
    meta = mu_k.grating_meta
    if meta is None or meta.get("depth") != n_k or meta.get("c") != c:
        raise ValueError("measure is not tagged as a grating at this depth")
    log_bound = -12.0 * c * neg_log_at_depth(w, n_k)
    bound = math.exp(log_bound)
    if bound >= 0.25:
        raise ValueError("need w(2^-n)^{12c} < 1/4 for the outer zone bound")
    pos = mu_k.positions_float()
    support_angles = pos[:: max(1, pos.size // grid_density)]
    base = np.arange(grid_density) / grid_density
    angles = np.unique(np.concatenate([base, support_angles]))
    rays = support_angles if support_angles.size else np.array([0.0])
    grid = [1.0 - 2.0 ** -j for j in range(1, min(n_k, 50) + 1)]
    # outer zone: radial-only refinement; the monomial term clears 1/4
    outer = [1.0 - 2.0 ** -n_k * 2.0 ** -i for i in range(1, 9)]
    zs = np.concatenate([np.zeros(1, dtype=complex)]
                        + [r * unit_point(angles) for r in grid]
                        + [r * unit_point(rays) for r in outer])
    vals, errs = singular_inner_many(mu_k, zs)
    mod = np.maximum(np.abs(vals) - errs, 0.0)
    with np.errstate(divide="ignore"):
        mono = np.exp(2.0 ** n_k * np.log(np.maximum(np.abs(zs), 1e-300)))
    mono = np.where(np.abs(zs) == 0.0, 0.0, mono)
    worst = float(np.min(mod + mono))
    return CoronaCheck(worst, bound, worst >= bound - 1e-15, zs.size)


def corona_parameter_report(w: Weight, c: float, n0: int,
                            K: float = 10.0) -> dict:
    """Admissibility of grating parameters for the quantitative solvability
    argument: the product 48 c K must stay below 1 and the starting depth
    must satisfy w(2^-n0)^(12c) < min(1/4, 3^(-1/K)).  K is a config
    stand-in for the absolute solvability constant, reporting only.
    """
    product = 48.0 * c * K
    cap = min(0.25, 3.0 ** (-1.0 / K))
    start = math.exp(-12.0 * c * neg_log_at_depth(w, n0))
    return {"K": K, "c": c, "n0": n0, "product_48cK": product,
            "admissible_c": product < 1.0, "start_value": start,
            "start_cap": cap, "admissible_n0": start < cap}


# ---------------------------------------------------------------------------
# Whitney arcs and the Carleson outer function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhitneyArc:
    start: float
    length: float
    gap_index: int
    generation: int
    side: int  # -1 left family, +1 right family


@dataclass(frozen=True)
class WhitneyDecomposition:
    arcs: tuple
    parent: ClosedCircleSet
    levels: int

    def lengths(self) -> np.ndarray:
        return np.array([a.length for a in self.arcs])


def whitney(E: ClosedCircleSet, levels: int = WHITNEY_LEVELS
            ) -> WhitneyDecomposition:
    """Tile each gap by two geometric families of arcs.

    Gap (a, a+L): left family [a + L 2^-(k+2), a + L 2^-(k+1)) and the
    mirror image; each arc's length equals its distance to the nearer gap
    endpoint.  Truncation at ``levels`` leaves 2^-levels of each gap
    uncovered next to the endpoints.
    """
    if not E.gaps:
        raise ValueError("set has no gaps")
    arcs = []
    for gi, g in enumerate(E.gaps):
        a, L = g.start, g.length
        for k in range(levels):
            ln = L * 2.0 ** -(k + 2)
            arcs.append(WhitneyArc((a + ln) % 1.0, ln, gi, k, -1))
            arcs.append(WhitneyArc((a + L - 2.0 * ln) % 1.0, ln, gi, k, +1))
    return WhitneyDecomposition(tuple(arcs), E, levels)


@dataclass
class CarlesonOuter:
    whitney: WhitneyDecomposition
    weight: Weight
    N: float
    coeffs: np.ndarray = field(repr=False)
    poles: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    rhos: np.ndarray = field(repr=False)
    gap_endpoints: np.ndarray = field(repr=False)
    tail_coeffs: np.ndarray = field(repr=False)
    tail_scale: np.ndarray = field(repr=False)


def carleson_outer(E: ClosedCircleSet, w: Weight, N: float,
                   levels: int = WHITNEY_LEVELS) -> CarlesonOuter:
    """Build the outer function exp(-N sum_k psi_k) over the Whitney arcs.

    psi_k(z) = m(J_k) log(1/w(m(J_k))) xi_k / (rho_k xi_k - z) with
    rho_k = 1 + m(J_k); every pole rho_k xi_k sits outside the closed disc
    at distance m(J_k), and Re psi_k > 0 on the disc.
    """
    if not 0.0 < N < math.inf:
        raise ValueError(f"N must be positive and finite, got {N!r}")
    res = entropy_sum(E, w).result
    if res.tag != "finite":
        raise ValueError("Carleson outer functions need finite entropy")
    wd = whitney(E, levels)
    lens = wd.lengths()
    u = -np.asarray(w.log(lens))
    if np.any(u < 0):
        raise ValueError("w must stay below 1 on Whitney arc lengths")
    coeffs = lens * u
    mids = np.array([(a.start + a.length / 2.0) % 1.0 for a in wd.arcs])
    centers = unit_point(mids)
    rhos = 1.0 + lens
    lam = effective_lambda(w)
    ends = []
    tails = []
    scales = []
    for gi, g in enumerate(E.gaps):
        for side, e in ((-1, g.start), (+1, g.start + g.length)):
            m_last = g.length * 2.0 ** -(levels + 1)
            u_last = -float(w.log(m_last))
            # coefficient tail of one geometric family below the last level
            tails.append(m_last * (u_last + 2.0 * math.log(4.0) / lam))
            ends.append(complex(unit_point(e % 1.0)))
            scales.append(m_last)
    return CarlesonOuter(wd, w, N, coeffs, rhos * centers, centers, rhos,
                         np.asarray(ends), np.array(tails), np.array(scales))


def _psi_terms(zt, pl, res, work, terms):
    # m log(1/w(m)) xi / (rho xi - z); the residues are formed once per sum
    np.divide(res, np.subtract(pl, zt, out=work), out=terms)


def psi_sum_many(G: CarlesonOuter, z: np.ndarray):
    """(sum_k psi_k(z), truncation bound) on an array of disc points."""
    z = np.asarray(z, dtype=complex)
    acc, = _cauchy_sum(z, (G.poles, G.coeffs * G.centers), _psi_terms)
    # tail: for each gap endpoint the remaining poles cluster within a few
    # tail lengths of the endpoint
    tail = np.zeros(z.shape, dtype=float)
    for e, tc, sc in zip(G.gap_endpoints, G.tail_coeffs, G.tail_scale):
        d = np.maximum(np.abs(z - e) - 16.0 * sc, sc)
        tail = tail + tc / d
    return acc, tail


def eval_carleson(G: CarlesonOuter, z: complex) -> AnalyticValue:
    vals, errs = carleson_many(G, np.array([z]))
    return AnalyticValue(complex(vals[0]), float(errs[0]))


def carleson_many(G: CarlesonOuter, z: np.ndarray):
    psi, tail = psi_sum_many(G, z)
    return _carleson_bound(psi, tail, G.N)


def _carleson_bound(psi, tail, N: float):
    """(values, error radii) of exp(-N psi) from psi and its tail bound."""
    vals = np.exp(-N * psi)
    errs = np.abs(vals) * np.expm1(N * tail)
    return vals, errs


def boundary_ratio(psi, tail, N: float, wh) -> tuple:
    """(max of (|G| + err) / w(h) over samples at depths h, whether it stays
    within 1 + 1e-9) for G = exp(-N psi); ``wh`` holds the w(h)."""
    vals, errs = _carleson_bound(psi, tail, N)
    worst = float(np.max((np.abs(vals) + errs) / wh))
    return worst, worst <= 1.0 + 1e-9


class NoAdmissibleN(RuntimeError):
    """No N up to the cap kept |G| + err below w(h) at the samples."""


def n_ladder(n_max: float):
    """N = 1, 2, 4, ... up to n_max, the order in which the search tries N."""
    N = 1.0
    while N <= n_max:
        yield N
        N *= 2.0


def auto_carleson_N(G: CarlesonOuter, psi, tail, hs,
                    n_max: float = 2.0 ** 20) -> CarlesonOuter:
    """G at the first N of the doubling ladder whose exp(-N psi) satisfies
    |G(z)| + err <= w(h) at the samples, from ``(psi, tail)`` =
    ``psi_sum_many(G, zs)`` and the samples' depths ``hs``.

    psi and its tail bound do not depend on N: one sum serves every rung.
    """
    wh = np.asarray(G.weight(hs))
    for N in n_ladder(n_max):
        if boundary_ratio(psi, tail, N, wh)[1]:
            return replace(G, N=N)
    raise NoAdmissibleN("no admissible N below the cap")
