"""Certified evaluation of singular inner functions, the monomial growth
norms, the lower envelope and corona datum of the cyclicity report, and the
Carleson outer function built from Whitney arcs; finite Blaschke products
serve the model-space kernels of the dual layer.

Singular inner functions of realized measures evaluate in closed form
(finite exponential sums); error radii track float accumulation.  The
Carleson outer function is a truncated series of simple-pole terms with
poles just outside the disc above each Whitney arc; truncation errors are
bounded through the per-gap coefficient tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .circle import CircleMeasure, ClosedCircleSet, modulus_of_continuity
from .entropy import entropy_sum
from .weights import Weight, effective_lambda, moment_sup

FLOAT_TERM = 5e-15
WHITNEY_LEVELS = 60
LEAF = 16  # most sources in a leaf of a kernel-sum tree
DIRECT_MAX = 256  # up to this many sources a kernel sum adds every term
ORDER = 24  # expansion order of a far node
OPEN = 0.25  # a node is far from z when its radius is at most OPEN |z - c|
TARGET_BLOCK = 256  # targets walked together: the scratch stays a few MB
SLACK = 1.0 + 2.0 ** -40  # covers the rounding of node radii and weight sums


@dataclass(frozen=True)
class AnalyticValue:
    value: complex
    err: float


def unit_point(t):
    return np.exp(2j * math.pi * np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlaschkeSeq:
    zeros: tuple

    def __post_init__(self):
        if any(abs(z) >= 1.0 for z in self.zeros):
            raise ValueError("Blaschke zeros must lie in the open disc")


def blaschke_many(B: BlaschkeSeq, z: np.ndarray) -> np.ndarray:
    out = np.ones(z.shape, dtype=complex)
    for lam in B.zeros:
        if lam == 0:
            out = out * z
        else:
            out = out * (abs(lam) / lam) * (lam - z) / (1.0 - np.conj(lam) * z)
    return out


# ---------------------------------------------------------------------------
# Singular inner functions (realized measures: closed-form exponential sums)
# ---------------------------------------------------------------------------

class KernelTree(NamedTuple):
    """The sources of a Cauchy sum  sum_k a_k / (p_k - z)  on a binary tree.

    The sources are sorted by angle, starting just after the widest cyclic
    gap between them (the first on ties), and padded (weight 0 at the last
    position) to 2^depth leaves of equal count; the nodes of a level split
    them into equal runs, so the tree is count-balanced however the
    sources crowd, and turning the sources moves no split.  Up to
    DIRECT_MAX sources make one leaf.  Internal nodes go in heap order (the
    root is node 1, the children of node i are 2i and 2i + 1) with their
    centres c (the middle of their bounding boxes), radii rho >= max |p_k - c| and weight sums A >= sum |a_k|,
    both raised by SLACK over their float values, and, on the levels
    where a target in the closed disc could find a node far, the moments
    M_q = sum a_k (p_k - c)^q for q <= ORDER.
    """

    p: np.ndarray  # (sources per leaf, leaves): column j, each leaf's jth
    a: np.ndarray
    centres: np.ndarray  # per internal node
    radii: np.ndarray
    weights: np.ndarray
    moments: np.ndarray  # (ORDER + 1, internal nodes)
    far_levels: tuple  # per internal level: whether it holds moments


def kernel_tree(p, a) -> KernelTree:
    p = np.asarray(p, dtype=complex).reshape(-1)
    a = np.asarray(a, dtype=complex).reshape(-1)
    depth = 0 if p.size <= DIRECT_MAX else math.ceil(math.log2(p.size / LEAF))
    width = -(-p.size // 2 ** depth)
    angle = np.angle(p)
    order = np.argsort(angle, kind="stable")
    if p.size:  # start just after the widest cyclic gap, the first on ties
        gaps = np.diff(angle[order], append=angle[order[0]] + 2.0 * math.pi)
        order = np.roll(order, -1 - int(np.argmax(gaps)))
    pad = width * 2 ** depth - p.size
    p = np.concatenate([p[order], np.repeat(p[order[-1:]], pad)])
    a = np.concatenate([a[order], np.zeros(pad, dtype=complex)])
    centres = np.zeros(2 ** depth, dtype=complex)
    radii, weights = np.zeros(2 ** depth), np.zeros(2 ** depth)
    moments = np.zeros((ORDER + 1, 2 ** depth), dtype=complex)
    far_levels = []
    for lev in range(depth):
        at = slice(2 ** lev, 2 ** (lev + 1))
        pr, ar = p.reshape(2 ** lev, -1), a.reshape(2 ** lev, -1)
        c = 0.5 * (pr.real.min(axis=1) + pr.real.max(axis=1)) + \
            0.5j * (pr.imag.min(axis=1) + pr.imag.max(axis=1))
        d = pr - c[:, None]
        centres[at] = c
        radii[at] = np.abs(d).max(axis=1) * SLACK
        weights[at] = np.abs(ar).sum(axis=1) * SLACK
        far_levels.append(bool(np.any(radii[at] <= OPEN * (np.abs(c) + 1.0))))
        t = ar
        for q in range(ORDER + 1 if far_levels[-1] else 0):
            t = t * d if q else t
            moments[q, at] = t.sum(axis=1)
    return KernelTree(p.reshape(2 ** depth, width).T.copy(),
                      a.reshape(2 ** depth, width).T.copy(), centres, radii,
                      weights, moments, tuple(far_levels))


def _cauchy_sum(z, tree: KernelTree, work=None):
    """(sums, budget, truncation) of  sum_k a_k / (p_k - z)  per target, by
    a Barnes-Hut walk of ``tree``.

    Each target walks the tree from the root.  A node of centre c, radius
    rho and weight sum A is far when rho <= OPEN R, R = |z - c|; with
    w = 1/(z - c) and theta = rho/R its sources then sum as
    -sum_{q<=P} M_q w^(q+1) (P the tree's order, ORDER when it was built;
    Horner in w), and the orders dropped are at most
    A theta^(P+1) / ((1-theta) R): their sum over far nodes is
    ``truncation``.  Other nodes open into their children, and the sources
    of each leaf reached are summed term by term.  ``budget`` sums
    |a_k / (p_k - z)| over those terms and A / (R - rho) over far nodes;
    the latter is at least the former over the node's sources, so no
    budget falls below the term-by-term one.

    The far field's own rounding fits 2 FLOAT_TERM = 90 u per unit of
    budget (unit roundoff u; a complex product errs by sqrt(5) u, the
    quotient w by 7 u with z - c).  The computed a_k (p_k - c)^q err by
    3.3 q u relative, a moment's sum by s u per term as on the term-by-term
    path, and Horner's w^(q+1) by 10.3 (q+1) u: order q errs by
    (13.6 (q+1) + s) u A theta^q / R at most, all orders by
    (13.6 / (1-theta)^2 + s / (1-theta)) u A / R, against a budget of
    90 u A / ((1-theta) R).  With theta <= 1/4 this holds for s <= 52:
    pairwise sums of up to 2^40 sources.  SLACK covers the rounding of the
    radii, weight sums and bounds themselves.

    A target's contributions add in an order fixed by the target and the
    tree alone, so its bits never depend on the other targets; targets go
    in blocks of TARGET_BLOCK to keep the scratch small.  ``work``, a
    Counter, gains the terms summed directly (``direct_pairs``) and the
    far-node expansions (``far_evals``).
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    re, im, budget, trunc = (np.zeros(flat.size) for _ in range(4))
    width, leaves = tree.p.shape
    P = tree.moments.shape[0] - 1
    direct = far_evals = 0
    for b in range(0, flat.size, TARGET_BLOCK):
        zb = flat[b:b + TARGET_BLOCK]
        n = zb.size
        accs = [x[b:b + n] for x in (re, im, budget, trunc)]
        tg = np.arange(n)
        nd = np.ones(n, dtype=np.intp)
        far_pairs = []
        for has_moments in tree.far_levels:
            if has_moments:
                dz = zb[tg] - tree.centres[nd]
                far = tree.radii[nd] <= OPEN * np.abs(dz)
                far_pairs.append((tg[far], nd[far], dz[far]))
                tg, nd = tg[~far], nd[~far]
            tg = np.repeat(tg, 2)
            nd = (2 * nd[:, None] + np.arange(2)).reshape(-1)
        if far_pairs:
            ft, fn, dz = (np.concatenate(x) for x in zip(*far_pairs))
            w = 1.0 / dz
            # Horner; no product is written over one of its own inputs:
            # numpy rounds those in place differently for long arrays.  The
            # node ids are valid, so the gathers clip, which writes ``m``
            # directly where the default mode buffers it
            y, wy, m = np.take(tree.moments[P], fn), np.empty_like(w), \
                np.empty_like(w)
            for q in range(P - 1, -1, -1):
                np.add(np.multiply(y, w, out=wy),
                       np.take(tree.moments[q], fn, out=m, mode="clip"),
                       out=y)
            R, rho, A = np.abs(dz), tree.radii[fn], tree.weights[fn]
            theta = rho / R
            _add_at(accs, ft, n, -(y * w), A / (R - rho),
                    A * theta ** (P + 1) / ((1.0 - theta) * R))
            far_evals += ft.size
        # each leaf's terms in source order, then the leaves per target
        leaf, zt = nd - leaves, zb[tg]
        pair, pair_bud = np.zeros(tg.size, dtype=complex), np.zeros(tg.size)
        for j in range(width):
            term = np.take(tree.a[j], leaf) / (np.take(tree.p[j], leaf) - zt)
            pair += term
            pair_bud += np.abs(term)
        _add_at(accs, tg, n, pair, pair_bud, None)
        direct += tg.size * width
    if work is not None:
        work["direct_pairs"] += direct
        work["far_evals"] += far_evals
    sums = np.empty(flat.size, dtype=complex)
    sums.real, sums.imag = re, im
    return sums.reshape(z.shape), budget.reshape(z.shape), \
        trunc.reshape(z.shape)


def _add_at(accs, idx, n, vals, bud, tail):
    """Add per-pair values, budgets and truncation bounds to their targets,
    each target's in the order of ``idx``."""
    for acc, v in zip(accs, (vals.real, vals.imag, bud, tail)):
        if v is not None:
            acc += np.bincount(idx, weights=v, minlength=n)


def _rounding_radius(budget):
    """The float error of a kernel sum of this budget: FLOAT_TERM twice
    per unit of sum |term| (a per-term model)."""
    return budget * FLOAT_TERM * 2.0


def _herglotz_tree(mu: CircleMeasure) -> KernelTree:
    """The measure's Herglotz sources on a kernel tree, built once per
    measure: m (zeta+z)/(zeta-z) = 2 m zeta / (zeta - z) - m."""
    if mu._kernel_tree is None:
        zeta, masses = unit_point(mu.positions_float()), mu.realized().masses
        mu._kernel_tree = kernel_tree(zeta, 2.0 * masses * zeta)
    return mu._kernel_tree


def _herglotz_sum(mu: CircleMeasure, z: np.ndarray):
    """sum_atoms m (zeta+z)/(zeta-z) and its error radius; masses past
    the float range give non-finite sums, which certify nothing."""
    total = mu.total_mass()
    with np.errstate(over="ignore", invalid="ignore"):
        s, budget, trunc = _cauchy_sum(z, _herglotz_tree(mu))
    return s - total, _rounding_radius(budget + total) + trunc


def singular_inner_many(mu: CircleMeasure, z: np.ndarray):
    """(values, errs) of S_mu on an array of interior points."""
    z = np.asarray(z, dtype=complex)
    h, err = _herglotz_sum(mu, z)
    with np.errstate(under="ignore"):
        vals = np.exp(-h)
    return vals, np.abs(vals) * err


def log_modulus_many(mu: CircleMeasure, z: np.ndarray):
    """(log|S_mu|, err) on interior points, safe where |S| underflows."""
    z = np.asarray(z, dtype=complex)
    h, err = _herglotz_sum(mu, z)
    return -h.real, err


def eval_singular_inner(mu: CircleMeasure, z: complex,
                        eps: float = 1e-10) -> AnalyticValue:
    if abs(z) >= 1.0:
        raise ValueError("singular inner functions are evaluated inside the disc")
    vals, errs = singular_inner_many(mu, np.array([z]))
    return AnalyticValue(complex(vals[0]), float(errs[0]))


# ---------------------------------------------------------------------------
# Monomial growth norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentCheck:
    sup: float
    bound: float
    ok: bool


def moment_check(w: Weight, n: int) -> MomentCheck:
    """Monomial growth norm against the 3 w(1/n) envelope.

    ``sup`` is moment_sup's upper bound on sup_r w(1 - r) r^n, so a passing
    check is certified.
    """
    if n < 2:
        raise ValueError("moment bound applies from n = 2 on")
    sup = moment_sup(w, n).high
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
    inf_low: float
    bound: float
    ok: bool
    n_samples: int


def corona_datum_check(mu_k: CircleMeasure, n_k: int, c: float,
                       w: Weight) -> CoronaCheck:
    """A certified lower bound ``inf_low`` on the inf over the disc of
    |S_mu_k(z)| + |z|^(2^n_k), against w(2^-n_k)^(12c).

    ``mu_k`` carries no grating tag: the caller passes the depth n_k and
    the parameter c of the grating that made it (``roberts.decompose``).

    Put h = 2^-n_k and r = 1 - h.  On |z| >= r, |z|^(2^n_k) >= r^(2^n_k)
    >= 1/4 tops the bound, which must lie below 1/4.  S has no zeros, so
    by the minimum principle |S| on |z| <= r is least on |z| = r, where
    |S| = exp(-Re H) and Re H = sum m P(d) over the atoms, d the atom's
    distance in turns from the angle of z and

        P(d) = h (2 - h) / (h^2 + 4 (1 - h) sin^2(pi d)),

    which falls with d.  An open arc of length 2^-j lies in two adjacent
    depth-j dyadic arcs, so the mass within 2^-(j+1) of any angle is at
    most D_j, the largest mass of two adjacent depth-j arcs (wrapping at
    0).  Summing by parts over the shells between those distances, with
    J = min(n_k + 3, 62) and M the total mass,

        Re H <= U = D_J (P(0) - P(2^-(J+1)))
                    + sum_{j<J} D_j (P(2^-(j+2)) - P(2^-(j+1))) + M P(1/4),

    every bracket >= 0.  So inf_low = min(e^-U, r^(2^n_k)); a piece of no
    mass has S = 1 and inf_low = 1.

    The masses come exact from the depth-J arcs (``arc_masses_at_depth``)
    and coarsen level by level; ``n_samples`` counts the arcs read.  Each
    D_j is a float sum of at most atoms + J + 1 masses, each P lies within
    12 u of its value (u the unit roundoff) and the dot products add J + 2
    roundings, so U errs by less than (atoms + 128) 2^-50 times the same
    sum with each bracket's difference made a sum.  U is raised by that,
    the exponentials are shaded by 2^-50, and ``ok`` compares U with
    -log of the bound, where neither side underflows.  Past depth 1022
    P(0) = (2 - h)/h overflows: U is infinite, inf_low 0 and ``ok`` false.
    """
    log_bound = -12.0 * c * w.neg_log_at_depth(n_k)
    bound = math.exp(log_bound)
    if bound >= 0.25:
        raise ValueError("need w(2^-n)^{12c} < 1/4 for the outer zone bound")
    J = min(n_k + 3, 62)
    keys, masses = mu_k.arc_masses_at_depth(J)
    atoms = mu_k.realized().masses.size
    if not atoms:
        return CoronaCheck(1.0, bound, True, 0)
    total = float(np.sum(masses))
    D, arcs, top = np.empty(J), 0, None
    for j in range(J, 0, -1):  # D_j at D[j - 1]
        if j < J:
            keys = keys >> 1
            merged = keys[1:] == keys[:-1]
            if merged.any():
                starts = np.flatnonzero(np.concatenate([[True], ~merged]))
                keys, masses = keys[starts], np.add.reduceat(masses, starts)
                top = None
        if top is None:  # the masses changed: their max and adjacent sums
            top, pairs = masses.max(), masses[:-1] + masses[1:]
        arcs += keys.size
        D[j - 1] = pairs[keys[1:] - keys[:-1] == 1].max(initial=top)
        if keys.size > 1 and keys[0] == 0 and keys[-1] == (1 << j) - 1:
            D[j - 1] = max(D[j - 1], masses[-1] + masses[0])  # wraps at 0
    h = np.ldexp(1.0, -n_k)
    with np.errstate(divide="ignore", over="ignore"):
        s = np.sin(np.pi * np.ldexp(1.0, -np.arange(2, J + 2)))
        lower = h * (2.0 - h) / (h * h + 4.0 * (1.0 - h) * s * s)
        upper = np.append(lower[1:], (2.0 - h) / h)  # P(0) = (2 - h)/h
        U = D @ (upper - lower) + total * lower[0]
        U = float(U + (atoms + 128) * 2.0 ** -50 *
                  (D @ (upper + lower) + total * lower[0]))
    mono = math.exp(math.ldexp(math.log1p(-h), n_k))  # r^(2^n_k)
    inf_low = min(math.exp(-U), mono) * (1.0 - 2.0 ** -50)
    # mono >= 1/4 tops the bound; e^-U meets it on the log scale, where
    # neither side underflows
    return CoronaCheck(inf_low, bound, U <= -log_bound * (1.0 - 2.0 ** -50),
                       arcs)


def corona_parameter_report(w: Weight, c: float, n0: int,
                            K: float = 10.0) -> dict:
    """Admissibility of grating parameters for the quantitative solvability
    argument: the product 48 c K must stay below 1 and the starting depth
    must satisfy w(2^-n0)^(12c) < min(1/4, 3^(-1/K)).  K is a config
    stand-in for the absolute solvability constant, reporting only.
    """
    product = 48.0 * c * K
    cap = min(0.25, 3.0 ** (-1.0 / K))
    start = math.exp(-12.0 * c * w.neg_log_at_depth(n0))
    return {"K": K, "c": c, "n0": n0, "product_48cK": product,
            "admissible_c": product < 1.0, "start_value": start,
            "start_cap": cap, "admissible_n0": start < cap}


# ---------------------------------------------------------------------------
# Whitney arcs and the Carleson outer function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhitneyDecomposition:
    """The Whitney arcs of a set: ``arcs`` is a record array with fields
    ``start`` and ``length``, in (gap, level, side) order."""

    arcs: np.recarray

    def lengths(self) -> np.ndarray:
        return np.ascontiguousarray(self.arcs.length)


def whitney(E: ClosedCircleSet, levels: int = WHITNEY_LEVELS
            ) -> WhitneyDecomposition:
    """Tile each gap by two geometric families of arcs.

    Gap (a, a+L): left family [a + L 2^-(k+2), a + L 2^-(k+1)) and the
    mirror image; each arc's length equals its distance to the nearer gap
    endpoint.  Truncation at ``levels`` leaves 2^-levels of each gap
    uncovered next to the endpoints.
    """
    if not E.starts.size:
        raise ValueError("set has no gaps")
    a, L = E.starts[:, None], E.lengths[:, None]
    ln = L * np.ldexp(1.0, -np.arange(2, levels + 2))  # (gap, level)
    starts = np.stack([(a + ln) % 1.0, (a + L - 2.0 * ln) % 1.0], axis=-1)
    return WhitneyDecomposition(
        np.rec.fromarrays([starts.reshape(-1), np.repeat(ln.reshape(-1), 2)],
                          names="start,length"))


@dataclass
class CarlesonOuter:
    whitney: WhitneyDecomposition
    weight: Weight
    N: float
    coeffs: np.ndarray = field(repr=False)
    poles: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
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
    centers = unit_point((wd.arcs.start + lens / 2.0) % 1.0)
    lam = effective_lambda(w)
    # per gap endpoint, in (gap, side) order: the coefficient tail of one
    # geometric family below the last level
    m_last = np.repeat(E.lengths * 2.0 ** -(levels + 1), 2)
    tails = m_last * (-np.asarray(w.log(m_last)) + 2.0 * math.log(4.0) / lam)
    ends = unit_point(np.stack([E.starts, E.starts + E.lengths], axis=-1)
                      .reshape(-1) % 1.0)
    return CarlesonOuter(wd, w, N, coeffs, (1.0 + lens) * centers, centers,
                         ends, tails, m_last)


def psi_sum_many(G: CarlesonOuter, z: np.ndarray, work=None):
    """(sum_k psi_k(z), error bound) on an array of disc points.

    The bound adds the walk's truncation, its rounding radius and the
    Whitney tail (``_whitney_tail``): the poles below the last level."""
    z = np.asarray(z, dtype=complex)
    acc, budget, trunc = _cauchy_sum(
        z, kernel_tree(G.poles, G.coeffs * G.centers), work=work)
    return acc, trunc + _rounding_radius(budget) + _whitney_tail(G, z)


def _whitney_tail(G: CarlesonOuter, z: np.ndarray) -> np.ndarray:
    """A bound on sum_e tc_e / max(|z - e| - 16 sc_e, sc_e) over the gap
    endpoints e, whose Whitney tails (coefficient tail tc, length sc) cluster
    within a few tail lengths of e.

    With the endpoints sorted by angle, each target sums the terms of its
    LEAF nearest endpoints on each side exactly.  Past them each side walks
    shells of index offsets [LEAF 2^s, LEAF 2^(s+1)), the last one running
    on into the other side's far end (counted twice, still a bound).  A
    shell adds its sum of tc over max(D - 16 max sc, min sc), the extremes
    over all endpoints, where D <= |z - e| on the shell: |z - e|^2 =
    (1 - r)^2 + 4 r sin^2(pi d) with r = |z| and d the cyclic angular
    distance in turns, least at one end of the shell.  d is shaded by 2^-50
    turns for the rounding of angles, D by 2^-44 relative and 2^-50
    absolute for its own, the shell sums' (of positive terms) and |e| != 1.
    The cost is O(targets log endpoints), and a target's bits depend on
    the target and G alone.
    """
    e = G.gap_endpoints
    t = np.angle(e) / (2.0 * math.pi)
    t = np.where(t < 0.0, t + 1.0, t)
    order = np.argsort(t, kind="stable")
    n, t = e.size, t[order]
    # three turns of the circle, so no index or angle needs a remainder
    turns = np.concatenate([t - 1.0, t, t + 1.0])
    e, tc, sc = (np.tile(x[order], 3) for x in (e, G.tail_coeffs,
                                                 G.tail_scale))
    th = np.angle(z) / (2.0 * math.pi)
    th = np.where(th < 0.0, th + 1.0, th)
    first = np.searchsorted(t, th) + n  # the nearest endpoint on the right
    r = np.abs(z)
    tail = np.zeros(z.shape)
    right = n - n // 2  # endpoints on each side: right, then n // 2 left
    sides = ((1, right), (-1, n // 2))
    for step, count in sides:
        for i in range(min(LEAF, count)):
            p = first + i if step > 0 else first - 1 - i
            tail = tail + tc[p] / np.maximum(np.abs(z - e[p]) - 16.0 * sc[p],
                                             sc[p])
    # window sums of tc over LEAF 2^s consecutive endpoints, by doubling
    window, ln = {}, LEAF
    if right > LEAF:
        window[ln] = sum(tc[i:tc.size - ln + 1 + i] for i in range(ln))
    while 2 * ln < right:
        window[2 * ln] = window[ln][:-ln] + window[ln][ln:]
        ln *= 2
    near_sq, far16, floor = (1.0 - r) ** 2, 16.0 * sc.max(), sc.min()
    for step, count in sides:
        lo = LEAF
        while lo < count:  # the shell [lo, 2 lo) of offsets
            if step > 0:
                p = first + lo
                near, far = turns[p] - th, turns[p + lo - 1] - th
            else:
                p = first - 2 * lo
                near, far = th - turns[p + lo - 1], th - turns[p]
            d = np.maximum(np.minimum(near, 1.0 - far) - 2.0 ** -50, 0.0)
            s = np.sin(math.pi * d)
            D = np.sqrt(near_sq + 4.0 * r * s * s) * (1.0 - 2.0 ** -44) - \
                2.0 ** -50
            tail = tail + window[lo][p] / np.maximum(D - far16, floor)
            lo *= 2
    return tail


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
