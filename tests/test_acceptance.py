"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from gst import entropy, fixtures, weights
from gst.circle import point_set
from gst.duality import (DIVERGES, FINITE, ModelKernelSpec, fw_norm,
                         green_identity_check, kernel_reproducing_check,
                         orthogonal_decomposition_check)
from gst.grids import DyadicGrid, feasible_grid, geometric_sum_margin, \
    verify_grid
from gst.inner_outer import (BlaschkeSeq, auto_carleson_N, carleson_many,
                             carleson_outer, corona_datum_check,
                             lower_bound_check, moment_check, psi_sum_many,
                             unit_point)
from gst.privalov import (PrivalovDomain, boundary_samples_with_profile,
                          privalov_boundary_estimate)
from gst.roberts import decompose

W_T = weights.power(1.0)
W_SQRT = weights.power(0.5)
GRID_3 = DyadicGrid((4, 12, 36))
DECAY_GRID = DyadicGrid((4, 8, 12, 16, 20, 24))


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _certified_samples(mu, count=256, seed=0):
    rng = np.random.default_rng(seed)
    js = rng.uniform(1.0, 18.0, count)
    ths = rng.uniform(0.0, 1.0, count)
    return (1.0 - 2.0 ** -js) * unit_point(ths)


def test_criterion_01_moment_bound():
    start = time.monotonic()
    worst = 0.0
    for name, w in fixtures.builtin_majorants().items():
        for n in (4, 16, 64, 256, 1024):
            res = moment_check(w, n)
            worst = max(worst, res.sup / res.bound)
            assert res.ok, (name, n)
    elapsed = time.monotonic() - start
    _line(1, "moment bound 3w(1/n)", worst <= 1.0 + 1e-12 and elapsed < 1.0,
          f"max sup/bound {worst:.3f}, {elapsed:.2f}s")


def test_criterion_02_lower_envelope():
    start = time.monotonic()
    worst = math.inf
    for idx, (name, mu) in enumerate(fixtures.measure_fixtures().items()):
        samples = _certified_samples(mu, 256, seed=1000 + idx)
        res = lower_bound_check(mu, samples, eps=1e-9)
        worst = min(worst, res.min_margin)
        assert res.ok, name
    elapsed = time.monotonic() - start
    _line(2, "inner lower envelope, constant 6",
          worst >= -1e-9 and elapsed < 30.0,
          f"min margin {worst:.4f}, 256 samples x 4 fixtures, {elapsed:.1f}s")


def test_criterion_03_roberts_decomposition():
    start = time.monotonic()
    details = []
    for name, mu in fixtures.measure_fixtures().items():
        dec = decompose(mu, GRID_3, 0.1, W_T, 3)
        for piece, rep in zip(dec.pieces, dec.reports):
            keys, masses = piece.arc_masses_at_depth(rep.depth)
            heavy = masses[np.isin(keys, rep.heavy_arcs)]
            assert heavy.size == rep.heavy_count, (name, rep.depth)
            assert np.all(np.abs(heavy - rep.threshold)
                          <= 1e-12 * rep.threshold), (name, rep.depth)
            assert np.all(masses <= rep.threshold * (1.0 + 1e-12)), \
                (name, rep.depth)
        assert dec.mass_balance_error() <= 1e-9, name
        assert dec.heavy_nesting_ok(), name
        assert (dec.light_entropy_ledgers[-1]
                <= dec.carrier_entropy_bound + 1e-12), name
        details.append(f"{name}:bal={dec.mass_balance_error():.1e}")
    elapsed = time.monotonic() - start
    _line(3, "grating decomposition on {4,12,36}", elapsed < 60.0,
          f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_04_residual_dichotomy():
    mu = fixtures.divergent_cantor_measure()
    masses = [decompose(mu, DECAY_GRID, 0.1, W_T, k).residual.total_mass()
              for k in (2, 4, 6)]
    monotone = masses[0] > masses[1] > masses[2]
    ratios = [masses[1] / masses[0], masses[2] / masses[1]]
    dec = decompose(fixtures.triadic_cantor_measure(), GRID_3, 0.1, W_T, 3)
    carrier_value, _ = entropy.gap_entropy_sum(dec.residual_carrier_gaps(),
                                               W_T)
    finite = math.isfinite(carrier_value)
    _line(4, "residual dichotomy",
          monotone and all(r < 1.0 for r in ratios) and finite,
          f"free-part residuals {[round(m, 4) for m in masses]}, "
          f"carried-part carrier entropy {carrier_value:.3f}")


def test_criterion_05_corona_datum():
    start = time.monotonic()
    checked = 0
    worst_margin = math.inf
    for name, mu in fixtures.measure_fixtures().items():
        dec = decompose(mu, GRID_3, 0.1, W_T, 3)
        for piece, rep in zip(dec.pieces, dec.reports):
            res = corona_datum_check(piece, rep.depth, 0.1, W_T)
            assert res.ok, (name, rep.depth)
            worst_margin = min(worst_margin, res.inf_low - res.bound)
            checked += 1
    elapsed = time.monotonic() - start
    _line(5, "corona datum bound", worst_margin >= 0.0,
          f"{checked} pieces, min margin {worst_margin:.4f}, {elapsed:.1f}s")


def test_criterion_06_grid_construction():
    count = 0
    for name, w in fixtures.grid_suite().items():
        for n0 in (4, 8):
            for C in (3.0, 5.0):
                g = feasible_grid(w, n0, C, 5)
                v = verify_grid(g, w)
                assert v.is_w_grid and v.superlacunary, (name, n0, C)
                assert geometric_sum_margin(g, w) <= 1e-12, (name, n0, C)
                count += 1
    _line(6, "grid construction and verification", True,
          f"{count} (weight, n0, C) combinations")


def test_criterion_07_entropy_equivalence():
    checked = 0
    for w, lam in ((W_T, 1.0), (W_SQRT, 2.0)):
        slack = (1.0 + math.log(2.0)) / lam
        for name, (E, finite) in fixtures.entropy_set_fixtures().items():
            rs = entropy.entropy_sum(E, w).result
            ri = entropy.entropy_integral(E, w)
            assert rs.tag == ri.tag, (name, w.label())
            assert (rs.tag == FINITE) == finite, name
            if finite:
                assert ri.value <= rs.value + 1e-9, name
                assert ri.value >= rs.value - slack - 1e-6, name
            checked += 1
    _line(7, "entropy sum/integral equivalence", True,
          f"{checked} (set, weight) pairs, slack (1+log2)/lambda attained")


def test_criterion_08_carleson_privalov():
    start = time.monotonic()
    details = []
    for E, ename in ((point_set([0.0]), "point"),
                     (fixtures.triadic_cantor_set(6), "triadic")):
        D = PrivalovDomain(E)
        for w in (W_T, W_SQRT):
            zs, hs = boundary_samples_with_profile(D, 512)
            G = carleson_outer(E, w, 1.0)
            G = auto_carleson_N(G, *psi_sum_many(G, zs), hs)
            zs, hs = boundary_samples_with_profile(D, 4096)
            est = privalov_boundary_estimate(G, *psi_sum_many(G, zs), hs)
            assert est.ok, (ename, w.label())
            # embedding for monomials up to degree 32, one G-evaluation pass
            zs, _ = boundary_samples_with_profile(D, 1024)
            interior = np.concatenate(
                [(1.0 - max(2.0 ** -j, 1.0 / 32.0)) * unit_point(
                    (np.arange(64) + 0.5) / 64.0) for j in range(1, 9)])
            zs = np.concatenate([zs, interior])
            gv, ge = carleson_many(G, zs)
            gmod = np.abs(gv) + ge
            radii = 1.0 - 2.0 ** -np.linspace(0.0, 20.0, 4001)
            for k in range(1, 33):
                rhs = float(np.max(np.asarray(w(1.0 - radii)) * radii ** k))
                lhs = float(np.max(gmod * np.abs(zs) ** k))
                assert lhs <= rhs * (1.0 + 1e-9), (ename, w.label(), k)
            details.append(f"{ename}/{w.label()}:N={G.N:g}"
                           f" ratio={est.max_ratio:.2e}")
    elapsed = time.monotonic() - start
    _line(8, "outer-function boundary estimate and embedding", True,
          f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_09_duality_layer():
    # Green identity, all monomial pairs to degree 8 at three radii
    for r in (0.5, 0.9, 0.99):
        for i in range(9):
            for j in range(9):
                res = green_identity_check([0.0] * i + [1.0],
                                           [0.0] * j + [1.0], r)
                assert res.ok, (i, j, r)
                assert abs(res.lhs - res.oracle) <= 1e-8, (i, j, r)
                assert abs(res.rhs - res.oracle) <= 1e-8, (i, j, r)
    # reproducing kernels, finite Blaschke at 2^12 nodes
    spec = ModelKernelSpec(blaschke=BlaschkeSeq((0.5, -0.3 + 0.2j, 0.1j)),
                           lam=0.3)
    kr = kernel_reproducing_check(spec, -0.25 + 0.1j, 2 ** 12)
    assert abs(kr.lhs - kr.rhs) <= 1e-6
    # orthogonal splitting, including an atomic singular factor
    tp = ModelKernelSpec(blaschke=BlaschkeSeq((0, 0)), lam=0.3)
    for tc in (ModelKernelSpec(blaschke=BlaschkeSeq((0.5,)), lam=0.2j),
               ModelKernelSpec(singular=fixtures.atom_fixture(), lam=0.2j)):
        n = 2 ** 14 if tc.singular is not None else 2 ** 12
        oc = orthogonal_decomposition_check(tp, tc, n)
        assert abs(oc.pairing) <= 1e-5
    # dual-norm fixture values
    res = fw_norm([0, 1], W_SQRT)
    assert res.tag == FINITE
    assert abs(res.value - 8.0 / 3.0) <= 1e-4
    assert fw_norm([0, 1], W_T).tag == DIVERGES
    _line(9, "dual layer identities", True,
          f"green<=1e-8 (243 pairs), kernel err {abs(kr.lhs - kr.rhs):.1e}, "
          f"fw(z) = {res.value:.6f}")


def test_criterion_10_weight_diagnostics():
    for name, w in fixtures.a1_family().items():
        assert weights.check_A1(w, 16).ok, name
    assert not weights.check_A1(fixtures.fast_decay_weight(), 12).ok
    assert weights.check_A2(W_SQRT, 0.5).ok
    assert not weights.check_A2(weights.log_power(1.0), 1.0).ok
    consts = []
    for w in (W_T, W_SQRT, weights.power(2.0)):
        ca = weights.check_condition_a(w, 64)
        cb = weights.check_condition_b(w, 12)
        assert ca.ok and math.isfinite(ca.C1), w.label()
        assert cb.ok and math.isfinite(cb.C2), w.label()
        consts.append(f"{w.label()}:C1={ca.C1:.2f},C2={cb.C2:.2f}")
    _line(10, "weight diagnostics", True, "; ".join(consts))
