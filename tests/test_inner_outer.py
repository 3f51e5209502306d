"""Blaschke and singular inner evaluation, the kernel-sum walk, monomial
growth norms, envelope bounds, Whitney arcs and the gap-family outer
function."""

import math
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gst import fixtures, inner_outer, weights
from gst import circle
from gst.circle import CircleMeasure, point_set, set_union
from gst.grids import DyadicGrid
from gst.inner_outer import (BlaschkeSeq, _herglotz_sum, auto_carleson_N,
                             blaschke_many, carleson_many, carleson_outer,
                             corona_datum_check, eval_singular_inner,
                             lower_bound_check, moment_check, psi_sum_many,
                             singular_inner_many, unit_point, whitney)
from gst.privalov import PrivalovDomain, boundary_samples_with_profile
from gst.roberts import decompose

W_T = weights.power(1.0)


# -- oracle: direct summation over fixed source chunks, with its radius -----

CHUNK = 1 << 14


def _direct(z, zeta, terms):
    """(sum, radius) of per-source terms summed directly, CHUNK at a time;
    the radius is the per-term float model on sum |term|."""
    total = np.zeros(z.shape, dtype=complex)
    budget = np.zeros(z.shape, dtype=float)
    for i in range(0, zeta.size, CHUNK):
        t = terms(slice(i, i + CHUNK), z[..., None])
        total = total + np.sum(t, axis=-1)
        budget = budget + np.sum(np.abs(t), axis=-1)
    return total, inner_outer._rounding_radius(budget)


def oracle_herglotz_sum(mu, z):
    pos, masses = mu.positions_float(), mu.realized().masses
    zeta = unit_point(pos)
    return _direct(z, zeta, lambda s, zt: masses[s] * (zeta[s] + zt) /
                   (zeta[s] - zt))


def oracle_psi_sum(G, z):
    return _direct(z, G.poles, lambda s, zt: G.coeffs[s] * G.centers[s] /
                   (G.poles[s] - zt))


def _disc_points(count, seed=0):
    rng = np.random.default_rng(seed)
    r = 1.0 - 2.0 ** -rng.uniform(0.0, 20.0, count)
    return r * unit_point(rng.uniform(0.0, 1.0, count))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def _tree_sum(sources, z):
    """(sum, radius, truncation) of the tree walk; the radius is the float
    model plus the truncation."""
    s, budget, trunc = inner_outer._cauchy_sum(
        z, inner_outer.kernel_tree(*sources))
    return s, inner_outer._rounding_radius(budget) + trunc, trunc


def _herglotz_sources(mu):
    pos, masses = mu.positions_float(), mu.realized().masses
    zeta = unit_point(pos)
    return zeta, 2.0 * masses * zeta


def _within(got, want):
    """Tree and direct sums agree within the sum of their radii, and the
    tree's radius is not below the direct one (up to the rounding of the
    budget sums themselves, which add in different orders)."""
    (s, rad), (d, drad) = got, want
    assert s.shape == d.shape
    assert np.all(rad * (1.0 + 1e-12) >= drad)
    assert np.all(np.abs(s - d) <= rad + drad)


def check_herglotz(mu, z):
    h, err = _herglotz_sum(mu, z)
    want = oracle_herglotz_sum(mu, z)
    _within((h, err), want)
    assert np.all(err >= want[1])  # the reported radius: no rounding slack
    # the public values are the tree's, bit for bit
    vals, errs = singular_inner_many(mu, z)
    assert _same_bits(vals, np.exp(-h))
    assert _same_bits(errs, np.abs(vals) * err)


def check_psi(G, z):
    s, rad, trunc = _tree_sum((G.poles, G.coeffs * G.centers), z)
    _within((s, rad), oracle_psi_sum(G, z))
    psi, bound = psi_sum_many(G, z)
    # the reported bound holds the truncation and the rounding radius, and
    # the Whitney tail
    assert _same_bits(psi, s) and np.all(bound >= rad)
    assert np.all(bound >= inner_outer._whitney_tail(G, z))


# 2048 atoms and 1800 Whitney arcs: 4488 and 6118 targets span several
# target blocks, and 7, 8 and 17 targets leave blocks partly filled
KERNEL_MU = fixtures.triadic_cantor_measure(11)
KERNEL_G = carleson_outer(fixtures.triadic_cantor_set(4), W_T, 1.0)
TARGET_COUNTS = [0, 1, 7, 8, 17, 257, 4488, 6118]


# positions spread over the circle, crowding both sides of angle 0, and
# repeated; targets at the origin and at depths 2^-1 to 2^-40
POSITIONS = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                      st.floats(0.0, 1e-6), st.floats(1.0 - 1e-6, 1.0,
                                                       exclude_max=True))
MASSES = st.floats(1e-6, 1.0)


@st.composite
def measures_and_targets(draw):
    atoms = draw(st.lists(st.tuples(POSITIONS, MASSES), max_size=300))
    atoms += atoms[:draw(st.integers(0, len(atoms)))]  # repeated atoms
    mu = CircleMeasure(atoms=atoms)
    depth = np.array(draw(st.lists(st.integers(1, 40), min_size=1,
                                   max_size=40)), dtype=float)
    angles = np.array(draw(st.lists(POSITIONS, min_size=depth.size,
                                    max_size=depth.size)))
    z = (1.0 - 2.0 ** -depth) * unit_point(angles)
    return mu, np.concatenate([[0.0 + 0.0j], z])


class TestKernelSumOracle:
    """The tree walk against direct summation: the sums agree within the
    sum of their radii (float model plus truncation), and the tree's
    radius dominates the direct one.  The public kernel values are the
    walk's bit for bit."""

    @pytest.mark.parametrize("count", TARGET_COUNTS)
    def test_herglotz_and_derivative_bitwise(self, count):
        check_herglotz(KERNEL_MU, _disc_points(count, count))

    @pytest.mark.parametrize("count", TARGET_COUNTS)
    def test_psi_bitwise(self, count):
        check_psi(KERNEL_G, _disc_points(count, count))

    def test_empty_measure_and_grid_shaped_targets(self):
        z = _disc_points(60).reshape(6, 10)
        for mu in (CircleMeasure(name="zero"), KERNEL_MU):
            check_herglotz(mu, z)
        check_psi(KERNEL_G, z)

    @given(measures_and_targets())
    @settings(max_examples=60, deadline=None)
    def test_drawn_measures_and_depths(self, case):
        check_herglotz(*case)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_low_orders_stay_within_their_bound(self, order, monkeypatch):
        # truncation dominates the radius here: an expansion that drops an
        # order its bound counts fails this
        monkeypatch.setattr(inner_outer, "ORDER", order)
        z = _disc_points(4488, 3)
        # a fresh measure: a measure keeps the tree of its first sum
        check_herglotz(fixtures.triadic_cantor_measure(11), z)
        check_psi(KERNEL_G, z)

    def test_work_counts(self):
        z = _disc_points(4488, 5)
        for sources in (_herglotz_sources(KERNEL_MU),
                        (KERNEL_G.poles, KERNEL_G.coeffs * KERNEL_G.centers)):
            work = Counter()
            inner_outer._cauchy_sum(z, inner_outer.kernel_tree(*sources),
                                    work=work)
            assert work["far_evals"] > 0
            assert 0 < work["direct_pairs"] + \
                (inner_outer.ORDER + 1) * work["far_evals"] < \
                z.size * sources[0].size / 2
        # up to DIRECT_MAX sources: every term, no expansion
        work = Counter()
        few = _herglotz_sources(fixtures.triadic_cantor_measure(8))
        inner_outer._cauchy_sum(z, inner_outer.kernel_tree(*few), work=work)
        assert work == {"direct_pairs": z.size * 256, "far_evals": 0}

    def test_a_measure_builds_its_tree_once(self, monkeypatch):
        builds = []
        build = inner_outer.kernel_tree

        def counting(p, a):
            builds.append(p.size)
            return build(p, a)

        monkeypatch.setattr(inner_outer, "kernel_tree", counting)
        mu = fixtures.triadic_cantor_measure(9)
        z = _disc_points(50, 2)
        first = _herglotz_sum(mu, z)
        singular_inner_many(mu, z)
        again = _herglotz_sum(mu, z)
        assert builds == [512]
        assert all(_same_bits(a, b) for a, b in zip(first, again))

    @pytest.mark.parametrize("block", [1, 1000, 5000])
    def test_any_row_block_gives_the_same_bits(self, block, monkeypatch):
        z = _disc_points(257, 1)
        want = [_herglotz_sum(KERNEL_MU, z), psi_sum_many(KERNEL_G, z)]
        monkeypatch.setattr(inner_outer, "TARGET_BLOCK", block)
        got = [_herglotz_sum(KERNEL_MU, z), psi_sum_many(KERNEL_G, z)]
        for g, w in zip(got, want):
            assert all(_same_bits(a, b) for a, b in zip(g, w))


# -- the contract: a target's sum depends only on the target and the sources


@lru_cache(maxsize=None)
def _sources(kind, n):
    """A measure of n atoms, or a Carleson function cut to n Whitney arcs."""
    if kind == "psi":
        G = carleson_outer(fixtures.triadic_cantor_set(8), W_T, 1.0)
        return replace(G, coeffs=G.coeffs[:n], poles=G.poles[:n],
                       centers=G.centers[:n])
    stages = int(math.log2(n))
    part = fixtures.triadic_cantor_measure(stages).cantor_parts
    extra = [(Fraction(k, 7 * n), 0.25) for k in range(n - 2 ** stages)]
    return CircleMeasure(atoms=extra, cantor_parts=part)


KERNELS = {
    "herglotz": _herglotz_sum,
    "psi": psi_sum_many,
}


def _batches(n, rng):
    """Index sets: the full batch, reversed, random splits, single targets."""
    yield np.arange(n)
    yield np.arange(n)[::-1]
    cuts = np.sort(rng.choice(np.arange(1, n), 3, replace=False))
    yield from np.split(rng.permutation(n), cuts)
    for i in rng.choice(n, 4, replace=False):
        yield np.array([i])


class TestTargetOnlyContract:
    # the targets outnumber 4e6 / sources, where the retired sizing
    # 4e6 // targets cut the sources into narrower chunks
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    @pytest.mark.parametrize("n", [2048, 16384, 16387])
    def test_batching_never_changes_a_bit(self, kind, n):
        src = _sources(kind, n)
        count = int(4.5e6 // n)
        z = _disc_points(count, n)
        full = KERNELS[kind](src, z)
        rng = np.random.default_rng(n)
        for idx in _batches(count, rng):
            for got, want in zip(KERNELS[kind](src, z[idx]), full):
                assert _same_bits(got, want[idx]), (kind, n, idx[:4])


def _blaschke_at(B, z):
    return complex(blaschke_many(B, np.array([z], dtype=complex))[0])


class TestBlaschke:
    def test_zero_at_origin_is_identity(self):
        assert _blaschke_at(BlaschkeSeq((0,)), 0.5) == pytest.approx(0.5)

    def test_normalization_at_origin(self):
        assert _blaschke_at(BlaschkeSeq((0.5,)), 0.0) == pytest.approx(0.5)

    def test_unimodular_on_boundary(self):
        B = BlaschkeSeq((0.3 + 0.2j, -0.5, 0.1j))
        th = np.arange(128) / 128.0
        vals = np.abs(blaschke_many(B, unit_point(th)))
        assert np.max(np.abs(vals - 1.0)) <= 1e-12

    def test_zeros_validated(self):
        with pytest.raises(ValueError):
            BlaschkeSeq((1.0,))


class TestSingularInner:
    def test_atom_at_origin(self):
        v = eval_singular_inner(fixtures.atom_fixture(), 0.0)
        assert v.value == pytest.approx(math.exp(-1.0))

    def test_atom_radial_closed_form(self):
        v = eval_singular_inner(fixtures.atom_fixture(), 0.5)
        assert abs(v.value) == pytest.approx(math.exp(-3.0))

    def test_total_mass_at_origin(self):
        v = eval_singular_inner(fixtures.triadic_cantor_measure(), 0.0)
        assert abs(v.value) == pytest.approx(math.exp(-1.0))

    def test_multiplicative(self):
        rng = np.random.default_rng(11)
        zs = 0.8 * rng.uniform(0, 1, 16) * unit_point(rng.uniform(0, 1, 16))
        a = fixtures.atom_fixture()
        b = fixtures.two_atom_fixture()
        va, ea = singular_inner_many(a, zs)
        vb, eb = singular_inner_many(b, zs)
        ab = CircleMeasure(atoms=a.atom_list + b.atom_list)
        vab, eab = singular_inner_many(ab, zs)
        assert np.max(np.abs(va * vb - vab)) <= np.max(ea + eb + eab) + 1e-12

    def test_modulus_below_one(self):
        rng = np.random.default_rng(4)
        zs = 0.95 * rng.uniform(0, 1, 200) * unit_point(rng.uniform(0, 1, 200))
        vals, _ = singular_inner_many(fixtures.triadic_cantor_measure(), zs)
        assert np.max(np.abs(vals)) <= 1.0

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            eval_singular_inner(fixtures.atom_fixture(), 1.0)

    def test_near_unimodular_away_from_carrier(self):
        # |S| climbs back to 1 approaching the boundary off the support
        mu = fixtures.atom_fixture()  # atom at angle 0
        for r in (1.0 - 1e-6, 1.0 - 1e-9):
            v = eval_singular_inner(mu, -r)
            assert 1.0 - 1e-5 <= abs(v.value) <= 1.0


class TestMoment:
    def test_linear_weight_n100(self):
        res = moment_check(W_T, 100)
        assert res.ok
        assert res.sup == pytest.approx((1 / 101) * (100 / 101) ** 100,
                                        rel=1e-9)

    def test_sqrt_weight(self):
        res = moment_check(weights.power(0.5), 10)
        assert res.ok and res.sup <= 3.0 * math.sqrt(0.1)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            moment_check(W_T, 1)

    @pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
    def test_builtin_majorants(self, n):
        for name, w in fixtures.builtin_majorants().items():
            assert moment_check(w, n).ok, (name, n)


class TestLowerEnvelope:
    def test_atom_closed_forms(self):
        res = lower_bound_check(fixtures.atom_fixture(), [-0.9])
        # log|S| = -(0.1/1.9), envelope term 6 * 1 / 0.1
        assert res.ok
        assert res.min_margin == pytest.approx(-0.1 / 1.9 + 60.0, rel=1e-6)

    def test_zero_measure_margin_zero(self):
        res = lower_bound_check(CircleMeasure(name="zero"), [0.3, -0.5j])
        assert res.ok and res.min_margin == pytest.approx(0.0)

    def test_triadic_radial_samples(self):
        rng = np.random.default_rng(2)
        zs = (1.0 - 2.0 ** -rng.uniform(1, 18, 64)) * \
            unit_point(rng.uniform(0, 1, 64))
        res = lower_bound_check(fixtures.triadic_cantor_measure(), zs)
        assert res.ok


def corona_monomial(zs, n_k):
    """|z|^(2^n_k) on an array of points, 0 at the centre."""
    with np.errstate(divide="ignore"):
        mono = np.exp(2.0 ** n_k * np.log(np.maximum(np.abs(zs), 1e-300)))
    return np.where(np.abs(zs) == 0.0, 0.0, mono)


def poisson(n, d):
    """P_h(d) = h (2 - h) / (h^2 + 4 (1 - h) sin^2(pi d)), h = 2^-n: Re H
    of a unit atom at distance d (in turns) on |z| = 1 - h."""
    h = 2.0 ** -n
    return h * (2.0 - h) / (h * h + 4.0 * (1.0 - h) * np.sin(np.pi * d) ** 2)


def poisson_max(mu, n, thetas):
    """max over the angles of Re H on |z| = 1 - 2^-n, summed directly."""
    pos, masses = mu.positions_float(), mu.realized().masses
    d = np.abs((pos - np.asarray(thetas)[:, None] + 0.5) % 1.0 - 0.5)
    return float(np.max(poisson(n, d) @ masses))


def atom_offsets(mu, n):
    """max of Re H at the atoms' angles moved by k 2^-n / 4, |k| <= 4,
    summed directly; the differences of float positions are exact near
    each atom, so the self term sees its offset even past depth 52."""
    pos, masses = mu.positions_float(), mu.realized().masses
    diff = (pos[None, :] - pos[:, None] + 0.5) % 1.0 - 0.5
    return max(float(np.max(poisson(n, np.abs(diff - k * 2.0 ** -n / 4))
                            @ masses)) for k in range(-4, 5))


class TestCorona:
    def test_inf_low_is_below_the_ring_minimum(self):
        # each piece's inf_low against |S| summed directly on the circle
        # |z| = 1 - 2^-n, at a dense grid and near sampled atoms
        d = decompose(fixtures.divergent_cantor_measure(12),
                      DyadicGrid((4, 8, 12, 16, 20, 24)), 0.1, W_T, 6)
        for piece, rep in zip(d.pieces, d.reports):
            got = corona_datum_check(piece, rep.depth, 0.1, W_T)
            pos = piece.positions_float()
            h = 2.0 ** -rep.depth
            thetas = np.concatenate(
                [np.arange(4096) / 4096] +
                [pos[::max(1, pos.size // 64)] + k * h for k in range(-4, 5)])
            brute = math.exp(-poisson_max(piece, rep.depth, thetas))
            assert got.ok and got.inf_low <= brute * (1.0 + 1e-12)
            assert got.inf_low <= (1.0 - h) ** 2 ** rep.depth

    @given(st.lists(st.tuples(POSITIONS, MASSES), min_size=1, max_size=40),
           st.integers(4, 100), st.sampled_from([0.05, 0.1, 0.2]))
    @settings(max_examples=60, deadline=None)
    def test_drawn_atoms_stay_below_the_poisson_minimum(self, atoms, n, c):
        # masses scaled so |S| dips well below 1 near the atoms, and some
        # atoms repeated; c n >= 0.2, so the bound is below 1/4
        atoms = [(p, 3.0 * m / len(atoms)) for p, m in atoms] + atoms[:2]
        mu = CircleMeasure(atoms=atoms)
        got = corona_datum_check(mu, n, c, W_T)
        dense = poisson_max(mu, n, np.arange(1024) / 1024)
        top = max(dense, atom_offsets(mu, n))
        assert got.inf_low <= math.exp(-top) * (1.0 + 1e-12)
        assert got.n_samples > 0

    @given(measures_and_targets(), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_floor_is_below_the_computed_value(self, case, n):
        # inf_low floors |S| - err + |z|^(2^n) at every point of the disc
        mu, z = case
        c = 0.2 if n < 8 else 0.1  # the bound stays below 1/4
        got = corona_datum_check(mu, n, c, W_T)
        vals, errs = singular_inner_many(mu, z)
        value = np.maximum(np.abs(vals) - errs, 0.0) + corona_monomial(z, n)
        assert np.all(got.inf_low <= value * (1.0 + 1e-12))

    def test_empty_piece_equals_the_oracle(self):
        # no mass: S = 1 on the disc, no arc is read, and the bound is
        # w(2^-8)^(12c) in closed form
        got = corona_datum_check(CircleMeasure(), 8, 0.1, W_T)
        bound = W_T(2.0 ** -8) ** 1.2
        assert got.inf_low == 1.0 and got.ok and got.n_samples == 0
        assert got.bound == pytest.approx(bound, rel=1e-12)

    def test_deep_pieces_are_certified_without_warnings(self):
        # past depth 52, 1 - 2^-n rounds to 1; the check reads arcs and
        # (angle, depth) kernels, never a float radius
        mu = fixtures.divergent_cantor_measure(12)
        for depth in (46, 60, 100):
            d = decompose(mu, DyadicGrid((4, 8, depth)), 0.1, W_T, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = corona_datum_check(d.pieces[2], depth, 0.1, W_T)
            assert 0.0 < got.inf_low and got.ok

    def test_past_the_float_range_nothing_is_certified(self):
        # at depth 1050 P_h(0) = (2 - h)/h overflows: U is infinite
        mu = CircleMeasure(atoms=[(0.25, 2.0 ** -1040)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = corona_datum_check(mu, 1050, 0.1, W_T)
        assert got.inf_low == 0.0 and not got.ok

    def test_zero_piece_trivial(self):
        mu = CircleMeasure(name="zero")
        res = corona_datum_check(mu, 4, 0.1, W_T)
        assert res.ok and res.inf_low == 1.0

    def test_atom_grating_level_zero(self):
        d = decompose(fixtures.atom_fixture(), DyadicGrid((4, 12, 36)),
                      0.1, W_T, 1)
        res = corona_datum_check(d.pieces[0], 4, 0.1, W_T)
        assert res.bound == pytest.approx((2.0 ** -4) ** 1.2)
        assert res.ok

    def test_outer_zone_monomial_floor(self):
        # at |z| = 1 - 2^-n the monomial term alone clears the bound
        for n in range(1, 64):
            r = 1.0 - 2.0 ** -n
            assert r ** (2 ** n) >= 0.25

    def test_outer_zone_values_clear_a_quarter(self):
        # the outer rings the check once sampled, at 1 - 2^-n 2^-i on rays
        # through the support, where the computed value is never below 1/4
        d = decompose(fixtures.divergent_cantor_measure(12),
                      DyadicGrid((4, 8, 12, 16, 20, 24)), 0.1, W_T, 6)
        for piece, rep in zip(d.pieces, d.reports):
            pos = piece.positions_float()
            rays = unit_point(pos[:: max(1, pos.size // 32)])
            zs = np.concatenate([(1.0 - 2.0 ** -rep.depth * 2.0 ** -i) * rays
                                 for i in range(1, 9)])
            vals, errs = singular_inner_many(piece, zs)
            value = np.maximum(np.abs(vals) - errs, 0.0) + \
                corona_monomial(zs, rep.depth)
            assert zs.size and np.all(value >= 0.25)

    def test_parameter_report(self):
        from gst.inner_outer import corona_parameter_report
        # small c makes the product admissible but pushes the starting
        # depth requirement deeper: w(2^-n0)^(12c) < 1/4 needs n0 > ~167
        rep = corona_parameter_report(W_T, 0.001, 256, K=10.0)
        assert rep["admissible_c"]  # 48 * 0.001 * 10 < 1
        assert rep["admissible_n0"]
        rep2 = corona_parameter_report(W_T, 0.1, 8, K=10.0)
        assert not rep2["admissible_c"]
        assert not corona_parameter_report(W_T, 0.001, 8)["admissible_n0"]


# -- oracles: the retired per-arc Whitney loop and per-gap endpoint loop ----

def rotated_set(E, offset):
    """E turned by ``offset``; a gap that crosses angle 0 wraps past 1."""
    obj = circle.set_to_json(E)
    obj["gaps"] = sorted([(s + offset) % 1.0, ln] for s, ln in obj["gaps"])
    return circle.set_from_json(obj)


ORACLE_SETS = {
    "point": lambda: point_set([0.0]),
    **{f"triadic{d}": (lambda d=d: fixtures.triadic_cantor_set(d))
       for d in range(1, 8)},
    "triadic_union_point": lambda: set_union(fixtures.triadic_cantor_set(),
                                             point_set([0.5])),
    # the gap (1/3, 2/3) turns to (0.933.., 1.266..) and wraps angle 0
    "rotated_triadic5": lambda: rotated_set(fixtures.triadic_cantor_set(5),
                                            0.6),
}


def oracle_whitney(E, levels):
    """(starts, lengths) of the Whitney arcs, one arc at a time."""
    starts, lengths = [], []
    for a, L in zip(E.starts.tolist(), E.lengths.tolist()):
        for k in range(levels):
            ln = L * 2.0 ** -(k + 2)
            starts += [(a + ln) % 1.0, (a + L - 2.0 * ln) % 1.0]
            lengths += [ln, ln]
    return np.array(starts), np.array(lengths)


def oracle_carleson_arrays(E, w, levels):
    """The arrays of carleson_outer, arc by arc and gap endpoint by gap
    endpoint."""
    starts, lens = oracle_whitney(E, levels)
    coeffs = lens * -np.asarray(w.log(lens))
    centers = unit_point(np.array([(a + ln / 2.0) % 1.0
                                   for a, ln in zip(starts, lens)]))
    lam = weights.effective_lambda(w)
    ends, tails, scales = [], [], []
    for start, length in zip(E.starts.tolist(), E.lengths.tolist()):
        for e in (start, start + length):
            m_last = length * 2.0 ** -(levels + 1)
            u_last = -float(w.log(m_last))
            tails.append(m_last * (u_last + 2.0 * math.log(4.0) / lam))
            ends.append(complex(unit_point(e % 1.0)))
            scales.append(m_last)
    return {"coeffs": coeffs, "poles": (1.0 + lens) * centers,
            "centers": centers, "gap_endpoints": np.asarray(ends),
            "tail_coeffs": np.array(tails), "tail_scale": np.array(scales)}


class TestWhitneyOracle:
    @pytest.mark.parametrize("levels", [1, 12, 60])
    @pytest.mark.parametrize("name", sorted(ORACLE_SETS))
    def test_arcs_bitwise(self, name, levels):
        E = ORACLE_SETS[name]()
        wd = whitney(E, levels)
        starts, lengths = oracle_whitney(E, levels)
        assert len(wd.arcs) == starts.size == 2 * levels * E.starts.size
        assert _same_bits(wd.arcs.start, starts)
        assert _same_bits(wd.arcs.length, lengths)
        assert _same_bits(wd.lengths(), lengths)
        row = wd.arcs[-1]
        assert (row.start, row.length) == (starts[-1], lengths[-1])

    @pytest.mark.parametrize("w", [W_T, weights.power(0.5),
                                   weights.exp_log(1.0, 0.8)],
                             ids=["t", "t^0.5", "exp_log"])
    @pytest.mark.parametrize("levels", [1, 12, 60])
    @pytest.mark.parametrize("name", sorted(ORACLE_SETS))
    def test_carleson_arrays_bitwise(self, name, levels, w):
        E = ORACLE_SETS[name]()
        G = carleson_outer(E, w, 1.0, levels)
        for key, want in oracle_carleson_arrays(E, w, levels).items():
            assert _same_bits(getattr(G, key), want), key

    def test_rotated_set_wraps_angle_zero(self):
        E = ORACLE_SETS["rotated_triadic5"]()
        assert np.any(E.starts + E.lengths > 1.0)


class TestWhitney:
    def test_point_set_tiling(self):
        wd = whitney(point_set([0.0]), levels=50)
        lens = wd.lengths()
        # two families of lengths 1/4, 1/8, ...: total 1 - 2^-50
        assert np.sum(lens) == pytest.approx(1.0, abs=1e-12)
        assert np.max(lens) == pytest.approx(0.25)

    def test_length_equals_distance(self):
        E = fixtures.triadic_cantor_set(4)
        wd = whitney(E, levels=12)
        for a in wd.arcs[:64]:
            d_left = E.dist(a.start)
            d_right = E.dist((a.start + a.length) % 1.0)
            assert min(d_left, d_right) == pytest.approx(a.length, rel=1e-9)

    def test_entropy_ledger_finite(self):
        E = fixtures.triadic_cantor_set(6)
        wd = whitney(E)
        lens = wd.lengths()
        ledger = float(np.sum(lens * (-np.asarray(W_T.log(lens)))))
        assert math.isfinite(ledger)


def oracle_whitney_tail(G, z):
    """The Whitney tail bound, one gap endpoint at a time."""
    tail = np.zeros(z.shape)
    for e, tc, sc in zip(G.gap_endpoints, G.tail_coeffs, G.tail_scale):
        tail = tail + tc / np.maximum(np.abs(z - e) - 16.0 * sc, sc)
    return tail


# triadic3 and triadic4 (14 and 30 gap endpoints) are summed term by term,
# triadic5 (62, at most 4 LEAF) has one shell per side
TAIL_SETS = {
    "point": lambda: point_set([0.0]),
    "two_points": lambda: point_set([0.0, 0.5]),
    **{f"triadic{d}": (lambda d=d: fixtures.triadic_cantor_set(d))
       for d in range(3, 8)},
    # the gap (1/3, 2/3) turns to (0.933.., 1.266..) and wraps angle 0
    "rotated_triadic7": lambda: rotated_set(fixtures.triadic_cantor_set(7),
                                            0.6),
    # 128 endpoints within 0.07 turns: a side's last shells run past the
    # far side of the circle, and come nearer again
    "crowded": lambda: point_set([k / 1000 for k in range(64)]),
}


def _tail_targets(G, seed):
    """Disc points at depths 2^-1 to 2^-40, the origin, and points within
    1e-12 turns of each gap endpoint at the same depths."""
    rng = np.random.default_rng(seed)
    depth = 2.0 ** -rng.integers(1, 41, 2000)
    disc = (1.0 - depth) * unit_point(rng.uniform(0.0, 1.0, depth.size))
    ends = np.repeat(np.angle(G.gap_endpoints) / (2.0 * math.pi), 8)
    depth = 2.0 ** -rng.integers(1, 41, ends.size)
    near = (1.0 - depth) * unit_point(ends + rng.uniform(-1e-12, 1e-12,
                                                         ends.size))
    return np.concatenate([disc, [0.0], near])


class TestWhitneyTail:
    """The shell bound of the Whitney tail against the sum over every gap
    endpoint: never below it, and at most 3 times it on the lid.  The
    terms of the nearest endpoints are the oracle's, added in another order,
    so the two may differ by rounding where every term is exact."""

    # at 12 levels the tail lengths sc reach 2^-13 of a gap, so the 16 sc
    # in the denominators count
    @pytest.mark.parametrize("levels", [12, inner_outer.WHITNEY_LEVELS])
    @pytest.mark.parametrize("name", sorted(TAIL_SETS))
    def test_bounds_the_oracle(self, name, levels):
        E = TAIL_SETS[name]()
        G = carleson_outer(E, W_T, 1.0, levels)
        lid, _ = boundary_samples_with_profile(PrivalovDomain(E), 2048)
        for z in (lid, _tail_targets(G, len(name))):
            got, want = inner_outer._whitney_tail(G, z), \
                oracle_whitney_tail(G, z)
            assert np.all(got >= want * (1.0 - 1e-13))
            if z is lid:
                assert np.all(got <= 3.0 * want)
            if G.gap_endpoints.size <= 2 * inner_outer.LEAF:
                # every endpoint is among the nearest: the sums agree
                assert np.all(np.abs(got - want) <= 1e-13 * want)


class TestTreeCut:
    # the tree starts its angle order after the widest gap between sources,
    # so turning the carrier moves no split: the walk does the same work
    def test_rotation_keeps_the_walk(self):
        base = fixtures.triadic_cantor_set(7)
        offsets = [0.0] + list(np.random.default_rng(7).uniform(0, 1, 5))
        works = []
        for offset in offsets:
            E = rotated_set(base, offset)
            G = carleson_outer(E, W_T, 1.0)
            zs, _ = boundary_samples_with_profile(PrivalovDomain(E), 2048)
            work = Counter()
            psi_sum_many(G, zs, work)
            works.append(work)
        for key in ("direct_pairs", "far_evals"):
            ref = works[0][key]
            assert all(abs(w[key] - ref) <= 0.01 * ref for w in works), \
                [w[key] for w in works]

    def test_order_starts_after_the_widest_gap(self):
        # sources at turns 0.1, 0.2, 0.5, 0.55: the widest gap runs from
        # 0.55 round to 0.1, so the first leaf column starts at 0.1
        turns = np.array([0.55, 0.2, 0.1, 0.5] * 100)
        tree = inner_outer.kernel_tree(unit_point(turns), np.ones(400))
        leaves = np.angle(tree.p.T.reshape(-1)) / (2.0 * math.pi) % 1.0
        assert np.all(np.diff(leaves) >= 0.0)
        assert leaves[0] == pytest.approx(0.1)


class TestCarlesonOuter:
    def test_series_value_at_origin(self):
        # independent series oracle over the two Whitney families of the
        # single unit gap: sum of 2 m_k log(1/m_k) / (1 + m_k)
        E = point_set([0.0])
        G = carleson_outer(E, W_T, 1.0)
        expected = sum(
            2.0 * 2.0 ** -(k + 2) * (k + 2) * math.log(2.0)
            / (1.0 + 2.0 ** -(k + 2))
            for k in range(60))
        psi, _ = psi_sum_many(G, np.array([0.0 + 0.0j]))
        assert psi[0].real == pytest.approx(expected, rel=1e-12)
        assert abs(psi[0].imag) <= 1e-12

    def test_bounded_by_one_on_disc(self):
        E = fixtures.triadic_cantor_set(5)
        G = carleson_outer(E, W_T, 2.0)
        rng = np.random.default_rng(9)
        zs = rng.uniform(0, 0.999, 1000) * unit_point(rng.uniform(0, 1, 1000))
        vals, _ = carleson_many(G, zs)
        assert np.max(np.abs(vals)) <= 1.0

    def test_real_part_positive(self):
        E = point_set([0.0])
        G = carleson_outer(E, W_T, 1.0)
        rng = np.random.default_rng(10)
        zs = rng.uniform(0, 0.999, 500) * unit_point(rng.uniform(0, 1, 500))
        psi, _ = psi_sum_many(G, zs)
        assert np.min(psi.real) > 0.0

    def test_boundary_decay_fit(self):
        # log|G| <= a log w(dist) + b with positive slope a
        E = point_set([0.0])
        G = carleson_outer(E, W_T, 4.0)
        ts = np.concatenate([2.0 ** -np.arange(2, 26),
                             1.0 - 2.0 ** -np.arange(2, 26)])
        zs = unit_point(ts) * (1.0 - 1e-12)
        vals, _ = carleson_many(G, zs)
        x = np.asarray(W_T.log(np.array([E.dist(t) for t in ts])))
        y = np.log(np.abs(vals))
        slope = np.polyfit(x, y, 1)[0]
        assert slope > 0.5
        b = float(np.max(y - slope * x))
        assert np.all(y <= slope * x + b + 1e-9)

    def test_infinite_entropy_refused(self):
        E = fixtures.harmonic_log_set()
        with pytest.raises(ValueError):
            carleson_outer(E, W_T, 1.0)

    def test_auto_N_doubles_until_pass(self):
        from gst.privalov import PrivalovDomain, boundary_samples_with_profile
        E = point_set([0.0])
        D = PrivalovDomain(E)
        zs, hs = boundary_samples_with_profile(D, 256)
        G = carleson_outer(E, W_T, 1.0)
        G = auto_carleson_N(G, *psi_sum_many(G, zs), hs)
        assert G.N >= 2.0

    @pytest.mark.parametrize("N", [0.0, -1.0, math.nan, math.inf])
    def test_N_must_be_positive_and_finite(self, N):
        with pytest.raises(ValueError):
            carleson_outer(point_set([0.0]), W_T, N)

    def test_carleson_many_at_origin(self):
        G = carleson_outer(point_set([0.0]), W_T, 1.0)
        vals, errs = carleson_many(G, np.zeros(1, dtype=complex))
        assert 0.0 < abs(vals[0]) < 1.0
        assert errs[0] < 1e-9
