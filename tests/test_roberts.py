"""Grating passes and the iterated decomposition on the fixture measures."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gst import circle, entropy, fixtures, weights
from gst.circle import CantorPart, CircleMeasure, MultiplierLayer
from gst.grids import DyadicGrid
from gst.roberts import decompose, grate, grating_threshold
from test_circle import measures

W_T = weights.power(1.0)
GRID = DyadicGrid((4, 12, 36))
DECAY_GRID = DyadicGrid((4, 8, 12, 16, 20, 24))


def residual_in_heavy_arcs(d) -> bool:
    """Every residual atom lies in the heavy union of every level."""
    r = d.residual.realized()
    return all(np.isin(r.indices(rep.depth), rep.heavy_arcs).all()
               for rep in d.reports)


class TestGrate:
    def test_threshold_value(self):
        assert grating_threshold(4, 0.1, W_T) == pytest.approx(
            0.1 * 2.0 ** -4 * 4 * math.log(2.0))

    def test_heavy_atom_capped(self):
        piece, rep, _ = grate(fixtures.atom_fixture(), 4, 0.1, W_T)
        assert rep.heavy_arcs.tolist() == [0]
        assert piece.total_mass() == pytest.approx(rep.threshold, rel=1e-12)

    def test_light_atom_passes_through(self):
        from gst.circle import atom_measure
        mu = atom_measure(0, 0.01)
        piece, rep, _ = grate(mu, 4, 0.1, W_T)
        assert rep.heavy_count == 0
        assert piece.total_mass() == pytest.approx(0.01)

    def test_zero_measure(self):
        piece, rep, _ = grate(CircleMeasure(name="zero"), 4, 0.1, W_T)
        assert piece.total_mass() == 0.0
        assert rep.heavy_count == 0 and rep.light_arcs.size == 0

    def test_difference_nonnegative_on_heavy(self):
        mu = fixtures.triadic_cantor_measure()
        piece, rep, _ = grate(mu, 4, 0.1, W_T)
        keys, before = mu.arc_masses_at_depth(4)
        after_keys, after = piece.arc_masses_at_depth(4)
        assert after_keys.tolist() == keys.tolist()
        assert np.all(after <= before + 1e-15)

    def test_tie_counts_as_light(self):
        from gst.circle import atom_measure
        thr = grating_threshold(4, 0.1, W_T)
        mu = atom_measure(0, thr)
        _, rep, _ = grate(mu, 4, 0.1, W_T)
        assert rep.heavy_count == 0 and rep.light_arcs.tolist() == [0]


class TestDecompose:
    def test_atom_piece_masses(self):
        d = decompose(fixtures.atom_fixture(), GRID, 0.1, W_T, 3)
        assert d.pieces[0].total_mass() == pytest.approx(
            0.1 * 2.0 ** -4 * 4 * math.log(2.0))
        assert d.pieces[1].total_mass() == pytest.approx(
            0.1 * 2.0 ** -12 * 12 * math.log(2.0))
        # residual is the ground-down atom, still on the original chain
        assert d.residual.total_mass() == pytest.approx(
            1.0 - sum(p.total_mass() for p in d.pieces))
        assert residual_in_heavy_arcs(d)

    def test_below_threshold_consumed_at_once(self):
        from gst.circle import atom_measure
        mu = atom_measure(0, 0.001)
        d = decompose(mu, GRID, 0.1, W_T, 3)
        assert d.pieces[0].total_mass() == pytest.approx(0.001)
        assert d.residual.total_mass() == 0.0
        for p in d.pieces[1:]:
            assert p.total_mass() == 0.0

    def test_kmax_validated(self):
        with pytest.raises(ValueError):
            decompose(fixtures.atom_fixture(), GRID, 0.1, W_T, 0)

    @pytest.mark.parametrize("name", ["atom", "two_atoms", "triadic_cantor",
                                      "divergent_cantor"])
    def test_fixture_invariants(self, name):
        mu = fixtures.measure_fixtures()[name]
        d = decompose(mu, GRID, 0.1, W_T, 3)
        assert d.mass_balance_error() <= 1e-9
        assert d.heavy_nesting_ok()
        assert residual_in_heavy_arcs(d)
        # dyadic-level modulus bound, exact at each level
        for piece, rep in zip(d.pieces, d.reports):
            _, masses = piece.arc_masses_at_depth(rep.depth)
            assert np.all(masses <= rep.threshold * (1.0 + 1e-12))
        assert d.light_entropy_ledgers[-1] <= d.carrier_entropy_bound + 1e-12

    def test_divergent_residual_decays(self):
        mu = fixtures.divergent_cantor_measure()
        masses = [decompose(mu, DECAY_GRID, 0.1, W_T, k).residual.total_mass()
                  for k in (2, 4, 6)]
        assert masses[0] > masses[1] > masses[2]
        assert masses[1] / masses[0] < 1.0
        assert masses[2] / masses[1] < 1.0

    @pytest.mark.parametrize("name", ["atom", "two_atoms", "triadic_cantor",
                                      "divergent_cantor"])
    def test_residual_masses_match_shorter_runs(self, name):
        mu = fixtures.measure_fixtures()[name]
        masses = decompose(mu, DECAY_GRID, 0.1, W_T, 6).residual_masses
        assert masses == [
            decompose(mu, DECAY_GRID, 0.1, W_T, k).residual.total_mass()
            for k in range(1, 7)]

    def test_divergent_fully_consumed_at_larger_c(self):
        # entropy-free measures are consumed entirely once the thresholds
        # catch up with the realization: the residual vanishes exactly
        mu = fixtures.divergent_cantor_measure()
        d = decompose(mu, DECAY_GRID, 0.2, W_T, 6)
        assert d.residual.total_mass() == 0.0
        assert d.mass_balance_error() <= 1e-9

    def test_triadic_residual_carrier_entropy_finite(self):
        d = decompose(fixtures.triadic_cantor_measure(), GRID, 0.1, W_T, 3)
        gaps = d.residual_carrier_gaps()
        val, _ = entropy.gap_entropy_sum(gaps, W_T)
        assert math.isfinite(val)

    def test_piece_modulus_at_dyadic_scale(self):
        from gst.circle import modulus_of_continuity
        d = decompose(fixtures.triadic_cantor_measure(), GRID, 0.1, W_T, 2)
        for piece, rep in zip(d.pieces, d.reports):
            om = modulus_of_continuity(piece, 2.0 ** -rep.depth)
            assert om.upper <= 2.0 * rep.threshold * (1.0 + 1e-12)

    def test_heavy_measure_decay_certificates(self):
        # c m(H_k) log(1/w(2^-n_k)) = mass of the level piece on its heavy
        # union, never above the total mass
        for mu in fixtures.measure_fixtures().values():
            d = decompose(mu, GRID, 0.1, W_T, 3)
            for rep in d.reports:
                n = rep.depth
                bound = 0.1 * (rep.heavy_count / 2 ** n) \
                    * W_T.neg_log_at_depth(n)
                assert bound <= d.total_mass + 1e-12


class TestCarryForward:
    def test_carried_realization_is_the_fresh_one(self, monkeypatch):
        made = []
        scaled_on_arcs = CircleMeasure.scaled_on_arcs

        def recording(self, *args, **kwargs):
            made.append(scaled_on_arcs(self, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(CircleMeasure, "scaled_on_arcs", recording)
        mu = CircleMeasure(
            atoms=[(Fraction(1, 3), 0.2), (0.5, 0.1)],
            cantor_parts=[CantorPart(circle.stagewise_log_generator(), 10,
                                     1.0),
                          CantorPart(circle.triadic_generator(), 8, 0.5)])
        decompose(mu, DECAY_GRID, 0.1, W_T, 6)
        assert len(made) == 12  # a piece and a remainder per level
        layers = []
        factors_at = MultiplierLayer.factors_at
        monkeypatch.setattr(MultiplierLayer, "factors_at",
                            lambda *a: layers.append(1) or factors_at(*a))
        for m in made:
            carried = m.realized()
            fresh = CircleMeasure(atoms=m.atom_list,
                                  cantor_parts=m.cantor_parts,
                                  multipliers=m.multipliers).realized()
            for a, b in zip(carried[:3], fresh[:3]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # every carried measure was realized as it was made: no layer
        # applied here beyond the k of the fresh realization at level k
        assert len(layers) == 2 * sum(range(1, 7))

    def test_one_index_pass_per_level(self, monkeypatch):
        # the grating and the remainder share one pass, and the pieces
        # need none when they are used
        calls = []
        indices = circle.Realization.indices
        monkeypatch.setattr(circle.Realization, "indices",
                            lambda r, depth: calls.append(depth)
                            or indices(r, depth))
        d = decompose(fixtures.divergent_cantor_measure(), DECAY_GRID, 0.1,
                      W_T, 6)
        assert calls == list(DECAY_GRID.depths)
        for piece in d.pieces:
            piece.realized()
        assert calls == list(DECAY_GRID.depths)

    def test_one_run_pass_per_level(self, monkeypatch):
        # the grating's arc masses, its piece and its remainder all read
        # one grouping of the atoms by arc
        calls = []
        runs = circle._runs
        monkeypatch.setattr(circle, "_runs",
                            lambda idx: calls.append(idx.size) or runs(idx))
        decompose(fixtures.divergent_cantor_measure(), DECAY_GRID, 0.1, W_T,
                  6)
        assert len(calls) == len(DECAY_GRID.depths)


# ---------------------------------------------------------------------------
# Reference grating: the dict-and-sort implementation the arrays replaced
# ---------------------------------------------------------------------------

def oracle_arc_masses(mu: CircleMeasure, n: int) -> dict:
    """Arc index -> mass, each arc's masses added in atom order."""
    r = mu.realized()
    masses: dict = {}
    for i, m in zip(r.indices(n).tolist(), r.masses.tolist()):
        masses[i] = masses.get(i, 0.0) + m
    return masses


def fresh_with_layer(mu: CircleMeasure, layer: MultiplierLayer):
    """mu with one more layer, realized from scratch when first used."""
    return CircleMeasure(atoms=mu.atom_list, cantor_parts=mu.cantor_parts,
                         multipliers=mu.multipliers + (layer,))


def oracle_grate(mu: CircleMeasure, n: int, c: float, w):
    """(piece, (threshold, heavy indices, heavy masses, light indices))."""
    thr = grating_threshold(n, c, w)
    masses = oracle_arc_masses(mu, n)
    heavy = sorted((i, m) for i, m in masses.items() if m > thr)
    light = sorted(i for i, m in masses.items() if 0 < m <= thr)
    piece = fresh_with_layer(mu, MultiplierLayer.from_dict(
        n, {i: thr / m for i, m in heavy}))
    return piece, (thr, [i for i, _ in heavy], [m for _, m in heavy], light)


def oracle_decompose(mu: CircleMeasure, depths, c: float, w):
    remainder, pieces, reports, residual_masses = mu, [], [], []
    for n in depths:
        piece, rep = oracle_grate(remainder, n, c, w)
        thr, heavy, heavy_masses, light = rep
        factors = {i: 1.0 - thr / m for i, m in zip(heavy, heavy_masses)}
        factors.update(dict.fromkeys(light, 0.0))
        remainder = fresh_with_layer(
            remainder, MultiplierLayer.from_dict(n, factors))
        pieces.append(piece)
        reports.append(rep)
        residual_masses.append(remainder.total_mass())
    ledger = 0.0
    for (n0, (_, h0, _, _)), (n1, (_, h1, _, _)) in zip(
            zip(depths, reports), zip(depths[1:], reports[1:])):
        light_count = len(h0) * 2 ** (n1 - n0) - len(h1)
        ledger += light_count / 2 ** n1 * w.neg_log_at_depth(n1)
    return pieces, remainder, reports, residual_masses, ledger


def oracle_nesting_ok(heavy_sets) -> bool:
    for (d0, h0), (d1, h1) in zip(heavy_sets, heavy_sets[1:]):
        if any((i >> (d1 - d0)) not in set(h0) for i in h1):
            return False
    return True


def oracle_carrier_gaps(depth: int, heavy: list) -> list:
    runs = []
    run_start = prev = heavy[0]
    for i in heavy[1:]:
        if i != prev + 1:
            runs.append((run_start, prev))
            run_start = i
        prev = i
    runs.append((run_start, prev))
    gaps = []
    for (_, a1), (b0, _) in zip(runs, runs[1:] + [(runs[0][0] + 2 ** depth,
                                                   0)]):
        length = (b0 - a1 - 1) * 2.0 ** -depth
        if length > 0:
            gaps.append(length)
    return gaps


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert all(type(x) is int for x in a.tolist())
        assert a.tolist() == b.tolist()
    else:
        assert a.tobytes() == b.tobytes()


@st.composite
def grids(draw):
    """Strictly increasing depths, one of them past the int64 index range,
    or the two-level grid whose arc counts pass the float range."""
    deep = draw(st.sampled_from([(4, 2000), None]))
    if deep:
        return deep
    depths = draw(st.lists(st.integers(1, 40), max_size=3)) + [
        draw(st.integers(63, 80))]
    return tuple(sorted(set(depths)))


class TestArrayGrating:
    """The array grating against the dict-based reference, bit for bit."""

    @given(measures(), grids(), st.sampled_from([0.02, 0.1, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_oracle(self, mu, depths, c):
        self.check(mu, depths, c)

    @pytest.mark.parametrize("depths", [(70,), (4, 70, 75), (63, 2000)])
    def test_light_arcs_past_depth_62(self, depths):
        # atoms below the depth-70 threshold (4.1e-21 at c = 0.1) are light
        # at any depth of the grid: object-typed light indices
        mu = CircleMeasure(atoms=[(Fraction(1, 3), 1e-25), (0.5, 1.0),
                                  (Fraction(1, 7), 1e-30)],
                           cantor_parts=[CantorPart(
                               circle.triadic_generator(), 6, 1e-24)])
        self.check(mu, depths, 0.1)

    @staticmethod
    def check(mu, depths, c):
        d = decompose(mu, DyadicGrid(depths), c, W_T, len(depths))
        pieces, residual, reports, residual_masses, ledger = \
            oracle_decompose(mu, depths, c, W_T)
        for rep, (thr, heavy, heavy_masses, light), n in zip(
                d.reports, reports, depths):
            index_type = np.int64 if n <= 62 else object
            assert rep.depth == n and rep.threshold == thr
            assert_same_bits(rep.heavy_arcs, np.array(heavy, index_type))
            assert_same_bits(rep.light_arcs, np.array(light, index_type))
            assert_same_bits(rep.heavy_masses, np.array(heavy_masses, float))
        for got, want in zip(d.pieces + [d.residual], pieces + [residual]):
            for a, b in zip(got.realized()[:3], want.realized()[:3]):
                assert_same_bits(a, b)
        assert d.residual_masses == residual_masses
        assert d.light_entropy_ledgers[-1] == ledger
        heavy_sets = [(n, rep[1]) for n, rep in zip(depths, reports)]
        assert d.heavy_nesting_ok() == oracle_nesting_ok(heavy_sets)
        assert residual_in_heavy_arcs(d)
        n, heavy = heavy_sets[-1]
        if n <= 500 and heavy:
            assert d.residual_carrier_gaps() == oracle_carrier_gaps(n, heavy)
        return d

    def test_carrier_gaps_on_shallow_grid(self):
        mu = fixtures.triadic_cantor_measure()
        d = decompose(mu, GRID, 0.1, W_T, 2)
        rep = d.reports[-1]
        assert d.residual_carrier_gaps() == oracle_carrier_gaps(
            rep.depth, rep.heavy_arcs.tolist())
