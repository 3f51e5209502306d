"""Grating passes and the iterated decomposition on the fixture measures."""

import math
from fractions import Fraction

import pytest

from gst import circle, entropy, fixtures, weights
from gst.circle import CantorPart, CircleMeasure, MultiplierLayer, zero_measure
from gst.grids import DyadicGrid
from gst.roberts import decompose, grate, grating_threshold

W_T = weights.power(1.0)
GRID = DyadicGrid((4, 12, 36))
DECAY_GRID = DyadicGrid((4, 8, 12, 16, 20, 24))


class TestGrate:
    def test_threshold_value(self):
        assert grating_threshold(4, 0.1, W_T) == pytest.approx(
            0.1 * 2.0 ** -4 * 4 * math.log(2.0))

    def test_heavy_atom_capped(self):
        piece, rep = grate(fixtures.atom_fixture(), 4, 0.1, W_T)
        assert rep.heavy_arcs == (0,)
        assert piece.total_mass() == pytest.approx(rep.threshold, rel=1e-12)

    def test_light_atom_passes_through(self):
        from gst.circle import atom_measure
        mu = atom_measure(0, 0.01)
        piece, rep = grate(mu, 4, 0.1, W_T)
        assert not rep.heavy_arcs
        assert piece.total_mass() == pytest.approx(0.01)

    def test_zero_measure(self):
        piece, rep = grate(zero_measure(), 4, 0.1, W_T)
        assert piece.total_mass() == 0.0
        assert not rep.heavy_arcs and not rep.light_arcs

    def test_difference_nonnegative_on_heavy(self):
        mu = fixtures.triadic_cantor_measure()
        piece, rep = grate(mu, 4, 0.1, W_T)
        before = mu.arc_masses_at_depth(4)
        after = piece.arc_masses_at_depth(4)
        for i, m in before.items():
            assert after[i] <= m + 1e-15

    def test_tie_counts_as_light(self):
        from gst.circle import atom_measure
        thr = grating_threshold(4, 0.1, W_T)
        mu = atom_measure(0, thr)
        _, rep = grate(mu, 4, 0.1, W_T)
        assert not rep.heavy_arcs


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
        assert d.residual_in_heavy_sets()

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
        assert d.residual_in_heavy_sets()
        # dyadic-level modulus bound, exact at each level
        for piece, rep in zip(d.pieces, d.reports):
            masses = piece.arc_masses_at_depth(rep.depth)
            for m in masses.values():
                assert m <= rep.threshold * (1.0 + 1e-12)
        assert d.light_entropy_ledger <= d.carrier_entropy_bound + 1e-12

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
        val = entropy.gap_entropy_sum(gaps, W_T)
        assert math.isfinite(val)

    def test_piece_modulus_at_dyadic_scale(self):
        from gst.circle import modulus_of_continuity
        d = decompose(fixtures.triadic_cantor_measure(), GRID, 0.1, W_T, 2)
        for piece, rep in zip(d.pieces, d.reports):
            om = modulus_of_continuity(piece, 2.0 ** -rep.depth)
            assert om.upper <= 2.0 * rep.threshold * (1.0 + 1e-12)

    def test_grating_meta_recorded(self):
        d = decompose(fixtures.atom_fixture(), GRID, 0.1, W_T, 2)
        for piece, rep in zip(d.pieces, d.reports):
            assert piece.grating_meta["depth"] == rep.depth
            assert piece.grating_meta["c"] == 0.1

    def test_heavy_measure_decay_certificates(self):
        # c m(H_k) log(1/w(2^-n_k)) = mass of the level piece on its heavy
        # union, never above the total mass
        for mu in fixtures.measure_fixtures().values():
            d = decompose(mu, GRID, 0.1, W_T, 3)
            for cert in d.decay_certificates:
                assert cert["bound_value"] <= cert["total_mass"] + 1e-12


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
        # the six pieces were still unrealized: one layer each when carried,
        # k layers for the fresh realization of a level-k measure
        assert len(layers) == 6 + 2 * sum(range(1, 7))
