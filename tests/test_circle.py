"""Arc arithmetic, closed null sets and singular measure queries."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gst import circle, fixtures
from gst.circle import (Arc, atom_measure, dyadic_index,
                        modulus_of_continuity, point_set, set_union)


class TestArc:
    def test_half_open_membership(self):
        a = Arc(0.0, 0.5)
        assert a.contains(0.0)
        assert not a.contains(0.5)

    def test_wraparound(self):
        a = Arc(0.75, 0.5)
        assert a.contains(0.9) and a.contains(0.1)
        assert not a.contains(0.5)

    @given(st.floats(0, 0.999), st.floats(0.001, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_measure_is_length(self, start, length):
        a = Arc(start % 1.0, min(length, 1.0))
        assert a.length == min(length, 1.0)


class TestClosedSets:
    def test_point_set_distance(self):
        E = point_set([0.0])
        assert E.dist(0.25) == pytest.approx(0.25)
        assert E.dist(0.5) == pytest.approx(0.5)
        assert E.dist(0.0) == 0.0

    def test_gap_lengths_cover_circle(self):
        E = point_set([0.0, 0.25, 0.5])
        assert math.fsum(g.length for g in E.gaps) == pytest.approx(1.0)

    def test_tailed_set_accounts_mass(self):
        for E, tol in ((fixtures.triadic_cantor_set(8), 1e-9),
                       (fixtures.stagewise_divergent_set(), 1e-12),
                       (fixtures.harmonic_log_set(), 1e-12)):
            gaps = math.fsum(g.length for g in E.gaps)
            assert gaps + E.tail.gap_mass() == pytest.approx(1.0, abs=tol), \
                E.name

    def test_log_series_constant(self):
        n = 10 ** 6
        ks = np.arange(2.0, n + 1.0)
        s = float(np.sum(1.0 / (ks * np.log(ks) ** 2)))
        assert abs(circle.LOG_SERIES - (s + 1.0 / math.log(n + 0.5))) <= 1e-14
        # the summed and the midpoint regimes of the tail meet without a gap
        k = circle.LOG_SERIES_TERMS
        step = circle.log_series_tail(k - 1) - circle.log_series_tail(k)
        assert step == pytest.approx(1.0 / (k * math.log(k) ** 2), rel=1e-6)

    def test_union_splits_gap(self):
        E = set_union(point_set([0.0]), point_set([0.5]))
        assert len(E.gaps) == 2
        assert E.contains_point(0.5)


class TestMassQueries:
    def test_atom_inside(self):
        r = atom_measure(0, 1.0).mass_of_arc(Arc(0.0, 0.5))
        assert r.mass == 1.0 and r.err == 0.0

    def test_atom_on_excluded_endpoint(self):
        mu = atom_measure(0.5, 1.0)
        assert mu.mass_of_arc(Arc(0.0, 0.5)).mass == 0.0
        assert mu.mass_of_arc(Arc(0.5, 0.5)).mass == 1.0

    def test_triadic_self_similarity(self):
        mu = fixtures.triadic_cantor_measure()
        r = mu.mass_of_arc(Arc(0.0, 1.0 / 3.0))
        assert r.mass == pytest.approx(0.5, abs=1e-12)
        assert r.err <= 1e-12

    @given(st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_dyadic_partition_additivity(self, depth):
        mu = fixtures.two_atom_fixture()
        total = sum(mu.mass_of_arc(circle.dyadic_arc(i, depth)).mass
                    for i in range(2 ** depth))
        assert total == pytest.approx(mu.total_mass(), abs=depth * 1e-12)

    def test_partition_additivity_cantor(self):
        mu = fixtures.triadic_cantor_measure(stages=8)
        masses = mu.arc_masses_at_depth(7)
        assert sum(masses.values()) == pytest.approx(1.0, abs=1e-12)


class TestModulus:
    def test_single_atom_full_mass(self):
        om = modulus_of_continuity(atom_measure(0, 1.0), 0.25)
        assert om.lower == om.upper == 1.0

    def test_two_atoms_separate(self):
        om = modulus_of_continuity(fixtures.two_atom_fixture(), 0.25)
        assert om.lower == pytest.approx(0.5)
        assert om.upper == pytest.approx(0.5)

    def test_triadic_window(self):
        mu = fixtures.triadic_cantor_measure()
        om = modulus_of_continuity(mu, 1.0 / 3.0)
        assert om.lower >= 0.5
        assert om.upper <= 0.51

    def test_monotone_in_delta(self):
        mu = fixtures.triadic_cantor_measure(stages=10)
        deltas = [2.0 ** -j for j in range(1, 12)]
        vals = [modulus_of_continuity(mu, d).upper for d in deltas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_subadditive_on_fixtures(self):
        for mu in fixtures.measure_fixtures().values():
            for d1, d2 in ((0.1, 0.2), (0.05, 0.05), (0.25, 0.3)):
                lhs = modulus_of_continuity(mu, d1 + d2).upper
                rhs = (modulus_of_continuity(mu, d1).upper +
                       modulus_of_continuity(mu, d2).upper)
                assert lhs <= rhs + 4e-12

    def test_doubling_dominates(self):
        # upper(delta) never exceeds the exact modulus at 2*delta
        mu = fixtures.triadic_cantor_measure(stages=10)
        for d in (0.01, 0.05, 0.2):
            assert (modulus_of_continuity(mu, d).upper
                    <= modulus_of_continuity(mu, 2 * d).lower + 1e-12)


class TestRestrict:
    def test_atom_kept_on_point(self):
        E = point_set([0.0])
        assert atom_measure(0, 1.0).restrict(E).total_mass() == 1.0

    def test_atom_dropped_in_gap(self):
        E = point_set([0.0])
        assert atom_measure(0.5, 1.0).restrict(E).total_mass() == 0.0

    def test_cantor_restricted_to_carrier(self):
        mu = fixtures.triadic_cantor_measure()
        part = mu.cantor_parts[0]
        assert mu.restrict(part.carrier).total_mass() == pytest.approx(
            1.0, abs=1e-12)

    def test_full_circle_is_identity(self):
        full = circle.ClosedCircleSet([], name="full")
        mu = fixtures.two_atom_fixture()
        assert mu.restrict(full).total_mass() == mu.total_mass()


class TestJsonForms:
    def test_measure_roundtrip(self):
        mu = fixtures.triadic_cantor_measure(stages=6)
        again = circle.measure_from_json(circle.measure_to_json(mu))
        assert again.total_mass() == pytest.approx(mu.total_mass())
        r1 = mu.mass_of_arc(Arc(0.0, 0.25)).mass
        r2 = again.mass_of_arc(Arc(0.0, 0.25)).mass
        assert r1 == pytest.approx(r2)

    def test_set_roundtrip(self):
        E = fixtures.triadic_cantor_set(5)
        again = circle.set_from_json(circle.set_to_json(E))
        assert len(again.gaps) == len(E.gaps)
        assert again.tail.gap_mass() == pytest.approx(E.tail.gap_mass())

    def test_multiplier_layer_applies(self):
        obj = {"atoms": [{"pos": 0.1, "mass": 1.0}],
               "multipliers": [{"depth": 2,
                                "factors": {"0": 0.25}}]}
        mu = circle.measure_from_json(obj)
        assert mu.total_mass() == pytest.approx(0.25)


class TestDyadicIndex:
    @given(st.integers(0, 2 ** 20 - 1), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_floor(self, num, depth):
        p = Fraction(num, 2 ** 20)
        assert dyadic_index(p, depth) == (num >> (20 - depth))
