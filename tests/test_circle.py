"""Arc arithmetic, closed null sets and singular measure queries."""

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gst import circle, fixtures
from gst.circle import (CIRCLE_TOL, Arc, CantorPart, CircleMeasure,
                        MultiplierLayer, atom_measure, modulus_of_continuity,
                        point_set, set_union)
from gst.privalov import PrivalovDomain


class TestArc:
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
        assert math.fsum(E.lengths) == pytest.approx(1.0)

    def test_tailed_set_accounts_mass(self):
        for E, tol in ((fixtures.triadic_cantor_set(8), 1e-9),
                       (fixtures.stagewise_divergent_set(), 1e-12),
                       (fixtures.harmonic_log_set(), 1e-12)):
            gaps = math.fsum(E.lengths)
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
        assert E.starts.size == 2
        assert E.contains_points([0.5])[0]


@pytest.fixture
def exact_reads(monkeypatch):
    """The atoms of each ``Realization.exact`` call, one array per call."""
    seen = []
    exact = circle.Realization.exact

    def spy(self, sel):
        seen.append(np.asarray(sel))
        return exact(self, sel)

    monkeypatch.setattr(circle.Realization, "exact", spy)
    return seen


class TestMassQueries:
    def test_atom_inside(self):
        r = atom_measure(0, 1.0).mass_of_arc(Arc(0.0, 0.5))
        assert r.mass == 1.0 and r.err == 0.0

    def test_atom_on_excluded_endpoint(self):
        mu = atom_measure(0.5, 1.0)
        assert mu.mass_of_arc(Arc(0.0, 0.5)).mass == 0.0
        assert mu.mass_of_arc(Arc(0.5, 0.5)).mass == 1.0

    def test_keys_decide_off_the_ends(self, exact_reads):
        # the floats of both atoms are the arc's ends, 0.5 and 0.75, but
        # their keys are not the ends' keys
        mu = CircleMeasure(atoms=[(Fraction(1, 2) + Fraction(1, 2 ** 55), 1.0),
                                  (Fraction(3, 4) - Fraction(1, 2 ** 56), 0.5)])
        assert mu.mass_of_arc(Arc(0.5, 0.25)).mass == 1.5
        assert not any(sel.size for sel in exact_reads)

    def test_triadic_self_similarity(self):
        mu = fixtures.triadic_cantor_measure()
        r = mu.mass_of_arc(Arc(0.0, 1.0 / 3.0))
        assert r.mass == pytest.approx(0.5, abs=1e-12)
        assert r.err <= 1e-12

    @given(st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_dyadic_partition_additivity(self, depth):
        mu = fixtures.two_atom_fixture()
        total = sum(mu.mass_of_arc(Arc(i * 2.0 ** -depth, 2.0 ** -depth)).mass
                    for i in range(2 ** depth))
        assert total == pytest.approx(mu.total_mass(), abs=depth * 1e-12)

    def test_partition_additivity_cantor(self):
        mu = fixtures.triadic_cantor_measure(stages=8)
        _, masses = mu.arc_masses_at_depth(7)
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)


class TestModulus:
    def test_single_atom_full_mass(self):
        om = modulus_of_continuity(atom_measure(0, 1.0), 0.25)
        assert om.upper == 1.0

    def test_two_atoms_separate(self):
        om = modulus_of_continuity(fixtures.two_atom_fixture(), 0.25)
        assert om.upper == pytest.approx(0.5)

    def test_triadic_window(self):
        mu = fixtures.triadic_cantor_measure()
        om = modulus_of_continuity(mu, 1.0 / 3.0)
        assert 0.5 <= om.upper <= 0.51

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
        mu = fixtures.triadic_cantor_measure(stages=10)
        for d in (0.01, 0.05, 0.2):
            assert (modulus_of_continuity(mu, d).upper
                    <= modulus_of_continuity(mu, 2 * d).upper + 1e-12)

    def test_keys_decide_off_the_ends(self, exact_reads):
        # the window [1/4, 1/2) ends at the float of the atom 1/2 + 2^-55,
        # but not at its key
        mu = CircleMeasure(atoms=[(Fraction(1, 4), 1.0),
                                  (Fraction(1, 2) + Fraction(1, 2 ** 55), 0.5)])
        assert modulus_of_continuity(mu, 0.25).upper == 1.0
        assert not any(sel.size for sel in exact_reads)

    def test_exact_twins_merge_into_one_part(self, exact_reads):
        # two equal 12-stage triadic parts: each atom's key ties with its
        # twin's.  One exact pass merges the twins, so the windows read
        # no exact position, and the modulus is that of one part of
        # double mass
        part = circle.CantorPart(circle.triadic_generator(), 12, 0.5)
        twins = CircleMeasure(cantor_parts=[part, part])
        single = CircleMeasure(cantor_parts=[circle.CantorPart(
            circle.triadic_generator(), 12, 1.0)])
        deltas = (1e-4, 0.01, 0.1, 0.3, 0.7)
        want = [modulus_of_continuity(single, d) for d in deltas]
        assert not any(sel.size for sel in exact_reads)
        exact_reads.clear()
        assert [modulus_of_continuity(twins, d) for d in deltas] == want
        read = [sel for sel in exact_reads if sel.size]
        assert len(read) == 1
        assert np.array_equal(np.sort(read[0]), np.arange(2 * 4096))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_exact_oracle(self, data):
        """upper is the largest window [p, p + delta) mod 1 anchored at an
        atom p, with membership decided in exact arithmetic, to within 4
        ulps per atom for the order of summation."""
        pool = data.draw(st.lists(MODULUS_POSITIONS, min_size=1, max_size=5))
        atoms = data.draw(st.lists(
            st.tuples(st.sampled_from(pool), st.floats(2.0 ** -20, 4.0)),
            min_size=1, max_size=8))
        delta = data.draw(st.one_of(
            st.sampled_from([2.0 ** -30, 0.1, 0.5, 1.0, 2.0 ** -63, 1e-20,
                             1e-300]),
            st.floats(2.0 ** -30, 1.0)))
        want = max(
            sum(Fraction(m) for q, m in atoms
                if frac_mod1(Fraction(q) - Fraction(p)) < Fraction(delta))
            for p, _ in atoms)
        got = modulus_of_continuity(CircleMeasure(atoms=atoms), delta).upper
        total = math.fsum(m for _, m in atoms)
        assert abs(Fraction(got) - want) <= Fraction(
            4 * len(atoms) * math.ulp(2.0 * total))

    @given(st.integers(0, 3 ** 20 - 1),
           st.lists(st.tuples(st.sampled_from([-1, 0, 1]),
                              st.integers(55, 80),
                              st.sampled_from([0.5, 1.0, 2.0])),
                    min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_exact_positions_at_a_window_edge(self, k, offsets):
        """Atoms at a = k/3^20, a + s and a + 0.1 + s' with |s|, |s'| 0 or
        2^-55 .. 2^-80, and at 1 - 2^-70: keys that tie at the start of
        the window anchored at a, or at its end, where only the exact
        positions tell which atoms it holds; at delta = 1 the last atom's
        key 2^62 - 1 takes the clamped window end, the largest."""
        a = Fraction(k, 3 ** 20)
        (s1, e1, m1), (s2, e2, m2) = offsets
        atoms = [(a, 1.0), (frac_mod1(a + Fraction(s1, 2 ** e1)), m1),
                 (frac_mod1(a + Fraction(0.1) + Fraction(s2, 2 ** e2)), m2),
                 (1 - Fraction(1, 2 ** 70), 0.25)]
        mu = CircleMeasure(atoms=atoms)
        for delta in (0.1, 1.0 - 2.0 ** -60, 1.0):
            want = max(sum(m for q, m in atoms
                           if frac_mod1(q - p) < Fraction(delta))
                       for p, _ in atoms)
            assert modulus_of_continuity(mu, delta).upper == want, delta


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
        full = circle.ClosedCircleSet([], [], name="full")
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
        assert again.starts.size == E.starts.size
        assert again.tail.gap_mass() == pytest.approx(E.tail.gap_mass())

    def test_multiplier_layer_applies(self):
        obj = {"atoms": [{"pos": 0.1, "mass": 1.0}],
               "multipliers": [{"depth": 2,
                                "factors": {"0": 0.25}}]}
        mu = circle.measure_from_json(obj)
        assert mu.total_mass() == pytest.approx(0.25)

    # integer keys check as one array, the rest one by one: both agree
    @pytest.mark.parametrize("depth, factors, error", [
        (3, {}, None), (3, {0: 0.0, 7: 1.0}, None), (3, {8: 0.5}, "indices"),
        (3, {-1: 0.5}, "indices"), (0, {0: 0.5}, None),
        (0, {1: 0.5}, "indices"), (70, {2 ** 69: 0.5, 3: 0.1}, None),
        (70, {2 ** 70: 0.5}, "indices"), (3, {True: 0.5}, None),
        (3, {1.0: 0.5}, "indices"), (3, {"1": 0.5}, "indices"),
        (3, {1: -0.1}, "factors"), (3, {1: float("nan")}, "factors"),
        (3, {1: 1.5, 9: 0.5}, "factors")])
    def test_multiplier_layer_validation(self, depth, factors, error):
        if error is None:
            assert MultiplierLayer.from_dict(depth, factors).as_dict() == \
                factors
            return
        message = {"indices": "arc indices must be integers in "
                              f"0..2^{depth}-1",
                   "factors": "factors must lie in"}[error]
        with pytest.raises(ValueError, match=message.replace("^", r"\^")):
            MultiplierLayer.from_dict(depth, factors)


    @pytest.mark.parametrize("depth, keys, factors, error", [
        (3, np.array([0, 7]), [0.0, 1.0], None),
        (70, np.array([3, 2 ** 69], dtype=object), [0.5, 0.1], None),
        (70, np.array([3, 9]), [0.5, 0.1], None),
        (3, np.array([2, 5], dtype=object), [0.5, 0.1], None),
        (3, np.array([5, 2]), [0.5, 0.1], "indices"),
        (70, np.array([2 ** 69, 3], dtype=object), [0.5, 0.1], "indices"),
        (3, np.array([2, 2]), [0.5, 0.1], "indices"),
        (3, np.array([1, 8]), [0.5, 0.1], "indices"),
        (3, np.array([-1, 2]), [0.5, 0.1], "indices"),
        (70, np.array([3, 2 ** 70], dtype=object), [0.5, 0.1], "indices"),
        (3, np.array([1.0, 2.0]), [0.5, 0.1], "indices"),
        (3, np.array([1, True], dtype=object), [0.5, 0.1], "indices"),
        (3, np.array([1, 2]), [0.5, float("nan")], "factors"),
        (3, np.array([1, 2]), [0.5, 1.5], "factors"),
        (3, np.array([1, 2]), [-0.1, 0.5], "factors"),
        (3, np.array([1, 2]), [0.5], "one factor per key")])
    def test_array_layer_validation(self, depth, keys, factors, error):
        factors = np.array(factors)
        if error is None:
            layer = MultiplierLayer(depth, keys, factors)
            assert layer.keys.dtype == (np.int64 if depth <= 62 else object)
            assert layer.as_dict() == dict(zip(keys.tolist(),
                                               factors.tolist()))
            return
        message = {"indices": "arc indices must be integers in "
                              f"0..2^{depth}-1",
                   "factors": "factors must lie in"}.get(error, error)
        with pytest.raises(ValueError, match=message.replace("^", r"\^")):
            MultiplierLayer(depth, keys, factors)


class TestGapTail:
    @pytest.mark.parametrize("kind, params, message", [
        ("geometric_levels", (1, 2, 1, 0, -1), "positive parameters"),
        ("geometric_levels", (1, 0, 1, 0.3, 0), "positive parameters"),
        ("geometric_levels", (1, 2, 1, 0.5, 0), r"base \* ratio < 1"),
        ("geometric_levels", (1, 2, 1, 0.3, -1), "first level -1"),
        ("geometric_levels", (1, 2, 1, 0.3, 1.5), "must be an integer"),
        ("geometric_levels", (1, 2, 1, 0.3), "list of 5"),
        ("harmonic_log", (1, 1), "first level 1"),
        ("harmonic_log", (0, 5), "positive parameters"),
        ("harmonic_log", (1, float("nan")), "finite number"),
        ("stagewise_log", (-1, 3), "positive parameters"),
        ("stagewise_log", (1, -3), "first level -3"),
        ("geometric", (1, 2), "unknown tail kind"),
    ])
    def test_ranges_checked_when_built(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            circle.GapTail(kind, params)

    @pytest.mark.parametrize("kind, params", [
        ("geometric_levels", (1, 2, 1, 0.49, 0)),
        ("harmonic_log", (1e-3, 2)), ("stagewise_log", (1.0, 0.0))])
    def test_smallest_first_levels_build(self, kind, params):
        tail = circle.GapTail(kind, params)
        assert 0.0 < tail.gap_mass() < math.inf


class TestDyadicIndex:
    @given(st.integers(0, 2 ** 20 - 1), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_floor(self, num, depth):
        mu = atom_measure(Fraction(num, 2 ** 20))
        assert mu.realized().indices(depth).tolist() == [num >> (20 - depth)]

    def test_just_below_an_edge(self):
        # rounds to 0.5 in float, but lies in the left half
        mu = atom_measure(Fraction(1, 2) - Fraction(1, 2 ** 80))
        assert mu.positions_float().tolist() == [0.5]
        for depth in (1, 2, 40, 62, 63, 79, 80):
            assert mu.realized().indices(depth).tolist() == [
                2 ** (depth - 1) - 1]
        assert mu.realized().indices(81).tolist() == [2 ** 80 - 2]


# ---------------------------------------------------------------------------
# Reference realization: exact Fractions, one cell at a time
# ---------------------------------------------------------------------------

def frac_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def dyadic_index(pos: Fraction, depth: int) -> int:
    num, den = pos.numerator, pos.denominator
    return ((num << depth) // den) % (1 << depth)


def oracle_cells(part: CantorPart, upto: int) -> list:
    """(left endpoint, length) of the stage-``upto`` cells, in order."""
    cells = [(Fraction(0), Fraction(1))]
    for j in range(upto):
        g = part.generator.stage_gap(j) / (1 << j)  # per-cell gap
        out = []
        for pos, ln in cells:
            child = (ln - g) / 2
            out.append((pos, child))
            out.append((pos + child + g, child))
        cells = out
    return cells


def oracle_realize(mu: CircleMeasure):
    """(exact positions, masses): every layer applied to every atom."""
    pos = [frac_mod1(p) for p, _ in mu.atom_list]
    masses = [m for _, m in mu.atom_list]
    for part in mu.cantor_parts:
        cells = oracle_cells(part, part.stages)
        pos.extend(frac_mod1(c[0]) for c in cells)
        masses.extend(np.full(len(cells), part.mass / len(cells)))
    masses = np.array(masses, dtype=float)
    for layer in mu.multipliers:
        masses = masses * np.array(
            [layer.as_dict().get(dyadic_index(p, layer.depth), 1.0)
             for p in pos])
    keep = masses > 0
    return [p for p, k in zip(pos, keep) if k], masses[keep]


def oracle_arc_mass(pos, masses, start: float, length: float) -> float:
    total = 0.0
    for p, m in zip(pos, masses):
        if frac_mod1(p - Fraction(start)) < Fraction(length):
            total += m
    return total


# float positions (so exact as given): repeated, next to 0 and 1, and
# 0.1 with 2^-60, whose distance rounds to 0.1 in float
MODULUS_POSITIONS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0 ** -60, 2.0 ** -30, 0.1, 0.5,
                     1.0 - 2.0 ** -30, 1.0 - 2.0 ** -53]),
    st.floats(0.0, 1.0, exclude_max=True))

TRICKY_POSITIONS = [
    Fraction(1, 2) - Fraction(1, 2 ** 80), Fraction(1, 2), 0.5,
    Fraction(1, 3), Fraction(1) - Fraction(1, 2 ** 70), Fraction(-1, 4),
    Fraction(3, 2 ** 60), 0.0, 0.75, Fraction(5, 7) + Fraction(1, 2 ** 64),
]

atom_positions = st.one_of(
    st.sampled_from(TRICKY_POSITIONS),
    st.floats(-2.0, 2.0),
    st.fractions(-1, 2, max_denominator=10 ** 30))


@st.composite
def measures(draw):
    atoms = draw(st.lists(st.tuples(atom_positions, st.floats(0.01, 2.0)),
                          max_size=3))
    parts = [CantorPart(gen(), stages, mass)
             for gen, stages, mass in draw(st.lists(st.tuples(
                 st.sampled_from([circle.triadic_generator,
                                  circle.stagewise_log_generator]),
                 st.integers(1, 10), st.floats(0.01, 2.0)), max_size=2))]
    layers = []
    for depth in draw(st.lists(st.integers(0, 12), max_size=2)):
        keys = draw(st.lists(st.integers(0, 2 ** depth - 1), max_size=6))
        layers.append(MultiplierLayer.from_dict(depth, {
            k: draw(st.sampled_from([0.0, 0.5, 0.3, 1.0])) for k in keys}))
    return CircleMeasure(atoms=atoms, cantor_parts=parts, multipliers=layers)


class TestArrayCore:
    """The array realization against the exact reference, bit for bit."""

    @given(measures(), st.lists(st.integers(1, 70), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_positions_masses_indices(self, mu, depths):
        pos, masses = oracle_realize(mu)
        r = mu.realized()
        assert mu.positions_float().tolist() == [float(p) for p in pos]
        assert r.masses.tolist() == masses.tolist()
        for depth in depths + [53, 54]:
            assert r.indices(depth).tolist() == [dyadic_index(p, depth)
                                                 for p in pos]
            want: dict = {}
            for p, m in zip(pos, masses):
                i = dyadic_index(p, depth)
                want[i] = want.get(i, 0.0) + m
            keys, arc_masses = mu.arc_masses_at_depth(depth)
            assert keys.dtype == (np.int64 if depth <= 62 else object)
            assert arc_masses.dtype == float
            assert keys.tolist() == sorted(want)
            assert arc_masses.tolist() == [want[i] for i in sorted(want)]

    @given(measures(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mass_of_arc(self, mu, data):
        pos, masses = oracle_realize(mu)
        floats = [float(p) % 1.0 for p in pos] or [0.25]
        # arcs starting or ending on atoms (the float images of exact
        # positions), dyadic arcs, and arcs wrapping past 0
        start = data.draw(st.one_of(st.sampled_from(floats),
                                    st.floats(0.0, 0.999)))
        end = data.draw(st.one_of(st.sampled_from(floats),
                                  st.floats(0.0, 0.999)))
        arcs = [Arc(start, (end - start) % 1.0 or 1.0),
                Arc(start, 1.0 - start) if start > 0 else Arc(0.0, 1.0),
                Arc(data.draw(st.integers(0, 63)) * 2.0 ** -6, 2.0 ** -6),
                Arc(0.75, 0.5)]
        for arc in arcs:
            assert mu.mass_of_arc(arc).mass == oracle_arc_mass(
                pos, masses, arc.start, arc.length)

    @given(measures())
    @settings(max_examples=25, deadline=None)
    def test_restrict(self, mu):
        pos, masses = oracle_realize(mu)
        sets = [fixtures.triadic_cantor_set(6),
                point_set([float(p) for p in pos[:3]] or [0.0])]
        for E in sets:
            got = mu.restrict(E).atom_list
            assert got == [(p, m) for p, m in zip(pos, masses)
                           if E.contains_points([float(p)])[0]]

    def test_all_depths_on_mixed_measure(self):
        mu = CircleMeasure(
            atoms=[(p, 0.1) for p in TRICKY_POSITIONS],
            cantor_parts=[CantorPart(circle.triadic_generator(), 7, 1.0),
                          CantorPart(circle.stagewise_log_generator(), 8,
                                     0.5)],
            multipliers=[MultiplierLayer.from_dict(3, {1: 0.0, 4: 0.5}),
                         MultiplierLayer.from_dict(9, {300: 0.25})])
        pos, masses = oracle_realize(mu)
        r = mu.realized()
        assert r.masses.tolist() == masses.tolist()
        for depth in range(1, 71):
            assert r.indices(depth).tolist() == [dyadic_index(p, depth)
                                                 for p in pos]

    @pytest.mark.parametrize("stages", [1, 4, 10])
    def test_carrier_gaps_from_exact_cells(self, stages):
        for gen in (circle.triadic_generator(),
                    circle.stagewise_log_generator()):
            part = CantorPart(gen, stages, 1.0)
            cells = oracle_cells(part, stages)
            want = [(float(p + ln) % 1.0, float(q - p - ln))
                    for (p, ln), (q, _) in zip(cells, cells[1:])]
            carrier = part.carrier
            assert list(zip(carrier.starts.tolist(),
                            carrier.lengths.tolist())) == want

    def test_realized_arrays_are_read_only(self):
        r = fixtures.triadic_cantor_measure(6).realized()
        for a in (r.pos, r.masses, r.rows, r.keys):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_modulus_sorts_once(self, monkeypatch):
        mu = fixtures.triadic_cantor_measure(8)
        want = [modulus_of_continuity(mu, d)
                for d in (0.5, 0.01, 2.0 ** -12)]
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        again = fixtures.triadic_cantor_measure(8)
        got = [modulus_of_continuity(again, d)
               for d in (0.5, 0.01, 2.0 ** -12)]
        assert got == want
        assert len(calls) == 1


# -- exact depth-62 arc keys --------------------------------------------------

def cantor(generator, stages: int) -> CircleMeasure:
    return CircleMeasure(cantor_parts=[CantorPart(generator(), stages, 1.0)])


KEY_ATOMS = [Fraction(0), Fraction(1, 4), Fraction(3, 2 ** 60),
             1 - Fraction(1, 2 ** 62), Fraction(1, 3), Fraction(5, 7),
             Fraction(0.1)]


def oracle_unique_arc_masses(r, depth: int):
    """(keys, masses) by np.unique and bincount over the atoms' indices."""
    keys, where = np.unique(r.indices(depth), return_inverse=True)
    return keys, np.bincount(where, weights=r.masses).astype(float)


def oracle_factors(layer: MultiplierLayer, idx) -> np.ndarray:
    """One searchsorted lookup per atom."""
    at = np.minimum(np.searchsorted(layer.keys, idx), layer.keys.size - 1)
    return np.where(layer.keys[at] == idx, layer.factors[at], 1.0)


def oracle_carrier(part: CantorPart, depth: int):
    """(starts, lengths) of the carrier's gaps, each an object-array Python
    int quotient (correctly rounded) of the exact cell starts."""
    cells, den = part.exact(
        np.arange(1 << depth, dtype=np.int64) << (part.stages - depth))
    ln = part._lengths[depth - 1] if depth else den
    a, b = cells[:-1], cells[1:]
    return (((a + ln) / den % 1.0).astype(float),
            ((b - a - ln) / den).astype(float))


class TestArcKeys:
    """Every dyadic index to depth 62 is a shift of one exact key, and arc
    masses and factors by runs match the per-atom references bit for bit."""

    @pytest.mark.parametrize("mu, sample", [
        (cantor(circle.triadic_generator, 1), None),
        (cantor(circle.triadic_generator, 9), None),
        (cantor(circle.triadic_generator, 14), 2048),
        # denominators 2^73 and 2^78: keys are shifts of the numerators
        (cantor(circle.stagewise_log_generator, 14), 2048),
        (cantor(circle.stagewise_log_generator, 18), 2048),
        (CircleMeasure(atoms=[(p, 1.0) for p in KEY_ATOMS]), None),
        (CircleMeasure(
            atoms=[(p, 0.5) for p in KEY_ATOMS],
            cantor_parts=[CantorPart(circle.triadic_generator(), 6, 1.0),
                          CantorPart(circle.stagewise_log_generator(), 7,
                                     1.0)],
            multipliers=[MultiplierLayer.from_dict(2, {0: 0.0, 3: 0.5})]),
         None),
    ])
    def test_indices_match_the_exact_quotient(self, mu, sample):
        r = mu.realized()
        sel = np.arange(mu.positions_float().size)
        if sample is not None:
            sel = np.sort(np.random.default_rng(31).choice(
                sel, sample, replace=False))
        num, den = r.exact(sel)
        for depth in list(range(63)) + [63, 70]:
            got = r.indices(depth)
            assert got.dtype == (np.int64 if depth <= 62 else object)
            assert got[sel].tolist() == ((num << depth) // den).tolist()

    def test_layers_share_the_keys(self):
        mu = CircleMeasure(
            cantor_parts=[CantorPart(circle.triadic_generator(), 8, 1.0)],
            multipliers=[MultiplierLayer.from_dict(1, {0: 0.0}),
                         MultiplierLayer.from_dict(3, {5: 0.5})])
        base = CircleMeasure(cantor_parts=mu.cantor_parts).realized()
        r = mu.realized()
        assert r.rows.size == base.rows.size // 2
        assert np.array_equal(r.pos, base.pos)
        assert np.array_equal(r.keys, base.keys)
        assert np.array_equal(r.indices(62), base.keys[r.rows])
        assert np.array_equal(mu.positions_float(), base.pos[r.rows])

    def test_a_cut_shares_the_positions_and_keys(self):
        mu = fixtures.triadic_cantor_measure(8)
        base = mu.realized()
        keys, where = base.arcs(2)
        factors = np.array([0.0, 0.5, 1.0, 0.0])[keys]
        cut = mu.scaled_on_arcs(MultiplierLayer.from_dict(
            2, {0: 0.0, 1: 0.5, 3: 0.0}), factors, where).realized()
        masses = base.masses * factors[where]
        assert cut.rows.tolist() == np.flatnonzero(masses).tolist()
        assert cut.masses.tolist() == masses[cut.rows].tolist()
        assert cut.pos is base.pos and cut.keys is base.keys

    @pytest.mark.parametrize("sorted_keys, mu", [
        (True, cantor(circle.stagewise_log_generator, 12)),
        (True, CircleMeasure(
            cantor_parts=[CantorPart(circle.triadic_generator(), 10, 1.0)],
            multipliers=[MultiplierLayer.from_dict(2, {1: 0.0})])),
        # the atom at 0.9 comes before the triadic part's cells
        (False, CircleMeasure(
            atoms=[(0.9, 0.25), (0.5, 0.125)],
            cantor_parts=[CantorPart(circle.triadic_generator(), 10, 1.0)])),
    ])
    def test_runs_match_unique_and_searchsorted(self, sorted_keys, mu):
        r = mu.realized()
        rng = np.random.default_rng(5)
        for depth in (0, 1, 3, 7, 12, 20, 40, 62, 63, 70):
            idx = r.indices(depth)
            # at depth 0 every atom is in arc 0
            assert (circle._runs(idx) is not None) == (
                sorted_keys or depth == 0)
            keys, masses = mu.arc_masses_at_depth(depth)
            want_keys, want_masses = oracle_unique_arc_masses(r, depth)
            assert keys.dtype == want_keys.dtype
            assert keys.tolist() == want_keys.tolist()
            assert _same_bits(masses, want_masses)
            # a layer on some arcs holding atoms and some holding none
            listed = sorted(set(rng.choice(keys, min(keys.size, 9)).tolist())
                            | {(1 << depth) - 1})
            layer = MultiplierLayer.from_dict(depth, {
                i: float(f) for i, f in zip(listed, rng.random(len(listed)))})
            assert _same_bits(layer.factors_at(idx),
                              oracle_factors(layer, idx))

    @pytest.mark.parametrize("generator", [circle.triadic_generator,
                                           circle.stagewise_log_generator])
    def test_carrier_from_limbs(self, generator):
        for stages in range(1, 23):
            for depth in (0, 1, 5, 10):
                if depth > stages:
                    continue
                part = CantorPart(generator(), stages, 1.0,
                                  carrier_depth=depth)
                starts, lengths = oracle_carrier(part, depth)
                assert _same_bits(part.carrier.starts, starts)
                assert _same_bits(part.carrier.lengths, lengths)


# -- oracle: the retired tuple-of-Arc gap lookup ------------------------------

def oracle_gaps(E) -> tuple:
    return tuple(Arc(s, ln)
                 for s, ln in zip(E.starts.tolist(), E.lengths.tolist()))


def oracle_gap_at(gaps, x):
    """The gap starting at or before x, else the last gap (it may wrap
    past 1), if x lies in it: one Arc at a time."""
    if not gaps:
        return None
    i = bisect_right([g.start for g in gaps], x) - 1
    for j in (i, len(gaps) - 1):
        rel = (x - gaps[j].start) % 1
        if 0.0 < rel < gaps[j].length:
            return gaps[j]
    return None


def oracle_dist(gaps, x) -> float:
    g = oracle_gap_at(gaps, x % 1.0)
    if g is None:
        return 0.0
    rel = (x - g.start) % 1.0
    return min(rel, g.length - rel)


def oracle_profile(gaps, t) -> float:
    g = oracle_gap_at(gaps, t % 1.0)
    if g is None:
        return 0.0
    rel = (t - g.start) % 1.0
    q = rel * (g.length - rel) / g.length
    return 0.5 * q * q


def oracle_contains_points(gaps, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float) % 1.0
    if not gaps:
        return np.ones(xs.shape, dtype=bool)
    starts = np.array([g.start for g in gaps])
    lengths = np.array([g.length for g in gaps])

    def in_gap(j):
        rel = (xs - starts[j]) % 1.0
        return (CIRCLE_TOL < rel) & (rel < lengths[j] - CIRCLE_TOL)

    i = np.searchsorted(starts, xs, side="right") - 1
    return ~(in_gap(i) | in_gap(len(gaps) - 1))


def rotated(E, offset: float):
    """E turned by ``offset``, its gaps listed in a shuffled order; a gap
    that crosses angle 0 wraps past 1."""
    starts = (E.starts + offset) % 1.0
    order = np.random.default_rng(len(starts)).permutation(starts.size)
    return circle.ClosedCircleSet(starts[order], E.lengths[order],
                                  tail=E.tail)


@st.composite
def gap_sets(draw):
    kind = draw(st.sampled_from(["full", "point", "points", "triadic"]))
    if kind == "full":
        return circle.ClosedCircleSet([], [])
    unit = st.floats(0.0, 1.0, exclude_max=True)
    if kind == "point":
        return point_set([draw(unit)])
    if kind == "points":
        # the last gap wraps angle 0 unless 0 is a point
        return point_set(draw(st.lists(unit, min_size=2, max_size=8,
                                       unique=True)))
    return rotated(fixtures.triadic_cantor_set(draw(st.integers(1, 4))),
                   draw(unit))


def probe_points(E, data) -> np.ndarray:
    """Every gap end, CIRCLE_TOL and one ulp to either side of it, and a
    few points drawn in [-2, 2]."""
    ends = np.concatenate([E.starts, E.starts + E.lengths,
                           (E.starts + E.lengths) % 1.0, [0.0, 1.0]])
    xs = np.concatenate([ends, ends - CIRCLE_TOL, ends + CIRCLE_TOL,
                         np.nextafter(ends, -np.inf),
                         np.nextafter(ends, np.inf)])
    more = data.draw(st.lists(st.floats(-2.0, 2.0), max_size=16))
    return np.concatenate([xs, np.array(more, dtype=float)])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestGapArrays:
    """The one array gap lookup against the retired scalar one."""

    @given(gap_sets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lookups_match_the_arc_oracle(self, E, data):
        gaps = oracle_gaps(E)
        xs = probe_points(E, data)
        assert np.array_equal(E.contains_points(xs),
                              oracle_contains_points(gaps, xs))
        assert _same_bits(E.dist(xs), [oracle_dist(gaps, x)
                                       for x in xs.tolist()])
        assert _same_bits(PrivalovDomain(E).profile(xs),
                          [oracle_profile(gaps, x) for x in xs.tolist()])
        j = E.gap_index(xs)
        for x, k in zip(xs.tolist(), j.tolist()):
            g = oracle_gap_at(gaps, x % 1.0)
            assert (g is None) if k < 0 else (g == gaps[k])

    def test_gaps_kept_sorted_by_start(self):
        base = fixtures.triadic_cantor_set(3)
        E = rotated(base, 0.6)
        want = sorted(zip(((base.starts + 0.6) % 1.0).tolist(),
                          base.lengths.tolist()))
        assert list(zip(E.starts.tolist(), E.lengths.tolist())) == want
        assert np.any(E.starts + E.lengths > 1.0)
        for a in (E.starts, E.lengths):
            assert a.dtype == np.float64
            with pytest.raises(ValueError):
                a[0] = 0.5

    @pytest.mark.parametrize("starts, lengths, message", [
        ([1.0], [1.0], "starts must lie in"),
        ([-0.25], [1.0], "starts must lie in"),
        ([0.0], [0.0], "lengths must lie in"),
        ([0.0], [1.5], "lengths must lie in"),
        ([float("nan")], [1.0], "starts must lie in"),
        ([0.0], [float("nan")], "lengths must lie in"),
        ([0.0, 0.5], [1.0], "one gap length per start"),
        ([[0.0, 0.5]], [[0.5, 0.5]], "one gap length per start"),
        ([0.0, 0.4], [0.5, 0.5], "gaps overlap"),
        # the last gap wraps angle 0 into the first: (0.9, 1.4) and (0, 0.5)
        ([0.0, 0.9], [0.5, 0.5], "gaps overlap"),
        ([0.9, 0.0], [0.5, 0.5], "gaps overlap"),
        ([0.0, 0.5], [0.5, 0.6], "sum to"),
    ])
    def test_constructor_rejects(self, starts, lengths, message):
        with pytest.raises(ValueError, match=message):
            circle.ClosedCircleSet(starts, lengths)

    def test_wrap_touching_first_gap_is_accepted(self):
        # (0.6, 1.1) ends where (0.1, 0.6) starts, up to rounding
        E = circle.ClosedCircleSet([0.6, 0.1], [0.5, 0.5])
        assert E.starts.tolist() == [0.1, 0.6]
        assert E.contains_points([0.1, 0.6]).all()
