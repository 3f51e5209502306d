"""Star-domain geometry and the inner-boundary growth estimate."""

import math

import numpy as np
import pytest

from gst import circle, fixtures, weights
from gst.circle import point_set, set_union
from gst.inner_outer import (NoAdmissibleN, auto_carleson_N, carleson_outer,
                             psi_sum_many, unit_point)
from gst.privalov import (H_MAX, MAX_SAMPLES, PrivalovDomain,
                          boundary_samples_with_profile,
                          privalov_boundary_estimate)

W_T = weights.power(1.0)


def oracle_auto_N(E, w, passes, n_max=2.0 ** 20):
    """The search as a doubling loop that builds and tests G at every N."""
    N = 1.0
    while N <= n_max:
        G = carleson_outer(E, w, N)
        if passes(G):
            return G
        N *= 2.0
    raise NoAdmissibleN("no admissible N below the cap")


def auto_N(E, w, count):
    zs, hs = boundary_samples_with_profile(PrivalovDomain(E), count)
    G = carleson_outer(E, w, 1.0)
    return auto_carleson_N(G, *psi_sum_many(G, zs), hs)


def estimate(D, G, count):
    zs, hs = boundary_samples_with_profile(D, count)
    return privalov_boundary_estimate(G, *psi_sum_many(G, zs), hs)


class TestGeometry:
    def test_contains_origin(self):
        D = PrivalovDomain(point_set([0.0]))
        assert D.contains(0.0)

    def test_antipodal_profile(self):
        D = PrivalovDomain(point_set([0.0]))
        assert D.profile(0.5) == pytest.approx(1.0 / 32.0)
        z = 0.96875 * np.exp(1j * math.pi)
        assert not D.contains(complex(z))  # boundary excluded

    def test_rays_through_set_points(self):
        D = PrivalovDomain(point_set([0.0]))
        for r in (0.1, 0.9, 0.999999):
            assert D.contains(r + 0.0j)

    def test_profile_range(self):
        D = PrivalovDomain(fixtures.triadic_cantor_set(5))
        ts = np.linspace(0, 1, 20001)
        hs = np.array([D.profile(t) for t in ts])
        assert np.all(hs >= 0.0)
        assert np.all(hs <= H_MAX + 1e-15)

    def test_profile_comparable_to_distance_squared(self):
        E = fixtures.triadic_cantor_set(5)
        D = PrivalovDomain(E)
        rng = np.random.default_rng(21)
        ts = rng.uniform(0, 1, 10000)
        for t in ts:
            d = E.dist(t)
            if d == 0.0:
                continue
            ratio = D.profile(t) / d ** 2
            assert 1.0 / 8.0 - 1e-9 <= ratio <= 0.5 + 1e-9

    def test_boundary_approached_from_inside(self):
        D = PrivalovDomain(point_set([0.0]))
        z = D.boundary_point(0.37)
        assert not D.contains(z)
        assert D.contains(z * (1.0 - 1e-9))


class TestBoundarySamples:
    def test_outside_domain_inside_disc(self):
        D = PrivalovDomain(point_set([0.0]))
        zs, hs = boundary_samples_with_profile(D, 64)
        assert np.all(hs > 0.0)
        for z in zs:
            assert abs(z) < 1.0 + 1e-15
            assert not D.contains(complex(z))

    def test_profile_identity(self):
        D = PrivalovDomain(point_set([0.0]))
        zs, hs = boundary_samples_with_profile(D, 64)
        # 1 - |z| = h exactly, up to float representation of 1 - h
        assert np.max(np.abs((1.0 - np.abs(zs)) - hs)) <= 1e-15

    def test_antipodal_included(self):
        D = PrivalovDomain(point_set([0.0]))
        zs, _ = boundary_samples_with_profile(D, 4)
        assert np.min(np.abs(zs)) == pytest.approx(1.0 - 1.0 / 32.0)

    def test_the_cap_counts_the_samples_made(self):
        # 2^15 - 1 gaps of about 34 samples each, whatever the count asks
        D = PrivalovDomain(fixtures.triadic_cantor_set(15))
        with pytest.raises(ValueError, match="makes 1114078 samples"):
            boundary_samples_with_profile(D, 1)
        zs, _ = boundary_samples_with_profile(
            PrivalovDomain(fixtures.triadic_cantor_set(14)), 1)
        assert zs.size == 557022 <= MAX_SAMPLES


def oracle_samples(D, count):
    """boundary_samples_with_profile one gap at a time."""
    gaps = list(zip(D.E.starts.tolist(), D.E.lengths.tolist()))
    total = sum(length for _, length in gaps)
    zs, hs = [], []
    for start, length in gaps:
        n_uni = max(3, int(round(count * length / total)))
        s = np.unique(np.concatenate([
            np.arange(1, n_uni) / n_uni,
            2.0 ** -np.arange(2, 18),
            1.0 - 2.0 ** -np.arange(2, 18),
        ]))
        q = length * s * (1.0 - s)
        h = 0.5 * q * q
        t = (start + length * s) % 1.0
        zs.extend(unit_point(t) * (1.0 - h))
        hs.extend(h)
    return np.asarray(zs, dtype=complex), np.asarray(hs, dtype=float)


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
    "rotated_triadic5": lambda: rotated_set(fixtures.triadic_cantor_set(5),
                                            0.6),
}


class TestSamplesOracle:
    @pytest.mark.parametrize("count", [1, 300, 2048])
    @pytest.mark.parametrize("name", sorted(ORACLE_SETS))
    def test_points_and_heights_bitwise(self, name, count):
        D = PrivalovDomain(ORACLE_SETS[name]())
        zs, hs = boundary_samples_with_profile(D, count)
        want_zs, want_hs = oracle_samples(D, count)
        assert zs.dtype == want_zs.dtype and hs.dtype == want_hs.dtype
        assert np.array_equal(zs.view(np.int64), want_zs.view(np.int64))
        assert np.array_equal(hs.view(np.int64), want_hs.view(np.int64))

    def test_no_gaps_no_samples(self):
        zs, hs = boundary_samples_with_profile(
            PrivalovDomain(circle.ClosedCircleSet([], [])), 64)
        assert zs.shape == hs.shape == (0,)


class TestBoundaryEstimate:
    def test_auto_N_point_set(self):
        E = point_set([0.0])
        D = PrivalovDomain(E)
        G = auto_N(E, W_T, 256)
        res = estimate(D, G, 2048)
        assert res.ok and res.max_ratio <= 1.0 + 1e-9

    def test_tiny_N_fails(self):
        E = point_set([0.0])
        D = PrivalovDomain(E)
        G = carleson_outer(E, W_T, 1e-12)  # essentially G = 1
        res = estimate(D, G, 256)
        assert not res.ok

    def test_triadic_auto_N(self):
        E = fixtures.triadic_cantor_set(5)
        D = PrivalovDomain(E)
        G = auto_N(E, W_T, 256)
        res = estimate(D, G, 2048)
        assert res.ok


class TestNSearchOracle:
    @pytest.mark.parametrize("E", [point_set([0.0]),
                                   fixtures.triadic_cantor_set(5),
                                   fixtures.triadic_cantor_set(7)],
                             ids=["point", "triadic5", "triadic7"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_same_N_and_estimate_as_the_doubling_loop(self, E, alpha):
        w = weights.power(alpha)
        D = PrivalovDomain(E)
        seen = []

        def passes(G):
            seen.append(estimate(D, G, 256))
            return seen[-1].ok

        want = oracle_auto_N(E, w, passes)
        got = auto_N(E, w, 256)
        assert got.N == want.N
        assert estimate(D, got, 256) == seen[-1]

    def test_cap_below_the_admissible_N(self):
        E = point_set([0.0])
        D = PrivalovDomain(E)
        zs, hs = boundary_samples_with_profile(D, 256)
        G = carleson_outer(E, W_T, 1.0)
        psi, tail = psi_sum_many(G, zs)
        N = auto_carleson_N(G, psi, tail, hs).N
        assert N >= 2.0
        assert auto_carleson_N(G, psi, tail, hs, n_max=N).N == N
        with pytest.raises(NoAdmissibleN):
            auto_carleson_N(G, psi, tail, hs, n_max=N / 2.0)

