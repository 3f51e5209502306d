"""Entropy of closed sets in both forms, and measure classification."""

import math

import numpy as np
import pytest

from gst import entropy, fixtures, weights
from gst.circle import point_set, set_union
from gst.entropy import (DIVERGES, FINITE, classify_measure, entropy_integral,
                         entropy_sum)

W_T = weights.power(1.0)
W_SQRT = weights.power(0.5)


class TestEntropySum:
    def test_single_point_is_zero(self):
        res = entropy_sum(point_set([0.0]), W_T).result
        assert res.tag == FINITE
        assert res.value == pytest.approx(0.0, abs=1e-15)

    def test_triadic_closed_form(self):
        # sum over levels: 2^(n-1) gaps of length 3^-n, each contributing
        # 3^-n * (-n log 3); geometric series gives -3 log 3
        res = entropy_sum(fixtures.triadic_cantor_set(8), W_T).result
        assert res.tag == FINITE
        assert res.value == pytest.approx(-3.0 * math.log(3.0), abs=1e-10)

    def test_harmonic_log_diverges(self):
        res = entropy_sum(fixtures.harmonic_log_set(), W_T).result
        assert res.tag == DIVERGES

    def test_stagewise_diverges(self):
        res = entropy_sum(fixtures.stagewise_divergent_set(), W_T).result
        assert res.tag == DIVERGES

    def test_harmonic_log_finite_for_slow_weight(self):
        # against a double-log weight the same gap family converges:
        # l_k log w(l_k) ~ -loglog k / (k log^2 k)
        res = entropy_sum(fixtures.harmonic_log_set(),
                          weights.log_power(2.0)).result
        assert res.tag == FINITE
        assert math.isfinite(res.low) and res.high - res.low <= 1.0

    def test_undecided_without_certificate(self):
        # iterated-log weights on these families have no closed-form tail
        # certificate: tagged undecided in both forms, with no bounds
        w = weights.log_power(1.0, depth=2)
        for E in (fixtures.harmonic_log_set(),
                  fixtures.stagewise_divergent_set()):
            summed = entropy_sum(E, w)
            for res in (summed.result, entropy_integral(E, w),
                        entropy_integral(E, w, summed)):
                assert res.tag == "undecided" and res.value is None
                assert (res.low, res.high) == (-math.inf, math.inf)

    @pytest.mark.parametrize("beta", [0.5, 0.9, 1.0, 1.5])
    def test_harmonic_log_under_exp_log(self, beta):
        # log(1/w(l_k)) ~ log^beta k: the terms ~ 1/(k log^(2-beta) k) sum
        # to a finite value for beta < 1 and diverge for beta >= 1
        E, w = fixtures.harmonic_log_set(), weights.exp_log(1.0, beta)
        want = DIVERGES if beta >= 1 else FINITE
        res = entropy_sum(E, w).result
        assert res.tag == want
        assert entropy_integral(E, w).tag == want
        if want == FINITE:
            assert -math.inf < res.low <= res.value <= res.high < 0.0
            # the partial sum past the certified terms stays in the bracket
            counts, lens = E.tail.levels(
                0, 2 * entropy.GENERATOR_TERM_BUDGET)
            terms = counts * lens * np.asarray(w.log(lens))
            partial = res.high + math.fsum(
                terms[entropy.GENERATOR_TERM_BUDGET:])
            assert res.low <= partial <= res.high


class TestEntropyIntegral:
    def test_single_point_closed_form(self):
        res = entropy_integral(point_set([0.0]), W_T)
        assert res.tag == FINITE
        assert res.value == pytest.approx(-(1.0 + math.log(2.0)), abs=1e-9)

    def test_divergent_fixture(self):
        res = entropy_integral(fixtures.harmonic_log_set(), W_T)
        assert res.tag == DIVERGES


class TestEquivalence:
    """Sum and integral forms agree in tag; power weights attain the
    additive slack (1 + log 2)/lambda per unit gap mass exactly."""

    @pytest.mark.parametrize("w,lam", [(W_T, 1.0), (W_SQRT, 2.0)])
    def test_quantitative_bracket(self, w, lam):
        for name, (E, finite) in fixtures.entropy_set_fixtures().items():
            rs = entropy_sum(E, w).result
            ri = entropy_integral(E, w)
            assert (rs.tag == FINITE) == finite, name
            assert rs.tag == ri.tag, name
            if finite:
                slack = (1.0 + math.log(2.0)) / lam
                assert ri.value <= rs.value + 1e-9, name
                assert ri.value >= rs.value - slack - 1e-6, name

    def test_scale_stability(self):
        # finite w-entropy iff finite for w^lambda, lambda in {1/2, 2}
        for name, (E, finite) in fixtures.entropy_set_fixtures().items():
            for lam in (0.5, 2.0):
                res = entropy_sum(E, weights.power(lam)).result
                assert (res.tag == FINITE) == finite, (name, lam)

    def test_finite_union_stays_finite(self):
        E = set_union(fixtures.triadic_cantor_set(6), point_set([0.5]))
        res = entropy_sum(E, W_T).result
        assert res.tag == FINITE


class TestClassification:
    def test_atom_always_carried(self):
        cls = classify_measure(fixtures.atom_fixture(), W_T)
        assert cls.mu_P.total_mass() == 1.0
        assert cls.mu_C.total_mass() == 0.0

    def test_triadic_is_carried(self):
        cls = classify_measure(fixtures.triadic_cantor_measure(), W_T)
        assert cls.mu_P.total_mass() == pytest.approx(1.0)
        assert cls.mu_C.total_mass() == 0.0

    def test_divergent_is_free(self):
        cls = classify_measure(fixtures.divergent_cantor_measure(), W_T)
        assert cls.mu_P.total_mass() == 0.0
        assert cls.mu_C.total_mass() == pytest.approx(1.0)

    def test_mass_partition(self):
        for name, mu in fixtures.measure_fixtures().items():
            cls = classify_measure(mu, W_T)
            both = cls.mu_P.total_mass() + cls.mu_C.total_mass()
            assert both == pytest.approx(mu.total_mass(), abs=1e-9), name

    def test_idempotent(self):
        mu = fixtures.divergent_cantor_measure()
        cls = classify_measure(mu, W_T)
        again = classify_measure(cls.mu_C, W_T)
        assert again.mu_C.total_mass() == pytest.approx(
            cls.mu_C.total_mass())
        assert again.mu_P.total_mass() == 0.0

    def test_certificates_recorded(self):
        cls = classify_measure(fixtures.triadic_cantor_measure(), W_T)
        assert any(c["tag"] == FINITE for c in cls.certificates)
