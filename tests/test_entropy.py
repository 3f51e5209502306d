"""Entropy of closed sets in both forms, and measure classification."""

import functools
import math

import pytest

import oracles
from gst import circle, entropy, fixtures, weights
from gst.circle import GapTail, point_set, set_union
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
        # a table weight has no closed-form tail certificate on these
        # families: tagged undecided in both forms, with no bounds
        w = weights.table_weight([(0.0, 0.0), (0.5, 0.75), (1.0, 1.0)])
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
            low, high = tail_oracle("harmonic_log", f"exp_log:1,{beta}")
            got = entropy._tail_sum_bounds(E.tail, w)
            assert got.low <= low and high <= got.high


@functools.lru_cache(maxsize=None)
def tail_oracle(name, spec):
    E = fixtures.named_fixture(name)
    return oracles.log_tail(E.tail, weights.from_spec(spec),
                            2000 if name == "harmonic_log" else 200)


class TestLogTails:
    """The log families' tails by integral comparison, against the mpmath
    oracle: explicit terms, then quadrature of the comparison integrals."""

    @pytest.mark.parametrize("name,spec,width", [
        ("harmonic_log", "log:1", 1e-3), ("harmonic_log", "log:2", 1e-3),
        ("harmonic_log", "log:1,2", 1e-3),
        ("harmonic_log", "exp_log:1,0.5", 1e-3),
        ("harmonic_log", "exp_log:1,0.9", 0.05),
        ("stagewise_divergent", "log:1,2", 0.05)])
    def test_sum_bracket_holds_the_oracle(self, name, spec, width):
        E, w = fixtures.named_fixture(name), weights.from_spec(spec)
        low, high = tail_oracle(name, spec)
        got = entropy._tail_sum_bounds(E.tail, w)
        assert got.low <= low and high <= got.high, (float(low), got)
        assert got.high - got.low <= width
        res = entropy_sum(E, w).result
        explicit = oracles.gap_sum(E.lengths, w)
        assert res.tag == entropy_integral(E, w).tag == FINITE
        assert res.low <= explicit + low and explicit + high <= res.high

    def test_stage_zero_tail_is_undecided(self):
        # stage 0 sits where the integral of the gap mass from x = 1
        # diverges, so its tail has no comparison bracket
        tail = GapTail("stagewise_log", (0.4, 0))
        w = weights.log_power(1.0, depth=2)
        assert entropy._tail_sum_bounds(tail, w) == entropy.UNCERTIFIED_TAIL


@pytest.mark.parametrize("spec", ["power:1", "power:0.5", "log:1",
                                  "exp_log:1,0.5"])
def test_triadic_sum_bracket_holds_the_oracle(spec):
    # the explicit gaps and levels carry their float rounding: at power:1
    # the exact value is -3 log 3, which a zero-width bracket misses
    E, w = fixtures.triadic_cantor_set(8), weights.from_spec(spec)
    low, high = oracles.entropy_sum(E, w)
    res = entropy_sum(E, w).result
    assert res.low <= low and high <= res.high, (float(low), res)
    assert res.high - res.low <= 1e-11 * abs(res.value)


# (0, 1e-310) and (1e-310, 1): 1/t overflows at the first gap's length,
# and the finest Riemann nodes of its integral underflow to 0
SUBNORMAL_GAP = circle.set_from_json({"gaps": [[0.0, 1e-310],
                                               [1e-310, 1.0]]})
CONCAVE_TABLE = {"kind": "table", "points": [[0, 0], [0.25, 0.5],
                                             [0.5, 0.75], [1, 1]]}


class TestSubnormalGaps:
    """Two gaps have finite entropy under every weight with w > 0."""

    @pytest.mark.parametrize("spec", ["log:1", "exp_log:1,0.5", "log:1,2",
                                      CONCAVE_TABLE])
    def test_both_forms_are_finite(self, spec):
        w = weights.from_spec(spec)
        res = entropy_sum(SUBNORMAL_GAP, w).result
        both = (res, entropy_integral(SUBNORMAL_GAP, w))
        assert [r.tag for r in both] == [FINITE, FINITE]
        if isinstance(spec, str):  # the oracle reads no table
            oracle = (oracles.gap_sum(SUBNORMAL_GAP.lengths, w),
                      oracles.gap_integral(SUBNORMAL_GAP.lengths, w))
            for r, want in zip(both, oracle):
                assert r.low <= want <= r.high, (spec, r, float(want))

    @pytest.mark.parametrize("spec", ["log:1", "exp_log:1,0.5", "log:1,2"])
    def test_log_w_of_a_subnormal_length(self, spec):
        w, t = weights.from_spec(spec), 1e-310
        want = oracles.mp_log_w(w, 1 - oracles.mpmath.log(t))
        assert float(w.log(t)) == pytest.approx(float(want), rel=1e-15)


def _with_tail(params):
    return circle.ClosedCircleSet([0.0, 0.5], [0.5, 0.5], tail=GapTail(
        "geometric_levels", tuple(params)))


class TestGeometricTailsPastTheFloatRange:
    """Levels whose count overflows, or whose length or mass leaves the
    normal range, go to the remainder bound."""

    @pytest.mark.parametrize("params", [
        (1.0, 1.9, 1.0, 0.5, 1060.0),  # the count is inf from level 1061
        (1.0, 2.0, 1.0, 1.0 / 3.0, 700.0),  # lengths underflow to 0
        (1.0, 2.0, 1e-300, 0.3, 0.0),  # subnormal lengths from level 15
        # level 7 has length about 3e-324, which rounds to 5e-324: summed
        # explicitly, the bracket misses the oracle
        (1.0, 100.0, 3e-303, 1e-3, 0.0),
    ])
    @pytest.mark.parametrize("spec", ["power:1", "log:1", "exp_log:1,0.5"])
    def test_brackets_hold_the_oracle(self, params, spec):
        E, w = _with_tail(params), weights.from_spec(spec)
        summed = entropy_sum(E, w)
        assert summed.result.tag == FINITE
        assert entropy_integral(E, w, summed).tag == FINITE
        tail = summed.tail_bounds
        want = oracles.geometric_tail(E.tail, w)
        assert tail.low <= want <= tail.high, (float(want), tail)


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
