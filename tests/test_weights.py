"""Weight regularity checks against closed-form and grid-sweep oracles."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gst import fixtures, weights
from gst.weights import (DEFAULT_LAMBDAS, ORDER_TOL, SWEEP_BLOCK,
                         MajorantCheck, ModulusCheck, check_A1, check_A2,
                         check_condition_a, check_condition_b, check_majorant,
                         check_modulus_of_continuity, effective_lambda)

# the oracle's own continuity check: steps on the 2^20 grid, a jump past
# JUMP_TOL that a step 2^JUMP_REFINE times finer still shows
FINE_GRID = np.linspace(0.0, 1.0, 2 ** 20 + 1)
JUMP_TOL = 1e-2
JUMP_REFINE = 10


def oracle_jump(w, fine, jumps):
    """The first i >= 1 whose step fine[i] -> fine[i + 1] passes JUMP_TOL
    and, cut into 2^JUMP_REFINE parts, still has a part past JUMP_TOL, or
    None.  A jump stays whole in one part; a steep continuous rise, such
    as sqrt(1000 t) near t = 2^-20, shrinks with the parts."""
    for i in 1 + np.flatnonzero(jumps[1:] > JUMP_TOL):
        sub = np.asarray(w(np.linspace(fine[i], fine[i + 1],
                                       2 ** JUMP_REFINE + 1)))
        if np.diff(sub).max() > JUMP_TOL:
            return int(i)
    return None


def oracle_modulus_check(w, depth=weights.MAJORANT_GRID_DEPTH):
    """Continuity on FINE_GRID, then the n x n subadditivity sweep to
    ``depth``, every pair of one grid at once, with the relative tolerance
    ORDER_TOL.  ``w`` is any vectorized callable."""
    fine = FINE_GRID
    fvals = np.asarray(w(fine))
    if not (np.isfinite(fvals).all() and fvals.min() >= 0):
        raise weights.InvalidWeightError("negative or non-finite value")
    if abs(fvals[0]) > ORDER_TOL:
        return ModulusCheck(False, (0.0, 0.0), "w(0) != 0")
    jumps = np.diff(fvals)
    if np.any(jumps < -ORDER_TOL):
        i = int(np.argmax(jumps < -ORDER_TOL))
        return ModulusCheck(False, (fine[i], fine[i + 1]), "not nondecreasing")
    i = oracle_jump(w, fine, jumps)
    if i is not None:
        return ModulusCheck(False, (fine[i], fine[i + 1]), "jump discontinuity")
    for d in range(2, depth + 1):
        n = 2 ** d
        grid = np.arange(n + 1) / n
        vals = np.asarray(w(grid))
        i_idx = np.arange(1, n)
        sums = vals[i_idx][:, None] + vals[i_idx][None, :]
        tot = i_idx[:, None] + i_idx[None, :]
        valid = (tot <= n) & (i_idx[:, None] <= i_idx[None, :])
        viol = valid & (sums < vals[np.minimum(tot, n)] * (1 - ORDER_TOL))
        if np.any(viol):
            ii, jj = np.argwhere(viol)[0]
            return ModulusCheck(False, (grid[ii + 1], grid[jj + 1]),
                                "not subadditive")
    return ModulusCheck(True)


def oracle_majorant(w, lambdas, depth=weights.MAJORANT_GRID_DEPTH):
    """The search that checks every candidate in full, continuity first, on
    w's own values raised to lambda."""
    for lam in lambdas:
        if oracle_modulus_check(lambda t, lam=lam: np.power(w(t), lam),
                                depth).ok:
            return True, lam
    return False, None


def row_sweep_reference(vals):
    """The first violating (i, j) of one grid's values, one row at a time."""
    n = vals.size - 1
    for i in range(1, n // 2 + 1):
        viol = vals[i] + vals[i:n - i + 1] < vals[2 * i:] * (1 - ORDER_TOL)
        if viol.any():
            return i, i + int(np.argmax(viol))
    return None


def assert_matches_oracle(w):
    got = check_modulus_of_continuity(w)
    want = oracle_modulus_check(w)
    assert (got.ok, got.witness, got.reason) == \
        (want.ok, want.witness, want.reason), w.label()


@st.composite
def planted_tables(draw):
    """A table weight near t^a with w(2s) = 2 w(s) + delta at a dyadic s.

    Half the deltas are at most 3e-12, so for s near 1/2 the sweep's
    relative tolerance, ORDER_TOL times w(2s), decides.  s may lie on a
    grid finer than MAJORANT_GRID_DEPTH, where no sweep sees the
    violation itself.
    """
    a = draw(st.floats(0.2, 1.0))
    m = draw(st.integers(2, 12))
    s = draw(st.integers(1, 2 ** (m - 1))) / 2 ** m
    delta = draw(st.one_of(st.floats(1e-9, 0.5), st.floats(0.0, 3e-12)))
    top = 2 * s ** a + delta
    knots = draw(st.lists(st.floats(1e-4, 1.0 - 1e-4), max_size=6))
    points = {0.0: 0.0, s: s ** a, 2 * s: top, 1.0: max(1.0, top)}
    for t in knots:
        if t < s:
            points.setdefault(t, t ** a)
        elif t > 2 * s:
            points.setdefault(t, max(t ** a, top))
    return weights.table_weight(points.items())


class TestModulusOfContinuity:
    def test_concave_power_passes(self):
        assert check_modulus_of_continuity(weights.power(0.5)).ok

    def test_linear_passes(self):
        assert check_modulus_of_continuity(weights.power(1.0)).ok

    def test_square_fails_with_coarse_witness(self):
        res = check_modulus_of_continuity(weights.power(2.0))
        assert not res.ok
        s, t = res.witness
        assert (s, t) == (0.25, 0.25)
        # the witness really violates subadditivity
        w = weights.power(2.0)
        assert w(s + t) > w(s) + w(t)

    def test_log_weight_passes(self):
        assert check_modulus_of_continuity(weights.log_power(1.0)).ok

    def test_negative_weight_rejected(self):
        # the sweeps validate every value they read
        w = weights.power(1.0)
        weights._validate_values(w, np.array([0.0, 0.5, 1.0]))
        for bad in (-1e-300, np.nan, np.inf):
            with pytest.raises(weights.InvalidWeightError, match="t\\^1"):
                weights._validate_values(w, np.array([0.0, bad, 1.0]))

    def test_closed_forms_vanish_at_zero(self):
        # each closed-form value formula gives w(0) = +0.0 by itself
        params = np.logspace(-300.0, 300.0, 25)
        ws = [weights.power(a) for a in params]
        ws += [weights.log_power(c, d) for c in params
               for d in range(1, weights.MAX_LOG_DEPTH + 1)]
        ws += [weights.exp_log(a, b) for a in params for b in params]
        for w in ws:
            for v in (w(0.0), w(np.zeros(3))[0]):
                assert v == 0.0 and not np.signbit(v), w.label()


class TestRowSweepOracle:
    @pytest.mark.parametrize("name", sorted(fixtures.builtin_majorants()))
    def test_builtin_majorants(self, name):
        assert_matches_oracle(fixtures.builtin_majorants()[name])

    @pytest.mark.parametrize("make", [fixtures.non_majorant_weight,
                                      fixtures.fast_decay_weight])
    def test_failing_fixtures(self, make):
        # the record disproves, with no witness, what the oracle fails
        w = make()
        assert check_modulus_of_continuity(w) == ModulusCheck(
            False, None, "w(t)/t -> 0 as t -> 0: not subadditive")
        assert not oracle_modulus_check(w).ok

    @given(planted_tables())
    @settings(max_examples=20, deadline=None)
    def test_planted_violation_tables(self, w):
        assert_matches_oracle(w)

    def test_scratch_memory_is_linear(self):
        # no record settles alpha beta > 1: every grid is swept
        w = weights.exp_log(1.094, 0.9305)
        tracemalloc.start()
        try:
            check_modulus_of_continuity(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestBlockSweep:
    """The block sweep against the row-at-a-time sweep at the finest sweep
    grid, depth 10, and on the larger grids of depths 13 and 14, where a
    block holds 64, 8 and 4 rows."""

    @staticmethod
    def planted(depth, i, j, delta=1e-9):
        """Values k/n (every pair ties) whose first violation is (i, j).

        Rows before i gain 3 delta, so every pair in them keeps a gap of at
        least 2 delta; the targets i + j and, where it fits, i + j + 2 gain
        delta, so row i first fails at j.
        """
        n = 2 ** depth
        vals = np.arange(n + 1) / n
        vals[1:i] += 3 * delta
        vals[i + j] += delta
        if i + j + 2 <= n:
            vals[i + j + 2] += delta
        return vals

    @pytest.mark.parametrize("depth", [weights.MAJORANT_GRID_DEPTH, 13, 14])
    @pytest.mark.parametrize("where", ["block first row", "block last row",
                                       "row n/2"])
    def test_planted_witness(self, depth, where):
        n = 2 ** depth
        rows = SWEEP_BLOCK // n
        # the third block's first and last rows
        i = {"block first row": 1 + 2 * rows,
             "block last row": 3 * rows,
             "row n/2": n // 2}[where]
        j = max(i, n - i - 5)
        vals = self.planted(depth, i, j)
        work = Counter()
        assert weights._first_violation(vals, work) == (i, j) \
            == row_sweep_reference(vals)
        # the sweep stops at the end of the witness's block
        assert work["sweep_rows"] == min(n // 2, (i - 1) // rows * rows + rows)

    @pytest.mark.parametrize("depth", [weights.MAJORANT_GRID_DEPTH, 13, 14])
    def test_no_violation_sweeps_every_row(self, depth):
        n = 2 ** depth
        vals = np.sqrt(np.arange(n + 1) / n)
        work = Counter()
        assert weights._first_violation(vals, work) is None
        assert row_sweep_reference(vals) is None
        assert work["sweep_rows"] == n // 2

    @given(st.sampled_from([weights.MAJORANT_GRID_DEPTH, 13, 14]),
           st.lists(st.integers(1, 2 ** 14), min_size=1, max_size=4),
           st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_perturbed_values(self, depth, spots, lower):
        # k/n with a few values moved by 1e-9: raised targets or lowered
        # sources make the violations
        n = 2 ** depth
        vals = np.arange(n + 1) / n
        for k in spots:
            vals[min(k, n)] += -1e-9 if lower else 1e-9
        assert weights._first_violation(vals) == row_sweep_reference(vals)


class TestMajorantSearchOracle:
    """check_majorant's (ok, lam) against the search that runs the n x n
    oracle on every candidate, its continuity check first."""

    # the oracle sweeps to MAJORANT_GRID_DEPTH and, for the fixtures, to
    # depth 8 too: no fixture's verdict rests on the two finest grids
    @pytest.mark.parametrize("depth", [8, weights.MAJORANT_GRID_DEPTH])
    @pytest.mark.parametrize("name", sorted(fixtures.builtin_majorants()) + [
        "non_majorant", "fast_decay"])
    def test_fixtures(self, name, depth):
        w = {**fixtures.builtin_majorants(),
             "non_majorant": fixtures.non_majorant_weight(),
             "fast_decay": fixtures.fast_decay_weight()}[name]
        res = check_majorant(w, DEFAULT_LAMBDAS)
        assert (res.ok, res.lam) == oracle_majorant(w, DEFAULT_LAMBDAS, depth)

    @given(planted_tables())
    # 1000 t below the first knot: w^0.5 = sqrt(1000 t) there rises 0.0128
    # over the second step of the 2^20 grid, yet is continuous
    @example(weights.table_weight(zip(
        (0.0, 1e-4, 0.25, 0.5, 1.0),
        (0.0, 0.1, 0.25 ** 0.25, 2 * 0.25 ** 0.25 + 0.5,
         2 * 0.25 ** 0.25 + 0.5))))
    @settings(max_examples=10, deadline=None)
    def test_planted_violation_tables(self, w):
        res = check_majorant(w, DEFAULT_LAMBDAS)
        assert (res.ok, res.lam) == oracle_majorant(w, DEFAULT_LAMBDAS)

    @given(planted_tables(), st.sampled_from([1.0, 1e-6]))
    @settings(max_examples=20, deadline=None)
    def test_modulus_is_the_walk_at_lambda_one(self, w, scale):
        # the passing lambdas form a down-set, so the modulus check agrees
        # with the majorant walk at every scale of the values
        ts, vs = w.params
        w = weights.table_weight(zip(ts, [v * scale for v in vs]))
        maj = check_majorant(w, weights.lambda_candidates(w))
        assert check_modulus_of_continuity(w).ok == \
            (maj.ok and maj.lam >= 1.0)

    def test_oracle_keeps_a_jump_past_a_steep_rise(self):
        # a steep continuous rise is no jump; a step of JUMP_TOL or more,
        # at a grid point or between two, is one, however fine the grid
        rise = lambda t: np.sqrt(1000 * np.minimum(t, 1e-4))
        assert oracle_modulus_check(rise).reason != "jump discontinuity"
        for at in (0.5, 0.3 + 2 ** -22):
            step = lambda t, at=at: np.minimum(t, 0.1) + 0.2 * (t >= at)
            res = oracle_modulus_check(step)
            assert res.reason == "jump discontinuity"
            assert res.witness[0] < at <= res.witness[1]


class TestMajorant:
    def test_square_needs_square_root(self):
        res = check_majorant(weights.power(2.0), (1.0, 0.5))
        assert res.ok and res.lam == 0.5

    def test_identity(self):
        res = check_majorant(weights.power(1.0), (1.0,))
        assert res.ok and res.lam == 1.0

    def test_fast_exponential_is_not_majorant(self):
        res = check_majorant(fixtures.non_majorant_weight(),
                             (1.0, 0.5, 0.25))
        assert not res.ok

    def test_majorant_power_stability(self):
        # majorant => every positive power is again a majorant
        for name, w in fixtures.builtin_majorants().items():
            lam0 = effective_lambda(w)
            for lam in (0.25, 0.5, 2.0, 4.0):
                scaled = tuple(lam0 * c for c in (1.0, 0.5, 0.25, 0.125))
                assert check_majorant(w, tuple(lam * c for c in scaled)).ok, \
                    (name, lam)


def strata_corners() -> dict:
    """The corners of the benchmark's weight strata: power exponents in
    [0.2, 0.45], [0.55, 0.9] and [1.1, 2.0], exp_log alpha in [0.5, 1.5]
    and beta in [0.6, 1]."""
    ws = {f"t^{a:g}": weights.power(a)
          for a in (0.2, 0.45, 0.55, 0.9, 1.1, 2.0)}
    ws.update({f"exp_log({a:g},{b:g})": weights.exp_log(a, b)
               for a in (0.5, 1.5) for b in (0.6, 1.0)})
    return ws


def soundness_weights() -> dict:
    """The builtin majorants, the A1 family and the strata corners, one
    entry per distinct weight."""
    ws = {**fixtures.builtin_majorants(), **fixtures.a1_family(),
          **strata_corners()}
    return {(w.kind, w.params): w for w in ws.values()}


SOUNDNESS_WEIGHTS = soundness_weights()


def oracle_sweep_violation(w, depth: int, block: int = 128):
    """The first failure on the grid k/2^depth, or None: w(0) != 0, a step
    down, or a pair with w(s) + w(t) below w(s + t).

    Every pair s = i/n <= 1/2, t = k/n, s + t <= 1 is compared, ``block``
    rows at a time (pairs with t < s repeat others).  Targets past t = 1 are
    -inf.  A step down or a shortfall counts past ROUND_REL of the larger
    value, a relative slack, so values far below ORDER_TOL are held to it
    too.
    """
    n = 2 ** depth
    grid = np.arange(n + 1) / n
    vals = np.asarray(w(grid))
    if vals[0] != 0.0:
        return "w(0) != 0"
    down = vals[:-1] > vals[1:] * (1.0 + weights.ROUND_REL)
    if down.any():
        return "step down", grid[int(np.argmax(down))]
    target = sliding_window_view(np.concatenate(
        [vals * (1.0 - weights.ROUND_REL), np.full(n, -np.inf)]), n + 1)
    for i0 in range(1, n // 2 + 1, block):
        i = np.arange(i0, min(i0 + block, n // 2 + 1))
        viol = vals[i, None] + vals < target[i]
        if viol.any():
            r, c = np.argwhere(viol)[0]
            return "not subadditive", grid[i0 + r], grid[c]
    return None


POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def builtin_weights(draw):
    """A weight of any kind anywhere in its parameter range; a table is
    any point list from (0, 0) that ``table_weight`` accepts, its steps
    down within ORDER_TOL and its repeated t values included."""
    kind = draw(st.sampled_from(sorted(weights.KINDS)))
    if kind == "power":
        return weights.power(draw(POSITIVE))
    if kind == "log_power":
        return weights.log_power(draw(POSITIVE), draw(
            st.integers(1, weights.MAX_LOG_DEPTH)))
    if kind == "exp_log":
        return weights.exp_log(draw(POSITIVE), draw(POSITIVE))
    if kind == "exp_recip":
        return weights.exp_recip(draw(POSITIVE), draw(st.integers(1, 2)))
    ts = sorted(draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                        st.floats(0.0, 1.0)), max_size=8)))
    steps = st.one_of(st.floats(-ORDER_TOL, 0.0), st.floats(0.0, 4.0))
    v = 0.0
    points = [(0.0, v)]
    for t in ts + [1.0]:
        v += draw(steps)
        points.append((t, v))
    try:
        return weights.table_weight(points)
    except weights.InvalidWeightError:
        assume(False)


class TestBuiltinValues:
    """The facts that let every weight skip a continuity check: finite,
    nonnegative, w(0) = 0 and nondecreasing, here on FINE_GRID."""

    @given(builtin_weights())
    @settings(max_examples=40, deadline=None)
    def test_values_on_the_continuity_grid(self, w):
        vals = w(FINE_GRID)
        assert np.isfinite(vals).all() and vals.min() >= 0.0
        assert vals[0] == 0.0
        if w.kind != "table":
            assert vals.max() <= 1.0
        assert np.diff(vals).min() >= -ORDER_TOL


class TestRecordSoundness:
    """Every lambda a kind's record proves passes the n x n sweep."""

    @pytest.mark.parametrize("key", sorted(SOUNDNESS_WEIGHTS), ids=str)
    def test_proved_lambdas_pass_the_sweep(self, key):
        w = SOUNDNESS_WEIGHTS[key]
        name = w.label()
        cands = DEFAULT_LAMBDAS + ((w.lambda_hint,) if w.lambda_hint else ())
        proved = [lam for lam in cands if weights._record_verdict(w, lam)]
        for lam in proved:
            for depth in range(8, 13):
                assert oracle_sweep_violation(
                    lambda t: w(t) ** lam, depth) is None, \
                    (name, lam, depth)
        # every kind here proves its small candidates, bar exp_log with
        # beta > 1, which the record disproves at every candidate
        beta_above_one = w.kind == "exp_log" and w.params[1] > 1
        assert bool(proved) != beta_above_one, name
        if beta_above_one:
            assert all(weights._record_verdict(w, lam) is False
                       for lam in cands)

    def test_oracle_finds_the_violations_the_record_leaves(self):
        # the oracle is not vacuous: t^2, t^1.5 at λ = 1 and exp_log(0.5, 2)
        # at λ = 1 (slope unbounded) all fail it
        assert oracle_sweep_violation(weights.power(2.0), 8) is not None
        assert oracle_sweep_violation(weights.power(1.5), 8) is not None
        assert oracle_sweep_violation(weights.exp_log(0.5, 2.0), 8) \
            is not None


class TestRecordMutants:
    """Cases that a slope bound dropping beta, accepting beta > 1 or
    comparing a rounded float product would get wrong."""

    def test_exp_log_slope_keeps_beta(self):
        # alpha beta = 0.9 proves λ = 1; alpha alone (1.5) would not
        assert check_majorant(weights.exp_log(1.5, 0.6), (1.0,)) == \
            MajorantCheck(True, 1.0, True)
        assert weights._record_verdict(weights.exp_log(1.5, 1.0), 1.0) \
            is None

    @pytest.mark.parametrize("beta", [2.0, 1.2, math.nextafter(1.0, 2.0)])
    def test_exp_log_beta_above_one_never_certified(self, beta):
        w = weights.exp_log(1.0, beta)
        cands = DEFAULT_LAMBDAS + (2.0 ** -1074,)
        assert check_majorant(w, cands) == MajorantCheck(False, None, True)
        assert not check_modulus_of_continuity(w).ok
        with pytest.raises(weights.UncertifiedError):
            effective_lambda(w)

    @pytest.mark.parametrize("slope", [1.1622, 1.9645])
    @pytest.mark.parametrize("make", [weights.power, weights.log_power])
    def test_hint_is_the_largest_proved_lambda(self, make, slope):
        w = make(slope)
        hint = w.lambda_hint
        assert Fraction(hint) * Fraction(slope) <= 1 \
            < Fraction(math.nextafter(hint, 2.0)) * Fraction(slope)
        assert check_majorant(w, (hint,)) == MajorantCheck(True, hint, True)
        # fl(1/slope) times slope rounds to 1.0 but exceeds 1 exactly: the
        # record leaves it to the grids, which pass it as evidence
        lam = 1.0 / slope
        assert lam * slope == 1.0 and Fraction(lam) * Fraction(slope) > 1
        assert check_majorant(w, (lam,)) == MajorantCheck(True, lam, False)

    @pytest.mark.parametrize("make", [weights.power, weights.log_power])
    def test_hint_of_a_subnormal_slope(self, make):
        # 1 / 1e-320 overflows; the hint was an OverflowError
        w = make(1e-320)
        assert w.lambda_hint == 1.0
        assert check_majorant(w, weights.lambda_candidates(w)) == \
            MajorantCheck(True, 4.0, True)


class TestTableProof:
    def test_concave_table_is_proved(self):
        w = weights.table_weight([(0, 0), (0.25, 0.5), (0.5, 0.75), (1, 1)])
        assert check_modulus_of_continuity(w).ok
        assert weights._record_verdict(w, 1.0) is True
        # w^4 and w^2 have segments meeting t = 0 below 0, and the sweep
        # rejects them
        work = Counter()
        assert check_majorant(w, DEFAULT_LAMBDAS, work=work) == \
            MajorantCheck(True, 1.0, True)
        assert work["slope_proofs"] == 1

    @pytest.mark.parametrize("points", [
        # the last segment meets t = 0 at -0.1
        [(0, 0), (0.5, 0.5), (0.6, 0.5), (1, 0.9)],
        # flat at 0 up to 0.25, so w(t)/t rises (the sweep fails it)
        [(0, 0), (0.25, 0), (0.5, 0.5), (1, 1)],
        # a flat step, the nearest a table may come to a fall
        [(0, 0), (0.5, 0.6), (0.75, 0.6), (1, 1)]])
    def test_tables_left_to_the_grids(self, points):
        w = weights.table_weight(points)
        assert weights._record_verdict(w, 1.0) is None

    def test_any_fall_is_rejected(self):
        # a step down of 1e-13, once let through as rounding
        with pytest.raises(weights.InvalidWeightError,
                           match="nondecreasing"):
            weights.table_weight([(0, 0), (0.5, 0.6), (0.75, 0.6 - 1e-13),
                                  (1, 1)])

    def test_square_of_the_table_itself(self):
        # the table through (t, v^2) has every intercept >= 0, but the
        # square of the table itself is not subadditive, so λ = 2 is left
        # to the grids
        ts, vs = (0.0, 0.5, 1.0), (0.0, 0.72, 1.0)
        w = weights.table_weight(zip(ts, vs))
        assert weights._table_proof(ts, [v ** 2 for v in vs], 1.0)
        assert oracle_sweep_violation(
            lambda t: np.interp(t, ts, vs) ** 2, 8) is not None
        assert weights._record_verdict(w, 2.0) is None
        assert weights._record_verdict(w, 1.0) is True

    def test_open_candidate_sweeps_the_table_itself(self):
        # the grid fallback sweeps w(t)^2, which fails at (0.25, 0.5), not
        # the table through (t, v^2), which passes
        w = weights.table_weight([(0, 0), (0.5, 0.72), (1, 1)],
                                 lambda_hint=2.0)
        assert check_majorant(w, (2.0,)) == MajorantCheck(False)
        assert effective_lambda(w) == 1.0


def almost_decreasing_violation(w, lam: float) -> float:
    """Worst violation of  w^lam(t)/t <= 2 w^lam(s)/s  over 0 < s < t <= 1
    sampled at k/2^12."""
    t = np.arange(1, 2 ** 12 + 1) / 2 ** 12
    with np.errstate(divide="ignore"):
        q = lam * np.asarray(w.log(t)) - np.log(t)  # log of w^lam(t)/t
    # violation at t is q[t] - min_{s<t} q[s] - log 2, positive where the
    # factor-2 almost-decrease fails on the grid
    best_prefix = np.minimum.accumulate(q)
    viol = q[1:] - (best_prefix[:-1] + math.log(2.0))
    return float(np.max(viol))


class TestAlmostDecreasing:
    def test_builtin_family(self):
        for name, w in fixtures.builtin_majorants().items():
            lam = effective_lambda(w)
            assert almost_decreasing_violation(w, lam) <= 1e-9, name


class TestA1:
    def test_power_ratio_exactly_two(self):
        res = check_A1(weights.power(0.7), 20)
        assert res.ok
        assert res.ratio_low == pytest.approx(2.0, abs=1e-12)
        assert res.ratio_high == pytest.approx(2.0, abs=1e-12)

    def test_log_ratios_in_one_two(self):
        res = check_A1(weights.log_power(1.0), 20)
        assert res.ok
        assert 1.0 <= res.ratio_low <= res.ratio_high <= 2.0

    def test_family(self):
        for name, w in fixtures.a1_family().items():
            assert check_A1(w, 16).ok, name

    def test_fast_decay_fails(self):
        res = check_A1(fixtures.fast_decay_weight(), 12)
        assert not res.ok


class TestA2:
    def test_sqrt_integral_is_four(self):
        res = check_A2(weights.power(0.5), 0.5)
        assert res.ok
        assert res.dini_integral == pytest.approx(4.0, abs=1e-9)

    def test_log_square_integral_is_one(self):
        res = check_A2(weights.log_power(2.0), 1.0)
        assert res.ok
        assert res.dini_integral == pytest.approx(1.0, abs=1e-9)

    def test_log_first_power_diverges(self):
        res = check_A2(weights.log_power(1.0), 1.0)
        assert not res.ok


class TestConditionA:
    def test_linear_weight(self):
        res = check_condition_a(weights.power(1.0), 128)
        assert res.ok and res.C1 <= 10.0 + 1e-9 and res.kappa > 0

    def test_square_weight_kappa_one_admissible(self):
        # at n = 10 the maximizer sits at t = 10/12 and kappa = 1 gives C1 < 10
        w = weights.power(2.0)
        sup = max(t ** 10 * w(1 - t) for t in np.linspace(1e-6, 1 - 1e-6,
                                                          200001))
        assert sup <= 10.0 * w(0.1) ** 1.0
        res = check_condition_a(w, 16)
        assert res.ok


class TestConditionB:
    def test_linear_ratio_near_one(self):
        res = check_condition_b(weights.power(1.0), 12)
        assert res.ok and res.C2 <= 2.0

    def test_power_alpha_cancels(self):
        r1 = check_condition_b(weights.power(1.0), 10)
        r2 = check_condition_b(weights.power(0.5), 10)
        assert r2.ok
        assert r1.C2 == pytest.approx(r2.C2, rel=1e-6)


class TestWeightSpecs:
    @given(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
           st.floats(1e-6, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_power_roundtrip(self, alpha, t):
        w = weights.from_spec({"kind": "power", "alpha": alpha})
        assert w(t) == pytest.approx(t ** alpha, rel=1e-12)

    @pytest.mark.parametrize("name", sorted({**fixtures.builtin_majorants(),
                                             **fixtures.a1_family()}))
    def test_compact_and_json_forms_agree(self, name):
        w = {**fixtures.builtin_majorants(), **fixtures.a1_family()}[name]
        short, names = {"power": ("power", ["alpha"]),
                        "log_power": ("log", ["c", "depth"]),
                        "exp_log": ("exp_log", ["alpha", "beta"])}[w.kind]
        compact = weights.from_spec(
            f"{short}:" + ",".join(repr(float(v)) for v in w.params))
        json_form = weights.from_spec({"kind": w.kind,
                                       **dict(zip(names, w.params))})
        assert compact == json_form == w

        def lam(w):  # None where no lambda is certified
            try:
                return weights.effective_lambda(w)
            except weights.UncertifiedError:
                return None
        assert lam(compact) == lam(json_form)

    def test_table_roundtrip(self):
        w = weights.table_weight([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])
        spec = weights.to_spec(w)
        w2 = weights.from_spec(spec)
        assert w2(0.25) == pytest.approx(w(0.25))

    def test_exp_recip_record(self):
        # the fixtures are one record, read from its JSON form, with the
        # values of exp(-1/t) and exp(-exp(1/t))
        slow = weights.from_spec({"kind": "exp_recip", "c": 1})
        fast = weights.from_spec({"kind": "exp_recip", "c": 1, "depth": 2})
        assert slow == fixtures.non_majorant_weight()
        assert fast == fixtures.fast_decay_weight()
        assert weights.from_spec(weights.to_spec(fast)) == fast
        t = np.array([0.01, 0.3, 0.5, 1.0])
        assert (slow(t) == np.exp(-1.0 / t)).all()
        assert (fast(t) == np.exp(-np.exp(1.0 / t))).all()
        assert slow(0.0) == fast(0.0) == 0.0
        assert (slow.log(t) == -1.0 / t).all()
        assert slow.label() == "exp(-1/t)"
        # log(1/w(2^-n)) is inf where math.exp overflows
        assert fast.neg_log_at_depth(3) == math.exp(math.exp(
            3 * math.log(2.0)))
        assert fast.neg_log_at_depth(10) == math.inf
        assert slow.neg_log_at_depth(1025) == math.inf

    # NaN passes a test written as x <= 0, so each is written as not x > 0
    @pytest.mark.parametrize("make", [
        lambda: weights.power(float("nan")),
        lambda: weights.power(float("inf")),
        lambda: weights.power("0.5"),
        lambda: weights.log_power(float("nan")),
        lambda: weights.log_power(1.0, True),
        lambda: weights.exp_log(1.0, float("nan")),
        lambda: weights.exp_log(float("-inf"), 1.0),
        lambda: weights.power(1.0, lambda_hint=float("nan")),
        lambda: weights.power(1.0, lambda_hint="a"),
        lambda: weights.power(1.0, lambda_hint=0.0),
        lambda: weights.table_weight([(0.0, 0.0), (0.5, float("nan")),
                                      (1.0, 1.0)]),
        lambda: weights.table_weight([]),
        lambda: weights.exp_recip(0.0),
        lambda: weights.exp_recip(1.0, 3),
        lambda: weights.exp_recip(1.0, 1.5),
        lambda: weights.from_spec("exp_recip:1")])  # it has no compact form
    def test_constructors_reject_non_finite_parameters(self, make):
        with pytest.raises(ValueError):
            make()

    def test_log_depth_capped(self):
        depth = weights.MAX_LOG_DEPTH
        assert weights.log_power(1.0, depth).params == (1.0, depth)
        for bad in (depth + 1, 10 ** 16, 0):
            with pytest.raises(weights.InvalidWeightError, match="depth"):
                weights.log_power(1.0, bad)
        with pytest.raises(ValueError, match="depth"):
            weights.from_spec("log:1,1e16")

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "power", "alpha": 1, "alpah": 2}, "alpah"),
        ({"kind": "power", "alpha": 1, "beta": 2}, "beta"),
        ({"kind": "exp_log", "alpha": 1, "beta": 1, "depth": 2}, "depth"),
        ({"kind": "table", "points": [[0, 0], [1, 1]], "c": 1}, "c")])
    def test_unknown_fields_named(self, spec, field):
        with pytest.raises(ValueError, match=f"unknown field '{field}'"):
            weights.from_spec(spec)

    def test_table_requires_monotone(self):
        with pytest.raises(weights.InvalidWeightError):
            weights.table_weight([(0.0, 0.0), (0.5, 0.9), (1.0, 0.5)])

    # no check samples a table for continuity, so its constructor rejects
    # a value below 0 (v^lam is not real there), a start off (0, 0) (a
    # table at 1e-13 near 0 has an infinite Dini integral) and a jump,
    # which at t = 0 makes w(0) = 0.5 while the table lists (0, 0) and
    # passes every subadditivity sweep
    @pytest.mark.parametrize("points, match", [
        ([(0, -1e-13), (0.5, 0.6), (1, 1)], "nonnegative"),
        ([(0, 0), (0.3, 0.0), (0.4, -1e-13), (0.5, 0.6), (1, 1)],
         "nonnegative"),
        ([(0, 0), (0.5, 0.5), (0.5, 0.6), (1, 1)], "jumps at t = 0.5"),
        ([(0, 0), (0, 0.5), (0.5, 0.7), (1, 1)], "jumps at t = 0.0"),
        ([(0, 1e-13), (0.5, 0.6), (1, 1)], "start at \\(0, 0\\)")],
        ids=["start_below_0", "dip_below_0", "jump_at_0.5", "jump_at_0",
             "start_above_0"])
    def test_table_rejects_negative_values_and_jumps(self, points, match):
        with pytest.raises(weights.InvalidWeightError, match=match):
            weights.table_weight(points)
        # a repeated point is no jump
        assert weights.table_weight([(0, 0), (0.5, 0.5), (0.5, 0.5),
                                     (1, 1)])(0.5) == 0.5
