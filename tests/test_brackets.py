"""Certified brackets of the weight layer against 30-digit mpmath oracles.

Each oracle is computed independently of the bracket it checks: Dini
integrals and entropy integrals by mpmath quadrature in the variable
y = 1 + log(1/t), the Gamma tails, exp_log's Dini tail among them, by
``mpmath.gammainc``, and moment sups by
a root of the derivative of log(t^n w(1 - t)) in the variable log(1 - t).
"""

import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import gst
from gst import entropy, fixtures, inner_outer, weights
from gst.weights import Bracket
from oracles import mp_log_w

mpmath.mp.dps = 30

# the certify workload's weight strata at their extremes: power exponents
# in [0.2, 0.45], [0.55, 0.9] and [1.1, 2.0], exp_log alpha in [0.5, 1.5]
# and beta in [0.6, 1.0]
CERTIFY_POWERS = (0.2, 0.45, 0.55, 0.9, 1.1, 2.0)
CERTIFY_EXP_LOGS = [(a, b) for a in (0.5, 1.5) for b in (0.6, 1.0)]


def oracle_dini(w, alpha, depth):
    """(body, tail): int_s^1 and int_0^s of w^alpha(t) dt/t, s = 2^-depth,
    as integrals over y in [1, y0] and [y0, inf)."""
    # the split sits at the float the code uses, u0 = -depth log 2
    y0 = 1 - mpmath.mpf(math.log(2.0) * -depth)

    def f(y):
        return mpmath.exp(alpha * mp_log_w(w, y))

    # breakpoints on the integrand's own scale: geometric towards y = 1,
    # and past y0 multiples of the length over which log f drops by one;
    # the tail is summed relative to f(y0), since quad's tolerance is
    # absolute and the tail can be 1e-264
    body = mpmath.quad(f, [1] + [1 + (y0 - 1) / 2 ** k
                                 for k in range(12, -1, -1)])
    if w.kind == "exp_log":
        # the Gamma tail, whose scale can be far past 1/|(log f)'(y0)|
        c, beta = alpha * mpmath.mpf(w.params[0]), mpmath.mpf(w.params[1])
        return body, (mpmath.gammainc(1 / beta, c * y0 ** beta)
                      / (beta * c ** (1 / beta)))
    scale = 1 / abs(mpmath.diff(lambda y: alpha * mp_log_w(w, y), y0))
    at_y0 = f(y0)
    tail = at_y0 * mpmath.quad(
        lambda y: f(y) / at_y0,
        [y0 + scale * k for k in (0, 0.5, 1, 2, 4, 8, 16, 32, 64, 256)]
        + [mpmath.inf])
    return body, tail


def assert_in(value, bracket: Bracket):
    assert bracket.low <= value <= bracket.high, (float(value), bracket)


def dini_cases():
    for a in CERTIFY_POWERS + (0.5, 1.0):
        yield weights.power(a), 0.5
    yield weights.log_power(2.0), 1.0
    yield weights.log_power(3.0), 0.5
    yield weights.log_power(1.0, depth=2), 0.5  # never Dini
    yield weights.exp_log(0.6, 0.65), 0.5
    yield weights.exp_log(1.0, 0.8), 0.5
    yield weights.exp_log(1.0, 0.5), 0.5
    yield weights.exp_log(2.0, 1.7), 1.0
    # the whole integral, about 2e600, overflows: the bracket keeps a
    # finite low end
    yield weights.exp_log(1e-300, 0.5), 1.0
    for a, b in CERTIFY_EXP_LOGS:
        yield weights.exp_log(a, b), 0.5


@pytest.mark.parametrize("w, alpha", list(dini_cases()),
                         ids=lambda v: v.label() if hasattr(v, "label")
                         else str(v))
def test_dini_brackets_hold_the_oracle(w, alpha):
    whole = weights._dini_integral(w, alpha)
    if w.kind == "log_power" and w.params[1] > 1:
        # a certified divergence
        assert whole == Bracket(math.inf, math.inf)
        return
    want_body, want_tail = oracle_dini(w, alpha, 40)
    assert_in(want_body + want_tail, whole)
    # closed forms and incomplete gamma brackets, all far inside the width
    # (log 2 / DINI_CELLS) w(1)^alpha of one octave of Riemann sums
    if math.isfinite(whole.high):
        assert whole.high - whole.low <= 1e-10 * whole.high


# exp_log:1e-4,0.6 at alpha 1 puts x = c y^beta below 1e-3 at both ends,
# where Legendre's continued fraction stops at CF_TERMS far from converged
A2_CASES = ([(weights.exp_log(a, b), 0.5) for a, b in CERTIFY_EXP_LOGS]
            + [(weights.exp_log(1e-4, 0.6), 1.0)]
            + [(weights.power(a), 0.5) for a in CERTIFY_POWERS])


@pytest.mark.parametrize("w, alpha", A2_CASES, ids=[
    w.label() + ("" if alpha == 0.5 else f"-alpha{alpha:g}")
    for w, alpha in A2_CASES])
def test_check_A2_bracket_holds_the_oracle(w, alpha):
    res = weights.check_A2(w, alpha)
    body, tail = oracle_dini(w, alpha, 40)
    assert res.ok
    assert res.low <= body + tail <= res.high
    assert res.low <= res.dini_integral <= res.high
    if w.kind == "exp_log":
        # incomplete gamma brackets to rounding: far inside the 2^12 cells
        # per octave of a Riemann bracket, (log 2 / DINI_CELLS) w(1)^alpha
        assert res.high - res.low <= 1e-10 * float(body + tail)


def test_power_dini_is_two_over_a_to_ulps():
    for a in CERTIFY_POWERS:
        res = weights.check_A2(weights.power(a), 0.5)
        assert abs(res.dini_integral - 2.0 / a) <= 4 * math.ulp(2.0 / a)


def test_check_A2_fields_are_python_floats():
    for w in (weights.exp_log(1.0, 0.8), weights.power(0.5),
              weights.log_power(1.0)):
        res = weights.check_A2(w, 0.5 if w.kind != "log_power" else 1.0)
        for name in ("dini_integral", "low", "high"):
            assert type(getattr(res, name)) is float, (w.label(), name)
        assert type(res.ok) is bool
    b = weights._dini_integral(weights.exp_log(1.0, 0.8), 0.5)
    assert type(b.low) is float and type(b.high) is float
    assert type(Bracket(np.float64(1.0), 2).high) is float


def test_divergent_tail_has_infinite_high():
    # a certified divergence: no finite number is printed for it
    for w in (weights.log_power(1.0), weights.log_power(3.0, depth=2)):
        res = weights.check_A2(w, 1.0)
        assert not res.ok
        assert res.low == res.high == res.dini_integral == math.inf


def test_midpoint_of_ends_summing_past_the_float_range():
    # 1/(alpha a), about 1e308, is a float, and so is the midpoint of its
    # bracket, whose ends sum past the float range
    res = weights.check_A2(weights.power(1e-308), 1.0)
    assert res.ok and res.low <= 1 / Fraction(1e-308) <= res.high
    assert res.dini_integral == pytest.approx(1e308, rel=1e-15)


# 2 w(1/8) < w(1/4): not subadditive; and a concave table
TABLE = weights.table_weight([(0, 0), (0.09, 0.1), (0.19, 0.25), (1, 1)])
CONCAVE_TABLE = weights.table_weight([(0, 0), (0.25, 0.5), (0.5, 0.75),
                                      (1, 1)])


def oracle_table_dini(w, alpha, depth):
    """(body, tail) as in oracle_dini, of the exact piecewise-linear
    interpolation of a table's float knots: in closed form on the first
    segment, where w(t) = m0 t, and by quadrature on the others."""
    ts = [mpmath.mpf(t) for t in w.params[0]]
    vs = [mpmath.mpf(v) for v in w.params[1]]
    alpha = mpmath.mpf(alpha)
    s = mpmath.exp(mpmath.mpf(math.log(2.0) * -depth))

    def integral(lo, hi):
        total = mpmath.mpf(0)
        for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:]):
            a, b = max(lo, t0), min(hi, t1)
            if a >= b:
                continue
            if t0 == 0:
                total += (v1 / t1) ** alpha * (b ** alpha - a ** alpha) / alpha
            else:
                total += mpmath.quad(lambda t: (
                    v0 + (t - t0) * (v1 - v0) / (t1 - t0)) ** alpha / t,
                    [a, b])
        return total
    return integral(s, 1), integral(0, s)


def test_table_tail_low_is_certified():
    # below its first knot t1 = 0.09 a table is w(t) = m0 t, m0 = 0.1/0.09,
    # so its integral there is int_0^t1 (m0 t)^0.5 dt/t = 2 sqrt(0.1) in
    # closed form, to rounding, and needs no lambda_hint; only [t1, 1]
    # takes Riemann sums
    w = TABLE
    assert w.lambda_hint is None
    whole = weights._dini_integral(w, 0.5)
    want_head = 2 * mpmath.sqrt(mpmath.mpf(0.1))

    def f(t):
        return mpmath.sqrt(float(w(float(t)))) / t

    # the table's own interpolation between float nodes; pieces at breaks
    want_body = mpmath.quad(f, [0.09, 0.19, 1])
    assert_in(want_head + want_body, whole)
    # the width of the Riemann sums over [t1, 1] alone: (log(1/t1) / cells)
    # (w(1)^0.5 - w(t1)^0.5), with 4 octaves of DINI_CELLS cells
    cell = math.log(1 / 0.09) / (4 * weights.DINI_CELLS)
    assert whole.high - whole.low <= (
        1.01 * cell * (1 - math.sqrt(0.1)) + 1e-12)


# the oracle sums its two integrals split at 2^-quad_depth: at 1 the split
# lies past the first knot, at 1074 at the least subnormal
@pytest.mark.parametrize("quad_depth", [1, 40, 1074])
@pytest.mark.parametrize("w", [TABLE, CONCAVE_TABLE],
                         ids=["table", "concave_table"])
def test_table_A2_bracket_holds_the_oracle(w, quad_depth):
    want_body, want_tail = oracle_table_dini(w, 0.5, quad_depth)
    assert_in(want_body + want_tail, weights._dini_integral(w, 0.5))
    res = weights.check_A2(w, 0.5)
    assert res.ok and res.low <= want_body + want_tail <= res.high


# exp_recip is never a majorant, and no certificate is kept for it: its
# integral int_0^1 exp(-b E_d(1/t)) dt/t, b = alpha c, is bracketed by
# [0, inf], so check_A2, which presumes a majorant and leaves the refusal
# to its caller, finds no finite integral.  The oracle is its part above
# s = 2^-quad_depth, in x = 1/t over [1, 1/s], a lower bound of the whole
@pytest.mark.parametrize("quad_depth", [1, 3, 12])
@pytest.mark.parametrize("depth", [1, 2])
def test_exp_recip_tail_bounds_the_oracle(depth, quad_depth):
    c, alpha = 1.5, 0.5
    w = weights.exp_recip(c, depth)
    whole = weights._dini_integral(w, alpha)
    assert whole == Bracket(0.0, math.inf)
    b = mpmath.mpf(alpha * c)
    part = mpmath.quad(lambda x: mpmath.exp(
        -b * (x if depth == 1 else mpmath.exp(x))) / x,
        [mpmath.mpf(2) ** k for k in range(quad_depth + 1)])
    assert 0 < part and whole.low <= part <= whole.high
    res = weights.check_A2(w, alpha)
    assert not res.ok and res.high == math.inf


# beta = 0.0003 takes 3333 steps of the Gamma recurrence, which overflow:
# the incomplete gamma bracket is [0, inf], and A2's low end is the box
# under the integrand at Y = (beta c)^(-1/beta), not -inf; the integral,
# Gamma(1/beta, 1)/beta, is near 1e10000, so that box is past the float
# range and the low end is the largest float
def test_gamma_tail_low_end_is_never_negative():
    assert weights._exp_log_tail(1.0, 0.0003) == Bracket(0.0, math.inf)
    w, alpha = weights.exp_log(1.0, 0.0003), 1.0
    res = weights.check_A2(w, alpha)
    beta = mpmath.mpf(0.0003)
    whole = mpmath.gammainc(1 / beta, 1) / beta
    assert 0.0 < res.low <= whole and res.high == math.inf
    assert res.low == sys.float_info.max


# with the incomplete gamma bracket made [0, inf], the low end is the box
# alone; at beta = 1/2 the integral is int_1^inf e^(-c sqrt y) dy =
# 2 e^-c (1 + c)/c^2, and Y = (c/2)^-2 runs from 1 (the [1, 2] box) to 1600
@pytest.mark.parametrize("a", [0.1, 0.3, 1.0, 2.0, 4.0])
def test_exp_log_box_floor_holds_the_closed_form(a, monkeypatch):
    monkeypatch.setattr(weights, "_exp_log_tail",
                        lambda c, beta: Bracket(0.0, math.inf))
    c = 0.5 * mpmath.mpf(a)
    exact = 2 * mpmath.exp(-c) * (1 + c) / c ** 2
    low = weights._dini_integral(weights.exp_log(a, 0.5), 0.5).low
    assert 0.0 < low <= exact
    box_1_2 = math.exp(-0.5 * a * math.sqrt(2.0))
    if a < 4.0:  # Y > 2: the box at Y beats the [1, 2] box
        assert low > box_1_2 and low >= exact / 4
    else:
        assert low == pytest.approx(box_1_2, rel=1e-12)


# beta alpha a rounds to 0: Y = (beta alpha a)^-2 is near e^1490, and so
# is the integral, past the float range
def test_exp_log_floor_past_the_float_range():
    res = weights.check_A2(weights.exp_log(1e-323, 0.5), 0.5)
    assert (res.low, res.high, res.ok) == (sys.float_info.max, math.inf,
                                           False)


# beta = 1e300: the whole integral is Gamma(s, c)/(beta c^s), s = 1/beta,
# and 2^beta overflows in the low end exp(-c 2^beta)
def test_gamma_tail_survives_an_overflowing_power():
    c, beta = 0.5, 1e300
    s = 1 / mpmath.mpf(beta)
    whole = mpmath.gammainc(s, c) / (beta * mpmath.mpf(c) ** s)
    assert_in(whole, weights._dini_integral(weights.exp_log(c, beta), 1.0))


def assert_gamma_tail(c, beta, y0):
    """The tail from 1 at c' = c y0^beta, which is 1/y0 times the tail from
    y0 at c (y = y0 u): its incomplete gamma argument is x = c y0^beta."""
    c = c * y0 ** beta
    got = weights._exp_log_tail(c, beta)
    s = 1 / mpmath.mpf(beta)
    want = mpmath.gammainc(s, c) / (beta * mpmath.mpf(c) ** s)
    assert_in(want, got)
    if want > 1e-290:
        assert got.high - got.low <= 1e-6 * float(want)


GAMMA_BETAS = [0.1, 0.5, 0.6, 0.65, 0.8, 1.0, 1.5, 3.0]


# c 1e-6 and 1e-4 keep x = c y0^beta below 1 at every depth: the lower
# series, where the continued fraction would stop at CF_TERMS
@pytest.mark.parametrize("c", [1e-6, 1e-4, 0.01, 0.25, 0.75, 3.0])
@pytest.mark.parametrize("beta", GAMMA_BETAS)
@pytest.mark.parametrize("depth", [1, 12, 40])
def test_gamma_tail_holds_gammainc(c, beta, depth):
    assert_gamma_tail(c, beta, 1.0 - math.log(2.0) * -depth)


# x = c y0^beta on both sides of 1, where the series hands over to the
# continued fraction
@pytest.mark.parametrize("x", [1.0 - 2.0 ** -20, math.nextafter(1.0, 0.0),
                               1.0, math.nextafter(1.0, 2.0),
                               1.0 + 2.0 ** -20])
@pytest.mark.parametrize("beta", GAMMA_BETAS)
@pytest.mark.parametrize("y0", [1.0, 1.0 + 12 * math.log(2.0)])
def test_gamma_tail_holds_gammainc_across_the_switch(x, beta, y0):
    assert_gamma_tail(x / y0 ** beta, beta, y0)


def neg_log_bracket(w, ell) -> tuple:
    """neg_log_integral's arrays at ell, moved out by the ROUND_REL of each
    end's size that it leaves to its caller."""
    low, high = weights.neg_log_integral(w, np.asarray(ell),
                                         weights.effective_lambda(w))
    return (low - weights.ROUND_REL * abs(low),
            high + weights.ROUND_REL * abs(high))


def oracle_neg_log(w, ell):
    """int_0^ell -log w(t) dt = int_{y_ell}^inf -log w(y) e^(1-y) dy, with
    y_ell = 1 + log(1/ell)."""
    y_ell = 1 - mpmath.log(mpmath.mpf(ell))
    return mpmath.quad(lambda y: -mp_log_w(w, y) * mpmath.exp(1 - y),
                       [y_ell, y_ell + 1, y_ell + 10, mpmath.inf])


# log:1,2 takes the Riemann fallback, the rest closed forms
@pytest.mark.parametrize("w", [weights.power(1.0), weights.power(0.5),
                               weights.power(2.0), weights.log_power(1.0),
                               weights.log_power(2.0),
                               weights.exp_log(1.0, 0.5),
                               weights.exp_log(1.0, 0.8),
                               weights.exp_log(1.0, 1.0),
                               weights.log_power(1.0, depth=2)],
                         ids=lambda w: w.label())
@pytest.mark.parametrize("j", [2, 6, 12])
def test_neg_log_integral_holds_the_oracle(w, j):
    # elementwise: 2^-j between the largest length and a far smaller one
    low, high = neg_log_bracket(w, 2.0 ** -np.array([1, j, 40]))
    assert low.shape == high.shape == (3,)
    want = oracle_neg_log(w, 2.0 ** -j)
    assert_in(want, Bracket(low[1], high[1]))
    closed = w.kind != "log_power" or w.params[1] == 1
    assert high[1] - low[1] <= (1e-11 if closed else 1e-3) * float(want)


def test_neg_log_integral_takes_each_length_once(monkeypatch):
    # the fallback integrates once per distinct ell, in any order
    calls = []
    monotone_integral = weights.monotone_integral

    def counting(fn, nodes):
        calls.append(nodes[-1])
        return monotone_integral(fn, nodes)

    monkeypatch.setattr(weights, "monotone_integral", counting)
    w = weights.log_power(1.0, depth=2)
    ell = np.array([0.25, 2.0 ** -5, 0.25, 0.125, 2.0 ** -5])
    low, high = weights.neg_log_integral(w, ell, 1.0)
    assert sorted(calls) == [2.0 ** -5, 0.125, 0.25]
    assert np.array_equal(low[[0, 1]], low[[2, 4]])
    assert np.array_equal(high[[0, 1]], high[[2, 4]])


def oracle_moment_sup(w, n):
    """sup over 0 < t < 1 of t^n w(1 - t): the root of the derivative of
    log g in x = log s, s = 1 - t, started at the best of a dense grid."""
    def log_g(x):
        s = mpmath.exp(x)
        return n * mpmath.log(1 - s) + mp_log_w(w, 1 - x)

    xs = np.linspace(-700.0, -1e-9, 200001)
    s = np.exp(xs)
    best = mpmath.mpf(xs[int(np.argmax(n * np.log1p(-s) + w.log(s)))])
    root = mpmath.findroot(lambda x: mpmath.diff(log_g, x), best)
    return mpmath.exp(max(log_g(root), log_g(best)))


MOMENT_WEIGHTS = list(fixtures.builtin_majorants().items())


@pytest.mark.parametrize("name, w", MOMENT_WEIGHTS,
                         ids=[k for k, _ in MOMENT_WEIGHTS])
def test_moment_check_sup_bounds_the_oracle(name, w):
    for n in (4, 16, 64, 256, 1024):
        want = oracle_moment_sup(w, n)
        bracket = weights.moment_sup(w, n)
        assert_in(want, bracket)
        assert bracket.high <= float(want) * (1 + 4 * weights.SUP_RTOL)
        res = inner_outer.moment_check(w, n)
        assert res.sup == bracket.high and res.sup >= want


@pytest.mark.parametrize("w", [weights.power(1.0), weights.power(0.5),
                               weights.power(2.0), weights.exp_log(1.0, 0.5),
                               weights.log_power(2.0)],
                         ids=lambda w: w.label())
def test_condition_a_compares_certified_sups(w, monkeypatch):
    seen = []
    moment_sup = weights.moment_sup

    def recording(w_, n):
        out = moment_sup(w_, n)
        seen.append((n, out))
        return out

    monkeypatch.setattr(weights, "moment_sup", recording)
    weights.check_condition_a(w, 64)
    assert [n for n, _ in seen] == [2, 4, 8, 16, 32, 64]
    for n, bracket in seen:
        assert_in(oracle_moment_sup(w, n), bracket)


@pytest.mark.parametrize("a", [0.2, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", list(fixtures.entropy_set_fixtures()))
def test_power_gap_integrals_hold_the_closed_form(name, a):
    # under t^a a gap of float length L contributes
    # 2 int_0^(L/2) a log t dt = a L (log(L/2) - 1); the integral form
    # takes it as a L (log L - (1 + log 2)) bit for bit, and its bracket
    # over the explicit gaps, ROUND_REL per value and (n - 1) u of their
    # absolute sum, encloses their exact sum
    E = fixtures.entropy_set_fixtures()[name][0]
    w = weights.power(a)
    lens = E.lengths
    low, high = weights.neg_log_integral(w, lens / 2,
                                         weights.effective_lambda(w))
    vals = -(low + high)
    assert np.array_equal(low, high)
    assert np.array_equal(vals,
                          a * lens * (np.log(lens) - (1 + math.log(2.0))))
    err = ((weights.ROUND_REL + (lens.size - 1) * weights.UNIT_ROUNDOFF)
           * float(np.sum(np.abs(vals))))
    explicit = float(np.sum(vals))
    want = mpmath.fsum(a * mpmath.mpf(L) * (mpmath.log(mpmath.mpf(L) / 2) - 1)
                       for L in lens)
    assert explicit - err <= want <= explicit + err, (float(want), err)
    assert err <= 1e-9 * abs(float(want))
    if E.tail is None:
        got = entropy.entropy_integral(E, w)
        assert (got.value, got.low, got.high) == (explicit, explicit - err,
                                                  explicit + err)


# every segment meets t = 0 at or above 0: its record proves lambda 1
CONCAVE_TABLE = weights.table_weight([(0, 0), (0.25, 0.5), (0.5, 0.75),
                                      (1, 1)])
INTEGRAL_FORM_WEIGHTS = [weights.power(1.0), weights.log_power(1.0),
                         weights.log_power(1.0, depth=2),
                         weights.exp_log(1.0, 0.5), weights.exp_log(1.0, 1.0),
                         CONCAVE_TABLE]
FINITE_SETS = [name for name, (_, finite)
               in fixtures.entropy_set_fixtures().items() if finite]


def oracle_gap_term(w, L):
    """2 int_0^(L/2) log w(t) dt; for a table, segment by segment through
    the antiderivative (w log w - w)/m of log w on a segment of slope m."""
    x = mpmath.mpf(L) / 2
    if w.kind != "table":
        return -2 * oracle_neg_log(w, x)
    total = 0
    ts, vs = w.params
    for t0, v0, t1, v1 in zip(ts, vs, ts[1:], vs[1:]):
        t0, v0, t1, v1 = map(mpmath.mpf, (t0, v0, t1, v1))
        if t0 >= x:
            break
        b = min(t1, x)
        m = (v1 - v0) / (t1 - t0)
        if m == 0:
            total += (b - t0) * mpmath.log(v0)
            continue
        vb = v0 + m * (b - t0)
        total += ((vb * mpmath.log(vb) - vb)
                  - (v0 * mpmath.log(v0) - v0 if v0 > 0 else 0)) / m
    return 2 * total


@functools.lru_cache(maxsize=None)
def cached_gap_term(w, L):
    return oracle_gap_term(w, L)


@pytest.mark.parametrize("w", INTEGRAL_FORM_WEIGHTS, ids=lambda w: w.label())
@pytest.mark.parametrize("name", FINITE_SETS)
def test_integral_form_holds_the_oracle(name, w):
    # each explicit gap's bracket holds its oracle, and is narrow where
    # neg_log_integral has a closed form; the whole bracket holds the
    # explicit oracle plus the tail's, its levels summed until the rest,
    # below (2/3)^80 times a log, is far inside the tail's slack
    E = fixtures.entropy_set_fixtures()[name][0]
    low, high = neg_log_bracket(w, E.lengths / 2)
    closed = w.kind != "table" and (w.kind != "log_power" or w.params[1] == 1)
    for L, lo, hi in zip(E.lengths, low, high):
        assert -2 * hi <= cached_gap_term(w, float(L)) <= -2 * lo
        assert hi - lo <= (1e-11 if closed else 2e-3) * abs(hi)
    explicit = mpmath.fsum(cached_gap_term(w, float(L)) for L in E.lengths)
    got = entropy.entropy_integral(E, w)
    if E.tail is None and closed:
        assert got.high - got.low <= 1e-11 * abs(float(explicit))
    want = explicit
    if E.tail is not None:
        count0, base, length0, ratio, first = E.tail.params
        n = first + np.arange(1.0, 81.0)
        counts, lens = count0 * base ** (n - 1), length0 * ratio ** n
        want += mpmath.fsum(int(n) * cached_gap_term(w, float(L))
                            for n, L in zip(counts, lens))
    assert got.tag == entropy.FINITE
    assert got.low <= want <= got.high, (float(want), got)


def test_closed_forms_take_no_quadrature(monkeypatch):
    # the Dini integrals of power and exp_log weights, the gap integrals
    # of power, log and exp_log weights and condition (B) of power weights
    # are closed forms: no Riemann or Gauss fallback
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature on a closed-form path")

    monkeypatch.setattr(weights, "monotone_integral", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for w in ([weights.power(a) for a in CERTIFY_POWERS]
              + [weights.exp_log(a, b) for a, b in CERTIFY_EXP_LOGS]):
        assert weights.check_A2(w, 0.5).ok
    assert weights.check_A2(weights.exp_log(1e-4, 0.6), 1.0).ok
    closed = ([weights.power(a) for a in (0.5, 1.0)]
              + [weights.log_power(c) for c in (1.0, 3.0)]
              + [weights.exp_log(a, b) for a, b in CERTIFY_EXP_LOGS])
    for E, _ in fixtures.entropy_set_fixtures().values():
        for w in closed:
            entropy.entropy_integral(E, w)
    for a in (0.5, 1.0, 2.0):
        assert weights.check_condition_b(weights.power(a), 12).ok


def test_import_leaves_scipy_out():
    code = ("import sys, gst.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(gst.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
