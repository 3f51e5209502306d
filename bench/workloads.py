"""The four seeded workloads: input generators, timed calls, output checks.

Each workload is a closed loop with one caller.  ``next_op`` draws the next
input from the workload's own random stream, seeded by the run's seed and
the number of the loop process, so one seed always gives the same
operations; ``run`` is the single public gst call that is timed; ``check``
returns None for a correct output and a one-line reason otherwise.
Operations come in rounds: ``kinds`` is the fixed order of operation kinds
in one round, and a loop ends only on a round boundary, so every run holds
whole rounds and the same mix of cheap and dear operations.  gst is
imported in ``setup``, which belongs to the measured set-up time.  The
check functions at module level take plain values so the tests can feed
them corrupted results.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import random
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

CYCLICITY_STAGES = 14
BOUNDARY_SET_DEPTH = 7
ENVELOPE_STAGES = 16
SET_FIXTURES = ("point", "two_points", "triadic", "triadic_union_point",
                "harmonic_log", "stagewise_divergent")
# fixtures that the CLI resolves by name; the others go in as inline JSON
CLI_SET_FIXTURES = ("point", "two_points", "triadic", "harmonic_log",
                    "stagewise_divergent")


@dataclass(frozen=True)
class Op:
    """One operation: CLI arguments, or the arguments of a library call."""

    kind: str
    argv: tuple = ()
    params: tuple = ()


def run_cli(argv) -> tuple:
    """``gst.cli.main(argv)`` with its output captured: (exit code, stdout)."""
    from gst import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_results(output) -> tuple:
    """(exit code, results block) of a captured CLI report."""
    code, text = output
    report = json.loads(text) if text.strip() else {}
    return code, report.get("results", {})


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def power_spec(alpha: float) -> str:
    return f"power:{alpha!r}"


# ---------------------------------------------------------------------------
# Checks (plain values in, None or a reason out)
# ---------------------------------------------------------------------------

def check_cyclicity(code: int, res: dict):
    if code != 0:
        return f"exit code {code}"
    if not str(res.get("verdict", "")).startswith("cyclic evidence"):
        return f"verdict {res.get('verdict')!r}"
    if not res["mass_balance_error"] <= 1e-12 * res["total_mass"]:
        return f"mass balance error {res['mass_balance_error']!r}"
    rows = sorted(res["residual_decay"], key=lambda r: r["k_max"])
    masses = [r["residual_mass"] for r in rows]
    if len(masses) < 2 or any(b > a for a, b in zip(masses, masses[1:])):
        return f"residual mass not non-increasing in k_max: {masses}"
    margins = res["corona_margins"]
    if not margins or not all(m["ok"] is True for m in margins):
        return "corona margin not ok"
    return None


def check_boundary(code: int, res: dict, reference):
    """``reference`` is the unrotated set's result, or None for that one."""
    if code != 0:
        return f"exit code {code}"
    if res.get("ok") is not True:
        return "boundary estimate not ok"
    if reference is not None:
        for key in ("N_used", "max_ratio"):
            if not close(res[key], reference[key], 1e-8):
                return (f"{key} {res[key]!r} differs from the unrotated "
                        f"{reference[key]!r}")
    return None


def check_lower_bound(min_margin: float, ok: bool):
    if ok is not True or not min_margin >= -1e-9:
        return f"envelope margin {min_margin!r}"
    return None


def check_inner(value: complex, err: float, eps: float):
    if not err <= eps:
        return f"error radius {err!r} above eps {eps!r}"
    if not abs(value) <= 1.0 + err:
        return f"|S(z)| = {abs(value)!r} exceeds 1"
    return None


def check_arc_mass(mass: float, err: float, expected: float):
    if err != 0.0 or mass != expected:
        return f"arc mass {mass!r} (err {err!r}), enumeration gives {expected!r}"
    return None


def check_weight(code: int, res: dict, alpha):
    """``alpha`` is the power-weight exponent, or None for other weights."""
    if code != 0:
        return f"exit code {code}"
    if res["majorant"]["ok"] is not True:
        return "majorant check failed"
    if res["A2"]["ok"] is not True:
        return "A2 check failed"
    if alpha is not None:
        # t^a is subadditive iff a <= 1; int_0^1 t^(a/2) dt/t = 2/a
        if res["modulus_of_continuity"]["ok"] is not (alpha <= 1.0):
            return "modulus-of-continuity verdict wrong for t^a"
        if not close(res["A2"]["dini_integral"], 2.0 / alpha, 1e-6):
            return f"Dini integral {res['A2']['dini_integral']!r} != 2/a"
    return None


def check_entropy(code: int, res: dict, finite: bool):
    if code != 0:
        return f"exit code {code}"
    want = "finite" if finite else "diverges"
    for form in ("sum", "integral"):
        if res[form]["tag"] != want:
            return f"{form} tag {res[form]['tag']!r}, expected {want!r}"
    return None


def check_grid(code: int, res: dict, n0: int, k: int):
    if code != 0:
        return f"exit code {code}"
    if res["is_w_grid"] is not True:
        return "not a w-grid"
    depths = res["depths"]
    if len(depths) != k + 1 or depths[0] != n0 or \
            any(b <= a for a, b in zip(depths, depths[1:])):
        return f"depths {depths} do not start at {n0} with {k} levels"
    return None


def check_classify(code: int, res: dict, finite: bool):
    if code != 0:
        return f"exit code {code}"
    if res["undecided_components"] != 0:
        return "undecided components"
    total = res["total_mass"]
    carried, rest = (res["mu_P_mass"], res["mu_C_mass"]) if finite else \
        (res["mu_C_mass"], res["mu_P_mass"])
    if not (close(carried, total, 1e-12) and rest == 0.0):
        return f"mu_P {res['mu_P_mass']!r} / mu_C {res['mu_C_mass']!r}"
    return None


def fw_norm_linear(a0: float, a1: float, alpha: float) -> float:
    """|f(0)| + int |f'| dA / (1-|z|)^alpha for f = a0 + a1 z, alpha < 1."""
    return abs(a0) + 2.0 * abs(a1) / ((1.0 - alpha) * (2.0 - alpha))


def check_dual(code: int, res: dict, a0: float, a1: float, alpha: float):
    if code != 0:
        return f"exit code {code}"
    if alpha >= 1.0:
        return None if res["tag"] == "diverges" else f"tag {res['tag']!r}"
    if res["tag"] != "finite":
        return f"tag {res['tag']!r}"
    want = fw_norm_linear(a0, a1, alpha)
    if not close(res["value"], want, 1e-6):
        return f"F_w norm {res['value']!r}, closed form {want!r}"
    return None


# ---------------------------------------------------------------------------
# Independent triadic enumeration for exact arc masses
# ---------------------------------------------------------------------------

def triadic_numerator(index: int, stages: int) -> int:
    """Left endpoint of terminal cell ``index`` of the triadic Cantor set,
    as a numerator over 3^stages: stage j adds 2*3^-(j+1) on a right turn."""
    return sum(2 * 3 ** (stages - 1 - j)
               for j in range(stages) if (index >> (stages - 1 - j)) & 1)


def triadic_numerators(stages: int) -> list:
    nums = [0]
    for j in range(stages):
        step = 2 * 3 ** (stages - 1 - j)
        nums = [n + d for n in nums for d in (0, step)]
    return nums  # already sorted


def arc_count(numerators: list, denom: int, start: float,
              length: float) -> int:
    """Number of points n/denom in the half-open arc [start, start+length)."""
    s, e = Fraction(start), Fraction(start) + Fraction(length)

    def below(x: Fraction) -> int:  # points n/denom < x
        return bisect_left(numerators, math.ceil(x * denom))

    if e <= 1:
        return below(e) - below(s)
    return len(numerators) - below(s) + below(e - 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    kinds: tuple = ()
    # processes a run's closed loop is split over.  The median latency of a
    # short operation differs by up to 1.4x between consecutive processes,
    # so the workloads made of them pool several; a run of long operations
    # needs all its seconds in one process to fit more than one.
    processes = 1

    def __init__(self, seed: int, part: int = 0):
        self.rng = random.Random(f"{seed}/{part}")
        self.count = 0

    def next_kind(self) -> str:
        kind = self.kinds[self.count % len(self.kinds)]
        self.count += 1
        return kind

    def setup(self) -> None:
        """Imports and set-up that a user pays once per process."""
        import gst.cli  # noqa: F401  (the CLI entry point pulls in scipy)

    def next_op(self) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        return run_cli(op.argv)

    def check(self, op: Op, output):
        raise NotImplementedError


class Cyclicity(Workload):
    """``report cyclicity`` on stagewise-log Cantor measures damped by a
    seeded multiplier layer on the eight depth-3 arcs."""

    name = "cyclicity"
    kinds = ("report",)

    def setup(self):
        super().setup()
        from gst import circle
        circle.stagewise_log_generator()  # lazy module constant

    def next_op(self):
        # arc k is damped by a factor from the k-th eighth of [0.25, 1]: the
        # factors vary per operation, the cost of the report barely does
        factors = {str(k): 0.25 + 0.75 * (k + self.rng.random()) / 8
                   for k in range(8)}
        measure = {"cantor": [{"generator": "stagewise_log",
                               "depth": CYCLICITY_STAGES, "mass": 1.0}],
                   "multipliers": [{"depth": 3, "factors": factors}]}
        return Op(self.next_kind(), ("report", "cyclicity", "--measure",
                                     json.dumps(measure), "--weight",
                                     "power:1"))

    def check(self, op, output):
        return check_cyclicity(*cli_results(output))


class Boundary(Workload):
    """``privalov check`` on rotated copies of the depth-7 triadic carrier.

    The first operation of a run uses the unrotated set; its result anchors
    the rotation-invariance check of every later operation.
    """

    name = "boundary"
    kinds = ("privalov",)

    def __init__(self, seed, part=0):
        super().__init__(seed, part)
        self.alpha = self.rng.choice((0.5, 1.0))
        self.reference = None
        self.gaps = self.tail = None

    def setup(self):
        super().setup()
        from gst import circle, fixtures
        base = circle.set_to_json(fixtures.triadic_cantor_set(
            BOUNDARY_SET_DEPTH))
        self.gaps, self.tail = base["gaps"], base["tail"]

    def next_op(self):
        offset = self.rng.random() if self.count else 0.0
        kind = self.next_kind()
        gaps = sorted([(s + offset) % 1.0, ln] for s, ln in self.gaps)
        spec = json.dumps({"gaps": gaps, "tail": self.tail})
        return Op(kind, ("privalov", "check", "--set", spec,
                         "--weight", power_spec(self.alpha),
                         "--carleson", "auto", "--samples", "2048"),
                  (offset,))

    def check(self, op, output):
        code, res = cli_results(output)
        unrotated = op.params[0] == 0.0
        err = check_boundary(code, res, None if unrotated else self.reference)
        if err is None and unrotated:
            self.reference = res
        return err


class Envelope(Workload):
    """Library calls against one held 16-stage triadic measure.

    The read side of the circle and inner_outer layers, with few targets per
    kernel sum: circle.mass_of_arc_s, circle.modulus_s and
    inner_outer.lower_bound_s come from its operations in the traced tour.
    It is not one of BENCHMARK.json's end-to-end workloads: its operations
    walk Python objects of 65,536 atoms, and on a shared 2-core host their
    speed moved by up to 2x between runs, so the run-to-run spread of its
    latencies (0.19-0.29 of the median over ten seeds) broke the 0.25 bound.
    """

    name = "envelope"
    # half of the calls are envelope checks: the median then falls inside
    # one kind's spread, not on the jump between two kinds
    kinds = ("lower_bound", "inner", "lower_bound", "mass_of_arc")
    processes = 4

    def setup(self):
        from gst import circle, fixtures, inner_outer
        self.circle, self.inner_outer = circle, inner_outer
        self.mu = fixtures.triadic_cantor_measure(ENVELOPE_STAGES)
        self.mu.realized()  # the held realization
        self.numerators = None  # the check's enumeration, built on first use

    def _near_carrier(self, j_max: float) -> complex:
        cell = self.rng.randrange(2 ** ENVELOPE_STAGES)
        t = triadic_numerator(cell, ENVELOPE_STAGES) / 3 ** ENVELOPE_STAGES
        t += self.rng.choice((-1.0, 1.0)) * 2.0 ** -self.rng.uniform(4, 20)
        r = 1.0 - 2.0 ** -self.rng.uniform(1.0, j_max)
        return r * cmath.exp(2j * math.pi * t)

    def next_op(self):
        kind = self.next_kind()
        if kind == "lower_bound":
            params = tuple(self._near_carrier(16.0) for _ in range(4))
        elif kind == "inner":
            params = (self._near_carrier(12.0),)
        else:
            params = (self.rng.random(), 2.0 ** -self.rng.uniform(1.0, 12.0))
        return Op(kind, params=params)

    def run(self, op):
        if op.kind == "lower_bound":
            return self.inner_outer.lower_bound_check(self.mu, list(op.params),
                                                      eps=1e-9)
        if op.kind == "inner":
            return self.inner_outer.eval_singular_inner(self.mu, op.params[0],
                                                        eps=1e-10)
        return self.mu.mass_of_arc(self.circle.Arc(*op.params))

    def check(self, op, output):
        if op.kind == "lower_bound":
            return check_lower_bound(output.min_margin, output.ok)
        if op.kind == "inner":
            return check_inner(output.value, output.err, 1e-10)
        if self.numerators is None:
            self.numerators = triadic_numerators(ENVELOPE_STAGES)
        count = arc_count(self.numerators, 3 ** ENVELOPE_STAGES, *op.params)
        return check_arc_mass(output.mass, output.err,
                              count * 2.0 ** -ENVELOPE_STAGES)


class Certify(Workload):
    """Short CLI reports with seeded weights, in a fixed round of kinds.

    Parameters are drawn per stratum and each round holds one weight check
    per weight stratum.  Sorted by cost a round is one ``dual`` (about
    0.01 s), seven grid, entropy and classify reports (0.06-0.17 s), the
    weight check of a power above 1 (0.2 s, it stops at the first coarse
    grid) and three weight checks that sweep the whole grid (0.5-0.9 s).
    The median then falls inside the seven middle reports, and the tail
    percentile (ten samples beyond) inside the dear weight checks: three
    per round, and every loop process runs at least one round, so a run
    holds at least 12 of them (24 at the usual two rounds per process).
    """

    name = "certify"
    kinds = ("weight", "entropy", "grid", "classify", "weight", "entropy",
             "dual", "weight", "grid", "entropy", "classify", "weight")
    processes = 4
    # (kind, low, high): a power exponent range, or the exp_log alpha range
    # (beta is drawn from [0.6, 1]; smaller beta overruns the grid depth cap)
    weight_strata = (("power", 0.2, 0.45), ("power", 0.55, 0.9),
                     ("power", 1.1, 2.0), ("exp_log", 0.5, 1.5))
    dual_strata = ((0.2, 0.8), (1.2, 2.0))

    def __init__(self, seed, part=0):
        super().__init__(seed, part)
        self.shift = self.rng.randrange(len(SET_FIXTURES))
        self.seen = dict.fromkeys(self.kinds, 0)
        self.set_specs = {}
        self.finite = {}

    def setup(self):
        super().setup()
        from gst import circle, fixtures
        circle.stagewise_log_generator()  # lazy module constants
        for name, (E, finite) in fixtures.entropy_set_fixtures().items():
            self.finite[name] = finite
            self.set_specs[name] = (f"fixture:{name}" if name in
                                    CLI_SET_FIXTURES else
                                    json.dumps(circle.set_to_json(E)))

    def _weight(self, i: int) -> tuple:
        """(spec, power exponent or None) for the i-th weight draw."""
        kind, lo, hi = self.weight_strata[i % len(self.weight_strata)]
        if kind == "power":
            alpha = round(self.rng.uniform(lo, hi), 4)
            return power_spec(alpha), alpha
        a = round(self.rng.uniform(lo, hi), 4)
        b = round(self.rng.uniform(0.6, 1.0), 4)
        return f"exp_log:{a!r},{b!r}", None

    def next_op(self):
        kind = self.next_kind()
        i = self.seen[kind]  # draws of this kind so far
        self.seen[kind] += 1
        if kind == "weight":
            spec, alpha = self._weight(i)
            return Op(kind, ("weight", "check", "--weight", spec,
                             "--alpha", "0.5"), (alpha,))
        if kind == "entropy":
            name = SET_FIXTURES[(i + self.shift) % len(SET_FIXTURES)]
            alpha = round(self.rng.uniform(0.2, 2.0), 4)
            return Op(kind, ("set", "entropy", "--set", self.set_specs[name],
                             "--weight", power_spec(alpha), "--form", "both"),
                      (name,))
        if kind == "grid":
            spec, _ = self._weight(i)
            n0, k = self.rng.randint(3, 6), self.rng.randint(3, 6)
            C = round(self.rng.uniform(2.5, 4.0), 3)
            return Op(kind, ("grid", "build", "--weight", spec, "--n0",
                             str(n0), "--C", repr(C), "--k", str(k)), (n0, k))
        if kind == "classify":
            # every six draws cover both generators at 10, 11 and 12 stages
            generator = ("triadic", "stagewise_log")[i % 2]
            measure = {"cantor": [{"generator": generator,
                                   "depth": 10 + i // 2 % 3, "mass": 1.0}]}
            alpha = round(self.rng.uniform(0.3, 2.0), 4)
            return Op(kind, ("measure", "classify", "--measure",
                             json.dumps(measure), "--weight",
                             power_spec(alpha)), (generator,))
        lo, hi = self.dual_strata[i % len(self.dual_strata)]
        alpha = round(self.rng.uniform(lo, hi), 4)
        a0 = round(self.rng.uniform(-1.0, 1.0), 4)
        a1 = round(self.rng.choice((-1.0, 1.0)) * self.rng.uniform(0.2, 2.0), 4)
        return Op(kind, ("dual", "fw-norm", "--f", json.dumps([a0, a1]),
                         "--weight", power_spec(alpha)), (a0, a1, alpha))

    def check(self, op, output):
        code, res = cli_results(output)
        if op.kind == "weight":
            return check_weight(code, res, op.params[0])
        if op.kind == "entropy":
            return check_entropy(code, res, self.finite[op.params[0]])
        if op.kind == "grid":
            return check_grid(code, res, *op.params)
        if op.kind == "classify":
            carrier = {"triadic": "triadic",
                       "stagewise_log": "stagewise_divergent"}[op.params[0]]
            return check_classify(code, res, self.finite[carrier])
        return check_dual(code, res, *op.params)


WORKLOADS = {w.name: w for w in (Cyclicity, Boundary, Envelope, Certify)}


def make(name: str, seed: int, part: int = 0) -> Workload:
    return WORKLOADS[name](seed, part)
