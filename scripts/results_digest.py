#!/usr/bin/env python3
"""sha256 of the results block of a fixed list of gst CLI invocations.

Each invocation runs in-process through ``gst.cli.main``.  Its report's
``results`` block is serialized as sorted JSON and hashed, and the script
prints one line per invocation: ``<sha256> <exit code> <label>``.  Two
checkouts give identical results exactly where their lines match, so a
change that claims to keep results is checked with

    PYTHONPATH=<parent checkout>/src python scripts/results_digest.py > a
    PYTHONPATH=src python scripts/results_digest.py > b
    diff a b

A change that moves floats within their error radii is checked on the
``--show`` outputs instead:

    PYTHONPATH=<parent checkout>/src python scripts/results_digest.py \
        --show > a
    PYTHONPATH=src python scripts/results_digest.py --show > b
    python scripts/results_digest.py --compare a b

which requires equal exit codes, strings, booleans, integers and shapes
case by case (exit status 1 otherwise) and prints, per case, the largest
relative move of each float field (list entries pooled under ``[]``).

The cases: ``report cyclicity`` on the divergent Cantor fixture, once
more with ``--kmax 2`` (a shorter dossier, read from the first two levels
of the one six-level decomposition), at ``--c 0.05``
and at ``--c 0.2`` (empty pieces at depths 20 and 24, whose ``inf_low``
is 1), with ``--grid "[4,8,46]" --kmax 3`` and ``--grid "[4,8,100]"
--kmax 3`` (pieces at depths 46 and 100, where 1 - 2^-n is 1 or nearly
so in float and the arc masses stop at depth 49 and 62), and on the
first input of the benchmark's ``cyclicity`` workload at seeds 1-3, once
more at seed 1 with ``--grid "[4,8,59]"`` (a corona reading the depth-62
arc masses); ``inner eval`` on triadic measures of 2^10 and 2^14 atoms;
``measure decompose`` on the triadic and divergent Cantor fixtures, once
on an atom with a depth-2000 grid level, once on a measure with a
depth-70 multiplier layer (arc indices past int64) and once, with
``--grid "[4,20,62]"``, on atoms listed before a triadic part, three of
them on dyadic arc edges (arc indices out of order);
``measure classify`` on inline triadic (10 stages) and stagewise_log (12
stages) measures, whose Cantor parts build their carrier sets;
``measure classify`` and ``report cyclicity`` under ``power:1`` on an
atom at 0.75 of mass 0.25 with a triadic part (10 stages, mass 0.5) and a
stagewise_log part (12 stages, mass 1), whose two classes are each a
part of the measure, and ``measure classify`` under ``log:1`` on the two
Cantor parts alone;
``privalov check`` and ``carleson build --N auto`` on the
one-point set, the triadic sets of depth 5-7 and the
``triadic_union_point`` set (inline JSON, many distinct gap lengths),
each under ``power:1`` and ``power:0.5``; the second input of the
``boundary`` workload at seeds 1-3 (the first is the unrotated set at
every seed; the second is rotated, so its set may wrap angle 0); one
``privalov check --samples 300`` on the depth-6 triadic set turned so
that a gap wraps angle 0;
``weight check --alpha 0.5`` on four majorants, a table weight that is
not subadditive, a concave table with no ``lambda_hint`` and two exp_log
weights that no record settles, one subadditive on every sweep grid and
one with the witness (0.25, 0.25), ``weight check --alpha 1`` on
``exp_log:0.0001,0.6``, whose incomplete gamma brackets take the lower
series, ``weight check --alpha 0.5`` on ``power:7``, whose lambda 1/7
lies below every (1 + alpha) 2^-k with k <= 3, on
``exp_log:1e-323,0.5``, where beta alpha a rounds to 0, and on
``power:1e-320``, whose integral 1/(alpha a) is finite but past the
float range, ``weight check --alpha 1`` on ``log:1`` and ``log:1,2``,
two certified divergences with null bounds, ``weight check``
on ``power:0.15``, ``exp_log:0.1,1.2`` and a concave table, which their
kinds' records settle, and ``weight check`` on a table whose only
violation lies below the sweep grids and on one whose values all lie
below 1e-6, which the relative tolerance sweeps;
``grid build`` and ``set entropy --form both`` on the triadic set, each
with a power and an ``exp_log`` weight; ``set entropy --form both`` on the
triadic set under ``log:3`` and under its JSON form
``{"kind": "log_power", "c": 3}``, whose results must be equal, and
under ``log:1,2`` and the concave table, whose gap integrals are
certified Riemann sums, on ``two_points`` under ``log:1``, a set with no
tail, whose bracket is all explicit part, on the
``triadic_union_point`` set (inline JSON) with its gaps listed in
reverse order, on the ``harmonic_log`` set under ``exp_log:1,0.5``,
``log:1`` and ``log:1,2`` and on the stagewise divergent set under
``log:1,2``, whose finite tails are bracketed by integral comparison,
and, once more, on the ``harmonic_log`` set under ``log:1,2`` with
``--form sum`` alone; ``set entropy --form both`` on the ``harmonic_log``
set under the concave table, which no tail certificate decides (exit 2,
no bounds); two certified
divergences, whose infinite bounds the report writes as null: ``set
entropy --form both`` on the stagewise divergent set and ``dual
fw-norm`` under ``power:1.5``; ``set entropy --form both`` on two gaps,
one of length 1e-310, under ``log:1``, ``exp_log:1,0.5``, ``log:1,2``
and the concave table, where 1/t overflows and the finest Riemann nodes
of the gap integral underflow, and on two gaps with a geometric tail
past the float range: params ``[1,1.9,1,0.5,1060]`` under ``log:1``
(counts past it from the first level), ``[1,2,1,1/3,700]`` under
``power:1`` (lengths that underflow to 0), ``[1,2,1e-300,0.3,0]`` under
``power:1``, ``log:1`` and ``exp_log:1,0.5`` (subnormal lengths) and
``[1,100,3e-303,1e-3,0]`` under ``power:1`` (a length that rounds to
nearly twice its value); ``dual fw-norm`` under ``power:0.5``, a
finite norm, and of ``[0.4194,1.0486]`` under ``power:0.6063``, the
benchmark's kind of dual operation, ``dual pair`` of two quadratics, and
``dual pair`` of two
polynomials of 60 coefficients 1, whose pairing is 60.
``--show`` prints each results block under its line.

Usage:
    PYTHONPATH=src python scripts/results_digest.py [--show]
    python scripts/results_digest.py --compare SHOW_A SHOW_B
"""

import argparse
import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for bench

from bench.workloads import Boundary, Cyclicity  # noqa: E402

SEEDS = (1, 2, 3)
EXP_LOG_WEIGHT = "exp_log:1.0,0.8"
WEIGHTS = ("power:0.3", "power:0.7", "power:1.5", EXP_LOG_WEIGHT)
# 2 w(1/8) < w(1/4): not subadditive, first seen at depth 3
TABLE_WEIGHT = json.dumps({"kind": "table", "lambda_hint": 0.5, "points": [
    [0, 0], [0.09, 0.1], [0.19, 0.25], [1, 1]]})
# every segment meets t = 0 at or above 0: its own record proves it
CONCAVE_TABLE = json.dumps({"kind": "table", "points": [
    [0, 0], [0.25, 0.5], [0.5, 0.75], [1, 1]]})
# 2 w(2^-11) < w(2^-10), a violation finer than every sweep grid
FINE_VIOLATION_TABLE = json.dumps({"kind": "table", "points": [
    [0, 0], [2 ** -11, 2 ** -12], [2 ** -10, 2 ** -10], [1, 1]]})
# w(1/4) + w(1/2) < w(3/4), with every value below 1e-6
TINY_TABLE = json.dumps({"kind": "table", "points": [
    [0, 0], [0.5, 1e-7], [1, 1e-6]]})
Z_POINTS = ("0.3+0.1i", "0.99", "-0.5+0.8i", "0.0005-0.9999i")


def _triadic_measure(stages: int) -> str:
    return json.dumps({"cantor": [{"generator": "triadic", "depth": stages,
                                   "mass": 1.0}]})


def _triadic_set(depth: int, offset: float = 0.0) -> str:
    """The triadic set of this depth turned by ``offset``, as JSON."""
    from gst import circle, fixtures
    obj = circle.set_to_json(fixtures.triadic_cantor_set(depth))
    obj["gaps"] = sorted([(s + offset) % 1.0, ln] for s, ln in obj["gaps"])
    return json.dumps(obj)


def _union_point_set(reverse: bool = False) -> str:
    """The ``triadic_union_point`` set as JSON, its gaps in start order or
    in reverse."""
    from gst import circle, fixtures
    obj = circle.set_to_json(
        fixtures.entropy_set_fixtures()["triadic_union_point"][0])
    if reverse:
        obj["gaps"].reverse()
    return json.dumps(obj)


def cases():
    """(label, argv) of every invocation, in a fixed order."""
    yield "report cyclicity divergent_cantor", (
        "report", "cyclicity", "--measure", "fixture:divergent_cantor",
        "--weight", "power:1")
    yield "report cyclicity divergent_cantor kmax 2", (
        "report", "cyclicity", "--measure", "fixture:divergent_cantor",
        "--weight", "power:1", "--kmax", "2")
    for c in ("0.05", "0.2"):
        yield f"report cyclicity divergent_cantor c {c}", (
            "report", "cyclicity", "--measure", "fixture:divergent_cantor",
            "--weight", "power:1", "--c", c)
    # deep pieces: their corona checks read arc masses, not float radii
    for grid in ("[4,8,46]", "[4,8,100]"):
        yield f"report cyclicity divergent_cantor grid {grid} kmax 3", (
            "report", "cyclicity", "--measure", "fixture:divergent_cantor",
            "--weight", "power:1", "--grid", grid, "--kmax", "3")
    for seed in SEEDS:
        yield f"report cyclicity workload seed {seed}", \
            Cyclicity(seed).next_op().argv
    # a piece at depth 59, whose corona reads the arc masses at depth 62
    yield "report cyclicity workload seed 1 grid [4,8,59]", \
        Cyclicity(1).next_op().argv + ("--grid", "[4,8,59]")
    for stages in (10, 14):
        for z in Z_POINTS:
            # one token: argparse reads a separate "-0.5+0.8i" as an option
            yield f"inner eval 2^{stages} atoms z={z}", (
                "inner", "eval", "--measure", _triadic_measure(stages),
                f"--z={z}")
    for fixture in ("triadic_cantor", "divergent_cantor"):
        yield f"measure decompose {fixture}", (
            "measure", "decompose", "--measure", f"fixture:{fixture}",
            "--weight", "power:1", "--grid", "[4,8,12,16,20,24]",
            "--kmax", "6")
    # 2^2000 arcs: counts past the float range
    yield "measure decompose atom deep grid", (
        "measure", "decompose", "--measure", "fixture:atom", "--weight",
        "power:1", "--grid", "[4,2000]", "--kmax", "2")
    deep_layer = {
        "atoms": [{"pos": 0.1, "mass": 1.0}, {"pos": 0.6, "mass": 0.5}],
        "cantor": [{"generator": "triadic", "depth": 8, "mass": 1.0}],
        "multipliers": [{"depth": 70, "factors": {
            "0": 0.25, str(int(Fraction(0.1) * 2 ** 70)): 0.5}}]}
    yield "measure decompose depth-70 multiplier layer", (
        "measure", "decompose", "--measure", json.dumps(deep_layer),
        "--weight", "power:1", "--grid", "[4,8,12,16,20,24]", "--kmax", "6")
    # atoms before the Cantor part, so the arc indices are out of order,
    # three of them on dyadic arc edges
    edge_atoms = {
        "atoms": [{"pos": 0.9, "mass": 0.25}, {"pos": 0.5, "mass": 0.5},
                  {"pos": 0.25, "mass": 0.125}, {"pos": 3 * 2.0 ** -60,
                                                 "mass": 0.25}],
        "cantor": [{"generator": "triadic", "depth": 10, "mass": 1.0}]}
    yield "measure decompose atoms and triadic grid [4,20,62]", (
        "measure", "decompose", "--measure", json.dumps(edge_atoms),
        "--weight", "power:1", "--grid", "[4,20,62]", "--kmax", "3")
    # each Cantor part builds its carrier set from its exact cells
    for generator, stages in (("triadic", 10), ("stagewise_log", 12)):
        measure = {"cantor": [{"generator": generator, "depth": stages,
                               "mass": 1.0}]}
        yield f"measure classify {generator} {stages} stages", (
            "measure", "classify", "--measure", json.dumps(measure),
            "--weight", "power:1")
    # parts on both sides of the split: each class is a fresh measure
    mixed = {"atoms": [{"pos": 0.75, "mass": 0.25}],
             "cantor": [{"generator": "triadic", "depth": 10, "mass": 0.5},
                        {"generator": "stagewise_log", "depth": 12,
                         "mass": 1.0}]}
    for command in ("measure classify", "report cyclicity"):
        yield f"{command} atom, triadic and stagewise_log power:1", (
            *command.split(), "--measure", json.dumps(mixed), "--weight",
            "power:1")
    yield "measure classify triadic and stagewise_log log:1", (
        "measure", "classify", "--measure", json.dumps(
            {"cantor": mixed["cantor"]}), "--weight", "log:1")
    sets = [("point", "fixture:point")] + [
        (f"triadic {d}", _triadic_set(d)) for d in (5, 6, 7)] + [
        ("triadic_union_point", _union_point_set())]
    for name, spec in sets:
        for weight in ("power:1", "power:0.5"):
            yield f"privalov check {name} {weight}", (
                "privalov", "check", "--set", spec, "--weight", weight)
            yield f"carleson build {name} {weight}", (
                "carleson", "build", "--set", spec, "--weight", weight,
                "--N", "auto")
    for seed in SEEDS:
        workload = Boundary(seed)
        workload.setup()
        workload.next_op()
        yield f"boundary workload seed {seed}", workload.next_op().argv
    # turned by 0.6, the gap (1/3, 2/3) wraps angle 0
    yield "privalov check triadic 6 rotated 0.6 samples 300", (
        "privalov", "check", "--set", _triadic_set(6, 0.6), "--weight",
        "power:1", "--samples", "300")
    for name, weight in [(w, w) for w in WEIGHTS] + [
            ("table", TABLE_WEIGHT), ("concave table", CONCAVE_TABLE)]:
        yield f"weight check {name}", (
            "weight", "check", "--weight", weight, "--alpha", "0.5")
    # settled by the weight's record: t^0.15, which rises by more than
    # 1e-2 in one step of 2^-20 near 0, exp_log with beta > 1, no
    # majorant, and a table whose segments prove it
    for name, weight in (("power:0.15", "power:0.15"),
                         ("exp_log:0.1,1.2", "exp_log:0.1,1.2"),
                         ("concave table", CONCAVE_TABLE)):
        yield f"weight check {name} without --alpha", (
            "weight", "check", "--weight", weight)
    # exp_log with alpha beta > 1, which no record settles: the modulus
    # sweep passes every grid on the first and finds (0.25, 0.25) on the
    # second
    for weight in ("exp_log:1.094,0.9305", "exp_log:1.4725,0.9796"):
        yield f"weight check {weight}", (
            "weight", "check", "--weight", weight, "--alpha", "0.5")
    # x = alpha a = 1e-4 puts the incomplete gamma function of the Dini
    # integral on its lower series
    yield "weight check exp_log:0.0001,0.6 alpha 1", (
        "weight", "check", "--weight", "exp_log:0.0001,0.6", "--alpha", "1")
    # a majorant whose lambda 1/7 lies below (1 + alpha) 2^-k for k <= 3
    yield "weight check power:7", (
        "weight", "check", "--weight", "power:7", "--alpha", "0.5")
    # alpha a = 5e-324: beta c rounds to 0
    yield "weight check exp_log:1e-323,0.5", (
        "weight", "check", "--weight", "exp_log:1e-323,0.5", "--alpha", "0.5")
    # certified divergences, with no number printed
    for weight in ("log:1", "log:1,2"):
        yield f"weight check {weight} alpha 1", (
            "weight", "check", "--weight", weight, "--alpha", "1")
    # 1/(alpha a) = 2e320 is finite but past the float range
    yield "weight check power:1e-320", (
        "weight", "check", "--weight", "power:1e-320", "--alpha", "0.5")
    # the modulus line is the majorant's lambda = 1 step: the first table
    # violates subadditivity only below the sweep grids, so both lines
    # pass; the second fails lambda = 1, and its w^4, all below 1e-24,
    # fails too under the sweep's relative tolerance
    for name, weight in (("fine violation", FINE_VIOLATION_TABLE),
                         ("tiny values", TINY_TABLE)):
        yield f"weight check table with {name}", (
            "weight", "check", "--weight", weight)
    for weight in ("power:0.5", EXP_LOG_WEIGHT):
        yield f"grid build {weight}", ("grid", "build", "--weight", weight)
    for weight in ("power:1", EXP_LOG_WEIGHT):
        yield f"set entropy triadic {weight}", (
            "set", "entropy", "--set", "fixture:triadic", "--weight", weight,
            "--form", "both")
    # one weight in its two spec forms: the two results must be equal
    for weight in ("log:3", '{"kind": "log_power", "c": 3}'):
        yield f"set entropy triadic {weight}", (
            "set", "entropy", "--set", "fixture:triadic", "--weight", weight,
            "--form", "both")
    # gap integrals by certified Riemann sums: an iterated log and a table
    for name, weight in (("log:1,2", "log:1,2"),
                         ("concave table", CONCAVE_TABLE)):
        yield f"set entropy triadic {name}", (
            "set", "entropy", "--set", "fixture:triadic", "--weight", weight,
            "--form", "both")
    # no tail: the bracket is all explicit part
    yield "set entropy two_points log:1", (
        "set", "entropy", "--set", "fixture:two_points", "--weight", "log:1",
        "--form", "both")
    # gaps in any order: the set sorts them by start
    yield "set entropy triadic_union_point gaps reversed", (
        "set", "entropy", "--set", _union_point_set(reverse=True), "--weight",
        "power:1", "--form", "both")
    # finite sums of the log tails, bracketed by integral comparison
    for weight in ("exp_log:1,0.5", "log:1", "log:1,2"):
        yield f"set entropy harmonic_log {weight}", (
            "set", "entropy", "--set", "fixture:harmonic_log", "--weight",
            weight, "--form", "both")
    yield "set entropy harmonic_log log:1,2 sum", (
        "set", "entropy", "--set", "fixture:harmonic_log", "--weight",
        "log:1,2", "--form", "sum")
    yield "set entropy stagewise_divergent log:1,2", (
        "set", "entropy", "--set", "fixture:stagewise_divergent", "--weight",
        "log:1,2", "--form", "both")
    # no tail certificate: undecided, with no bounds
    yield "set entropy harmonic_log concave table", (
        "set", "entropy", "--set", "fixture:harmonic_log", "--weight",
        CONCAVE_TABLE, "--form", "both")
    yield "set entropy stagewise_divergent power:1", (
        "set", "entropy", "--set", "fixture:stagewise_divergent", "--weight",
        "power:1", "--form", "both")
    # a subnormal gap length: finite in both forms under every weight
    subnormal = json.dumps({"gaps": [[0, 1e-310], [1e-310, 1]]})
    for name, weight in (("log:1", "log:1"),
                         ("exp_log:1,0.5", "exp_log:1,0.5"),
                         ("log:1,2", "log:1,2"),
                         ("concave table", CONCAVE_TABLE)):
        yield f"set entropy subnormal gap {name}", (
            "set", "entropy", "--set", subnormal, "--weight", weight,
            "--form", "both")
    # geometric tails past the float range: counts that overflow, lengths
    # that underflow to 0 or to subnormals
    for params, weights in (([1, 1.9, 1, 0.5, 1060], ("log:1",)),
                            ([1, 2, 1, 1 / 3, 700], ("power:1",)),
                            ([1, 2, 1e-300, 0.3, 0],
                             ("power:1", "log:1", "exp_log:1,0.5")),
                            ([1, 100, 3e-303, 1e-3, 0], ("power:1",))):
        tailed = json.dumps({"gaps": [[0, 0.5], [0.5, 0.5]], "tail": {
            "kind": "geometric_levels", "params": params}})
        for weight in weights:
            yield f"set entropy geometric tail {params} {weight}", (
                "set", "entropy", "--set", tailed, "--weight", weight,
                "--form", "both")
    yield "dual fw-norm power:1.5", (
        "dual", "fw-norm", "--f", "[0,1]", "--weight", "power:1.5")
    yield "dual fw-norm power:0.5", (
        "dual", "fw-norm", "--f", "[0,1]", "--weight", "power:0.5")
    # the benchmark's kind of dual operation: a linear f, a power below 1
    yield "dual fw-norm [0.4194,1.0486] power:0.6063", (
        "dual", "fw-norm", "--f", "[0.4194,1.0486]", "--weight",
        "power:0.6063")
    yield "dual pair", ("dual", "pair", "--g", "[1,2,3]", "--f", "[0,1,0.5]")
    # 60 coefficients: the boundary cross-check must hold at high degree
    ones = json.dumps([1] * 60)
    yield "dual pair 60 ones", ("dual", "pair", "--g", ones, "--f", ones)


def results_block(argv) -> tuple:
    """(exit code, results block) of one in-process CLI run."""
    from gst import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    return code, json.loads(text)["results"] if text.strip() else None


def load_show(path) -> dict:
    """label -> (exit code, results block) from a ``--show`` output."""
    lines = Path(path).read_text().splitlines()
    out = {}
    for head, body in zip(lines[::2], lines[1::2]):
        _, code, label = head.split(" ", 2)
        out[label] = (int(code), json.loads(body))
    return out


def diff_blocks(a, b, path, moves, problems) -> None:
    """Walk two results blocks side by side: the largest relative move of
    each float field goes in ``moves``, any other difference in
    ``problems``."""
    if isinstance(a, float) and isinstance(b, float):
        same = a == b or (math.isnan(a) and math.isnan(b))
        rel = 0.0 if same else abs(a - b) / max(abs(a), abs(b))
        moves[path] = max(moves.get(path, 0.0), rel)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            diff_blocks(a[key], b[key], f"{path}.{key}" if path else key,
                        moves, problems)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            diff_blocks(x, y, path + "[]", moves, problems)
    elif type(a) is not type(b) or a != b:
        problems.append(f"{path or 'results'}: {a!r} != {b!r}")


def compare(path_a, path_b) -> int:
    a, b = load_show(path_a), load_show(path_b)
    bad = sorted(set(a) ^ set(b))
    for label in bad:
        print(f"{label}: in one output only")
    for label in (k for k in a if k in b):
        (code_a, res_a), (code_b, res_b) = a[label], b[label]
        moves, problems = {}, []
        if code_a != code_b:
            problems.append(f"exit code {code_a} != {code_b}")
        diff_blocks(res_a, res_b, "", moves, problems)
        print(label)
        for p in problems:
            print(f"  DIFFERS {p}")
        for field, rel in moves.items():
            print(f"  {field}: {rel:.3g}")
        if problems:
            bad.append(label)
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--show", action="store_true",
                    help="print each results block under its line")
    ap.add_argument("--compare", nargs=2, metavar="SHOW",
                    help="compare two --show outputs case by case")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    for label, argv in cases():
        code, results = results_block(argv)
        text = json.dumps(results, sort_keys=True)
        print(hashlib.sha256(text.encode()).hexdigest(), code, label)
        if args.show:
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
