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

The cases: ``report cyclicity`` on the divergent Cantor fixture and on the
first input of the benchmark's ``cyclicity`` workload at seeds 1-3;
``inner eval`` on triadic measures of 2^10 and 2^14 atoms; ``measure
decompose``; ``privalov check`` and ``carleson build --N auto`` on the
one-point set and the triadic sets of depth 5-7, and the first input of
the ``boundary`` workload at seeds 1-3; ``weight check --alpha 0.5`` on
four majorants and a table weight that is not subadditive; ``grid build``;
``set entropy --form both`` on the triadic set.  ``--show`` prints each
results block under its line.

Usage:
    PYTHONPATH=src python scripts/results_digest.py [--show]
"""

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for bench

from bench.workloads import Boundary, Cyclicity  # noqa: E402

SEEDS = (1, 2, 3)
WEIGHTS = ("power:0.3", "power:0.7", "power:1.5", "exp_log:1.0,0.8")
# 2 w(1/8) < w(1/4): not subadditive, first seen at depth 3
TABLE_WEIGHT = json.dumps({"kind": "table", "lambda_hint": 0.5, "points": [
    [0, 0], [0.09, 0.1], [0.19, 0.25], [1, 1]]})
Z_POINTS = ("0.3+0.1i", "0.99", "-0.5+0.8i", "0.0005-0.9999i")


def _triadic_measure(stages: int) -> str:
    return json.dumps({"cantor": [{"generator": "triadic", "depth": stages,
                                   "mass": 1.0}]})


def _triadic_set(depth: int) -> str:
    from gst import circle, fixtures
    return json.dumps(circle.set_to_json(fixtures.triadic_cantor_set(depth)))


def cases():
    """(label, argv) of every invocation, in a fixed order."""
    yield "report cyclicity divergent_cantor", (
        "report", "cyclicity", "--measure", "fixture:divergent_cantor",
        "--weight", "power:1")
    for seed in SEEDS:
        yield f"report cyclicity workload seed {seed}", \
            Cyclicity(seed).next_op().argv
    for stages in (10, 14):
        for z in Z_POINTS:
            yield f"inner eval 2^{stages} atoms z={z}", (
                "inner", "eval", "--measure", _triadic_measure(stages),
                "--z", z)
    for fixture in ("triadic_cantor", "divergent_cantor"):
        yield f"measure decompose {fixture}", (
            "measure", "decompose", "--measure", f"fixture:{fixture}",
            "--weight", "power:1", "--grid", "[4,8,12,16,20,24]",
            "--kmax", "6")
    sets = [("point", "fixture:point")] + [
        (f"triadic {d}", _triadic_set(d)) for d in (5, 6, 7)]
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
        yield f"boundary workload seed {seed}", workload.next_op().argv
    for name, weight in [(w, w) for w in WEIGHTS] + [("table", TABLE_WEIGHT)]:
        yield f"weight check {name}", (
            "weight", "check", "--weight", weight, "--alpha", "0.5")
    yield "grid build power:0.5", ("grid", "build", "--weight", "power:0.5")
    yield "set entropy triadic power:1", (
        "set", "entropy", "--set", "fixture:triadic", "--weight", "power:1",
        "--form", "both")


def results_block(argv) -> tuple:
    """(exit code, results block) of one in-process CLI run."""
    from gst import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    return code, json.loads(text)["results"] if text.strip() else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--show", action="store_true",
                    help="print each results block under its line")
    args = ap.parse_args()
    for label, argv in cases():
        code, results = results_block(argv)
        text = json.dumps(results, sort_keys=True)
        print(hashlib.sha256(text.encode()).hexdigest(), code, label)
        if args.show:
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
