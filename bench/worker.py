"""One workload process: set up, then run the closed loop or the traced tour.

    python3 -m bench.worker --workload NAME --seed N --seconds S \
        --mode setup|loop|trace [--part P] --spawned-at T

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts from process start.  The last line of
standard output is one JSON object with the raw measurements; ``run.py``
turns them into metrics.

``setup`` stops once set-up is done.  ``loop`` then runs operations back
to back until ``S`` seconds have passed, and then finishes the current
round of operation kinds (see ``bench/workloads.py``).  ``P`` seeds the
loop's inputs apart from the other loop processes of the same run.
``trace`` runs a fixed tour instead, the same for every ``NAME``: the
set-up and tour operations of every workload traced, then each short tour
operation untraced and traced back to back (the tracing overhead), then
the scaling sweep.  The work of a tour is the same on every commit, so its
per-layer totals compare directly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from statistics import median, quantiles

from bench import workloads

# operations per workload in the traced tour
TOUR = {"cyclicity": 1, "boundary": 1, "envelope": 12, "certify": 12}
# tracing overhead: untraced/traced pairs of the tour operations of these
# workloads, whose operations are short, in this many rounds
OVERHEAD_WORKLOADS = ("envelope", "certify")
OVERHEAD_ROUNDS = 2
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def attempt(wl, op) -> tuple:
    """(seconds, failure reason or None) of one checked operation.

    Only the gst call is timed; generating and checking are not.
    """
    start = time.perf_counter()
    try:
        output = wl.run(op)
    except Exception as exc:  # a failed operation is a result, not a crash
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return (time.perf_counter() - start,
                f"{type(exc).__name__}: {exc} ({where.filename}:"
                f"{where.lineno})")
    elapsed = time.perf_counter() - start
    try:
        reason = wl.check(op, output)
    except MALFORMED as exc:
        reason = f"malformed output: {exc!r}"
    return elapsed, reason


def closed_loop(wl, seconds: float) -> dict:
    """Whole rounds of operations, at least one, until ``seconds`` have
    passed."""
    ops = []
    start = time.perf_counter()
    while not ops or wl.count % len(wl.kinds) or \
            time.perf_counter() - start < seconds:
        op = wl.next_op()
        elapsed, reason = attempt(wl, op)
        ops.append((op.kind, elapsed, reason))
    return {"ops": ops}


def traced_tour(seed: int) -> dict:
    from bench import spans, sweep
    from gst import weights
    tracer = spans.Tracer()
    failures = []

    def run_one(wl, op, i):
        tracer.op = f"{wl.name}:{i}"
        elapsed, reason = attempt(wl, op)
        if reason is not None:
            failures.append(f"{wl.name} {op.kind}: {reason}")
        return elapsed

    def run_all(wl, ops):
        return sum(run_one(wl, op, i) for i, op in enumerate(ops))

    cache = weights.effective_lambda.cache_info()
    tour, traced = {}, {}
    spans.install(tracer)
    try:
        for name, count in TOUR.items():
            # a fresh instance, so set-up work such as the held realization
            # is traced too
            wl = workloads.make(name, seed)
            tracer.op = f"{name}:setup"
            idx = tracer.begin("bench.setup")
            wl.setup()
            tracer.end(idx)
            tour[name] = (wl, [wl.next_op() for _ in range(count)])
            traced[name] = run_all(*tour[name])
    finally:
        spans.uninstall(tracer)
    after = weights.effective_lambda.cache_info()
    hits = after.hits - cache.hits
    calls = hits + after.misses - cache.misses
    metrics = spans.layer_metrics(tracer, hits, calls)

    # Tracing overhead: each short tour operation runs untraced and traced
    # back to back, in alternating order, on a tracer of its own.  The host's
    # speed drifts by more than the overhead over seconds, so the pairs are
    # kept short; the median traced/untraced ratio of the pairs is reported.
    short = []
    for name in OVERHEAD_WORKLOADS:
        wl, ops = tour[name]
        short += [(wl, i, op) for i, op in enumerate(ops)]
    probe = spans.Tracer()
    ratios = []
    for r in range(OVERHEAD_ROUNDS):
        for j, (wl, i, op) in enumerate(short):
            times = {}
            for traced_pass in ((r + j) % 2 == 1, (r + j) % 2 == 0):
                if traced_pass:
                    spans.install(probe)
                try:
                    times[traced_pass] = run_one(wl, op, i)
                finally:
                    spans.uninstall(probe)
            ratios.append(times[True] / times[False])
    metrics["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0)
    metrics.update(sweep.run(seed))
    return {"metrics": metrics,
            "attempted": sum(TOUR.values()) + 2 * len(ratios),
            "failed": len(failures), "failures": failures[:10],
            "tour_s": traced,
            "overhead": {"pairs": len(ratios),
                         "traced_over_untraced_quartiles":
                             quantiles(ratios, n=4)},
            "self_s_by_workload": spans.self_by_op_group(tracer)}


def provenance() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "loop", "trace"),
                   required=True)
    p.add_argument("--part", type=int, default=0,
                   help="number of this loop process within the run")
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)
    if args.mode == "trace":  # the tour is the same for every workload
        out = traced_tour(args.seed)
    else:
        wl = workloads.make(args.workload, args.seed, args.part)
        wl.setup()
        out = {"setup_s": time.monotonic() - args.spawned_at}
        if args.mode == "loop":
            out.update(closed_loop(wl, args.seconds))
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["provenance"] = provenance()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
