"""Run one gst benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is the ``src/gst`` tree next to this
directory, imported from source.  Workloads: cyclicity, boundary and
certify (BENCHMARK.json says why each exists), and envelope, which runs
but is left out of BENCHMARK.json (see ``bench/workloads.py``).  Each runs
as a closed loop with one caller in fresh single-threaded Python processes
(OMP/OPENBLAS/MKL threads pinned to 1).

With ``--trace 0`` the end-to-end metrics are measured with tracing off:
set-up is done ``SETUP_RUNS`` times in separate processes and its median
reported; the last ``processes`` of them (a workload attribute) then run
the timed loop, splitting the seconds between them, and their operations
are pooled.  With ``--trace 1`` one process runs the fixed traced tour of
``bench/worker.py`` and the per-layer metrics are reported, with the
tracing overhead.

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it carries sample
counts, the tail percentile, failures and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from bench.workloads import WORKLOADS  # noqa: E402  (no gst import)

SETUP_RUNS = 4
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile that
    still has TAIL_BEYOND samples above it; the maximum when there are too
    few samples for that."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def loop_values(setups: list, ok: list, failed: list, rss: float) -> dict:
    busy = sum(ok) + sum(failed)
    return {"ops_per_s": len(ok) / busy if busy else 0.0,
            "op_p50_s": median(ok) if ok else 0.0,
            "op_tail_s": tail(ok)[0] if ok else 0.0,
            "setup_s": median(setups),
            "peak_rss_mb": rss}


def declared(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with its units.

    BENCHMARK.json is the one list of metric names: a measured value it
    does not name, or a name with no measured value, is an error.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(values):
        raise BenchError(f"measured {kind} metrics differ from BENCHMARK.json:"
                         f" missing {sorted(set(units) - set(values))}, "
                         f"undeclared {sorted(set(values) - set(units))}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return env


def spawn(args, mode: str, deadline: float, part: int = 0,
          seconds: float = 0.0) -> dict:
    """Start one worker, wait for it to end, return its result object."""
    cmd = [sys.executable, "-m", "bench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--mode", mode, "--part", str(part)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s "
                         "deadline")
    finally:  # also on SIGTERM: no worker outlives this process
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def resolve_ref(git: Path, ref: str):
    """Commit id of ``ref``: its loose ref file, else its line in
    ``packed-refs``, else None."""
    loose = git / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def source_provenance() -> dict:
    """Commit id when the checkout is a git work tree, and a digest of the
    gst sources either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gst").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            commit = resolve_ref(git, commit[5:])
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit, "gst_sources_sha256": digest.hexdigest(),
            "cpu_model": cpu}


def measure(args) -> tuple:
    """(result object, detail object) of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        res = spawn(args, "trace", deadline)
        metrics = declared(res["metrics"], "per_layer")
        attempted, failed = res["attempted"], res["failed"]
        detail.update({k: res[k] for k in ("failures", "tour_s", "overhead",
                                           "self_s_by_workload")})
    else:
        processes = WORKLOADS[args.workload].processes
        setups, ops, rss = [], [], 0.0
        for part in range(SETUP_RUNS):
            if part < SETUP_RUNS - processes:
                res = spawn(args, "setup", deadline, part)
            else:
                res = spawn(args, "loop", deadline, part,
                            args.seconds / processes)
                ops += res["ops"]
                rss = max(rss, res["peak_rss_mb"])
            setups.append(res["setup_s"])
        latencies = [t for _, t, reason in ops if reason is None]
        failures = [f"{kind}: {reason}" for kind, _, reason in ops if reason]
        metrics = declared(loop_values(
            setups, latencies, [t for _, t, reason in ops if reason], rss),
            "end_to_end")
        ok, failed, attempted = len(latencies), len(failures), len(ops)
        _, percentile, beyond = tail(latencies) if ok else (0, 0, 0)
        samples = {"ops_per_s": {"samples": ok},
                   "op_p50_s": {"samples": ok},
                   "op_tail_s": {"samples": ok, "percentile": percentile,
                                 "samples_beyond": beyond},
                   "setup_s": {"samples": len(setups), "runs": setups},
                   "peak_rss_mb": {"samples": processes}}
        e2e = {k: {**v, **samples[k]} for k, v in metrics.items()}
        e2e["failed_frac"] = {"value": failed / attempted if attempted else
                              0.0, "unit": "1", "samples": attempted}
        kinds = {}
        for kind, t, reason in ops:
            if reason is None:
                kinds.setdefault(kind, []).append(t)
        detail.update({"end_to_end": e2e, "processes": processes,
                       "kinds": {k: {"samples": len(v), "p50_s": median(v)}
                                 for k, v in kinds.items()},
                       "failures": failures[:10]})
    detail["attempted"], detail["failed"] = attempted, failed
    detail["provenance"] = {**source_provenance(), **res["provenance"]}
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gst" / "__init__.py").is_file():
        print(f"error: no gst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
