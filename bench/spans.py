"""Spans and counters for the traced run, recorded from outside gst.

``install`` replaces each traced gst function with a wrapper that records
a span (name, start, end, parent, operation id) and updates counters
derived from the call's arguments and return value.  A function is
replaced wherever gst looks it up: on its class for methods, and in every
gst module that holds a reference to it (``from .x import y`` rebinds the
name, and a wrapper on the defining module alone would miss those calls).
``uninstall`` puts the originals back.

A span's self time is its duration minus the part of that interval its
child spans cover.  Every ``*_s`` per-layer metric is a sum of self times.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = None
        self.originals: dict = {}
        self._stack: list = []
        self._patches: list = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, before=None):
        def traced(*args, **kwargs):
            pre = before(args) if before else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count:
                count(self, args, result, pre)
            return result
        traced.__wrapped__ = fn
        return traced


def self_times(spans: list) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted((max(spans[c].start, s.start),
                            min(spans[c].end, s.end)) for c in children[i]):
            if b > reach:
                covered += b - max(a, reach)
                reach = b
        out.append(s.end - s.start - covered)
    return out


# ---------------------------------------------------------------------------
# What is traced, and the counts derived at each boundary
# ---------------------------------------------------------------------------

def _atoms(tr: Tracer, mu) -> int:
    return len(tr.originals["circle.realize"](mu)[1])


def _size(z) -> int:
    return getattr(z, "size", None) or len(z)


def _realize(tr, args, result, cached):
    if cached:
        tr.counters["circle.realize_hits"] += 1
    else:
        tr.counters["circle.atoms_realized"] += len(result[1])


def _grate(tr, args, result, pre):
    tr.counters["roberts.heavy_arcs"] += result[1].heavy_count


def _herglotz(tr, args, result, pre):
    tr.counters["inner_outer.herglotz_kernel_evals"] += \
        _size(args[1]) * _atoms(tr, args[0])


def _corona(tr, args, result, pre):
    tr.counters["inner_outer.corona_samples"] += result.n_samples


def _whitney(tr, args, result, pre):
    tr.counters["inner_outer.whitney_arcs"] += len(result.arcs)


def _auto_n(tr, args, result, pre):
    tr.counters["inner_outer.auto_N_accepted"] += 1


def _psi(tr, args, result, pre):
    tr.counters["inner_outer.psi_kernel_evals"] += \
        _size(args[1]) * args[0].coeffs.size


def _samples(tr, args, result, pre):
    tr.counters["privalov.samples"] += len(result[0])


def _is_realized(args) -> bool:
    return getattr(args[0], "_realized", None) is not None


# (module, attribute, span name, counter, pre-call probe)
TRACED = (
    ("gst.cli", "main", "cli.main", None, None),
    ("gst.weights", "from_spec", "cli.parse", None, None),
    ("gst.circle", "measure_from_json", "cli.parse", None, None),
    ("gst.circle", "set_from_json", "cli.parse", None, None),
    ("gst.grids", "grid_from_json", "cli.parse", None, None),
    ("gst.fixtures", "named_fixture", "cli.parse", None, None),
    ("gst.util", "emit", "cli.emit", None, None),
    ("gst.circle", "CircleMeasure.realized", "circle.realize", _realize,
     _is_realized),
    ("gst.circle", "CircleMeasure.positions_float", "circle.positions_float",
     None, None),
    ("gst.circle", "CircleMeasure.arc_masses_at_depth", "circle.arc_masses",
     None, None),
    ("gst.circle", "CircleMeasure.mass_of_arc", "circle.mass_of_arc", None,
     None),
    ("gst.circle", "modulus_of_continuity", "circle.modulus", None, None),
    ("gst.roberts", "grate", "roberts.grate", _grate, None),
    ("gst.roberts", "decompose", "roberts.decompose", None, None),
    ("gst.inner_outer", "_herglotz_sum", "inner_outer.herglotz", _herglotz,
     None),
    ("gst.inner_outer", "corona_datum_check", "inner_outer.corona", _corona,
     None),
    ("gst.inner_outer", "lower_bound_check", "inner_outer.lower_bound", None,
     None),
    ("gst.inner_outer", "whitney", "inner_outer.whitney", _whitney, None),
    ("gst.inner_outer", "carleson_outer", "inner_outer.carleson_build", None,
     None),
    ("gst.inner_outer", "auto_carleson_N", "inner_outer.auto_N", _auto_n,
     None),
    ("gst.inner_outer", "psi_sum_many", "inner_outer.psi", _psi, None),
    ("gst.inner_outer", "carleson_many", "inner_outer.carleson_many", None,
     None),
    ("gst.privalov", "privalov_boundary_estimate", "privalov.estimate", None,
     None),
    ("gst.privalov", "boundary_samples_with_profile", "privalov.samples",
     _samples, None),
    ("gst.entropy", "entropy_sum", "entropy.sum", None, None),
    ("gst.entropy", "entropy_integral", "entropy.integral", None, None),
    ("gst.entropy", "classify_measure", "entropy.classify", None, None),
    ("gst.weights", "check_modulus_of_continuity", "weights.check", None,
     None),
    ("gst.weights", "check_majorant", "weights.check", None, None),
    ("gst.weights", "check_A1", "weights.check", None, None),
    ("gst.weights", "check_A2", "weights.check", None, None),
    ("gst.weights", "effective_lambda", "weights.effective_lambda", None,
     None),
    ("gst.grids", "build_grid", "grids.build", None, None),
    ("gst.grids", "verify_grid", "grids.verify", None, None),
    ("gst.duality", "fw_norm", "duality.fw_norm", None, None),
)


def _gst_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "gst" or name.startswith("gst.")]


def install(tr: Tracer) -> None:
    for module, attr, name, count, before in TRACED:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        tr.originals.setdefault(name, original)
        wrapper = tr.wrap(name, original, count, before)
        holders = [owner] + [m for m in _gst_modules() if m is not owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    tr._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)


def uninstall(tr: Tracer) -> None:
    while tr._patches:
        holder, key, original = tr._patches.pop()
        setattr(holder, key, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, lambda_hits: int, lambda_calls: int) -> dict:
    """Per-layer metrics of everything traced so far.

    ``lambda_hits``/``lambda_calls`` are the effective_lambda cache's hit
    and call counts over the traced region (from ``cache_info()``).
    """
    s, n = defaultdict(float), Counter()
    for span, t in zip(tr.spans, self_times(tr.spans)):
        s[span.name] += t
        n[span.name] += 1
    c = tr.counters
    return {
        "circle.realize_s": s["circle.realize"],
        "circle.realize_calls": n["circle.realize"],
        "circle.realize_hit_ratio": _ratio(c["circle.realize_hits"],
                                           n["circle.realize"]),
        "circle.atoms_realized": c["circle.atoms_realized"],
        "circle.positions_float_s": s["circle.positions_float"],
        "circle.positions_float_calls": n["circle.positions_float"],
        "circle.arc_masses_s": s["circle.arc_masses"],
        "circle.arc_masses_calls": n["circle.arc_masses"],
        "circle.mass_of_arc_s": s["circle.mass_of_arc"],
        "circle.modulus_s": s["circle.modulus"],
        "circle.modulus_calls": n["circle.modulus"],
        "roberts.grate_s": s["roberts.grate"],
        "roberts.grate_calls": n["roberts.grate"],
        "roberts.decompose_s": s["roberts.decompose"],
        "roberts.decompose_calls": n["roberts.decompose"],
        "roberts.heavy_arcs": c["roberts.heavy_arcs"],
        "inner_outer.herglotz_s": s["inner_outer.herglotz"],
        "inner_outer.herglotz_calls": n["inner_outer.herglotz"],
        "inner_outer.herglotz_kernel_evals":
            c["inner_outer.herglotz_kernel_evals"],
        "inner_outer.herglotz_ns_per_eval": 1e9 * _ratio(
            s["inner_outer.herglotz"], c["inner_outer.herglotz_kernel_evals"]),
        "inner_outer.corona_s": s["inner_outer.corona"],
        "inner_outer.corona_samples": c["inner_outer.corona_samples"],
        "inner_outer.lower_bound_s": s["inner_outer.lower_bound"],
        "inner_outer.whitney_s": s["inner_outer.whitney"],
        "inner_outer.whitney_arcs": c["inner_outer.whitney_arcs"],
        "inner_outer.carleson_build_s": s["inner_outer.carleson_build"],
        "inner_outer.carleson_builds": n["inner_outer.carleson_build"],
        "inner_outer.auto_N_accept_ratio": _ratio(
            c["inner_outer.auto_N_accepted"], n["inner_outer.carleson_build"]),
        "inner_outer.psi_s": s["inner_outer.psi"],
        "inner_outer.psi_kernel_evals": c["inner_outer.psi_kernel_evals"],
        "inner_outer.psi_ns_per_eval": 1e9 * _ratio(
            s["inner_outer.psi"], c["inner_outer.psi_kernel_evals"]),
        "privalov.estimate_s": s["privalov.estimate"],
        "privalov.estimate_calls": n["privalov.estimate"],
        "privalov.samples_s": s["privalov.samples"],
        "privalov.samples": c["privalov.samples"],
        "entropy.sum_s": s["entropy.sum"],
        "entropy.sum_calls": n["entropy.sum"],
        "entropy.integral_s": s["entropy.integral"],
        "entropy.integral_calls": n["entropy.integral"],
        "entropy.classify_s": s["entropy.classify"],
        "weights.check_s": s["weights.check"],
        "weights.check_calls": n["weights.check"],
        "weights.effective_lambda_s": s["weights.effective_lambda"],
        "weights.lambda_cache_hit_ratio": _ratio(lambda_hits, lambda_calls),
        "grids.build_s": s["grids.build"],
        "grids.verify_s": s["grids.verify"],
        "grids.verify_calls": n["grids.verify"],
        "duality.fw_norm_s": s["duality.fw_norm"],
        "cli.parse_s": s["cli.parse"],
        "cli.emit_s": s["cli.emit"],
        "cli.self_s": s["cli.main"],
    }


def self_by_op_group(tr: Tracer) -> dict:
    """{operation group: {span name: self seconds}}, where an operation id
    ``group:i`` names the workload the span was recorded under."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for span, t in zip(tr.spans, self_times(tr.spans)):
        group = (span.op or "").split(":")[0]
        out[group][span.name] += t
    return {g: dict(v) for g, v in out.items()}
