"""Tests of the benchmark itself: generators, checks, tracing arithmetic.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench import run, spans, workloads
from bench.spans import Span

ROOT = Path(__file__).resolve().parent.parent


def _ops(name, seed, count):
    wl = workloads.make(name, seed)
    if name in ("boundary", "certify"):
        wl.setup()
    return [wl.next_op() for _ in range(count)]


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    assert _ops(name, 7, 12) == _ops(name, 7, 12)
    assert _ops(name, 7, 12) != _ops(name, 8, 12)


def test_loop_processes_draw_apart():
    wl = workloads.make("envelope", 7, 1)
    assert [wl.next_op() for _ in range(4)] != _ops("envelope", 7, 4)


class _Counting(workloads.Workload):
    kinds = ("a", "b", "c")

    def next_op(self):
        return workloads.Op(self.next_kind())

    def run(self, op):
        return op.kind

    def check(self, op, output):
        return None if output == op.kind else "wrong kind"


def test_closed_loop_runs_whole_rounds():
    from bench import worker
    ops = worker.closed_loop(_Counting(1), 0.0)["ops"]
    assert [kind for kind, _, _ in ops] == ["a", "b", "c"]
    assert all(reason is None for _, _, reason in ops)


def test_certify_round_holds_one_weight_per_stratum():
    wl = workloads.make("certify", 7)
    wl.setup()
    ops = [wl.next_op() for _ in range(len(wl.kinds))]
    specs = [op.argv[3] for op in ops if op.kind == "weight"]
    assert len(specs) == len(wl.weight_strata) == 4
    assert [s.split(":")[0] for s in specs] == \
        ["power", "power", "power", "exp_log"]


def test_boundary_run_starts_unrotated():
    ops = _ops("boundary", 3, 3)
    assert [op.params[0] == 0.0 for op in ops] == [True, False, False]


def test_certify_round_passes_its_checks():
    wl = workloads.make("certify", 5)
    wl.setup()
    for _ in range(len(wl.kinds)):
        op = wl.next_op()
        assert wl.check(op, wl.run(op)) is None, op.kind


def test_triadic_enumeration_matches_program_masses():
    from gst import circle, fixtures
    stages = 8
    mu = fixtures.triadic_cantor_measure(stages)
    nums = workloads.triadic_numerators(stages)
    assert nums == sorted(workloads.triadic_numerator(i, stages)
                          for i in range(2 ** stages))
    for start, length in ((0.0, 1.0), (0.1, 0.3), (0.9, 0.25), (2 / 3, 1e-3),
                          (0.5, 0.5)):
        want = workloads.arc_count(nums, 3 ** stages, start, length)
        got = mu.mass_of_arc(circle.Arc(start, length)).mass
        assert got == want * 2.0 ** -stages


def test_arc_count_is_half_open():
    nums, denom = [0, 1, 3], 4  # points 0, 1/4, 3/4
    assert workloads.arc_count(nums, denom, 0.25, 0.5) == 1
    assert workloads.arc_count(nums, denom, 0.75, 0.5) == 2  # wraps past 1
    assert workloads.arc_count(nums, denom, 0.5, 0.25) == 0


# -- checks reject corrupted results -------------------------------------------

CYCLICITY_OK = {"verdict": "cyclic evidence: mu_C = mu", "total_mass": 0.6,
                "mass_balance_error": 0.0,
                "residual_decay": [{"k_max": 2, "residual_mass": 0.3},
                                   {"k_max": 4, "residual_mass": 0.1},
                                   {"k_max": 6, "residual_mass": 0.1}],
                "corona_margins": [{"ok": True}, {"ok": True}]}


def _with(base, **changes):
    out = json.loads(json.dumps(base))
    out.update(changes)
    return out


def test_cyclicity_check():
    assert workloads.check_cyclicity(0, CYCLICITY_OK) is None
    bad = [
        (0, _with(CYCLICITY_OK, verdict="not cyclic: mu_P nonzero")),
        (0, _with(CYCLICITY_OK, mass_balance_error=1e-9)),
        (0, _with(CYCLICITY_OK, residual_decay=[
            {"k_max": 2, "residual_mass": 0.1},
            {"k_max": 4, "residual_mass": 0.2}])),
        (0, _with(CYCLICITY_OK, corona_margins=[{"ok": True}, {"ok": False}])),
        (2, CYCLICITY_OK),
    ]
    for code, res in bad:
        assert workloads.check_cyclicity(code, res) is not None


def test_boundary_check():
    ref = {"N_used": 8.0, "max_ratio": 2.489238095623063e-07, "ok": True}
    rotated = _with(ref, max_ratio=ref["max_ratio"] * (1 + 1e-11))
    assert workloads.check_boundary(0, ref, None) is None
    assert workloads.check_boundary(0, rotated, ref) is None
    assert workloads.check_boundary(0, _with(ref, N_used=16.0), ref)
    assert workloads.check_boundary(
        0, _with(ref, max_ratio=ref["max_ratio"] * (1 + 1e-6)), ref)
    assert workloads.check_boundary(0, _with(ref, ok=False), None)
    assert workloads.check_boundary(1, ref, None)


def test_envelope_checks():
    unit = 2.0 ** -workloads.ENVELOPE_STAGES
    assert workloads.check_arc_mass(5 * unit, 0.0, 5 * unit) is None
    assert workloads.check_arc_mass(6 * unit, 0.0, 5 * unit)
    assert workloads.check_arc_mass(5 * unit, 1e-17, 5 * unit)
    assert workloads.check_lower_bound(0.3, True) is None
    assert workloads.check_lower_bound(-1e-6, False)
    assert workloads.check_inner(0.5 + 0.1j, 1e-12, 1e-10) is None
    assert workloads.check_inner(0.5, 2e-10, 1e-10)
    assert workloads.check_inner(1.01, 1e-12, 1e-10)


def test_certify_checks():
    tags = {"sum": {"tag": "finite"}, "integral": {"tag": "finite"}}
    assert workloads.check_entropy(0, tags, True) is None
    assert workloads.check_entropy(0, tags, False)
    assert workloads.check_entropy(
        0, _with(tags, integral={"tag": "diverges"}), True)
    grid = {"is_w_grid": True, "depths": [4, 12, 36, 108]}
    assert workloads.check_grid(0, grid, 4, 3) is None
    assert workloads.check_grid(0, _with(grid, is_w_grid=False), 4, 3)
    assert workloads.check_grid(1, grid, 4, 3)
    cls = {"undecided_components": 0, "total_mass": 1.0, "mu_P_mass": 1.0,
           "mu_C_mass": 0.0}
    assert workloads.check_classify(0, cls, True) is None
    assert workloads.check_classify(0, cls, False)
    good = workloads.fw_norm_linear(0.5, 1.0, 0.5)
    dual = {"tag": "finite", "value": good}
    assert workloads.check_dual(0, dual, 0.5, 1.0, 0.5) is None
    assert workloads.check_dual(0, _with(dual, value=good * 1.001),
                                0.5, 1.0, 0.5)
    assert workloads.check_dual(0, dual, 0.5, 1.0, 1.5)
    weight = {"majorant": {"ok": True}, "A2": {"ok": True,
                                               "dini_integral": 4.0},
              "modulus_of_continuity": {"ok": True}}
    assert workloads.check_weight(0, weight, 0.5) is None
    assert workloads.check_weight(0, weight, 1.5)
    assert workloads.check_weight(
        0, _with(weight, A2={"ok": True, "dini_integral": 4.1}), 0.5)


# -- tracing --------------------------------------------------------------------

def test_self_time_on_a_synthetic_tree():
    tree = [Span("root", 0.0, 10.0, None, "w:0"),
            Span("a", 1.0, 3.0, 0, "w:0"),
            Span("b", 2.0, 5.0, 0, "w:0"),     # overlaps a: union is [1, 5]
            Span("c", 9.0, 12.0, 0, "w:0"),    # clipped to [9, 10]
            Span("d", 1.5, 2.0, 1, "w:0"),     # grandchild, inside a
            Span("other", 20.0, 21.0, None, "v:0")]
    assert spans.self_times(tree) == pytest.approx(
        [10 - 4 - 1, 2 - 0.5, 3, 3, 0.5, 1])
    tr = spans.Tracer()
    tr.spans = tree
    assert spans.self_by_op_group(tr) == {
        "w": {"root": 5, "a": 1.5, "b": 3, "c": 3, "d": 0.5},
        "v": {"other": 1}}


def _unpatched(tr):
    """(holder, name) pairs in gst modules and classes that still hold an
    original traced function."""
    originals = {id(original) for _, _, original in tr._patches}
    modules = spans._gst_modules()
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return [(h.__name__, key) for h in modules + classes
            for key, value in vars(h).items() if id(value) in originals]


def test_install_reaches_every_binding_and_uninstall_restores():
    from gst import entropy, grids, inner_outer, privalov, roberts
    before = (inner_outer.entropy_sum, roberts.verify_grid,
              privalov.carleson_many, inner_outer.modulus_of_continuity)
    tr = spans.Tracer()
    spans.install(tr)
    try:
        assert _unpatched(tr) == []
        assert len(tr._patches) > len(spans.TRACED)  # rebound names too
        assert inner_outer.entropy_sum is entropy.entropy_sum
        assert roberts.verify_grid is grids.verify_grid
        assert privalov.carleson_many is inner_outer.carleson_many
        from gst import weights
        roberts.verify_grid(grids.DyadicGrid((4, 8)), weights.power(1.0))
    finally:
        spans.uninstall(tr)
    assert [s.name for s in tr.spans] == ["grids.verify"]
    assert (inner_outer.entropy_sum, roberts.verify_grid,
            privalov.carleson_many,
            inner_outer.modulus_of_continuity) == before


def test_traced_counts_on_a_small_measure():
    import numpy as np
    from gst import fixtures, inner_outer
    mu = fixtures.triadic_cantor_measure(6)
    tr = spans.Tracer()
    spans.install(tr)
    try:
        inner_outer.log_modulus_many(mu, np.zeros(3, dtype=complex))
        mu.realized()
    finally:
        spans.uninstall(tr)
    m = spans.layer_metrics(tr, 0, 0)
    assert m["inner_outer.herglotz_kernel_evals"] == 3 * 64
    assert m["circle.atoms_realized"] == 64
    assert m["circle.realize_hit_ratio"] > 0


# -- metrics and BENCHMARK.json -------------------------------------------------

def test_commit_from_loose_or_packed_ref(tmp_path):
    (tmp_path / "refs" / "heads").mkdir(parents=True)
    (tmp_path / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        "1111 refs/heads/main\n2222 refs/heads/side\n")
    assert run.resolve_ref(tmp_path, "refs/heads/side") == "2222"
    (tmp_path / "refs" / "heads" / "side").write_text("3333\n")
    assert run.resolve_ref(tmp_path, "refs/heads/side") == "3333"
    assert run.resolve_ref(tmp_path, "refs/heads/gone") is None


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail(xs)
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    assert sum(x > value for x in xs) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_names_every_measured_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == \
        set(workloads.WORKLOADS) - {"envelope"}
    e2e = run.loop_values([1.0], [0.5, 0.25], [], 100.0)
    assert run.declared(e2e, "end_to_end")["op_p50_s"] == \
        {"value": 0.375, "unit": "s"}
    with pytest.raises(run.BenchError):
        run.declared({**e2e, "extra_s": 1.0}, "end_to_end")
    # per-layer names: the tour's, the sweep's size-suffixed ones (checked
    # against BENCHMARK.json in every traced run), and the overhead
    layer_names = {m["name"] for m in spec["per_layer"]}
    traced = set(spans.layer_metrics(spans.Tracer(), 0, 0))
    assert traced <= layer_names
    assert {name for name in layer_names - traced
            if not re.search(r"_s\.[at]\d+$", name)} == {"trace.overhead_pct"}
