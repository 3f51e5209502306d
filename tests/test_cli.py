"""Command-line interface: subcommands, report schema, exit codes."""

import io
import json
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gst import (circle, cli, duality, entropy, fixtures, grids, inner_outer,
                 privalov, roberts, weights)
from gst.grids import DyadicGrid


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestSubcommands:
    def test_weight_check(self, capsys):
        code, rep = run(["weight", "check", "--weight", "power:0.5"], capsys)
        assert code == 0
        assert rep["schema"] == "gst-1"
        assert rep["results"]["majorant"]["ok"]

    # (spec, slope_proofs) with --alpha 0.5: the records prove the majorant
    # λ; only t^1.5's λ = 4, 2 and 1 (slope 1.5 > 1) and the λ = 4 and 2
    # candidates of t^0.3 and exp_log take the sweep.  The modulus line
    # is the majorant walk's λ = 1 step, never swept again.  No record settles the table at λ = 1 (its last
    # segment meets t = 0 at -0.1), so its majorant search is swept, and
    # its λ is evidence.  A2 reads the majorant verdict and adds no proof
    # and no sweep row, and no weight is sampled for continuity, so meta
    # counts no continuity grid.
    @pytest.mark.parametrize("spec, proofs", [
        ("power:1.5", 1), ("power:0.3", 1), ("exp_log:1.0,0.8", 1),
        (json.dumps({"kind": "table", "lambda_hint": 0.5, "points": [
            [0, 0], [0.5, 0.5], [0.6, 0.5], [1, 0.9]]}), 0)],
        ids=["power:1.5", "power:0.3", "exp_log:1.0,0.8", "table"])
    def test_weight_check_meta_counts_proofs_and_sweeps(self, spec, proofs,
                                                        capsys):
        code, rep = run(["weight", "check", "--weight", spec, "--alpha",
                         "0.5"], capsys)
        assert code == 0
        assert "continuity_grids" not in rep["meta"]
        assert rep["meta"]["slope_proofs"] == proofs
        assert rep["meta"]["majorant_certified"] == ("table" not in spec)
        assert rep["meta"]["sweep_rows"] > 0
        for key in ("slope_proofs", "sweep_rows", "majorant_certified"):
            assert key not in rep["results"]
        _, plain = run(["weight", "check", "--weight", spec], capsys)
        for key in ("slope_proofs", "sweep_rows"):
            assert rep["meta"][key] == plain["meta"][key]

    # the report's λ is the one every downstream bracket uses: for t^1.5
    # the hint 1/1.5, which the search over DEFAULT_LAMBDAS alone missed
    @pytest.mark.parametrize("spec", ["power:1.5", "power:0.3", "log:1.7",
                                      "exp_log:1.3197,0.7744"])
    def test_weight_check_lambda_is_effective_lambda(self, spec, capsys):
        code, rep = run(["weight", "check", "--weight", spec], capsys)
        assert code == 0
        assert rep["results"]["majorant"]["lambda"] == \
            weights.effective_lambda(weights.from_spec(spec))
        if spec == "power:1.5":
            assert rep["results"]["majorant"]["lambda"] == 1.0 / 1.5

    # t^0.15 and exp_log(0.17, 0.8) rise by more than 1e-2 in one step of
    # 2^-20 near 0, yet are continuous: their records prove them unswept
    @pytest.mark.parametrize("spec", ["power:0.15", "exp_log:0.17,0.8"])
    def test_weight_check_proves_small_exponents(self, spec, capsys):
        code, rep = run(["weight", "check", "--weight", spec], capsys)
        assert code == 0
        assert rep["results"]["modulus_of_continuity"] == {
            "ok": True, "witness": None, "reason": ""}
        assert rep["meta"]["majorant_certified"]
        assert rep["meta"]["sweep_rows"] == 0

    # exp_log with beta > 1 is no majorant; the grids passed λ = 4 and 0.25
    @pytest.mark.parametrize("spec", ["exp_log:0.1,1.2", "exp_log:0.5,1.5"])
    def test_weight_check_disproves_exp_log_beta_above_one(self, spec,
                                                           capsys):
        code, rep = run(["weight", "check", "--weight", spec], capsys)
        assert code == 0
        assert rep["results"]["majorant"] == {"ok": False, "lambda": None}
        assert not rep["results"]["modulus_of_continuity"]["ok"]
        assert rep["meta"]["majorant_certified"]
        assert rep["meta"]["sweep_rows"] == 0

    # w(0) = 1e-13 makes the Dini integral infinite, which no finite A2
    # bracket may claim: a table must start at exactly (0, 0)
    def test_weight_check_rejects_a_table_off_zero(self, capsys):
        code, out = run(["weight", "check", "--weight", json.dumps(
            {"kind": "table", "lambda_hint": 0.5, "points": [
                [0, 1e-13], [0.25, 0.5], [0.5, 0.75], [1, 1]]}),
            "--alpha", "0.5"], capsys)
        assert code == 1 and out == ""

    # a table's tail is in closed form, with or without a lambda_hint
    def test_weight_check_dini_bracket_of_a_table(self, capsys):
        code, rep = run(["weight", "check", "--weight", json.dumps(
            {"kind": "table", "points": [
                [0, 0], [0.25, 0.5], [0.5, 0.75], [1, 1]]}),
            "--alpha", "0.5"], capsys)
        assert code == 0
        a2 = rep["results"]["A2"]
        assert a2["ok"] and a2["low"] <= a2["dini_integral"] <= a2["high"]
        assert rep["meta"]["majorant_certified"]

    # the modulus line is the majorant walk's λ = 1 step.  The first table
    # violates subadditivity only at s = t = 2^-11, finer than every sweep
    # grid, so both lines pass; the second fails λ = 1, and its w^4, all
    # below 1e-24, fails the relative tolerance too
    @pytest.mark.parametrize("points, lam, witness", [
        ([[0, 0], [2 ** -11, 2 ** -12], [2 ** -10, 2 ** -10], [1, 1]], 1.0,
         None),
        ([[0, 0], [0.5, 1e-7], [1, 1e-6]], 0.25, [0.25, 0.5])],
        ids=["fine violation", "tiny values"])
    def test_weight_check_modulus_is_the_majorant_at_one(self, points, lam,
                                                         witness, capsys):
        code, rep = run(["weight", "check", "--weight", json.dumps(
            {"kind": "table", "points": points})], capsys)
        assert code == 0
        res = rep["results"]
        assert res["majorant"] == {"ok": True, "lambda": lam}
        assert res["modulus_of_continuity"]["ok"] == (lam >= 1.0)
        assert res["modulus_of_continuity"]["witness"] == witness

    # log w = alpha log t overflows at alpha = 1e308 in both logs of the A1
    # ratio; the ratio cancels alpha's binary exponent
    def test_weight_check_A1_of_a_huge_exponent(self, capsys):
        code, rep = run(["weight", "check", "--weight", "power:1e308"],
                        capsys)
        assert code == 0
        assert rep["results"]["A1"] == {"ratio_low": 2.0, "ratio_high": 2.0,
                                        "ok": True}

    # exp_recip is no majorant: its checks fail with no witness and A2,
    # which needs a majorant, exits 1
    @pytest.mark.parametrize("depth", [1, 2])
    def test_weight_check_exp_recip(self, depth, capsys):
        spec = json.dumps({"kind": "exp_recip", "c": 1, "depth": depth})
        code, rep = run(["weight", "check", "--weight", spec], capsys)
        assert code == 0
        res = rep["results"]
        assert res["modulus_of_continuity"]["witness"] is None
        assert res["majorant"] == {"ok": False, "lambda": None}
        assert not res["A1"]["ok"] and rep["meta"]["majorant_certified"]
        code, _ = run(["weight", "check", "--weight", spec, "--alpha", "0.5"],
                      capsys)
        assert code == 1

    # majorants whose λ (1/7, 1/9, 1/8) lies below every (1 + α) 2^-k of
    # the search that once stood for A2's premise: A2 reads w's own
    # majorant verdict, so each is checked; the integrals are 1/(α a) for
    # t^a and 1/(α c - 1) for log^-c
    @pytest.mark.parametrize("spec, want", [
        ("power:7", 1 / 3.5), ("power:9", 1 / 4.5), ("log:9", 1 / 3.5)])
    def test_weight_check_A2_of_a_small_lambda(self, spec, want, capsys):
        code, rep = run(["weight", "check", "--weight", spec, "--alpha",
                         "0.5"], capsys)
        assert code == 0 and rep["results"]["majorant"]["ok"]
        a2 = rep["results"]["A2"]
        assert a2["ok"] and a2["low"] <= want <= a2["high"]

    # α a = 5e-324: β c rounds to 0, yet log β and log c are finite; w^0.5
    # stays near 1, so the Dini integral diverges
    def test_weight_check_A2_of_a_subnormal_exp_log(self, capsys):
        code, rep = run(["weight", "check", "--weight", "exp_log:1e-323,0.5",
                         "--alpha", "0.5"], capsys)
        assert code == 0
        a2 = rep["results"]["A2"]
        assert not a2["ok"] and a2["high"] is None

    # a certified divergence prints no number: once its low end and
    # midpoint were those of the part above 2^-40 alone
    @pytest.mark.parametrize("spec", ["log:1", "log:1,2"])
    def test_weight_check_A2_certified_divergence(self, spec, capsys):
        code, rep = run(["weight", "check", "--weight", spec, "--alpha",
                         "1"], capsys)
        assert code == 0
        assert rep["results"]["A2"] == {"dini_integral": None, "ok": False,
                                        "low": None, "high": None}

    # 1/(α a) = 2e320 is finite but past the float range: the low end is
    # the largest float, where inf - inf once made it NaN (exit 2)
    def test_weight_check_A2_past_the_float_range(self, capsys):
        code, rep = run(["weight", "check", "--weight", "power:1e-320",
                         "--alpha", "0.5"], capsys)
        assert code == 0
        assert rep["results"]["A2"] == {"dini_integral": None, "ok": False,
                                        "low": sys.float_info.max,
                                        "high": None}

    # the modulus line is read from the majorant walk, whose λ = 1 step
    # sweeps two rows of t^1.5 after λ = 4 and 2; no step runs twice
    def test_weight_check_modulus_is_read_from_the_walk(self, capsys):
        code, rep = run(["weight", "check", "--weight", "power:1.5"],
                        capsys)
        assert code == 0 and rep["meta"]["sweep_rows"] == 6
        moc = weights.check_modulus_of_continuity(weights.power(1.5))
        assert rep["results"]["modulus_of_continuity"] == {
            "ok": moc.ok, "witness": list(moc.witness), "reason": moc.reason}

    def test_set_entropy(self, capsys):
        code, rep = run(["set", "entropy", "--set", "fixture:point",
                         "--weight", "power:1"], capsys)
        assert code == 0
        assert rep["results"]["tag"] == "finite"
        assert abs(rep["results"]["value"]) < 1e-12

    def test_grid_build(self, capsys):
        code, rep = run(["grid", "build", "--weight", "power:1", "--n0", "4",
                         "--C", "3", "--k", "3"], capsys)
        assert code == 0
        assert rep["results"]["depths"] == [4, 12, 36, 108]
        assert rep["results"]["superlacunary"]

    def test_measure_decompose(self, capsys):
        code, rep = run(["measure", "decompose", "--measure", "fixture:atom",
                         "--weight", "power:1", "--grid", "[4,12,36]",
                         "--c", "0.1", "--kmax", "3"], capsys)
        assert code == 0
        res = rep["results"]
        assert res["mass_balance_error"] <= 1e-9
        assert res["heavy_nesting"]
        assert len(res["levels"]) == 3

    def test_measure_decompose_deep_grid(self, capsys):
        # 2^2000 arcs at the last level: the light-arc count and the heavy
        # measure are formed by exact int division, not through 2.0 ** -n
        code, rep = run(["measure", "decompose", "--measure", "fixture:atom",
                         "--weight", "power:1", "--grid", "[4,2000]",
                         "--kmax", "2"], capsys)
        assert code == 0
        res = rep["results"]
        assert [lv["depth"] for lv in res["levels"]] == [4, 2000]
        assert res["mass_balance_error"] <= 1e-9

    @pytest.mark.parametrize("spec", ["power:0.3", "exp_log:1.0,0.8"])
    def test_weight_check_dini_bracket(self, spec, capsys):
        code, rep = run(["weight", "check", "--weight", spec, "--alpha",
                         "0.5"], capsys)
        assert code == 0
        a2 = rep["results"]["A2"]
        assert a2["ok"] is True
        assert a2["low"] <= a2["dini_integral"] <= a2["high"]
        assert a2["high"] - a2["low"] <= 1e-3 * a2["dini_integral"]

    def test_inner_eval(self, capsys):
        code, rep = run(["inner", "eval", "--measure", "fixture:atom",
                         "--z", "0.0+0.0i", "--eps", "1e-8"], capsys)
        assert code == 0
        assert rep["results"]["abs"] == pytest.approx(0.36787944117144233)

    def test_dual_pair(self, capsys):
        code, rep = run(["dual", "pair", "--g", "[1,2]", "--f", "[3,4]"],
                        capsys)
        assert code == 0
        assert rep["results"]["pairing"]["re"] == pytest.approx(11.0)

    @pytest.mark.parametrize("n", [28, 60, 300, 1000])
    def test_dual_pair_high_degree(self, n, capsys):
        ones = json.dumps([1.0] * n)
        code, rep = run(["dual", "pair", "--g", ones, "--f", ones], capsys)
        assert code == 0
        assert rep["results"]["pairing"] == {"re": n, "im": 0.0}

    def test_dual_pair_random_fifty(self, capsys):
        # magnitudes over six decades and random signs
        rng = np.random.default_rng(0)
        g, f = [(10.0 ** rng.uniform(-3.0, 3.0, 50)
                 * rng.choice([-1.0, 1.0], 50)).tolist() for _ in range(2)]
        code, rep = run(["dual", "pair", "--g", json.dumps(g),
                         "--f", json.dumps(f)], capsys)
        assert code == 0
        want = duality.pairing_exact(g, f)
        assert rep["results"]["pairing"] == {"re": want.real,
                                             "im": want.imag}

    def test_measure_classify(self, capsys):
        code, rep = run(["measure", "classify", "--measure",
                         "fixture:divergent_cantor", "--weight", "power:1"],
                        capsys)
        assert code == 0
        assert rep["results"]["mu_C_mass"] == pytest.approx(1.0)
        assert rep["results"]["mu_P_mass"] == 0.0

    def test_grid_verify(self, capsys):
        code, rep = run(["grid", "verify", "--weight", "power:1",
                         "--grid", "[4,12,36]"], capsys)
        assert code == 0
        assert rep["results"]["is_w_grid"]

    def test_set_entropy_undecided_streams_nothing(self, capsys):
        # no tail certificate for the stagewise set under a table weight:
        # the result is undecided with unbounded bounds, and no generator
        # level is evaluated, so no numpy warning is raised
        table = json.dumps({"kind": "table",
                            "points": [[0, 0], [0.5, 0.75], [1, 1]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["set", "entropy", "--set",
                             "fixture:stagewise_divergent", "--weight",
                             table, "--form", "both"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        res = json.loads(captured.out)["results"]["uncertified"]
        for form in ("sum", "integral"):
            assert res[form]["tag"] == "undecided"
            assert res[form]["low"] is None and res[form]["high"] is None

    def test_dual_fw_norm_overflow(self, capsys):
        # f' = 1e308: the first annulus sum overflows, and no numpy warning
        # reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["dual", "fw-norm", "--f", "[1e308,1e308]",
                             "--weight", "power:0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        error = json.loads(captured.out)["results"]["uncertified"]["error"]
        assert error.startswith("OverflowError") and "overflow" in error

    def test_dual_fw_norm(self, capsys):
        code, rep = run(["dual", "fw-norm", "--f", "[0,1]",
                         "--weight", "power:0.5"], capsys)
        assert code == 0
        assert rep["results"]["tag"] == "finite"
        assert rep["results"]["value"] == pytest.approx(8.0 / 3.0, abs=1e-4)

    def test_privalov_check(self, capsys):
        code, rep = run(["privalov", "check", "--set", "fixture:point",
                         "--weight", "power:1", "--samples", "512"], capsys)
        assert code == 0
        assert rep["results"]["ok"]
        assert rep["results"]["N_used"] >= 1.0

    def test_carleson_build(self, capsys):
        code, rep = run(["carleson", "build", "--set", "fixture:point",
                         "--weight", "power:1", "--N", "8",
                         "--samples", "512"], capsys)
        assert code == 0
        assert rep["results"]["boundary_ok"]

    def test_unknown_subcommand_exits_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_file_exits_one(self, capsys):
        code = cli.main(["set", "entropy", "--set", "/no/such/file.json",
                         "--weight", "power:1"])
        assert code == 1


class TestReportCyclicity:
    def test_atom_fixture_not_cyclic(self, capsys):
        code, rep = run(["report", "cyclicity", "--measure", "fixture:atom",
                         "--weight", "power:1"], capsys)
        assert code == 0
        assert rep["results"]["verdict"] == "not cyclic: mu_P = mu"
        assert rep["results"]["certificates"]

    def test_divergent_fixture_dossier(self, capsys):
        code, rep = run(["report", "cyclicity", "--measure",
                         "fixture:divergent_cantor", "--weight", "power:1",
                         "--kmax", "4"], capsys)
        assert code == 0
        res = rep["results"]
        assert res["verdict"].startswith("cyclic evidence")
        decay = [row["residual_mass"] for row in res["residual_decay"]]
        assert decay[0] > decay[1] > decay[2]
        assert all(m["ok"] for m in res["corona_margins"])

    def test_meta_counts_the_corona_arcs(self, capsys, monkeypatch):
        checks = []
        check = inner_outer.corona_datum_check

        def counting_check(*args, **kwargs):
            checks.append(check(*args, **kwargs))
            return checks[-1]

        monkeypatch.setattr(inner_outer, "corona_datum_check", counting_check)
        code, rep = run(["report", "cyclicity", "--measure", SMALL_DIVERGENT,
                         "--weight", "power:1"], capsys)
        assert code == 0
        margins = rep["results"]["corona_margins"]
        assert len(checks) == len(margins) == 6
        assert [m["inf_low"] for m in margins] == [cc.inf_low for cc in checks]
        assert all(set(m) == {"depth", "inf_low", "bound", "ok"}
                   for m in margins)
        assert set(rep["meta"]) == {"corona_arcs", "runtime_s"}
        assert rep["meta"]["corona_arcs"] == \
            sum(cc.n_samples for cc in checks) > 0

    @pytest.mark.parametrize("depth", [60, 100])
    def test_deep_pieces_are_checked(self, depth, capsys):
        code, rep = run(["report", "cyclicity", "--measure",
                         "fixture:divergent_cantor", "--weight", "power:1",
                         "--grid", f"[4,8,{depth}]", "--kmax", "3"], capsys)
        assert code == 0
        margins = rep["results"]["corona_margins"]
        assert [m["depth"] for m in margins] == [4, 8, depth]
        assert all(m["ok"] and m["inf_low"] > m["bound"] for m in margins)

    def test_no_kernel_sums(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the cyclicity report sums no kernels")

        monkeypatch.setattr(inner_outer, "_cauchy_sum", refuse)
        monkeypatch.setattr(inner_outer, "kernel_tree", refuse)
        code, rep = run(["report", "cyclicity", "--measure", SMALL_DIVERGENT,
                         "--weight", "power:1"], capsys)
        assert code == 0
        assert all(m["ok"] for m in rep["results"]["corona_margins"])


# 1024 atoms: cheap enough to run the whole report at several --kmax
SMALL_DIVERGENT = json.dumps({"cantor": [{"generator": "stagewise_log",
                                          "depth": 10, "mass": 1.0}]})


def separate_decomposition(k: int):
    mu = circle.measure_from_json(json.loads(SMALL_DIVERGENT))
    return roberts.decompose(mu, DyadicGrid((4, 8, 12, 16, 20, 24)), 0.1,
                             weights.power(1.0), k)


@pytest.fixture(scope="module")
def separate_decays():
    return [{"k_max": k, "residual_mass":
             separate_decomposition(k).residual.total_mass()}
            for k in (2, 4, 6)]


class TestReportSinglePass:
    @pytest.mark.parametrize("kmax", [2, 4, None])
    def test_one_decomposition_per_report(self, kmax, capsys, monkeypatch,
                                          separate_decays):
        calls = {"decompose": [], "arc_masses": 0, "arcs": 0}
        decompose = roberts.decompose
        arc_masses = circle.CircleMeasure.arc_masses_at_depth
        arcs = circle.Realization.arcs

        def counting_decompose(*args):
            calls["decompose"].append(args[4])
            return decompose(*args)

        def counting_arc_masses(mu, depth):
            calls["arc_masses"] += 1
            return arc_masses(mu, depth)

        def counting_arcs(r, depth):
            calls["arcs"] += 1
            return arcs(r, depth)

        monkeypatch.setattr(roberts, "decompose", counting_decompose)
        monkeypatch.setattr(circle.CircleMeasure, "arc_masses_at_depth",
                            counting_arc_masses)
        monkeypatch.setattr(circle.Realization, "arcs", counting_arcs)
        argv = ["report", "cyclicity", "--measure", SMALL_DIVERGENT,
                "--weight", "power:1"]
        code, rep = run(argv + (["--kmax", str(kmax)] if kmax else []),
                        capsys)
        assert code == 0
        assert rep["results"]["residual_decay"] == separate_decays
        # the decay rows and a shorter dossier both come from one 6-level
        # run, whose first levels are those of a shorter run, and each
        # level groups its atoms by arc once; each piece's corona check
        # reads its arc masses, one more grouping
        levels = kmax or 6
        assert calls == {"decompose": [6], "arc_masses": levels,
                         "arcs": 6 + levels}
        dec = separate_decomposition(levels)
        res = rep["results"]
        assert [m["depth"] for m in res["corona_margins"]] == [
            r.depth for r in dec.reports]
        assert res["mass_balance_error"] == dec.mass_balance_error()
        assert res["light_entropy_ledger"] == dec.light_entropy_ledgers[-1]

    def test_each_measure_summed_once(self, capsys, monkeypatch):
        # a measure's masses are one read-only realization array: summed
        # once each, every total mass is formed once
        summed = []
        np_sum = np.sum

        def counting_sum(a, *args, **kwargs):
            if isinstance(a, np.ndarray) and not a.flags.writeable:
                summed.append(a)
            return np_sum(a, *args, **kwargs)

        monkeypatch.setattr(np, "sum", counting_sum)
        code, _ = run(["report", "cyclicity", "--measure", SMALL_DIVERGENT,
                       "--weight", "power:1"], capsys)
        assert code == 0 and summed
        assert len({id(a) for a in summed}) == len(summed)


class TestClassesRealizedOnce:
    """A class that is the whole measure is the measure itself, so each
    Cantor part is realized once per report."""

    @pytest.mark.parametrize("argv", [
        ["report", "cyclicity", "--measure", "fixture:divergent_cantor"],
        ["measure", "classify", "--measure", "fixture:triadic_cantor"],
    ])
    def test_each_part_realized_once(self, argv, capsys, monkeypatch):
        calls = []
        realize = circle.CantorPart.realize
        monkeypatch.setattr(circle.CantorPart, "realize",
                            lambda part: calls.append(part) or realize(part))
        code, rep = run(argv + ["--weight", "power:1"], capsys)
        assert code == 0
        assert len(calls) == 1
        mass = rep["results"]["total_mass"]
        assert mass == pytest.approx(1.0)
        assert [rep["results"]["mu_P_mass"], rep["results"]["mu_C_mass"]] \
            == ([0.0, mass] if "divergent" in argv[3] else [mass, 0.0])


BAD_INPUTS = {
    "nan_atom_mass": (["inner", "eval", "--measure",
                       '{"atoms": [{"pos": 0.0, "mass": NaN}]}',
                       "--z", "0.5"], 1),
    "negative_cantor_mass": (["measure", "classify", "--measure",
                              '{"cantor": [{"generator": "triadic", '
                              '"depth": 6, "mass": -1}]}',
                              "--weight", "power:1"], 1),
    "negative_factor": (["measure", "classify", "--measure",
                         '{"cantor": [{"generator": "triadic", "depth": 6, '
                         '"mass": 1}], "multipliers": [{"depth": 2, '
                         '"factors": {"0": -2}}]}', "--weight", "power:1"],
                        1),
    "infinite_position": (["inner", "eval", "--measure",
                           '{"atoms": [{"pos": Infinity, "mass": 1.0}]}',
                           "--z", "0.5"], 1),
    "power_without_exponent": (["weight", "check", "--weight", "power"], 1),
    "infinite_cantor_depth": (["measure", "classify", "--measure",
                               '{"cantor": [{"generator": "triadic", '
                               '"depth": Infinity, "mass": 1}]}',
                               "--weight", "power:1"], 1),
    "infinite_multiplier_depth": (["measure", "classify", "--measure",
                                   '{"atoms": [{"pos": 0.1, "mass": 1}], '
                                   '"multipliers": [{"depth": Infinity, '
                                   '"factors": {"0": 0.5}}]}',
                                   "--weight", "power:1"], 1),
    "infinite_log_depth": (["weight", "check", "--weight", "log:1,inf"], 1),
    "fractional_cantor_depth": (["measure", "classify", "--measure",
                                 '{"cantor": [{"generator": "triadic", '
                                 '"depth": 10.7, "mass": 1}]}',
                                 "--weight", "power:1"], 1),
    "factor_key_beyond_depth": (["measure", "classify", "--measure",
                                 '{"atoms": [{"pos": 0.1, "mass": 1}], '
                                 '"multipliers": [{"depth": 3, '
                                 '"factors": {"99": 0.5}}]}',
                                 "--weight", "power:1"], 1),
    "negative_factor_key": (["measure", "classify", "--measure",
                             '{"atoms": [{"pos": 0.1, "mass": 1}], '
                             '"multipliers": [{"depth": 3, '
                             '"factors": {"-1": 0.5}}]}',
                             "--weight", "power:1"], 1),
    "negative_multiplier_depth": (["measure", "classify", "--measure",
                                   '{"atoms": [{"pos": 0.1, "mass": 1}], '
                                   '"multipliers": [{"depth": -2, '
                                   '"factors": {"0": 0.5}}]}',
                                   "--weight", "power:1"], 1),
    # g conj(f) = 1e20 conj(z) + |z|^2: the boundary mean of 1 drowns in
    # the rounding of the 1e20 term
    "pairing_quadrature_fails": (["dual", "pair", "--g", "[1e20,1]",
                                  "--f", "[0,1]"], 2),
    "privalov_nan_N": (["privalov", "check", "--set", "fixture:point",
                        "--weight", "power:1", "--carleson", "nan"], 1),
    "privalov_infinite_N": (["privalov", "check", "--set", "fixture:point",
                             "--weight", "power:1", "--carleson", "inf"], 1),
    "carleson_nan_N": (["carleson", "build", "--set", "fixture:point",
                        "--weight", "power:1", "--N", "nan"], 1),
    "carleson_infinite_N": (["carleson", "build", "--set", "fixture:point",
                             "--weight", "power:1", "--N", "inf"], 1),
    "inner_nan_z": (["inner", "eval", "--measure", "fixture:atom",
                     "--z", "nan"], 1),
    "inner_nan_eps": (["inner", "eval", "--measure", "fixture:atom",
                       "--z", "0.5", "--eps", "nan"], 1),
    "grid_nan_C": (["grid", "build", "--weight", "power:1", "--C", "nan"], 1),
    "decompose_nan_c": (["measure", "decompose", "--measure", "fixture:atom",
                         "--weight", "power:1", "--c", "nan"], 1),
    "report_nan_K": (["report", "cyclicity", "--measure", "fixture:atom",
                      "--weight", "power:1", "--K", "nan"], 1),
    "report_zero_K": (["report", "cyclicity", "--measure", "fixture:atom",
                       "--weight", "power:1", "--K", "0"], 1),
    "report_negative_K": (["report", "cyclicity", "--measure",
                           "fixture:atom", "--weight", "power:1", "--K",
                           "-1"], 1),
    "report_infinite_c": (["report", "cyclicity", "--measure",
                           "fixture:atom", "--weight", "power:1",
                           "--c", "inf"], 1),
    "weight_infinite_alpha": (["weight", "check", "--weight", "power:1",
                               "--alpha", "-inf"], 1),
    # level counts: a report needs a level, a grid no negative step count
    "report_zero_kmax": (["report", "cyclicity", "--measure",
                          "fixture:atom", "--weight", "power:1",
                          "--kmax", "0"], 1),
    "report_negative_kmax": (["report", "cyclicity", "--measure",
                              "fixture:atom", "--weight", "power:1",
                              "--kmax", "-2"], 1),
    "decompose_zero_kmax": (["measure", "decompose", "--measure",
                             "fixture:atom", "--weight", "power:1",
                             "--kmax", "0"], 1),
    "grid_negative_k": (["grid", "build", "--weight", "power:1", "--k",
                         "-3"], 1),
    # every sweep runs to weights.MAJORANT_GRID_DEPTH: no option sets it,
    # so --depth is rejected whatever its value
    "weight_depth_above_cap": (["weight", "check", "--weight", "power:1",
                                "--depth", "17"], 1),
    "weight_depth_40": (["weight", "check", "--weight", "power:1",
                         "--depth", "40"], 1),
    "privalov_samples_above_cap": (["privalov", "check", "--set",
                                    "fixture:point", "--weight", "power:1",
                                    "--samples", str(2 ** 20 + 1)], 1),
    "carleson_samples_above_cap": (["carleson", "build", "--set",
                                    "fixture:point", "--weight", "power:1",
                                    "--N", "8", "--samples",
                                    str(2 ** 20 + 1)], 1),
}


def _classify(measure: str) -> list:
    return ["measure", "classify", "--measure", measure, "--weight",
            "power:1"]


def _entropy(set_spec: str, weight: str = "power:1") -> list:
    return ["set", "entropy", "--set", set_spec, "--weight", weight]


def _point_entropy(weight: str) -> list:
    return _entropy("fixture:point", weight)


def _verify(grid: str, weight: str = "power:1") -> list:
    return ["grid", "verify", "--weight", weight, "--grid", grid]


def _factors(items: str) -> str:
    """An atom damped by one depth-5 layer with these factor items."""
    return ('{"atoms": [{"pos": 0.1, "mass": 1}], "multipliers": '
            f'[{{"depth": 5, "factors": {{{items}}}}}]}}')


def _triadic(mass: str) -> str:
    return ('{"cantor": [{"generator": "triadic", "depth": 4, "mass": '
            f'{mass}}}]}}')


# every operand goes through one reader and one family of field readers
BAD_INPUTS.update({
    # weights: NaN, strings and bools in any field, in any form
    "weight_compact_nan_power": (_point_entropy("power:nan"), 1),
    "weight_compact_nan_log": (_point_entropy("log:nan"), 1),
    "weight_compact_nan_exp_log": (_point_entropy("exp_log:nan,1"), 1),
    "weight_compact_infinite_power": (_point_entropy("power:inf"), 1),
    "weight_json_nan_alpha": (_point_entropy(
        '{"kind": "power", "alpha": NaN}'), 1),
    "weight_json_string_alpha": (_point_entropy(
        '{"kind": "power", "alpha": "x"}'), 1),
    "weight_table_nan_point": (_point_entropy(
        '{"kind": "table", "points": [[0, 0], [0.5, NaN], [1, 1]]}'), 1),
    "weight_table_points_number": (_point_entropy(
        '{"kind": "table", "points": 5}'), 1),
    "weight_table_points_empty": (_point_entropy(
        '{"kind": "table", "points": []}'), 1),
    "weight_table_start_above_0": (_point_entropy(
        '{"kind": "table", "points": [[0, 1e-13], [1, 1]]}'), 1),
    # a fall of 9e-14: a table may not fall at all
    "weight_table_falls": (["weight", "check", "--weight",
                            '{"kind": "table", "points": [[0, 0], [0.5, '
                            '1e-13], [0.75, 1e-14], [1, 1e-13]]}',
                            "--alpha", "0.5"], 1),
    "weight_exp_recip_zero_c": (_point_entropy(
        '{"kind": "exp_recip", "c": 0}'), 1),
    "weight_exp_recip_depth_3": (_point_entropy(
        '{"kind": "exp_recip", "c": 1, "depth": 3}'), 1),
    "weight_removed_custom_table": (_point_entropy(
        '{"kind": "custom_table", "points": [[0, 0], [1, 1]]}'), 1),
    "weight_nan_lambda_hint": (_point_entropy(
        '{"kind": "power", "alpha": 1, "lambda_hint": NaN}'), 1),
    "weight_string_lambda_hint": (_point_entropy(
        '{"kind": "power", "alpha": 1, "lambda_hint": "a"}'), 1),
    "weight_bool_log_depth": (_point_entropy(
        '{"kind": "log_power", "c": 1, "depth": true}'), 1),
    "weight_not_an_object": (_point_entropy("[1]"), 1),
    "weight_set_fixture": (_point_entropy("fixture:point"), 1),
    # measures
    "measure_atoms_number": (_classify('{"atoms": 5}'), 1),
    "measure_atom_pair": (_classify('{"atoms": [[0.1, 1]]}'), 1),
    "measure_null_mass": (_classify(_triadic("null")), 1),
    "measure_string_mass": (_classify(_triadic('"1"')), 1),
    "measure_bool_mass": (_classify(_triadic("true")), 1),
    "measure_factors_list": (_classify(
        '{"atoms": [{"pos": 0.1, "mass": 1}], '
        '"multipliers": [{"depth": 2, "factors": [1]}]}'), 1),
    "measure_removed_bare_layer": (_classify(
        '{"atoms": [{"pos": 0.1, "mass": 1}], '
        '"multipliers": {"depth": 2, "factors": {"0": 0.5}}}'), 1),
    "measure_removed_divergent_generator": (_classify(
        '{"cantor": [{"generator": "divergent", "depth": 4, '
        '"mass": 1}]}'), 1),
    "measure_list_name": (_classify(
        '{"atoms": [{"pos": 0.1, "mass": 1}], "name": [1]}'), 1),
    # a repeated key would keep only its last value
    "measure_repeated_key": (_classify(
        '{"atoms": [{"pos": 0.1, "mass": 1.0}], '
        '"atoms": [{"pos": 0.2, "mass": 5.0}]}'), 1),
    "measure_repeated_factor_key": (_classify(_factors('"1": 0.5, "1": 0.9')),
                                    1),
    # factor keys are canonical decimals: no two spellings of one arc
    "measure_factor_key_leading_zeros": (_classify(
        _factors('"1": 0.5, "001": 0.9')), 1),
    "measure_factor_key_underscore": (_classify(_factors('"2_0": 0.5')), 1),
    "measure_factor_key_space": (_classify(_factors('" 7": 0.5')), 1),
    "measure_factor_key_plus": (_classify(_factors('"+7": 0.5')), 1),
    # sets
    "set_gaps_number": (_entropy('{"gaps": 5}'), 1),
    "set_tail_number": (_entropy('{"gaps": [], "tail": 5}'), 1),
    "set_tail_string_param": (_entropy(
        '{"gaps": [], "tail": {"kind": "harmonic_log", '
        '"params": [1, "x"]}}'), 1),
    "set_bool_gap_length": (_entropy('{"gaps": [[0.0, true]]}'), 1),
    "set_measure_fixture": (_entropy("fixture:atom"), 1),
    # grids
    "grid_string_depth": (_verify('[4, "a"]'), 1),
    "grid_fractional_depth": (_verify("[4.5, 8]"), 1),
    "grid_negative_depth": (_verify("[-4, 8]"), 1),
    "grid_bool_depth": (_verify("[true, 8]"), 1),
    "grid_nan_C_json": (_verify('{"depths": [4, 8], "C": NaN}'), 1),
    "grid_empty": (_verify("[]"), 1),
    "grid_nested_too_deeply": (_verify("[" * 5000), 1),
    "grid_verify_without_grid": (["grid", "verify", "--weight", "power:1"],
                                 1),
    # w(2^-100000) underflows: log(1/w) overflows a float
    "grid_verify_overflow": (_verify("[4, 100000]", "exp_log:1,100"), 2),
    # dual coefficient lists
    "pair_object_coefficients": (["dual", "pair", "--g", '{"a": 1}',
                                  "--f", "[1]"], 1),
    "pair_nested_coefficients": (["dual", "pair", "--g", "[[1, 2]]",
                                  "--f", "[1]"], 1),
    "pair_empty_coefficients": (["dual", "pair", "--g", "[]", "--f", "[1]"],
                                1),
    "pair_without_f": (["dual", "pair", "--g", "[1]"], 1),
    "pair_overflow": (["dual", "pair", "--g", "[1e308, 1e308]",
                       "--f", "[1e308, 1]"], 2),
    "fw_norm_overflow": (["dual", "fw-norm", "--f", "[1e308,1e308]",
                          "--weight", "power:0.5"], 2),
    "fw_norm_number_coefficients": (["dual", "fw-norm", "--f", "5",
                                     "--weight", "power:1"], 1),
    "fw_norm_without_f": (["dual", "fw-norm", "--weight", "power:1"], 1),
    "fw_norm_without_weight": (["dual", "fw-norm", "--f", "[0, 1]"], 1),
    # output paths
    "out_in_missing_directory": (["--out", "/no/such/dir/rep.json"]
                                 + _point_entropy("power:1"), 1),
    "csv_in_missing_directory": (["--csv", "/no/such/dir/rep.csv",
                                  "measure", "decompose", "--measure",
                                  "fixture:atom", "--weight", "power:1",
                                  "--grid", "[4, 12]", "--kmax", "2"], 1),
    # a NaN error radius: uncertified, reported as strict JSON
    "inner_overflowing_atom": (["inner", "eval", "--measure",
                                '{"atoms": [{"pos": 0.0, "mass": 1e308}]}',
                                "--z", "0.5"], 2),
})


def _tail(kind: str, params: list) -> list:
    return _entropy(json.dumps({"gaps": [], "tail": {"kind": kind,
                                                     "params": params}}))


# tail ranges, depth caps and unknown fields: each is bad input
BAD_INPUTS.update({
    # tails: every parameter checked for its range when the tail is built
    "tail_zero_ratio": (_tail("geometric_levels", [1, 2, 1, 0, -1]), 1),
    "tail_negative_count": (_tail("geometric_levels", [-1, 2, 1, 0.3, 0]),
                            1),
    "tail_base_ratio_one": (_tail("geometric_levels", [1, 2, 1, 0.5, 0]), 1),
    "tail_negative_first_level": (_tail("geometric_levels",
                                        [1, 2, 1, 0.3, -1]), 1),
    "tail_fractional_first_level": (_tail("geometric_levels",
                                          [1, 2, 1, 0.3, 1.5]), 1),
    "tail_four_geometric_params": (_tail("geometric_levels", [1, 2, 1, 0.3]),
                                   1),
    "tail_harmonic_first_below_two": (_tail("harmonic_log", [1, 1]), 1),
    "tail_harmonic_zero_amp": (_tail("harmonic_log", [0, 5]), 1),
    "tail_stagewise_negative_amp": (_tail("stagewise_log", [-1, 3]), 1),
    "tail_stagewise_negative_first": (_tail("stagewise_log", [1, -3]), 1),
    "tail_unknown_kind": (_tail("geometric", [1, 2, 1, 0.3, 0]), 1),
    # depths: a log nesting and a grid depth beyond their caps
    "weight_log_depth_1e16": (_point_entropy("log:1,1e16"), 1),
    "weight_json_log_depth_above_cap": (_point_entropy(
        '{"kind": "log_power", "c": 1, "depth": 17}'), 1),
    "grid_depth_10_to_400": (_verify(f"[4, {10 ** 400}]"), 1),
    "grid_depth_above_cap": (_verify(f"[4, {grids.DEPTH_CAP + 1}]"), 1),
    "grid_build_n0_10_to_400": (["grid", "build", "--weight", "power:1",
                                 "--n0", str(10 ** 400)], 1),
    # unknown fields, misspelt or of another kind
    "measure_atom_typo": (_classify('{"atom": [{"pos": 0.1, "mass": 1}]}'),
                          1),
    "measure_atom_unknown_field": (_classify(
        '{"atoms": [{"pos": 0.1, "mass": 1, "weight": 2}]}'), 1),
    "measure_cantor_unknown_field": (_classify(
        '{"cantor": [{"generator": "triadic", "depth": 4, "mass": 1, '
        '"stages": 4}]}'), 1),
    "measure_layer_unknown_field": (_classify(
        '{"atoms": [{"pos": 0.1, "mass": 1}], "multipliers": [{"depth": 2, '
        '"factors": {"0": 0.5}, "scale": 1}]}'), 1),
    "set_unknown_field": (_entropy('{"gaps": [[0.0, 1.0]], "tial": null}'),
                          1),
    "set_tail_unknown_field": (_entropy(
        '{"gaps": [], "tail": {"kind": "harmonic_log", "params": [1, 5], '
        '"first": 5}}'), 1),
    "weight_unknown_field": (_point_entropy(
        '{"kind": "power", "alpha": 1, "alpah": 2}'), 1),
    "weight_field_of_another_kind": (_point_entropy(
        '{"kind": "power", "alpha": 1, "beta": 2}'), 1),
    "grid_unknown_field": (_verify('{"depths": [4, 8], "lamda": 2}'), 1),
    # exact arc indices past INDEX_BITS: 16384 atoms at depth 2*10^6, and
    # one atom under a layer at depth 10^10
    "decompose_indices_too_deep": (["measure", "decompose", "--measure",
                                    "fixture:triadic_cantor", "--weight",
                                    "power:1", "--grid", "[4,2000000]",
                                    "--kmax", "2"], 1),
    "multiplier_depth_10_to_10": (_classify(
        '{"atoms": [{"pos": 0.1, "mass": 1.0}], "multipliers": '
        '[{"depth": 10000000000, "factors": {"0": 0.5}}]}'), 1),
})

# lengths summing to 1, but the last gap (0.9, 1.4) wraps angle 0 into the
# first, (0, 0.5): both cover [0, 0.4) and [0.5, 0.9) is left over
WRAP_OVERLAP = '{"gaps": [[0.0, 0.5], [0.9, 0.5]]}'
BAD_INPUTS.update({
    "set_gap_wraps_into_first": (_entropy(WRAP_OVERLAP), 1),
    "privalov_gap_wraps_into_first": (["privalov", "check", "--set",
                                       WRAP_OVERLAP, "--weight", "power:1"],
                                      1),
})

def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def assert_contract(code: int, out: str, err: str,
                    expected=(0, 1, 2)) -> None:
    """The exit code is expected, nothing printed a traceback, and stdout
    is empty or one strict JSON report."""
    assert code in expected
    assert "Traceback" not in out + err
    if out.strip():
        json.loads(out, parse_constant=_reject_constant)


class TestBadInput:
    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_exit_code_without_traceback(self, name, capsys):
        argv, expected = BAD_INPUTS[name]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert_contract(code, captured.out, captured.err, (expected,))

    @pytest.mark.parametrize("command", [["privalov", "check"],
                                         ["carleson", "build", "--N", "8"]])
    def test_samples_past_the_cap_build_nothing(self, command, capsys,
                                                 monkeypatch):
        # --samples 1 on 2^15 - 1 gaps makes 1114078 samples, past 2^20
        built = []
        monkeypatch.setattr(inner_outer, "carleson_outer",
                            lambda *args: built.append(args))
        spec = json.dumps(circle.set_to_json(fixtures.triadic_cantor_set(15)))
        code = cli.main([*command, "--set", spec, "--weight", "power:1",
                         "--samples", "1"])
        captured = capsys.readouterr()
        assert_contract(code, captured.out, captured.err, (1,))
        assert "1114078 samples" in captured.err and not built


class TestOperandReader:
    def test_file_needs_json_suffix(self, tmp_path, capsys):
        text = json.dumps({"atoms": [{"pos": 0.25, "mass": 1.0}]})
        (tmp_path / "mu.json").write_text(text)
        (tmp_path / "mu.txt").write_text(text)
        code, rep = run(_classify(str(tmp_path / "mu.json")), capsys)
        assert code == 0 and rep["results"]["total_mass"] == 1.0
        assert cli.main(_classify(str(tmp_path / "mu.txt"))) == 1

    def test_grid_list_and_object_forms_agree(self, capsys):
        _, listed = run(_verify("[4, 12, 36]"), capsys)
        _, whole = run(_verify('{"depths": [4, 12, 36]}'), capsys)
        assert listed["results"] == whole["results"]


class TestJsonRoundTrip:
    """Every field a ``*_to_json`` writes reads back, and so does every
    operand the benchmark's workloads build."""

    @staticmethod
    def _through_json(obj):
        return json.loads(json.dumps(obj, allow_nan=False))

    def test_sets(self):
        sets = [E for E, _ in fixtures.entropy_set_fixtures().values()]
        sets += [fixtures.named_fixture(name) for name in
                 ("point", "two_points", "triadic", "harmonic_log",
                  "stagewise_divergent")]
        for E in sets:
            obj = circle.set_to_json(E)
            again = circle.set_from_json(self._through_json(obj))
            assert circle.set_to_json(again) == obj

    def test_measures(self):
        measures = list(fixtures.measure_fixtures().values())
        measures.append(circle.measure_from_json({
            "atoms": [{"pos": 0.1, "mass": 1.0}], "name": "damped",
            "cantor": [{"generator": "stagewise_log", "depth": 6,
                        "mass": 0.5}],
            "multipliers": [{"depth": 2, "factors": {"1": 0.5}}]}))
        for mu in measures:
            obj = circle.measure_to_json(mu)
            again = circle.measure_from_json(self._through_json(obj))
            assert circle.measure_to_json(again) == obj

    def test_weights(self):
        ws = {**fixtures.builtin_majorants(), **fixtures.a1_family(),
              "table": weights.table_weight([[0, 0], [0.5, 0.6], [1, 1]])}
        for w in ws.values():
            spec = weights.to_spec(w)
            again = weights.from_spec(self._through_json(spec))
            assert weights.to_spec(again) == spec

    def test_grids(self):
        built = [grids.feasible_grid(w, 4, 3.0, 5)
                 for w in fixtures.builtin_majorants().values()]
        for g in built + [DyadicGrid((4, 8, 12))]:
            obj = grids.grid_to_json(g)
            assert grids.grid_from_json(self._through_json(obj)) == g

    def test_workload_operands(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
        from bench import workloads
        readers = {"weight": cli._weight, "measure": cli._measure,
                   "set": cli._set}
        for name in ("cyclicity", "boundary", "certify"):
            wl = workloads.make(name, 1)
            wl.setup()
            for _ in range(2 * len(wl.kinds) + 1):
                args = cli.build_parser().parse_args(wl.next_op().argv)
                for flag, read in readers.items():
                    if getattr(args, flag, None) is not None:
                        read(args)

class TestStrictOutput:
    def test_divergent_entropy_is_certified_with_null_bounds(self, capsys):
        code = cli.main(_entropy("fixture:stagewise_divergent") +
                        ["--form", "both"])
        captured = capsys.readouterr()
        assert_contract(code, captured.out, captured.err, (0,))
        res = json.loads(captured.out)["results"]
        for form in ("sum", "integral"):
            assert res[form]["tag"] == "diverges"
            assert res[form]["low"] is None and res[form]["high"] is None
            assert res[form]["value"] is None

    def test_nan_in_results_exits_two_naming_the_field(self, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(grids, "verify_grid", lambda g, w: grids.GridCheck(
            False, float("nan"), False))
        code = cli.main(_verify("[4, 12]"))
        captured = capsys.readouterr()
        assert_contract(code, captured.out, captured.err, (2,))
        block = json.loads(captured.out)["results"]["uncertified"]
        assert block["error"] == "results.beta is NaN"
        assert block["beta"] is None and block["depths"] == [4, 12]


# -- fuzzing the operands: their shapes and values, not their sizes -------

# values that are not finite numbers, each a JSON value
JUNK = st.sampled_from([None, True, False, "x", "", float("nan"),
                        float("inf"), -float("inf"), [], {}, [1], {"a": 1}])
NUMBER = st.one_of(st.floats(), st.integers(-3, 3), JUNK)
# depths stay small: a large one is a size, not a malformed operand
DEPTH = st.one_of(st.integers(-2, 6), st.sampled_from([2.0, 2.5]), JUNK)


def _dumps(obj) -> str:
    return json.dumps(obj)  # NaN and Infinity as the tokens json reads


def _object(required: dict, optional: dict):
    return st.one_of(st.fixed_dictionaries(required, optional=optional),
                     JUNK).map(_dumps)


def _text_or(strategy):
    """The operand as any text too: fixture names, file names, junk."""
    return st.one_of(strategy, st.text(max_size=6),
                     st.sampled_from(["fixture:point", "fixture:atom",
                                      "fixture:nope", "no_file.json",
                                      "auto", "{", "[1,"]))


WEIGHTS = _text_or(st.one_of(
    st.builds(lambda kind, args: f"{kind}:{','.join(args)}",
              st.sampled_from(["power", "log", "exp_log", "nope"]),
              # bounded: the second number of log:c,depth is a depth
              st.lists(st.one_of(st.floats(-8.0, 8.0).map(repr),
                                 st.sampled_from(["1", "2", "x", "", "nan",
                                                  "inf", "-inf"])),
                       max_size=3)),
    _object({"kind": st.one_of(st.sampled_from(
        ["power", "log_power", "exp_log", "table", "exp_recip"]), JUNK)},
        {"alpha": NUMBER, "beta": NUMBER, "c": NUMBER, "depth": DEPTH,
         "lambda_hint": NUMBER,
         "points": st.one_of(st.lists(st.lists(NUMBER, max_size=3),
                                      max_size=4), JUNK)})))

_LAYER = st.one_of(st.fixed_dictionaries({
    "depth": DEPTH,
    "factors": st.one_of(st.dictionaries(
        st.sampled_from(["0", "1", "3", "-1", "99", "x"]), NUMBER,
        max_size=3), JUNK)}), JUNK)
MEASURES = _text_or(_object({}, {
    "atoms": st.one_of(st.lists(st.one_of(st.fixed_dictionaries(
        {"pos": NUMBER, "mass": NUMBER}), JUNK), max_size=3), JUNK),
    "cantor": st.one_of(st.lists(st.one_of(st.fixed_dictionaries({
        "generator": st.one_of(st.sampled_from(["triadic",
                                                "stagewise_log"]), JUNK),
        "depth": DEPTH, "mass": NUMBER}), JUNK), max_size=2), JUNK),
    "multipliers": st.one_of(st.lists(_LAYER, max_size=2), JUNK),
    "name": st.one_of(st.text(max_size=3), JUNK)}))

SETS = _text_or(_object({"gaps": st.one_of(st.lists(st.one_of(
    st.lists(NUMBER, max_size=3), st.just([0.0, 1.0]), JUNK), max_size=3),
    JUNK)}, {
    "tail": st.one_of(st.fixed_dictionaries({
        "kind": st.one_of(st.sampled_from(["geometric_levels",
                                           "harmonic_log",
                                           "stagewise_log"]), JUNK),
        "params": st.one_of(st.lists(NUMBER, max_size=5), JUNK)}), JUNK),
    "name": st.one_of(st.text(max_size=3), JUNK)}))

_DEPTHS = st.lists(st.one_of(st.integers(-2, 40), JUNK), max_size=4)
GRIDS = _text_or(st.one_of(_DEPTHS.map(_dumps), _object(
    {"depths": st.one_of(_DEPTHS, JUNK)},
    {"C": NUMBER, "lambda": NUMBER})))

COEFFICIENTS = _text_or(st.one_of(
    st.lists(st.one_of(st.floats(), st.integers(-3, 3)), max_size=4),
    st.lists(NUMBER, max_size=3), JUNK).map(_dumps))

COMMANDS = st.one_of(
    WEIGHTS.map(lambda w: _point_entropy(w) + ["--form", "sum"]),
    MEASURES.map(_classify),
    MEASURES.map(lambda m: ["inner", "eval", "--measure", m, "--z", "0.5"]),
    SETS.map(_entropy),
    GRIDS.map(_verify),
    GRIDS.map(lambda g: ["measure", "decompose", "--measure",
                         "fixture:two_atoms", "--weight", "power:1",
                         "--grid", g, "--kmax", "2"]),
    st.tuples(COEFFICIENTS, COEFFICIENTS).map(
        lambda gf: ["dual", "pair", "--g", gf[0], "--f", gf[1]]),
    COEFFICIENTS.map(lambda f: ["dual", "fw-norm", "--f", f, "--weight",
                                "power:0.5"]),
    st.tuples(SETS, st.sampled_from(["8", "auto"])).map(
        lambda sn: ["carleson", "build", "--set", sn[0], "--weight",
                    "power:1", "--N", sn[1], "--samples", "64"]))


class TestFuzzOperands:
    @given(COMMANDS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert_contract(code, out.getvalue(), err.getvalue())


class TestUncertifiedRadius:
    def test_nan_radius_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(inner_outer, "eval_singular_inner",
                            lambda mu, z, eps: inner_outer.AnalyticValue(
                                0.5 + 0.0j, float("nan")))
        code = cli.main(["inner", "eval", "--measure", "fixture:atom",
                         "--z", "0.5"])
        capsys.readouterr()
        assert code == 2


class TestNoAdmissibleN:
    def test_failed_boundary_estimate_exits_two(self, capsys, monkeypatch):
        # psi = 0 makes G = 1 at every N, above w(h) <= 1/32 on the lid
        monkeypatch.setattr(inner_outer, "psi_sum_many", lambda G, z, work: (
            np.zeros(z.shape, dtype=complex), np.zeros(z.shape)))
        code, rep = run(["privalov", "check", "--set", "fixture:point",
                         "--weight", "power:1", "--samples", "512"], capsys)
        assert code == 2
        assert "no admissible N" in rep["results"]["uncertified"]["error"]


class TestNSearchSumsOnce:
    def test_one_build_one_sum_and_meta(self, capsys, monkeypatch):
        calls = {"carleson_outer": 0, "psi_sum_many": 0}
        build = inner_outer.carleson_outer
        psi_sum = inner_outer.psi_sum_many

        def counting_build(*args):
            calls["carleson_outer"] += 1
            return build(*args)

        def counting_psi_sum(G, z, work=None):
            calls["psi_sum_many"] += 1
            return psi_sum(G, z, work)

        monkeypatch.setattr(inner_outer, "carleson_outer", counting_build)
        monkeypatch.setattr(inner_outer, "psi_sum_many", counting_psi_sum)
        code, rep = run(["privalov", "check", "--set", "fixture:point",
                         "--weight", "power:1", "--samples", "2048"], capsys)
        assert code == 0
        res, meta = rep["results"], rep["meta"]
        assert res["N_used"] >= 4.0  # the search tried at least three N
        assert calls == {"carleson_outer": 1, "psi_sum_many": 1}
        D = privalov.PrivalovDomain(circle.point_set([0.0]))
        final = privalov.boundary_samples_with_profile(D, 2048)[0]
        arcs = 2 * inner_outer.WHITNEY_LEVELS
        assert meta["N_tried"] == [2.0 ** j for j in range(
            int(np.log2(res["N_used"])) + 1)]
        assert meta["final_samples"] == res["samples"] == final.size
        work = Counter()
        psi_sum(inner_outer.carleson_outer(circle.point_set([0.0]),
                                           weights.power(1.0), 1.0),
                final, work)
        assert meta["psi_direct_pairs"] == work["direct_pairs"]
        assert meta["psi_far_evals"] == work["far_evals"]
        # 120 Whitney arcs are few enough to sum every term directly
        assert arcs <= inner_outer.DIRECT_MAX
        assert work == {"direct_pairs": final.size * arcs, "far_evals": 0}

    def test_fixed_N_meta(self, capsys):
        code, rep = run(["carleson", "build", "--set", "fixture:point",
                         "--weight", "power:1", "--N", "8",
                         "--samples", "512"], capsys)
        assert code == 0
        samples = rep["results"]["samples"]
        assert rep["meta"]["N_tried"] == [8.0]
        assert rep["meta"]["final_samples"] == samples
        assert rep["meta"]["psi_direct_pairs"] == \
            samples * rep["results"]["whitney_arcs"]
        assert rep["meta"]["psi_far_evals"] == 0


class TestEntropyTailOnce:
    def test_both_forms_bracket_the_tail_once(self, capsys, monkeypatch):
        # the harmonic_log tail under exp_log is bracketed by integral
        # comparison, once for both forms
        builds = []
        bounds = entropy._tail_sum_bounds

        def counting(tail, w):
            builds.append(tail)
            return bounds(tail, w)

        monkeypatch.setattr(entropy, "_tail_sum_bounds", counting)
        argv = ["set", "entropy", "--set", "fixture:harmonic_log",
                "--weight", "exp_log:1,0.5", "--form", "both"]
        code, rep = run(argv, capsys)
        assert code == 0 and len(builds) == 1
        res = rep["results"]
        assert res["sum"]["tag"] == res["integral"]["tag"] == "finite"
        # the integral form alone builds its own bracket, to the same result
        builds.clear()
        code, alone = run(argv[:-1] + ["integral"], capsys)
        assert code == 0 and len(builds) == 1
        E = fixtures.harmonic_log_set()
        w = weights.exp_log(1.0, 0.5)
        assert entropy.entropy_integral(E, w) == \
            entropy.entropy_integral(E, w, entropy.entropy_sum(E, w))
        assert alone["results"] == res["integral"]


class TestDeterminism:
    def test_results_block_reproducible(self, capsys):
        _, rep1 = run(["measure", "decompose", "--measure",
                       "fixture:two_atoms", "--weight", "power:1",
                       "--grid", "[4,12]", "--kmax", "2"], capsys)
        _, rep2 = run(["measure", "decompose", "--measure",
                       "fixture:two_atoms", "--weight", "power:1",
                       "--grid", "[4,12]", "--kmax", "2"], capsys)
        assert rep1["results"] == rep2["results"]


class TestOneParser:
    def test_calls_share_one_parser(self, capsys):
        cli.build_parser.cache_clear()
        argv = _point_entropy("power:1")
        assert run(argv, capsys)[0] == 0
        assert run(argv, capsys)[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_parse_error_leaves_next_call_unchanged(self, capsys):
        argv = ["set", "entropy", "--set", "fixture:triadic", "--weight",
                "power:1", "--form", "both"]
        cli.build_parser.cache_clear()
        code, rep = run(argv, capsys)
        cli.build_parser.cache_clear()
        # a parse error in the first call on the new parser: a missing
        # operand, an unknown option and a bad choice
        for bad in (["set", "entropy", "--set"], ["set", "entropy", "--x"],
                    ["set", "entropy", "--set", "fixture:point", "--weight",
                     "power:1", "--form", "sideways"]):
            assert cli.main(bad) == 1
        capsys.readouterr()
        again_code, again = run(argv, capsys)
        assert cli.build_parser.cache_info().misses == 1
        assert again_code == code == 0
        rep["meta"].pop("runtime_s")
        again["meta"].pop("runtime_s")
        assert again == rep


class TestOutputFiles:
    def test_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        csv_path = tmp_path / "rep.csv"
        code = cli.main(["--out", str(out), "--csv", str(csv_path),
                         "measure", "decompose", "--measure", "fixture:atom",
                         "--weight", "power:1", "--grid", "[4,12]",
                         "--kmax", "2"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == "gst-1"
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per level
        assert "depth" in lines[0]
