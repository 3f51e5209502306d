"""Command-line front end: fixtures, decompositions, checks, JSON reports.

Exit codes: 0 success, 1 validation error, 2 uncertified result.
Operands are fixture:NAME references, inline JSON, *.json files or
compact text forms, all read by ``_operand``.  Reports are strict JSON
with the schema tag and a deterministic results block; a non-finite
float is written as null, and a NaN in the results makes the result
uncertified.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import reprlib
import sys
import time
from collections import Counter
from pathlib import Path

from . import circle, duality, entropy, fixtures, grids, inner_outer, \
    privalov, roberts, util, weights


class CliError(Exception):
    pass


class UncertifiedResult(Exception):
    """A result that certifies nothing; ``block`` is reported under
    ``results.uncertified`` with exit code 2."""

    def __init__(self, block: dict):
        super().__init__(block)
        self.block = block


def _json_object(pairs) -> dict:
    """A JSON object whose keys are all distinct: ``json.loads`` alone
    keeps the last of a repeated key and drops the others unseen."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CliError(f"JSON key {reprlib.repr(key)} is repeated")
        obj[key] = value
    return obj


def _operand(args, flag: str, cls: type, parse):
    """The object that the operand ``--flag`` names.

    ``fixture:NAME`` is the named fixture, which must be a ``cls``; text
    starting with ``{`` or ``[`` is inline JSON and a ``*.json`` name a
    JSON file, both handed to ``parse``; any other text goes to ``parse``
    as it is (the compact weight forms, ``auto``).
    """
    text = getattr(args, flag)
    if text is None:
        raise CliError(f"--{flag} is required")
    if text.startswith("fixture:"):
        obj = fixtures.named_fixture(text[len("fixture:"):])
        if not isinstance(obj, cls):
            raise CliError(f"{text} is not a {cls.__name__} fixture")
        return obj
    if text.startswith(("{", "[")):
        raw = text
    elif text.endswith(".json"):
        raw = Path(text).read_text(encoding="utf-8")
    else:
        return parse(text)
    try:
        obj = json.loads(raw, object_pairs_hook=_json_object)
    except RecursionError:
        raise CliError(f"--{flag} nests too deeply") from None
    return parse(obj)


def _weight(args) -> weights.Weight:
    return _operand(args, "weight", weights.Weight, weights.from_spec)


def _measure(args) -> circle.CircleMeasure:
    return _operand(args, "measure", circle.CircleMeasure,
                    circle.measure_from_json)


def _set(args) -> circle.ClosedCircleSet:
    return _operand(args, "set", circle.ClosedCircleSet, circle.set_from_json)


def _grid(args, w: weights.Weight) -> grids.DyadicGrid:
    return _operand(args, "grid", grids.DyadicGrid, lambda obj: (
        grids.feasible_grid(w, 4, 3.0, 5) if obj == "auto"
        else grids.grid_from_json(obj)))


def _coefficients(args, flag: str) -> list:
    """A polynomial's coefficients: a flat, nonempty list of finite
    numbers."""
    def parse(obj):
        coeffs = util.as_floats(obj, f"--{flag} coefficient")
        if not coeffs:
            raise CliError(f"--{flag} lists no coefficients")
        return coeffs
    return _operand(args, flag, list, parse)


def _parse_complex(text: str) -> complex:
    z = complex(text.replace("i", "j"))
    if not cmath.isfinite(z):
        raise CliError(f"{text!r} is not a finite complex number")
    return z


def finite_float(text: str) -> float:
    """The argparse type of every float flag: NaN and infinities exit 1."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return x


def positive_float(text: str) -> float:
    """The argparse type of a float flag that must be finite and > 0."""
    x = finite_float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return x


# -- subcommand handlers -----------------------------------------------------

def cmd_weight(args):
    w = _weight(args)
    work = Counter()
    maj = weights.check_majorant(w, weights.lambda_candidates(w), work=work)
    moc = maj.modulus  # the walk's lambda = 1 step: the candidates hold 1
    out = {
        "label": w.label(),
        "modulus_of_continuity": {"ok": moc.ok, "witness": moc.witness,
                                  "reason": moc.reason},
        "majorant": {"ok": maj.ok, "lambda": maj.lam},
    }
    try:
        a1 = weights.check_A1(w, 12)  # at t = 2^-2 .. 2^-12
        out["A1"] = {"ratio_low": a1.ratio_low, "ratio_high": a1.ratio_high,
                     "ok": a1.ok}
    except weights.InvalidWeightError as exc:
        out["A1"] = {"error": str(exc)}
    if args.alpha is not None:
        # (A2) presumes a majorant: w^(1+alpha) is one exactly when w is
        if not maj.ok:
            raise weights.InvalidWeightError("w^(1+alpha) is not a majorant")
        a2 = weights.check_A2(w, args.alpha)
        out["A2"] = {"dini_integral": a2.dini_integral, "ok": a2.ok,
                     "low": a2.low, "high": a2.high}
    return out, {"majorant_certified": maj.certified,
                 "slope_proofs": work["slope_proofs"],
                 "sweep_rows": work["sweep_rows"]}


def cmd_set_entropy(args) -> dict:
    E = _set(args)
    w = _weight(args)
    summed = entropy.entropy_sum(E, w)
    forms = ("sum", "integral") if args.form == "both" else (args.form,)
    tagged = {form: summed.result if form == "sum" else
              entropy.entropy_integral(E, w, summed) for form in forms}
    blocks = {form: {"form": form, **dataclasses.asdict(tv)}
              for form, tv in tagged.items()}
    out = blocks if args.form == "both" else blocks[args.form]
    if any(tv.tag == entropy.UNDECIDED for tv in tagged.values()):
        raise UncertifiedResult(out)
    return out


def cmd_grid(args) -> dict:
    w = _weight(args)
    if args.grid_cmd == "build":
        g = grids.build_grid(w, args.n0, args.C, args.k)
    else:
        g = _grid(args, w)
    v = grids.verify_grid(g, w)
    return {"depths": list(g.depths), "beta": v.beta,
            "is_w_grid": v.is_w_grid, "superlacunary": v.superlacunary,
            "lambda": g.lam, "C": g.C_param}


def cmd_measure(args) -> dict:
    w = _weight(args)
    mu = _measure(args)
    if args.measure_cmd == "classify":
        cls = entropy.classify_measure(mu, w)
        out = {
            "total_mass": mu.total_mass(),
            "mu_P_mass": cls.mu_P.total_mass(),
            "mu_C_mass": cls.mu_C.total_mass(),
            "certificates": list(cls.certificates),
            "undecided_components": len(cls.undecided),
        }
        if cls.undecided:
            raise UncertifiedResult(out)
        return out
    grid = _grid(args, w)
    dec = roberts.decompose(mu, grid, args.c, w, args.kmax)
    levels = []
    for rep in dec.reports:
        levels.append({
            "depth": rep.depth, "threshold": rep.threshold,
            "heavy_count": rep.heavy_count,
            "light_mass_count": len(rep.light_arcs),
            "mass_before": rep.total_mass_before,
        })
    return {
        "levels": levels,
        "piece_masses": [p.total_mass() for p in dec.pieces],
        "residual_mass": dec.residual.total_mass(),
        "mass_balance_error": dec.mass_balance_error(),
        "heavy_nesting": dec.heavy_nesting_ok(),
        "beta": dec.beta,
        "light_entropy_ledger": dec.light_entropy_ledgers[-1],
        "carrier_entropy_bound": dec.carrier_entropy_bound,
    }


def cmd_inner(args) -> dict:
    mu = _measure(args)
    z = _parse_complex(args.z)
    val = inner_outer.eval_singular_inner(mu, z, args.eps)
    out = {"z": {"re": z.real, "im": z.imag},
           "value": {"re": val.value.real, "im": val.value.imag},
           "abs": abs(val.value), "err": val.err}
    if not val.err <= args.eps:  # a NaN radius certifies nothing
        raise UncertifiedResult(out)
    return out


def _carleson_check(args, spec: str):
    """(G, boundary estimate, meta) for N given as a number or "auto".

    "auto" takes the first N of the doubling ladder that passes on the
    samples; the estimate then runs on the same samples, from the same
    psi sum (psi does not depend on N).
    """
    E = _set(args)
    w = _weight(args)
    D = privalov.PrivalovDomain(E)
    auto = spec == "auto"
    zs, hs = privalov.boundary_samples_with_profile(D, args.samples)
    G = inner_outer.carleson_outer(E, w, 1.0 if auto else float(spec))
    work = Counter()
    psi, tail = inner_outer.psi_sum_many(G, zs, work)
    tried = [G.N]
    if auto:
        try:
            G = inner_outer.auto_carleson_N(G, psi, tail, hs)
        except inner_outer.NoAdmissibleN as exc:
            raise UncertifiedResult({"error": str(exc)})
        tried = list(inner_outer.n_ladder(G.N))
    est = privalov.privalov_boundary_estimate(G, psi, tail, hs)
    meta = {"N_tried": tried, "final_samples": est.n_samples,
            "psi_direct_pairs": work["direct_pairs"],
            "psi_far_evals": work["far_evals"]}
    return G, est, meta


def cmd_carleson(args):
    G, est, meta = _carleson_check(args, args.N)
    return {"N": G.N, "whitney_arcs": len(G.whitney.arcs),
            "boundary_max_ratio": est.max_ratio, "boundary_ok": est.ok,
            "samples": est.n_samples}, meta


def cmd_privalov(args):
    G, est, meta = _carleson_check(args, args.carleson)
    return {"N_used": G.N, "max_ratio": est.max_ratio, "ok": est.ok,
            "samples": est.n_samples}, meta


def cmd_dual(args) -> dict:
    if args.dual_cmd == "pair":
        val = duality.cauchy_pairing_poly(_coefficients(args, "g"),
                                          _coefficients(args, "f"))
        return {"pairing": {"re": val.real, "im": val.imag}}
    f, w = _coefficients(args, "f"), _weight(args)
    res = duality.fw_norm(f, w)
    return {"tag": res.tag, "value": res.value,
            "tail_estimate": res.tail_estimate}


def cmd_report_cyclicity(args) -> dict:
    if args.kmax < 1:
        raise CliError(f"--kmax {args.kmax} is below 1")
    w = _weight(args)
    mu = _measure(args)
    cls = entropy.classify_measure(mu, w)
    out = {
        "measure": mu.name,
        "weight": w.label(),
        "total_mass": mu.total_mass(),
        "mu_P_mass": cls.mu_P.total_mass(),
        "mu_C_mass": cls.mu_C.total_mass(),
        "certificates": list(cls.certificates),
    }
    if cls.undecided:
        out["verdict"] = "undecided"
        raise UncertifiedResult(out)
    total = mu.total_mass()
    if cls.mu_P.total_mass() > 1e-12 * (1.0 + total):
        out["verdict"] = ("not cyclic: mu_P = mu" if
                          cls.mu_C.total_mass() <= 1e-12 * (1.0 + total)
                          else "not cyclic: mu_P nonzero")
        return out
    out["verdict"] = "cyclic evidence: mu_C = mu"
    grid = _grid(args, w)
    dec = roberts.decompose(mu, grid, args.c, w, max(6, args.kmax))
    masses = dec.residual_masses
    out["residual_decay"] = [
        {"k_max": kmax, "residual_mass": masses[min(kmax, len(masses)) - 1]}
        for kmax in (2, 4, 6)]
    levels = min(args.kmax, len(masses))  # the dossier's first levels
    margins, arcs = [], 0
    for piece, rep in zip(dec.pieces[:levels], dec.reports):
        cc = inner_outer.corona_datum_check(piece, rep.depth, args.c, w)
        margins.append({"depth": rep.depth, "inf_low": cc.inf_low,
                        "bound": cc.bound, "ok": cc.ok})
        arcs += cc.n_samples
    meta = {"corona_arcs": arcs}
    out["corona_margins"] = margins
    out["corona_parameters"] = inner_outer.corona_parameter_report(
        w, args.c, grid.depths[0], K=args.K)
    out["mass_balance_error"] = dec.mass_balance_error(levels)
    out["light_entropy_ledger"] = dec.light_entropy_ledgers[levels - 1]
    out["carrier_entropy_bound"] = dec.carrier_entropy_bound
    return out, meta


@functools.cache  # parsing leaves the parser as it was: one per process
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gst",
                                description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--csv", help="mirror the first results table as CSV")
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weight", help="regularity checks for a weight")
    w.add_argument("weight_cmd", choices=["check"])
    w.add_argument("--weight", required=True)
    w.add_argument("--alpha", type=finite_float)

    s = sub.add_parser("set", help="entropy of a closed null set")
    s.add_argument("set_cmd", choices=["entropy"])
    s.add_argument("--set", required=True)
    s.add_argument("--weight", required=True)
    s.add_argument("--form", choices=["sum", "integral", "both"],
                   default="sum")

    g = sub.add_parser("grid", help="build or verify a dyadic grid")
    g.add_argument("grid_cmd", choices=["build", "verify"])
    g.add_argument("--weight", required=True)
    g.add_argument("--n0", type=int, default=4)
    g.add_argument("--C", type=finite_float, default=3.0)
    g.add_argument("--k", type=int, default=5)
    g.add_argument("--grid")

    m = sub.add_parser("measure", help="decompose or classify a measure")
    m.add_argument("measure_cmd", choices=["decompose", "classify"])
    m.add_argument("--measure", required=True)
    m.add_argument("--weight", required=True)
    m.add_argument("--grid", default="auto")
    m.add_argument("--c", type=finite_float, default=0.1)
    m.add_argument("--kmax", type=int, default=3)

    i = sub.add_parser("inner", help="evaluate a singular inner function")
    i.add_argument("inner_cmd", choices=["eval"])
    i.add_argument("--measure", required=True)
    i.add_argument("--z", required=True)
    i.add_argument("--eps", type=finite_float, default=1e-10)

    c = sub.add_parser("carleson", help="build the gap-family outer function")
    c.add_argument("carleson_cmd", choices=["build"])
    c.add_argument("--set", required=True)
    c.add_argument("--weight", required=True)
    c.add_argument("--N", default="auto")
    c.add_argument("--samples", type=int, default=2048)

    pv = sub.add_parser("privalov", help="inner-boundary estimate")
    pv.add_argument("privalov_cmd", choices=["check"])
    pv.add_argument("--set", required=True)
    pv.add_argument("--weight", required=True)
    pv.add_argument("--carleson", default="auto")
    pv.add_argument("--samples", type=int, default=4096)

    d = sub.add_parser("dual", help="pairings and dual norms")
    d.add_argument("dual_cmd", choices=["pair", "fw-norm"])
    d.add_argument("--g")
    d.add_argument("--f")
    d.add_argument("--weight")

    r = sub.add_parser("report", help="composed evidence dossiers")
    r.add_argument("report_cmd", choices=["cyclicity"])
    r.add_argument("--measure", required=True)
    r.add_argument("--weight", required=True)
    r.add_argument("--grid", default="[4,8,12,16,20,24]")
    r.add_argument("--c", type=finite_float, default=0.1)
    r.add_argument("--kmax", type=int, default=6)
    r.add_argument("--K", type=positive_float, default=10.0,
                   help="solvability constant used in parameter reporting")
    return p


def main(argv=None) -> int:
    started = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "weight": cmd_weight,
        "set": cmd_set_entropy,
        "grid": cmd_grid,
        "measure": cmd_measure,
        "inner": cmd_inner,
        "carleson": cmd_carleson,
        "privalov": cmd_privalov,
        "dual": cmd_dual,
        "report": cmd_report_cyclicity,
    }
    params = {k: v for k, v in vars(args).items() if k not in ("out", "csv")}
    try:
        try:
            results = handlers[args.command](args)
            results, meta = results if isinstance(results, tuple) \
                else (results, None)
            field = util.nan_field(results)
            if field is not None:
                raise UncertifiedResult({"error": f"{field} is NaN",
                                         **results})
            code = 0
        except (UncertifiedResult, ArithmeticError) as exc:
            # an overflow or a failed cross-check certifies nothing
            block = exc.block if isinstance(exc, UncertifiedResult) \
                else {"error": f"{type(exc).__name__}: {exc}"}
            results, meta, code = {"uncertified": block}, None, 2
        util.emit(util.report(args.command, params, results, started, meta),
                  args.out, args.csv)
        return code
    except (CliError, ValueError, KeyError, OSError,
            weights.UncertifiedError, grids.GridConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
