"""Canonical desk-scale fixtures: weights, closed sets and singular measures.

These are the objects the test suite and the reporting CLI agree on.  The
Cantor-type measures are realized at 14 stages (16384 atoms), deep enough
that every acceptance computation resolves exactly, small enough that the
whole suite stays fast.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import circle, weights
from .circle import (CantorPart, CircleMeasure, ClosedCircleSet, GapTail,
                     point_set, set_union, stagewise_log_generator,
                     triadic_generator)
from .weights import Weight

MEASURE_STAGES = 14
HARMONIC_MATERIALIZED = 4096


def builtin_majorants() -> dict:
    """The weights every majorant-quantified property is tested against."""
    return {
        "t^0.5": weights.power(0.5),
        "t": weights.power(1.0),
        "t^2": weights.power(2.0),
        "log^-1": weights.log_power(1.0),
        "log^-2": weights.log_power(2.0),
        "loglog^-1": weights.log_power(1.0, depth=2),
        "exp_log(1,0.5)": weights.exp_log(1.0, 0.5),
    }


def grid_suite() -> dict:
    """Majorants used for grid-construction coverage.

    Iterated-log weights are excluded: a single eta-multiplication step at
    C = 5 starting from depth 8 would need depths around e^195, far beyond
    the 10^7 construction cap.
    """
    keep = ("t^0.5", "t", "t^2", "log^-1", "log^-2", "exp_log(1,0.5)")
    return {k: v for k, v in builtin_majorants().items() if k in keep}


def a1_family() -> dict:
    """Weights quantifying the slow-decay comparability family."""
    fam = {}
    for c in (0.5, 1.0, 2.0):
        fam[f"t^{c:g}"] = weights.power(c)
        fam[f"log^-{c:g}"] = weights.log_power(c)
        fam[f"loglog^-{c:g}"] = weights.log_power(c, depth=2)
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            fam[f"exp_log({a:g},{b:g})"] = weights.exp_log(a, b)
    return fam


def fast_decay_weight() -> Weight:
    """exp(-exp(1/t)): decays too fast for the comparability condition."""
    return weights.exp_recip(1.0, 2)


def non_majorant_weight() -> Weight:
    """exp(-1/t): no positive power is subadditive near 0."""
    return weights.exp_recip(1.0)


# ---------------------------------------------------------------------------
# Closed sets
# ---------------------------------------------------------------------------

def triadic_cantor_set(depth: int = 8) -> ClosedCircleSet:
    part = CantorPart(triadic_generator(), stages=depth, mass=1.0,
                      carrier_depth=depth)
    return part.carrier


def stagewise_divergent_set(depth: int = 10) -> ClosedCircleSet:
    part = CantorPart(stagewise_log_generator(), stages=depth, mass=1.0,
                      carrier_depth=depth)
    return part.carrier


def harmonic_log_set() -> ClosedCircleSet:
    """Gaps of length A/(k log^2 k): the canonical divergent gap family,
    the first HARMONIC_MATERIALIZED of them listed and the rest a tail."""
    amp = 1.0 / circle.LOG_SERIES
    ks = np.arange(2.0, HARMONIC_MATERIALIZED + 2.0)
    lens = amp / (ks * np.log(ks) ** 2)
    starts = np.concatenate([[0.0], np.cumsum(lens)[:-1]])
    tail = GapTail("harmonic_log", (amp, HARMONIC_MATERIALIZED + 1))
    return ClosedCircleSet(starts, lens, tail=tail, name="harmonic_log")


def entropy_set_fixtures() -> dict:
    """The six sets the entropy layer is quantified over.

    Values are (set, expected finiteness for power weights).
    """
    tri = triadic_cantor_set(8)
    return {
        "point": (point_set([0.0]), True),
        "two_points": (point_set([0.0, 0.5]), True),
        "triadic": (tri, True),
        "triadic_union_point": (set_union(tri, point_set([0.5])), True),
        "harmonic_log": (harmonic_log_set(), False),
        "stagewise_divergent": (stagewise_divergent_set(10), False),
    }


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def atom_fixture() -> CircleMeasure:
    return circle.atom_measure(Fraction(0), 1.0, name="atom")


def two_atom_fixture() -> CircleMeasure:
    return CircleMeasure(atoms=[(Fraction(0), 0.5), (Fraction(1, 2), 0.5)],
                         name="two_atoms")


def triadic_cantor_measure(stages: int = MEASURE_STAGES) -> CircleMeasure:
    part = CantorPart(triadic_generator(), stages=stages, mass=1.0,
                      carrier_depth=min(stages, 8))
    return CircleMeasure(cantor_parts=[part], name="triadic_cantor")


def divergent_cantor_measure(stages: int = MEASURE_STAGES) -> CircleMeasure:
    part = CantorPart(stagewise_log_generator(), stages=stages, mass=1.0,
                      carrier_depth=min(stages, 10))
    return CircleMeasure(cantor_parts=[part], name="divergent_cantor")


def measure_fixtures() -> dict:
    return {
        "atom": atom_fixture(),
        "two_atoms": two_atom_fixture(),
        "triadic_cantor": triadic_cantor_measure(),
        "divergent_cantor": divergent_cantor_measure(),
    }


def named_fixture(name: str):
    """Resolve a fixture by name for the CLI (sets and measures)."""
    measures = {
        "atom": atom_fixture, "two_atoms": two_atom_fixture,
        "triadic_cantor": triadic_cantor_measure,
        "divergent_cantor": divergent_cantor_measure,
    }
    sets = {
        "point": lambda: point_set([0.0]),
        "two_points": lambda: point_set([0.0, 0.5]),
        "triadic": triadic_cantor_set,
        "harmonic_log": harmonic_log_set,
        "stagewise_divergent": stagewise_divergent_set,
    }
    if name in measures:
        return measures[name]()
    if name in sets:
        return sets[name]()
    raise KeyError(f"unknown fixture {name!r}")
