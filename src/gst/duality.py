"""Quadrature layer pairing growth spaces with their Cauchy duals: the
derivative-integral norm, the coefficient pairing and its Green-identity
counterpart, and the reproducing and orthogonality checks of model-space
kernels.  Polynomials are given by their coefficient arrays.

Every boundary limit r -> 1- goes through ``_dilated_boundary_mean``: the
integrand is averaged over midpoint nodes on a circle where it is smooth,
so the trapezoid rule is spectrally accurate; that is the unit circle
itself for rational integrands and dilated circles, whose means are
extrapolated to r = 1, for singular inner factors.  Area integrals use
the normalization dA = (Lebesgue area)/pi, so the unit disc has measure 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circle import CircleMeasure
from .entropy import DIVERGES, FINITE
from .inner_outer import (BlaschkeSeq, blaschke_many, singular_inner_many,
                          unit_point)
from .weights import Weight

FW_ANGLES = 128  # angular nodes per radius of the F_w quadrature
FW_ANNULI = 40  # annuli of the F_w quadrature, out to r = 1 - 2^-40
KERNEL_TOL = 1e-6  # reproducing check, relative to 1 + |kappa(lam2, lam)|
ORTHOGONAL_TOL = 1e-5  # orthogonality check, absolute


def _polyval(z, coeffs):
    # np.polynomial is imported on first use, so commands that pair
    # nothing never load it
    return np.polynomial.polynomial.polyval(z, coeffs)


def _circle_nodes(n: int) -> np.ndarray:
    """The n midpoint nodes e^(2 pi i (k + 1/2)/n) on the unit circle."""
    return unit_point((np.arange(n) + 0.5) / n)


# ---------------------------------------------------------------------------
# F_w norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FwNorm:
    tag: str
    value: Optional[float]
    tail_estimate: float = 0.0


def fw_norm(coeffs, w: Weight) -> FwNorm:
    """|f(0)| + integral over the disc of |f'| dA / w(1-|z|) for the
    polynomial f of these coefficients.

    Annulus j spans radii 1 - 2^-j to 1 - 2^-(j+1), for j < FW_ANNULI.
    Annulus contributions toward |z| = 1 are monitored: if they stop
    decaying the norm is tagged divergent; otherwise the geometric trend
    extrapolates the remaining tail.  An annulus sum past the float range
    raises OverflowError.
    """
    c = np.asarray(coeffs, dtype=complex)
    nodes, wts = np.polynomial.legendre.leggauss(10)
    ez = _circle_nodes(FW_ANGLES)
    # every (annulus, node) radius at once, the node sum in node order
    js = np.arange(FW_ANNULI)
    lo, hi = 1.0 - 2.0 ** -js, 1.0 - 2.0 ** -(js + 1)
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    rs = mid[:, None] + rad[:, None] * nodes
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dc = c[1:] * np.arange(1, c.size)
        means = (np.mean(np.abs(_polyval(rs[:, :, None] * ez, dc)), axis=2)
                 if dc.size else np.zeros_like(rs))
        terms = wts * 2.0 * rs * means / w(1.0 - rs)
        totals = np.zeros(FW_ANNULI)
        for k in range(nodes.size):
            totals += terms[:, k]
    bad = ~np.isfinite(totals)
    if bad.any():
        j = int(np.argmax(bad))
        raise OverflowError(
            f"F_w annulus {j} sums to {float(totals[j])}: float overflow")
    head = abs(complex(c[0]))
    cs = totals * rad
    pos = cs[cs > 0]
    if pos.size >= 6:
        ratios = cs[-4:] / np.maximum(cs[-5:-1], 1e-300)
        rho = float(np.max(ratios))
        if rho >= 0.98 and cs[-1] > 1e-13 * (1.0 + np.sum(cs)):
            return FwNorm(DIVERGES, None)
        rho = min(rho, 0.97)
        tail = float(cs[-1]) * rho / (1.0 - rho)
    else:
        tail = 0.0
    return FwNorm(FINITE, head + float(np.sum(cs)) + tail, tail)


# ---------------------------------------------------------------------------
# Pairings and the Green identity
# ---------------------------------------------------------------------------

def pairing_exact(g_coeffs, f_coeffs, r: float = 1.0) -> complex:
    """sum a_n conj(b_n) r^(2n): the pairing of g and f on the circle of
    radius r, and at r = 1 the coefficient pairing."""
    a = np.asarray(g_coeffs, dtype=complex)
    b = np.asarray(f_coeffs, dtype=complex)
    n = min(a.size, b.size)
    ns = np.arange(n)
    # a non-finite pairing certifies nothing: the CLI exits 2 on it
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.sum(a[:n] * np.conj(b[:n]) * r ** (2.0 * ns)))


def pairing_boundary_quadrature(g_coeffs, f_coeffs) -> complex:
    """The boundary pairing of g and f as the limit r -> 1- of the mean of
    g conj(f) on the circle of radius r."""
    a = np.asarray(g_coeffs, dtype=complex)
    b = np.asarray(f_coeffs, dtype=complex)
    return _dilated_boundary_mean(
        lambda zs: _polyval(zs, a) * np.conj(_polyval(zs, b)),
        4 * (max(a.size, b.size) + 2))


def cauchy_pairing_poly(g_coeffs, f_coeffs) -> complex:
    """Coefficient pairing sum a_n conj(b_n), the r -> 1- boundary limit,
    checked against the boundary quadrature."""
    exact = pairing_exact(g_coeffs, f_coeffs)
    if not cmath.isfinite(exact):
        raise ArithmeticError(f"coefficient pairing {exact} is not finite")
    quad = pairing_boundary_quadrature(g_coeffs, f_coeffs)
    # written so that a NaN difference fails it
    if not abs(quad - exact) <= 1e-8 * (1.0 + abs(exact)):
        raise ArithmeticError(
            f"boundary quadrature {quad} disagrees with coefficients "
            f"{exact}")
    return exact


@dataclass(frozen=True)
class GreenCheck:
    lhs: complex
    rhs: complex
    oracle: complex
    ok: bool


def green_identity_check(g_coeffs, f_coeffs, r: float) -> GreenCheck:
    """Boundary pairing at radius r against its area-integral form.

    lhs = int g(r zeta) conj(f(r zeta)) dm(zeta); rhs = g(0) conj(f(0)) +
    r int_D g(rz) conj(f'(rz)) z^-1 dA(z).  In polar coordinates the z^-1
    kernel cancels the area element, so both quadratures are smooth; for
    polynomials the coefficient oracle ``pairing_exact`` is exact.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0,1)")
    a = np.asarray(g_coeffs, dtype=complex)
    b = np.asarray(f_coeffs, dtype=complex)
    deg = max(a.size, b.size)
    ez = _circle_nodes(4 * (deg + 2))
    gv = _polyval(r * ez, a)
    fv = _polyval(r * ez, b)
    lhs = complex(np.mean(gv * np.conj(fv)))
    db = b[1:] * np.arange(1, b.size) if b.size > 1 else np.zeros(1)
    nodes, wts = np.polynomial.legendre.leggauss(max(10, deg + 2))
    s = 0.5 * (nodes + 1.0)
    rhs_int = 0.0 + 0.0j
    for si, wi in zip(s, wts):
        zs = si * ez
        gv = _polyval(r * zs, a)
        dfv = _polyval(r * zs, db)
        rhs_int += wi * 0.5 * complex(np.mean(gv * np.conj(dfv) *
                                              np.conj(ez) / np.abs(ez)))
    a0 = a[0] if a.size else 0.0
    b0 = b[0] if b.size else 0.0
    rhs = complex(a0 * np.conj(b0)) + 2.0 * r * rhs_int
    oracle = pairing_exact(a, b, r)
    ok = abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
    return GreenCheck(lhs, rhs, oracle, ok)


# ---------------------------------------------------------------------------
# Model-space kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelKernelSpec:
    """An inner function (Blaschke and/or atomic singular) with a base point."""

    blaschke: Optional[BlaschkeSeq] = None
    singular: Optional[CircleMeasure] = None
    lam: complex = 0.0 + 0.0j

    def theta_many(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape, dtype=complex)
        if self.blaschke is not None:
            out = out * blaschke_many(self.blaschke, z)
        if self.singular is not None:
            out = out * singular_inner_many(self.singular, z)[0]
        return out


def _kernel_many(spec: ModelKernelSpec, zs: np.ndarray, lam: complex
                 ) -> np.ndarray:
    """kappa(z, lam) = (1 - conj(Theta(lam)) Theta(z)) / (1 - conj(lam) z)
    at each z of ``zs``."""
    tz = spec.theta_many(zs)
    tl = complex(spec.theta_many(np.array([lam]))[0])
    return (1.0 - np.conj(tl) * tz) / (1.0 - np.conj(lam) * zs)


def _dilated_boundary_mean(fn, boundary_n: int,
                           singular: bool = False) -> complex:
    """Limit of mean_theta fn(r e^(2 pi i theta)) as r -> 1-.

    Rational integrands (polynomials, finite Blaschke content) are
    analytic across the boundary, so the limit is their plain mean over
    the nodes on the unit circle.  Inner functions of atomic measures
    have Taylor tails ~ n^(-3/4), so their dilation bias is O(sqrt(1-r)):
    radii are then tied to the node count (aliasing stays below the bias)
    and the extrapolation solves in the basis {1, sqrt(h), h}.
    """
    ez = _circle_nodes(boundary_n)
    if not singular:
        return complex(np.mean(fn(ez)))
    hs = [4.0 / boundary_n, 16.0 / boundary_n, 64.0 / boundary_n]
    vals = np.array([complex(np.mean(fn((1.0 - h) * ez))) for h in hs])
    M = np.array([[1.0, math.sqrt(h), h] for h in hs])
    sol = np.linalg.solve(M, vals)
    return complex(sol[0])


@dataclass(frozen=True)
class KernelCheck:
    lhs: complex
    rhs: complex
    ok: bool


def kernel_reproducing_check(spec: ModelKernelSpec, lam2: complex,
                             boundary_n: int) -> KernelCheck:
    """Boundary pairing of two kernels against the reproducing value.

    The first kernel's base point is the spec's; the pairing with the
    kernel at lam2 must reproduce kappa(lam2, lam).
    """
    rhs = complex(_kernel_many(spec, np.array([lam2]), spec.lam)[0])
    lhs = _dilated_boundary_mean(
        lambda zs: _kernel_many(spec, zs, spec.lam) *
        np.conj(_kernel_many(spec, zs, lam2)), boundary_n,
        singular=spec.singular is not None)
    scale = 1.0 + abs(rhs)
    return KernelCheck(lhs, rhs, abs(lhs - rhs) <= KERNEL_TOL * scale)


@dataclass(frozen=True)
class OrthogonalityCheck:
    pairing: complex
    ok: bool


def orthogonal_decomposition_check(theta_p: ModelKernelSpec,
                                   theta_c: ModelKernelSpec,
                                   boundary_n: int) -> OrthogonalityCheck:
    """Kernels of the first factor against first-factor multiples of the
    second factor's kernels: the boundary pairing must vanish.

    Sample kernels sit at each factor's own base point.
    """
    def integrand(zs):
        f = _kernel_many(theta_p, zs, theta_p.lam)
        g = theta_p.theta_many(zs) * _kernel_many(theta_c, zs, theta_c.lam)
        return f * np.conj(g)

    singular = (theta_p.singular is not None or theta_c.singular is not None)
    val = _dilated_boundary_mean(integrand, boundary_n, singular=singular)
    return OrthogonalityCheck(val, abs(val) <= ORTHOGONAL_TOL)
