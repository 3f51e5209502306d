"""Star-shaped subdomains of the disc touching the boundary on a closed set,
their inner-boundary samples, and the growth estimate of the Carleson outer
function along them.

The domain is { r zeta : 0 <= r < 1 - h(zeta) } where the cusp profile h
vanishes on the set and lifts quadratically over each gap:
h = (1/2) ((t-a)(b-t)/(b-a))^2 in normalized arc-length coordinates, so
h <= 1/32 everywhere and h is comparable to dist(., set)^2 with constants
in [1/8, 1/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import ClosedCircleSet
from .inner_outer import CarlesonOuter, boundary_ratio, unit_point
# unused here; the benchmark's own tests check that this binding is
# inner_outer.carleson_many
from .inner_outer import carleson_many  # noqa: F401

H_MAX = 1.0 / 32.0
MAX_SAMPLES = 2 ** 20  # time and memory grow linearly in the count


@dataclass(frozen=True)
class PrivalovDomain:
    E: ClosedCircleSet

    def profile(self, t) -> np.ndarray:
        """Cusp height h over the boundary points at arc coordinates t."""
        t = np.asarray(t, dtype=float)
        j = self.E.gap_index(t)
        if not self.E.starts.size:
            return np.zeros(t.shape)
        rel = (t - self.E.starts[j]) % 1.0
        length = self.E.lengths[j]
        q = rel * (length - rel) / length
        return np.where(j < 0, 0.0, 0.5 * q * q)

    def contains(self, z: complex) -> bool:
        if z == 0:
            return True
        t = (np.angle(z) / (2.0 * math.pi)) % 1.0
        # one-sided float guard: |unit_point(t)| itself rounds within an ulp
        # of 1, so points of the lid curve must not leak inside
        return bool(abs(z) < 1.0 - self.profile(t) - 1e-15)

    def boundary_point(self, t: float) -> complex:
        return complex(unit_point(t % 1.0)) * (1.0 - float(self.profile(t)))


def boundary_samples_with_profile(D: PrivalovDomain, count: int):
    """(points, cusp heights) along the inner boundary curve, gap by gap.

    Each gap receives samples proportional to its length plus a fixed
    geometric densification toward both endpoints (where the domain cusps);
    the gap midpoint (deepest point of the lid) is always included.  The
    cusp height 1 - |z| = h is returned exactly: near the endpoints it
    falls below the float resolution of 1 - |z|.
    """
    if not 1 <= count <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in [1, {MAX_SAMPLES}], "
                         f"got {count}")
    lengths = D.E.lengths.tolist()
    total = sum(lengths)  # left to right in start order
    dens = 16  # geometric offsets per endpoint
    n_uni = [max(3, int(round(count * ln / total))) for ln in lengths]
    offsets = {n: np.unique(np.concatenate([
        np.arange(1, n) / n,
        2.0 ** -np.arange(2, dens + 2),
        1.0 - 2.0 ** -np.arange(2, dens + 2),
    ])) for n in set(n_uni)}
    if (made := sum(offsets[n].size for n in n_uni)) > MAX_SAMPLES:
        raise ValueError(f"sample count {count} makes {made} samples on "
                         f"{len(lengths)} gaps, more than {MAX_SAMPLES}")
    # a set without gaps has no samples
    s = np.concatenate([np.zeros(0)] + [offsets[n] for n in n_uni])
    start, length = (np.repeat(x, [offsets[n].size for n in n_uni])
                     for x in (D.E.starts, D.E.lengths))
    q = length * s * (1.0 - s)  # rel (L - rel) / L without cancellation
    h = 0.5 * q * q
    return unit_point((start + length * s) % 1.0) * (1.0 - h), h


@dataclass(frozen=True)
class BoundaryEstimate:
    max_ratio: float
    ok: bool
    n_samples: int


def privalov_boundary_estimate(G: CarlesonOuter, psi, tail,
                               hs) -> BoundaryEstimate:
    """max over inner-boundary samples of |G(z)| / w(1-|z|), from
    ``(psi, tail)`` = ``psi_sum_many(G, zs)`` at the samples ``zs`` of
    ``boundary_samples_with_profile`` and their cusp heights ``hs``."""
    worst, ok = boundary_ratio(psi, tail, G.N, np.asarray(G.weight(hs)))
    return BoundaryEstimate(worst, ok, len(hs))

