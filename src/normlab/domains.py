"""Bounded domains in C^n (balls and polydiscs) with exact boundary-distance
and ray-extent queries."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .expr import CPoint


def _check_center(center: CPoint) -> None:
    if not all(cmath.isfinite(c) for c in center):
        raise DomainError(f"domain center must be finite, got {center}")


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {z : |z - center| < radius} in C^n."""

    center: CPoint
    radius: float

    def __post_init__(self):
        _check_center(self.center)
        if not (0 < self.radius < math.inf):
            raise DomainError(f"ball radius must be finite and positive, got {self.radius}")

    @property
    def dimension(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Polydisc:
    """Product of coordinate discs {z : |z_k - center_k| < radii_k}."""

    center: CPoint
    radii: tuple[float, ...]

    def __post_init__(self):
        if len(self.radii) != len(self.center):
            raise DomainError("polydisc radii length must match center dimension")
        _check_center(self.center)
        if not all(0 < r < math.inf for r in self.radii):
            raise DomainError(f"polydisc radii must be finite and positive, got {self.radii}")

    @property
    def dimension(self) -> int:
        return len(self.center)


Domain = Ball | Polydisc


def boundary_distance_batch(domain: Domain, points) -> np.ndarray:
    """Distance from each row of an (N, n) point array to the boundary, (N,).

    For a ball this is the Euclidean distance r - |p - a|.  For a polydisc it
    is min_k (r_k - |p_k - a_k|): the largest rho with B(p, rho) inside every
    coordinate disc, not the Euclidean distance to the topological boundary.
    A row is interior exactly where its distance is > 0; a row outside the
    domain, on its boundary or with a non-finite coordinate is flagged by a
    distance <= 0 or nan, not raised, and an offset or a norm past the float
    range reads inf, with no warning.
    """
    with np.errstate(over="ignore"):
        d = offsets(domain, points)
        if isinstance(domain, Ball):
            return domain.radius - row_norms(d)
        return np.min(np.asarray(domain.radii) - np.abs(d), axis=1)


NOT_INTERIOR = "point is not interior to the domain"


def offsets(domain: Domain, points) -> np.ndarray:
    """p - center for each row p of an (N, n) point array of the domain's dimension."""
    p = np.asarray(points, dtype=complex)
    if p.ndim != 2 or p.shape[1] != domain.dimension:
        raise DimensionMismatchError(f"points of shape {p.shape}, domain expects dimension {domain.dimension}")
    return p - np.asarray(domain.center, dtype=complex)


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, n) array, (N,): np.hypot folded
    over the moduli column by column, which is np.hypot.reduce along each row
    without numpy's slow pass along a short axis.  No term is squared, so a
    norm is finite wherever it is representable."""
    return functools.reduce(np.hypot, np.abs(a).T)


def ray_extent_batch(domain: Domain, directions) -> np.ndarray:
    """sup{t > 0 : center + t*u inside the domain} for each row u of an
    (m, n) array of nonzero directions, (m,)."""
    u = np.asarray(directions, dtype=complex)
    norm = row_norms(u)
    if np.any(norm == 0):
        raise ValueError("direction must be nonzero")
    if isinstance(domain, Ball):
        return domain.radius / norm
    mags = np.abs(u)
    with np.errstate(divide="ignore"):
        return np.min(np.where(mags > 0, np.asarray(domain.radii) / mags, np.inf), axis=1)
