"""Bounded domains in C^n (balls and polydiscs) with exact boundary-distance
and inscribed/circumscribed-ball queries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .expr import CPoint


def _as_array(p: CPoint) -> np.ndarray:
    return np.asarray(p, dtype=complex)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {z : |z - center| < radius} in C^n."""

    center: CPoint
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError(f"ball radius must be positive, got {self.radius}")

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
        if any(r <= 0 for r in self.radii):
            raise DomainError(f"polydisc radii must be positive, got {self.radii}")

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
    distance <= 0 or nan, not raised.
    """
    p = np.asarray(points, dtype=complex)
    if p.ndim != 2 or p.shape[1] != domain.dimension:
        raise DimensionMismatchError(
            f"points of shape {p.shape}, domain expects dimension {domain.dimension}"
        )
    d = p - _as_array(domain.center)
    if isinstance(domain, Ball):
        return domain.radius - np.linalg.norm(d, axis=1)
    return np.min(np.asarray(domain.radii) - np.abs(d), axis=1)


def contains(domain: Domain, p: CPoint) -> bool:
    """True iff p lies strictly inside the domain."""
    return bool(boundary_distance_batch(domain, [p])[0] > 0)


NOT_INTERIOR = "point is not interior to the domain"


def boundary_distance(domain: Domain, p: CPoint) -> float:
    """`boundary_distance_batch` at one interior point; DomainError elsewhere."""
    distance = float(boundary_distance_batch(domain, [p])[0])
    if not distance > 0:
        raise DomainError(NOT_INTERIOR)
    return distance


def inscribed_ball(domain: Domain, p: CPoint) -> Ball:
    """Largest ball centered at p guaranteed to lie inside the domain."""
    return Ball(tuple(complex(c) for c in p), boundary_distance(domain, p))


def circumscribed_ball(domain: Domain) -> Ball:
    """Smallest ball centered at the domain's center containing the domain."""
    if isinstance(domain, Ball):
        return domain
    return Ball(domain.center, math.sqrt(sum(r * r for r in domain.radii)))


def ray_extent(domain: Domain, direction: CPoint) -> float:
    """sup{t > 0 : center + t*direction inside the domain}, for direction != 0."""
    u = _as_array(direction)
    norm = float(np.linalg.norm(u))
    if norm == 0:
        raise ValueError("direction must be nonzero")
    if isinstance(domain, Ball):
        return domain.radius / norm
    mags = np.abs(u)
    with np.errstate(divide="ignore"):
        return float(np.min(np.where(mags > 0, np.asarray(domain.radii) / mags, np.inf)))
