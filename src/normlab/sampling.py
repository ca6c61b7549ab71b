"""Deterministic direction and grid generators.

All generators are pure functions of (dimension, count, seed), so any report
built on them is reproducible bit-for-bit.
"""

from __future__ import annotations

import functools
import math
import operator
import random

import numpy as np

from .domains import row_norms
from .errors import EvaluationError

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def _rd_sign(d: int, num: int, den: int) -> int:
    """The sign of x^(d+1) - x - 1 at x = num / den, den > 0, exactly."""
    value = num ** (d + 1) - num * den**d - den ** (d + 1)
    return (value > 0) - (value < 0)


@functools.cache
def _rd_root(d: int) -> float:
    """phi of the R_d sequence in d dimensions (see `sphere_directions`), the
    root of x^(d+1) = x + 1 in (1, 2), correctly rounded: bisection over the
    doubles, each sign taken exactly in ints, then the nearer of the two
    doubles that bracket the root, by the sign at their midpoint."""
    lo, hi = 1.0, 2.0  # the polynomial is -1 at 1 and 2^(d+1) - 3 at 2
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        if _rd_sign(d, *mid.as_integer_ratio()) < 0:
            lo = mid
        else:
            hi = mid
    (a, b), (c, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
    # the root is irrational (+-1 are the only rational candidates), so it is
    # never the midpoint itself
    return lo if _rd_sign(d, a * e + c * b, 2 * b * e) > 0 else hi


def sphere_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """`count` unit vectors in C^n, shape (count, n).

    The set is tuned for estimating sup_{|v|=1} |<g, v>| over a fixed linear
    functional g, which is invariant under a global phase of v:

    - n = 2: Hopf lifts of a Fibonacci lattice on S^2, i.e. a low-discrepancy
      sweep of the phase-quotient CP^1 (plain sampling of S^3 would waste
      budget on the irrelevant global phase);
    - every other n: an R_d Kronecker sequence in d = 2n dimensions,
      frac(s + k*alpha) for k = 1..count with alpha_j = phi^-j, phi the
      positive root of x^(d+1) = x + 1 correctly rounded (`_rd_root`) and the
      shift s drawn from the seed; Box-Muller turns each coordinate pair
      (u, w) into the complex Gaussian sqrt(-2 log(1-u)) exp(2 pi i w), and
      the rows are normalized.  For n = 1 that leaves the distinct unit
      phases exp(2 pi i w) (the functional's modulus is phase-invariant, so
      any single direction is already exact there).

    The shift s is the first 2n numbers of `random.Random(seed).random()`
    (MT19937, the same for an int seed in every Python release), so a numpy
    upgrade cannot move the directions and numpy.random is not loaded.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    if n == 2:
        k = np.arange(count)
        cos_theta = 1.0 - (2.0 * k + 1.0) / count
        theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        v = np.empty((count, 2), dtype=complex)
        v[:, 0] = np.cos(theta / 2.0)
        v[:, 1] = np.sin(theta / 2.0) * np.exp(1j * phi)
        return v
    if (seed := operator.index(seed)) < 0:  # random.Random would fold it onto its absolute value
        raise ValueError("seed must be non-negative")
    draw = random.Random(seed).random
    steps = np.arange(1, count + 1)[:, None] * _rd_root(2 * n) ** -np.arange(1.0, 2 * n + 1)
    x = (steps + np.array([draw() for _ in range(2 * n)])) % 1.0
    v = np.sqrt(-2.0 * np.log1p(-x[:, :n])) * np.exp(2j * math.pi * x[:, n:])
    norms = row_norms(v)
    norms[norms == 0] = 1.0
    return v / norms[:, None]


def scan_rays(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Unit rays used to place scan points: the signed real coordinate
    directions first (so axis-aligned boundary approaches are always probed),
    then a low-discrepancy fill."""
    eye = np.eye(n, dtype=complex)
    rays = np.stack([eye, -eye], axis=1).reshape(2 * n, n)[:count]  # +e_1, -e_1, +e_2, ...
    if count > 2 * n:
        rays = np.concatenate([rays, sphere_directions(n, count - 2 * n, seed + 7919)])
    return rays


def ball_grid(n: int, radius: float, grid_size: int, seed: int = 0) -> np.ndarray:
    """Deterministic covering of the closed ball |zeta| <= radius in C^n.

    Concentric spheres at radii k/m * radius, the origin included first.  Each
    ring holds at least 2n points, and for n >= 2 its first 2n are the signed
    coordinate axes (`scan_rays`), so every coordinate moves on the grid.  The
    outermost shell always contains +/- radius * e_1 exactly, so suprema of
    affine functions are attained on the grid.  Returns shape (N, n).
    Raises EvaluationError when radius times the ring count passes the
    largest finite float, since the rings' radii would not all be finite.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    n_rings = max(2, int(round(math.sqrt(grid_size))))
    if not math.isfinite(radius * n_rings):
        raise EvaluationError(f"grid radius {radius!r} times {n_rings} rings passes the largest finite float")
    per_ring = max(4, 2 * n, -(-grid_size // n_rings))  # every signed axis on every ring
    if per_ring % 2:
        per_ring += 1
    k = np.arange(1, n_rings + 1)
    radii = (radius * k / n_rings)[:, None]
    if n == 1:
        # outermost ring anchored at angle 0 so +/-r are on the grid
        offsets = np.where(k == n_rings, 0.0, GOLDEN_FRAC * k)[:, None]
        angles = 2.0 * math.pi * (np.arange(per_ring) + offsets) / per_ring
        rings = radii * np.exp(1j * angles)
    else:
        rings = radii[:, :, None] * scan_rays(n, per_ring, seed)
    return np.concatenate([np.zeros((1, n), dtype=complex), rings.reshape(-1, n)])
