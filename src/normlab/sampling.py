"""Deterministic direction and grid generators.

All generators are pure functions of (dimension, count, seed), so any report
built on them is reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def sphere_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """`count` unit vectors in C^n, shape (count, n).

    The set is tuned for estimating sup_{|v|=1} |<g, v>| over a fixed linear
    functional g, which is invariant under a global phase of v:

    - n = 1: equispaced phases (the functional's modulus is phase-invariant,
      so any single direction is already exact);
    - n = 2: Hopf lifts of a Fibonacci lattice on S^2, i.e. a low-discrepancy
      sweep of the phase-quotient CP^1 (plain sampling of S^3 would waste
      budget on the irrelevant global phase);
    - n >= 3: an R_d Kronecker sequence in d = 2n dimensions, frac(s + k*alpha)
      for k = 1..count with alpha_j = phi^-j, phi the positive root of
      x^(d+1) = x + 1 (the root of largest real part, by Cauchy's bound) and
      the shift s drawn from the seed; Box-Muller turns each coordinate pair
      (u, w) into the complex Gaussian sqrt(-2 log(1-u)) exp(2 pi i w), and
      the rows are normalized.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if n == 1:
        phases = 2.0 * math.pi * np.arange(count) / count
        return np.exp(1j * phases).reshape(count, 1)
    if n == 2:
        k = np.arange(count)
        cos_theta = 1.0 - (2.0 * k + 1.0) / count
        theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        v = np.empty((count, 2), dtype=complex)
        v[:, 0] = np.cos(theta / 2.0)
        v[:, 1] = np.sin(theta / 2.0) * np.exp(1j * phi)
        return v
    phi = max(np.roots([1.0] + [0.0] * (2 * n - 1) + [-1.0, -1.0]).real)
    steps = np.arange(1, count + 1)[:, None] * phi ** -np.arange(1.0, 2 * n + 1)
    x = (steps + np.random.default_rng(seed).random(2 * n)) % 1.0
    v = np.sqrt(-2.0 * np.log1p(-x[:, :n])) * np.exp(2j * math.pi * x[:, n:])
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


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

    Concentric spheres at radii k/m * radius, the origin included first.  The
    outermost shell always contains +/- radius * e_1 exactly, so suprema of
    affine functions are attained on the grid.  Returns shape (N, n).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    n_rings = max(2, int(round(math.sqrt(grid_size))))
    per_ring = max(4, -(-grid_size // n_rings))
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
