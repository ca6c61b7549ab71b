"""Levi-form kernels, the sharp function and its finite-difference oracle,
the explicit Kobayashi metric on balls, and normality-constant scans."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import domains
from .domains import Ball, Domain
from .errors import DomainError, EvaluationError
from .expr import NONFINITE, OK, CPoint, HoloExpr, evaluate_batch, evaluate_jet, status_error
from .sampling import scan_rays, sphere_directions


@dataclass(frozen=True)
class SharpValue:
    """Nonnegative, scales like an inverse length; zero iff the gradient vanishes."""

    value: float


def _over_one_plus_square(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x / (1 + a^2) for x, a >= 0, without overflowing a^2."""
    with np.errstate(all="ignore"):
        return np.where(a > 1.0, x / a / (a + 1.0 / a), x / (1.0 + a * a))


def levi_batch(value: np.ndarray, gradient: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Levi form of log(1+|f|^2) from N values (N,) and gradients (N, n) of f
    along m directions (m, n); shape (N, m).

    For holomorphic f the mixed Hessian of log(1+|f|^2) is rank one and the
    form collapses to |sum_k df/dz_k * v_k|^2 / (1+|f|^2)^2.
    """
    with np.errstate(all="ignore"):  # a form past the float range is inf
        pairing = np.sum(gradient[:, None, :] * directions[None, :, :], axis=-1)
        root = _over_one_plus_square(np.abs(pairing), np.abs(value)[:, None])
        return root * root


def sharp_batch(f: HoloExpr, points) -> np.ndarray:
    """`sharp` at each row of an (N, n) point array, (N,); raises the error of
    the first point that fails to evaluate."""
    jets = evaluate_batch(f, points).check()
    gradient_norm = np.hypot.reduce(np.abs(jets.gradient), axis=1)
    return _over_one_plus_square(gradient_norm, np.abs(jets.value))


def levi_form_fd(field: Callable, z: CPoint, v, h: float):
    """Five-point discrete Levi form of a real field along the complex lines
    t -> z + t*v:

        [F(z+hv) + F(z-hv) + F(z+ihv) + F(z-ihv) - 4 F(z)] / (4 h^2)

    Second-order accurate in h for C^2 fields; exact for Hermitian quadratics.
    z and v broadcast as (..., n) point arrays, and the field is called with
    their broadcast shape: one point along one direction gives a float.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    stencil = (
        field(z + h * v)
        + field(z - h * v)
        + field(z + 1j * h * v)
        + field(z - 1j * h * v)
        - 4.0 * field(z)
    )
    return stencil / (4.0 * h * h)


def log1p_sq_field(f: HoloExpr) -> Callable:
    """The real field z -> log(1 + |f(z)|^2) at each point of a (..., n)
    point array, shape (...); one point (n,) gives a 0-d array."""

    def field(z):
        z = np.asarray(z, dtype=complex)
        w = evaluate_batch(f, z.reshape(-1, f.dimension), gradient=False).check().value
        with np.errstate(all="ignore"):
            square = w.real * w.real + w.imag * w.imag
            # past |f| ~ 1e154 the square overflows, and 2 log|f| is exact there
            out = np.where(np.isfinite(square), np.log1p(square), 2.0 * np.log(np.abs(w)))
        return out.reshape(z.shape[:-1])

    return field


def levi_log1p_closed(f: HoloExpr, z: CPoint, v: CPoint) -> float:
    """Levi form of log(1+|f|^2) at z along v, in closed form (`levi_batch`);
    `levi_form_fd` on `log1p_sq_field` is the independent check."""
    jet = evaluate_jet(f, z)
    levi = levi_batch(np.array([jet.value]), np.array([jet.gradient]), np.array([v], dtype=complex))
    return float(levi[0, 0])


def sharp(f: HoloExpr, z: CPoint) -> SharpValue:
    """Supremum over unit directions of the root Levi form of log(1+|f|^2).

    Equals |grad f| / (1 + |f|^2); the supremum is attained by aligning the
    direction with the conjugate gradient.  For n=1 this is the classical
    spherical derivative |f'|/(1+|f|^2).
    """
    return SharpValue(float(sharp_batch(f, [z])[0]))


def sharp_fd(
    f: HoloExpr, z, sphere_samples: int, h: float, seed: int = 0
) -> float | np.ndarray:
    """Brute-force oracle for `sharp`: max over sampled unit directions of
    sqrt(max(0, levi_form_fd(log(1+|f|^2), z, v, h))), at one point z (a
    float) or at each row of an (N, n) array ((N,)) along one direction set.
    EvaluationError when the stencil is not finite (4 h^2 underflows, say)."""
    dirs = sphere_directions(f.dimension, sphere_samples, seed)
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        levi = levi_form_fd(log1p_sq_field(f), z[..., None, :], dirs, h)
    if not np.isfinite(levi).all():
        raise EvaluationError(f"finite-difference Levi form is not finite at h = {h!r}")
    peak = np.max(levi, axis=-1)
    root = np.sqrt(np.where(peak > 0.0, peak, 0.0))  # max(0, peak), never -0.0
    return float(root) if z.ndim == 1 else root


# --------------------------------------------------------------------------
# Kobayashi metric on balls, sandwich bounds on general domains
# --------------------------------------------------------------------------

def _ball_frame(offsets, radius, directions):
    """Offsets w (N, n) of points from their ball centers, directions v
    (m, n), |v|^2 (m,) and the slacks d^2 - |w|^2 (N,), checked."""
    w = np.asarray(offsets, dtype=complex)
    v = np.asarray(directions, dtype=complex)
    v_sq = np.linalg.norm(v, axis=1) ** 2
    if np.any(v_sq == 0):
        raise ValueError("direction v must be nonzero")
    slack = np.asarray(radius, dtype=float) ** 2 - np.linalg.norm(w, axis=1) ** 2
    if np.any(slack <= 0):
        raise DomainError("point is not strictly inside the ball")
    return w, v, v_sq, slack


def kobayashi_ball_batch(offsets, radius, directions) -> np.ndarray:
    """Exact Kobayashi metric of Euclidean balls, (N, m): row i is the point
    at offset w = offsets[i] from the center of a ball of radius radius[i]
    (or one radius for every row), along each of m directions (m, n):

        sqrt((d^2 - |w|^2) |v|^2 + |(w, v)|^2) / (d^2 - |w|^2),

    with (w, v) the Hermitian pairing (the modulus does not depend on which
    slot carries the conjugation).  Raises ValueError on a zero direction and
    DomainError when a point is not strictly inside its ball."""
    w, v, v_sq, slack = _ball_frame(offsets, radius, directions)
    pairing = np.sum(w[:, None, :] * np.conj(v)[None, :, :], axis=-1)
    slack = slack[:, None]
    return np.sqrt(slack * v_sq + np.abs(pairing) ** 2) / slack


def kobayashi_ball(ball: Ball, z: CPoint, v: CPoint) -> float:
    """`kobayashi_ball_batch` of one ball at one point along one direction."""
    w = np.asarray(z, dtype=complex) - np.asarray(ball.center, dtype=complex)
    return float(kobayashi_ball_batch([w], ball.radius, [v])[0, 0])


def kobayashi_upper(ball: Ball, z: CPoint, v: CPoint) -> float:
    """Cauchy-Schwarz upper bound d |v| / (d^2 - |z-center|^2); equals
    `kobayashi_ball` in one variable and whenever z-center is parallel to v."""
    w = np.asarray(z, dtype=complex) - np.asarray(ball.center, dtype=complex)
    _, _, v_sq, slack = _ball_frame([w], ball.radius, [v])
    return ball.radius * math.sqrt(v_sq[0]) / float(slack[0])


def kobayashi_domain_bounds_batch(domain: Domain, points, directions) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) sandwich for the Kobayashi metric of the domain at each
    row of an (N, n) array of interior points along m directions, each (N, m).

    Inclusion decreases the metric, so the inscribed ball at each point gives
    the upper bound and the circumscribed ball the lower bound.  Raises
    DomainError when a point is not interior.
    """
    points = np.asarray(points, dtype=complex)
    distance = domains.boundary_distance_batch(domain, points)
    if not np.all(distance > 0):
        raise DomainError(domains.NOT_INTERIOR)
    outer = domains.circumscribed_ball(domain)
    upper = kobayashi_ball_batch(np.zeros_like(points), distance, directions)
    lower = kobayashi_ball_batch(points - np.asarray(outer.center, dtype=complex), outer.radius, directions)
    return lower, upper


def kobayashi_domain_bounds(domain: Domain, z: CPoint, v: CPoint) -> tuple[float, float]:
    """`kobayashi_domain_bounds_batch` at one point along one direction."""
    lower, upper = kobayashi_domain_bounds_batch(domain, [z], [v])
    return float(lower[0, 0]), float(upper[0, 0])


# --------------------------------------------------------------------------
# Normality-constant scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Shells are boundary-distance fractions in (0, 1], scanned in the given
    order; each shell places `points_per_shell` points along deterministic
    rays from the domain center (axis rays first)."""

    shells: tuple[float, ...]
    points_per_shell: int
    directions_per_point: int
    seed: int = 0

    def __post_init__(self):
        if not self.shells or any(not (0.0 < t <= 1.0) for t in self.shells):
            raise ValueError("shells must be fractions in (0, 1]")
        if self.points_per_shell < 1 or self.directions_per_point < 1:
            raise ValueError("points and directions per shell must be positive")


def sample_dtype(dimension: int) -> np.dtype:
    """The record of one scan sample: its point and direction (n complex
    each), the Levi form, the Kobayashi sandwich, and the ratios
    ratio_lower = levi / k_upper^2 (a lower bound on C at the sample, up to
    floating-point rounding) and ratio_upper = levi / k_lower^2."""
    return np.dtype([("point", complex, (dimension,)), ("direction", complex, (dimension,)),
                     ("levi", float), ("k_lower", float), ("k_upper", float),
                     ("ratio_lower", float), ("ratio_upper", float)])


@dataclass(frozen=True, eq=False)
class NormalityEstimate:
    samples: np.recarray  # the kept samples, of `sample_dtype`, read-only
    shell_trend: tuple[tuple[float, float, float], ...]  # (shell, max ratio_lower, min delta)
    c_required_lower_bound: float
    verdict: str  # bounded-consistent | divergent | inconclusive
    skipped: int = 0
    errors: tuple[str, ...] = field(default_factory=tuple)


def _trend_verdict(maxima: list[float]) -> str:
    if len(maxima) < 3:
        return "inconclusive"
    m1, m2, m3 = maxima[-3:]
    if m1 >= m2 >= m3:
        return "bounded-consistent"
    if m1 <= m2 <= m3 and (m3 >= 10.0 * m1 if m1 > 0 else m3 > 0):
        return "divergent"
    return "inconclusive"


def normality_scan(f: HoloExpr, domain: Domain, plan: SamplingPlan) -> NormalityEstimate:
    """Scan Levi-form / Kobayashi ratios over shells approaching the boundary.

    The max of levi / k_upper^2 over all samples is a lower bound, up to
    floating-point rounding, on any constant C for which levi <= C * K^2
    could hold; the per-shell trend makes divergence toward the boundary
    visible.  The verdict is numerical evidence, not proof.  A sample whose
    Levi form or ratio is not finite is skipped, as are all samples at a
    point that fails to evaluate; `errors` holds one message per point with
    skips.  A skip in any of the last three shells makes the verdict
    inconclusive, since the maxima that survived cannot speak for the
    skipped samples.  `samples` is one read-only record array of the kept
    samples (`sample_dtype`), in shell, point and direction order.
    """
    center = np.asarray(domain.center, dtype=complex)
    rays = scan_rays(f.dimension, plan.points_per_shell, plan.seed)
    dirs = sphere_directions(f.dimension, plan.directions_per_point, plan.seed + 1)
    extents = np.array([domains.ray_extent(domain, tuple(u)) for u in rays])
    scale = (1.0 - np.asarray(plan.shells))[:, None] * extents
    points = (center + scale[:, :, None] * rays).reshape(-1, f.dimension)  # shell-major
    jets = evaluate_batch(f, points)
    levi = levi_batch(jets.value, jets.gradient, dirs)
    distance = domains.boundary_distance_batch(domain, points)
    interior = distance > 0
    usable = interior & (jets.status == OK)
    k_lower = np.full(levi.shape, math.nan)
    k_upper = np.full(levi.shape, math.nan)
    k_lower[usable], k_upper[usable] = kobayashi_domain_bounds_batch(domain, points[usable], dirs)
    with np.errstate(all="ignore"):
        ratio_lower = levi / (k_upper * k_upper)
        ratio_upper = levi / (k_lower * k_lower)
    # the bounds are nan at unusable points, and so are both ratios there
    kept = np.isfinite(levi) & np.isfinite(ratio_lower) & np.isfinite(ratio_upper)
    at, along = np.nonzero(kept)  # shell, point and direction order
    measured = (levi, k_lower, k_upper, ratio_lower, ratio_upper)
    columns = [points[at], dirs[along], *(a[kept] for a in measured)]
    samples = np.rec.fromarrays(columns, dtype=sample_dtype(f.dimension))
    samples.flags.writeable = False  # the estimate is frozen, its samples too

    skips = len(dirs) - kept.sum(axis=1)
    errors = []
    for i in np.flatnonzero(skips):
        p = tuple(points[i].tolist())
        if not interior[i]:
            errors.append(f"point {p!r}: {domains.NOT_INTERIOR}")
        elif jets.status[i] != OK:
            errors.append(f"point {p!r}: {status_error(jets.status[i])}")
        else:
            errors.append(
                f"point {p!r}: {skips[i]} of {len(dirs)} directions skipped, "
                f"{status_error(NONFINITE)}"
            )
    per_shell = (len(plan.shells), -1)
    maxima = np.where(kept, ratio_lower, 0.0).reshape(per_shell).max(axis=1)
    deltas = np.where(interior, distance, math.inf).reshape(per_shell).min(axis=1)
    deltas[np.isinf(deltas)] = 0.0  # a shell without an interior point
    if skips.reshape(per_shell).sum(axis=1)[-3:].any():
        verdict = "inconclusive"
    else:
        verdict = _trend_verdict(maxima.tolist())
    return NormalityEstimate(
        samples=samples,
        shell_trend=tuple(zip(plan.shells, maxima.tolist(), deltas.tolist())),
        c_required_lower_bound=float(maxima.max()),
        verdict=verdict,
        skipped=int(skips.sum()),
        errors=tuple(errors),
    )
