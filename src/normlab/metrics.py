"""Levi-form kernels, the sharp function and its finite-difference oracle,
the Kobayashi metric on balls and polydiscs, and normality-constant scans."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import domains
from .domains import Ball, Domain
from .errors import DimensionMismatchError, DomainError, EvaluationError
from .expr import NONFINITE, OK, CPoint, HoloExpr, evaluate_batch, evaluate_jet, status_error
from .sampling import scan_rays, sphere_directions


def _over_one_plus_square(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x / (1 + a^2) for x, a >= 0, without overflowing a^2."""
    with np.errstate(all="ignore"):
        return np.where(a > 1.0, x / a / (a + 1.0 / a), x / (1.0 + a * a))


def levi_root_batch(value: np.ndarray, gradient: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Root Levi form of log(1+|f|^2) from N values (N,) and gradients (N, n)
    of f along m directions (m, n); shape (N, m).  Its square is the Levi form.

    For holomorphic f the mixed Hessian of log(1+|f|^2) is rank one and the
    form collapses to |sum_k df/dz_k * v_k|^2 / (1+|f|^2)^2, the square of
    |sum_k df/dz_k * v_k| / (1+|f|^2).  A form past the float range is inf.
    """
    with np.errstate(all="ignore"):
        pairing = np.sum(gradient[:, None, :] * directions[None, :, :], axis=-1)
        return _over_one_plus_square(np.abs(pairing), np.abs(value)[:, None])


def sharp_batch(f: HoloExpr, points) -> np.ndarray:
    """The sharp function at each row of an (N, n) point array, (N,): the
    supremum over unit directions of the root Levi form of log(1+|f|^2).

    Equals |grad f| / (1 + |f|^2); the supremum is attained by aligning the
    direction with the conjugate gradient.  For n=1 this is the classical
    spherical derivative |f'|/(1+|f|^2).  Nonnegative, scales like an inverse
    length, zero iff the gradient vanishes.  Raises the error of the first
    point that fails to evaluate, and EvaluationError for the first point
    whose gradient norm, and so sharp value, passes the float range."""
    jets = evaluate_batch(f, points).check()
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        sharp = _over_one_plus_square(domains.row_norms(jets.gradient), np.abs(jets.value))
    for k in np.flatnonzero(~np.isfinite(sharp))[:1]:
        raise EvaluationError(f"sharp function at point {k} passes the float range (its gradient norm overflows)")
    return sharp


def levi_form_fd(field: Callable, z: CPoint, v, h: float):
    """Five-point discrete Levi form of a real field along the complex lines
    t -> z + t*v:

        [F(z+hv) + F(z-hv) + F(z+ihv) + F(z-ihv) - 4 F(z)] / (4 h^2)

    Second-order accurate in h for C^2 fields; exact for Hermitian quadratics.
    z and v broadcast as (..., n) point arrays; one point along one direction
    gives a float.  The field takes a (..., n) point array to its values (...)
    and is called once: on the four arms, stacked arm by arm over the
    broadcast shape, then the centres, one per point of z.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    z = np.asarray(z, dtype=complex)
    step = h * np.asarray(v, dtype=complex)
    turn = 1j * step
    ends = z + step, z - step, z + turn, z - turn
    shape, n = ends[0].shape[:-1], z.shape[-1]
    values = field(np.concatenate([a.reshape(-1, n) for a in (*ends, z)]))
    arms, centre = np.split(values, [4 * math.prod(shape)])
    arm = arms.reshape(4, *shape)
    return (arm[0] + arm[1] + arm[2] + arm[3] - 4.0 * centre.reshape(z.shape[:-1])) / (4.0 * h * h)


def log1p_sq_field(f: HoloExpr) -> Callable:
    """The real field z -> log(1 + |f(z)|^2) at each point of a (..., n)
    point array, shape (...); one point (n,) gives a 0-d array."""

    def field(z):
        z = np.asarray(z, dtype=complex)
        w = evaluate_batch(f, z.reshape(-1, f.dimension), gradient=False).check().value
        with np.errstate(all="ignore"):
            square = w.real * w.real + w.imag * w.imag
            out = np.log1p(square)
            if not np.isfinite(np.add.reduce(square, None)):
                # past |f| ~ 1e154 the square overflows, and 2 log|f| is exact there
                over = ~np.isfinite(square)
                out[over] = 2.0 * np.log(np.abs(w[over]))
        return out.reshape(z.shape[:-1])

    return field


def levi_log1p_closed(f: HoloExpr, z: CPoint, v: CPoint) -> float:
    """`levi_root_batch`, squared, at the one point z along v.  Not exported
    and entered by no run: kept only as a fixture of the span test and the
    trace of the benchmark (`perfbench/`), until ROADMAP item 1 moves them."""
    jet = evaluate_jet(f, z)
    root = float(levi_root_batch(jet.value, jet.gradient, np.array([v], dtype=complex))[0, 0])
    return root * root


def _probes(n: int) -> np.ndarray:
    """The n^2 directions whose Levi forms fix the complex Hessian: e_j, then
    e_j + e_k and e_j + i e_k for each pair j < k, shape (n^2, n)."""
    eye = np.eye(n, dtype=complex)
    j, k = np.triu_indices(n, 1)
    return np.concatenate([eye, eye[j] + eye[k], eye[j] + 1j * eye[k]])


def _polarize(levi: np.ndarray, n: int) -> np.ndarray:
    """The complex Hessian H_jk = d^2 F / dz_j dz-bar_k, (..., n, n), from the
    Levi forms S (..., n^2) of F along `_probes(n)`: H_jj = S(e_j), and
    2 H_jk = S(e_j+e_k) - S(e_j) - S(e_k) + i (S(e_j+ie_k) - S(e_j) - S(e_k))
    for j < k, with H_kj its conjugate."""
    j, k = np.triu_indices(n, 1)
    diagonal, along_sum, along_turn = np.split(levi, [n, n + len(j)], axis=-1)
    real = (along_sum - diagonal[..., j] - diagonal[..., k]) / 2.0
    imag = (along_turn - diagonal[..., j] - diagonal[..., k]) / 2.0
    hessian = np.zeros(levi.shape[:-1] + (n, n), dtype=complex)
    hessian[..., range(n), range(n)] = diagonal
    hessian[..., j, k] = real + 1j * imag
    hessian[..., k, j] = real - 1j * imag
    return hessian


def sharp_fd(f: HoloExpr, points, h: float) -> np.ndarray:
    """Brute-force oracle for `sharp_batch`: sqrt(max(0, lambda_max(H))) at
    each row z of an (N, n) point array, (N,), with H the finite-difference
    complex Hessian of log(1+|f|^2), whose top eigenvalue is the supremum of
    its Levi form sum_jk v_j H_jk conj(v_k) over unit directions v.  H comes
    from `levi_form_fd` along the n^2 `_probes` by polarization, so a point
    costs 4 n^2 + 1 evaluations of f; values only, no derivatives of f.
    EvaluationError when 4 h^2 is 0 or inf, when a point's real or imaginary
    part absorbs +-h, or when an entry of H is not finite."""
    z = np.asarray(points, dtype=complex)
    n = f.dimension
    if z.ndim != 2 or z.shape[1] != n:
        raise DimensionMismatchError(f"points of shape {z.shape}, expression expects dimension {n}")
    not_finite = EvaluationError(f"finite-difference Levi form is not finite at h = {h!r}")
    if not 0.0 < 4.0 * h * h < math.inf:  # the stencil would read 0 / 0 or x / inf
        raise not_finite
    parts = np.stack([z.real, z.imag])  # z + h e_j rounding back to z would read a form of 0
    if np.any((parts + h == parts) | (parts - h == parts)):
        raise EvaluationError(f"finite-difference step h = {h!r} is below the float resolution of the points")
    with np.errstate(all="ignore"):
        hessian = _polarize(levi_form_fd(log1p_sq_field(f), z[:, None, :], _probes(n), h), n)
    if not np.isfinite(hessian).all():  # before LAPACK sees a nan
        raise not_finite
    # H / 4^k, its largest entry in [0.5, 2): an exact scaling, under which the
    # top eigenvalue is finite even where sharp^2 is past the float range
    k = np.frexp(np.abs(hessian).max(axis=(1, 2)))[1] // 2
    peak = np.linalg.eigvalsh(np.ldexp(hessian.view(float), -2 * k[:, None, None]).view(complex))[:, -1]
    return np.ldexp(np.sqrt(np.where(peak > 0.0, peak, 0.0)), k)  # max(0, peak), never -0.0


# --------------------------------------------------------------------------
# Kobayashi metric on balls and polydiscs
# --------------------------------------------------------------------------

def _largest_radius(domain: Domain) -> float:
    """The domain's largest radius; DomainError when it squares to 0 or inf."""
    ball = isinstance(domain, Ball)
    largest = float(domain.radius) if ball else float(max(domain.radii))
    if not 0.0 < largest * largest < math.inf:
        edge = "past the largest finite" if largest > 1.0 else "below the smallest positive"
        raise DomainError(f"{'ball' if ball else 'polydisc'} radius {largest!r} squares {edge} float")
    return largest


def kobayashi_batch(domain: Domain, points, directions) -> np.ndarray:
    """Exact Kobayashi metric of the domain at each row z of an (N, n) point
    array along each of m directions v (m, n), (N, m).  With w = z - center, a
    ball of radius d has sqrt((d^2 - |w|^2) |v|^2 + |(w, v)|^2) / (d^2 - |w|^2),
    (w, v) the Hermitian pairing, and a polydisc the largest of its factor
    discs' metrics |v_k| r_k / (r_k^2 - |w_k|^2), taken as |v_k| / ((r_k - |w_k|)
    (1 + |w_k| / r_k)) to square no length.  DomainError when the largest radius
    squares to 0 or inf, a scale where the Levi form, an inverse length squared,
    is lost too (`_largest_radius`), or a point is not strictly inside;
    ValueError if |v|^2 = 0."""
    ball, largest = isinstance(domain, Ball), _largest_radius(domain)
    kind = "ball" if ball else "polydisc"
    w = domains.offsets(domain, points)
    v = np.asarray(directions, dtype=complex)
    v_sq = domains.row_norms(v) ** 2
    if np.any(v_sq == 0):
        raise ValueError("direction v must be nonzero")
    slack = largest * largest - domains.row_norms(w) ** 2 if ball else np.asarray(domain.radii) - np.abs(w)
    if not np.all(slack > 0):
        raise DomainError(f"point is not strictly inside the {kind}")
    if ball:
        pairing = np.sum(w[:, None, :] * np.conj(v)[None, :, :], axis=-1)
        return np.sqrt(slack[:, None] * v_sq + np.abs(pairing) ** 2) / slack[:, None]
    with np.errstate(over="ignore"):  # a metric past the float range is inf
        return np.max(np.abs(v)[None, :, :] / (slack * (1.0 + np.abs(w) / domain.radii))[:, None, :], axis=-1)


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
    each), the Levi form, the domain's exact Kobayashi metric k_lower and the
    inscribed ball's k_upper = |v| / delta above it, and the ratios
    ratio_lower = (root / k_upper)^2 (a lower bound on C at the sample, up to
    floating-point rounding) and ratio_upper = (root / k_lower)^2, where root
    is the root Levi form and levi = root^2."""
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

    The max of levi / k_upper^2 over all samples is a lower bound, up
    to floating-point rounding, on any constant C for which levi <= C * K^2
    could hold; the per-shell trend makes divergence toward the boundary
    visible.  The verdict is numerical evidence, not proof.  A sample is kept
    when its Levi form, bounds and ratios are all finite, and all samples at
    a point that fails to evaluate are skipped; `errors` holds one message
    per point with skips.  A skip in any of the last three shells makes the
    verdict inconclusive, since the maxima that survived cannot speak for the
    skipped samples.  `samples` is one read-only record array of the kept
    samples (`sample_dtype`), in shell, point and direction order.
    """
    _largest_radius(domain)  # before any point is placed: past this range, points and extents overflow
    center = np.asarray(domain.center, dtype=complex)
    rays = scan_rays(f.dimension, plan.points_per_shell, plan.seed)
    dirs = sphere_directions(f.dimension, plan.directions_per_point, plan.seed + 1)
    scale = (1.0 - np.asarray(plan.shells))[:, None] * domains.ray_extent_batch(domain, rays)
    points = (center + scale[:, :, None] * rays).reshape(-1, f.dimension)  # shell-major
    jets = evaluate_batch(f, points)
    root = levi_root_batch(jets.value, jets.gradient, dirs)
    distance = domains.boundary_distance_batch(domain, points)
    interior = distance > 0
    usable = interior & (jets.status == OK)
    # the exact metric, and above it, since inclusion decreases the metric,
    # the inscribed ball's at its center, of radius the boundary distance: |v| / delta
    k_lower = np.full(root.shape, math.nan)
    k_lower[usable] = kobayashi_batch(domain, points[usable], dirs)
    with np.errstate(all="ignore"):
        levi = root * root
        k_upper = domains.row_norms(dirs) / distance[:, None]
        # from the root form, and no bound is squared: levi / k / k would
        # round in the subnormal range, where a dilation moves its last bit
        ratio_lower = (root / k_upper) ** 2
        ratio_upper = (root / k_lower) ** 2
    # k_lower is nan at unusable points, and so is ratio_upper: none is kept
    measured = (levi, k_lower, k_upper, ratio_lower, ratio_upper)
    kept = np.isfinite(measured).all(axis=0)  # every number the sample prints
    at, along = np.nonzero(kept)  # shell, point and direction order
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
