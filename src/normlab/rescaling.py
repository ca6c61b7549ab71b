"""Rescaling sequences g_j(zeta) = f(z_j + rho_j * zeta): blow-up runs with
the sharp-normalized scale, constant-limit verification under slow scales,
and the linear counterexample showing the unrestricted converse fails."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import domains
from .domains import Ball, Domain
from .errors import DomainError, NormlabError
from .expr import CPoint, HoloExpr, affine_pullback, evaluate_batch, parse
from .metrics import sharp_batch
from .sampling import ball_grid


@dataclass(frozen=True)
class ExplicitScale:
    """r_j = c_r * j^(-b)."""

    c_r: float
    b: float

    def __post_init__(self):
        if self.c_r <= 0 or self.b <= 0:
            raise ValueError("explicit scale requires c_r > 0 and b > 0")


@dataclass(frozen=True)
class ZalcmanScale:
    """rho_j = 1 / sharp(f, z_j); normalizes g_j so that g_j-sharp(0) = 1."""


@dataclass(frozen=True)
class SequenceSpec:
    """Centers p_j = anchor + c_p * j^(-a) * inward marching toward the
    boundary point `anchor` along the unit direction `inward` (pointing into
    the domain)."""

    anchor: CPoint
    inward: CPoint
    c_p: float
    a: float
    scale: ExplicitScale | ZalcmanScale
    j_start: int
    j_end: int

    def __post_init__(self):
        if self.c_p <= 0 or self.a <= 0:
            raise ValueError("center rule requires c_p > 0 and a > 0")
        if not (1 <= self.j_start <= self.j_end):
            raise ValueError("need 1 <= j_start <= j_end")

    def center(self, j: int) -> CPoint:
        step = self.c_p * float(j) ** (-self.a)
        return tuple(
            complex(a) + step * complex(u) for a, u in zip(self.anchor, self.inward)
        )

    @property
    def indices(self) -> range:
        return range(self.j_start, self.j_end + 1)


def make_sequence(
    spec: SequenceSpec, domain: Domain, j: int
) -> tuple[CPoint, Optional[float], float]:
    """(p_j, r_j, delta_j) for one index; r_j is None under the sharp-normalized
    rule (it depends on the function, see `zalcman_rescale`)."""
    p = spec.center(j)
    if not domains.contains(domain, p):
        raise DomainError(f"generated center p_{j} = {p!r} exits the domain")
    delta = domains.boundary_distance(domain, p)
    if isinstance(spec.scale, ExplicitScale):
        r = spec.scale.c_r * float(j) ** (-spec.scale.b)
        if r <= 0:
            raise ValueError(f"scale r_{j} must be positive")
        return p, r, delta
    return p, None, delta


def rescaled_function(f: HoloExpr, center: CPoint, rho: float) -> HoloExpr:
    """Symbolic zeta -> f(center + rho * zeta)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return affine_pullback(f, center, rho)


def rescale_sharp_identity_check(
    f: HoloExpr, center: CPoint, rho: float, test_points: list[CPoint]
) -> float:
    """Max relative deviation between sharp(g, zeta) and rho * sharp(f,
    center + rho*zeta) for g the rescaled function.  An algebraic identity
    (invariance of the Levi form under affine maps), so the deviation is
    rounding noise."""
    g = rescaled_function(f, center, rho)
    zeta = np.asarray(test_points, dtype=complex).reshape(-1, f.dimension)
    lhs = sharp_batch(g, zeta)
    rhs = rho * sharp_batch(f, np.asarray(center) + rho * zeta)
    scale = np.maximum(lhs, rhs)  # where it is 0, so is the deviation
    return float(np.max(np.abs(lhs - rhs) / np.where(scale > 0, scale, 1.0), initial=0.0))


@dataclass(frozen=True)
class RunEntry:
    j: int
    z_j: CPoint
    delta_j: float
    rho_j: float
    ratio: float  # rho_j / delta_j
    g_j: HoloExpr


@dataclass(frozen=True)
class RescalingRun:
    f: HoloExpr
    domain: Domain
    entries: tuple[RunEntry, ...]
    hypothesis_flags: tuple[str, ...]


def _flag_monotone(values: list[float], label: str, flags: list[str]):
    if any(b >= a for a, b in zip(values, values[1:])):
        flags.append(label)


def zalcman_rescale(f: HoloExpr, domain: Domain, spec: SequenceSpec) -> RescalingRun:
    """Blow-up run with rho_j = 1/sharp(f, z_j).

    Flags (never errors) record whether rho_j is observed decreasing toward 0
    over the index range; a vanishing sharp value at some center is an error,
    since the scale is undefined there.
    """
    if not isinstance(spec.scale, ZalcmanScale):
        raise ValueError("zalcman_rescale requires the sharp-normalized scale rule")
    sequence = [make_sequence(spec, domain, j) for j in spec.indices]
    sharps = sharp_batch(f, [z_j for z_j, _, _ in sequence])
    entries = []
    for j, (z_j, _, delta), s in zip(spec.indices, sequence, sharps.tolist()):
        if s <= 0.0:
            raise NormlabError(f"sharp(f, z_{j}) vanishes; rescaling scale undefined")
        rho = 1.0 / s
        entries.append(
            RunEntry(j, z_j, delta, rho, rho / delta, rescaled_function(f, z_j, rho))
        )
    flags: list[str] = []
    _flag_monotone([e.rho_j for e in entries], "rho-not-decreasing", flags)
    return RescalingRun(f, domain, tuple(entries), tuple(flags))


def explicit_rescale(f: HoloExpr, domain: Domain, spec: SequenceSpec) -> RescalingRun:
    """Run with the explicit scale r_j = c_r * j^(-b).

    Flags when the observed ratios r_j/delta_j are not decreasing or the
    final ratio is not < 0.1 (numerical proxies for r_j/delta_j -> 0); the
    run still proceeds, so counterexample regimes remain explorable.
    """
    if not isinstance(spec.scale, ExplicitScale):
        raise ValueError("explicit_rescale requires the explicit scale rule")
    entries = []
    for j in spec.indices:
        p_j, r_j, delta = make_sequence(spec, domain, j)
        entries.append(
            RunEntry(j, p_j, delta, r_j, r_j / delta, rescaled_function(f, p_j, r_j))
        )
    flags: list[str] = []
    ratios = [e.ratio for e in entries]
    _flag_monotone(ratios, "ratio-not-decreasing", flags)
    if ratios and ratios[-1] >= 0.1:
        flags.append("final-ratio-not-small")
    return RescalingRun(f, domain, tuple(entries), tuple(flags))


# --------------------------------------------------------------------------
# Convergence detection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    radius: float
    grid: tuple[CPoint, ...]
    indices: tuple[int, ...]  # usable j values, in order
    osc: tuple[float, ...]  # sup |g_j(zeta) - g_j(0)| per usable j
    cauchy_gaps: tuple[float, ...]  # sup |g_{j+1} - g_j| per consecutive usable pair
    limit_proxy: HoloExpr
    verdict: str  # constant-limit | nonconstant-limit | no-convergence
    tol: float
    excluded: tuple[int, ...] = ()
    hypothesis_flags: tuple[str, ...] = ()


def convergence_report(
    run: RescalingRun, radius: float, grid_size: int, tol: float, seed: int = 0
) -> ConvergenceReport:
    """Finite-range locally-uniform-convergence evidence on |zeta| <= radius.

    g_j(zeta) = f(z_j + rho_j*zeta) is evaluated on the grid one index at a
    time; an index with any failing grid point is excluded.  Verdict
    thresholds: constant-limit if the final oscillation and final Cauchy gap
    are both <= tol; nonconstant-limit if the final gap is <= tol but the final
    oscillation exceeds 10*tol; otherwise no-convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = ball_grid(run.f.dimension, radius, grid_size, seed)
    usable: list[int] = []
    values: list[np.ndarray] = []
    excluded: list[int] = []
    for entry in run.entries:
        batch = evaluate_batch(run.f, np.asarray(entry.z_j) + entry.rho_j * grid, gradient=False)
        if batch.status.any():
            excluded.append(entry.j)
            continue
        usable.append(entry.j)
        values.append(batch.value)
    if not usable:
        raise NormlabError("no index in the run is evaluable on the grid")
    osc = [float(np.max(np.abs(vals - vals[0]))) for vals in values]
    gaps = [
        float(np.max(np.abs(b - a))) for a, b in zip(values, values[1:])
    ]
    final_gap = gaps[-1] if gaps else math.inf
    if final_gap <= tol and osc[-1] <= tol:
        verdict = "constant-limit"
    elif final_gap <= tol and osc[-1] > 10.0 * tol:
        verdict = "nonconstant-limit"
    else:
        verdict = "no-convergence"
    proxy = next(e.g_j for e in reversed(run.entries) if e.j == usable[-1])
    return ConvergenceReport(
        radius=radius,
        grid=tuple(tuple(z) for z in grid),
        indices=tuple(usable),
        osc=tuple(osc),
        cauchy_gaps=tuple(gaps),
        limit_proxy=proxy,
        verdict=verdict,
        tol=tol,
        excluded=tuple(excluded),
        hypothesis_flags=run.hypothesis_flags,
    )


@dataclass(frozen=True)
class SharpProfile:
    sharp_at_zero: float
    max_sharp: float
    argmax: CPoint
    passed: Optional[bool]  # None when the check is vacuous
    vacuous: bool = False


def limit_sharp_check(
    report: ConvergenceReport, grid_size: int, tol: float, seed: int = 0
) -> SharpProfile:
    """Check the blow-up normalization on the limit proxy: sharp(g)(0) = 1 and
    sharp(g) <= 1 on the grid, both up to tol.  Vacuous (informational) unless
    the report's verdict is nonconstant-limit."""
    g = report.limit_proxy
    grid = ball_grid(g.dimension, report.radius, grid_size, seed)
    points = np.vstack([np.zeros((1, g.dimension), dtype=complex), grid])
    sharps = sharp_batch(g, points)
    best = int(np.argmax(sharps))  # the first maximum: the origin unless beaten
    s0, max_sharp, argmax = float(sharps[0]), float(sharps[best]), tuple(points[best])
    if report.verdict != "nonconstant-limit":
        return SharpProfile(s0, max_sharp, argmax, passed=None, vacuous=True)
    passed = abs(s0 - 1.0) <= tol and max_sharp <= 1.0 + tol
    return SharpProfile(s0, max_sharp, argmax, passed=passed)


def thm2_verify(
    f: HoloExpr,
    domain: Domain,
    spec: SequenceSpec,
    radius: float,
    tol: float,
    grid_size: int = 64,
    seed: int = 0,
) -> ConvergenceReport:
    """Constant-limit verification for explicit slow scales: builds the
    rescaled sequence and reports convergence evidence; on a normal function
    with r_j/delta_j -> 0 the expected verdict is constant-limit."""
    run = explicit_rescale(f, domain, spec)
    return convergence_report(run, radius, grid_size, tol, seed)


def marty_bound(c: float, r: float, delta: float, zeta_abs: float) -> float:
    """sqrt(c) * r * delta / (delta^2 - (r*|zeta|)^2): the bound obeyed by
    sharp(g_j, zeta) when the original function admits the constant c."""
    slack = delta * delta - (r * zeta_abs) ** 2
    if slack <= 0:
        return math.inf
    return math.sqrt(c) * r * delta / slack


# --------------------------------------------------------------------------
# The linear counterexample
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RemarkReport:
    indices: tuple[int, ...]
    ratios: tuple[float, ...]  # rho_n / (1 - |z_n|), exact integer values
    sup_dev: tuple[float, ...]  # sup_{|zeta|<=R} |g_n(zeta) - 1|
    bounds: tuple[float, ...]  # n^-3 + n^-2 * R
    radius: float
    convergence: ConvergenceReport
    verdict: str


def remark_counterexample(
    n_max: int, radius: float, grid_size: int = 64, seed: int = 0
) -> RemarkReport:
    """f(z) = z on the unit disc with z_n = 1 - n^-3, rho_n = n^-2.

    The rescaled sequence converges to the constant 1 while rho_n over the
    boundary distance equals n and diverges: a constant limit does not force
    the scale/distance ratio to vanish.  Ratios are computed in exact
    rational arithmetic, so ratio(n) == n with no rounding.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    f = parse("z1", 1)
    disc = Ball((0j,), 1.0)
    grid = ball_grid(1, radius, grid_size, seed)
    indices, ratios, sup_dev, bounds, entries = [], [], [], [], []
    for n in range(1, n_max + 1):
        z_n = 1.0 - float(n) ** -3
        rho_n = float(n) ** -2
        ratio = Fraction(1, n**2) / Fraction(1, n**3)  # == n exactly
        g_n = rescaled_function(f, (complex(z_n),), rho_n)
        values = evaluate_batch(f, z_n + rho_n * grid, gradient=False).check().value
        indices.append(n)
        ratios.append(float(ratio))
        sup_dev.append(float(np.max(np.abs(values - 1.0))))
        bounds.append(float(n) ** -3 + float(n) ** -2 * radius)
        delta = 1.0 - z_n
        entries.append(RunEntry(n, (complex(z_n),), delta, rho_n, rho_n / delta, g_n))
    run = RescalingRun(f, disc, tuple(entries), ("ratio-diverges",))
    conv = convergence_report(run, radius, grid_size, tol=1e-3, seed=seed)
    diverging = all(b > a for a, b in zip(ratios, ratios[1:]))
    if conv.verdict == "constant-limit" and diverging:
        verdict = "constant-limit-with-divergent-ratio"
    else:
        verdict = "inconclusive"
    return RemarkReport(
        indices=tuple(indices),
        ratios=tuple(ratios),
        sup_dev=tuple(sup_dev),
        bounds=tuple(bounds),
        radius=radius,
        convergence=conv,
        verdict=verdict,
    )
