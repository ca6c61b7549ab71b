"""Rescaling sequences g_j(zeta) = f(z_j + rho_j * zeta): blow-up runs with
the sharp-normalized scale, constant-limit verification under slow scales,
and convergence detection on finite grids.

The paper's Remark, the linear counterexample showing that the unrestricted
converse fails, is one explicit run of `rescaling_run` and
`convergence_report`: it reads constant-limit with both ratio flags raised
(the `thm2` config of tests/golden/thm2-remark.json).  No type here serves it
alone; the `counterexample` command prints that run."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import domains
from .domains import Domain
from .errors import DomainError, EvaluationError, NormlabError
from .expr import Batch, CPoint, HoloExpr, affine_pullback, evaluate_batch
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

    @property
    def indices(self) -> range:
        return range(self.j_start, self.j_end + 1)


def _power_law(c: float, exponent: float, indices: range) -> np.ndarray:
    """c * j^(-exponent) for each index j, by float powers: numpy's array
    power differs from them in the last bit on some indices."""
    return np.array([c * float(j) ** -exponent for j in indices])


@dataclass(frozen=True, eq=False)
class RescalingRun:
    """The rescaling sequence g_j(zeta) = f(z_j + rho_j*zeta) of one run, as
    data.  `entries` is a record array with one record per index j and the
    fields j, z_j (n complex), delta_j (the boundary distance of z_j), rho_j
    and ratio (rho_j / delta_j).  Its columns are arrays (`entries.rho_j` is
    (J,), `entries.z_j` is (J, n)), and iterating it gives the records."""

    f: HoloExpr
    entries: np.recarray
    hypothesis_flags: tuple[str, ...]


def _ratio(spec: SequenceSpec, rho: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """rho_j / delta_j; a ratio past the float range (delta_j subnormal, say)
    is a NormlabError."""
    with np.errstate(over="ignore"):
        ratio = rho / delta
    for k in np.flatnonzero(~np.isfinite(ratio))[:1]:
        j = spec.j_start + k
        raise NormlabError(
            f"ratio rho_{j} / delta_{j} = {float(rho[k])!r} / {float(delta[k])!r} overflows"
        )
    return ratio


def rescaling_run(f: HoloExpr, domain: Domain, spec: SequenceSpec) -> RescalingRun:
    """The run of `spec` for f on `domain`: the centers z_j and their boundary
    distances delta_j from one `boundary_distance_batch` pass, then the scales
    of spec's rule, the explicit r_j = c_r * j^(-b) or Zalcman's rho_j =
    1/sharp(f, z_j).

    Errors, in this order: a center outside the domain (DomainError); a
    scale that underflows to 0, which would make g_j constant, or a
    vanishing sharp value, where the Zalcman scale is undefined; a ratio
    rho_j / delta_j past the float range (NormlabError).

    Flags (never errors) record the rule's hypothesis as observed over the
    index range.  Under the explicit rule, the ratios r_j/delta_j not
    decreasing or the final one not < 0.1 (numerical proxies for r_j/delta_j
    -> 0); the run still proceeds, so counterexample regimes remain
    explorable.  Under the Zalcman rule, rho_j not decreasing toward 0.
    """
    step = _power_law(spec.c_p, spec.a, spec.indices)
    centers = np.asarray(spec.anchor, dtype=complex) + step[:, None] * np.asarray(spec.inward)
    delta = domains.boundary_distance_batch(domain, centers)
    for k in np.flatnonzero(~(delta > 0))[:1]:
        p = tuple(centers[k].tolist())
        raise DomainError(f"generated center p_{spec.j_start + k} = {p!r} exits the domain")
    if isinstance(spec.scale, ExplicitScale):
        rho = _power_law(spec.scale.c_r, spec.scale.b, spec.indices)
        for k in np.flatnonzero(rho <= 0)[:1]:
            raise NormlabError(f"scale r_{spec.j_start + k} underflows to 0")
        ratio = _ratio(spec, rho, delta)
        flags = ["ratio-not-decreasing"] if np.any(ratio[1:] >= ratio[:-1]) else []
        if ratio[-1] >= 0.1:
            flags.append("final-ratio-not-small")
    else:
        with np.errstate(divide="ignore", over="ignore"):
            rho = 1.0 / sharp_batch(f, centers)
        # a sharp value of 0, or one so small that 1/sharp overflows
        for k in np.flatnonzero(~np.isfinite(rho))[:1]:
            raise NormlabError(f"sharp(f, z_{spec.j_start + k}) vanishes; rescaling scale undefined")
        ratio = _ratio(spec, rho, delta)
        flags = ["rho-not-decreasing"] if np.any(rho[1:] >= rho[:-1]) else []
    fields = [("j", np.int64), ("z_j", complex, centers.shape[1:]),
              ("delta_j", float), ("rho_j", float), ("ratio", float)]
    columns = [np.arange(spec.j_start, spec.j_end + 1), centers, delta, rho, ratio]
    entries = np.rec.fromarrays(columns, dtype=fields)
    entries.flags.writeable = False  # the run is frozen, its records too
    return RescalingRun(f, entries, tuple(flags))


# --------------------------------------------------------------------------
# Convergence detection
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConvergenceReport:  # grid, osc and cauchy_gaps are read-only arrays
    radius: float
    grid: np.ndarray  # (N, n), grid[0] is zeta = 0
    indices: tuple[int, ...]  # usable j values, in order
    osc: np.ndarray  # sup |g_j(zeta) - g_j(0)| per usable j
    cauchy_gaps: np.ndarray  # sup |g_{j+1} - g_j| per consecutive usable pair
    limit_proxy: HoloExpr
    verdict: str  # constant-limit | nonconstant-limit | no-convergence
    tol: float
    excluded: tuple[int, ...] = ()


_CHUNK_ROWS = 2**12  # bounds the peak memory of a long run's grid pass


def _grid_chunks(run: RescalingRun, grid: np.ndarray) -> Iterator[Batch]:
    """g_j on the grid for consecutive entries, at most _CHUNK_ROWS rows (or
    one entry) per chunk: evaluate_batch of f at the chunk's points
    z_j + rho_j*zeta, entry-major.  The points are built coordinate by
    coordinate, (n, J, G), and handed over as a (J*G, n) view."""
    rho = run.entries.rho_j
    centers = np.ascontiguousarray(run.entries.z_j.T)  # (n, J)
    zeta = np.ascontiguousarray(grid.T)  # (n, G)
    per_chunk = max(1, _CHUNK_ROWS // len(grid))
    for start in range(0, len(rho), per_chunk):
        chunk = slice(start, start + per_chunk)
        points = centers[:, chunk, None] + rho[chunk, None] * zeta[:, None, :]
        yield evaluate_batch(run.f, points.reshape(len(points), -1).T, gradient=False)


def convergence_report(run: RescalingRun, radius: float, grid_size: int, tol: float) -> ConvergenceReport:
    """Finite-range locally-uniform-convergence evidence on |zeta| <= radius.

    g_j(zeta) = f(z_j + rho_j*zeta) is evaluated on the grid in chunks of
    consecutive indices (`_grid_chunks`); an index with any failing grid
    point is excluded.  Oscillations and Cauchy gaps are reduced chunk by
    chunk, the last usable row carried into the next chunk's first gap; one
    past the float range, of finite values, is an EvaluationError.
    Verdict thresholds: constant-limit if the final oscillation and final
    Cauchy gap are both <= tol; nonconstant-limit if the final gap is <= tol
    but the final oscillation exceeds 10*tol; otherwise no-convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = ball_grid(run.f.dimension, radius, grid_size)
    usable, osc, gaps = [], [np.empty(0)], [np.empty(0)]  # arrays per chunk, after an empty one
    previous = None  # the last usable row, if any
    for batch in _grid_chunks(run, grid):
        values = batch.value.reshape(-1, len(grid))
        ok = ~batch.status.reshape(values.shape).any(axis=1)
        usable.append(ok)
        rows = values if ok.all() else values[ok]  # a fully usable chunk is not copied
        if not len(rows):
            continue
        with np.errstate(over="ignore"):  # finite values can differ by more than the float range
            osc.append(np.max(np.abs(rows - rows[:, :1]), axis=1))  # grid[0] is zeta = 0
            if previous is not None:  # the gap into the chunk, from the last usable row before it
                gaps.append(np.max(np.abs(rows[:1] - previous), axis=1))
            gaps.append(np.max(np.abs(rows[1:] - rows[:-1]), axis=1))
        previous = rows[-1:]
    ok, osc, gaps = np.concatenate(usable), np.concatenate(osc), np.concatenate(gaps)
    if not len(osc):
        raise NormlabError("no index in the run is evaluable on the grid")
    indices = run.entries.j[ok]
    for k in np.flatnonzero(~np.isfinite(np.maximum(osc, np.append(0.0, gaps))))[:1]:  # g_j's gap is gaps[k - 1]
        name = "osc" if math.isinf(osc[k]) else "cauchy_gap"
        raise EvaluationError(f"{name}_{indices[k]} of g_{indices[k]} on the grid overflows")
    final_gap = gaps[-1] if len(gaps) else math.inf
    if final_gap <= tol and osc[-1] <= tol:
        verdict = "constant-limit"
    elif final_gap <= tol and osc[-1] > 10.0 * tol:
        verdict = "nonconstant-limit"
    else:
        verdict = "no-convergence"
    last = run.entries[np.flatnonzero(ok)[-1]]
    for array in (grid, osc, gaps):
        array.flags.writeable = False  # the report is frozen, its arrays too
    return ConvergenceReport(
        radius=radius,
        grid=grid,
        indices=tuple(indices.tolist()),
        osc=osc,
        cauchy_gaps=gaps,
        limit_proxy=affine_pullback(run.f, last.z_j, last.rho_j),
        verdict=verdict,
        tol=tol,
        excluded=tuple(run.entries.j[~ok].tolist()),
    )


@dataclass(frozen=True)
class SharpProfile:
    sharp_at_zero: float
    max_sharp: float
    argmax: CPoint
    passed: Optional[bool]  # None when the check is vacuous
    vacuous: bool = False


def limit_sharp_check(report: ConvergenceReport, tol: float) -> SharpProfile:
    """Check the blow-up normalization on the limit proxy: sharp(g)(0) = 1 and
    sharp(g) <= 1 on the report's grid, both up to tol.  Vacuous
    (informational) unless the report's verdict is nonconstant-limit."""
    points = report.grid  # grid[0] is zeta = 0
    sharps = sharp_batch(report.limit_proxy, points)
    best = int(np.argmax(sharps))  # the first maximum: the origin unless beaten
    s0, max_sharp, argmax = float(sharps[0]), float(sharps[best]), tuple(points[best])
    if report.verdict != "nonconstant-limit":
        return SharpProfile(s0, max_sharp, argmax, passed=None, vacuous=True)
    passed = abs(s0 - 1.0) <= tol and max_sharp <= 1.0 + tol
    return SharpProfile(s0, max_sharp, argmax, passed=passed)
