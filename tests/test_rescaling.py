import json
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab import (
    Ball,
    ExplicitScale,
    NormlabError,
    Polydisc,
    RescalingRun,
    SequenceSpec,
    ZalcmanScale,
    affine_pullback,
    convergence_report,
    limit_sharp_check,
    parse,
    rescaling_run,
)
from normlab import domains, rescaling
from normlab.cli import _RUNNERS
from normlab.config import validate_config
from normlab.errors import DomainError
from normlab.expr import evaluate_batch
from normlab.metrics import levi_form_fd, sharp_batch
from normlab.sampling import ball_grid

UNIT_DISC = Ball((0j,), 1.0)
POLYDISC = Polydisc((0j, 0j), (1.0, 2.0))


def _disc_spec(c_p, a, scale, j_start, j_end):
    return SequenceSpec(
        anchor=(1 + 0j,),
        inward=(-1 + 0j,),
        c_p=c_p,
        a=a,
        scale=scale,
        j_start=j_start,
        j_end=j_end,
    )


def _remark_spec(n_max):
    """The paper's Remark: z_n = 1 - n^-3 and rho_n = n^-2 for n = 1..n_max."""
    return _disc_spec(1.0, 3.0, ExplicitScale(1.0, 2.0), 1, n_max)


def _remark_report(n_max, radius):
    run = rescaling_run(parse("z1", 1), UNIT_DISC, _remark_spec(n_max))
    return convergence_report(run, radius, 64, 1e-3)


# --------------------------------------------------------------------------
# The sequence of a run: centers, boundary distances and explicit scales
# --------------------------------------------------------------------------

def test_make_sequence_arithmetic():
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 10)
    e = rescaling_run(parse("z1", 1), UNIT_DISC, spec).entries
    k = 4 - spec.j_start
    p, r, delta = tuple(e.z_j[k]), e.rho_j[k], e.delta_j[k]
    assert p == (0.75 + 0j,)
    assert delta == pytest.approx(0.25)
    assert r == pytest.approx(1 / 16)
    assert r / delta == pytest.approx(0.25)


def test_make_sequence_ratio_decays_when_b_exceeds_a():
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 40)
    e = rescaling_run(parse("z1", 1), UNIT_DISC, spec).entries
    ratios = []
    for j in (10, 20, 40):
        r, delta = e.rho_j[j - spec.j_start], e.delta_j[j - spec.j_start]
        ratios.append(r / delta)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] == pytest.approx(1 / 40)


def test_make_sequence_remark_ratio_diverges():
    # z_n = 1 - n^-3 with rho_n = n^-2: rho_n/delta_n = n
    spec = _disc_spec(1.0, 3.0, ExplicitScale(1.0, 2.0), 1, 10)
    e = rescaling_run(parse("z1", 1), UNIT_DISC, spec).entries
    for n in (2, 5, 10):
        r, delta = e.rho_j[n - spec.j_start], e.delta_j[n - spec.j_start]
        assert r / delta == pytest.approx(n)


def test_make_sequence_rejects_exterior_center():
    spec = SequenceSpec(
        anchor=(1 + 0j,),
        inward=(1 + 0j,),  # points out of the disc
        c_p=1.0,
        a=1.0,
        scale=ExplicitScale(1.0, 2.0),
        j_start=1,
        j_end=5,
    )
    with pytest.raises(DomainError):
        rescaling_run(parse("z1", 1), UNIT_DISC, spec)


def test_scale_center_and_tolerance_rules_reject_non_positive_parameters():
    explicit = ExplicitScale(1.0, 2.0)
    for c_r, b in ((0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="^explicit scale requires c_r > 0 and b > 0$"):
            ExplicitScale(c_r, b)
    for c_p, a in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="^center rule requires c_p > 0 and a > 0$"):
            _disc_spec(c_p, a, explicit, 1, 5)
    for j_start, j_end in ((5, 3), (0, 3)):
        with pytest.raises(ValueError, match="^need 1 <= j_start <= j_end$"):
            _disc_spec(1.0, 1.0, explicit, j_start, j_end)
    run = rescaling_run(parse("z1", 1), UNIT_DISC, _disc_spec(1.0, 1.0, explicit, 2, 5))
    with pytest.raises(ValueError, match="^tol must be positive$"):
        convergence_report(run, 1.0, 16, 0.0)


# --------------------------------------------------------------------------
# rescaling_run against the former builders, one per scale rule
# --------------------------------------------------------------------------

# make_sequence, _entries, zalcman_rescale and explicit_rescale as they were
# before rescaling_run replaced them, kept as the reference
def _power_law(c, exponent, indices):
    return np.array([c * float(j) ** -exponent for j in indices])


def _make_sequence(spec, domain):
    step = _power_law(spec.c_p, spec.a, spec.indices)
    centers = np.asarray(spec.anchor, dtype=complex) + step[:, None] * np.asarray(spec.inward)
    delta = domains.boundary_distance_batch(domain, centers)
    for k in np.flatnonzero(~(delta > 0))[:1]:
        p = tuple(centers[k].tolist())
        raise DomainError(f"generated center p_{spec.j_start + k} = {p!r} exits the domain")
    if not isinstance(spec.scale, ExplicitScale):
        return centers, None, delta
    scale = _power_law(spec.scale.c_r, spec.scale.b, spec.indices)
    for k in np.flatnonzero(scale <= 0)[:1]:
        raise NormlabError(f"scale r_{spec.j_start + k} underflows to 0")
    return centers, scale, delta


def _entries(spec, centers, rho, delta):
    with np.errstate(over="ignore"):
        ratio = rho / delta
    for k in np.flatnonzero(~np.isfinite(ratio))[:1]:
        j = spec.j_start + k
        raise NormlabError(
            f"ratio rho_{j} / delta_{j} = {float(rho[k])!r} / {float(delta[k])!r} overflows"
        )
    fields = [("j", np.int64), ("z_j", complex, centers.shape[1:]),
              ("delta_j", float), ("rho_j", float), ("ratio", float)]
    columns = [np.arange(spec.j_start, spec.j_end + 1), centers, delta, rho, ratio]
    entries = np.rec.fromarrays(columns, dtype=fields)
    entries.flags.writeable = False
    return entries


def _zalcman_rescale(f, domain, spec):
    if not isinstance(spec.scale, ZalcmanScale):
        raise ValueError("zalcman_rescale requires the sharp-normalized scale rule")
    centers, _, delta = _make_sequence(spec, domain)
    with np.errstate(divide="ignore", over="ignore"):
        rho = 1.0 / sharp_batch(f, centers)
    for k in np.flatnonzero(~np.isfinite(rho))[:1]:
        raise NormlabError(f"sharp(f, z_{spec.j_start + k}) vanishes; rescaling scale undefined")
    flags = ("rho-not-decreasing",) if np.any(rho[1:] >= rho[:-1]) else ()
    return RescalingRun(f, _entries(spec, centers, rho, delta), flags)


def _explicit_rescale(f, domain, spec):
    if not isinstance(spec.scale, ExplicitScale):
        raise ValueError("explicit_rescale requires the explicit scale rule")
    centers, scale, delta = _make_sequence(spec, domain)
    entries = _entries(spec, centers, scale, delta)
    ratio = entries.ratio
    flags = ["ratio-not-decreasing"] if np.any(ratio[1:] >= ratio[:-1]) else []
    if ratio[-1] >= 0.1:
        flags.append("final-ratio-not-small")
    return RescalingRun(f, entries, tuple(flags))


def _outcome(build, f, domain, spec):
    """The run's entries (dtype and bytes) and flags, or its error's class and message."""
    try:
        run = build(f, domain, spec)
    except NormlabError as exc:
        return type(exc), str(exc)
    assert not run.entries.flags.writeable
    return run.entries.dtype, run.entries.tobytes(), run.hypothesis_flags


def _matches_the_former_builder(f, domain, spec):
    former = _explicit_rescale if isinstance(spec.scale, ExplicitScale) else _zalcman_rescale
    expected = _outcome(former, f, domain, spec)
    assert _outcome(rescaling_run, f, domain, spec) == expected
    return expected


_FUNCTIONS = {
    UNIT_DISC: ["sin(1/(1-z1))", "z1^2", "exp(3*z1)", "1/(2-z1)"],
    POLYDISC: ["sin(1/(1-z1))*z2", "z1*z2+exp(z2)", "z1^2"],
}


def _unit(w):
    w = np.asarray(w, dtype=complex)
    return tuple((w / np.linalg.norm(w)).tolist())


@st.composite
def _runs(draw):
    """A domain, a function on it and a spec of either rule: the anchor on the
    boundary of the first disc, the direction within 2 radians of inward,
    so some centers exit."""
    domain = draw(st.sampled_from(list(_FUNCTIONS)))
    source = draw(st.sampled_from(_FUNCTIONS[domain]))
    angle = draw(st.floats(-math.pi, math.pi))
    turn = draw(st.floats(-2.0, 2.0))
    anchor = [complex(math.cos(angle), math.sin(angle))]
    inward = [-complex(math.cos(angle + turn), math.sin(angle + turn))]
    if domain.dimension == 2:
        anchor.append(complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
        inward.append(complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))))
    explicit = st.builds(ExplicitScale, st.floats(0.01, 2.0), st.floats(0.3, 3.0))
    scale = draw(explicit | st.just(ZalcmanScale()))
    j_start = draw(st.integers(1, 5))
    spec = SequenceSpec(
        anchor=tuple(anchor),
        inward=_unit(inward),
        c_p=draw(st.floats(0.05, 1.0)),
        a=draw(st.floats(0.3, 3.0)),
        scale=scale,
        j_start=j_start,
        j_end=j_start + draw(st.integers(0, 40)),
    )
    return parse(source, domain.dimension), domain, spec


@settings(max_examples=80, deadline=None)
@given(_runs())
def test_rescaling_run_matches_the_former_builders(run):
    _matches_the_former_builder(*run)


_TINY_DISC = Ball((0j,), 5e-324)  # the center 0 has a subnormal boundary distance


@pytest.mark.parametrize(
    "source,domain,spec,error,message",
    [
        ("z1", UNIT_DISC, SequenceSpec((1 + 0j,), (1 + 0j,), 1.0, 1.0, ZalcmanScale(), 1, 5),
         DomainError, r"p_1 = \(\(2\+0j\),\) exits the domain"),
        ("z1", UNIT_DISC, _disc_spec(1.0, 1.0, ExplicitScale(1.0, 1100.0), 2, 5),
         NormlabError, "scale r_2 underflows to 0"),
        ("4", UNIT_DISC, _disc_spec(1.0, 1.0, ZalcmanScale(), 2, 5),
         NormlabError, r"sharp\(f, z_2\) vanishes"),
        ("z1", _TINY_DISC, _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 1, 1),
         NormlabError, "ratio rho_1 / delta_1 = 1.0 / 5e-324 overflows"),
        ("z1", _TINY_DISC, _disc_spec(1.0, 1.0, ZalcmanScale(), 1, 1),
         NormlabError, "ratio rho_1 / delta_1 = 1.0 / 5e-324 overflows"),
        # the order: an exterior center before an underflowing scale, and a
        # vanishing sharp value before an overflowing ratio
        ("z1", UNIT_DISC, SequenceSpec((1 + 0j,), (1 + 0j,), 1.0, 1.0, ExplicitScale(1.0, 1100.0), 1, 5),
         DomainError, "p_1"),
        ("4", _TINY_DISC, _disc_spec(1.0, 1.0, ZalcmanScale(), 1, 1),
         NormlabError, r"sharp\(f, z_1\) vanishes"),
    ],
    ids=["exterior-center", "scale-underflow", "vanishing-sharp", "ratio-overflow-explicit",
         "ratio-overflow-zalcman", "exterior-before-underflow", "vanishing-before-overflow"],
)
def test_rescaling_run_errors_match_the_former_builders(source, domain, spec, error, message):
    f = parse(source, 1)
    kind, text = _matches_the_former_builder(f, domain, spec)
    assert kind is error
    assert re.search(message, text)


# --------------------------------------------------------------------------
# The rescaled function and the sharp identity
# --------------------------------------------------------------------------

def test_rescaled_function_trivial():
    f = parse("sin(z1)", 1)
    g = affine_pullback(f, (0j,), 1.0)
    zeta = [(0.3 + 0.2j,)]
    assert pytest.approx(abs(sharp_batch(g, zeta)[0])) == sharp_batch(f, zeta)[0]


def _rescale_sharp_identity_check(f, center, rho, test_points) -> float:
    """Max relative deviation between sharp(g, zeta) and rho * sharp(f,
    center + rho*zeta) for g the rescaled function.  An algebraic identity
    (invariance of the Levi form under affine maps), so the deviation is
    rounding noise."""
    g = affine_pullback(f, center, rho)
    zeta = np.asarray(test_points, dtype=complex).reshape(-1, f.dimension)
    lhs = sharp_batch(g, zeta)
    rhs = rho * sharp_batch(f, np.asarray(center) + rho * zeta)
    scale = np.maximum(lhs, rhs)  # where it is 0, so is the deviation
    return float(np.max(np.abs(lhs - rhs) / np.where(scale > 0, scale, 1.0), initial=0.0))


def test_rescaled_sharp_at_zero():
    f = parse("z1^2", 1)
    center, rho = (0.5 + 0j,), 0.1
    g = affine_pullback(f, center, rho)
    assert sharp_batch(g, [(0j,)])[0] == pytest.approx(rho * sharp_batch(f, [center])[0])


def test_sharp_identity_square():
    points = [(complex(0.1 * k, 0.05 * k),) for k in range(-10, 10)]
    dev = _rescale_sharp_identity_check(parse("z1^2", 1), (0.5 + 0j,), 0.1, points)
    assert dev <= 1e-10


def test_sharp_identity_constant_vacuous():
    points = [(0.2 + 0.1j,), (0j,)]
    assert _rescale_sharp_identity_check(parse("7", 1), (0j,), 0.5, points) == 0.0


def test_sharp_identity_zalcman_normalized_center():
    f = parse("sin(1/(1-z1))", 1)
    z5 = (complex(1 - 1 / (10 * math.pi)),)
    rho = 1.0 / sharp_batch(f, [z5])[0]
    points = [(complex(0.2 * math.cos(t), 0.2 * math.sin(t)),) for t in range(10)]
    assert _rescale_sharp_identity_check(f, z5, rho, points) <= 1e-10
    g = affine_pullback(f, z5, rho)
    assert sharp_batch(g, [(0j,)])[0] == pytest.approx(1.0, abs=1e-10)


def test_sharp_identity_randomized():
    rng = random.Random(61)
    sources = ["z1^2", "exp(z1)", "sin(z1)+z1^3", "z1*z2", "exp(z1+z2)"]
    for src in sources:
        dim = 2 if "z2" in src else 1
        f = parse(src, dim)
        for _ in range(8):
            center = tuple(
                complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                for _ in range(dim)
            )
            rho = rng.uniform(0.05, 0.5)
            points = [
                tuple(
                    complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                    for _ in range(dim)
                )
                for _ in range(5)
            ]
            assert _rescale_sharp_identity_check(f, center, rho, points) <= 1e-10


# --------------------------------------------------------------------------
# The Zalcman rule
# --------------------------------------------------------------------------

def test_zalcman_run_on_nonnormal_function():
    f = parse("sin(1/(1-z1))", 1)
    spec = _disc_spec(1 / (2 * math.pi), 1.0, ZalcmanScale(), 1, 20)
    run = rescaling_run(f, UNIT_DISC, spec)
    assert not run.hypothesis_flags
    for e in run.entries:
        expected_rho = 1.0 / (2 * math.pi * e.j) ** 2
        assert e.rho_j == pytest.approx(expected_rho, rel=1e-6)
        assert e.ratio == pytest.approx(1.0 / (2 * math.pi * e.j), rel=1e-6)
        # normalization: sharp(g_j, 0) = 1
        g_j = affine_pullback(f, e.z_j, e.rho_j)
        assert sharp_batch(g_j, [(0j,)])[0] == pytest.approx(1.0, abs=1e-10)


def test_zalcman_flags_nondecreasing_rho():
    # f = z has sharp = 1/(1+|z|^2), so rho_j = 1+|z_j|^2 grows toward 2
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ZalcmanScale(), 2, 20)
    run = rescaling_run(f, UNIT_DISC, spec)
    assert "rho-not-decreasing" in run.hypothesis_flags
    assert run.entries[-1].rho_j == pytest.approx(1 + (1 - 1 / 20) ** 2)


def test_zalcman_vanishing_sharp_errors():
    spec = _disc_spec(1.0, 1.0, ZalcmanScale(), 2, 5)
    with pytest.raises(NormlabError):
        rescaling_run(parse("4", 1), UNIT_DISC, spec)
    # sharp(f, 0.9) = 800 e^-720 is subnormal, and 1/sharp overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormlabError, match="z_1"):
            rescaling_run(parse("exp(-800*z1)", 1), UNIT_DISC, _disc_spec(0.1, 1.0, ZalcmanScale(), 1, 1))


# --------------------------------------------------------------------------
# convergence_report
# --------------------------------------------------------------------------

def test_convergence_remark_run_constant_limit():
    report = _remark_report(40, 1.0)
    assert report.verdict == "constant-limit"
    # osc_n = rho_n * R = n^-2 exactly on a grid containing |zeta| = 1
    for n, osc in zip(report.indices, report.osc):
        assert osc == pytest.approx(float(n) ** -2, abs=1e-12)


def test_convergence_zalcman_sin_nonconstant_limit():
    f = parse("sin(1/(1-z1))", 1)
    spec = _disc_spec(1 / (2 * math.pi), 1.0, ZalcmanScale(), 2, 30)
    run = rescaling_run(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 64, 1e-3)
    assert report.verdict == "nonconstant-limit"
    # limit is sin(zeta): oscillation stays near sup |sin| on the unit disc
    assert report.osc[-1] == pytest.approx(math.sinh(1.0), abs=0.05)


def test_convergence_constant_function():
    f = parse("5", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 10)
    run = rescaling_run(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 32, 1e-3)
    assert report.verdict == "constant-limit"
    assert all(o == 0.0 for o in report.osc)
    assert all(gap == 0.0 for gap in report.cauchy_gaps)


def test_convergence_report_arrays_are_read_only():
    run = rescaling_run(parse("z1^2", 1), UNIT_DISC, _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 12))
    report = convergence_report(run, 1.0, 32, 1e-3)
    assert report.grid.shape == (len(ball_grid(1, 1.0, 32)), 1)
    assert report.osc.shape == (11,) and report.cauchy_gaps.shape == (10,)
    for array in (report.grid, report.osc, report.cauchy_gaps):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_convergence_excludes_index_with_a_grid_pole():
    # g_2(zeta) = 1/(-1/2 + zeta/2) has its pole at zeta = 1, a grid point
    spec = SequenceSpec(
        anchor=(-1 + 0j,),
        inward=(1 + 0j,),
        c_p=1.0,
        a=1.0,
        scale=ExplicitScale(1.0, 1.0),
        j_start=2,
        j_end=6,
    )
    run = rescaling_run(parse("1/z1", 1), UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 32, 1e-3)
    assert report.excluded == (2,)
    assert report.indices == (3, 4, 5, 6)


def _reference_report(run, radius, grid_size, tol):
    """convergence_report as the former per-index loop: (indices, excluded,
    osc, gaps, verdict), osc and gaps as the bytes of float arrays, or None
    when no index is usable."""
    grid = ball_grid(run.f.dimension, radius, grid_size)
    usable, values, excluded = [], [], []
    for entry in run.entries:
        batch = evaluate_batch(run.f, np.asarray(entry.z_j) + entry.rho_j * grid, gradient=False)
        if batch.status.any():
            excluded.append(entry.j)
            continue
        usable.append(entry.j)
        values.append(batch.value)
    if not usable:
        return None
    osc = [float(np.max(np.abs(vals - vals[0]))) for vals in values]
    gaps = [float(np.max(np.abs(b - a))) for a, b in zip(values, values[1:])]
    final_gap = gaps[-1] if gaps else math.inf
    if final_gap <= tol and osc[-1] <= tol:
        verdict = "constant-limit"
    elif final_gap <= tol and osc[-1] > 10.0 * tol:
        verdict = "nonconstant-limit"
    else:
        verdict = "no-convergence"
    return tuple(usable), tuple(excluded), np.array(osc, float).tobytes(), np.array(gaps, float).tobytes(), verdict


def _chunked_and_reference(run, radius, grid_size, tol):
    expected = _reference_report(run, radius, grid_size, tol)
    if expected is None:
        with pytest.raises(NormlabError, match="no index"):
            convergence_report(run, radius, grid_size, tol)
        return None, None
    report = convergence_report(run, radius, grid_size, tol)
    got = (report.indices, report.excluded, report.osc.tobytes(), report.cauchy_gaps.tobytes(), report.verdict)
    return got, expected


# exp(1/(z1-c)) overflows in a small disc right of c, so the indices whose
# grids reach it are excluded.  Grids of 1,123 to 4,625 points put 1 to 3
# indices in a chunk.  In the example the one center is c itself, so no
# index is evaluable.
@settings(max_examples=40, deadline=None)
@example(c=0.5, c_p=0.5, a=1.0, c_r=0.1, b=1.0, j_start=1, count=1, grid_size=1100, radius=1.0)
@given(
    c=st.floats(0.5, 0.99),
    c_p=st.floats(0.1, 0.9),
    a=st.floats(0.5, 2.0),
    c_r=st.floats(0.01, 0.3),
    b=st.floats(0.5, 2.0),
    j_start=st.integers(1, 4),
    count=st.integers(1, 30),
    grid_size=st.integers(1100, 4600),
    radius=st.floats(0.5, 2.0),
)
def test_chunked_convergence_matches_the_per_index_loop(c, c_p, a, c_r, b, j_start, count, grid_size, radius):
    f = parse(f"exp(1/(z1-{c!r}))", 1)
    spec = _disc_spec(c_p, a, ExplicitScale(c_r, b), j_start, j_start + count - 1)
    run = rescaling_run(f, UNIT_DISC, spec)
    got, expected = _chunked_and_reference(run, radius, grid_size, 1e-3)
    assert got == expected


def test_excluded_indices_fill_a_whole_chunk():
    # 1,123 grid points, so 3 indices per chunk; chunk 2 (j = 8, 9, 10) is
    # excluded whole, and 11, 12 open chunk 3
    f = parse("exp(1/(z1-0.95))", 1)
    run = rescaling_run(f, UNIT_DISC, _disc_spec(0.5, 1.0, ExplicitScale(0.1, 1.0), 2, 40))
    assert rescaling._CHUNK_ROWS // len(ball_grid(1, 1.0, 1100)) == 3
    got, expected = _chunked_and_reference(run, 1.0, 1100, 1e-3)
    assert got == expected
    assert got[1] == (8, 9, 10, 11, 12)


# `_grid_points` looks for an overflow only at the grid's least and greatest
# real and imaginary parts; every grid point, built by the same arithmetic, is
# its reference.  Coordinates near the float range's end, grids up to 1e307.
_HUGE = st.floats(-1.7e308, 1.7e308) | st.sampled_from([0.0, 1.7e308, -1.7e308, 1e308, -1e308])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    count=st.integers(1, 6),
    grid_size=st.integers(2, 40),
    radius=st.floats(1e-300, 1e307),
    data=st.data(),
)
def test_grid_point_overflow_is_found_at_the_grid_extremes(n, count, grid_size, radius, data):
    z = np.array(data.draw(st.lists(st.lists(st.builds(complex, _HUGE, _HUGE), min_size=n, max_size=n),
                                    min_size=count, max_size=count)))
    rho = np.array(data.draw(st.lists(st.floats(5e-324, 1.7e308), min_size=count, max_size=count)))
    fields = [("j", np.int64), ("z_j", complex, (n,)), ("delta_j", float), ("rho_j", float), ("ratio", float)]
    entries = np.rec.fromarrays([np.arange(1, count + 1), z, rho, rho, np.ones(count)], dtype=fields)
    run = RescalingRun(parse("z1", n), entries, ())
    grid = ball_grid(n, radius, grid_size)
    with np.errstate(over="ignore"):
        points = z[:, None, :] + rho[:, None, None] * grid  # (J, G, n)
    overflowed = np.flatnonzero(~np.isfinite(points).all(axis=(1, 2)))
    if len(overflowed):
        j = overflowed[0] + 1
        with pytest.raises(NormlabError, match=re.escape(f"grid point z_{j} + rho_{j}*zeta of g_{j} overflows")):
            list(rescaling._grid_points(run, grid))
    else:
        chunks = np.concatenate(list(rescaling._grid_points(run, grid)))
        assert chunks.tobytes() == points.reshape(-1, n).tobytes()


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_make_sequence_is_one_boundary_distance_pass(monkeypatch):
    calls = _counting(monkeypatch, domains, "boundary_distance_batch")
    for scale in (ExplicitScale(1.0, 2.0), ZalcmanScale()):
        calls.clear()
        e = rescaling_run(parse("z1", 1), UNIT_DISC, _disc_spec(1.0, 1.0, scale, 2, 200)).entries
        assert len(calls) == 1
        assert e.z_j.shape == (199, 1) and e.rho_j.shape == e.delta_j.shape == (199,)


@pytest.mark.parametrize("grid_size", [16, 64, 1100, 4600])
def test_convergence_report_evaluates_in_chunks(monkeypatch, grid_size):
    run = rescaling_run(parse("z1^2", 1), UNIT_DISC, _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 50))
    calls = _counting(monkeypatch, rescaling, "evaluate_batch")
    report = convergence_report(run, 1.0, grid_size, 1e-3)
    per_chunk = max(1, 4096 // len(report.grid))
    assert len(calls) == math.ceil(len(run.entries) / per_chunk)
    assert max(len(points) for _, points in calls) <= max(4096, len(report.grid))


def test_building_a_run_makes_no_pullback(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a run built a symbolic pullback")

    monkeypatch.setattr(rescaling, "affine_pullback", forbidden)
    f = parse("sin(1/(1-z1))", 1)
    rescaling_run(f, UNIT_DISC, _disc_spec(1 / (2 * math.pi), 1.0, ZalcmanScale(), 2, 30))
    rescaling_run(f, UNIT_DISC, _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 30))


def test_explicit_scale_underflow_is_an_error():
    # r_j = 0 would make every g_j constant and fake a constant limit
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 1100.0), 2, 5)
    with pytest.raises(NormlabError, match="r_2 underflows"):
        rescaling_run(parse("z1", 1), UNIT_DISC, spec)


def test_constant_limit_osc_nonincreasing_after_first_quartile():
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 50)
    report = convergence_report(rescaling_run(f, UNIT_DISC, spec), 1.0, 64, 1e-3)
    assert report.verdict == "constant-limit"
    start = len(report.osc) // 4
    tail = report.osc[start:]
    assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))


# A guard written `x <= 0` let NaN through, to fail later and elsewhere: a
# ratio nan / 0.5 "overflowed", a center ((nan+nanj),) "exited the domain",
# a nan tol gave no-convergence, and a nan radius or step failed as overflow.
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ExplicitScale(math.nan, 2.0), "explicit scale requires c_r > 0 and b > 0"),
        (lambda: ExplicitScale(1.0, math.nan), "explicit scale requires c_r > 0 and b > 0"),
        (lambda: _disc_spec(math.nan, 1.0, ZalcmanScale(), 2, 4), "center rule requires c_p > 0 and a > 0"),
        (lambda: _disc_spec(1.0, math.nan, ZalcmanScale(), 2, 4), "center rule requires c_p > 0 and a > 0"),
        (lambda: convergence_report(rescaling_run(parse("z1", 1), UNIT_DISC, _remark_spec(8)), 1.0, 16, math.nan),
         "tol must be positive"),
        (lambda: limit_sharp_check(_remark_report(8, 1.0), math.nan), "tol must be positive"),
        (lambda: ball_grid(1, math.nan, 16), "radius must be positive"),
        (lambda: levi_form_fd(lambda z: abs(z[..., 0]) ** 2, (0j,), (1 + 0j,), math.nan), "h must be positive"),
    ],
    ids=["c_r", "b", "c_p", "a", "convergence-tol", "limit-tol", "grid-radius", "levi-step"],
)
def test_positive_guards_refuse_nan(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# --------------------------------------------------------------------------
# limit_sharp_check
# --------------------------------------------------------------------------

def test_limit_sharp_check_on_sin_limit():
    f = parse("sin(1/(1-z1))", 1)
    spec = _disc_spec(1 / (2 * math.pi), 1.0, ZalcmanScale(), 2, 30)
    run = rescaling_run(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 64, 1e-3)
    profile = limit_sharp_check(report, 1e-2)
    assert not profile.vacuous
    # plain complex: np.complex128's repr reads np.complex128(-1+1.22e-16j)
    assert all(type(z) is complex for z in profile.argmax)
    assert profile.sharp_at_zero == pytest.approx(1.0, abs=1e-2)
    assert profile.max_sharp <= 1.0 + 1e-6
    assert profile.passed


def test_limit_sharp_check_vacuous_on_constant_limit():
    report = _remark_report(40, 1.0)
    profile = limit_sharp_check(report, 1e-2)
    assert profile.vacuous
    assert profile.passed is None
    assert all(type(z) is complex for z in profile.argmax)


def test_sharp_profile_not_normalized_proxy():
    # proxy 2*zeta has sharp(0) = 2: fails the normalization check
    f = parse("2*z1", 1)
    spec = _disc_spec(0.5, 1.0, ZalcmanScale(), 2, 4)
    run = rescaling_run(f, UNIT_DISC, spec)
    assert sharp_batch(parse("2*z1", 1), [(0j,)])[0] == 2.0
    assert all(
        sharp_batch(affine_pullback(f, e.z_j, e.rho_j), [(0j,)])[0] == pytest.approx(1.0)
        for e in run.entries
    )


# --------------------------------------------------------------------------
# thm2: explicit scales, then the convergence report
# --------------------------------------------------------------------------

def test_thm2_identity_function_constant_limit():
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 50)
    run = rescaling_run(f, UNIT_DISC, spec)
    assert not run.hypothesis_flags
    report = convergence_report(run, 1.0, 64, 1e-3)
    assert report.verdict == "constant-limit"
    for j, osc in zip(report.indices, report.osc):
        assert osc == pytest.approx(float(j) ** -2, abs=1e-12)


def test_thm2_nonnormal_function_nonconstant_limit():
    f = parse("sin(1/(1-z1))", 1)
    spec = SequenceSpec(
        anchor=(1 + 0j,),
        inward=(-1 + 0j,),
        c_p=1 / (2 * math.pi),
        a=1.0,
        scale=ExplicitScale(1 / (2 * math.pi) ** 2, 2.0),
        j_start=2,
        j_end=30,
    )
    report = convergence_report(rescaling_run(f, UNIT_DISC, spec), 1.0, 64, 1e-3)
    assert report.verdict == "nonconstant-limit"


def test_thm2_hypothesis_flag_on_large_ratio():
    f = parse("z1", 1)
    # b < a: ratio r_j/delta_j grows
    spec = _disc_spec(1.0, 2.0, ExplicitScale(1.0, 1.0), 2, 10)
    run = rescaling_run(f, UNIT_DISC, spec)
    assert "ratio-not-decreasing" in run.hypothesis_flags


def test_marty_bound_chain_identity_function():
    # normal f = z on the disc admits C = 1; the rescaled sharp obeys the bound
    # sqrt(C) rho delta / (delta^2 - (rho |zeta|)^2), whose slack is positive
    # on |zeta| <= 1 since rho_j = j^-2 < delta_j = 1/j
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 30)
    run = rescaling_run(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 48, 1e-3)
    for e in run.entries:
        g_j = affine_pullback(f, e.z_j, e.rho_j)
        bound = e.rho_j * e.delta_j / (e.delta_j**2 - (e.rho_j * np.abs(report.grid[:, 0])) ** 2)
        assert np.all(sharp_batch(g_j, report.grid) <= bound + 1e-8)


# --------------------------------------------------------------------------
# The counterexample command: the Remark's run and sup |g_n - 1|
# --------------------------------------------------------------------------

def _counterexample(n_max, radius, grid_size):
    config = {"command": "counterexample", "n_max": n_max, "R": radius, "grid_size": grid_size}
    validate_config(config)
    code, outputs = _RUNNERS["counterexample"](config)
    assert code == 0
    return json.loads("".join(outputs["counterexample.json"]))


def _two_pass_counterexample(n_max, radius, grid_size):
    """The counterexample as two grid passes: a chunked sup |g_n - 1| pass of
    f's values, then convergence_report, which evaluates every g_n again."""
    spec = _remark_spec(n_max)
    run = rescaling_run(parse("z1", 1), UNIT_DISC, spec)
    grid = ball_grid(1, radius, grid_size)
    per_chunk = max(1, 4096 // len(grid))
    sup_dev = []
    for start in range(0, n_max, per_chunk):
        chunk = run.entries[start:start + per_chunk]
        points = chunk.z_j[:, None, :] + chunk.rho_j[:, None, None] * grid
        batch = evaluate_batch(run.f, points.reshape(-1, 1), gradient=False)
        sup_dev += np.max(np.abs(batch.check().value.reshape(-1, len(grid)) - 1.0), axis=1).tolist()
    bounds = [float(n) ** -3 + float(n) ** -2 * radius for n in spec.indices]
    conv = convergence_report(run, radius, grid_size, 1e-3)
    return list(spec.indices), sup_dev, bounds, conv, run.hypothesis_flags


def test_remark_ratios_exact():
    # n itself, not the run's ratios, which carry the rounding of 1 - n^-3
    assert _counterexample(10, 1.0, 64)["ratios"] == [float(n) for n in range(1, 11)]


def test_remark_sup_dev_bound():
    # sup |g_5 - 1| = 5^-3 + 5^-2 R, taken at zeta = -R
    sup_dev = _counterexample(10, 1.0, 64)["sup_dev"]
    assert sup_dev[4] <= 5**-3 + 5**-2 + 1e-12
    assert sup_dev[4] == pytest.approx(5**-3 + 5**-2, abs=1e-12)


def test_remark_monotone_and_verdict():
    payload = _counterexample(40, 1.0, 64)
    assert all(b < a for a, b in zip(payload["sup_dev"][2:], payload["sup_dev"][3:]))
    assert all(b > a for a, b in zip(payload["ratios"], payload["ratios"][1:]))
    assert payload["verdict"] == "constant-limit-with-divergent-ratio"


# the sup |g_n - 1| pass reads the run's columns and evaluates nothing
@pytest.mark.parametrize("n_max,grid_size", [(200, 256), (100, 512), (40, 16), (30, 1100), (7, 4600)])
def test_remark_evaluates_each_chunk_once(monkeypatch, n_max, grid_size):
    calls = _counting(monkeypatch, rescaling, "evaluate_batch")
    _counterexample(n_max, 1.0, grid_size)
    per_chunk = max(1, 4096 // len(ball_grid(1, 1.0, grid_size)))
    assert len(calls) == math.ceil(n_max / per_chunk)


# the command takes sup |g_n - 1| from the run's columns, not from f's values
@settings(max_examples=25, deadline=None)
@given(
    n_max=st.integers(3, 150),
    radius=st.floats(0.01, 10.0),
    grid_size=st.integers(2, 5000),
)
def test_remark_single_pass_matches_two_passes(n_max, radius, grid_size):
    payload = _counterexample(n_max, radius, grid_size)
    indices, sup_dev, bounds, conv, flags = _two_pass_counterexample(n_max, radius, grid_size)
    # json prints each float as its repr, which reads back bit for bit
    assert (payload["indices"], payload["sup_dev"], payload["bounds"]) == (indices, sup_dev, bounds)
    assert payload["convergence_verdict"] == conv.verdict
    # the ratio n grows past 0.1: the run breaks the hypothesis r_n/delta_n -> 0 on purpose
    assert flags == ("ratio-not-decreasing", "final-ratio-not-small")


def test_long_counterexample_takes_its_sup_in_chunks():
    # 20,000 indices on 256 grid points are 82 MB of complex g_n values at once
    tracemalloc.start()
    try:
        payload = _counterexample(20_000, 1.0, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, peak
    assert len(payload["sup_dev"]) == 20_000


def test_long_explicit_run_holds_its_columns_only():
    # 100,000 records of 48 bytes are 4.6 MiB; nothing per index is held beside them
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 1, 100_000)
    tracemalloc.start()
    try:
        run = rescaling_run(f, UNIT_DISC, spec)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 8 * 2**20
    assert len(run.entries) == 100_000
