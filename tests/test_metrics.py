import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import (
    Ball,
    DomainError,
    EvaluationError,
    Polydisc,
    SamplingPlan,
    boundary_distance,
    circumscribed_ball,
    kobayashi_ball,
    kobayashi_domain_bounds,
    kobayashi_upper,
    levi_form_fd,
    levi_log1p_closed,
    log1p_sq_field,
    normality_scan,
    parse,
    sharp,
    sharp_fd,
    sphere_directions,
)
from normlab import domains, metrics
from normlab.domains import ray_extent
from normlab.expr import NONFINITE, OK, evaluate_batch, status_error
from normlab.metrics import kobayashi_ball_batch, kobayashi_domain_bounds_batch
from normlab.sampling import scan_rays

UNIT_DISC = Ball((0j,), 1.0)


# --------------------------------------------------------------------------
# Levi form: finite differences vs closed form
# --------------------------------------------------------------------------

def test_levi_fd_quadratic_field_exact():
    # |z|^2 has constant Levi form 1 along unit directions
    field = lambda z: abs(z[0]) ** 2
    for z in (0j, 0.3 + 0.4j, -0.7j):
        assert levi_form_fd(field, (z,), (1 + 0j,), 1e-4) == pytest.approx(1.0, abs=1e-6)


def test_levi_fd_constant_field_zero():
    assert levi_form_fd(lambda z: 2.5, (0.1 + 0.2j,), (1 + 0j,), 1e-4) == 0.0


def test_levi_fd_log1p_identity_at_origin():
    f = parse("z1", 1)
    value = levi_form_fd(log1p_sq_field(f), (0j,), (1 + 0j,), 1e-4)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_levi_fd_direction_array_matches_single_directions():
    f = parse("exp(z1)*z2", 2)
    field = log1p_sq_field(f)
    z = (0.2 + 0.1j, -0.3 + 0.4j)
    dirs = sphere_directions(2, 16, 0)
    batched = levi_form_fd(field, z, dirs, 1e-4)
    assert batched.shape == (16,)
    for v, value in zip(dirs, batched):
        assert value == levi_form_fd(field, z, v, 1e-4)


def test_levi_closed_constant_zero():
    f = parse("3+2*i", 1)
    assert levi_log1p_closed(f, (0.5 + 0.5j,), (1 + 0j,)) == 0.0


def test_levi_closed_identity_function():
    assert levi_log1p_closed(parse("z1", 1), (0j,), (1 + 0j,)) == 1.0


def test_levi_closed_vs_fd_square():
    f = parse("z1^2", 1)
    closed = levi_log1p_closed(f, (1 + 0j,), (1 + 0j,))
    assert closed == pytest.approx(1.0)  # |2|^2 / (1+1)^2
    fd = levi_form_fd(log1p_sq_field(f), (1 + 0j,), (1 + 0j,), 1e-4)
    assert abs(closed - fd) <= 1e-6


def _random_point(rng, dim, scale=0.7):
    return tuple(
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        for _ in range(dim)
    )


_SUITE = [
    ("z1", 1),
    ("z1^2", 1),
    ("z1^3 - 2*z1 + 1", 1),
    ("exp(z1)", 1),
    ("sin(z1)", 1),
    ("sin(1/(1-z1))", 1),
    ("z1*z2", 2),
    ("z1^2*z2", 2),
    ("exp(z1+z2)", 2),
    ("z1*z2*z3", 3),
]


@pytest.mark.parametrize("source,dim", _SUITE)
def test_levi_closed_agrees_with_fd(source, dim):
    rng = random.Random(hash((source, dim)) & 0xFFFF)
    f = parse(source, dim)
    for _ in range(20):
        z = _random_point(rng, dim, 0.6)
        v = _random_point(rng, dim, 1.0)
        if all(c == 0 for c in v):
            continue
        closed = levi_log1p_closed(f, z, v)
        fd = levi_form_fd(log1p_sq_field(f), z, v, 1e-4 * (1 + max(abs(c) for c in z)))
        assert abs(closed - fd) <= 1e-5 * (1 + closed)


# --------------------------------------------------------------------------
# Sharp function and its oracle
# --------------------------------------------------------------------------

def test_sharp_identity_function_origin():
    assert sharp(parse("z1", 1), (0j,)).value == 1.0


def test_sharp_constant_zero_everywhere():
    f = parse("5", 1)
    for z in ((0j,), (0.5 + 0.5j,)):
        assert sharp(f, z).value == 0.0


def test_sharp_product_value_confirmed_by_oracle():
    # closed form |grad|/(1+|f|^2) = sqrt(2)/2 at (1,1); the fd oracle agrees
    f = parse("z1*z2", 2)
    s = sharp(f, (1 + 0j, 1 + 0j)).value
    assert s == pytest.approx(math.sqrt(2) / 2)
    oracle = sharp_fd(f, (1 + 0j, 1 + 0j), 256, 1e-4)
    assert abs(s - oracle) <= 1e-3 * (1 + s)


def test_sharp_and_levi_do_not_overflow():
    # |exp(400)|^2 is past the float range; sharp = e^400 / (1 + e^800) is not
    f = parse("exp(z1)", 1)
    z = (400 + 0j,)
    assert sharp(f, z).value == pytest.approx(math.exp(-400.0), rel=1e-12)
    assert levi_log1p_closed(f, (300 + 0j,), (1 + 0j,)) == pytest.approx(math.exp(-600.0), rel=1e-12)
    assert log1p_sq_field(f)(z) == pytest.approx(800.0, rel=1e-15)
    assert math.isfinite(sharp_fd(f, z, 8, 1e-4))


def test_sharp_fd_identity_function():
    oracle = sharp_fd(parse("z1", 1), (0j,), 64, 1e-4)
    assert oracle == pytest.approx(1.0, abs=1e-4)


def test_sharp_fd_constant_zero():
    assert sharp_fd(parse("2", 1), (0.1 + 0.1j,), 64, 1e-4) == 0.0


def _sharp_fd_per_point(f, z, sphere_samples, h, seed=0):
    """The former sharp_fd: one point at a time, each with its own directions."""
    dirs = sphere_directions(f.dimension, sphere_samples, seed)
    levi = levi_form_fd(log1p_sq_field(f), z, dirs, h)
    return math.sqrt(max(0.0, float(np.max(levi))))


def test_sharp_fd_over_points_is_one_stencil_pass(monkeypatch):
    f = parse("exp(0.3*z1)*z2+z3^2", 3)
    rng = np.random.default_rng(5)
    points = 0.4 * (rng.random((16, 3)) - 0.5 + 1j * (rng.random((16, 3)) - 0.5))
    expected = [_sharp_fd_per_point(f, tuple(z), 64, 1e-4, seed=2) for z in points]
    calls = {"evaluate_batch": 0, "sphere_directions": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(metrics, name, counted(name, getattr(metrics, name)))
    oracle = sharp_fd(f, points, 64, 1e-4, seed=2)
    # one direction set; the four shifted stencil points and the center
    assert calls == {"evaluate_batch": 5, "sphere_directions": 1}
    assert oracle.shape == (16,)
    assert oracle.tolist() == expected
    assert sharp_fd(f, points[3], 64, 1e-4, seed=2) == expected[3]


def test_sharp_fd_rejects_a_non_finite_stencil():
    # 4 h^2 underflows to 0: the stencil is 0/0, which max(0, nan) once hid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="not finite"):
            sharp_fd(parse("z1^2", 1), (0.5 + 0j,), 64, 1e-200)


def test_hermitian_homogeneity():
    rng = random.Random(31)
    f = parse("exp(z1)*z2", 2)
    for _ in range(25):
        z = _random_point(rng, 2)
        v = _random_point(rng, 2, 1.0)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = levi_log1p_closed(f, z, tuple(lam * c for c in v))
        rhs = abs(lam) ** 2 * levi_log1p_closed(f, z, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_levi_nonnegative():
    rng = random.Random(37)
    for source, dim in _SUITE:
        f = parse(source, dim)
        for _ in range(10):
            assert levi_log1p_closed(f, _random_point(rng, dim, 0.5), _random_point(rng, dim, 1.0)) >= 0.0


def test_unimodular_invariance():
    rng = random.Random(41)
    base = "z1^2+sin(z1)"
    f = parse(base, 1)
    for theta in (0.3, 1.1, 2.9, 4.4):
        g = parse(f"exp({theta}*i)*({base})", 1)
        for _ in range(10):
            z = _random_point(rng, 1)
            a, b = sharp(f, z).value, sharp(g, z).value
            assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_reciprocal_invariance():
    rng = random.Random(43)
    cases = [("exp(z1)", 1), ("1+z1^2", 1), ("2+z1*z2", 2)]
    for base, dim in cases:
        f = parse(base, dim)
        g = parse(f"1/({base})", dim)
        for _ in range(20):
            z = _random_point(rng, dim, 0.5)
            a, b = sharp(f, z).value, sharp(g, z).value
            assert abs(a - b) <= 1e-10 * max(1.0, a)


# --------------------------------------------------------------------------
# Kobayashi metric
# --------------------------------------------------------------------------

def test_kobayashi_at_center():
    ball = Ball((0.2 + 0.1j, -0.3j), 0.7)
    v = (0.6 + 0j, 0.8j)
    assert kobayashi_ball(ball, ball.center, v) == pytest.approx(1.0 / 0.7)
    assert kobayashi_upper(ball, ball.center, v) == pytest.approx(1.0 / 0.7)


def test_kobayashi_unit_disc_values():
    assert kobayashi_ball(UNIT_DISC, (0.5 + 0j,), (1 + 0j,)) == pytest.approx(4 / 3)
    assert kobayashi_upper(UNIT_DISC, (0.5 + 0j,), (1 + 0j,)) == pytest.approx(4 / 3)


def test_kobayashi_unit_ball_orthogonal_direction():
    ball = Ball((0j, 0j), 1.0)
    value = kobayashi_ball(ball, (0.5 + 0j, 0j), (0j, 1 + 0j))
    assert value == pytest.approx(1 / math.sqrt(0.75))


def _random_in_ball(rng, ball):
    n = ball.dimension
    while True:
        p = tuple(
            complex(ball.center[k])
            + complex(rng.uniform(-ball.radius, ball.radius), rng.uniform(-ball.radius, ball.radius))
            for k in range(n)
        )
        d = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(p, ball.center)))
        if d < 0.999 * ball.radius:
            return p


def test_kobayashi_upper_bound_random():
    rng = random.Random(47)
    ball = Ball((0.1 + 0.2j, -0.1j), 1.3)
    for _ in range(1000):
        z = _random_in_ball(rng, ball)
        v = _random_point(rng, 2, 1.0)
        if all(c == 0 for c in v):
            continue
        assert kobayashi_ball(ball, z, v) <= kobayashi_upper(ball, z, v)


def test_concentric_ball_monotonicity():
    rng = random.Random(53)
    c = (0.05 + 0j, -0.05j)
    small, big = Ball(c, 0.8), Ball(c, 1.5)
    for _ in range(500):
        z = _random_in_ball(rng, small)
        v = _random_point(rng, 2, 1.0)
        if all(c_ == 0 for c_ in v):
            continue
        assert kobayashi_ball(big, z, v) <= kobayashi_ball(small, z, v)


def test_domain_bounds_unit_disc():
    lower, upper = kobayashi_domain_bounds(UNIT_DISC, (0.5 + 0j,), (1 + 0j,))
    assert upper == pytest.approx(2.0)  # inscribed Ball(0.5, 0.5) at its center
    assert lower == pytest.approx(4 / 3)
    assert lower <= upper


def test_domain_bounds_polydisc_ordering():
    rng = random.Random(59)
    poly = Polydisc((0j, 0j), (1.0, 2.0))
    for _ in range(1000):
        p = (
            complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)),
            complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)),
        )
        v = _random_point(rng, 2, 1.0)
        if all(c == 0 for c in v):
            continue
        lower, upper = kobayashi_domain_bounds(poly, p, v)
        assert lower <= upper


def _kobayashi_reference(center, radius, z, v):
    """The ball's Kobayashi metric in plain Python, the reference for the kernel."""
    w = [a - c for a, c in zip(z, center)]
    slack = radius**2 - sum(abs(x) ** 2 for x in w)
    pairing = sum(a * b.conjugate() for a, b in zip(w, v))
    return math.sqrt(slack * sum(abs(x) ** 2 for x in v) + abs(pairing) ** 2) / slack


def _unit(rng, dim):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in v))
    return tuple(c / norm for c in v)


def _random_domain(rng, dim):
    center = _random_point(rng, dim, 1.0)
    if rng.random() < 0.5:
        return Ball(center, rng.uniform(0.1, 3.0))
    return Polydisc(center, tuple(rng.uniform(0.1, 3.0) for _ in range(dim)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_sandwich_batch_matches_single_samples_and_the_reference(seed, dim):
    rng = random.Random(seed)
    domain = _random_domain(rng, dim)
    # interior points along random rays, the last one next to the boundary
    fractions = [0.999 * rng.random() for _ in range(4)] + [1.0 - 2.0 ** -rng.randint(10, 40)]
    points = []
    for t in fractions:
        u = _unit(rng, dim)
        extent = ray_extent(domain, u)
        points.append(tuple(c + t * extent * x for c, x in zip(domain.center, u)))
    dirs = [_unit(rng, dim) for _ in range(5)]
    lower, upper = kobayashi_domain_bounds_batch(domain, points, dirs)
    assert lower.shape == upper.shape == (len(points), len(dirs))
    outer = circumscribed_ball(domain)
    for i, (p, t) in enumerate(zip(points, fractions)):
        delta = boundary_distance(domain, p)
        for j, v in enumerate(dirs):
            lo, up = kobayashi_domain_bounds(domain, p, v)
            assert lower[i, j] == pytest.approx(lo, rel=1e-12)
            assert upper[i, j] == pytest.approx(up, rel=1e-12)
            assert lo <= up
            if t < 0.999:  # nearer the boundary both sides lose digits to d^2 - |w|^2
                assert up == pytest.approx(_kobayashi_reference(p, delta, p, v), rel=1e-12)
                assert lo == pytest.approx(_kobayashi_reference(outer.center, outer.radius, p, v), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_kobayashi_ball_unitary_invariance(seed, dim):
    # z -> c' + U (z - c) maps B(c, r) onto B(c', r) and preserves its metric
    rng = np.random.default_rng(seed)
    gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731
    unitary, _ = np.linalg.qr(gauss(dim, dim))
    center, image_center = gauss(dim), gauss(dim)
    radius = rng.uniform(0.5, 2.0)
    ball, image = Ball(tuple(center), radius), Ball(tuple(image_center), radius)
    for _ in range(5):
        w = gauss(dim)
        w *= rng.uniform(0.0, 0.9) * radius / np.linalg.norm(w)
        v = gauss(dim)
        expected = kobayashi_ball(ball, tuple(center + w), tuple(v))
        mapped = kobayashi_ball(image, tuple(image_center + unitary @ w), tuple(unitary @ v))
        assert mapped == pytest.approx(expected, rel=1e-12)


def test_kobayashi_kernels_reject_zero_directions_and_exterior_points():
    ball = Ball((0j, 0j), 1.0)
    inside, outside, zero, e1 = (0.5 + 0j, 0j), (3 + 0j, 0j), (0j, 0j), (1 + 0j, 0j)
    for kernel in (kobayashi_ball, kobayashi_upper):
        with pytest.raises(ValueError):
            kernel(ball, inside, zero)
        with pytest.raises(DomainError):
            kernel(ball, outside, e1)
        with pytest.raises(DomainError):
            kernel(ball, e1, e1)  # on the sphere
    with pytest.raises(ValueError):
        kobayashi_ball_batch([inside], 1.0, [e1, zero])
    with pytest.raises(DomainError):
        kobayashi_ball_batch([inside, outside], 1.0, [e1])
    for domain in (ball, Polydisc((0j, 0j), (1.0, 2.0))):
        with pytest.raises(ValueError):
            kobayashi_domain_bounds(domain, inside, zero)
        with pytest.raises(DomainError):
            kobayashi_domain_bounds(domain, outside, e1)
        with pytest.raises(DomainError):
            kobayashi_domain_bounds(domain, outside, zero)  # the point is checked first
        with pytest.raises(DomainError):
            kobayashi_domain_bounds_batch(domain, [inside, outside], [e1])


# --------------------------------------------------------------------------
# Normality scan
# --------------------------------------------------------------------------

_PLAN = SamplingPlan(shells=(0.5, 0.25, 0.125, 0.0625), points_per_shell=8, directions_per_point=8, seed=0)


def test_scan_constant_function():
    est = normality_scan(parse("3", 1), UNIT_DISC, _PLAN)
    assert est.c_required_lower_bound == 0.0
    assert est.verdict == "bounded-consistent"


def test_scan_identity_on_disc():
    plan = SamplingPlan(shells=(1.0, 0.5, 0.25, 0.125), points_per_shell=8, directions_per_point=8, seed=0)
    est = normality_scan(parse("z1", 1), UNIT_DISC, plan)
    # ratio (1-|z|)^2/(1+|z|^2)^2 peaks at the center (shell fraction 1.0)
    assert est.c_required_lower_bound == pytest.approx(1.0, abs=1e-9)
    assert max(s.ratio_lower for s in est.samples) <= 1.0 + 1e-12
    assert est.verdict == "bounded-consistent"


def test_scan_nonnormal_function_divergent():
    shells = tuple(1.0 / (2 * math.pi * j) for j in (1, 2, 4, 8, 16, 32))
    plan = SamplingPlan(shells=shells, points_per_shell=4, directions_per_point=4, seed=0)
    est = normality_scan(parse("sin(1/(1-z1))", 1), UNIT_DISC, plan)
    assert est.verdict == "divergent"
    maxima = [m for _, m, _ in est.shell_trend]
    assert maxima[-1] >= 10 * maxima[-3]


def test_scan_skips_non_finite_samples():
    # exp(10/(1-z1)) overflows near z1 = 1 and its Levi form passes the float
    # range before that; such samples are skipped and counted, never reported
    ball = Ball((0j, 0j), 1.0)
    plan = SamplingPlan(shells=tuple(2.0**-k for k in range(1, 9)), points_per_shell=8, directions_per_point=4)
    est = normality_scan(parse("exp(10/(1-z1))*z2", 2), ball, plan)
    assert est.skipped > 0
    assert len(est.samples) + est.skipped == 8 * 8 * 4
    assert len(est.errors) > 0
    for s in est.samples:
        assert all(map(math.isfinite, (s.levi, s.ratio_lower, s.ratio_upper)))
    assert math.isfinite(est.c_required_lower_bound)
    # the surviving maxima of the deepest shells decrease, but they cannot
    # speak for the samples that were skipped there
    m1, m2, m3 = [m for _, m, _ in est.shell_trend][-3:]
    assert m1 >= m2 >= m3
    assert est.verdict == "inconclusive"


def test_scan_skips_before_the_last_three_shells_keep_the_trend_verdict():
    # the same scan with the deepest shells first: every skip falls in the
    # first three shells, and the verdict follows the trend again
    ball = Ball((0j, 0j), 1.0)
    plan = SamplingPlan(shells=tuple(2.0**-k for k in range(8, 0, -1)), points_per_shell=8, directions_per_point=4)
    est = normality_scan(parse("exp(10/(1-z1))*z2", 2), ball, plan)
    assert est.skipped > 0
    assert est.verdict == "bounded-consistent"


def test_scan_never_takes_the_per_sample_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("normality_scan called a single-point kernel")

    for module, name in [
        (metrics, "kobayashi_domain_bounds"),
        (metrics, "kobayashi_ball"),
        (domains, "boundary_distance"),
        (domains, "inscribed_ball"),
        (domains, "contains"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    # the shell at 1e-20 rounds onto the boundary, so its points are skipped
    plan = SamplingPlan(shells=(1e-20, 0.5, 0.25, 0.125), points_per_shell=4, directions_per_point=4)
    est = normality_scan(parse("z1*z2", 2), Polydisc((0j, 0j), (1.0, 2.0)), plan)
    assert len(est.samples) == 3 * 4 * 4
    assert est.skipped == 4 * 4
    assert est.errors[0] == "point ((1+0j), 0j): point is not interior to the domain"
    assert est.shell_trend[0][1:] == (0.0, 0.0)


def _scan_reference(f, domain, plan):
    """`normality_scan` one sample at a time: the scan's kernels on the
    points placed one (shell, ray) pair at a time, then a plain-Python walk
    over every point and direction that keeps, skips and counts."""
    center = np.asarray(domain.center, dtype=complex)
    rays = scan_rays(f.dimension, plan.points_per_shell, plan.seed)
    dirs = sphere_directions(f.dimension, plan.directions_per_point, plan.seed + 1)
    extents = [ray_extent(domain, tuple(u)) for u in rays]
    points = np.array([center + (1.0 - t) * extent * u for t in plan.shells for u, extent in zip(rays, extents)])
    jets = evaluate_batch(f, points)
    levi = metrics.levi_batch(jets.value, jets.gradient, dirs)
    distance = domains.boundary_distance_batch(domain, points)
    usable = (distance > 0) & (jets.status == OK)
    k_lower = np.full(levi.shape, math.nan)
    k_upper = np.full(levi.shape, math.nan)
    k_lower[usable], k_upper[usable] = kobayashi_domain_bounds_batch(domain, points[usable], dirs)
    with np.errstate(all="ignore"):
        ratio_lower = levi / (k_upper * k_upper)
        ratio_upper = levi / (k_lower * k_lower)

    samples, errors, trend, skipped_per_shell = [], [], [], []
    for shell_idx, t in enumerate(plan.shells):
        shell_max, shell_delta, shell_skipped = 0.0, math.inf, 0
        for i in range(shell_idx * len(rays), (shell_idx + 1) * len(rays)):
            p = tuple(points[i].tolist())
            if not distance[i] > 0:
                errors.append(f"point {p!r}: {domains.NOT_INTERIOR}")
                shell_skipped += len(dirs)
                continue
            shell_delta = min(shell_delta, float(distance[i]))
            if jets.status[i] != OK:
                errors.append(f"point {p!r}: {status_error(jets.status[i])}")
                shell_skipped += len(dirs)
                continue
            non_finite = 0
            for k, v in enumerate(dirs.tolist()):
                row = [float(a[i, k]) for a in (levi, k_lower, k_upper, ratio_lower, ratio_upper)]
                if not all(map(math.isfinite, row)):
                    non_finite += 1
                    continue
                samples.append((p, tuple(v), *row))
                shell_max = max(shell_max, row[3])
            if non_finite:
                errors.append(
                    f"point {p!r}: {non_finite} of {len(dirs)} directions skipped, {status_error(NONFINITE)}"
                )
                shell_skipped += non_finite
        trend.append((t, shell_max, shell_delta if math.isfinite(shell_delta) else 0.0))
        skipped_per_shell.append(shell_skipped)
    verdict = "inconclusive" if any(skipped_per_shell[-3:]) else metrics._trend_verdict([m for _, m, _ in trend])
    return {
        "samples": samples,
        "errors": tuple(errors),
        "skipped": sum(skipped_per_shell),
        "shell_trend": tuple(trend),
        "c_required_lower_bound": max((s[5] for s in samples), default=0.0),
        "verdict": verdict,
    }


@pytest.mark.parametrize(
    "source,dimension,domain,shells,skip",
    [
        # the shell at 1e-20 rounds onto the boundary: points that are not interior
        ("z1*z2", 2, Polydisc((0j, 0j), (1.0, 2.0)), (1e-20, 0.5, 0.25, 0.125), domains.NOT_INTERIOR),
        # directions whose Levi form or ratio is not finite
        ("exp(10/(1-z1))*z2", 2, Ball((0j, 0j), 1.0), tuple(2.0**-k for k in range(1, 9)), "directions skipped"),
        # points that fail to evaluate
        ("1/(z1-z1)", 1, UNIT_DISC, (0.5, 0.25, 0.125), "near-zero value"),
        # skips in the third shell from the end only, which still make the verdict inconclusive
        ("exp(10/(1-z1))*z2", 2, Ball((0j, 0j), 1.0), (0.5, 2.0**-7, 0.25, 0.125), "non-finite value"),
    ],
    ids=["not-interior", "non-finite", "evaluation-error", "skips-third-from-last"],
)
def test_scan_matches_the_per_sample_reference(source, dimension, domain, shells, skip):
    f = parse(source, dimension)
    plan = SamplingPlan(shells=shells, points_per_shell=8, directions_per_point=4, seed=3)
    est = normality_scan(f, domain, plan)
    expected = _scan_reference(f, domain, plan)
    assert expected["skipped"] > 0 and any(skip in message for message in expected["errors"])
    fields = ("point", "direction", "levi", "k_lower", "k_upper", "ratio_lower", "ratio_upper")
    assert est.samples.dtype.names == fields
    assert [(tuple(p), tuple(v), *rest) for p, v, *rest in est.samples.tolist()] == expected.pop("samples")
    for name, value in expected.items():
        assert getattr(est, name) == value, name
    assert type(est.c_required_lower_bound) is float and type(est.skipped) is int
    assert not est.samples.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        est.samples.levi[:] = 0.0
