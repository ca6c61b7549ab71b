import functools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab import (
    Ball,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    Polydisc,
    SamplingPlan,
    boundary_distance_batch,
    kobayashi_batch,
    levi_form_fd,
    log1p_sq_field,
    normality_scan,
    parse,
    sharp_batch,
    sharp_fd,
    sphere_directions,
)
from normlab import domains, metrics
from normlab.expr import NONFINITE, OK, BinOp, Const, HoloExpr, Var, _substitute, evaluate_batch, status_error
from normlab.sampling import scan_rays
from test_domains import _ray_extent
from test_expr import _random_expr
from test_rescaling import _counting

UNIT_DISC = Ball((0j,), 1.0)


# --------------------------------------------------------------------------
# Levi form: finite differences vs closed form
# --------------------------------------------------------------------------

def test_levi_fd_quadratic_field_exact():
    # |z|^2 has constant Levi form 1 along unit directions
    field = lambda z: abs(z[..., 0]) ** 2
    for z in (0j, 0.3 + 0.4j, -0.7j):
        assert levi_form_fd(field, (z,), (1 + 0j,), 1e-4) == pytest.approx(1.0, abs=1e-6)


def test_levi_fd_constant_field_zero():
    assert levi_form_fd(lambda z: np.full(z.shape[:-1], 2.5), (0.1 + 0.2j,), (1 + 0j,), 1e-4) == 0.0


def test_levi_fd_rejects_a_step_that_is_not_positive():
    field = lambda z: abs(z[..., 0]) ** 2
    for h in (0.0, -1e-4):
        with pytest.raises(ValueError, match="^h must be positive$"):
            levi_form_fd(field, (0j,), (1 + 0j,), h)


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
    jet = evaluate_batch(parse("3+2*i", 1), [(0.5 + 0.5j,)]).check()
    assert (metrics.levi_root_batch(jet.value, jet.gradient, np.array([[1 + 0j]])) ** 2).tolist() == [[0.0]]


def test_levi_closed_identity_function():
    jet = evaluate_batch(parse("z1", 1), [(0j,)]).check()
    assert (metrics.levi_root_batch(jet.value, jet.gradient, np.array([[1 + 0j]])) ** 2).tolist() == [[1.0]]


def test_levi_closed_vs_fd_square():
    f = parse("z1^2", 1)
    jet = evaluate_batch(f, [(1 + 0j,)]).check()
    closed = (metrics.levi_root_batch(jet.value, jet.gradient, np.array([[1 + 0j]])) ** 2)[0, 0]
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
        jet = evaluate_batch(f, [z]).check()
        closed = (metrics.levi_root_batch(jet.value, jet.gradient, np.array([v])) ** 2)[0, 0]
        fd = levi_form_fd(log1p_sq_field(f), z, v, 1e-4 * (1 + max(abs(c) for c in z)))
        assert abs(closed - fd) <= 1e-5 * (1 + closed)


# The benchmark's span test and trace still call these two one-point forms
# (ROADMAP item 1); until they go, each is its batch kernel on one point.
def test_perfbench_fixtures_are_the_batch_kernels_of_one_point():
    from normlab.expr import evaluate_jet

    f = parse("exp(z1)*z2 + 1/z1", 2)
    z, v = (0.3 - 0.2j, 0.5 + 0.1j), (1.0 - 0.5j, 0.25j)
    batch = evaluate_batch(f, [z]).check()
    jet = evaluate_jet(f, z)
    assert (jet.value.tobytes(), jet.gradient.tobytes()) == (batch.value.tobytes(), batch.gradient.tobytes())
    root = metrics.levi_root_batch(batch.value, batch.gradient, np.array([v]))
    assert metrics.levi_log1p_closed(f, z, v) == (root**2)[0, 0]
    for single in (lambda: evaluate_jet(f, (0j, 1 + 0j)), lambda: metrics.levi_log1p_closed(f, (0j, 1 + 0j), v)):
        with pytest.raises(EvaluationError, match="^division or negative power of a near-zero value$"):
            single()


# --------------------------------------------------------------------------
# Sharp function and its oracle
# --------------------------------------------------------------------------

def test_sharp_identity_function_origin():
    assert sharp_batch(parse("z1", 1), [(0j,)])[0] == 1.0


def test_sharp_constant_zero_everywhere():
    f = parse("5", 1)
    assert sharp_batch(f, [(0j,), (0.5 + 0.5j,)]).tolist() == [0.0, 0.0]


def test_sharp_product_value_confirmed_by_oracle():
    # closed form |grad|/(1+|f|^2) = sqrt(2)/2 at (1,1); the fd oracle agrees
    f = parse("z1*z2", 2)
    s = sharp_batch(f, [(1 + 0j, 1 + 0j)])[0]
    assert s == pytest.approx(math.sqrt(2) / 2)
    oracle = sharp_fd(f, [(1 + 0j, 1 + 0j)], 1e-4)[0]
    assert abs(s - oracle) <= 1e-3 * (1 + s)


def test_sharp_and_levi_do_not_overflow():
    # |exp(400)|^2 is past the float range; sharp = e^400 / (1 + e^800) is not
    f = parse("exp(z1)", 1)
    z = (400 + 0j,)
    assert sharp_batch(f, [z])[0] == pytest.approx(math.exp(-400.0), rel=1e-12)
    jet = evaluate_batch(f, [(300 + 0j,)]).check()
    assert (metrics.levi_root_batch(jet.value, jet.gradient, np.array([[1 + 0j]])) ** 2)[0, 0] == pytest.approx(
        math.exp(-600.0), rel=1e-12
    )
    assert log1p_sq_field(f)(z) == pytest.approx(800.0, rel=1e-15)
    assert math.isfinite(sharp_fd(f, [z], 1e-4)[0])


def test_sharp_fd_identity_function():
    oracle = sharp_fd(parse("z1", 1), [(0j,)], 1e-4)
    assert oracle == pytest.approx([1.0], abs=1e-4)


def test_sharp_fd_constant_zero():
    assert sharp_fd(parse("2", 1), [(0.1 + 0.1j,)], 1e-4).tolist() == [0.0]


def _point_major_sharp_fd(f, z, sphere_samples, h, seed=0):
    """The oracle as it stood before the Hessian: the five-point stencil taken
    along every sampled direction, its arms laid out point by point, (P, m, n),
    both logs taken everywhere, and the max over the directions; a lower
    bound on the supremum that `sharp_fd` reads."""

    def field(w):
        value = evaluate_batch(f, w.reshape(-1, f.dimension), gradient=False).check().value
        square = value.real * value.real + value.imag * value.imag
        out = np.where(np.isfinite(square), np.log1p(square), 2.0 * np.log(np.abs(value)))
        return out.reshape(w.shape[:-1])

    v = sphere_directions(f.dimension, sphere_samples, seed)
    z = np.asarray(z, dtype=complex)[..., None, :]
    with np.errstate(all="ignore"):
        stencil = field(z + h * v) + field(z - h * v) + field(z + 1j * h * v) + field(z - 1j * h * v) - 4.0 * field(z)
        peak = np.max(stencil / (4.0 * h * h), axis=-1)
    return np.sqrt(np.where(peak > 0.0, peak, 0.0))


def test_sharp_fd_over_points_is_one_stencil_pass(monkeypatch):
    f = parse("exp(0.3*z1)*z2+z3^2", 3)
    rng = np.random.default_rng(5)
    points = 0.4 * (rng.random((16, 3)) - 0.5 + 1j * (rng.random((16, 3)) - 0.5))
    sampled = _point_major_sharp_fd(f, points, 64, 1e-4, seed=2)
    rows = _counting(monkeypatch, metrics, "evaluate_batch")
    directions = _counting(monkeypatch, metrics, "sphere_directions")
    oracle = sharp_fd(f, points, 1e-4)
    # no direction set; one field call over the four arms along the n^2
    # probes of every point, and the centres
    assert directions == []
    assert [len(args[1]) for args in rows] == [16 * (4 * 3**2 + 1)]
    assert oracle.shape == (16,)
    assert np.all(sampled**2 - oracle**2 <= 1e-5 * (1 + sampled**2))
    assert sharp_fd(f, points[3:4], 1e-4).tolist() == oracle[3:4].tolist()


@settings(max_examples=60, deadline=None)
@example(tree_seed=2118, n=1, seed=2118)  # z1 + (2 e^2)^2: a sharp of 3e-4 under rounding noise
@given(tree_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_sharp_fd_matches_the_point_major_stencil(tree_seed, n, seed):
    # The sampled max of the per-direction stencil is a lower bound on the
    # top eigenvalue of the polarized Hessian, up to the stencils' O(h^2)
    # error.  They are compared on the Levi scale, sharp^2, where the
    # rounding error (about eps |F| / h^2) adds: at a flat point the sharp
    # reads its square root, up to 1e-4 at h = 1e-4, in either.
    f = parse(_random_expr(random.Random(tree_seed), n), n)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1, 1, (4, n)) + 1j * rng.uniform(-1, 1, (4, n))
    sampled = _point_major_sharp_fd(f, points, 32, 1e-4, seed)
    got = sharp_fd(f, points, 1e-4)
    assert np.all(sampled**2 - got**2 <= 1e-5 * (1 + sampled**2))


def _linear(coefficients) -> str:
    return "+".join(f"({c.real!r}+{c.imag!r}*i)*z{k}" for k, c in enumerate(map(complex, coefficients), 1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_sharp_fd_reads_the_closed_form_in_every_dimension(n, seed):
    # lambda_max of the fd Hessian is the supremum over directions itself, so
    # the oracle meets the closed form to the stencil's O(h^2) error in every
    # dimension.  |b_k| >= 0.5 > |0.25 a_k cos(a.z)| keeps the gradient of
    # f = b.z + 0.25 sin(a.z) off 0 on the box, and the sharp above 0.01,
    # where the stencil's rounding would read its square root.
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
    b = rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
    f = parse(f"{_linear(b)}+0.25*sin({_linear(a)})", n)
    points = rng.uniform(-0.5, 0.5, (8, n)) + 1j * rng.uniform(-0.5, 0.5, (8, n))
    s = sharp_batch(f, points)
    assert np.all(np.abs(sharp_fd(f, points, 1e-4) - s) <= 1e-5 * (1 + s))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polarized_hessian_of_a_hermitian_quadratic_is_exact(n):
    # F(z) = Re(z^T A conj(z)) has d^2 F / dz_j dz-bar_k = A_jk everywhere,
    # and the five-point stencil is exact on it up to rounding
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a + a.conj().T
    field = lambda z: np.einsum("...j,jk,...k->...", z, a, z.conj()).real
    z = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    hessian = metrics._polarize(levi_form_fd(field, z[:, None, :], metrics._probes(n), 1e-3), n)
    assert hessian.shape == (5, n, n)
    assert np.max(np.abs(hessian - a)) <= 1e-8 * np.max(np.abs(a))


@pytest.mark.parametrize("n", range(1, 10))
def test_hypot_fold_matches_hypot_reduce(n):
    # sharp_batch takes |grad f| as domains.row_norms' hypot fold, the bits of
    # np.hypot.reduce along each row (tests/test_domains.py pins the fold)
    rng = np.random.default_rng(n)
    f = parse("+".join(f"{k}.5*z{k}^2" for k in range(1, n + 1)), n)
    points = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    jets = evaluate_batch(f, points)
    want = metrics._over_one_plus_square(np.hypot.reduce(np.abs(jets.gradient), axis=1), np.abs(jets.value))
    assert metrics.sharp_batch(f, points).tobytes() == want.tobytes()


def test_sharp_fd_rejects_a_non_finite_stencil():
    # 4 h^2 underflows to 0: the stencil is 0/0, which max(0, nan) once hid;
    # 4 h^2 overflows to inf: the stencil is x/inf, which once read a sharp of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="not finite"):
            sharp_fd(parse("z1^2", 1), [(0.5 + 0j,)], 1e-200)
        with pytest.raises(EvaluationError, match="not finite at h = 1e[+]200"):
            sharp_fd(parse("z1", 1), [(0.1 + 0j,)], 1e200)
        # 4 h^2 is subnormal but positive, so the stencil runs, and its
        # Hessian overflows: the last check refuses it
        with pytest.raises(EvaluationError, match="^finite-difference Levi form is not finite at h = 1e-160$"):
            sharp_fd(parse("exp(1e155*z1)", 1), [(0j,)], 1e-160)


def test_sharp_fd_reads_a_sharp_whose_square_is_past_the_float_range():
    # every entry of H is finite, but its top eigenvalue, 5 a^2, is not: H is
    # scaled by a power of four before eigvalsh and the root scaled back
    f = parse("7.017038286703722e+153*(z1+z2+z3+z4+z5)", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fd = sharp_fd(f, np.zeros((1, 5)), 3.665241237079671e-155)
    exact = math.sqrt(5.0) * 7.017038286703722e153  # |grad f| / (1 + |f|^2) at 0
    assert exact * exact == math.inf
    # a*h = 0.26 is no small step, and 4 h^2 is subnormal: the stencil is
    # only roughly right, but finite
    assert np.isfinite(fd).all() and abs(fd[0] - exact) <= 0.1 * exact


def test_sharp_fd_takes_a_point_array_only():
    f = parse("z1*z2", 2)
    for points in ((0.1j, 0.2), [(0.1j,)], [[(0.1j, 0.2)]]):  # one point, a short row, an extra axis
        with pytest.raises(DimensionMismatchError):
            sharp_fd(f, points, 1e-4)


def test_hermitian_homogeneity():
    rng = random.Random(31)
    f = parse("exp(z1)*z2", 2)
    for _ in range(25):
        z = _random_point(rng, 2)
        v = _random_point(rng, 2, 1.0)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        jet = evaluate_batch(f, [z]).check()
        lhs, levi = metrics.levi_root_batch(jet.value, jet.gradient, np.array([[lam * c for c in v], v]))[0] ** 2
        rhs = abs(lam) ** 2 * levi
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_levi_nonnegative():
    rng = random.Random(37)
    for source, dim in _SUITE:
        f = parse(source, dim)
        pairs = [(_random_point(rng, dim, 0.5), _random_point(rng, dim, 1.0)) for _ in range(10)]
        jets = evaluate_batch(f, [z for z, _ in pairs]).check()
        # every point along every direction, the ten drawn pairs among them
        assert (metrics.levi_root_batch(jets.value, jets.gradient, np.array([v for _, v in pairs])) >= 0.0).all()


def test_unimodular_invariance():
    rng = random.Random(41)
    base = "z1^2+sin(z1)"
    f = parse(base, 1)
    for theta in (0.3, 1.1, 2.9, 4.4):
        g = parse(f"exp({theta}*i)*({base})", 1)
        z = [_random_point(rng, 1) for _ in range(10)]
        for a, b in zip(sharp_batch(f, z), sharp_batch(g, z)):
            assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_reciprocal_invariance():
    rng = random.Random(43)
    cases = [("exp(z1)", 1), ("1+z1^2", 1), ("2+z1*z2", 2)]
    for base, dim in cases:
        f = parse(base, dim)
        g = parse(f"1/({base})", dim)
        z = [_random_point(rng, dim, 0.5) for _ in range(20)]
        for a, b in zip(sharp_batch(f, z), sharp_batch(g, z)):
            assert abs(a - b) <= 1e-10 * max(1.0, a)


@settings(max_examples=200, deadline=None)
@example(seed=1119638, dim=2)  # a tree constant after cancellation: 0 on f, 2.7e-17 on f o U
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 3))
def test_sharp_unitary_invariance(seed, dim):
    # (f o U)(z) = f(Uz) and |grad (f o U)(z)| = |U^T grad f(Uz)| = |grad f(Uz)|
    rng = np.random.default_rng(seed)
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    f = parse(_random_expr(random.Random(seed), dim), dim)
    image = {  # z_k -> (U z)_k
        k + 1: functools.reduce(functools.partial(BinOp, "+"), [BinOp("*", Const(complex(u)), Var(j + 1)) for j, u in enumerate(row)])
        for k, row in enumerate(unitary)
    }
    f_u = HoloExpr(dim, _substitute(f.root, image))
    z = rng.uniform(-1, 1, (6, dim)) + 1j * rng.uniform(-1, 1, (6, dim))
    a, b = sharp_batch(f_u, z), sharp_batch(f, z @ unitary.T)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(a, b) + 1e-15)


# --------------------------------------------------------------------------
# Kobayashi metric
# --------------------------------------------------------------------------

def _cauchy_schwarz(ball, points, directions):
    """The Cauchy-Schwarz upper bound d |v| / (d^2 - |w|^2) on the ball's
    `kobayashi_batch`, with its arguments and shape (N, m), by its float
    operations; equal to it in one variable and whenever w is parallel to v."""
    w = np.asarray(points, dtype=complex) - np.asarray(ball.center, dtype=complex)
    v = np.asarray(directions, dtype=complex)
    slack = ball.radius**2 - np.hypot.reduce(np.abs(w), axis=1) ** 2
    return ball.radius * np.sqrt(np.hypot.reduce(np.abs(v), axis=1) ** 2) / slack[:, None]


def _sandwich(domain, points, directions):
    """(lower, upper) bounds on the Kobayashi metric of the domain at interior
    points along directions, each (N, m): the exact metric, and above it,
    since inclusion decreases the metric, that of the inscribed ball at each
    point, of radius its boundary distance delta, at its own center: |v| / delta."""
    points = np.asarray(points, dtype=complex)
    lower = kobayashi_batch(domain, points, directions)
    delta = boundary_distance_batch(domain, points)
    upper = domains.row_norms(np.asarray(directions, dtype=complex)) / delta[:, None]
    return lower, upper


def test_kobayashi_at_center():
    ball, center, v = Ball((0j, 0j), 0.7), [(0j, 0j)], [(0.6 + 0j, 0.8j)]
    assert kobayashi_batch(ball, center, v)[0, 0] == pytest.approx(1.0 / 0.7)
    assert _cauchy_schwarz(ball, center, v)[0, 0] == pytest.approx(1.0 / 0.7)


def test_kobayashi_unit_disc_values():
    # the unit disc as a ball and as a polydisc of one factor
    for disc in (UNIT_DISC, Polydisc((0j,), (1.0,))):
        assert kobayashi_batch(disc, [(0.5 + 0j,)], [(1 + 0j,)])[0, 0] == pytest.approx(4 / 3)
    assert _cauchy_schwarz(UNIT_DISC, [(0.5 + 0j,)], [(1 + 0j,)])[0, 0] == pytest.approx(4 / 3)


def test_kobayashi_unit_ball_orthogonal_direction():
    value = kobayashi_batch(Ball((0j, 0j), 1.0), [(0.5 + 0j, 0j)], [(0j, 1 + 0j)])[0, 0]
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
        assert kobayashi_batch(ball, [z], [v]) <= _cauchy_schwarz(ball, [z], [v])


def test_concentric_ball_monotonicity():
    rng = random.Random(53)
    c = (0.05 + 0j, -0.05j)
    small, big = Ball(c, 0.8), Ball(c, 1.5)
    for _ in range(500):
        z = _random_in_ball(rng, small)
        v = _random_point(rng, 2, 1.0)
        if all(c_ == 0 for c_ in v):
            continue
        assert kobayashi_batch(big, [z], [v]) <= kobayashi_batch(small, [z], [v])


def test_domain_bounds_unit_disc():
    lower, upper = _sandwich(UNIT_DISC, [(0.5 + 0j,)], [(1 + 0j,)])
    assert upper[0, 0] == pytest.approx(2.0)  # inscribed Ball(0.5, 0.5) at its center
    assert lower[0, 0] == pytest.approx(4 / 3)
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
        lower, upper = _sandwich(poly, [p], [v])
        assert lower <= upper


def _kobayashi_reference(center, radius, z, v):
    """The ball's Kobayashi metric in plain Python, the reference for the kernel."""
    w = [a - c for a, c in zip(z, center)]
    slack = radius**2 - sum(abs(x) ** 2 for x in w)
    pairing = sum(a * b.conjugate() for a, b in zip(w, v))
    return math.sqrt(slack * sum(abs(x) ** 2 for x in v) + abs(pairing) ** 2) / slack


def _polydisc_reference(center, radii, z, v):
    """The polydisc's Kobayashi metric in plain Python, the largest of its
    factor discs' metrics |v_k| r_k / (r_k^2 - |w_k|^2), the reference for
    the kernel."""
    return max(abs(b) * r / (r**2 - abs(a - c) ** 2) for a, b, c, r in zip(z, v, center, radii))


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
        extent = _ray_extent(domain, u)
        points.append(tuple(c + t * extent * x for c, x in zip(domain.center, u)))
    dirs = [_unit(rng, dim) for _ in range(5)]
    lower, upper = _sandwich(domain, points, dirs)
    assert lower.shape == upper.shape == (len(points), len(dirs))
    for i, (p, t) in enumerate(zip(points, fractions)):
        delta = boundary_distance_batch(domain, [p])[0]
        for j, v in enumerate(dirs):
            lo, up = (bound[0, 0] for bound in _sandwich(domain, [p], [v]))
            assert lower[i, j] == pytest.approx(lo, rel=1e-12)
            assert upper[i, j] == pytest.approx(up, rel=1e-12)
            assert lo <= up
            assert up == pytest.approx(_kobayashi_reference(p, delta, p, v), rel=1e-12)
            if t < 0.999:  # nearer the boundary the references lose digits to d^2 - |w|^2
                if isinstance(domain, Ball):
                    exact = _kobayashi_reference(domain.center, domain.radius, p, v)
                else:
                    exact = _polydisc_reference(domain.center, domain.radii, p, v)
                assert lo == pytest.approx(exact, rel=1e-12)


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
        expected = kobayashi_batch(ball, [center + w], [v])[0, 0]
        mapped = kobayashi_batch(image, [image_center + unitary @ w], [unitary @ v])[0, 0]
        assert mapped == pytest.approx(expected, rel=1e-12)


def _ball_automorphism(a, z, v):
    """phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>), the automorphism of
    the unit ball that swaps a and 0 (Rudin, Function Theory in the Unit Ball
    of C^n, 2.2.1), and dphi_a(z) v = L v / D + N <v, a> / D^2, with N and D
    the numerator and denominator and L = -P_a - s_a Q_a the linear part of N;
    row by row over (N, n) arrays, a != 0."""
    inner = lambda x, y: np.sum(x * np.conj(y), axis=1, keepdims=True)  # noqa: E731
    a_sq = inner(a, a).real
    s_a = np.sqrt(1.0 - a_sq)

    def linear(x):
        along = inner(x, a) / a_sq * a  # P_a x
        return -along - s_a * (x - along)

    numerator, denominator = a + linear(z), 1.0 - inner(z, a)
    return numerator / denominator, linear(v) / denominator + numerator * inner(v, a) / denominator**2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kobayashi_ball_automorphism_invariance(n):
    # the automorphisms of the unit ball are isometries of its Kobayashi
    # metric; unlike the unitary test, this compares the kernel at two points
    rng = np.random.default_rng(61 + n)
    gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731

    def in_ball(count):
        x = gauss(count, n)
        return x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.01, 0.95, (count, 1))

    a, z, v = in_ball(1000), in_ball(1000), gauss(1000, n)
    image, push = _ball_automorphism(a, z, v)
    h = 1e-6  # the closed-form derivative against central differences
    fd = (_ball_automorphism(a, z + h * v, v)[0] - _ball_automorphism(a, z - h * v, v)[0]) / (2 * h)
    assert np.all(np.linalg.norm(fd - push, axis=1) <= 1e-6 * np.linalg.norm(push, axis=1))
    ball = Ball((0j,) * n, 1.0)
    metric = lambda w, u: np.array([kobayashi_batch(ball, [p], [d])[0, 0] for p, d in zip(w, u)])  # noqa: E731
    before, after = metric(z, v), metric(image, push)
    assert np.all(np.abs(after - before) <= 1e-12 * before)


def test_kobayashi_kernels_reject_zero_directions_and_exterior_points():
    inside, outside, zero, e1 = (0.5 + 0j, 0j), (3 + 0j, 0j), (0j, 0j), (1 + 0j, 0j)
    for domain, kind in ((Ball((0j, 0j), 1.0), "ball"), (Polydisc((0j, 0j), (1.0, 1.0)), "polydisc")):
        with pytest.raises(ValueError):
            kobayashi_batch(domain, [inside], [zero])
        with pytest.raises(DomainError, match=f"not strictly inside the {kind}$"):
            kobayashi_batch(domain, [outside], [e1])
        with pytest.raises(DomainError):
            kobayashi_batch(domain, [e1], [e1])  # on the boundary
        with pytest.raises(DomainError):
            kobayashi_batch(domain, [(complex("nan"), 0j)], [e1])
        with pytest.raises(ValueError):
            kobayashi_batch(domain, [inside], [e1, zero])
        with pytest.raises(DomainError):
            kobayashi_batch(domain, [inside, outside], [e1])
        with pytest.raises(DimensionMismatchError):
            kobayashi_batch(domain, [(0j,)], [e1])  # a point would broadcast against the center


@pytest.mark.parametrize(
    "radius,message",
    [
        (1e200, "ball radius 1e+200 squares past the largest finite float"),
        (1e-170, "ball radius 1e-170 squares below the smallest positive float"),
        (5e-324, "ball radius 5e-324 squares below the smallest positive float"),
    ],
    ids=["overflow", "underflow", "least-subnormal"],
)
def test_kobayashi_ball_radius_squares_inside_the_float_range(radius, message):
    # d^2 is the one square of a length the scan takes; an underflowing one
    # blamed the points ("not strictly inside"), and the kernel checks it even
    # when no point is left to measure
    for points in ([(0j, 0j)], np.zeros((0, 2))):
        with pytest.raises(DomainError) as info:
            kobayashi_batch(Ball((0j, 0j), radius), points, [(1 + 0j, 0j)])
        assert str(info.value) == message
    at_center = kobayashi_batch(Ball((0j, 0j), 1e154), [(0j, 0j)], [(1 + 0j, 0j)])[0, 0]
    assert at_center == pytest.approx(1e-154, rel=1e-15)


@pytest.mark.parametrize(
    "radii,message",
    [
        ((1e308, 1.0), "polydisc radius 1e+308 squares past the largest finite float"),
        ((1e-170, 1e-200), "polydisc radius 1e-170 squares below the smallest positive float"),
    ],
    ids=["overflow", "underflow"],
)
def test_kobayashi_polydisc_largest_radius_squares_inside_the_float_range(radii, message):
    # the polydisc's metric squares no length, but the Levi form it meets is
    # an inverse length squared: that of z1*z2 reads exactly 0.0 at
    # (5e-171, 5e-171).  Only the largest radius is checked, so a subnormal
    # factor beside a radius of 1 is measured, its metric past the float range.
    for points in ([(0j, 0j)], np.zeros((0, 2))):
        with pytest.raises(DomainError) as info:
            kobayashi_batch(Polydisc((0j, 0j), radii), points, [(1 + 0j, 0j)])
        assert str(info.value) == message
    metric = kobayashi_batch(Polydisc((0j, 0j), (1.0, 1e-320)), [(0.5 + 0j, 0j)], [(1 + 0j, 0j), (0j, 1 + 0j)])
    assert metric[0, 0] == pytest.approx(4 / 3) and metric[0, 1] == math.inf


def _random_polydisc_problem(rng, dim, count):
    """A random polydisc, `count` points inside it at fractions up to 0.9 of
    each factor radius, and `count` directions, as numpy arrays."""
    gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731
    center, radii = gauss(dim), rng.uniform(0.1, 3.0, dim)
    unit = np.exp(2j * np.pi * rng.random((count, dim)))
    points = center + unit * radii * rng.uniform(0.0, 0.9, (count, dim))
    return Polydisc(tuple(center), tuple(radii)), points, gauss(count, dim)


def _disc_automorphism(a, phase, zeta):
    """phi(zeta) = phase (zeta - a) / (1 - conj(a) zeta), |a| < 1 = |phase|, an
    automorphism of the unit disc, and its derivative
    phase (1 - |a|^2) / (1 - conj(a) zeta)^2."""
    denominator = 1.0 - np.conj(a) * zeta
    return phase * (zeta - a) / denominator, phase * (1.0 - np.abs(a) ** 2) / denominator**2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4))
def test_kobayashi_polydisc_automorphism_invariance(seed, dim):
    # a product of disc automorphisms, psi_k(z) = c_k + r_k phi_k((z_k - c_k) / r_k),
    # maps the polydisc onto itself and preserves its metric: K(psi(z); dpsi(z) v) = K(z; v)
    rng = np.random.default_rng(seed)
    poly, points, v = _random_polydisc_problem(rng, dim, 200)
    center, radii = np.asarray(poly.center), np.asarray(poly.radii)
    a = np.exp(2j * np.pi * rng.random(dim)) * rng.uniform(0.0, 0.9, dim)
    phase = np.exp(2j * np.pi * rng.random(dim))
    image, slope = _disc_automorphism(a, phase, (points - center) / radii)
    before = np.diagonal(kobayashi_batch(poly, points, v))
    after = np.diagonal(kobayashi_batch(poly, center + radii * image, slope * v))
    assert np.all(np.abs(after - before) <= 1e-12 * before)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4))
def test_kobayashi_polydisc_matches_the_reference_inside_its_sandwich(seed, dim):
    # the plain-Python product formula, and inclusion: the polydisc lies
    # inside the ball about its center of radius |r| and holds the ball of
    # radius delta about each point, so its metric lies between theirs
    rng = np.random.default_rng(seed)
    poly, points, v = _random_polydisc_problem(rng, dim, 50)
    metric = kobayashi_batch(poly, points, v)
    outer = kobayashi_batch(Ball(poly.center, float(np.linalg.norm(poly.radii))), points, v)
    inner = domains.row_norms(v) / boundary_distance_batch(poly, points)[:, None]
    assert np.all(outer <= metric * (1 + 1e-12)) and np.all(metric <= inner * (1 + 1e-12))
    for i, z in enumerate(points.tolist()):
        for j, d in enumerate(v.tolist()):
            assert metric[i, j] == pytest.approx(_polydisc_reference(poly.center, poly.radii, z, d), rel=1e-12)


# --------------------------------------------------------------------------
# Normality scan
# --------------------------------------------------------------------------

_PLAN = SamplingPlan(shells=(0.5, 0.25, 0.125, 0.0625), points_per_shell=8, directions_per_point=8, seed=0)


def test_sampling_plan_rejects_shells_outside_the_unit_interval_and_empty_counts():
    with pytest.raises(ValueError, match=r"^shells must be fractions in \(0, 1\]$"):
        SamplingPlan((0.0,), 2, 1)
    for points, directions in ((0, 1), (2, 0)):
        with pytest.raises(ValueError, match="^points and directions per shell must be positive$"):
            SamplingPlan((0.5,), points, directions)


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


# Every shell reuses the same rays from the center, and on the ball a
# non-normal function blows up only along a complex-tangential approach to the
# boundary: past about 2^-7 the ray nearest e_1 (0.091 rad off it) sees no
# growth, and the deepest shells' maxima fall like the boundary distance.
@pytest.mark.xfail(strict=True, reason="ray scans miss the tangential blow-up on the ball (ROADMAP item 14)")
def test_deep_ball_scan_does_not_read_a_non_normal_function_as_bounded():
    plan = SamplingPlan(shells=tuple(2.0**-k for k in range(1, 17)), points_per_shell=64, directions_per_point=2)
    est = normality_scan(parse("sin(0.5821/(1-z1))*z2", 2), Ball((0j, 0j), 1.0), plan)
    assert est.verdict != "bounded-consistent", est.c_required_lower_bound


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
    # one pass of each geometry kernel over the whole scan, none per ray or point
    counts = {
        name: _counting(monkeypatch, module, name)
        for module, name in [(domains, "ray_extent_batch"), (domains, "boundary_distance_batch"),
                             (metrics, "kobayashi_batch")]
    }
    # the shell at 1e-20 rounds onto the boundary, so its points are skipped
    plan = SamplingPlan(shells=(1e-20, 0.5, 0.25, 0.125), points_per_shell=4, directions_per_point=4)
    est = normality_scan(parse("z1*z2", 2), Polydisc((0j, 0j), (1.0, 2.0)), plan)
    assert {name: len(calls) for name, calls in counts.items()} == {
        "ray_extent_batch": 1, "boundary_distance_batch": 1, "kobayashi_batch": 1,
    }
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
    extents = [_ray_extent(domain, tuple(u)) for u in rays]
    points = np.array([center + (1.0 - t) * extent * u for t in plan.shells for u, extent in zip(rays, extents)])
    jets = evaluate_batch(f, points)
    root = metrics.levi_root_batch(jets.value, jets.gradient, dirs)
    distance = domains.boundary_distance_batch(domain, points)
    usable = (distance > 0) & (jets.status == OK)
    k_lower = np.full(root.shape, math.nan)
    k_upper = np.full(root.shape, math.nan)
    k_lower[usable], k_upper[usable] = _sandwich(domain, points[usable], dirs)
    with np.errstate(all="ignore"):
        levi = root * root
        ratio_lower = (root / k_upper) ** 2
        ratio_upper = (root / k_lower) ** 2

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
