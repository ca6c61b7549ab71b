import math
import random

import numpy as np
import pytest

from normlab import (
    Ball,
    DimensionMismatchError,
    DomainError,
    Polydisc,
    boundary_distance_batch,
)
from normlab.domains import ray_extent_batch, row_norms


UNIT_DISC = Ball((0j,), 1.0)
UNIT_BALL2 = Ball((0j, 0j), 1.0)
POLY = Polydisc((0j, 0j), (1.0, 2.0))


def _random_interior(rng, domain):
    # rejection sampling inside the bounding box of the domain
    n = domain.dimension
    if isinstance(domain, Ball):
        radii = [domain.radius] * n
    else:
        radii = list(domain.radii)
    while True:
        p = tuple(
            complex(domain.center[k])
            + complex(rng.uniform(-radii[k], radii[k]), rng.uniform(-radii[k], radii[k]))
            for k in range(n)
        )
        if boundary_distance_batch(domain, [p])[0] > 0:
            return p


def test_contains_basics():
    assert (boundary_distance_batch(UNIT_DISC, [(0j,), (1 + 0j,)]) > 0).tolist() == [True, False]  # strict interior
    assert (boundary_distance_batch(POLY, [(0.5 + 0j, 1.5 + 0j), (0.5 + 0j, 2 + 0j)]) > 0).tolist() == [True, False]


def test_boundary_distance_values():
    assert boundary_distance_batch(UNIT_BALL2, [(0j, 0j)])[0] == 1.0
    assert boundary_distance_batch(UNIT_DISC, [(0.5 + 0j,)])[0] == 0.5
    assert boundary_distance_batch(POLY, [(0.5 + 0j, 0j)])[0] == 0.5


@pytest.mark.parametrize("domain", [UNIT_BALL2, POLY])
def test_boundary_distance_batch_flags_points_not_interior(domain):
    points = [(0.5 + 0j, 0.25j), (3 + 0j, 0j), (1 + 0j, 0j), (complex("nan"), 0j), (0j, 0j)]
    distance = boundary_distance_batch(domain, points)
    assert (distance > 0).tolist() == [True, False, False, False, True]
    # each row as it reads alone
    single = [boundary_distance_batch(domain, [p])[0] for p in points]
    assert np.array_equal(single, distance, equal_nan=True)
    with pytest.raises(DimensionMismatchError):
        boundary_distance_batch(domain, [(0j,)])
    with pytest.raises(DimensionMismatchError):
        boundary_distance_batch(domain, [(0j, 0j, 0j)])


@pytest.mark.parametrize("domain", [UNIT_DISC, UNIT_BALL2, POLY])
def test_inscribed_ball_membership_sampling(domain):
    rng = random.Random(7)
    # the inscribed ball at p: its radius is the boundary distance, as in the upper Kobayashi bound
    p = _random_interior(rng, domain)
    ball = Ball(p, boundary_distance_batch(domain, [p])[0])
    for _ in range(1000):
        q = _random_interior(rng, ball)
        assert boundary_distance_batch(domain, [q])[0] > 0


@pytest.mark.parametrize("domain", [UNIT_DISC, UNIT_BALL2, POLY])
def test_boundary_distance_lipschitz_along_segments(domain):
    rng = random.Random(13)
    for _ in range(200):
        p = _random_interior(rng, domain)
        q = _random_interior(rng, domain)
        dist = float(np.linalg.norm(np.asarray(p) - np.asarray(q)))
        d_p, d_q = boundary_distance_batch(domain, [p, q])
        assert abs(d_p - d_q) <= dist + 1e-12


@pytest.mark.parametrize("domain", [UNIT_DISC, UNIT_BALL2, POLY])
def test_boundary_distance_vanishes_at_boundary(domain):
    rng = random.Random(17)
    n = domain.dimension
    rays = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(50)])
    for u, t in zip(rays, ray_extent_batch(domain, rays)):
        for eps in (1e-3, 1e-6, 1e-9):
            p = tuple(np.asarray(domain.center) + (1 - eps) * t * u)
            assert 0 < boundary_distance_batch(domain, [p])[0] <= 3 * eps * t * float(np.linalg.norm(u))


def test_invalid_domains_rejected():
    with pytest.raises(DomainError):
        Ball((0j,), 0.0)
    with pytest.raises(DomainError):
        Polydisc((0j, 0j), (1.0, -1.0))
    with pytest.raises(DomainError):
        Polydisc((0j,), (1.0, 1.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Ball((0j,), math.inf),
        lambda: Ball((0j,), math.nan),
        lambda: Polydisc((0j,), (math.nan,)),
        lambda: Polydisc((0j, 0j), (1.0, math.inf)),
        lambda: Ball((complex(math.nan),), 1.0),
        lambda: Polydisc((0j, complex(0.0, math.inf)), (1.0, 1.0)),
    ],
    ids=["ball-inf-radius", "ball-nan-radius", "polydisc-nan-radius", "polydisc-inf-radius",
         "ball-nan-center", "polydisc-inf-center"],
)
def test_non_finite_domain_parameters_rejected(make):
    # nan fails every comparison, so a test of the sign alone passes it
    with pytest.raises(DomainError, match="finite"):
        make()


def _strided(rng, count, n):
    """(count, n) complex rows as a row-major array, an (n, count) array's
    transpose and every other column of a wider array."""
    gauss = lambda *shape: rng.normal(size=shape) * np.exp(rng.uniform(-20, 20, shape))  # noqa: E731
    yield gauss(count, n) + 1j * gauss(count, n)
    yield (gauss(n, count) + 1j * gauss(n, count)).T
    yield (gauss(count, 2 * n) + 1j * gauss(count, 2 * n))[:, ::2]


@pytest.mark.parametrize("n", range(1, 10))
def test_row_norms_are_the_norm_of_each_row_alone(n):
    # the column-by-column fold is np.hypot.reduce along each row, bit for bit
    rng = np.random.default_rng(n)
    for rows in _strided(rng, 2000, n):
        norms = row_norms(rows)
        assert norms.tobytes() == np.hypot.reduce(np.abs(rows), axis=1).tobytes()
        want = np.linalg.norm(rows, axis=1)
        assert np.all(np.abs(norms - want) <= 1e-15 * want)
        # rows past 1e154, where a sum of squares overflows, scale exactly
        assert (row_norms(rows * 2.0**600) / 2.0**600).tobytes() == norms.tobytes()
    # moduli from subnormal to near the largest float, and zeros
    magnitudes = np.abs(rng.standard_normal((500, n))) * 10.0 ** rng.integers(-320, 308, (500, n))
    magnitudes[rng.random((500, n)) < 0.1] = 0.0
    norms = row_norms(magnitudes)
    assert norms.tobytes() == np.hypot.reduce(magnitudes, axis=1).tobytes()
    # a sum of squares overflows past about 1e154 and loses digits below
    # about 1e-154; the fold stays finite, and agrees between
    with np.errstate(over="ignore", under="ignore"):
        squaring = np.linalg.norm(magnitudes, axis=1)
    assert np.isfinite(norms).all() and not np.isfinite(squaring).all()
    fair = np.isfinite(squaring) & (squaring > 1e-150)
    assert np.all(np.abs(norms[fair] - squaring[fair]) <= 1e-15 * squaring[fair])


def _ray_extent(domain, direction):
    """sup{t > 0 : center + t*direction inside the domain} for one ray, the
    reference for the batch."""
    mags = np.abs(np.asarray(direction, dtype=complex))
    norm = float(np.hypot.reduce(mags))
    if norm == 0:
        raise ValueError("direction must be nonzero")
    if isinstance(domain, Ball):
        return domain.radius / norm
    with np.errstate(divide="ignore"):
        return float(np.min(np.where(mags > 0, np.asarray(domain.radii) / mags, np.inf)))


@pytest.mark.parametrize("n", range(1, 10))
def test_ray_extent_batch_matches_one_ray_at_a_time(n):
    rng = np.random.default_rng(100 + n)
    center = tuple(complex(*rng.normal(size=2)) for _ in range(n))
    for domain in (Ball(center, 1.7), Polydisc(center, tuple(rng.uniform(0.1, 3.0, n)))):
        for rays in _strided(rng, 200, n):
            rays[:5, : n - 1] = 0.0  # rays along the last axis, and a polydisc's infinite quotients
            assert ray_extent_batch(domain, rays).tolist() == [_ray_extent(domain, u) for u in rays]
        with pytest.raises(ValueError, match="nonzero"):
            ray_extent_batch(domain, [(1 + 0j,) * n, (0j,) * n])
