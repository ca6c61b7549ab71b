import math
import random

import numpy as np
import pytest

from normlab import (
    Ball,
    DimensionMismatchError,
    DomainError,
    Polydisc,
    boundary_distance,
    circumscribed_ball,
    contains,
    inscribed_ball,
)
from normlab.domains import boundary_distance_batch, ray_extent


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
        if contains(domain, p):
            return p


def test_contains_basics():
    assert contains(UNIT_DISC, (0j,))
    assert not contains(UNIT_DISC, (1 + 0j,))  # strict interior
    assert contains(POLY, (0.5 + 0j, 1.5 + 0j))
    assert not contains(POLY, (0.5 + 0j, 2 + 0j))


def test_boundary_distance_values():
    assert boundary_distance(UNIT_BALL2, (0j, 0j)) == 1.0
    assert boundary_distance(UNIT_DISC, (0.5 + 0j,)) == 0.5
    assert boundary_distance(POLY, (0.5 + 0j, 0j)) == 0.5


def test_boundary_distance_outside_raises():
    with pytest.raises(DomainError):
        boundary_distance(UNIT_DISC, (2 + 0j,))


@pytest.mark.parametrize("domain", [UNIT_BALL2, POLY])
def test_boundary_distance_batch_flags_points_not_interior(domain):
    points = [(0.5 + 0j, 0.25j), (3 + 0j, 0j), (1 + 0j, 0j), (complex("nan"), 0j), (0j, 0j)]
    distance = boundary_distance_batch(domain, points)
    assert (distance > 0).tolist() == [True, False, False, False, True]
    assert (distance > 0).tolist() == [contains(domain, p) for p in points]
    for p, d in zip(points, distance):
        if d > 0:
            assert d == boundary_distance(domain, p)
        else:
            with pytest.raises(DomainError):
                boundary_distance(domain, p)
    with pytest.raises(DimensionMismatchError):
        boundary_distance_batch(domain, [(0j,)])
    with pytest.raises(DimensionMismatchError):
        boundary_distance(domain, (0j, 0j, 0j))


def test_inscribed_ball_values():
    ball = inscribed_ball(UNIT_DISC, (0.5 + 0j,))
    assert ball.center == (0.5 + 0j,)
    assert ball.radius == 0.5
    assert inscribed_ball(UNIT_BALL2, (0j, 0j)).radius == 1.0


@pytest.mark.parametrize("domain", [UNIT_DISC, UNIT_BALL2, POLY])
def test_inscribed_ball_membership_sampling(domain):
    rng = random.Random(7)
    p = _random_interior(rng, domain)
    ball = inscribed_ball(domain, p)
    for _ in range(1000):
        q = _random_interior(rng, ball)
        assert contains(domain, q)


def test_circumscribed_ball_values():
    assert circumscribed_ball(UNIT_DISC) == UNIT_DISC
    big = circumscribed_ball(Polydisc((0j, 0j), (1.0, 1.0)))
    assert big.radius == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("domain", [UNIT_BALL2, POLY])
def test_circumscribed_ball_membership_sampling(domain):
    rng = random.Random(11)
    big = circumscribed_ball(domain)
    for _ in range(1000):
        p = _random_interior(rng, domain)
        assert contains(big, p)


@pytest.mark.parametrize("domain", [UNIT_DISC, UNIT_BALL2, POLY])
def test_boundary_distance_lipschitz_along_segments(domain):
    rng = random.Random(13)
    for _ in range(200):
        p = _random_interior(rng, domain)
        q = _random_interior(rng, domain)
        dist = float(np.linalg.norm(np.asarray(p) - np.asarray(q)))
        assert abs(boundary_distance(domain, p) - boundary_distance(domain, q)) <= dist + 1e-12


@pytest.mark.parametrize("domain", [UNIT_DISC, UNIT_BALL2, POLY])
def test_boundary_distance_vanishes_at_boundary(domain):
    rng = random.Random(17)
    n = domain.dimension
    for _ in range(50):
        u = np.array(
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        )
        t = ray_extent(domain, tuple(u))
        for eps in (1e-3, 1e-6, 1e-9):
            p = tuple(np.asarray(domain.center) + (1 - eps) * t * u)
            assert boundary_distance(domain, p) <= 3 * eps * t * float(np.linalg.norm(u))


def test_invalid_domains_rejected():
    with pytest.raises(DomainError):
        Ball((0j,), 0.0)
    with pytest.raises(DomainError):
        Polydisc((0j, 0j), (1.0, -1.0))
    with pytest.raises(DomainError):
        Polydisc((0j,), (1.0, 1.0))
