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
    circumscribed_ball,
)
from normlab.domains import ray_extent


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
        assert boundary_distance_batch(big, [p])[0] > 0


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
    for _ in range(50):
        u = np.array(
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        )
        t = ray_extent(domain, tuple(u))
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


def test_huge_polydisc_has_no_circumscribed_ball():
    # sqrt(sum r_k^2) overflows: a scan there would compare against an infinite ball
    with pytest.raises(DomainError, match="finite"):
        circumscribed_ball(Polydisc((0j, 0j), (1e200, 1e200)))
