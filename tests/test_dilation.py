"""Dilation covariance, bit for bit.

The condition Levi <= C K^2 does not change under the dilation z -> t z, and
for t = 2^k a dilation is exact in binary floating point.  So f on D and
f(./t) on tD must give bit-identical scan ratios, verdicts and constants, and
bit-identical rescaling ratios, oscillations and Cauchy gaps: Levi scales by
t^-2, K by t^-1 and rho by t, each exactly.  A kernel change that loses this
covariance (a norm that squares its coordinates in another order, say) fails
here.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import (
    Ball,
    ExplicitScale,
    NormlabError,
    Polydisc,
    SamplingPlan,
    SequenceSpec,
    ZalcmanScale,
    convergence_report,
    normality_scan,
    parse,
    rescaling_run,
)
from normlab.domains import ray_extent_batch
from normlab.expr import BinOp, Const, HoloExpr, Var, _substitute
from test_expr import _random_expr


def _dilated(f, t):
    """f(./t): each z_k replaced by (1/t)*z_k.  Not `affine_pullback`, whose
    0 + turns a -0.0 into 0.0, which can move a log across its cut."""
    image = {k: BinOp("*", Const(complex(1.0 / t)), Var(k)) for k in range(1, f.dimension + 1)}
    return HoloExpr(f.dimension, _substitute(f.root, image))


@st.composite
def _problems(draw, max_k):
    """A random expression, a ball or polydisc of that dimension, and a
    dilation t = 2^k with |k| <= max_k."""
    seed, dim = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 3))
    rng = random.Random(seed)
    f = parse(_random_expr(rng, dim), dim)
    center = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim))
    if draw(st.booleans()):
        domain = Ball(center, rng.uniform(0.5, 2.0))
    else:
        domain = Polydisc(center, tuple(rng.uniform(0.5, 2.0) for _ in range(dim)))
    return f, domain, 2.0 ** draw(st.integers(-max_k, max_k)), rng


def _dilate_domain(domain, t):
    center = tuple(t * c for c in domain.center)
    if isinstance(domain, Ball):
        return Ball(center, t * domain.radius)
    return Polydisc(center, tuple(t * r for r in domain.radii))


def _assert_same_scan(est, image):
    assert est.samples.ratio_lower.tobytes() == image.samples.ratio_lower.tobytes()
    assert est.samples.ratio_upper.tobytes() == image.samples.ratio_upper.tobytes()
    assert est.verdict == image.verdict
    assert est.skipped == image.skipped
    assert est.c_required_lower_bound == image.c_required_lower_bound


@settings(max_examples=100, deadline=None)
@given(_problems(60), st.integers(0, 100))
def test_scan_is_dilation_covariant_bit_for_bit(problem, plan_seed):
    """Up to |k| = 60 only: the Levi forms of random expressions overflow or
    underflow well inside the double range (ROADMAP items 8 and 9)."""
    f, domain, t, _ = problem
    plan = SamplingPlan(tuple(2.0**-k for k in range(1, 9)), 16, 8, plan_seed)
    est, image = normality_scan(f, domain, plan), normality_scan(_dilated(f, t), _dilate_domain(domain, t), plan)
    _assert_same_scan(est, image)


@pytest.mark.parametrize("k", [498, -498])
@pytest.mark.parametrize("domain", [Ball((0j, 0j), 1.0), Polydisc((0j, 0j), (1.0, 1.0))], ids=["ball", "polydisc"])
def test_scan_is_dilation_covariant_near_the_float_range(domain, k):
    """At t = 2^-498 the inscribed ball's metric |v| / delta passes 1.3e154 in
    the deepest shells.  A ratio that squared it read levi / inf = 0 there,
    kept as a finite sample, and three zero maxima read bounded-consistent
    whatever the function."""
    f, t = parse("exp(0.5*z1-0.3*z2)*z1+z2^2", 2), 2.0**k
    plan = SamplingPlan(tuple(2.0**-j for j in range(1, 25)), 8, 4, 3)
    est, image = normality_scan(f, domain, plan), normality_scan(_dilated(f, t), _dilate_domain(domain, t), plan)
    assert est.skipped == 0 and len(est.samples) == 24 * 8 * 4
    _assert_same_scan(est, image)
    assert [m for _, m, _ in image.shell_trend] == [m for _, m, _ in est.shell_trend]
    assert min(m for _, m, _ in image.shell_trend) > 0.0


def _outcome(f, domain, spec, radius, grid_size):
    """The deterministic part of a run and its report, or the error class."""
    try:
        run = rescaling_run(f, domain, spec)
        report = convergence_report(run, radius, grid_size, 1e-3)
    except NormlabError as exc:
        return type(exc)
    return (
        run.entries.ratio.tobytes(), report.osc.tobytes(), report.cauchy_gaps.tobytes(),
        report.verdict, run.hypothesis_flags, report.indices, report.excluded,
    )


@settings(max_examples=100, deadline=None)
@given(_problems(900), st.booleans())
def test_rescaling_runs_are_dilation_covariant_bit_for_bit(problem, zalcman):
    """Up to |k| = 900, where centers and radii are still normal doubles and
    |z_j| and delta(z_j) square past the float range."""
    f, domain, t, rng = problem
    # centers march in from the boundary point along a random ray through the center
    u = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(domain.dimension)])
    u /= np.linalg.norm(u)
    extent = float(ray_extent_batch(domain, [u])[0])
    anchor = tuple(np.asarray(domain.center) + extent * u)
    c_p, a, c_r, b = extent * rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0), rng.uniform(0.5, 3.0)
    j_start = rng.randint(1, 5)
    radius, grid_size = rng.uniform(0.5, 2.0), rng.choice([8, 16, 32])

    def spec(s):
        scale = ZalcmanScale() if zalcman else ExplicitScale(s * c_r, b)
        return SequenceSpec(tuple(s * x for x in anchor), tuple(-u), s * c_p, a, scale, j_start, j_start + 20)

    expected = _outcome(f, domain, spec(1.0), radius, grid_size)
    assert _outcome(_dilated(f, t), _dilate_domain(domain, t), spec(t), radius, grid_size) == expected
