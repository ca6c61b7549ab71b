"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import dataclasses
import math
import random

import numpy as np

from normlab import (
    Ball,
    ExplicitScale,
    SamplingPlan,
    SequenceSpec,
    ZalcmanScale,
    affine_pullback,
    convergence_report,
    evaluate_batch,
    kobayashi_batch,
    limit_sharp_check,
    normality_scan,
    parse,
    rescaling_run,
    sharp_batch,
    sharp_fd,
)
from normlab.metrics import levi_root_batch
from test_metrics import _cauchy_schwarz
from test_rescaling import _rescale_sharp_identity_check

UNIT_DISC = Ball((0j,), 1.0)


def _report(number: int, label: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def _points(rng, dim, scale, count=50):
    return [
        tuple(
            complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            for _ in range(dim)
        )
        for _ in range(count)
    ]


def test_criterion_1_sharp_oracle_agreement():
    # 12 functions x 50 points: closed form vs the fd oracle's top Hessian
    # eigenvalue at h=1e-4, in one to three dimensions.
    suite = [
        ("z1", 1, 0.9),
        ("z1^2", 1, 0.9),
        ("z1^3 - 2*z1 + 1", 1, 0.9),
        ("exp(z1)", 1, 0.9),
        ("sin(z1)", 1, 0.9),
        ("cos(z1)*z1", 1, 0.9),
        ("sin(1/(1-z1))", 1, 0.5),
        ("z1*z2", 2, 0.4),
        ("z1^2*z2", 2, 0.4),
        ("exp(z1+z2)", 2, 0.4),
        ("exp(z1)*z2^2+z3", 3, 0.4),
        ("z1*z2*z3+sin(z2-z3)", 3, 0.4),
    ]
    rng = random.Random(12345)
    ok = True
    for source, dim, scale in suite:
        f = parse(source, dim)
        z = _points(rng, dim, scale)
        s = sharp_batch(f, z)
        oracle = sharp_fd(f, z, 1e-4)
        if np.any(np.abs(s - oracle) > 1e-3 * (1.0 + s)):
            ok = False
    _report(1, "sharp closed form vs fd oracle, 12 functions x 50 points", ok)


def test_criterion_2_kobayashi_checks():
    rng = random.Random(777)
    ok = True
    # center value |v|/delta, exact to machine precision
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        center = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        radius = rng.uniform(0.2, 3.0)
        ball = Ball(center, radius)
        v = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n))
        if all(c == 0 for c in v):
            continue
        vnorm = math.sqrt(sum(abs(c) ** 2 for c in v))
        at_center = kobayashi_batch(ball, [center], [v])[0, 0]
        if not math.isclose(at_center, vnorm / radius, rel_tol=1e-15):
            ok = False
    # the ball metric <= its Cauchy-Schwarz upper bound on 1e4 random (z, v): zero violations
    violations = 0
    for _ in range(10_000):
        n = rng.choice([2, 3])
        ball = Ball(tuple([0j] * n), rng.uniform(0.5, 2.0))
        t = rng.uniform(0, 0.99)
        direction = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        dnorm = math.sqrt(sum(abs(c) ** 2 for c in direction))
        z = tuple(t * ball.radius * c / dnorm for c in direction)
        v = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n))
        if kobayashi_batch(ball, [z], [v]) > _cauchy_schwarz(ball, [z], [v]):
            violations += 1
    ok = ok and violations == 0
    # concentric monotonicity: zero violations
    mono_violations = 0
    for _ in range(10_000):
        n = rng.choice([1, 2])
        c = tuple(complex(rng.uniform(-0.2, 0.2), 0) for _ in range(n))
        r1 = rng.uniform(0.3, 1.0)
        r2 = r1 + rng.uniform(0.1, 1.0)
        small, big = Ball(c, r1), Ball(c, r2)
        t = rng.uniform(0, 0.99)
        direction = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        dnorm = math.sqrt(sum(abs(x) ** 2 for x in direction))
        z = tuple(a + t * r1 * x / dnorm for a, x in zip(c, direction))
        v = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n))
        if kobayashi_batch(big, [z], [v]) > kobayashi_batch(small, [z], [v]):
            mono_violations += 1
    ok = ok and mono_violations == 0
    _report(2, "Kobayashi center value, upper bound, concentric monotonicity", ok)


def test_criterion_3_rescaling_identity():
    rng = random.Random(31415)
    sources = [("z1^2", 1), ("exp(z1)", 1), ("sin(z1)+z1^3", 1), ("z1*z2", 2), ("exp(z1*z2)", 2)]
    worst = 0.0
    for source, dim in sources:
        f = parse(source, dim)
        for _ in range(10):
            center = tuple(
                complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) for _ in range(dim)
            )
            rho = rng.uniform(0.05, 0.6)
            points = _points(rng, dim, 0.8, count=8)
            worst = max(worst, _rescale_sharp_identity_check(f, center, rho, points))
    _report(3, f"rescaling sharp identity, max rel deviation {worst:.3e} <= 1e-10", worst <= 1e-10)


def test_criterion_4_thm2_desk_scale():
    f = parse("z1", 1)
    spec = SequenceSpec(
        anchor=(1 + 0j,),
        inward=(-1 + 0j,),
        c_p=1.0,
        a=1.0,
        scale=ExplicitScale(1.0, 2.0),
        j_start=2,
        j_end=50,
    )
    run = rescaling_run(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 64, 1e-3)
    ok = report.verdict == "constant-limit"
    for j, osc in zip(report.indices, report.osc):
        if abs(osc - float(j) ** -2) > 1e-12:
            ok = False
    # Marty chain with C = 1 at every grid point and index: sharp(g_j) is at
    # most rho delta / (delta^2 - (rho |zeta|)^2), and rho_j = j^-2 < delta_j = 1/j
    for e in run.entries:
        g_j = affine_pullback(f, e.z_j, e.rho_j)
        bound = e.rho_j * e.delta_j / (e.delta_j**2 - (e.rho_j * np.abs(report.grid[:, 0])) ** 2)
        if np.any(sharp_batch(g_j, report.grid) > bound + 1e-8):
            ok = False
    _report(4, "f=z constant-limit run: osc_j = j^-2, Marty chain with C=1", ok)


def test_criterion_5_remark_counterexample():
    # the paper's Remark as an explicit run: f(z) = z on the unit disc, with
    # z_n = 1 - n^-3 and rho_n = n^-2, so g_n(zeta) = 1 - n^-3 + n^-2 zeta
    f = parse("z1", 1)
    spec = SequenceSpec(
        anchor=(1 + 0j,),
        inward=(-1 + 0j,),
        c_p=1.0,
        a=3.0,
        scale=ExplicitScale(1.0, 2.0),
        j_start=1,
        j_end=50,
    )
    run = rescaling_run(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 64, 1e-3)
    # rho_n / delta_n = n, up to the rounding of 1 - n^-3
    ok = np.allclose(run.entries.ratio, run.entries.j, rtol=1e-10, atol=0)
    for e in run.entries:
        values = evaluate_batch(f, e.z_j + e.rho_j * report.grid, gradient=False).value
        if np.max(np.abs(values - 1.0)) > float(e.j) ** -3 + float(e.j) ** -2 * report.radius + 1e-12:
            ok = False
    ok = ok and report.verdict == "constant-limit"
    ok = ok and run.hypothesis_flags == ("ratio-not-decreasing", "final-ratio-not-small")
    _report(5, "linear counterexample: ratio = n, constant limit, both ratio flags raised", ok)


def test_criterion_6_nonnormality_witness():
    f = parse("sin(1/(1-z1))", 1)
    spec = SequenceSpec(
        anchor=(1 + 0j,),
        inward=(-1 + 0j,),
        c_p=1 / (2 * math.pi),
        a=1.0,
        scale=ZalcmanScale(),
        j_start=2,
        j_end=30,
    )
    run = rescaling_run(f, UNIT_DISC, spec)
    ok = not run.hypothesis_flags
    # normalization rho_j * (2 pi j)^2 -> 1
    for e in run.entries:
        if e.j >= 5 and not (0.95 <= e.rho_j * (2 * math.pi * e.j) ** 2 <= 1.05):
            ok = False
    report = convergence_report(run, 1.0, 64, 1e-3)
    ok = ok and report.verdict == "nonconstant-limit"
    # sup-gaps decay like 1/j: consecutive ratios average within [0.4, 0.9]
    gaps = report.cauchy_gaps
    ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 0]
    avg = sum(ratios) / len(ratios)
    ok = ok and 0.4 <= avg <= 0.9
    profile = limit_sharp_check(report, 1e-2)
    ok = ok and abs(profile.sharp_at_zero - 1.0) <= 1e-2
    ok = ok and profile.max_sharp <= 1.0 + 1e-6
    shells = tuple(1.0 / (2 * math.pi * j) for j in (1, 2, 4, 8, 16, 32))
    plan = SamplingPlan(shells=shells, points_per_shell=4, directions_per_point=4, seed=0)
    est = normality_scan(f, UNIT_DISC, plan)
    ok = ok and est.verdict == "divergent"
    _report(6, "sin(1/(1-z)) witness: blow-up to sin, normalized limit, divergent scan", ok)


def test_criterion_7_property_suite():
    rng = random.Random(2718)
    ok = True
    f2 = parse("exp(z1)*z2", 2)
    for _ in range(50):
        z = _points(rng, 2, 0.6, count=1)[0]
        v = _points(rng, 2, 1.0, count=1)[0]
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        jet = evaluate_batch(f2, [z]).check()
        levi, scaled = levi_root_batch(jet.value, jet.gradient, np.array([v, [lam * c for c in v]]))[0] ** 2
        if levi < 0:
            ok = False
        if abs(scaled - abs(lam) ** 2 * levi) > 1e-12 * max(1.0, abs(levi)):
            ok = False
    base = "z1^2+sin(z1)"
    f1 = parse(base, 1)
    for theta in (0.7, 2.1, 5.5):
        g = parse(f"exp({theta}*i)*({base})", 1)
        z = _points(rng, 1, 0.7, count=10)
        for a, b in zip(sharp_batch(f1, z), sharp_batch(g, z)):
            if abs(a - b) > 1e-12 * max(1.0, a):
                ok = False
    recip = parse(f"1/({base}+2)", 1)
    f1s = parse(f"{base}+2", 1)
    z = _points(rng, 1, 0.5, count=20)
    for a, b in zip(sharp_batch(f1s, z), sharp_batch(recip, z)):
        if abs(a - b) > 1e-10 * max(1.0, a):
            ok = False
    # deterministic reproducibility under a fixed seed
    plan = SamplingPlan(shells=(0.5, 0.25, 0.125), points_per_shell=4, directions_per_point=4, seed=3)
    est_a = normality_scan(f1, UNIT_DISC, plan)
    est_b = normality_scan(f1, UNIT_DISC, plan)
    # the samples byte for byte (at least as strict as == on finite floats)
    ok = ok and est_a.samples.dtype == est_b.samples.dtype
    ok = ok and est_a.samples.tobytes() == est_b.samples.tobytes()
    ok = ok and all(
        getattr(est_a, k.name) == getattr(est_b, k.name) for k in dataclasses.fields(est_a) if k.name != "samples"
    )
    spec = SequenceSpec(
        anchor=(1 + 0j,), inward=(-1 + 0j,), c_p=1.0, a=1.0,
        scale=ExplicitScale(1.0, 2.0), j_start=2, j_end=20,
    )
    run = rescaling_run(parse("z1", 1), UNIT_DISC, spec)
    rep_a = convergence_report(run, 1.0, 32, 1e-3)
    rep_b = convergence_report(run, 1.0, 32, 1e-3)
    # the report's arrays byte for byte, its other fields by ==
    arrays = ("grid", "osc", "cauchy_gaps")
    ok = ok and all(getattr(rep_a, name).tobytes() == getattr(rep_b, name).tobytes() for name in arrays)
    ok = ok and all(
        getattr(rep_a, k.name) == getattr(rep_b, k.name) for k in dataclasses.fields(rep_a) if k.name not in arrays
    )
    _report(7, "Levi positivity/homogeneity, sharp invariances, reproducibility", ok)
