import math
import random

import pytest

from normlab import (
    Ball,
    ExplicitScale,
    NormlabError,
    SequenceSpec,
    ZalcmanScale,
    convergence_report,
    explicit_rescale,
    limit_sharp_check,
    make_sequence,
    marty_bound,
    parse,
    remark_counterexample,
    rescale_sharp_identity_check,
    rescaled_function,
    sharp,
    thm2_verify,
    zalcman_rescale,
)
from normlab.errors import DomainError

UNIT_DISC = Ball((0j,), 1.0)


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


# --------------------------------------------------------------------------
# make_sequence
# --------------------------------------------------------------------------

def test_make_sequence_arithmetic():
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 10)
    p, r, delta = make_sequence(spec, UNIT_DISC, 4)
    assert p == (0.75 + 0j,)
    assert delta == pytest.approx(0.25)
    assert r == pytest.approx(1 / 16)
    assert r / delta == pytest.approx(0.25)


def test_make_sequence_ratio_decays_when_b_exceeds_a():
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 40)
    ratios = []
    for j in (10, 20, 40):
        _, r, delta = make_sequence(spec, UNIT_DISC, j)
        ratios.append(r / delta)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] == pytest.approx(1 / 40)


def test_make_sequence_remark_ratio_diverges():
    # z_n = 1 - n^-3 with rho_n = n^-2: rho_n/delta_n = n
    spec = _disc_spec(1.0, 3.0, ExplicitScale(1.0, 2.0), 1, 10)
    for n in (2, 5, 10):
        _, r, delta = make_sequence(spec, UNIT_DISC, n)
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
        make_sequence(spec, UNIT_DISC, 2)


# --------------------------------------------------------------------------
# rescaled_function and the sharp identity
# --------------------------------------------------------------------------

def test_rescaled_function_trivial():
    f = parse("sin(z1)", 1)
    g = rescaled_function(f, (0j,), 1.0)
    zeta = (0.3 + 0.2j,)
    assert pytest.approx(abs(sharp(g, zeta).value)) == sharp(f, zeta).value


def test_rescaled_sharp_at_zero():
    f = parse("z1^2", 1)
    center, rho = (0.5 + 0j,), 0.1
    g = rescaled_function(f, center, rho)
    assert sharp(g, (0j,)).value == pytest.approx(rho * sharp(f, center).value)


def test_sharp_identity_square():
    points = [(complex(0.1 * k, 0.05 * k),) for k in range(-10, 10)]
    dev = rescale_sharp_identity_check(parse("z1^2", 1), (0.5 + 0j,), 0.1, points)
    assert dev <= 1e-10


def test_sharp_identity_constant_vacuous():
    points = [(0.2 + 0.1j,), (0j,)]
    assert rescale_sharp_identity_check(parse("7", 1), (0j,), 0.5, points) == 0.0


def test_sharp_identity_zalcman_normalized_center():
    f = parse("sin(1/(1-z1))", 1)
    z5 = (complex(1 - 1 / (10 * math.pi)),)
    rho = 1.0 / sharp(f, z5).value
    points = [(complex(0.2 * math.cos(t), 0.2 * math.sin(t)),) for t in range(10)]
    assert rescale_sharp_identity_check(f, z5, rho, points) <= 1e-10
    g = rescaled_function(f, z5, rho)
    assert sharp(g, (0j,)).value == pytest.approx(1.0, abs=1e-10)


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
            assert rescale_sharp_identity_check(f, center, rho, points) <= 1e-10


# --------------------------------------------------------------------------
# zalcman_rescale
# --------------------------------------------------------------------------

def test_zalcman_run_on_nonnormal_function():
    f = parse("sin(1/(1-z1))", 1)
    spec = _disc_spec(1 / (2 * math.pi), 1.0, ZalcmanScale(), 1, 20)
    run = zalcman_rescale(f, UNIT_DISC, spec)
    assert not run.hypothesis_flags
    for e in run.entries:
        expected_rho = 1.0 / (2 * math.pi * e.j) ** 2
        assert e.rho_j == pytest.approx(expected_rho, rel=1e-6)
        assert e.ratio == pytest.approx(1.0 / (2 * math.pi * e.j), rel=1e-6)
        # normalization: sharp(g_j, 0) = 1
        assert sharp(e.g_j, (0j,)).value == pytest.approx(1.0, abs=1e-10)


def test_zalcman_flags_nondecreasing_rho():
    # f = z has sharp = 1/(1+|z|^2), so rho_j = 1+|z_j|^2 grows toward 2
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ZalcmanScale(), 2, 20)
    run = zalcman_rescale(f, UNIT_DISC, spec)
    assert "rho-not-decreasing" in run.hypothesis_flags
    assert run.entries[-1].rho_j == pytest.approx(1 + (1 - 1 / 20) ** 2)


def test_zalcman_vanishing_sharp_errors():
    spec = _disc_spec(1.0, 1.0, ZalcmanScale(), 2, 5)
    with pytest.raises(NormlabError):
        zalcman_rescale(parse("4", 1), UNIT_DISC, spec)


# --------------------------------------------------------------------------
# convergence_report
# --------------------------------------------------------------------------

def test_convergence_remark_run_constant_limit():
    report = remark_counterexample(40, 1.0).convergence
    assert report.verdict == "constant-limit"
    # osc_n = rho_n * R = n^-2 exactly on a grid containing |zeta| = 1
    for n, osc in zip(report.indices, report.osc):
        assert osc == pytest.approx(float(n) ** -2, abs=1e-12)


def test_convergence_zalcman_sin_nonconstant_limit():
    f = parse("sin(1/(1-z1))", 1)
    spec = _disc_spec(1 / (2 * math.pi), 1.0, ZalcmanScale(), 2, 30)
    run = zalcman_rescale(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 64, 1e-3)
    assert report.verdict == "nonconstant-limit"
    # limit is sin(zeta): oscillation stays near sup |sin| on the unit disc
    assert report.osc[-1] == pytest.approx(math.sinh(1.0), abs=0.05)


def test_convergence_constant_function():
    f = parse("5", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 10)
    run = explicit_rescale(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 32, 1e-3)
    assert report.verdict == "constant-limit"
    assert all(o == 0.0 for o in report.osc)
    assert all(gap == 0.0 for gap in report.cauchy_gaps)


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
    run = explicit_rescale(parse("1/z1", 1), UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 32, 1e-3)
    assert report.excluded == (2,)
    assert report.indices == (3, 4, 5, 6)


def test_constant_limit_osc_nonincreasing_after_first_quartile():
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 50)
    report = thm2_verify(f, UNIT_DISC, spec, 1.0, 1e-3)
    assert report.verdict == "constant-limit"
    start = len(report.osc) // 4
    tail = report.osc[start:]
    assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))


# --------------------------------------------------------------------------
# limit_sharp_check
# --------------------------------------------------------------------------

def test_limit_sharp_check_on_sin_limit():
    f = parse("sin(1/(1-z1))", 1)
    spec = _disc_spec(1 / (2 * math.pi), 1.0, ZalcmanScale(), 2, 30)
    run = zalcman_rescale(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 64, 1e-3)
    profile = limit_sharp_check(report, 64, 1e-2)
    assert not profile.vacuous
    assert profile.sharp_at_zero == pytest.approx(1.0, abs=1e-2)
    assert profile.max_sharp <= 1.0 + 1e-6
    assert profile.passed


def test_limit_sharp_check_vacuous_on_constant_limit():
    report = remark_counterexample(40, 1.0).convergence
    profile = limit_sharp_check(report, 32, 1e-2)
    assert profile.vacuous
    assert profile.passed is None


def test_sharp_profile_not_normalized_proxy():
    # proxy 2*zeta has sharp(0) = 2: fails the normalization check
    f = parse("2*z1", 1)
    spec = _disc_spec(0.5, 1.0, ZalcmanScale(), 2, 4)
    run = zalcman_rescale(f, UNIT_DISC, spec)
    assert sharp(parse("2*z1", 1), (0j,)).value == 2.0
    assert all(sharp(e.g_j, (0j,)).value == pytest.approx(1.0) for e in run.entries)


# --------------------------------------------------------------------------
# thm2_verify
# --------------------------------------------------------------------------

def test_thm2_identity_function_constant_limit():
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 50)
    report = thm2_verify(f, UNIT_DISC, spec, 1.0, 1e-3)
    assert report.verdict == "constant-limit"
    assert not report.hypothesis_flags
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
    report = thm2_verify(f, UNIT_DISC, spec, 1.0, 1e-3)
    assert report.verdict == "nonconstant-limit"


def test_thm2_hypothesis_flag_on_large_ratio():
    f = parse("z1", 1)
    # b < a: ratio r_j/delta_j grows
    spec = _disc_spec(1.0, 2.0, ExplicitScale(1.0, 1.0), 2, 10)
    run = explicit_rescale(f, UNIT_DISC, spec)
    assert "ratio-not-decreasing" in run.hypothesis_flags


def test_marty_bound_chain_identity_function():
    # normal f = z on the disc admits C = 1; the rescaled sharp obeys the bound
    f = parse("z1", 1)
    spec = _disc_spec(1.0, 1.0, ExplicitScale(1.0, 2.0), 2, 30)
    run = explicit_rescale(f, UNIT_DISC, spec)
    report = convergence_report(run, 1.0, 48, 1e-3)
    for e in run.entries:
        for zeta in report.grid:
            lhs = sharp(e.g_j, zeta).value
            rhs = marty_bound(1.0, e.rho_j, e.delta_j, abs(zeta[0]))
            assert lhs <= rhs + 1e-8


# --------------------------------------------------------------------------
# remark_counterexample
# --------------------------------------------------------------------------

def test_remark_ratios_exact():
    report = remark_counterexample(10, 1.0)
    assert report.ratios == tuple(float(n) for n in range(1, 11))


def test_remark_sup_dev_bound():
    report = remark_counterexample(10, 1.0)
    n = 5
    assert report.sup_dev[n - 1] <= 5**-3 + 5**-2 + 1e-12
    assert report.sup_dev[n - 1] == pytest.approx(5**-3 + 5**-2, abs=1e-12)


def test_remark_monotone_and_verdict():
    report = remark_counterexample(40, 1.0)
    assert all(b < a for a, b in zip(report.sup_dev[2:], report.sup_dev[3:]))
    assert all(b > a for a, b in zip(report.ratios, report.ratios[1:]))
    assert report.verdict == "constant-limit-with-divergent-ratio"


def test_remark_requires_min_index():
    with pytest.raises(ValueError):
        remark_counterexample(2, 1.0)
