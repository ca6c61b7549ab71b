"""End-to-end non-normality evidence for f(z) = sin(1/(1-z)) on the unit disc.

Centers z_j = 1 - 1/(2 pi j) march toward the boundary point 1; the scales
rho_j = 1/sharp(f, z_j) ~ 1/(2 pi j)^2 shrink much faster than the boundary
distance.  The rescaled functions g_j(zeta) = f(z_j + rho_j zeta) converge to
sin(zeta): a non-constant entire limit with sharp value 1 at the origin,
which certifies non-normality.  A shell scan of Levi/Kobayashi ratios shows
why: no finite constant dominates the ratio near the boundary.
"""

import math

from normlab import (
    Ball,
    SamplingPlan,
    SequenceSpec,
    ZalcmanScale,
    convergence_report,
    limit_sharp_check,
    normality_scan,
    parse,
    rescaling_run,
)


def main():
    f = parse("sin(1/(1-z1))", 1)
    disc = Ball((0j,), 1.0)
    spec = SequenceSpec(
        anchor=(1 + 0j,),
        inward=(-1 + 0j,),
        c_p=1 / (2 * math.pi),
        a=1.0,
        scale=ZalcmanScale(),  # rho_j = 1/sharp(f, z_j), so sharp(g_j)(0) = 1
        j_start=2,
        j_end=30,
    )
    run = rescaling_run(f, disc, spec)
    print(f"{'j':>3} {'delta_j':>10} {'rho_j':>12} {'rho/delta':>10}")
    for e in run.entries[::4]:
        print(f"{e.j:>3} {e.delta_j:10.6f} {e.rho_j:12.3e} {e.ratio:10.5f}")

    report = convergence_report(run, radius=1.0, grid_size=64, tol=1e-3)
    print(f"\nconvergence verdict: {report.verdict}")
    print(f"final oscillation: {report.osc[-1]:.4f} (sup|sin| on the unit disc is sinh 1 = {math.sinh(1):.4f})")
    print(f"final Cauchy gap:  {report.cauchy_gaps[-1]:.2e}")

    profile = limit_sharp_check(report, tol=1e-2)
    print(f"limit proxy sharp at 0: {profile.sharp_at_zero:.6f}, max on grid: {profile.max_sharp:.6f}")

    shells = tuple(1.0 / (2 * math.pi * j) for j in (1, 2, 4, 8, 16, 32))
    plan = SamplingPlan(shells=shells, points_per_shell=4, directions_per_point=4, seed=0)
    est = normality_scan(f, disc, plan)
    print(f"\nshell scan verdict: {est.verdict}")
    print(f"{'shell':>10} {'max Levi/K_upper^2':>20}")
    for shell, max_ratio, _ in est.shell_trend:
        print(f"{shell:10.5f} {max_ratio:20.4f}")


if __name__ == "__main__":
    main()
