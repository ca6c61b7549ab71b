"""The linear counterexample: a constant limit with a divergent scale ratio.

For f(z) = z on the unit disc, centers z_n = 1 - n^-3 and scales rho_n = n^-2
give rescaled functions converging (locally uniformly) to the constant 1,
yet rho_n divided by the boundary distance 1 - |z_n| equals n and diverges.
A constant limit therefore does not force the scale/distance ratio to vanish,
so the unrestricted converse of the constant-limit theorem fails.

This is the paper's Remark as one explicit run, the same as the `thm2` config
of `tests/golden/thm2-remark.json`: the run reads `constant-limit` while both
of its ratio flags are raised.
"""

import numpy as np

from normlab import Ball, ExplicitScale, SequenceSpec, convergence_report, evaluate_batch, parse, rescaling_run


def main():
    f = parse("z1", 1)
    spec = SequenceSpec((1 + 0j,), (-1 + 0j,), c_p=1.0, a=3.0, scale=ExplicitScale(1.0, 2.0), j_start=1, j_end=50)
    run = rescaling_run(f, Ball((0j,), 1.0), spec)
    report = convergence_report(run, radius=1.0, grid_size=64, tol=1e-3)
    print(f"{'n':>3} {'rho_n/(1-|z_n|)':>16} {'sup|g_n - 1|':>14} {'bound n^-3+n^-2':>16}")
    for e in run.entries:
        if e.j % 5 == 0 or e.j <= 3:
            g_n = evaluate_batch(f, e.z_j + e.rho_j * report.grid, gradient=False).value
            dev = np.max(np.abs(g_n - 1.0))
            bound = float(e.j) ** -3 + float(e.j) ** -2 * report.radius
            print(f"{e.j:>3} {e.ratio:16.1f} {dev:14.6f} {bound:16.6f}")
    print(f"\nconvergence verdict: {report.verdict}")
    print(f"hypothesis flags:    {', '.join(run.hypothesis_flags)}")


if __name__ == "__main__":
    main()
