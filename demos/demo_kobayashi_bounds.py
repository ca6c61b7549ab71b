"""The exact Kobayashi metric on a ball and on a polydisc.

On a ball the metric is explicit, and the Cauchy-Schwarz inequality
|(w, v)| <= |w| |v| bounds it by d |v| / (d^2 - |w|^2), with equality when w
is parallel to v.  On a polydisc it is the largest of its factor discs'
metrics (the product property).  Both lie below the metric of the inscribed
ball at the evaluation point (by the distance-decreasing property of
holomorphic inclusions), which at its own center is |v| / delta, delta the
point's boundary distance.
"""

import math

import numpy as np

from normlab import Ball, Polydisc, boundary_distance_batch, kobayashi_batch


def main():
    print("unit disc, v = 1, moving toward the boundary:")
    print(f"{'|z|':>6} {'K(z,v)':>12} {'upper bound':>12}")
    xs = [0.0, 0.3, 0.6, 0.9, 0.99]
    exact = kobayashi_batch(Ball((0j,), 1.0), [(complex(x),) for x in xs], [(1 + 0j,)])[:, 0]
    for x, k in zip(xs, exact):
        print(f"{x:6.2f} {k:12.6f} {1.0 / (1.0 - x * x):12.6f}")  # d |v| / (d^2 - |w|^2)

    poly = Polydisc((0j, 0j), (1.0, 2.0))
    rng = np.random.default_rng(7)
    print("\npolydisc radii (1,2): the exact metric against |v| / delta at random interior points:")
    print(f"{'point':>30} {'K(z,v)':>10} {'|v|/delta':>10}")
    for _ in range(6):
        p = (
            complex(*rng.uniform(-0.6, 0.6, 2)),
            complex(*rng.uniform(-1.2, 1.2, 2)),
        )
        v = tuple(complex(*rng.normal(size=2)) for _ in range(2))
        exact = kobayashi_batch(poly, [p], [v])[0, 0]
        # the inscribed ball at p, of radius its boundary distance, at its own center
        upper = math.hypot(*map(abs, v)) / boundary_distance_batch(poly, [p])[0]
        ps = " ".join(f"{c:.2f}" for c in p)
        print(f"{ps:>30} {exact:10.5f} {upper:10.5f}")
        assert exact <= upper


if __name__ == "__main__":
    main()
