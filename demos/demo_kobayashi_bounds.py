"""Kobayashi metric on balls and sandwich bounds on a polydisc.

On a ball the metric is explicit; on other bounded domains we sandwich it
between the metric of the circumscribed ball (lower bound) and that of the
inscribed ball at the evaluation point (upper bound, by the
distance-decreasing property of holomorphic inclusions).
"""

import numpy as np

from normlab import Polydisc, kobayashi_ball_batch, kobayashi_domain_bounds_batch, kobayashi_upper_batch


def main():
    print("unit disc, v = 1, moving toward the boundary:")
    print(f"{'|z|':>6} {'K(z,v)':>12} {'upper bound':>12}")
    xs = [0.0, 0.3, 0.6, 0.9, 0.99]
    z, v = [(complex(x),) for x in xs], [(1 + 0j,)]  # z is its offset from the disc's center 0
    exact, upper = kobayashi_ball_batch(z, 1.0, v)[:, 0], kobayashi_upper_batch(z, 1.0, v)[:, 0]
    for x, k, k_upper in zip(xs, exact, upper):
        print(f"{x:6.2f} {k:12.6f} {k_upper:12.6f}")

    poly = Polydisc((0j, 0j), (1.0, 2.0))
    rng = np.random.default_rng(7)
    print("\npolydisc radii (1,2): sandwich bounds at random interior points:")
    print(f"{'point':>30} {'lower':>10} {'upper':>10}")
    for _ in range(6):
        p = (
            complex(*rng.uniform(-0.6, 0.6, 2)),
            complex(*rng.uniform(-1.2, 1.2, 2)),
        )
        v = tuple(complex(*rng.normal(size=2)) for _ in range(2))
        (lower,), (upper,) = kobayashi_domain_bounds_batch(poly, [p], [v])  # one point, one direction
        ps = " ".join(f"{c:.2f}" for c in p)
        print(f"{ps:>30} {lower[0]:10.5f} {upper[0]:10.5f}")
        assert lower <= upper


if __name__ == "__main__":
    main()
