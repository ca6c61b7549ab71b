"""Closed-form sharp function vs the brute-force finite-difference oracle.

The sharp function of f at z is the supremum, over unit directions v, of the
square root of the Levi form of log(1+|f|^2).  The closed form collapses this
to |grad f| / (1+|f|^2); the oracle instead takes the discrete Levi form
along n^2 probe directions, polarizes them into the complex Hessian of
log(1+|f|^2), and takes the square root of its top eigenvalue, the supremum
of its Hermitian form over unit directions, from values of f alone.  This
script shows the two agree.
"""

import random

from normlab import parse, sharp_batch, sharp_fd

SUITE = [
    ("z1", 1),
    ("z1^3 - 2*z1 + 1", 1),
    ("exp(z1)", 1),
    ("sin(1/(1-z1))", 1),
    ("z1*z2", 2),
    ("exp(z1+z2)", 2),
]


def main():
    rng = random.Random(0)
    print(f"{'function':<18} {'point':<42} {'closed':>12} {'oracle':>12} {'rel dev':>10}")
    for source, dim in SUITE:
        f = parse(source, dim)
        scale = 0.4 if dim == 2 else 0.5
        points = [
            [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(dim)]
            for _ in range(3)
        ]
        closed = sharp_batch(f, points)
        oracles = sharp_fd(f, points, 1e-4)
        for z, s, oracle in zip(points, closed, oracles):
            dev = abs(s - oracle) / (1.0 + s)
            zs = " ".join(f"{c:.3f}" for c in z)
            print(f"{source:<18} {zs:<42} {s:12.7f} {oracle:12.7f} {dev:10.2e}")


if __name__ == "__main__":
    main()
