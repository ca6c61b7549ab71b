"""Seeded task generator for the normlab benchmark.

A workload is a pool of tasks made from one seed.  The pool is a whole number
of cycles, and every cycle has the same shape: at each position the same
sub-command, function family, domain kind and size class.  The seed draws
everything else (coefficients, anchors, points, sampling seeds), so runs with
different seeds do the same amount of work and their timings can be compared.

Expressions are generated as small trees (JSON lists) and rendered to the
normlab grammar; the checker evaluates the same trees with mpmath, which gives
an oracle that shares no code with the program.

Tree nodes: ["z", k] | ["c", re, im] | [op, a, b] for op in + - * / |
["^", a, k] | [fn, a] for fn in exp, sin, cos.
"""

from __future__ import annotations

import math
import random

DYADIC_SHELLS = [2.0**-k for k in range(1, 9)]
# Small scans use three deep dyadic shells, where the boundary distance rather
# than the growth of f sets the trend of the shell maxima.
README_SHELLS = [2.0**-3, 2.0**-4, 2.0**-5]
ORACLE_POINTS = 16
ORACLE_SAMPLES = 256
TOL = 1e-3  # convergence tolerance of the rescaling runs, as in the README example

# Cycles per warm pool.  A run that outlasts the pool starts it over, so a
# warm process may see a config again; outputs of repeats must be identical.
POOL_CYCLES = 4
COLD_POOL_CYCLES = 2


# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------

def _r(x: float) -> float:
    """Four decimals, so the literal reads the same to the parser and mpmath."""
    return round(x, 4) + 0.0


def const(re: float, im: float = 0.0) -> list:
    return ["c", _r(re), _r(im)]


def var(k: int) -> list:
    return ["z", k]


def add(a, b):
    return ["+", a, b]


def mul(a, b):
    return ["*", a, b]


def render(t: list) -> str:
    """The tree in normlab's expression grammar."""
    kind = t[0]
    if kind == "z":
        return f"z{t[1]}"
    if kind == "c":
        re, im = t[1], t[2]
        if im == 0.0:
            return f"({re!r})"
        return f"({re!r}{'-' if im < 0 else '+'}{abs(im)!r}*i)"
    if kind in ("+", "-", "*", "/"):
        return f"({render(t[1])}{kind}{render(t[2])})"
    if kind == "^":
        return f"({render(t[1])})^{t[2]}"
    return f"{kind}({render(t[1])})"


def _rc(rng: random.Random, scale: float) -> list:
    return const(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _linear(rng: random.Random, n: int, scale: float) -> tuple[list, float]:
    """sum_k a_k z_k and sum_k |a_k| (for bounding it on a domain)."""
    terms = [(_rc(rng, scale), k) for k in range(1, n + 1)]
    tree = mul(terms[0][0], var(1))
    for c, k in terms[1:]:
        tree = add(tree, mul(c, var(k)))
    return tree, sum(math.hypot(c[1], c[2]) for c, _ in terms)


def poly(rng: random.Random, n: int, terms: int) -> list:
    """Sum of `terms` monomials of total degrees 1, 2, 3, 1, ... with
    coefficients |c| < 1.2; the seed picks coefficients and variables only, so
    the tree's size is fixed by `terms`."""
    tree = None
    for t in range(terms):
        mono = _rc(rng, 0.8)
        for _ in range(1 + t % 3):
            k = rng.randint(1, n)
            mono = mul(mono, var(k))
        tree = mono if tree is None else add(tree, mono)
    return tree


def expo(rng: random.Random, n: int) -> list:
    lin, _ = _linear(rng, n, 0.6)
    return add(mul(_rc(rng, 0.8), ["exp", lin]), mul(_rc(rng, 0.5), var(n)))


def rational(rng: random.Random, n: int, reach: float) -> list:
    """c / (d - a.z) + z_1^2 with its pole outside |z_k| <= reach."""
    lin, size = _linear(rng, n, 0.8)
    d = const(2.0 * size * reach + 0.5)
    return add(["/", _rc(rng, 0.8), ["-", d, lin]], ["^", var(1), 2])


def trig(rng: random.Random, n: int) -> list:
    lin, _ = _linear(rng, n, 0.7)
    return add(mul(["sin", lin], var(1)), ["cos", mul(_rc(rng, 0.7), var(n))])


def normal_family(rng: random.Random, family: str, n: int, reach: float, terms: int):
    if family == "poly":
        return poly(rng, n, terms)
    if family == "exp":
        return expo(rng, n)
    if family == "rational":
        return rational(rng, n, reach)
    return trig(rng, n)


def sin_pole(a: float) -> list:
    """sin(a/(1-z1))*z2: not normal on domains whose closure touches z1 = 1."""
    return mul(["sin", ["/", const(a), ["-", const(1.0), var(1)]]], var(2))


# --------------------------------------------------------------------------
# Configs
# --------------------------------------------------------------------------

def _pt(z) -> list:
    return [[c.real, c.imag] for c in z]


def _task(name, command, config, tree=None, **expect) -> dict:
    expect["codes"] = [0]
    if tree is not None:
        expect["tree"] = tree
    return {"name": name, "command": command, "config": config, "expect": expect}


def _domain(rng: random.Random, kind: str, n: int, unit_z1: bool) -> tuple[dict, list]:
    """A ball or polydisc and the largest |z_k| on its closure.

    With `unit_z1` the domain is centered at 0 with z1-radius 1, so its closure
    touches z1 = 1, where `sin_pole` is singular.
    """
    if unit_z1:
        center = [0j] * n
        radii = [1.0] + [_r(rng.uniform(0.6, 1.4)) for _ in range(n - 1)]
    else:
        center = [complex(_r(rng.uniform(-0.2, 0.2)), _r(rng.uniform(-0.2, 0.2))) for _ in range(n)]
        radii = [_r(rng.uniform(0.5, 1.4)) for _ in range(n)]
    if kind == "ball":
        radius = 1.0 if unit_z1 else radii[0]
        return (
            {"type": "ball", "center": _pt(center), "radius": radius},
            [abs(c) + radius for c in center],
        )
    return (
        {"type": "polydisc", "center": _pt(center), "radii": radii},
        [abs(c) + r for c, r in zip(center, radii)],
    )


def scan_task(rng: random.Random, kind: str, family: str, dirs: int, points: int,
              terms: int = 3, shells=None, mp_checks: int = 3) -> dict:
    """A 2-D marty-scan over dyadic shells."""
    shells = DYADIC_SHELLS if shells is None else shells
    nonnormal = family == "sin-pole"
    domain, reach = _domain(rng, kind, 2, unit_z1=nonnormal)
    if nonnormal:
        # a <= 0.6 keeps |f|^2 below 1e150 on the innermost shell (distance
        # 1/256), so every value and every Levi ratio stays finite.
        tree = sin_pole(rng.uniform(0.3, 0.6))
    else:
        tree = normal_family(rng, family, 2, max(reach), terms)
    plan_seed = rng.randrange(10_000)
    samples = len(shells) * points * dirs
    return _task(
        f"scan-{kind}-{family}-d{dirs}",
        "marty-scan",
        {
            "command": "marty-scan",
            "function": render(tree),
            "dimension": 2,
            "domain": domain,
            "plan": {
                "shells": shells,
                "points_per_shell": points,
                "directions_per_point": dirs,
                "seed": plan_seed,
            },
        },
        tree,
        verdict=None if nonnormal else "bounded-consistent",
        points=len(shells) * points,
        samples=samples,
        mp_samples=sorted(rng.sample(range(samples), min(mp_checks, samples))),
    )


def _unit_point(rng: random.Random, n: int) -> list[complex]:
    w = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in w))
    return [x / norm for x in w]


def _zalcman_anchor(rng: random.Random, n: int):
    """Coefficients c of the singular hyperplane c.z = 1 and the boundary
    point `anchor` on it closest to 0 (c.anchor = 1)."""
    coeffs = [const(x.real, -x.imag) for x in _unit_point(rng, n)]
    c = [complex(t[1], t[2]) for t in coeffs]
    c2 = sum(abs(x) ** 2 for x in c)
    anchor = [x.conjugate() / c2 for x in c]
    return coeffs, anchor


def zalcman_task(rng: random.Random, n: int, j_end: int, grid: int) -> dict:
    """`rescale` on sin(a/(1-c.z)) at the singular boundary point.

    Centers p_j = anchor*(1 - c_p/(j|anchor|)); with c_p = a|anchor|/(2 pi m)
    the phase a/(1-c.p_j) = 2 pi m j, so g_j -> sin(u.zeta) with |u| = 1: a
    nonconstant limit whose sharp function is 1 at the origin.
    """
    coeffs, anchor = _zalcman_anchor(rng, n)
    lin = mul(coeffs[0], var(1))
    for k in range(1, n):
        lin = add(lin, mul(coeffs[k], var(k + 1)))
    a = _r(rng.uniform(0.5, 2.0))
    m = rng.choice([1, 2])
    r_anchor = math.sqrt(sum(abs(x) ** 2 for x in anchor))
    tree = ["sin", ["/", const(a), ["-", const(1.0), lin]]]
    return _task(
        f"rescale-{n}d-j{j_end}-g{grid}",
        "rescale",
        {
            "command": "rescale",
            "function": render(tree),
            "dimension": n,
            "domain": {"type": "ball", "center": _pt([0j] * n), "radius": r_anchor},
            "sequence": {
                "anchor": _pt(anchor),
                "inward": _pt([-x / r_anchor for x in anchor]),
                "c_p": a * r_anchor / (2.0 * math.pi * m),
                "a": 1.0,
                "j_start": 2,
                "j_end": j_end,
            },
            "R": 1.0,
            "grid_size": grid,
            "tol": TOL,
            "seed": rng.randrange(10_000),
        },
        verdict="nonconstant-limit",
    )


def thm2_task(rng: random.Random, n: int, family: str, j_end: int, grid: int, terms: int = 3) -> dict:
    """`thm2` on a normal function of the unit ball with r_j = c_r j^-2 and
    centers approaching a boundary point like j^-1: the expected verdict is a
    constant limit."""
    tree = normal_family(rng, family, n, 1.0, terms)
    anchor = _unit_point(rng, n)
    return _task(
        f"thm2-{n}d-{family}-j{j_end}-g{grid}",
        "thm2",
        {
            "command": "thm2",
            "function": render(tree),
            "dimension": n,
            "domain": {"type": "ball", "center": _pt([0j] * n), "radius": 1.0},
            "sequence": {
                "anchor": _pt(anchor),
                "inward": _pt([-x for x in anchor]),
                "c_p": _r(rng.uniform(0.3, 0.6)),
                "a": 1.0,
                "j_start": 2,
                "j_end": j_end,
                "c_r": _r(rng.uniform(0.3, 0.6)),
                "b": 2.0,
            },
            "R": 1.0,
            "grid_size": grid,
            "tol": TOL,
            "seed": rng.randrange(10_000),
        },
        tree,
        verdict="constant-limit",
    )


def counterexample_task(rng: random.Random, n_max: int, grid: int) -> dict:
    return _task(
        f"counterexample-n{n_max}-g{grid}",
        "counterexample",
        {
            "command": "counterexample",
            "n_max": n_max,
            "R": _r(rng.uniform(0.5, 1.5)),
            "grid_size": grid,
            "seed": rng.randrange(10_000),
        },
        verdict="constant-limit-with-divergent-ratio",
    )


def sharp_task(rng: random.Random, n: int, family: str, terms: int = 3,
               points: int = ORACLE_POINTS, mp_checks: int = 2) -> dict:
    """`sharp` at seeded points of the polydisc |z_k| < 0.6."""
    reach = 0.6
    tree = normal_family(rng, family, n, reach, terms)
    side = reach / math.sqrt(2.0)
    pts = [
        [complex(_r(rng.uniform(-side, side)), _r(rng.uniform(-side, side))) for _ in range(n)]
        for _ in range(points)
    ]
    return _task(
        f"sharp-{n}d-{family}",
        "sharp",
        {
            "command": "sharp",
            "function": render(tree),
            "dimension": n,
            "points": [_pt(p) for p in pts],
            "h": 1e-4,
            "sphere_samples": ORACLE_SAMPLES,
            "seed": rng.randrange(10_000),
        },
        tree,
        mp_rows=sorted(rng.sample(range(points), min(mp_checks, points))),
    )


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

# (domain kind, family, points per shell, directions per point, polynomial
# terms).  Every scan has 8 shells x 128 samples, so tasks cost about the same
# while the work shared per point (directions per point) runs from 2 to 16.
# Each family runs once on a ball and once on a polydisc, each direction count
# once on each.
SCAN_CYCLE = [
    ("ball", "poly", 32, 4, 2),
    ("polydisc", "sin-pole", 16, 8, 0),
    ("ball", "exp", 8, 16, 0),
    ("polydisc", "rational", 64, 2, 0),
    ("ball", "sin-pole", 64, 2, 0),
    ("polydisc", "poly", 8, 16, 5),
    ("ball", "rational", 16, 8, 0),
    ("polydisc", "exp", 32, 4, 0),
]

# Few indices on large grids (rescale) against many indices on small grids
# (thm2, counterexample); each task costs about the same.
RESCALE_CYCLE = [
    ("rescale", 1, None, 40, 1024),
    ("thm2", 2, "poly", 100, 256),
    ("counterexample", None, None, 200, 256),
    ("rescale", 2, None, 30, 1024),
    ("thm2", 1, "exp", 200, 256),
    ("counterexample", None, None, 100, 512),
]

# (dimension, family, polynomial terms).  Mostly 3-D, where
# sphere_directions takes its Sobol path.
ORACLE_CYCLE = [
    (3, "poly", 2), (3, "exp", 0), (1, "trig", 0), (3, "rational", 0),
    (3, "trig", 0), (2, "poly", 4), (3, "poly", 5), (3, "exp", 0),
]


def _scan_cycle(rng):
    return [scan_task(rng, kind, fam, dirs, pts, terms) for kind, fam, pts, dirs, terms in SCAN_CYCLE]


def _rescale_cycle(rng):
    out = []
    for command, n, family, size, grid in RESCALE_CYCLE:
        if command == "rescale":
            out.append(zalcman_task(rng, n, size, grid))
        elif command == "thm2":
            out.append(thm2_task(rng, n, family, size, grid))
        else:
            out.append(counterexample_task(rng, size, grid))
    return out


def _oracle_cycle(rng):
    return [sharp_task(rng, n, fam, terms) for n, fam, terms in ORACLE_CYCLE]


def _cold_cycle(rng):
    """All six sub-commands at README sizes, twice, plus the three hostile
    inputs whose documented exit codes (2, 3, 4) hold."""
    hostile = _cold_hostile(rng)
    return _cold_commands(rng) + hostile[:2] + _cold_commands(rng) + hostile[2:]


def _cold_commands(rng):
    small_scan = scan_task(
        rng, "ball", "poly", 4, 8, shells=README_SHELLS, mp_checks=2
    )
    thm2 = thm2_task(rng, 1, "poly", 100, 64)
    checked = dict(thm2, name="check-config", command="check-config")
    checked["expect"] = {"codes": [0], "valid_for": "thm2"}
    return [
        sharp_task(rng, 2, "poly", points=2, mp_checks=1),
        small_scan,
        zalcman_task(rng, 1, 30, 64),
        thm2,
        counterexample_task(rng, 50, 64),
        checked,
    ]


def _cold_hostile(rng):
    bad_key = sharp_task(rng, 1, "poly", points=1, mp_checks=0)
    bad_key["config"]["sphere_sample"] = 64
    bad_key.update(name="hostile-schema-violation", expect={"codes": [2]})
    pole = sharp_task(rng, 1, "poly", points=1, mp_checks=0)
    pole["config"].update(function="1/z1", points=[[[0.0, 0.0]]])
    pole.update(name="hostile-evaluation-error", expect={"codes": [3]})
    flagged = zalcman_task(rng, 1, 20, 64)
    # f = z1 has a sharp function that decreases toward |z1| = 1, so the
    # blow-up scales grow and the run is flagged.
    flagged["config"]["function"] = "z1"
    flagged.update(name="hostile-flagged-zalcman", expect={"codes": [4], "flags": True})
    return [bad_key, pole, flagged]


def known_defects(rng: random.Random) -> list[dict]:
    """Inputs that should end in a documented exit code but do not at the
    parent of the benchmark.  JSON text is given raw where it is not valid
    strict JSON (NaN, Infinity)."""
    p = rng.uniform(0.1, 0.5)
    scan = scan_task(rng, "ball", "poly", 4, 8)
    scan["config"]["domain"] = {"type": "ball", "center": [[0, 0], [0, 0]], "radius": 1.0}
    nan_text = (
        '{"command": "sharp", "function": "z1", "dimension": 1, '
        f'"points": [[[NaN, {p!r}]]]}}'
    )
    inf_text = (
        '{"command": "marty-scan", "function": "z1*z2", "dimension": 2, '
        '"domain": {"type": "ball", "center": [[0, 0], [0, 0]], "radius": Infinity}, '
        '"plan": {"shells": [0.5, 0.25, 0.125], "points_per_shell": 8, '
        '"directions_per_point": 4, "seed": 0}}'
    )
    depth = 3000
    deep = {
        "command": "sharp",
        "function": "(" * depth + "z1" + ")" * depth,
        "dimension": 1,
        "points": [[[p, 0.0]]],
    }
    overflow = {"command": "sharp", "function": "exp(z1)", "dimension": 1, "points": [[[400.0, 0.0]]]}
    blowup = dict(scan["config"], function="exp(10/(1-z1))*z2")
    return [
        {"name": "nan-point", "command": "sharp", "text": nan_text, "expect": {"codes": [2]}},
        {"name": "infinite-radius", "command": "marty-scan", "text": inf_text, "expect": {"codes": [2]}},
        {"name": "deep-nesting-3000", "command": "sharp", "config": deep, "expect": {"codes": [2]}},
        # An overflow is an evaluation error (3); a fix that evaluates the
        # point without overflowing may instead succeed (0) with finite output.
        {"name": "sharp-overflow-exp400", "command": "sharp", "config": overflow, "expect": {"codes": [0, 3]}},
        {"name": "scan-overflow-to-inf", "command": "marty-scan", "config": blowup, "expect": {"codes": [0, 3]}},
    ]


WORKLOADS = {
    "scan": (_scan_cycle, POOL_CYCLES),
    "rescale": (_rescale_cycle, POOL_CYCLES),
    "oracle": (_oracle_cycle, POOL_CYCLES),
    "cli-cold": (_cold_cycle, COLD_POOL_CYCLES),
}


def workload(name: str, seed: int) -> dict:
    """The pool of tasks for one workload and seed, plus the known-defect
    probes for `cli-cold`.  Identical (name, seed) gives identical output."""
    make_cycle, cycles = WORKLOADS[name]
    rng = random.Random(f"normlab-bench:{name}:{seed}")
    tasks = [task for _ in range(cycles) for task in make_cycle(rng)]
    return {
        "workload": name,
        "seed": seed,
        "cycle": len(tasks) // cycles,
        "tasks": tasks,
        "rerun": rng.randrange(len(tasks) // cycles),
        "probes": known_defects(rng) if name == "cli-cold" else [],
    }
