import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normlab
from normlab import ball_grid, sampling, scan_rays, sphere_directions
from normlab.sampling import GOLDEN_FRAC


def test_directions_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sphere_directions(3, 100, 0)


def _cli_import_loads(packages, code=""):
    """The modules of `packages` (or below them) that a fresh process has
    loaded after `import normlab.cli` and then `code`."""
    src = str(Path(normlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        f"import sys, normlab.cli\n{code}\n"
        f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {packages!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_out():
    assert _cli_import_loads(["scipy"]) == "[]"


@pytest.mark.parametrize(
    "argv",
    [["sharp", "sharp-3d.json"], ["marty-scan", "scan-3d-polydisc.json", "--format", "csv"]],
    ids=["sharp-3d", "scan-3d-polydisc"],
)
def test_three_dimensional_runs_leave_numpy_random_out(argv, tmp_path):
    # the n >= 3 directions' seeded shift comes from random.Random(seed)
    command, config, *extra = argv
    config = Path(__file__).resolve().parent / "golden" / config
    run = f"assert normlab.cli.main({[command, '--config', str(config), '--out', str(tmp_path), *extra]!r}) == 0"
    assert _cli_import_loads(["numpy.random"], run) == "[]"
    assert list(tmp_path.iterdir())  # the run did write its report


def test_cli_run_leaves_csv_out(tmp_path):
    # the run tables are printed by one join, not by csv.writer
    config = Path(__file__).resolve().parent / "golden" / "rescale-1d.json"
    run = f"assert normlab.cli.main({['rescale', '--config', str(config), '--out', str(tmp_path)]!r}) == 0"
    assert _cli_import_loads(["csv", "_csv"], run) == "[]"
    assert (tmp_path / "rescale_run.csv").exists()


def test_cli_import_leaves_jsonschema_out():
    # jsonschema and what it imports; attrs installs the modules attr and attrs
    packages = ["jsonschema", "jsonschema_specifications", "referencing", "rpds", "attr", "attrs", "jsonpointer"]
    assert _cli_import_loads(packages) == "[]"


def test_directions_reject_what_is_not_a_seed():
    for n in (1, 2, 3):  # n = 2 reads no seed (a Hopf lattice), and rejects a bad one all the same
        with pytest.raises(ValueError, match="seed must be non-negative"):
            sphere_directions(n, 4, -1)  # random.Random would read it as 1
        for seed in (None, 1.0, 1.5):  # None would otherwise draw OS entropy
            with pytest.raises(TypeError):
                sphere_directions(n, 4, seed)


def test_directions_take_any_non_negative_integer_seed():
    assert sphere_directions(3, 8, np.int64(5)).tobytes() == sphere_directions(3, 8, 5).tobytes()
    big = sphere_directions(3, 8, 2**200)
    assert np.max(np.abs(np.linalg.norm(big, axis=1) - 1.0)) <= 1e-12
    assert not np.allclose(big, sphere_directions(3, 8, 0))


@pytest.mark.parametrize("n", [0, -1])
def test_directions_need_a_positive_dimension(n):
    with pytest.raises(ValueError, match="n must be positive"):
        sphere_directions(n, 4, 0)


def test_directions_and_grids_reject_empty_sizes():
    with pytest.raises(ValueError, match="^count must be positive$"):
        sphere_directions(2, 0)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="^radius must be positive$"):
            ball_grid(1, radius, 4)
    with pytest.raises(ValueError, match="^grid_size must be at least 2$"):
        ball_grid(1, 1.0, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_directions_are_unit_and_a_pure_function_of_the_seed(n):
    v = sphere_directions(n, 100, 5)
    assert v.shape == (100, n)
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12
    assert sphere_directions(n, 100, 5).tobytes() == v.tobytes()
    assert not np.allclose(sphere_directions(n, 100, 6), v)


@pytest.mark.parametrize("d", [*range(6, 19), 40])
def test_rd_root_is_correctly_rounded(d):
    # float() of a 50-digit root rounds it to the nearest double
    with mpmath.workdps(50):
        expected = float(mpmath.findroot(lambda x: x ** (d + 1) - x - 1, 1.1))
    assert sampling._rd_root(d) == expected


@pytest.mark.parametrize("n", [3, 4, 9])
def test_rd_root_is_computed_once_per_dimension(n):
    d = 2 * n
    root = sampling._rd_root(d)
    assert 1.0 < root < 2.0 and abs(root ** (d + 1) - root - 1.0) <= 1e-12
    sphere_directions(n, 8, 0)
    sphere_directions(n, 8, 1)
    assert sampling._rd_root(d) is sampling._rd_root(d)  # cached, not recomputed


def test_directions_cover_the_sphere_in_3d():
    # sup over unit v of |sum_k g_k v_k| is |g| = 1; the fd oracle's maximum
    # over 256 directions must reach 0.85 of it for every gradient
    rng = np.random.default_rng(2024)
    g = rng.standard_normal((4000, 3)) + 1j * rng.standard_normal((4000, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    for seed in range(5):
        v = sphere_directions(3, 256, seed)
        assert np.abs(g @ v.T).max(axis=1).min() >= 0.85


def _reference_scan_rays(n, count, seed):
    """scan_rays as a plain loop: +e_1, -e_1, +e_2, ... then the fill."""
    rays = []
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        rays.append(e.copy())
        if len(rays) < count:
            rays.append(-e)
        if len(rays) >= count:
            break
    if len(rays) < count:
        rays.extend(sphere_directions(n, count - len(rays), seed + 7919))
    return np.asarray(rays[:count])


def _reference_ball_grid(n, radius, grid_size):
    """ball_grid as a plain loop, one ring and one point at a time."""
    n_rings = max(2, int(round(math.sqrt(grid_size))))
    per_ring = max(4, 2 * n, -(-grid_size // n_rings))
    if per_ring % 2:
        per_ring += 1
    points = [np.zeros(n, dtype=complex)]
    if n == 1:
        for k in range(1, n_rings + 1):
            r = radius * k / n_rings
            offset = 0.0 if k == n_rings else GOLDEN_FRAC * k
            angles = 2.0 * math.pi * (np.arange(per_ring) + offset) / per_ring
            points.extend((r * np.exp(1j * a)).reshape(1) for a in angles)
    else:
        dirs = _reference_scan_rays(n, per_ring, 0)
        for k in range(1, n_rings + 1):
            r = radius * k / n_rings
            points.extend(r * d for d in dirs)
    return np.asarray(points)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [1, 2, 3, 5, 6, 7, 8, 9, 17, 64])
def test_scan_rays_match_the_loop_bit_for_bit(n, count):
    got, expected = scan_rays(n, count, 11), _reference_scan_rays(n, count, 11)
    assert got.dtype == expected.dtype and got.shape == expected.shape == (count, n)
    assert got.tobytes() == expected.tobytes()  # -0.0 in the negated axes included


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_rays_are_distinct(n):
    for count in range(2, 65):
        rays = scan_rays(n, count, 11)
        gaps = np.max(np.abs(rays[:, None, :] - rays[None, :, :]), axis=-1)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-6, (count, np.unravel_index(np.argmin(gaps), gaps.shape))


@settings(max_examples=150, deadline=None)
@example(n=3, radius=1.0, grid_size=16)
@example(n=5, radius=1.0, grid_size=64)
@example(n=9, radius=1.0, grid_size=64)
@given(n=st.integers(1, 9), radius=st.floats(1e-3, 1e3), grid_size=st.integers(2, 1024))
def test_ball_grid_reaches_every_signed_axis(n, radius, grid_size):
    # each coordinate moves, out to the radius, both ways along its real axis
    grid = ball_grid(n, radius, grid_size)
    for part in (grid.real.max(axis=0), -grid.real.min(axis=0)):
        np.testing.assert_allclose(part, radius, rtol=1e-12)


# the broadcast and the loop must round alike: numpy's array ops can differ
# from its scalar ones in the last bit (see rescaling._power_law)
@settings(max_examples=150, deadline=None)
@example(n=1, radius=1e-3, grid_size=2)
@example(n=2, radius=1e3, grid_size=1024)
@example(n=3, radius=1.0, grid_size=1024)
@given(n=st.integers(1, 3), radius=st.floats(1e-3, 1e3), grid_size=st.integers(2, 1024))
def test_ball_grid_matches_the_loop_bit_for_bit(n, radius, grid_size):
    got, expected = ball_grid(n, radius, grid_size), _reference_ball_grid(n, radius, grid_size)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
