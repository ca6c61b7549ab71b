import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import normlab
from normlab import sphere_directions


def test_directions_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sphere_directions(3, 100, 0)


def _cli_import_loads(packages):
    """The modules of `packages` that a fresh `import normlab.cli` loads."""
    src = str(Path(normlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys, normlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return result.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert _cli_import_loads(["scipy"]) == "[]"


def test_cli_import_leaves_jsonschema_out():
    # jsonschema and what it imports; attrs installs the modules attr and attrs
    packages = ["jsonschema", "jsonschema_specifications", "referencing", "rpds", "attr", "attrs", "jsonpointer"]
    assert _cli_import_loads(packages) == "[]"


@pytest.mark.parametrize("n", [3, 4])
def test_directions_are_unit_and_a_pure_function_of_the_seed(n):
    v = sphere_directions(n, 100, 5)
    assert v.shape == (100, n)
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12
    assert sphere_directions(n, 100, 5).tobytes() == v.tobytes()
    assert not np.allclose(sphere_directions(n, 100, 6), v)


def test_directions_cover_the_sphere_in_3d():
    # sup over unit v of |sum_k g_k v_k| is |g| = 1; the fd oracle's maximum
    # over 256 directions must reach 0.85 of it for every gradient
    rng = np.random.default_rng(2024)
    g = rng.standard_normal((4000, 3)) + 1j * rng.standard_normal((4000, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    for seed in range(5):
        v = sphere_directions(3, 256, seed)
        assert np.abs(g @ v.T).max(axis=1).min() >= 0.85
