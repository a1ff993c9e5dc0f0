import os
import subprocess
import sys

import numpy as np
import pytest

from ebk import LevelSurface, RamosCurve, kernels, pnorm_profile

needs_numba = pytest.mark.skipif(not kernels.HAS_NUMBA,
                                 reason="numba backend unavailable")


def _brute_primitives(dim, k_max):
    import itertools
    out = []
    for k in itertools.product(range(k_max + 1), repeat=dim):
        g = 0
        for x in k:
            g = np.gcd(g, x)
        if g == 1:
            out.append(k)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("dim,k_max", [(2, 1), (2, 7), (2, 40), (3, 5)])
def test_primitive_directions_match_bruteforce(dim, k_max):
    got = kernels.primitive_directions(dim, k_max, force="numpy")
    assert np.array_equal(got, _brute_primitives(dim, k_max))


def test_primitive_directions_sorted_and_primitive():
    K = kernels.primitive_directions(2, 30)
    # lexicographic order
    assert np.array_equal(K, K[np.lexsort((K[:, 1], K[:, 0]))])
    g = np.gcd(K[:, 0], K[:, 1])
    assert np.all(g == 1)
    assert K.max() == 30


def test_primitive_directions_validates():
    with pytest.raises(ValueError):
        kernels.primitive_directions(2, 0)


@needs_numba
def test_primitive_directions_backend_agreement():
    a = kernels.primitive_directions(2, 25, force="numba")
    b = kernels.primitive_directions(2, 25, force="numpy")
    assert np.array_equal(a, b)


def _closed_form_surfaces():
    surfaces = {f"pnorm:{s:g}": LevelSurface.from_profile(pnorm_profile(s))
                for s in (1.5, 3.0, 4.0, 8.0)}
    surfaces["ramos"] = RamosCurve()
    return surfaces


def test_closed_form_inversion_residual():
    K = kernels.primitive_directions(2, 200)
    for name, surf in _closed_form_surfaces().items():
        assert surf.normal_map is not None, name
        t, pts, res, ok = surf.invert_normal_many(K)
        assert ok.all(), name
        assert res.max() <= 1e-14, (name, res.max())


def test_closed_form_matches_bisect_generic():
    K = kernels.primitive_directions(2, 200)
    K = K[(K > 0).all(axis=1)].astype(float)
    targets = np.arctan2(K[:, 1], K[:, 0])
    for name, surf in _closed_form_surfaces().items():
        t = surf.invert_normal_many(K)[0]
        via_bisection = kernels.bisect_generic(surf.normal_angle, surf.param_lo,
                                               surf.param_hi, targets)
        assert np.abs(t - via_bisection).max() <= 1e-12, name


def test_closed_form_exact_axis_points():
    axes = np.array([[1, 0], [0, 1]])
    for s in (1.5, 3.0, 4.0, 8.0):
        surf = LevelSurface.from_profile(pnorm_profile(s))
        t, pts, res, ok = surf.invert_normal_many(axes)
        assert np.array_equal(pts, [[1.0, 0.0], [0.0, 1.0]]), s
        assert np.array_equal(t, [0.0, np.pi / 2]), s
    t, pts, _, _ = RamosCurve().invert_normal_many(axes)
    assert np.array_equal(t, [0.0, np.pi])
    assert np.abs(pts - [[0.0, np.pi], [np.pi, 0.0]]).max() <= 1e-15


def test_closed_form_masks_directions_outside_quadrant():
    K = np.array([[1.0, 2.0], [-1.0, 2.0], [0.0, 0.0]])
    for name, surf in _closed_form_surfaces().items():
        t, pts, res, ok = surf.invert_normal_many(K)
        assert ok.tolist() == [True, False, False], name
        assert np.isnan(pts[1:]).all() and np.isnan(res[1:]).all(), name


def _ratio_case(dim=2, k_max=45, groups=9):
    K = kernels.primitive_directions(dim, k_max, force="numpy").astype(float)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, len(K))
    W = rng.uniform(0.0, 3.0, (groups, dim))
    return K, a, W


def test_extremal_ratios_against_bruteforce():
    K, a, W = _ratio_case()
    vals, idxs = kernels.extremal_ratios(K, a, W, True, force="numpy")
    R = (K @ W.T).T / a
    assert np.allclose(vals, R.max(axis=1), rtol=1e-14)
    vals_min, _ = kernels.extremal_ratios(K, a, W, False, force="numpy")
    assert np.allclose(vals_min, R.min(axis=1), rtol=1e-14)


def test_extremal_ratios_tie_breaks_lexicographically():
    # two entries achieve the same ratio; the earlier row must win
    K = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 1.0]])
    a = np.array([1.0, 2.0, 2.0])
    vals, idxs = kernels.extremal_ratios(K, a, np.array([[1.0, 1.0]]), True,
                                         force="numpy")
    assert vals[0] == pytest.approx(2.0)
    assert idxs[0] == 0


@needs_numba
def test_extremal_ratios_backend_bitwise():
    K, a, W = _ratio_case(k_max=60)
    for use_max in (True, False):
        v_nb, i_nb = kernels.extremal_ratios(K, a, W, use_max, force="numba")
        v_np, i_np = kernels.extremal_ratios(K, a, W, use_max, force="numpy")
        assert np.array_equal(v_nb, v_np)
        assert np.array_equal(i_nb, i_np)


def test_extremal_ratios_rejects_empty():
    with pytest.raises(ValueError):
        kernels.extremal_ratios(np.empty((0, 2)), np.empty(0),
                                np.array([[1.0, 1.0]]), True)


def test_force_argument_validation():
    K = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError):
        kernels.extremal_ratios(K, np.array([1.0]), K, True, force="cuda")


_SUBPROCESS_BODY = """
import numpy as np
from ebk import kernels, crosscheck_disk
assert kernels.active_backend() == "numpy"
K = kernels.primitive_directions(2, 12)
assert np.all(np.gcd(K[:, 0], K[:, 1]) == 1)
rep = crosscheck_disk(1, 2, k_max=60)
assert abs(rep.difference) < 1e-2, rep.difference
print("ok")
"""


def test_numpy_fallback_subprocess():
    env = dict(os.environ, EBK_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", _SUBPROCESS_BODY],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@needs_numba
def test_thread_cap_subprocess():
    env = dict(os.environ, EBK_THREADS="1")
    body = "from ebk import kernels; kernels.warmup(); print(kernels.active_backend())"
    out = subprocess.run([sys.executable, "-c", body],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numba"
