"""The action table's column arithmetic against a frozen copy of the
row-wise formulas it replaced.

The frozen functions below are the table's arithmetic as it was written on
(N, n) rows: the closed-form inversion, its residual, the disk's normal map
and the kept actions (with the zero-action test scaled by the surface's
size, LevelSurface.end_norm, as the table now scales it). The column code must give the same points, actions,
kept mask and residuals, bit for bit, for directions in either memory
layout the table hands it (the stream's contiguous columns and the
search's transposed rows).
"""
import functools
import itertools
import math

import numpy as np
import pytest

from ebk import LevelSurface, RamosCurve, linear_profile, pnorm_profile
from ebk.actions import NORMAL_RESIDUAL_TOL, ZERO_ACTION_TOL, _kept_actions, _table_rows


def frozen_normal_residuals(normals, K):
    n = [normals[:, j] for j in range(normals.shape[1])]
    k = [K[:, j] for j in range(K.shape[1])]
    cross = functools.reduce(np.maximum, (
        np.abs(n[i] * k[j] - n[j] * k[i])
        for i, j in itertools.combinations(range(len(n)), 2)))
    return cross / (functools.reduce(np.hypot, n) * functools.reduce(np.hypot, k))


def frozen_ramos_map(K):
    a1, a2 = K[:, 0], K[:, 1]
    a = math.pi * a2 / (a1 + a2)
    s, c = np.sin(a), np.cos(a)
    b = math.pi - a
    norm = np.sqrt(b * b + a * a)
    return (a, np.stack([s - a * c, s + (math.pi - a) * c], axis=-1),
            np.stack([b / norm, a / norm], axis=-1))


def frozen_profile_map(profile):
    def normal_map(K):
        p = profile.inverse_gauss_fn(K)
        t = np.arctan2(p[:, 1], p[:, 0])
        if profile.dimension == 3:
            t = np.stack([t, np.arctan2(np.hypot(p[:, 0], p[:, 1]), p[:, 2])], axis=-1)
        return t, p, profile.gradient(p)
    return normal_map


def frozen_invert_normal_many(surface, normal_map, directions):
    K = np.asarray(directions, dtype=float)
    if normal_map is None:
        t, points, normals, attained = surface._bisect_normal_many(K)
    else:
        cols = [K[:, j] for j in range(K.shape[1])]
        attained = ((functools.reduce(np.minimum, cols) >= 0)
                    & (functools.reduce(np.maximum, cols) > 0))
        if not attained.all():
            K = np.where(attained[:, None], K, np.nan)
        t, points, normals = normal_map(K)
        attained &= functools.reduce(np.logical_and, map(np.isfinite, points.T))
    return t, points, frozen_normal_residuals(normals, K), attained


def frozen_table_rows(surface, normal_map, K):
    """(points, actions, keep, residuals) of the C-contiguous int64 rows K."""
    _, pts, res, attained = frozen_invert_normal_many(surface, normal_map, K)
    Kf = K.astype(float)
    # the table's zero shift, which the rows once added to the points; the
    # products summed in coordinate order
    P = pts + 0.0
    acts = functools.reduce(np.add, (P[:, j] * Kf[:, j] for j in range(Kf.shape[1])))
    keep = np.abs(acts) > ZERO_ACTION_TOL * surface.end_norm * np.linalg.norm(Kf, axis=1)
    return pts, acts, keep & attained, res, attained


def _spline_arc():
    t = np.linspace(0.01, 1.2, 40)
    u = np.stack([np.cos(t), np.sin(t)], axis=1)
    return LevelSurface.from_points(u / ((u ** 1.5).sum(axis=1) ** (1 / 1.5))[:, None])


def _profile_case(profile):
    return lambda: (LevelSurface.from_profile(profile), frozen_profile_map(profile))


CASES = {
    "pnorm:1.05": _profile_case(pnorm_profile(1.05)),
    "pnorm:3": _profile_case(pnorm_profile(3.0)),
    "pnorm:40": _profile_case(pnorm_profile(40.0)),
    "circle": _profile_case(pnorm_profile(2.0)),
    "harmonic:1,2": _profile_case(linear_profile((1.0, 2.0))),
    "ramos": lambda: (RamosCurve(), frozen_ramos_map),
    "pnorm:3-3d": _profile_case(pnorm_profile(3.0, dimension=3)),
    "pnorm:1.5-3d": _profile_case(pnorm_profile(1.5, dimension=3)),
    "spline": lambda: (_spline_arc(), None),
}


def _directions(n, seed):
    """Random int64 directions in a box of random size, with every axis
    row, rows on the faces and a zero row, in C order."""
    rng = np.random.default_rng(seed)
    k_max = int(rng.choice([3, 40, 2000, 10 ** 6]))
    K = rng.integers(0, k_max + 1, size=(3000, n))
    K[rng.random(K.shape) < 0.05] = 0
    return np.concatenate([np.eye(n, dtype=np.int64), K, np.zeros((1, n), np.int64)])


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", CASES)
def test_column_arithmetic_is_the_row_arithmetic_bitwise(name, seed):
    surface, normal_map = CASES[name]()
    K = _directions(surface.dimension, seed)
    want_p, want_a, want_keep, want_res, attained = frozen_table_rows(surface, normal_map, K)
    # the stream's contiguous float columns and the search's transposed rows
    for cols in (np.array(K.T, dtype=float), K.T.astype(float)):
        pts, acts, keep, failed = _table_rows(surface, cols)
        assert _same(np.asarray(pts), want_p), name
        assert np.array_equal(keep, want_keep), name
        assert np.array_equal(acts[keep].view(np.int64), want_a[keep].view(np.int64)), name
        assert failed == np.count_nonzero(attained & ~(want_res <= NORMAL_RESIDUAL_TOL))
        _, _, res, ok = surface.invert_normal_many(cols.T)
        assert _same(res, want_res) and np.array_equal(ok, attained), name


@pytest.mark.parametrize("seed", range(3))
def test_3d_actions_are_the_coordinate_order_sum_in_any_layout(seed):
    # p0 k0 + p1 k1 + p2 k2, left to right, whatever the layout of either
    rng = np.random.default_rng(seed)
    K = rng.integers(0, 10 ** 6, size=(3, 5000)).astype(float)
    P = rng.uniform(0.0, 2.0, size=(5000, 3))
    want = P[:, 0] * K[0] + P[:, 1] * K[1] + P[:, 2] * K[2]
    for cols in (K, np.asfortranarray(K)):
        for pts in (P, np.asfortranarray(P)):
            acts = _kept_actions(cols, pts, 1.0)[0]
            assert np.array_equal(acts.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", CASES)
def test_inversion_of_float_rows_is_the_row_arithmetic_bitwise(name):
    # invert_normal_many on real directions, C and F ordered, negative and
    # zero rows included
    surface, normal_map = CASES[name]()
    rng = np.random.default_rng(11)
    K = rng.uniform(-0.2, 3.0, size=(2000, surface.dimension))
    K[rng.random(K.shape) < 0.05] = 0.0
    want = frozen_invert_normal_many(surface, normal_map, K)
    for layout in (K, np.asfortranarray(K)):
        got = surface.invert_normal_many(layout)
        for g, w in zip(got, want):
            assert _same(np.asarray(g), w), name
