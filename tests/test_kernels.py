import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebk import (ConvergenceFailure, LevelSurface, RamosCurve, SurfaceActions, kernels,
                 marked_action_spectrum, pnorm_profile)
from ebk.quantize import extremal_levels, lattice_grid, variational_spectrum


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


@pytest.mark.parametrize("dim,k_max", [(2, 1), (2, 7), (2, 13), (2, 40), (3, 5),
                                       (3, 12)])
def test_primitive_directions_match_bruteforce(dim, k_max):
    got = kernels.primitive_directions(dim, k_max)
    assert np.array_equal(got, _brute_primitives(dim, k_max))
    assert got.dtype == np.int64 and got.flags.c_contiguous


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
    with pytest.raises(ValueError):
        _direction_chunks(2, 0, 100)


def _direction_chunks(dim, k_max, rows):
    """The sieve's chunked readout, each chunk's index columns stacked."""
    mask = kernels._sieve(dim, k_max)
    return [np.stack(cols, axis=1) for cols in kernels._slabs(mask, rows)]


@pytest.mark.parametrize("dim,k_max", [(2, 1), (2, 40), (2, 300), (3, 12)])
@pytest.mark.parametrize("rows", [1, 7, 500, 10**9])
def test_primitive_direction_chunks_concatenate_to_the_whole(dim, k_max, rows):
    whole = kernels.primitive_directions(dim, k_max)
    chunks = _direction_chunks(dim, k_max, rows)
    assert np.array_equal(np.concatenate(chunks), whole)
    firsts = [np.unique(c[:, 0]) for c in chunks]
    for chunk, first in zip(chunks, firsts):
        assert chunk.dtype == np.int64 and chunk.flags.c_contiguous
        # whole first-coordinate slabs, as many as fit in rows, at least one
        assert len(chunk) <= rows or len(first) == 1
    # slabs are never split between chunks
    assert np.array_equal(np.concatenate(firsts), np.arange(k_max + 1))
    if rows >= len(whole):
        assert len(chunks) == 1
    # slabs lo to hi alone, as absolute directions
    mask = kernels._sieve(dim, k_max)
    for lo, hi in ((0, 1), (1, k_max + 1), (k_max // 2, k_max // 2 + 2), (k_max, None)):
        part = [np.stack(cols, axis=1) for cols in kernels._slabs(mask, rows, lo, hi)]
        inside = (whole[:, 0] >= lo) & (whole[:, 0] < (k_max + 1 if hi is None else hi))
        assert np.array_equal(np.concatenate(part), whole[inside])


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
    K = kernels.primitive_directions(3, 30)
    for s in (1.5, 2.0, 3.0, 4.0, 8.0):
        surf = LevelSurface.from_profile(pnorm_profile(s, dimension=3))
        t, pts, res, ok = surf.invert_normal_many(K)
        assert ok.all(), s
        assert res.max() <= 1e-14, (s, res.max())


def test_closed_form_matches_bisect_generic():
    K = kernels.primitive_directions(2, 200)
    K = K[(K > 0).all(axis=1)].astype(float)
    targets = np.arctan2(K[:, 1], K[:, 0])
    for name, surf in _closed_form_surfaces().items():
        t = surf.invert_normal_many(K)[0]
        via_bisection = kernels.bisect_generic(surf.normal_angle, surf.param_lo,
                                               surf.param_hi, targets)
        assert np.abs(t - via_bisection).max() <= 1e-12, name


def _bisect_80_steps(angle_fn, lo, hi, targets, increasing=True):
    """bisect_generic before its early stop: every target takes all
    BISECT_ITERS steps."""
    sign = 1.0 if increasing else -1.0
    targets = sign * np.asarray(targets, dtype=float)
    a = np.full(targets.shape, float(lo))
    b = np.full(targets.shape, float(hi))
    for _ in range(kernels.BISECT_ITERS):
        mid = 0.5 * (a + b)
        right = sign * angle_fn(mid) < targets
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    return 0.5 * (a + b)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300),
       increasing=st.booleans(), hi=st.sampled_from([1.0, np.pi / 2, 3.0, 1e6]))
def test_bisection_stops_at_the_fixed_point_of_80_steps(seed, size, increasing, hi):
    # a target drops out once a step leaves both ends where they were; the
    # roots near 0 (down to subnormal) and the targets clamped below lo
    # still halve b on every step, and the targets clamped above hi settle
    rng = np.random.default_rng(seed)
    sign = 1.0 if increasing else -1.0

    def angle(t):
        return sign * np.arctan(t)

    roots = np.concatenate([rng.uniform(0.0, hi, size), [0.0, 5e-324, 1e-300, 1e-30, hi],
                            rng.uniform(0.0, 1e-20, 8)])
    targets = np.concatenate([angle(roots), sign * np.array([-1.0, -0.0, 2.0, 10.0])])
    targets = targets[rng.permutation(len(targets))]
    got = kernels.bisect_generic(angle, 0.0, hi, targets, increasing=increasing)
    want = _bisect_80_steps(angle, 0.0, hi, targets, increasing=increasing)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    grid = targets[:12].reshape(3, 4)   # the result takes the targets' shape
    assert np.array_equal(kernels.bisect_generic(angle, 0.0, hi, grid, increasing),
                          _bisect_80_steps(angle, 0.0, hi, grid, increasing))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 60), increasing=st.booleans())
def test_bisection_with_a_bracket_per_target_is_each_scalar_bracket(seed, size, increasing):
    # a target's steps read only its own ends, so a batch of brackets
    # bisects as the same brackets one call each; some targets lie outside
    # their bracket and clamp to an end
    rng = np.random.default_rng(seed)
    sign = 1.0 if increasing else -1.0

    def angle(t):
        return sign * np.arctan(t)

    ends = np.sort(rng.uniform(-3.0, 3.0, (size, 2)) * 10.0 ** rng.integers(-8, 4, (size, 1)),
                   axis=1)
    lo, hi = ends.T
    targets = angle(rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)))
    got = kernels.bisect_generic(angle, lo, hi, targets, increasing)
    want = np.concatenate([kernels.bisect_generic(angle, a, b, np.array([y]), increasing)
                           for a, b, y in zip(lo, hi, targets)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a scalar end broadcasts against the per-target other end
    got = kernels.bisect_generic(angle, lo.min(), hi, targets, increasing)
    want = np.concatenate([kernels.bisect_generic(angle, lo.min(), b, np.array([y]),
                                                  increasing)
                           for b, y in zip(hi, targets)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    for s in (1.5, 2.0, 3.0, 4.0, 8.0):
        surf = LevelSurface.from_profile(pnorm_profile(s, dimension=3))
        t, pts, res, ok = surf.invert_normal_many(np.eye(3, dtype=np.int64))
        assert ok.all() and np.array_equal(pts, np.eye(3)), s
        assert np.array_equal(res, np.zeros(3)), s


def test_closed_form_masks_directions_outside_quadrant():
    K = np.array([[1.0, 2.0], [-1.0, 2.0], [0.0, 0.0]])
    for name, surf in _closed_form_surfaces().items():
        t, pts, res, ok = surf.invert_normal_many(K)
        assert ok.tolist() == [True, False, False], name
        assert np.isnan(pts[1:]).all() and np.isnan(res[1:]).all(), name




def _full_scan(K, a, W, use_max):
    """Oracle: every entry for every weight row, in lexicographic order,
    ties within kernels.TIE_TOL of the extremum, relative."""
    K = np.ascontiguousarray(K, dtype=float)
    a = np.ascontiguousarray(a, dtype=float)
    W = np.ascontiguousarray(W, dtype=float)
    G = W.shape[0]
    dim = K.shape[1]
    vals = np.empty(G, dtype=float)
    idxs = np.empty(G, dtype=np.int64)
    for g in range(G):
        num = K[:, 0] * W[g, 0]
        for j in range(1, dim):
            num += K[:, j] * W[g, j]
        r = num / a
        best = r.max() if use_max else r.min()
        tol = kernels.TIE_TOL * abs(best)
        mask = (r >= best - tol) if use_max else (r <= best + tol)
        vals[g] = best
        idxs[g] = int(np.argmax(mask))
    return vals, idxs


def _assert_matches_full_scan(K, a, W, use_max):
    vals, idxs = kernels.extremal_ratios(K, a, W, use_max)
    ref_vals, ref_idxs = _full_scan(K, a, W, use_max)
    # bitwise, the sign of a zero included
    assert np.array_equal(vals.view(np.int64), ref_vals.view(np.int64))
    assert np.array_equal(idxs, ref_idxs)


def _ratio_case(dim=2, k_max=45, groups=9):
    K = kernels.primitive_directions(dim, k_max).astype(float)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, len(K))
    W = rng.uniform(0.0, 3.0, (groups, dim))
    return K, a, W


def _old_scan(cols, a, w, use_max):
    # the scan before it accumulated in place: three table-length temporaries
    num = cols[0] * w[0]
    for j in range(1, len(cols)):
        num += cols[j] * w[j]
    r = num / a
    best = r.max() if use_max else r.min()
    tol = kernels.TIE_TOL * abs(best)
    mask = (r >= best - tol) if use_max else (r <= best + tol)
    return best, int(np.argmax(mask))


@pytest.mark.parametrize("dim", [2, 3])
def test_scan_in_place_equals_the_temporaries(dim, monkeypatch):
    rng = np.random.default_rng(dim * 100)
    for trial in range(20):
        N = int(rng.integers(1, 200))
        K = rng.integers(-50, 50, size=(N, dim))
        # repeated rows and proportional actions make exact ties
        K[rng.integers(0, N, N // 3)] = K[0]
        a = rng.choice([0.5, 1.0, 2.0, -1.5, 3.0], N) * rng.integers(1, 3, N)
        if trial % 2:
            K = K.astype(float)
        cols = [K[:, j] for j in range(dim)]
        w = rng.uniform(-2.0, 2.0, dim)
        for use_max in (True, False):
            for tol in (0.0, 1e-12, 0.3):
                monkeypatch.setattr(kernels, "TIE_TOL", tol)
                got = kernels._scan(cols, a, w, use_max)
                want = _old_scan(cols, a, w, use_max)
                assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
                assert got[1] == want[1]


def test_scan_of_one_weight_row_holds_two_table_length_buffers():
    import tracemalloc
    rng = np.random.default_rng(9)
    N = 10 ** 6
    K = rng.integers(0, 1000, size=(N, 2))
    a = rng.uniform(0.5, 2.0, N)
    W = np.array([[0.3, 0.7]])
    kernels.extremal_ratios(K, a, W, False)
    tracemalloc.start()
    try:
        kernels.extremal_ratios(K, a, W, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # num and one product (8 bytes a row each); dividing into a third
    # buffer beside num took 17 with the tie mask
    assert peak < 16.5 * N


def test_extremal_ratios_against_bruteforce():
    K, a, W = _ratio_case()
    vals, idxs = kernels.extremal_ratios(K, a, W, True)
    R = (K @ W.T).T / a
    assert np.allclose(vals, R.max(axis=1), rtol=1e-14)
    vals_min, _ = kernels.extremal_ratios(K, a, W, False)
    assert np.allclose(vals_min, R.min(axis=1), rtol=1e-14)


def test_extremal_ratios_tie_breaks_lexicographically():
    # two entries achieve the same ratio; the earlier row must win
    K = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 1.0]])
    a = np.array([1.0, 2.0, 2.0])
    vals, idxs = kernels.extremal_ratios(K, a, np.array([[1.0, 1.0]]), True)
    assert vals[0] == pytest.approx(2.0)
    assert idxs[0] == 0


def test_extremal_ratios_rejects_empty():
    with pytest.raises(ValueError):
        kernels.extremal_ratios(np.empty((0, 2)), np.empty(0),
                                np.array([[1.0, 1.0]]), True)


@pytest.mark.parametrize("K,a,W", [
    ([[1.0, np.nan]], [1.0], [[1.0, 1.0]]),
    ([[1.0, 1.0]], [np.inf], [[1.0, 1.0]]),
    ([[1.0, 1.0]], [1.0], [[-np.inf, 1.0]]),
    ([[1.0, 1.0]], [0.0], [[1.0, 1.0]]),
])
def test_extremal_ratios_rejects_nonfinite_and_zero_actions(K, a, W):
    with pytest.raises(ValueError):
        kernels.extremal_ratios(np.array(K), np.array(a), np.array(W), True)


def _cloud(kind, K, rng):
    """Actions for the directions K, by kind of test cloud."""
    Kf = K.astype(float)
    if kind == "convex":   # pnorm-like: a(k) = ||k||_q
        q = rng.uniform(1.2, 8.0)
        return (np.abs(Kf) ** q).sum(axis=1) ** (1.0 / q)
    if kind == "random":
        return rng.uniform(0.1, 3.0, len(K))
    if kind == "quantized":   # few distinct values: many exact ties
        return rng.integers(1, 5, len(K)) / 4.0
    # mixed signs
    return rng.uniform(0.2, 2.0, len(K)) * rng.choice([-1.0, 1.0], len(K))


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([2, 2, 2, 3]),
       k_max=st.integers(1, 60),
       groups=st.integers(1, 80),
       kind=st.sampled_from(["convex", "random", "quantized", "mixed"]),
       weights=st.sampled_from(["uniform", "integer", "lattice"]),
       signed_k=st.booleans(),
       float_k=st.booleans(),
       tie_tol=st.sampled_from([1e-12, 0.0, 1e-6, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_extremal_ratios_equal_full_scan(dim, k_max, groups, kind, weights,
                                         signed_k, float_k, tie_tol, seed):
    rng = np.random.default_rng(seed)
    K = kernels.primitive_directions(dim, k_max if dim == 2 else min(k_max, 8))
    if signed_k:
        K = K * rng.choice([-1, 1], K.shape)
    a = _cloud(kind, K, rng)
    if weights == "uniform":
        W = rng.uniform(-2.0, 3.0, (groups, dim))
    elif weights == "integer":
        W = rng.integers(-3, 6, (groups, dim)).astype(float)
    else:   # the variational route's hbar (m + mu) rows, m = 0 included
        W = 0.5 * (rng.integers(0, 12, (groups, dim)) + rng.choice([0.0, 0.25]))
    W[rng.random(groups) < 0.1] = 0.0
    if float_k:
        K = K.astype(float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "TIE_TOL", tie_tol)
        for use_max in (True, False):
            _assert_matches_full_scan(K, a, W, use_max)


@pytest.mark.parametrize("surface", [LevelSurface.from_profile(pnorm_profile(4.0)),
                                     RamosCurve()], ids=["pnorm4", "ramos"])
def test_extremal_ratios_equal_full_scan_on_action_tables(surface):
    spec = marked_action_spectrum(surface, 120)
    m = np.indices((20, 20)).reshape(2, -1).T
    for W in (m.astype(float), m + 0.25):
        for use_max in (True, False):
            _assert_matches_full_scan(spec.directions, spec.actions, W, use_max)


def _counting_ratio(monkeypatch):
    """The number of entries kernels._ratio sees from here on, in a list."""
    seen, ratio = [0], kernels._ratio

    def counting(cols, a, w):
        r = ratio(cols, a, w)
        seen[0] += r.size
        return r

    monkeypatch.setattr(kernels, "_ratio", counting)
    return seen


def test_extremal_ratios_prunes(monkeypatch):
    # the walk reads a few entries around each row's peak, not the table
    spec = marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(4.0)), 120)
    W = np.indices((20, 20)).reshape(2, -1).T + 0.5
    seen = _counting_ratio(monkeypatch)
    kernels.extremal_ratios(spec.directions, spec.actions, W, True)
    assert 0 < seen[0] < 0.1 * len(W) * len(spec)


# walk caps that leave every row, some rows and (nearly) no row to the fallback
WALK_CAPS = [0, 1, 3, kernels.FAREY_WALK_CAP]


def _walked_table(kind, s, k_max):
    """An action table the walk takes, and its orientation's extremum."""
    if kind == "disk":
        return marked_action_spectrum(RamosCurve(), k_max), False
    surface = LevelSurface.from_profile(pnorm_profile(s))
    if kind != "pnorm":   # a spline through 57 points of the whole arc or of part
        # where the fit keeps its normal angle monotone (test_surfaces.SPLINE_ARCS)
        top = 3.5 if kind == "full-arc" else 4.0
        curve = LevelSurface.from_profile(pnorm_profile(min(max(s, 1.5), top)))
        lo, hi = (curve.param_lo, curve.param_hi) if kind == "full-arc" else (0.2, 1.3)
        surface = LevelSurface.from_points(curve.point(np.linspace(lo, hi, 57)))
    return marked_action_spectrum(surface, k_max), True


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["pnorm", "pnorm", "disk", "full-arc", "partial-arc"]),
       s=st.floats(1.05, 40.0),
       k_max=st.integers(4, 150),
       m_max=st.integers(5, 12),
       shift=st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 0.75])] * 2),
       zero_rows=st.integers(0, 2),
       tie_tol=st.sampled_from([0.0, 1e-12, 1e-6, 0.3]),
       cap=st.sampled_from(WALK_CAPS))
def test_angle_walk_equals_full_scan(kind, s, k_max, m_max, shift, zero_rows, tie_tol, cap):
    spec, use_max = _walked_table(kind, s, k_max)
    W = lattice_grid(2, m_max) + shift
    W = np.concatenate([np.zeros((zero_rows, 2)), W])
    assert kernels._angle_order(spec.directions, spec.actions, use_max, len(W)) is not None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "TIE_TOL", tie_tol)
        patch.setattr(kernels, "FAREY_WALK_CAP", cap)
        _assert_matches_full_scan(spec.directions, spec.actions, W, use_max)


@pytest.mark.parametrize("kind", ["pnorm", "disk"])
def test_perturbed_tables_scan_or_still_agree(kind, monkeypatch):
    # a table off its curve either fails the shape check, and every row
    # scans, or still walks to the scan's bytes
    spec, use_max = _walked_table(kind, 4.0, 60)
    W = lattice_grid(2, 8) + 0.25
    scans, scan = [0], kernels._scan

    def counting(*args):
        scans[0] += 1
        return scan(*args)

    monkeypatch.setattr(kernels, "_scan", counting)
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(60):
        K, a = spec.directions, spec.actions.copy()
        i, j = rng.choice(len(a), 2, replace=False)
        how = trial % 4
        if how == 0:
            a[i], a[j] = a[j], a[i]
        elif how == 1:
            a[i] = a[i] * (1.0 + rng.choice([-1e-9, 1e-9]))
        elif how == 2:
            for _ in range(int(rng.integers(1, 4))):
                a[i] = np.nextafter(a[i], np.inf if rng.random() < 0.5 else 0.0)
        else:
            keep = rng.random(len(a)) > rng.uniform(0.05, 0.9)
            K, a = K[keep], a[keep]
        scans[0] = 0
        _assert_matches_full_scan(K, a, W, use_max)
        assert scans[0] in (0, len(W))
        outcomes.add((how, scans[0] == 0))
    # swaps break the shape; drops keep it, and so do nudges this small
    # beside the chord gaps of a table this coarse
    assert {(0, False), (1, True), (2, True), (3, True)} <= outcomes


@pytest.mark.parametrize("use_max", [True, False], ids=["sup", "inf"])
def test_long_shallow_bend_fails_the_shape_check(use_max):
    # each action lies 4 ulps past the chord of its neighbours, within a
    # check of neighbouring entries, but the bends add up to a valley about
    # 1e-11 deep between the two rims of rows along (1, 1), and a walk from
    # one rim stops before the other
    i = np.arange(201)
    K = np.stack([200 - i, i], axis=1)[::-1]   # lex order
    t = K[:, 1] / 200.0
    sgn = 1.0 if use_max else -1.0
    a = 200.0 * (1.0 + sgn * 4 * 2.0 ** -52 * 200 ** 2 * t * (1 - t))
    W = np.stack([np.ones(40), 1.0 + np.linspace(-1e-13, 1e-13, 40)], axis=1)
    assert kernels._angle_order(K, a, use_max, len(W)) is None
    _assert_matches_full_scan(K, a, W, use_max)


@settings(max_examples=60, deadline=None)
@given(k_max=st.integers(3, 90),
       ulps=st.integers(0, 3),
       bend=st.sampled_from([0.0, 4.0, 1e4, 6e4]),
       tilt=st.sampled_from([-0.5, 0.0, 0.5]),
       use_max=st.booleans(),
       tie_tol=st.sampled_from([0.0, 1e-12]),
       seed=st.integers(0, 2**32 - 1))
def test_noisy_flat_tables_agree_with_the_scan(k_max, ulps, bend, tilt, use_max,
                                               tie_tol, seed):
    # a = |k|_1 is flat along the angle: few-ulp noise on it and a shallow
    # bend of either sign across the quadrant leave ratios that tie or
    # almost tie over long runs, and valleys between two rims deeper than
    # the walk's margin; walked or scanned, the bytes are the scan's
    rng = np.random.default_rng(seed)
    K = kernels.primitive_directions(2, k_max)
    t = K[:, 1] / K.sum(axis=1)
    noise = rng.integers(-ulps, ulps + 1, len(K)) \
        + bend * rng.choice([-1, 1]) * t * (1 - t) * (1 + tilt * t)
    a = K.sum(axis=1) * (1.0 + 2.0 ** -52 * noise)
    W = lattice_grid(2, 6) + rng.choice([0.0, 0.25, 0.5], 2)
    W = np.concatenate([W, np.stack([np.ones(9), 1.0 + np.linspace(-2e-12, 2e-12, 9)], 1)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "TIE_TOL", tie_tol)
        _assert_matches_full_scan(K, a, W, use_max)


# --- the lattice search, with the table for the rows it leaves ---

def _assert_matches_table(surface, k_max, W, use_max, cap=kernels.FAREY_WALK_CAP):
    """The search then the table (quantize.extremal_levels), both walking
    at most `cap` steps a side, against extremal_ratios on the action table
    at the default cap: values bitwise, the sign of a zero included, and
    argmax directions; and the chords against those of the table's points,
    bitwise."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "FAREY_WALK_CAP", cap)
        got = extremal_levels(SurfaceActions(surface, k_max), W, use_max)
    spec = marked_action_spectrum(surface, k_max)
    vals, idx = kernels.extremal_ratios(spec.directions, spec.actions, W, use_max)
    assert np.array_equal(got[0].view(np.int64), vals.view(np.int64))
    assert np.array_equal(got[1], spec.directions[idx])
    chords = kernels.table_chords(spec.points, W, use_max)
    assert np.array_equal(got[2].view(np.int64), chords.view(np.int64))
    return got[:2]


def _searched_surface(s):
    """The searched curve and its orientation's extremum: pnorm:s (sup) or
    the disk's boundary curve (inf)."""
    if s == "disk":
        return RamosCurve(), False
    return LevelSurface.from_profile(pnorm_profile(s)), True


# each example builds the whole table: the drawn boxes stay at or below 1,500,
# and the two examples pin a 3,000 box for each orientation
@settings(max_examples=30, deadline=None)
@given(s=st.one_of(st.floats(1.05, 40.0), st.just("disk")),
       shift=st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 0.75])] * 2),
       k_max=st.integers(4, 1500),
       m_max=st.integers(0, 64),
       rows=st.integers(1, 48),
       zero_rows=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1),
       tie_tol=st.sampled_from([0.0, 1e-12, 1e-12, 1e-6, 0.3]),
       cap=st.sampled_from(WALK_CAPS))
@example(s=1.05, shift=(0.25, 0.5), k_max=3000, m_max=64, rows=48, zero_rows=1, seed=1,
         tie_tol=1e-12, cap=kernels.FAREY_WALK_CAP)
@example(s="disk", shift=(0.75, 0.0), k_max=3000, m_max=64, rows=48, zero_rows=2, seed=2,
         tie_tol=1e-12, cap=kernels.FAREY_WALK_CAP)
def test_lattice_extremum_equals_the_table_scan(s, shift, k_max, m_max, rows,
                                                zero_rows, seed, tie_tol, cap):
    # the search's values are its Farey pair's, so a cap shows in the ties
    rng = np.random.default_rng(seed)
    grid = lattice_grid(2, m_max)
    W = grid[rng.choice(len(grid), size=min(rows, len(grid)), replace=False)] + shift
    W = np.concatenate([W, np.zeros((zero_rows, 2))])[rng.permutation(len(W) + zero_rows)]
    surface, use_max = _searched_surface(s)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "TIE_TOL", tie_tol)
        _assert_matches_table(surface, k_max, W, use_max, cap)


def test_lattice_extremum_disk_axis_rays_take_the_edge_term():
    # the dropped axis direction (1, 0) sits beside the inf on these rays
    vals, args = _assert_matches_table(RamosCurve(), 2000, np.array([[0.0, 2.0],
                                                                      [0.0, 4.0]]),
                                       use_max=False)
    assert args.tolist() == [[2000, 1], [2000, 1]]


@pytest.mark.parametrize("surface,use_max,first", [
    (LevelSurface.from_profile(pnorm_profile(4.0)), True, [0, 1]),
    (RamosCurve(), False, [1, 1]),
], ids=["pnorm4", "disk"])
def test_lattice_extremum_zero_row_takes_the_first_kept_direction(surface, use_max, first):
    W = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    vals, args = _assert_matches_table(surface, 50, W, use_max)
    assert vals[0] == 0.0 and not np.signbit(vals[0])
    assert args[0].tolist() == first and args[2].tolist() == first


def test_lattice_extremum_tied_axis_side_falls_back_to_the_table(monkeypatch):
    # pnorm:1.05 is nearly flat beside the axis: every direction (j, k_max)
    # with small j ties the ratio at m = (0, 1), past the walk's bound
    calls = []
    scan = kernels.extremal_ratios

    def counting(K, a, W, *rest):
        calls.append(len(W))
        return scan(K, a, W, *rest)

    monkeypatch.setattr(kernels, "extremal_ratios", counting)
    surface = LevelSurface.from_profile(pnorm_profile(1.05))
    W = np.array([[0.0, 1.0], [1.0, 1.0]])
    t0 = time.perf_counter()
    got = extremal_levels(SurfaceActions(surface, 2000), W, True)
    assert time.perf_counter() - t0 < 30.0
    assert calls == [1]   # only the tied row scans a table
    monkeypatch.setattr(kernels, "extremal_ratios", scan)
    spec = marked_action_spectrum(surface, 2000)
    vals, idx = scan(spec.directions, spec.actions, W, True)
    assert np.array_equal(got[0].view(np.int64), vals.view(np.int64))
    assert np.array_equal(got[1], spec.directions[idx])


def test_lattice_extremum_wide_tie_window_takes_the_table(monkeypatch):
    # a window of 30% spans more Farey terms than the walk visits on a side
    monkeypatch.setattr(kernels, "TIE_TOL", 0.3)
    calls = []
    scan = kernels.extremal_ratios

    def counting(K, a, W, *rest):
        calls.append(len(W))
        return scan(K, a, W, *rest)

    monkeypatch.setattr(kernels, "extremal_ratios", counting)
    W = lattice_grid(2, 12) + 0.5
    _assert_matches_table(LevelSurface.from_profile(pnorm_profile(4.0)), 200, W, True)
    assert calls[0] > 0   # the rows still walking scanned the table


def test_lattice_extremum_raises_where_the_table_does():
    # pnorm:1.01 underflows k^100 beside the axis, and the descent of the
    # axis rows meets those directions
    actions = SurfaceActions(LevelSurface.from_profile(pnorm_profile(1.01)), 2000)
    with pytest.raises(ConvergenceFailure):
        extremal_levels(actions, lattice_grid(2, 2).astype(float), True)


def test_lattice_extremum_without_kept_directions_is_none():
    def nothing(K):
        return np.full(K.shape, np.nan), np.full(len(K), np.nan), np.zeros(len(K), bool)

    assert kernels.lattice_search(nothing, np.ones((3, 2)), 20, True) is None


@pytest.mark.parametrize("W,k_max", [
    (np.array([[-1.0, 1.0]]), 10),
    (np.array([[np.nan, 1.0]]), 10),
    (np.ones((2, 3)), 10),
    (np.ones((2, 2)), 0),
])
def test_lattice_extremum_validates(W, k_max):
    invert = SurfaceActions(RamosCurve(), 10).invert
    with pytest.raises(ValueError):
        kernels.lattice_search(invert, W, k_max, False)


@settings(max_examples=20, deadline=None)
@given(s=st.one_of(st.floats(1.5, 40.0), st.just("disk")),
       shift=st.tuples(*[st.sampled_from([0.0, 0.25, 0.5])] * 2),
       k_max=st.integers(4, 400),
       m_max=st.integers(0, 16),
       j=st.integers(-40, 20),
       hbar=st.sampled_from([1e-9, 1e-3, 0.3, 7.0, 1e3]))
def test_argmax_does_not_depend_on_the_unit_of_hbar(s, shift, k_max, m_max, j, hbar):
    # the ratio is 1-homogeneous in the weight, and so is the tie window:
    # scaling hbar by 2**j scales every ratio exactly, and any other factor
    # moves the ratios by rounding only, far inside the window
    surface, _ = _searched_surface(s)
    actions = SurfaceActions(surface, k_max)
    unit = variational_spectrum(actions, m_max, shift=shift)
    scaled = variational_spectrum(actions, m_max, hbar=2.0 ** j, shift=shift)
    assert np.array_equal(scaled.energies, 2.0 ** j * unit.energies)
    assert np.array_equal(scaled.error_bound, 2.0 ** j * unit.error_bound, equal_nan=True)
    assert np.array_equal(scaled.argext, unit.argext)
    other = variational_spectrum(actions, m_max, hbar=hbar, shift=shift)
    assert np.array_equal(other.argext, unit.argext)


@settings(max_examples=25, deadline=None)
@given(s=st.one_of(st.floats(1.5, 40.0), st.just("disk")),
       shift=st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 0.75])] * 2),
       hbar=st.sampled_from([1e-9, 1.0, 1e3]),
       k_max=st.integers(4, 400),
       m_max=st.integers(0, 64))
def test_lattice_search_leaves_no_row_to_the_table(s, shift, hbar, k_max, m_max):
    # the relative window at hbar 1e-9 is as narrow as at hbar 1; pnorm
    # flatter than s = 1.5 can still tie the axis rows past the walk
    surface, use_max = _searched_surface(s)
    W = hbar * (lattice_grid(2, m_max) + shift)
    found = kernels.lattice_search(SurfaceActions(surface, k_max).invert, W, k_max, use_max)
    assert found is None or found[2].size == 0


def test_variational_spectrum_descends_once(monkeypatch):
    calls = {"_bracket": 0, "_descend": 0}
    for name in calls:
        def spy(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernels, name, spy)
    actions = SurfaceActions(LevelSurface.from_profile(pnorm_profile(4.0)), 100)
    spectrum = variational_spectrum(actions, 8, shift=(0.5, 0.5))
    assert np.isfinite(spectrum.error_bound).all()   # every row has its chord
    assert calls == {"_bracket": 1, "_descend": 1}


def test_lattice_search_validates_boxes():
    invert = SurfaceActions(RamosCurve(), 10).invert
    for k_max in (0, -3):
        with pytest.raises(ValueError):
            kernels.lattice_search(invert, np.ones((2, 2)), k_max, False)


def test_bench_kernels_rows_run(bench_kernels, monkeypatch, capsys):
    # every row of the kernel benchmark at toy sizes, so a renamed API fails here
    bench = bench_kernels
    for name, value in (("K_MAX_ENUM", 20), ("K_MAX_INVERT", 20),
                        ("K_MAX_RATIOS", 30), ("M_MAX_RATIOS", 8),
                        ("FLAT_RATIOS", ((1.5, 40), (1.05, 30))), ("M_MAX_FLAT", 6),
                        ("K_MAX_TABLE", 20), ("K_MAX_BUILD", 20),
                        ("K_MAX_RECONSTRUCT", 20)):
        monkeypatch.setattr(bench, name, value)
    # a crosscheck sieve this small halves only in chunks this small
    monkeypatch.setattr(bench.actions_module, "CHUNK_ROWS", 64)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    bench.main()
    out = capsys.readouterr().out
    assert "primitive_directions(2, 20)" in out
    assert "_slabs(_sieve(2, 20), 16384)" in out
    assert "lattice extremum(pnorm:4, 81 rows, k_max 30)" in out
    assert "lattice extremum(pnorm:4 hbar 1e-9, 81 rows, k_max 30)" in out
    assert "lattice extremum(ramos, 1 rows, k_max 20)" in out
    assert "search and bracket(pnorm:4, 81 rows, k_max 30)" in out
    assert "brackets hold: True" in out
    assert "crosscheck(ramos, k_max 20) time" in out
    assert "crosscheck(ramos, k_max 20) peak" in out
    assert "crosscheck(ramos, k_max 20) 65536-row chunks" in out
    assert "16384-row chunks      65536-row chunks" in out
    assert "crosscheck(ramos, k_max 20) stream" in out and forks
    for name in ("pnorm:4 30/8", "pnorm:40 30/8 mu 1/2", "disk 30/8 mu 3/4",
                 "spline arc 30/8", "pnorm:1.5 40/6", "pnorm:1.05 30/6"):
        assert f"reduction({name}, " in out
    assert out.count("walked: True") == 6
    assert out.count("identical: True") == 17
    assert "inversion(pnorm:4" in out
    assert "action table(pnorm:3" in out and "identical: False" not in out
    assert "action table(ramos" in out and "action table(harmonic:1,2, 1 rows)" in out
    assert "spline fit(" in out and "spline refit(" in out
    assert "spline solve(" in out and "max rel difference: " in out
    assert "hypersurface_transform(" in out
    assert "action table(pnorm:3, 257 rows) from_csv" in out
    assert "hausdorff_distance(4096 x 4096" in out and out.count(" MB") == 26
    assert "build_parser + parse, cold" in out
