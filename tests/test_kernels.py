import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebk import (ConvergenceFailure, LevelSurface, RamosCurve, SurfaceActions, kernels,
                 marked_action_spectrum, pnorm_profile)
from ebk.quantize import lattice_grid, variational_spectrum


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


def _old_scan(cols, a, w, use_max, order):
    # the scan before it accumulated in place: three table-length temporaries
    num = cols[0] * w[0]
    for j in range(1, len(cols)):
        num += cols[j] * w[j]
    r = num / a
    best = r.max() if use_max else r.min()
    tol = kernels.TIE_TOL * abs(best)
    mask = (r >= best - tol) if use_max else (r <= best + tol)
    if order is None:
        return best, int(np.argmax(mask))
    return best, int(order[mask].min())


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
        order = rng.permutation(N) if trial % 3 == 0 else None
        for use_max in (True, False):
            for tol in (0.0, 1e-12, 0.3):
                monkeypatch.setattr(kernels, "TIE_TOL", tol)
                got = kernels._scan(cols, a, w, use_max, order)
                want = _old_scan(cols, a, w, use_max, order)
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


def test_extremal_ratios_prunes(monkeypatch):
    spec = marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(4.0)), 120)
    W = np.indices((20, 20)).reshape(2, -1).T + 0.5
    scanned = []
    scan = kernels._scan

    def counting_scan(cols, a, *rest):
        scanned.append(len(a))
        return scan(cols, a, *rest)

    monkeypatch.setattr(kernels, "_scan", counting_scan)
    kernels.extremal_ratios(spec.directions, spec.actions, W, True)
    assert len(scanned) == len(W)
    assert sum(scanned) < 0.1 * len(W) * len(spec)


# --- the lattice search, with the table for the rows it leaves ---

def lattice_extremum(actions, W, use_max):
    """extremal_ratios over actions.table() (marked_action_spectrum at
    actions.k_max), as the variational route reduces one level:
    kernels.lattice_search settles the rows it can, and the table scan the
    rows it leaves. None when the table would be empty. actions needs
    invert and k_max, and table() only when the search leaves rows."""
    W = np.ascontiguousarray(W, dtype=float)
    found = kernels.lattice_search(actions.invert, W, (actions.k_max,), use_max)[0]
    if found is None:
        return None
    vals, args, rest = found
    if rest.size:
        spec = actions.table()
        vals[rest], idx = kernels.extremal_ratios(spec.directions, spec.actions,
                                                  W[rest], use_max)
        args[rest] = spec.directions[idx]
    return vals, args


def _assert_matches_table(surface, k_max, W, use_max):
    """lattice_extremum against extremal_ratios on the action table:
    values bitwise, the sign of a zero included, and argmax directions."""
    got = lattice_extremum(SurfaceActions(surface, k_max), W, use_max)
    spec = marked_action_spectrum(surface, k_max)
    vals, idx = kernels.extremal_ratios(spec.directions, spec.actions, W, use_max)
    assert np.array_equal(got[0].view(np.int64), vals.view(np.int64))
    assert np.array_equal(got[1], spec.directions[idx])
    return got


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
       seed=st.integers(0, 2**32 - 1))
@example(s=1.05, shift=(0.25, 0.5), k_max=3000, m_max=64, rows=48, zero_rows=1, seed=1)
@example(s="disk", shift=(0.75, 0.0), k_max=3000, m_max=64, rows=48, zero_rows=2, seed=2)
def test_lattice_extremum_equals_the_table_scan(s, shift, k_max, m_max, rows,
                                                zero_rows, seed):
    rng = np.random.default_rng(seed)
    grid = lattice_grid(2, m_max)
    W = grid[rng.choice(len(grid), size=min(rows, len(grid)), replace=False)] + shift
    W = np.concatenate([W, np.zeros((zero_rows, 2))])[rng.permutation(len(W) + zero_rows)]
    surface, use_max = _searched_surface(s)
    _assert_matches_table(surface, k_max, W, use_max)


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
    got = lattice_extremum(SurfaceActions(surface, 2000), W, True)
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
        lattice_extremum(actions, lattice_grid(2, 2).astype(float), True)


def test_lattice_extremum_without_kept_directions_is_none():
    def nothing(K):
        return np.full(K.shape, np.nan), np.full(len(K), np.nan), np.zeros(len(K), bool)

    assert lattice_extremum(SimpleNamespace(invert=nothing, k_max=20), np.ones((3, 2)),
                            True) is None


@pytest.mark.parametrize("W,k_max", [
    (np.array([[-1.0, 1.0]]), 10),
    (np.array([[np.nan, 1.0]]), 10),
    (np.ones((2, 3)), 10),
    (np.ones((2, 2)), 0),
])
def test_lattice_extremum_validates(W, k_max):
    actions = SimpleNamespace(invert=SurfaceActions(RamosCurve(), 10).invert, k_max=k_max)
    with pytest.raises(ValueError):
        lattice_extremum(actions, W, False)


def _farey_terms(k_max):
    """The primitive directions of the box [0, k_max]^2 in angle order,
    (1, 0) first and (0, 1) last."""
    K = kernels.primitive_directions(2, k_max)
    K = K[np.argsort(np.arctan2(K[:, 1], K[:, 0]))]
    assert (K[:-1, 0] * K[1:, 1] - K[:-1, 1] * K[1:, 0] == 1).all()   # consecutive
    return K


def _terms_around(K, M):
    """The terms of K (one box, in angle order) just before and just after
    M, which is no term of K; every cross product is exact."""
    before = K[:, 0] * M[1] - K[:, 1] * M[0] > 0
    j = int(np.count_nonzero(before))
    assert before[:j].all() and not before[j:].any()
    return K[j - 1], K[j]


@settings(max_examples=40, deadline=None)
@given(k_max=st.integers(1, 400), b=st.one_of(st.integers(1, 63), st.integers(1, 400)),
       seed=st.integers(0, 2**32 - 1))
def test_box_pair_equals_the_brute_force_terms(k_max, b, seed):
    big = _farey_terms(k_max)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(big) - 1, 16)
    i[:2] = 0, len(big) - 2   # pairs that touch an axis: L = (1, 0), R = (0, 1)
    L, R = big[i], big[i + 1]
    given = L.copy(), R.copy()
    for box in (min(b, k_max), 1, k_max):
        want = np.array([_terms_around(_farey_terms(box), m) for m in L + R])
        A, B = kernels._box_pair(L, R, box)
        assert np.array_equal(A, want[:, 0]) and np.array_equal(B, want[:, 1])
        assert np.array_equal(L, given[0]) and np.array_equal(R, given[1])
        # fresh arrays: the walk moves its terms in place
        assert not np.shares_memory(A, L) and not np.shares_memory(B, R)
    # in the pair's own box, the pair itself
    assert np.array_equal(A, L) and np.array_equal(B, R)


@settings(max_examples=30, deadline=None)
@given(s=st.one_of(st.floats(1.05, 40.0), st.just("disk")),
       shift=st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 0.75])] * 2),
       hbar=st.sampled_from([1.0, 1e-3, 1e-9]),
       k_max=st.integers(4, 3000),
       m_max=st.integers(0, 64),
       rows=st.integers(1, 48),
       seed=st.integers(0, 2**32 - 1))
def test_lattice_search_of_three_boxes_equals_three_searches(s, shift, hbar, k_max,
                                                             m_max, rows, seed):
    surface, use_max = _searched_surface(s)
    rng = np.random.default_rng(seed)
    grid = lattice_grid(2, m_max)
    W = hbar * (grid[rng.choice(len(grid), size=min(rows, len(grid)), replace=False)]
                + shift)
    invert = SurfaceActions(surface, k_max).invert
    boxes = (k_max // 4, k_max // 2, k_max)
    together = kernels.lattice_search(invert, W, boxes, use_max)
    assert len(together) == 3
    for k, got in zip(boxes, together):
        want = kernels.lattice_search(invert, W, (k,), use_max)[0]
        assert (got is None) == (want is None)
        if want is None:
            continue
        assert np.array_equal(got[2], want[2])
        settled = np.setdiff1d(np.arange(len(W)), want[2])
        assert np.array_equal(got[0][settled].view(np.int64),
                              want[0][settled].view(np.int64))
        assert np.array_equal(got[1][settled], want[1][settled])


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
    assert np.array_equal(scaled.truncation, 2.0 ** j * unit.truncation)
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
    boxes = (k_max // 4, k_max // 2, k_max)
    for found in kernels.lattice_search(SurfaceActions(surface, k_max).invert, W, boxes,
                                        use_max):
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
    assert np.isfinite(spectrum.truncation).all()   # all three levels were read
    assert calls == {"_bracket": 1, "_descend": 1}


def test_lattice_search_validates_boxes():
    invert = SurfaceActions(RamosCurve(), 10).invert
    for boxes in ((), (0, 10), (10, 5)):
        with pytest.raises(ValueError):
            kernels.lattice_search(invert, np.ones((2, 2)), boxes, False)


def test_bench_kernels_rows_run(bench_kernels, monkeypatch, capsys):
    # every row of the kernel benchmark at toy sizes, so a renamed API fails here
    bench = bench_kernels
    for name, value in (("K_MAX_ENUM", 20), ("K_MAX_INVERT", 20),
                        ("K_MAX_RATIOS", 30), ("M_MAX_RATIOS", 8),
                        ("K_MAX_TABLE", 20), ("K_MAX_BUILD", 20),
                        ("K_MAX_RECONSTRUCT", 20)):
        monkeypatch.setattr(bench, name, value)
    bench.main()
    out = capsys.readouterr().out
    assert "primitive_directions(2, 20)" in out
    assert "_slabs(_sieve(2, 20), 16384)" in out
    assert "lattice extremum(pnorm:4, 81 rows, k_max 30)" in out
    assert "lattice extremum(pnorm:4 hbar 1e-9, 81 rows, k_max 30)" in out
    assert "lattice extremum(ramos, 1 rows, k_max 20)" in out
    assert "three-level search(pnorm:4, 81 rows, k_max 30)" in out
    assert "crosscheck(ramos, k_max 20) time" in out
    assert "crosscheck(ramos, k_max 20) peak" in out
    assert "crosscheck(ramos, k_max 20) 65536-row chunks" in out
    assert "16384-row chunks      65536-row chunks" in out
    assert out.count("identical: True") == 11
    assert "inversion(pnorm:4" in out
    assert "action table(pnorm:3" in out and "identical: False" not in out
    assert "action table(ramos" in out and "action table(harmonic:1,2, 1 rows)" in out
    assert "spline fit(" in out and "spline refit(" in out
    assert "action table(pnorm:3, 257 rows) from_csv" in out
    assert "hausdorff_distance(4096 x 4096" in out and out.count(" MB") == 25
