import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebk import actions as actions_module
from ebk import billiard as billiard_module
from ebk import (
    BilliardLevel,
    ConfigError,
    ConvergenceFailure,
    DomainError,
    RADIAL_SHIFT,
    RamosCurve,
    billiard_orbit_action,
    boundary_normal,
    boundary_point,
    boundary_tangent,
    crosscheck_disk,
    direction_parameter,
    disk_profile,
    energy_from_momentum,
    kernels,
    marked_action_spectrum,
    radial_phase,
    radial_phase_slope,
    ramos_action,
    solve_momentum,
)
from ebk.quantize import lattice_weights

# solutions of sqrt(F^2 - m^2) - m*arccos(m/F) = n*pi, frozen from a
# 50-digit bisection oracle (see tests below for the in-CI re-derivation)
GOLDEN_F = {
    (1, 1.0): 4.6033388487517003,
    (1, 2.0): 7.7897057674927247,
    (2, 1.0): 5.9433877414276042,
    (3, 2.0): 10.5667790061671275,
    (1, 1.75): 6.9970019076740474,
}


# --- the radial phase function ---

def test_phase_zero_at_left_endpoint():
    for m in (0, 1, 5):
        assert radial_phase(m, float(m)) == 0.0


def test_phase_m0_is_identity():
    for x in (1.0, math.pi, 10.0):
        assert radial_phase(0, x) == x


def test_phase_hand_value():
    assert radial_phase(1, 2.0) == pytest.approx(math.sqrt(3.0) - math.pi / 3.0,
                                                 abs=1e-14)


def test_phase_rejects_x_below_m():
    with pytest.raises(DomainError):
        radial_phase(2, 1.5)


def test_phase_vectorized():
    xs = np.array([1.0, 2.0, 5.0])
    out = radial_phase(1, xs)
    assert out.shape == (3,)
    assert out[0] == 0.0


@pytest.mark.parametrize("m", [0, 2, 5])
def test_phase_monotone_with_closed_form_slope(m):
    xs = np.linspace(m + 1e-9, m + 40.0, 2000)
    vals = radial_phase(m, xs)
    assert np.all(np.diff(vals) > 0.0)
    interior = xs[5:-5]
    h = 1e-6 * np.maximum(1.0, interior)
    fd = (radial_phase(m, interior + h) - radial_phase(m, interior - h)) / (2 * h)
    closed = radial_phase_slope(m, interior)
    assert np.abs(fd / closed - 1.0).max() <= 1e-6


# --- the quantization solve ---

def test_solve_axis_levels_hit_n_pi():
    for n in range(1, 11):
        assert abs(solve_momentum(0, n) - n * math.pi) <= 1e-12


def test_solve_golden_values():
    for (m, n), F in GOLDEN_F.items():
        assert solve_momentum(m, n) == pytest.approx(F, abs=2e-12)


def test_goldens_match_high_precision_oracle():
    # re-derive the frozen table with 50-digit arithmetic
    import mpmath as mp
    mp.mp.dps = 50
    for (m, n), F in GOLDEN_F.items():
        phase = lambda x: mp.sqrt(x ** 2 - m ** 2) - m * mp.acos(m / x) - n * mp.pi
        root = mp.findroot(phase, mp.mpf(F))
        assert abs(float(root) - F) <= 1e-13 * F


def test_solve_degenerate_gliding_orbit():
    assert solve_momentum(3, 0) == 3.0


def test_solve_residual_bound():
    for (m, n) in [(0, 3), (1, 1), (4, 2.5), (10, 7)]:
        level = BilliardLevel.solve(m, n)
        assert level.residual <= 1e-11
        assert level.energy == energy_from_momentum(level.momentum)
        if n > 0:
            assert level.momentum > m


def test_solve_monotone_in_quantum_numbers():
    rows = [solve_momentum(2, n) for n in (0.5, 1.0, 2.0, 4.0)]
    assert rows == sorted(rows)
    cols = [solve_momentum(m, 1.0) for m in (0, 1, 2, 5)]
    assert cols == sorted(cols)


def test_maslov_shifted_solve():
    for m, n in [(0, 1), (1, 1), (2, 3)]:
        F = solve_momentum(m, n + RADIAL_SHIFT)
        want = (n + RADIAL_SHIFT) * math.pi
        assert abs(radial_phase(m, F) - want) <= 1e-11
    assert solve_momentum(0, 0.75) == pytest.approx(0.75 * math.pi, abs=1e-12)


def test_energy_conversion():
    assert energy_from_momentum(math.pi) == pytest.approx(math.pi ** 2 / 2.0)
    assert energy_from_momentum(math.pi, radius=2.0) == pytest.approx(
        math.pi ** 2 / 8.0)
    F = GOLDEN_F[(1, 1.0)]
    assert energy_from_momentum(F) == pytest.approx(10.595364278213314,
                                                    rel=1e-12)


# --- the concave boundary curve ---

def test_boundary_endpoints():
    assert np.abs(boundary_point(0.0) - [0.0, math.pi]).max() <= 1e-12
    assert np.abs(boundary_point(math.pi / 2) - [1.0, 1.0]).max() <= 1e-12
    assert np.abs(boundary_point(math.pi) - [math.pi, 0.0]).max() <= 1e-12


def test_boundary_tangent_matches_finite_differences():
    alphas = np.linspace(0.05, math.pi - 0.05, 200)
    h = 1e-6
    fd = (boundary_point(alphas + h) - boundary_point(alphas - h)) / (2 * h)
    closed = boundary_tangent(alphas)
    assert np.abs(fd - closed).max() <= 1e-6


def test_boundary_normal_direction():
    alphas = np.linspace(0.2, math.pi - 0.2, 50)
    n = boundary_normal(alphas)
    want = np.stack([math.pi - alphas, alphas], axis=-1)
    want /= np.linalg.norm(want, axis=-1, keepdims=True)
    assert np.abs(n - want).max() <= 1e-12
    # and it is orthogonal to the tangent
    t = boundary_tangent(alphas)
    assert np.abs((n * t).sum(axis=-1)).max() <= 1e-9


def test_ramos_action_values():
    assert ramos_action(1, 1) == pytest.approx(2.0, abs=1e-12)
    assert ramos_action(2, 1) == pytest.approx(3.0 * math.sqrt(3.0) / 2.0,
                                               abs=1e-12)
    assert ramos_action(0, 1) == 0.0


def test_ramos_action_is_boundary_pairing():
    for k1, k2 in [(1, 1), (2, 1), (1, 4), (7, 3)]:
        alpha = direction_parameter(k1, k2)
        assert alpha == pytest.approx(k2 * math.pi / (k1 + k2), abs=1e-15)
        pairing = float(np.dot(boundary_point(alpha), [k1, k2]))
        assert ramos_action(k1, k2) == pytest.approx(pairing, abs=1e-12)


def test_ramos_action_matches_inverted_point():
    rc = RamosCurve()
    for k1, k2 in [(1, 1), (3, 2), (1, 5)]:
        p = rc.invert_normal((float(k1), float(k2))).point
        assert ramos_action(k1, k2) == pytest.approx(
            float(np.dot(p, [k1, k2])), abs=1e-10)


def test_billiard_action_scaling_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k1 = int(rng.integers(1, 6))
        k2 = int(rng.integers(1, 6))
        E = float(rng.uniform(0.1, 4.0))
        R = float(rng.uniform(0.5, 3.0))
        lhs = billiard_orbit_action(E, R, k2, k1 + k2)
        rhs = 2.0 * R * math.sqrt(2.0 * E) * ramos_action(k1, k2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_disk_profile_values():
    dp = disk_profile()
    assert dp.evaluate((2.0, 0.0)) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert dp.evaluate((1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    p = np.array([0.8, 1.1])
    assert dp.evaluate(2.0 * p) == pytest.approx(2.0 * dp.evaluate(p), rel=1e-9)
    # Euler's relation <p, grad f(p)> = d f(p), relative to d f(p)
    d_f = dp.degree * dp.evaluate(p)
    assert abs(float(np.dot(p, dp.gradient(p))) - d_f) <= 1e-7 * abs(d_f)


def _disk_gauge_by_scalar_loop(p):
    """The per-point 80-step alpha bisection that the vectorized ray
    evaluation replaced."""
    phi = min(max(math.atan2(p[1], p[0]), 0.0), math.pi / 2)
    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        x, y = boundary_point(mid)
        if math.atan2(y, x) > phi:
            lo = mid
        else:
            hi = mid
    return math.hypot(p[0], p[1]) / math.hypot(*boundary_point(0.5 * (lo + hi)))


def test_disk_profile_matches_scalar_loop():
    # the spectrum-direct lattice, unshifted and shifted, and random points
    m = np.indices((31, 31)).reshape(2, -1).T.astype(float)
    rng = np.random.default_rng(3)
    P = np.concatenate([m[1:], m + RADIAL_SHIFT, rng.uniform(0.0, 3.0, (500, 2))])
    got = disk_profile().evaluate(P)
    want = np.array([_disk_gauge_by_scalar_loop(p) for p in P])
    assert np.all(np.abs(got - want) <= 1e-15 * want)


# --- the two-route crosscheck ---

def test_crosscheck_diagonal_pair():
    rep = crosscheck_disk(1, 1, k_max=400)
    assert rep.momentum_reference == pytest.approx(math.pi, abs=1e-12)
    assert abs(rep.difference) <= 1e-3


def test_crosscheck_against_golden():
    rep = crosscheck_disk(1, 2, k_max=400)
    assert rep.momentum_reference == pytest.approx(GOLDEN_F[(1, 1.0)], abs=2e-12)
    assert abs(rep.difference) <= 1e-3


def test_crosscheck_maps_to_difference_and_min():
    # (m1, m2) = (1, 3) quantizes the m = 2, n = 1 level
    rep = crosscheck_disk(1, 3, k_max=400)
    assert rep.momentum_reference == pytest.approx(GOLDEN_F[(2, 1.0)], abs=2e-12)


def test_crosscheck_with_radial_shift():
    rep = crosscheck_disk(1, 2, k_max=600, shift=RADIAL_SHIFT)
    want = solve_momentum(1, 1 + RADIAL_SHIFT)
    assert rep.momentum_reference == pytest.approx(want, abs=1e-12)
    assert abs(rep.difference) <= 1e-3


def test_crosscheck_validation():
    with pytest.raises(ConfigError):
        crosscheck_disk(2, 1)
    with pytest.raises(ConfigError):
        crosscheck_disk(1, 2, k_max=5)
    with pytest.raises(ConfigError):
        crosscheck_disk(1, 2, shift=(0.0, 0.75))  # toric route needs a
        # uniform shift


def test_crosscheck_report_keys():
    rep = crosscheck_disk(1, 2, k_max=100)
    doc = rep.to_json_dict()
    for key in ("m1", "m2", "F_route", "F_ref", "difference", "k_max",
                "E_toric", "F_error_bound"):
        assert key in doc


# --- the streamed reduction against the table ---

def _table_oracle(m1, m2, k_max, shift):
    """The crosscheck's energy and error bound from the action table: one
    scan of the table, and pi times the gap to the chord of the table's
    points around w."""
    table = marked_action_spectrum(RamosCurve(), k_max)
    w = lattice_weights(np.array([[m1, m2]]), actions_module.as_shift(shift, 2), 1.0)
    energy = kernels.extremal_ratios(table.directions, table.actions, w, False)[0][0]
    chord = kernels.table_chords(table.points, w, False)[0]
    return energy, math.pi * abs(energy - chord)


@settings(max_examples=12, deadline=None)
@given(k_max=st.integers(10, 3000), m=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       shift=st.sampled_from([0.0, 0.25, 0.5, 0.75]))
def test_crosscheck_streams_the_table_scan_bitwise(k_max, m, shift):
    m1, m2 = sorted(m)
    rep = crosscheck_disk(m1, m2, k_max=k_max, shift=shift)
    energy, bound = _table_oracle(m1, m2, k_max, shift)
    assert np.float64(rep.toric_energy).view(np.int64) == energy.view(np.int64)
    # no chord on the axis rays (m1 = 0, no shift) and at w = 0
    assert math.isnan(rep.error_bound) == math.isnan(bound) == (m1 == 0 and shift == 0)
    if not math.isnan(bound):
        assert np.float64(rep.error_bound).view(np.int64) == np.float64(bound).view(np.int64)


@settings(max_examples=25, deadline=None)
@given(k_max=st.integers(10, 600), m1=st.integers(0, 20), dm=st.integers(0, 20),
       shift=st.sampled_from([0.0, 0.25, 0.5, 0.75]))
def test_phase_root_lies_in_the_crosscheck_bracket(k_max, m1, dm, shift):
    # on interior rays the chord lies beyond the concave curve and the finite
    # inf above it, so the phase-equation root lies at or below F_route, by
    # at most F_error_bound; the slack covers the solve's phase tolerance
    assume(m1 > 0 or shift > 0)
    rep = crosscheck_disk(m1, m1 + dm, k_max=k_max, shift=shift)
    root = rep.momentum_reference
    slack = 2 * billiard_module.PHASE_SOLVE_TOL / radial_phase_slope(dm, root) + 1e-14 * root
    assert math.isfinite(rep.error_bound)
    assert rep.momentum_toric - rep.error_bound - slack <= root
    assert root <= rep.momentum_toric + slack
    assert rep.to_json_dict()["F_error_bound"] == rep.error_bound


def test_axis_ray_crosscheck_has_no_bound():
    rep = crosscheck_disk(0, 2, k_max=100)
    assert math.isnan(rep.error_bound)
    assert rep.to_json_dict()["F_error_bound"] is None


def test_crosscheck_residual_failure_is_the_tables(monkeypatch):
    monkeypatch.setattr(actions_module, "NORMAL_RESIDUAL_TOL", -1.0)
    with pytest.raises(ConvergenceFailure) as table:
        marked_action_spectrum(RamosCurve(), 300)
    with pytest.raises(ConvergenceFailure) as streamed:
        crosscheck_disk(0, 2, k_max=300)
    assert str(streamed.value) == str(table.value)


def test_disk_minima_are_independent_of_the_chunk_size(monkeypatch):
    w = lattice_weights(np.array([[1, 3]]), actions_module.as_shift(0.75, 2), 1.0)[0]
    k_max = 600
    lows, failures = [], []
    for rows in (7, actions_module.CHUNK_ROWS):
        monkeypatch.setattr(actions_module, "CHUNK_ROWS", rows)
        lows.append(billiard_module._disk_minimum(w, k_max).hex())
        with monkeypatch.context() as m:
            m.setattr(actions_module, "NORMAL_RESIDUAL_TOL", 1e-17)
            with pytest.raises(ConvergenceFailure) as failed:
                billiard_module._disk_minimum(w, k_max)
        failures.append(str(failed.value))
    assert lows[0] == lows[1]
    assert failures[0] == failures[1]
    # a tolerance below the rounding fails some directions, not every one
    count = int(failures[0].split()[0])
    assert 0 < count < len(kernels.primitive_directions(2, k_max))


def test_crosscheck_memory_is_bounded(monkeypatch):
    # the 2.43M-row table alone is 97 MB; the stream holds one chunk and the
    # 4 MB sieve. tracemalloc does not see a forked child, so the whole
    # stream runs here, which bounds either half.
    monkeypatch.setattr(actions_module, "_two_cpus", lambda: False)
    crosscheck_disk(0, 2, k_max=50)   # imports and caches outside the trace
    tracemalloc.start()
    try:
        crosscheck_disk(0, 2, k_max=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


# --- the sieve streamed in two halves, the second in a forked child ---

SPLIT_K = 232   # the least k_max whose sieve holds 2 * CHUNK_ROWS directions


def _weights(m1, m2, shift):
    return lattice_weights(np.array([[m1, m2]]), actions_module.as_shift(shift, 2), 1.0)[0]


def _minima(w, k_max):
    return billiard_module._disk_minimum(w, k_max).hex()


def test_split_threshold_is_twice_the_chunk():
    counts = [int(kernels._sieve(2, k).sum()) for k in (SPLIT_K - 1, SPLIT_K)]
    assert counts[0] < 2 * actions_module.CHUNK_ROWS <= counts[1]


@pytest.mark.parametrize("k_max", [SPLIT_K - 1, SPLIT_K, SPLIT_K + 1])
@pytest.mark.parametrize("shift", [0.0, 0.75])
def test_disk_minima_do_not_depend_on_the_split(split, monkeypatch, k_max, shift):
    w = _weights(1, 3, shift)
    serial, forks = split.run(False, _minima, w, k_max)
    assert forks == 0
    halved, forks = split.run(True, _minima, w, k_max)
    assert halved == serial and forks == (k_max >= SPLIT_K)
    # a tolerance below the rounding fails some directions
    monkeypatch.setattr(actions_module, "NORMAL_RESIDUAL_TOL", 1e-17)
    texts = [split.run(on, _minima, w, k_max) for on in (False, True)]
    assert texts[0][0] == texts[1][0]
    assert texts[0][0].endswith("directions failed the inversion residual")
    assert [forks for _, forks in texts] == [0, k_max >= SPLIT_K]


def test_residual_failures_of_both_halves_add_up(split, monkeypatch):
    monkeypatch.setattr(actions_module, "NORMAL_RESIDUAL_TOL", 1e-17)
    k_max, w = 600, _weights(0, 2, 0.0)
    mask = kernels._sieve(2, k_max)
    ends = np.cumsum(mask.sum(axis=1))
    cut = int(np.searchsorted(ends, ends[-1] / 2, side="right"))
    halves = [int(billiard_module._stream(mask, lo, hi, w)[1])
              for lo, hi in ((0, cut), (cut, k_max + 1))]
    assert min(halves) > 0
    for on in (False, True):
        text, forks = split.run(on, _minima, w, k_max)
        assert text == (f"ConvergenceFailure: {sum(halves)} directions failed the "
                        "inversion residual")
        assert forks == on


def test_a_failed_child_leaves_its_half_to_the_parent(split, monkeypatch):
    parent, stream, calls = os.getpid(), billiard_module._stream, []

    def spoiled(mask, lo, hi, w):
        if os.getpid() != parent:
            raise RuntimeError("the child's half")
        calls.append((lo, hi))
        return stream(mask, lo, hi, w)

    w = _weights(0, 4, 0.0)
    serial, _ = split.run(False, _minima, w, 600)
    monkeypatch.setattr(billiard_module, "_stream", spoiled)
    halved, forks = split.run(True, _minima, w, 600)
    assert (halved, forks) == (serial, 1)
    (lo, cut), (resume, hi) = calls   # the parent's half, then the child's
    assert (lo, resume, hi) == (0, cut, 601)


def test_small_crosscheck_does_not_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(actions_module, "_two_cpus", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork)
    assert crosscheck_disk(0, 2, k_max=100).k_max == 100
