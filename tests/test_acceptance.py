"""End-to-end gate: one test per pinned behavior, each with a frozen
tolerance and a wall-clock budget.
"""
import time

import numpy as np
import pytest

from ebk import (
    LevelSurface,
    Orientation,
    PointCloud,
    ToricProfile,
    conjugate_function,
    convex_conjugate,
    crosscheck_disk,
    direct_spectrum,
    hausdorff_distance,
    hypersurface_transform,
    lattice_grid,
    linear_profile,
    marked_action_spectrum,
    minmax_certificate,
    pnorm_profile,
    radial_phase,
    reconstruct_surface,
    reconstruction_spectrum,
    solve_momentum,
    support_function,
    variational_spectrum,
)
from ebk.billiard import RADIAL_SHIFT, BilliardLevel


def max_rel_err(reference, other, m_max):
    worst = 0.0
    for mm in lattice_grid(2, m_max):
        ref = reference.energy(tuple(mm))
        got = other.energy(tuple(mm))
        if ref == got == 0.0:
            continue
        worst = max(worst, abs(got - ref) / ref)
    return worst


def test_c1_billiard_anchor_values():
    t0 = time.perf_counter()
    for n in range(1, 11):
        assert abs(solve_momentum(0, n) - n * np.pi) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_c2_monotone_bijection_suite():
    t0 = time.perf_counter()
    for m in (0, 1, 2, 5, 10):
        assert radial_phase(m, float(m)) == 0.0
        xs = np.linspace(m + 0.5, m + 50.0, 10**4)
        vals = radial_phase(m, xs)
        assert np.all(np.diff(vals) > 0.0)
        # central differences with a step near the eps**(1/3) optimum
        h = 6e-6 * xs
        fd = (radial_phase(m, xs + h) - radial_phase(m, xs - h)) / (2.0 * h)
        slope = np.sqrt(xs**2 - m**2) / xs
        assert (np.abs(fd - slope) / slope).max() <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def test_c3_rational_harmonic_exact():
    t0 = time.perf_counter()
    for omega in ((1.0, 2.0), (3.0, 5.0)):
        profile = linear_profile(omega)
        acts = marked_action_spectrum(LevelSurface.from_profile(profile), 10)
        assert len(acts.entries) == 1
        # a general table of one entry takes the sup, which its inf equals
        assert acts.orientation is Orientation.GENERAL
        var = variational_spectrum(acts, 10)
        assert max_rel_err(direct_spectrum(profile, 10), var, 10) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_c4_convex_route_agreement():
    t0 = time.perf_counter()
    for s in (2.0, 4.0):
        for d in (1.0, 2.0):
            profile = pnorm_profile(s, degree=d)
            acts = marked_action_spectrum(LevelSurface.from_profile(profile),
                                          500)
            direct = direct_spectrum(profile, 8)
            errs = []
            for level in (acts.restrict(125), acts.restrict(250), acts):
                var = variational_spectrum(level, 8, degree=d)
                for mm in lattice_grid(2, 8):
                    dv = direct.energy(tuple(mm))
                    vv = var.energy(tuple(mm))
                    # a finite sup sits below the true one; the slack only
                    # absorbs roundoff from the degree-d power
                    assert vv <= dv + 1e-12 * max(1.0, dv)
                errs.append(max_rel_err(direct, var, 8))
            assert errs[2] <= 2e-3
            # doubling k_max must not worsen the error; converged profiles
            # tie at the roundoff floor, hence the 1e-15
            assert errs[1] <= errs[0] + 1e-15
            assert errs[2] <= errs[1] + 1e-15
    assert time.perf_counter() - t0 < 30.0


def test_c5_concave_billiard_crosscheck():
    t0 = time.perf_counter()
    for m1 in range(5):
        for m2 in range(m1, 5):
            if m1 == m2 == 0:
                continue
            report = crosscheck_disk(m1, m2, k_max=2000)
            assert abs(report.difference) <= 1e-3
    assert time.perf_counter() - t0 < 60.0


def test_c6_legendre_involutions():
    t0 = time.perf_counter()
    quad = ToricProfile(name="quad", dimension=2, degree=2.0,
                        evaluate_fn=lambda p: 0.5 * (p ** 2).sum(axis=-1),
                        gradient_fn=lambda p: np.asarray(p, dtype=float))
    quartic = ToricProfile(name="quartic", dimension=2, degree=4.0,
                           evaluate_fn=lambda p: 0.25 * (p ** 4).sum(axis=-1),
                           gradient_fn=lambda p: np.asarray(p, dtype=float) ** 3)
    rng = np.random.default_rng(7)
    for profile in (quad, quartic):
        double = conjugate_function(conjugate_function(profile))
        for _ in range(100):
            p = rng.uniform(0.2, 2.0, 2)
            want = profile.evaluate(p)
            assert abs(double.evaluate(p) - want) <= 1e-8 * abs(want)
    for s in (2.0, 3.0, 4.0):
        surf = LevelSurface.from_profile(pnorm_profile(s))
        dual = hypersurface_transform(surf)
        assert hausdorff_distance(hypersurface_transform(dual), surf) <= 1e-6
        ts = np.linspace(surf.param_lo, surf.param_hi, 64)[1:-1]
        for p in surf.point(ts):
            assert abs(support_function(dual, p) - 1.0) <= 1e-6
    assert time.perf_counter() - t0 < 10.0


def test_c7_reconstruction():
    t0 = time.perf_counter()
    cases = ((pnorm_profile(2.0), 50, 1e-3), (pnorm_profile(4.0), 100, 1e-2))
    for profile, k_max, tol in cases:
        surf = LevelSurface.from_profile(profile)
        acts = marked_action_spectrum(surf, k_max)
        result = reconstruct_surface(PointCloud.from_actions(acts),
                                     reference=surf)
        assert result.report.hausdorff_vs_reference <= tol
        spectrum, _ = reconstruction_spectrum(acts, 5)
        assert max_rel_err(direct_spectrum(profile, 5), spectrum, 5) <= 1e-2
    assert time.perf_counter() - t0 < 30.0


def test_c8_minmax_certificate():
    t0 = time.perf_counter()
    acts = marked_action_spectrum(
        LevelSurface.from_profile(linear_profile((1.0, 2.0))), 20)
    level = 3.0  # energy at m = (1, 1)
    for energy in (level + 0.5, level - 0.5):
        cert = minmax_certificate(acts, energy, (1, 1), ells=range(1, 21))
        slope = cert.direction_constant * abs(energy - level) / 2.0
        for record in cert.records:
            assert np.sign(record.value) == np.sign(energy - level)
            assert abs(record.value) >= slope * record.ell
    assert time.perf_counter() - t0 < 5.0


def test_c9_maslov_shifts():
    t0 = time.perf_counter()
    for m in (0, 1, 3):
        for n in (0, 1, 5):
            lv = BilliardLevel.solve(m, n + RADIAL_SHIFT)
            assert abs(radial_phase(m, lv.momentum)
                       - np.pi * (n + 0.75)) <= 1e-11
    spec = direct_spectrum(linear_profile((1.0, 2.0)), 4, shift=0.5)
    for m1 in range(5):
        for m2 in range(5):
            assert spec.energy((m1, m2)) == 1.0 * (m1 + 0.5) + 2.0 * (m2 + 0.5)
    assert time.perf_counter() - t0 < 1.0
