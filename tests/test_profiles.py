import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebk import (
    ConfigError,
    ToricProfile,
    euclidean_profile,
    harmonic_profile,
    linear_profile,
    pnorm_profile,
)

HOM_RTOL = 1e-9

ANALYTIC_PROFILES = [
    euclidean_profile(2),
    pnorm_profile(3.0),
    pnorm_profile(4.0),
    pnorm_profile(4.0, degree=2.0),
    harmonic_profile((1.0, 2.0)),
    harmonic_profile((3.0, 5.0)),
    linear_profile((2.0, 0.5, 1.0)),
]


@pytest.mark.parametrize("profile", ANALYTIC_PROFILES, ids=lambda p: p.name)
def test_homogeneity(profile):
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = rng.uniform(0.1, 3.0, profile.dimension)
        base = profile.evaluate(p)
        for t in (0.5, 2.0, 3.0):
            assert abs(profile.evaluate(t * p) - t ** profile.degree * base) \
                <= HOM_RTOL * abs(base) * max(1.0, t ** profile.degree)


def _euler_residual(profile, p):
    """Relative residual of <p, grad f(p)> = d f(p) at a single point."""
    d_f = profile.degree * profile.evaluate(p)
    return abs(float(np.dot(p, profile.gradient(p))) - d_f) / max(abs(d_f), 1e-300)


@pytest.mark.parametrize("profile", ANALYTIC_PROFILES, ids=lambda p: p.name)
def test_euler_relation(profile):
    rng = np.random.default_rng(12)
    for _ in range(25):
        p = rng.uniform(0.1, 3.0, profile.dimension)
        lhs = float(np.dot(p, profile.gradient(p)))
        rhs = profile.degree * profile.evaluate(p)
        assert abs(lhs - rhs) <= HOM_RTOL * abs(rhs)
        assert _euler_residual(profile, p) <= HOM_RTOL


@given(st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.3, max_value=4.0),
       st.sampled_from([0.5, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_pnorm_homogeneity_property(p1, p2, t):
    f = pnorm_profile(3.0)
    p = np.array([p1, p2])
    assert abs(f.evaluate(t * p) - t * f.evaluate(p)) <= 1e-12 * f.evaluate(p) * t


def test_harmonic_values():
    f = harmonic_profile((1.0, 2.0))
    assert f.evaluate((1.0, 1.0)) == 3.0
    assert np.allclose(f.gradient((0.7, 0.3)), [1.0, 2.0])
    assert f.degree == 1.0


def test_euclidean_is_pnorm_two():
    f = euclidean_profile(2)
    g = pnorm_profile(2.0)
    p = np.array([3.0, 4.0])
    assert f.evaluate(p) == pytest.approx(5.0, rel=1e-15)
    assert g.evaluate(p) == pytest.approx(5.0, rel=1e-15)


def test_power_profile_is_pnorm_power():
    base = pnorm_profile(4.0)
    powered = pnorm_profile(4.0, degree=2.0)
    p = np.array([0.9, 1.3])
    assert powered.evaluate(p) == pytest.approx(base.evaluate(p) ** 2, rel=1e-14)
    assert powered.degree == 2.0


def test_finite_difference_gradient_fallback():
    # profile given without an analytic gradient: quartic bowl, d = 4
    f = ToricProfile(name="quartic", dimension=2, degree=4.0,
                     evaluate_fn=lambda p: float(p[0] ** 4 + p[1] ** 4))
    p = np.array([1.2, 0.7])
    got = f.gradient(p)
    assert np.allclose(got, [4 * 1.2 ** 3, 4 * 0.7 ** 3], rtol=1e-6)
    assert _euler_residual(f, p) <= 1e-6


def test_profile_validation():
    with pytest.raises(ConfigError):
        pnorm_profile(0.5)  # s < 1 is not convex
    with pytest.raises(ConfigError):
        harmonic_profile(())
    with pytest.raises(ConfigError):
        ToricProfile(name="bad", dimension=2, degree=-1.0,
                     evaluate_fn=lambda p: 1.0)
