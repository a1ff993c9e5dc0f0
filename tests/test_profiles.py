import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebk import (
    ConfigError,
    ToricProfile,
    linear_profile,
    pnorm_profile,
)

HOM_RTOL = 1e-9

ANALYTIC_PROFILES = {
    "circle": pnorm_profile(2.0),
    "pnorm:3": pnorm_profile(3.0),
    "pnorm:4": pnorm_profile(4.0),
    "pnorm:4^(2)": pnorm_profile(4.0, degree=2.0),
    "harmonic:1,2": linear_profile((1.0, 2.0)),
    "harmonic:3,5": linear_profile((3.0, 5.0)),
    "harmonic:2,0.5,1": linear_profile((2.0, 0.5, 1.0)),
}


@pytest.mark.parametrize("profile", ANALYTIC_PROFILES.values(), ids=ANALYTIC_PROFILES)
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


@pytest.mark.parametrize("profile", ANALYTIC_PROFILES.values(), ids=ANALYTIC_PROFILES)
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
    f = linear_profile((1.0, 2.0))
    assert f.evaluate((1.0, 1.0)) == 3.0
    assert np.allclose(f.gradient((0.7, 0.3)), [1.0, 2.0])
    assert f.degree == 1.0


def test_euclidean_is_pnorm_two():
    assert pnorm_profile(2.0).evaluate((3.0, 4.0)) == pytest.approx(5.0, rel=1e-15)
    assert pnorm_profile(2.0, dimension=3).evaluate((1.0, 2.0, 2.0)) == pytest.approx(
        3.0, rel=1e-15)


def test_power_profile_is_pnorm_power():
    base = pnorm_profile(4.0)
    powered = pnorm_profile(4.0, degree=2.0)
    p = np.array([0.9, 1.3])
    assert powered.evaluate(p) == pytest.approx(base.evaluate(p) ** 2, rel=1e-14)
    assert powered.degree == 2.0


def test_profile_validation():
    with pytest.raises(ConfigError):
        pnorm_profile(0.5)  # s < 1 is not convex
    with pytest.raises(ConfigError):
        linear_profile(())
    with pytest.raises(ConfigError):
        ToricProfile(name="bad", dimension=2, degree=-1.0,
                     evaluate_fn=lambda p: 1.0, gradient_fn=np.zeros_like)
