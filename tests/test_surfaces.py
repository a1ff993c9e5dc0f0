import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebk import (
    ConfigError,
    DegenerateGradient,
    DirectionNotAttained,
    LevelSurface,
    Orientation,
    RamosCurve,
    TangentThroughOrigin,
    ToricProfile,
    UnsupportedSurface,
    boundary_point,
    euclidean_profile,
    gauss_map,
    harmonic_profile,
    kernels,
    legendre_point,
    marked_action_spectrum,
    pnorm_profile,
)
from ebk.catalog import load_domain_file
from ebk.surfaces import (DEFAULT_RESOLUTION, _cubic_spline, _cyclic_reduction,
                          _spline_system)


def _dense_params(surface):
    return np.linspace(surface.param_lo, surface.param_hi, DEFAULT_RESOLUTION)


# analytic curvature of the quartic curve p1^4 + p2^4 = 1 at the diagonal
# point (2^-1/4, 2^-1/4): kappa = 3 * 2^(-1/4)
QUARTIC_DIAGONAL_CURVATURE = 3.0 * 2.0 ** -0.25


@pytest.fixture(scope="module")
def circle():
    return LevelSurface.from_profile(euclidean_profile(2))


@pytest.fixture(scope="module")
def quartic():
    return LevelSurface.from_profile(pnorm_profile(4.0))


@pytest.fixture(scope="module")
def segment():
    return LevelSurface.from_profile(harmonic_profile((1.0, 2.0)))


# --- gauss_map ---

def test_gauss_map_circle_normal_is_position():
    n = gauss_map(euclidean_profile(2), (0.6, 0.8))
    assert np.allclose(n, [0.6, 0.8], atol=1e-12)


def test_gauss_map_linear_profile_constant():
    n = gauss_map(harmonic_profile((1.0, 2.0)), (0.25, 0.125))
    assert np.allclose(n, np.array([1.0, 2.0]) / np.sqrt(5.0), atol=1e-12)


def test_gauss_map_ramos_midpoint():
    rc = RamosCurve()
    n = rc.normal(np.pi / 2)
    assert np.allclose(n, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-9)


def test_gauss_map_unit_norm(circle, quartic):
    for surf in (circle, quartic):
        norms = np.linalg.norm(surf.normal(_dense_params(surf)), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_gauss_map_degenerate_gradient():
    flat = ToricProfile(name="flat", dimension=2, degree=1.0,
                        evaluate_fn=lambda p: 1.0,
                        gradient_fn=lambda p: np.zeros(2))
    with pytest.raises(DegenerateGradient):
        gauss_map(flat, (1.0, 1.0))


# --- curvature ---

def test_circle_curvature_is_one(circle):
    ts = np.linspace(circle.param_lo, circle.param_hi, 256)[1:-1]
    ks = np.array([circle.curvature(t) for t in ts])
    assert np.abs(ks - 1.0).max() <= 1e-6


def test_segment_curvature_is_zero(segment):
    ts = np.linspace(segment.param_lo, segment.param_hi, 64)[1:-1]
    assert max(abs(segment.curvature(t)) for t in ts) <= 1e-8


def test_quartic_diagonal_curvature(quartic):
    got = quartic.curvature(np.pi / 4)
    assert abs(got - QUARTIC_DIAGONAL_CURVATURE) <= 1e-6


def test_orientation_sign_convention(circle, quartic, segment):
    assert circle.orientation is Orientation.CONVEX
    assert quartic.orientation is Orientation.CONVEX
    assert segment.orientation is Orientation.GENERAL
    rc = RamosCurve()
    assert rc.orientation is Orientation.CONCAVE
    # convex: K > 0, concave: K < 0, away from the parameter endpoints
    assert quartic.curvature(0.9) > 0.0
    assert rc.curvature(1.3) < 0.0


@pytest.mark.parametrize("s", [1.01, 1.05, 12.0, 20.0, 40.0])
def test_closed_form_profiles_are_declared_convex(s):
    # sampled curvature of a flat superellipse underflows near the axes
    assert LevelSurface.from_profile(pnorm_profile(s)).orientation is Orientation.CONVEX


def test_three_dimensional_pnorm_spec_reads_convex(tmp_path):
    spec = tmp_path / "pnorm3.json"
    spec.write_text('{"kind": "pnorm", "params": {"s": 1.01}, "dimension": 3}')
    surface = load_domain_file(str(spec)).make_surface()
    assert surface.orientation is Orientation.CONVEX


def test_three_dimensional_surface_needs_an_orientation():
    sphere = LevelSurface.from_profile(euclidean_profile(3))
    with pytest.raises(ConfigError):
        LevelSurface(3, sphere.point, sphere.param_lo, sphere.param_hi,
                     normal_fn=sphere.normal, normal_map=sphere.normal_map)


# --- legendre_point ---

def test_legendre_point_unit_circle_self_dual():
    p = np.array([0.6, 0.8])
    assert np.allclose(legendre_point(p, p), p, atol=1e-15)


def test_legendre_point_segment_representative():
    p = np.array([1.0, 1.0]) / 3.0
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(legendre_point(p, n), [1.5, 1.5], atol=1e-13)


def test_legendre_point_tangent_through_origin():
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(TangentThroughOrigin):
        legendre_point((1.0, -1.0), n)


# --- invert_normal ---

def test_invert_circle_diagonal(circle):
    p = circle.invert_normal((1.0, 1.0)).point
    assert np.allclose(p, np.full(2, 1.0 / np.sqrt(2.0)), atol=1e-10)


def test_invert_ramos_closed_form():
    rc = RamosCurve()
    for k1, k2 in [(1, 1), (2, 1), (1, 3), (5, 2)]:
        p = rc.invert_normal((float(k1), float(k2))).point
        alpha = k2 * np.pi / (k1 + k2)
        assert np.allclose(p, boundary_point(alpha), atol=1e-9)


def test_invert_segment_off_normal(segment):
    with pytest.raises(DirectionNotAttained):
        segment.invert_normal((1.0, 1.0))


def test_invert_segment_flat_run_is_multivalued(segment):
    res = segment.invert_normal((1.0, 2.0))
    assert res.multivalued
    # every representative sits on the level set
    f = harmonic_profile((1.0, 2.0))
    for p in res.points:
        assert abs(f.evaluate(p) - 1.0) <= 1e-9


@pytest.mark.parametrize("weights", [(1.0, 2.0), (3.0, 5.0), (2.0, 2.0), (2.0, 3.0),
                                     (1.0, np.sqrt(2.0))],
                         ids=["1,2", "3,5", "2,2", "2,3", "1,sqrt2"])
def test_facet_closed_form_matches_scan(weights):
    # the closed form attains exactly the directions the scan finds normal
    # somewhere on the facet, at points of {f = 1}
    f = harmonic_profile(weights)
    facet = LevelSurface.from_profile(f)
    assert facet.orientation is Orientation.GENERAL
    K = kernels.primitive_directions(2, 40)
    _, pts, res, ok = facet.invert_normal_many(K)
    scanned = []
    for k in K:
        try:
            scanned.append(facet.invert_normal(k).multivalued)
        except DirectionNotAttained:
            scanned.append(False)
    assert np.array_equal(ok, scanned)
    assert np.all(res[ok] <= 1e-12)
    assert np.all(np.abs(f.evaluate(pts[ok]) - 1.0) <= 1e-15)
    assert np.isnan(pts[~ok]).all()


def test_invert_roundtrip_convex(circle, quartic):
    rng = np.random.default_rng(7)
    K = rng.uniform(0.02, 1.0, size=(1000, 2))
    for surf in (circle, quartic):
        t, pts, res, ok = surf.invert_normal_many(K)
        assert ok.all()
        n = surf.normal(t)
        khat = K / np.linalg.norm(K, axis=1, keepdims=True)
        assert np.abs(n - khat).max() <= 1e-9
        assert np.nanmax(res) <= 1e-10


def test_invert_dimension_three():
    sphere = LevelSurface.from_profile(euclidean_profile(3))
    p = sphere.invert_normal((1.0, 1.0, 1.0)).point
    assert np.allclose(p, np.full(3, 1.0 / np.sqrt(3.0)), atol=1e-9)
    # a general facet inverts through its closed form too: the sample scan
    # is planar
    facet = LevelSurface.from_profile(harmonic_profile((1.0, 2.0, 3.0)))
    assert facet.orientation is Orientation.GENERAL
    assert np.array_equal(facet.invert_normal((2.0, 4.0, 6.0)).point, np.full(3, 1.0 / 6.0))
    with pytest.raises(DirectionNotAttained):
        facet.invert_normal((1.0, 1.0, 1.0))


# --- construction invariants ---

@pytest.mark.parametrize("profile", [euclidean_profile(2), pnorm_profile(3.0),
                                     pnorm_profile(4.0, degree=2.0)],
                         ids=lambda p: p.name)
def test_samples_sit_on_level_set(profile):
    surf = LevelSurface.from_profile(profile)
    vals = np.array([profile.evaluate(p) for p in surf.point(_dense_params(surf))])
    assert np.abs(vals - 1.0).max() <= 1e-9


def test_from_points_rebuilds_circle(circle):
    ts = np.linspace(circle.param_lo, circle.param_hi, 257)
    rebuilt = LevelSurface.from_points(circle.point(ts))
    probe = np.linspace(rebuilt.param_lo, rebuilt.param_hi, 101)
    radii = np.linalg.norm(rebuilt.point(probe), axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-9


@st.composite
def _spline_data(draw):
    """4-200 knots with gaps within a factor 5 of each other, at scales
    from 1e-4 to 0.3 per gap, and values from 1e-3 to 1e3 in size."""
    n = draw(st.integers(4, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.2, 1.0, n - 1)
    x = draw(st.floats(-2.0, 2.0)) + 10.0 ** draw(st.floats(-4.0, -0.5)) * np.concatenate(
        [[0.0], np.cumsum(gaps)])
    y = 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.uniform(-1.0, 1.0, n)
    if draw(st.booleans()):   # a smooth arc instead of noise
        y = 1.0 + y * np.sin(3.0 * x)
    return x, y


@pytest.mark.parametrize("clamp_lo", [False, True], ids=["lo-not-a-knot", "lo-clamped"])
@pytest.mark.parametrize("clamp_hi", [False, True], ids=["hi-not-a-knot", "hi-clamped"])
@given(data=_spline_data())
@settings(max_examples=60, deadline=None)
def test_cubic_spline_matches_scipy(clamp_lo, clamp_hi, data):
    # scipy's CubicSpline as the oracle: values and derivatives at the knots,
    # the midpoints and up to one end interval outside the range
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y = data
    assert np.all(np.diff(x) > 0)
    bc = tuple((1, 0.0) if clamp else "not-a-knot" for clamp in (clamp_lo, clamp_hi))
    want = interpolate.CubicSpline(x, y, bc_type=bc)
    spline = _cubic_spline(x, y, clamp_lo, clamp_hi)
    h0, h1 = x[1] - x[0], x[-1] - x[-2]
    u = np.concatenate([x, (x[:-1] + x[1:]) / 2,
                        [x[0] - h0, x[0] - h0 / 3, x[-1] + h1 / 2, x[-1] + h1]])
    scale = np.abs(y).max()
    slope_scale = scale / np.diff(x).min()
    assert np.abs(spline(u) - want(u)).max() <= 1e-12 * scale
    assert np.abs(spline(u, with_slope=True)[1] - want(u, 1)).max() <= 1e-12 * slope_scale
    # interpolation, the clamped ends and a scalar argument
    assert np.abs(spline(x) - y).max() <= 1e-12 * scale
    ends = spline(x[[0, -1]], with_slope=True)[1]
    assert np.all(np.abs(ends[[clamp_lo, clamp_hi]]) <= 1e-12 * slope_scale)
    assert np.ndim(spline(x[0])) == 0 and spline(x[0]) == y[0]


@st.composite
def _nonuniform_spline_data(draw):
    """4-400 knots whose gaps part by up to a factor e^7, at scales from 1e-4
    to 1 per gap, and values from 1e-3 to 1e3 in size."""
    n = draw(st.integers(4, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.0, 3.5))
    gaps = np.exp(rng.uniform(-spread, spread, n - 1))
    x = draw(st.floats(-2.0, 2.0)) + 10.0 ** draw(st.floats(-4.0, 0.0)) * np.concatenate(
        [[0.0], np.cumsum(gaps)])
    y = 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.uniform(-1.0, 1.0, n)
    if draw(st.booleans()):   # a smooth arc instead of noise
        y = 1.0 + y * np.sin(3.0 * x)
    return x, y


@pytest.mark.parametrize("clamp_lo", [False, True], ids=["lo-not-a-knot", "lo-clamped"])
@pytest.mark.parametrize("clamp_hi", [False, True], ids=["hi-not-a-knot", "hi-clamped"])
@given(data=_nonuniform_spline_data())
@settings(max_examples=40, deadline=None)
def test_cyclic_reduction_matches_the_dense_solve(bench_kernels, clamp_lo, clamp_hi, data):
    x, y = data
    rows = _spline_system(x, y, clamp_lo, clamp_hi)
    sub, diag, sup, rhs = rows
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    want = np.linalg.solve(A, rhs)
    got = _cyclic_reduction(*rows)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # against the Thomas sweep it replaced, on the normwise backward error:
    # on one system of condition 1e4 the forward errors of two stable
    # solvers part by tens of times (np.linalg.solve's and the sweep's do)
    def backward(s):
        return np.abs(A @ s - rhs).max() / (np.abs(A).sum(axis=1).max() * np.abs(s).max()
                                            + np.abs(rhs).max())

    swept = bench_kernels.old_tridiagonal_sweep(*rows)
    assert backward(got) <= 4 * max(backward(swept), np.finfo(float).eps)


# (polar angles of the 57 samples, exponent s, whether the fit's normal
# angle is monotone): the polar cubic through samples of the flattest and
# the sharpest pnorm curves turns its normal back, more so over the whole
# quadrant than away from the axes; over the whole quadrant it does so also
# in a band of s from about 3.55 to 3.97
SPLINE_ARCS = ([(0.0, np.pi / 2, s, True) for s in (1.5, 2.5, 3.5, 4.0)]
               + [(0.0, np.pi / 2, s, False) for s in (1.05, 3.6, 3.75, 3.9, 8.0, 20.0,
                                                         40.0)]
               + [(0.2, 1.3, s, True) for s in (1.05, 1.5, 2.5, 4.0, 8.0)]
               + [(0.2, 1.3, s, False) for s in (20.0, 40.0)])


@pytest.mark.parametrize("lo, hi, s, monotone", SPLINE_ARCS)
def test_spline_arc_builds_where_its_normal_angle_is_monotone(lo, hi, s, monotone):
    curve = LevelSurface.from_profile(pnorm_profile(s))
    arc = LevelSurface.from_points(curve.point(np.linspace(lo, hi, 57)))
    if monotone:
        assert len(marked_action_spectrum(arc, 20)) > 0
    else:
        with pytest.raises(UnsupportedSurface, match="^normal angle is not monotone"):
            marked_action_spectrum(arc, 20)


def test_radial_value_matches_profile(quartic):
    prof = pnorm_profile(4.0)
    w = np.array([2.0, 3.0])
    r = quartic.radial_value(w)
    # the ray through w crosses the level set at w / f(w)
    assert r == pytest.approx(prof.evaluate(w), rel=1e-10)


def _radial_by_bisection(surface, p):
    """The per-point ray bisection that the vectorized radial_value replaced."""
    phi = float(np.arctan2(p[1], p[0]))
    lo_a, hi_a, increasing = surface._polar_profile
    phi = min(max(phi, lo_a), hi_a)

    def polar(t):
        q = surface.point(t)
        return np.arctan2(q[..., 1], q[..., 0])

    t = kernels.bisect_generic(polar, surface.param_lo, surface.param_hi,
                               np.array([phi]), increasing=increasing)
    q = surface.point(t)[0]
    return float(np.hypot(p[0], p[1]) / np.hypot(q[0], q[1]))


@pytest.mark.parametrize("name", ["fit", "pnorm:4", "ramos"])
def test_radial_value_matches_per_point_bisection(quartic, name):
    surface = {"fit": LevelSurface.from_points(quartic.point(np.linspace(0.05, 1.5, 40))),
               "pnorm:4": quartic, "ramos": RamosCurve()}[name]
    rng = np.random.default_rng(11)
    lo_a, hi_a, _ = surface._polar_profile
    phi = np.concatenate([[lo_a, hi_a], rng.uniform(lo_a, hi_a, 400)])
    P = rng.uniform(0.1, 5.0, phi.size)[:, None] * np.stack([np.cos(phi), np.sin(phi)], 1)
    got = surface.radial_value(P)
    want = np.array([_radial_by_bisection(surface, p) for p in P])
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    # any leading shape; a single point gives a float
    assert surface.radial_value(P.reshape(2, -1, 2)).shape == (2, phi.size // 2)
    assert surface.radial_value(P[3]) == got[3]


def test_radial_value_outside_the_span_is_not_attained(quartic):
    fit = LevelSurface.from_points(quartic.point(np.linspace(0.05, 1.5, 40)))
    # the fit spans polar angles [0.05, 1.5]; one ray below fails the batch
    with pytest.raises(DirectionNotAttained):
        fit.radial_value(np.array([[1.0, 1.0], [1.0, 0.01]]))
    with pytest.raises(DirectionNotAttained):
        quartic.radial_value((1.0, -0.5))
