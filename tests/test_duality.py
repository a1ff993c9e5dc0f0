import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ebk import (
    ConfigError,
    InsufficientCloud,
    LevelSurface,
    NonGraphical,
    NotAttained,
    Orientation,
    PointCloud,
    RamosCurve,
    TooFewNicePoints,
    ToricProfile,
    conjugate_function,
    convex_conjugate,
    disk_profile,
    euclidean_profile,
    harmonic_profile,
    hausdorff_distance,
    hypersurface_transform,
    legendre_point,
    marked_action_spectrum,
    pnorm_profile,
    reconstruct_surface,
    support_function,
)
from ebk.duality import CLOUD_DEDUP_TOL, _defined_run, _directed_hausdorff_squared
from ebk.surfaces import DEFAULT_RESOLUTION


def quadratic_bowl():
    return ToricProfile(name="quad", dimension=2, degree=2.0,
                        evaluate_fn=lambda p: 0.5 * (p ** 2).sum(axis=-1),
                        gradient_fn=lambda p: np.asarray(p, dtype=float))


def quartic_bowl():
    return ToricProfile(name="quartic", dimension=2, degree=4.0,
                        evaluate_fn=lambda p: 0.25 * (p ** 4).sum(axis=-1),
                        gradient_fn=lambda p: np.asarray(p, dtype=float) ** 3)


# --- convex conjugate ---

def test_conjugate_quadratic_self_dual():
    value, argmax = convex_conjugate(quadratic_bowl(), (1.0, 2.0))
    assert value == pytest.approx(2.5, abs=1e-10)
    assert np.allclose(argmax, [1.0, 2.0], atol=1e-8)


def test_conjugate_quartic_one_dim():
    f = ToricProfile(name="quartic1", dimension=1, degree=4.0,
                     evaluate_fn=lambda p: 0.25 * (p ** 4).sum(axis=-1),
                     gradient_fn=lambda p: np.asarray(p, dtype=float) ** 3)
    value, argmax = convex_conjugate(f, (8.0,))
    assert value == pytest.approx(12.0, rel=1e-10)
    assert argmax[0] == pytest.approx(2.0, rel=1e-8)


def test_conjugate_at_origin_is_zero():
    value, _ = convex_conjugate(quadratic_bowl(), (0.0, 0.0))
    assert value == 0.0


@pytest.mark.parametrize("profile", [quadratic_bowl(), quartic_bowl()],
                         ids=["quad", "quartic"])
def test_double_conjugate_involution(profile):
    dual = conjugate_function(profile)
    double = conjugate_function(dual)
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = rng.uniform(0.2, 2.0, 2)
        want = profile.evaluate(p)
        assert abs(double.evaluate(p) - want) <= 1e-8 * abs(want)


def test_conjugate_function_degree():
    dual = conjugate_function(quartic_bowl())
    assert dual.degree == pytest.approx(4.0 / 3.0)
    with pytest.raises(ConfigError):
        conjugate_function(harmonic_profile((1.0, 2.0)))  # degree 1 has no
        # smooth conjugate


@given(st.floats(0.2, 2.0), st.floats(0.2, 2.0),
       st.floats(0.2, 3.0), st.floats(0.2, 3.0))
@settings(max_examples=30, deadline=None)
def test_fenchel_young_inequality(p1, p2, q1, q2):
    f = quadratic_bowl()
    value, _ = convex_conjugate(f, (q1, q2))
    assert p1 * q1 + p2 * q2 <= f.evaluate((p1, p2)) + value + 1e-8


def test_conjugate_of_degree_one_is_zero_on_the_polar_body():
    # no stationary point exists: the sup is attained at p = 0
    value, argmax = convex_conjugate(pnorm_profile(2.0), (0.3, 0.4))
    assert value == 0.0
    assert np.array_equal(argmax, [0.0, 0.0])


def test_conjugate_of_degree_one_is_not_attained_off_the_polar_body():
    with pytest.raises(NotAttained):
        convex_conjugate(pnorm_profile(2.0), (3.0, 4.0))


def test_conjugate_rejects_q_outside_the_orthant():
    with pytest.raises(ConfigError):
        convex_conjugate(quadratic_bowl(), (1.0, -0.5))


@pytest.mark.parametrize("profile, q", [
    (harmonic_profile((1.0, 2.0)), (0.3, 0.4)),
    (disk_profile(), (0.3, 0.4)),
    (ToricProfile(name="cubic3", dimension=3, degree=3.0,
                  evaluate_fn=lambda p: (p ** 3).sum(axis=-1) / 3.0), (1.0, 1.0, 1.0)),
    (pnorm_profile(2.0, degree=0.5), (0.3, 0.4)),
], ids=["harmonic-facet", "concave-disk", "custom-3d", "degree-below-one"])
def test_conjugate_outside_the_closed_form_is_a_config_error(profile, q):
    with pytest.raises(ConfigError):
        convex_conjugate(profile, q)


def test_conjugate_takes_the_endpoint_outside_the_normal_cone():
    # the ellipse p1^2 + p1 p2 + p2^2 = 1 meets the axes obliquely, so q = (1, 0)
    # is no normal of the arc; over p >= 0 the sup is max_t t - t^2 = 1/4
    f = ToricProfile(name="oblique", dimension=2, degree=2.0,
                     evaluate_fn=lambda p: p[..., 0] ** 2 + p[..., 0] * p[..., 1]
                     + p[..., 1] ** 2)
    value, argmax = convex_conjugate(f, (1.0, 0.0))
    assert value == pytest.approx(0.25, rel=1e-12)
    assert np.allclose(argmax, [0.5, 0.0], rtol=0, atol=1e-12)


_component = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@given(st.floats(1.05, 40.0), st.floats(1.5, 6.0),
       st.lists(_component, min_size=3, max_size=3), st.sampled_from([2, 3]),
       st.lists(_component, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_fenchel_young_equality_at_the_argmax(s, degree, q, n, p):
    assume(any(q[:n]) and any(p[:n]))
    f = pnorm_profile(s, dimension=n, degree=degree)
    q, p = np.array(q[:n]), np.array(p[:n])
    value, argmax = convex_conjugate(f, q)
    assert abs(argmax @ q - f.evaluate(argmax) - value) <= 1e-12 * value
    assert np.linalg.norm(f.gradient(argmax) - q) <= 1e-12 * np.linalg.norm(q)
    assert conjugate_function(f).evaluate(q) == pytest.approx(value, rel=1e-12)
    double = conjugate_function(conjugate_function(f))
    assert abs(double.evaluate(p) - f.evaluate(p)) <= 1e-12 * f.evaluate(p)


# --- support function ---

def test_support_circle():
    circle = LevelSurface.from_profile(euclidean_profile(2))
    assert support_function(circle, (3.0, 4.0)) == pytest.approx(5.0, abs=1e-9)


def test_support_segment_endpoint():
    seg = LevelSurface.from_profile(harmonic_profile((1.0, 2.0)))
    assert support_function(seg, (1.0, 0.0)) == pytest.approx(1.0, abs=1e-6)


def test_support_ramos_inf_variant():
    # concave orientation flips sup to inf; minimum of <rho(a), (1,1)> is at
    # the symmetric point rho(pi/2) = (1, 1)
    rc = RamosCurve()
    assert support_function(rc, (1.0, 1.0)) == pytest.approx(2.0, abs=1e-9)


def test_support_homogeneity():
    circle = LevelSurface.from_profile(euclidean_profile(2))
    q = np.array([0.3, 1.7])
    base = support_function(circle, q)
    for t in (2.0, 10.0):
        assert abs(support_function(circle, t * q) - t * base) <= 1e-12 * t * base


def _support_by_samples(surface, q):
    """The sample argmax plus bounded minimize_scalar refinement that the
    endpoint-and-inversion support_function replaced."""
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    qnorm = float(np.linalg.norm(q))
    u = np.asarray(q, dtype=float) / qnorm
    use_min = surface.orientation is Orientation.CONCAVE
    params = np.linspace(surface.param_lo, surface.param_hi, DEFAULT_RESOLUTION)
    dots = surface.point(params) @ u
    idx = int(np.argmin(dots) if use_min else np.argmax(dots))
    value = float(dots[idx])
    lo = params[max(idx - 1, 0)]
    hi = params[min(idx + 1, len(dots) - 1)]
    if hi > lo:
        sign = 1.0 if use_min else -1.0
        res = minimize_scalar(lambda t: sign * float(surface.point(t) @ u),
                              bounds=(float(lo), float(hi)), method="bounded",
                              options={"xatol": 1e-13})
        refined = sign * float(res.fun)
        value = min(value, refined) if use_min else max(value, refined)
    return qnorm * value


@pytest.mark.parametrize("name", ["pnorm:1.5", "pnorm:4", "pnorm:12", "circle",
                                  "ramos", "segment"])
def test_support_matches_sampled_refinement(name):
    surface = {"pnorm:1.5": lambda: LevelSurface.from_profile(pnorm_profile(1.5)),
               "pnorm:4": lambda: LevelSurface.from_profile(pnorm_profile(4.0)),
               "pnorm:12": lambda: LevelSurface.from_profile(pnorm_profile(12.0)),
               "circle": lambda: LevelSurface.from_profile(euclidean_profile(2)),
               "ramos": RamosCurve,
               "segment": lambda: LevelSurface.from_profile(harmonic_profile((1.0, 2.0))),
               }[name]()
    # every quadrant, so the endpoints and the -q inversion are exercised
    angles = np.linspace(-np.pi, np.pi, 73)
    for q in 2.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1):
        want = _support_by_samples(surface, q)
        assert abs(support_function(surface, q) - want) <= 1e-12 * abs(want)


def test_support_sees_a_dent_through_the_opposite_normal():
    # a general arc dipping toward the origin: the sup of <p, (-1, -1)> sits
    # inside the dent, where the outward normal points along (1, 1)
    t = np.linspace(0.0, np.pi / 2, 200)
    r = 1.0 - 0.3 * np.sin(2 * t) ** 2
    dent = LevelSurface.from_points(np.stack([r * np.cos(t), r * np.sin(t)], 1))
    assert dent.orientation is Orientation.GENERAL
    want = _support_by_samples(dent, (-1.0, -1.0))
    assert support_function(dent, (-1.0, -1.0)) == pytest.approx(want, rel=1e-9)
    assert want > -1.0   # above both endpoints


# --- hypersurface transform ---

def test_transform_circle_self_dual():
    circle = LevelSurface.from_profile(euclidean_profile(2))
    dual = hypersurface_transform(circle)
    assert hausdorff_distance(circle, dual) <= 1e-9


def test_transform_ellipse_arc_involution():
    ell = ToricProfile(
        name="ellipse", dimension=2, degree=1.0,
        evaluate_fn=lambda p: np.sqrt(p[..., 0] ** 2 / 4.0 + p[..., 1] ** 2),
        gradient_fn=lambda p: np.stack([p[..., 0] / 4.0, p[..., 1]], axis=-1)
            / np.sqrt(p[..., 0] ** 2 / 4.0 + p[..., 1] ** 2)[..., None])
    surf = LevelSurface.from_profile(ell)
    double = hypersurface_transform(hypersurface_transform(surf))
    assert hausdorff_distance(surf, double) <= 1e-6


def test_transform_segment_too_flat():
    seg = LevelSurface.from_profile(harmonic_profile((1.0, 2.0)))
    with pytest.raises(TooFewNicePoints):
        hypersurface_transform(seg)


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_pointwise_involution_superellipse(s):
    surf = LevelSurface.from_profile(pnorm_profile(s))
    dual = hypersurface_transform(surf)
    ts = np.linspace(surf.param_lo, surf.param_hi, 101)[1:-1]
    pts = surf.point(ts)
    nrms = surf.normal(ts)
    for p, n in zip(pts, nrms):
        q = legendre_point(p, n)
        # normal of the dual at the image point, via inversion
        t_q = dual.invert_normal(p).params[0]
        back = legendre_point(dual.point(t_q), dual.normal(t_q))
        assert np.abs(back - p).max() <= 1e-8


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_dual_supports_primal_at_one(s):
    surf = LevelSurface.from_profile(pnorm_profile(s))
    dual = hypersurface_transform(surf)
    ts = np.linspace(surf.param_lo, surf.param_hi, 64)[1:-1]
    for p in surf.point(ts):
        assert support_function(dual, p) == pytest.approx(1.0, abs=1e-6)


# --- point clouds and reconstruction ---

def test_point_cloud_from_actions_dedup():
    surf = LevelSurface.from_profile(euclidean_profile(2))
    acts = marked_action_spectrum(surf, 8)
    cloud = PointCloud.from_actions(acts)
    # k/a on the unit circle is k/|k|: all cloud points at radius 1
    assert np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0).max() <= 1e-12
    dists = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=-1)
    np.fill_diagonal(dists, 1.0)
    assert dists.min() > 1e-12


def _query_pairs_dedup(pts):
    """The cKDTree.query_pairs dedup that the sort on x replaced: each pair
    within CLOUD_DEDUP_TOL drops its larger index."""
    spatial = pytest.importorskip("scipy.spatial")
    pairs = spatial.cKDTree(pts).query_pairs(CLOUD_DEDUP_TOL, output_type="ndarray")
    drop = np.zeros(len(pts), dtype=bool)
    drop[pairs[:, 1]] = True
    return pts[~drop]


def _planted_cloud(seed, n, offsets):
    """n random points plus a near copy of some of them at each offset,
    shuffled, with a few points sharing one x coordinate."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.2, 1.5, (n, 2))
    pts[: n // 10, 0] = pts[0, 0]
    copies = []
    for offset in offsets:
        src = pts[rng.choice(n, size=max(1, n // 5), replace=False)]
        angle = rng.uniform(0.0, 2 * np.pi, (len(src), 1))
        copies.append(src + offset * np.hstack([np.cos(angle), np.sin(angle)]))
    pts = np.concatenate([pts, *copies])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("offsets", [(0.0,), (0.5e-12,), (2e-12,), (0.0, 0.5e-12, 2e-12)],
                         ids=["exact", "inside", "outside", "mixed"])
@pytest.mark.parametrize("seed", range(4))
def test_point_cloud_dedup_matches_query_pairs(seed, offsets):
    pts = _planted_cloud(seed, 200, offsets)
    assert np.array_equal(PointCloud(pts).points, _query_pairs_dedup(pts))


def test_point_cloud_dedup_of_a_chain_matches_query_pairs():
    # a~b and b~c but not a~c: each pair drops its larger index, so in the
    # order a, b, c both b and c go; c's index decides what survives
    step = 0.8e-12
    chain = np.array([[1.0, 1.0], [1.0 + step, 1.0], [1.0 + 2 * step, 1.0]])
    for order, kept in (([0, 1, 2], 3), ([2, 0, 1], 4), ([1, 2, 0], 3)):
        pts = np.vstack([[0.5, 0.5], chain[order], [0.7, 0.2]])
        want = _query_pairs_dedup(pts)
        assert len(want) == kept
        assert np.array_equal(PointCloud(pts).points, want)


def test_point_cloud_dedup_of_the_action_cloud_matches_query_pairs():
    acts = marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(4.0)), 60)
    K = acts.directions.astype(float)
    pts = np.vstack([K / acts.actions[:, None]] * 2)   # every point twice
    cloud = PointCloud(pts)
    assert len(cloud) == len(acts)
    assert np.array_equal(cloud.points, _query_pairs_dedup(pts))


def _ckdtree_hausdorff(a, b, resolution=4096):
    """The two cKDTree nearest-neighbour queries that the bounded exact scan
    replaced."""
    spatial = pytest.importorskip("scipy.spatial")
    pa = a.point(np.linspace(a.param_lo, a.param_hi, resolution))
    pb = b.point(np.linspace(b.param_lo, b.param_hi, resolution))
    return float(max(spatial.cKDTree(pb).query(pa)[0].max(),
                     spatial.cKDTree(pa).query(pb)[0].max()))


def _hausdorff_pair(name):
    quartic = LevelSurface.from_profile(pnorm_profile(4.0))
    if name == "reconstruction":
        acts = marked_action_spectrum(quartic, 40)
        return reconstruct_surface(PointCloud.from_actions(acts)).surface, quartic
    if name == "pnorm:3-4":
        return LevelSurface.from_profile(pnorm_profile(3.0)), quartic
    if name == "partial-arc":
        # a fit over part of the quadrant: same-index neighbours are far apart
        return LevelSurface.from_points(quartic.point(np.linspace(0.3, 1.2, 50))), quartic
    return LevelSurface.from_profile(euclidean_profile(2)), RamosCurve()


HAUSDORFF_PAIRS = ["reconstruction", "pnorm:3-4", "partial-arc", "circle-ramos"]


@pytest.mark.parametrize("pair", HAUSDORFF_PAIRS)
@pytest.mark.parametrize("resolution", [64, 1000, 4096])
def test_hausdorff_matches_ckdtree(pair, resolution):
    a, b = _hausdorff_pair(pair)
    got = hausdorff_distance(a, b, resolution=resolution)
    assert abs(got - _ckdtree_hausdorff(a, b, resolution)) <= 1e-14
    assert got == hausdorff_distance(b, a, resolution=resolution)


@pytest.mark.parametrize("pair", HAUSDORFF_PAIRS)
@pytest.mark.parametrize("resolution", [2, 64, 1000])
def test_hausdorff_equals_full_scan(pair, resolution):
    # the bounded scan stops early but must return the full scan's value
    a, b = _hausdorff_pair(pair)
    pa = a.point(np.linspace(a.param_lo, a.param_hi, resolution))
    pb = b.point(np.linspace(b.param_lo, b.param_hi, resolution))
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1)
    want = np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max()))
    assert hausdorff_distance(a, b, resolution=resolution) == want


@pytest.mark.parametrize("n, m", [(600, 900), (900, 600), (1, 7), (7, 1), (3000, 40)])
@pytest.mark.parametrize("seed", range(3))
def test_directed_hausdorff_equals_full_scan_on_scattered_points(n, m, seed):
    # unordered points, so the same-index bounds are loose and the largest
    # bounds need not belong to the farthest point
    rng = np.random.default_rng(seed)
    pa, pb = rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.0, 1.0, (m, 2))
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1)
    assert _directed_hausdorff_squared(pa, pb) == d2.min(axis=1).max()


def test_point_cloud_validation():
    with pytest.raises(ConfigError):
        PointCloud(np.array([[1.0, np.inf]]))
    with pytest.raises(ConfigError):
        PointCloud(np.ones((3, 3)))


def test_reconstruct_circle():
    surf = LevelSurface.from_profile(euclidean_profile(2))
    acts = marked_action_spectrum(surf, 50)
    result = reconstruct_surface(PointCloud.from_actions(acts), reference=surf)
    assert result.report.hausdorff_vs_reference <= 1e-3
    assert result.report.cloud_size == len(acts.entries)


def test_reconstruct_rejects_small_cloud():
    with pytest.raises(InsufficientCloud):
        reconstruct_surface(PointCloud(np.random.default_rng(0).uniform(
            0.5, 1.0, (5, 2))))


def test_from_points_rejects_nongraphical():
    pts = [(np.cos(t), np.sin(t)) for t in np.linspace(0.1, 1.4, 30)]
    pts.append((2.0 * np.cos(0.1), 2.0 * np.sin(0.1)))
    with pytest.raises(NonGraphical):
        LevelSurface.from_points(np.array(pts))


def test_transform_at_knots_matches_per_knot_curvature(monkeypatch):
    # the reconstruction's fit on the pnorm:4 cloud at k_max 200 (24k knots);
    # the reference evaluates the curvature one knot at a time, as the
    # transform used to
    acts = marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(4.0)), 200)
    fit = LevelSurface.from_points(PointCloud.from_actions(acts).points)
    new = hypersurface_transform(fit, at_params=fit.knots)
    scalar, per_knot = LevelSurface.curvature, []

    def curvature_loop(params):
        per_knot.append(np.asarray([scalar(fit, t) for t in params]))
        return per_knot[-1]

    monkeypatch.setattr(fit, "curvature", curvature_loop)
    old = hypersurface_transform(fit, at_params=fit.knots)
    assert np.array_equal(scalar(fit, fit.knots), per_knot[0])
    assert len(new.knots) > 20000
    assert np.array_equal(new.knots, old.knots)
    assert np.array_equal(new.point(new.knots), old.point(old.knots))
    assert (new.param_lo, new.param_hi) == (old.param_lo, old.param_hi)


def _walked_run(defined, mid):
    """hypersurface_transform's domain before _defined_run: a step at a
    time from mid to either end of its run."""
    lo, hi = mid, mid
    while lo > 0 and defined[lo - 1]:
        lo -= 1
    while hi < len(defined) - 1 and defined[hi + 1]:
        hi += 1
    return lo, hi


@st.composite
def _mask_and_index(draw):
    """Alternating runs of True and False, and an index inside a True run."""
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    first = draw(st.booleans())
    defined = np.repeat([(first + j) % 2 == 0 for j in range(len(lengths))], lengths)
    assume(defined.any())
    return defined, draw(st.sampled_from(np.flatnonzero(defined).tolist()))


@given(case=_mask_and_index())
@example(case=(np.array([True]), 0))
@example(case=(np.ones(50, dtype=bool), 17))
@example(case=(np.array([False, True, False]), 1))
@example(case=(np.array([True, True, False, True]), 1))
@example(case=(np.array([False, True, True]), 2))
@settings(max_examples=200, deadline=None)
def test_defined_run_equals_the_walk(case):
    defined, mid = case
    mid = np.int64(mid)   # an entry of the transform's survivors
    assert _defined_run(defined, mid) == _walked_run(defined, mid)
