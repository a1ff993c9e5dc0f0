"""Legendre duality: convex conjugates, support functions, and the pointwise
hypersurface transform p -> n(p) / <p, n(p)> together with its inverse use,
reconstructing a level surface from the point cloud {k / a(k)}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DirectionNotAttained,
    InsufficientCloud,
    NotAttained,
    TooFewNicePoints,
)
from .profiles import ToricProfile
from .surfaces import DEFAULT_RESOLUTION, LevelSurface, Orientation, SUPPORT_FLOOR

CURVATURE_FLOOR = 1e-8      # |K| below this marks a non-nice (flat) sample
NICE_FRACTION_MIN = 0.5     # required share of nice samples for the transform
INJECTIVITY_RATIO = 0.1     # post/pre spacing ratio below this drops a sample
CLOUD_DEDUP_TOL = 1e-12
HAUSDORFF_CHUNK = 1 << 16   # pairs per chunk: 512 kB temporaries stay in cache
HAUSDORFF_WINDOW = 2        # neighbours on each side that bound a nearest distance
MIN_CLOUD_POINTS = 20
MIN_NICE_POINTS = 10


@dataclass(frozen=True)
class PointCloud:
    """Deduplicated planar point set, the raw input to reconstruction."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigError("point cloud must have shape (N, 2)")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("point cloud contains non-finite coordinates")
        # every pair within CLOUD_DEDUP_TOL loses its larger index; a close
        # pair is at most that far apart in x, so after sorting on x only
        # offsets whose x-gaps reach down to the tolerance are searched
        order = np.argsort(pts[:, 0], kind="stable")
        xy = pts[order]
        tol2 = CLOUD_DEDUP_TOL * CLOUD_DEDUP_TOL
        drop = np.zeros(len(pts), dtype=bool)
        for d in range(1, len(pts)):
            gap = xy[d:, 0] - xy[:-d, 0]
            near = np.flatnonzero(gap * gap <= tol2)
            if not len(near):
                break
            diff = xy[near + d] - xy[near]
            close = near[(diff * diff).sum(axis=1) <= tol2]
            drop[np.maximum(order[close], order[close + d])] = True
        object.__setattr__(self, "points", pts[~drop])

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_actions(cls, actions) -> "PointCloud":
        """Cloud {k / a(k)} over the entries of an action spectrum."""
        K = actions.directions.astype(float)
        return cls(points=K / actions.actions[:, None])


def _support_point_map(profile: ToricProfile) -> Callable[[np.ndarray], np.ndarray]:
    """Map from the nonzero rows q >= 0 of an (N, n) array to the points x(q)
    of N = {f = 1} maximizing <x, q>: the closed-form Gauss-map inverse of a
    declared convex profile, else the bisection of a planar arc detected
    convex (its better endpoint outside the normal cone). ConfigError when
    f is not convex with a strictly convex level set."""
    n, d = profile.dimension, profile.degree
    if d < 1.0:
        raise ConfigError(f"{profile.name} has degree {d:g} < 1 and is not convex")
    if n == 1:
        x = profile.evaluate_fn(np.ones(1)) ** (-1.0 / d)
        return lambda Q: np.full(Q.shape, x)
    if profile.orientation is Orientation.CONVEX and profile.inverse_gauss_fn is not None:
        return profile.inverse_gauss_fn
    if n != 2:
        raise ConfigError(f"the conjugate of {profile.name} in n = {n} needs a "
                          "closed-form Gauss-map inverse and a convex orientation")
    surface = LevelSurface.from_profile(profile)
    if surface.orientation is not Orientation.CONVEX:
        raise ConfigError(f"the level set of {profile.name} is not strictly convex")
    ends = surface.point([surface.param_lo, surface.param_hi])

    def support_point(Q):
        _, x, _, attained = surface.invert_normal_many(Q)
        return np.where(attained[:, None], x, ends[np.argmax(Q @ ends.T, axis=1)])

    return support_point


def _conjugate_rows(profile: ToricProfile, support_point, Q: np.ndarray):
    """(values, argmaxes) of f* over the rows of Q. With the support value
    h = <x(q), q> and t = (h/d)^(1/(d-1)), the argmax is t x(q) and
    f*(q) = (d - 1) t^d (Rockafellar, Convex Analysis, sections 13 and 15);
    for d = 1, f* is 0 at p = 0 on the polar body h <= 1, +inf beyond."""
    if not np.all(Q >= 0):
        raise ConfigError("q must lie in the closed positive orthant")
    zero = ~Q.any(axis=1)
    # a zero row may take any x: its support value is 0 all the same
    x = support_point(np.where(zero[:, None], 1.0, Q))
    h = np.einsum("ij,ij->i", x, Q)
    d = profile.degree
    if d == 1.0:
        if np.any(h > 1.0):
            raise NotAttained("q lies outside the polar body, where the "
                              "conjugate of a 1-homogeneous profile is +inf")
        return np.zeros(len(Q)), np.zeros_like(Q)
    t = (h / d) ** (1.0 / (d - 1.0))
    return (d - 1.0) * t ** d, t[:, None] * x


def convex_conjugate(profile: ToricProfile, q) -> tuple[float, np.ndarray]:
    """(sup_{p >= 0} <p, q> - f(p), argmax) for q >= 0, in closed form."""
    q = np.asarray(q, dtype=float).reshape(-1)
    n = profile.dimension
    if q.shape != (n,):
        raise ConfigError(f"q must have {n} components")
    values, argmax = _conjugate_rows(profile, _support_point_map(profile), q[None])
    return float(values[0]), argmax[0]


def conjugate_function(profile: ToricProfile) -> ToricProfile:
    """The conjugate as a profile; for degree d > 1 the result is homogeneous
    of degree d' with 1/d + 1/d' = 1. Its gradient is the argmax, and its
    Gauss-map inverse sends k to c grad f(x) / <x, grad f(x)>, with
    x = k / f(k)^(1/d) on N and c = d (d - 1)^(-(d-1)/d), so that the
    conjugate of the conjugate is closed form as well."""
    d = profile.degree
    if d <= 1.0:
        raise ConfigError(
            "conjugate_function needs degree > 1; the conjugate of a "
            "1-homogeneous profile is an indicator, not a toric profile")
    support_point = _support_point_map(profile)
    scale = d * (d - 1.0) ** (-(d - 1.0) / d)

    def conjugate(Q):
        Q = np.asarray(Q, dtype=float)
        values, argmax = _conjugate_rows(profile, support_point,
                                         Q.reshape(-1, Q.shape[-1]))
        return values.reshape(Q.shape[:-1]), argmax.reshape(Q.shape)

    def inverse_gauss(K):
        X = K / profile.evaluate_fn(K)[:, None] ** (1.0 / d)
        G = profile.gradient(X)
        return scale * G / np.einsum("ij,ij->i", X, G)[:, None]

    return ToricProfile(name=f"conjugate({profile.name})",
                        dimension=profile.dimension, degree=d / (d - 1.0),
                        evaluate_fn=lambda Q: conjugate(Q)[0],
                        gradient_fn=lambda Q: conjugate(Q)[1],
                        inverse_gauss_fn=inverse_gauss,
                        orientation=Orientation.CONVEX)


def support_function(surface: LevelSurface, q) -> float:
    """sup over the arc of <p, q> (inf for concave orientation).

    An interior extremum has its normal along q or -q, so the extremum is
    taken over the two arc endpoints and the inversion's points for both,
    where attained; that is exact on every arc. Exactly 1-homogeneous in
    q: the extremum is located for the unit direction and rescaled.
    """
    if surface.dimension != 2:
        raise ConfigError("support_function is implemented for n = 2")
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape != (2,):
        raise ConfigError("q must have 2 components")
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        return 0.0
    u = q / qnorm
    candidates = [surface.point([surface.param_lo, surface.param_hi])]
    for direction in (u, -u):
        try:
            candidates.append(surface.invert_normal(direction).points)
        except DirectionNotAttained:
            pass
    dots = np.concatenate(candidates) @ u
    use_min = surface.orientation is Orientation.CONCAVE
    return qnorm * float(dots.min() if use_min else dots.max())


def _defined_run(defined: np.ndarray, mid: int) -> tuple[int, int]:
    """First and last index of the run of True in defined that holds mid."""
    gaps = np.flatnonzero(~defined)
    j = int(np.searchsorted(gaps, mid))
    lo = int(gaps[j - 1]) + 1 if j > 0 else 0
    hi = int(gaps[j]) - 1 if j < len(gaps) else len(defined) - 1
    return lo, hi


def hypersurface_transform(surface: LevelSurface,
                           at_params: Optional[np.ndarray] = None) -> LevelSurface:
    """Dual surface through L(p) = n(p) / <p, n(p)> over the nice samples.

    Nice means |K| above CURVATURE_FLOOR, support value away from zero, and
    locally injective images. The samples are the given parameters, or
    DEFAULT_RESOLUTION equally spaced ones over the arc. The result is
    parametrized by the original parameter, with closed-form normals
    p(t)/|p(t)|, and keeps the surviving parameters as its knots.
    """
    if surface.dimension != 2:
        raise ConfigError("hypersurface_transform is implemented for n = 2")
    params = (np.linspace(surface.param_lo, surface.param_hi, DEFAULT_RESOLUTION)
              if at_params is None else np.asarray(at_params, dtype=float))
    # samples that leave the float range meet the floors below without a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pts = surface.point(params)
        nrm = surface.normal(params)
        curv = surface.curvature(params)
        support = np.einsum("ij,ij->i", pts, nrm)
        defined = np.abs(support) > SUPPORT_FLOOR
        nice = defined & (np.abs(curv) > CURVATURE_FLOOR)
    if nice.sum() < NICE_FRACTION_MIN * len(params):
        raise TooFewNicePoints(
            f"only {int(nice.sum())} of {len(params)} samples are nice "
            f"(curvature floor {CURVATURE_FLOOR:g})")

    images = nrm[nice] / support[nice, None]
    pre = np.linalg.norm(np.diff(pts[nice], axis=0), axis=1)
    post = np.linalg.norm(np.diff(images, axis=0), axis=1)
    # injectivity guard: consecutive images collapsing far faster than their
    # preimages indicates a fold; drop the second point of each such pair
    keep = np.ones(nice.sum(), dtype=bool)
    with np.errstate(invalid="ignore"):
        collapsed = (post < INJECTIVITY_RATIO * pre) & (pre > 0)
    keep[1:][collapsed] = False
    survivors = np.flatnonzero(nice)[keep]
    if len(survivors) < MIN_NICE_POINTS:
        raise TooFewNicePoints(f"only {len(survivors)} injective nice samples")

    # domain: L(p) stays pointwise defined wherever the support is off zero,
    # so the image keeps the whole contiguous well-defined run around the
    # nice core (the closure of the dual), not just the nice range itself
    lo_idx, hi_idx = _defined_run(defined, survivors[len(survivors) // 2])
    lo = float(params[lo_idx])
    hi = float(params[hi_idx])

    def point_fn(t):
        t = np.asarray(t, dtype=float)
        P = surface.point(t)
        N = surface.normal(t)
        s = np.einsum("...j,...j->...", P, N)
        return N / s[..., None]

    def normal_fn(t):
        P = surface.point(np.asarray(t, dtype=float))
        return P / np.linalg.norm(P, axis=-1, keepdims=True)

    # the dual of a strictly convex arc is strictly convex; anything else is
    # left to detection on the output's own samples
    orientation = (Orientation.CONVEX
                   if surface.orientation is Orientation.CONVEX else None)
    return LevelSurface(dimension=2, point_fn=point_fn, param_lo=lo,
                        param_hi=hi, normal_fn=normal_fn,
                        orientation=orientation, knots=params[survivors])


@dataclass(frozen=True)
class ReconstructionReport:
    cloud_size: int
    fit_knots: int
    nice_points: int
    hausdorff_vs_reference: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "cloud_size": self.cloud_size,
            "fit_knots": self.fit_knots,
            "nice_points": self.nice_points,
            "hausdorff_vs_reference": self.hausdorff_vs_reference,
        }


@dataclass(frozen=True)
class ReconstructionResult:
    surface: LevelSurface
    fit_surface: LevelSurface
    report: ReconstructionReport


def reconstruct_surface(cloud: PointCloud,
                        reference: Optional[LevelSurface] = None) -> ReconstructionResult:
    """Recover the level surface N from the cloud {k / a(k)}.

    Pipeline: spline-fit the cloud as a polar graph M', then push M' through
    the hypersurface transform; the transform of the fitted dual is N itself.
    No curve is sampled densely: the transform runs at the fit's knots and
    the result is read off by rays; only the Hausdorff distance to the
    reference samples both curves, at DEFAULT_RESOLUTION points each.
    """
    if len(cloud) < MIN_CLOUD_POINTS:
        raise InsufficientCloud(
            f"need at least {MIN_CLOUD_POINTS} points, got {len(cloud)}")
    fit = LevelSurface.from_points(cloud.points)
    dual = hypersurface_transform(fit, at_params=fit.knots)
    # keep only the knot images: there the fit interpolates the cloud exactly
    # and only its normal error enters; refitting through them avoids the
    # between-knot error of pushing the whole spline through L
    images = dual.point(dual.knots)
    surface = LevelSurface.from_points(images)
    hd = hausdorff_distance(surface, reference) if reference is not None else None
    report = ReconstructionReport(cloud_size=len(cloud),
                                  fit_knots=len(fit.knots),
                                  nice_points=len(dual.knots),
                                  hausdorff_vs_reference=hd)
    return ReconstructionResult(surface=surface, fit_surface=fit, report=report)


def _squared_distances(p_cols, q_cols):
    """Broadcast |p - q|^2 from coordinate columns, summed in order."""
    d2 = None
    for u, v in zip(p_cols, q_cols):
        diff = u - v
        diff *= diff
        if d2 is None:
            d2 = diff
        else:
            d2 += diff
    return d2


def _directed_hausdorff_squared(pa: np.ndarray, pb: np.ndarray) -> float:
    """max over pa of the squared distance to the nearest point of pb.

    The few points of pb at the same relative index bound each point's
    nearest distance from above. Points are then scanned exactly against
    all of pb, in chunks of HAUSDORFF_CHUNK pairs and largest bound first,
    until the largest exact distance found reaches every remaining bound;
    the result is that of the full scan, bit for bit.
    """
    n, m = len(pa), len(pb)
    cols_a, cols_b = pa.T, np.ascontiguousarray(pb.T)   # strided rows broadcast slowly
    near = np.rint(np.arange(n) * ((m - 1) / max(n - 1, 1))).astype(np.int64)
    window = np.clip(near[:, None] + np.arange(-HAUSDORFF_WINDOW, HAUSDORFF_WINDOW + 1),
                     0, m - 1)
    bound = _squared_distances([c[:, None] for c in cols_a],
                               [c[window] for c in cols_b]).min(axis=1)
    order = np.argsort(bound, kind="stable")[::-1]
    rows = max(1, HAUSDORFF_CHUNK // m)
    best = 0.0
    for lo in range(0, n, rows):
        idx = order[lo:lo + rows]
        if bound[idx[0]] <= best:
            break
        d2 = _squared_distances([c[idx, None] for c in cols_a], cols_b)
        best = max(best, float(d2.min(axis=1).max()))
    return best


def hausdorff_distance(a: LevelSurface, b: LevelSurface,
                       resolution: int = DEFAULT_RESOLUTION) -> float:
    """Symmetric Hausdorff distance between dense samplings of two surfaces:
    the exact nearest-point maximum of a full scan over squared distances,
    with one square root at the end."""
    pa = a.point(np.linspace(a.param_lo, a.param_hi, resolution))
    pb = b.point(np.linspace(b.param_lo, b.param_hi, resolution))
    return float(np.sqrt(max(_directed_hausdorff_squared(pa, pb),
                             _directed_hausdorff_squared(pb, pa))))
