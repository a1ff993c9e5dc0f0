"""Level surfaces {f = 1} of homogeneous profiles and their Gauss geometry.

For n = 2 a surface is a parametrized arc in the closed positive quadrant;
for n = 3 a parametrized patch over a rectangle of sphere angles (analytic
profiles only). Everything downstream relies on two facts about the in-scope
surfaces: they are star-shaped about the origin, and their outward normal
angle is monotone in the curve parameter when the curvature has one sign.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from . import kernels
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateGradient,
    DirectionNotAttained,
    InsufficientResolution,
    NonGraphical,
    TangentThroughOrigin,
)
from .profiles import ToricProfile

GRADIENT_FLOOR = 1e-12        # |grad f| below this: Gauss map undefined
SUPPORT_FLOOR = 1e-10         # |<p, n>| below this: dual point undefined
NORMAL_RESIDUAL_TOL = 1e-10   # |n x k_hat| accepted by the inversion
DEFAULT_RESOLUTION = 4096


class Orientation(str, enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    GENERAL = "general"


def gauss_map(profile: ToricProfile, p) -> np.ndarray:
    """Outward unit normal grad f / |grad f| of the level set through p."""
    g = profile.gradient(p)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(norm < GRADIENT_FLOOR):
        raise DegenerateGradient(f"|grad f| < {GRADIENT_FLOOR:g}")
    return g / norm


def _normal_residuals(normals: np.ndarray, K: np.ndarray) -> np.ndarray:
    """|n x k| / (|n| |k|) per row: the sine of the angle between n and k."""
    cross = np.abs(normals[:, 0] * K[:, 1] - normals[:, 1] * K[:, 0])
    return cross / (np.hypot(normals[:, 0], normals[:, 1]) * np.hypot(K[:, 0], K[:, 1]))


def legendre_point(p, n) -> np.ndarray:
    """Pointwise dual map q = n / <p, n> for a point p with unit normal n."""
    p = np.asarray(p, dtype=float)
    n = np.asarray(n, dtype=float)
    pn = (p * n).sum(axis=-1, keepdims=True)
    if np.any(np.abs(pn) < SUPPORT_FLOOR):
        raise TangentThroughOrigin(f"|<p, n>| < {SUPPORT_FLOOR:g}")
    return n / pn


@dataclass(frozen=True)
class SurfaceSamples:
    params: np.ndarray     # (R,) for n=2, (R, 2) for n=3
    points: np.ndarray     # (R, n)
    normals: np.ndarray    # (R, n), unit
    curvature: np.ndarray  # (R,) signed (n=2) / det of shape operator (n=3)


@dataclass(frozen=True)
class InversionResult:
    """One representative point per solution component of n(p) ~ k."""
    points: np.ndarray     # (C, n)
    params: np.ndarray
    residuals: np.ndarray
    multivalued: bool

    @property
    def point(self) -> np.ndarray:
        return self.points[0]


class LevelSurface:
    """Parametrized level set with outward unit normals.

    Treat instances as immutable. Construct via from_profile,
    from_parametrization, or from_points.

    normal_map, when given, is the closed-form inverse of the Gauss map in
    this parametrization: it sends each nonzero row k >= 0 of an (N, 2)
    array to (params, points, normals) with the normal parallel to k.
    """

    def __init__(self, dimension: int, point_fn: Callable, param_lo, param_hi,
                 normal_fn: Optional[Callable] = None,
                 orientation: Orientation | str | None = None,
                 profile: Optional[ToricProfile] = None,
                 resolution: int = DEFAULT_RESOLUTION,
                 normal_map: Optional[Callable] = None,
                 knots: Optional[np.ndarray] = None):
        if dimension not in (2, 3):
            raise ConfigError("only dimensions 2 and 3 are supported")
        self.dimension = dimension
        self._point_fn = point_fn
        self.param_lo = param_lo
        self.param_hi = param_hi
        self._normal_fn = normal_fn
        self.profile = profile
        self.resolution = int(resolution)
        self.normal_map = normal_map
        self.knots = knots
        if orientation is None:
            self.orientation = self._detect_orientation()
        else:
            self.orientation = Orientation(orientation)

    # -- construction --

    @classmethod
    def from_profile(cls, profile: ToricProfile,
                     resolution: int = DEFAULT_RESOLUTION,
                     orientation: Orientation | str | None = None) -> "LevelSurface":
        """Polar/spherical-angle parametrization of {f = 1}."""
        d = profile.degree
        if profile.dimension == 2:

            def point_fn(t):
                t = np.asarray(t, dtype=float)
                u = np.stack([np.cos(t), np.sin(t)], axis=-1)
                r = profile.evaluate_fn(u) ** (-1.0 / d)
                return u * r[..., None]

            def normal_fn(t):
                t = np.asarray(t, dtype=float)
                u = np.stack([np.cos(t), np.sin(t)], axis=-1)
                g = np.asarray(profile.gradient_fn(u) if profile.gradient_fn
                               else profile._fd_gradient(u), dtype=float)
                return g / np.linalg.norm(g, axis=-1, keepdims=True)

            normal_map = None
            if profile.inverse_gauss_fn is not None:

                def normal_map(K):
                    # the points come from k directly, so the axis rows
                    # land exactly on the axis endpoints
                    p = profile.inverse_gauss_fn(K)
                    return np.arctan2(p[:, 1], p[:, 0]), p, profile.gradient(p)

            return cls(2, point_fn, 0.0, np.pi / 2, normal_fn=normal_fn,
                       orientation=orientation, profile=profile,
                       resolution=resolution, normal_map=normal_map)

        if profile.dimension == 3:
            if profile.gradient_fn is None:
                raise ConfigError("n = 3 surfaces need an analytic gradient")

            def point_fn3(tp):
                tp = np.asarray(tp, dtype=float)
                phi, psi = tp[..., 0], tp[..., 1]
                u = np.stack([np.sin(psi) * np.cos(phi),
                              np.sin(psi) * np.sin(phi),
                              np.cos(psi)], axis=-1)
                r = profile.evaluate_fn(u) ** (-1.0 / d)
                return u * r[..., None]

            def normal_fn3(tp):
                p = point_fn3(tp)
                g = np.asarray(profile.gradient_fn(p), dtype=float)
                return g / np.linalg.norm(g, axis=-1, keepdims=True)

            return cls(3, point_fn3, np.zeros(2), np.full(2, np.pi / 2),
                       normal_fn=normal_fn3, orientation=orientation,
                       profile=profile, resolution=resolution)

        raise ConfigError("from_profile supports dimensions 2 and 3 only")

    @classmethod
    def from_parametrization(cls, point_fn: Callable, param_lo: float,
                             param_hi: float, normal_fn: Optional[Callable] = None,
                             orientation: Orientation | str | None = None,
                             profile: Optional[ToricProfile] = None,
                             resolution: int = DEFAULT_RESOLUTION) -> "LevelSurface":
        return cls(2, point_fn, float(param_lo), float(param_hi),
                   normal_fn=normal_fn, orientation=orientation, profile=profile,
                   resolution=resolution)

    @classmethod
    def from_points(cls, points: np.ndarray,
                    orientation: Orientation | str | None = None,
                    resolution: int = DEFAULT_RESOLUTION) -> "LevelSurface":
        """Interpolating polar cubic fit through scattered curve points.

        Ends touching a coordinate axis are clamped (dr/dphi = 0): for
        profiles with positive frequencies an axis normal direction is only
        attained at an axis point, where the curve meets the axis at a right
        angle, so the clamp reproduces the true boundary behavior.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigError("from_points expects an (N, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("points must be finite")
        if pts.shape[0] < 4:
            raise InsufficientResolution("need at least 4 points for a cubic fit")
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        r = np.hypot(pts[:, 0], pts[:, 1])
        order = np.argsort(phi, kind="stable")
        phi, r = phi[order], r[order]
        pts = pts[order]
        dphi = np.diff(phi)
        dup = dphi <= 1e-12
        if np.any(dup):
            same_r = np.abs(np.diff(r))[dup] <= 1e-9 * np.maximum(r[:-1], 1.0)[dup]
            if not np.all(same_r):
                raise NonGraphical("duplicate polar angles with distinct radii")
            keep = np.concatenate([[True], ~dup])
            phi, r, pts = phi[keep], r[keep], pts[keep]
        if phi.size < 4:
            raise InsufficientResolution("fewer than 4 distinct angles")

        scale = float(np.max(r))
        bc_lo = (1, 0.0) if min(abs(pts[0, 0]), abs(pts[0, 1])) <= 1e-12 * scale else "not-a-knot"
        bc_hi = (1, 0.0) if min(abs(pts[-1, 0]), abs(pts[-1, 1])) <= 1e-12 * scale else "not-a-knot"
        spline = CubicSpline(phi, r, bc_type=(bc_lo, bc_hi))
        dspline = spline.derivative()

        def point_fn(t):
            t = np.asarray(t, dtype=float)
            rr = spline(t)
            return np.stack([rr * np.cos(t), rr * np.sin(t)], axis=-1)

        def normal_fn(t):
            t = np.asarray(t, dtype=float)
            rr = spline(t)
            rp = dspline(t)
            c, s = np.cos(t), np.sin(t)
            # tangent of r(phi)*(cos, sin); outward normal keeps <q, n> > 0
            tx = rp * c - rr * s
            ty = rp * s + rr * c
            nx, ny = ty, -tx
            dot = nx * (rr * c) + ny * (rr * s)
            sgn = np.where(dot < 0, -1.0, 1.0)
            nx, ny = nx * sgn, ny * sgn
            nrm = np.hypot(nx, ny)
            return np.stack([nx / nrm, ny / nrm], axis=-1)

        return cls(2, point_fn, float(phi[0]), float(phi[-1]),
                   normal_fn=normal_fn, orientation=orientation,
                   resolution=resolution, knots=phi.copy())

    # -- evaluation --

    def point(self, t):
        return self._point_fn(np.asarray(t, dtype=float))

    def normal(self, t):
        t = np.asarray(t, dtype=float)
        if self._normal_fn is not None:
            return self._normal_fn(t)
        return self._fd_normal(t)

    def _fd_normal(self, t):
        if self.dimension != 2:
            raise ConfigError("finite-difference normals implemented for n = 2")
        h = self._param_step()
        tc = np.clip(t, self.param_lo + h, self.param_hi - h)
        dp = (self.point(tc + h) - self.point(tc - h)) / (2 * h)
        nx, ny = dp[..., 1], -dp[..., 0]
        q = self.point(tc)
        dot = nx * q[..., 0] + ny * q[..., 1]
        sgn = np.where(dot < 0, -1.0, 1.0)
        nx, ny = nx * sgn, ny * sgn
        nrm = np.hypot(nx, ny)
        if np.any(nrm < GRADIENT_FLOOR):
            raise DegenerateGradient("tangent vanished in finite-difference normal")
        return np.stack([nx / nrm, ny / nrm], axis=-1)

    def normal_angle(self, t):
        n = self.normal(t)
        return np.arctan2(n[..., 1], n[..., 0])

    def _param_step(self) -> float:
        span = float(np.max(np.asarray(self.param_hi) - np.asarray(self.param_lo)))
        return max(1e-6 * span, 1e-9)

    def curvature(self, t):
        """Signed curvature (n=2) / det of the shape operator (n=3)."""
        if self.dimension == 2:
            t = np.asarray(t, dtype=float)
            h = self._param_step()
            tc = np.clip(t, self.param_lo + h, self.param_hi - h)
            dp = (self.point(tc + h) - self.point(tc - h)) / (2 * h)
            dn = (self.normal(tc + h) - self.normal(tc - h)) / (2 * h)
            speed2 = (dp ** 2).sum(axis=-1)
            if np.any(speed2 < 1e-30):
                raise InsufficientResolution("parametrization speed vanished")
            return (dn * dp).sum(axis=-1) / speed2
        return self._curvature_3d(t)

    def _curvature_3d(self, tp):
        if self.profile is None or self.profile.gradient_fn is None:
            raise ConfigError("n = 3 curvature needs an analytic-gradient profile")
        tp = np.asarray(tp, dtype=float)
        single = tp.ndim == 1
        tps = tp[None, :] if single else tp.reshape(-1, 2)
        out = np.empty(tps.shape[0])
        for i, one in enumerate(tps):
            p = self.point(one)
            g = self.profile.gradient(p)
            gn = np.linalg.norm(g)
            if gn < GRADIENT_FLOOR:
                raise DegenerateGradient("|grad f| ~ 0 on n = 3 surface")
            n = g / gn
            H = self._hessian(p)
            e1 = np.cross(n, [0.0, 0.0, 1.0])
            if np.linalg.norm(e1) < 1e-8:
                e1 = np.cross(n, [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(n, e1)
            M = np.array([[e1 @ H @ e1, e1 @ H @ e2],
                          [e2 @ H @ e1, e2 @ H @ e2]]) / gn
            out[i] = np.linalg.det(M)
        return float(out[0]) if single else out.reshape(tp.shape[:-1])

    def _hessian(self, p: np.ndarray) -> np.ndarray:
        grad = self.profile.gradient
        h = max(1e-6, 1e-8 * float(np.linalg.norm(p)))
        H = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            H[:, j] = (grad(p + e) - grad(p - e)) / (2 * h)
        return 0.5 * (H + H.T)

    # -- cached dense samples --

    @cached_property
    def samples(self) -> SurfaceSamples:
        if self.dimension == 2:
            params = np.linspace(self.param_lo, self.param_hi, self.resolution)
            points = self.point(params)
            normals = self.normal(params)
            curv = self.curvature(params)
        else:
            side = max(9, int(np.sqrt(self.resolution)))
            u = np.linspace(self.param_lo[0], self.param_hi[0], side)
            v = np.linspace(self.param_lo[1], self.param_hi[1], side)
            uu, vv = np.meshgrid(u, v, indexing="ij")
            params = np.stack([uu.ravel(), vv.ravel()], axis=-1)
            points = self.point(params)
            normals = self.normal(params)
            curv = self._curvature_3d(params).ravel()
        return SurfaceSamples(params=params, points=points, normals=normals,
                              curvature=curv)

    def _detect_orientation(self) -> Orientation:
        if self.dimension == 3:
            k = self.samples.curvature
            if np.all(k > 1e-12):
                return Orientation.CONVEX
            return Orientation.GENERAL
        # interior samples only: strictly convex arcs may have K -> 0 at the
        # very endpoints (superellipse s > 2)
        lo, hi = self.param_lo, self.param_hi
        t = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 65)
        k = self.curvature(t)
        if np.all(k > 1e-12):
            return Orientation.CONVEX
        if np.all(k < -1e-12):
            return Orientation.CONCAVE
        return Orientation.GENERAL

    # -- normal-direction inversion --

    @cached_property
    def _angle_profile(self) -> tuple[float, float, bool]:
        """(min angle, max angle, increasing?) of the outward normal angle."""
        if self.dimension != 2:
            raise ConfigError("normal-angle machinery is n = 2 only")
        t = np.linspace(self.param_lo, self.param_hi, 257)
        ang = self.normal_angle(t)
        d = np.diff(ang)
        if np.all(d >= -1e-12):
            return float(ang[0]), float(ang[-1]), True
        if np.all(d <= 1e-12):
            return float(ang[-1]), float(ang[0]), False
        raise ConvergenceFailure("normal angle is not monotone; use the "
                                 "general scanning path")

    def invert_normal_many(self, directions: np.ndarray):
        """Vectorized inversion for convex/concave n = 2 surfaces.

        Returns (params, points, residuals, attained_mask). A surface with a
        closed-form normal_map attains every nonzero k >= 0; otherwise a
        monotone bisection solves for the normal angle. Rows outside the
        normal cone are masked out (nan), not errors.
        """
        K = np.asarray(directions, dtype=float)
        if self.normal_map is None:
            t, points, normals, attained = self._bisect_normal_many(K)
        else:
            attained = ((np.minimum(K[:, 0], K[:, 1]) >= 0)
                        & (np.maximum(K[:, 0], K[:, 1]) > 0))
            if not attained.all():
                K = np.where(attained[:, None], K, np.nan)
            t, points, normals = self.normal_map(K)
        return t, points, _normal_residuals(normals, K), attained

    def _bisect_normal_many(self, K: np.ndarray):
        targets = np.arctan2(K[:, 1], K[:, 0])
        lo_a, hi_a, increasing = self._angle_profile
        attained = (targets >= lo_a - 1e-12) & (targets <= hi_a + 1e-12)
        t = np.full(K.shape[0], np.nan)
        points = np.full((K.shape[0], 2), np.nan)
        normals = np.full((K.shape[0], 2), np.nan)
        if np.any(attained):
            t_hit = kernels.bisect_generic(self.normal_angle, self.param_lo,
                                           self.param_hi,
                                           np.clip(targets[attained], lo_a, hi_a),
                                           increasing=increasing)
            t[attained] = t_hit
            points[attained] = self.point(t_hit)
            normals[attained] = self.normal(t_hit)
        return t, points, normals, attained

    def invert_normal(self, k, max_iter: int = 200) -> InversionResult:
        """Inversion for a single integer/real direction.

        Convex and concave surfaces take invert_normal_many; general
        surfaces scan the samples for residual sign changes and flat runs.
        """
        k = np.asarray(k, dtype=float)
        if self.dimension == 3:
            return self._invert_normal_3d(k, max_iter)
        if self.orientation in (Orientation.CONVEX, Orientation.CONCAVE):
            t, pts, res, ok = self.invert_normal_many(k[None, :])
            if not ok[0]:
                raise DirectionNotAttained(f"direction {k.tolist()} outside normal cone")
            if not res[0] <= NORMAL_RESIDUAL_TOL:
                raise ConvergenceFailure(
                    f"inversion residual {res[0]:.3e} > {NORMAL_RESIDUAL_TOL:g}")
            return InversionResult(points=pts[:1], params=t[:1],
                                   residuals=res[:1], multivalued=False)
        return self._invert_normal_scan(k, max_iter)

    def _invert_normal_scan(self, k: np.ndarray, max_iter: int) -> InversionResult:
        khat = k / np.linalg.norm(k)
        t = np.linspace(self.param_lo, self.param_hi, self.resolution)
        n = self.normal(t)
        g = n[:, 0] * khat[1] - n[:, 1] * khat[0]
        dot = n @ khat
        flat = (np.abs(g) <= 1e-12) & (dot > 0)
        params: list[float] = []
        multivalued = False
        if np.all(flat):
            # constant-normal surface (a facet): every parameter solves
            params.append(0.5 * (self.param_lo + self.param_hi))
            multivalued = True
        else:
            runs = np.flatnonzero(flat)
            if runs.size:
                # representative per contiguous flat run
                splits = np.split(runs, np.flatnonzero(np.diff(runs) > 1) + 1)
                for run in splits:
                    params.append(float(t[run[run.size // 2]]))
                multivalued = multivalued or (runs.size > 1)
            sign = np.sign(g)
            for i in np.flatnonzero((sign[:-1] * sign[1:] < 0) & (dot[:-1] > 0)):
                a, b = t[i], t[i + 1]
                fa = g[i]
                for _ in range(max_iter):
                    mid = 0.5 * (a + b)
                    nm = self.normal(mid)
                    fm = nm[0] * khat[1] - nm[1] * khat[0]
                    if fa * fm <= 0:
                        b = mid
                    else:
                        a, fa = mid, fm
                    if b - a <= 1e-15 * (self.param_hi - self.param_lo):
                        break
                params.append(0.5 * (a + b))
        if not params:
            raise DirectionNotAttained(f"direction {k.tolist()} not attained")
        params_arr = np.array(sorted(params))
        # merge near-duplicates from adjacent brackets
        if params_arr.size > 1:
            keep = np.concatenate([[True], np.diff(params_arr) > 1e-9 * (self.param_hi - self.param_lo)])
            params_arr = params_arr[keep]
        multivalued = multivalued or params_arr.size > 1
        pts = self.point(params_arr)
        nn = self.normal(params_arr)
        res = np.abs(nn[:, 0] * khat[1] - nn[:, 1] * khat[0])
        if np.any(res > NORMAL_RESIDUAL_TOL):
            raise ConvergenceFailure("scan refinement missed the residual tolerance")
        return InversionResult(points=pts, params=params_arr, residuals=res,
                               multivalued=bool(multivalued))

    def _invert_normal_3d(self, k: np.ndarray, max_iter: int) -> InversionResult:
        khat = k / np.linalg.norm(k)
        if np.any(khat < -1e-12):
            raise DirectionNotAttained("directions outside the closed positive octant")
        samp = self.samples
        dots = samp.normals @ khat
        i0 = int(np.argmax(dots))
        x = samp.params[i0].astype(float).copy()
        # orthonormal basis of the plane normal to khat
        e1 = np.cross(khat, [0.0, 0.0, 1.0])
        if np.linalg.norm(e1) < 1e-8:
            e1 = np.cross(khat, [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(khat, e1)

        def resid(xp):
            n = self.normal(xp)
            return np.array([n @ e1, n @ e2])

        lo = np.asarray(self.param_lo, dtype=float)
        hi = np.asarray(self.param_hi, dtype=float)
        h = 1e-7
        for _ in range(max_iter):
            r = resid(x)
            if np.linalg.norm(r) <= NORMAL_RESIDUAL_TOL * 0.5:
                break
            J = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                J[:, j] = (resid(np.clip(x + e, lo, hi)) - resid(np.clip(x - e, lo, hi))) / (2 * h)
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                raise ConvergenceFailure("singular Jacobian in n = 3 inversion")
            scale = 1.0
            base = np.linalg.norm(r)
            for _ in range(40):
                cand = np.clip(x + scale * step, lo, hi)
                if np.linalg.norm(resid(cand)) < base:
                    x = cand
                    break
                scale *= 0.5
            else:
                raise ConvergenceFailure("n = 3 inversion line search stalled")
        n = self.normal(x)
        res = float(np.linalg.norm(np.cross(n, khat)))
        if res > NORMAL_RESIDUAL_TOL:
            if np.linalg.norm(np.clip(x, lo + 1e-9, hi - 1e-9) - x) > 0:
                raise DirectionNotAttained("Newton pushed to the patch boundary")
            raise ConvergenceFailure(f"n = 3 inversion residual {res:.2e}")
        p = self.point(x)
        return InversionResult(points=p[None, :], params=x[None, :],
                               residuals=np.array([res]), multivalued=False)

    # -- star-shaped radial evaluation --

    @cached_property
    def _polar_profile(self) -> tuple[float, float, bool]:
        t = np.linspace(self.param_lo, self.param_hi, 257)
        p = self.point(t)
        ang = np.arctan2(p[..., 1], p[..., 0])
        d = np.diff(ang)
        if np.all(d >= -1e-12):
            return float(ang[0]), float(ang[-1]), True
        if np.all(d <= 1e-12):
            return float(ang[-1]), float(ang[0]), False
        raise ConfigError("surface is not star-shaped in polar angle")

    def radial_value(self, p) -> float:
        """Value of the implied 1-homogeneous function at p: |p| / |N(phi_p)|.

        Raises DirectionNotAttained when the ray through p misses the arc.
        """
        if self.dimension != 2:
            raise ConfigError("radial evaluation is n = 2 only")
        p = np.asarray(p, dtype=float)
        phi = float(np.arctan2(p[1], p[0]))
        lo_a, hi_a, increasing = self._polar_profile
        if phi < lo_a - 1e-12 or phi > hi_a + 1e-12:
            raise DirectionNotAttained("ray leaves the curve's angular span")
        phi = min(max(phi, lo_a), hi_a)

        def polar(t):
            q = self.point(t)
            return np.arctan2(q[..., 1], q[..., 0])

        t = kernels.bisect_generic(polar, self.param_lo, self.param_hi,
                                   np.array([phi]), increasing=increasing)
        q = self.point(t)[0]
        return float(np.hypot(p[0], p[1]) / np.hypot(q[0], q[1]))


def gauss_curvature(surface: LevelSurface, param):
    """Curvature of the surface at the given parameter(s)."""
    return surface.curvature(param)


def invert_gauss_map(surface: LevelSurface, k) -> np.ndarray:
    """Point p on the surface with n(p) proportional to k (representative)."""
    return surface.invert_normal(k).point


def invert_gauss_map_all(surface: LevelSurface, k) -> InversionResult:
    """All solution components, with the multivalued flag exposed."""
    return surface.invert_normal(k)
