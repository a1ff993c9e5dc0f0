"""Level surfaces {f = 1} of homogeneous profiles and their Gauss geometry.

For n = 2 a surface is a parametrized arc in the closed positive quadrant.
For n = 3 it is the level set of a profile with a closed-form Gauss-map
inverse and a declared orientation (pnorm convex, the harmonic facet
general), parametrized by sphere angles; it is inverted through that closed
form only, and the sampled methods are planar.

Orientation is declared wherever the math fixes it: by each builtin profile
family (pnorm convex, the harmonic facet general) and by the disk's concave
boundary curve. Only numeric arcs (spline and table curves, transform duals,
custom profiles) detect it from sampled curvature. Everything downstream
relies on two facts about the in-scope surfaces: they are star-shaped about
the origin, and their outward normal angle is monotone along the arc, so
invert_normal_many finds a direction's points in closed form or by
bisection (UnsupportedSurface where the normal turns back).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateGradient,
    DirectionNotAttained,
    InsufficientResolution,
    NonGraphical,
    TangentThroughOrigin,
    UnsupportedSurface,
)
from .profiles import Orientation, ToricProfile

GRADIENT_FLOOR = 1e-12        # |grad f| below this: Gauss map undefined
SUPPORT_FLOOR = 1e-10         # |<p, n>| below this: dual point undefined
NORMAL_RESIDUAL_TOL = 1e-10   # |n x k_hat| accepted by the inversion
DEFAULT_RESOLUTION = 4096     # points of every dense sampling of a planar arc
SCAN_REFINE_ITERS = 200       # bisection steps per sign change of the scan


def gauss_map(profile: ToricProfile, p) -> np.ndarray:
    """Outward unit normal grad f / |grad f| of the level set through p."""
    g = profile.gradient(p)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(norm < GRADIENT_FLOOR):
        raise DegenerateGradient(f"|grad f| < {GRADIENT_FLOOR:g}")
    return g / norm


def _normal_residuals(normals: np.ndarray, K: np.ndarray) -> np.ndarray:
    """max_{i<j} |n_i k_j - n_j k_i| / (|n| |k|) per row: the sine of the
    angle between n and k for n = 2, within a factor sqrt(3) of it for n = 3.
    Computed on the coordinate columns, each temporary reused in place."""
    n, k = normals.T, K.T
    cross = None
    for i, j in itertools.combinations(range(len(n)), 2):
        d = np.multiply(n[i], k[j])
        d -= n[j] * k[i]
        np.abs(d, out=d)
        cross = d if cross is None else np.maximum(cross, d, out=cross)
    den = _column_norms(n)
    den *= _column_norms(k)
    cross /= den
    return cross


def _column_norms(cols) -> np.ndarray:
    """hypot(hypot(c_1, c_2), c_3) ... over the columns: the row norms."""
    h = np.hypot(cols[0], cols[1])
    for col in cols[2:]:
        np.hypot(h, col, out=h)
    return h


def _cyclic_reduction(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solution s of sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i]
    (sub[0] = sup[-1] = 0) by odd-even cyclic reduction (Hockney 1965; Buzbee,
    Golub and Nielson 1970), without row exchanges.

    Each even row takes out the unknowns of its odd neighbours, which leaves
    a tridiagonal system in the even unknowns alone, half the size; solved
    the same way, it gives the odd unknowns from their own rows.
    """
    if len(diag) == 1:
        return rhs / diag
    a, b, c, d = (v[0::2].copy() for v in (sub, diag, sup, rhs))
    a_odd, b_odd, c_odd, d_odd = (v[1::2] for v in (sub, diag, sup, rhs))
    n_even, n_odd = len(b), len(b_odd)
    below = -a[1:] / b_odd[:n_even - 1]   # even row j >= 1 against odd row j - 1
    above = -c[:n_odd] / b_odd            # even row j < n_odd against odd row j
    b[1:] += below * c_odd[:n_even - 1]
    d[1:] += below * d_odd[:n_even - 1]
    b[:n_odd] += above * a_odd
    d[:n_odd] += above * d_odd
    a[1:] = below * a_odd[:n_even - 1]
    c[:n_odd] = above * c_odd
    even = _cyclic_reduction(a, b, c, d)
    s = np.empty(len(diag))
    s[0::2] = even
    s[1::2] = (d_odd - a_odd * even[:n_odd]
               - c_odd * np.append(even[1:], 0.0)[:n_odd]) / b_odd
    return s


def _spline_system(x: np.ndarray, y: np.ndarray, clamp_lo: bool,
                   clamp_hi: bool) -> np.ndarray:
    """Rows (sub, diag, sup, rhs) of the knot slopes' tridiagonal system,
    row i reading sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i].

    The system is de Boor's, *A Practical Guide to Splines*, ch. IV, with
    h = diff(x) and m = diff(y) / h:
    h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1}
    = 3 (h_i m_{i-1} + h_{i-1} m_i) inside; an end row is clamped (s = 0)
    or not-a-knot.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    sub, diag, sup, rhs = rows = np.zeros((4, len(x)))
    sub[1:-1] = h[1:]
    diag[1:-1] = 2 * (h[:-1] + h[1:])
    sup[1:-1] = h[:-1]
    rhs[1:-1] = 3 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    if clamp_lo:
        diag[0] = 1.0
    else:
        d = x[2] - x[0]
        diag[0], sup[0] = h[1], d
        rhs[0] = ((h[0] + 2 * d) * h[1] * m[0] + h[0] ** 2 * m[1]) / d
    if clamp_hi:
        diag[-1] = 1.0
    else:
        d = x[-1] - x[-3]
        sub[-1], diag[-1] = d, h[-2]
        rhs[-1] = (h[-1] ** 2 * m[-2] + (2 * d + h[-1]) * h[-2] * m[-1]) / d
    return rows


def _cubic_spline(x: np.ndarray, y: np.ndarray, clamp_lo: bool,
                  clamp_hi: bool) -> Callable:
    """C2 cubic interpolant through (x, y).

    x is strictly increasing with at least 4 knots; each end is clamped
    (zero slope) or not-a-knot. The knot slopes solve _spline_system by
    _cyclic_reduction. Each interval holds a Hermite cubic, evaluated by
    Horner's rule; the end pieces extrapolate. spline(u, with_slope=True)
    gives the value and the slope from one interval lookup.
    """
    n = len(x)
    h = np.diff(x)
    m = np.diff(y) / h
    s = _cyclic_reduction(*_spline_system(x, y, clamp_lo, clamp_hi))

    t = (s[:-1] + s[1:] - 2 * m) / h
    c3, c2, c1 = t / h, (m - s[:-1]) / h - t, s[:-1]
    value_coef = np.stack([c3, c2, c1, y[:-1]], axis=-1)
    slope_coef = np.stack([3 * c3, 2 * c2, c1], axis=-1)

    def horner(coef, u):
        out = coef[..., 0]
        for j in range(1, coef.shape[-1]):
            out = out * u + coef[..., j]
        return out

    def spline(u, with_slope=False):
        u = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(x, u, side="right") - 1, 0, n - 2)
        du = u - x[i]
        value = horner(value_coef[i], du)
        return (value, horner(slope_coef[i], du)) if with_slope else value

    return spline


def legendre_point(p, n) -> np.ndarray:
    """Pointwise dual map q = n / <p, n> for a point p with unit normal n."""
    p = np.asarray(p, dtype=float)
    n = np.asarray(n, dtype=float)
    pn = (p * n).sum(axis=-1, keepdims=True)
    if np.any(np.abs(pn) < SUPPORT_FLOOR):
        raise TangentThroughOrigin(f"|<p, n>| < {SUPPORT_FLOOR:g}")
    return n / pn


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

    Treat instances as immutable. Construct via from_profile or from_points.

    normal_map, when given, is the closed-form inverse of the Gauss map in
    this parametrization: it sends each nonzero row k >= 0 of an (N, n)
    array, in any memory layout (the action table passes its direction
    columns transposed), to (params, points, normals) with the normal
    parallel to k, and a row that no point has its normal along to nan.
    Surfaces in n = 3 need one and a declared orientation; planar arcs
    without an orientation detect it from their sampled curvature
    (orientation_declared tells which). A surface holds no sampling density:
    the planar methods that sample densely, the general-arc scan of
    invert_normal and duality.hypersurface_transform, take DEFAULT_RESOLUTION
    points.
    """

    def __init__(self, dimension: int, point_fn: Callable, param_lo, param_hi,
                 normal_fn: Callable,
                 orientation: Orientation | str | None = None,
                 normal_map: Optional[Callable] = None,
                 knots: Optional[np.ndarray] = None):
        if dimension not in (2, 3):
            raise ConfigError("only dimensions 2 and 3 are supported")
        if dimension == 3 and (normal_map is None or orientation is None):
            raise ConfigError("n = 3 surfaces need a closed-form Gauss-map "
                              "inverse and a declared orientation (pnorm, "
                              "superellipse or linear profiles)")
        self.dimension = dimension
        self._point_fn = point_fn
        self.param_lo = param_lo
        self.param_hi = param_hi
        self._normal_fn = normal_fn
        self.normal_map = normal_map
        self.knots = knots
        self.orientation_declared = orientation is not None
        if orientation is None:
            self.orientation = self._detect_orientation()
        else:
            self.orientation = Orientation(orientation)

    # -- construction --

    @classmethod
    def from_profile(cls, profile: ToricProfile) -> "LevelSurface":
        """Polar (n = 2) or spherical (n = 3) angle parametrization of {f = 1}.

        The profile's closed-form Gauss-map inverse, if any, becomes the
        normal map, and its declared orientation the surface's; a profile
        without one has its orientation detected.
        """
        n, d = profile.dimension, profile.degree

        def unit(t):
            t = np.asarray(t, dtype=float)
            if n == 2:
                return np.stack([np.cos(t), np.sin(t)], axis=-1)
            phi, psi = t[..., 0], t[..., 1]
            return np.stack([np.sin(psi) * np.cos(phi),
                             np.sin(psi) * np.sin(phi),
                             np.cos(psi)], axis=-1)

        def point_fn(t):
            u = unit(t)
            r = profile.evaluate_fn(u) ** (-1.0 / d)
            return u * r[..., None]

        def normal_fn(t):
            g = profile.gradient(unit(t))
            return g / np.linalg.norm(g, axis=-1, keepdims=True)

        normal_map = None
        if profile.inverse_gauss_fn is not None:
            def normal_map(K):
                # the points come from k directly, so the axis rows
                # land exactly on the axis endpoints; the closed form
                # reads C-contiguous rows, as the profile's own callers
                # pass them
                p = profile.inverse_gauss_fn(np.ascontiguousarray(K))
                t = np.arctan2(p[:, 1], p[:, 0])
                if n == 3:
                    t = np.stack([t, np.arctan2(np.hypot(p[:, 0], p[:, 1]),
                                                p[:, 2])], axis=-1)
                return t, p, profile.gradient(p)

        lo, hi = (0.0, np.pi / 2) if n == 2 else (np.zeros(2), np.full(2, np.pi / 2))
        return cls(n, point_fn, lo, hi,
                   normal_fn=normal_fn, orientation=profile.orientation,
                   normal_map=normal_map)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "LevelSurface":
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
        on_axis = np.min(np.abs(pts[[0, -1]]), axis=1) <= 1e-12 * scale
        spline = _cubic_spline(phi, r, *on_axis.tolist())

        def point_fn(t):
            t = np.asarray(t, dtype=float)
            rr = spline(t)
            return np.stack([rr * np.cos(t), rr * np.sin(t)], axis=-1)

        def normal_fn(t):
            t = np.asarray(t, dtype=float)
            rr, rp = spline(t, with_slope=True)
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
                   normal_fn=normal_fn, knots=phi.copy())

    # -- evaluation --

    def point(self, t):
        return self._point_fn(np.asarray(t, dtype=float))

    def normal(self, t):
        return self._normal_fn(np.asarray(t, dtype=float))

    def normal_angle(self, t):
        n = self.normal(t)
        return np.arctan2(n[..., 1], n[..., 0])

    def curvature(self, t):
        """Signed curvature of the planar arc."""
        if self.dimension != 2:
            raise ConfigError("curvature is n = 2 only")
        t = np.asarray(t, dtype=float)
        h = max(1e-6 * float(self.param_hi - self.param_lo), 1e-9)
        tc = np.clip(t, self.param_lo + h, self.param_hi - h)
        dp = (self.point(tc + h) - self.point(tc - h)) / (2 * h)
        dn = (self.normal(tc + h) - self.normal(tc - h)) / (2 * h)
        speed2 = (dp ** 2).sum(axis=-1)
        if np.any(speed2 < 1e-30):
            raise InsufficientResolution("parametrization speed vanished")
        return (dn * dp).sum(axis=-1) / speed2

    def _detect_orientation(self) -> Orientation:
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

    # -- monotone angles: the normal's and the polar one --

    def _monotone_span(self, angle_fn, error, what: str) -> tuple[float, float, bool]:
        """(min angle, max angle, increasing?) of angle_fn over the arc;
        raises error when the angle is not monotone."""
        ang = angle_fn(np.linspace(self.param_lo, self.param_hi, 257))
        d = np.diff(ang)
        if np.all(d >= -1e-12):
            return float(ang[0]), float(ang[-1]), True
        if np.all(d <= 1e-12):
            return float(ang[-1]), float(ang[0]), False
        raise error(f"{what} angle is not monotone along the arc")

    def _bisect_angle(self, angle_fn, span, targets) -> np.ndarray:
        """Parameters where the monotone angle_fn meets the targets, each
        clipped into the angle's span."""
        lo_a, hi_a, increasing = span
        return kernels.bisect_generic(angle_fn, self.param_lo, self.param_hi,
                                      np.clip(targets, lo_a, hi_a),
                                      increasing=increasing)

    # -- normal-direction inversion --

    @cached_property
    def _angle_profile(self) -> tuple[float, float, bool]:
        # a normal that turns back meets a direction at points of unequal action
        return self._monotone_span(self.normal_angle, UnsupportedSurface, "normal")

    def invert_normal_many(self, directions: np.ndarray):
        """Vectorized inversion: the closed-form normal_map where there is
        one, else a bisection of the monotone normal angle.

        Returns (params, points, residuals, attained_mask). A closed-form
        normal_map attains the nonzero rows k >= 0 that it maps to finite
        points. Rows outside the normal cone are masked out (nan), not
        errors; a normal angle that is not monotone is UnsupportedSurface.
        """
        K = np.asarray(directions, dtype=float)
        if self.normal_map is None:
            t, points, normals, attained = self._bisect_normal_many(K)
        else:
            # columnwise: a row-wise reduction over few columns is far slower
            cols = K.T
            low = np.minimum(cols[0], cols[1])
            high = np.maximum(cols[0], cols[1])
            for col in cols[2:]:
                np.minimum(low, col, out=low)
                np.maximum(high, col, out=high)
            attained = low >= 0
            attained &= high > 0
            if not attained.all():
                K = np.where(attained[:, None], K, np.nan)
            t, points, normals = self.normal_map(K)
            for col in points.T:
                attained &= np.isfinite(col)
        return t, points, _normal_residuals(normals, K), attained

    def _bisect_normal_many(self, K: np.ndarray):
        targets = np.arctan2(K[:, 1], K[:, 0])
        span = self._angle_profile
        attained = (targets >= span[0] - 1e-12) & (targets <= span[1] + 1e-12)
        t = np.full(K.shape[0], np.nan)
        points = np.full((K.shape[0], 2), np.nan)
        normals = np.full((K.shape[0], 2), np.nan)
        if np.any(attained):
            t_hit = self._bisect_angle(self.normal_angle, span, targets[attained])
            t[attained] = t_hit
            points[attained] = self.point(t_hit)
            normals[attained] = self.normal(t_hit)
        return t, points, normals, attained

    def invert_normal(self, k) -> InversionResult:
        """Inversion for a single integer/real direction.

        Convex and concave surfaces, and every n = 3 surface, take
        invert_normal_many; general planar arcs scan the samples for
        residual sign changes and flat runs, and so report every solution
        component.
        """
        k = np.asarray(k, dtype=float)
        if self.dimension == 3 or self.orientation in (Orientation.CONVEX,
                                                       Orientation.CONCAVE):
            t, pts, res, ok = self.invert_normal_many(k[None, :])
            if not ok[0]:
                raise DirectionNotAttained(f"direction {k.tolist()} outside normal cone")
            if not res[0] <= NORMAL_RESIDUAL_TOL:
                raise ConvergenceFailure(
                    f"inversion residual {res[0]:.3e} > {NORMAL_RESIDUAL_TOL:g}")
            return InversionResult(points=pts[:1], params=t[:1],
                                   residuals=res[:1], multivalued=False)
        return self._invert_normal_scan(k)

    def _invert_normal_scan(self, k: np.ndarray) -> InversionResult:
        khat = k / np.linalg.norm(k)
        t = np.linspace(self.param_lo, self.param_hi, DEFAULT_RESOLUTION)
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
                for _ in range(SCAN_REFINE_ITERS):
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

    # -- star-shaped radial evaluation --

    def _polar_angle(self, t):
        q = self.point(t)
        return np.arctan2(q[..., 1], q[..., 0])

    @cached_property
    def _polar_profile(self) -> tuple[float, float, bool]:
        # not star-shaped: a ray meets the arc more than once
        return self._monotone_span(self._polar_angle, ConfigError, "polar")

    def ray_parameter(self, p) -> np.ndarray:
        """Parameter of the arc point on the ray through each row of p (..., 2).

        On a polar-angle parametrization (from_profile, from_points) that is
        the ray's own angle phi, accepted wherever point(phi) has polar
        angle phi to two ulps; the remaining rows bisect the polar angle.
        Raises DirectionNotAttained when a ray leaves the angular span.
        """
        if self.dimension != 2:
            raise ConfigError("radial evaluation is n = 2 only")
        P = np.asarray(p, dtype=float)
        flat = P.reshape(-1, 2)
        phi = np.arctan2(flat[:, 1], flat[:, 0])
        span = self._polar_profile
        lo_a, hi_a, _ = span
        out = (phi < lo_a - 1e-12) | (phi > hi_a + 1e-12)
        if np.any(out):
            raise DirectionNotAttained(f"ray through {flat[out][0].tolist()} "
                                       "leaves the curve's angular span")
        t = np.clip(phi, lo_a, hi_a)
        inside = (t >= self.param_lo) & (t <= self.param_hi)
        psi = self._polar_angle(np.where(inside, t, self.param_lo))
        miss = ~(inside & (np.abs(psi - t) <= 2 * np.spacing(np.abs(t))))
        if np.any(miss):
            t[miss] = self._bisect_angle(self._polar_angle, span, t[miss])
        return t.reshape(P.shape[:-1])

    def radial_value(self, p):
        """Value of the implied 1-homogeneous function at each row of p
        (..., 2): |p| / |N(phi_p)|; a float for a single point.

        Raises DirectionNotAttained when a ray through p misses the arc.
        """
        P = np.asarray(p, dtype=float)
        q = self.point(self.ray_parameter(P))
        r = np.hypot(P[..., 0], P[..., 1]) / np.hypot(q[..., 0], q[..., 1])
        return float(r) if P.ndim == 1 else r
