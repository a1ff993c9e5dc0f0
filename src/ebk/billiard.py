"""Quantization of the circular billiard, two ways.

The reference route solves the monotone radial phase equation
sqrt(F^2 - m^2) - m arccos(m/F) = n pi for F and converts to energy.
The toric route runs the concave inf-variational formula over the marked
actions of the boundary curve rho(alpha); crosscheck_disk compares both.
It holds no action table: the primitive directions arrive as a stream of
lex-ordered chunks, each inverted as the table would invert it and folded
into one running minimum. A large sieve is streamed in two halves, the
second in a forked child, where two CPUs are available. The chord between
the curve points of the lattice search's final Farey pair bounds the
truncation error from below the minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import actions, kernels
from .actions import MaslovShift, as_shift
from .errors import ConfigError, ConvergenceFailure, DomainError, NonFiniteEnergy
from .profiles import ToricProfile
from .quantize import lattice_weights
from .surfaces import LevelSurface, Orientation

# Maslov pair for the disk: 0 on the angular loop, 3/4 on the radial one,
# surfaced as n -> n + 3/4 in the phase equation.
RADIAL_SHIFT = 0.75

PHASE_SOLVE_TOL = 1e-12
MAX_SOLVE_ITERS = 200


def _check_angular(m) -> int:
    if not (isinstance(m, (int, np.integer)) and m >= 0):
        raise ConfigError(f"angular quantum number must be an integer >= 0, got {m!r}")
    return int(m)


def radial_phase(m: int, x):
    """sqrt(x^2 - m^2) - m arccos(m/x), zero at x = m, strictly increasing."""
    m = _check_angular(m)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < m):
        raise DomainError(f"radial phase needs x >= m = {m}")
    if m == 0:
        out = arr.copy()
    else:
        # x == m makes both terms vanish; the clip only absorbs roundoff. An
        # overflow is left to the caller's finiteness check.
        with np.errstate(over="ignore"):
            root = np.sqrt(np.maximum(arr * arr - m * m, 0.0))
            out = root - m * np.arccos(np.clip(m / arr, -1.0, 1.0))
    return out if isinstance(x, np.ndarray) else float(out)


def radial_phase_slope(m: int, x):
    """d/dx of the radial phase: sqrt(x^2 - m^2)/x."""
    m = _check_angular(m)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < m) or np.any(arr <= 0):
        raise DomainError("slope needs x >= m and x > 0")
    with np.errstate(over="ignore"):   # as in radial_phase
        out = np.sqrt(np.maximum(arr * arr - m * m, 0.0)) / arr
    return out if isinstance(x, np.ndarray) else float(out)


def solve_momentum(m: int, n: float, tol: float = PHASE_SOLVE_TOL) -> float:
    """The unique F >= m with radial_phase(m, F) = n pi.

    Bracket doubling from [m, m + n pi + 1], then a bisection-safeguarded
    Newton iteration on the phase residual. n = 0 returns F = m without
    iteration (the gliding limit, where the bracket degenerates). A bracket
    that leaves the float range (n pi overflows, or a doubling does) is a
    ConvergenceFailure.
    """
    m = _check_angular(m)
    if not (np.isfinite(n) and n >= 0):
        raise ConfigError(f"radial quantum number must be >= 0, got {n!r}")
    if not tol > 0:
        raise ConfigError("tol must be > 0")
    if n == 0:
        return float(m)
    target = n * math.pi
    lo = float(m)
    hi = float(m) + target + 1.0
    for _ in range(200):
        if not math.isfinite(hi):
            raise ConvergenceFailure(f"phase bracket leaves the float range at n = {n:g}")
        if radial_phase(m, hi) >= target:
            break
        hi = m + 2.0 * (hi - m)
    else:
        raise ConvergenceFailure("bracket doubling failed to enclose the root")

    x = 0.5 * (lo + hi)
    fx = radial_phase(m, x) - target
    for _ in range(MAX_SOLVE_ITERS):
        if abs(fx) <= tol:
            return x
        if fx > 0:
            hi = x
        else:
            lo = x
        slope = radial_phase_slope(m, x)
        cand = x - fx / slope if slope > 0.0 else lo
        x = cand if lo < cand < hi else 0.5 * (lo + hi)
        fx = radial_phase(m, x) - target
    if abs(fx) <= tol:
        return x
    raise ConvergenceFailure(
        f"phase solve stalled at residual {abs(fx):.3e} (tol {tol:g})")


def energy_from_momentum(momentum: float, radius: float = 1.0,
                         hbar: float = 1.0) -> float:
    """E = (hbar F)^2 / (2 R^2); NonFiniteEnergy when it leaves the float
    range."""
    if not (0 < radius < math.inf and 0 < hbar < math.inf):
        raise ConfigError("radius and hbar must be finite and > 0")
    if momentum < 0:
        raise ConfigError("momentum must be >= 0")
    try:
        energy = (hbar * momentum) ** 2 / (2.0 * radius * radius)
    except (OverflowError, ZeroDivisionError):
        energy = math.inf
    if not math.isfinite(energy):
        raise NonFiniteEnergy(f"billiard energy is not finite at hbar {hbar:g}, "
                              f"radius {radius:g}")
    return energy


@dataclass(frozen=True)
class BilliardLevel:
    """One quantized level of the disk, with its solve residual."""

    m: int
    n: float
    momentum: float
    energy: float
    radius: float
    hbar: float
    residual: float

    @classmethod
    def solve(cls, m: int, n: float, radius: float = 1.0, hbar: float = 1.0,
              tol: float = PHASE_SOLVE_TOL) -> "BilliardLevel":
        momentum = solve_momentum(m, n, tol=tol)
        residual = abs(radial_phase(m, momentum) - n * math.pi)
        return cls(m=int(m), n=float(n), momentum=momentum,
                   energy=energy_from_momentum(momentum, radius, hbar),
                   radius=float(radius), hbar=float(hbar), residual=residual)


# -- the concave boundary curve of the disk's momentum image --

def boundary_point(alpha):
    """rho(alpha) = (sin a - a cos a, sin a + (pi - a) cos a), a in [0, pi]."""
    a = np.asarray(alpha, dtype=float).ravel()
    return np.stack(_rho(a, math.pi - a), axis=-1).reshape(np.shape(alpha) + (2,))


def _rho(a, b):
    """rho at the 1-D angles a, given b = pi - a, as a (2, N) array of
    coordinate columns: boundary_point's arithmetic, each temporary
    reused in place."""
    s, c = np.sin(a), np.cos(a)
    p = np.empty((2, len(a)))
    np.multiply(a, c, out=p[0])
    np.subtract(s, p[0], out=p[0])
    np.multiply(b, c, out=p[1])
    p[1] += s
    return p


def _nu(a, b):
    """The outward unit normal at the 1-D angles a, given b = pi - a, as a
    (2, N) array of coordinate columns: boundary_normal's arithmetic."""
    nu = np.empty((2, len(a)))
    norm = np.multiply(b, b)
    norm += np.multiply(a, a, out=nu[1])
    np.sqrt(norm, out=norm)
    np.divide(b, norm, out=nu[0])
    np.divide(a, norm, out=nu[1])
    return nu


def boundary_tangent(alpha):
    """rho'(alpha) = (a sin a, (a - pi) sin a)."""
    a = np.asarray(alpha, dtype=float)
    return np.stack([a * np.sin(a), (a - math.pi) * np.sin(a)], axis=-1)


def boundary_normal(alpha):
    """Outward unit normal, proportional to (pi - a, a)."""
    a = np.asarray(alpha, dtype=float).ravel()
    return np.stack(_nu(a, math.pi - a), axis=-1).reshape(np.shape(alpha) + (2,))


def direction_parameter(k1, k2):
    """The alpha whose outward normal points along (k1, k2); elementwise
    on arrays."""
    a1 = np.asarray(k1, dtype=float)
    a2 = np.asarray(k2, dtype=float)
    if np.any(a1 < 0) or np.any(a2 < 0) or np.any(a1 + a2 <= 0):
        raise ConfigError("direction must be nonzero with k1, k2 >= 0")
    alpha = math.pi * a2 / (a1 + a2)
    return alpha if alpha.ndim else float(alpha)


def _ramos_normal_map(K):
    """direction_parameter, boundary_point and boundary_normal on the
    columns of K (nonzero rows k >= 0, or nan), in their arithmetic."""
    k1, k2 = K.T
    alpha = np.multiply(k2, math.pi)
    b = np.add(k1, k2)
    alpha /= b
    np.subtract(math.pi, alpha, out=b)
    return alpha, _rho(alpha, b).T, _nu(alpha, b).T


def ramos_action(k1: int, k2: int) -> float:
    """Action (k1 + k2) sin(pi k2 / (k1 + k2)) of the (k1, k2) class.

    Boundary classes (k1 = 0 or k2 = 0) return an exact 0.0.
    """
    if k1 < 0 or k2 < 0 or k1 + k2 < 1:
        raise ConfigError("need integers k1, k2 >= 0 with k1 + k2 >= 1")
    if k1 == 0 or k2 == 0:
        return 0.0
    s = k1 + k2
    return s * math.sin(math.pi * k2 / s)


def disk_profile() -> ToricProfile:
    """The 1-homogeneous gauge whose unit level set is the boundary curve.

    Evaluated radially: f(p) = |p| / |rho(alpha_p)| with alpha_p matching
    the polar angle of p (LevelSurface.ray_parameter on the curve). The
    gradient has the closed form (pi - a, a) / (pi sin a), which blows up
    toward the axes; callers stay in the open quadrant.
    """
    curve = RamosCurve()

    def gradient_fn(P):
        a = curve.ray_parameter(P)
        s = np.sin(a)
        if np.any(s < 1e-12):
            raise DomainError("gauge gradient is unbounded on the axes")
        return np.stack([math.pi - a, a], axis=-1) / (math.pi * s)[..., None]

    return ToricProfile(name="ramos", dimension=2, degree=1.0,
                        evaluate_fn=curve.radial_value, gradient_fn=gradient_fn)


class RamosCurve(LevelSurface):
    """The concave curve bounding the disk's toric momentum region."""

    def __init__(self):
        super().__init__(dimension=2, point_fn=boundary_point,
                         param_lo=0.0, param_hi=math.pi,
                         normal_fn=boundary_normal,
                         orientation=Orientation.CONCAVE,
                         normal_map=_ramos_normal_map)


@dataclass(frozen=True)
class CrosscheckReport:
    """Side-by-side momenta from the toric and phase-equation routes."""

    m1: int
    m2: int
    shift: MaslovShift
    hbar: float
    k_max: int
    toric_energy: float
    momentum_toric: float
    momentum_reference: float
    difference: float
    error_bound: float   # |F_route - F_true| bound, in momentum units; nan if n/a

    def to_json_dict(self) -> dict:
        return {
            "m1": self.m1, "m2": self.m2,
            "shift": list(self.shift.values), "hbar": self.hbar,
            "k_max": self.k_max, "E_toric": self.toric_energy,
            "F_route": self.momentum_toric,
            "F_ref": self.momentum_reference,
            "difference": self.difference,
            "F_error_bound": (self.error_bound if math.isfinite(self.error_bound)
                              else None),
        }


def _stream(mask, lo, hi, w):
    """The minimum of (k . w) / a(k) over the kept directions of the sieve
    mask's slabs lo to hi, in the arithmetic of the table scan
    (kernels._ratio), then how many of them failed the inversion residual,
    then 1.0 if every kept action is finite (else 0.0), as one float64
    array, from the action table's own stream (actions._chunks). The
    minimum is exact in any order, and every ratio is >= +0.0, so it is
    bitwise the table scan's."""
    low, failed, finite = np.inf, 0, True
    for _, K, _, acts, keep, bad in actions._chunks(RamosCurve(), mask, lo, hi):
        failed += bad
        # a kept action is never nan, so it is finite unless infinite
        finite = finite and not np.isinf(acts).any(where=keep)
        # as in extremal_ratios, products of huge weights may overflow to inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            low = min(low, kernels._ratio(K, acts, w).min(where=keep, initial=np.inf))
        del K   # the old chunk's columns are not held while the next is inverted
    return np.array([low, failed, finite], dtype=float)


def _disk_minimum(w, k_max):
    """The minimum of (k . w) / a(k) over the disk's action table at k_max,
    without the table: the sieve's directions stream through _stream, and
    the table's failures are raised after the stream.

    From 2 * actions.CHUNK_ROWS directions on, where two CPUs are available
    (actions._two_cpus), a forked child streams the slabs after the one
    where the cumulative direction count passes half the total and sends
    back its summary as float64 bytes (actions._in_halves), while the parent
    streams the slabs before; where the child fails, the parent streams its
    half too. Every ratio is >= +0.0 and no minimum is nan, so the smaller
    of the halves' minima is exact, and the minimum and the errors do not
    depend on the split."""
    mask = kernels._sieve(2, k_max)
    ends = np.cumsum(mask.sum(axis=1))
    if ends[-1] < 2 * actions.CHUNK_ROWS or not actions._two_cpus():
        halves = [_stream(mask, 0, len(mask), w)]
    else:
        cut = int(np.searchsorted(ends, ends[-1] / 2, side="right"))
        mine, theirs = actions._in_halves(
            lambda: _stream(mask, 0, cut, w),
            lambda: _stream(mask, cut, len(mask), w).tobytes(), bytes)
        halves = [mine, _stream(mask, cut, len(mask), w) if theirs is None
                  else np.frombuffer(b"".join(theirs))]
    actions._check_residuals(int(sum(half[1] for half in halves)))
    if not all(half[2] for half in halves):
        raise ConfigError("action entries must be finite")
    return float(min(half[0] for half in halves))


def crosscheck_disk(m1: int, m2: int, k_max: int = 2000, shift=None,
                    hbar: float = 1.0) -> CrosscheckReport:
    """Compare the toric inf-route momentum against the phase-equation root.

    The toric route evaluates the concave variational formula at (m1, m2)
    over unshifted boundary-curve actions (the shift enters the numerator)
    at k_max; the reference solves the phase equation at angular m2 - m1
    and radial m1 + mu. Uniform shifts only: the identification pairs one
    mu with both loops of the reference route. The disk's table is
    streamed, never held, on two cores where it is large (_disk_minimum);
    the report does not depend on the split. The error bound is pi / hbar
    times the gap between the minimum and the chord gauge of the lattice
    descent's Farey pair (kernels.farey_chords), which lies below the
    curve's own value; nan where the pair has a dropped point, as on the
    axis rays.
    """
    m1 = _check_angular(m1)
    m2 = _check_angular(m2)
    if m2 < m1:
        raise ConfigError("crosscheck expects m2 >= m1")
    if k_max < 10:
        raise ConfigError("k_max must be >= 10")
    if not 0 < hbar < math.inf:
        raise ConfigError("hbar must be finite and > 0")
    mu = as_shift(shift, 2)
    if mu.values[0] != mu.values[1]:
        raise ConfigError("crosscheck requires a uniform shift")
    reference = BilliardLevel.solve(m2 - m1, m1 + mu.values[0], hbar=hbar)
    w = lattice_weights(np.array([[m1, m2]]), mu, hbar)[0]
    energy = _disk_minimum(w, k_max)
    invert = actions.SurfaceActions(RamosCurve(), k_max).invert
    chord = kernels.farey_chords(invert, w[None, :], k_max, use_max=False)[3][0]
    momentum_toric = math.pi * energy / hbar
    return CrosscheckReport(
        m1=m1, m2=m2, shift=mu, hbar=hbar, k_max=k_max, toric_energy=energy,
        momentum_toric=momentum_toric,
        momentum_reference=reference.momentum,
        difference=momentum_toric - reference.momentum,
        error_bound=float(math.pi * abs(energy - chord) / hbar))
