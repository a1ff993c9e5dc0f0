"""Positively homogeneous Hamiltonian profiles on the closed positive orthant.

A profile is a function f : R^n_+ -> R_+ with f(t p) = t^d f(p) for t > 0.
The level set {f = 1} is the geometric object everything else in the package
works with; the degree d only re-enters when energies are reported.

Evaluation and gradient callables are vectorized over a trailing coordinate
axis: points have shape (..., n), values shape (...), gradients (..., n).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError

FLAT_TOL = 1e-12   # |k x w| <= tol |k| |w|: k is the facet's normal


class Orientation(str, enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    GENERAL = "general"


def _as_points(p, dimension: int) -> tuple[np.ndarray, bool]:
    """Coerce to float array of shape (..., dimension); report 1-d input."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != dimension:
        raise ConfigError(
            f"expected points with trailing axis of length {dimension}, "
            f"got shape {arr.shape}"
        )
    return arr, arr.ndim == 1


@dataclass(frozen=True)
class ToricProfile:
    """A positively d-homogeneous function of the action variables.

    gradient_fn is the closed-form gradient, vectorized like evaluate_fn.

    inverse_gauss_fn, when given, is the closed-form inverse of the Gauss
    map: it sends each nonzero row k >= 0 of an (N, n) array to the point
    of {f = 1} whose outward normal is parallel to k (nan where there is
    none). orientation is the family's declared one (pnorm CONVEX, linear
    GENERAL); None leaves it to detection from sampled curvature.
    """

    name: str
    dimension: int
    degree: float
    evaluate_fn: Callable[[np.ndarray], np.ndarray]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    inverse_gauss_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    orientation: Optional[Orientation] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("profile dimension must be >= 1")
        if not 0 < self.degree < np.inf:
            raise ConfigError("profile degree must be finite and positive")

    def evaluate(self, p):
        arr, single = _as_points(p, self.dimension)
        out = np.asarray(self.evaluate_fn(arr), dtype=float)
        return float(out) if single else out

    def gradient(self, p):
        arr, _ = _as_points(p, self.dimension)
        return np.asarray(self.gradient_fn(arr), dtype=float)


# --- builtin families ---

def linear_profile(weights: Sequence[float]) -> ToricProfile:
    """f(p) = <w, p> with positive weights; degree 1.

    This is the harmonic-oscillator profile: the level set is a simplex
    facet and the whole surface shares one normal direction w. The inverse
    Gauss map sends k parallel to w to the diagonal point (1, ..., 1) /
    sum(w), and any other k to nan.
    """
    w = np.asarray(list(weights), dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ConfigError("weights must be a non-empty 1-d sequence")
    if not np.all((w > 0) & (w < np.inf)):
        raise ConfigError("weights must be finite and strictly positive")
    wt = w.copy()

    def ev(p):
        return kernels._dot(np.moveaxis(p, -1, 0), wt)

    def gr(p):
        return np.broadcast_to(wt, p.shape).copy()

    u = wt / wt.max()   # the largest weight first: the norm cannot overflow
    u /= np.linalg.norm(u)
    diagonal = np.full(wt.size, 1.0 / wt.sum())

    def inverse_gauss(K):
        # |k - <k, u> u| = |k x u| for the unit normal u of the facet
        off = np.linalg.norm(K - kernels._dot(K.T, u)[:, None] * u, axis=1)
        flat = off <= FLAT_TOL * np.linalg.norm(K, axis=1)
        return np.where(flat[:, None], diagonal, np.nan)

    return ToricProfile(
        name="harmonic:" + ",".join(format(x, "g") for x in w),
        dimension=w.size,
        degree=1.0,
        evaluate_fn=ev,
        gradient_fn=gr,
        inverse_gauss_fn=inverse_gauss,
        orientation=Orientation.GENERAL,
    )


def pnorm_profile(s: float, dimension: int = 2, degree: float = 1.0) -> ToricProfile:
    """f(p) = (sum p_j^s)^(d/s). Level set is the superellipse arc for d=1.

    s > 1 gives a strictly convex level set; s = 2 is the round sphere.
    """
    if not 1 < s < np.inf:
        raise ConfigError("pnorm profile needs a finite s > 1 "
                          "(use linear_profile for s=1)")
    if dimension < 2:
        raise ConfigError("pnorm profile needs dimension >= 2")
    s = float(s)
    d = float(degree)

    def ev(p):
        return (np.abs(p) ** s).sum(axis=-1) ** (d / s)

    def gr(p):
        q = (np.abs(p) ** s).sum(axis=-1)
        # d/dp_i of q^(d/s) = d * q^((d-s)/s) * p_i^(s-1)
        return d * (q ** ((d - s) / s))[..., None] * np.sign(p) * np.abs(p) ** (s - 1.0)

    e = 1.0 / (s - 1.0)

    def inverse_gauss(K):
        # grad f(p) ~ p^(s-1), so p ~ k^(1/(s-1)) rescaled onto {f = 1};
        # dividing by the row maximum first keeps k^e finite for large e
        q = K / K.max(axis=-1, keepdims=True)
        q **= e
        q /= ((q ** s).sum(axis=-1, keepdims=True)) ** (1.0 / s)
        return q

    return ToricProfile(
        name=f"pnorm:{s:g}" + (f"^({d:g})" if d != 1.0 else ""),
        dimension=dimension,
        degree=d,
        evaluate_fn=ev,
        gradient_fn=gr,
        inverse_gauss_fn=inverse_gauss,
        orientation=Orientation.CONVEX,
    )
