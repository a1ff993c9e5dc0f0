"""Semiclassical spectra on the integer lattice, by three routes.

direct:         E_m = f(hbar (m + mu)) straight from a toric profile.
variational:    E_m = (extremum over marked actions of hbar <m + mu, k> / a)^d,
                sup for convex level sets, inf for concave ones.
reconstruction: E_m read off a surface rebuilt from the cloud {k / a(k)}.

The three must agree wherever they are all defined; tests lean on that.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import kernels
from .actions import ActionSpectrum, MaslovShift, SurfaceActions, as_shift, render_rows
from .duality import PointCloud, ReconstructionResult, reconstruct_surface
from .errors import (
    ConfigError,
    DirectionNotAttained,
    EmptySpectrum,
    NoQualifyingDirections,
    NonFiniteEnergy,
    RayMiss,
    UnsupportedSurface,
)
from .profiles import ToricProfile
from .surfaces import Orientation

TRUNCATION_MIN_KMAX = 4   # need k_max/4 >= 1 for the three-level estimate


def lattice_grid(dimension: int, m_max: int) -> np.ndarray:
    """All m in {0..m_max}^dimension, lexicographically ordered."""
    if m_max < 0:
        raise ConfigError("m_max must be >= 0")
    grid = np.indices((m_max + 1,) * dimension, dtype=np.int64)
    return grid.reshape(dimension, -1).T.copy()


@dataclass(frozen=True)
class EbkSpectrum:
    """Energies over a lattice block, with per-level provenance."""

    route: str
    dimension: int
    degree: float
    hbar: float
    shift: MaslovShift
    m_grid: np.ndarray
    energies: np.ndarray
    argext: Optional[np.ndarray] = None       # (M, n) extremal directions
    truncation: Optional[np.ndarray] = None   # (M,) error estimates, NaN if n/a

    def __post_init__(self):
        _check_finite(self.route, self.energies, self.hbar)

    def __len__(self) -> int:
        return len(self.energies)

    def energy(self, m: Sequence[int]) -> float:
        key = np.asarray(m, dtype=np.int64)
        hit = np.flatnonzero((self.m_grid == key).all(axis=1))
        if len(hit) == 0:
            raise ConfigError(f"m={tuple(int(x) for x in key)} not in this grid")
        return float(self.energies[hit[0]])

    def to_csv(self) -> str:
        # %.17g prints a float as format(x, ".17g"), and no cell needs the
        # csv module's quoting
        n, count = self.dimension, len(self.energies)
        header = ",".join([f"m_{j+1}" for j in range(n)]
                          + ["E_m", "argmax_k", "truncation_error_estimate"])
        args = ([""] * count if self.argext is None
                else [";".join(map(str, k))
                      for k in self.argext.astype(np.int64).tolist()])
        ests = ([""] * count if self.truncation is None
                else ["%.17g" % t if math.isfinite(t) else ""
                      for t in self.truncation.tolist()])
        row = ",".join(["%d"] * n + ["%.17g", "%s", "%s"]) + "\n"
        return render_rows(header + "\n", row, "",
                           [*self.m_grid.T, self.energies, args, ests])

    def to_json(self) -> str:
        entries = []
        for i, m in enumerate(self.m_grid):
            row = {"m": [int(x) for x in m], "E": float(self.energies[i])}
            row["argmax_k"] = ([int(x) for x in self.argext[i]]
                               if self.argext is not None else None)
            est = None
            if self.truncation is not None and math.isfinite(self.truncation[i]):
                est = float(self.truncation[i])
            row["truncation_error_estimate"] = est
            entries.append(row)
        doc = {"route": self.route, "dimension": self.dimension,
               "degree": self.degree, "hbar": self.hbar,
               "shift": list(self.shift.values), "entries": entries}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _check_finite(route: str, energies: np.ndarray, hbar: float) -> None:
    if not np.isfinite(energies).all():
        raise NonFiniteEnergy(f"{route} energies are not finite at hbar {hbar:g}")


# Arithmetic that can leave the float range runs with numpy's overflow and
# invalid warnings off: a finiteness check after it reports the failure.
QUIET = dict(over="ignore", invalid="ignore")


def lattice_weights(m_grid: np.ndarray, mu: MaslovShift, hbar: float) -> np.ndarray:
    """hbar (m + mu) per lattice row; NonFiniteEnergy when it overflows,
    ConfigError when it leaves the nonnegative orthant."""
    if not 0 < hbar < math.inf:
        raise ConfigError("hbar must be finite and > 0")
    with np.errstate(**QUIET):
        W = hbar * (m_grid.astype(float) + mu.as_array())
    if not np.isfinite(W).all():
        raise NonFiniteEnergy(f"hbar (m + mu) overflows at hbar {hbar:g}")
    if np.any(W < 0):
        raise ConfigError("hbar (m + mu) leaves the nonnegative orthant")
    return W


def direct_spectrum(profile: ToricProfile, m_max: int, hbar: float = 1.0,
                    shift=None) -> EbkSpectrum:
    """E_m = f(hbar (m + mu)) for every m in the {0..m_max}^n block."""
    mu = as_shift(shift, profile.dimension)
    m_grid = lattice_grid(profile.dimension, m_max)
    W = lattice_weights(m_grid, mu, hbar)
    with np.errstate(**QUIET):
        energies = np.asarray(profile.evaluate(W), dtype=float).reshape(len(m_grid))
    return EbkSpectrum(route="direct", dimension=profile.dimension,
                       degree=profile.degree, hbar=hbar, shift=mu,
                       m_grid=m_grid, energies=energies)


def _check_degree(degree: float) -> None:
    if not 0 < degree < math.inf:
        raise ConfigError("degree must be finite and > 0")


def _table(actions) -> ActionSpectrum:
    return actions.table() if isinstance(actions, SurfaceActions) else actions


def truncation_boxes(k_max: int) -> tuple[int, ...]:
    """The boxes k_max // 4, k_max // 2, k_max of the estimate; k_max alone if small."""
    return (k_max // 4, k_max // 2, k_max) if k_max >= TRUNCATION_MIN_KMAX else (k_max,)


def extremal_levels(actions, W: np.ndarray, boxes, use_max: bool):
    """Yields per box b of the ascending boxes, the largest first and each
    when asked for: (vals, args), what kernels.extremal_ratios gives on the
    entries with ||k||_inf <= b, or None when no entry is that short.

    actions is an ActionSpectrum or SurfaceActions at k_max = boxes[-1]. A
    searchable SurfaceActions is searched: one kernels.lattice_search call
    settles most rows of every box, bitwise as the table would, and the
    rows it leaves, at any box, scan one table built at k_max.
    """
    if isinstance(actions, SurfaceActions) and actions.searchable():
        spec, found = None, kernels.lattice_search(actions.invert, W, boxes, use_max)
    else:   # every row of every box is left to the table
        spec = _table(actions)
        found = [(np.empty(len(W)), np.empty((len(W), spec.dimension), dtype=np.int64),
                  np.arange(len(W))) for _ in boxes]
    for k, box in zip(reversed(boxes), reversed(found)):
        if box is not None and box[2].size:
            spec = actions.table() if spec is None else spec
            sub = spec if k == spec.k_max else spec.restrict(k)
            if len(sub) == 0:
                box = None
            else:
                vals, args, rest = box
                vals[rest], idx = kernels.extremal_ratios(sub.directions, sub.actions,
                                                          W[rest], use_max)
                args[rest] = sub.directions[idx]
        yield None if box is None else box[:2]


def variational_spectrum(actions, m_max: int, degree: float = 1.0,
                         hbar: float = 1.0, shift=None) -> EbkSpectrum:
    """Extremal-ratio spectrum over the primitive entries.

    The input's own orientation picks the extremum of hbar <m + mu, k> / a(k):
    the sup for a convex one, the inf for a concave one, and the sup for a
    general table of one entry, where the two agree; a general table of
    more entries is a ConfigError, since only the caller can choose. The
    result is raised to the homogeneity degree. When the input's k_max is
    at least TRUNCATION_MIN_KMAX, a three-level Richardson-style error
    estimate from the truncation_boxes is attached per level. actions is an
    ActionSpectrum or SurfaceActions, reduced by extremal_levels.
    """
    _check_degree(degree)
    if isinstance(actions, SurfaceActions) and actions.searchable():
        dimension, k_max, oriented = 2, actions.k_max, actions.surface.orientation
    else:
        actions = _table(actions)
        if len(actions) == 0:
            raise EmptySpectrum("action spectrum has no entries")
        dimension, k_max, oriented = actions.dimension, actions.k_max, actions.orientation
    mu = as_shift(shift, dimension)
    # a searched curve is convex or concave, so only a table is general
    if oriented is Orientation.GENERAL and len(actions) > 1:
        raise ConfigError("variational route needs a convex or concave "
                          "orientation for a general input of several entries")
    use_max = oriented is not Orientation.CONCAVE
    m_grid = lattice_grid(dimension, m_max)
    W = lattice_weights(m_grid, mu, hbar)
    levels = extremal_levels(actions, W, truncation_boxes(k_max), use_max)
    top = next(levels)
    if top is None:
        raise EmptySpectrum("action spectrum has no entries")
    with np.errstate(**QUIET):
        energies = top[0] ** degree
    _check_finite("variational", energies, hbar)

    est = None
    coarser = list(levels)
    # single-direction containers can lose every entry at a coarser level;
    # the three-level estimate is undefined then
    if len(coarser) == 2 and None not in coarser:
        half, quarter = coarser
        with np.errstate(**QUIET):
            est = truncation_estimate(quarter[0] ** degree, half[0] ** degree, energies)

    return EbkSpectrum(route="variational", dimension=dimension,
                       degree=degree, hbar=hbar, shift=mu, m_grid=m_grid,
                       energies=energies, argext=top[1], truncation=est)


def truncation_estimate(coarse: np.ndarray, mid: np.ndarray,
                        fine: np.ndarray) -> np.ndarray:
    """Residual-ratio extrapolation from three nested truncation levels.

    With D1 = mid - coarse and D2 = fine - mid, a contraction ratio
    r = D1/D2 > 1 gives the geometric tail bound |D2| / (r - 1); otherwise
    fall back to |D2| itself. Converged levels report zero; an estimate
    that leaves the float range is inf.
    """
    with np.errstate(divide="ignore", **QUIET):
        d1 = np.atleast_1d(np.asarray(mid, dtype=float)
                           - np.asarray(coarse, dtype=float))
        d2 = np.atleast_1d(np.asarray(fine, dtype=float)
                           - np.asarray(mid, dtype=float))
        r = np.where(d2 != 0, d1 / np.where(d2 != 0, d2, 1.0), np.inf)
        geom = np.abs(d2) / np.maximum(r - 1.0, 1e-300)
    out = np.abs(d2)
    better = (r > 1.0) & (d2 != 0)
    out[better] = geom[better]
    out[d2 == 0] = 0.0
    if np.isscalar(fine) or np.ndim(fine) == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class CertificateRecord:
    ell: int
    value: float
    direction: tuple[int, ...]
    multiple: int


@dataclass(frozen=True)
class MinmaxCertificate:
    """Finite minmax values certifying the sign of E - E_m.

    Every value positive certifies E > E_m, every value negative E < E_m,
    and |value(ell)| grows at least like c * ell * |E - E_m| with the
    reported direction constant c.
    """

    energy: float
    m: tuple[int, ...]
    shift: MaslovShift
    hbar: float
    records: tuple[CertificateRecord, ...]
    direction_constant: float

    @property
    def values(self) -> np.ndarray:
        return np.asarray([r.value for r in self.records])

    @property
    def sign(self) -> int:
        v = self.values
        if np.all(v > 0):
            return 1
        if np.all(v < 0):
            return -1
        return 0


@np.errstate(**QUIET)   # an overflowing value fails the finiteness check
def minmax_certificate(actions, energy: float, m: Sequence[int], shift=None,
                       hbar: float = 1.0, ells: Iterable[int] = range(1, 21)
                       ) -> MinmaxCertificate:
    """value(ell) = min over interior entries of ceil(ell / min_j k_j) times
    (E a(k) - hbar <m + mu, k>), the smallest qualifying multiple of each
    primitive class.

    Interior means every component of k positive; without such entries the
    certificate is undefined (NoQualifyingDirections). Only meaningful for
    sup-route (convex or single-facet) spectra.
    """
    if not math.isfinite(energy):
        raise ConfigError("energy must be finite")
    ells = tuple(ells)
    if not ells or min(ells) < 1:
        # an empty record list would report sign 1 from no evidence
        raise ConfigError("certificate needs at least one level, each ell >= 1")
    spec = _table(actions)
    mu = as_shift(shift, spec.dimension)
    if spec.orientation is Orientation.CONCAVE:
        raise UnsupportedSurface(
            "minmax certificate is defined for the sup route; concave "
            "containers certify the opposite inequality")
    m = np.asarray(m, dtype=np.int64).reshape(-1)
    if m.shape != (spec.dimension,):
        raise ConfigError(f"m must have {spec.dimension} components")
    w = lattice_weights(m[None, :], mu, hbar)[0]

    interior = spec.directions.min(axis=1) >= 1
    if not np.any(interior):
        raise NoQualifyingDirections(
            "no marked entries with all components positive")
    K = spec.directions[interior]
    A = spec.actions[interior]
    P = spec.points[interior]
    base = energy * A - K.astype(float) @ w
    kmin = K.min(axis=1)

    records = []
    for ell in ells:
        mult = -(-ell // kmin)   # ceil(ell / kmin), elementwise
        vals = mult * base
        i = int(np.argmin(vals))
        if not math.isfinite(vals[i]):
            raise NonFiniteEnergy(f"certificate value at ell {ell} is not finite")
        records.append(CertificateRecord(ell=int(ell), value=float(vals[i]),
                                         direction=tuple(int(x) for x in K[i]),
                                         multiple=int(mult[i])))
    c = float(P.max(axis=1).min())
    return MinmaxCertificate(energy=float(energy),
                             m=tuple(int(x) for x in m), shift=mu, hbar=hbar,
                             records=tuple(records), direction_constant=c)


def reconstruction_spectrum(actions, m_max: int, degree: float = 1.0,
                            hbar: float = 1.0, shift=None, reference=None
                            ) -> tuple[EbkSpectrum, ReconstructionResult]:
    """Rebuild the level surface from {k / a(k)} and read energies off it;
    the quantization shift applies to the lattice."""
    _check_degree(degree)
    spec = _table(actions)
    if len(spec) == 0:
        raise EmptySpectrum("action spectrum has no entries")
    mu = as_shift(shift, spec.dimension)
    recon = reconstruct_surface(PointCloud.from_actions(spec), reference=reference)
    m_grid = lattice_grid(spec.dimension, m_max)
    W = lattice_weights(m_grid, mu, hbar)
    energies = np.zeros(len(m_grid))
    nonzero = W.any(axis=1)   # a zero weight lies on no ray; its energy is 0
    try:
        with np.errstate(**QUIET):
            energies[nonzero] = recon.surface.radial_value(W[nonzero]) ** degree
    except DirectionNotAttained as exc:
        raise RayMiss(f"a ray through hbar(m+mu) misses the reconstructed "
                      f"surface: {exc}") from exc
    spectrum = EbkSpectrum(route="reconstruction", dimension=spec.dimension,
                           degree=degree, hbar=hbar, shift=mu, m_grid=m_grid,
                           energies=energies)
    return spectrum, recon
