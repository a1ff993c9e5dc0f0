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
    error_bound: Optional[np.ndarray] = None  # (M,) |E_true - E_m| bounds, NaN if n/a

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
                          + ["E_m", "argmax_k", "E_error_bound"])
        # the argmax cell is its components joined by ";", each as %d
        arg, args = (("%s", [[""] * count]) if self.argext is None
                     else (";".join(["%d"] * n), list(self.argext.astype(np.int64).T)))
        bound, bounds = (("%s", [""] * count) if self.error_bound is None
                         else ("%.17g", self.error_bound))
        row = ",".join(["%d"] * n + ["%.17g", arg, bound]) + "\n"
        text = render_rows(header + "\n", row, "",
                           [*self.m_grid.T, self.energies, *args, bounds])
        # a bound that is not finite ends its row as an empty cell
        for cell in (",inf\n", ",-inf\n", ",nan\n"):
            text = text.replace(cell, ",\n")
        return text

    def to_json(self) -> str:
        entries = []
        for i, m in enumerate(self.m_grid):
            row = {"m": [int(x) for x in m], "E": float(self.energies[i])}
            row["argmax_k"] = ([int(x) for x in self.argext[i]]
                               if self.argext is not None else None)
            bound = None
            if self.error_bound is not None and math.isfinite(self.error_bound[i]):
                bound = float(self.error_bound[i])
            row["E_error_bound"] = bound
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


def extremal_levels(actions, W: np.ndarray, use_max: bool):
    """(vals, args, chord): what kernels.extremal_ratios gives on the
    entries of actions, and per row the gauge at w of a chord between two
    entries' points whose cone holds w (nan where there is none, and for
    n >= 3); None when there are no entries.

    actions is an ActionSpectrum or SurfaceActions. A searchable
    SurfaceActions is searched: kernels.lattice_search settles most rows,
    bitwise as the table would, with the chord of the descent's Farey pair,
    and the rows it leaves scan the table built at k_max and take the chord
    of the table points around w (kernels.table_chords), as every row of
    any other input does.
    """
    if isinstance(actions, SurfaceActions) and actions.searchable():
        found = kernels.lattice_search(actions.invert, W, actions.k_max, use_max)
        if found is None:
            return None
        vals, args, rest, chord = found
        if not rest.size:
            return vals, args, chord
        spec = actions.table()
    else:   # every row is left to the table
        spec = _table(actions)
        if len(spec) == 0:
            return None
        vals, args, chord = (np.empty(len(W)),
                             np.empty((len(W), spec.dimension), dtype=np.int64),
                             np.empty(len(W)))
        rest = np.arange(len(W))
    vals[rest], idx = kernels.extremal_ratios(spec.directions, spec.actions, W[rest],
                                              use_max)
    args[rest] = spec.directions[idx]
    chord[rest] = kernels.table_chords(spec.points, W[rest], use_max)
    return vals, args, chord


def variational_spectrum(actions, m_max: int, degree: float = 1.0,
                         hbar: float = 1.0, shift=None) -> EbkSpectrum:
    """Extremal-ratio spectrum over the primitive entries.

    The input's own orientation picks the extremum of hbar <m + mu, k> / a(k):
    the sup for a convex one, the inf for a concave one, and the sup for a
    general table of one entry, where the two agree; a general table of
    more entries is a ConfigError, since only the caller can choose. The
    result is raised to the homogeneity degree. actions is an
    ActionSpectrum or SurfaceActions, reduced by extremal_levels.

    Each level carries a certified error bound |c^d - E_m|, where c is the
    chord gauge of extremal_levels: the finite sup lies below the convex
    curve's gauge and c above it (the inf and c the other way round on a
    concave curve), so the energy of the curve itself lies between E_m and
    c^d. NaN where there is no chord.
    """
    _check_degree(degree)
    if isinstance(actions, SurfaceActions) and actions.searchable():
        dimension, oriented = 2, actions.surface.orientation
    else:
        actions = _table(actions)
        if len(actions) == 0:
            raise EmptySpectrum("action spectrum has no entries")
        dimension, oriented = actions.dimension, actions.orientation
    mu = as_shift(shift, dimension)
    # a searched curve is convex or concave, so only a table is general
    if oriented is Orientation.GENERAL and len(actions) > 1:
        raise ConfigError("variational route needs a convex or concave "
                          "orientation for a general input of several entries")
    use_max = oriented is not Orientation.CONCAVE
    m_grid = lattice_grid(dimension, m_max)
    W = lattice_weights(m_grid, mu, hbar)
    found = extremal_levels(actions, W, use_max)
    if found is None:
        raise EmptySpectrum("action spectrum has no entries")
    vals, args, chord = found
    with np.errstate(**QUIET):
        energies = vals ** degree
        bound = np.abs(chord ** degree - energies)
    _check_finite("variational", energies, hbar)
    return EbkSpectrum(route="variational", dimension=dimension,
                       degree=degree, hbar=hbar, shift=mu, m_grid=m_grid,
                       energies=energies, argext=args, error_bound=bound)


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
    base = energy * A - kernels._dot(K.T, w)
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
