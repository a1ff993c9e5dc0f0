"""Marked action spectra: periodic-orbit actions labeled by integer homology.

An entry pairs a primitive nonnegative integer direction k with the action
a = <p, k> of the orbit class through the surface point p whose outward
normal is proportional to k. Entries are stored for primitive k only and in
lexicographic order; integer multiples scale exactly and are generated on
demand. Zero-action entries (k orthogonal to an axis endpoint) are dropped.
Tables are unshifted: the Maslov shift mu enters only the lattice weights
hbar (m + mu) of the spectrum routes.

A table is built from a stream: the sieve is read out in lex-ordered
chunks of about CHUNK_ROWS directions, each converted to float coordinate
columns once, and the inversion, its residual check, the actions and the
kept mask run on those columns (_table_rows, which also serves the lattice
search's inversions and the disk crosscheck). The bytes do not depend on
CHUNK_ROWS; 16,384 rows took about half the peak memory of 65,536 (a
chunk's temporaries) in no more time, and 2.5 MB less than 32,768.
"""
from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import ConfigError, ConvergenceFailure, InvalidOrbitClass
from .surfaces import LevelSurface, Orientation, NORMAL_RESIDUAL_TOL

ZERO_ACTION_TOL = 1e-12   # |a| <= tol * |k| counts as a dropped zero entry
CHUNK_ROWS = 1 << 14      # directions inverted per step of the action table
ROW_BLOCK = 4096          # rows per %-operation of the row renderer
READ_BLOCK = 1 << 20      # characters of JSON entries parsed per step


@dataclass(frozen=True)
class MaslovShift:
    """Per-coordinate quantization shift mu appearing in hbar (m + mu)."""

    values: tuple[float, ...]

    @classmethod
    def zero(cls, dimension: int) -> "MaslovShift":
        return cls(values=(0.0,) * dimension)

    @classmethod
    def uniform(cls, value: float, dimension: int) -> "MaslovShift":
        return cls(values=(float(value),) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def as_shift(shift, dimension: int) -> MaslovShift:
    """Coerce None / scalar / sequence / MaslovShift to a checked shift."""
    if shift is None:
        return MaslovShift.zero(dimension)
    if isinstance(shift, MaslovShift):
        if shift.dimension != dimension:
            raise ConfigError(
                f"shift has dimension {shift.dimension}, expected {dimension}")
        mu = shift
    elif np.isscalar(shift):
        mu = MaslovShift.uniform(float(shift), dimension)
    else:
        values = tuple(float(v) for v in shift)
        if len(values) != dimension:
            raise ConfigError(f"shift needs {dimension} components, got {len(values)}")
        mu = MaslovShift(values=values)
    if not all(math.isfinite(v) for v in mu.values):
        raise ConfigError("shift must be finite")
    return mu


@dataclass(frozen=True)
class MarkedActionEntry:
    k: tuple[int, ...]
    action: float
    point: tuple[float, ...]

    def multiple(self, ell: int) -> "MarkedActionEntry":
        """The non-primitive class ell*k; the action scales exactly."""
        if ell < 1:
            raise ConfigError("multiple requires ell >= 1")
        return MarkedActionEntry(k=tuple(ell * kj for kj in self.k),
                                 action=ell * self.action, point=self.point)


class ActionSpectrum:
    """Array-backed container for a marked action spectrum.

    Rows are lexicographically sorted by k. Treat as immutable.
    """

    def __init__(self, directions: np.ndarray, actions: np.ndarray,
                 points: np.ndarray, orientation: Orientation | str, k_max: int):
        self.directions = np.ascontiguousarray(directions, dtype=np.int64)
        self.actions = np.ascontiguousarray(actions, dtype=float)
        self.points = np.ascontiguousarray(points, dtype=float)
        self.orientation = Orientation(orientation)
        self.k_max = int(k_max)
        n = self.directions.shape[0]
        if self.actions.shape != (n,) or self.points.shape != self.directions.shape:
            raise ConfigError("inconsistent action-spectrum array shapes")
        if not (np.isfinite(self.actions).all() and np.isfinite(self.points).all()):
            raise ConfigError("action entries must be finite")
        if np.any(self.actions == 0):
            raise ConfigError("action entries must be nonzero")

    def __len__(self) -> int:
        return self.directions.shape[0]

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @property
    def shift(self) -> MaslovShift:
        """The zero shift: the JSON format keeps a shift key, always zeros."""
        return MaslovShift.zero(self.dimension)

    @cached_property
    def sup_norms(self) -> np.ndarray:
        # columnwise: a row-wise max over few columns is far slower
        out = self.directions[:, 0].copy()
        for col in self.directions.T[1:]:
            np.maximum(out, col, out=out)
        return out

    @cached_property
    def entries(self) -> tuple[MarkedActionEntry, ...]:
        return tuple(
            MarkedActionEntry(k=tuple(int(x) for x in k), action=float(a),
                              point=tuple(float(x) for x in p))
            for k, a, p in zip(self.directions, self.actions, self.points))

    def restrict(self, k_max: int) -> "ActionSpectrum":
        """Sub-spectrum with ||k||_inf <= k_max (shares no state)."""
        mask = self.sup_norms <= k_max
        return ActionSpectrum(self.directions[mask], self.actions[mask],
                              self.points[mask], self.orientation,
                              min(self.k_max, k_max))

    # -- deterministic file formats --
    # %r prints a float as json.dumps does and %.17g as format(x, ".17g"),
    # so the bytes are those of the json and csv modules.

    def to_csv(self) -> str:
        n = self.dimension
        header = ",".join([f"k_{j+1}" for j in range(n)] + ["action"]
                          + [f"p_{j+1}" for j in range(n)])
        row = ",".join(["%d"] * n + ["%.17g"] * (n + 1)) + "\n"
        return render_rows(header + "\n", row, "",
                           [*self.directions.T, self.actions, *self.points.T])

    def to_json(self) -> str:
        head = json.dumps({"dimension": self.dimension, "entries": [],
                           "orientation": self.orientation.value,
                           "k_max": self.k_max, "shift": list(self.shift.values)},
                          indent=2, sort_keys=True) + "\n"
        if len(self) == 0:
            return head
        before, _, after = head.partition('"entries": []')
        return render_rows(before + _ENTRIES_OPEN, _json_row(self.dimension), ",\n",
                           [self.actions, *self.directions.T, *self.points.T],
                           "\n  ]" + after)

    @classmethod
    def from_csv(cls, text: str, orientation: Orientation | str) -> "ActionSpectrum":
        """Read to_csv's format. A CSV carries no k_max: the table takes its
        largest k component."""
        header, _, body = text.partition("\n")
        n = header.count("k_")
        if n < 1 or header.split(",") != ([f"k_{j+1}" for j in range(n)] + ["action"]
                                          + [f"p_{j+1}" for j in range(n)]):
            raise ConfigError("unrecognized actions CSV header")
        try:
            table = (np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
                     if body.strip() else np.empty((0, 2 * n + 1)))
        except ValueError as exc:
            raise ConfigError(f"malformed actions CSV: {exc}") from exc
        if table.shape[1] != 2 * n + 1:
            raise ConfigError(f"actions CSV rows need {2 * n + 1} columns")
        K = _integer_directions(table[:, :n])
        return cls(K, table[:, n], table[:, n + 1:], orientation,
                   int(K.max()) if len(K) else 0)

    @classmethod
    def from_json(cls, text: str) -> "ActionSpectrum":
        """Read to_json's format: text in the writer's own layout directly,
        any other JSON through json.loads, with the same arrays and errors.
        The shift key must hold zeros: a shifted table is a ConfigError."""
        try:   # json.JSONDecodeError is a ValueError
            doc, A, K, P = _read_writer_layout(text) or _read_json_document(text)
            rest = (Orientation(doc["orientation"]), int(doc["k_max"]))
            shifted = any(float(v) != 0.0 for v in doc["shift"])
        # json.loads raises RecursionError on arrays nested too deep
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            raise ConfigError(f"malformed actions JSON: {exc!r}") from exc
        if shifted:
            raise ConfigError("the table's shift is not zero; tables are unshifted "
                              "(a = <p, k>), and mu enters only hbar (m + mu)")
        return cls(_integer_directions(K), A, P, *rest)


def render_rows(head: str, row: str, sep: str, columns, tail: str = "") -> str:
    """head, then the rows joined by sep, row i being row % (cell i of each
    column), then tail, all concatenated once.

    Columns are 1-D arrays or lists of one length. One %-operation renders
    ROW_BLOCK rows: their cells, as Python scalars, are interleaved into one
    flat tuple by slice assignment and formatted against the row template
    repeated, so each cell is formatted as a per-row template would.
    """
    width, count = len(columns), len(columns[0])
    pieces = [head]
    for lo in range(0, count, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, count)
        flat = [None] * (width * (hi - lo))
        for j, col in enumerate(columns):
            part = col[lo:hi]
            flat[j::width] = part if isinstance(part, list) else part.tolist()
        if lo:
            pieces.append(sep)
        pieces.append(sep.join([row] * (hi - lo)) % tuple(flat))
    pieces.append(tail)
    return "".join(pieces)


def _json_row(n: int) -> str:
    """to_json's template of one entry: the action, then k, then the point."""
    ints = ",\n".join(["        %d"] * n)
    floats = ",\n".join(["        %r"] * n)
    return (f'    {{\n      "action": %r,\n      "k": [\n{ints}\n      ],\n'
            f'      "point": [\n{floats}\n      ]\n    }}')


_ENTRIES_OPEN = '"entries": [\n'
_ENTRIES_CLOSE = '\n  ],\n  "k_max": '
_ENTRY_BREAK = "\n    },\n"
_JSON_KEYS = ["dimension", "entries", "k_max", "orientation", "shift"]


def _read_writer_layout(text: str):
    """(doc, actions, directions, points) of a JSON table in exactly
    to_json's layout, the arrays as floats; None for any other text.

    The head and tail, parsed by json.loads with the entries emptied, must
    dump back to themselves. The entries are read in blocks of whole
    entries. Deleting every character of the writer's entry template but
    its commas leaves one field per value slot, "x,y,...,z"; the block
    must equal the template filled with these fields, so each field is the
    text of one slot, holds no whitespace or delimiter, and no character
    lies outside the slots. The fields then go to json.loads as one flat
    array, which applies json's own grammar and float conversion. So the
    arrays are bitwise those json.loads gives on the whole text, and a
    value json would reject there is rejected here too, leaving the text
    to _read_json_document.
    """
    start = text.find(_ENTRIES_OPEN)
    end = text.find(_ENTRIES_CLOSE, start + len(_ENTRIES_OPEN)) if start >= 0 else -1
    if end < 0:
        return None
    shell = text[:start] + '"entries": []' + text[end + len("\n  ]"):]
    try:
        doc = json.loads(shell)
    except ValueError:
        return None
    if not (isinstance(doc, dict) and list(doc) == _JSON_KEYS and doc["entries"] == []
            and type(doc["dimension"]) is int
            # an entry spends at least 10 characters on each of its 2n values
            and 1 <= doc["dimension"] <= (end - start) // 20
            and json.dumps(doc, indent=2, sort_keys=True) + "\n" == shell):
        return None
    n = doc["dimension"]
    fill = _json_row(n).replace("%r", "%s").replace("%d", "%s")
    # one comma parts every two slots, within an entry and between entries
    skeleton = set(fill.replace("%s", "")) - {","}
    fields_only = str.maketrans("", "", "".join(skeleton))
    width, parts = 2 * n + 1, []
    pos = start + len(_ENTRIES_OPEN)
    while True:
        cut = text.find(_ENTRY_BREAK, min(pos + READ_BLOCK, end), end)
        last = cut < 0
        cut = end if last else cut + len("\n    }")
        block = text[pos:cut]
        joined = block.translate(fields_only)
        fields = joined.split(",")
        rows, spare = divmod(len(fields), width)
        if spare or block != ",\n".join([fill] * rows) % tuple(fields):
            return None
        try:
            parts.append(np.fromiter(json.loads("[" + joined + "]"), dtype=float,
                                     count=len(fields)))
        except (ValueError, TypeError, OverflowError):
            return None
        if last:
            break
        pos = cut + len(",\n")
    table = np.concatenate(parts).reshape(-1, width)
    return doc, table[:, 0], table[:, 1:n + 1], table[:, n + 1:]


def _read_json_document(text: str):
    """(doc, actions, directions, points) of any JSON table through
    json.loads, the arrays as floats."""
    doc = json.loads(text)
    n, entries = int(doc["dimension"]), doc["entries"]
    K, P = ([e[key] for e in entries] for key in ("k", "point"))
    if set(map(len, itertools.chain(K, P))) - {n}:
        raise ValueError(f"k and point need {n} components")
    # one flat iterator per array: cheaper than asarray over nested lists
    K, P = (np.fromiter(itertools.chain.from_iterable(rows), dtype=float,
                        count=len(rows) * n).reshape(len(rows), n)
            for rows in (K, P))
    A = np.fromiter((e["action"] for e in entries), dtype=float, count=len(entries))
    return doc, A, K, P


def _integer_directions(columns: np.ndarray) -> np.ndarray:
    """k columns read as floats, checked to hold exact integers (below 2**53,
    where a float still pins one)."""
    if not np.all((np.abs(columns) <= 2.0 ** 53) & (columns == np.trunc(columns))):
        raise ConfigError("k columns must be finite integers")
    return columns.astype(np.int64)


def _kept_actions(K: np.ndarray, pts: np.ndarray):
    """Actions <p, k> per row and the mask of rows whose action is not a
    dropped zero (rows with nan points are not kept either), from the
    direction columns K, shape (n, N), and the points, shape (N, n).

    In 2-D the sum is taken column by column. In 3-D np.einsum sums the
    three products in an order that depends on the memory layout, so it
    takes C-contiguous rows (the inversion's points already are)."""
    buf = np.empty(K.shape[1])
    if len(K) == 3:
        acts = np.einsum("ij,ij->i", pts, np.ascontiguousarray(K.T))
    else:
        p0, p1 = pts.T
        acts = np.multiply(p0, K[0])
        acts += np.multiply(p1, K[1], out=buf)
    # |k|: the sum of squares is exact for integer directions
    norm = np.multiply(K[0], K[0])
    for k in K[1:]:
        norm += np.multiply(k, k, out=buf)
    np.sqrt(norm, out=norm)
    norm *= ZERO_ACTION_TOL
    return acts, np.abs(acts, out=buf) > norm


def _table_rows(surface: LevelSurface, K: np.ndarray):
    """Points, actions and kept mask of the directions whose float columns
    are the rows of K, shape (n, N), and how many attained rows fail the
    inversion residual: the action table's own arithmetic, for any set of
    directions. The points come as an (N, n) array in the layout the
    surface's normal map gives."""
    pts, res, attained = surface.invert_normal_many(K.T)[1:]
    failed = int(np.count_nonzero(attained & ~(res <= NORMAL_RESIDUAL_TOL)))
    acts, keep = _kept_actions(K, pts)
    keep &= attained
    return pts, acts, keep, failed


def marked_action_spectrum(surface: LevelSurface, k_max: int) -> ActionSpectrum:
    """Enumerate primitive directions with ||k||_inf <= k_max and their actions.

    Directions outside the surface's normal cone are skipped silently. The
    inversion is vectorized (closed form where the family has one, a
    monotone bisection of the normal angle otherwise) and reads the
    directions as a stream of lex-ordered chunks of about CHUNK_ROWS, each
    converted to float columns once for the inversion and the actions, the
    kept rows compacted in place into arrays sized by the sieve's count, so
    the working set beyond the table and the sieve is one chunk. Where the
    normal angle is monotone the points with a given normal form one
    connected run, along which <p, k> is constant, so one point per
    direction fixes its action; an arc whose normal turns back has no
    action table (UnsupportedSurface).
    """
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    mask = kernels._sieve(surface.dimension, k_max)
    K = np.empty((int(np.count_nonzero(mask)), surface.dimension), dtype=np.int64)
    pts = np.empty(K.shape)
    acts = np.empty(len(K))
    kept = failed = 0
    for cols in kernels._slabs(mask, CHUNK_ROWS):
        pc, ac, keep, bad = _table_rows(surface, np.array(cols, dtype=float))
        failed += bad
        stop = kept + int(np.count_nonzero(keep))
        for j, (k, p) in enumerate(zip(cols, pc.T)):
            np.compress(keep, k, out=K[kept:stop, j])
            np.compress(keep, p, out=pts[kept:stop, j])
        np.compress(keep, ac, out=acts[kept:stop])
        kept = stop
    if failed:
        raise ConvergenceFailure(f"{failed} directions failed the inversion residual")
    K, pts, acts = K[:kept], pts[:kept], acts[:kept]
    return ActionSpectrum(K, acts, pts, surface.orientation, k_max)


@dataclass(frozen=True)
class SurfaceActions:
    """The marked action spectrum of a surface up to k_max, not yet
    tabulated; its orientation is the surface's.

    The variational route searches it directly where it can (searchable);
    everything else reads table().
    """

    surface: LevelSurface
    k_max: int

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")

    def table(self) -> ActionSpectrum:
        return marked_action_spectrum(self.surface, self.k_max)

    def searchable(self) -> bool:
        """Whether kernels.lattice_search applies: a planar curve with a
        closed-form Gauss-map inverse whose declared orientation is convex
        or concave."""
        s = self.surface
        return (s.dimension == 2 and s.normal_map is not None and s.orientation_declared
                and s.orientation in (Orientation.CONVEX, Orientation.CONCAVE))

    def invert(self, K: np.ndarray):
        """(points, actions, keep) of the directions K, as the table has
        them; ConvergenceFailure where the table would fail."""
        pts, acts, keep, failed = _table_rows(self.surface, K.T.astype(float))
        if failed:
            raise ConvergenceFailure(f"{failed} directions failed the inversion residual")
        return pts, acts, keep


def billiard_orbit_action(energy: float, radius: float, k: int, ell: int) -> float:
    """Action 2 R sqrt(2E) ell sin(pi k / ell) of the (k, ell) orbit class
    in the disk of the given radius at energy E."""
    if ell < 1 or not (0 < k / ell < 1):
        raise InvalidOrbitClass(f"need 0 < k/ell < 1, got k={k}, ell={ell}")
    if energy < 0 or radius <= 0:
        raise ConfigError("energy must be >= 0 and radius > 0")
    return 2.0 * radius * math.sqrt(2.0 * energy) * ell * math.sin(math.pi * k / ell)
