"""Marked action spectra: periodic-orbit actions labeled by integer homology.

An entry pairs a primitive nonnegative integer direction k with the action
a = <p, k> of the orbit class through the surface point p whose outward
normal is proportional to k. Entries are stored for primitive k only and in
lexicographic order; integer multiples scale exactly and are generated on
demand. Zero-action entries (k orthogonal to an axis endpoint) are dropped,
relative to the surface's size (ZERO_ACTION_TOL).
Tables are unshifted: the Maslov shift mu enters only the lattice weights
hbar (m + mu) of the spectrum routes.

A table is built from a stream (_chunks): the sieve is read out in
lex-ordered chunks of about CHUNK_ROWS directions, each converted to float
coordinate columns once, and the inversion, its residual check, the actions
and the kept mask run on those columns (_table_rows, which also serves the
lattice search's inversions). The disk crosscheck reads the same stream.
The bytes do not depend on CHUNK_ROWS; 16,384 rows took about half the
peak memory of 65,536 (a chunk's temporaries) in no more time, and 2.5 MB
less than 32,768.

Large tables are written and read on two CPUs where two are available:
render_rows (both writers) from SPLIT_BLOCKS blocks of ROW_BLOCK rows, the
writer-layout JSON reader from SPLIT_JSON_CHARS characters of text and
from_csv from SPLIT_CSV_CHARS characters of rows. A child made by os.fork
does the second half of the rows and sends it back over a pipe; the parent
does the first (_in_halves). Threads would not help: %-formatting,
json.loads and np.loadtxt hold the GIL. The halves meet at a whole block, an
entry or a line, so the bytes, the arrays and the errors do not depend on
the split. The disk crosscheck (billiard._disk_minimum) halves its stream
of the sieve through _in_halves as well.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import signal
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import ConfigError, ConvergenceFailure, InvalidOrbitClass
from .surfaces import LevelSurface, Orientation, NORMAL_RESIDUAL_TOL

# |a| <= tol * |k| * size counts as a dropped zero entry, size the surface's
# one scale (LevelSurface.end_norm), so the test reads the same at any size
ZERO_ACTION_TOL = 1e-12
CHUNK_ROWS = 1 << 14      # directions inverted per step of the action table
ROW_BLOCK = 4096          # rows per %-operation of the row renderer
READ_BLOCK = 1 << 20      # characters of JSON entries parsed per step
SPLIT_BLOCKS = 4          # render_rows halves a table of this many ROW_BLOCKs or more
SPLIT_JSON_CHARS = 2 << 20   # the JSON reader halves a text this long or longer
SPLIT_CSV_CHARS = 1 << 20    # from_csv halves rows this long or longer
PIPE_CHUNK = 1 << 20      # bytes of the child's half received per step, whole floats


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
            # isspace is strip's test without its copy
            table = (_read_rows(body, 2 * n + 1) if body and not body.isspace()
                     else np.empty((0, 2 * n + 1)))
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
        The shift key must hold a list of `dimension` zeros: anything else
        is a ConfigError."""
        try:   # json.JSONDecodeError is a ValueError
            doc, A, K, P = _read_writer_layout(text) or _read_json_document(text)
            rest = (Orientation(doc["orientation"]), int(doc["k_max"]))
            shift = doc["shift"]
        # json.loads raises RecursionError on arrays nested too deep
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            raise ConfigError(f"malformed actions JSON: {exc!r}") from exc
        _check_zero_shift(shift, K.shape[1])
        return cls(_integer_directions(K), A, P, *rest)


def _check_zero_shift(shift, n: int) -> None:
    """A JSON table's shift: a list of n numbers (not bools), all zero."""
    if not (type(shift) is list and len(shift) == n
            and all(type(v) in (int, float) for v in shift)):
        raise ConfigError(f"malformed actions JSON: the shift must be a list of {n} "
                          "numbers")
    if any(v != 0 for v in shift):
        raise ConfigError("the table's shift is not zero; tables are unshifted "
                          "(a = <p, k>), and mu enters only hbar (m + mu)")


def render_rows(head: str, row: str, sep: str, columns, tail: str = "") -> str:
    """head, then the rows joined by sep, row i being row % (cell i of each
    column), then tail, all concatenated once.

    Columns are 1-D arrays or lists of one length. One %-operation renders
    ROW_BLOCK rows: their cells, as Python scalars, are interleaved into one
    flat tuple by slice assignment and formatted against the row template
    repeated, so each cell is formatted as a per-row template would.
    From SPLIT_BLOCKS blocks on, a forked child renders the second half of
    the blocks where two CPUs are available.
    """
    count = len(columns[0])
    if count <= (SPLIT_BLOCKS - 1) * ROW_BLOCK or not _two_cpus():
        return "".join([head, *_blocks(row, sep, columns, 0, count), tail])
    cut = -(-count // ROW_BLOCK) // 2 * ROW_BLOCK
    mine, theirs = _in_halves(
        lambda: _blocks(row, sep, columns, 0, cut),
        lambda: "".join(_blocks(row, sep, columns, cut, count)).encode("ascii"),
        lambda chunk: str(chunk, "ascii"))
    if theirs is None:
        theirs = _blocks(row, sep, columns, cut, count)
    return "".join([head, *mine, *theirs, tail])


def _blocks(row: str, sep: str, columns, lo: int, hi: int) -> list[str]:
    """render_rows' pieces for rows lo to hi: blocks of ROW_BLOCK rows,
    each after sep unless it starts the table."""
    width, pieces = len(columns), []
    for start in range(lo, hi, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, hi)
        flat = [None] * (width * (stop - start))
        for j, col in enumerate(columns):
            part = col[start:stop]
            flat[j::width] = part if isinstance(part, list) else part.tolist()
        if start:
            pieces.append(sep)
        pieces.append(sep.join([row] * (stop - start)) % tuple(flat))
    return pieces


def _two_cpus() -> bool:
    """Whether a forked child can run beside this process."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _in_halves(first, second, decode):
    """(first(), the second half) with second() run in a forked child.

    The child sends the bytes second() returns over a pipe, after their
    length in 8 bytes, and ends with os._exit; it prints nothing, a warning
    there being an error. The parent runs first() meanwhile, then receives
    the bytes in chunks of at most PIPE_CHUNK into one buffer, each chunk
    decode()d (a memoryview) as it arrives, so the second half is a list of
    decoded chunks. It is None where the
    child failed or sent too few bytes: the caller then computes that half
    itself, and its errors are the serial path's. The child is always
    reaped, and killed first where the parent stops early.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            warnings.simplefilter("error")
            data = second()
            with open(wfd, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    received = None
    try:
        with open(rfd, "rb") as pipe:
            mine = first()
            head = pipe.read(8)
            left, chunks = int.from_bytes(head, "little"), []
            view = memoryview(bytearray(min(left, PIPE_CHUNK)))
            while left and (got := pipe.readinto(view[:min(left, PIPE_CHUNK)])):
                chunks.append(decode(view[:got]))
                left -= got
            if len(head) == 8 and not left:
                received = chunks
    finally:
        if received is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return mine, received


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
    to _read_json_document. From SPLIT_JSON_CHARS characters on, a forked
    child reads the entries after the first entry break past the middle,
    where two CPUs are available.
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
    n, pos = doc["dimension"], start + len(_ENTRIES_OPEN)
    cut = (text.find(_ENTRY_BREAK, (pos + end) // 2, end)
           if len(text) >= SPLIT_JSON_CHARS and _two_cpus() else -1)
    if cut < 0:
        parts = _entry_values(text, pos, end, n)
    else:   # the halves meet between two entries
        stop, resume = cut + len("\n    }"), cut + len(_ENTRY_BREAK)
        # None (another layout) fails np.concatenate, and so the child
        parts, theirs = _in_halves(
            lambda: _entry_values(text, pos, stop, n),
            lambda: np.concatenate(_entry_values(text, resume, end, n)).tobytes(),
            bytes)
        if parts is not None:   # each chunk holds whole floats (PIPE_CHUNK % 8 == 0)
            rest = (_entry_values(text, resume, end, n) if theirs is None
                    else [np.frombuffer(chunk) for chunk in theirs])
            parts = None if rest is None else parts + rest
    if parts is None:
        return None
    table = np.concatenate(parts).reshape(-1, 2 * n + 1)
    return doc, table[:, 0], table[:, 1:n + 1], table[:, n + 1:]


def _entry_values(text: str, pos: int, stop: int, n: int):
    """The values of the whole entries text[pos:stop] of an n-dimensional
    table in to_json's layout, entry after entry, as float arrays read in
    blocks of about READ_BLOCK characters; None for any other text."""
    fill = _json_row(n).replace("%r", "%s").replace("%d", "%s")
    # one comma parts every two slots, within an entry and between entries
    skeleton = set(fill.replace("%s", "")) - {","}
    fields_only = str.maketrans("", "", "".join(skeleton))
    width, parts = 2 * n + 1, []
    while True:
        cut = text.find(_ENTRY_BREAK, min(pos + READ_BLOCK, stop), stop)
        last = cut < 0
        cut = stop if last else cut + len("\n    }")
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
            return parts
        pos = cut + len(",\n")


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


def _read_rows(body: str, width: int) -> np.ndarray:
    """np.loadtxt of the CSV rows body, which hold data. From SPLIT_CSV_CHARS
    characters on, a forked child reads the lines after the middle, where two
    CPUs are available; any irregular half is read again whole, so a
    malformed table raises loadtxt's own error."""
    cut = (body.find("\n", len(body) // 2) + 1
           if len(body) >= SPLIT_CSV_CHARS and _two_cpus() else 0)
    first = body[:cut]
    if not cut or first.isspace():
        return _loadtxt(body)

    def second():
        table = _loadtxt(body[cut:])
        if table.shape[1] != width:
            raise ValueError(f"need {width} columns")
        return table.tobytes()

    mine, theirs = _in_halves(lambda: _loadtxt(first), second, bytes)
    if theirs is None or mine.shape[1] != width:
        return _loadtxt(body)
    return np.concatenate([mine.ravel(), *map(np.frombuffer, theirs)]).reshape(-1, width)


def _loadtxt(rows: str) -> np.ndarray:
    """np.loadtxt of the CSV rows, read as a list of lines: io.StringIO
    would hold the text as UCS-4. The split is on "\n" alone, so a bare
    "\r" stays loadtxt's embedded-newline error."""
    return np.loadtxt(rows.split("\n"), delimiter=",", ndmin=2, comments=None)


def _integer_directions(columns: np.ndarray) -> np.ndarray:
    """k columns read as floats, checked to hold exact integers (below 2**53,
    where a float still pins one)."""
    if not np.all((np.abs(columns) <= 2.0 ** 53) & (columns == np.trunc(columns))):
        raise ConfigError("k columns must be finite integers")
    return columns.astype(np.int64)


def _kept_actions(K: np.ndarray, pts: np.ndarray, size: float):
    """Actions <p, k> per row and the mask of rows whose action is not a
    dropped zero (rows with nan points are not kept either), from the
    direction columns K, shape (n, N), the points, shape (N, n), and the
    surface's size."""
    acts = kernels._dot(pts.T, K)
    # |k|: the sum of squares is exact for integer directions
    norm = np.sqrt(kernels._dot(K, K))
    norm *= ZERO_ACTION_TOL * size
    return acts, np.abs(acts) > norm


def _table_rows(surface: LevelSurface, K: np.ndarray):
    """Points, actions and kept mask of the directions whose float columns
    are the rows of K, shape (n, N), and how many attained rows fail the
    inversion residual: the action table's own arithmetic, for any set of
    directions. The points come as an (N, n) array."""
    pts, res, attained = surface.invert_normal_many(K.T)[1:]
    failed = int(np.count_nonzero(attained & ~(res <= NORMAL_RESIDUAL_TOL)))
    acts, keep = _kept_actions(K, pts, surface.end_norm)
    keep &= attained
    return pts, acts, keep, failed


def _check_residuals(failed: int) -> None:
    """The table's error for `failed` directions off the inversion residual."""
    if failed:
        raise ConvergenceFailure(f"{failed} directions failed the inversion residual")


def _chunks(surface: LevelSurface, mask: np.ndarray, lo: int = 0, hi: int | None = None):
    """The sieve mask's slabs lo to hi in lex-ordered chunks of about
    CHUNK_ROWS directions: per chunk, the index columns, the same columns as
    floats (converted once) and _table_rows' four outputs on them."""
    for cols in kernels._slabs(mask, CHUNK_ROWS, lo, hi):
        K = np.array(cols, dtype=float)
        yield cols, K, *_table_rows(surface, K)


def marked_action_spectrum(surface: LevelSurface, k_max: int) -> ActionSpectrum:
    """Enumerate primitive directions with ||k||_inf <= k_max and their actions.

    Directions outside the surface's normal cone are skipped silently. The
    inversion is vectorized (closed form where the family has one, a
    monotone bisection of the normal angle otherwise) and reads the
    directions as a stream of lex-ordered chunks of about CHUNK_ROWS
    (_chunks), the kept rows compacted in place into arrays sized by the
    sieve's count, so the working set beyond the table and the sieve is one
    chunk. Where the normal angle is monotone the points with a given normal
    form one connected run, along which <p, k> is constant, so one point per
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
    for cols, floats, pc, ac, keep, bad in _chunks(surface, mask):
        failed += bad
        stop = kept + int(np.count_nonzero(keep))
        for j, (k, p) in enumerate(zip(cols, pc.T)):
            np.compress(keep, k, out=K[kept:stop, j])
            np.compress(keep, p, out=pts[kept:stop, j])
        np.compress(keep, ac, out=acts[kept:stop])
        kept = stop
        del cols, floats   # not held while _chunks inverts the next chunk
    _check_residuals(failed)
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
        _check_residuals(failed)
        return pts, acts, keep


def billiard_orbit_action(energy: float, radius: float, k: int, ell: int) -> float:
    """Action 2 R sqrt(2E) ell sin(pi k / ell) of the (k, ell) orbit class
    in the disk of the given radius at energy E."""
    if ell < 1 or not (0 < k / ell < 1):
        raise InvalidOrbitClass(f"need 0 < k/ell < 1, got k={k}, ell={ell}")
    if energy < 0 or radius <= 0:
        raise ConfigError("energy must be >= 0 and radius > 0")
    return 2.0 * radius * math.sqrt(2.0 * energy) * ell * math.sin(math.pi * k / ell)
