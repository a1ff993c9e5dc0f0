import csv
import io
import json
import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebk import (
    ActionSpectrum,
    ConfigError,
    ConvergenceFailure,
    InvalidOrbitClass,
    LevelSurface,
    Orientation,
    RamosCurve,
    UnsupportedSurface,
    billiard_orbit_action,
    direct_spectrum,
    euclidean_profile,
    harmonic_profile,
    kernels,
    marked_action_spectrum,
    pnorm_profile,
)
from ebk import actions as actions_module
from ebk.actions import MaslovShift, as_shift
from ebk.catalog import load_domain_file


@pytest.fixture(scope="module")
def circle_actions():
    surf = LevelSurface.from_profile(euclidean_profile(2))
    return marked_action_spectrum(surf, 2)


def test_circle_kmax2_entries(circle_actions):
    got = {tuple(e.k): e.action for e in circle_actions.entries}
    want = {(0, 1): 1.0, (1, 0): 1.0, (1, 1): math.sqrt(2.0),
            (1, 2): math.sqrt(5.0), (2, 1): math.sqrt(5.0)}
    assert set(got) == set(want)
    for k, a in want.items():
        assert got[k] == pytest.approx(a, abs=1e-12)


def test_circle_points_lie_on_ray(circle_actions):
    for e in circle_actions.entries:
        k = np.asarray(e.k, dtype=float)
        assert np.allclose(e.point, k / np.linalg.norm(k), atol=1e-9)


def test_entries_in_lexicographic_order(circle_actions):
    ks = [tuple(e.k) for e in circle_actions.entries]
    assert ks == sorted(ks)


def test_segment_spectrum_single_direction():
    surf = LevelSurface.from_profile(harmonic_profile((1.0, 2.0)))
    acts = marked_action_spectrum(surf, 5)
    assert [tuple(e.k) for e in acts.entries] == [(1, 2)]
    e = acts.entries[0]
    assert e.action == pytest.approx(1.0, abs=1e-12)
    assert float(np.dot(e.point, [1.0, 2.0])) == pytest.approx(1.0, abs=1e-12)


def test_segment_table_never_scans(monkeypatch):
    # the facet inverts in closed form; the per-direction scan stays unused
    def scan(self, k):
        raise AssertionError("scanned a direction")

    monkeypatch.setattr(LevelSurface, "_invert_normal_scan", scan)
    surf = LevelSurface.from_profile(harmonic_profile((1.0, 2.0)))
    acts = marked_action_spectrum(surf, 40)
    assert acts.directions.tolist() == [[1, 2]]
    assert acts.points.tolist() == [[1.0 / 3.0, 1.0 / 3.0]]


@pytest.mark.parametrize("k_max", [1, 2, 3, 5])
def test_dented_arc_has_no_action_table(k_max):
    # the outward normal turns back inside the dent, so (1, 1) is normal at
    # several points with different actions
    t = np.linspace(0.0, np.pi / 2, 200)
    r = 1.0 - 0.3 * np.sin(2 * t) ** 2
    dent = LevelSurface.from_points(np.stack([r * np.cos(t), r * np.sin(t)], 1))
    assert dent.orientation is Orientation.GENERAL
    with pytest.raises(UnsupportedSurface):
        marked_action_spectrum(dent, k_max)


def test_ramos_entries_drop_axis_classes():
    acts = marked_action_spectrum(RamosCurve(), 2)
    got = {tuple(e.k): e.action for e in acts.entries}
    assert set(got) == {(1, 1), (1, 2), (2, 1)}
    assert got[(1, 1)] == pytest.approx(2.0, abs=1e-12)
    assert got[(1, 2)] == pytest.approx(3.0 * math.sin(2.0 * math.pi / 3.0),
                                        abs=1e-12)


def test_entry_invariants_on_quartic():
    prof = pnorm_profile(4.0)
    surf = LevelSurface.from_profile(prof)
    acts = marked_action_spectrum(surf, 6)
    for e in acts.entries:
        k = np.asarray(e.k, dtype=float)
        # action matches <p, k>
        assert e.action == pytest.approx(float(np.dot(e.point, k)),
                                         rel=1e-10)
        # stored point has normal parallel to k
        g = prof.gradient(e.point)
        n = g / np.linalg.norm(g)
        khat = k / np.linalg.norm(k)
        assert abs(n[0] * khat[1] - n[1] * khat[0]) <= 1e-10
        assert e.action > 0.0
        assert math.gcd(*e.k) == 1


def test_scaling_consistency(circle_actions):
    surf = LevelSurface.from_profile(euclidean_profile(2))
    for e in circle_actions.entries:
        k = np.asarray(e.k, dtype=float)
        # doubling k doubles the pairing exactly (power-of-two scaling)
        assert float(np.dot(e.point, 2.0 * k)) == 2.0 * float(np.dot(e.point, k))
        p2 = surf.invert_normal(2.0 * k).point
        assert np.abs(p2 - np.asarray(e.point)).max() <= 1e-9


@given(st.integers(min_value=1, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_multiple_scales_entries(ell):
    surf = LevelSurface.from_profile(euclidean_profile(2))
    acts = marked_action_spectrum(surf, 2)
    e = acts.entries[2]
    m = e.multiple(ell)
    assert np.array_equal(m.k, ell * np.asarray(e.k))
    assert m.action == ell * e.action
    assert m.point == e.point


def test_kmax_validation():
    surf = LevelSurface.from_profile(euclidean_profile(2))
    with pytest.raises(ConfigError):
        marked_action_spectrum(surf, 0)


def _spline_arc():
    # a polar spline through part of the pnorm:1.5 arc, inverted by
    # bisection; directions near the axes leave its normal cone, and its
    # parameters near 0 are where a bisection that stopped once every
    # target of a call had converged gave chunk-dependent results
    t = np.linspace(0.01, 1.2, 40)
    u = np.stack([np.cos(t), np.sin(t)], axis=1)
    return LevelSurface.from_points(u / ((u ** 1.5).sum(axis=1) ** (1 / 1.5))[:, None])


# name: (surface factory, k_max, whether rows are dropped)
STREAMED = {
    "pnorm:1.5": (lambda: LevelSurface.from_profile(pnorm_profile(1.5)), 40, False),
    "pnorm:4": (lambda: LevelSurface.from_profile(pnorm_profile(4.0)), 40, False),
    "ramos": (RamosCurve, 40, True),
    "pnorm:3-3d": (lambda: LevelSurface.from_profile(pnorm_profile(3.0, dimension=3)),
                   8, False),
    "spline": (_spline_arc, 40, True),
}


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_table_matches_one_chunk(monkeypatch, name):
    # chunk edges fall mid-table, between dropped rows and kept ones
    make, k_max, drops = STREAMED[name]
    surface = make()
    assert surface.orientation is not Orientation.GENERAL
    whole = marked_action_spectrum(surface, k_max)
    assert len(whole) < actions_module.CHUNK_ROWS
    monkeypatch.setattr(actions_module, "CHUNK_ROWS", 7)
    streamed = marked_action_spectrum(surface, k_max)
    total = len(kernels.primitive_directions(surface.dimension, k_max))
    assert (len(streamed) < total) == drops and len(streamed) > 10 * 7
    for attr in ("directions", "actions", "points"):
        got = getattr(streamed, attr)
        assert np.array_equal(got, getattr(whole, attr)), attr
        assert got.flags.c_contiguous, attr
    assert np.array_equal(streamed.sup_norms, streamed.directions.max(axis=1))


def _pnorm_3d_spec(tmp_path):
    spec = tmp_path / "pnorm3d.json"
    spec.write_text('{"kind": "pnorm", "params": {"s": 3.5}, "dimension": 3}')
    return load_domain_file(str(spec)).make_surface()


# name: (surface factory taking tmp_path, k_max); each table is more than
# one default chunk
CHUNKED = {
    "pnorm:1.05": (lambda _: LevelSurface.from_profile(pnorm_profile(1.05)), 200),
    "pnorm:3": (lambda _: LevelSurface.from_profile(pnorm_profile(3.0)), 200),
    "pnorm:40": (lambda _: LevelSurface.from_profile(pnorm_profile(40.0)), 200),
    "ramos": (lambda _: RamosCurve(), 200),
    "pnorm:3.5-3d-spec": (_pnorm_3d_spec, 30),
    "spline": (lambda _: _spline_arc(), 200),
}


@pytest.mark.parametrize("name", CHUNKED)
def test_table_is_independent_of_the_chunk_size(monkeypatch, tmp_path, name):
    make, k_max = CHUNKED[name]
    surface = make(tmp_path)
    tables = []
    for rows in (7, actions_module.CHUNK_ROWS):
        monkeypatch.setattr(actions_module, "CHUNK_ROWS", rows)
        tables.append(marked_action_spectrum(surface, k_max))
    chunks = len(list(kernels._slabs(kernels._sieve(surface.dimension, k_max),
                                     actions_module.CHUNK_ROWS)))
    assert chunks > 1
    for attr in ("directions", "points", "actions"):
        assert np.array_equal(getattr(tables[0], attr), getattr(tables[1], attr)), attr


def test_streamed_residual_failures_are_counted_over_chunks(monkeypatch):
    surface = LevelSurface.from_profile(pnorm_profile(3.0))
    invert = surface.invert_normal_many

    def spoiled(K):
        t, p, res, ok = invert(K)
        return t, p, np.where(K[:, 1] == 1, 1.0, res), ok

    # the k_max + 1 directions (j, 1) spread over the whole table
    monkeypatch.setattr(surface, "invert_normal_many", spoiled)
    monkeypatch.setattr(actions_module, "CHUNK_ROWS", 7)
    with pytest.raises(ConvergenceFailure, match="^21 directions failed"):
        marked_action_spectrum(surface, 20)


def test_restrict(circle_actions):
    small = circle_actions.restrict(1)
    assert {tuple(e.k) for e in small.entries} == {(0, 1), (1, 0), (1, 1)}
    assert small.k_max == 1


def test_csv_roundtrip(circle_actions):
    text = circle_actions.to_csv()
    assert text.splitlines()[0] == "k_1,k_2,action,p_1,p_2"
    back = ActionSpectrum.from_csv(text, orientation=Orientation.CONVEX)
    assert np.array_equal(back.directions, circle_actions.directions)
    assert np.array_equal(back.actions, circle_actions.actions)
    assert np.array_equal(back.points, circle_actions.points)
    assert back.k_max == circle_actions.k_max


def test_csv_rejects_foreign_header():
    with pytest.raises(ConfigError):
        ActionSpectrum.from_csv("a,b,c\n1,2,3\n", orientation=Orientation.CONVEX)


def test_json_roundtrip(circle_actions):
    back = ActionSpectrum.from_json(circle_actions.to_json())
    assert np.array_equal(back.directions, circle_actions.directions)
    assert np.array_equal(back.actions, circle_actions.actions)
    assert back.orientation is circle_actions.orientation
    assert back.shift.values == circle_actions.shift.values


@pytest.mark.parametrize("layout", ["writer", "compact"])
def test_json_table_keeps_a_zero_shift_and_rejects_another(circle_actions, layout):
    # a table is unshifted: the shift key is kept for the format, always zeros
    doc = json.loads(circle_actions.to_json())
    assert doc["shift"] == [0.0, 0.0]
    doc["shift"] = [0.5, 0.0]
    text = (json.dumps(doc, indent=2, sort_keys=True) + "\n" if layout == "writer"
            else json.dumps(doc))
    with pytest.raises(ConfigError, match="shift is not zero"):
        ActionSpectrum.from_json(text)



# --- file formats against the json/csv module writers they replaced ---

def _old_to_csv(spec):
    n = spec.dimension
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"k_{j+1}" for j in range(n)] + ["action"]
               + [f"p_{j+1}" for j in range(n)])
    for k, a, p in zip(spec.directions, spec.actions, spec.points):
        w.writerow([int(x) for x in k] + [format(a, ".17g")]
                   + [format(x, ".17g") for x in p])
    return buf.getvalue()


def _old_to_json(spec):
    doc = {
        "dimension": spec.dimension,
        "orientation": spec.orientation.value,
        "k_max": spec.k_max,
        "shift": list(spec.shift.values),
        "entries": [
            {"k": [int(x) for x in k], "action": float(a),
             "point": [float(x) for x in p]}
            for k, a, p in zip(spec.directions, spec.actions, spec.points)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _old_from_csv(text, orientation):
    rows = list(csv.reader(io.StringIO(text)))
    n = sum(1 for h in rows[0] if h.startswith("k_"))
    K, A, P = [], [], []
    for row in rows[1:]:
        if not row:
            continue
        K.append([int(x) for x in row[:n]])
        A.append(float(row[n]))
        P.append([float(x) for x in row[n + 1:2 * n + 1]])
    K = np.asarray(K, dtype=np.int64).reshape(len(A), n)
    return ActionSpectrum(K, np.asarray(A), np.asarray(P).reshape(len(A), n),
                          orientation, int(K.max()) if len(A) else 0)


def _table(name):
    if name == "pnorm:3":
        return marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(3.0)), 60)
    if name == "ramos":
        return marked_action_spectrum(RamosCurve(), 40)
    if name == "pnorm:3-3d":
        return marked_action_spectrum(
            LevelSurface.from_profile(pnorm_profile(3.0, dimension=3)), 8)
    empty = np.zeros((0, 2))
    return ActionSpectrum(empty.astype(np.int64), np.zeros(0), empty,
                          Orientation.CONVEX, 5)


TABLES = ["pnorm:3", "ramos", "pnorm:3-3d", "empty"]


@pytest.mark.parametrize("name", TABLES)
def test_writers_match_json_and_csv_modules(name):
    spec = _table(name)
    assert spec.to_json() == _old_to_json(spec)
    assert spec.to_csv() == _old_to_csv(spec)


@pytest.mark.parametrize("name", TABLES)
def test_csv_reader_matches_row_loop(name):
    spec = _table(name)
    text = spec.to_csv()
    new = ActionSpectrum.from_csv(text, orientation=spec.orientation)
    old = _old_from_csv(text, spec.orientation)
    assert new.directions.dtype == old.directions.dtype
    for attr in ("directions", "actions", "points"):
        assert np.array_equal(getattr(new, attr), getattr(old, attr))
    assert new.k_max == old.k_max


@pytest.mark.parametrize("name", TABLES)
def test_json_roundtrip_is_exact(name):
    spec = _table(name)
    back = ActionSpectrum.from_json(spec.to_json())
    for attr in ("directions", "actions", "points"):
        assert np.array_equal(getattr(back, attr), getattr(spec, attr))
    assert (back.orientation, back.k_max, back.shift) == \
        (spec.orientation, spec.k_max, spec.shift)


def test_empty_table_json_keeps_an_empty_entry_list():
    assert '"entries": [],' in _table("empty").to_json()


@pytest.mark.parametrize("text", [
    "k_1,k_2,action,p_1,p_2\n1.5,0,1,1,0\n",
    "k_1,k_2,action,p_1,p_2\ninf,0,1,1,0\n",
    "k_1,k_2,action,p_1,p_2\nnan,0,1,1,0\n",
    "k_1,k_2,action,p_1,p_2\n1,0,1,1,0\n1,1,1\n",
    "k_1,k_2,action,p_1,p_2\n1,0,1,1\n",
    "k_1,k_2,action,p_1,p_2\n1,0,x,1,0\n",
    "k_1,k_2,action,p_1\n1,0,1,1\n",
    "",
], ids=["fractional-k", "inf-k", "nan-k", "short-row", "short-rows",
        "unparsable", "short-header", "empty"])
def test_malformed_csv_is_a_config_error(text):
    with pytest.raises(ConfigError):
        ActionSpectrum.from_csv(text, orientation=Orientation.CONVEX)


@pytest.mark.parametrize("mutate", [
    lambda text: text[:len(text) // 2],
    lambda text: text.replace('"k_max"', '"kmax"'),
    lambda text: text.replace('"orientation": "convex"', '"orientation": "round"'),
    lambda text: text.replace('"k": [\n        1,', '"k": [\n        1.5,', 1),
    lambda text: text.replace('"k": [\n        1,', '"k": [', 1),
    lambda text: "[]",
], ids=["truncated", "missing-key", "bad-orientation", "fractional-k",
        "short-k", "not-an-object"])
def test_malformed_json_is_a_config_error(mutate):
    text = _table("pnorm:3").to_json()
    bad = mutate(text)
    assert bad != text
    with pytest.raises(ConfigError):
        ActionSpectrum.from_json(bad)


# --- block-rendered writers and the writer-layout JSON reader ---

def _bitwise(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_table(a, b):
    return (all(_bitwise(getattr(a, attr), getattr(b, attr))
                for attr in ("directions", "actions", "points"))
            and (a.orientation, a.k_max, a.shift) == (b.orientation, b.k_max, b.shift))


def _outcome(read, text):
    try:
        return read(text)
    except ConfigError:
        return None


def _no_fallback(text):
    raise AssertionError("from_json fell back to json.loads")


@pytest.fixture
def no_fallback(monkeypatch):
    """Fail any read that leaves the writer-layout path."""
    monkeypatch.setattr(actions_module, "_read_json_document", _no_fallback)


@pytest.fixture(scope="module")
def block_tables():
    # more rows than two render blocks, in two and three dimensions
    make = {
        "2d": lambda: marked_action_spectrum(
            LevelSurface.from_profile(pnorm_profile(3.0)), 130),
        "3d": lambda: marked_action_spectrum(
            LevelSurface.from_profile(pnorm_profile(3.0, dimension=3)), 22),
    }
    return {name: f() for name, f in make.items()}


def _head(spec, rows):
    return ActionSpectrum(spec.directions[:rows], spec.actions[:rows],
                          spec.points[:rows], spec.orientation, spec.k_max)


BLOCK = actions_module.ROW_BLOCK


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("name", ["2d", "3d"])
def test_block_writers_match_json_and_csv_modules(block_tables, name, rows):
    assert len(block_tables[name]) > 2 * BLOCK + 1
    spec = _head(block_tables[name], rows)
    assert spec.to_json() == _old_to_json(spec)
    assert spec.to_csv() == _old_to_csv(spec)


@pytest.mark.parametrize("dimension, k_max", [(2, 200), (3, 27)])
def test_json_reader_reads_across_blocks(dimension, k_max, no_fallback):
    spec = marked_action_spectrum(
        LevelSurface.from_profile(pnorm_profile(3.0, dimension=dimension)), k_max)
    text = spec.to_json()
    assert len(text) > 2 * actions_module.READ_BLOCK
    assert _same_table(ActionSpectrum.from_json(text), spec)


def test_json_reader_block_cuts_fall_between_entries(monkeypatch, no_fallback):
    # a block cut after every entry or few, and one cut at the last entry
    spec = _table("pnorm:3")
    text = spec.to_json()
    for size in (1, 150, 997, len(text)):
        monkeypatch.setattr(actions_module, "READ_BLOCK", size)
        assert _same_table(ActionSpectrum.from_json(text), spec)


def test_json_reader_takes_other_layouts_through_json_loads():
    # compact and reordered JSON: the same table, read by the fallback
    spec = _table("pnorm:3")
    doc = json.loads(spec.to_json())
    for text in (json.dumps(doc), json.dumps(doc, indent=4),
                 json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\r\n")):
        assert actions_module._read_writer_layout(text) is None
        assert _same_table(ActionSpectrum.from_json(text), spec)


def test_json_reader_declines_a_slot_emptied_and_refilled_elsewhere():
    # the count of numbers stays, so only their places show the damage
    text = _table("pnorm:3").to_json()
    slot = text.index('"k": [\n        1,') + len('"k": [\n        ')
    bad = text[:slot] + text[slot + 1:]
    key = bad.index('"point"')
    bad = bad[:key + 3] + "7" + bad[key + 3:]
    assert actions_module._read_writer_layout(bad) is None
    with pytest.raises(ConfigError, match="Expecting value"):
        ActionSpectrum.from_json(bad)


@pytest.mark.parametrize("layout", ["writer", "compact"])
def test_json_integer_too_large_for_a_float_is_a_config_error(layout):
    doc = json.loads(_table("pnorm:3").to_json())
    doc["entries"][3]["k"][1] = 10 ** 400
    text = (json.dumps(doc, indent=2, sort_keys=True) + "\n" if layout == "writer"
            else json.dumps(doc))
    # in the writer's layout the number sits in its slot
    assert ("\n        1" + "0" * 400 + "\n" in text) == (layout == "writer")
    with pytest.raises(ConfigError, match="OverflowError"):
        ActionSpectrum.from_json(text)


_EDIT_CHARS = "0123456789.+-eE" + ' \n,:[]{}"'
_EDITED_TABLE_JSON = marked_action_spectrum(
    LevelSurface.from_profile(pnorm_profile(3.0)), 5).to_json()


@given(st.lists(st.tuples(st.sampled_from("idr"), st.floats(0.0, 1.0),
                          st.sampled_from(_EDIT_CHARS)), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_edited_json_reads_as_json_loads_reads_it(bench_kernels, edits):
    text = _EDITED_TABLE_JSON
    for op, where, char in edits:
        at = min(int(where * len(text)), len(text) - 1)
        text = {"i": text[:at] + char + text[at:],
                "d": text[:at] + text[at + 1:],
                "r": text[:at] + char + text[at + 1:]}[op]
    # the benchmark's verbatim copy of the reader before the writer-layout path
    new = _outcome(ActionSpectrum.from_json, text)
    old = _outcome(bench_kernels.old_from_json, text)
    assert (new is None) == (old is None)
    if new is not None:
        assert _same_table(new, old)


_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1e-300, -1e-300]),
    st.floats(min_value=-1e-307, max_value=1e-307))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=n, max_size=n),
                       _DOUBLES.filter(lambda a: a != 0.0),
                       st.lists(_DOUBLES, min_size=n, max_size=n)),
             min_size=1, max_size=12))))
@settings(max_examples=150, deadline=None)
def test_json_roundtrip_of_any_doubles_takes_the_writer_layout(case):
    n, rows = case
    spec = ActionSpectrum(np.array([k for k, _, _ in rows], dtype=np.int64),
                          np.array([a for _, a, _ in rows]),
                          np.array([p for _, _, p in rows]), Orientation.CONCAVE, 7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(actions_module, "_read_json_document", _no_fallback)
        assert _same_table(ActionSpectrum.from_json(spec.to_json()), spec)


# --- large tables halved across a forked child ---

class _Split:
    """The split forced on or off through the CPU check, and the forks
    counted; every call is checked to leave no child process behind."""

    def __init__(self, monkeypatch):
        self.on, self.forks, fork = False, 0, os.fork

        def counted():
            self.forks += 1
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(actions_module, "_two_cpus", lambda: self.on)

    def run(self, on, call, *args):
        """(call(*args), or its ConfigError's text, and the forks it made)."""
        self.on, self.forks = on, 0
        try:
            out = call(*args)
        except ConfigError as exc:
            out = str(exc)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return out, self.forks


@pytest.fixture
def split(monkeypatch):
    return _Split(monkeypatch)


@pytest.fixture(scope="module")
def split_tables():
    # more rows than four render blocks and a short one, in two and three dimensions
    return {2: marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(3.0)), 200),
            3: marked_action_spectrum(
                LevelSurface.from_profile(pnorm_profile(3.0, dimension=3)), 27)}


def _readers(spec):
    """(reader, text) of both formats of spec."""
    return ((ActionSpectrum.from_json, spec.to_json()),
            (lambda text: ActionSpectrum.from_csv(text, spec.orientation), spec.to_csv()))


def _same_outcome(a, b):
    return a == b if isinstance(a, str) else _same_table(a, b)


# the writers' threshold is in rows: the first row of block SPLIT_BLOCKS
_SPLIT_AT = (actions_module.SPLIT_BLOCKS - 1) * BLOCK + 1


@pytest.mark.parametrize("rows", [_SPLIT_AT - 1, _SPLIT_AT, _SPLIT_AT + 1, 4 * BLOCK,
                                  4 * BLOCK + 17],
                         ids=["below", "at", "above", "even-blocks", "odd-blocks-short-tail"])
@pytest.mark.parametrize("dimension", [2, 3])
def test_split_writers_and_readers_match_the_serial_path(split, split_tables, dimension,
                                                         rows):
    spec = _head(split_tables[dimension], rows)
    assert len(split_tables[dimension]) >= rows
    for write in (spec.to_json, spec.to_csv):
        serial, forks = split.run(False, write)
        assert forks == 0
        halved, forks = split.run(True, write)
        assert halved == serial and forks == (rows >= _SPLIT_AT)
    for read, text in _readers(spec):
        serial, _ = split.run(False, read, text)
        halved, _ = split.run(True, read, text)
        assert _same_table(halved, serial) and _same_table(serial, spec)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["above", "at", "below"])
@pytest.mark.parametrize("dimension", [2, 3])
def test_split_readers_halve_from_their_thresholds(split, split_tables, monkeypatch,
                                                   dimension, offset):
    # the JSON reader counts the whole text, the CSV reader the rows under the
    # header; the child's arrays come back in many chunks
    monkeypatch.setattr(actions_module, "PIPE_CHUNK", 8 * 512)
    spec = _head(split_tables[dimension], 4 * BLOCK + 17)
    (read_json, as_json), (read_csv, as_csv) = _readers(spec)
    monkeypatch.setattr(actions_module, "SPLIT_JSON_CHARS", len(as_json) + offset)
    monkeypatch.setattr(actions_module, "SPLIT_CSV_CHARS",
                        len(as_csv.partition("\n")[2]) + offset)
    for read, text in ((read_json, as_json), (read_csv, as_csv)):
        halved, forks = split.run(True, read, text)
        assert _same_table(halved, spec) and forks == (offset <= 0)


def _damage(text, fraction, kind):
    """text with one value after fraction of its length made bad."""
    if kind == "unparsable-json":
        at = text.index('"action": ', int(fraction * len(text))) + len('"action": ')
        return text[:at] + "x" + text[at:]
    if kind == "fractional-json-k":
        at = text.index('"k": [\n', int(fraction * len(text)))
        at = text.index(",", at)
        return text[:at] + ".5" + text[at:]
    at = text.index("\n", int(fraction * len(text))) + 1
    line = text[at:text.index("\n", at)]
    cells = line.split(",")
    bad = ("x" + line if kind == "unparsable-csv" else ",".join(cells[:-1]))
    return text[:at] + bad + text[at + len(line):]


@pytest.mark.parametrize("fraction", [0.1, 0.8], ids=["first-half", "second-half"])
@pytest.mark.parametrize("kind", ["unparsable-json", "fractional-json-k",
                                  "unparsable-csv", "short-csv-row"])
@pytest.mark.parametrize("dimension", [2, 3])
def test_split_readers_raise_the_serial_error(split, split_tables, monkeypatch,
                                              dimension, kind, fraction):
    monkeypatch.setattr(actions_module, "SPLIT_JSON_CHARS", 1)
    monkeypatch.setattr(actions_module, "SPLIT_CSV_CHARS", 1)
    (read_json, as_json), (read_csv, as_csv) = _readers(split_tables[dimension])
    read, text = (read_json, as_json) if "json" in kind else (read_csv, as_csv)
    bad = _damage(text, fraction, kind)
    serial, _ = split.run(False, read, bad)
    halved, forks = split.run(True, read, bad)
    assert isinstance(serial, str) and halved == serial and forks == 1


@pytest.mark.parametrize("dimension", [2, 3])
def test_split_parent_computes_the_half_of_a_child_that_exits_nonzero(
        split, split_tables, monkeypatch, dimension):
    monkeypatch.setattr(actions_module, "SPLIT_JSON_CHARS", 1)
    monkeypatch.setattr(actions_module, "SPLIT_CSV_CHARS", 1)
    spec = _head(split_tables[dimension], 4 * BLOCK + 17)
    calls = [(spec.to_json,), (spec.to_csv,), *_readers(spec)]
    serial = [split.run(False, *call)[0] for call in calls]
    parent = os.getpid()
    for name in ("_blocks", "_entry_values", "_loadtxt"):
        def dying(*args, real=getattr(actions_module, name)):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)
        monkeypatch.setattr(actions_module, name, dying)
    for call, want in zip(calls, serial):
        got, forks = split.run(True, *call)
        assert _same_outcome(got, want) and forks == 1


class _Overstated(bytes):
    """Bytes that count five more than they hold."""

    def __len__(self):
        return super().__len__() + 5


def _warns():
    warnings.warn("the child speaks")
    return b"x"


@pytest.mark.parametrize("second", [
    lambda: os._exit(0), lambda: 1 / 0, _warns, lambda: _Overstated(b"abc")],
    ids=["exits-silently", "raises", "warns", "sends-too-few-bytes"])
def test_in_halves_takes_no_half_from_a_failed_child(split, second):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the parent's own filters do not matter
        (got, received), forks = split.run(
            True, actions_module._in_halves, lambda: "mine", second, bytes)
    assert (got, received, forks) == ("mine", None, 1)


def test_in_halves_receives_in_chunks():
    data = bytes(range(256)) * (3 * actions_module.PIPE_CHUNK // 256 + 5)
    mine, chunks = actions_module._in_halves(lambda: "mine", lambda: data, bytes)
    assert mine == "mine" and b"".join(chunks) == data
    assert max(map(len, chunks)) <= actions_module.PIPE_CHUNK and len(chunks) == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_in_halves_kills_the_child_when_the_parent_fails():
    def fail():
        raise KeyError("the parent's half")

    started = time.monotonic()
    with pytest.raises(KeyError):
        actions_module._in_halves(fail, lambda: time.sleep(60) or b"", bytes)
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_spectrum_csv_of_4225_levels_does_not_fork(monkeypatch):
    # the spectrum workload's outputs stay serial even where two CPUs are free
    def no_fork():
        raise AssertionError("forked")

    spectrum = direct_spectrum(pnorm_profile(4.0), 64)
    assert len(spectrum) == 4225
    monkeypatch.setattr(actions_module, "_two_cpus", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork)
    assert spectrum.to_csv().count("\n") == 4226


# --- Maslov shift plumbing ---

def test_as_shift_coercions():
    assert as_shift(None, 2) == MaslovShift.zero(2)
    assert as_shift(0.75, 2).values == (0.75, 0.75)
    assert as_shift((0.0, 0.75), 2).values == (0.0, 0.75)
    ms = MaslovShift.uniform(0.5, 3)
    assert as_shift(ms, 3) is ms
    with pytest.raises(ConfigError):
        as_shift((0.5,), 2)


# --- billiard orbit actions ---

def test_billiard_orbit_action_values():
    # diameter orbit: two bounces
    assert billiard_orbit_action(0.5, 1.0, 1, 2) == pytest.approx(4.0, abs=1e-12)
    # inscribed triangle
    assert billiard_orbit_action(0.5, 1.0, 1, 3) == pytest.approx(
        3.0 * math.sqrt(3.0), abs=1e-12)


def test_billiard_orbit_action_rejects_bad_class():
    with pytest.raises(InvalidOrbitClass):
        billiard_orbit_action(0.5, 1.0, 3, 2)
    with pytest.raises(InvalidOrbitClass):
        billiard_orbit_action(0.5, 1.0, 2, 2)
