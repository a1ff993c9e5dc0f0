"""Time the hot kernels: enumeration whole and chunked, the extremal-ratio
reduction's angle walk against a full scan on six tables, the lattice
search (with its table fallback) against the action table plus that
reduction, the search
with its error bracket against the table with its chords, the closed-form
Gauss-map inversion against the generic bisection, the action table's
build, the disk crosscheck's streamed minimum and bound against the table
(both the build and the stream also in the former 65,536-row chunks) and
its stream on one core against two processes, the table's block-rendered
writers and writer-layout JSON reader against the per-row writers and the
json.loads reader, all four table I/O calls on one core and halved across
a forked child, the reconstruction's spline solve by cyclic reduction
against the Thomas sweep it replaced, its spline fits, its transform and
its Hausdorff distance, and the command line's argument parser built cold
for every subcommand against the invoked one. The enumeration, action-table, crosscheck, table
I/O and reconstruction rows also give the tracemalloc peak of one call
(Python allocations, numpy buffers included; a forked child's are not
seen).

Run as:  python benchmarks/bench_kernels.py
"""
import contextlib
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import ebk
from ebk import (ActionSpectrum, ConfigError, LevelSurface, Orientation, PointCloud,
                 RamosCurve, SurfaceActions, crosscheck_disk, direct_spectrum,
                 harmonic_profile, hausdorff_distance, hypersurface_transform, kernels,
                 marked_action_spectrum, pnorm_profile)
from ebk import actions as actions_module
from ebk.actions import CHUNK_ROWS, _check_zero_shift, _integer_directions
from ebk.quantize import extremal_levels, lattice_grid
from ebk.surfaces import _cyclic_reduction, _spline_system

K_MAX_ENUM = 1500
K_MAX_INVERT = 1500
K_MAX_RATIOS = 400   # with M_MAX_RATIOS: the spectrum-variational pnorm:4 run
M_MAX_RATIOS = 64
FLAT_RATIOS = ((1.5, 1000), (1.05, 600))   # pnorm s and k_max of the flat tables
M_MAX_FLAT = 16
K_MAX_TABLE = 500    # the table-io workload's pnorm:3 table
K_MAX_BUILD = 2000   # the billiard workload's disk table, 2.43M directions
K_MAX_RECONSTRUCT = 200   # the reconstruct workload's pnorm:4 cloud
REPEAT = 3
OLD_CHUNK_ROWS = 1 << 16   # the action table's chunk size before CHUNK_ROWS


def best_of(fn, repeat=REPEAT):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def full_scan(K, a, W, use_max):
    """Every entry for every weight row: the reduction without the walk."""
    K = K.astype(float)
    vals = np.empty(len(W))
    idxs = np.empty(len(W), dtype=np.int64)
    for g, w in enumerate(W):
        num = K[:, 0] * w[0]
        num += K[:, 1] * w[1]
        r = num / a
        best = r.max() if use_max else r.min()
        tol = kernels.TIE_TOL * abs(best)
        mask = (r >= best - tol) if use_max else (r <= best + tol)
        vals[g], idxs[g] = best, int(np.argmax(mask))
    return vals, idxs


def enumeration_row() -> None:
    """The whole enumeration against the sieve's chunked readout as index
    columns, each chunk dropped once read (the chunks must concatenate to
    the whole)."""
    def slabs():
        return kernels._slabs(kernels._sieve(2, K_MAX_ENUM), CHUNK_ROWS)

    def chunked():
        return [len(cols[0]) for cols in slabs()]

    print(f"{'':52s} {'time':>10s} {'peak':>10s}")
    for name, run in (
            (f"primitive_directions(2, {K_MAX_ENUM})",
             functools.partial(kernels.primitive_directions, 2, K_MAX_ENUM)),
            (f"_slabs(_sieve(2, {K_MAX_ENUM}), {CHUNK_ROWS})", chunked)):
        print(f"{name:52s} {best_of(run):9.4f}s {peak_mb(run):7.1f} MB")
    whole = kernels.primitive_directions(2, K_MAX_ENUM)
    same = np.array_equal(
        np.concatenate([np.stack(cols, axis=1) for cols in slabs()]), whole)
    print(f"{'chunks concatenated':52s} {len(whole):,} directions  identical: {same}")


def ratio_tables():
    """The reduction row's tables: (name, K, a, W, use_max) for pnorm:4, pnorm:40
    at mu 1/2, the disk (inf) at mu 3/4 and a spline through 57 points of the
    pnorm:4 arc at polar angles 0.2 to 1.3 at K_MAX_RATIOS/M_MAX_RATIOS, and the
    flat pnorm tables of FLAT_RATIOS at M_MAX_FLAT."""
    quartic = LevelSurface.from_profile(pnorm_profile(4.0))
    arc = LevelSurface.from_points(quartic.point(np.linspace(0.2, 1.3, 57)))
    grid = lattice_grid(2, M_MAX_RATIOS).astype(float)
    sizes = f"{K_MAX_RATIOS}/{M_MAX_RATIOS}"
    for name, surface, k_max, W, use_max in (
            (f"pnorm:4 {sizes}", quartic, K_MAX_RATIOS, grid, True),
            (f"pnorm:40 {sizes} mu 1/2", LevelSurface.from_profile(pnorm_profile(40.0)),
             K_MAX_RATIOS, grid + 0.5, True),
            (f"disk {sizes} mu 3/4", RamosCurve(), K_MAX_RATIOS, grid + 0.75, False),
            (f"spline arc {sizes}", arc, K_MAX_RATIOS, grid, True),
            *((f"pnorm:{s:g} {k_max}/{M_MAX_FLAT}",
               LevelSurface.from_profile(pnorm_profile(s)), k_max,
               lattice_grid(2, M_MAX_FLAT).astype(float), True)
              for s, k_max in FLAT_RATIOS)):
        spec = marked_action_spectrum(surface, k_max)
        yield name, spec.directions, spec.actions, W, use_max


def ratios_row() -> None:
    """extremal_ratios (the angle sort, its shape check and the walk) against
    the full scan on each of ratio_tables; values and indices must be
    bitwise equal, and every table must pass the shape check."""
    print(f"{'':52s} {'walk':>10s} {'full':>10s}")
    for name, K, a, W, use_max in ratio_tables():
        args = (K, a, W, use_max)
        t_walk = best_of(lambda: kernels.extremal_ratios(*args))
        t_full = best_of(lambda: full_scan(*args), repeat=1)
        same = all(np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in
                   zip(kernels.extremal_ratios(*args), full_scan(*args)))
        walked = kernels._angle_order(K, a, use_max, len(W)) is not None
        label = f"reduction({name}, {len(a):,} x {len(W):,})"
        print(f"{label:52s} {t_walk:9.4f}s {t_full:9.4f}s {t_full / t_walk:7.1f}x"
              f"  walked: {walked}  identical: {same}")


def lattice_row() -> None:
    """quantize.extremal_levels at one box (the search, then the table for
    the rows it leaves) on pnorm:4 at the spectrum-variational sizes, at
    hbar 1 and 1e-9, and on the disk's one crosscheck row, against building
    the action table and reducing it; both must give the same values and
    directions."""
    print(f"{'':52s} {'descent':>10s} {'table':>10s}")
    quartic = LevelSurface.from_profile(pnorm_profile(4.0))
    grid = lattice_grid(2, M_MAX_RATIOS).astype(float)
    for name, surface, k_max, W, use_max in (
            ("pnorm:4", quartic, K_MAX_RATIOS, grid, True),
            ("pnorm:4 hbar 1e-9", quartic, K_MAX_RATIOS, 1e-9 * grid, True),
            ("ramos", RamosCurve(), K_MAX_BUILD, np.array([[0.0, 2.0]]), False)):
        actions = SurfaceActions(surface, k_max)

        def descent():
            return extremal_levels(actions, W, use_max)[:2]

        def table():
            spec = marked_action_spectrum(surface, k_max)
            vals, idx = kernels.extremal_ratios(spec.directions, spec.actions, W,
                                                use_max)
            return vals, spec.directions[idx]

        t_descent = best_of(descent)
        t_table = best_of(table, repeat=1)
        same = all(np.array_equal(x, y) for x, y in zip(descent(), table()))
        label = f"lattice extremum({name}, {len(W):,} rows, k_max {k_max})"
        print(f"{label:52s} {t_descent:9.4f}s {t_table:9.4f}s {t_table / t_descent:7.1f}x"
              f"  identical: {same}")


def bracket_row() -> None:
    """The variational route's one-box search with its error bracket on
    pnorm:4 at the spectrum-variational sizes (the descent's Farey pairs
    inverted in one call) against the action table, its reduction and the
    chords of its angle-sorted points: the values, directions and chords
    must be bitwise equal, and every bracket must hold the direct route's
    energy."""
    surface = LevelSurface.from_profile(pnorm_profile(4.0))
    W = lattice_grid(2, M_MAX_RATIOS).astype(float)

    def search():
        return extremal_levels(SurfaceActions(surface, K_MAX_RATIOS), W, True)

    def table():
        spec = marked_action_spectrum(surface, K_MAX_RATIOS)
        vals, idx = kernels.extremal_ratios(spec.directions, spec.actions, W, True)
        return vals, spec.directions[idx], kernels.table_chords(spec.points, W, True)

    t_search, t_table = best_of(search), best_of(table, repeat=1)
    found = search()
    same = all(np.array_equal(x, y, equal_nan=True) for x, y in zip(found, table()))
    vals, _, chord = found
    direct = direct_spectrum(pnorm_profile(4.0), M_MAX_RATIOS).energies
    held = np.isfinite(chord)
    holds = bool(np.all((vals[held] <= direct[held] * (1 + 1e-12))
                        & (direct[held] <= chord[held] * (1 + 1e-12))))
    name = f"search and bracket(pnorm:4, {len(W):,} rows, k_max {K_MAX_RATIOS})"
    print(f"{'':52s} {'search':>10s} {'table':>10s}")
    print(f"{name:52s} {t_search:9.4f}s {t_table:9.4f}s {t_table / t_search:7.1f}x"
          f"  identical: {same}  {held.sum():,} brackets hold: {holds}")


def inversion_row() -> None:
    """invert_normal_many on pnorm:4, closed form against bisect_generic on
    the same curve without its normal map."""
    closed = LevelSurface.from_profile(pnorm_profile(4.0))
    bisected = LevelSurface(2, closed.point, closed.param_lo, closed.param_hi,
                            normal_fn=closed.normal, orientation=closed.orientation)
    K = kernels.primitive_directions(2, K_MAX_INVERT)
    t_closed = best_of(lambda: closed.invert_normal_many(K))
    t_bisect = best_of(lambda: bisected.invert_normal_many(K))
    name = f"inversion(pnorm:4, {len(K):,} directions)"
    print(f"{'':52s} {'closed':>10s} {'bisect':>10s}")
    print(f"{name:52s} {t_closed:9.4f}s {t_bisect:9.4f}s {t_bisect / t_closed:7.1f}x")


@contextlib.contextmanager
def chunk_rows(rows):
    """The action table and the disk crosscheck streamed in chunks of
    about `rows` directions."""
    saved = actions_module.CHUNK_ROWS
    actions_module.CHUNK_ROWS = rows
    try:
        yield
    finally:
        actions_module.CHUNK_ROWS = saved


def build_row() -> None:
    """marked_action_spectrum on the billiard crosscheck's disk table, on a
    harmonic facet over as many directions (one row: the closed form maps
    the rest to nan) and on the table-io workload's pnorm:3 table, each in
    CHUNK_ROWS-row chunks and in the former OLD_CHUNK_ROWS-row ones."""
    sizes = (CHUNK_ROWS, OLD_CHUNK_ROWS)
    print(f"{'':52s}" + "".join(f" {f'{rows}-row chunks':>21s}" for rows in sizes))
    print(f"{'':52s}" + f" {'time':>10s} {'peak':>10s}" * len(sizes))
    for name, surface, k_max in (
            ("ramos", RamosCurve(), K_MAX_BUILD),
            ("harmonic:1,2", LevelSurface.from_profile(harmonic_profile((1, 2))),
             K_MAX_BUILD),
            ("pnorm:3", LevelSurface.from_profile(pnorm_profile(3.0)), K_MAX_TABLE)):
        run = functools.partial(marked_action_spectrum, surface, k_max)
        cells = []
        for rows in sizes:
            with chunk_rows(rows):
                cells.append(f" {best_of(run):9.4f}s {peak_mb(run):7.1f} MB")
        label = f"action table({name}, {len(run()):,} rows) build"
        print(f"{label:52s}" + "".join(cells))


def crosscheck_row() -> None:
    """The disk crosscheck's minimum and error bound for one interior weight
    row: the action table, its scan and the chord of its points, against
    crosscheck_disk's streamed reduction (the same minimum, no table) and
    the chord of the lattice descent's Farey pair, the stream also in the
    former OLD_CHUNK_ROWS-row chunks, and on one core against two processes
    (the sieve's second half in a forked child)."""
    k_max, w = K_MAX_BUILD, np.array([[1.0, 3.0]])

    def table():
        spec = marked_action_spectrum(RamosCurve(), k_max)
        low = float(kernels.extremal_ratios(spec.directions, spec.actions, w, False)[0][0])
        chord = float(kernels.table_chords(spec.points, w, False)[0])
        return low, math.pi * abs(low - chord)

    def streamed():
        rep = crosscheck_disk(1, 3, k_max=k_max)
        return rep.toric_energy, rep.error_bound

    t_table, t_stream = best_of(table, repeat=1), best_of(streamed)
    same = streamed() == table()
    name = f"crosscheck(ramos, k_max {k_max})"
    print(f"{'':52s} {'table':>10s} {'streamed':>10s}")
    print(f"{name + ' time':52s} {t_table:9.4f}s {t_stream:9.4f}s {t_table / t_stream:7.1f}x"
          f"  identical: {same}")
    print(f"{name + ' peak':52s} {peak_mb(table):7.1f} MB {peak_mb(streamed):7.1f} MB")
    with chunk_rows(OLD_CHUNK_ROWS):
        print(f"{name + f' {OLD_CHUNK_ROWS}-row chunks':52s} {'':10s} "
              f"{best_of(streamed):9.4f}s {peak_mb(streamed):7.1f} MB")
    times, reports = [], []
    for on in (False, True):
        with two_procs(on):
            times.append(best_of(streamed))
            reports.append(streamed())
    print(f"{'':52s} {'1 core':>10s} {'2 procs':>10s}")
    print(f"{name + ' stream':52s} {times[0]:9.4f}s {times[1]:9.4f}s "
          f"{times[0] / times[1]:7.2f}x  identical: {reports[0] == reports[1]}")


def old_to_csv(spec) -> str:
    """ActionSpectrum.to_csv before the block renderer: one %-template per row."""
    n = spec.dimension
    header = ",".join([f"k_{j+1}" for j in range(n)] + ["action"]
                      + [f"p_{j+1}" for j in range(n)])
    row = ",".join(["%d"] * n + ["%.17g"] * (n + 1)) + "\n"
    return header + "\n" + "".join(
        row % (*k, a, *p) for k, a, p in zip(spec.directions.tolist(),
                                              spec.actions.tolist(),
                                              spec.points.tolist()))


def old_to_json(spec) -> str:
    """ActionSpectrum.to_json before the block renderer."""
    head = json.dumps({"dimension": spec.dimension, "entries": [],
                       "orientation": spec.orientation.value,
                       "k_max": spec.k_max, "shift": list(spec.shift.values)},
                      indent=2, sort_keys=True) + "\n"
    if len(spec) == 0:
        return head
    ints = ",\n".join(["        %d"] * spec.dimension)
    floats = ",\n".join(["        %r"] * spec.dimension)
    row = (f'    {{\n      "action": %r,\n      "k": [\n{ints}\n      ],\n'
           f'      "point": [\n{floats}\n      ]\n    }}')
    entries = ",\n".join(
        row % (a, *k, *p) for k, a, p in zip(spec.directions.tolist(),
                                              spec.actions.tolist(),
                                              spec.points.tolist()))
    return head.replace('"entries": []', f'"entries": [\n{entries}\n  ]', 1)


def old_from_json(text: str) -> ActionSpectrum:
    """ActionSpectrum.from_json before the writer-layout reader: json.loads
    on the whole text, with the reader's rule for the shift key."""
    try:   # json.JSONDecodeError is a ValueError
        doc = json.loads(text)
        n, entries = int(doc["dimension"]), doc["entries"]
        K, P = ([e[key] for e in entries] for key in ("k", "point"))
        if set(map(len, itertools.chain(K, P))) - {n}:
            raise ValueError(f"k and point need {n} components")
        # one flat iterator per array: cheaper than asarray over nested lists
        K, P = (np.fromiter(itertools.chain.from_iterable(rows), dtype=float,
                            count=len(rows) * n).reshape(len(rows), n)
                for rows in (K, P))
        A = np.fromiter((e["action"] for e in entries), dtype=float,
                        count=len(entries))
        rest = (Orientation(doc["orientation"]), int(doc["k_max"]))
        shift = doc["shift"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"malformed actions JSON: {exc!r}") from exc
    _check_zero_shift(shift, n)
    return ActionSpectrum(_integer_directions(K), A, P, *rest)


def same_table(a, b) -> bool:
    return (all(getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
                for attr in ("directions", "actions", "points"))
            and (a.orientation, a.k_max, a.shift) == (b.orientation, b.k_max, b.shift))


@contextlib.contextmanager
def two_procs(on: bool):
    """Large-table I/O and the disk crosscheck's stream halved across a
    forked child (on) or kept on one core (off), whatever the CPUs of this
    process."""
    saved = actions_module._two_cpus
    actions_module._two_cpus = lambda: on
    try:
        yield
    finally:
        actions_module._two_cpus = saved


def table_row() -> None:
    """The pnorm:3 table's four I/O calls: the writers and the JSON reader
    against the per-row writers and the whole-text json.loads reader they
    replace (from_csv has no older form), each on one core and halved across
    a forked child. Every path must give the same bytes, and the re-read
    tables must equal the written one. The peaks are the calling process's:
    tracemalloc does not see the child."""
    spec = marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(3.0)),
                                  K_MAX_TABLE)
    as_json, as_csv = spec.to_json(), spec.to_csv()
    name = f"action table(pnorm:3, {len(spec):,} rows)"
    print(f"{'':52s} {'old':>10s} {'1 core':>10s} {'2 procs':>10s} {'':8s} {'old peak':>10s}"
          f" {'1 core':>10s} {'2 procs':>10s}")
    for op, old, new, right in (
            ("to_json", functools.partial(old_to_json, spec), spec.to_json,
             lambda out: out == as_json),
            ("to_csv", functools.partial(old_to_csv, spec), spec.to_csv,
             lambda out: out == as_csv),
            ("from_json", functools.partial(old_from_json, as_json),
             functools.partial(ActionSpectrum.from_json, as_json),
             lambda out: same_table(out, spec)),
            ("from_csv", None,
             functools.partial(ActionSpectrum.from_csv, as_csv, spec.orientation),
             lambda out: same_table(out, spec))):
        times = [best_of(old) if old else None]
        peaks = [peak_mb(old) if old else None]
        same = old is None or right(old())
        for on in (False, True):
            with two_procs(on):
                times.append(best_of(new))
                peaks.append(peak_mb(new))
                same = same and right(new())
        cells = "".join(f" {t:9.4f}s" if t is not None else f" {'':9s}" for t in times)
        cells += f" {times[1] / times[2]:6.2f}x"
        cells += "".join(f" {p:7.1f} MB" if p is not None else f" {'':10s}" for p in peaks)
        print(f"{name + ' ' + op:52s}{cells}  identical: {same}")


def old_tridiagonal_sweep(sub, diag, sup, rhs) -> np.ndarray:
    """surfaces._cyclic_reduction before it: a Thomas sweep, forward
    elimination and back substitution, over Python lists."""
    n = len(diag)
    sub, diag, sup, rhs = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    for i in range(1, n):
        ratio = sub[i] * (1.0 / diag[i - 1])
        diag[i] -= ratio * sup[i - 1]
        rhs[i] -= ratio * rhs[i - 1]
    s = rhs   # back substitution overwrites the swept right-hand side
    s[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - sup[i] * s[i + 1]) / diag[i]
    return np.asarray(s)


def reconstruction_row() -> None:
    """The reconstruction's spline solve on the pnorm:4 cloud's knots by
    cyclic reduction against the Thomas sweep it replaced (with the largest
    difference of their slopes, relative to the largest slope), its two
    spline fits (the cloud, then the dual's knot images), the transform at
    the fit's knots, and the Hausdorff distance from the result to the
    reference surface at the default 4096 samples per curve."""
    reference = LevelSurface.from_profile(pnorm_profile(4.0))
    cloud = PointCloud.from_actions(marked_action_spectrum(reference, K_MAX_RECONSTRUCT))
    fit = LevelSurface.from_points(cloud.points)
    dual = hypersurface_transform(fit, at_params=fit.knots)
    images = dual.point(dual.knots)
    surface = LevelSurface.from_points(images)
    # from_points' system: the cloud's polar angles are distinct, and both
    # of its ends lie on an axis
    phi = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
    order = np.argsort(phi, kind="stable")
    rows = _spline_system(phi[order], np.hypot(*cloud.points[order].T), True, True)
    old, new = old_tridiagonal_sweep(*rows), _cyclic_reduction(*rows)
    times = [best_of(functools.partial(solve, *rows))
             for solve in (old_tridiagonal_sweep, _cyclic_reduction)]
    print(f"{'':52s} {'old':>10s} {'new':>10s}")
    print(f"{f'spline solve({len(phi):,} knots)':52s} {times[0]:9.4f}s {times[1]:9.4f}s "
          f"{times[0] / times[1]:7.2f}x  max rel difference: "
          f"{np.abs(new - old).max() / np.abs(old).max():.1e}")
    print(f"{'':52s} {'time':>10s} {'peak':>10s}")
    for label, run in (
            (f"spline fit({len(cloud):,} cloud points)",
             functools.partial(LevelSurface.from_points, cloud.points)),
            (f"spline refit({len(images):,} dual images)",
             functools.partial(LevelSurface.from_points, images)),
            (f"hypersurface_transform({len(fit.knots):,} knots)",
             functools.partial(hypersurface_transform, fit, at_params=fit.knots)),
            ("hausdorff_distance(4096 x 4096 samples)",
             functools.partial(hausdorff_distance, surface, reference))):
        print(f"{label:52s} {best_of(run):9.4f}s {peak_mb(run):7.1f} MB")


def parser_row() -> None:
    """cli.build_parser and one parse, cold in a fresh interpreter after the
    import, for every subcommand (as for --help) against the invoked one
    alone (as main builds it), best of REPEAT interpreters each."""
    argv = ["spectrum-variational", "--profile", "pnorm:4", "--m-max", "4"]
    env = dict(os.environ, PYTHONPATH=str(Path(ebk.__file__).resolve().parents[1]))
    times = []
    for command in ("None", repr(argv[0])):
        script = ("import time, ebk.cli as cli\n"
                  "t0 = time.perf_counter()\n"
                  f"cli.build_parser({command}).parse_args({argv!r})\n"
                  "print(time.perf_counter() - t0)\n")
        times.append(min(float(subprocess.run([sys.executable, "-c", script], env=env,
                                              check=True, capture_output=True,
                                              text=True).stdout)
                         for _ in range(REPEAT)))
    print(f"{'':52s} {'all':>10s} {'one':>10s}")
    print(f"{'build_parser + parse, cold':52s} {times[0] * 1e3:8.2f}ms {times[1] * 1e3:8.2f}ms "
          f"{times[0] / times[1]:7.1f}x")


def main() -> None:
    enumeration_row()
    ratios_row()
    lattice_row()
    bracket_row()
    inversion_row()
    build_row()
    crosscheck_row()
    table_row()
    reconstruction_row()
    parser_row()


if __name__ == "__main__":
    main()
