import csv
import inspect
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebk import (
    ConfigError,
    EmptySpectrum,
    InsufficientCloud,
    LevelSurface,
    NoQualifyingDirections,
    Orientation,
    RamosCurve,
    SurfaceActions,
    TooFewNicePoints,
    UnsupportedSurface,
    direct_spectrum,
    disk_profile,
    lattice_grid,
    linear_profile,
    marked_action_spectrum,
    minmax_certificate,
    pnorm_profile,
    reconstruction_spectrum,
    variational_spectrum,
)
from ebk import actions as actions_module, kernels
from ebk.actions import ActionSpectrum, MaslovShift
from ebk.quantize import EbkSpectrum


@pytest.fixture(scope="module")
def circle_surface():
    return LevelSurface.from_profile(pnorm_profile(2.0))


def test_lattice_grid_order():
    grid = lattice_grid(2, 2)
    assert grid.shape == (9, 2)
    assert [tuple(m) for m in grid[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("m_max", [0, 1, 5])
def test_lattice_grid_matches_itertools_order(dimension, m_max):
    expected = np.asarray(list(itertools.product(range(m_max + 1),
                                                 repeat=dimension)),
                          dtype=np.int64)
    grid = lattice_grid(dimension, m_max)
    assert grid.dtype == np.int64
    assert np.array_equal(grid, expected)


# --- direct route ---

def test_direct_harmonic_values():
    spec = direct_spectrum(linear_profile((1.0, 2.0)), 3)
    assert spec.energy((1, 1)) == 3.0
    assert spec.energy((2, 0)) == 2.0
    assert spec.energy((0, 3)) == 6.0


def test_direct_harmonic_half_shift():
    spec = direct_spectrum(linear_profile((1.0, 2.0)), 1, shift=0.5)
    assert spec.energy((0, 0)) == 1.5


def test_direct_euclidean_hbar():
    assert direct_spectrum(pnorm_profile(2.0), 4).energy((3, 4)) == 5.0
    assert direct_spectrum(pnorm_profile(2.0), 4,
                           hbar=0.5).energy((3, 4)) == 2.5


def test_direct_rejects_negative_weights():
    with pytest.raises(ConfigError):
        direct_spectrum(linear_profile((1.0, 2.0)), 1, shift=-1.0)


# --- variational route ---

@pytest.mark.parametrize("omega", [(1.0, 2.0), (3.0, 5.0)])
def test_variational_matches_direct_on_rational_harmonic(omega):
    surf = LevelSurface.from_profile(linear_profile(omega))
    acts = marked_action_spectrum(surf, 10)
    assert len(acts) == 1 and acts.orientation is Orientation.GENERAL
    var = variational_spectrum(acts, 4)
    ref = direct_spectrum(linear_profile(omega), 4)
    denom = np.maximum(ref.energies, 1e-30)
    assert (np.abs(var.energies - ref.energies) / denom).max() <= 1e-12


def test_variational_circle_truncated(circle_surface):
    acts = marked_action_spectrum(circle_surface, 200)
    spec = variational_spectrum(acts, 4)
    assert spec.energy((3, 4)) == pytest.approx(5.0, abs=1e-3)
    # sup over a finite subset cannot exceed the true support value
    ref = direct_spectrum(pnorm_profile(2.0), 4)
    assert np.all(spec.energies <= ref.energies + 1e-12)


def test_variational_reports_argmax(circle_surface):
    acts = marked_action_spectrum(circle_surface, 10)
    spec = variational_spectrum(acts, 4)
    i = [tuple(m) for m in spec.m_grid].index((3, 4))
    assert tuple(spec.argext[i]) == (3, 4)


def test_variational_concave_stays_above_direct():
    racts = marked_action_spectrum(RamosCurve(), 128)
    var = variational_spectrum(racts, 3)
    ref = direct_spectrum(disk_profile(), 3)
    assert np.all(var.energies >= ref.energies - 1e-12)
    # coarser truncation keeps the inf further above
    coarse = variational_spectrum(racts.restrict(64), 3)
    assert np.all(coarse.energies >= var.energies - 1e-12)


def test_variational_monotone_in_m(circle_surface):
    acts = marked_action_spectrum(circle_surface, 60)
    spec = variational_spectrum(acts, 5)
    energy = {tuple(m): e for m, e in zip(map(tuple, spec.m_grid),
                                          spec.energies)}
    for (m1, m2), e in energy.items():
        if m1 + 1 <= 5:
            assert energy[(m1 + 1, m2)] >= e - 1e-12
        if m2 + 1 <= 5:
            assert energy[(m1, m2 + 1)] >= e - 1e-12


def test_scaling_degree_two_squares_spectrum():
    surf = LevelSurface.from_profile(pnorm_profile(4.0))
    acts = marked_action_spectrum(surf, 40)
    flat = variational_spectrum(acts, 3, degree=1.0)
    squared = variational_spectrum(acts, 3, degree=2.0)
    assert np.abs(squared.energies - flat.energies ** 2).max() <= \
        1e-12 * max(1.0, squared.energies.max())
    # direct route scales the same way
    d1 = direct_spectrum(pnorm_profile(4.0), 3)
    d2 = direct_spectrum(pnorm_profile(4.0, degree=2.0), 3)
    denom = np.maximum(d2.energies, 1e-30)
    assert (np.abs(d2.energies - d1.energies ** 2) / denom).max() <= 1e-12


def test_shift_consistency_direct_vs_variational(circle_surface):
    # mu enters only through the lattice numerator: the shifted spectrum at m
    # equals the unshifted formula evaluated at m + mu
    acts = marked_action_spectrum(circle_surface, 30)
    shifted = variational_spectrum(acts, 3, shift=0.5)
    mu = np.full(2, 0.5)
    for m, e in zip(shifted.m_grid, shifted.energies):
        w = m + mu
        ratios = (acts.directions @ w) / acts.actions
        assert e == pytest.approx(float(ratios.max()), rel=1e-14)

    prof = pnorm_profile(2.0)
    spec = direct_spectrum(prof, 2, shift=0.25)
    for m, e in zip(spec.m_grid, spec.energies):
        assert e == prof.evaluate(m + 0.25)


def test_primitive_sufficiency(circle_surface):
    acts = marked_action_spectrum(circle_surface, 8)
    base = variational_spectrum(acts, 3)

    def padded(extra):
        # the table, then the multiple ell * k of row i for each (i, ell)
        i, ell = np.asarray(extra).T
        K = np.concatenate([acts.directions, ell[:, None] * acts.directions[i]])
        return ActionSpectrum(K, np.concatenate([acts.actions, ell * acts.actions[i]]),
                              np.concatenate([acts.points, acts.points[i]]),
                              acts.orientation, int(K.max()))

    # power-of-two multiples leave every ratio bit-identical
    extra = [(i, ell) for i in range(0, len(acts), 3) for ell in (2, 4)]
    again = variational_spectrum(padded(extra), 3)
    assert np.array_equal(base.energies, again.energies)
    # other multiples can shift the ratio by an ulp, nothing more
    extra += [(i, 5) for i in range(len(acts))]
    third = variational_spectrum(padded(extra), 3)
    denom = np.maximum(base.energies, 1.0)
    assert (np.abs(third.energies - base.energies) / denom).max() <= 1e-14


def _unit_table(K, orientation):
    """The table of the directions K with unit actions: each point is
    k / sum(k), so that <p, k> = 1."""
    K = np.asarray(K, dtype=np.int64).reshape(-1, 2)
    return ActionSpectrum(K, np.ones(len(K)), K / K.sum(axis=1, keepdims=True),
                          orientation, int(K.max(initial=0)))


def test_variational_rejects_empty_and_general():
    with pytest.raises(EmptySpectrum):
        variational_spectrum(_unit_table([], Orientation.CONVEX), 2)
    # sup and inf of one ratio agree, so a general table of one entry runs
    one = variational_spectrum(_unit_table([(1, 1)], Orientation.GENERAL), 2)
    assert one.energy((1, 1)) == 2.0 and one.energy((2, 1)) == 3.0
    with pytest.raises(ConfigError):
        variational_spectrum(_unit_table([(1, 0), (1, 1)], Orientation.GENERAL), 2)


# --- the searched route: a surface without its action table ---

@pytest.mark.parametrize("name", ["pnorm:3", "pnorm:4", "pnorm:6", "ramos"])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_searched_route_equals_the_table_route(name, shift):
    from ebk.catalog import parse_domain_spec
    surface = parse_domain_spec(name).make_surface()
    source = SurfaceActions(surface, 400)
    assert source.searchable()
    searched = variational_spectrum(source, 64, shift=shift)
    tabled = variational_spectrum(marked_action_spectrum(surface, 400), 64, shift=shift)
    assert searched.to_csv() == tabled.to_csv()


def test_searched_route_builds_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the searched route built a table")

    monkeypatch.setattr(actions_module, "marked_action_spectrum", refuse)
    monkeypatch.setattr(ActionSpectrum, "restrict", refuse)
    surface = LevelSurface.from_profile(pnorm_profile(4.0))
    spec = variational_spectrum(SurfaceActions(surface, 40), 3, shift=0.5)
    assert np.isfinite(spec.error_bound).all() and len(spec) == 16


def _counted_builds(monkeypatch):
    """The names of the action tables built from here on, and the unwrapped
    builder."""
    builds = []
    build = actions_module.marked_action_spectrum

    def counting(*args, **kwargs):
        builds.append(build.__name__)
        return build(*args, **kwargs)

    monkeypatch.setattr(actions_module, "marked_action_spectrum", counting)
    return builds, build


def test_wide_tie_window_builds_one_table(monkeypatch):
    # a window of 30% spans more Farey terms than the walk visits, so rows
    # are left to the table, and one table serves them all
    monkeypatch.setattr(kernels, "TIE_TOL", 0.3)
    builds, build = _counted_builds(monkeypatch)
    surface = LevelSurface.from_profile(pnorm_profile(4.0))
    searched = variational_spectrum(SurfaceActions(surface, 200), 16)
    assert builds == ["marked_action_spectrum"]
    tabled = variational_spectrum(build(surface, 200), 16)
    assert searched.to_csv() == tabled.to_csv()


@pytest.mark.parametrize("hbar", [1e-9, 1e-3])
def test_small_hbar_builds_no_table(monkeypatch, hbar):
    # the tie window is relative, so it is as narrow at small hbar as at
    # hbar 1: the search settles every row, with hbar 1's directions
    builds, build = _counted_builds(monkeypatch)
    surface = LevelSurface.from_profile(pnorm_profile(4.0))
    searched = variational_spectrum(SurfaceActions(surface, 400), 64, hbar=hbar)
    assert builds == []
    tabled = variational_spectrum(build(surface, 400), 64, hbar=hbar)
    assert searched.to_csv() == tabled.to_csv()
    unit = variational_spectrum(SurfaceActions(surface, 400), 64)
    assert np.array_equal(searched.argext, unit.argext)


def test_only_declared_convex_or_concave_curves_are_searched():
    quartic = LevelSurface.from_profile(pnorm_profile(4.0))
    assert SurfaceActions(quartic, 10).searchable()
    # no option steers a searchable curve onto the table path
    assert list(inspect.signature(SurfaceActions.searchable).parameters) == ["self"]
    assert SurfaceActions(RamosCurve(), 10).searchable()
    fitted = LevelSurface.from_points(quartic.point(np.linspace(0, np.pi / 2, 50)))
    undeclared = LevelSurface(2, quartic.point, quartic.param_lo, quartic.param_hi,
                              normal_fn=quartic.normal, normal_map=quartic.normal_map)
    assert undeclared.orientation is Orientation.CONVEX
    for surface in (LevelSurface.from_profile(linear_profile((1, 2))), fitted,
                    undeclared, LevelSurface.from_profile(pnorm_profile(4.0, dimension=3))):
        assert not SurfaceActions(surface, 10).searchable()


# --- the certified error bound ---

@settings(max_examples=40, deadline=None)
@given(s=st.floats(1.5, 8.0),
       k_max=st.integers(1, 400),
       m_max=st.integers(0, 16),
       mu=st.sampled_from([0.0, 0.25, 0.5]),
       degree=st.sampled_from([1.0, 2.0]),
       route=st.sampled_from(["search", "csv", "json"]))
def test_error_bound_contains_the_direct_energy(s, k_max, m_max, mu, degree, route):
    # the finite sup lies below the gauge and the chord's gauge above it, so
    # the direct energy lies between E_m and E_m + E_error_bound; every
    # nonzero weight row of pnorm has a pair around it, by search or table
    profile = pnorm_profile(s, degree=degree)
    source = SurfaceActions(LevelSurface.from_profile(profile), k_max)
    if route == "csv":
        source = ActionSpectrum.from_csv(source.table().to_csv(), "convex")
    elif route == "json":
        source = ActionSpectrum.from_json(source.table().to_json())
    spec = variational_spectrum(source, m_max, degree=degree, shift=mu)
    direct = direct_spectrum(profile, m_max, shift=mu).energies
    slack = 1e-12 * direct
    assert np.array_equal(np.isfinite(spec.error_bound), direct > 0)
    held = np.isfinite(spec.error_bound)
    assert np.all(spec.energies <= direct + slack)
    assert np.all(direct[held] <= spec.energies[held] + spec.error_bound[held]
                  + slack[held])


def test_variational_truncation_column(circle_surface):
    acts = marked_action_spectrum(circle_surface, 40)
    spec = variational_spectrum(acts, 3)
    bound = spec.error_bound
    assert np.isnan(bound[0])   # w = 0 lies in no cone of two points
    assert np.all(bound[1:] >= 0.0)
    # an axis point is attained exactly, and its chord passes through it
    i = [tuple(m) for m in spec.m_grid].index((0, 2))
    assert bound[i] <= 1e-12 * spec.energies[i]


@pytest.mark.parametrize("points", [np.empty((0, 2)), np.array([[1.0, 1.0]]),
                                    np.ones((3, 3))], ids=["empty", "one", "3d"])
def test_no_pair_of_table_points_is_no_bound(points):
    W = np.ones((4, points.shape[1]))
    for use_max in (True, False):
        assert np.isnan(kernels.table_chords(points, W, use_max)).all()


def test_error_bound_of_a_single_entry_is_empty():
    table = ActionSpectrum(np.array([[1, 1]]), np.array([2.0]), np.array([[1.0, 1.0]]),
                           "general", 1)
    spec = variational_spectrum(table, 2)
    assert np.isnan(spec.error_bound).all()
    assert spec.to_csv().splitlines()[2].endswith(",1;1,")
    assert all(row["E_error_bound"] is None for row in json.loads(spec.to_json())["entries"])


# --- minmax certificate ---

@pytest.fixture(scope="module")
def harmonic_actions():
    surf = LevelSurface.from_profile(linear_profile((1.0, 2.0)))
    return marked_action_spectrum(surf, 10)


def test_minmax_above(harmonic_actions):
    cert = minmax_certificate(harmonic_actions, 3.5, (1, 1))
    assert cert.sign == 1
    for rec in cert.records:
        assert rec.value == pytest.approx(0.5 * rec.ell, rel=1e-12)
        assert tuple(rec.direction) == (1, 2)
        assert rec.multiple == rec.ell
    assert cert.direction_constant == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_minmax_below(harmonic_actions):
    cert = minmax_certificate(harmonic_actions, 2.5, (1, 1))
    assert cert.sign == -1
    values = [rec.value for rec in cert.records]
    assert values == sorted(values, reverse=True)
    assert values[-1] == pytest.approx(-0.5 * 20, rel=1e-12)


def test_minmax_at_level_is_flat(harmonic_actions):
    cert = minmax_certificate(harmonic_actions, 3.0, (1, 1))
    assert cert.sign == 0
    assert max(abs(rec.value) for rec in cert.records) <= 1e-12


def test_minmax_growth_bound(harmonic_actions):
    for energy in (3.5, 2.5):
        cert = minmax_certificate(harmonic_actions, energy, (1, 1))
        gap = abs(energy - 3.0)
        c = cert.direction_constant
        for rec in cert.records:
            assert abs(rec.value) >= c * rec.ell * gap / 2.0


def test_minmax_requires_interior_directions():
    axis_only = _unit_table([(1, 0), (0, 1)], Orientation.CONVEX)
    with pytest.raises(NoQualifyingDirections):
        minmax_certificate(axis_only, 1.5, (1, 1))


def test_minmax_rejects_concave():
    racts = marked_action_spectrum(RamosCurve(), 16)
    with pytest.raises(UnsupportedSurface):
        minmax_certificate(racts, 2.0, (1, 1))


# --- reconstruction route ---

def test_reconstruction_spectrum_circle(circle_surface):
    acts = marked_action_spectrum(circle_surface, 50)
    spec, recon = reconstruction_spectrum(acts, 4, reference=circle_surface)
    assert spec.energy((3, 4)) == pytest.approx(5.0, abs=1e-3)
    assert recon.report.hausdorff_vs_reference <= 1e-3


def test_reconstruction_rejects_degenerate_segment():
    surf = LevelSurface.from_profile(linear_profile((1.0, 2.0)))
    acts = marked_action_spectrum(surf, 30)
    # a one-direction cloud cannot seed a curve fit; either the cloud gate or
    # the nice-point gate may fire depending on dedup
    with pytest.raises((InsufficientCloud, TooFewNicePoints)):
        reconstruction_spectrum(acts, 2)


# --- spectrum container ---

def test_spectrum_csv_format(circle_surface):
    acts = marked_action_spectrum(circle_surface, 10)
    spec = variational_spectrum(acts, 1)
    lines = spec.to_csv().splitlines()
    assert lines[0] == "m_1,m_2,E_m,argmax_k,E_error_bound"
    assert len(lines) == 5
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["m_1"] == "0" and row["m_2"] == "1"
    assert float(row["E_m"]) == pytest.approx(1.0, abs=1e-12)
    assert row["argmax_k"] == "0;1"


def _csv_writer_rendering(spec):
    """EbkSpectrum.to_csv through the csv module, cell by cell."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"m_{j+1}" for j in range(spec.dimension)]
               + ["E_m", "argmax_k", "E_error_bound"])
    for i, m in enumerate(spec.m_grid):
        arg = "" if spec.argext is None else ";".join(str(int(x)) for x in spec.argext[i])
        bound = ""
        if spec.error_bound is not None and math.isfinite(spec.error_bound[i]):
            bound = format(float(spec.error_bound[i]), ".17g")
        w.writerow([int(x) for x in m] + [format(float(spec.energies[i]), ".17g"), arg,
                                          bound])
    return buf.getvalue()


def _spectra_to_render():
    for s in (3.0, 4.0, 6.0):
        surface = LevelSurface.from_profile(pnorm_profile(s))
        yield variational_spectrum(SurfaceActions(surface, 100), 12, shift=0.5)
    yield direct_spectrum(pnorm_profile(4.0), 12, hbar=0.3)
    m_grid = lattice_grid(3, 2)
    rng = np.random.default_rng(5)
    bound = rng.random(len(m_grid)) * 1e-7
    bound[[0, 4, 9, 11]] = [np.nan, np.inf, 0.0, -np.inf]
    yield EbkSpectrum(route="variational", dimension=3, degree=2.0, hbar=1.0,
                      shift=MaslovShift.zero(3), m_grid=m_grid,
                      energies=rng.random(len(m_grid)) * 1e5,
                      argext=rng.integers(0, 300, size=(len(m_grid), 3)),
                      error_bound=bound)
    yield EbkSpectrum(route="direct", dimension=3, degree=1.0, hbar=1.0,
                      shift=MaslovShift.zero(3), m_grid=m_grid,
                      energies=np.linspace(0.0, 1.0, len(m_grid)) ** 3)
    # more levels than one block of the row renderer
    m_grid = lattice_grid(2, 64)
    bound = rng.random(len(m_grid)) * 1e-7
    bound[::97] = np.nan
    yield EbkSpectrum(route="variational", dimension=2, degree=2.0, hbar=1.0,
                      shift=MaslovShift.zero(2), m_grid=m_grid,
                      energies=rng.random(len(m_grid)) * 1e5,
                      argext=rng.integers(0, 300, size=(len(m_grid), 2)),
                      error_bound=bound)


@pytest.mark.parametrize("spec", list(_spectra_to_render()),
                         ids=["pnorm3", "pnorm4", "pnorm6", "direct", "n3-argext",
                              "n3-bare", "two-blocks"])
def test_spectrum_csv_equals_the_csv_module(spec):
    assert spec.to_csv() == _csv_writer_rendering(spec)


def test_spectrum_json_roundtrip(circle_surface):
    import json
    acts = marked_action_spectrum(circle_surface, 10)
    spec = variational_spectrum(acts, 1)
    doc = json.loads(spec.to_json())
    assert doc["route"] == "variational"
    assert doc["degree"] == 1.0
    assert len(doc["entries"]) == 4
