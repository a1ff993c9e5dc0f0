"""The benchmark's workloads: their invocations, references and checks.

A workload is a set of `ebk` CLI invocations (steps) over fixed inputs. The
seed only sets the order of the steps inside each group (and, in table-io,
the energy and lattice point of the certificate), so the amount of work and
every reference value are the same for every seed.

Tolerances are the ones the acceptance tests pin: C5 for the billiard, C4
for variational spectra, C7 for reconstruction and C8 for the certificate
sign. Every input set is chosen so that truncation, not rounding, sets
`max_err`: levels whose error is at the rounding floor are left out, and the
table-io spectrum carries a Maslov shift whose optimal directions leave the
table.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

FULL = {
    "billiard": {"k_max": 2000, "levels": [(0, 2), (0, 4)]},
    "spectrum": {"k_max": 400, "m_max": 64, "exponents": [3, 4, 6]},
    "table-io": {"k_max": 500, "m_max": 4, "shift": 0.3},
    "reconstruct": {"k_max": 200, "m_max": 12, "exponents": [4, 6]},
}
# same code paths at sizes that take about a second each (self-test only)
TINY = {
    "billiard": {"k_max": 200, "levels": [(0, 2), (0, 4)]},
    "spectrum": {"k_max": 100, "m_max": 8, "exponents": [3, 4, 6]},
    "table-io": {"k_max": 60, "m_max": 4, "shift": 0.3},
    "reconstruct": {"k_max": 60, "m_max": 5, "exponents": [4, 6]},
}

BILLIARD_TOL = 1e-3        # |F_route - F_ref|, C5
VARIATIONAL_REL_TOL = 2e-3  # C4
RECONSTRUCT_TOL = 1e-2      # Hausdorff and relative error, C7


class CheckFailed(Exception):
    pass


@dataclass
class Step:
    key: str                       # names the input; medians are per key
    argv: list[str]                # ebk arguments, paths relative to the work dir
    outputs: list[str]             # files the step writes, removed before it runs
    check: Callable[[Path], tuple[float, int]]  # -> (relative error, output rows)


@dataclass
class Plan:
    groups: list[list[Step]]       # groups run in order; steps within one are shuffled
    inputs: dict = field(default_factory=dict)

    def order(self, rng) -> list[Step]:
        return [step for group in self.groups for step in rng.sample(group, len(group))]


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.where(want != 0.0, np.abs(want), 1.0)
    return float((np.abs(got - want) / scale).max())


def _read_spectrum(path: Path, m_max: int) -> np.ndarray:
    """Energies of a spectrum CSV whose rows must be the m-grid {0..m_max}^2."""
    from ebk import lattice_grid

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:3] != ["m_1", "m_2", "E_m"]:
        raise CheckFailed(f"{path.name}: unexpected header")
    grid = np.asarray([[int(r[0]), int(r[1])] for r in rows[1:]], dtype=np.int64)
    if not np.array_equal(grid.reshape(-1, 2), lattice_grid(2, m_max)):
        raise CheckFailed(f"{path.name}: rows are not the m-grid up to {m_max}")
    return np.asarray([float(r[2]) for r in rows[1:]])


def _check_variational(path: Path, m_max: int, direct: np.ndarray) -> float:
    energies = _read_spectrum(path, m_max)
    # a finite sup sits below the true one; the slack absorbs roundoff
    if np.any(energies > direct + 1e-12 * np.maximum(1.0, direct)):
        raise CheckFailed(f"{path.name}: a variational level exceeds the direct one")
    err = _rel_err(energies, direct)
    if not err <= VARIATIONAL_REL_TOL:
        raise CheckFailed(f"{path.name}: relative error {err:.3g} > {VARIATIONAL_REL_TOL:g}")
    return err


def billiard(sizes: dict, rng) -> Plan:
    from ebk.billiard import solve_momentum

    k_max = sizes["k_max"]
    steps = []
    for m1, m2 in sizes["levels"]:
        # the phase-equation oracle for a zero shift: angular m2 - m1, radial m1
        ref = solve_momentum(m2 - m1, m1)
        out = f"crosscheck-{m1}-{m2}.json"

        def check(work, out=out, ref=ref):
            with open(work / out) as fh:
                diff = abs(json.load(fh)["F_route"] - ref)
            if not diff <= BILLIARD_TOL:
                raise CheckFailed(f"{out}: |F_route - F_ref| = {diff:.3g}")
            return diff / ref, 1

        steps.append(Step(f"m={m1},{m2}", ["billiard-crosscheck", "--k-max", str(k_max),
                                           "--m1", str(m1), "--m2", str(m2), "--out", out],
                          [out], check))
    return Plan([steps])


def spectrum(sizes: dict, rng) -> Plan:
    from ebk import direct_spectrum, pnorm_profile

    k_max, m_max = sizes["k_max"], sizes["m_max"]
    steps = []
    for s in sizes["exponents"]:
        direct = direct_spectrum(pnorm_profile(s), m_max).energies
        out = f"spectrum-{s}.csv"

        def check(work, out=out, direct=direct):
            return _check_variational(work / out, m_max, direct), len(direct)

        steps.append(Step(f"pnorm:{s}", ["spectrum-variational", "--profile", f"pnorm:{s}",
                                         "--k-max", str(k_max), "--m-max", str(m_max),
                                         "--out", out], [out], check))
    return Plan([steps])


def reconstruct(sizes: dict, rng) -> Plan:
    from ebk import direct_spectrum, pnorm_profile

    k_max, m_max = sizes["k_max"], sizes["m_max"]
    steps = []
    for s in sizes["exponents"]:
        direct = direct_spectrum(pnorm_profile(s), m_max).energies
        out, report = f"reconstruct-{s}.csv", f"report-{s}.json"

        def check(work, out=out, report=report, direct=direct):
            with open(work / report) as fh:
                hd = json.load(fh)["hausdorff_vs_reference"]
            if not hd <= RECONSTRUCT_TOL:
                raise CheckFailed(f"{report}: Hausdorff {hd:.3g} > {RECONSTRUCT_TOL:g}")
            err = _rel_err(_read_spectrum(work / out, m_max), direct)
            if not err <= RECONSTRUCT_TOL:
                raise CheckFailed(f"{out}: relative error {err:.3g} > {RECONSTRUCT_TOL:g}")
            return err, len(direct)

        steps.append(Step(f"pnorm:{s}", ["spectrum-reconstruct", "--profile", f"pnorm:{s}",
                                         "--k-max", str(k_max), "--m-max", str(m_max),
                                         "--report", report, "--out", out],
                          [out, report], check))
    return Plan([steps])


def table_io(sizes: dict, rng) -> Plan:
    from ebk import ActionSpectrum, direct_spectrum, marked_action_spectrum, variational_spectrum
    from ebk.catalog import parse_domain_spec

    profile = "pnorm:3"
    k_max, m_max, shift = sizes["k_max"], sizes["m_max"], sizes["shift"]
    spec = parse_domain_spec(profile)
    table = marked_action_spectrum(spec.make_surface(), k_max)
    # the spectrum from the profile, which the one read from the file must equal
    from_profile = variational_spectrum(table, m_max, shift=shift).to_csv()
    direct = direct_spectrum(spec.require_profile(), m_max, shift=shift).energies
    m = (rng.randint(1, 4), rng.randint(1, 4))
    e_m = float(spec.require_profile().evaluate(np.asarray(m, dtype=float)))
    energy = e_m * (1.0 + rng.choice((-0.3, -0.2, -0.1, 0.1, 0.2, 0.3)))
    verified: dict[str, str] = {}   # output name -> sha256 of bytes already checked

    def table_check(out, parse, dump):
        def check(work):
            text = (work / out).read_text()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if verified.get(out) != digest:
                back = parse(text)
                same = (np.array_equal(back.directions, table.directions)
                        and np.array_equal(back.actions, table.actions)
                        and np.array_equal(back.points, table.points)
                        and back.orientation is table.orientation
                        and back.k_max == table.k_max and back.shift == table.shift)
                if not same:
                    raise CheckFailed(f"{out}: re-read table differs from the in-memory one")
                if dump(back) != text:
                    raise CheckFailed(f"{out}: re-serialization is not byte-identical")
                verified[out] = digest
            return 0.0, len(table)
        return check

    def spectrum_check(work):
        path = work / "spectrum.csv"
        if path.read_text() != from_profile:
            raise CheckFailed("spectrum.csv: differs from the spectrum of the profile")
        return _check_variational(path, m_max, direct), len(direct)

    def certificate_check(work):
        with open(work / "certificate.csv", newline="") as fh:
            values = np.asarray([float(r["value"]) for r in csv.DictReader(fh)])
        want = 1.0 if energy > e_m else -1.0
        if len(values) == 0 or not np.all(np.sign(values) == want):
            raise CheckFailed("certificate.csv: sign does not match the side of E_m")
        return 0.0, len(values)

    writes = [
        Step("actions-json", ["actions", "--profile", profile, "--k-max", str(k_max),
                              "--format", "json", "--out", "table.json"], ["table.json"],
             table_check("table.json", ActionSpectrum.from_json, ActionSpectrum.to_json)),
        Step("actions-csv", ["actions", "--profile", profile, "--k-max", str(k_max),
                             "--format", "csv", "--out", "table.csv"], ["table.csv"],
             table_check("table.csv",
                         lambda text: ActionSpectrum.from_csv(text, orientation="convex"),
                         ActionSpectrum.to_csv)),
    ]
    reads = [
        Step("spectrum-from-csv", ["spectrum-variational", "--actions", "table.csv",
                                   "--orientation", "convex", "--m-max", str(m_max),
                                   "--shift", str(shift), "--out", "spectrum.csv"],
             ["spectrum.csv"], spectrum_check),
        Step("certify-from-json", ["minmax-certify", "--actions", "table.json",
                                   "--energy", repr(energy), "--m", f"{m[0]},{m[1]}",
                                   "--out", "certificate.csv"],
             ["certificate.csv"], certificate_check),
    ]
    return Plan([writes, reads], {"certificate_energy": energy, "certificate_m": list(m),
                                  "certificate_E_m": e_m, "table_rows": len(table)})


WORKLOADS = {"billiard": billiard, "spectrum": spectrum, "table-io": table_io,
             "reconstruct": reconstruct}
