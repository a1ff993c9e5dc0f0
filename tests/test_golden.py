"""The bytes of the command line, pinned: every case below runs through
ebk.cli.main in process, and the sha256 and length of its stdout, its
stderr and every file it writes, with its exit status, must equal those
recorded in golden_cli.json.

A change that moves any of these bytes on purpose reruns the cases it
moves and rewrites their records, keeping every other case's, with

    PYTHONPATH=src python tests/test_golden.py NAME...

(every case when none is named), and names each changed case, and why it
changed, in CHANGES.md. The digests hold for the numpy recorded in the
file; under another numpy, whose last bits may differ, the test is skipped.
"""
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ebk import LevelSurface, RamosCurve, actions, marked_action_spectrum, pnorm_profile
from ebk.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

# input files, made once: the table-io workload's pnorm:3 table, the disk's
# table, a 3-D spec and a spline arc through 57 points of the pnorm:4 curve
# at polar angles 0.2 to 1.3
TABLE_K_MAX = 500
DISK_K_MAX = 200
SPEC_3D = {"kind": "pnorm", "params": {"s": 4}, "dimension": 3}


def _arc_spec() -> dict:
    rows = []
    for i in range(57):
        t = 0.2 + 1.1 * i / 56
        r = (math.cos(t) ** 4 + math.sin(t) ** 4) ** -0.25
        rows.append([i, r * math.cos(t), r * math.sin(t)])
    return {"kind": "custom-table", "params": {"table": rows}}


def _variational(profile, *extra):
    return ["spectrum-variational", "--profile", profile, "--k-max", "400", "--m-max", "64",
            "--out", "out.csv", *extra]


# name -> (argv, whether it runs with the two-process split both on and off)
CASES = {
    "variational-pnorm3": (_variational("pnorm:3"), False),
    "variational-pnorm4": (_variational("pnorm:4"), False),
    "variational-pnorm6": (_variational("pnorm:6"), False),
    "variational-pnorm4-hbar-1e-9": (_variational("pnorm:4", "--hbar", "1e-9"), False),
    "variational-ramos-shift-json": (
        ["spectrum-variational", "--profile", "ramos", "--k-max", "400", "--m-max", "16",
         "--shift", "0.25,0.75", "--format", "json", "--out", "out.json"], False),
    "variational-table-csv": (
        ["spectrum-variational", "--actions", "table.csv", "--orientation", "convex",
         "--shift", "0.3", "--m-max", "4", "--out", "out.csv"], True),
    # at least RATIO_MIN_ROWS weight rows: the table reductions walk
    "variational-table-csv-m12": (
        ["spectrum-variational", "--actions", "table.csv", "--orientation", "convex",
         "--m-max", "12", "--shift", "0.3", "--out", "out.csv"], False),
    "variational-disk-table-json": (
        ["spectrum-variational", "--actions", "disk.json", "--m-max", "12", "--out",
         "out.csv"], False),
    "variational-arc-spec": (
        ["spectrum-variational", "--profile", "arc.json", "--k-max", "200", "--m-max", "8",
         "--out", "out.csv"], False),
    "certify-table-json": (
        ["minmax-certify", "--actions", "table.json", "--energy", "2.5", "--m", "1,2",
         "--out", "out.csv"], True),
    "actions-pnorm3-json": (
        ["actions", "--profile", "pnorm:3", "--k-max", str(TABLE_K_MAX), "--format", "json",
         "--out", "out.json"], True),
    "actions-pnorm3-csv": (
        ["actions", "--profile", "pnorm:3", "--k-max", str(TABLE_K_MAX), "--out", "out.csv"],
        True),
    "actions-3d-spec": (
        ["actions", "--profile", "pnorm3d.json", "--k-max", "12", "--format", "json",
         "--out", "out.json"], False),
    "reconstruct-pnorm4": (
        ["spectrum-reconstruct", "--profile", "pnorm:4", "--k-max", "200", "--m-max", "12",
         "--report", "report.json", "--out", "out.csv"], False),
    "reconstruct-pnorm6": (
        ["spectrum-reconstruct", "--profile", "pnorm:6", "--k-max", "200", "--m-max", "12",
         "--report", "report.json", "--out", "out.csv"], False),
    "crosscheck-0-2": (
        ["billiard-crosscheck", "--k-max", "2000", "--m1", "0", "--m2", "2"], True),
    "crosscheck-0-4": (
        ["billiard-crosscheck", "--k-max", "2000", "--m1", "0", "--m2", "4"], True),
    "crosscheck-1-2-shift-csv": (
        ["billiard-crosscheck", "--m1", "1", "--m2", "2", "--k-max", "600", "--shift", "0.75",
         "--format", "csv"], True),
    "legendre-dual-pnorm4": (
        ["legendre-dual", "--profile", "pnorm:4", "--samples", "64", "--out", "out.csv"],
        False),
    "billiard-solve-json": (
        ["billiard-solve", "--m", "1", "--n", "2", "--maslov", "--format", "json"], False),
    "variational-harmonic-1-2": (
        ["spectrum-variational", "--profile", "harmonic:1,2", "--k-max", "60", "--m-max", "8"],
        False),
    "variational-harmonic-1-2-3": (
        ["spectrum-variational", "--profile", "harmonic:1,2,3", "--k-max", "8", "--m-max",
         "3"], False),
    "direct-harmonic-1-2-3": (
        ["spectrum-direct", "--profile", "harmonic:1,2,3", "--m-max", "3"], False),
    # exit 2: bad input, one error line
    "error-missing-m-max": (["spectrum-variational", "--profile", "pnorm:4"], False),
    "error-unknown-flag": (
        ["spectrum-variational", "--profile", "pnorm:4", "--m-max", "2", "--bogus"], False),
    "error-shift-out-of-orthant": (
        ["spectrum-direct", "--profile", "pnorm:4", "--m-max", "4", "--shift", "-0.5"], False),
    "error-crosscheck-order": (["billiard-crosscheck", "--m1", "2", "--m2", "1"], False),
    "error-missing-table": (
        ["spectrum-variational", "--actions", "missing.csv", "--orientation", "convex",
         "--m-max", "2"], False),
    # exit 3: numerical failure
    "failure-energy-overflow": (["billiard-solve", "--m", "0", "--n", "1", "--hbar", "1e200"],
                                False),
    "failure-weights-overflow": (
        ["spectrum-variational", "--profile", "pnorm:4", "--k-max", "50", "--m-max", "4",
         "--hbar", "1e308"], False),
}


def make_inputs(where: Path) -> None:
    """The cases' input files, written into where."""
    table = marked_action_spectrum(LevelSurface.from_profile(pnorm_profile(3.0)),
                                   TABLE_K_MAX)
    (where / "table.csv").write_text(table.to_csv())
    (where / "table.json").write_text(table.to_json())
    (where / "disk.json").write_text(marked_action_spectrum(RamosCurve(), DISK_K_MAX)
                                     .to_json())
    (where / "pnorm3d.json").write_text(json.dumps(SPEC_3D))
    (where / "arc.json").write_text(json.dumps(_arc_spec()))


def _digest(data: bytes) -> dict:
    return {"len": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def run_case(argv, inputs: Path, work: Path) -> dict:
    """The record of one run of argv in the empty directory work, the inputs
    linked into it: exit status, stdout, stderr and the files it wrote."""
    for path in inputs.iterdir():
        (work / path.name).symlink_to(path)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(list(argv))
    finally:
        os.chdir(cwd)
    files = {path.name: _digest(path.read_bytes()) for path in sorted(work.iterdir())
             if not path.is_symlink()}
    return {"argv": list(argv), "exit": status,
            "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()), "files": files}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    recorded = _golden()["numpy"]
    if recorded != np.__version__:
        pytest.skip(f"digests recorded under numpy {recorded}")
    where = tmp_path_factory.mktemp("golden-inputs")
    make_inputs(where)
    return where


def _params():
    for name, (_, both) in CASES.items():
        for split in ((True, False) if both else (None,)):
            tag = "" if split is None else ("-split-on" if split else "-split-off")
            yield pytest.param(name, split, id=name + tag)


@pytest.mark.parametrize("name, split", _params())
def test_cli_output_matches_the_corpus(inputs, tmp_path, monkeypatch, name, split):
    if split is not None:
        monkeypatch.setattr(actions, "_two_cpus", lambda: split)
    got = run_case(CASES[name][0], inputs, tmp_path)
    assert got == _golden()["cases"][name]


def test_corpus_holds_every_case():
    assert list(_golden()["cases"]) == list(CASES)


def regenerate(names=()) -> None:
    """Rerun the named cases, every case when none is named, and write the
    corpus; the other cases keep their records."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    kept = {}
    if names:
        golden = _golden()
        if golden["numpy"] != np.__version__:
            sys.exit(f"the corpus holds numpy {golden['numpy']}: rerun every case")
        kept = golden["cases"]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        make_inputs(inputs)
        cases = {}
        for name, (argv, _) in CASES.items():
            if name in kept and name not in names:
                cases[name] = kept[name]
                continue
            work = Path(tmp) / name
            work.mkdir()
            cases[name] = run_case(argv, inputs, work)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1)
                      + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
