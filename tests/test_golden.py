"""The bytes of the command line, pinned: every case below runs through
ebk.cli.main in process, and the sha256 and length of its stdout, its
stderr and every file it writes, with its exit status, must equal those
recorded in golden_cli.json.

A change that moves any of these bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each changed case, and why it changed, in CHANGES.md. The
digests hold for the numpy recorded in the file; under another numpy,
whose last bits may differ (the 3-D np.einsum, say), the test is skipped.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ebk import LevelSurface, actions, marked_action_spectrum, pnorm_profile
from ebk.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

# input files, made once: the table-io workload's pnorm:3 table and a 3-D spec
TABLE_K_MAX = 500
SPEC_3D = {"kind": "pnorm", "params": {"s": 4}, "dimension": 3}


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
    (where / "pnorm3d.json").write_text(json.dumps(SPEC_3D))


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


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        make_inputs(inputs)
        cases = {}
        for name, (argv, _) in CASES.items():
            work = Path(tmp) / name
            work.mkdir()
            cases[name] = run_case(argv, inputs, work)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1)
                      + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
