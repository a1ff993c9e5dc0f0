import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ebk
from ebk.cli import main


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    return out.read_bytes()


# --- happy paths ---

def test_spectrum_direct_harmonic_csv(tmp_path):
    data = run_to_file(tmp_path, "direct.csv",
                       ["spectrum-direct", "--profile", "harmonic:1,2",
                        "--m-max", "2"])
    lines = data.decode().splitlines()
    assert lines[0] == "m_1,m_2,E_m,argmax_k,truncation_error_estimate"
    assert len(lines) == 10
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    row = rows[("1", "1")]
    assert float(row[2]) == 3.0
    # the direct route has no enumeration, so the trailing cells stay empty
    assert row[3] == "" and row[4] == ""


def test_billiard_solve_zero_angular_csv(tmp_path):
    data = run_to_file(tmp_path, "solve.csv",
                       ["billiard-solve", "--m", "0", "--n", "1"])
    lines = data.decode().splitlines()
    assert lines[0] == "m,n,F,E,residual"
    m, n, F, E, residual = lines[1].split(",")
    assert (m, n) == ("0", "1")
    assert float(F) == pytest.approx(math.pi, abs=1e-12)
    assert float(E) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)
    assert abs(float(residual)) <= 1e-12


def test_billiard_solve_maslov_json(tmp_path):
    data = run_to_file(tmp_path, "solve.json",
                       ["billiard-solve", "--m", "0", "--n", "0", "--maslov",
                        "--format", "json"])
    doc = json.loads(data)
    assert doc["n"] == 0.75
    assert doc["F"] == pytest.approx(0.75 * math.pi, abs=1e-12)


def test_crosscheck_defaults_to_json(capsys):
    rc = main(["billiard-crosscheck", "--m1", "1", "--m2", "2",
               "--k-max", "200"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["E_toric", "F_ref", "F_route", "difference",
                           "hbar", "k_max", "m1", "m2", "shift",
                           "truncation_error_estimate"]
    assert doc["shift"] == [0.0, 0.0]
    assert doc["k_max"] == 200
    assert abs(doc["difference"]) < 1e-6


def test_crosscheck_csv_flattening(tmp_path):
    data = run_to_file(tmp_path, "cc.csv",
                       ["billiard-crosscheck", "--m1", "1", "--m2", "2",
                        "--k-max", "200", "--format", "csv"])
    header, row = data.decode().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["shift"] == "0;0"
    assert float(cols["F_route"]) == pytest.approx(float(cols["F_ref"]),
                                                   abs=1e-6)


def test_legendre_dual_sample_count(tmp_path):
    data = run_to_file(tmp_path, "dual.csv",
                       ["legendre-dual", "--profile", "circle",
                        "--samples", "33"])
    lines = data.decode().splitlines()
    assert lines[0] == "param,x_1,x_2"
    assert len(lines) == 34
    t, x, y = (float(tok) for tok in lines[17].split(","))
    # the round profile is self-dual, so samples sit on the unit circle
    assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-6)



@pytest.mark.parametrize("argv", [
    ["billiard-solve", "--m", "2", "--n", "1", "--maslov"],
    ["billiard-crosscheck", "--m1", "1", "--m2", "2", "--k-max", "100",
     "--shift", "0.75", "--format", "csv"],
    ["minmax-certify", "--profile", "pnorm:4", "--k-max", "30", "--energy", "1.2",
     "--m", "2,1", "--ell-max", "7"],
    ["legendre-dual", "--profile", "pnorm:3", "--samples", "40"],
], ids=["solve", "crosscheck", "certify", "dual"])
def test_cli_csv_is_what_csv_writer_prints(tmp_path, argv):
    # every cell needs no quoting, and a float cell is its own %.17g
    text = run_to_file(tmp_path, "out.csv", argv).decode()
    rows = list(csv.reader(io.StringIO(text)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == text and len(rows) >= 2
    for cell in (c for row in rows[1:] for field in row for c in field.split(";")):
        if not cell.lstrip("-").isdigit():
            assert format(float(cell), ".17g") == cell


def test_reconstruct_writes_report(tmp_path):
    out = tmp_path / "spec.csv"
    report = tmp_path / "report.json"
    rc = main(["spectrum-reconstruct", "--profile", "circle",
               "--k-max", "50", "--m-max", "3",
               "--out", str(out), "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["cloud_size"] > 0
    assert doc["hausdorff_vs_reference"] < 1e-3


def test_minmax_certificate_json(tmp_path):
    data = run_to_file(tmp_path, "cert.json",
                       ["minmax-certify", "--profile", "harmonic:1,2",
                        "--k-max", "10", "--energy", "3.5", "--m", "1,1",
                        "--ell-max", "5", "--format", "json"])
    doc = json.loads(data)
    assert doc["sign"] == 1
    assert doc["direction_constant"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    first = doc["records"][0]
    assert first["ell"] == 1
    assert first["value"] == pytest.approx(0.5, rel=1e-12)
    assert first["direction"] == [1, 2]


# --- determinism and file round-trips ---

def test_identical_runs_are_byte_identical(tmp_path):
    argv = ["spectrum-variational", "--profile", "circle",
            "--k-max", "30", "--m-max", "3"]
    assert run_to_file(tmp_path, "a.csv", argv) \
        == run_to_file(tmp_path, "b.csv", argv)


def test_actions_file_matches_profile_route(tmp_path):
    acts = tmp_path / "acts.csv"
    rc = main(["actions", "--profile", "circle", "--k-max", "30",
               "--out", str(acts)])
    assert rc == 0
    via_file = run_to_file(tmp_path, "file.csv",
                           ["spectrum-variational", "--actions", str(acts),
                            "--orientation", "convex", "--m-max", "3"])
    via_profile = run_to_file(tmp_path, "prof.csv",
                              ["spectrum-variational", "--profile", "circle",
                               "--k-max", "30", "--m-max", "3"])
    assert via_file == via_profile


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_actions_file_with_crlf_or_cr_lines_reads_as_lf(tmp_path, newline, fmt):
    # the file is decoded from bytes, with text mode's universal newlines
    acts = tmp_path / f"acts.{fmt}"
    assert main(["actions", "--profile", "pnorm:3", "--k-max", "30", "--format", fmt,
                 "--out", str(acts)]) == 0
    other = tmp_path / f"other.{fmt}"
    other.write_bytes(acts.read_bytes().replace(b"\n", newline))
    assert other.read_bytes() != acts.read_bytes()
    for command in (["spectrum-variational", "--m-max", "3"],
                    ["minmax-certify", "--energy", "1.0", "--m", "1,1"]):
        argv = command[:1] + ["--orientation", "convex"] + command[1:]
        assert run_to_file(tmp_path, "via_other.out", argv[:1] + ["--actions", str(other)]
                           + argv[1:]) \
            == run_to_file(tmp_path, "via_lf.out", argv[:1] + ["--actions", str(acts)]
                           + argv[1:])


def test_actions_file_outside_the_text_encoding_is_a_config_error(tmp_path, capsys):
    # UTF-16 bytes (a BOM and NULs) decode under no ASCII-compatible locale
    # encoding that Python selects: exit 2, naming the file
    acts = tmp_path / "acts.csv"
    assert main(["actions", "--profile", "circle", "--k-max", "10",
                 "--out", str(acts)]) == 0
    acts.write_bytes(acts.read_text().encode("utf-16"))
    _assert_config_error(["spectrum-variational", "--actions", str(acts),
                          "--orientation", "convex", "--m-max", "2"], capsys)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"dimension": 2, "entries": [], "\xe9": 1}')
    assert main(["minmax-certify", "--actions", str(latin), "--energy", "1.0",
                 "--m", "1,1"]) == 2
    assert "latin.json" in capsys.readouterr().err


# --- failure modes ---

def test_missing_profile_is_a_config_error(capsys):
    rc = main(["actions", "--k-max", "10"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_profile_is_a_config_error(capsys):
    rc = main(["actions", "--profile", "banana", "--k-max", "10"])
    assert rc == 2
    assert "unknown profile" in capsys.readouterr().err


def test_zero_k_max_is_a_config_error(capsys):
    rc = main(["actions", "--profile", "circle", "--k-max", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_csv_actions_without_orientation(tmp_path, capsys):
    acts = tmp_path / "acts.csv"
    assert main(["actions", "--profile", "circle", "--k-max", "10",
                 "--out", str(acts)]) == 0
    rc = main(["spectrum-variational", "--actions", str(acts),
               "--m-max", "2"])
    assert rc == 2
    assert "--orientation" in capsys.readouterr().err


def _assert_config_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _assert_one_error_line(argv, tmp_path, capsys):
    """Exit 2 with one `error:` line, nothing on stdout and no --out file;
    returns the line."""
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()
    return captured.err


def test_nan_energy_is_a_config_error(capsys):
    _assert_config_error(["minmax-certify", "--profile", "pnorm:4", "--k-max", "10",
                          "--energy", "nan", "--m", "1,1"], capsys)


def test_infinite_hbar_is_a_config_error(capsys):
    _assert_config_error(["spectrum-direct", "--profile", "pnorm:4", "--m-max", "2",
                          "--hbar", "inf"], capsys)


def test_nan_hbar_is_a_config_error(capsys):
    _assert_config_error(["spectrum-variational", "--profile", "pnorm:4",
                          "--k-max", "10", "--m-max", "2", "--hbar", "nan"], capsys)


@pytest.mark.parametrize("argv", [
    ["billiard-solve", "--m", "0", "--n", "1", "--hbar", "nan"],
    ["billiard-crosscheck", "--m1", "0", "--m2", "1", "--k-max", "20", "--hbar", "inf"],
    ["billiard-crosscheck", "--m1", "0", "--m2", "1", "--k-max", "20", "--shift", "nan"],
], ids=["solve-hbar", "crosscheck-hbar", "crosscheck-shift"])
def test_nonfinite_billiard_input_is_a_config_error(capsys, argv):
    _assert_config_error(argv, capsys)


@pytest.mark.parametrize("action", ["nan", "0"])
def test_nonfinite_or_zero_table_action_is_a_config_error(tmp_path, capsys, action):
    acts = tmp_path / "acts.csv"
    acts.write_text("k_1,k_2,action,p_1,p_2\n1,0,1,1,0\n"
                    f"1,1,{action},0.5,0.5\n")
    _assert_config_error(["spectrum-variational", "--actions", str(acts),
                          "--orientation", "convex", "--m-max", "2"], capsys)


def test_empty_certificate_is_a_config_error(capsys):
    # no level ell would certify E > E_m from no evidence
    _assert_config_error(["minmax-certify", "--profile", "harmonic:1,2",
                          "--k-max", "10", "--energy", "3.5", "--m", "1,1",
                          "--ell-max", "0"], capsys)


@pytest.mark.parametrize("argv", [
    ["legendre-dual", "--profile", "pnorm:3", "--samples", "-1"],
], ids=["dual-samples"])
def test_bad_resolution_or_samples_is_a_config_error(capsys, argv):
    _assert_config_error(argv, capsys)


@pytest.fixture(scope="module")
def pnorm4_table(tmp_path_factory):
    """A JSON action table of pnorm:4 at k_max 30."""
    path = tmp_path_factory.mktemp("table") / "pnorm4.json"
    assert main(["actions", "--profile", "pnorm:4", "--k-max", "30", "--format", "json",
                 "--out", str(path)]) == 0
    return str(path)


TABLE = "<the pnorm4_table fixture>"


@pytest.mark.parametrize("argv", [
    # a table has no degree of its own, so --degree is checked, not compared
    ["spectrum-variational", "--actions", TABLE, "--m-max", "2", "--degree", "nan"],
    ["spectrum-reconstruct", "--actions", TABLE, "--m-max", "2", "--degree", "nan"],
    ["spectrum-variational", "--actions", TABLE, "--m-max", "2", "--degree", "0"],
    ["spectrum-reconstruct", "--actions", TABLE, "--m-max", "2", "--degree", "-1"],
    ["spectrum-direct", "--profile", "harmonic:1,inf", "--m-max", "2"],
    ["spectrum-direct", "--profile", "power:2,inf", "--m-max", "2"],
    ["spectrum-direct", "--profile", "pnorm:inf", "--m-max", "2"],
    ["billiard-solve", "--m", "0", "--n", "1", "--tol", "nan"],
    ["spectrum-direct", "--profile", "pnorm:4", "--m-max", "2", "--shift", "abc"],
], ids=["variational-degree-nan", "reconstruct-degree-nan",
        "variational-degree-zero", "reconstruct-degree-negative",
        "harmonic-weight-inf", "power-degree-inf", "pnorm-exponent-inf",
        "solve-tol-nan", "shift-not-a-number"])
def test_nonfinite_or_nonpositive_flag_is_a_config_error(capsys, pnorm4_table, argv):
    _assert_config_error([pnorm4_table if a == TABLE else a for a in argv], capsys)


@pytest.mark.parametrize("argv", [
    ["spectrum-direct", "--profile", "pnorm:4", "--m-max", "2", "--shift", "-0.5"],
    ["spectrum-variational", "--profile", "pnorm:4", "--k-max", "10", "--m-max", "2",
     "--shift", "-0.5"],
    ["minmax-certify", "--profile", "pnorm:4", "--k-max", "10", "--energy", "3.5",
     "--m", "1,1", "--shift", "-2"],
    ["spectrum-reconstruct", "--profile", "pnorm:4", "--k-max", "30", "--m-max", "2",
     "--shift", "-0.5"],
], ids=["direct", "variational", "minmax", "reconstruct"])
def test_shift_out_of_the_orthant_is_a_config_error(tmp_path, capsys, argv):
    # hbar (m + mu) < 0 is bad input, not a numerical failure
    _assert_one_error_line(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["spectrum-variational", "--actions", "missing.csv", "--orientation", "convex",
     "--m-max", "2"],
    ["spectrum-direct", "--profile", "pnorm:4", "--m-max", "2",
     "--out", "missing/out.csv"],
    ["spectrum-reconstruct", "--profile", "pnorm:4", "--k-max", "30", "--m-max", "2",
     "--report", "missing/report.json"],
], ids=["missing-actions", "unwritable-out", "unwritable-report"])
def test_unreadable_or_unwritable_path_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                         argv):
    monkeypatch.chdir(tmp_path)   # neither missing.csv nor missing/ exists here
    _assert_config_error(argv, capsys)


_QUADRANT_TABLE = [[0, 1, 0], [1, 0.9, 0.6], [2, 0.6, 0.9], [3, 0, 1]]


@pytest.mark.parametrize("doc", [
    {"kind": "pnorm", "params": {"s": "abc"}},
    {"kind": "pnorm", "params": {"s": 3}, "degree": "abc"},
    {"kind": "pnorm", "params": {"s": 3}, "dimension": "abc"},
    {"kind": "linear", "params": {"weights": [1, "abc"]}},
    {"kind": "linear", "params": {"weights": 3}},
    {"kind": "custom-table", "params": {"table": _QUADRANT_TABLE[:2] + [[2, "abc", 0.9]]
                                        + _QUADRANT_TABLE[3:]}},
], ids=["spec-s", "spec-degree", "spec-dimension", "spec-weight", "spec-weights-scalar",
        "spec-table-cell"])
def test_non_numeric_spec_entry_is_a_config_error(tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    _assert_config_error(["actions", "--profile", str(spec), "--k-max", "3"], capsys)


@pytest.mark.parametrize("table", [
    _QUADRANT_TABLE[:3],
    _QUADRANT_TABLE[:3] + [[3, 1.8, 1.2]],
], ids=["three-rows", "repeated-angle"])
@pytest.mark.parametrize("command", ["actions", "legendre-dual"])
def test_custom_table_the_fit_rejects_is_a_config_error(tmp_path, capsys, table, command):
    # too few rows for the cubic fit, or one polar angle at two radii (the
    # last row is twice the second)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "custom-table", "params": {"table": table}}))
    argv = [command, "--profile", str(spec)] + (["--k-max", "3"] if command == "actions"
                                                  else [])
    _assert_config_error(argv, capsys)


@pytest.mark.parametrize("dimension", [2.7, math.inf, 10 ** 400],
                         ids=["fraction", "infinite", "beyond-float"])
def test_non_integral_spec_dimension_is_a_config_error(tmp_path, capsys, dimension):
    # truncating 2.7 to an int would run a two-dimensional surface and exit 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "pnorm", "dimension": dimension,
                                "params": {"s": 3}}))
    _assert_config_error(["actions", "--profile", str(spec), "--k-max", "3"], capsys)


def test_actions_takes_no_shift(tmp_path, capsys):
    # a table is unshifted: mu enters only hbar (m + mu), through --shift on
    # the spectrum and certificate subcommands
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exited:
        main(["actions", "--profile", "pnorm:3", "--k-max", "10", "--shift", "0.5",
              "--out", str(out)])
    assert exited.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["ebk: error: unrecognized arguments: --shift 0.5"]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["spectrum-variational", "--m-max", "2"],
    ["spectrum-reconstruct", "--m-max", "2"],
    ["minmax-certify", "--energy", "1.0", "--m", "1,1"],
], ids=["variational", "reconstruct", "certify"])
def test_json_table_with_a_nonzero_shift_is_a_config_error(tmp_path, capsys,
                                                           pnorm4_table, command):
    # a stored shift would be a second home for mu, which no route agrees on
    doc = json.loads(Path(pnorm4_table).read_text())
    doc["shift"] = [0.5, 0.5]
    table = tmp_path / "shifted.json"
    table.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    err = _assert_one_error_line(command[:1] + ["--actions", str(table)] + command[1:]
                                 + ["--shift", "0.5"], tmp_path, capsys)
    assert "shifted.json" in err and "shift is not zero" in err


@pytest.mark.parametrize("layout", ["writer", "compact"])
@pytest.mark.parametrize("shift", ["0000", [0.0], [0.0, 0.0, 0.0], [False, False],
                                   [0.0, "0"], None, 0.0],
                         ids=["string", "short", "long", "bools", "string-item", "null",
                              "scalar"])
def test_json_table_shift_that_is_not_two_numbers_is_a_config_error(tmp_path, capsys,
                                                                    pnorm4_table,
                                                                    layout, shift):
    # zeros in any other form than a list of `dimension` numbers are no zero shift
    doc = json.loads(Path(pnorm4_table).read_text())
    doc["shift"] = shift
    table = tmp_path / "odd.json"
    table.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n" if layout == "writer"
                     else json.dumps(doc))
    err = _assert_one_error_line(["spectrum-variational", "--actions", str(table),
                                  "--m-max", "2"], tmp_path, capsys)
    assert "odd.json" in err and "shift must be a list of 2 numbers" in err


@pytest.mark.parametrize("command", ["spectrum-variational", "spectrum-reconstruct"])
@pytest.mark.parametrize("degree", ["1", "3", "nan"])
def test_degree_contradicting_the_profile_is_a_config_error(tmp_path, capsys, command,
                                                            degree):
    err = _assert_one_error_line([command, "--profile", "power:2,2", "--k-max", "50",
                                  "--m-max", "1", "--degree", degree], tmp_path, capsys)
    assert err.startswith("error: --degree") and "contradicts" in err


@pytest.mark.parametrize("command", ["spectrum-variational", "spectrum-reconstruct"])
def test_degree_defaults_to_the_profile_degree(tmp_path, command):
    # power:2,2 is |p|^2: E(0,0) = 0.5 at mu = 1/2, as the direct route has it
    common = ["--profile", "power:2,2", "--m-max", "1", "--shift", "0.5"]
    direct = _energies_of(run_to_file(tmp_path, "direct.csv", ["spectrum-direct"]
                                      + common))
    argv = [command, "--k-max", "50"] + common
    got = _energies_of(run_to_file(tmp_path, "got.csv", argv))
    assert got[0] == pytest.approx(0.5, rel=1e-12)
    assert got == pytest.approx(direct, rel=2e-3)
    # repeating the profile's own degree changes nothing
    assert run_to_file(tmp_path, "again.csv", argv + ["--degree", "2"]) \
        == run_to_file(tmp_path, "got.csv", argv)


@pytest.mark.parametrize("doc", [
    {"kind": "linear", "params": {"weights": [1, 2]}, "degree": 2},
    {"kind": "ramos", "degree": 2},
    {"kind": "custom-table", "params": {"table": _QUADRANT_TABLE}, "degree": 0.5},
], ids=["linear", "ramos", "custom-table"])
def test_spec_degree_on_a_degree_one_kind_is_a_config_error(tmp_path, capsys, doc):
    # it was silently ignored: the linear spec printed E(1,1) = 3, degree 1's
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    err = _assert_one_error_line(["spectrum-variational", "--profile", str(spec),
                                  "--k-max", "10", "--m-max", "1"], tmp_path, capsys)
    assert "degree 1" in err


@pytest.mark.parametrize("command", [
    ["spectrum-variational", "--m-max", "2"],
    ["spectrum-reconstruct", "--m-max", "2"],
    ["minmax-certify", "--energy", "1.0", "--m", "1,1"],
], ids=["variational", "reconstruct", "certify"])
def test_profile_and_actions_together_are_a_config_error(tmp_path, capsys, pnorm4_table,
                                                         command):
    # the table won silently, and --k-max was ignored
    err = _assert_one_error_line(command[:1] + ["--profile", "pnorm:3", "--actions",
                                                pnorm4_table] + command[1:],
                                 tmp_path, capsys)
    assert "--profile" in err and "--actions" in err


def _columns(data, count):
    return [line.split(",")[:count] for line in data.decode().splitlines()]


def test_harmonic_in_three_dimensions_runs(tmp_path):
    # the facet's closed-form Gauss-map inverse serves n = 3 as it serves
    # n = 2, and its one-entry table needs no orientation
    common = ["--profile", "harmonic:1,2,3", "--m-max", "3", "--shift", "0.5"]
    var = run_to_file(tmp_path, "var.csv", ["spectrum-variational", "--k-max", "20"]
                      + common)
    direct = run_to_file(tmp_path, "direct.csv", ["spectrum-direct"] + common)
    assert len(_columns(var, 4)) == 65
    assert _columns(var, 4) == _columns(direct, 4)
    cert = run_to_file(tmp_path, "cert.csv", ["minmax-certify", "--profile",
                                              "harmonic:1,2,3", "--k-max", "20",
                                              "--energy", "7", "--m", "1,1,1"])
    assert _columns(cert, 3)[1] == ["1", "1", "1;2;3"]


def test_harmonic_facet_needs_no_orientation(tmp_path):
    # sup and inf over its one-entry table agree
    argv = ["spectrum-variational", "--profile", "harmonic:1,2", "--k-max", "20",
            "--m-max", "3"]
    plain = run_to_file(tmp_path, "plain.csv", argv)
    assert plain == run_to_file(tmp_path, "convex.csv", argv + ["--orientation", "convex"])
    direct = run_to_file(tmp_path, "direct.csv", ["spectrum-direct", "--profile",
                                                  "harmonic:1,2", "--m-max", "3"])
    assert _columns(plain, 3) == _columns(direct, 3)


@pytest.mark.parametrize("argv", [
    ["spectrum-variational", "--profile", "ramos", "--k-max", "50", "--m-max", "1",
     "--orientation", "convex"],
    ["spectrum-variational", "--profile", "pnorm:4", "--k-max", "50", "--m-max", "1",
     "--orientation", "concave"],
    ["spectrum-variational", "--profile", "pnorm:4", "--k-max", "50", "--m-max", "1",
     "--orientation", "general"],
    ["minmax-certify", "--profile", "pnorm:4", "--k-max", "20", "--energy", "1.3",
     "--m", "1,1", "--orientation", "concave"],
    ["spectrum-reconstruct", "--profile", "pnorm:4", "--k-max", "50", "--m-max", "2",
     "--orientation", "concave"],
], ids=["variational-ramos-convex", "variational-pnorm-concave",
        "variational-pnorm-general", "certify-pnorm-concave", "reconstruct-pnorm-concave"])
def test_orientation_contradicting_the_surface_is_a_config_error(tmp_path, capsys, argv):
    # the surface's own orientation picks sup or inf; overriding it gave
    # wrong energies with exit 0
    err = _assert_one_error_line(argv, tmp_path, capsys)
    assert err.startswith("error: --orientation") and "contradicts" in err


def test_orientation_of_a_json_table(tmp_path, capsys):
    table = tmp_path / "table.json"
    assert main(["actions", "--profile", "pnorm:3", "--k-max", "20", "--format", "json",
                 "--out", str(table)]) == 0
    argv = ["spectrum-variational", "--actions", str(table), "--m-max", "3"]
    plain = run_to_file(tmp_path, "plain.csv", argv)
    # a table may be given its own orientation, not another one
    assert run_to_file(tmp_path, "own.csv", argv + ["--orientation", "convex"]) == plain
    _assert_config_error(argv + ["--orientation", "concave"], capsys)
    # a general table of several entries takes the orientation it is given,
    # and without one lacks a choice only the user can make
    doc = json.loads(table.read_text())
    doc["orientation"] = "general"
    table.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert run_to_file(tmp_path, "relabelled.csv", argv + ["--orientation", "convex"]) \
        == plain
    _assert_config_error(argv, capsys)


@pytest.mark.parametrize("name,text", [
    ("empty.csv", "k_1,k_2,action,p_1,p_2\n"),
    ("empty.json", '{"dimension": 2, "entries": [], "k_max": 0, '
                   '"orientation": "convex", "shift": [0.0, 0.0]}\n'),
], ids=["csv", "json"])
@pytest.mark.parametrize("command", [
    ["spectrum-variational", "--m-max", "2"],
    ["spectrum-reconstruct", "--m-max", "2"],
    ["minmax-certify", "--energy", "1.0", "--m", "1,1"],
], ids=["variational", "reconstruct", "certify"])
def test_actions_file_without_entries_is_a_config_error(tmp_path, capsys, name, text,
                                                        command):
    acts = tmp_path / name
    acts.write_text(text)
    err = _assert_one_error_line(command[:1] + ["--actions", str(acts), "--orientation",
                                                "convex"] + command[1:], tmp_path, capsys)
    assert name in err


@pytest.mark.parametrize("profile,k_max", [("harmonic:1,2", "10"), ("pnorm:4", "3")])
def test_cloud_too_small_to_reconstruct_is_a_config_error(tmp_path, capsys, profile,
                                                          k_max):
    out = tmp_path / "out.csv"
    assert main(["spectrum-reconstruct", "--profile", profile, "--k-max", k_max,
                 "--m-max", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need at least") and err.count("\n") == 1
    assert not out.exists()


def _energies_of(data):
    """The E_m column of a spectrum CSV."""
    return [float(line.split(",")[2]) for line in data.decode().splitlines()[1:]]


def _energies(text):
    return [float(line.split(",")[3]) for line in text.splitlines()[1:]]


@pytest.mark.parametrize("s", [1.5, 2.0, 4.0, 8.0])
def test_variational_in_three_dimensions_stays_below_direct(tmp_path, s):
    spec = tmp_path / "pnorm3.json"
    spec.write_text(json.dumps({"kind": "pnorm", "params": {"s": s},
                                "dimension": 3}))
    common = ["--profile", str(spec), "--m-max", "3", "--shift", "0.5"]
    var = _energies(run_to_file(tmp_path, "var.csv", ["spectrum-variational",
                                                      "--k-max", "20"] + common).decode())
    direct = _energies(run_to_file(tmp_path, "direct.csv",
                                   ["spectrum-direct"] + common).decode())
    assert len(var) == len(direct) == 64
    for v, d in zip(var, direct):
        # a sup over finitely many directions: a lower bound up to rounding
        assert v <= d * (1 + 1e-14)
        assert v >= d * (1 - 2e-3)


@pytest.mark.parametrize("s", [12, 20, 40])
def test_variational_on_flat_superellipse_stays_below_direct(tmp_path, s):
    # pnorm is convex for every s > 1, even where its curvature near the
    # axes underflows any sampled test
    common = ["--profile", f"pnorm:{s}", "--m-max", "3", "--shift", "0.5"]
    var = run_to_file(tmp_path, "var.csv", ["spectrum-variational",
                                            "--k-max", "40"] + common).decode()
    direct = run_to_file(tmp_path, "direct.csv", ["spectrum-direct"] + common).decode()
    var = [float(line.split(",")[2]) for line in var.splitlines()[1:]]
    direct = [float(line.split(",")[2]) for line in direct.splitlines()[1:]]
    assert len(var) == len(direct) == 16
    for v, d in zip(var, direct):
        assert v <= d * (1 + 1e-14)


def test_minmax_on_concave_surface_fails_numerically(capsys):
    rc = main(["minmax-certify", "--profile", "ramos", "--k-max", "10",
               "--energy", "5.0", "--m", "1,1"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure:")



_TABLE_HEADER = "k_1,k_2,action,p_1,p_2\n1,0,1,1,0\n"


@pytest.mark.parametrize("name,text", [
    ("acts.csv", _TABLE_HEADER + "1.5,1,1,0.5,0.5\n"),
    ("acts.csv", _TABLE_HEADER + "inf,1,1,0.5,0.5\n"),
    ("acts.csv", _TABLE_HEADER + "1,1,1,0.5\n"),
    ("acts.csv", _TABLE_HEADER + "1,1,1,0.5,0.5,7\n"),
    ("acts.csv", _TABLE_HEADER + "1,1,one,0.5,0.5\n"),
    ("acts.json", '{"dimension": 2, "entries": [{"k": [1, 0], "act'),
    ("acts.json", '{"dimension": 2, "orientation": "convex", "k_max": 1, '
                  '"entries": [{"k": [1, 0], "action": 1.0, "point": [1.0, 0.0]}]}'),
    ("acts.json", '{"dimension": 2, "orientation": "convex", "k_max": 1, '
                  '"shift": [0.0, 0.0], '
                  '"entries": [{"k": [1.5, 0], "action": 1.0, "point": [1.0, 0.0]}]}'),
], ids=["fractional-k", "infinite-k", "short-row", "long-row", "unparsable",
        "truncated-json", "missing-key", "fractional-json-k"])
def test_malformed_action_table_is_a_config_error(tmp_path, capsys, name, text):
    acts = tmp_path / name
    acts.write_text(text)
    _assert_config_error(["spectrum-variational", "--actions", str(acts),
                          "--orientation", "convex", "--m-max", "2"], capsys)


def test_ragged_json_k_is_a_config_error(tmp_path, capsys):
    acts = tmp_path / "acts.json"
    acts.write_text('{"dimension": 2, "orientation": "convex", "k_max": 2, '
                    '"shift": [0.0, 0.0], "entries": ['
                    '{"k": [1, 0], "action": 1.0, "point": [1.0, 0.0]}, '
                    '{"k": [1, 1, 1], "action": 1.0, "point": [0.5, 0.5]}]}')
    _assert_config_error(["minmax-certify", "--actions", str(acts), "--energy", "1.0",
                          "--m", "1,1"], capsys)


@pytest.mark.parametrize("layout", ["writer", "compact"])
@pytest.mark.parametrize("command", [
    ["minmax-certify", "--energy", "1.0", "--m", "1,1"],
    ["spectrum-variational", "--m-max", "2"],
], ids=["certify", "variational"])
def test_json_k_too_large_for_a_float_is_a_config_error(tmp_path, capsys, layout,
                                                         command):
    acts = tmp_path / "acts.json"
    assert main(["actions", "--profile", "circle", "--k-max", "10", "--format", "json",
                 "--out", str(acts)]) == 0
    doc = json.loads(acts.read_text())
    doc["entries"][2]["k"][0] = 10 ** 400
    acts.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n"
                    if layout == "writer" else json.dumps(doc))
    capsys.readouterr()
    _assert_config_error(command[:1] + ["--actions", str(acts)] + command[1:], capsys)


@pytest.mark.parametrize("command", [
    ["minmax-certify", "--energy", "1", "--m", "1,1"],
    ["spectrum-variational", "--m-max", "2"],
], ids=["certify", "variational"])
def test_deeply_nested_json_is_a_config_error(tmp_path, capsys, command):
    # json.loads gives up on 100,000 nested arrays with RecursionError
    acts = tmp_path / "deep.json"
    acts.write_text("[" * 100_000)
    _assert_config_error(command[:1] + ["--actions", str(acts)] + command[1:], capsys)


def test_huge_hbar_spectrum_prints_no_warning(capsys):
    # finite energies whose truncation estimate overflows: exit 0, no stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["spectrum-variational", "--profile", "pnorm:4", "--hbar", "1e300",
                   "--m-max", "64", "--k-max", "400"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert len(captured.out.splitlines()) == 1 + 65 * 65


def _assert_one_numerical_failure_line(argv, capsys):
    # numpy warnings raise here, so a warning printed before the message
    # would show up as an exception, not as exit 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("numerical failure:")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["spectrum-direct", "--m-max", "1"],
    ["spectrum-variational", "--k-max", "20", "--m-max", "1"],
    ["spectrum-reconstruct", "--k-max", "40", "--m-max", "2"],
], ids=["direct", "variational", "reconstruct"])
def test_overflowing_spectrum_is_a_numerical_failure(capsys, argv):
    # hbar (m + mu) or the energies leave the float range: no inf in output
    _assert_one_numerical_failure_line(
        argv + ["--profile", "pnorm:4", "--hbar", "1e308"], capsys)


@pytest.mark.parametrize("argv", [
    ["billiard-crosscheck", "--k-max", "20", "--m1", "0", "--m2", "4", "--hbar", "1e308"],
    ["billiard-crosscheck", "--k-max", "20", "--m1", "1", "--m2", "3", "--hbar", "1e307"],
    ["billiard-solve", "--m", "1", "--n", "3", "--hbar", "1e307"],
    ["billiard-solve", "--m", "1", "--n", "3", "--radius", "1e-200"],
    ["spectrum-reconstruct", "--profile", "power:4,2", "--k-max", "40", "--m-max", "2",
     "--hbar", "1e300"],
], ids=["crosscheck-1e308", "crosscheck-1e307", "solve-hbar", "solve-radius",
        "reconstruct-degree"])
def test_overflowing_billiard_and_degree_are_numerical_failures(capsys, argv):
    _assert_one_numerical_failure_line(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["--energy", "1e308"],
    ["--energy", "1", "--hbar", "1e307"],
], ids=["energy", "hbar"])
def test_overflowing_certificate_is_a_numerical_failure(capsys, argv):
    # E a(k) or hbar <m + mu, k> leaves the float range: no inf in output
    _assert_one_numerical_failure_line(
        ["minmax-certify", "--profile", "pnorm:4", "--k-max", "5", "--m", "1,1"] + argv,
        capsys)


@pytest.mark.parametrize("argv", [
    ["billiard-solve", "--m", "2", "--n", "1e300"],
    ["billiard-crosscheck", "--m1", "0", "--m2", "2", "--k-max", "10", "--shift", "1e300"],
], ids=["solve", "crosscheck"])
def test_overflowing_radial_phase_is_a_numerical_failure(capsys, argv):
    _assert_one_numerical_failure_line(argv, capsys)


def test_crosscheck_residual_failure_is_a_numerical_failure(monkeypatch, capsys):
    monkeypatch.setattr(ebk.actions, "NORMAL_RESIDUAL_TOL", -1.0)
    _assert_one_numerical_failure_line(
        ["billiard-crosscheck", "--k-max", "300", "--m1", "0", "--m2", "2"], capsys)


def test_crosscheck_at_full_size_prints_nothing_to_stderr(capsys):
    # the stream drops the zero-action axis directions without dividing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["billiard-crosscheck", "--m1", "0", "--m2", "2", "--k-max", "2000"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert json.loads(captured.out)["k_max"] == 2000


def test_spectrum_runs_never_load_scipy(tmp_path):
    # scipy serves only the spline fit and the cloud's nearest neighbours
    script = ("import sys, ebk.cli\n"
              "rc = ebk.cli.main(['spectrum-variational', '--profile', 'pnorm:4',\n"
              "                   '--k-max', '20', '--m-max', '3', '--out', sys.argv[1]])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ebk.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "var.csv")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert (tmp_path / "var.csv").read_text().startswith("m_1,m_2,E_m")


def test_no_subcommand_loads_scipy(tmp_path):
    # the spline fit, the cloud dedup and the Hausdorff distance are numpy
    # code: reconstruction with a report, and a custom-table curve through
    # legendre-dual and actions, leave no scipy module loaded
    angles = [i * math.pi / 112 for i in range(57)]
    table = [[t, math.cos(t), math.sin(t)] for t in angles]
    for row in table:   # the pnorm:4 curve
        r = (row[1] ** 4 + row[2] ** 4) ** -0.25
        row[1:] = [r * row[1], r * row[2]]
    table[0][2] = table[-1][1] = 0.0   # both ends on the axes: clamped
    spec = tmp_path / "quadrant.json"
    spec.write_text(json.dumps({"kind": "custom-table", "params": {"table": table}}))
    runs = [["spectrum-reconstruct", "--profile", str(spec), "--k-max", "40", "--m-max", "3",
             "--report", str(tmp_path / "report.json"), "--out", str(tmp_path / "rec.csv")],
            ["legendre-dual", "--profile", str(spec), "--out", str(tmp_path / "dual.csv")],
            ["actions", "--profile", str(spec), "--k-max", "40",
             "--out", str(tmp_path / "actions.csv")]]
    script = ("import json, sys, ebk.cli\n"
              "codes = [ebk.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ebk.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 < report["hausdorff_vs_reference"] < 1e-3
    assert (tmp_path / "dual.csv").read_text().startswith("param,x_1,x_2")
    assert (tmp_path / "actions.csv").read_text().startswith("k_1,k_2,action")


# --- installed entry point ---

@pytest.mark.skipif(shutil.which("ebk") is None,
                    reason="console script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(["ebk", "billiard-solve", "--m", "0", "--n", "1",
                           "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["F"] == pytest.approx(math.pi, abs=1e-12)
