"""The benchmark's layer trace finds every name it wraps, and its table
checks still read the tables.

perfbench/layers.py wraps functions at the module or class attribute their
callers look up (cli.variational_spectrum, quantize.reconstruct_surface,
...). A name that is renamed or imported lazily is skipped and only listed
in the trace's `missing`, so the traced coverage drops without an error.
perfbench/workloads.py re-reads the action tables the table-io workload
writes through the ActionSpectrum API; a change to it ends that workload
in a failed run.
"""
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import ebk
import ebk.cli

# names the trace still wraps although the program no longer has them
STALE = {"ebk.kernels.bisect_family", "ebk.billiard.marked_action_spectrum"}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(ebk.__file__).resolve().parents[1]


def _traced(body: str, *args: str):
    """Run body in a subprocess after layers.install(tracer), with perfbench
    and this checkout's src first on sys.path and args in sys.argv[3:];
    return what the body prints as JSON."""
    script = ("import json, sys\n"
              "sys.path[:0] = sys.argv[1:3]\n"
              "import ebk, ebk.cli, layers\n"
              "tracer = layers.Tracer()\n"
              "layers.install(tracer)\n" + body)
    proc = subprocess.run([sys.executable, "-c", script, str(PERFBENCH), str(SRC), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_layer_trace_misses_no_current_name():
    loaded, missing = _traced("print(json.dumps([ebk.__file__, tracer.missing]))\n")
    assert Path(loaded).resolve().parents[1] == SRC
    assert set(missing) <= STALE, sorted(set(missing) - STALE)


def test_the_layer_trace_hooks_run_clean(tmp_path):
    # a hook that no longer fits a return value only lands in hook_errors,
    # and its layer's counts go missing from the benchmark without a failure
    table = str(tmp_path / "table.json")
    runs = [
        ["spectrum-variational", "--profile", "pnorm:4", "--k-max", "40", "--m-max", "4"],
        ["spectrum-reconstruct", "--profile", "pnorm:4", "--k-max", "60", "--m-max", "4",
         "--report", str(tmp_path / "report.json")],
        ["actions", "--profile", "pnorm:4", "--k-max", "20", "--format", "json",
         "--out", table],
        ["minmax-certify", "--actions", table, "--energy", "3.5", "--m", "1,1"],
        ["billiard-crosscheck", "--m1", "0", "--m2", "2", "--k-max", "100"],
    ]
    runs = [argv if "--out" in argv else argv + ["--out", str(tmp_path / f"{i}.out")]
            for i, argv in enumerate(runs)]
    codes, summary = _traced(
        "runs = json.loads(sys.argv[3])\n"
        "codes = [tracer.run_root(ebk.cli.main, argv) for argv in runs]\n"
        "print(json.dumps([codes, tracer.summary()]))\n", json.dumps(runs))
    assert codes == [0] * len(runs)
    assert summary["hook_errors"] == []
    layers = {"catalog.parse", "surfaces.invert", "surfaces.from_points",
              "duality.transform", "quantize.variational", "billiard.crosscheck"}
    assert layers <= set(summary["self_s"]), sorted(layers - set(summary["self_s"]))


def test_the_table_io_checks_pass_on_this_checkout(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    plan = workloads.table_io(workloads.TINY["table-io"], random.Random(0))
    monkeypatch.chdir(tmp_path)   # the steps' paths are relative to the work dir
    for step in (step for group in plan.groups for step in group):
        assert ebk.cli.main(step.argv) == 0, step.key
        step.check(tmp_path)
