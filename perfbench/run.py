"""Pipeline benchmark of the ebk command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the ebk sources are taken from `src/` beside this
directory. Every sample is a real `ebk` invocation in a fresh interpreter
(launch.py), one at a time (closed loop, one client). A run repeats the
workload's whole input set (workloads.py), in an order set by the seed,
for S seconds of invocations (checking outputs does not count) and at
least twice, and reports each time as the sum over inputs of the median
over that input's invocations. Every output is checked; a non-zero exit, a timeout or a
failed check is a failed attempt and is never dropped.

With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
run alternates untraced and traced passes and reports per-layer self times
and counts (layers.py), the tracing overhead, and the share of `compute_s`
that the traced layers cover, which must be at least nine tenths.

The last line of stdout is the JSON result; the line before it records the
environment, the generated inputs, the visit order and every sample.
Exit status 2, with no result, when the ebk sources are missing.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from launch import MAIN_MARKER
from workloads import FULL, TINY, WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
INVOCATION_TIMEOUT_S = 90.0
MIN_PER_INPUT = 2   # invocations of every input in an untraced run
MIN_COVERAGE = 0.9

END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "frac", "max_err": "rel"}
# per-layer times are self times summed over one pass of the input set
LAYER_TIMES = [
    "kernels.enumerate_s", "kernels.bisect_s", "kernels.ratios_s",
    "surfaces.invert_s", "surfaces.radial_s", "surfaces.from_points_s",
    "actions.build_s", "actions.write_s", "actions.read_s",
    "quantize.variational_s", "quantize.reconstruction_s", "quantize.certificate_s",
    "quantize.format_s",
    "duality.cloud_s", "duality.transform_s", "duality.reconstruct_s", "duality.hausdorff_s",
    "billiard.crosscheck_s", "billiard.solve_s", "catalog.parse_s", "cli.write_s",
]
LAYER_COUNTS = {
    "kernels.directions": "count",
    "kernels.bisect_targets": "count", "kernels.ratio_pairs": "count",
    "surfaces.attained": "count", "surfaces.not_attained": "count",
    "surfaces.radial_calls": "count", "actions.rows": "count", "actions.zero_dropped": "count",
    "actions.write_bytes": "bytes", "actions.read_bytes": "bytes", "quantize.levels": "count",
    "duality.cloud_points": "count", "duality.nice_points": "count", "cli.out_bytes": "bytes",
}
LAYER_MAXIMA = {"kernels.enumerate_bytes": "bytes", "kernels.enumerate_rss_mb": "MB",
                "surfaces.max_residual": "1", "duality.hausdorff": "1",
                "billiard.abs_difference": "1"}
LAYER_OTHER = {"kernels.ratio_useful_frac": "frac", "cli.import_s": "s",
               "cli.import_scipy_s": "s", "trace.overhead_s": "s", "trace.coverage": "frac"}
PER_LAYER = {**{name: "s" for name in LAYER_TIMES}, **LAYER_COUNTS, **LAYER_MAXIMA,
             **LAYER_OTHER}


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


# -- environment --

def _blas_threads():
    """OpenBLAS thread count of this process, or None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(path) for path in sorted(
                {line.split()[-1] for line in fh if "openblas" in line.lower()})]
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy
    import ebk

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ebk").rglob("*.py")):
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": ebk.active_backend() if hasattr(ebk, "active_backend") else None,
            "blas_threads": _blas_threads()}


# -- one invocation --

def _import_times(stderr: str) -> tuple[float, float]:
    """(all, scipy) module import self times before main, from -X importtime."""
    total = scipy_s = 0.0
    for line in stderr.splitlines():
        if line.startswith(MAIN_MARKER):
            break
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        seconds = int(self_us) * 1e-6
        total += seconds
        name = name.strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_s += seconds
    return total, scipy_s


def invoke(step, work: Path, env: dict, traced: bool) -> dict:
    record = work / "record.json"
    for name in ("record.json", *step.outputs):
        (work / name).unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(LAUNCH),
           str(record), "1" if traced else "0", *step.argv]
    with open(work / "stderr.txt", "w+b") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        exited = time.monotonic()
        err.seek(0)
        stderr = err.read().decode(errors="replace")

    sample = {"key": step.key, "traced": traced, "rc": rc, "wall_s": exited - spawn,
              "ok": False}
    rec = json.loads(record.read_text()) if record.exists() else None
    if rec is not None:
        sample.update(setup_s=rec["imported"] - spawn,
                      compute_s=rec["main_end"] - rec["main_start"],
                      peak_rss_mb=rec["maxrss_kb"] / 1024.0, layers=rec.get("layers"))
    if traced:
        sample["import_s"], sample["import_scipy_s"] = _import_times(stderr)
    if rc != 0 or rec is None:
        tail = [line for line in stderr.splitlines()
                if line and not line.startswith(("import time:", MAIN_MARKER))][-3:]
        sample["note"] = f"exit {rc}: " + " | ".join(tail)
        return sample
    checked = time.monotonic()
    try:
        sample["err"], sample["out_rows"] = step.check(work)
        sample["ok"] = True
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        sample["note"] = f"check failed: {exc}"
    sample["check_s"] = time.monotonic() - checked
    return sample


# -- metrics --

def end_to_end(samples: list[dict]) -> dict:
    by_key: dict[str, list[dict]] = {}
    for s in samples:
        by_key.setdefault(s["key"], []).append(s)

    def per_input(field):
        return sum(_median(s.get(field) for s in group) for group in by_key.values())

    errors = [s["err"] for s in samples if "err" in s]
    values = {
        "wall_s": per_input("wall_s"),
        "setup_s": _median(s.get("setup_s") for s in samples),
        "compute_s": per_input("compute_s"),
        "peak_rss_mb": max((s.get("peak_rss_mb", 0.0) for s in samples), default=0.0),
        "pass_frac": sum(s["ok"] for s in samples) / len(samples),
        # 1 (a relative error of 100%) when no output could be checked
        "max_err": max(errors) if errors else 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _pass_layers(samples: list[dict]) -> dict:
    """Per-layer values of one traced pass over the input set."""
    traces = [s["layers"] for s in samples if s.get("layers")]
    out = {name: sum(t["self_s"].get(name[:-2], 0.0) for t in traces) for name in LAYER_TIMES}
    out.update({name: sum(t["counts"].get(name, 0.0) for t in traces) for name in LAYER_COUNTS})
    out.update({name: max((t["maxima"].get(name, 0.0) for t in traces), default=0.0)
                for name in LAYER_MAXIMA})
    pairs = useful = 0
    for t in traces:
        calls = t["ratio_calls"]
        full = max((rows for rows, _ in calls), default=0)
        pairs += sum(p for _, p in calls)
        useful += sum(p for rows, p in calls if rows == full)
    # pairs on the full table / all pairs; 1 when the pass makes none
    out["kernels.ratio_useful_frac"] = useful / pairs if pairs else 1.0
    root = sum(t["root_s"] for t in traces)
    out["trace.coverage"] = 1.0 - sum(t["root_self_s"] for t in traces) / root if root else 0.0
    return out


def per_layer(passes: list[tuple[bool, list[dict]]]) -> dict:
    traced = [_pass_layers(samples) for is_traced, samples in passes if is_traced]
    values = {name: _median(p[name] for p in traced) for name in traced[0]}
    traced_samples = [s for is_traced, samples in passes if is_traced for s in samples]
    values["cli.import_s"] = _median(s.get("import_s") for s in traced_samples)
    values["cli.import_scipy_s"] = _median(s.get("import_scipy_s") for s in traced_samples)

    def compute(is_traced):
        return _median(sum(s.get("compute_s", 0.0) for s in samples)
                       for flag, samples in passes if flag == is_traced)

    values["trace.overhead_s"] = compute(True) - compute(False)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# -- a run --

def measure(plan, rng, seconds: float, run_one, traced: bool):
    """Passes over the plan for `seconds` of invocations: plain ones (at
    least MIN_PER_INPUT whole passes) or, when traced, an untraced and a
    traced pass in turn (at least one of each). Time spent checking outputs
    extends the deadline. Work starts only when its duration so far predicts
    that it ends by the deadline."""
    passes: list[tuple[bool, list[dict]]] = []
    walls: dict[str, list[float]] = {}
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        for flag in ((False, True) if traced else (False,)):
            done = []
            passes.append((flag, done))
            for step in plan.order(rng):
                if (not traced and len(walls.get(step.key, ())) >= MIN_PER_INPUT and
                        time.monotonic() + statistics.median(walls[step.key]) > deadline):
                    return passes
                sample = run_one(step, flag)
                done.append(sample)
                walls.setdefault(step.key, []).append(sample["wall_s"])
                deadline += sample.get("check_s", 0.0)
        now = time.monotonic()
        if traced and now + (now - began) > deadline:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny input sizes, for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not (SRC / "ebk" / "cli.py").is_file():
        print(f"perfbench: no ebk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rng = random.Random(args.seed)
        plan = WORKLOADS[args.workload]((TINY if args.tiny else FULL)[args.workload], rng)
        passes = measure(plan, rng, args.seconds,
                         lambda step, traced: invoke(step, work, env, traced), bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()

    passes = [(flag, done) for flag, done in passes if done]
    samples = [s for _, done in passes for s in done]
    metrics = per_layer(passes) if args.trace else end_to_end(samples)
    failed = sum(not s["ok"] for s in samples)
    correct = failed == 0
    # at tiny sizes argument parsing alone is a tenth of compute_s
    if args.trace and not args.tiny and metrics["trace.coverage"]["value"] < MIN_COVERAGE:
        correct = False
        print(f"perfbench: traced layers cover {metrics['trace.coverage']['value']:.3f} "
              f"of compute_s, below {MIN_COVERAGE}", file=sys.stderr)
    problems = sorted({p for s in samples if s.get("layers")
                       for p in s["layers"]["missing"] + s["layers"]["hook_errors"]})
    for problem in problems:
        print(f"perfbench: trace: {problem}", file=sys.stderr)
    for s in samples:
        if not s["ok"]:
            print(f"perfbench: {s['key']} failed: {s.get('note')}", file=sys.stderr)
        s.pop("layers", None)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(),
              "inputs": plan.inputs, "trace_problems": problems,
              "steps": {step.key: step.argv for group in plan.groups for step in group},
              "out_rows": {s["key"]: s.get("out_rows") for s in samples},
              "passes": [{"traced": flag, "order": [s["key"] for s in done]}
                         for flag, done in passes],
              "samples": samples}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
