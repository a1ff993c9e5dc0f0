"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steady.py [--out FILE] [--compare FILE]

Runs `run.py --trace 0` for every workload of BENCHMARK.json with ten
seeds (1-10, or 11-20 with --compare) for BENCHMARK.json's run_seconds.
Runs of different workloads are interleaved (seed-major), so a slow spell
on the host spreads over all workloads instead of landing on one.
For every workload and end-to-end metric it prints the median and the
spread, the distance between the first and third quartiles as a share of
the median, and flags a spread above a third of the metric's bound. With
--compare it also prints how far each median moved from an earlier summary
and flags a move worse than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def worse_by(new: float, old: float, better: str) -> float:
    change = (new - old) / old if old else 0.0
    return -change if better == "higher" else change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the summary JSON here")
    ap.add_argument("--compare", help="summary JSON of an earlier set of runs")
    args = ap.parse_args()

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    seeds = range(11, 21) if args.compare else range(1, 11)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            t0 = time.monotonic()
            result = run_once(w, seed, BENCHMARK["run_seconds"])
            runs[w].append(result)
            print(f"seed {seed} {w}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"took {time.monotonic() - t0:.1f} s", file=sys.stderr)

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary, steady = {}, True
    for w in workloads:
        summary[w] = {}
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med, sp = spread(values)
            summary[w][name] = {"median": med, "spread": sp, "values": values}
            flag = "" if sp <= bound / 3 else "  SPREAD > bound/3"
            line = f"{w:12s} {name:12s} median {med:12.6g}  spread {sp:7.4f}  bound {bound}"
            if earlier:
                moved = worse_by(med, earlier[w][name]["median"], metric["better"])
                line += f"  worse by {moved:+.4f}"
                if moved > bound:
                    flag += "  MOVED > bound"
            steady = steady and not flag
            print(line + flag)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
