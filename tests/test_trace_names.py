"""The benchmark's layer trace finds every name it wraps.

perfbench/layers.py wraps functions at the module or class attribute their
callers look up (cli.variational_spectrum, quantize.reconstruct_surface,
...). A name that is renamed or imported lazily is skipped and only listed
in the trace's `missing`, so the traced coverage drops without an error.
"""
import json
import subprocess
import sys
from pathlib import Path

import ebk

# names the trace still wraps although the program no longer has them
STALE = {"ebk.kernels.bisect_family", "ebk.billiard.marked_action_spectrum"}


def test_the_layer_trace_misses_no_current_name():
    script = ("import json, sys\n"
              "sys.path[:0] = sys.argv[1:]\n"
              "import ebk, layers\n"
              "tracer = layers.Tracer()\n"
              "layers.install(tracer)\n"
              "print(json.dumps([ebk.__file__, tracer.missing]))\n")
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    src = Path(ebk.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script, str(perfbench), str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, missing = json.loads(proc.stdout)
    assert Path(loaded).resolve().parents[1] == src
    assert set(missing) <= STALE, sorted(set(missing) - STALE)
