import importlib.util
import os
from pathlib import Path

import pytest

from ebk import EbkError, actions


@pytest.fixture(scope="session")
def bench_kernels():
    """benchmarks/bench_kernels.py loaded as a module: its rows, and the
    copies of replaced code that it times against."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


class Split:
    """The two-process split (actions._in_halves) forced on or off through
    the CPU check, and the forks counted; every call is checked to leave no
    child process behind."""

    def __init__(self, monkeypatch):
        self.on, self.forks, fork = False, 0, os.fork

        def counted():
            self.forks += 1
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(actions, "_two_cpus", lambda: self.on)

    def run(self, on, call, *args):
        """(call(*args), or its EbkError as "Type: text", and the forks it
        made)."""
        self.on, self.forks = on, 0
        try:
            out = call(*args)
        except EbkError as exc:
            out = f"{type(exc).__name__}: {exc}"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return out, self.forks


@pytest.fixture
def split(monkeypatch):
    return Split(monkeypatch)
