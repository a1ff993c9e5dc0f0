import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_kernels():
    """benchmarks/bench_kernels.py loaded as a module: its rows, and the
    copies of replaced code that it times against."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench
