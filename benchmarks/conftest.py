"""Shared configuration for the benchmark harness.

Every bench regenerates one table/figure/observation of the paper,
prints a paper-vs-measured report, and asserts the qualitative shape.
The files are named ``bench_*.py``, which pytest does not collect from
a directory, so name each one::

    PYTHONPATH=src python -m pytest --benchmark-only -s \
        benchmarks/bench_fig9_throughput_sweep.py \
        benchmarks/bench_table2_buffer_energy.py

(`-s` shows the regenerated tables; without it they are still checked
by assertions.)  Benches use ``benchmark.pedantic(..., rounds=1)``
because each run is a full simulation campaign, not a microbenchmark.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    """``once(fn)`` -> fn's result, timed as a single round."""

    def _run(fn):
        return run_once(benchmark, fn)

    return _run
