"""Shared helper for the figure-reproduction benchmarks.

Every benchmark runs its figure exactly once (``pedantic(rounds=1)``): these
are simulations, not microbenchmarks, and their value is the *reproduction*
(shape assertions + printed tables), with the wall-clock as a bonus metric.

Simulation results are cached process-wide by the experiments runner, so
figures that share data (2/3 reuse 1's incast runs; 12/13 reuse 10/11's
fat-tree runs) only pay once — mirroring how the paper's figures were
produced from shared simulation campaigns.

Nothing here records speed: the perf record is ``ledger/run.py``
(``BENCHMARK.json``); the floors a few benchmarks assert inline are sanity
checks on shape.
"""

import pytest


@pytest.fixture
def bench_once(benchmark):
    """Benchmark ``fn`` with a single round/iteration and return its result."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
