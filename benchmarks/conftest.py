"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and
prints the measured rows next to the paper-reported values.  The
pytest-benchmark fixture times the *harness run* (one round — the
simulations are deterministic); the scientific output is the printed
table, echoed to stdout with ``-s`` or captured in the benchmark
report.
"""

from __future__ import annotations

import os

import pytest

#: Worker-process count for the sweep helpers below, taken from the
#: ``REPRO_BENCH_PARALLEL`` environment variable (``auto`` = one per
#: core, an integer = that many workers).  Unset means serial — the
#: benchmarks time identically to the paper-reproduction runs unless
#: parallelism is asked for explicitly.
BENCH_PARALLEL = os.environ.get("REPRO_BENCH_PARALLEL")


def run_once(benchmark, fn):
    """Benchmark a deterministic simulation exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def write_bench(path, doc) -> None:
    """Write a ``BENCH_*.json`` document crash-safely.

    Atomic temp-file-and-rename (see :mod:`repro.resilience.atomic`),
    so a benchmark run killed mid-write leaves the previous baseline
    intact instead of a truncated JSON that breaks the regression
    gate.  Key order and layout match the old direct writes.
    """
    import json

    from repro.resilience.atomic import atomic_write_text

    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


#: Measurement rounds for the ``test_perf_*`` wall-clock guards,
#: overridable via ``REPRO_BENCH_ROUNDS`` (CI uses the default; 1
#: gives the old single-shot behaviour for quick local runs).
BENCH_ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "3")))


def rate_stats(fn, rounds: int = None, warmup: bool = True) -> dict:
    """Per-round spread of ``rounds`` calls to ``fn`` after one warmup.

    The perf guards compare wall-clock rates, and single rounds on a
    shared machine routinely spread by 10-20% (allocator state, page
    cache, scheduler jitter).  One warmup absorbs the cold-start
    costs; the median of the remaining rounds is robust to a single
    slow outlier, which is the dominant noise shape observed (runs
    are only ever *slowed down* by interference, never sped up).

    Returns ``{"min", "median", "max", "first", "last", "rounds",
    "store"}`` so the BENCH JSONs record the whole spread — when the
    regression gate trips, the baseline's min/max show whether the
    median moved outside the machine's observed noise band or the run
    was just unlucky.  ``first`` and ``last`` are the first and last
    measured rounds in call order: a long-lived process must run as
    fast as a fresh one, and a last round well below the first means
    the rate depends on how many runs came before it (in-process
    drift, such as cyclic-GC cost growing with the heap) rather than
    on the code being measured.  ``store`` is the run-store counter
    delta across the
    measured rounds (hits/misses/stored, from
    :data:`repro.store.STATS`): an all-zero delta *proves* the
    numbers were produced cache-cold, with no memoized simulation
    quietly inflating a rate.
    """
    import statistics

    from repro.store import STATS

    if rounds is None:
        rounds = BENCH_ROUNDS
    if warmup:
        fn()
    before = STATS.snapshot()
    rates = [fn() for _ in range(rounds)]
    return {
        "min": min(rates),
        "median": statistics.median(rates),
        "max": max(rates),
        "first": rates[0],
        "last": rates[-1],
        "rounds": rounds,
        "store": STATS.delta(before),
    }


def median_rate(fn, rounds: int = None, warmup: bool = True) -> float:
    """Median rate only; see :func:`rate_stats` for the spread."""
    return rate_stats(fn, rounds=rounds, warmup=warmup)["median"]


def repetitions(cfg, n_reps):
    """``run_repetitions`` honoring ``REPRO_BENCH_PARALLEL``.

    Parallel and serial aggregates are identical (each repetition is
    an independent seeded simulation); only wall time differs.
    """
    from repro.experiments import run_repetitions

    return run_repetitions(cfg, n_reps=n_reps, parallel=BENCH_PARALLEL)


def sweep_configs(cfgs):
    """Run a list of configs, fanned out when ``REPRO_BENCH_PARALLEL``
    is set; returns results in input order."""
    from repro.experiments import run_many

    if BENCH_PARALLEL is None:
        from repro.experiments import run_experiment

        return [run_experiment(c) for c in cfgs]
    return run_many(cfgs, jobs=BENCH_PARALLEL)


@pytest.fixture
def emit(capsys):
    """Print through pytest's capture so tables land in the report."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _emit
