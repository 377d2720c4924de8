"""Simulator-kernel throughput benchmark (not a paper figure).

Measures how many *simulated* tasks the DES stack pushes through per
wall-clock second on the fixed reference configuration — 64 nodes,
4 Flux partitions, one full null-task load (14,336 tasks) — and
writes the number to ``BENCH_kernel.json`` at the repo root so the
driver can track kernel performance across commits.  The simulated
metrics themselves are deterministic; only the wall rate varies.

See docs/MODEL.md, "Performance model of the simulator itself", for
where the cycles go and what the fast paths are.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import ExperimentConfig, run_experiment

from .conftest import BENCH_ROUNDS, rate_stats, run_once, write_bench

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Floor on the last measured round's rate relative to the first: runs
#: later in a long-lived process must not slow down (host noise is
#: about 10% per round).
MIN_LAST_OVER_FIRST = 0.8

#: The reference point: flux backend, 4 partitions, 64 nodes, 4 waves
#: of null tasks = 64 * 56 * 4 = 14,336 tasks.
CFG = ExperimentConfig(exp_id="perf_kernel", launcher="flux",
                       workload="null", n_nodes=64, n_partitions=4,
                       waves=4, seed=0)


def _rate() -> float:
    result = run_experiment(CFG)
    assert result.n_tasks == 14336
    assert result.n_done == result.n_tasks
    return result.n_tasks / result.wall_seconds


def test_kernel_tasks_per_wall_second(benchmark, emit):
    stats = run_once(benchmark, lambda: rate_stats(_rate))
    rate = stats["median"]

    write_bench(BENCH_FILE,
                {"tasks_per_wall_second": rate,
                 "spread": stats,
                 "rounds": BENCH_ROUNDS})
    emit(f"kernel throughput: {rate:,.0f} simulated tasks / wall second "
         f"(median of {BENCH_ROUNDS} after warmup, round spread "
         f"{stats['min']:,.0f}-{stats['max']:,.0f}, first "
         f"{stats['first']:,.0f}, last {stats['last']:,.0f})\n"
         f"wrote {BENCH_FILE}")
    assert stats["last"] >= MIN_LAST_OVER_FIRST * stats["first"], (
        f"in-process drift: the last round ran at {stats['last']:,.0f} "
        f"tasks/s, under {MIN_LAST_OVER_FIRST:.0%} of the first round's "
        f"{stats['first']:,.0f}")
