"""Simulator-kernel throughput benchmark (not a paper figure).

Measures how many *simulated* tasks the DES stack pushes through per
wall-clock second on the fixed reference configuration — 64 nodes,
4 Flux partitions, one full null-task load (14,336 tasks) — and
writes the number to ``BENCH_kernel.json`` at the repo root, so that
kernel performance can be tracked across commits.  A second point
measures the placement-heavy path: the IMPECCABLE.v2 campaign on srun
at 1,024 nodes (ESMACS tasks span 25 nodes, ``scoring_mmpbsa`` tasks
128 whole nodes), written as ``tasks_per_wall_second_impeccable_srun``.
The simulated metrics themselves are deterministic; only the wall
rate varies.

See docs/MODEL.md, "Performance model of the simulator itself", for
where the cycles go and what the fast paths are.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from repro.experiments import (ExperimentConfig, run_experiment,
                               table1_configs)

from .conftest import BENCH_ROUNDS, rate_stats, run_once, write_bench

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Floor on the median rate of the later half of the measured rounds
#: relative to the earlier half's: runs later in a long-lived process
#: must not slow down.  Single rounds spread by about 20% on a shared
#: host, so one round against one round cannot tell drift from noise;
#: half medians over ``DRIFT_ROUNDS`` or more rounds can.
MIN_LAST_OVER_FIRST = 0.8
DRIFT_ROUNDS = 6

#: The reference point: flux backend, 4 partitions, 64 nodes, 4 waves
#: of null tasks = 64 * 56 * 4 = 14,336 tasks.
CFG = ExperimentConfig(exp_id="perf_kernel", launcher="flux",
                       workload="null", n_nodes=64, n_partitions=4,
                       waves=4, seed=0)


#: The placement-heavy point: Table 1's impeccable_srun row at 1,024
#: nodes, seed 0 (1,620 tasks).  One run lasts only a few tenths of a
#: second, so a round is ``IMPECCABLE_RUNS`` back-to-back runs, about
#: as long as one round of the reference point.
IMPECCABLE_CFG = next(
    cfg for cfg in table1_configs()
    if cfg.exp_id == "impeccable_srun" and cfg.n_nodes == 1024
).with_seed(0)
IMPECCABLE_RUNS = 4


def _rate(cfg: ExperimentConfig, n_tasks: int, runs: int = 1) -> float:
    wall = 0.0
    for _ in range(runs):
        result = run_experiment(cfg)
        assert result.n_tasks == n_tasks
        assert result.n_done == result.n_tasks
        wall += result.wall_seconds
    return runs * n_tasks / wall


def _measure(rate) -> dict:
    """Rate spread over enough rounds for the drift check, with the
    medians of the earlier and later half of them (the middle round
    of an odd count is in neither)."""
    stats = rate_stats(rate, rounds=max(BENCH_ROUNDS, DRIFT_ROUNDS))
    rates = stats["rates"]
    half = len(rates) // 2
    stats["first_half"] = statistics.median(rates[:half])
    stats["second_half"] = statistics.median(rates[-half:])
    return stats


def _report(suffix: str, label: str, stats: dict, emit) -> None:
    """Merge one point's rate and spread into ``BENCH_kernel.json``
    (keeping the other point's entries), print it and check drift."""
    doc = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.is_file() else {}
    doc.update({"tasks_per_wall_second" + suffix: stats["median"],
                "spread" + suffix: stats, "rounds": stats["rounds"]})
    write_bench(BENCH_FILE, doc)
    emit(f"{label}: {stats['median']:,.0f} simulated tasks / wall second "
         f"(median of {stats['rounds']} after warmup, round spread "
         f"{stats['min']:,.0f}-{stats['max']:,.0f}, first-half median "
         f"{stats['first_half']:,.0f}, second-half median "
         f"{stats['second_half']:,.0f})\n"
         f"wrote {BENCH_FILE}")
    assert stats["second_half"] >= (
        MIN_LAST_OVER_FIRST * stats["first_half"]), (
        f"in-process drift: the later rounds ran at a median "
        f"{stats['second_half']:,.0f} tasks/s, under "
        f"{MIN_LAST_OVER_FIRST:.0%} of the earlier rounds' "
        f"{stats['first_half']:,.0f}")


def test_kernel_tasks_per_wall_second(benchmark, emit):
    stats = run_once(benchmark, lambda: _measure(lambda: _rate(CFG, 14336)))
    _report("", "kernel throughput", stats, emit)


def test_impeccable_srun_tasks_per_wall_second(benchmark, emit):
    stats = run_once(benchmark, lambda: _measure(
        lambda: _rate(IMPECCABLE_CFG, 1620, IMPECCABLE_RUNS)))
    _report("_impeccable_srun", "impeccable_srun throughput", stats, emit)
