"""Process-parallel harness: serial/parallel equivalence.

The contract of :mod:`repro.experiments.parallel` is that fanning
runs out over worker processes changes *nothing* about the science:
same metrics, same ordering, byte-identical trace exports.  These
tests pin that contract on a seeded hybrid (flux+dragon) experiment.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    resolve_jobs,
    run_many,
    run_repetitions,
)
from repro.experiments.parallel import usable_cores

#: Small but real hybrid run: both backends, mixed CPU/GPU tasks.
CFG = ExperimentConfig(exp_id="hybrid_par", launcher="flux+dragon",
                       workload="mixed", n_nodes=2, n_partitions=1,
                       duration=0.0, waves=1, seed=7)


def _metrics(r):
    return (r.n_tasks, r.n_done, r.n_failed, r.throughput.avg,
            r.throughput.peak, r.utilization_cores, r.makespan)


# -- resolve_jobs -----------------------------------------------------------

def test_resolve_jobs_auto_uses_cores():
    cores = usable_cores()
    assert resolve_jobs(None) == cores
    assert resolve_jobs("auto") == cores
    assert resolve_jobs(0) == cores


def test_usable_cores_follow_affinity(monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cores() == 1
    assert resolve_jobs("auto") == 1


def test_resolve_jobs_explicit_and_clamped():
    assert resolve_jobs(3) == 3
    assert resolve_jobs("3") == 3
    assert resolve_jobs(8, n_items=2) == 2
    assert resolve_jobs(1, n_items=100) == 1


def test_resolve_jobs_rejects_garbage():
    with pytest.raises(ConfigurationError):
        resolve_jobs("many")
    with pytest.raises(ConfigurationError):
        resolve_jobs(-2)
    with pytest.raises(ConfigurationError):
        resolve_jobs("-1")
    with pytest.raises(ConfigurationError):
        resolve_jobs(())


def test_resolve_jobs_string_zero_means_auto():
    assert resolve_jobs("0") == usable_cores()


def test_resolve_jobs_oversubscription_allowed():
    # More workers than cores is the user's call; only n_items clamps.
    cores = usable_cores()
    assert resolve_jobs(cores + 9) == cores + 9
    assert resolve_jobs(cores + 9, n_items=cores + 2) == cores + 2
    # Degenerate n_items never drops below one worker.
    assert resolve_jobs(4, n_items=0) == 1


# -- run_many ---------------------------------------------------------------

def test_run_many_parallel_matches_serial(tmp_path):
    cfgs = [CFG.with_seed(CFG.seed + i) for i in range(3)]
    ser_paths = [str(tmp_path / f"ser_{i}.jsonl") for i in range(3)]
    par_paths = [str(tmp_path / f"par_{i}.jsonl") for i in range(3)]

    serial = run_many(cfgs, jobs=1, profile_paths=ser_paths)
    parallel = run_many(cfgs, jobs=2, profile_paths=par_paths)

    assert len(serial) == len(parallel) == 3
    for s, p in zip(serial, parallel):
        assert _metrics(s) == _metrics(p)
        # Parallel results are stripped of unpicklable state.
        assert p.tasks == [] and p.session is None
    # The trace a worker exported is byte-identical to the serial one.
    for sp, pp in zip(ser_paths, par_paths):
        with open(sp, "rb") as f_s, open(pp, "rb") as f_p:
            assert f_s.read() == f_p.read()


def test_run_many_preserves_input_order():
    cfgs = [CFG.with_seed(10), CFG.with_seed(20)]
    results = run_many(cfgs, jobs=2)
    assert [r.config.seed for r in results] == [10, 20]


def test_run_many_rejects_mismatched_profile_paths(tmp_path):
    with pytest.raises(ConfigurationError):
        run_many([CFG], jobs=1, profile_paths=[None, None])


# -- run_repetitions --------------------------------------------------------

def test_run_repetitions_parallel_aggregate_matches_serial():
    serial = run_repetitions(CFG, n_reps=2)
    parallel = run_repetitions(CFG, n_reps=2, parallel=2)
    assert serial.n_reps == parallel.n_reps == 2
    assert serial.throughput_avg == parallel.throughput_avg
    assert serial.throughput_max == parallel.throughput_max
    assert serial.utilization_avg == parallel.utilization_avg
    assert serial.makespan_avg == parallel.makespan_avg


def test_run_repetitions_parallel_one_keeps_tasks():
    # parallel=1 resolves to the in-process serial path, which keeps
    # the per-task objects available for time-series analysis.
    agg = run_repetitions(CFG, n_reps=1, parallel=1)
    assert agg.results[0].tasks
