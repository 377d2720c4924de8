"""Memory and GC policy of a run (docs/MODEL.md section 5).

``run_experiment`` keeps the cyclic collector off for the call, so a
finished run must free itself by reference counting alone: after a
``keep_session=False`` run is dropped, ``gc.collect()`` finds nothing.
A new back-reference anywhere in the stack fails these tests instead
of silently costing a collector pass per run.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments import harness
from repro.experiments.configs import config_by_id, faults_configs

#: One small config per Table-1 launcher, plus the fault-injection runs.
CONFIGS = [
    config_by_id("srun", n_nodes=2, waves=1),
    config_by_id("flux_1", n_nodes=2, waves=1),
    config_by_id("flux_n", n_nodes=8, n_partitions=4, waves=1),
    config_by_id("dragon", n_nodes=2, waves=1),
    config_by_id("flux+dragon", n_nodes=4, waves=1),
    ExperimentConfig(exp_id="prrte", launcher="prrte", workload="null",
                     n_nodes=2, waves=1),
    config_by_id("impeccable_srun", n_nodes=256, generations=2),
    config_by_id("impeccable_flux", n_nodes=256, generations=2),
] + [replace(cfg, waves=1) for cfg in faults_configs(seed=1)]


def collect_all():
    """Clear garbage earlier tests left: finalizers that run during a
    collection can leave new garbage for the next one."""
    while gc.collect():
        pass


def _id(cfg):
    return f"{cfg.exp_id}-{cfg.launcher}-{cfg.n_nodes}n"


@pytest.fixture
def gc_enabled():
    """Start from an enabled collector whatever ran before."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.mark.parametrize("cfg", CONFIGS, ids=_id)
def test_dropped_run_leaves_no_cyclic_garbage(cfg, gc_enabled):
    run_experiment(cfg)  # first-use imports and caches
    collect_all()
    result = run_experiment(cfg)
    assert result.n_done + result.n_failed == result.n_tasks
    del result
    assert gc.collect() == 0


@pytest.mark.parametrize("keep_session", [False, True])
def test_no_collection_starts_inside_a_run(gc_enabled, keep_session):
    # The run's own allocations never start a collection; the one they
    # make due starts after the call returns.
    cfg = config_by_id("flux+dragon", n_nodes=16, waves=1)
    inside = [False]
    starts = []

    def on_gc(phase, info):
        if phase == "start" and inside[0]:
            starts.append(info["generation"])

    collect_all()
    gc.callbacks.append(on_gc)
    try:
        inside[0] = True
        run_experiment(cfg, keep_session=keep_session)
        inside[0] = False
        due = gc.get_count()[0]
    finally:
        gc.callbacks.remove(on_gc)
    assert starts == []
    assert due > gc.get_threshold()[0]


def test_collector_restored_after_normal_return(gc_enabled):
    run_experiment(config_by_id("srun", n_nodes=1, waves=1))
    assert gc.isenabled()


def test_collector_restored_after_raising_run(gc_enabled, monkeypatch):
    def boom(cfg):
        assert not gc.isenabled()
        raise RuntimeError("pilot description failed")

    monkeypatch.setattr(harness, "build_pilot_description", boom)
    with pytest.raises(RuntimeError, match="pilot description failed"):
        run_experiment(config_by_id("srun", n_nodes=1, waves=1))
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled(gc_enabled):
    gc.disable()
    run_experiment(config_by_id("srun", n_nodes=1, waves=1))
    assert not gc.isenabled()


def test_kept_session_is_not_unwired():
    cfg = config_by_id("flux+dragon", n_nodes=4, waves=1)
    result = run_experiment(cfg, keep_session=True)
    session = result.session
    assert len(session.profiler) > 0
    assert all(node._watchers for node in session.cluster.nodes)
    (pmgr,) = session._pilot_managers
    (pilot,) = pmgr.pilots
    agent = pilot.agent
    assert pilot.completion_event().callbacks  # the manager's node release
    assert set(agent.executors) == {"flux", "dragon"}
    for inst in agent.executors["flux"].hierarchy.instances:
        assert inst.events._subscribers
    for rt in agent.executors["dragon"].runtimes:
        assert rt.on_task_start is not None
