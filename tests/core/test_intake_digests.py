"""Pinned trace digests for every way tasks reach the agent.

The agent admits tasks in waves: a list handed to
``TaskManager.submit_tasks``, a single description, and a service's
task all go through the same serialized dispatch stage.  The runs
below cover the intake shapes no other pinned table exercises —
dependency-driven single submissions (``WorkflowRunner``), timed
single submissions and their ``ReplayRunner`` replays, a service
beside a task wave, and the fault-injection configurations — each at
fixed seeds.  The digests were captured from the per-task intake
store that predates wave admission; they must never be regenerated,
only reproduced.
"""

import hashlib

import pytest

from repro.analytics import save_profile
from repro.core import (
    PartitionSpec,
    PilotDescription,
    ServiceDescription,
    Session,
    TaskDescription,
)
from repro.experiments.configs import (
    DEFAULT_FAULTS,
    ExperimentConfig,
    faults_configs,
)
from repro.experiments.harness import run_experiment
from repro.platform import ResourceSpec, generic
from repro.platform.latency import DETERMINISTIC_LATENCIES, FRONTIER_LATENCIES
from repro.workloads import (
    SKIP_DEPENDENTS,
    ReplayRunner,
    Workflow,
    WorkflowRunner,
    workload_from_trace,
)


def _sha(profiler, tmp_path, tag):
    path = tmp_path / f"{tag}.jsonl"
    save_profile(profiler, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pilot(backend, seed, latencies=FRONTIER_LATENCIES):
    session = Session(cluster=generic(4, 8, 2), latencies=latencies,
                      seed=seed)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=4, partitions=(PartitionSpec(backend),)))
    tmgr.add_pilot(pilot)
    return session, tmgr, pilot


def _dag(seed, latencies=FRONTIER_LATENCIES):
    """Fan-out/fan-in workflow on flux with one failing node: its
    dependents are skipped, the other branches run on."""
    session, tmgr, _ = _pilot("flux", seed, latencies)
    wf = Workflow("fan")
    wf.add("root", TaskDescription(duration=4.0))
    for i in range(6):
        wf.add(f"mid{i}", TaskDescription(
            duration=3.0 + i, fail=(i == 2),
            resources=ResourceSpec(cores=1 + i % 3)), depends_on=("root",))
    wf.add("join_a", TaskDescription(duration=2.0),
           depends_on=("mid0", "mid1"))
    wf.add("join_b", TaskDescription(duration=2.0),
           depends_on=("mid2", "mid3"))
    wf.add("sink", TaskDescription(duration=1.0),
           depends_on=("join_a", "mid4", "mid5"))
    runner = WorkflowRunner(session, tmgr, wf,
                            failure_policy=SKIP_DEPENDENTS)
    session.run(runner.start())
    assert runner.result.skipped == ["join_b"]
    return session


def _staggered(backend, seed, latencies=FRONTIER_LATENCIES):
    """Single-task submissions arriving over time, two at a time every
    third step, so some land while the dispatch stage is busy."""
    session, tmgr, _ = _pilot(backend, seed, latencies)

    def feed(env):
        for i in range(12):
            tmgr.submit_tasks(TaskDescription(
                duration=6.0 + i, resources=ResourceSpec(cores=1 + i % 3)))
            if i % 3:
                yield env.timeout(2.5)
    session.run(session.env.process(feed(session.env)))
    session.run(tmgr.wait_tasks())
    return session


def _replay(backend, seed):
    source = _staggered(backend, seed)
    session, tmgr, _ = _pilot(backend, seed + 1)
    runner = ReplayRunner(session, tmgr, workload_from_trace(source.profiler),
                          time_scale=0.5)
    session.run(runner.start())
    assert len(runner.tasks) == 12
    return session


def _service(seed):
    """A service on a flux pilot, then a 20-task wave beside it."""
    session, tmgr, pilot = _pilot("flux", seed)
    session.run(pilot.active_event())
    service = pilot.start_service(ServiceDescription(
        name="learner", resources=ResourceSpec(cores=4), startup_time=3.0))
    tasks = tmgr.submit_tasks([
        TaskDescription(duration=2.0 + i % 4,
                        resources=ResourceSpec(cores=1 + i % 2))
        for i in range(20)])
    session.run(tmgr.wait_tasks(tasks))
    assert service.is_ready
    assert all(t.succeeded for t in tasks)
    return session


def _experiment(cfg):
    return run_experiment(cfg, keep_session=True).session


_FAULT_CFGS = {cfg.exp_id: cfg for cfg in faults_configs(seed=0)}

#: name -> builder returning the finished session.
SCENARIOS = {
    "dag_flux_s81": lambda: _dag(81),
    "dag_flux_s82": lambda: _dag(82),
    "dag_flux_det": lambda: _dag(83, DETERMINISTIC_LATENCIES),
    "staggered_flux": lambda: _staggered("flux", 11),
    "staggered_srun": lambda: _staggered("srun", 12),
    "staggered_dragon": lambda: _staggered("dragon", 13),
    "staggered_flux_det": lambda: _staggered("flux", 14,
                                             DETERMINISTIC_LATENCIES),
    "replay_flux": lambda: _replay("flux", 21),
    "replay_srun": lambda: _replay("srun", 22),
    "replay_dragon": lambda: _replay("dragon", 23),
    "service_flux": lambda: _service(31),
    "faults": lambda: _experiment(_FAULT_CFGS["faults"]),
    "faults_srun": lambda: _experiment(_FAULT_CFGS["faults_srun"]),
    "faults_dragon": lambda: _experiment(_FAULT_CFGS["faults_dragon"]),
    "faults_hybrid": lambda: _experiment(ExperimentConfig(
        exp_id="faults_hybrid", launcher="flux+dragon", workload="mixed",
        n_nodes=4, n_partitions=2, duration=0.0, waves=1, seed=5,
        faults=DEFAULT_FAULTS)),
}

#: sha256 of each scenario's profile, captured from the per-task
#: intake store.
PINNED = {
    "dag_flux_det":
        "ee7fdec6324c0311205584ceb08898b638cae0e54ee7fa17698f8ffc7b2d658e",
    "dag_flux_s81":
        "27e7dafb1f93d1efa4aad8ddccd1028569d0606d7b563f7c313919e5644eb773",
    "dag_flux_s82":
        "9f5fcd064e054c50284d2c71c2da8ed561be526b69dc67ce9bd794892c73e3b8",
    "faults":
        "26d6720b992b36c98a371bd13c89aa45bdf5dea49638796f92fe0095f756e258",
    "faults_dragon":
        "02035b37c340d16d5e169e3e526cd05326466cf62294872fbe99b0f5208d7eba",
    "faults_hybrid":
        "979a9da36aef8d1a46eebf7936f797d243eac816dba72fdaffb96d3bd2ed61c6",
    "faults_srun":
        "4016fb9dd5a5cae1f9949289ed16a5c46cf2f1bd1cd30533c2a989412c5a2d3e",
    "replay_dragon":
        "b8be91907d933c3f6f110faaf9d24dfaacd01c7ce8c8616cb6858df62a61bda9",
    "replay_flux":
        "dafb1071dee26ecee785cc3b0b95cd737721851b056b7533e9f1fa8933bebe93",
    "replay_srun":
        "9e6d848e948ca5076d857f912994e06f13afaedb6eccd6c93afd489b0a14391a",
    "service_flux":
        "e64bdec6a59d963f2bab998c2398f8ae305bcb8724d4b16be3c591a74de7b572",
    "staggered_dragon":
        "c35736bbdeb17fc41fc12c72dc7f9683f9045f74a66b54840c43947422bbae4b",
    "staggered_flux":
        "b9a7ff305efd8e0172fcdeaa3628afe7c9ccb9456fdeb54e651352528c3e6248",
    "staggered_flux_det":
        "47a6d4635fb13c742b19f42d68361a266f761686361671163cc38b2750177fde",
    "staggered_srun":
        "38b583c14e149d3934cc0ba8566bd080bc5c9237cfc232f885ac683fe9fb7648",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_intake_trace_matches_pin(name, tmp_path):
    session = SCENARIOS[name]()
    assert _sha(session.profiler, tmp_path, name) == PINNED[name]
