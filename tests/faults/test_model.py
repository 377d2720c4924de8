"""FaultModel behavior: scripted injection, schedules, accounting."""

import pytest

from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)
from repro.faults import FaultSpec, RetryPolicy
from repro.platform import ResourceSpec, generic
from repro.platform.node import NodeHealth
from repro.workloads.synthetic import dummy_workload


def run_srun_session(spec, n_tasks=32, duration=10.0, seed=5, nodes=4,
                     crash_at=None, repair_at=None, node_index=0):
    """One srun pilot under ``spec``; optionally script a node crash."""
    session = Session(cluster=generic(nodes, 8, 0), seed=seed, faults=spec)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=nodes, partitions=(PartitionSpec("srun"),)))
    tmgr.add_pilot(pilot)
    tasks = tmgr.submit_tasks(dummy_workload(n_tasks, duration=duration))
    node = session.cluster.nodes[node_index]
    if crash_at is not None:
        session.env.schedule_callback(
            crash_at, lambda: session.faults.inject_node_failure(
                pilot.agent, node))
    if repair_at is not None:
        session.env.schedule_callback(
            repair_at, lambda: session.faults.repair_node(pilot.agent, node))
    session.run(tmgr.wait_tasks())
    return session, tasks, node


class TestScriptedNodeFailure:
    def test_crash_kills_and_recovery_completes_tasks(self):
        session, tasks, node = run_srun_session(
            FaultSpec(), n_tasks=32, duration=10.0,
            crash_at=6.0, repair_at=20.0)
        assert all(t.succeeded for t in tasks)
        model = session.faults
        assert model.injected["node_crash"] == 1
        assert model.injected["node_repair"] == 1
        # Something was executing on the node when it died.
        assert model.wasted_core_seconds > 0.0
        assert model.recovery_latencies
        assert model.n_unrecovered == 0
        assert node.health is NodeHealth.UP

    def test_downtime_is_accounted(self):
        session, _tasks, _node = run_srun_session(
            FaultSpec(), crash_at=6.0, repair_at=16.0)
        # One node down for 10 s (repaired while the workload was
        # still draining, so the repair is inside the simulated span).
        assert session.faults.lost_node_seconds == pytest.approx(10.0)

    def test_unrepaired_node_fails_tasks_terminally(self):
        # 4 tasks each needing a full node, on a 1-node partition: after
        # the crash nothing fits, so retries exhaust and the task fails.
        spec = FaultSpec(retry=RetryPolicy(max_attempts=2, backoff_base=0.1,
                                           jitter=0.0))
        session = Session(cluster=generic(1, 8, 0), seed=5, faults=spec)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=1, partitions=(PartitionSpec("srun"),)))
        tmgr.add_pilot(pilot)
        tasks = tmgr.submit_tasks(dummy_workload(4, duration=30.0, cores=8))
        session.env.schedule_callback(
            10.0, lambda: session.faults.inject_node_failure(
                pilot.agent, session.cluster.nodes[0]))
        session.run(tmgr.wait_tasks())
        failed = [t for t in tasks if t.state == TaskState.FAILED]
        assert failed
        assert "retries exhausted" in str(failed[0].exception)
        assert session.faults.n_unrecovered > 0

    def test_injection_is_traced(self):
        session, _tasks, node = run_srun_session(
            FaultSpec(), crash_at=6.0, repair_at=20.0)
        names = [r.name for r in session.profiler
                 if r.entity == node.name]
        assert "fault_injected" in names
        assert "node_failed" in names
        assert "node_recovered" in names


class TestRandomSchedules:
    SPEC = FaultSpec(mtbf=30.0, mttr=10.0, p_launch_fail=0.05,
                     retry=RetryPolicy(backoff_base=0.2, jitter=0.0))

    def test_same_seed_same_schedule(self):
        a, _t, _n = run_srun_session(self.SPEC, seed=9)
        b, _t, _n = run_srun_session(self.SPEC, seed=9)
        assert a.faults.schedule_log == b.faults.schedule_log
        assert a.faults.schedule_log  # something was actually injected
        assert a.faults.injected == b.faults.injected

    def test_different_seed_different_schedule(self):
        a, _t, _n = run_srun_session(self.SPEC, seed=9)
        b, _t, _n = run_srun_session(self.SPEC, seed=10)
        assert a.faults.schedule_log != b.faults.schedule_log

    def test_weibull_schedule_is_deterministic_too(self):
        spec = FaultSpec(mtbf=30.0, dist="weibull", weibull_shape=0.9,
                         mttr=10.0)
        a, _t, _n = run_srun_session(spec, seed=3)
        b, _t, _n = run_srun_session(spec, seed=3)
        assert a.faults.schedule_log == b.faults.schedule_log

    def test_max_node_failures_caps_injection(self):
        spec = FaultSpec(mtbf=5.0, mttr=2.0, max_node_failures=2)
        session, _t, _n = run_srun_session(spec, duration=20.0, seed=9)
        assert session.faults.injected["node_crash"] <= 2


class TestLaunchFaults:
    def test_launch_outcome_disabled_draws_nothing(self):
        session = Session(cluster=generic(2, 8, 0), seed=1,
                          faults=FaultSpec())
        assert session.faults.launch_outcome("srun") is None
        # No draw happened: the stream was never created.
        assert "faults.launch" not in session.rng._streams

    def test_launch_fail_and_timeout_split(self):
        session = Session(cluster=generic(2, 8, 0), seed=1,
                          faults=FaultSpec(p_launch_fail=0.5,
                                           p_launch_timeout=0.5,
                                           launch_timeout=7.0))
        kinds = {session.faults.launch_outcome("x").kind
                 for _ in range(64)}
        assert kinds == {"launch_fail", "launch_timeout"}
        timeouts = [f for f in (session.faults.launch_outcome("x")
                                for _ in range(32))
                    if f.kind == "launch_timeout"]
        assert all(f.delay == 7.0 for f in timeouts)

    def test_launch_failures_are_retried_transparently(self):
        spec = FaultSpec(p_launch_fail=0.2,
                         retry=RetryPolicy(backoff_base=0.1, jitter=0.0))
        session, tasks, _n = run_srun_session(spec, n_tasks=48,
                                              duration=2.0, seed=11)
        assert all(t.succeeded for t in tasks)
        assert session.faults.injected["launch_fail"] > 0
        assert session.faults.n_retries >= session.faults.injected[
            "launch_fail"]


class TestBackendCrash:
    def _flux_session(self, spec, n_instances=2, nodes=8):
        session = Session(cluster=generic(nodes, 8, 0), seed=13, faults=spec)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=nodes,
            partitions=(PartitionSpec("flux", n_instances=n_instances),)))
        tmgr.add_pilot(pilot)
        session.run(pilot.active_event())
        return session, tmgr, pilot

    def test_flux_crash_restarts_and_tasks_recover(self):
        spec = FaultSpec(retry=RetryPolicy(backoff_base=0.2, jitter=0.0))
        session, tmgr, pilot = self._flux_session(spec)
        tasks = tmgr.submit_tasks([TaskDescription(duration=30.0)
                                   for _ in range(32)])
        executor = pilot.agent.executors["flux"]
        victim = executor.hierarchy.instances[0]
        session.env.schedule_callback(
            10.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        assert session.faults.injected["backend_crash"] == 1
        assert session.faults.injected["backend_restart"] == 1
        assert victim.is_ready

    def test_flux_crash_without_restart_fails_over(self):
        spec = FaultSpec(retry=RetryPolicy(backend_restart=False,
                                           backoff_base=0.2, jitter=0.0))
        session, tmgr, pilot = self._flux_session(spec)
        tasks = tmgr.submit_tasks([TaskDescription(duration=30.0)
                                   for _ in range(16)])
        executor = pilot.agent.executors["flux"]
        victim = executor.hierarchy.instances[0]
        session.env.schedule_callback(
            10.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        assert session.faults.injected["backend_restart"] == 0
        assert not victim.is_ready


def run_crash_in_grant(backend, n_nodes, spec, duration=100.0,
                       crash_at=50.0):
    """One ``backend`` pilot running a single ``spec`` task; at
    ``crash_at`` the *last* node of the task's grant fails.

    Returns the session, the task, the failed node and every finished
    attempt as ``(ok, reason, infra)``.
    """
    session = Session(cluster=generic(n_nodes, 8, 0), seed=5,
                      faults=FaultSpec())
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=n_nodes, partitions=(PartitionSpec(backend),)))
    tmgr.add_pilot(pilot)
    [task] = tmgr.submit_tasks([TaskDescription(
        executable="esmacs", resources=spec, duration=duration)])
    attempts, crashed = [], []

    def crash():
        agent = pilot.agent
        executor = agent.executors[backend]
        if backend == "srun":
            [grant] = executor._grants.values()
        else:
            [grant] = [job.grant for inst in executor.hierarchy.instances
                       for job in inst._running]
        assert len(grant.nodes) > 1
        finished = agent.attempt_finished

        def record(t, ok, reason="", infra=False):
            attempts.append((ok, reason, infra))
            finished(t, ok, reason=reason, infra=infra)

        agent.attempt_finished = record
        crashed.append(grant.nodes[-1])
        session.faults.inject_node_failure(agent, grant.nodes[-1])

    session.env.schedule_callback(crash_at, crash)
    session.run(tmgr.wait_tasks())
    return session, task, crashed[0], attempts


class TestNodeFailureHitsGrantMembers:
    """A failure of *any* node a task holds, not only its first, kills
    the task and fails its attempt as an infrastructure failure."""

    def test_srun_step_on_last_node_of_25_node_task_is_killed(self):
        session, task, node, attempts = run_crash_in_grant(
            "srun", 26, ResourceSpec(cores=25 * 8, exclusive_nodes=True))
        assert attempts[0] == (False, f"node failure: {node.name}", True)
        assert session.faults.wasted_core_seconds > 0.0
        # The retry runs on the 25 nodes that are still up.
        assert attempts[1:] == [(True, "", False)]
        assert task.succeeded and task.attempts == 2

    def test_flux_job_on_last_node_of_its_grant_is_killed(self):
        session, task, node, attempts = run_crash_in_grant(
            "flux", 4, ResourceSpec(cores=24))
        assert attempts[0] == (False, f"node failure: {node.name}", True)
        assert session.faults.wasted_core_seconds > 0.0
        assert attempts[1:] == [(True, "", False)]
        assert task.succeeded and task.attempts == 2
