"""Flux retention: an instance keeps only live jobs.

Retired and failed jobs are popped from the per-instance job table
and the event stream keeps no history, so a full-machine run's
memory does not grow with the jobs it has finished.  The counters
still account for every job.
"""

from repro.core import PartitionSpec, PilotDescription, Session, \
    TaskDescription
from repro.platform import FRONTIER_LATENCIES, generic


def _run():
    session = Session(cluster=generic(4, cores_per_node=8),
                      latencies=FRONTIER_LATENCIES, seed=42)
    pmgr = session.pilot_manager()
    tmgr = session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=4, partitions=(PartitionSpec("flux", n_instances=2),)))
    tmgr.add_pilot(pilot)
    tasks = tmgr.submit_tasks(
        [TaskDescription(duration=1.0)] * 30
        + [TaskDescription(duration=1.0, fail=True)] * 2)
    session.run(tmgr.wait_tasks())
    return pilot.agent.executors["flux"].hierarchy.instances, tasks


class TestLeanFluxRetention:
    def test_lean_drops_retired_jobs(self):
        instances, tasks = _run()
        assert sum(t.succeeded for t in tasks) == 30
        for inst in instances:
            assert inst._jobs == {}, "retired jobs must be dropped"
            assert not hasattr(inst.events, "_history")

    def test_lean_counters_still_accurate(self):
        instances, _ = _run()
        assert sum(inst.n_submitted for inst in instances) == 32
        assert sum(inst.n_completed for inst in instances) == 30
        assert sum(inst.n_failed for inst in instances) == 2
        assert all(inst.outstanding == 0 for inst in instances)
