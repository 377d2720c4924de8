"""Tests for agent internals: dispatch cost, capacity, bookkeeping."""

import pytest

from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.platform import DETERMINISTIC_LATENCIES, generic


def active_agent(partitions, nodes=8, latencies=None, seed=42):
    session = Session(cluster=generic(nodes, 8, 2),
                      latencies=latencies or DETERMINISTIC_LATENCIES,
                      seed=seed)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=nodes, partitions=partitions))
    tmgr.add_pilot(pilot)
    session.run(pilot.active_event())
    return session, tmgr, pilot.agent


class TestDispatchCost:
    def test_base_plus_per_node(self):
        lat = DETERMINISTIC_LATENCIES
        _, _, agent = active_agent((PartitionSpec("srun"),), nodes=8)
        expected = lat.agent_dispatch_base + 8 * lat.agent_dispatch_per_node
        assert agent._dispatch_mean() == pytest.approx(expected)

    def test_flux_instances_add_coordination(self):
        lat = DETERMINISTIC_LATENCIES
        _, _, agent = active_agent(
            (PartitionSpec("flux", n_instances=4),), nodes=8)
        base = lat.agent_dispatch_base + 8 * lat.agent_dispatch_per_node
        expected = base * (1 + 4 * lat.agent_coord_per_instance)
        assert agent._dispatch_mean() == pytest.approx(expected)

    def test_dragon_instances_do_not_add_flux_penalty(self):
        lat = DETERMINISTIC_LATENCIES
        _, _, agent = active_agent(
            (PartitionSpec("dragon", n_instances=4),), nodes=8)
        expected = lat.agent_dispatch_base + 8 * lat.agent_dispatch_per_node
        assert agent._dispatch_mean() == pytest.approx(expected)


class TestMaxTaskCapacity:
    def test_flux_capacity_is_widest_instance(self):
        _, _, agent = active_agent(
            (PartitionSpec("flux", n_instances=4),), nodes=8)
        cores, gpus = agent.max_task_capacity()
        assert cores == 2 * 8  # 2 nodes x 8 cores per instance
        assert gpus == 2 * 2

    def test_srun_capacity_is_whole_partition(self):
        _, _, agent = active_agent((PartitionSpec("srun"),), nodes=8)
        cores, _ = agent.max_task_capacity()
        assert cores == 64

    def test_mixed_backends_take_max(self):
        _, _, agent = active_agent(
            (PartitionSpec("flux", n_instances=2, nodes=4),
             PartitionSpec("srun", nodes=4)), nodes=8)
        cores, _ = agent.max_task_capacity()
        # srun spans its 4-node partition (32 cores); each flux
        # instance has 2 nodes (16 cores).
        assert cores == 32


class TestBookkeeping:
    def test_counters_after_mixed_outcomes(self):
        session, tmgr, agent = active_agent((PartitionSpec("flux"),))
        tmgr.submit_tasks([TaskDescription(duration=1.0) for _ in range(6)])
        tmgr.submit_tasks([TaskDescription(duration=1.0, fail=True)
                           for _ in range(2)])
        session.run(tmgr.wait_tasks())
        assert agent.n_dispatched == 8
        assert agent.n_done == 6
        assert agent.n_failed == 2
        assert agent.n_canceled == 0
        assert not agent._inflight

    def test_cancel_counter(self):
        session, tmgr, agent = active_agent((PartitionSpec("flux"),))
        tmgr.submit_tasks([TaskDescription(duration=1e6) for _ in range(3)])
        session.run(until=session.now + 30.0)
        tmgr.cancel_tasks()
        assert agent.n_canceled == 3

    def test_retired_counter_feeds_dynamic_router(self):
        session, tmgr, agent = active_agent((PartitionSpec("flux"),))
        tmgr.submit_tasks([TaskDescription(duration=1.0) for _ in range(5)])
        session.run(tmgr.wait_tasks())
        assert agent.executors["flux"].n_retired == 5
        assert agent.executors["flux"].ready_at is not None
