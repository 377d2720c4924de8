"""Unit tests for the agent's partition scheduler."""

import pytest

from repro.core.agent.scheduler import PartitionScheduler
from repro.exceptions import SchedulingError
from repro.platform import ResourceSpec, generic
from repro.sim import Environment


@pytest.fixture
def sched(env):
    alloc = generic(2).allocate_nodes(2)  # 16 cores
    return PartitionScheduler(env, alloc)


class TestPlacement:
    def test_immediate_grant(self, env, sched):
        ev = sched.place(ResourceSpec(cores=4))
        assert ev.triggered
        grant = ev.value
        assert grant.cores == 4
        assert grant.nodes == sched.allocation.nodes[:1]

    def test_queues_when_full(self, env, sched):
        sched.place(ResourceSpec(cores=16))
        ev = sched.place(ResourceSpec(cores=1))
        assert not ev.triggered
        assert sched.queue_depth == 1

    def test_free_drains_fifo(self, env, sched):
        first = sched.place(ResourceSpec(cores=16))
        ev1 = sched.place(ResourceSpec(cores=8))
        ev2 = sched.place(ResourceSpec(cores=8))
        sched.free(first.value)
        assert ev1.triggered and ev2.triggered

    def test_strict_fifo_blocks_small_behind_big(self, env, sched):
        hold = sched.place(ResourceSpec(cores=12))
        big = sched.place(ResourceSpec(cores=16))     # cannot fit now
        small = sched.place(ResourceSpec(cores=1))    # could fit, but FIFO
        assert not big.triggered
        assert not small.triggered
        sched.free(hold.value)
        assert big.triggered
        assert small.triggered is False or sched.allocation.free_cores == 0

    def test_counts(self, env, sched):
        sched.place(ResourceSpec(cores=1))
        sched.place(ResourceSpec(cores=1))
        assert sched.n_placed == 2

    def test_cancel_pending_fails_waiters(self, env, sched):
        sched.place(ResourceSpec(cores=16))
        ev = sched.place(ResourceSpec(cores=1))
        sched.cancel_pending()
        assert ev.triggered
        assert not ev._ok
        assert isinstance(ev._value, SchedulingError)

    def test_full_cycle_restores_capacity(self, env, sched):
        evs = [sched.place(ResourceSpec(cores=4)) for _ in range(4)]
        for ev in evs:
            sched.free(ev.value)
        assert sched.allocation.free_cores == 16
