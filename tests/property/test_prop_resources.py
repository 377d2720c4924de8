"""Property-based tests for resource-allocation invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ResourceError
from repro.platform import (Allocation, Node, NodeHealth, ResourceSpec,
                            generic)
from repro.sim import Environment, Resource


class TestNodeInvariants:
    @given(st.integers(1, 64),
           st.lists(st.integers(1, 16), min_size=1, max_size=30))
    def test_no_slot_oversubscription(self, n_cores, requests):
        """Granted slots are always disjoint and within capacity."""
        node = Node(0, n_cores)
        held = []
        for req in requests:
            try:
                held.append(node.allocate(req))
            except ResourceError:
                continue
        slots = [s for pl in held for s in pl.core_slots]
        assert len(slots) == len(set(slots))
        assert len(slots) <= n_cores
        assert node.free_cores == n_cores - len(slots)

    @given(st.integers(1, 32),
           st.lists(st.tuples(st.integers(1, 8), st.booleans()),
                    min_size=1, max_size=40))
    def test_alloc_release_conserves_capacity(self, n_cores, ops):
        node = Node(0, n_cores)
        held = []
        for cores, release in ops:
            if release and held:
                node.release(held.pop())
            else:
                try:
                    held.append(node.allocate(cores))
                except ResourceError:
                    pass
        for pl in held:
            node.release(pl)
        assert node.is_idle


#: Random node operations: ``(op, node, cores, gpus, pick)``.  ``pick``
#: chooses which outstanding placement a release returns; ``watch``
#: builds one more allocation over the nodes in their current state.
NODE_OPS = st.lists(
    st.tuples(st.sampled_from(["allocate", "allocate", "release", "release",
                               "drain", "fail", "recover", "watch"]),
              st.integers(0, 2), st.integers(0, 6), st.integers(0, 3),
              st.integers(0, 1000)),
    min_size=1, max_size=60)


class TestSlotOracle:
    """The free lists, the lost lists and the outstanding placements
    partition every node's slots, and the watchers' counters equal a
    recount, whatever mix of operations ran (including allocations
    built over nodes that are already draining or down)."""

    @staticmethod
    def check(nodes, outstanding, watchers):
        for node in nodes:
            mine = [pl for pl in outstanding if pl.node_index == node.index]
            for kind, n_slots in (("cores", node.n_cores),
                                  ("gpus", node.n_gpus)):
                parts = [getattr(node, "_free_" + kind),
                         getattr(node, "_lost_" + kind)]
                parts += [pl.core_slots if kind == "cores" else pl.gpu_slots
                          for pl in mine]
                slots = [s for part in parts for s in part]
                assert len(slots) == len(set(slots)), (node, kind)
                assert sorted(slots) == list(range(n_slots)), (node, kind)
            assert len(node._live) == len(mine)
            if node.health is not NodeHealth.UP:
                # Unhealthy nodes read as fully busy to placement.
                assert node.free_cores == 0 and node.free_gpus == 0
        for alloc in watchers:
            down = [n for n in alloc.nodes if n.health is NodeHealth.DOWN]
            assert alloc.free_cores == sum(n.free_cores for n in alloc.nodes)
            assert alloc.free_gpus == sum(n.free_gpus for n in alloc.nodes)
            assert alloc.usable_cores == alloc.total_cores - sum(
                n.n_cores for n in down)
            assert alloc.n_down_nodes == len(down)

    @given(NODE_OPS)
    @settings(max_examples=150, deadline=None)
    def test_slots_partitioned_and_counters_exact(self, ops):
        alloc = generic(3, cores_per_node=6,
                        gpus_per_node=3).allocate_nodes(3)
        watchers = [alloc] + alloc.partition(2)
        nodes = alloc.nodes
        outstanding = []
        for op, i, cores, gpus, pick in ops:
            node = nodes[i]
            if op == "allocate":
                try:
                    outstanding.append(node.allocate(cores, gpus))
                except ResourceError:
                    assert not node.can_fit(cores, gpus)
            elif op == "release":
                if not outstanding:
                    continue
                pl = outstanding.pop(pick % len(outstanding))
                alloc.release([pl])
                with pytest.raises(ResourceError):
                    alloc.release([pl])
            elif op == "watch":
                watchers.append(Allocation(alloc.cluster, nodes))
            else:
                getattr(node, op)()
            self.check(nodes, outstanding, watchers)


class TestAllocationInvariants:
    @given(st.integers(1, 8), st.integers(1, 8),
           st.lists(st.integers(1, 40), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_try_place_all_or_nothing(self, n_nodes, cpn, requests):
        alloc = generic(n_nodes, cores_per_node=cpn).allocate_nodes(n_nodes)
        total = alloc.total_cores
        placed = []
        for cores in requests:
            pls = alloc.try_place(ResourceSpec(cores=cores))
            if pls is None:
                # Nothing may have been claimed by a failed placement.
                continue
            assert sum(p.cores for p in pls) == cores
            placed.append(pls)
        used = sum(p.cores for pls in placed for p in pls)
        assert used + alloc.free_cores == total
        for pls in placed:
            alloc.release(pls)
        assert alloc.free_cores == total

    @given(st.integers(2, 12), st.integers(1, 12))
    def test_partition_covers_exactly(self, n_nodes, k):
        if k > n_nodes:
            return
        alloc = generic(n_nodes).allocate_nodes(n_nodes)
        parts = alloc.partition(k)
        indices = sorted(n.index for p in parts for n in p.nodes)
        assert indices == sorted(n.index for n in alloc.nodes)
        sizes = [p.n_nodes for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestSemaphoreInvariants:
    @given(st.integers(1, 8), st.integers(1, 40))
    @settings(max_examples=40)
    def test_concurrency_never_exceeds_capacity(self, capacity, n_procs):
        env = Environment()
        res = Resource(env, capacity=capacity)
        peak = [0]

        def worker(env):
            with res.request() as req:
                yield req
                peak[0] = max(peak[0], res.count)
                yield env.timeout(1.0)

        for _ in range(n_procs):
            env.process(worker(env))
        env.run()
        assert peak[0] <= capacity
        assert res.count == 0
