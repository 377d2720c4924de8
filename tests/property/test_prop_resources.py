"""Property-based tests for resource-allocation invariants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ResourceError
from repro.platform import Allocation, NodeHealth, ResourceSpec, generic
from repro.sim import Environment, Resource
from tests.platform.test_cluster import assert_counters, place_checked


class TestNodeInvariants:
    @given(st.integers(1, 64),
           st.lists(st.integers(1, 16), min_size=1, max_size=30))
    def test_no_slot_oversubscription(self, n_cores, requests):
        """Grants never hold more than a node's capacity between them."""
        alloc = generic(1, cores_per_node=n_cores).allocate_nodes(1)
        node = alloc.nodes[0]
        held = []
        for req in requests:
            grant = alloc.try_place(ResourceSpec(cores=req))
            if grant is None:
                assert not node.can_fit(req)
                continue
            assert grant.nodes == [node] and grant.node_cores == [req]
            held.append(grant)
        used = sum(g.cores for g in held)
        assert used <= n_cores
        assert node.free_cores == n_cores - used

    @given(st.integers(1, 32),
           st.lists(st.tuples(st.integers(1, 8), st.booleans()),
                    min_size=1, max_size=40))
    def test_alloc_release_conserves_capacity(self, n_cores, ops):
        alloc = generic(1, cores_per_node=n_cores).allocate_nodes(1)
        held = []
        for cores, release in ops:
            if release and held:
                alloc.release(held.pop())
            else:
                grant = alloc.try_place(ResourceSpec(cores=cores))
                if grant is not None:
                    held.append(grant)
        for grant in held:
            alloc.release(grant)
        assert alloc.nodes[0].is_idle


#: Random operations: ``(op, i, cores, gpus, pick)``.  ``place`` asks
#: allocation ``pick`` (pilot, partitions, or one built by ``watch``)
#: for ``cores``/``gpus`` (``place_x`` for whole nodes); ``release`` hands
#: back outstanding grant ``pick``; ``drain``/``fail``/``recover`` act
#: on node ``i``; ``watch`` builds one more allocation over
#: ``nodes[i:]`` in their current state.
NODE_OPS = st.lists(
    st.tuples(st.sampled_from(["place"] * 3 + ["place_x"] * 2
                              + ["release"] * 3
                              + ["drain", "fail", "recover", "watch"]),
              st.integers(0, 3), st.integers(0, 10), st.integers(0, 5),
              st.integers(0, 1000)),
    min_size=1, max_size=60)


class TestSlotOracle:
    """Count oracle: per node, free + lost + held by live grants equals
    capacity; unhealthy nodes have nothing free; every allocation's
    free, usable and down counters equal a recount; every node below an
    allocation's scan hint is fully busy; and every grant is what a
    brute-force first-fit picks — whatever mix of operations ran
    (grants across partition boundaries, releases over DOWN nodes,
    allocations built over nodes that are already draining or down)."""

    @staticmethod
    def check(nodes, outstanding, watchers):
        for node in nodes:
            held_c = held_g = 0
            for _, grant in outstanding:
                for n, cores, gpus in zip(grant.nodes, grant.node_cores,
                                          grant.node_gpus):
                    if n is node:
                        held_c += cores
                        held_g += gpus
            assert node.free_cores + node.lost_cores + held_c \
                == node.n_cores, node
            assert node.free_gpus + node.lost_gpus + held_g \
                == node.n_gpus, node
            assert min(node.free_cores, node.free_gpus,
                       node.lost_cores, node.lost_gpus) >= 0, node
            if node.health is not NodeHealth.UP:
                # Unhealthy nodes read as fully busy to placement.
                assert node.free_cores == 0 and node.free_gpus == 0
        assert sum(len(w._live) for w in watchers) == len(outstanding)
        for owner, grant in outstanding:
            assert owner._live[id(grant)] is grant
        assert_counters(*watchers)
        for alloc in watchers:
            for node in alloc.nodes[:alloc._scan_hint]:
                assert node.free_cores == 0 and node.free_gpus == 0

    @given(NODE_OPS)
    @example([("place_x", 0, 5, 0, 1),     # partition 0 takes nodes 0-1
              ("place", 0, 1, 0, 0),       # pilot scans past them
              ("release", 0, 0, 0, 0),     # pilot hint must fall to 0
              ("place", 0, 8, 2, 0)])
    @settings(max_examples=150, deadline=None)
    def test_slots_partitioned_and_counters_exact(self, ops):
        alloc = generic(4, cores_per_node=4,
                        gpus_per_node=2).allocate_nodes(4)
        watchers = [alloc] + alloc.partition(2)
        nodes = alloc.nodes
        outstanding = []
        for op, i, cores, gpus, pick in ops:
            if op in ("place", "place_x"):
                if not (cores or gpus):
                    continue
                owner = watchers[pick % len(watchers)]
                spec = ResourceSpec(cores=cores, gpus=gpus,
                                    exclusive_nodes=op == "place_x")
                grant = place_checked(owner, spec)
                if grant is not None:
                    outstanding.append((owner, grant))
            elif op == "release":
                if not outstanding:
                    continue
                k = pick % len(outstanding)
                owner, grant = outstanding[k]
                wrong = watchers[(watchers.index(owner) + 1 + pick)
                                 % len(watchers)]
                if wrong is not owner:
                    with pytest.raises(ResourceError):
                        wrong.release(grant)
                    self.check(nodes, outstanding, watchers)
                del outstanding[k]
                owner.release(grant)
                with pytest.raises(ResourceError):
                    owner.release(grant)
            elif op == "watch":
                watchers.append(Allocation(alloc.cluster, nodes[i:]))
            else:
                getattr(nodes[i], op)()
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
            grant = alloc.try_place(ResourceSpec(cores=cores))
            if grant is None:
                # Nothing may have been claimed by a failed placement.
                continue
            assert grant.cores == cores
            placed.append(grant)
        used = sum(grant.cores for grant in placed)
        assert used + alloc.free_cores == total
        for grant in placed:
            alloc.release(grant)
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
