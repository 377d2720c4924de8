"""Unit tests for Cluster and Allocation."""

import pytest

from repro.exceptions import AllocationError
from repro.platform import (Allocation, Cluster, NodeHealth, ResourceSpec,
                            frontier, generic)


class TestCluster:
    def test_frontier_profile(self):
        cluster = frontier(16)
        assert cluster.cores_per_node == 56
        assert cluster.gpus_per_node == 8
        assert cluster.n_nodes == 16
        assert cluster.total_cores == 16 * 56

    def test_empty_cluster_raises(self):
        with pytest.raises(AllocationError):
            Cluster("x", n_nodes=0, cores_per_node=4)

    def test_allocate_nodes(self):
        cluster = generic(8)
        alloc = cluster.allocate_nodes(4)
        assert alloc.n_nodes == 4
        assert alloc.total_cores == 32

    def test_allocations_are_disjoint(self):
        cluster = generic(8)
        a = cluster.allocate_nodes(4)
        b = cluster.allocate_nodes(4)
        assert {n.index for n in a.nodes}.isdisjoint(
            n.index for n in b.nodes)

    def test_over_allocation_raises(self):
        cluster = generic(4)
        cluster.allocate_nodes(3)
        with pytest.raises(AllocationError):
            cluster.allocate_nodes(2)

    def test_release_all_resets(self):
        cluster = generic(4)
        cluster.allocate_nodes(4)
        cluster.release_all()
        assert cluster.allocate_nodes(4).n_nodes == 4

    def test_zero_nodes_raises(self):
        with pytest.raises(AllocationError):
            generic(4).allocate_nodes(0)


class TestPartition:
    def test_even_split(self):
        alloc = generic(8).allocate_nodes(8)
        parts = alloc.partition(4)
        assert [p.n_nodes for p in parts] == [2, 2, 2, 2]

    def test_uneven_split(self):
        alloc = generic(8).allocate_nodes(7)
        parts = alloc.partition(3)
        assert [p.n_nodes for p in parts] == [3, 2, 2]

    def test_partitions_disjoint_and_complete(self):
        alloc = generic(8).allocate_nodes(8)
        parts = alloc.partition(3)
        indices = [n.index for p in parts for n in p.nodes]
        assert sorted(indices) == [n.index for n in alloc.nodes]
        assert len(set(indices)) == len(indices)

    def test_more_partitions_than_nodes_raises(self):
        alloc = generic(4).allocate_nodes(2)
        with pytest.raises(AllocationError):
            alloc.partition(3)

    def test_split_nodes(self):
        alloc = generic(8).allocate_nodes(8)
        a, b = alloc.split_nodes(3)
        assert a.n_nodes == 3 and b.n_nodes == 5

    def test_split_nodes_bounds(self):
        alloc = generic(8).allocate_nodes(4)
        with pytest.raises(AllocationError):
            alloc.split_nodes(4)
        with pytest.raises(AllocationError):
            alloc.split_nodes(0)


def first_fit(alloc, spec):
    """Brute-force first-fit over ``alloc``'s nodes from position 0,
    with no scan hint: ``[(node, cores, gpus)]`` or ``None``."""
    need_c, need_g = spec.cores, spec.gpus
    picks = []
    for node in alloc.nodes:
        if need_c <= 0 and need_g <= 0:
            break
        if spec.exclusive_nodes:
            if not node.is_idle:
                continue
            take_c, take_g = node.n_cores, node.n_gpus
        else:
            take_c = min(need_c, node.free_cores)
            take_g = min(need_g, node.free_gpus)
            if take_c <= 0 and take_g <= 0:
                continue
        picks.append((node, take_c, take_g))
        need_c -= take_c
        need_g -= take_g
    return picks if need_c <= 0 and need_g <= 0 else None


def place_checked(alloc, spec):
    """``alloc.try_place(spec)``, asserting it picks what
    :func:`first_fit` picks."""
    want = first_fit(alloc, spec)
    grant = alloc.try_place(spec)
    if want is None:
        assert grant is None
    else:
        assert grant is not None
        assert list(zip(grant.nodes, grant.node_cores,
                        grant.node_gpus)) == want
    return grant


def assert_counters(*allocs):
    """Every allocation's counters equal a recount of its nodes."""
    for alloc in allocs:
        nodes = alloc.nodes
        down = [n for n in nodes if n.health is NodeHealth.DOWN]
        assert alloc.free_cores == sum(n.free_cores for n in nodes), alloc
        assert alloc.free_gpus == sum(n.free_gpus for n in nodes), alloc
        assert alloc.usable_cores == alloc.total_cores - sum(
            n.n_cores for n in down), alloc
        assert alloc.n_down_nodes == len(down), alloc


class TestPlacement:
    def test_single_core(self):
        alloc = generic(2).allocate_nodes(2)
        grant = alloc.try_place(ResourceSpec(cores=1))
        assert grant is not None
        assert grant.cores == 1
        assert alloc.free_cores == 15

    def test_multi_node_packing(self):
        alloc = generic(4).allocate_nodes(4)  # 8 cores/node
        grant = alloc.try_place(ResourceSpec(cores=20))
        assert grant is not None
        assert grant.cores == 20
        assert grant.node_cores == [8, 8, 4]
        assert grant.nodes == alloc.nodes[:3]

    def test_does_not_fit_returns_none_and_rolls_back(self):
        alloc = generic(2).allocate_nodes(2)
        before = alloc.free_cores
        assert alloc.try_place(ResourceSpec(cores=100)) is None
        assert alloc.free_cores == before

    def test_shortfall_after_partial_scan_rolls_back(self):
        alloc = generic(3).allocate_nodes(3)
        parts = alloc.partition(3)
        parts[0].try_place(ResourceSpec(cores=1))
        parts[1].try_place(ResourceSpec(cores=1))
        # 22 free cores pass the aggregate check; the scan claims only
        # node 2 (the one idle node) and must hand it back.
        assert alloc.try_place(
            ResourceSpec(cores=16, exclusive_nodes=True)) is None
        assert alloc.nodes[2].is_idle
        assert alloc.free_cores == 22
        assert_counters(alloc, *parts)
        grant = alloc.try_place(ResourceSpec(cores=8, exclusive_nodes=True))
        assert grant.nodes == [alloc.nodes[2]]

    def test_gpu_placement(self):
        alloc = generic(2, gpus_per_node=2).allocate_nodes(2)
        grant = alloc.try_place(ResourceSpec(cores=1, gpus=3))
        assert grant is not None
        assert grant.gpus == 3
        assert grant.node_gpus == [2, 1]

    def test_exclusive_nodes(self):
        alloc = generic(4).allocate_nodes(4)
        grant = alloc.try_place(ResourceSpec(cores=9, exclusive_nodes=True))
        assert grant is not None
        # 9 cores at 8 cpn exclusive -> two whole nodes.
        assert grant.cores == 16

    def test_exclusive_skips_busy_nodes(self):
        alloc = generic(3).allocate_nodes(3)
        alloc.try_place(ResourceSpec(cores=1))  # dirty the first node
        grant = alloc.try_place(ResourceSpec(cores=8, exclusive_nodes=True))
        assert grant is not None
        assert grant.nodes == [alloc.nodes[1]]

    def test_release_restores(self):
        alloc = generic(2).allocate_nodes(2)
        alloc.release(alloc.try_place(ResourceSpec(cores=10)))
        assert alloc.free_cores == alloc.total_cores

    def test_fragmentation_respected(self):
        # 2 nodes x 8 cores; take 5 on each: a 6-core task cannot fit
        # in the 3+3 fragments as a single-node request would, but the
        # packer spreads it across nodes.
        alloc = generic(2).allocate_nodes(2)
        for part in alloc.partition(2):
            part.try_place(ResourceSpec(cores=5))
        grant = alloc.try_place(ResourceSpec(cores=6))
        assert grant is not None
        assert grant.node_cores == [3, 3]

    def test_empty_allocation_raises(self):
        cluster = generic(2)
        with pytest.raises(AllocationError):
            Allocation(cluster, [])

    def test_nodes_out_of_cluster_order_raise(self):
        cluster = generic(3)
        with pytest.raises(AllocationError):
            Allocation(cluster, cluster.nodes[::-1])
        with pytest.raises(AllocationError):
            Allocation(cluster, [cluster.nodes[1], cluster.nodes[1]])


class TestAggregateDeltas:
    """One delta per watcher per grant or release, checked against a
    brute-force per-node first-fit and a recount of every counter."""

    def test_partition_release_pulls_pilot_hint_back(self):
        pilot = generic(4).allocate_nodes(4)
        p0, p1 = pilot.partition(2)
        whole = ResourceSpec(cores=16)
        low = place_checked(p0, whole)             # nodes 0-1
        place_checked(p1, ResourceSpec(cores=8))   # node 2
        place_checked(pilot, ResourceSpec(cores=4))  # node 3
        assert pilot._scan_hint == 3
        p0.release(low)
        assert pilot._scan_hint == 0
        assert_counters(pilot, p0, p1)
        # Later pilot-level placements take the nodes a fresh first-fit
        # takes: the freed partition nodes, not node 3's remainder.
        grant = place_checked(pilot, ResourceSpec(cores=12))
        assert grant.nodes == pilot.nodes[:2]
        place_checked(pilot, ResourceSpec(cores=8))
        assert_counters(pilot, p0, p1)

    def test_grant_across_partition_boundary(self):
        pilot = generic(4, gpus_per_node=2).allocate_nodes(4)
        p0, p1 = pilot.partition(2)
        place_checked(p0, ResourceSpec(cores=8, gpus=2))    # node 0
        grant = place_checked(pilot, ResourceSpec(cores=12, gpus=3))
        assert grant.nodes == pilot.nodes[1:3]
        assert (p0.free_cores, p0.free_gpus) == (0, 0)
        assert (p1.free_cores, p1.free_gpus) == (12, 3)
        assert_counters(pilot, p0, p1)
        pilot.release(grant)
        assert (p0.free_cores, p1.free_cores) == (8, 16)
        assert_counters(pilot, p0, p1)

    def test_grant_over_nested_child_nodes(self):
        pilot = generic(4).allocate_nodes(4)
        p0, p1 = pilot.partition(2)
        child = Allocation(pilot.cluster, p0.nodes[:1])
        grant = place_checked(p0, ResourceSpec(cores=12))
        assert grant.node_cores == [8, 4]
        assert child.free_cores == 0 and p0.free_cores == 4
        assert pilot.free_cores == 20 and p1.free_cores == 16
        assert_counters(pilot, p0, p1, child)
        place_checked(pilot, ResourceSpec(cores=20))
        p0.release(grant)
        assert child.free_cores == 8 and p0.free_cores == 12
        assert_counters(pilot, p0, p1, child)
        assert place_checked(child, ResourceSpec(cores=8)) is not None

    def test_release_with_down_node_in_the_middle(self):
        pilot = generic(3, gpus_per_node=2).allocate_nodes(3)
        parts = pilot.partition(3)
        grant = place_checked(
            pilot, ResourceSpec(cores=24, exclusive_nodes=True))
        middle = pilot.nodes[1]
        middle.fail()
        assert_counters(pilot, *parts)
        pilot.release(grant)
        assert (middle.free_cores, middle.lost_cores) == (0, 8)
        assert (middle.free_gpus, middle.lost_gpus) == (0, 2)
        for node in (pilot.nodes[0], pilot.nodes[2]):
            assert node.is_idle and node.lost_cores == 0
        assert (pilot.free_cores, pilot.free_gpus) == (16, 4)
        assert [p.free_cores for p in parts] == [8, 0, 8]
        assert_counters(pilot, *parts)
        # The middle node is skipped until it recovers.
        place_checked(pilot, ResourceSpec(cores=16))
        middle.recover()
        assert middle.is_idle
        assert_counters(pilot, *parts)
        assert place_checked(pilot, ResourceSpec(cores=8)).nodes == [middle]


class TestUsableCapacity:
    def test_allocation_built_over_draining_node(self):
        cluster = generic(2)
        pilot = cluster.allocate_nodes(2)
        node = pilot.nodes[0]
        node.drain()
        alloc = Allocation(cluster, pilot.nodes)
        # DRAINING still counts as usable; only DOWN does not.
        assert (alloc.n_down_nodes, alloc.usable_cores) == (0, 16)
        node.fail()
        assert (alloc.n_down_nodes, alloc.usable_cores) == (1, 8)
        node.recover()
        assert (alloc.n_down_nodes, alloc.usable_cores) == (0, 16)
