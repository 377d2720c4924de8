"""Unit tests for Cluster and Allocation."""

import pytest

from repro.exceptions import AllocationError
from repro.platform import Allocation, Cluster, ResourceSpec, frontier, generic


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


class TestPlacement:
    def test_single_core(self):
        alloc = generic(2).allocate_nodes(2)
        pls = alloc.try_place(ResourceSpec(cores=1))
        assert pls is not None
        assert sum(p.cores for p in pls) == 1
        assert alloc.free_cores == 15

    def test_multi_node_packing(self):
        alloc = generic(4).allocate_nodes(4)  # 8 cores/node
        pls = alloc.try_place(ResourceSpec(cores=20))
        assert pls is not None
        assert sum(p.cores for p in pls) == 20
        assert len(pls) == 3

    def test_does_not_fit_returns_none_and_rolls_back(self):
        alloc = generic(2).allocate_nodes(2)
        before = alloc.free_cores
        assert alloc.try_place(ResourceSpec(cores=100)) is None
        assert alloc.free_cores == before

    def test_shortfall_after_partial_scan_rolls_back(self):
        alloc = generic(3).allocate_nodes(3)
        alloc.nodes[0].allocate(1)
        alloc.nodes[1].allocate(1)
        # 22 free cores pass the aggregate check; the scan claims only
        # node 2 (the one idle node) and must hand it back.
        assert alloc.try_place(
            ResourceSpec(cores=16, exclusive_nodes=True)) is None
        assert alloc.nodes[2].is_idle
        assert alloc.free_cores == 22
        pls = alloc.try_place(ResourceSpec(cores=8, exclusive_nodes=True))
        assert [p.node_index for p in pls] == [alloc.nodes[2].index]

    def test_gpu_placement(self):
        alloc = generic(2, gpus_per_node=2).allocate_nodes(2)
        pls = alloc.try_place(ResourceSpec(cores=1, gpus=3))
        assert pls is not None
        assert sum(p.gpus for p in pls) == 3

    def test_exclusive_nodes(self):
        alloc = generic(4).allocate_nodes(4)
        pls = alloc.try_place(ResourceSpec(cores=9, exclusive_nodes=True))
        assert pls is not None
        # 9 cores at 8 cpn exclusive -> two whole nodes.
        assert sum(p.cores for p in pls) == 16

    def test_exclusive_skips_busy_nodes(self):
        alloc = generic(3).allocate_nodes(3)
        alloc.try_place(ResourceSpec(cores=1))  # dirty the first node
        pls = alloc.try_place(ResourceSpec(cores=8, exclusive_nodes=True))
        assert pls is not None
        assert pls[0].node_index != alloc.nodes[0].index

    def test_release_restores(self):
        alloc = generic(2).allocate_nodes(2)
        pls = alloc.try_place(ResourceSpec(cores=10))
        alloc.release(pls)
        assert alloc.free_cores == alloc.total_cores

    def test_fragmentation_respected(self):
        # 2 nodes x 8 cores; take 5 on each: a 6-core task cannot fit
        # in the 3+3 fragments as a single-node request would, but the
        # packer spreads it across nodes.
        alloc = generic(2).allocate_nodes(2)
        alloc.nodes[0].allocate(5)
        alloc.nodes[1].allocate(5)
        pls = alloc.try_place(ResourceSpec(cores=6))
        assert pls is not None
        assert len(pls) == 2

    def test_empty_allocation_raises(self):
        cluster = generic(2)
        with pytest.raises(AllocationError):
            Allocation(cluster, [])


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
