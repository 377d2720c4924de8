"""Unit tests for count-based node bookkeeping and grant release."""

import pytest

from repro.exceptions import ResourceError
from repro.platform import Grant, Node, ResourceSpec, generic


def single(cores=8, gpus=0, n_nodes=1):
    """A one-node allocation and its node (grants go through it)."""
    alloc = generic(n_nodes, cores_per_node=cores,
                    gpus_per_node=gpus).allocate_nodes(n_nodes)
    return alloc, alloc.nodes[0]


def place(alloc, cores, gpus=0):
    return alloc.try_place(ResourceSpec(cores=cores, gpus=gpus))


class TestConstruction:
    def test_defaults(self):
        node = Node(0, n_cores=8, n_gpus=2)
        assert node.free_cores == 8
        assert node.free_gpus == 2
        assert (node.lost_cores, node.lost_gpus) == (0, 0)
        assert node.is_idle

    def test_invalid_cores(self):
        with pytest.raises(ResourceError):
            Node(0, n_cores=0)

    def test_invalid_gpus(self):
        with pytest.raises(ResourceError):
            Node(0, n_cores=1, n_gpus=-1)

    def test_auto_name(self):
        assert Node(3, 4).name == "node00003"


class TestAllocate:
    def test_allocate_reduces_free(self):
        alloc, node = single(8, 2)
        grant = place(alloc, 3, 1)
        assert node.free_cores == 5
        assert node.free_gpus == 1
        assert (grant.cores, grant.gpus) == (3, 1)
        assert grant.nodes == [node]
        assert (grant.node_cores, grant.node_gpus) == ([3], [1])

    def test_slots_are_disjoint(self):
        """Two grants never share capacity: a full node grants no more."""
        alloc, node = single(8)
        first = place(alloc, 4)
        second = place(alloc, 4)
        assert first is not None and second is not None
        assert first.cores + second.cores + node.free_cores == 8
        assert place(alloc, 1) is None

    def test_over_place_returns_none(self):
        alloc, node = single(4)
        place(alloc, 3)
        assert place(alloc, 2) is None
        assert node.free_cores == 1 and alloc.free_cores == 1

    def test_negative_raises(self):
        with pytest.raises(ResourceError):
            ResourceSpec(cores=-1)

    def test_can_fit(self):
        alloc, node = single(4, 1)
        assert node.can_fit(4, 1)
        place(alloc, 2)
        assert node.can_fit(2, 1)
        assert not node.can_fit(3, 0)


class TestRelease:
    def test_release_restores_capacity(self):
        alloc, node = single(8, 2)
        alloc.release(place(alloc, 5, 2))
        assert node.is_idle

    def test_double_free_raises(self):
        alloc, _ = single(8)
        grant = place(alloc, 2)
        alloc.release(grant)
        with pytest.raises(ResourceError):
            alloc.release(grant)

    def test_wrong_node_release_raises(self):
        a, b = generic(2).allocate_nodes(2).partition(2)
        grant = place(a, 2)
        with pytest.raises(ResourceError):
            b.release(grant)
        a.release(grant)
        assert a.nodes[0].is_idle

    def test_released_slots_reusable(self):
        alloc, node = single(2)
        alloc.release(place(alloc, 2))
        again = place(alloc, 2)
        assert again.nodes == [node] and again.node_cores == [2]


def watched_node():
    """Node 0 of a 2-node allocation, watched by the allocation and by
    its first partition; grants on it go through that partition."""
    alloc = generic(2, cores_per_node=8, gpus_per_node=2).allocate_nodes(2)
    part = alloc.partition(2)[0]
    return alloc.nodes[0], part, [alloc, part]


def snapshot(node, watchers):
    return (node.free_cores, node.free_gpus, node.lost_cores,
            node.lost_gpus,
            [(w.free_cores, w.free_gpus, len(w._live)) for w in watchers])


class TestReleaseRegistry:
    """``release`` accepts only a live grant of the same allocation."""

    def test_double_free_on_down_node_raises(self):
        node, part, _ = watched_node()
        grant = place(part, 3, 1)
        node.fail()
        part.release(grant)
        assert (node.lost_cores, node.lost_gpus) == (8, 2)
        with pytest.raises(ResourceError):
            part.release(grant)

    def test_double_free_on_draining_node_raises(self):
        node, part, _ = watched_node()
        grant = place(part, 3, 1)
        node.drain()
        part.release(grant)
        with pytest.raises(ResourceError):
            part.release(grant)

    def test_look_alike_placement_raises(self):
        node, part, _ = watched_node()
        grant = place(part, 3, 1)
        fake = Grant(grant.nodes, grant.node_cores, grant.node_gpus,
                     grant.cores, grant.gpus)
        with pytest.raises(ResourceError):
            part.release(fake)
        part.release(grant)
        assert node.is_idle

    @pytest.mark.parametrize("health", ["up", "draining", "down"])
    def test_failed_release_changes_nothing(self, health):
        node, part, watchers = watched_node()
        _, other, _ = watched_node()
        grant = place(part, 3, 1)
        freed = place(part, 2)
        part.release(freed)
        if health == "draining":
            node.drain()
        elif health == "down":
            node.fail()
        before = snapshot(node, watchers)
        bad = [
            (part, freed),                     # double free
            (part, place(other, 1)),           # another allocation's
            (part, Grant([node], [3], [1], 3, 1)),   # never granted
            (watchers[0], grant),              # live, wrong allocation
        ]
        for alloc, g in bad:
            with pytest.raises(ResourceError):
                alloc.release(g)
            assert snapshot(node, watchers) == before

    def test_granted_before_fail_released_after_recover(self):
        node, part, watchers = watched_node()
        grant = place(part, 8, 2)
        node.fail()
        node.recover()
        assert node.free_cores == 0
        part.release(grant)
        assert (node.free_cores, node.free_gpus) == (8, 2)
        assert (node.lost_cores, node.lost_gpus) == (0, 0)
        assert node.is_idle
        assert [w.free_cores for w in watchers] == [16, 8]
        assert [w.free_gpus for w in watchers] == [4, 2]
