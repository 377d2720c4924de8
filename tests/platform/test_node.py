"""Unit tests for slot-level node bookkeeping."""

import pytest

from repro.exceptions import ResourceError
from repro.platform import Node, Placement, generic


class TestConstruction:
    def test_defaults(self):
        node = Node(0, n_cores=8, n_gpus=2)
        assert node.free_cores == 8
        assert node.free_gpus == 2
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
        node = Node(0, 8, 2)
        pl = node.allocate(3, 1)
        assert node.free_cores == 5
        assert node.free_gpus == 1
        assert pl.cores == 3
        assert pl.gpus == 1

    def test_slots_are_disjoint(self):
        node = Node(0, 8)
        p1 = node.allocate(4)
        p2 = node.allocate(4)
        assert set(p1.core_slots).isdisjoint(p2.core_slots)

    def test_over_allocate_raises(self):
        node = Node(0, 4)
        node.allocate(3)
        with pytest.raises(ResourceError):
            node.allocate(2)

    def test_negative_raises(self):
        with pytest.raises(ResourceError):
            Node(0, 4).allocate(-1)

    def test_can_fit(self):
        node = Node(0, 4, 1)
        assert node.can_fit(4, 1)
        node.allocate(2)
        assert node.can_fit(2, 1)
        assert not node.can_fit(3, 0)


class TestRelease:
    def test_release_restores_capacity(self):
        node = Node(0, 8, 2)
        pl = node.allocate(5, 2)
        node.release(pl)
        assert node.is_idle

    def test_double_free_raises(self):
        node = Node(0, 8)
        pl = node.allocate(2)
        node.release(pl)
        with pytest.raises(ResourceError):
            node.release(pl)

    def test_wrong_node_release_raises(self):
        a, b = Node(0, 8), Node(1, 8)
        pl = a.allocate(2)
        with pytest.raises(ResourceError):
            b.release(pl)

    def test_released_slots_reusable(self):
        node = Node(0, 2)
        p1 = node.allocate(2)
        node.release(p1)
        p2 = node.allocate(2)
        assert set(p2.core_slots) == {0, 1}


def watched_node():
    """Node 0 of a 2-node allocation, watched by the allocation and by
    its first partition."""
    alloc = generic(2, cores_per_node=8, gpus_per_node=2).allocate_nodes(2)
    watchers = [alloc, alloc.partition(2)[0]]
    return alloc.nodes[0], watchers


def snapshot(node, watchers):
    return (list(node._free_cores), list(node._free_gpus),
            list(node._lost_cores), list(node._lost_gpus),
            [(w.free_cores, w.free_gpus) for w in watchers])


class TestReleaseRegistry:
    """``release`` accepts only a live placement the node granted."""

    def test_double_free_on_down_node_raises(self):
        node, _ = watched_node()
        pl = node.allocate(3, 1)
        node.fail()
        node.release(pl)
        with pytest.raises(ResourceError):
            node.release(pl)

    def test_double_free_on_draining_node_raises(self):
        node, _ = watched_node()
        pl = node.allocate(3, 1)
        node.drain()
        node.release(pl)
        with pytest.raises(ResourceError):
            node.release(pl)

    def test_look_alike_placement_raises(self):
        node, _ = watched_node()
        pl = node.allocate(3, 1)
        fake = Placement(pl.node_index, pl.core_slots, pl.gpu_slots)
        assert fake == pl and fake is not pl
        with pytest.raises(ResourceError):
            node.release(fake)
        node.release(pl)
        assert node.is_idle

    @pytest.mark.parametrize("health", ["up", "draining", "down"])
    def test_failed_release_changes_nothing(self, health):
        node, watchers = watched_node()
        other, _ = watched_node()
        pl = node.allocate(3, 1)
        freed = node.allocate(2)
        node.release(freed)
        if health == "draining":
            node.drain()
        elif health == "down":
            node.fail()
        before = snapshot(node, watchers)
        bad = [
            freed,                                     # double free
            other.allocate(1),                         # wrong node
            Placement(node.index, pl.core_slots, ()),  # never granted
            # A live slot and a free slot: the check must fail before
            # the live one moves.
            Placement(node.index, (pl.core_slots[0], 7), ()),
        ]
        for placement in bad:
            with pytest.raises(ResourceError):
                node.release(placement)
            assert snapshot(node, watchers) == before

    def test_granted_before_fail_released_after_recover(self):
        node, watchers = watched_node()
        pl = node.allocate(8, 2)
        node.fail()
        node.recover()
        assert node.free_cores == 0
        node.release(pl)
        assert sorted(node._free_cores) == list(range(8))
        assert sorted(node._free_gpus) == [0, 1]
        assert node._lost_cores == [] and node._lost_gpus == []
        assert node.is_idle
        assert [w.free_cores for w in watchers] == [16, 8]
        assert [w.free_gpus for w in watchers] == [4, 2]
