"""Compute-node model with free and lost core/GPU counts.

A node keeps four plain counts: the cores and GPUs it can hand out
(``free_cores``/``free_gpus``) and those confiscated while it is
unhealthy (``lost_cores``/``lost_gpus``).  The rest of its capacity is
held by live :class:`~repro.platform.cluster.Grant` objects, one per
placed task, which the granting allocation keeps in a registry and
checks by identity on release.  First-fit placement depends only on
each node's free counts, so no slot ids are kept: per node, free +
lost + held-by-live-grants = capacity is the whole invariant.
"""

from __future__ import annotations

import enum

from ..exceptions import ResourceError


class NodeHealth(enum.Enum):
    """Health of one compute node.

    ``UP`` serves placements normally.  ``DRAINING`` accepts no new
    placements but lets running work finish (free capacity is
    confiscated, held capacity stays held).  ``DOWN`` additionally
    means running work on the node has been killed by the failure.
    """

    UP = "up"
    DRAINING = "draining"
    DOWN = "down"


class Node:
    """One compute node with ``n_cores`` CPU cores and ``n_gpus`` GPUs.

    Invariant: ``free_cores + lost_cores`` plus the cores held by live
    grants on this node equals ``n_cores`` (likewise for GPUs), and an
    unhealthy node has nothing free.  Only ``Allocation.try_place`` and
    ``Allocation.release`` move capacity between free and held.
    """

    def __init__(self, index: int, n_cores: int, n_gpus: int = 0,
                 mem_gb: float = 512.0, name: str = "") -> None:
        if n_cores < 1:
            raise ResourceError(f"node needs >=1 core, got {n_cores}")
        if n_gpus < 0:
            raise ResourceError(f"negative gpu count {n_gpus}")
        self.index = index
        self.name = name or f"node{index:05d}"
        self.n_cores = n_cores
        self.n_gpus = n_gpus
        self.mem_gb = mem_gb
        self.free_cores = n_cores
        self.free_gpus = n_gpus
        self.health = NodeHealth.UP
        # Capacity confiscated while unhealthy.  Keeping it out of the
        # free counts means a DOWN/DRAINING node looks fully busy to
        # the placement hot path — ``try_place`` and the allocation
        # scan hint skip it with no health check of their own.
        self.lost_cores = 0
        self.lost_gpus = 0
        #: Allocations watching this node's free counts, typically the
        #: pilot allocation plus one partition.  Every change is pushed
        #: to them (per grant where the grant's nodes share one list),
        #: keeping their aggregate counters exact without re-summation.
        self._watchers: list = []

    # -- capacity ----------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        return (self.free_cores == self.n_cores
                and self.free_gpus == self.n_gpus)

    @property
    def is_up(self) -> bool:
        return self.health is NodeHealth.UP

    def can_fit(self, cores: int, gpus: int = 0) -> bool:
        """Are ``cores`` cores and ``gpus`` GPUs free right now?"""
        return cores <= self.free_cores and gpus <= self.free_gpus

    # -- health ------------------------------------------------------------

    def drain(self) -> bool:
        """Stop serving new placements; running work may finish.

        Confiscates the currently-free capacity (pushing the negative
        delta to watchers so their free counts stay exact) and marks
        the node ``DRAINING``.  Returns ``False`` when the node was
        already unhealthy.
        """
        if self.health is not NodeHealth.UP:
            return False
        self.health = NodeHealth.DRAINING
        self._confiscate_free()
        return True

    def fail(self) -> bool:
        """Take the node ``DOWN``.

        Free capacity is confiscated; held capacity stays held until
        its grants are released (the owning executors are responsible
        for killing the tasks and releasing — released capacity then
        lands in the lost counts).  Watchers are told about the
        capacity loss via ``_on_node_down`` so aggregate *usable*
        capacity tracks the failure.  Returns ``False`` when already
        DOWN.
        """
        if self.health is NodeHealth.DOWN:
            return False
        was_up = self.health is NodeHealth.UP
        self.health = NodeHealth.DOWN
        if was_up:
            self._confiscate_free()
        for watcher in self._watchers:
            watcher._on_node_down(self.index, self.n_cores, self.n_gpus)
        return True

    def recover(self) -> bool:
        """Bring the node back ``UP``, restoring confiscated capacity."""
        if self.health is NodeHealth.UP:
            return False
        was_down = self.health is NodeHealth.DOWN
        self.health = NodeHealth.UP
        cores = self.lost_cores
        gpus = self.lost_gpus
        self.free_cores += cores
        self.free_gpus += gpus
        self.lost_cores = self.lost_gpus = 0
        if was_down:
            for watcher in self._watchers:
                watcher._on_node_up(self.index, self.n_cores, self.n_gpus)
        if cores or gpus:
            for watcher in self._watchers:
                watcher._on_node_delta(cores, gpus, self.index)
        return True

    def _confiscate_free(self) -> None:
        cores = self.free_cores
        gpus = self.free_gpus
        self.lost_cores += cores
        self.lost_gpus += gpus
        self.free_cores = self.free_gpus = 0
        if cores or gpus:
            for watcher in self._watchers:
                watcher._on_node_delta(-cores, -gpus, self.index)

    def __repr__(self) -> str:
        return (
            f"<Node {self.name} cores={self.free_cores}/{self.n_cores} "
            f"gpus={self.free_gpus}/{self.n_gpus}>"
        )
