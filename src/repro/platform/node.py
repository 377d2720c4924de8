"""Compute-node model with explicit core and GPU slot ids.

Slot-level bookkeeping (rather than mere counters) lets the property
tests assert the strongest possible invariant: *no slot is ever held
by two placements at once*, exactly the guarantee a real node-level
resource manager provides.  Each node's slots are partitioned three
ways: the free lists, the lost lists (confiscated while unhealthy) and
the slot tuples of the live placements, which the node keeps in a
registry of the :class:`Placement` objects it has handed out.  A
release is checked against that registry by identity, so it costs the
same whatever the placement's slot count.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Tuple

from ..exceptions import ResourceError


class NodeHealth(enum.Enum):
    """Health of one compute node.

    ``UP`` serves placements normally.  ``DRAINING`` accepts no new
    placements but lets running work finish (free slots are
    confiscated, held slots stay held).  ``DOWN`` additionally means
    running work on the node has been killed by the failure.
    """

    UP = "up"
    DRAINING = "draining"
    DOWN = "down"


class Placement(NamedTuple):
    """A set of slots handed out on one node.

    Placements are returned by :meth:`Node.allocate` and must be given
    back via :meth:`Node.release`.  One is created per task placement,
    so it is a named tuple (cheap construction) rather than a frozen
    dataclass.
    """

    node_index: int
    core_slots: Tuple[int, ...]
    gpu_slots: Tuple[int, ...]

    @property
    def cores(self) -> int:
        return len(self.core_slots)

    @property
    def gpus(self) -> int:
        return len(self.gpu_slots)


class Node:
    """One compute node with ``n_cores`` CPU cores and ``n_gpus`` GPUs.

    Invariant: the free lists, the lost lists and the placements in
    ``_live`` together hold every core slot in ``range(n_cores)`` and
    every GPU slot in ``range(n_gpus)`` exactly once.  ``release``
    accepts only a placement object this node granted and has not yet
    taken back.
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
        self._free_cores: List[int] = list(range(n_cores))
        self._free_gpus: List[int] = list(range(n_gpus))
        #: Placements handed out and not yet released, keyed by
        #: ``id``.  The value keeps the placement alive, so its id
        #: cannot be reused while it is registered.
        self._live: dict = {}
        self.health = NodeHealth.UP
        # Slots confiscated while unhealthy.  Keeping them out of the
        # free lists means a DOWN/DRAINING node looks fully busy to the
        # placement hot path — ``try_place`` and the allocation scan
        # hint skip it with no health check of their own.
        self._lost_cores: List[int] = []
        self._lost_gpus: List[int] = []
        #: Allocations watching this node's free counts.  Every
        #: allocate/release pushes the delta to all watchers, keeping
        #: each allocation's aggregate free-core/GPU counters exact in
        #: O(#watchers) — instead of O(n_nodes) re-summation per query.
        #: A node is typically watched by the pilot allocation plus one
        #: partition (and rarely a nested instance), so this is cheap.
        self._watchers: list = []

    # -- capacity ----------------------------------------------------------

    @property
    def free_cores(self) -> int:
        return len(self._free_cores)

    @property
    def free_gpus(self) -> int:
        return len(self._free_gpus)

    @property
    def busy_cores(self) -> int:
        return self.n_cores - self.free_cores

    @property
    def is_idle(self) -> bool:
        return (len(self._free_cores) == self.n_cores
                and len(self._free_gpus) == self.n_gpus)

    @property
    def is_up(self) -> bool:
        return self.health is NodeHealth.UP

    def can_fit(self, cores: int, gpus: int = 0) -> bool:
        """Could ``allocate(cores, gpus)`` succeed right now?"""
        return cores <= self.free_cores and gpus <= self.free_gpus

    # -- allocation --------------------------------------------------------

    def allocate(self, cores: int, gpus: int = 0) -> Placement:
        """Claim ``cores`` core slots and ``gpus`` GPU slots.

        Raises :class:`ResourceError` when insufficient slots are free.
        """
        if cores < 0 or gpus < 0:
            raise ResourceError("negative allocation request")
        free_cores = self._free_cores
        free_gpus = self._free_gpus
        if cores > len(free_cores) or gpus > len(free_gpus):
            raise ResourceError(
                f"{self.name}: cannot allocate {cores}c/{gpus}g "
                f"(free {self.free_cores}c/{self.free_gpus}g)"
            )
        core_slots = tuple(free_cores[:cores])
        del free_cores[:cores]
        gpu_slots = tuple(free_gpus[:gpus])
        del free_gpus[:gpus]
        placement = Placement(self.index, core_slots, gpu_slots)
        self._live[id(placement)] = placement
        for watcher in self._watchers:
            watcher._on_node_delta(-cores, -gpus, self.index)
        return placement

    def release(self, placement: Placement) -> None:
        """Return a placement's slots.

        Raises :class:`ResourceError`, changing nothing, unless
        ``placement`` is a live placement this node granted: a double
        free, a release on the wrong node and a look-alike placement
        built by hand are all rejected.
        """
        if self._live.pop(id(placement), None) is not placement:
            raise ResourceError(
                f"{self.name}: release of a placement on node "
                f"{placement.node_index} that this node does not hold "
                f"(double free, wrong node or never granted)"
            )
        if self.health is NodeHealth.UP:
            self._free_cores.extend(placement.core_slots)
            self._free_gpus.extend(placement.gpu_slots)
            for watcher in self._watchers:
                watcher._on_node_delta(len(placement.core_slots),
                                       len(placement.gpu_slots), self.index)
        else:
            # Slots released on an unhealthy node are confiscated
            # rather than freed: the capacity is gone until the node
            # recovers, so no delta reaches the watchers and the node
            # keeps reading as fully busy to the placement scan.
            self._lost_cores.extend(placement.core_slots)
            self._lost_gpus.extend(placement.gpu_slots)

    # -- health ------------------------------------------------------------

    def drain(self) -> bool:
        """Stop serving new placements; running work may finish.

        Confiscates the currently-free slots (pushing the negative
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

        Free slots are confiscated; held slots stay held until their
        placements are released (the owning executors are responsible
        for killing the tasks and releasing — released slots then land
        in the lost pool).  Watchers are told about the capacity loss
        via ``_on_node_down`` so aggregate *usable* capacity tracks the
        failure.  Returns ``False`` when already DOWN.
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
        """Bring the node back ``UP``, restoring confiscated slots."""
        if self.health is NodeHealth.UP:
            return False
        was_down = self.health is NodeHealth.DOWN
        self.health = NodeHealth.UP
        cores = len(self._lost_cores)
        gpus = len(self._lost_gpus)
        self._free_cores.extend(sorted(self._lost_cores))
        self._free_gpus.extend(sorted(self._lost_gpus))
        self._lost_cores.clear()
        self._lost_gpus.clear()
        if was_down:
            for watcher in self._watchers:
                watcher._on_node_up(self.index, self.n_cores, self.n_gpus)
        if cores or gpus:
            for watcher in self._watchers:
                watcher._on_node_delta(cores, gpus, self.index)
        return True

    def _confiscate_free(self) -> None:
        cores = len(self._free_cores)
        gpus = len(self._free_gpus)
        self._lost_cores.extend(self._free_cores)
        self._lost_gpus.extend(self._free_gpus)
        self._free_cores.clear()
        self._free_gpus.clear()
        if cores or gpus:
            for watcher in self._watchers:
                watcher._on_node_delta(-cores, -gpus, self.index)

    def __repr__(self) -> str:
        return (
            f"<Node {self.name} cores={self.free_cores}/{self.n_cores} "
            f"gpus={self.free_gpus}/{self.n_gpus}>"
        )
