"""Cluster and allocation models.

A :class:`Cluster` is a homogeneous set of :class:`~repro.platform.node.Node`
objects (the paper's substrate, Frontier, is homogeneous at the level
the experiments exercise).  An :class:`Allocation` is the subset of
nodes granted to one pilot job; it can be carved into disjoint
:meth:`partitions <Allocation.partition>` for multi-instance Flux /
Dragon deployments.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..exceptions import AllocationError, ResourceError
from .node import Node, Placement
from .spec import ResourceSpec


class Allocation:
    """A set of nodes granted to a pilot for a bounded walltime."""

    def __init__(self, cluster: "Cluster", nodes: Sequence[Node],
                 walltime: float = float("inf"), job_id: str = "") -> None:
        if not nodes:
            raise AllocationError("empty allocation")
        self.cluster = cluster
        self.nodes: List[Node] = list(nodes)
        self.walltime = walltime
        self.job_id = job_id
        self._by_index = {n.index: n for n in self.nodes}
        # Aggregate counters, maintained incrementally.  The node set
        # is fixed for the allocation's lifetime, so the totals are
        # computed once; the free counts are pushed by the nodes on
        # every allocate/release (see Node._watchers), which keeps them
        # exact even when several allocations share nodes (a pilot
        # allocation and its partitions, or a nested Flux instance).
        self._total_cores = sum(n.n_cores for n in self.nodes)
        self._total_gpus = sum(n.n_gpus for n in self.nodes)
        self._free_cores = sum(n.free_cores for n in self.nodes)
        self._free_gpus = sum(n.free_gpus for n in self.nodes)
        # Usable capacity: total minus the capacity of DOWN nodes.
        # Updated only by fault events (Node.fail/recover), so healthy
        # runs never touch it after construction.
        self._down_nodes = sum(1 for n in self.nodes if not n.is_up)
        self._usable_cores = self._total_cores - sum(
            n.n_cores for n in self.nodes if not n.is_up)
        self._usable_gpus = self._total_gpus - sum(
            n.n_gpus for n in self.nodes if not n.is_up)
        # First-fit scan hint: every node at a position below
        # ``_scan_hint`` is fully busy (zero free cores and GPUs), so
        # ``try_place`` can skip straight past them.  The hint advances
        # lazily during placement and is pulled back whenever a node
        # frees resources (including through *another* allocation that
        # shares the node — the delta callback carries the node index).
        self._pos = {n.index: i for i, n in enumerate(self.nodes)}
        self._scan_hint = 0
        for node in self.nodes:
            node._watchers.append(self)

    def _on_node_delta(self, d_cores: int, d_gpus: int, index: int) -> None:
        """A watched node's free counts changed by the given deltas."""
        self._free_cores += d_cores
        self._free_gpus += d_gpus
        if d_cores > 0 or d_gpus > 0:
            pos = self._pos[index]
            if pos < self._scan_hint:
                self._scan_hint = pos

    def _on_node_down(self, index: int, n_cores: int, n_gpus: int) -> None:
        """A watched node went DOWN: shrink the usable capacity."""
        self._down_nodes += 1
        self._usable_cores -= n_cores
        self._usable_gpus -= n_gpus

    def _on_node_up(self, index: int, n_cores: int, n_gpus: int) -> None:
        """A watched node recovered from DOWN."""
        self._down_nodes -= 1
        self._usable_cores += n_cores
        self._usable_gpus += n_gpus

    def detach(self) -> None:
        """Stop tracking node-level changes (allocation retired)."""
        for node in self.nodes:
            try:
                node._watchers.remove(self)
            except ValueError:  # pragma: no cover - already detached
                pass

    # -- capacity ------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return self._total_cores

    @property
    def total_gpus(self) -> int:
        return self._total_gpus

    @property
    def free_cores(self) -> int:
        return self._free_cores

    @property
    def free_gpus(self) -> int:
        return self._free_gpus

    @property
    def busy_cores(self) -> int:
        return self._total_cores - self._free_cores

    @property
    def usable_cores(self) -> int:
        """Cores on nodes that are not DOWN (equals ``total_cores`` in
        a healthy allocation)."""
        return self._usable_cores

    @property
    def usable_gpus(self) -> int:
        return self._usable_gpus

    @property
    def n_down_nodes(self) -> int:
        return self._down_nodes

    def up_nodes(self) -> List[Node]:
        """The healthy (UP) nodes, in allocation order."""
        return [n for n in self.nodes if n.is_up]

    # -- partitioning ----------------------------------------------------------

    def partition(self, n_partitions: int) -> List["Allocation"]:
        """Split into ``n_partitions`` disjoint, contiguous sub-allocations.

        Node counts differ by at most one between partitions.  Raises
        when there are more partitions than nodes.
        """
        if n_partitions < 1:
            raise AllocationError(f"need >=1 partition, got {n_partitions}")
        if n_partitions > self.n_nodes:
            raise AllocationError(
                f"cannot split {self.n_nodes} nodes into {n_partitions} partitions"
            )
        base, extra = divmod(self.n_nodes, n_partitions)
        parts: List[Allocation] = []
        cursor = 0
        for i in range(n_partitions):
            size = base + (1 if i < extra else 0)
            parts.append(Allocation(
                self.cluster, self.nodes[cursor:cursor + size],
                walltime=self.walltime,
                job_id=f"{self.job_id}.p{i:03d}" if self.job_id else f"p{i:03d}",
            ))
            cursor += size
        return parts

    def split_nodes(self, first_n: int) -> List["Allocation"]:
        """Split into two allocations of ``first_n`` and the remainder."""
        if not 0 < first_n < self.n_nodes:
            raise AllocationError(
                f"cannot split off {first_n} of {self.n_nodes} nodes"
            )
        return [
            Allocation(self.cluster, self.nodes[:first_n],
                       walltime=self.walltime, job_id=f"{self.job_id}.a"),
            Allocation(self.cluster, self.nodes[first_n:],
                       walltime=self.walltime, job_id=f"{self.job_id}.b"),
        ]

    # -- placement --------------------------------------------------------------

    def try_place(self, spec: ResourceSpec) -> Optional[List[Placement]]:
        """First-fit placement of ``spec`` across the allocation's nodes.

        Returns the list of per-node placements, or ``None`` when the
        spec does not currently fit.  Multi-node specs are packed
        node-by-node (whole nodes when ``exclusive_nodes``).
        """
        cores_needed = spec.cores
        gpus_needed = spec.gpus
        if cores_needed > self._free_cores or gpus_needed > self._free_gpus:
            # Aggregate shortfall: no node-by-node scan can succeed.
            return None
        # Advance the scan hint past fully-busy nodes, then start the
        # first-fit scan there.  Nodes below the hint have nothing to
        # give (neither partial cores nor idle-node exclusivity), so
        # skipping them cannot change which placement is found.
        nodes = self.nodes
        n_nodes = len(nodes)
        hint = self._scan_hint
        while hint < n_nodes:
            node = nodes[hint]
            if node._free_cores or node._free_gpus:
                break
            hint += 1
        self._scan_hint = hint
        placements: List[Placement] = []
        try:
            if spec.exclusive_nodes:
                for i in range(hint, n_nodes):
                    if cores_needed <= 0 and gpus_needed <= 0:
                        break
                    node = nodes[i]
                    if not node.is_idle:
                        continue
                    placements.append(node.allocate(node.n_cores, node.n_gpus))
                    cores_needed -= node.n_cores
                    gpus_needed -= node.n_gpus
            else:
                for i in range(hint, n_nodes):
                    if cores_needed <= 0 and gpus_needed <= 0:
                        break
                    node = nodes[i]
                    take_c = min(cores_needed, len(node._free_cores))
                    take_g = min(gpus_needed, len(node._free_gpus))
                    if take_c <= 0 and take_g <= 0:
                        continue
                    placements.append(node.allocate(max(take_c, 0), max(take_g, 0)))
                    cores_needed -= take_c
                    gpus_needed -= take_g
            if cores_needed > 0 or gpus_needed > 0:
                raise ResourceError("insufficient free resources")
        except ResourceError:
            self.release(placements)
            return None
        return placements

    def release(self, placements: Iterable[Placement]) -> None:
        """Release a list of placements previously handed out."""
        by_index = self._by_index
        for pl in placements:
            by_index[pl.node_index].release(pl)

    def __repr__(self) -> str:
        return (
            f"<Allocation {self.job_id or '?'} nodes={self.n_nodes} "
            f"cores={self.free_cores}/{self.total_cores}>"
        )


class Cluster:
    """A homogeneous HPC machine."""

    def __init__(self, name: str, n_nodes: int, cores_per_node: int,
                 gpus_per_node: int = 0, mem_gb_per_node: float = 512.0) -> None:
        if n_nodes < 1:
            raise AllocationError(f"cluster needs >=1 node, got {n_nodes}")
        self.name = name
        self.cores_per_node = cores_per_node
        self.gpus_per_node = gpus_per_node
        self.mem_gb_per_node = mem_gb_per_node
        self.nodes = [
            Node(i, cores_per_node, gpus_per_node, mem_gb_per_node,
                 name=f"{name}-{i:05d}")
            for i in range(n_nodes)
        ]
        self._free_indices = set(range(n_nodes))
        self._job_seq = 0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    @property
    def free_nodes(self) -> int:
        """Nodes not currently granted to any allocation."""
        return len(self._free_indices)

    def allocate_nodes(self, n_nodes: int,
                       walltime: float = float("inf")) -> Allocation:
        """Grant ``n_nodes`` currently-free nodes as an allocation.

        Raises :class:`AllocationError` when fewer are free; callers
        that want queueing go through
        :meth:`repro.rjms.slurm.SlurmController.submit_batch_job`.
        """
        if n_nodes < 1:
            raise AllocationError(f"need >=1 node, got {n_nodes}")
        if n_nodes > len(self._free_indices):
            raise AllocationError(
                f"{self.name}: requested {n_nodes} nodes, only "
                f"{len(self._free_indices)} free"
            )
        picked = sorted(self._free_indices)[:n_nodes]
        self._free_indices.difference_update(picked)
        nodes = [self.nodes[i] for i in picked]
        self._job_seq += 1
        return Allocation(self, nodes, walltime=walltime,
                          job_id=f"{self.name}.job.{self._job_seq:04d}")

    def release_allocation(self, allocation: Allocation) -> None:
        """Return an allocation's nodes to the free pool."""
        for node in allocation.nodes:
            if node.index in self._free_indices:
                raise AllocationError(
                    f"{self.name}: node {node.index} double-released")
            self._free_indices.add(node.index)
        allocation.detach()

    def release_all(self) -> None:
        """Return every node to the free pool (end of experiment)."""
        self._free_indices = set(range(self.n_nodes))

    def unwire(self) -> None:
        """Detach every allocation from the nodes' watcher lists
        (session teardown: node and allocation point at each other)."""
        for node in self.nodes:
            node._watchers.clear()

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.name} nodes={self.n_nodes} "
            f"cpn={self.cores_per_node} gpn={self.gpus_per_node}>"
        )
