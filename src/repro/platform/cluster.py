"""Cluster and allocation models.

A :class:`Cluster` is a homogeneous set of :class:`~repro.platform.node.Node`
objects (the paper's substrate, Frontier, is homogeneous at the level
the experiments exercise).  An :class:`Allocation` is the subset of
nodes granted to one pilot job; it can be carved into disjoint
:meth:`partitions <Allocation.partition>` for multi-instance Flux /
Dragon deployments.  Each placed task holds one :class:`Grant`: its
nodes and the cores and GPUs it holds on each, registered in the
allocation that granted it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..exceptions import AllocationError, ResourceError
from .node import Node, NodeHealth
from .spec import ResourceSpec


class Grant:
    """One task's placement: its nodes in allocation order, the cores
    and GPUs held on each, and their totals (whole nodes for an
    ``exclusive_nodes`` spec).  Built and registered by
    :meth:`Allocation.try_place`; only the same allocation's
    :meth:`Allocation.release` takes it back."""

    __slots__ = ("nodes", "node_cores", "node_gpus", "cores", "gpus")

    def __init__(self, nodes: List[Node], node_cores: List[int],
                 node_gpus: List[int], cores: int, gpus: int) -> None:
        self.nodes = nodes
        self.node_cores = node_cores
        self.node_gpus = node_gpus
        self.cores = cores
        self.gpus = gpus

    def __repr__(self) -> str:
        return (f"<Grant nodes={[n.index for n in self.nodes]} "
                f"cores={self.cores} gpus={self.gpus}>")


def _push_per_node(grant: Grant, sign: int) -> None:
    """Per-node deltas (``sign`` times each UP node's share) for a grant
    whose nodes do not share one watcher list, as across a partition
    boundary or a nested instance, or a release over an unhealthy node."""
    for node, cores, gpus in zip(grant.nodes, grant.node_cores,
                                 grant.node_gpus):
        if node.health is NodeHealth.UP:
            for watcher in node._watchers:
                watcher._on_node_delta(sign * cores, sign * gpus, node.index)


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
        indices = [n.index for n in self.nodes]
        if any(a >= b for a, b in zip(indices, indices[1:])):
            # ``release`` relies on this order for its scan-hint
            # pull-back; every constructor sorts or slices.
            raise AllocationError(
                "allocation nodes must be in ascending cluster index")
        #: Live grants by ``id`` (the value keeps the id from reuse).
        self._live: dict = {}
        # Aggregate counters, maintained incrementally.  The node set
        # is fixed for the allocation's lifetime, so the totals are
        # computed once; the free counts are pushed on every grant,
        # release and health change (see Node._watchers), which keeps
        # them exact even when several allocations share nodes (a pilot
        # allocation and its partitions, or a nested Flux instance).
        self._total_cores = sum(n.n_cores for n in self.nodes)
        self._total_gpus = sum(n.n_gpus for n in self.nodes)
        self._free_cores = sum(n.free_cores for n in self.nodes)
        self._free_gpus = sum(n.free_gpus for n in self.nodes)
        # Usable capacity: total minus the capacity of DOWN nodes (a
        # DRAINING node still counts, as in ``_on_node_down``).
        # Updated only by fault events (Node.fail/recover), so healthy
        # runs never touch it after construction.
        down = [n for n in self.nodes if n.health is NodeHealth.DOWN]
        self._down_nodes = len(down)
        self._usable_cores = self._total_cores - sum(n.n_cores for n in down)
        self._usable_gpus = self._total_gpus - sum(n.n_gpus for n in down)
        # First-fit scan hint: every node at a position below
        # ``_scan_hint`` is fully busy (zero free cores and GPUs), so
        # ``try_place`` can skip straight past them.  The hint advances
        # lazily during placement and is pulled back whenever a node
        # frees resources (including through *another* allocation that
        # shares the node — the delta callback carries the node index).
        self._pos = {index: i for i, index in enumerate(indices)}
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

    def try_place(self, spec: ResourceSpec) -> Optional[Grant]:
        """First-fit placement of ``spec`` across the allocation's nodes.

        Returns the task's :class:`Grant`, or ``None`` when the spec
        does not currently fit.  Multi-node specs are packed
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
            if node.free_cores or node.free_gpus:
                break
            hint += 1
        self._scan_hint = hint
        # The scan claims counts as it goes; the watchers hear of the
        # grant only once it is complete (see ``release``).
        watchers = nodes[hint]._watchers if hint < n_nodes else None
        shared = True
        taken: List[Node] = []
        node_cores: List[int] = []
        node_gpus: List[int] = []
        exclusive = spec.exclusive_nodes
        for i in range(hint, n_nodes):
            node = nodes[i]
            free_c = node.free_cores
            free_g = node.free_gpus
            if exclusive:
                if free_c != node.n_cores or free_g != node.n_gpus:
                    continue
                take_c, take_g = free_c, free_g
            else:
                take_c = cores_needed if cores_needed < free_c else free_c
                take_g = gpus_needed if gpus_needed < free_g else free_g
                if not (take_c or take_g):
                    continue
            node.free_cores = free_c - take_c
            node.free_gpus = free_g - take_g
            if shared and node._watchers != watchers:
                shared = False
            taken.append(node)
            node_cores.append(take_c)
            node_gpus.append(take_g)
            cores_needed -= take_c
            gpus_needed -= take_g
            if cores_needed <= 0 and gpus_needed <= 0:
                break
        else:
            # Shortfall: hand back what the scan claimed (all or nothing).
            for node, take_c, take_g in zip(taken, node_cores, node_gpus):
                node.free_cores += take_c
                node.free_gpus += take_g
            return None
        grant = Grant(taken, node_cores, node_gpus,
                      spec.cores - cores_needed, spec.gpus - gpus_needed)
        self._live[id(grant)] = grant
        if shared:
            for watcher in watchers:
                watcher._on_node_delta(-grant.cores, -grant.gpus,
                                       taken[0].index)
        else:
            _push_per_node(grant, -1)
        return grant

    def release(self, grant: Grant) -> None:
        """Give back a grant this allocation handed out.

        Raises :class:`ResourceError`, changing nothing, unless
        ``grant`` is live here: a double free, a release to the wrong
        allocation and a look-alike grant built by hand are all
        rejected.  Counts return to free on UP nodes; on unhealthy
        nodes they are confiscated (lost) until the node recovers, so
        no delta reaches the watchers and the node keeps reading as
        fully busy to the placement scan.
        """
        if self._live.pop(id(grant), None) is not grant:
            raise ResourceError(
                f"{self.job_id or '?'}: release of a grant this allocation "
                f"does not hold (double free, wrong allocation or never "
                f"granted)")
        # One aggregate delta per watcher when every node is UP and
        # shares one watcher list.  Its first node is its lowest
        # position in every watcher (all list nodes in ascending
        # cluster index), so the scan-hint pull-back is as per node.
        up = NodeHealth.UP
        nodes = grant.nodes
        watchers = nodes[0]._watchers
        shared = True
        for node, cores, gpus in zip(nodes, grant.node_cores,
                                     grant.node_gpus):
            if node.health is up:
                node.free_cores += cores
                node.free_gpus += gpus
                if shared and node._watchers != watchers:
                    shared = False
            else:
                node.lost_cores += cores
                node.lost_gpus += gpus
                shared = False
        if shared:
            index = nodes[0].index
            for watcher in watchers:
                watcher._on_node_delta(grant.cores, grant.gpus, index)
        else:
            _push_per_node(grant, 1)

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
