"""The session: root object tying the stack together.

A :class:`Session` owns the simulation environment, the machine, the
latency calibration, the RNG streams, the shared profiler, the Slurm
controller and srun facility, and the id registry.  Managers
(:class:`~repro.core.pilot_manager.PilotManager`,
:class:`~repro.core.task_manager.TaskManager`) are created from a
session, mirroring RP's API::

    session = Session(cluster=frontier(64), seed=1)
    pmgr = session.pilot_manager()
    tmgr = session.task_manager()
"""

from __future__ import annotations

from typing import Optional

from ..analytics.profiler import Profiler
from ..ids import IdRegistry
from ..platform.cluster import Cluster
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from ..platform.profiles import frontier
from ..rjms.slurm import SlurmController
from ..rjms.srun import SrunLauncher
from ..sim import Environment, RngStreams


class Session:
    """One run of the middleware stack on one (simulated) machine."""

    def __init__(self, cluster: Optional[Cluster] = None,
                 latencies: LatencyModel = FRONTIER_LATENCIES,
                 seed: int = 0,
                 env: Optional[Environment] = None,
                 trace: bool = True,
                 observe: bool = False,
                 faults=None,
                 lean: bool = False,
                 spill_dir=None,
                 shards=None,
                 shard_window: float = 0.25,
                 shard_inline: bool = False,
                 resilience=None) -> None:
        self.env = env if env is not None else Environment()
        self.cluster = cluster if cluster is not None else frontier()
        self.latencies = latencies
        self.seed = seed
        self.rng = RngStreams(seed)
        self.ids = IdRegistry()
        self.uid = self.ids.next("session")
        #: Memory-lean mode for full-machine sweeps: components drop
        #: retention that only post-hoc inspection reads (retired Flux
        #: jobs, event-stream history).  Simulated behaviour — and the
        #: trace — is identical either way.
        self.lean = lean
        #: ``spill_dir`` bounds profiler RSS by streaming trace events
        #: to chunked JSONL files instead of holding them all in
        #: memory; see :class:`~repro.analytics.profiler.Profiler`.
        self.profiler = Profiler(self.env, enabled=trace,
                                 spill_dir=spill_dir)
        from ..observability import Observability

        self.obs = Observability(self.env, enabled=observe)
        if observe:
            self.obs.attach_kernel(self.env)
        #: Live telemetry plumbing for this run, when progress
        #: streaming is on (see
        #: :class:`~repro.observability.telemetry.RunTelemetry`).  The
        #: harness attaches it; the kernel probe and the shard
        #: engine's window loop reach it here.  ``None`` = off.
        self.telemetry = None
        from ..platform.filesystem import SharedFilesystem

        self.filesystem = SharedFilesystem(self.env)
        self.slurm = SlurmController(self.env, self.cluster, latencies,
                                     self.rng, profiler=self.profiler)
        self.srun = SrunLauncher(self.env, self.slurm, latencies, self.rng,
                                 metrics=self.obs.registry)
        #: Fault model, built from an optional
        #: :class:`~repro.faults.FaultSpec`.  ``None`` (the default)
        #: keeps every fault-instrumented code path inert: no fault
        #: randomness is drawn and traces are identical to a faultless
        #: build.  A spec with all-zero rates still activates the
        #: retry policy (recovery from payload-only failures).
        self.faults = None
        if faults is not None:
            from ..faults import FaultModel

            self.faults = FaultModel(self.env, self.rng, faults,
                                     profiler=self.profiler,
                                     metrics=self.obs.registry)
        #: Partition-sharded execution (multi-core single-run DES).
        #: ``shards=None`` keeps the sequential code path *exactly* —
        #: no engine object, ``run`` delegates straight to the kernel,
        #: traces are bit-identical to pre-shard builds.  ``"auto"``/0
        #: means one shard per core; the engine clamps to the Flux
        #: instance count and stays dormant for non-Flux launchers.
        self.engine = None
        self.shards = 0
        if shards is not None:
            from ..shard import ShardEngine, resolve_shards

            n_shards = resolve_shards(shards)
            if n_shards >= 2:
                self.engine = ShardEngine(self, n_shards,
                                          window=shard_window,
                                          inline=shard_inline,
                                          resilience=resilience)
                self.shards = n_shards
        self._closed = False
        #: Pilot managers created from this session (for :meth:`unwire`).
        self._pilot_managers: list = []

    def pilot_manager(self):
        """Create a :class:`~repro.core.pilot_manager.PilotManager`."""
        from .pilot_manager import PilotManager

        pmgr = PilotManager(self)
        self._pilot_managers.append(pmgr)
        return pmgr

    def task_manager(self):
        """Create a :class:`~repro.core.task_manager.TaskManager`."""
        from .task_manager import TaskManager

        return TaskManager(self)

    def run(self, until=None):
        """Advance the simulation.

        Delegates to the environment, or — when sharding is active —
        to the :class:`~repro.shard.coordinator.ShardEngine`'s window
        loop, which mirrors ``Environment.run`` semantics exactly.
        """
        if self.engine is not None:
            return self.engine.run(until)
        return self.env.run(until)

    @property
    def now(self) -> float:
        return self.env.now

    def close(self) -> None:
        """Mark the session closed and release machine nodes."""
        if not self._closed:
            self._closed = True
            if self.engine is not None:
                self.engine.close()
            self.cluster.release_all()

    def unwire(self) -> None:
        """Close the session and break the reference cycles its run
        built, so that reference counting frees it once dropped.

        For a caller that keeps only the run's tasks and profiler (the
        harness with ``keep_session=False``): the pilots, agents,
        backends, kernel queue and node watchers are disconnected, so
        the session can neither run nor be inspected afterwards.
        """
        self.close()
        for pmgr in self._pilot_managers:
            pmgr.unwire()
        self._pilot_managers.clear()
        self.env.close()
        self.cluster.unwire()
        self.telemetry = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
