"""The Flux executor: asynchronous, event-driven integration (§3.2.1).

Tasks are serialized into jobspecs and submitted over the instance's
ingest RPC; the executor never polls — a watcher process per instance
consumes the job event stream and maps Flux lifecycle events onto RP
task states.  Multiple concurrent instances (the *flux_n* and hybrid
configurations) are managed through a
:class:`~repro.flux.hierarchy.FluxHierarchy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ...exceptions import JobspecError, RuntimeStartupError
from ...flux import (
    EV_EXCEPTION,
    EV_FINISH,
    EV_START,
    FluxHierarchy,
    Jobspec,
)
from ...platform.cluster import Allocation
from .executor_base import ExecutorBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import Task
    from .agent import Agent


class FluxExecutor(ExecutorBase):
    """Drives one or more concurrent Flux instances."""

    backend = "flux"

    def __init__(self, agent: "Agent", allocation: Allocation,
                 n_instances: int = 1, policy: str = "fcfs") -> None:
        super().__init__(agent, allocation)
        self.hierarchy = FluxHierarchy(
            self.env, allocation, self.latencies, self.rng,
            n_instances=n_instances, policy=policy,
            name=f"{agent.uid}.flux", profiler=self.profiler,
            metrics=self.metrics, faults=agent.faults,
            lean=agent.session.lean,
            tracer=agent.obs.tracer if agent.obs.enabled else None)
        #: flux job id -> RP task, for event correlation.
        self._job_to_task: Dict[str, "Task"] = {}
        #: RP task uid -> (instance, flux job id), for cancellation.
        self._task_to_job: Dict[str, tuple] = {}
        #: id(description) -> (description, jobspec).  Descriptions are
        #: frozen, so identical submissions reuse one validated spec —
        #: bulk synthetic workloads share a single description across
        #: every task.  The description is pinned in the value to keep
        #: its id() from being recycled.
        self._spec_cache: Dict[int, tuple] = {}

    @property
    def n_instances(self) -> int:
        return self.hierarchy.n_instances

    @property
    def outstanding(self) -> int:
        return sum(inst.outstanding for inst in self.hierarchy.instances)

    def start(self):
        """Bootstrap all instances concurrently, then start watchers."""
        yield from self.hierarchy.start_all()
        self.ready = True
        self.ready_at = self.env.now
        for inst in self.hierarchy.instances:
            # Only the events _on_event acts on: submit/alloc/release
            # are bookkeeping noise at this layer and skipping them
            # removes a delivery round-trip per event per job.  A
            # callback subscription (rather than a queue + watcher
            # process) saves a blocking-get event per delivery; the
            # handler is fully synchronous so this is safe.
            inst.events.subscribe_callback(
                self._on_event, names=(EV_START, EV_FINISH, EV_EXCEPTION))

    def shutdown(self) -> None:
        self.ready = False
        self.hierarchy.shutdown_all()

    def unwire(self) -> None:
        self.hierarchy.unwire()

    def submit(self, task: "Task") -> None:
        td = task.description
        entry = self._spec_cache.get(id(td))
        if entry is None or entry[0] is not td:
            spec = Jobspec(
                command=td.executable,
                resources=td.resources,
                duration=td.duration,
                # RP priority [-16, 15] maps onto flux urgency [0, 31].
                urgency=16 + td.priority,
                attributes={"fail": True} if td.fail else {},
            )
            self._spec_cache[id(td)] = (td, spec)
        else:
            spec = entry[1]
        try:
            instance = self.hierarchy.least_loaded(
                min_cores=td.resources.cores, min_gpus=td.resources.gpus)
            job = instance.submit(spec)
        except JobspecError as exc:
            self.agent.attempt_finished(task, ok=False, reason=str(exc))
            return
        except RuntimeStartupError as exc:
            # No ready instance (or it died between pick and submit):
            # infrastructural, so the retry policy may reroute the task.
            self.agent.attempt_finished(task, ok=False, reason=str(exc),
                                        infra=True)
            return
        self.n_submitted += 1
        self._job_to_task[job.job_id] = task
        self._task_to_job[task.uid] = (instance, job.job_id)

    def cancel(self, task: "Task") -> bool:
        """Cancel the task's Flux job (pending or running)."""
        entry = self._task_to_job.get(task.uid)
        if entry is None:
            return False
        instance, job_id = entry
        return instance.cancel(job_id, reason="canceled by RP")

    def _on_event(self, event):
        """Map one delivered Flux job event onto RP task state."""
        task = self._job_to_task.get(event.job_id)
        if task is None:
            return
        if event.name == EV_START:
            self.n_active += 1
            self._task_started(task)
        elif event.name == EV_FINISH:
            self.n_active -= 1
            del self._job_to_task[event.job_id]
            self._task_to_job.pop(task.uid, None)
            task.mark_exec_stop()
            self.agent.attempt_finished(task, ok=True)
        elif event.name == EV_EXCEPTION:
            if task.exec_start is not None and task.exec_stop is None:
                self.n_active -= 1
            del self._job_to_task[event.job_id]
            self._task_to_job.pop(task.uid, None)
            reason = event.meta.get("reason", "flux job exception")
            self.agent.attempt_finished(task, ok=False, reason=reason,
                                        infra=bool(event.meta.get("infra")))

    # -- fault hooks ---------------------------------------------------------

    def on_node_failure(self, node) -> None:
        """Forward the failure to the instance whose partition owns the
        node; its running jobs there are killed and requeued."""
        for inst in self.hierarchy.instances:
            if node.index in inst.allocation._by_index:
                inst.fail_node(node)
                return

    def on_node_recover(self, node) -> None:
        """Recovered capacity: kick the owning instance's scheduler."""
        for inst in self.hierarchy.instances:
            if node.index in inst.allocation._by_index:
                inst._kick()
                return


class ShardedFluxExecutor(ExecutorBase):
    """:class:`FluxExecutor` twin whose instances live in shard workers.

    Selected by the agent when the session runs a
    :class:`~repro.shard.coordinator.ShardEngine`.  The submit path is
    a line-for-line mirror of the sequential executor — same spec
    cache, same routing through ``least_loaded``, same bookkeeping —
    except that the chosen "instance" is an
    :class:`~repro.shard.coordinator.InstanceProxy` and the submit
    itself is a buffered message to the owning shard.

    Job events come back as :class:`~repro.shard.protocol.JobReport`
    batches applied at window boundaries through
    :meth:`apply_report`, which replays :meth:`FluxExecutor._on_event`
    with two extra guards for interleavings the sequential path never
    sees (a task canceled on the coordinator while its report was in
    flight).
    """

    backend = "flux"

    def __init__(self, agent: "Agent", allocation: Allocation,
                 n_instances: int = 1, policy: str = "fcfs") -> None:
        super().__init__(agent, allocation)
        self.engine = agent.session.engine
        assert self.engine is not None, "sharded executor needs an engine"
        self.hierarchy = self.engine.build_hierarchy(
            self, allocation, n_instances=n_instances, policy=policy,
            name=f"{agent.uid}.flux")
        #: flux job id -> RP task, for report correlation.
        self._job_to_task: Dict[str, "Task"] = {}
        #: RP task uid -> (proxy, flux job id), for cancellation.
        self._task_to_job: Dict[str, tuple] = {}
        #: id(description) -> (description, jobspec); see FluxExecutor.
        self._spec_cache: Dict[int, tuple] = {}
        #: Job ids whose START report was applied (task then counted
        #: in n_active); FINISH/EXCEPTION reports decrement only for
        #: these, so n_active stays balanced under report latency.
        self._started: set = set()

    @property
    def n_instances(self) -> int:
        return self.hierarchy.n_instances

    @property
    def outstanding(self) -> int:
        return sum(inst.outstanding for inst in self.hierarchy.instances)

    def start(self):
        """Bootstrap all shards' instances concurrently."""
        yield from self.hierarchy.start_all()
        self.ready = True
        self.ready_at = self.env.now

    def shutdown(self) -> None:
        self.ready = False
        self.hierarchy.shutdown_all()

    def submit(self, task: "Task") -> None:
        td = task.description
        entry = self._spec_cache.get(id(td))
        if entry is None or entry[0] is not td:
            spec = Jobspec(
                command=td.executable,
                resources=td.resources,
                duration=td.duration,
                # RP priority [-16, 15] maps onto flux urgency [0, 31].
                urgency=16 + td.priority,
                attributes={"fail": True} if td.fail else {},
            )
            self._spec_cache[id(td)] = (td, spec)
        else:
            spec = entry[1]
        try:
            proxy = self.hierarchy.least_loaded(
                min_cores=td.resources.cores, min_gpus=td.resources.gpus)
            job_id = proxy.submit(spec)
        except JobspecError as exc:
            self.agent.attempt_finished(task, ok=False, reason=str(exc))
            return
        except RuntimeStartupError as exc:
            self.agent.attempt_finished(task, ok=False, reason=str(exc),
                                        infra=True)
            return
        self.n_submitted += 1
        self._job_to_task[job_id] = task
        self._task_to_job[task.uid] = (proxy, job_id)

    def cancel(self, task: "Task") -> bool:
        """Cancel the task's Flux job in its shard (fire and forget)."""
        entry = self._task_to_job.get(task.uid)
        if entry is None:
            return False
        proxy, job_id = entry
        return proxy.cancel(job_id, reason="canceled by RP")

    def apply_report(self, rep) -> None:
        """Apply one shard job report at the window boundary."""
        # Proxy completion counters first: the shard-side instance
        # counts every job (known to the agent or not), and routing
        # balance depends on the mirrors matching.
        proxy = self.hierarchy.instances[rep.instance]
        if rep.name == EV_FINISH:
            proxy.n_completed += 1
        elif rep.name == EV_EXCEPTION:
            proxy.n_failed += 1
        task = self._job_to_task.get(rep.job_id)
        if task is None:
            return
        if rep.name == EV_START:
            if task.is_final:
                # Canceled on the coordinator while the start report
                # was in flight; the shard-side cancel is already on
                # its way and will produce the exception report.
                return
            self.n_active += 1
            self._started.add(rep.job_id)
            self._task_started(task)
            # Backdate to the shard-side start: exec intervals must
            # pair with the backdated stop below, or sub-window tasks
            # would report negative durations.
            task.exec_start = rep.time
        elif rep.name == EV_FINISH:
            if rep.job_id in self._started:
                self._started.discard(rep.job_id)
                self.n_active -= 1
            del self._job_to_task[rep.job_id]
            self._task_to_job.pop(task.uid, None)
            if not task.is_final:
                # Backdate to the shard-side event time: the window
                # only delays observation, not execution.
                task.mark_exec_stop(when=rep.time)
            self.agent.attempt_finished(task, ok=True)
        elif rep.name == EV_EXCEPTION:
            if rep.job_id in self._started:
                self._started.discard(rep.job_id)
                self.n_active -= 1
            del self._job_to_task[rep.job_id]
            self._task_to_job.pop(task.uid, None)
            reason = rep.meta.get("reason", "flux job exception")
            self.agent.attempt_finished(task, ok=False, reason=reason,
                                        infra=bool(rep.meta.get("infra")))

    # -- fault hooks ---------------------------------------------------------

    def on_node_failure(self, node) -> None:
        """Ship the node failure to the shard owning its partition."""
        from ...shard.protocol import FailNodeMsg

        for proxy in self.hierarchy.instances:
            if node.index in proxy.allocation._by_index:
                self.engine.post(proxy.host,
                                 FailNodeMsg(self.env._now, node.index))
                return

    def on_node_recover(self, node) -> None:
        from ...shard.protocol import RecoverNodeMsg

        for proxy in self.hierarchy.instances:
            if node.index in proxy.allocation._by_index:
                self.engine.post(proxy.host,
                                 RecoverNodeMsg(self.env._now, node.index))
                return
