"""The srun executor: RP's default launch path via Slurm.

The agent scheduler places tasks on the partition (count-based), then
each task is launched through the machine-wide
:class:`~repro.rjms.srun.SrunLauncher` — paying the serialized
controller RPC and holding one of the 112 concurrency-ceiling slots
for its whole lifetime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...platform.cluster import Allocation
from .executor_base import ExecutorBase
from .scheduler import PartitionScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import Task
    from .agent import Agent


class SrunExecutor(ExecutorBase):
    """Launches executable tasks with one srun invocation each."""

    backend = "srun"

    def __init__(self, agent: "Agent", allocation: Allocation) -> None:
        super().__init__(agent, allocation)
        self.srun = agent.session.srun
        self.scheduler = PartitionScheduler(
            self.env, allocation, name=f"{agent.uid}.srun.sched",
            metrics=self.metrics)
        self._alive = False
        self._procs = {}
        self._steps = {}
        #: task uid -> grant, so node failures can find
        #: the tasks running on the dead node.
        self._grants = {}

    @property
    def outstanding(self) -> int:
        return self.scheduler.queue_depth + self.n_active

    def start(self):
        """srun needs no bootstrap beyond Slurm itself."""
        self._alive = True
        self.ready = True
        self.ready_at = self.env.now
        if self.profiler is not None:
            self.profiler.record(f"{self.agent.uid}.srun", "backend_start",
                                 kind="srun", nodes=self.allocation.n_nodes)
            self.profiler.record(f"{self.agent.uid}.srun", "backend_ready",
                                 kind="srun", nodes=self.allocation.n_nodes)
        return
        yield  # pragma: no cover - generator protocol

    def shutdown(self) -> None:
        self._alive = False
        self.ready = False
        self.scheduler.cancel_pending()

    def submit(self, task: "Task") -> None:
        self.n_submitted += 1
        self._procs[task.uid] = self.env.process(self._execute(task))

    def cancel(self, task: "Task") -> bool:
        """Kill the running srun step (the client process dies and its
        ceiling slot frees); queued placements clean themselves up when
        granted (the _execute process notices the final task state)."""
        step = self._steps.get(task.uid)
        if step is not None and getattr(step, "is_alive", False):
            step.interrupt("canceled")
            return True
        return False

    def on_node_failure(self, node) -> None:
        """Kill the running steps with grants on the dead node;
        their attempts fail as infrastructure failures and qualify for
        retry.  Queued requests that no longer fit the shrunken
        partition fail immediately instead of deadlocking the queue."""
        from ...exceptions import NodeFailureError

        for uid, grant in list(self._grants.items()):
            if node not in grant.nodes:
                continue
            step = self._steps.get(uid)
            if step is not None and getattr(step, "is_alive", False):
                step.interrupt(NodeFailureError(f"node failure: {node.name}"))
        self.scheduler.node_lost()

    def on_node_recover(self, node) -> None:
        """Recovered capacity may satisfy queued placement requests."""
        self.scheduler._drain()

    def _execute(self, task: "Task"):
        from ...exceptions import BackendError, NodeFailureError, SchedulingError
        from ...sim import Interrupt

        try:
            grant = yield self.scheduler.place(task.description.resources)
        except NodeFailureError as exc:
            self._procs.pop(task.uid, None)
            self.agent.attempt_finished(task, ok=False, reason=str(exc),
                                        infra=True)
            return
        except SchedulingError as exc:
            self._procs.pop(task.uid, None)
            self.agent.attempt_finished(task, ok=False, reason=str(exc))
            return
        if task.is_final:
            # Canceled while waiting for resources.
            self._procs.pop(task.uid, None)
            self.scheduler.free(grant)
            return
        self._grants[task.uid] = grant
        faults = self.agent.faults
        if faults is not None:
            fault = faults.launch_outcome("srun")
            if fault is not None:
                if fault.delay > 0:
                    yield self.env.timeout(fault.delay)
                self._grants.pop(task.uid, None)
                self._procs.pop(task.uid, None)
                self.scheduler.free(grant)
                self.agent.attempt_finished(task, ok=False,
                                            reason=fault.reason, infra=True)
                return
        self.n_active += 1
        payload_failed = task.description.fail
        duration = 0.0 if payload_failed else task.description.duration
        interrupt_cause = None
        step = self.env.process(self.srun.run_task(
            alloc_nodes=self.agent.pilot_nodes,
            duration=duration,
            on_start=lambda: self._task_started(task),
            on_stop=task.mark_exec_stop,
        ))
        self._steps[task.uid] = step
        try:
            yield step
        except Interrupt as interrupt:
            interrupt_cause = interrupt.cause \
                if interrupt.cause is not None else "canceled"
        finally:
            self.n_active -= 1
            self.scheduler.free(grant)
            self._procs.pop(task.uid, None)
            self._steps.pop(task.uid, None)
            self._grants.pop(task.uid, None)
        if interrupt_cause is not None:
            if isinstance(interrupt_cause, (NodeFailureError, BackendError)):
                # Killed by a fault, not canceled: report the attempt so
                # the agent can retry/fail the task.
                self.agent.attempt_finished(task, ok=False,
                                            reason=str(interrupt_cause),
                                            infra=True)
            return
        if payload_failed:
            self.agent.attempt_finished(task, ok=False,
                                        reason="task payload failed")
        else:
            self.agent.attempt_finished(task, ok=True)
