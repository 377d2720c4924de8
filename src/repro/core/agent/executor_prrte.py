"""The PRRTE executor: RP supplies scheduling, the DVM launches.

The paper (§5): "Our work demonstrated how RP complements PRRTE's
minimalist design by supplying scheduling, fault tolerance, and
coordination logic."  Accordingly this executor pairs the agent's
:class:`~repro.core.agent.scheduler.PartitionScheduler` (count-based
placement) with a :class:`~repro.rjms.prrte.PrrteDVM` (fast launch,
no ceiling, no internal queue).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...platform.cluster import Allocation
from ...rjms.prrte import PrrteDVM
from .executor_base import ExecutorBase
from .scheduler import PartitionScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import Task
    from .agent import Agent


class PrrteExecutor(ExecutorBase):
    """Launches executable tasks through a PRRTE DVM."""

    backend = "prrte"

    def __init__(self, agent: "Agent", allocation: Allocation) -> None:
        super().__init__(agent, allocation)
        self.dvm = PrrteDVM(self.env, allocation, self.latencies, self.rng,
                            dvm_id=f"{agent.uid}.prrte",
                            profiler=self.profiler)
        self.scheduler = PartitionScheduler(
            self.env, allocation, name=f"{agent.uid}.prrte.sched")
        self._steps = {}

    @property
    def outstanding(self) -> int:
        return self.scheduler.queue_depth + self.n_active

    def start(self):
        yield from self.dvm.start()
        self.ready = True
        self.ready_at = self.env.now

    def shutdown(self) -> None:
        self.ready = False
        self.dvm.shutdown()
        self.scheduler.cancel_pending()

    def submit(self, task: "Task") -> None:
        self.n_submitted += 1
        self.env.process(self._execute(task))

    def cancel(self, task: "Task") -> bool:
        step = self._steps.get(task.uid)
        if step is not None and getattr(step, "is_alive", False):
            step.interrupt("canceled")
            return True
        return False

    def _execute(self, task: "Task"):
        from ...exceptions import SchedulingError
        from ...sim import Interrupt

        try:
            grant = yield self.scheduler.place(
                task.description.resources)
        except SchedulingError as exc:
            self.agent.attempt_finished(task, ok=False, reason=str(exc))
            return
        if task.is_final:
            self.scheduler.free(grant)
            return
        self.n_active += 1
        payload_failed = task.description.fail
        duration = 0.0 if payload_failed else task.description.duration
        canceled = False
        step = self.env.process(self.dvm.run_task(
            duration=duration,
            on_start=lambda: self._task_started(task),
            on_stop=task.mark_exec_stop,
        ))
        self._steps[task.uid] = step
        try:
            yield step
        except Interrupt:
            canceled = True
        finally:
            self.n_active -= 1
            self.scheduler.free(grant)
            self._steps.pop(task.uid, None)
        if canceled:
            return
        if payload_failed:
            self.agent.attempt_finished(task, ok=False,
                                        reason="task payload failed")
        else:
            self.agent.attempt_finished(task, ok=True)
