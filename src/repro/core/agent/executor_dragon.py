"""The Dragon executor: lightweight high-throughput launching (§3.2.2).

Tasks are serialized onto the Dragon runtime's ZeroMQ task pipe; a
watcher process consumes completion events from the return pipe and
updates task states.  A startup watchdog aborts the backend when the
runtime does not come up within ``dragon_startup_timeout`` seconds
(the paper's safeguard against stalled bootstraps), triggering
executor failover.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ...dragon import DragonRuntime, DragonTask
from ...dragon.runtime import MODE_EXEC as DRAGON_EXEC
from ...dragon.runtime import MODE_FUNC as DRAGON_FUNC
from ...platform.cluster import Allocation
from ..description import MODE_FUNCTION
from .executor_base import ExecutorBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import Task
    from .agent import Agent


class DragonExecutor(ExecutorBase):
    """Drives one or more concurrent Dragon runtime instances."""

    backend = "dragon"

    def __init__(self, agent: "Agent", allocation: Allocation,
                 n_instances: int = 1, fail_startup: bool = False) -> None:
        super().__init__(agent, allocation)
        partitions = allocation.partition(n_instances)
        self.runtimes: List[DragonRuntime] = [
            DragonRuntime(self.env, part, self.latencies, self.rng,
                          instance_id=f"{agent.uid}.dragon.{i:03d}",
                          profiler=self.profiler, fail_startup=fail_startup,
                          metrics=self.metrics, faults=agent.faults)
            for i, part in enumerate(partitions)
        ]
        self._task_map: Dict[str, "Task"] = {}
        self._task_runtime: Dict[str, DragonRuntime] = {}
        self._rr = 0

    @property
    def n_instances(self) -> int:
        return len(self.runtimes)

    @property
    def outstanding(self) -> int:
        return sum(rt.n_submitted - rt.n_completed - rt.n_failed
                   for rt in self.runtimes)

    def start(self):
        """Bootstrap all runtimes concurrently, each under a watchdog."""
        procs = [self.env.process(self._start_one(rt)) for rt in self.runtimes]
        yield self.env.all_of(procs)
        self.runtimes = [rt for rt in self.runtimes if rt.is_ready]
        if not self.runtimes:
            self.failed = True
            if self.profiler is not None:
                self.profiler.record(f"{self.agent.uid}.dragon",
                                     "backend_failed", kind="dragon",
                                     reason="startup timeout")
            return
        self.ready = True
        self.ready_at = self.env.now
        for rt in self.runtimes:
            rt.on_task_start = self._on_start
            self.env.process(self._watch(rt))

    def _start_one(self, runtime: DragonRuntime):
        """Start one runtime, racing it against the startup watchdog."""
        proc = self.env.process(runtime.start())
        timeout = self.env.timeout(self.latencies.dragon_startup_timeout)
        yield self.env.any_of([proc, timeout])
        if not runtime.is_ready:
            runtime.crash("startup timeout")

    def shutdown(self) -> None:
        self.ready = False
        for rt in self.runtimes:
            rt.shutdown()

    def unwire(self) -> None:
        for rt in self.runtimes:
            rt.on_task_start = None

    def submit(self, task: "Task") -> None:
        td = task.description
        runtime = self._pick_runtime()
        dragon_mode = DRAGON_FUNC if td.mode == MODE_FUNCTION else DRAGON_EXEC
        self.n_submitted += 1
        self._task_map[task.uid] = task
        self._task_runtime[task.uid] = runtime
        runtime.submit(DragonTask(
            task_id=task.uid, mode=dragon_mode,
            duration=td.duration, fail=td.fail))

    def cancel(self, task: "Task") -> bool:
        """Cancel the task inside its Dragon runtime."""
        runtime = self._task_runtime.get(task.uid)
        if runtime is None:
            return False
        return runtime.cancel(task.uid, reason="canceled by RP")

    def _pick_runtime(self) -> DragonRuntime:
        """Least-loaded runtime; round-robin breaks ties."""
        loads = [rt.n_submitted - rt.n_completed - rt.n_failed
                 for rt in self.runtimes]
        low = min(loads)
        candidates = [rt for rt, load in zip(self.runtimes, loads)
                      if load == low]
        self._rr = (self._rr + 1) % len(candidates)
        return candidates[self._rr]

    def _on_start(self, task_id: str) -> None:
        task = self._task_map.get(task_id)
        if task is not None:
            self.n_active += 1
            self._task_started(task)

    def _watch(self, runtime: DragonRuntime):
        """Consume one runtime's completion pipe."""
        while True:
            completion = yield runtime.completion_pipe.recv()
            task = self._task_map.pop(completion.task_id, None)
            self._task_runtime.pop(completion.task_id, None)
            if task is None:
                continue
            if task.exec_start is not None and task.exec_stop is None:
                self.n_active -= 1
            if completion.ok:
                # Backdate to the true payload end: the completion
                # message crossed the zmq pipe after the fact.
                task.mark_exec_stop(when=completion.stop_time)
                self.agent.attempt_finished(task, ok=True)
            else:
                self.agent.attempt_finished(
                    task, ok=False,
                    reason=completion.error or "dragon task failed",
                    infra=completion.infra)

    # -- fault hooks ---------------------------------------------------------

    def on_node_failure(self, node) -> None:
        """Forward the failure to the runtime whose partition owns the
        node; its worker pool shrinks and tasks there are killed."""
        for rt in self.runtimes:
            if node.index in rt.allocation._pos:
                rt.fail_node(node)
                return

    def on_node_recover(self, node) -> None:
        for rt in self.runtimes:
            if node.index in rt.allocation._pos:
                rt.recover_node(node)
                return
