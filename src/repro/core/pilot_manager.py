"""The pilot manager: submits pilot jobs and brings up agents."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Union

from .agent.agent import Agent
from .description import PilotDescription
from .pilot import Pilot
from .states import PilotState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session


class PilotManager:
    """Submits pilots: batch allocation -> agent bootstrap -> ACTIVE."""

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.env = session.env
        self.uid = session.ids.next("pmgr")
        self.pilots: List[Pilot] = []

    def submit_pilots(
        self, descriptions: Union[PilotDescription, Sequence[PilotDescription]]
    ) -> Union[Pilot, List[Pilot]]:
        """Submit one or more pilot descriptions.

        Returns a single :class:`Pilot` for a single description, a
        list otherwise.  Pilots launch asynchronously; wait on
        :meth:`Pilot.active_event`.
        """
        single = isinstance(descriptions, PilotDescription)
        descs = [descriptions] if single else list(descriptions)
        pilots = []
        for desc in descs:
            pilot = Pilot(self.env, self.session.ids.next("pilot"), desc,
                          profiler=self.session.profiler)
            pilot.agent = Agent(self.session, pilot)
            self.pilots.append(pilot)
            pilots.append(pilot)
            self.env.process(self._launch(pilot))
        return pilots[0] if single else pilots

    def _launch(self, pilot: Pilot):
        pilot.advance(PilotState.PMGR_LAUNCHING)
        try:
            allocation = yield self.env.process(
                self.session.slurm.submit_batch_job(
                    pilot.description.nodes, pilot.description.walltime))
            pilot.allocation = allocation
            self._release_on_completion(pilot)
            assert pilot.agent is not None
            yield self.env.process(pilot.agent.bootstrap())
        except Exception as exc:  # noqa: BLE001 - any bootstrap failure
            pilot.advance(PilotState.FAILED, reason=str(exc))
            return
        pilot.advance(PilotState.ACTIVE)
        if pilot.description.walltime != float("inf"):
            # Walltime counts from activation; on expiry the allocation
            # disappears: the agent shuts down and unfinished tasks are
            # canceled.
            self.env.schedule(pilot.description.walltime,
                              self._expire, pilot)

    def _expire(self, pilot: Pilot) -> None:
        if pilot.is_final:
            return
        if pilot.agent is not None:
            pilot.agent.shutdown()
        pilot.advance(PilotState.DONE, reason="walltime expired")

    def _release_on_completion(self, pilot: Pilot) -> None:
        """Recycle the pilot's nodes back into the batch system once it
        reaches a final state (late binding: other queued pilots can
        then start)."""

        def _release(_event) -> None:
            if pilot.allocation is not None:
                self.session.slurm.release_job(pilot.allocation)

        ev = pilot.completion_event()
        if ev.processed:  # pragma: no cover - defensive
            _release(ev)
        else:
            assert ev.callbacks is not None
            ev.callbacks.append(_release)

    def unwire(self) -> None:
        """Break the back-references of every pilot (session teardown)."""
        for pilot in self.pilots:
            pilot.unwire()

    def cancel_pilots(self) -> None:
        """Shut down all pilots managed by this manager."""
        for pilot in self.pilots:
            if pilot.agent is not None:
                pilot.agent.shutdown()
            if not pilot.is_final:
                pilot.advance(PilotState.CANCELED)
