"""Generator-based simulated processes.

A *process* wraps a Python generator that ``yield``\\ s
:class:`~repro.sim.events.Event` objects.  Each yield suspends the
process until the yielded event is processed, at which point the
event's value is sent back into the generator (or its exception is
thrown into it).  A process is itself an event, succeeding with the
generator's return value, so processes can wait on each other.

Processes support *interrupts* (:meth:`Process.interrupt`), which
raise :class:`Interrupt` inside the generator at its current yield
point — used, e.g., by the Dragon runtime's startup-timeout watchdog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..exceptions import SimulationError
from .events import Event, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Environment

ProcessGenerator = Generator[Event, Any, Any]


class _InitSentinel:
    """Shared stand-in for the bootstrap event of every process.

    ``Process._resume`` only reads ``_ok`` and ``_value`` from the
    event it is resumed with; for the initial resume those are always
    ``(True, None)``, so one immutable module-level instance replaces
    a per-process ``Event`` allocation (see
    ``Environment._enqueue_bootstrap``).
    """

    __slots__ = ()
    _ok = True
    _value = None


_INIT = _InitSentinel()


def _throw(generator: ProcessGenerator, exc: BaseException) -> Event:
    """Throw a failed event's exception into ``generator``.

    Once the generator has handled it, the exception's traceback is
    dropped: its frames hold the processes and events that carry the
    exception as their value, so keeping it would leave every handled
    failure (an interrupted srun step) in a reference cycle.
    """
    try:
        next_ev = generator.throw(exc)
    except StopIteration:
        exc.__traceback__ = None
        raise
    exc.__traceback__ = None
    return next_ev


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` passed to :meth:`Process.interrupt` is available as
    ``exc.cause``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Drives a generator through the event queue."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        try:
            generator.send
        except AttributeError:
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        env._processes.add(self)
        # Bootstrap: resume the process at the current simulation time
        # (an urgent queue entry; no init Event is allocated).
        env._enqueue_bootstrap(self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already finished")
        # Detach from the event the process is waiting for, then resume
        # it immediately with the interrupt.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True  # not an error if unhandled by kernel
        self.env._enqueue_event(interrupt_ev, URGENT)
        assert interrupt_ev.callbacks is not None
        interrupt_ev.callbacks.append(self._resume)

    # ------------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        next_ev = self._generator.send(event._value)
                    else:
                        # Mark the failure as handled: it propagates into
                        # the generator rather than crashing the kernel.
                        event._defused = True  # type: ignore[attr-defined]
                        next_ev = _throw(self._generator, event._value)
                except StopIteration as exc:
                    self._target = None
                    self.env._processes.discard(self)
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    self._target = None
                    self.env._processes.discard(self)
                    self.fail(exc)
                    return

                if not isinstance(next_ev, Event):
                    err = SimulationError(
                        f"process yielded non-event {next_ev!r}"
                    )
                    self._target = None
                    try:
                        self._generator.throw(err)
                    except StopIteration as exc:
                        self.env._processes.discard(self)
                        self.succeed(exc.value)
                        return
                    except BaseException as exc:
                        self.env._processes.discard(self)
                        self.fail(exc)
                        return
                    continue

                if next_ev.callbacks is None:
                    # Already processed: resume synchronously with its value.
                    event = next_ev
                    continue

                self._target = next_ev
                next_ev.callbacks.append(self._resume)
                return
        finally:
            self.env._active_process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} alive={self.is_alive}>"
