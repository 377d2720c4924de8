"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic *event / process* duality: low-level
callbacks attach to :class:`Event` objects, while higher-level
simulated components are written as Python generators that ``yield``
events (see :mod:`repro.sim.process`).  The design is intentionally
close to SimPy's, but implemented from scratch because the execution
environment ships no DES library.

Event lifecycle::

    created --> triggered (scheduled in the queue) --> processed

Once *processed*, an event's callbacks have run and its :attr:`value`
is final.  Events may succeed (carrying a value) or fail (carrying an
exception that propagates into any process waiting on them).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Environment

#: Sentinel for "event has no value yet".
PENDING = object()

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for high-urgency events (processed before NORMAL at equal times).
URGENT = 0


def push_event(env, delay: float, priority: int, event) -> None:
    """THE canonical enqueue for 4-tuple (event) queue entries.

    Every code path that schedules an :class:`Event` for dispatch —
    ``Event.succeed`` / ``Event.fail``, ``Timeout`` creation and the
    kernel's ``_enqueue_event`` — funnels through this one function, so
    the queue-entry shape and the sequence-number discipline have a
    single point of truth.  A module-level function (not a method) to
    keep the per-call overhead at one plain call in the hottest path
    of the whole simulator.
    """
    env._seq += 1
    heappush(env._queue, (env._now + delay, priority, env._seq, event))


def push_entry5(env, delay: float, priority: int, payload, marker: bool) -> None:
    """THE canonical enqueue for marker-carrying 5-tuple entries.

    The deferred-entry fast path: process bootstraps (marker ``True``)
    and eventless callbacks (marker ``False``) share this shape; see
    ``Environment._enqueue_bootstrap`` / ``Environment.schedule_callback``.
    The unique sequence number guarantees heap comparisons never reach
    the mixed-length tail of the tuple.
    """
    env._seq += 1
    heappush(env._queue,
             (env._now + delay, priority, env._seq, payload, marker))


class Event:
    """A condition that may happen at a point in simulated time.

    Callbacks appended to :attr:`callbacks` are invoked with the event
    itself once the event is processed by the kernel.

    The kernel dispatches hundreds of thousands of events per run, so
    every event class is slotted: no per-instance ``__dict__``, less
    allocator pressure, faster attribute access in the hot loop.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Failures marked defused are expected to be consumed by a
        #: waiting process and never crash the kernel when unhandled.
        self._defused = False

    # -- introspection ----------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with (or its exception)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # succeed() runs for every message hand-off and semaphore grant
        # in the stack; push_event is the shared fast path.
        push_event(self.env, 0.0, NORMAL, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        push_event(self.env, 0.0, NORMAL, self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    This is the single validation point for negative delays: every
    path that schedules time-based work (``Environment.timeout`` and
    ``Environment.schedule`` alike) funnels through here.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Inlined Event.__init__: Timeout is the most-allocated event
        # class and the super() call shows up in kernel profiles.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        push_event(env, delay, NORMAL, self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class _Deferred:
    """A pre-bound ``(callback, args)`` pair used by
    :meth:`Environment.schedule` in place of a per-call lambda closure."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Any], args: tuple) -> None:
        self.fn = fn
        self.args = args

    def __call__(self, _event: Event) -> None:
        self.fn(*self.args)


class Condition(Event):
    """Composite event triggered when a predicate over child events holds.

    Used through the :class:`AllOf` / :class:`AnyOf` helpers.  The
    condition fails as soon as any child event fails.
    """

    __slots__ = ("events", "_need", "_happened")

    def __init__(self, env: "Environment", events: List[Event], need: int) -> None:
        super().__init__(env)
        self.events = list(events)
        self._need = need
        self._happened = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                # Already delivered; account for it via an immediate callback.
                env.schedule(0.0, self._check, ev)
            else:
                # Not yet *processed* (a Timeout is "triggered" at creation
                # but only fires later): hook its callback list.
                assert ev.callbacks is not None
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self._happened += 1
            if self._happened < self._need:
                return
            self.succeed(self._collect())
        # Unhook from children still pending (an AnyOf's losing
        # watchdog Timeout): _check would return at once for them, and
        # the hook would keep this condition alive in a reference
        # cycle for as long as the child sits in the queue.
        check = self._check
        for ev in self.events:
            if ev.callbacks and check in ev.callbacks:
                ev.callbacks.remove(check)

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self.events
            if ev.triggered and ev._ok
        }


class AllOf(Condition):
    """Triggered once *all* child events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        events = list(events)
        super().__init__(env, events, need=len(events))


class AnyOf(Condition):
    """Triggered once *any* child event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        events = list(events)
        super().__init__(env, events, need=1 if events else 0)
