"""The simulation's garbage-collection policy.

A run allocates hundreds of thousands of GC-tracked objects (trace
records, jobs, events) and frees almost none of them until it ends,
so every full pass of CPython's cyclic collector during the run
re-walks the whole, still-live trace and finds nothing to free.  The
harness therefore keeps the collector off for the duration of one
run (:class:`gc_paused`), and a finished run frees itself by
reference counting alone: its teardown (``Session.unwire``) breaks
the few reference cycles the stack builds.  The ``gc.collect() == 0``
tests in ``tests/experiments/test_gc_policy.py`` hold every launcher
to that, so a new back-reference shows up as a failing test rather
than as a slow, memory-hungry sweep.
"""

from __future__ import annotations

import gc


class gc_paused:
    """Context manager keeping the cyclic collector disabled for its
    body.

    The previous state is restored on exit, normal or raising; a
    caller that had already disabled the collector keeps it disabled.
    Explicit ``gc.collect()`` calls still run.  Re-enabling is the last
    thing ``__exit__`` does and allocates nothing, so the collection
    that the run's allocations make due starts in the caller, after
    the body has returned.
    """

    __slots__ = ("_reenable",)

    def __enter__(self) -> "gc_paused":
        self._reenable = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._reenable:
            gc.enable()
