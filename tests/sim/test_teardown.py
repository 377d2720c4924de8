"""Reference cycles the kernel avoids or breaks, so that a finished
simulation is freed by reference counting (docs/MODEL.md section 5)."""

import gc

import pytest

from repro.sim import Environment, Interrupt, Store


def collect_all():
    """Clear garbage earlier tests left: finalizers that run during a
    collection can leave new garbage for the next one."""
    while gc.collect():
        pass


def test_close_frees_parked_and_pending_processes():
    collect_all()
    env = Environment()
    store = Store(env)
    waiter_finalized = []

    def daemon():
        try:
            while True:
                yield store.get()
        finally:
            waiter_finalized.append(True)

    def sleeper():
        yield env.timeout(100)

    env.process(daemon())
    env.process(sleeper())
    env.run(until=1)
    assert len(env._processes) == 2
    env.close()
    assert env._queue == [] and env._processes == set()
    del env, store
    assert gc.collect() == 0
    assert waiter_finalized == [True]


def test_close_handles_a_pending_interrupt():
    collect_all()
    env = Environment()
    gate = env.event()

    def victim():
        try:
            yield gate
        except Interrupt:
            pass

    proc = env.process(victim())
    env.run()
    proc.interrupt("stop")  # the interrupt event is still queued
    env.close()
    del env, gate, proc
    assert gc.collect() == 0


def test_finished_processes_leave_the_live_set():
    env = Environment()

    def short():
        yield env.timeout(1)

    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter(proc):
        with pytest.raises(ValueError):
            yield proc

    env.process(short())
    env.process(waiter(env.process(failing())))
    env.run()
    assert env._processes == set()


def test_triggered_condition_unhooks_pending_children():
    env = Environment()

    def race():
        work = env.timeout(1)
        watchdog = env.timeout(10)
        yield env.any_of([work, watchdog])
        assert watchdog.callbacks == []

    env.process(race())
    env.run(until=2)


def test_handled_failure_drops_its_traceback():
    collect_all()
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as exc:
            caught.append(exc)

    env.process(parent())
    env.run()
    assert caught[0].__traceback__ is None
    del env
    assert gc.collect() == 0


def test_unhandled_failure_keeps_its_traceback():
    env = Environment()

    def crash():
        yield env.timeout(1)
        raise RuntimeError("nobody waits")

    env.process(crash())
    with pytest.raises(RuntimeError) as info:
        env.run()
    assert info.value.__traceback__ is not None
