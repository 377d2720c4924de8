"""Unit tests for the simulation kernel (clock, queue, run modes)."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import Environment


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_initial_time(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_time_advances_with_events(self, env):
        env.timeout(7.5)
        env.run()
        assert env.now == 7.5

    def test_time_frozen_between_events(self, env):
        stamps = []
        env.schedule(1.0, lambda: stamps.append(env.now))
        env.schedule(1.0, lambda: stamps.append(env.now))
        env.run()
        assert stamps == [1.0, 1.0]


class TestRun:
    def test_run_until_time(self, env):
        hits = []
        for d in (1, 2, 3, 4, 5):
            env.schedule(d, hits.append, d)
        env.run(until=3)
        assert hits == [1, 2, 3]
        assert env.now == 3.0

    def test_run_until_past_raises(self, env):
        env.run(until=10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "result"

        assert env.run(env.process(proc(env))) == "result"

    def test_run_until_event_raises_on_failure(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("bad")

        with pytest.raises(ValueError, match="bad"):
            env.run(env.process(proc(env)))

    def test_run_until_untriggerable_event_deadlocks(self, env):
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(env.event())

    def test_run_drains_queue(self, env):
        hits = []
        env.schedule(5, hits.append, 1)
        env.run()
        assert hits == [1]
        assert env.peek() == float("inf")
        assert env.now == 5.0


class TestRunMetered(TestRun):
    """The same ``run`` semantics through the metered loop."""

    @pytest.fixture
    def env(self, metered_env):
        return metered_env

    def test_metered_loop_is_taken(self, env):
        for d in (1, 2, 3):
            env.schedule(d, lambda: None)
        env.run(until=2)
        env.run()
        assert env._instrument._runs.value == 2
        assert env._instrument._events.value == 3


class TestOrdering:
    def test_fifo_at_equal_times(self, env):
        order = []
        for i in range(10):
            env.schedule(1.0, order.append, i)
        env.run()
        assert order == list(range(10))

    def test_chronological_order(self, env):
        order = []
        for d in (5, 1, 3, 2, 4):
            env.schedule(d, order.append, d)
        env.run()
        assert order == [1, 2, 3, 4, 5]

    def test_step_with_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_unhandled_process_failure_surfaces(self, env):
        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("nobody is watching")

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="nobody is watching"):
            env.run()

    def test_negative_schedule_raises(self, env):
        with pytest.raises(SimulationError):
            env.schedule(-1, lambda: None)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def scenario():
            env = Environment()
            trace = []

            def worker(env, name):
                for i in range(3):
                    yield env.timeout(0.5 * (i + 1))
                    trace.append((env.now, name, i))

            for n in range(4):
                env.process(worker(env, f"w{n}"))
            env.run()
            return trace

        assert scenario() == scenario()
