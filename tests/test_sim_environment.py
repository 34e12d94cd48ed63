"""Unit tests for the simulation environment (clock, scheduling, run modes)."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import Environment


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=7.5).now == 7.5


def test_run_until_time_stops_clock_at_deadline():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(10)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=4.0)
    assert env.now == 4.0
    assert fired == []
    env.run()
    assert fired == [10.0]


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "done"

    process = env.process(proc(env))
    value = env.run(until=process)
    assert value == "done"
    assert env.now == pytest.approx(2.0)


class TestRunUntilWaitsForDispatch:
    """``run(until=event)`` must wait for *dispatch*, not ``triggered``.

    A ``Timeout`` is triggered the moment it is created (its value is
    already known) but only dispatches when the clock reaches it.  The old
    loop tested ``triggered`` and therefore returned immediately at t=0
    for ``env.run(until=env.timeout(5))``.
    """

    def test_run_until_timeout_advances_the_clock(self):
        env = Environment()
        env.run(until=env.timeout(5.0))
        assert env.now == pytest.approx(5.0)

    def test_run_until_timeout_returns_its_value(self):
        env = Environment()
        assert env.run(until=env.timeout(2.5, value="payload")) == "payload"
        assert env.now == pytest.approx(2.5)

    def test_run_until_timeout_dispatches_earlier_events_first(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(3.0)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=env.timeout(5.0))
        assert fired == [3.0]

    def test_run_until_pre_succeeded_event_dispatches_at_current_time(self):
        env = Environment(initial_time=4.0)
        event = env.event("ready")
        event.succeed("value")
        assert env.run(until=event) == "value"
        assert env.now == 4.0

    def test_run_until_failing_event_raises_at_the_right_time(self):
        env = Environment()

        def exploder(env):
            yield env.timeout(7.0)
            raise RuntimeError("boom")

        process = env.process(exploder(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=process)
        assert env.now == pytest.approx(7.0)

    def test_run_until_already_dispatched_event_returns_immediately(self):
        env = Environment()
        timeout = env.timeout(1.0, value="done")
        env.run()
        assert env.now == pytest.approx(1.0)
        assert env.run(until=timeout) == "done"
        assert env.now == pytest.approx(1.0)

    def test_run_until_composite_of_timeouts_waits_for_the_last(self):
        env = Environment()
        composite = env.all_of([env.timeout(2.0, value="a"), env.timeout(6.0, value="b")])
        assert env.run(until=composite) == ["a", "b"]
        assert env.now == pytest.approx(6.0)


def test_dispatched_counter_counts_deliveries():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # bootstrap + two timeouts + the process completion event itself
    assert env.dispatched == 4


def test_every_run_mode_dispatches_in_the_same_order():
    """``run()``, ``run(event)``, ``run(deadline)`` and ``step()`` are one
    dispatch order and one ``dispatched`` count."""

    def trace(drive):
        env = Environment()
        log = []

        def proc(env, name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                log.append((env.now, name))

        processes = [
            env.process(proc(env, name, delay))
            for name, delay in (("a", 1.0), ("b", 1.5), ("c", 1.0))
        ]
        drive(env, processes)
        return log, env.dispatched, env.now

    def by_steps(env, _processes):
        while env.peek() is not None:
            env.step()

    until_empty = trace(lambda env, _processes: env.run())
    assert trace(lambda env, processes: env.run(env.all_of(processes)))[0] == until_empty[0]
    assert trace(by_steps) == until_empty
    assert trace(lambda env, _processes: env.run(until=4.5)) == until_empty


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError, match="ran out of events before 'never'"):
        env.run(env.event("never"))
    assert env.now == 1.0


def test_run_until_past_time_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_step_without_events_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() is None
    env.timeout(3.0)
    assert env.peek() == pytest.approx(3.0)


def test_same_time_events_fire_in_scheduling_order():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in ("a", "b", "c"):
        env.process(proc(env, label))
    env.run()
    assert order == ["a", "b", "c"]


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield 42

    process = env.process(bad(env))
    env.run()
    assert isinstance(process.exception, SimulationError)


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    never = env.event("never")
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_simulation_is_deterministic():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, label, delay):
            yield env.timeout(delay)
            trace.append((label, env.now))
            yield env.timeout(delay)
            trace.append((label, env.now))

        env.process(worker(env, "x", 2))
        env.process(worker(env, "y", 2))
        env.process(worker(env, "z", 3))
        env.run()
        return trace

    assert build_and_run() == build_and_run()
