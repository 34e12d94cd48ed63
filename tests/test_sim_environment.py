"""Unit tests for the simulation environment (clock, scheduling, run modes)."""

from typing import Tuple

import pytest
from drain import drain
from frame_count import count_frames

from repro.exceptions import SimulationError
from repro.sim import Environment, Store


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_run_until_time_stops_clock_at_deadline():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(10)
        fired.append(env.now)

    env.process(proc(env))
    env.run(env.timeout(4.0))
    assert env.now == 4.0
    assert fired == []
    drain(env)
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
        env = Environment()
        env.run(env.timeout(4.0))
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
        timeout = env.timeout(1.0)
        drain(env)
        assert env.now == pytest.approx(1.0)
        assert env.run(until=timeout) is None
        assert env.now == pytest.approx(1.0)

    def test_run_until_composite_of_timeouts_waits_for_the_last(self):
        env = Environment()
        composite = env.all_of([env.timeout(2.0), env.timeout(6.0)])
        assert env.run(until=composite) == [None, None]
        assert env.now == pytest.approx(6.0)


def test_dispatched_counter_counts_deliveries():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    drain(env)
    # bootstrap + two timeouts + the process completion event itself
    assert env.dispatched == 4


def test_every_run_mode_dispatches_in_the_same_order():
    """Running to the end and running to an event are one dispatch order."""

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

    until_empty = trace(lambda env, _processes: drain(env))
    assert trace(lambda env, processes: env.run(env.all_of(processes)))[0] == until_empty[0]


def test_run_until_event_that_never_fires_raises_after_the_last_event():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError, match="ran out of events before 'never'"):
        env.run(env.event("never"))
    assert env.now == 1.0


def test_a_failure_nobody_waits_for_ends_the_run_at_once():
    """A process that fails with nothing waiting on it ends ``run`` with its
    own error at the instant it fails, though another process would tick
    forever; a failure with a waiter reaches the waiter instead."""
    env = Environment()
    caught = []

    def ticker(env):
        while True:
            yield 1.0

    def crash(env):
        yield 1.0
        raise ValueError("crashed at 1")

    def waiter(env, child):
        try:
            yield child
        except ValueError as error:
            caught.append((env.now, str(error)))

    def waited_on(env):
        yield 0.5
        raise ValueError("crashed at 0.5")

    env.process(ticker(env))
    env.process(waiter(env, env.process(waited_on(env))))
    failed = env.process(crash(env))
    with pytest.raises(ValueError, match="crashed at 1") as raised:
        env.run(env.event("never"))
    assert raised.value is failed.exception and env.now == 1.0
    assert caught == [(0.5, "crashed at 0.5")]


def test_a_failed_target_raises_from_run_whether_or_not_it_has_a_waiter():
    """``run(until)`` raises what its target failed with: a target with a
    waiter (which still gets the error) and a target that had already been
    dispatched, as well as one nothing else waits on."""
    env = Environment()
    caught = []

    def crash(env):
        yield 1.0
        raise ValueError("target crashed")

    def waiter(env, child):
        try:
            yield child
        except ValueError as error:
            caught.append(str(error))

    target = env.process(crash(env))
    env.process(waiter(env, target))
    with pytest.raises(ValueError, match="target crashed"):
        env.run(target)
    assert env.now == 1.0 and target.dispatched
    with pytest.raises(ValueError, match="target crashed"):
        env.run(target)
    drain(env)
    assert caught == ["target crashed"]


def test_a_run_after_running_out_delivers_nothing_twice():
    """Running out of events keeps the last instant's list registered but
    empties it, so the next run does not walk what it delivered again."""
    env = Environment()
    steps = []

    def waiter():
        yield 1.0
        steps.append(env.now)

    env.process(waiter())
    drain(env)
    assert steps == [1.0] and env.dispatched == 3
    env.run(env.timeout(2.0))
    assert steps == [1.0] and env.now == 3.0 and env.dispatched == 4


def test_the_queue_keeps_no_past_instant():
    env = Environment()
    for delay in (1.0, 2.0, 3.0):
        env.timeout(delay)
    env.run(env.timeout(2.5))
    assert sorted(env.buckets) == [2.5, 3.0] and env.times == [3.0]


def test_run_without_events_stops_at_once():
    env = Environment()
    drain(env)
    assert env.now == 0.0
    assert env.dispatched == 0


def test_same_time_events_fire_in_scheduling_order():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in ("a", "b", "c"):
        env.process(proc(env, label))
    drain(env)
    assert order == ["a", "b", "c"]


@pytest.mark.parametrize("target", ["42", None, True], ids=["str", "none", "bool"])
def test_yielding_non_event_fails_the_process(target):
    """A number is a delay and a store a store wait; anything else — a bool
    included, though it is an int — cannot be waited on."""
    env = Environment()

    def bad(env):
        yield target

    process = env.process(bad(env))
    with pytest.raises(SimulationError, match="may only yield") as raised:
        drain(env)
    assert raised.value is process.exception


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
        drain(env)
        return trace

    assert build_and_run() == build_and_run()


#: Python frames entered per dispatched event while ``run`` delivers the
#: ledger probe's storm (``sim.probe_ns_per_event``): four producer/consumer
#: pairs, a timeout and a ``Store`` hand-off per item, 500 items.  Each event
#: costs its ``__init__`` or ``succeed``, a generator resume and the
#: ``Process._resume`` callback around it, plus a ``put`` or a ``get``: 6.94
#: while every delivery called ``Event._dispatch``, 5.94 with the dispatch
#: inline in ``Environment.run``, 4.95 with events enqueuing themselves (no
#: ``_schedule_event``; CPython 3.9–3.13), 4.46 with ``put`` handing the item
#: to the getter inline (no ``succeed`` frame).  One more frame per event
#: trips the ceiling.
FRAMES_PER_STORM_EVENT_CEILING = 5.9
#: The same storm with the waits spelled as the program spells them: the
#: producer yields ``1.0`` and the consumer the store.  No event is built per
#: wait, so an event costs a generator resume and ``Process._resume``, plus
#: a ``put`` per item: 2.49 on CPython 3.9–3.13, ceiling half a frame above.
FRAMES_PER_PLAIN_WAIT_STORM_EVENT_CEILING = 3.0


def frames_per_storm_event(
    pairs: int = 4, items: int = 500, events: bool = True
) -> Tuple[float, int]:
    """(frames entered inside ``run`` / events it dispatched, events), the
    waits spelled as events (``env.timeout``, ``store.get()``) or, with
    ``events=False``, as a number and the store itself."""
    env = Environment()

    def producer(env, store):
        for item in range(items // pairs):
            yield env.timeout(1.0) if events else 1.0
            store.put(item)

    def consumer(env, store):
        for _ in range(items // pairs):
            yield store.get() if events else store

    consumers = []
    for _ in range(pairs):
        store = Store(env)
        env.process(producer(env, store))
        consumers.append(env.process(consumer(env, store)))
    everyone = env.all_of(consumers)
    _value, frames = count_frames(lambda: env.run(everyone))
    return frames / env.dispatched, env.dispatched


def test_frames_per_storm_event_stay_under_the_ceiling():
    frames, events = frames_per_storm_event()
    assert events == 1017
    assert frames <= FRAMES_PER_STORM_EVENT_CEILING, (
        f"{frames:.2f} Python frames per dispatched event, ceiling "
        f"{FRAMES_PER_STORM_EVENT_CEILING}: the kernel added a call per event"
    )
    assert frames_per_storm_event() == (frames, events)  # the count repeats exactly


def test_frames_per_plain_wait_storm_event_stay_under_the_ceiling():
    frames, events = frames_per_storm_event(events=False)
    # The same events in the same slots: a wake-up per wait, not an event.
    assert events == frames_per_storm_event()[1] == 1017
    assert frames <= FRAMES_PER_PLAIN_WAIT_STORM_EVENT_CEILING, (
        f"{frames:.2f} Python frames per dispatched event, ceiling "
        f"{FRAMES_PER_PLAIN_WAIT_STORM_EVENT_CEILING}: a delay or a store wait "
        "entered a call again"
    )
    assert frames_per_storm_event(events=False) == (frames, events)


def test_only_sees_the_instant_as_well_as_the_later_ones():
    """At t = 2 no later instant is queued, but the other process's end is
    still due at that instant, after the ticker's wake-up; at t = 3 the
    wake-up is all that is left."""
    env = Environment()
    seen = []

    def ticker():
        while len(seen) < 3:
            yield 1.0
            seen.append((env.now, env.only(process.wake)))

    def other():
        yield 2.0

    env.process(other())
    process = env.process(ticker())
    env.run(process)
    assert seen == [(1.0, False), (2.0, False), (3.0, True)]
