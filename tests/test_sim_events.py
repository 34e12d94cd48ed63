"""Unit tests for the simulation primitives (events, timeouts, stores)."""

import pytest
from drain import drain

from repro.exceptions import SimulationError
from repro.sim import Environment, Store


def test_event_succeed_carries_value():
    env = Environment()
    event = env.event("e")
    event.succeed(41)
    assert event.triggered
    assert event.value == 41


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event("e")
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("boom"))


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_rejects_nan_delay():
    """``nan < 0`` is false: a NaN delay used to enter the time heap, where it
    compares false against everything and silently corrupts dispatch order."""
    env = Environment()
    env.timeout(2.0)
    with pytest.raises(SimulationError, match="nan"):
        env.timeout(float("nan"))
    drain(env)
    assert (env.now, env.dispatched) == (2.0, 1)


def test_event_state_is_plain_attributes():
    """``now`` and the event state are public slots, not property twins of
    private ones: hot paths read them at attribute cost."""
    env = Environment()
    event = env.event("e")
    assert (event.triggered, event.dispatched, event.value, event.exception) == (
        False,
        False,
        None,
        None,
    )
    seen = []
    event.callbacks.append(seen.append)
    event.succeed(7)
    drain(env)
    assert (event.triggered, event.dispatched, event.value) == (True, True, 7)
    assert seen == [event] and event.callbacks == []
    for owner, name in ((Environment, "now"), (type(event), "value"), (type(event), "triggered")):
        assert not isinstance(vars(owner).get(name), property)
    assert not hasattr(event, "__dict__")


def test_timeout_advances_clock():
    env = Environment()

    def process(env):
        yield env.timeout(3.5)
        return env.now

    proc = env.process(process(env))
    drain(env)
    assert env.now == pytest.approx(3.5)
    assert proc.value == pytest.approx(3.5)


def test_process_waits_on_event_and_receives_value():
    env = Environment()
    gate = env.event("gate")
    observed = []

    def waiter(env):
        value = yield gate
        observed.append((env.now, value))

    def opener(env):
        yield env.timeout(2)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    drain(env)
    assert observed == [(2.0, "open")]


def test_event_failure_propagates_into_process():
    env = Environment()
    gate = env.event("gate")

    def waiter(env):
        yield gate

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    waiter_proc = env.process(waiter(env))
    env.process(failer(env))
    drain(env)
    assert isinstance(waiter_proc.exception, ValueError)


def test_process_waiting_on_process_gets_return_value():
    env = Environment()

    def inner(env):
        yield env.timeout(1)
        return "inner-result"

    def outer(env):
        result = yield env.process(inner(env))
        return result

    outer_proc = env.process(outer(env))
    drain(env)
    assert outer_proc.value == "inner-result"


def test_all_of_waits_for_every_event():
    env = Environment()

    def make(delay, value):
        def proc(env):
            yield env.timeout(delay)
            return value

        return env.process(proc(env))

    processes = [make(3, "a"), make(1, "b"), make(2, "c")]

    def waiter(env):
        values = yield env.all_of(processes)
        return values

    waiter_proc = env.process(waiter(env))
    drain(env)
    assert waiter_proc.value == ["a", "b", "c"]
    assert env.now == pytest.approx(3.0)


def test_any_of_fires_on_first_event():
    env = Environment()

    def make(delay, value):
        def proc(env):
            yield env.timeout(delay)
            return value

        return env.process(proc(env))

    def waiter(env):
        value = yield env.any_of([make(5, "slow"), make(1, "fast")])
        return (env.now, value)

    waiter_proc = env.process(waiter(env))
    drain(env)
    assert waiter_proc.value == (1.0, "fast")


def test_any_of_waits_for_timeout_children():
    """Regression: a Timeout is *triggered* at creation (value known) but
    only dispatches when the clock reaches it — AnyOf must fire at the
    earliest dispatch, not instantly in its constructor."""
    env = Environment()

    def waiter(env):
        fast = env.timeout(2.0)
        yield env.any_of([env.timeout(5.0), fast])
        return (env.now, fast.dispatched)

    waiter_proc = env.process(waiter(env))
    drain(env)
    assert waiter_proc.value == (2.0, True)


def test_all_of_waits_for_timeout_children():
    env = Environment()

    def waiter(env):
        values = yield env.all_of([env.timeout(3.0), env.timeout(1.0)])
        return (env.now, values)

    waiter_proc = env.process(waiter(env))
    drain(env)
    assert waiter_proc.value == (3.0, [None, None])


def test_any_of_races_timeout_against_store_get():
    """The throttled-device idle-wait idiom: race a token refill against an
    inbox arrival, and cancel the losing getter so the next put is not
    handed to an event nobody consumes."""
    env = Environment()
    store = Store(env, name="inbox")
    log = []

    def consumer(env):
        arrival = store.get()
        yield env.any_of([env.timeout(10.0), arrival])
        if arrival.triggered:
            log.append(("item", env.now, arrival.value))
        else:
            store.cancel(arrival)
            log.append(("refill", env.now, None))

    def producer(env):
        yield env.timeout(4.0)
        store.put("mid-wait")

    env.process(consumer(env))
    env.process(producer(env))
    drain(env)
    # The arrival won the race: the consumer woke at t=4 with the item, well
    # before the t=10 refill.
    assert log == [("item", 4.0, "mid-wait")]


def test_store_cancel_withdraws_pending_getter():
    env = Environment()
    store = Store(env, name="inbox")
    abandoned = store.get()
    store.cancel(abandoned)
    store.put("x")
    # The canceled getter did not swallow the item: it is still queued.
    assert not abandoned.triggered
    assert store.drain() == ["x"]
    # Cancelling a non-getter / already-fired event is a harmless no-op.
    store.cancel(abandoned)


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    def producer(env):
        for index in range(3):
            yield env.timeout(1)
            store.put(index)

    env.process(consumer(env))
    env.process(producer(env))
    drain(env)
    assert received == [0, 1, 2]


def test_store_drain_returns_everything_queued_oldest_first():
    env = Environment()
    store = Store(env)
    assert store.drain() == []
    store.put("x")
    store.put("y")
    assert list(store.queued) == ["x", "y"]
    assert store.drain() == ["x", "y"]
    assert store.drain() == [] and not store.queued


def test_store_release_replaces_only_an_emptied_queue():
    env = Environment()
    store = Store(env)
    store.put_many(range(1000))
    store.drain()
    emptied = store.queued
    store.release()
    assert store.queued is not emptied and not store.queued
    store.put("kept")
    kept = store.queued
    store.release()
    assert store.queued is kept and list(kept) == ["kept"]


def test_store_get_before_put_resolves_on_put():
    env = Environment()
    store = Store(env)
    results = []

    def consumer(env):
        item = yield store.get()
        results.append((env.now, item))

    env.process(consumer(env))
    store.put("ready")
    drain(env)
    assert results == [(0.0, "ready")]


def test_all_of_nothing_succeeds_with_an_empty_list():
    env = Environment()

    def waiter(env):
        values = yield env.all_of([])
        return (env.now, values)

    waiter_proc = env.process(waiter(env))
    drain(env)
    assert waiter_proc.value == (0.0, [])


def test_any_of_nothing_is_an_error():
    with pytest.raises(SimulationError, match="at least one event"):
        Environment().any_of([])


def test_any_of_fails_with_the_exception_of_a_failed_child():
    env = Environment()
    broken = env.event()
    error = ValueError("boom")

    def waiter(env):
        try:
            yield env.any_of([env.timeout(5.0), broken])
        except ValueError as exc:
            return (env.now, exc)

    waiter_proc = env.process(waiter(env))
    env.timeout(1.0).add_callback(lambda _event: broken.fail(error))
    drain(env)
    assert waiter_proc.value == (1.0, error)


def test_yielding_a_dispatched_event_resumes_through_the_queue():
    """An event whose waiters were already woken is delivered to a late
    waiter by scheduling it again, never by calling the waiter back on the
    spot: what else is queued for that instant keeps its turn."""
    env = Environment()
    done = env.event().succeed("payload")
    drain(env)
    assert env.dispatched == 1  # ``done`` went out with nobody waiting
    order = []

    def late_waiter(env):
        order.append("yielding")
        value = yield done
        order.append(("resumed", value))

    env.process(late_waiter(env))
    env.event().succeed().add_callback(lambda _event: order.append("queued first"))
    drain(env)
    assert order == ["yielding", "queued first", ("resumed", "payload")]
