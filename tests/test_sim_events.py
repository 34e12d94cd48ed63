"""Unit tests for the simulation primitives (events, timeouts, stores)."""

import gc
import weakref

import pytest
from drain import drain
from hypothesis import given
from hypothesis import strategies as st

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
    # The gate's failure reaches its waiter; the waiter, which nobody waits
    # on, ends the run with it.
    with pytest.raises(ValueError, match="boom") as raised:
        drain(env)
    assert raised.value is waiter_proc.exception and env.now == 1.0


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


def test_a_batch_put_marks_the_getter_it_hands_an_item():
    """``put_many`` hands items to waiting getters as ``put`` does: a raced
    ``get`` reads ``triggered`` to tell an arrival from a refill."""
    env = Environment()
    store = Store(env, name="inbox")
    first, second = store.get(), store.get()
    store.put_many(["x", "y", "z"])
    assert (first.triggered, first.value) == (True, "x")
    assert (second.triggered, second.value) == (True, "y")
    assert list(store.queued) == ["z"] and not store.getters


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


# --------------------------------------------------------------------------- #
# Waits without an event: a number is a delay, a store its next item
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("delay", [3, 3.5], ids=["int", "float"])
def test_a_number_is_a_delay_that_resumes_with_none(delay):
    env = Environment()
    seen = []

    def process(env):
        seen.append((yield delay))
        seen.append(env.now)
        seen.append((yield 0))
        return env.now

    proc = env.process(process(env))
    drain(env)
    assert seen == [None, delay, None] and proc.value == delay
    # The bootstrap and two wake-ups, then the process finishing: one event
    # each, as with ``env.timeout``.
    assert env.dispatched == 4


@pytest.mark.parametrize("delay", [-1, -0.5, float("nan")], ids=["int", "float", "nan"])
def test_a_bad_delay_is_thrown_into_the_process_as_a_timeout_raises_it(delay):
    """Yielding a negative or NaN delay raises ``Timeout``'s error at the
    ``yield``; a process that catches it carries on exactly as one that
    caught it from ``env.timeout(delay)``."""

    def run(spell):
        env = Environment()

        def process(env):
            try:
                yield spell(env, delay)
            except SimulationError as error:
                caught = str(error)
            yield spell(env, 2.0)
            return caught, env.now

        proc = env.process(process(env))
        drain(env)
        return proc.value, env.dispatched

    (message, now), dispatched = run(lambda env, seconds: seconds)
    assert run(lambda env, seconds: env.timeout(seconds)) == ((message, now), dispatched)
    with pytest.raises(SimulationError) as raised:
        Environment().timeout(delay)
    assert message == str(raised.value) and now == 2.0


def test_an_uncaught_bad_delay_fails_the_process():
    env = Environment()

    def process(env):
        yield -1

    proc = env.process(process(env))
    with pytest.raises(SimulationError) as raised:
        drain(env)
    assert raised.value is proc.exception
    assert str(raised.value) == "timeout delay must be >= 0, got -1"


def test_a_store_wait_takes_a_queued_item_at_once():
    env = Environment()
    store = Store(env)
    store.put("first")
    store.put("second")
    seen = []

    def consumer(env):
        yield 1.0
        seen.append(((yield store), env.now))
        seen.append(((yield store), env.now))

    env.process(consumer(env))
    drain(env)
    assert seen == [("first", 1.0), ("second", 1.0)] and not store.queued
    assert not store.getters


def test_a_store_wait_without_an_item_resumes_on_the_next_put():
    env = Environment()
    store = Store(env)
    seen = []

    def consumer(env):
        seen.append(((yield store), env.now))

    def producer(env):
        yield 4
        store.put_many(["x", "y"])

    env.process(consumer(env))
    env.process(producer(env))
    drain(env)
    assert seen == [("x", 4.0)] and list(store.queued) == ["y"]


def test_a_waiting_process_does_not_pin_the_item_it_was_handed():
    """A process waiting on an empty store, after taking an item and
    dropping it, keeps nothing of it alive: its wake-up is cleared on resume."""

    class Item:
        pass

    env = Environment()
    store = Store(env)
    store.put(Item())
    taken = []

    def consumer(env):
        item = yield store
        taken.append(weakref.ref(item))
        del item
        yield store  # waits for good: the store stays empty

    env.process(consumer(env))
    drain(env)
    gc.collect()
    assert len(store.getters) == 1 and taken[0]() is None


@pytest.mark.parametrize("ending", ["return", "raise", "bad yield"])
def test_a_finished_process_holds_no_wake_up(ending):
    """However it ends, a finished process lets go of its wake-up, what the
    kernel hands the wake-up to (the process's ``_resume``) and its
    generator; it keeps only its outcome."""
    env = Environment()

    def body(env):
        yield 1.0
        if ending == "raise":
            raise ValueError("boom")
        if ending == "bad yield":
            yield "42"
        return "done"

    generator = body(env)
    process = env.process(generator)
    wake = process.wake
    resume = wake.resume
    generator = weakref.ref(generator)
    if ending == "return":
        drain(env)
    else:
        with pytest.raises((ValueError, SimulationError)) as raised:
            drain(env)
        assert raised.value is process.exception
    gc.collect()
    held = gc.get_referents(process)
    assert not any(kept is wake or kept is resume for kept in held)
    assert generator() is None
    assert process._send is None and process._resume_callback is None
    if ending == "return":
        assert process.value == "done"


def test_a_store_put_to_a_triggered_getter_is_an_error():
    env = Environment()
    store = Store(env)
    getter = store.get()
    getter.succeed("elsewhere")
    with pytest.raises(SimulationError, match="already been triggered"):
        store.put("x")
    getter = store.get()
    getter.succeed("elsewhere")
    with pytest.raises(SimulationError, match="already been triggered"):
        store.put_many(["x"])


#: One step of a process: a delay, a put of a labelled item into a store, or
#: a wait for a store's next item.
_STEP = st.one_of(
    st.tuples(st.just("delay"), st.sampled_from([0, 1, 2, 0.5, 1.5, 2.25])),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
)


def _trace(programs, events):
    """Run ``programs`` (one list of steps per process) over two stores,
    waiting through events (``env.timeout``, ``store.get()``) or without
    (a number, the store); the ``(now, label)`` trace and the dispatch count."""
    env = Environment()
    stores = [Store(env, name=f"store{index}") for index in range(2)]
    trace = []

    def process(number, steps):
        for position, (kind, argument) in enumerate(steps):
            label = f"p{number}.{position}"
            if kind == "delay":
                yield env.timeout(argument) if events else argument
                trace.append((env.now, label))
            elif kind == "put":
                stores[argument].put(label)
            else:
                store = stores[argument]
                item = yield store.get() if events else store
                trace.append((env.now, f"{label}<-{item}"))

    for number, steps in enumerate(programs):
        env.process(process(number, steps))
    drain(env)
    return trace, env.dispatched


@given(st.lists(st.lists(_STEP, max_size=8), min_size=1, max_size=5))
def test_waits_without_events_follow_the_event_waits_exactly(programs):
    """Random producer/consumer programs: a number for ``env.timeout`` and a
    store for ``store.get()`` give the same trace and the same event count."""
    assert _trace(programs, events=False) == _trace(programs, events=True)


def test_a_put_to_a_triggered_wake_up_names_its_process():
    """A process's wake-up is a store getter like a ``get`` event: handed a
    second item, the store refuses and names the process."""
    env = Environment()
    store = Store(env)

    def consumer(env):
        yield store

    env.process(consumer(env), name="consumer")
    env.run(env.timeout(0))
    (wake,) = store.getters
    assert wake.triggered is False
    wake.triggered = True  # as a second hand-off would find it
    with pytest.raises(SimulationError, match="event 'consumer' has already been triggered"):
        store.put("x")


def test_a_process_is_a_generator_named_after_its_function():
    env = Environment()

    def worker(env):
        yield 1.0

    assert env.process(worker(env)).name == "worker"
    assert env.process(worker(env), name="named").name == "named"
    with pytest.raises(SimulationError, match="Process requires a generator"):
        env.process(worker)


def test_a_bad_yield_closes_the_generator_however_it_is_held():
    """The process closes the generator it gives up on, so its ``finally``
    runs then, not whenever the last reference goes."""
    env = Environment()
    closed = []

    def body(env):
        try:
            yield "not a waitable"
        finally:
            closed.append(env.now)

    generator = body(env)
    process = env.process(generator)
    with pytest.raises(SimulationError) as raised:
        drain(env)
    assert closed == [0.0] and raised.value is process.exception
    assert generator.gi_frame is None


def test_a_process_and_its_wake_up_are_slotted():
    env = Environment()

    def body(env):
        yield 1.0

    process = env.process(body(env))
    assert not hasattr(process, "__dict__") and not hasattr(process.wake, "__dict__")
