"""Determinism property: the batched scheduler preserves (time, sequence) order.

The environment's queue is batched by timestamp (one heap entry per distinct
time, a list per bucket) instead of one heap entry per event.  The contract
is that dispatch order is *exactly* the classic ``(time, sequence)`` order of
the per-event heap.  This module pins that contract with hypothesis: random
interleavings of timeouts, store put/get races, and composite events must
produce byte-identical event traces on the batched core and on a legacy
reference scheduler (the pre-batching implementation, dispatching on its
own).  The scripts also wait without an event — a plain delay (``yield d``)
and a store's next item (``yield store``) — which the kernel hands straight
to the process as its wake-up; those waits are recorded when the yield
returns, so the order of the wake-ups is compared too.  The batched core
keeps the instant it is dispatching off the heap and appends events
scheduled at that instant to the list it is walking, so the cases below
also stop a run in the middle of an instant and resume it, and re-deliver
events already dispatched at the current instant.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from hypothesis import given, settings, strategies as st
from drain import drain

from repro.exceptions import SimulationError
from repro.sim import Environment, Store
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


class _HeapSlot:
    """One timestamp of the legacy heap, as the shared event classes see a
    bucket of the batched queue: each ``append`` pushes the event's own
    ``(time, seq, event)`` entry."""

    def __init__(self, env: LegacyEnvironment, time: float) -> None:
        self.env = env
        self.time = time

    def append(self, event: Event) -> None:
        self.env._sequence += 1
        heapq.heappush(self.env._queue, (self.time, self.env._sequence, event))


class _HeapSlots:
    """``buckets`` for the shared event classes: every timestamp already has
    a slot (``get`` never returns ``None``), so nothing is ever registered
    and no timestamp is pushed on a ``times`` heap."""

    def __init__(self, env: LegacyEnvironment) -> None:
        self.env = env

    def get(self, time: float) -> _HeapSlot:
        return _HeapSlot(self.env, time)

    __getitem__ = get


class LegacyEnvironment:
    """The pre-batching scheduler: one ``(time, seq, event)`` heap entry per event.

    Kept as the ordering reference.  It shares the Event / Process / Store
    classes with the real environment — only the queue, and the dispatch the
    real one does inline in ``run`` (an item that carries a handler — a
    process's wake-up — handed to it, an event's callbacks called), are its
    own.  The
    events enqueue themselves into ``buckets``, which here pushes each onto
    the heap.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self.dispatched = 0
        self.buckets = _HeapSlots(self)

    @property
    def now(self) -> float:
        return self._now

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        return AnyOf(self, events)

    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no scheduled events to step through")
        time, _seq, event = heapq.heappop(self._queue)
        self._now = time
        self.dispatched += 1
        # The dispatch ``Environment.run`` does inline, done here on its own:
        # an item with a handler is handed to it, an event runs its callbacks.
        if event.resume is not None:
            event.resume(event)
            return
        event.dispatched = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self) -> None:
        while self._queue:
            self.step()


# Delays drawn from a small pool so same-timestamp collisions are common —
# that is exactly where batched dispatch could reorder events.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])

OP = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 99)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("all_of"), st.lists(DELAYS, min_size=1, max_size=3)),
    st.tuples(st.just("any_of"), st.lists(DELAYS, min_size=1, max_size=3)),
    # Waits without an event: the process's wake-up.
    st.tuples(st.just("delay"), DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    # A callback added to the event the actor last waited for — dispatched
    # at this very instant, or earlier if a wait without an event came
    # between — which delivers it once more.
    st.tuples(st.just("late")),
)

PROGRAM = st.lists(st.lists(OP, max_size=6), min_size=1, max_size=4)


def run_program(
    env: Any, scripts: List[List[tuple]], stops: Tuple[float, ...] = (), interrupted: bool = False
) -> List[tuple]:
    """Drive ``scripts`` on ``env`` and return the dispatch-ordered trace.

    Every event an actor waits on gets a recording callback *before* the
    process registers its own resume callback, so the trace captures the
    exact delivery order the scheduler chose.  ``stops`` are delays of
    timeouts created before the actors start; ``interrupted`` runs the
    environment until each has dispatched in turn, then to the end.  A stop
    sits in the middle of its instant whenever other events share it, so
    the next ``run`` resumes that instant where the last one left it.
    """
    trace: List[tuple] = []
    stores = [Store(env, name=f"s{i}") for i in range(2)]

    def record(label: str):
        def _callback(event: Event) -> None:
            trace.append((env.now, label, event.exception is None, repr(event.value)))

        return _callback

    stop_events = [env.timeout(delay) for delay in stops]
    for index, stop in enumerate(stop_events):
        stop.add_callback(record(f"stop{index}"))

    def actor(env, pid: int, script: List[tuple]):
        waited = None
        for index, op in enumerate(script):
            label = f"p{pid}.{index}.{op[0]}"
            if op[0] == "timeout":
                waited = env.timeout(op[1])
            elif op[0] == "put":
                stores[op[1]].put(op[2])
                trace.append((env.now, label, True, repr(op[2])))
                continue
            elif op[0] == "late":
                if waited is not None:
                    waited.add_callback(record(label))
                continue
            elif op[0] == "delay":
                yield op[1]
                trace.append((env.now, label, True, "None"))
                continue
            elif op[0] == "wait":
                item = yield stores[op[1]]
                trace.append((env.now, label, True, repr(item)))
                continue
            elif op[0] == "get":
                waited = stores[op[1]].get()
            elif op[0] == "all_of":
                waited = env.all_of([env.timeout(delay) for delay in op[1]])
            else:  # any_of
                waited = env.any_of([env.timeout(delay) for delay in op[1]])
            waited.add_callback(record(label))
            yield waited
        return pid

    for pid, script in enumerate(scripts):
        process = env.process(actor(env, pid, script), name=f"proc{pid}")
        process.add_callback(record(f"p{pid}.done"))
    if interrupted:
        for stop in sorted(stop_events, key=lambda event: event.delay):
            env.run(stop)
            assert stop.dispatched and env.now == stop.delay
    if isinstance(env, LegacyEnvironment):
        env.run()
    else:
        drain(env)
    return trace


@settings(max_examples=200, deadline=None)
@given(scripts=PROGRAM)
def test_batched_dispatch_order_matches_legacy_heap(scripts):
    env, legacy = Environment(), LegacyEnvironment()
    assert run_program(env, scripts) == run_program(legacy, scripts)
    assert env.dispatched == legacy.dispatched


@settings(max_examples=50, deadline=None)
@given(scripts=PROGRAM)
def test_batched_dispatch_is_self_deterministic(scripts):
    assert run_program(Environment(), scripts) == run_program(Environment(), scripts)


@settings(max_examples=200, deadline=None)
@given(scripts=PROGRAM, stops=st.lists(DELAYS, min_size=1, max_size=3).map(tuple))
def test_a_run_stopped_mid_instant_resumes_in_order(scripts, stops):
    """``run(until=...)`` returning in the middle of an instant and the next
    ``run()`` resuming it deliver what one uninterrupted run does, and what
    the legacy heap does; so does the count of deliveries."""
    stopped, whole, legacy = Environment(), Environment(), LegacyEnvironment()
    trace = run_program(stopped, scripts, stops, interrupted=True)
    assert trace == run_program(whole, scripts, stops)
    assert trace == run_program(legacy, scripts, stops)
    assert stopped.dispatched == whole.dispatched == legacy.dispatched


def test_a_stop_leaves_the_rest_of_its_instant_for_the_next_run():
    env = Environment()
    order: List[str] = []
    stop = env.timeout(1.0)
    for label in ("a", "b"):
        env.timeout(1.0).add_callback(lambda _event, label=label: order.append(label))
    env.run(stop)
    assert (env.now, order) == (1.0, [])
    # Scheduled between the runs, at the instant still being dispatched.
    env.timeout(0.0).add_callback(lambda _event: order.append("c"))
    drain(env)
    assert (env.now, order, env.dispatched) == (1.0, ["a", "b", "c"], 4)


def test_a_late_callback_on_an_event_dispatched_this_instant_runs_this_instant():
    env = Environment()
    order: List[str] = []
    first = env.timeout(1.0)
    first.add_callback(lambda event: event.add_callback(lambda _e: order.append("late")))
    env.timeout(1.0).add_callback(lambda _event: order.append("sibling"))
    env.timeout(2.0).add_callback(lambda _event: order.append("later"))
    drain(env)
    assert order == ["sibling", "late", "later"]
    assert env.dispatched == 4


def test_events_scheduled_during_a_batch_dispatch_after_it():
    """Zero-delay events created mid-batch extend the same timestamp FIFO."""
    env = Environment()
    order: List[str] = []

    def chain(env):
        order.append("first")
        zero = env.timeout(0.0)
        zero.add_callback(lambda _event: order.append("zero-delay"))
        yield zero

    def sibling(env):
        order.append("second")
        yield env.timeout(1.0)

    env.process(chain(env))
    env.process(sibling(env))
    drain(env)
    assert order == ["first", "second", "zero-delay"]
