"""Determinism property: the batched scheduler preserves (time, sequence) order.

The environment's queue is batched by timestamp (one heap entry per distinct
time, a list per bucket) instead of one heap entry per event.  The contract
is that dispatch order is *exactly* the classic ``(time, sequence)`` order of
the per-event heap.  This module pins that contract with hypothesis: random
interleavings of timeouts, store put/get races, and composite events must
produce byte-identical event traces on the batched core and on a legacy
reference scheduler (a verbatim copy of the pre-batching implementation).
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.exceptions import SimulationError
from repro.sim import Environment, Store
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


class LegacyEnvironment:
    """The pre-batching scheduler: one ``(time, seq, event)`` heap entry per event.

    Kept verbatim as the ordering reference.  It shares the Event / Process /
    Store classes with the real environment — only the queue differs.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0

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

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError("cannot schedule an event in the past")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))

    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no scheduled events to step through")
        time, _seq, event = heapq.heappop(self._queue)
        self._now = time
        event._dispatch()

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
)

PROGRAM = st.lists(st.lists(OP, max_size=6), min_size=1, max_size=4)


def run_program(env: Any, scripts: List[List[tuple]]) -> List[tuple]:
    """Drive ``scripts`` on ``env`` and return the dispatch-ordered trace.

    Every event an actor waits on gets a recording callback *before* the
    process registers its own resume callback, so the trace captures the
    exact delivery order the scheduler chose.
    """
    trace: List[tuple] = []
    stores = [Store(env, name=f"s{i}") for i in range(2)]

    def record(label: str):
        def _callback(event: Event) -> None:
            trace.append((env.now, label, event.exception is None, repr(event.value)))

        return _callback

    def actor(env, pid: int, script: List[tuple]):
        for index, op in enumerate(script):
            label = f"p{pid}.{index}.{op[0]}"
            if op[0] == "timeout":
                waited = env.timeout(op[1])
            elif op[0] == "put":
                stores[op[1]].put(op[2])
                trace.append((env.now, label, True, repr(op[2])))
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
    env.run()
    return trace


@settings(max_examples=200, deadline=None)
@given(scripts=PROGRAM)
def test_batched_dispatch_order_matches_legacy_heap(scripts):
    assert run_program(Environment(), scripts) == run_program(
        LegacyEnvironment(), scripts
    )


@settings(max_examples=50, deadline=None)
@given(scripts=PROGRAM)
def test_batched_dispatch_is_self_deterministic(scripts):
    assert run_program(Environment(), scripts) == run_program(Environment(), scripts)


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
    env.run()
    assert order == ["first", "second", "zero-delay"]
