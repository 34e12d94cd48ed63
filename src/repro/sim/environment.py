"""The simulation environment: clock plus event queue.

The queue is *batched by timestamp*: instead of one heap entry per event,
the heap holds each distinct pending timestamp once and a side table maps
the timestamp to the list of events scheduled at it (in scheduling order).
Dispatch order is exactly the classic ``(time, sequence)`` order — the
batch list *is* the sequence order within a timestamp — but same-time
bursts (the common case in a discrete-event storage simulation: a device
completing a transfer wakes the waiter, the scheduler, and the metrics
hooks at one instant) cost one heap operation instead of one per event.

The instant being dispatched keeps its list in the side table, with no heap
entry, until the clock moves on: an event scheduled *at* that instant (a
zero delay, a wake-up, a process finishing) is appended to the list being
walked and dispatched after everything already in it, which is its place in
``(time, sequence)`` order, without touching the heap.

Events enqueue themselves, with no call into the environment: the side table
and the heap are the public :attr:`Environment.buckets` and
:attr:`Environment.times`, ``Event.succeed`` appends to ``buckets[now]``
(always registered) and a :class:`~repro.sim.events.Timeout` appends to its
timestamp's list, or registers the list and pushes the timestamp when it is
the first event at it.  A process's wake-up (:class:`~repro.sim.process.Wake`)
and a served :class:`~repro.csd.request.GetRequest` enqueue themselves the
same way; they carry a handler (``resume``), and ``run``'s one rule is to
hand such an item to it and to run an event's callbacks — or, for a failed
event with no callback, to raise its exception.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List

from repro.exceptions import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator


class Environment:
    """Owns the simulated clock and the pending-event queue.

    Typical use::

        env = Environment()
        inbox = Store(env)

        def worker(env):
            yield 5.0  # a delay
            item = yield inbox  # the store's next item
            return item

        proc = env.process(worker(env))
        inbox.put("done")
        assert env.run(proc) == "done" and env.now == 5.0

    A process waits on a number (a delay) or a store without an event of its
    own (see :class:`~repro.sim.process.Process`); :meth:`timeout`,
    ``Store.get``, :meth:`all_of` and :meth:`any_of` build the events that
    races, composites and ``run(until)`` need.
    """

    def __init__(self) -> None:
        #: Current simulated time (advanced by the dispatch loop only).
        self.now = 0.0
        #: Heap of the distinct pending timestamps later than ``now``: one
        #: entry per list in :attr:`buckets`.
        self.times: List[float] = []
        #: Timestamp -> the items scheduled at it, in scheduling order.  The
        #: current instant's list stays registered under ``now`` until the
        #: clock advances, so an item scheduled at ``now`` joins the list
        #: being walked; it changes only by appending an item to a list, or
        #: by registering a new list while pushing its timestamp on
        #: :attr:`times`.
        self.buckets: Dict[float, List[Any]] = {self.now: []}
        # Next event of ``buckets[now]`` to dispatch: a ``run`` that stops in
        # the middle of an instant resumes here.
        self._batch_index = 0
        #: Number of items delivered (dispatched) so far; ``run`` counts in
        #: a local and writes the count back when it returns.
        self.dispatched = 0

    # ------------------------------------------------------------------ #
    # Factory helpers
    # ------------------------------------------------------------------ #
    def event(self, name: str = "") -> Event:
        """Create an untriggered one-shot event."""
        return Event(self, name=name)

    def timeout(self, delay: float) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    def only(self, item: Any) -> bool:
        """Whether ``item``, being dispatched, is all that is scheduled:
        nothing after it at this instant and no later instant.  A process
        that runs for ever asks it of its wake-up as it wakes; if so, nothing
        it does not do itself can happen again."""
        return not self.times and self.buckets[self.now][-1] is item

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, until: Event) -> Any:
        """Run the simulation until ``until`` is *dispatched*; then return its
        value (or raise the exception it failed with).  Running out of
        events first is a :class:`SimulationError`.

        A failed event that nothing waits on (it has no callback when it is
        dispatched) raises its exception here, at that instant, as SimPy
        does: a process that crashes with no waiter — a device loop, a
        fleet's failure or rebalancer process — ends the run with its own
        error, not with a later "ran out of events" or never.

        Waiting for dispatch rather than for ``triggered`` matters: a
        :class:`Timeout` is triggered the moment it is created (its value
        is already known) but only dispatches when the clock reaches it, so
        ``env.run(env.timeout(5))`` advances the clock to 5.0, not 0.0.
        """
        # The innermost loop of every simulation run: one heap pop per
        # distinct timestamp, one list walk per item at it, and each item's
        # dispatch inline — an item with a handler handed to it; an event
        # marked, its callbacks taken and called (or, failed with none, its
        # exception raised).
        target = until
        times = self.times
        buckets = self.buckets
        batch = buckets[self.now]
        index = self._batch_index
        dispatched = self.dispatched
        try:
            while not target.dispatched:
                if index < len(batch):
                    event = batch[index]
                    index += 1
                    dispatched += 1
                    resume = event.resume
                    if resume is not None:
                        resume(event)
                        continue
                    event.dispatched = True
                    callbacks = event.callbacks
                    if not callbacks and event.exception is not None:
                        # A failure nobody waits for ends the run, now.
                        raise event.exception
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                    continue
                if not times:
                    # Out of events: keep the instant's list registered, but
                    # not the events it delivered.
                    batch.clear()
                    index = 0
                    raise SimulationError(
                        f"simulation ran out of events before {target.name!r} fired"
                    )
                # The instant is over: nothing can be scheduled at it again.
                del buckets[self.now]
                time = heapq.heappop(times)
                self.now = time
                batch = buckets[time]
                index = 0
        finally:
            self._batch_index = index
            self.dispatched = dispatched
        if target.exception is not None:
            raise target.exception
        return target.value
