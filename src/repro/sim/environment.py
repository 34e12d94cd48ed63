"""The simulation environment: clock plus event queue.

The queue is *batched by timestamp*: instead of one heap entry per event,
the heap holds each distinct pending timestamp once and a side table maps
the timestamp to the list of events scheduled at it (in scheduling order).
Dispatch order is exactly the classic ``(time, sequence)`` order — the
batch list *is* the sequence order within a timestamp — but same-time
bursts (the common case in a discrete-event storage simulation: a device
completing a transfer wakes the waiter, the scheduler, and the metrics
hooks at one instant) cost one heap operation instead of one per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

from repro.exceptions import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator


class Environment:
    """Owns the simulated clock and the pending-event queue.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(5.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 5.0 and proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time (advanced by the dispatch loop only).
        self.now = float(initial_time)
        # Heap of distinct pending timestamps; one entry per bucket.
        self._times: List[float] = []
        # Timestamp -> events scheduled at it, in scheduling order.
        self._buckets: Dict[float, List[Event]] = {}
        # Bucket currently being dispatched.  Once a bucket is activated it
        # is removed from ``_buckets``, so events scheduled *during* its
        # dispatch (at the same timestamp) open a fresh bucket that is
        # dispatched right after it — preserving global scheduling order.
        self._batch: Optional[List[Event]] = None
        self._batch_index = 0
        #: Number of events delivered (dispatched) so far.
        self.dispatched = 0

    # ------------------------------------------------------------------ #
    # Factory helpers
    # ------------------------------------------------------------------ #
    def event(self, name: str = "") -> Event:
        """Create an untriggered one-shot event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------ #
    # Scheduling / running
    # ------------------------------------------------------------------ #
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue ``event`` for dispatch ``delay`` units in the future."""
        if not delay >= 0:  # also rejects NaN, which would corrupt the time heap
            raise SimulationError(f"cannot schedule an event in the past (delay {delay})")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)

    def step(self) -> None:
        """Dispatch the next scheduled event, advancing the clock."""
        batch = self._batch
        if batch is not None and self._batch_index < len(batch):
            event = batch[self._batch_index]
            self._batch_index += 1
            self.dispatched += 1
            event._dispatch()
            return
        if not self._times:
            self._batch = None
            raise SimulationError("no scheduled events to step through")
        time = heapq.heappop(self._times)
        if time < self.now:  # pragma: no cover - defensive, cannot happen
            raise SimulationError("event queue went backwards in time")
        self.now = time
        batch = self._buckets.pop(time)
        self._batch = batch
        self._batch_index = 1
        self.dispatched += 1
        batch[0]._dispatch()

    def peek(self) -> Optional[float]:
        """Timestamp of the next scheduled event, or ``None`` if idle."""
        batch = self._batch
        if batch is not None and self._batch_index < len(batch):
            return self.now
        if not self._times:
            return None
        return self._times[0]

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain,
        * a number — run until the clock reaches that time,
        * an :class:`Event` — run until that event is *dispatched* and
          return its value (or raise the exception it failed with).

        Waiting for dispatch rather than for ``triggered`` matters: a
        :class:`Timeout` is triggered the moment it is created (its value
        is already known) but only dispatches when the clock reaches it, so
        ``env.run(until=env.timeout(5))`` must advance the clock to 5.0,
        not return immediately at the current time.
        """
        if until is not None and not isinstance(until, Event):
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError("cannot run until a time in the past")
            while True:
                next_time = self.peek()
                if next_time is None or next_time > deadline:
                    break
                self.step()
            self.now = deadline
            return None

        # The dispatch loop below is ``step()`` inlined: this is the
        # innermost loop of every simulation run and the per-event
        # ``peek()``/``step()`` call pair is measurable at million-event
        # scale.  Semantics are identical, including the dispatch order
        # and the ``dispatched`` count.
        target = until
        times = self._times
        buckets = self._buckets
        while target is None or not target.dispatched:
            batch = self._batch
            if batch is not None and self._batch_index < len(batch):
                event = batch[self._batch_index]
                self._batch_index += 1
                self.dispatched += 1
                event._dispatch()
                continue
            if not times:
                self._batch = None
                if target is None:
                    return None
                raise SimulationError(
                    f"simulation ran out of events before {target.name!r} fired"
                )
            time = heapq.heappop(times)
            self.now = time
            batch = buckets.pop(time)
            self._batch = batch
            self._batch_index = 1
            self.dispatched += 1
            batch[0]._dispatch()
        if target.exception is not None:
            raise target.exception
        return target.value
