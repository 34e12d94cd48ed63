"""Waitable primitives used by simulation processes."""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.environment import Environment


class Event:
    """A one-shot event that carries a value once it has been triggered.

    Processes wait on an event by ``yield``-ing it.  Any other process (or
    plain callback code) triggers it exactly once with :meth:`succeed` or
    :meth:`fail`.  Waiting processes are resumed at the simulated time the
    event was triggered.
    """

    __slots__ = (
        "env",
        "name",
        "triggered",
        "dispatched",
        "value",
        "exception",
        "callbacks",
    )

    #: No handler: the kernel runs an event's callbacks (it hands a wake-up
    #: or a served GET, whose ``resume`` is set, to that instead).
    resume: Optional[Callable[[Any], None]] = None

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        #: Whether the event has already been succeeded or failed.
        self.triggered = False
        #: Whether the event queue has delivered it (callbacks have run).
        self.dispatched = False
        #: Value the event was succeeded with (``None`` until triggered).
        self.value: Any = None
        #: Exception the event was failed with, if any.
        self.exception: Optional[BaseException] = None
        #: Run once, in order, when the event is dispatched; register through
        #: :meth:`add_callback` unless the event is known not to have fired.
        self.callbacks: List[Callable[[Event], None]] = []

    def succeed(self, value: Any = None) -> Event:
        """Trigger the event with ``value`` and schedule waiter wake-ups."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} has already been triggered")
        self.triggered = True
        self.value = value
        # Enqueued at the current instant, whose list is always registered.
        env = self.env
        env.buckets[env.now].append(self)
        return self

    def fail(self, exception: BaseException) -> Event:
        """Trigger the event with an exception to be raised in waiters."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} has already been triggered")
        self.triggered = True
        self.exception = exception
        env = self.env
        env.buckets[env.now].append(self)
        return self

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        """Register ``callback`` to run when the event fires.

        If the event already fired, the callback runs when the scheduler
        dispatches the event (events are delivered via the event queue, never
        synchronously, to keep ordering deterministic).  If the event has
        already been dispatched the callback is re-scheduled so late waiters
        are still woken.
        """
        self.callbacks.append(callback)
        if self.dispatched:
            env = self.env
            env.buckets[env.now].append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state} at t={self.env.now:.3f}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future.

    For a delay that must be an event: a child of ``any_of`` / ``all_of``,
    or what ``env.run(until=…)`` stops at.  A process that only waits yields
    the number instead, which costs no event (see
    :class:`~repro.sim.process.Process`).
    """

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float) -> None:
        if not delay >= 0:  # also rejects NaN, which would corrupt the time heap
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        # Fields are assigned directly rather than via ``Event.__init__``, and
        # the timeout enqueues itself: the ``super()`` call, a per-instance
        # f-string name and a call into the environment are each measurable
        # on a storm of timeouts.
        self.env = env
        self.name = "timeout"
        self.triggered = True
        self.dispatched = False
        self.value = None
        self.exception = None
        self.callbacks = []
        self.delay = delay
        time = env.now + delay
        buckets = env.buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [self]
            heappush(env.times, time)
        else:
            bucket.append(self)


class AllOf(Event):
    """Composite event that fires when every child event has fired.

    Children are always awaited through their callbacks, never peeked at via
    ``triggered``: a :class:`Timeout` is *triggered* the moment it is created
    (its value is known) but only *dispatches* when the clock reaches it, and
    composites must fire on dispatch.  ``add_callback`` re-schedules already
    dispatched children, so completion still arrives through the event queue
    in deterministic order.
    """

    __slots__ = ("_pending", "_results")

    def __init__(self, env: Environment, events: List[Event]) -> None:
        super().__init__(env, name=f"all_of({len(events)})")
        self._pending = len(events)
        self._results: List[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for index, event in enumerate(events):
            event.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def _on_child(event: Event) -> None:
            if self.triggered:
                return
            if event.exception is not None:
                self.fail(event.exception)
                return
            self._results[index] = event.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._results))

        return _on_child


class AnyOf(Event):
    """Composite event that fires as soon as one child event has fired.

    As with :class:`AllOf`, children are awaited through their callbacks so
    that a not-yet-dispatched :class:`Timeout` child (triggered at creation,
    delivered at its scheduled time) does not make the composite fire
    immediately.
    """

    __slots__ = ()

    def __init__(self, env: Environment, events: List[Event]) -> None:
        super().__init__(env, name=f"any_of({len(events)})")
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
        else:
            self.succeed(event.value)
