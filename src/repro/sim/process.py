"""Generator-based simulation processes."""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Union

from repro.exceptions import SimulationError
from repro.sim.events import Event
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

#: What a process may yield: a delay (an ``int`` or a ``float``, never a
#: ``bool``), a :class:`Store` to take its next item from, or an event.
Waitable = Union[Event, Store, float]
ProcessGenerator = Generator[Waitable, Any, Any]


class Wake:
    """A process's one reusable wake-up, for its delays and store waits.

    Not an event: the kernel hands it straight to :attr:`resume` (its
    process's ``_resume``), and the process re-books it as it is.  Only a
    store reads ``triggered``: the process clears it as the wake-up joins
    the store's getters, and the ``put`` that hands it an item in
    :attr:`value` sets it.
    """

    __slots__ = ("name", "triggered", "value", "resume")

    triggered: bool
    #: Never set: a refused delay is thrown in through an event.
    exception: Optional[BaseException] = None

    def __init__(self, name: str, resume: Callable[[Wake], None]) -> None:
        self.name = name
        self.value: Any = None
        self.resume = resume


class Process(Event):
    """Wraps a generator so it can be driven by the event loop.

    A process is itself an :class:`Event`: it fires (with the generator's
    return value) when the generator finishes, so processes can wait for
    other processes simply by yielding them.  A generator that raises fails
    the process with that exception: a waiter gets it thrown in; with no
    waiter, :meth:`Environment.run <repro.sim.environment.Environment.run>`
    raises it as the failure is dispatched.

    The generator waits by yielding:

    * a number — ``yield 2.5`` resumes it (with ``None``) 2.5 time units
      later, exactly as ``yield env.timeout(2.5)`` would;
    * a :class:`Store` — ``item = yield store`` resumes it with the store's
      next item, exactly as ``item = yield store.get()`` would;
    * any :class:`Event` — a :class:`~repro.sim.events.Timeout`, a getter,
      another process, an ``all_of`` / ``any_of`` composite — resuming it
      with the event's value, or throwing the event's exception into it.

    A number or a store needs no event of its own: the process books its one
    :class:`Wake`, reused for every such wait, in the bucket slot the
    equivalent timeout or getter would have taken, so dispatch order and the
    kernel's event count are the same either way; the kernel hands the
    wake-up straight back to the process, with no callback to run.  What
    two wake-up sources race for (``any_of``), what a caller runs the kernel
    until, and what several processes wait on stay events.  A negative or
    NaN delay is the ``SimulationError`` a
    :class:`~repro.sim.events.Timeout` raises, thrown into the generator at
    its ``yield``.
    """

    __slots__ = ("_generator", "_send", "_resume_callback", "wake")

    def __init__(self, env: Environment, generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator; did you forget to call the process function?"
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Both bound methods are created once: ``_resume`` is registered as
        # a callback on every event the generator yields and is what the
        # kernel hands the wake-up to, and ``send`` runs once per resume.
        self._send = generator.send
        self._resume_callback = self._resume
        #: The wake-up a delay or a store wait books (``None`` once the
        #: process has finished); it kicks the process off at the current
        #: simulated time.
        wake = self.wake = Wake(self.name, self._resume_callback)
        env.buckets[env.now].append(wake)

    def _resume(self, event: Union[Event, Wake]) -> None:
        """Advance the generator with the value (or exception) of ``event``,
        then book what it waits on next."""
        wake = self.wake
        try:
            if event is wake:
                # The wake-up must not pin the item it delivered.
                value = wake.value
                wake.value = None
                target = self._send(value)
            elif event.exception is not None:
                target = self._generator.throw(event.exception)
            else:
                target = self._send(event.value)
        except StopIteration as stop:
            self._release()
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._release()
            self.fail(exc)
            return

        kind = type(target)
        if kind is float or kind is int:
            if target >= 0:  # also false for NaN, which would corrupt the time heap
                # ``Timeout(env, target)`` without the event: the same slot.
                # The wake-up is triggered already (it is not among getters).
                env = self.env
                time = env.now + target
                buckets = env.buckets
                bucket = buckets.get(time)
                if bucket is None:
                    buckets[time] = [wake]
                    heappush(env.times, time)
                else:
                    bucket.append(wake)
                return
        elif kind is Store:
            # ``target.get()`` without the event: due now if an item is
            # queued, else the newest of the store's waiting getters (which
            # ``put`` triggers when it hands the wake-up an item).
            queued = target.queued
            if queued:
                wake.value = queued.popleft()
                env = self.env
                env.buckets[env.now].append(wake)
            else:
                wake.triggered = False
                target.getters.append(wake)
            return
        elif isinstance(target, Event):
            # Equivalent to ``target.add_callback`` with the call overhead
            # shaved off.
            target.callbacks.append(self._resume_callback)
            if target.dispatched:
                env = self.env
                env.buckets[env.now].append(target)
            return
        if kind is float or kind is int:
            # A negative or NaN delay: ``Timeout``'s error, thrown into the
            # generator at its ``yield`` (which may catch it and wait on
            # something else).  Delivered at once, not through the queue: no
            # event is counted, as none is when ``Timeout`` raises.
            refusal = Event(self.env, name="refused delay")
            refusal.exception = SimulationError(f"timeout delay must be >= 0, got {target}")
            self._resume(refusal)
            return
        self._generator.close()
        self._release()
        self.fail(
            SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may only yield "
                "a delay (int or float), a Store or an Event"
            )
        )

    def _release(self) -> None:
        """Drop what only a running generator needs: a finished process
        keeps its value (or exception) and its waiters, not its wake-up, the
        generator or the bound methods."""
        self._generator = self._send = self._resume_callback = None
        self.wake = None
