"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.exceptions import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator so it can be driven by the event loop.

    A process is itself an :class:`Event`: it fires (with the generator's
    return value) when the generator finishes, so processes can wait for
    other processes simply by yielding them.
    """

    __slots__ = ("_generator", "_send", "_resume_callback")

    def __init__(self, env: Environment, generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator; did you forget to call the process function?"
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Both bound methods are created once: ``_resume`` is registered as
        # a callback on every event the generator yields, and ``send`` runs
        # once per dispatched event.
        self._send = generator.send
        self._resume_callback = self._resume
        # Kick the process off at the current simulated time.
        bootstrap = Event(env, name="bootstrap")
        bootstrap.callbacks.append(self._resume_callback)
        bootstrap.succeed(None)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        try:
            if event.exception is not None:
                target = self._generator.throw(event.exception)
            else:
                target = self._send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(target, Event):
            self._generator.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes may only yield Event objects"
                )
            )
            return
        # Equivalent to ``target.add_callback`` with the call overhead
        # shaved off — this runs once per dispatched event.
        target.callbacks.append(self._resume_callback)
        if target.dispatched:
            env = self.env
            env.buckets[env.now].append(target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.triggered else "running"
        return f"<Process {self.name!r} {state}>"
