"""FIFO message store used as a request/response channel between processes."""

from __future__ import annotations

import contextlib
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Iterable, List, Union

from repro.exceptions import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment
    from repro.sim.process import Wake


class Store:
    """Unbounded FIFO of items a process waits on.

    ``put`` never blocks (capacity is unbounded, matching an HTTP request
    queue).  A process takes the next item with ``item = yield store``:
    if an item is already available it is resumed with it at once (still via
    the event queue, preserving deterministic ordering), else when the next
    ``put`` hands it over.  ``get`` returns an :class:`Event` that does the
    same, for a wait that must be an event — one raced against another
    wake-up source with ``any_of``, say.
    """

    def __init__(self, env: Environment, name: str = "store") -> None:
        self.env = env
        self.name = name
        #: The live queue, oldest first: read it in place (truthiness,
        #: length, iteration — no snapshot to pay for); it changes only
        #: through the methods below.
        self.queued: Deque[Any] = deque()
        #: The events waiting for an item, oldest first: ``get`` events and
        #: the wake-ups of processes that yielded the store (untriggered
        #: until a ``put`` hands them an item).  Only an empty store has any.
        self.getters: Deque[Union[Event, Wake]] = deque()

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        getters = self.getters
        if getters:
            # ``getter.succeed(item)`` inline: one hand-off per request.
            getter = getters.popleft()
            if getter.triggered:
                raise SimulationError(f"event {getter.name!r} has already been triggered")
            getter.triggered = True
            getter.value = item
            env = self.env
            env.buckets[env.now].append(getter)
        else:
            self.queued.append(item)

    def put_many(self, items: Iterable[Any]) -> None:
        """Enqueue ``items`` in order: exactly ``put`` once per item.

        Waiting getters are woken oldest first, one item each, and whatever
        is left over joins the queue in a single extend.
        """
        getters = self.getters
        if getters:
            env = self.env
            due = env.buckets[env.now]
            remaining = iter(items)
            for item in remaining:
                # ``put``'s inline ``succeed``.
                getter = getters.popleft()
                if getter.triggered:
                    raise SimulationError(f"event {getter.name!r} has already been triggered")
                getter.triggered = True
                getter.value = item
                due.append(getter)
                if not getters:
                    break
            items = remaining
        self.queued.extend(items)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        # The store's own name is reused verbatim: a per-get f-string is
        # measurable at million-request scale and the name is cosmetic.
        event = Event(self.env, name=self.name)
        if self.queued:
            event.succeed(self.queued.popleft())
        else:
            self.getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Pop and return everything queued, oldest first (``[]`` if empty)."""
        queued = self.queued
        items = list(queued)
        queued.clear()
        return items

    def release(self) -> None:
        """Give back the memory an emptied queue keeps for reuse (a deque
        holds on to freed blocks), once nothing will put or get again.
        Whatever is still queued stays."""
        if not self.queued:
            self.queued = deque()

    def cancel(self, event: Event) -> None:
        """Withdraw a pending ``get`` event.

        A getter abandoned while still waiting would silently swallow the
        next ``put`` (the item hands off to an event nobody consumes), so a
        consumer racing a ``get`` against another wake-up source must cancel
        the loser.  Cancelling an event that already fired (or was never a
        getter of this store) is a no-op — the caller owns its value.
        """
        with contextlib.suppress(ValueError):
            self.getters.remove(event)
