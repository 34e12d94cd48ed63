"""FIFO message store used as a request/response channel between processes."""

from __future__ import annotations

import contextlib
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Iterable, List

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Store:
    """Unbounded FIFO of items with event-based ``get``.

    ``put`` never blocks (capacity is unbounded, matching an HTTP request
    queue).  ``get`` returns an :class:`Event` that fires with the next item;
    if an item is already available the event fires immediately (still via
    the event queue, preserving deterministic ordering).
    """

    def __init__(self, env: Environment, name: str = "store") -> None:
        self.env = env
        self.name = name
        #: The live queue, oldest first: read it in place (truthiness,
        #: length, iteration — no snapshot to pay for); it changes only
        #: through the methods below.
        self.queued: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.queued)

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self.queued.append(item)

    def put_many(self, items: Iterable[Any]) -> None:
        """Enqueue ``items`` in order: exactly ``put`` once per item.

        Waiting getters are woken oldest first, one item each, and whatever
        is left over joins the queue in a single extend.
        """
        getters = self._getters
        if getters:
            remaining = iter(items)
            for item in remaining:
                getters.popleft().succeed(item)
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
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Pop and return everything queued, oldest first (``[]`` if empty)."""
        queued = self.queued
        items = list(queued)
        queued.clear()
        return items

    def cancel(self, event: Event) -> None:
        """Withdraw a pending ``get`` event.

        A getter abandoned while still waiting would silently swallow the
        next ``put`` (the item hands off to an event nobody consumes), so a
        consumer racing a ``get`` against another wake-up source must cancel
        the loser.  Cancelling an event that already fired (or was never a
        getter of this store) is a no-op — the caller owns its value.
        """
        with contextlib.suppress(ValueError):
            self._getters.remove(event)
