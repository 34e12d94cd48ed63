"""Minimal discrete-event simulation kernel.

The multi-client experiments in the paper measure how database clients and a
shared Cold Storage Device interleave over time.  Rather than sleeping for
real seconds (the paper's middleware adds wall-clock delays), every component
in this reproduction advances a *simulated* clock managed by this package.

The kernel is intentionally small and SimPy-like:

* :class:`~repro.sim.environment.Environment` owns the event queue and clock.
* Processes are plain Python generators that wait by ``yield``-ing a
  number (a delay: ``yield 2.5``), a :class:`~repro.sim.store.Store` (its
  next item: ``item = yield store``) or an event.  A delay or a store wait
  costs no event object: each process reuses one wake-up
  (:class:`~repro.sim.process.Wake`, not an event) for them.
* The kernel dispatches by one rule: an item that carries a handler
  (``resume``: a wake-up, a served GET) is handed to it; an event has its
  callbacks run.  A failed event with no callback — a process that crashed
  with nothing waiting on it — raises its exception from ``Environment.run``
  at that instant, as in SimPy: a failure nobody waits for ends the run.
* :class:`~repro.sim.events.Event` is a one-shot event that processes can
  wait on and that callers can *succeed* with a value.
* :class:`~repro.sim.events.Timeout` is a delay as an event, for what needs
  one: a race (``any_of``), a composite (``all_of``), ``env.run(until=…)``.
* :class:`~repro.sim.store.Store` is an unbounded FIFO channel used for
  request/response queues between clients and the CSD; ``Store.get`` is a
  store wait as an event, for the same uses.

Determinism: events scheduled for the same timestamp fire in the order they
were scheduled, so repeated runs of an experiment produce identical traces.
"""

from repro.sim.events import Event, Timeout
from repro.sim.process import Process, Waitable
from repro.sim.store import Store
from repro.sim.environment import Environment

__all__ = ["Environment", "Event", "Timeout", "Process", "Store", "Waitable"]
