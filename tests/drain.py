"""Run a simulation to its end, for tests that drive a bare environment.

``Environment.run`` stops at an event; the program always names one.  A
test that wants every pending event delivered stops at an event nothing
triggers, which ends once the queue is empty with the error that says so.
A process that fails with nothing waiting on it ends the run first: its
error is raised out of :func:`drain`, at the instant it failed.
"""

from repro.exceptions import SimulationError


def drain(env):
    """Deliver every pending event of ``env``; raise what a process with no
    waiter failed with."""
    try:
        env.run(env.event("drained"))
    except SimulationError as error:
        if "ran out of events" not in str(error):
            raise
