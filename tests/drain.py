"""Run a simulation to its end, for tests that drive a bare environment.

``Environment.run`` stops at an event; the program always names one.  A
test that wants every pending event delivered stops at an event nothing
triggers, which ends once the queue is empty with the error that says so.
"""

import pytest

from repro.exceptions import SimulationError


def drain(env):
    """Deliver every pending event of ``env``."""
    with pytest.raises(SimulationError, match="ran out of events"):
        env.run(env.event("drained"))
