"""The vanilla pull-based database client (the paper's PostgreSQL baseline).

A traditional engine follows the optimize-then-execute model: the planner
fixes a join order and execution *pulls* base-table segments one at a time in
exactly that order, blocking on each request.  On a shared CSD this is the
pathological access pattern — two consecutive requests of a client are
separated by every other tenant's request, so nearly every object access pays
a group switch.  The executor is only that access pattern: it runs inside the
same :class:`~repro.core.execution.QueryRun` as Skipper and returns the same
:class:`~repro.core.execution.QueryResult` (``mode == "vanilla"``).
"""

from repro.vanilla.executor import VanillaExecutor

__all__ = ["VanillaExecutor"]
