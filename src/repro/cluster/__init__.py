"""Multi-client experiment descriptions, results and metrics.

The paper's testbed runs one database VM per compute server, all sharing a
single emulated CSD.  This package holds the types that describe that
topology and what was measured on it: :class:`ClientSpec` (one tenant running
either the Skipper executor or the vanilla pull-based executor over its own
dataset — the one validated description a session is configured from),
:class:`ClusterConfig` / :class:`ClusterResult` (per-tenant lists of
:class:`~repro.core.execution.QueryResult`, the same type in both modes), and
the metrics needed to reproduce the figures — average/cumulative execution
time, the switch/transfer/processing breakdown, stretch and the L2 norm of
stretch.
Running an experiment is the service façade's job
(:class:`repro.service.service.StorageService`).
"""

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig, ClusterResult
from repro.cluster.metrics import (
    ExecutionBreakdown,
    attribute_waiting,
    imbalance_coefficient,
    jain_fairness,
    l2_norm,
    max_stretch,
    merge_intervals,
    percentile,
    stretches,
)

__all__ = [
    "ClientSpec",
    "ClusterConfig",
    "ClusterResult",
    "ExecutionBreakdown",
    "attribute_waiting",
    "imbalance_coefficient",
    "jain_fairness",
    "l2_norm",
    "max_stretch",
    "merge_intervals",
    "percentile",
    "stretches",
]
