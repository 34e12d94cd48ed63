"""Closed-form performance models from the paper.

Alongside measurements, the paper derives closed-form expressions for the
behaviour of both systems:

* vanilla pull-based execution on a shared CSD costs roughly
  ``S × C × D`` (switch latency × clients × data segments) — Section 3.2;
* a Skipper client's waiting time is roughly ``(C − 1) × (D/B + S)`` because
  the CSD serves tenants group by group — Section 5.2.1;
* MJoin under a cache of ``C_objects`` needs about ``(R × S / C_objects)^(R−1)``
  request cycles for ``R`` relations of ``S`` segments each — Section 5.2.4;
* the rank-based scheduler's fairness constant must satisfy ``K ≤ 1/s`` to
  favour efficiency and ``K = 1`` to maximise fairness — Section 4.4.

This module implements the first three so that the simulator can be
validated against them (see ``tests/test_analysis.py`` and
``tests/figures/test_analysis_validation.py``); the fourth is a rule for
choosing ``K``, not a prediction to compare a run with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


def vanilla_execution_time(
    switch_seconds: float,
    num_clients: int,
    num_segments: int,
    transfer_seconds_per_object: float = 0.0,
    processing_seconds: float = 0.0,
) -> float:
    """Section 3.2: pull-based execution time ≈ ``S × C × D``.

    Each of the ``D`` segments a client pulls is separated from its next
    request by one group switch and one transfer per concurrent client, so
    the client observes ``D × C × (S + T)`` of waiting plus its own CPU work.
    """
    _validate_positive(num_clients=num_clients, num_segments=num_segments)
    _validate_non_negative(
        switch_seconds=switch_seconds,
        transfer_seconds_per_object=transfer_seconds_per_object,
        processing_seconds=processing_seconds,
    )
    per_object_round = num_clients * (switch_seconds + transfer_seconds_per_object)
    return num_segments * per_object_round + processing_seconds


def skipper_waiting_time(
    switch_seconds: float,
    client_position: int,
    num_segments: int,
    transfer_seconds_per_object: float,
) -> float:
    """Section 5.2.1: waiting time of the ``k``-th Skipper client.

    The CSD serves tenants group by group, so the client whose group is
    loaded ``k``-th waits for ``k − 1`` full group services, each costing the
    data transfer of one tenant (``D/B``) plus one group switch.
    ``client_position`` is 1-based.
    """
    if client_position < 1:
        raise ConfigurationError("client_position is 1-based and must be >= 1")
    _validate_positive(num_segments=num_segments)
    _validate_non_negative(
        switch_seconds=switch_seconds, transfer_seconds_per_object=transfer_seconds_per_object
    )
    group_service = num_segments * transfer_seconds_per_object + switch_seconds
    return (client_position - 1) * group_service


def skipper_average_execution_time(
    switch_seconds: float,
    num_clients: int,
    num_segments: int,
    transfer_seconds_per_object: float,
    processing_seconds: float = 0.0,
) -> float:
    """Average over all client positions of waiting + own transfer + CPU."""
    _validate_positive(num_clients=num_clients, num_segments=num_segments)
    waits = [
        skipper_waiting_time(switch_seconds, position, num_segments, transfer_seconds_per_object)
        for position in range(1, num_clients + 1)
    ]
    own_service = num_segments * transfer_seconds_per_object + switch_seconds
    return sum(waits) / num_clients + own_service + processing_seconds


def mjoin_expected_cycles(num_relations: int, segments_per_relation: int, cache_objects: int) -> float:
    """Section 5.2.4: number of request cycles ≈ ``(R × S / C)^(R−1)``.

    ``R`` relations of ``S`` segments each joined with a cache of ``C``
    objects; with a round-robin delivery the cache is split evenly across the
    relations and every batch of ``C`` objects evaluates ``(C/R)^R`` subplans.
    The estimate degenerates to 1 cycle when the cache holds all but one
    relation (the hash-join regime).
    """
    _validate_positive(
        num_relations=num_relations,
        segments_per_relation=segments_per_relation,
        cache_objects=cache_objects,
    )
    if cache_objects < num_relations:
        raise ConfigurationError(
            "the cache must hold at least one object per joined relation"
        )
    if cache_objects >= (num_relations - 1) * segments_per_relation:
        return 1.0
    ratio = (num_relations * segments_per_relation) / cache_objects
    return ratio ** (num_relations - 1)


def mjoin_expected_requests(
    num_relations: int, segments_per_relation: int, cache_objects: int
) -> float:
    """Total object requests implied by :func:`mjoin_expected_cycles`.

    The first cycle requests every object once; each further cycle re-fetches
    at most the objects that do not fit in the cache.
    """
    cycles = mjoin_expected_cycles(num_relations, segments_per_relation, cache_objects)
    total_objects = num_relations * segments_per_relation
    refetch_per_cycle = max(0, total_objects - cache_objects)
    return total_objects + (cycles - 1) * refetch_per_cycle


@dataclass
class AnalyticalModel:
    """Bundles the paper's formulas for one experimental configuration."""

    switch_seconds: float = 10.0
    transfer_seconds_per_object: float = 9.6
    num_clients: int = 5
    num_segments: int = 57
    processing_seconds: float = 0.0

    def vanilla_time(self) -> float:
        """Expected pull-based execution time on the shared CSD."""
        return vanilla_execution_time(
            self.switch_seconds,
            self.num_clients,
            self.num_segments,
            self.transfer_seconds_per_object,
            self.processing_seconds,
        )

    def skipper_time(self) -> float:
        """Expected average Skipper execution time on the shared CSD."""
        return skipper_average_execution_time(
            self.switch_seconds,
            self.num_clients,
            self.num_segments,
            self.transfer_seconds_per_object,
            self.processing_seconds,
        )

    def speedup(self) -> float:
        """Expected Skipper speed-up over the vanilla engine."""
        return self.vanilla_time() / self.skipper_time()

    def latency_sensitivity(self, switch_seconds: float) -> float:
        """Vanilla slowdown when the switch latency changes to ``switch_seconds``."""
        baseline = self.vanilla_time()
        changed = vanilla_execution_time(
            switch_seconds,
            self.num_clients,
            self.num_segments,
            self.transfer_seconds_per_object,
            self.processing_seconds,
        )
        return changed / baseline


def _validate_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def _validate_non_negative(**values: float) -> None:
    for name, value in values.items():
        if value < 0:
            raise ConfigurationError(f"{name} must be non-negative, got {value}")
