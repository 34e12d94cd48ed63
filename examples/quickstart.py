#!/usr/bin/env python3
"""Quickstart: sessions and query handles on the storage-service façade.

Builds a small TPC-H-like dataset, stands up a :class:`StorageService` over
an emulated Cold Storage Device, opens one Skipper session and one vanilla
(pull-based) session, submits TPC-H Q12 through both and drives the
simulation to completion.  The two executors must agree on the answer, and
each :class:`QueryHandle` carries the submit/start/finish timeline and the
simulated execution-time metrics Skipper collects.

Run with::

    python examples/quickstart.py
"""

from repro.harness import format_table
from repro.service import (
    ClientSpec,
    ClusterConfig,
    StorageService,
    canonical_rows,
    workloads,
)

tpch = workloads.tpch


def main() -> None:
    # 1. Generate the dataset and the query.
    catalog = tpch.build_catalog("small", seed=42)
    query = tpch.q12()

    # 2. One service, two tenants: Skipper vs the pull-based baseline.
    config = ClusterConfig(
        client_specs=[
            ClientSpec(client_id="skipper", queries=[query], mode="skipper", cache_capacity=8),
            ClientSpec(client_id="vanilla", queries=[query], mode="vanilla"),
        ]
    )
    service = StorageService(config, catalog=catalog)

    # 3. Open a session per tenant and submit the query through the façade.
    handles = {}
    for tenant in ("skipper", "vanilla"):
        session = service.open_session(tenant)
        handles[tenant] = session.submit(query)
        session.close()

    # 4. Drive the simulation until every submitted query has resolved.
    service.run()

    # 5. Both executors must produce the same answer.
    skipper_rows = canonical_rows(handles["skipper"].result().rows)
    vanilla_rows = canonical_rows(handles["vanilla"].result().rows)
    assert skipper_rows == vanilla_rows, "executors disagree on the query answer"
    print(f"answer verified: {len(skipper_rows)} groups, executors agree\n")

    # 6. Report each handle's lifecycle and measurements.
    rows = []
    for tenant, handle in handles.items():
        result = handle.result()
        rows.append(
            [
                tenant,
                handle.status,
                round(handle.submitted_at, 1),
                round(handle.started_at, 1),
                round(handle.finished_at, 1),
                round(result.execution_time, 1),
                result.num_requests,
            ]
        )
    print(
        format_table(
            ["session", "status", "submitted", "started", "finished",
             "execution time (s)", "GET requests"],
            rows,
            title="Query handles after StorageService.run() (simulated seconds)",
        )
    )


if __name__ == "__main__":
    main()
