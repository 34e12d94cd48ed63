"""Figure 11b — sensitivity to the cache size (TPC-H Q5, SF-50 equivalent).

Paper reference: at a 10 GB cache Skipper is ~2.2x slower than vanilla
PostgreSQL, matches it at ~15 GB (20 % of the dataset) and is 1.37-1.59x
faster at larger caches; the number of GET requests per client falls from
~388 to ~64 as the cache grows from 10 to 30 objects.
"""

from repro.harness import experiments, format_table


def test_figure11b_cache_size():
    result = experiments.figure11b_cache_size(cache_sizes=(10, 15, 20, 25, 30))
    rows = [
        [size, round(seconds, 1), round(gets, 1)]
        for size, seconds, gets in zip(
            result["cache_size"], result["skipper_time"], result["get_requests_per_client"]
        )
    ]
    print()
    print(
        format_table(
            ["cache size (objects)", "Skipper avg time (s)", "GET requests / client"],
            rows,
            title="Figure 11b: Skipper sensitivity to the cache size (Q5, 5 clients)",
        )
    )
    print(f"vanilla PostgreSQL baseline: {result['postgresql_time']:.1f} s")
    times = result["skipper_time"]
    gets = result["get_requests_per_client"]
    # Smaller cache -> more re-issued requests and longer execution.
    assert all(later <= earlier for earlier, later in zip(gets, gets[1:]))
    assert times[0] > times[-1]
    # At the largest cache Skipper beats the vanilla baseline; at the
    # smallest it is worse (the paper's crossover behaviour).
    assert times[-1] < result["postgresql_time"]
    assert times[0] > result["postgresql_time"]
