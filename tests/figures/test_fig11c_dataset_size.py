"""Figure 11c — sensitivity to the data set size (TPC-H Q5, SF-100 equivalent).

Paper reference: on the twice-as-large dataset the same sweep (cache from
10 % to 30 % of the dataset) shows a steeper degradation: execution time
grows ~4.8x and the GET count grows from ~212 to ~1787 requests per client
as the cache shrinks from 42 to 14 objects.
"""

from repro.harness import experiments, format_table


def test_figure11c_dataset_size():
    result = experiments.figure11c_dataset_size(cache_sizes=(14, 21, 28, 35, 42))
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
            title="Figure 11c: Skipper sensitivity to the data set size (Q5, SF-100 equivalent)",
        )
    )
    gets = result["get_requests_per_client"]
    times = result["skipper_time"]
    assert all(later <= earlier for earlier, later in zip(gets, gets[1:]))
    # The re-issue blow-up at 10 % cache is large (paper: ~8x more GETs than
    # at 30 % cache).
    assert gets[0] / gets[-1] > 3.0
    assert times[0] / times[-1] > 1.5
