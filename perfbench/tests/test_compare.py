"""Verdicts of compare.py on synthetic result sets."""

import pytest

from compare import Comparison

SPEC = {
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "engine.iterations", "unit": "count", "better": "higher"},
        {"name": "engine.execute_s", "unit": "s", "better": "lower"},
        {"name": "fleet.makespan_vs", "unit": "s", "better": "lower"},
    ],
}


def records(values, *, metric="throughput_per_s", unit="1/s", failed=0, workload="w"):
    return [
        {
            "workload": workload,
            "seed": seed,
            "trace": 0,
            "correct": True,
            "attempted": 100,
            "failed": failed,
            "metrics": {metric: {"value": value, "unit": unit}},
        }
        for seed, value in enumerate(values)
    ]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 100.3, 99.7]


def test_nine_of_ten_wins_beyond_parent_iqr_is_better():
    change = [v * 1.05 for v in PARENT]
    change[3] = 99.0  # one lost pair: 9/10 still wins
    comparison = Comparison(records(PARENT), records(change), SPEC)
    assert comparison.verdicts[("w", "throughput_per_s")] == "better"


def test_eight_of_ten_wins_is_not_better():
    change = [v * 1.05 for v in PARENT]
    change[3] = change[4] = 90.0
    comparison = Comparison(records(PARENT), records(change), SPEC)
    assert comparison.verdicts[("w", "throughput_per_s")] == "no worse within bound"


def test_wide_spread_is_unresolved():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [v * 0.97 for v in reversed(parent)]
    comparison = Comparison(records(parent), records(change), SPEC)
    assert comparison.verdicts[("w", "throughput_per_s")] == "unresolved"


def test_median_worse_beyond_bound_is_worse():
    change = [v * 0.8 for v in PARENT]
    comparison = Comparison(records(PARENT), records(change), SPEC)
    assert comparison.verdicts[("w", "throughput_per_s")] == "worse"


def test_worse_failed_share_voids_a_gain():
    change = [v * 1.05 for v in PARENT]
    comparison = Comparison(records(PARENT), records(change, failed=1), SPEC)
    assert comparison.failed_shares[("change", "w")] > comparison.failed_shares[("parent", "w")]
    assert comparison.verdicts[("w", "throughput_per_s")] == "worse failed share"


def test_lower_is_better_direction():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [v * 0.7 for v in parent]
    comparison = Comparison(
        records(parent, metric="setup_s", unit="s"),
        records(change, metric="setup_s", unit="s"),
        SPEC,
    )
    assert comparison.verdicts[("w", "setup_s")] == "better"


def test_exact_per_layer_changes_are_listed_host_times_are_not():
    parent = records([10.0, 10.0], metric="engine.iterations", unit="count")
    change = records([10.0, 11.0], metric="engine.iterations", unit="count")
    parent += records([1.0, 1.0], metric="engine.execute_s", unit="s")
    change += records([2.0, 2.0], metric="engine.execute_s", unit="s")
    # Virtual seconds share the unit of host times but are exact for a seed.
    parent += records([0.5, 0.5], metric="fleet.makespan_vs", unit="s")
    change += records([0.5, 0.6], metric="fleet.makespan_vs", unit="s")
    comparison = Comparison(parent, change, SPEC)
    assert comparison.exact_changes == [
        ("w", "engine.iterations", 1, 10.0, 11.0),
        ("w", "fleet.makespan_vs", 1, 0.5, 0.6),
    ]
    assert "engine.iterations seed 1" in comparison.report()


def test_a_seed_run_twice_on_one_side_is_refused():
    change = records(PARENT) + records([PARENT[0]])
    comparison = Comparison(records(PARENT), change, SPEC)
    with pytest.raises(ValueError, match="seed 0 has more than one"):
        comparison.verdicts
