import statistics

import numpy as np
import pytest

from perfbench.metrics import (
    covered,
    layer_totals,
    percentile,
    pool_derivations,
    quartiles,
    self_times,
    spread,
    tail_percentile,
    verdict,
)


def span(sid, parent, name, start, end, pid=1, tid=1, work=0):
    return (pid, tid, sid, parent, name, start, end, work)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    samples = list(rng.random(37))
    for q in (0, 1, 25, 50, 90, 99, 100):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile([float(x) for x in range(1, 11)]) is None
    q, value = tail_percentile([float(x) for x in range(1, 12)])
    assert (q, value) == (9, pytest.approx(1.9))
    q, value = tail_percentile([float(x) for x in range(1, 101)])
    assert (q, value) == (90, pytest.approx(90.1))
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_counts_only_samples_strictly_above():
    samples = [1.0] * 30 + [2.0] * 10
    q, value = tail_percentile(samples)
    assert value < 2.0 and sum(1 for s in samples if s > value) >= 10
    assert percentile(samples, q + 1) == 2.0 or q == 99


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.8, 11.5, 9.8]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, median, q3)
    assert spread(values) == pytest.approx((q3 - q1) / median)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_is_duration_minus_children_cover():
    spans = [
        span(1, 0, "a", 0.0, 10.0),
        span(2, 1, "b", 1.0, 3.0),
        span(3, 1, "c", 4.0, 6.0),
        span(4, 3, "d", 4.5, 5.5),
        span(1, 0, "other-process", 0.0, 1.0, pid=2),
    ]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(6.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)
    assert selfs[(2, 1)] == pytest.approx(1.0)


def test_layer_totals_count_nested_same_name_once():
    spans = [
        span(1, 0, "kernel", 0.0, 4.0, work=10),
        span(2, 1, "kernel", 1.0, 3.0, work=10),
        span(3, 0, "kernel", 5.0, 6.0, work=5),
    ]
    totals = layer_totals(spans)["kernel"]
    assert totals["total"] == pytest.approx(5.0)
    assert totals["self"] == pytest.approx(5.0)
    assert totals["calls"] == 2
    assert totals["work"] == 15


def test_pool_derivations():
    out = pool_derivations(10.0, 2, {"0": 6.0, "1": 4.0}, {"0": 30.0, "1": 10.0}, 40.0)
    assert out["worker_busy_s"] == pytest.approx(10.0)
    assert out["worker_idle_s"] == pytest.approx(10.0)
    assert out["worker_util"] == pytest.approx(0.5)
    assert out["max_worker_share"] == pytest.approx(0.75)
    assert out["dispatch_overhead_s"] == pytest.approx(4.0)


def test_pool_derivations_without_a_pool():
    out = pool_derivations(0.0, 0, {}, {}, 0.0)
    assert out == {
        "worker_busy_s": 0.0,
        "worker_idle_s": 0.0,
        "worker_util": 0.0,
        "max_worker_share": 0.0,
        "dispatch_overhead_s": 0.0,
    }


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def test_verdict_same_within_bound():
    new = [v * 1.03 for v in BASE]
    assert verdict(BASE, new, 0.1, "lower") == "same"


def test_verdict_worse_beyond_bound():
    new = [v * 1.2 for v in BASE]
    assert verdict(BASE, new, 0.1, "lower") == "worse"
    assert verdict(BASE, new, 0.1, "higher") == "better"


def test_verdict_better_needs_more_than_base_spread():
    new = [v * 0.9 for v in BASE]
    assert verdict(BASE, new, 0.1, "lower") == "better"
    tiny = [v * 0.999 for v in BASE]
    assert verdict(BASE, tiny, 0.1, "lower") == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(BASE, noisy, 0.1, "lower") == "unresolved"


def test_verdict_wide_spread_but_every_run_better():
    noisy_base = [20.0, 30.0, 25.0, 35.0, 22.0]
    clearly_lower = [5.0, 9.0, 6.0, 8.0, 7.0]
    assert verdict(noisy_base, clearly_lower, 0.1, "lower") == "better"
    assert verdict(clearly_lower, noisy_base, 0.1, "lower") == "worse"
