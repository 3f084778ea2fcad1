import statistics

import pytest

import stats


def test_median_and_quartiles_follow_the_drivers_rule():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.median(values) == q2 == 4.0
    assert stats.quartiles(values) == (q1, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 4.0)


def test_one_value_is_its_own_quartiles():
    assert stats.quartiles([3.5]) == (3.5, 3.5)
    assert stats.spread([3.5]) == 0.0
    assert stats.exact(7, "count")["n"] == 1


@pytest.mark.parametrize("n, wanted, used", [
    (1000, 99.0, 99.0),      # exactly ten samples beyond p99
    (999, 99.0, 100.0 * (1 - 10 / 999)),
    (100, 99.0, 90.0),       # ten beyond p90 is the best 100 samples give
    (120, 90.0, 90.0),
    (32, 90.0, 68.75),
    (15, 99.0, 50.0),        # never below the median
])
def test_percentile_rule_keeps_ten_samples_beyond(n, wanted, used):
    assert stats.supported_percentile(n, wanted) == pytest.approx(used)


def test_tail_reports_the_percentile_it_used():
    values = list(range(100))
    value, used = stats.tail(values, 99.0)
    assert used == 90.0 and value == 90
    assert sum(v > value for v in values) < stats.TAIL_SUPPORT <= sum(
        v >= value for v in values)


def test_summarize_shape():
    m = stats.summarize([10.0, 12.0, 11.0], "us", percentile=99.0)
    assert m["value"] == m["median"] == 11.0
    assert (m["unit"], m["n"], m["percentile"]) == ("us", 3, 99.0)
    assert m["q1"] <= m["median"] <= m["q3"]
    assert m["spread"] == pytest.approx((m["q3"] - m["q1"]) / 11.0)
