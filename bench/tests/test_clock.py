import clock


def test_the_factor_is_a_reading_over_the_reference():
    assert 0.1 < clock.yardstick() / clock.REFERENCE_S < 50.0
    assert 0.1 < clock.factor() < 50.0


def test_timed_returns_the_result_and_seconds_at_the_reference_clock():
    result, spent = clock.timed(lambda: sum(range(1000)))
    assert result == 499500 and spent > 0.0
