import pytest

from tracing import Tracer, self_times


def span(sid, parent, name, start, end, request=0, tag=""):
    return [sid, parent, request, name, tag, start, end]


def test_self_time_is_span_minus_direct_children():
    spans = [
        span(0, -1, "fabric.inject", 0.0, 10.0),
        span(1, 0, "session.burst", 1.0, 7.0),
        span(2, 1, "eswitch.burst", 2.0, 5.0),   # grandchild of inject
        span(3, 0, "session.burst", 7.0, 9.0),
    ]
    times = self_times(spans)
    assert times["fabric.inject"] == {
        "calls": 1, "total_s": 10.0, "self_s": 10.0 - 6.0 - 2.0}
    assert times["session.burst"]["calls"] == 2
    assert times["session.burst"]["total_s"] == 8.0
    assert times["session.burst"]["self_s"] == (6.0 - 3.0) + 2.0
    assert times["eswitch.burst"]["self_s"] == 3.0
    # Nothing is lost: the self times add up to the root span.
    assert sum(row["self_s"] for row in times.values()) == 10.0


def test_by_tag_separates_roles():
    spans = [span(0, -1, "burst", 0.0, 1.0, tag="leaf"),
             span(1, -1, "burst", 1.0, 4.0, tag="spine")]
    times = self_times(spans, by_tag=True)
    assert times[("burst", "leaf")]["total_s"] == 1.0
    assert times[("burst", "spine")]["total_s"] == 3.0


class Switch:
    def __init__(self):
        self.inner_calls = 0

    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        self.inner_calls += 1
        return x * 2


def test_wrapping_an_instance_nests_and_leaves_the_class_alone():
    tracer, traced, plain = Tracer(), Switch(), Switch()
    tracer.wrap(traced, "outer", "layer.outer")
    tracer.wrap(traced, "inner", "layer.inner", tag="leaf")
    tracer.request = 7
    assert traced.outer(3) == 7 and plain.outer(3) == 7
    assert [s[3] for s in tracer.spans] == ["layer.outer", "layer.inner"]
    outer, inner = tracer.spans
    assert inner[1] == outer[0] and outer[1] == -1       # parent links
    assert outer[2] == inner[2] == 7                      # one request id
    assert inner[4] == "leaf"
    assert outer[5] <= inner[5] <= inner[6] <= outer[6]
    tracer.unwrap_all()
    traced.outer(1)
    assert len(tracer.spans) == 2 and "outer" not in vars(traced)


def test_a_raising_call_still_closes_its_span():
    class Boom:
        def go(self):
            raise ValueError("no")

    tracer, boom = Tracer(), Boom()
    tracer.wrap(boom, "go", "boom.go")
    with pytest.raises(ValueError):
        boom.go()
    assert tracer.spans[0][6] >= tracer.spans[0][5] > 0.0
    assert tracer._stack == []
