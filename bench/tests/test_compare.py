import json

import pytest

import compare
import metrics

BY_NAME = {m.name: m for m in metrics.END_TO_END}


def m(value, spread=0.01):
    return {"value": value, "median": value, "q1": value * (1 - spread / 2),
            "q3": value * (1 + spread / 2), "n": 5, "spread": spread}


@pytest.mark.parametrize("name, a, b, expected", [
    ("wall_pps", m(100.0), m(101.0), "same"),
    ("wall_pps", m(100.0), m(60.0), "worse"),        # higher is better
    ("wall_pps", m(100.0), m(140.0), "better"),
    ("burst_p50_us", m(100.0), m(140.0), "worse"),   # lower is better
    ("burst_p50_us", m(100.0), m(60.0), "better"),
    ("wall_pps", m(100.0, spread=0.5), m(60.0), "unresolved"),
    ("wall_pps", m(100.0), m(60.0, spread=0.5), "unresolved"),
    ("modeled_cycles_per_pkt", m(200.0), m(200.0), "same"),
    ("modeled_cycles_per_pkt", m(200.0), m(200.5), "worse"),   # exact
    ("served_share", m(0.98), m(0.99), "better"),
    ("failed_share", m(0.0, 0.0), m(0.001, 0.0), "worse"),
])
def test_verdicts(name, a, b, expected):
    assert compare.verdict(BY_NAME[name], a, b) == expected


def test_the_bound_is_the_line_between_same_and_worse():
    metric = BY_NAME["wall_pps"]
    just_inside = m(100.0 * (1 - metric.bound) + 0.01)
    just_outside = m(100.0 * (1 - metric.bound) - 0.01)
    assert compare.verdict(metric, m(100.0), just_inside) == "same"
    assert compare.verdict(metric, m(100.0), just_outside) == "worse"


def test_a_missing_side_is_worse():
    assert compare.verdict(BY_NAME["wall_pps"], m(100.0), None) == "worse"
    assert compare.verdict(BY_NAME["wall_pps"], None, m(100.0)) == "worse"


def doc(pps, p50):
    """A gateway result with every metric that applies to it."""
    end_to_end = {metric.name: m(1.0) for metric in metrics.END_TO_END
                  if metric.applies("gateway")}
    end_to_end.update(wall_pps=m(pps), burst_p50_us=m(p50))
    return {"smoke": False, "workloads": {"gateway": {
        "end_to_end": end_to_end}}}


def test_exit_code_and_rows(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(doc(100.0, 200.0)))
    b.write_text(json.dumps(doc(102.0, 199.0)))
    c.write_text(json.dumps(doc(50.0, 199.0)))
    assert compare.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "gateway" in out and "wall_pps" in out and "1.020" in out
    assert "0 worse" in out and "0 unresolved" in out
    assert compare.main([str(a), str(c)]) == 1
    assert "1 worse" in capsys.readouterr().out
    assert compare.main([str(a)]) == 2


def test_a_workload_or_metric_b_lacks_is_flagged(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    full, no_metric = doc(100.0, 200.0), doc(100.0, 200.0)
    del no_metric["workloads"]["gateway"]["end_to_end"]["cycle_wall_pps"]
    a.write_text(json.dumps(full))
    b.write_text(json.dumps(no_metric))
    c.write_text(json.dumps({"smoke": False, "workloads": {}}))
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "missing" in out and "1 worse" in out
    assert compare.main([str(a), str(c)]) == 1
    applicable = sum(x.applies("gateway") and "gateway" not in x.demoted
                     for x in metrics.END_TO_END)
    assert f"{applicable} worse" in capsys.readouterr().out
