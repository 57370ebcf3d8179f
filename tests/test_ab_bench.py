import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def result(p50, rate):
    return {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"select_p50_s": {"value": p50, "unit": "s"}, "success_rate": {"value": rate, "unit": "fraction"}},
    }


def test_quartiles():
    assert ab_bench.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summarize_counts_lower_pairs_and_no_ties():
    runs = [
        {"base": result(0.006, 1.0), "head": result(0.003, 1.0)},
        {"base": result(0.005, 1.0), "head": result(0.004, 1.0)},
        {"base": result(0.004, 1.0), "head": result(0.007, 1.0)},
    ]
    rows = {row["metric"]: row for row in ab_bench.summarize(runs)}
    assert list(rows) == ["select_p50_s", "success_rate"]
    p50 = rows["select_p50_s"]
    assert (p50["unit"], p50["lower"], p50["pairs"]) == ("s", 2, 3)
    assert p50["base"] == pytest.approx((0.0045, 0.005, 0.0055))
    assert p50["head"][1] == 0.004
    assert rows["success_rate"]["lower"] == 0  # ties count for neither side
