"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import sys
from decimal import Decimal

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- percentiles, failures as +inf -------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(x) for x in range(1, 101)]
    assert measure.percentile(samples, 50) == 50.0
    assert measure.percentile(samples, 90) == 90.0
    assert measure.percentile([3.0], 50) == 3.0


def test_failures_count_as_inf_and_never_lower_a_percentile():
    ref = measure.CALIBRATION_REF_S
    ok = [measure.Call(0, 0.1 * k, ref, None) for k in range(1, 20)]
    failed = measure.Call(0, 0.001, ref, "RecursionError: maximum recursion depth exceeded")
    samples = measure.samples(ok + [failed])
    assert samples[-1] == math.inf
    assert measure.percentile(samples, 100) == math.inf
    # Fixing the failure (any finite time) can only lower or keep each percentile.
    fixed = measure.samples(ok) + [5.0]
    for q in (50, 75, 90):
        assert measure.percentile(fixed, q) <= measure.percentile(samples, q)


def test_samples_scale_by_the_median_calibration_around_each_call():
    ref = measure.CALIBRATION_REF_S
    # The machine runs at half speed, and one calibration run is an outlier
    # that the window's median ignores.
    calibrations = [2 * ref, 2 * ref, 2 * ref, 9 * ref, 2 * ref, 2 * ref]
    calls = [measure.Call(0, 0.4, c, None) for c in calibrations]
    assert measure.samples(calls) == pytest.approx([0.2] * 6)
    assert measure.samples([measure.Call(0, 0.3, ref, None)]) == pytest.approx([0.3])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert measure.tail_percentile(19) is None
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(39) == 50
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(99) == 75
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(10_000) == 90
    for count in (20, 40, 60, 100, 133, 500):
        q = measure.tail_percentile(count)
        beyond = count - math.ceil(q / 100 * count)
        assert beyond >= 10


def test_chain_failures_stay_below_the_tail():
    specs = workloads.WORKLOADS["chain"].choose(7)
    failing = sum(s.n >= workloads.CHAIN_FAILING_SIZE for s in specs)
    assert failing >= 1
    assert failing / len(specs) < 1 - max(measure.TAIL_LADDER) / 100


# -- self time ----------------------------------------------------------------


def _span(name, start, end, parent=None, call=0):
    return [name, start, end, parent, call]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("child", 1.0, 4.0, parent=0),
        _span("grandchild", 2.0, 3.0, parent=1),
        _span("child", 5.0, 6.5, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    # Self times of a tree add up to the root's duration.
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0.0, 10.0), _span("a", 1.0, 5.0, 0), _span("b", 3.0, 7.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_totals_sum_repeated_spans_and_filter_calls():
    spans = [
        _span("cli.main", 0.0, 4.0, call=0),
        _span("graph_core.build_graphs", 1.0, 2.0, parent=0, call=0),
        _span("graph_core.build_graphs", 2.5, 3.0, parent=0, call=0),
        _span("oracle_bench.generate", 10.0, 11.0, call="setup"),
    ]
    counts = {(0, "graph_core.ek_edges"): 7, ("setup", "graph_core.ek_edges"): 100}
    self_s, n_calls, counters = tracer.layer_totals(spans, counts, {0})
    assert self_s["graph_core.build_graphs"] == pytest.approx(1.5)
    assert self_s["cli.main"] == pytest.approx(2.5)
    assert n_calls["graph_core.build_graphs"] == 2
    assert "oracle_bench.generate" not in self_s
    assert counters["graph_core.ek_edges"] == 7


# -- correctness gate -------------------------------------------------------


def _expected(golden):
    return measure.Expected("0" * 16, (Decimal(2), Decimal("1.5")), (Decimal(3),), golden)


OUTPUT = json.dumps(
    {"selection": {"inputs": [2], "outputs": [1]}, "total_cost": "4.5", "lower_bound": "4"}
)


def test_gate_accepts_a_correct_output():
    assert measure.check_output(0, OUTPUT, _expected(measure.output_digest(OUTPUT)), False) is None


def test_golden_mismatch_is_a_failure_not_an_exception():
    reason = measure.check_output(0, OUTPUT, _expected("ffffffffffffffff"), False)
    assert reason is not None and "golden" in reason


def test_gate_rejects_wrong_cost_bound_and_garbage():
    exp = _expected(None)
    wrong_cost = OUTPUT.replace('"4.5"', '"5"')
    assert "selection costs" in measure.check_output(0, wrong_cost, exp, False)
    high_bound = OUTPUT.replace('"lower_bound": "4"', '"lower_bound": "9"')
    assert "lower_bound" in measure.check_output(0, high_bound, exp, False)
    assert "malformed" in measure.check_output(0, "not json", exp, False)
    assert "malformed" in measure.check_output(0, OUTPUT, exp, True)  # no oracle entry
    assert measure.check_output(1, OUTPUT, exp, False) == "exit code 1"


def test_timed_pass_counts_golden_mismatch_as_failed_call(tmp_path):
    spec = workloads.WORKLOADS["chain"].pool[0]
    paths, systems = workloads.set_up([spec], str(tmp_path))
    digest = workloads.describe(spec, systems[0])["digest"]
    exp = measure.Expected.from_file(paths[0], digest, "ffffffffffffffff")
    calls = measure.timed_pass(paths, [exp], (), rounds=2)
    assert [c.error is not None for c in calls] == [True, True]
    assert all(c.wrong for c in calls)


# -- inputs from the seed ---------------------------------------------------


@pytest.mark.parametrize("name", ["oracle", "chain"])
def test_same_seed_gives_same_instance_digests(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    digests = []
    for attempt in range(2):
        specs = workload.choose(11)
        _paths, systems = workloads.set_up(specs, str(tmp_path / str(attempt)))
        digests.append([workloads.describe(s, sys_)["digest"] for s, sys_ in zip(specs, systems)])
    assert digests[0] == digests[1]
    assert workload.choose(12) != workload.choose(11)


def test_every_seed_draws_from_the_golden_pool():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for name, workload in workloads.WORKLOADS.items():
        assert len(golden[name]) == len(workload.pool)
        for seed in range(50):
            assert set(workload.choose(seed)) <= set(workload.pool)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m, u) for m, u, _k, _s in tracer.LAYER_METRICS]
    layer += list(run.RUN_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
