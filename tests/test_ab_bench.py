import importlib.util
import json
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


def test_workload_names():
    assert ab_bench.parse_workloads("all") == ["sparse", "wide", "oracle", "chain"]
    assert ab_bench.parse_workloads("chain, sparse,chain") == ["chain", "sparse"]
    for bad in ("dense", "sparse,", ""):
        with pytest.raises(ValueError, match="unknown workload"):
            ab_bench.parse_workloads(bad)


@pytest.fixture
def workloads_module():
    import sys

    path = SCRIPT.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_workload_names_are_the_benchmarks(workloads_module):
    assert ab_bench.WORKLOADS == tuple(workloads_module.WORKLOADS)


def test_several_workloads_export_the_base_once(monkeypatch, capsys):
    exported, ran = [], []
    monkeypatch.setattr(ab_bench, "export_revision", lambda rev, dest: exported.append(rev))

    def run_once(tree, workload, seed):
        ran.append((tree == ab_bench.ROOT, workload, seed))
        return result(0.004 if tree == ab_bench.ROOT else 0.005, 1.0)

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    assert ab_bench.main(["--base", "HEAD", "--workload", "wide,chain", "--pairs", "2"]) == 0
    assert exported == ["HEAD"]
    assert ran == [
        (False, "wide", 101), (True, "wide", 101), (True, "wide", 102), (False, "wide", 102),
        (False, "chain", 101), (True, "chain", 101), (True, "chain", 102), (False, "chain", 102),
    ]
    out = capsys.readouterr().out.splitlines()
    summaries = [line for line in out if "pairs, base HEAD -> working tree" in line]
    assert [line.split(":")[0] for line in summaries] == ["wide", "chain"]
    assert sum("select_p50_s" in line and "lower in 2/2" in line for line in out) == 2
    records = [json.loads(line) for line in out if line.startswith("{")]
    assert [(r["workload"], len(r["runs"])) for r in records] == [("wide", 2), ("chain", 2)]
