import importlib.util
import json
import pathlib
import subprocess

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


SPECS = {"select_p50_s": {"better": "lower", "bound": 0.24}, "success_rate": {"better": "higher", "bound": 0.004}}


def test_specs_are_the_benchmarks_end_to_end_metrics():
    specs = ab_bench.end_to_end_specs()
    assert {name: spec["better"] for name, spec in specs.items()} == {
        "select_p50_s": "lower", "select_tail_s": "lower", "success_rate": "higher", "setup_s": "lower",
    }
    assert all(spec["bound"] > 0 for spec in specs.values())


BASE = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("head, expected", [
    ([v - 0.2 for v in BASE], "gain"),  # 10/10 and far past the spread
    ([v - 0.2 for v in BASE[:8]] + [2.0, 2.0], "no worse"),  # 8/10 wins
    ([v - 0.01 for v in BASE], "no worse"),  # 10/10, inside the spread
    ([v + 0.2 for v in BASE], "no worse"),  # worse, but within 24%
    ([v + 0.3 for v in BASE], "worse"),
])
def test_verdict_lower_is_better(head, expected):
    assert ab_bench.verdict(BASE, head, "lower", 0.24) == expected


def test_verdict_higher_is_better():
    assert ab_bench.wins([0.9] * 10, [1.0] * 10, "higher") == 10
    assert ab_bench.verdict([0.9] * 10, [1.0] * 10, "higher", 0.004) == "gain"
    assert ab_bench.verdict([1.0] * 10, [0.99] * 10, "higher", 0.004) == "worse"
    assert ab_bench.verdict([1.0] * 10, [0.999] * 10, "higher", 0.004) == "no worse"


def test_verdict_wide_base_spread():
    base = [10.0, 11.0, 12.0, 30.0]
    assert ab_bench.verdict(base, [12.0, 11.5, 11.0, 12.5], "lower", 0.24) == "unresolved"
    # every head run better than every base run, yet not past the spread
    assert ab_bench.verdict(base, [9.0] * 4, "lower", 0.24) == "no worse"


def test_summarize_counts_wins_in_the_better_direction():
    runs = [{"base": result(0.005, 1.0), "head": result(0.004, 0.9)} for _ in range(10)]
    rows = {row["metric"]: row for row in ab_bench.summarize(runs, SPECS)}
    assert (rows["select_p50_s"]["wins"], rows["select_p50_s"]["verdict"]) == (10, "gain")
    rate = rows["success_rate"]
    assert (rate["better"], rate["lower"], rate["wins"], rate["verdict"]) == ("higher", 10, 0, "worse")


def test_summarize_gives_the_median_ratio_and_its_interval():
    # head/base ratios 0.5, 0.6, ..., 1.4 in scrambled pair order, and one
    # pair with a zero base, which gets no ratio
    scale = [7, 2, 9, 0, 5, 8, 1, 6, 3, 4]
    runs = [{"base": result(0.01, 1.0), "head": result(0.01 * (0.5 + k / 10), 1.0)} for k in scale]
    runs.append({"base": result(0.0, 1.0), "head": result(0.003, 1.0)})
    rows = {row["metric"]: row for row in ab_bench.summarize(runs, SPECS)}
    p50 = rows["select_p50_s"]
    assert p50["ratio"] == pytest.approx(0.95)
    assert p50["interval"] == pytest.approx((0.6, 1.3))  # the 2nd and 9th of 10 ratios
    assert p50["coverage"] == 1 - 2 * 11 / 2**10 == 0.978515625
    assert (rows["success_rate"]["ratio"], rows["success_rate"]["interval"]) == (1.0, (1.0, 1.0))
    # 3 pairs: the median ratio, but no interval
    three = ab_bench.summarize(runs[:3], SPECS)[0]
    assert three["ratio"] == pytest.approx(1.2)  # of 1.2, 0.7 and 1.4
    assert (three["interval"], three["coverage"]) == (None, None)
    assert ab_bench.ratio_interval([0.0, 0.0], [1.0, 2.0]) == (None, None, None)
    assert ab_bench.ratio_interval([1.0] * 4, [2.0, 1.0, 4.0, 3.0]) == (2.5, (2.0, 3.0), 0.375)


def test_workload_names():
    assert ab_bench.parse_workloads("all") == ["sparse", "wide", "oracle", "chain"]
    assert ab_bench.parse_workloads("chain, sparse,chain") == ["chain", "sparse"]
    for bad in ("dense", "sparse,", ""):
        with pytest.raises(ValueError, match="unknown workload"):
            ab_bench.parse_workloads(bad)


def test_workload_names_are_the_benchmarks(workloads):
    assert ab_bench.WORKLOADS == tuple(workloads.WORKLOADS)


def test_several_workloads_export_the_base_once(monkeypatch, capsys):
    exported, ran = [], []
    monkeypatch.setattr(ab_bench, "same_tree", lambda rev: False)
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
    assert sum("success_rate" in line and "higher in 0/2  no worse" in line for line in out) == 2
    records = [json.loads(line) for line in out if line.startswith("{")]
    assert [(r["workload"], len(r["runs"])) for r in records] == [("wide", 2), ("chain", 2)]


def test_refuses_a_base_equal_to_the_working_tree(tmp_path, monkeypatch, capsys):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "f").write_text("base\n")
    subprocess.run(git + ["add", "f"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    monkeypatch.setattr(ab_bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(ab_bench, "export_revision", lambda rev, dest: pytest.fail("exported"))
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(["--base", "HEAD", "--workload", "chain", "--pairs", "1"])
    assert exc.value.code == 2
    assert "error: --base HEAD: the working tree equals it" in capsys.readouterr().err
    (tmp_path / "f").write_text("change\n")
    assert not ab_bench.same_tree("HEAD")


def test_prints_the_ratio_interval_from_4_pairs(monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "same_tree", lambda rev: False)
    monkeypatch.setattr(ab_bench, "export_revision", lambda rev, dest: None)
    heads = iter([0.004, 0.002, 0.003, 0.005, 0.001])  # head's values, pair by pair; base's are 0.004
    monkeypatch.setattr(
        ab_bench, "run_once", lambda tree, workload, seed: result(next(heads) if tree == ab_bench.ROOT else 0.004, 1.0)
    )
    for pairs, expected in [(4, "head/base 0.8750 [0.7500, 1.0000] 37.5%"), (1, "head/base 0.2500")]:
        assert ab_bench.main(["--base", "HEAD", "--workload", "chain", "--pairs", str(pairs)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("select_p50_s")]
        assert len(lines) == 1 and lines[0].endswith(expected), lines


def test_run_once_pins_each_run_to_one_cpu(monkeypatch):
    calls, pinned = [], []

    def fake_run(argv, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result(0.004, 1.0)) + "\n")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    monkeypatch.setattr(ab_bench.os, "sched_getaffinity", lambda pid: {3, 1, 2}, raising=False)
    monkeypatch.setattr(ab_bench.os, "sched_setaffinity", lambda pid, cpus: pinned.append((pid, cpus)), raising=False)
    assert ab_bench.bench_cpu() == 1
    assert ab_bench.run_once("tree", "chain", 7) == result(0.004, 1.0)
    (kwargs,) = calls
    assert kwargs["cwd"] == "tree" and pinned == []
    kwargs["preexec_fn"]()  # what the child runs before perfbench/run.py
    assert pinned == [(0, {1})]

    monkeypatch.delattr(ab_bench.os, "sched_setaffinity")  # a platform that cannot pin
    assert ab_bench.bench_cpu() is None
    ab_bench.run_once("tree", "chain", 7)
    assert calls[-1]["preexec_fn"] is None


def test_summary_and_records_name_the_cpu(monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "same_tree", lambda rev: False)
    monkeypatch.setattr(ab_bench, "export_revision", lambda rev, dest: None)
    monkeypatch.setattr(ab_bench, "bench_cpu", lambda: 1)
    monkeypatch.setattr(ab_bench, "run_once", lambda tree, workload, seed: result(0.004, 1.0))
    assert ab_bench.main(["--base", "HEAD", "--workload", "chain", "--pairs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("chain: ")][0].startswith(
        "chain: 1 pairs, base HEAD -> working tree, pinned to CPU 1; "
    )
    (record,) = [json.loads(line) for line in out if line.startswith("{")]
    assert record["cpu"] == 1
