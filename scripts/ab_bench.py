#!/usr/bin/env python3
"""A/B runs of the benchmark: a base revision against this checkout.

    scripts/ab_bench.py --base HEAD~1 --workload chain --pairs 10 --seed0 301
    scripts/ab_bench.py --base HEAD --workload all --pairs 10

``--workload`` names one workload, a comma-separated list of them, or
``all``.  The base is the change's parent: ``HEAD`` while the change is
uncommitted, ``HEAD~1`` (or the parent's hash) once it is committed.  A
base whose tree ``git diff --quiet`` finds equal to the working tree is
refused, as the run would compare the change with itself.  The base
revision is exported once with ``git archive`` into a
temporary directory, which is removed at exit; the other side is the
working tree this script lives in.  For each workload W in turn, pair k
runs ``perfbench/run.py --workload W --seed S+k --trace 0`` once in each
tree, one process at a time, and the side that runs first alternates from
pair to pair.  Every run is pinned to one CPU, the lowest this script may
run on (:func:`bench_cpu`), and unpinned where the platform cannot pin;
the summary names it.  Both sides run the same ``perfbench/`` code: this
checkout's, copied over the base's, so a change to the benchmark cannot
pass for a change to the program.

Each run's last line of standard output is its JSON result.  The script
prints every run, then per workload and metric the median and quartiles
of each side, in how many pairs this checkout's value was better (lower,
or higher where ``BENCHMARK.json`` says higher is better; ties count for
neither), a verdict (:func:`verdict`) under the metric's bound from
``BENCHMARK.json``, which it only reads, and the median of the per-pair
ratios head/base with, from 4 pairs on, its [2nd, (pairs-1)th]
order-statistic interval and that interval's coverage
(:func:`ratio_interval`).  It ends with one JSON line per workload holding
its runs and the CPU they ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SIDES = ("base", "head")


def read_benchmark(path: str = BENCHMARK) -> dict:
    """``BENCHMARK.json``, which this script only reads."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = tuple(w["name"] for w in read_benchmark()["workloads"])  # in BENCHMARK.json's order


def export_revision(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` into ``dest``, with this checkout's
    ``perfbench/`` in place of the revision's own."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=fh, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        os.path.join(tree, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def same_tree(rev: str) -> bool:
    """Whether the working tree's tracked files equal ``rev``'s."""
    return subprocess.run(["git", "-C", ROOT, "diff", "--quiet", rev], check=False).returncode == 0


def bench_cpu() -> int | None:
    """The CPU every benchmark process is pinned to: the lowest this process
    may run on, or None where the platform cannot pin (then runs are left
    unpinned).  Two CPUs of one machine can run Python far apart, so a
    pair whose sides ran on different CPUs would compare the CPUs."""
    return min(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One benchmark process in ``tree``, at the benchmark's own run length,
    pinned to :func:`bench_cpu`; returns its JSON result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    cpu = bench_cpu()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=False, preexec_fn=pin)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv[1:])} in {tree} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_specs(path: str = BENCHMARK) -> dict[str, dict]:
    """The benchmark's end-to-end metrics by name, each with its ``better``
    (``lower`` or ``higher``) and its ``bound``, a share of the base median."""
    return {spec["name"]: spec for spec in read_benchmark(path)["end_to_end"]}


def wins(base: list[float], head: list[float], better: str) -> int:
    """The pairs in which head is better; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (b - h) > 0 for b, h in zip(base, head))


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """One metric's verdict on paired runs, first match wins:

    * ``gain``: head is better in at least 9 of 10 pairs (ties count for
      neither), and the medians differ by more than base's quartile spread;
    * ``worse``: head's median is worse than base's by more than ``bound``
      times base's median;
    * ``unresolved``: base's quartile spread is wider than that, and not
      every head run is better than every base run;
    * ``no worse``: otherwise.
    """
    sign = 1 if better == "lower" else -1  # sign * (b - h) > 0: head better
    b1, b2, b3 = quartiles(base)
    ahead = sign * (b2 - quartiles(head)[1])
    allowed = bound * abs(b2)
    if 10 * wins(base, head, better) >= 9 * len(base) and ahead > b3 - b1:
        return "gain"
    if -ahead > allowed:
        return "worse"
    if b3 - b1 > allowed and not min(sign * (b - h) for b in base for h in head) > 0:
        return "unresolved"
    return "no worse"


def ratio_interval(base: list[float], head: list[float]) -> tuple:
    """(median ratio, interval, coverage) of the per-pair ratios head/base.

    A pair whose base value is 0 gets no ratio.  With k >= 4 ratios the
    interval is their 2nd and (k-1)th smallest: it holds the true median
    ratio with probability 1 - 2(k+1)/2^k (a sign-test interval; 0.9785 at
    k = 10), which is the coverage.  Below 4 ratios, and with none, the
    missing parts are None.
    """
    ratios = sorted(h / b for b, h in zip(base, head) if b)
    k = len(ratios)
    if k < 4:
        return (statistics.median(ratios) if ratios else None), None, None
    return statistics.median(ratios), (ratios[1], ratios[-2]), 1 - 2 * (k + 1) / 2**k


def summarize(runs: list[dict[str, dict]], specs: dict[str, dict] | None = None) -> list[dict]:
    """Per metric of the pairs in ``runs`` (each ``{"base": result, "head":
    result}``): both sides' quartiles, the pairs where head is lower and
    where it is better, the verdict under ``specs`` (by default
    ``BENCHMARK.json``'s end-to-end metrics), and :func:`ratio_interval`'s
    median ratio, interval and coverage."""
    specs = end_to_end_specs() if specs is None else specs
    rows = []
    for metric in runs[0]["base"]["metrics"]:
        values = {side: [r[side]["metrics"][metric]["value"] for r in runs] for side in SIDES}
        better, bound = specs[metric]["better"], specs[metric]["bound"]
        ratio, interval, coverage = ratio_interval(values["base"], values["head"])
        rows.append({
            "metric": metric,
            "unit": runs[0]["base"]["metrics"][metric]["unit"],
            **{side: quartiles(values[side]) for side in SIDES},
            "lower": wins(values["base"], values["head"], "lower"),
            "better": better,
            "wins": wins(values["base"], values["head"], better),
            "pairs": len(runs),
            "verdict": verdict(values["base"], values["head"], better, bound),
            "ratio": ratio,
            "interval": interval,
            "coverage": coverage,
        })
    return rows


def parse_workloads(text: str) -> list[str]:
    """The workloads of ``--workload``: ``all``, or names joined by commas."""
    names = list(WORKLOADS) if text == "all" else [w.strip() for w in text.split(",")]
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown or not names:
        raise ValueError(f"unknown workload {', '.join(unknown) or text!r}; expected {', '.join(WORKLOADS)} or all")
    return list(dict.fromkeys(names))


def run_pairs(trees: dict[str, str], workload: str, pairs: int, seed0: int) -> list[dict[str, dict]]:
    """``pairs`` alternating base/head runs of one workload, each printed."""
    runs = []
    for k in range(pairs):
        seed = seed0 + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(trees[side], workload, seed) for side in order}
        runs.append(pair)
        for side in order:
            r = pair[side]
            values = " ".join(f"{m}={e['value']:.6g}" for m, e in r["metrics"].items())
            print(f"{workload} pair {k} seed {seed} {side}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {values}")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}; several joined by commas; or all")
    parser.add_argument("--pairs", type=int, required=True, help="number of base/head pairs per workload")
    parser.add_argument("--seed0", type=int, default=101, help="seed of the first pair; pair k uses seed0 + k (default 101)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        workloads = parse_workloads(args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    if same_tree(args.base):
        parser.error(f"--base {args.base}: the working tree equals it; compare the change with its parent")

    cpu = bench_cpu()
    pinned = "unpinned" if cpu is None else f"pinned to CPU {cpu}"
    tmp = tempfile.mkdtemp(prefix="ab_bench-")
    try:
        export_revision(args.base, tmp)
        trees = {"base": os.path.join(tmp, "tree"), "head": ROOT}
        results = {w: run_pairs(trees, w, args.pairs, args.seed0) for w in workloads}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for workload, runs in results.items():
        print(
            f"{workload}: {args.pairs} pairs, base {args.base} -> working tree, {pinned}; median [quartiles];"
            " median head/base ratio [2nd, (pairs-1)th ratio] and its coverage"
        )
        for row in summarize(runs):
            b1, b2, b3 = row["base"]
            h1, h2, h3 = row["head"]
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f}"
            if row["interval"] is not None:
                lo, hi = row["interval"]
                ratio += f" [{lo:.4f}, {hi:.4f}] {row['coverage']:.1%}"
            print(
                f"{row['metric']:>14} {row['unit']:>8}  base {b2:.6g} [{b1:.6g}, {b3:.6g}]"
                f"  head {h2:.6g} [{h1:.6g}, {h3:.6g}]  {row['better']} in {row['wins']}/{row['pairs']}"
                f"  {row['verdict']}  head/base {ratio}"
            )
    for workload, runs in results.items():
        print(json.dumps({"workload": workload, "base": args.base, "seed0": args.seed0, "cpu": cpu, "runs": runs}))
    ok = all(r[side]["correct"] and not r[side]["failed"] for runs in results.values() for r in runs for side in SIDES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
