#!/usr/bin/env python3
"""Benchmark of ``ioselect select``, end to end and layer by layer.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Run from the root of a checkout.  The workload's instances are generated
from ``--seed`` and written as JSON files; each is then solved by
``ioselect.cli.main(["select", path])`` in this process, one call at a time,
with no threads.  Every output passes a correctness gate.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` makes one untraced and one
traced pass and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS  # stdlib only; ioselect is imported after the path check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
SETUPS = 3  # set-ups per run; setup_s is their median
SETUP_CALL = "setup"  # call id of the traced set-up's spans

END_TO_END = (
    ("select_p50_s", "s"),
    ("select_tail_s", "s"),
    ("success_rate", "fraction"),
    ("setup_s", "s"),
)
RUN_METRICS = (("process.peak_rss_mb", "MB"), ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s"))
UNITS = dict(END_TO_END + tuple((m, u) for m, u, _k, _s in LAYER_METRICS) + RUN_METRICS)


def _import_ioselect() -> None:
    """Put the checkout's own ``src`` first on the path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "ioselect", "__init__.py")):
        sys.exit(f"error: no ioselect sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import ioselect

    if not os.path.abspath(ioselect.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported ioselect from {ioselect.__file__}, not from {SRC}")


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def _failures(calls, specs) -> None:
    seen: dict[tuple[int, str], int] = {}
    for c in calls:
        if c.error is not None:
            key = (c.instance, c.error[:160])
            seen[key] = seen.get(key, 0) + 1
    for (i, error), count in sorted(seen.items()):
        print(f"failed: instance {i:02d} {specs[i].label} x{count}: {error}")


def _end_to_end(calls, setups: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics from the timed calls and the (wall time,
    calibration time) of each set-up."""
    from measure import CALIBRATION_REF_S, percentile, samples, tail_percentile, to_reference

    scaled = samples(calls)
    raw = [c.seconds if c.error is None else math.inf for c in calls]
    q = tail_percentile(len(scaled))
    ok = sum(c.error is None for c in calls)
    values = {
        "select_p50_s": percentile(scaled, 50),
        "select_tail_s": percentile(scaled, q),
        "success_rate": ok / len(calls),
        "setup_s": statistics.median(to_reference(t, c) for t, c in setups),
    }
    n = len(calls)
    speed = statistics.median(c.calibration for c in calls) / CALIBRATION_REF_S
    print(f"machine: the calibration loop ran {speed:.3f}x as long as on the reference machine")
    _print_metric(
        "select_p50_s", values["select_p50_s"], "s",
        f"p50 of {n} calls, failures as +inf; raw wall time {percentile(raw, 50):.6g} s",
    )
    _print_metric(
        "select_tail_s", values["select_tail_s"], "s",
        f"p{q} of {n} calls, failures as +inf; raw wall time {percentile(raw, q):.6g} s",
    )
    _print_metric("success_rate", values["success_rate"], "fraction", f"{ok} of {n} calls passed")
    _print_metric("error_rate", 1 - values["success_rate"], "fraction", f"{n - ok} of {n} calls failed")
    _print_metric(
        "setup_s", values["setup_s"], "s",
        f"median of {len(setups)} set-ups; raw wall times " + ", ".join(f"{t:.4f}" for t, _c in setups),
    )
    return values


def _per_layer(workload, specs, paths, expected, rounds, workdir, untraced, tag):
    """A traced set-up and a traced pass; returns the per-layer metrics and
    the traced calls."""
    from measure import percentile, samples, timed_pass
    from tracer import Tracer, layer_metrics
    from workloads import set_up

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = Tracer()
    with tracer:
        tracer.call = SETUP_CALL
        set_up(specs, workdir)
        traced = timed_pass(
            paths, expected, workload.select_flags, rounds,
            on_call=lambda k: setattr(tracer, "call", k),
        )
    tracer.write(os.path.join(OUT, f"{tag}-spans.jsonl.gz"))
    values = layer_metrics(tracer, len(traced), sum(c.seconds for c in traced), SETUP_CALL)
    values["process.peak_rss_mb"] = peak_rss_mb
    values["trace.overhead_s"] = (
        percentile(samples(traced), 50) - percentile(samples(untraced), 50)
    )
    values = {m: values[m] for m in UNITS if m in values}  # BENCHMARK.json order
    print(f"per-layer metrics, mean per traced select call ({len(traced)} calls):")
    for metric, value in values.items():
        _print_metric(metric, value, UNITS[metric])
    return values, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from measure import Expected, run_select, time_calibration, timed_pass
    from workloads import WORKLOADS, describe, set_up

    workload = WORKLOADS[name]
    specs = workload.choose(seed)
    rounds = workload.rounds(seconds, len(specs))
    if trace:
        rounds = max(1, rounds // 2)  # the untraced and the traced pass share the run
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    try:
        setups = []  # (wall time, median calibration time just before)
        for _ in range(1 if trace else SETUPS):
            calibration = statistics.median(time_calibration() for _ in range(3))
            t0 = time.perf_counter()
            paths, systems = set_up(specs, workdir)
            setups.append((time.perf_counter() - t0, calibration))

        inputs = [describe(spec, system) for spec, system in zip(specs, systems)]
        print(
            f"{name}: seed {seed}; {len(specs)} instances x {rounds} rounds = "
            f"{len(specs) * rounds} calls per pass; closed loop, one client, one call at a time"
        )
        for i, record in enumerate(inputs):
            print(f"input {i:02d} " + json.dumps(record, sort_keys=True))
        expected = [
            Expected.from_file(path, rec["digest"], golden.get(rec["digest"], "(none)"))
            for path, rec in zip(paths, inputs)
        ]

        try:  # warm-up, untimed; a failure here shows again in the timed calls
            run_select(paths[0], workload.select_flags)
        except Exception:
            pass

        t0 = time.perf_counter()
        calls = timed_pass(paths, expected, workload.select_flags, rounds)
        print(f"timed calls: {len(calls)} in {time.perf_counter() - t0:.3f} s")
        if trace:
            values, traced = _per_layer(workload, specs, paths, expected, rounds, workdir, calls, tag)
            calls = calls + traced
        else:
            values = _end_to_end(calls, setups)
        _failures(calls, specs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not any(c.wrong for c in calls),
        "attempted": len(calls),
        "failed": sum(c.error is not None for c in calls),
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in values.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "inputs": inputs,
                "calls": [
                    {"instance": c.instance, "seconds": c.seconds, "calibration": c.calibration, "error": c.error}
                    for c in calls
                ],
                "result": result,
            },
            fh,
        )
    return result


def run_all(args) -> dict:
    """Every workload, each in a fresh process so memory does not carry over."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="sparse, wide, oracle, chain or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20, help="about how long the timed calls take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_ioselect()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        os.makedirs(OUT, exist_ok=True)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
