#!/usr/bin/env python3
"""Time each layer of a CLI ``select``, and the whole call.

For every shape, one seeded instance is written as JSON and a ``select``
of it is run from outside in the CLI's steps, best of ``--repeats`` for
each layer:

* input: the file read, ``json.loads`` and ``system_from_json``, each
  timed here with ``ioselect.selector.timed``, as the pipeline times its
  own layers;
* the layers of ``select_min_cost_io``, read off its report's
  ``timings``: ``validate``, ``build_bipartite``, ``decompose_sccs``,
  ``cover_instances``, ``state_matching``, ``special_cases`` and
  ``final_check``, with ``state_cols_rows_to_states``, ``stage3``,
  ``accessibility`` and ``sensability`` where they run;
* output: ``report_to_json`` and ``json.dumps``, timed here;
* freeing: the parsed document, dropped once it is decoded, and the
  system with everything built on it, dropped as the CLI returns.

Every repeat starts from a fresh read, so each cached property is computed
cold, as in one CLI call, and then times ``cli.main(["select", path])``
with stdout captured.  The record holds the best-of-``--repeats`` time of
each layer, their sum and the best end-to-end time.  Its gap is paired: the
median over repeats of that repeat's end-to-end time less its own layer
sum, so it holds what ``main`` does besides the layers (argparse, opening
the output, the report object, the pipeline's steps between its timed
layers) and not the spread between minima taken from different repeats.
The default is nine repeats: it then takes five repeats disturbed the same
way, not two of three, to carry the median gap off its typical value.
The cyclic collector is paused around every timed call, as ``cli.main``
pauses it for ``select``.

The first five shapes are the benchmark's, taken from
``perfbench/workloads.py`` (imported by path, not changed): the first
sparse and wide pool members (sparse at n = 400, m = p = n/10, about five
A stars per row; wide at n = 60, m = p = 120), the sparse member grown to
n = 1600 and 6400 with its other parameters kept, and chain at n = 640.
The last four are built by ``tests/oracles.py`` (imported by path).
``diagonal-10000`` (A empty and B = C = I, so each cover has 10,000
one-element sets) and ``widemask-10000`` (each cover has 10,000 sets that
all share one element, so most of the greedy's heap pops are stale) load
the two greedy covers.  ``scale-12800`` and ``scale-25600`` are the scale
shape with seed 1 (m = p = n/10, two random A columns per row plus the
diagonal on 19 rows in 20, two inputs and two outputs per state), where
stage 3 and B(A)'s matching run at size.  Each record carries the git
revision and the machine-speed calibration that ``perfbench/measure.py``
computes, and the one CPU the script pinned itself to at start (the lowest
it may run on; None, and unpinned, where the platform cannot pin).

    PYTHONPATH=src python scripts/bench_layers.py -o BENCH_<tag>.json --tag <tag>

appends one record to the file (creating it), or prints it without ``-o``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from ioselect import cli
from ioselect.selector import report_to_json, select_min_cost_io, timed
from ioselect.system_model import system_from_json, system_to_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))  # the benchmark's modules, imported by path
sys.path.insert(0, os.path.join(ROOT, "tests"))  # and the ladder shapes' builders

import measure  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def _shapes() -> dict:
    sparse, wide = (workloads.WORKLOADS[name].pool[0] for name in ("sparse", "wide"))
    shapes = {"sparse-400": sparse.build}
    for n in (1600, 6400):
        config = dataclasses.replace(sparse.config, n=n, m=n // 10, p=n // 10, state_density=5 / n)
        shapes[f"sparse-{n}"] = workloads.Generated(config).build
    shapes["wide-60"] = wide.build
    shapes["chain-640"] = workloads.Chain(640, 0).build
    shapes["diagonal-10000"] = lambda: oracles.diagonal_system(10_000)
    shapes["widemask-10000"] = lambda: oracles.widemask_system(10_000)
    for n in (12_800, 25_600):
        shapes[f"scale-{n}"] = lambda n=n: oracles.scale_system(n, 1)
    return shapes


def time_layers(path: str) -> tuple[dict[str, float], str]:
    """One repeat of the layers of a select of the file at ``path``, and
    the report's special case."""
    seconds: dict[str, float] = {}
    with timed(seconds, "read"), open(path, encoding="utf-8") as fh:
        text = fh.read()
    with timed(seconds, "json_loads"):
        doc = json.loads(text)
    with timed(seconds, "system_from_json"):
        system = system_from_json(doc)
    with timed(seconds, "free_document"):
        del text, doc  # the CLI drops the parsed document once it is decoded
    report = select_min_cost_io(system)
    seconds.update(report.timings)
    with timed(seconds, "report_to_json"):
        out = report_to_json(report)
    with timed(seconds, "json_dumps"):
        json.dumps(out, indent=2) + "\n"
    case = report.special_case
    with timed(seconds, "free_system"):
        del system, report, out  # freed as the CLI returns
    return seconds, case


def time_main(path: str) -> float:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(["select", path])
        seconds = time.perf_counter() - t0
    if code != cli.EXIT_OK:
        raise SystemExit(f"{path}: select exited {code}")
    return seconds


def bench_shape(name: str, build, directory: str, repeats: int) -> dict:
    system = build()
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_json(system), fh)
    best: dict[str, float] = {}
    e2e, gaps = [], []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            layers, case = time_layers(path)
            for layer, seconds in layers.items():
                best[layer] = min(seconds, best.get(layer, seconds))
            e2e.append(time_main(path))
            gaps.append(e2e[-1] - sum(layers.values()))
    finally:
        if enabled:
            gc.enable()
    layer_sum = sum(best.values())
    return {
        "shape": name,
        "n": system.n,
        "m": system.m,
        "p": system.p,
        "stars": sum(sum(map(len, pat.by_row)) for pat in (system.A, system.B, system.C)),
        "file_bytes": os.path.getsize(path),
        "special_case": case,
        "layers_s": {layer: round(s, 6) for layer, s in best.items()},
        "layer_sum_s": round(layer_sum, 6),
        "end_to_end_s": round(min(e2e), 6),
        "gap_s": round(statistics.median(gaps), 6),
    }


def _revision() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", help="append the record to this JSON file (default: print it)")
    parser.add_argument("--tag", default="", help="a name for the record")
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)

    cpu = None
    if hasattr(os, "sched_setaffinity"):  # one CPU for every shape: two CPUs can run Python far apart
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    calibration_before = statistics.median(measure.time_calibration() for _ in range(5))
    with tempfile.TemporaryDirectory() as directory:
        results = [bench_shape(name, build, directory, args.repeats) for name, build in _shapes().items()]
    calibration_after = statistics.median(measure.time_calibration() for _ in range(5))
    record = {
        "tag": args.tag,
        "revision": _revision(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpu": cpu,
        "repeats": args.repeats,
        "calibration_s": {"before": round(calibration_before, 6), "after": round(calibration_after, 6)},
        "calibration_ref_s": measure.CALIBRATION_REF_S,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "shapes": results,
    }
    if not args.output:
        print(json.dumps(record, indent=2))
        return 0
    doc = {"records": []}
    if os.path.exists(args.output):
        with open(args.output, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["records"].append(record)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for shape in results:
        print(f"{shape['shape']:>12}  layers {shape['layer_sum_s']:.4f} s  "
              f"end to end {shape['end_to_end_s']:.4f} s  gap {shape['gap_s']:+.4f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
