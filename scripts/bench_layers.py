#!/usr/bin/env python3
"""Time each layer of a CLI ``select`` directly, and the whole call.

For every shape, one seeded instance is written as JSON and the layers of
``ioselect select`` are called in sequence from outside, each timed on its
own with ``time.perf_counter``, best of ``--repeats``:

* input: the file read, ``json.loads`` and ``system_from_json``;
* compile: ``validate``, ``build_bipartite``, ``decompose_sccs`` and
  ``cover_instances``;
* select: B(A)'s Hopcroft-Karp (``SystemGraph.state_matching``), the
  special-case tags with condition (a) of the full selection, the two
  transposes stage 3 searches (``state_cols`` and ``rows_to_states``),
  stage 3 (``min_cost_perfect_matching`` and ``extract_io``) and the two
  greedy covers, each only where ``select_min_cost_io`` runs it;
* output: the final check (``selection_cost``, condition (a) of the
  selection and ``certify_cycle_cover``), ``report_to_json`` and
  ``json.dumps``;
* freeing: the parsed document, dropped once it is decoded, and the
  system with everything built on it, dropped before the call returns.

Every repeat starts from a fresh read, so each cached property is computed
cold, as in one CLI call.  The end-to-end time is ``cli.main(["select",
path])`` with stdout captured, best of ``--repeats``.  The record holds the
layer times, their sum, the end-to-end time and the gap between the two:
what ``main`` does besides the layers (argparse, opening the output, the
report object) plus the spread between independent best-of-N minima.  The
cyclic collector is paused around every timed call, as ``cli.main`` pauses
it for ``select``.

The shapes are the benchmark's, taken from ``perfbench/workloads.py``
(imported by path, not changed): the first sparse and wide pool members
(sparse at n = 400, m = p = n/10, about five A stars per row; wide at n =
60, m = p = 120), the sparse member grown to n = 1600 and 6400 with its
other parameters kept, and chain at n = 640.  Each record carries the git revision and the
machine-speed calibration that ``perfbench/measure.py`` computes.

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
from ioselect.certify import certify_cycle_cover
from ioselect.graph_core import build_bipartite, decompose_sccs
from ioselect.matching import extract_io, min_cost_perfect_matching
from ioselect.selector import (
    CompiledSystem,
    applicable_special_cases,
    report_to_json,
    select_min_cost_io,
)
from ioselect.set_cover import cover_instances, greedy_solve
from ioselect.system_model import Selection, selection_cost, system_from_json, system_to_json, validate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))  # the benchmark's modules, imported by path

import measure  # noqa: E402
import workloads  # noqa: E402


def _shapes() -> dict:
    sparse, wide = (workloads.WORKLOADS[name].pool[0] for name in ("sparse", "wide"))
    shapes = {"sparse-400": sparse.build}
    for n in (1600, 6400):
        config = dataclasses.replace(sparse.config, n=n, m=n // 10, p=n // 10, state_density=5 / n)
        shapes[f"sparse-{n}"] = workloads.Generated(config).build
    shapes["wide-60"] = wide.build
    shapes["chain-640"] = workloads.Chain(640, 0).build
    return shapes


class Layers:
    """Per-layer timings of one repeat: ``run(name, f, *args)`` times one
    call and keeps its result."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def run(self, name: str, f, *args):
        t0 = time.perf_counter()
        result = f(*args)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        return result


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def time_layers(path: str, report) -> dict[str, float]:
    """One repeat of the layers of a select of the file at ``path``.
    ``report`` is that select's report, made beforehand: its timing keys
    name the stages that run, and it is the report rendered here."""
    ran = set(report.timings)
    t = Layers()
    text = t.run("read", _read, path)
    doc = t.run("json_loads", json.loads, text)
    system = t.run("system_from_json", system_from_json, doc)
    t0 = time.perf_counter()
    del text, doc  # the CLI drops the parsed document once it is decoded
    t.seconds["free_document"] = time.perf_counter() - t0
    if not t.run("validate", validate, system).ok:
        raise SystemExit(f"{path}: instance does not validate")
    g = t.run("build_bipartite", build_bipartite, system)
    scc = t.run("decompose_sccs", decompose_sccs, g)
    compiled = CompiledSystem(system, g, scc, t.run("cover_instances", cover_instances, system, scc))
    full = Selection.full(system)
    t.run("state_matching", lambda: g.state_matching)
    t.run("special_cases", lambda: (applicable_special_cases(compiled), compiled.condition_a(full)))
    selection, partners, covers = Selection(), None, []
    if "cycle" in ran:
        t.run("state_cols_rows_to_states", lambda: (g.state_cols, g.rows_to_states))
        partners = t.run("stage3", min_cost_perfect_matching, g)
        selection = t.run("stage3", extract_io, g, partners)[0]
    if "accessibility" in ran:
        names = ("accessibility", "sensability")
        covers = [t.run(name, greedy_solve, inst) for name, inst in zip(names, compiled.covers)]
        selection = selection.union(Selection(*(cover.chosen for cover in covers)))
    if partners is None:  # the state-only matching, every channel on its own edge
        partners = [*g.state_matching[0], *range(g.n, g.size)]
    ok = t.run("final_check", lambda: (
        selection_cost(system, selection),
        compiled.condition_a(selection) and certify_cycle_cover(system, selection, enumerate(partners)),
    ))[1]
    if not ok:
        raise SystemExit(f"{path}: the final check failed")
    t0 = time.perf_counter()
    del system, g, scc, compiled, full, selection, partners, covers  # freed before the CLI returns
    t.seconds["free_system"] = time.perf_counter() - t0
    t.run("json_dumps", _dumps, t.run("report_to_json", report_to_json, report))
    return t.seconds


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
    report = select_min_cost_io(system)
    best: dict[str, float] = {}
    e2e = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for layer, seconds in time_layers(path, report).items():
                best[layer] = min(seconds, best.get(layer, seconds))
            e2e.append(time_main(path))
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
        "special_case": report.special_case,
        "layers_s": {layer: round(s, 6) for layer, s in best.items()},
        "layer_sum_s": round(layer_sum, 6),
        "end_to_end_s": round(min(e2e), 6),
        "gap_s": round(min(e2e) - layer_sum, 6),
    }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _revision() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", help="append the record to this JSON file (default: print it)")
    parser.add_argument("--tag", default="", help="a name for the record")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    calibration_before = statistics.median(measure.time_calibration() for _ in range(5))
    with tempfile.TemporaryDirectory() as directory:
        results = [bench_shape(name, build, directory, args.repeats) for name, build in _shapes().items()]
    calibration_after = statistics.median(measure.time_calibration() for _ in range(5))
    record = {
        "tag": args.tag,
        "revision": _revision(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
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
