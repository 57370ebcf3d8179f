"""Outside-in tracer: spans around the public functions of each ioselect
module, installed from the benchmark's own code so no file in ``src/`` changes.

A traced function is replaced in every ioselect module namespace that binds
it (``build_graphs`` is bound in graph_core, selector, set_cover, cli and
oracle_bench), so calls between modules and inside a module are both seen.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from typing import Callable

# (home module, function) pairs that get a span.  The root span of a select
# call is cli.main; its self time is argparse plus JSON load and dump.
TRACED = (
    ("cli", "main"),
    ("system_model", "restrict"),
    ("system_model", "system_from_json"),
    ("system_model", "validate"),
    ("graph_core", "build_graphs"),
    ("graph_core", "decompose_sccs"),
    ("graph_core", "condition_a_holds"),
    ("graph_core", "condition_a_witness"),
    ("set_cover", "reduce_accessibility_to_wsc"),
    ("set_cover", "greedy_solve"),
    ("set_cover", "exact_solve"),
    ("matching", "build_bipartite"),
    ("matching", "min_cost_perfect_matching"),
    ("matching", "cycle_cover_check"),
    ("matching", "state_pattern_has_pm"),
    ("selector", "check_no_sfm"),
    ("selector", "applicable_special_cases"),
    ("selector", "select_min_cost_io"),
    ("oracle_bench", "exact_select"),
    ("oracle_bench", "generate"),
)

# Counters read from a traced function's return value: span -> (counter, f).
DERIVED: dict[str, tuple[str, Callable[[object], int]]] = {
    "graph_core.build_graphs": ("graph_core.ek_edges", lambda r: len(r[1].ek)),
    "matching.build_bipartite": ("matching.bipartite_edges", lambda g: len(g.edges)),
    "set_cover.greedy_solve": ("set_cover.greedy_iterations", lambda c: len(c.trace)),
}

# Per-layer metrics: (metric, unit, kind, source).  Per traced select call,
# "s" is the summed self time of the spans named source, "calls" their
# number and "count" the counter's sum; "setup_s" is the summed self time of
# source's spans in the traced set-up.
LAYER_METRICS = (
    ("cli.self_s", "s", "s", "cli.main"),
    ("system_model.restrict.calls", "count", "calls", "system_model.restrict"),
    ("system_model.restrict.s", "s", "s", "system_model.restrict"),
    ("system_model.system_from_json.s", "s", "s", "system_model.system_from_json"),
    ("system_model.validate.s", "s", "s", "system_model.validate"),
    ("graph_core.build_graphs.calls", "count", "calls", "graph_core.build_graphs"),
    ("graph_core.build_graphs.s", "s", "s", "graph_core.build_graphs"),
    ("graph_core.decompose_sccs.calls", "count", "calls", "graph_core.decompose_sccs"),
    ("graph_core.ek_edges", "count", "count", "graph_core.ek_edges"),
    ("graph_core.condition_a_holds.s", "s", "s", "graph_core.condition_a_holds"),
    ("graph_core.condition_a_witness.s", "s", "s", "graph_core.condition_a_witness"),
    ("set_cover.reduce_accessibility_to_wsc.s", "s", "s", "set_cover.reduce_accessibility_to_wsc"),
    ("set_cover.greedy_solve.s", "s", "s", "set_cover.greedy_solve"),
    ("set_cover.greedy_iterations", "count", "count", "set_cover.greedy_iterations"),
    ("set_cover.exact_solve.s", "s", "s", "set_cover.exact_solve"),
    ("matching.build_bipartite.calls", "count", "calls", "matching.build_bipartite"),
    ("matching.build_bipartite.s", "s", "s", "matching.build_bipartite"),
    ("matching.bipartite_edges", "count", "count", "matching.bipartite_edges"),
    ("matching.min_cost_perfect_matching.s", "s", "s", "matching.min_cost_perfect_matching"),
    ("matching.heap_pops", "count", "count", "matching.heap_pops"),
    ("matching.cycle_cover_check.calls", "count", "calls", "matching.cycle_cover_check"),
    ("matching.cycle_cover_check.s", "s", "s", "matching.cycle_cover_check"),
    ("matching.state_pattern_has_pm.s", "s", "s", "matching.state_pattern_has_pm"),
    ("selector.check_no_sfm.calls", "count", "calls", "selector.check_no_sfm"),
    ("selector.check_no_sfm.s", "s", "s", "selector.check_no_sfm"),
    ("selector.applicable_special_cases.calls", "count", "calls", "selector.applicable_special_cases"),
    ("selector.select_min_cost_io.self_s", "s", "s", "selector.select_min_cost_io"),
    ("oracle_bench.exact_select.self_s", "s", "s", "oracle_bench.exact_select"),
    ("oracle_bench.generate.s", "s", "setup_s", "oracle_bench.generate"),
)

# Span fields, in the order a span list holds them.
NAME, START, END, PARENT, CALL = range(5)


def _ioselect_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ioselect" or name.startswith("ioselect."))
    ]


class Tracer:
    """Records spans ``[name, start, end, parent, call]`` and counters keyed by
    ``(call, counter)``.  Use as a context manager: entering installs the
    wrappers, leaving restores the original functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call: object = None  # id of the select call (or set-up) under way
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, derived = self.spans, self._stack, DERIVED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.call])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][END] = time.perf_counter()
                stack.pop()
            if derived is not None:
                self.counts[(self.call, derived[0])] += derived[1](result)
            return result

        return wrapper

    def _replace(self, original: object, replacement: object) -> None:
        for mod in _ioselect_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        for home, fn_name in TRACED:
            original = getattr(sys.modules[f"ioselect.{home}"], fn_name)
            self._replace(original, self._wrap(f"{home}.{fn_name}", original))
        matching = sys.modules["ioselect.matching"]
        heappop, counts = matching.heappop, self.counts

        def counting_heappop(heap):
            counts[(self.call, "matching.heap_pops")] += 1
            return heappop(heap)

        # Only the name bound in ioselect.matching: the Dijkstra's heap.
        self._undo.append((matching, "heappop", heappop))
        matching.heappop = counting_heappop
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "call")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(keys, span))}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(sid, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def layer_totals(spans: list[list], counts: Counter, calls: set) -> tuple[Counter, Counter, Counter]:
    """Summed self time and call count per span name, and summed counters,
    over the spans and counters whose call id is in ``calls``."""
    self_s: Counter = Counter()
    n_calls: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        if span[CALL] in calls:
            self_s[span[NAME]] += own
            n_calls[span[NAME]] += 1
    counters: Counter = Counter()
    for (call, name), value in counts.items():
        if call in calls:
            counters[name] += value
    return self_s, n_calls, counters


def layer_metrics(tracer: Tracer, select_calls: int, wall_s: float, setup_call: object) -> dict[str, float]:
    """LAYER_METRICS, plus ``trace.unaccounted_s``, from a tracer that saw
    ``select_calls`` select calls with ids 0..select_calls-1, timed from
    outside at ``wall_s`` in all, and one set-up with id ``setup_call``."""
    self_s, n_calls, counters = layer_totals(tracer.spans, tracer.counts, set(range(select_calls)))
    setup_self, _, _ = layer_totals(tracer.spans, tracer.counts, {setup_call})
    per_call = {"s": self_s, "calls": n_calls, "count": counters}
    out = {}
    for metric, _unit, kind, source in LAYER_METRICS:
        if kind == "setup_s":
            out[metric] = setup_self[source]
        else:
            out[metric] = per_call[kind][source] / select_calls
    out["trace.unaccounted_s"] = (wall_s - sum(self_s.values())) / select_calls
    return out
