"""The names the benchmark's tracer (perfbench/tracer.py) wraps still exist.

The tracer wraps functions by (module, name) from outside the package and
reads counters off their results.  A renamed or removed function would make
a traced benchmark run read 0 for its layer without failing, so this test
loads the tracer by file path, unedited, and checks its contract here.
"""

import importlib
import importlib.util
import os

import pytest

from ioselect import cli
from ioselect.graph_core import build_graphs, coverage, decompose_sccs
from ioselect.matching import build_bipartite
from ioselect.set_cover import cover_instances, greedy_solve

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for home, fn_name in tracer.TRACED:
        module = importlib.import_module(f"ioselect.{home}")
        assert callable(getattr(module, fn_name, None)), f"ioselect.{home}.{fn_name}"
    # the heap-pop counter replaces this name in ioselect.matching, which
    # keeps it for the tracer alone
    assert callable(importlib.import_module("ioselect.matching").heappop)


def test_derived_counters_read_results(tracer, demo):
    scc = decompose_sccs(build_graphs(demo)[0])
    (accessibility, _labels), _ = cover_instances(demo, scc, coverage(demo, scc))
    results = {
        "graph_core.build_graphs": build_graphs(demo),
        "matching.build_bipartite": build_bipartite(demo),
        "set_cover.greedy_solve": greedy_solve(accessibility),
    }
    assert sorted(tracer.DERIVED) == sorted(results)
    counts = {name: fn(results[span]) for span, (name, fn) in tracer.DERIVED.items()}
    # B(A, B, C, K) of the demo: 7 + 7 + 2 pattern edges, the hub's 3 + 2,
    # and the 3 + 2 edges (u'_i, u_i) and (y'_j, y_j)
    assert counts["matching.bipartite_edges"] == 26
    assert counts["graph_core.ek_edges"] == 0  # a complete K is the hub
    assert counts["set_cover.greedy_iterations"] == 1


def test_traced_select(tracer, demo_json, capsys):
    with tracer.Tracer() as t:
        t.call = 0
        assert cli.main(["select", demo_json]) == 0  # looked up when wrapped
    capsys.readouterr()
    names = {span[tracer.NAME] for span in t.spans}
    assert {"cli.main", "matching.build_bipartite", "matching.min_cost_perfect_matching"} <= names
    assert t.counts[(0, "matching.bipartite_edges")] == 26
    # stage 3 runs hub transits, with no heap; the counter stays wired
    assert t.counts[(0, "matching.heap_pops")] == 0
