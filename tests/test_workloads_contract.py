"""The benchmark's set-up (perfbench/workloads.py) still runs on the package.

``describe`` records each instance's SCC counts and special case through
``build_graphs``, ``decompose_sccs`` and ``detect_special_case``.  This test
loads the file by path, unedited, so a change to those names fails here and
not inside a benchmark run.
"""

import importlib.util
import os
import sys

import pytest

from ioselect.selector import compile_system, detect_special_case

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("which", ["chain", "oracle"])
def test_describe_matches_the_compiled_system(workloads, which):
    spec = workloads.Chain(128, 0) if which == "chain" else workloads.WORKLOADS["oracle"].pool[0]
    assert isinstance(spec, workloads.Chain if which == "chain" else workloads.Generated)
    system = spec.build()
    compiled = compile_system(system)
    doc = workloads.describe(spec, system)
    assert (doc["n"], doc["m"], doc["p"]) == (system.n, system.m, system.p)
    assert doc["q"] == compiled.scc.q
    assert doc["k"] == compiled.scc.k
    assert doc["sccs"] == len(compiled.scc.components)
    assert doc["special_case"] == detect_special_case(compiled)
