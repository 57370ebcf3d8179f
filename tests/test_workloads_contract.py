"""The benchmark's set-up (perfbench/workloads.py) still runs on the package.

``describe`` records each instance's SCC counts and special case through
``build_graphs``, ``decompose_sccs`` and ``detect_special_case``.  The pools
are drawn by the package's seeded generator, and ``perfbench/golden.json``
keys each member's output by its instance digest, so a drift of the stream
shows as a digest missing there.  These tests read the files by path,
unedited (``workloads`` is conftest's), so such a change fails here and
not inside a benchmark run.
"""

import json
import os

import pytest

from ioselect import oracle_bench
from ioselect.selector import compile_system, detect_special_case

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


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


@pytest.mark.parametrize("which", ["sparse", "wide", "oracle"])
def test_pool_digests_are_golden(workloads, which):
    # every member of the generated pools: 32 sparse, 32 wide, 104 oracle
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[which]
    missing = [
        spec.label for spec in workloads.WORKLOADS[which].pool
        if oracle_bench.instance_digest(spec.build()) not in golden
    ]
    assert not missing
