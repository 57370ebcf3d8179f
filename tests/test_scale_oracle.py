"""Stage 3's cost against scipy's sparse assignment solver, and the SCC
layer against networkx, at the sizes of the benchmark's pools.

The brute-force oracles only reach desk-sized systems.
``oracles.scipy_min_cost`` solves the same minimum-cost perfect matching of
B(A, B, C, K), with K expanded into its m*p feedback edges, by a different
algorithm (LAPJVsp), fast enough for the sparse (n = 400, m = p = 40) and
wide (n = 60, m = p = 120) instances the benchmark selects on.  networkx
finds the SCCs, the condensation's ends and condition (a) there, and on a
chain of the chain workload's largest size.
"""

import importlib.util
from dataclasses import replace

import pytest
from hypothesis import given

import oracles
from conftest import make_system, matching_cost, pool_config
from ioselect.matching import NoPerfectMatching, build_bipartite, min_cost_perfect_matching
from ioselect.oracle_bench import generate
from ioselect.selector import compile_system, select_min_cost_io
from ioselect.system_model import Selection
from test_hub import COMPLETE_KINDS, wide_systems

# only the stage-3 tests need scipy; the SCC test needs networkx alone
needs_scipy = pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="scipy is not installed")

# the benchmark's pools, whose members' configs the tests draw from
POOLS = ("sparse", "wide")


@needs_scipy
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_stage3_cost_matches_scipy(pool, seed):
    system = generate(pool_config(pool, seed))
    ref = oracles.scipy_min_cost(system)
    assert ref is not None
    g = build_bipartite(system)
    assert matching_cost(g, min_cost_perfect_matching(g)) == ref


def _chain(n, closed):
    """x1 -> x2 -> ... -> xn with a self-loop on every state, driven at x1
    and read at xn; closed by xn -> x1 it is one SCC (the chain workload's
    shape), open it is n SCCs in a line."""
    a = [(i, i) for i in range(1, n + 1)] + [(i + 1, i) for i in range(1, n)] + ([(1, n)] if closed else [])
    return make_system(n, 1, 1, a, [(1, 1)], [(1, n)])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pool", sorted(POOLS) + ["chain"])
def test_scc_layer_matches_networkx(pool, seed):
    if pool == "chain":  # the workload's largest size, closed and open
        system = _chain(1536, closed=seed == 0)
    else:
        system = generate(pool_config(pool, seed))
    compiled = compile_system(system)
    scc, n = compiled.scc, system.n
    a_edges = [(j, i) for i, j in system.A.stars]  # A_ij starred: x_j -> x_i
    assert {frozenset(c) for c in scc.components} == oracles.scc_partition(n, a_edges)
    sources, sinks = oracles.condensation_ends(n, a_edges)
    assert {frozenset(scc.components[ci]) for ci in scc.non_top} == sources
    assert {frozenset(scc.components[ci]) for ci in scc.non_bottom} == sinks
    # the full selection (a holds), the two greedy covers alone as a
    # discrete-mode select makes them (a holds), and those without their
    # first input (a fails on every case here)
    covers = select_min_cost_io(replace(system, mode="discrete")).selection
    sels = (Selection.full(system), covers, Selection(covers.inputs - {min(covers.inputs)}, covers.outputs))
    assert [compiled.condition_a(sel) for sel in sels] == [oracles.condition_a(system, sel) for sel in sels]


@needs_scipy
@given(wide_systems(kinds=COMPLETE_KINDS))
def test_small_systems_agree(system):
    # zero costs and systems without a perfect matching included
    ref = oracles.scipy_min_cost(system)
    g = build_bipartite(system)
    if ref is None:
        with pytest.raises(NoPerfectMatching):
            min_cost_perfect_matching(g)
        return
    assert matching_cost(g, min_cost_perfect_matching(g)) == ref
