"""Stage 3's cost against scipy's sparse assignment solver, and the SCC
layer against networkx, at the sizes of the benchmark's pools.

The brute-force oracles only reach desk-sized systems.
``oracles.scipy_min_cost`` solves the same minimum-cost perfect matching of
B(A, B, C, K), with K expanded into its m*p feedback edges, by a different
algorithm (LAPJVsp), fast enough for the sparse (n = 400, m = p = 40) and
wide (n = 60, m = p = 120) instances the benchmark selects on.  networkx
finds the SCCs, the condensation's ends and condition (a) there, and on a
chain of the chain workload's largest size.

At the sizes the fast paths are written for, the scale shape and the
diagonal shape of ``tests/oracles.py`` at n = 3,200 and 6,400 are checked
against scipy (skipped without it): the SCC partition and the
condensation's ends against its strong components, nu(B(A)) against its
maximum bipartite matching, stage 3's cost against
``oracles.scipy_min_cost``, both greedy traces against
``oracles.set_scan_greedy``, and the final matching by
``certify_cycle_cover``.  All of them take a few seconds.
"""

import importlib.util
from dataclasses import replace

import pytest
from hypothesis import given

import oracles
from conftest import make_system, matching_cost, pool_config
from ioselect.certify import certify_cycle_cover
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


@pytest.fixture(scope="module", params=[("scale", 3200), ("scale", 6400), ("diagonal", 3200), ("diagonal", 6400)],
                ids=lambda param: "%s-%d" % param)
def at_scale(request):
    """A shape of the fast paths at size, and its select's report."""
    pytest.importorskip("scipy")
    shape, n = request.param
    system = oracles.scale_system(n, 1) if shape == "scale" else oracles.diagonal_system(n)
    return shape, system, select_min_cost_io(system)


def _csr(rows, cols):
    """A's pattern, or any rows of column lists, as a scipy 0/1 matrix."""
    from scipy.sparse import csr_matrix

    pairs = [(i, j) for i, row in enumerate(rows) for j in row]
    return csr_matrix(([1] * len(pairs), ([i for i, _ in pairs], [j for _, j in pairs])), shape=(len(rows), cols))


def test_sccs_and_ends_match_scipy_at_scale(at_scale):
    # scipy's strong components of D(A) (A_ij starred: x_j -> x_i, so the
    # transpose of A's pattern), and the components no condensation edge
    # enters (non-top) or leaves (non-bottom)
    from scipy.sparse.csgraph import connected_components

    _shape, system, report = at_scale
    n, scc = system.n, report.compiled.scc
    labels = connected_components(_csr(system.A.by_row, n).T, directed=True, connection="strong")[1].tolist()
    members: dict = {}
    for v, label in enumerate(labels):
        members.setdefault(label, []).append(v)
    entered, left = set(), set()
    for i, row in enumerate(system.A.by_row):
        for j in row:
            if labels[i] != labels[j]:
                entered.add(labels[i])
                left.add(labels[j])
    assert {frozenset(c) for c in scc.components} == {frozenset(c) for c in members.values()}
    assert {frozenset(scc.components[ci]) for ci in scc.non_top} == {
        frozenset(c) for label, c in members.items() if label not in entered
    }
    assert {frozenset(scc.components[ci]) for ci in scc.non_bottom} == {
        frozenset(c) for label, c in members.items() if label not in left
    }


def test_state_matching_size_matches_scipy_at_scale(at_scale):
    from scipy.sparse.csgraph import maximum_bipartite_matching

    _shape, system, report = at_scale
    nu = int((maximum_bipartite_matching(_csr(system.A.by_row, system.n), perm_type="column") >= 0).sum())
    assert sum(v >= 0 for v in report.compiled.graph.state_matching[0]) == nu


def test_stage3_cost_matches_scipy_at_scale(at_scale):
    # the diagonal shape's K would expand to n^2 feedback edges (41 million
    # at 6,400), past what scipy's solver takes here; with A empty, each
    # state row there has its one input and each state its one output, so
    # every channel is used and the cost is every channel's
    shape, system, report = at_scale
    cost = matching_cost(report.compiled.graph, report.matching)
    if shape == "scale":
        assert cost == oracles.scipy_min_cost(system)
    else:
        assert cost == sum(system.cost_u) + sum(system.cost_y)


def test_greedy_traces_match_the_set_scan_at_scale(at_scale):
    # the scan is quadratic in the rounds on the diagonal shape (8 s a
    # cover at 6,400), whose two covers are one instance of n one-element
    # sets at one weight: it is scanned once at 3,200, and at 6,400 the
    # greedy takes the sets in index order
    shape, system, report = at_scale
    covers = report.compiled.covers
    if shape == "scale":
        expected = [oracles.set_scan_greedy(inst).trace for inst in covers]
    else:
        assert covers[0] == covers[1]
        scan = oracles.set_scan_greedy(covers[0]).trace if system.n == 3200 else tuple(range(system.n))
        expected = [scan, scan]
    assert [report.stage1.trace, report.stage2.trace] == expected


def test_final_matching_certified_at_scale(at_scale):
    # and the same matching with one stage-3 input unselected is refused
    _shape, system, report = at_scale
    sel = report.selection
    assert certify_cycle_cover(system, sel, enumerate(report.matching))
    used = next(r - system.n for r in report.matching[: system.n] if r >= system.n)
    assert not certify_cycle_cover(system, Selection(sel.inputs - {used}, sel.outputs), enumerate(report.matching))
