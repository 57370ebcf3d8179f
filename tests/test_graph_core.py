from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given

import oracles
from conftest import make_system, systems, systems_with_selection
from ioselect.graph_core import (
    CoverageTables,
    build_graphs,
    condition_a_holds,
    condition_a_witness,
    coverage,
    decompose_sccs,
    dump_condensation,
    dump_system_digraph,
    vertex_name,
)
from ioselect.system_model import Selection, SparsityPattern


def test_vertex_names():
    assert vertex_name(0, 4, 3) == "x1"
    assert vertex_name(4, 4, 3) == "u1"
    assert vertex_name(6, 4, 3) == "u3"
    assert vertex_name(7, 4, 3) == "y1"


class TestBuildGraphs:
    def test_demo_edge_sets(self, demo):
        sg, dg = build_graphs(demo)
        assert sg.n == 4
        # A_ij star means x_j -> x_i
        assert sg.edges == frozenset(
            {(0, 0), (1, 0), (1, 1), (0, 2), (1, 2), (3, 2), (3, 3)}
        )
        assert dg.eu == frozenset(
            {(4, 0), (6, 0), (5, 1), (6, 1), (4, 2), (5, 2), (6, 3)}
        )
        assert dg.ey == frozenset({(2, 7), (0, 8)})
        # the complete K is the hub 9: y1, y2 -> hub -> u1, u2, u3
        assert dg.hub and dg.ek == frozenset()
        assert dg.size == 9
        assert dg.successors[7] == dg.successors[8] == (9,)
        assert dg.successors[9] == (4, 5, 6)

    def test_partial_k_keeps_its_stars(self, demo):
        partial = replace(demo, K=SparsityPattern(3, 2, frozenset({(0, 1), (2, 0)})))
        _sg, dg = build_graphs(partial)
        assert not dg.hub
        assert dg.ek == frozenset({(8, 4), (7, 6)})
        assert dg.successors[9] == ()

    def test_successor_tables_sorted(self, demo):
        _sg, dg = build_graphs(demo)
        for row in dg.successors:
            assert list(row) == sorted(row)
        flat = [(s, d) for s in range(dg.size + 1) for d in dg.successors[s]]
        hub_edges = dg.m + dg.p
        assert len(flat) == len(dg.ex) + len(dg.eu) + len(dg.ey) + hub_edges


class TestScc:
    def test_demo_decomposition(self, demo):
        scc = decompose_sccs(build_graphs(demo)[0])
        assert scc.components == ((0,), (1,), (2,), (3,))
        assert scc.component_of == (0, 1, 2, 3)
        assert scc.dag_edges == frozenset({(1, 0), (0, 2), (1, 2), (3, 2)})
        assert scc.non_top == (1, 3)
        assert scc.non_bottom == (2,)
        assert scc.q == 2 and scc.k == 1

    def test_single_cycle_is_irreducible(self):
        sys_ = make_system(3, 1, 1, [[2, 1], [3, 2], [1, 3]], [[1, 1]], [[1, 1]])
        scc = decompose_sccs(build_graphs(sys_)[0])
        assert scc.components == ((0, 1, 2),)
        assert scc.q == scc.k == 1
        assert scc.non_top == scc.non_bottom == (0,)

    def test_diagonal_states_all_isolated(self):
        sys_ = make_system(3, 3, 3, [[1, 1], [2, 2], [3, 3]],
                           [[1, 1], [2, 2], [3, 3]], [[1, 1], [2, 2], [3, 3]])
        scc = decompose_sccs(build_graphs(sys_)[0])
        assert len(scc.components) == 3
        assert scc.non_top == scc.non_bottom == (0, 1, 2)

    @given(systems(max_n=8))
    def test_partition_matches_reference(self, system):
        sg = build_graphs(system)[0]
        scc = decompose_sccs(sg)
        assert {frozenset(c) for c in scc.components} == oracles.scc_partition(
            sg.n, list(sg.edges)
        )

    @given(systems(max_n=8))
    def test_component_numbering_and_dag(self, system):
        sg = build_graphs(system)[0]
        scc = decompose_sccs(sg)
        mins = [c[0] for c in scc.components]
        assert mins == sorted(mins)  # numbered by smallest member
        for s, d in scc.dag_edges:
            assert s != d
        g = nx.DiGraph(scc.dag_edges)
        g.add_nodes_from(range(len(scc.components)))
        assert nx.is_directed_acyclic_graph(g)
        assert scc.non_top == tuple(sorted(v for v in g if g.in_degree(v) == 0))
        assert scc.non_bottom == tuple(sorted(v for v in g if g.out_degree(v) == 0))
        assert scc.q >= 1 and scc.k >= 1


class TestCoverage:
    def test_demo_tables(self, demo):
        scc = decompose_sccs(build_graphs(demo)[0])
        cov = coverage(demo, scc)
        assert cov.input_covers == (frozenset(), frozenset({0}), frozenset({0, 1}))
        assert cov.output_covers == (frozenset({0}), frozenset())
        assert cov.mu == (0, 1, 2)
        assert cov.eta == (1, 0)
        assert cov.mu_max == 2 and cov.eta_max == 1

    def test_empty_tables(self):
        assert CoverageTables((), ()).mu_max == 0

    @given(systems(max_n=7))
    def test_bounds(self, system):
        scc = decompose_sccs(build_graphs(system)[0])
        cov = coverage(system, scc)
        assert all(mu <= scc.q for mu in cov.mu)
        assert all(eta <= scc.k for eta in cov.eta)


def covers_all(system, sel):
    """The pipeline's reachability criterion: (every non-top SCC is covered
    by a selected input, every non-bottom SCC by a selected output)."""
    scc = decompose_sccs(build_graphs(system)[0])
    cov = coverage(system, scc)
    reached = set().union(*(cov.input_covers[i] for i in sel.inputs))
    sensed = set().union(*(cov.output_covers[j] for j in sel.outputs))
    return len(reached) == scc.q, len(sensed) == scc.k


class TestReachability:
    def test_demo_full(self, demo):
        assert covers_all(demo, Selection.full(demo)) == (True, True)

    def test_demo_restricted(self, demo):
        assert covers_all(demo, Selection.of([2], []))[0]  # u3 reaches everything
        assert not covers_all(demo, Selection.of([1], []))[0]  # x4 unreachable
        assert covers_all(demo, Selection.of([], [0]))[1]  # everything flows to y1
        assert not covers_all(demo, Selection.of([], [1]))[1]  # x3 has no path out

    @given(systems_with_selection(max_n=6))
    def test_accessible_matches_reference(self, case):
        system, sel = case
        expected = oracles.accessible_states(system, sel) == frozenset(range(system.n))
        assert covers_all(system, sel)[0] == expected

    @given(systems_with_selection(max_n=6))
    def test_sensable_matches_reference(self, case):
        system, sel = case
        expected = oracles.sensable_states(system, sel) == frozenset(range(system.n))
        assert covers_all(system, sel)[1] == expected

    @given(systems_with_selection(max_n=6))
    def test_sensable_is_dual_accessibility(self, case):
        from ioselect.system_model import transpose_dual

        system, sel = case
        dual_sel = Selection(inputs=sel.outputs)
        assert covers_all(system, sel)[1] == covers_all(transpose_dual(system), dual_sel)[0]


class TestConditionA:
    def test_demo_cases(self, demo):
        dg = build_graphs(demo)[1]
        assert condition_a_holds(dg, Selection.full(demo))
        # u3 with y1 closes a loop through every state
        assert condition_a_holds(dg, Selection.of([2], [0]))
        # y2 reads x1 only; x3, x4 stay outside any feedback loop
        assert not condition_a_holds(dg, Selection.of([2], [1]))

    def test_witness_structure(self, demo):
        w = condition_a_witness(build_graphs(demo)[1], Selection.full(demo))
        assert set(w) == {"x1", "x2", "x3", "x4"}
        for info in w.values():
            assert info["feedback_edge"] == ["y1", "u1"]
            assert "x3" in info["scc"]

    def test_witness_marks_failing_states(self, demo):
        w = condition_a_witness(build_graphs(demo)[1], Selection.of([2], [1]))
        failing = {s for s, info in w.items() if info["feedback_edge"] is None}
        assert failing == {"x3", "x4"}
        # x1 does close a loop: x1 -> y2 -> u3 -> x1
        assert w["x1"]["feedback_edge"] == ["y2", "u3"]

    @given(systems_with_selection(max_n=6))
    def test_matches_reference(self, case):
        system, sel = case
        assert condition_a_holds(build_graphs(system)[1], sel) == oracles.condition_a(system, sel)

    @given(systems_with_selection(max_n=6))
    def test_witness_agrees_with_predicate(self, case):
        system, sel = case
        dg = build_graphs(system)[1]
        w = condition_a_witness(dg, sel)
        assert condition_a_holds(dg, sel) == all(
            info["feedback_edge"] is not None for info in w.values()
        )


class TestDumps:
    def test_system_digraph_format(self, demo):
        text = dump_system_digraph(build_graphs(demo)[1])
        lines = text.strip().splitlines()
        assert len(lines) == 7 + 7 + 2 + 6
        assert all(len(line.split()) == 3 for line in lines)
        assert "x2 x1 EX" in lines
        assert "u3 x4 EU" in lines
        assert "y1 u1 EK" in lines

    def test_condensation_format(self, demo):
        text = dump_condensation(decompose_sccs(build_graphs(demo)[0]))
        assert "# scc1 = x1" in text
        assert "scc2 scc1 cond" in text

    @given(systems(max_n=5))
    def test_dump_deterministic(self, system):
        dg = build_graphs(system)[1]
        assert dump_system_digraph(dg) == dump_system_digraph(dg)
