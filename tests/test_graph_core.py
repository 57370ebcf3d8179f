import sys
from dataclasses import replace

import hypothesis.strategies as st
import networkx as nx
from hypothesis import given

import oracles
from conftest import make_system, selections, systems, systems_with_selection
from ioselect.graph_core import (
    _tarjan,
    build_bipartite,
    condition_a_holds,
    condition_a_witness,
    decompose_sccs,
    dump_condensation,
    dump_system_digraph,
    restricted_rows,
    vertex_name,
)
from ioselect.selector import compile_system
from ioselect.system_model import COMPLETE, Selection, SparsityPattern


@st.composite
def varied_systems(draw, max_n=6):
    """A random system with some diagonal stars of A added, and K complete
    (as the token or as all m*p stars) or partial."""
    system = draw(systems(max_n=max_n))
    n, m, p = system.n, system.m, system.p
    loops = draw(st.frozensets(st.integers(0, n - 1)))
    a = SparsityPattern(n, n, system.A.stars | {(i, i) for i in loops})
    cells = [(i, j) for i in range(m) for j in range(p)]
    kind = draw(st.sampled_from(["token", "all stars", "partial"]))
    if kind == "token":
        k = COMPLETE
    elif kind == "all stars":
        k = SparsityPattern(m, p, frozenset(cells))
    else:
        k = SparsityPattern(m, p, draw(st.frozensets(st.sampled_from(cells))))
    return replace(system, A=a, K=k)


@st.composite
def varied_systems_with_selection(draw, max_n=6):
    system = draw(varied_systems(max_n))
    return system, draw(st.none() | selections(system))


def state_edges(system):
    """D(A) straight from the stars: A_ij starred gives x_j -> x_i."""
    return [(j, i) for i, j in system.A.stars]


def test_vertex_names():
    assert vertex_name(0, 4, 3) == "x1"
    assert vertex_name(4, 4, 3) == "u1"
    assert vertex_name(6, 4, 3) == "u3"
    assert vertex_name(7, 4, 3) == "y1"


class TestBuildGraphs:
    def test_demo_edge_sets(self, demo):
        g = build_bipartite(demo)
        assert (g.n, g.size) == (4, 9)
        # row v lists v's in-neighbours: A_ij star means x_j -> x_i, B_ij
        # u_j -> x_i, C_ij x_j -> y_i; an input's or output's own id ends it
        rows = restricted_rows(g, None)[1]
        assert [[v for v in row if v != g.size] for row in rows[: g.size]] == [
            [0, 1, 4, 6], [1, 5, 6], [0, 1, 3, 4, 5], [3, 6],
            [4], [5], [6],
            [2, 7], [0, 8],
        ]
        assert g.state_rows == [[0, 1], [1], [0, 1, 3], [3]]
        assert g.state_rows is g.state_rows  # sliced once per graph
        # the complete K is the hub 9: y1, y2 -> hub -> u1, u2, u3
        assert g.hub and g.ek == []
        assert rows[4:] == [[9, 4], [9, 5], [9, 6], [2, 7], [0, 8], [7, 8]]

    def test_partial_k_keeps_its_stars(self, demo):
        partial = replace(demo, K=SparsityPattern(3, 2, frozenset({(0, 1), (2, 0)})))
        g = build_bipartite(partial)
        assert not g.hub
        assert restricted_rows(g, None)[1][4:7] == [[8, 4], [5], [7, 6]]
        assert sorted(g.ek) == [(7, 6), (8, 4)]

    def test_successor_tables_sorted(self, demo):
        # the rows, less an input's or output's own id, are sorted in-neighbour lists
        g = build_bipartite(demo)
        rows = [[v for v in row if v != g.size] for row in restricted_rows(g, None)[1][: g.size]]
        for v, row in enumerate(rows):
            body = row if v < g.n else row[:-1]
            assert body == sorted(body)
            assert v < g.n or row[-1] == v
        stars = len(demo.A.stars) + len(demo.B.stars) + len(demo.C.stars)
        assert sum(map(len, rows)) == stars + g.m + g.p

    @given(varied_systems_with_selection())
    def test_restricted_rows_are_the_in_neighbours(self, case):
        # each row is checked against D(A, B, C, K) built straight from the
        # stars: a state's row, or a kept channel's row less its own id, is
        # its in-neighbours, ascending, with the hub standing for a complete
        # K; an unselected channel keeps only its own id
        system, sel = case
        g = build_bipartite(system)
        n, out0, size = g.n, g.n + g.m, g.size
        into: list[list[int]] = [[] for _ in range(size)]
        for s, d in oracles.system_edges(system):
            if not (g.hub and n <= d < out0):
                into[d].append(s)
        if g.hub:
            for u in range(n, out0):
                into[u].append(size)
        full = Selection.full(system) if sel is None else sel
        kept = [True] * n + [i in full.inputs for i in range(g.m)] + [j in full.outputs for j in range(g.p)]
        keep, rows = restricted_rows(g, sel)
        assert keep == kept + [True]
        assert len(rows) == size + g.hub
        for v in range(size):
            if v < n:
                assert rows[v] == sorted(into[v])
            else:
                assert rows[v] == (sorted(into[v]) + [v] if kept[v] else [v])
        if g.hub:
            assert rows[size] == [y for y in range(out0, size) if kept[y]]


class TestScc:
    def test_demo_decomposition(self, demo):
        scc = decompose_sccs(build_bipartite(demo))
        assert scc.components == ((0,), (1,), (2,), (3,))
        assert scc.component_of == (0, 1, 2, 3)
        assert scc.dag_edges == frozenset({(1, 0), (0, 2), (1, 2), (3, 2)})
        assert scc.non_top == (1, 3)
        assert scc.non_bottom == (2,)
        assert scc.q == 2 and scc.k == 1

    def test_single_cycle_is_irreducible(self):
        sys_ = make_system(3, 1, 1, [[2, 1], [3, 2], [1, 3]], [[1, 1]], [[1, 1]])
        scc = decompose_sccs(build_bipartite(sys_))
        assert scc.components == ((0, 1, 2),)
        assert scc.q == scc.k == 1
        assert scc.non_top == scc.non_bottom == (0,)

    def test_diagonal_states_all_isolated(self):
        sys_ = make_system(3, 3, 3, [[1, 1], [2, 2], [3, 3]],
                           [[1, 1], [2, 2], [3, 3]], [[1, 1], [2, 2], [3, 3]])
        scc = decompose_sccs(build_bipartite(sys_))
        assert len(scc.components) == 3
        assert scc.non_top == scc.non_bottom == (0, 1, 2)

    @given(varied_systems(max_n=8))
    def test_partition_matches_reference(self, system):
        scc = decompose_sccs(build_bipartite(system))
        assert {frozenset(c) for c in scc.components} == oracles.scc_partition(
            system.n, state_edges(system)
        )

    @given(varied_systems(max_n=8))
    def test_condensation_matches_networkx(self, system):
        # D(A) from the raw stars, condensed by networkx and numbered by
        # smallest member: the SCCs found on the transpose must give the
        # condensation of D(A) itself, edges pointing the same way
        g = nx.DiGraph(state_edges(system))
        g.add_nodes_from(range(system.n))
        cond = nx.condensation(g)
        order = sorted(cond, key=lambda c: min(cond.nodes[c]["members"]))
        pos = {c: k for k, c in enumerate(order)}
        scc = decompose_sccs(build_bipartite(system))
        assert scc.components == tuple(tuple(sorted(cond.nodes[c]["members"])) for c in order)
        assert scc.dag_edges == frozenset((pos[a], pos[b]) for a, b in cond.edges)
        assert scc.non_top == tuple(sorted(pos[c] for c in cond if cond.in_degree(c) == 0))
        assert scc.non_bottom == tuple(sorted(pos[c] for c in cond if cond.out_degree(c) == 0))

    @given(systems(max_n=8))
    def test_component_numbering_and_dag(self, system):
        scc = decompose_sccs(build_bipartite(system))
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


@st.composite
def successor_rows(draw, max_n=12):
    """Rows of any iterables, as ``_tarjan`` accepts them: lists with
    self-loops and repeated successors, empty tuples and ranges."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return []
    vertex = st.integers(0, n - 1)
    ranges = st.tuples(vertex, vertex).map(lambda ab: range(min(ab), max(ab) + 1))
    return [draw(st.lists(vertex, max_size=5) | st.just(()) | ranges) for _ in range(n)]


class TestTarjan:
    @given(successor_rows())
    def test_components_are_networkx_sccs_numbered_by_smallest_vertex(self, rows):
        comps, comp_of = _tarjan(len(rows), rows)
        g = nx.DiGraph((v, w) for v, row in enumerate(rows) for w in row)
        g.add_nodes_from(range(len(rows)))
        # equal to networkx's SCCs, each ascending, ordered by smallest vertex
        assert comps == sorted(sorted(c) for c in nx.strongly_connected_components(g))
        assert comp_of == [ci for v in range(len(rows)) for ci, comp in enumerate(comps) if v in comp]

    def test_long_cycle_and_path_at_default_recursion_limit(self):
        n = 50_000
        limit = sys.getrecursionlimit()
        comps, comp_of = _tarjan(n, [[(v + 1) % n] for v in range(n)])
        assert comps == [list(range(n))] and comp_of == [0] * n
        comps, comp_of = _tarjan(n, [[v + 1] for v in range(n - 1)] + [()])
        assert comps == [[v] for v in range(n)] and comp_of == list(range(n))
        assert sys.getrecursionlimit() == limit


class TestCoverage:
    def test_demo_tables(self, demo):
        accessibility, sensability = compile_system(demo).covers
        assert accessibility.sets == (frozenset(), frozenset({0}), frozenset({0, 1}))
        assert sensability.sets == (frozenset({0}), frozenset())
        assert tuple(map(len, accessibility.sets)) == (0, 1, 2)
        assert tuple(map(len, sensability.sets)) == (1, 0)

    def test_empty_tables(self):
        # a system without outputs has a sensability cover without sets
        system = make_system(1, 1, 0, [(1, 1)], [(1, 1)], [])
        sensability = compile_system(system).covers[1]
        assert sensability.sets == ()
        assert max(map(len, sensability.sets), default=0) == 0

    @given(systems(max_n=7))
    def test_bounds(self, system):
        compiled = compile_system(system)
        accessibility, sensability = compiled.covers
        assert accessibility.universe_size == compiled.scc.q
        assert sensability.universe_size == compiled.scc.k
        assert all(len(s) <= compiled.scc.q for s in accessibility.sets)
        assert all(len(s) <= compiled.scc.k for s in sensability.sets)

    @given(systems(max_n=8, max_m=4, max_p=4))
    def test_sets_match_reference(self, system):
        # each cover's sets straight from the SCC pass, against networkx's
        # SCCs and condensation ends, numbered by smallest state: input i
        # covers non-top S iff a star (s, i) of B has s in S, and output j
        # covers non-bottom S iff a star (j, s) of C has s in S
        edges = state_edges(system)
        sccs = sorted(oracles.scc_partition(system.n, edges), key=min)
        tops, bottoms = ([c for c in sccs if c in ends] for ends in oracles.condensation_ends(system.n, edges))

        def sets(universe, stars, r):
            return tuple(
                frozenset(t for t, comp in enumerate(universe) if any(s in comp for s in stars[i]))
                for i in range(r)
            )

        feeds = [{s for s, i in system.B.stars if i == u} for u in range(system.m)]
        reads = [{s for j, s in system.C.stars if j == y} for y in range(system.p)]
        accessibility, sensability = compile_system(system).covers
        assert accessibility.sets == sets(tops, feeds, system.m)
        assert sensability.sets == sets(bottoms, reads, system.p)
        assert (accessibility.weights, sensability.weights) == (system.cost_u, system.cost_y)


def covers_all(system, sel):
    """The pipeline's reachability criterion: (every non-top SCC is covered
    by a selected input, every non-bottom SCC by a selected output)."""
    compiled = compile_system(system)
    accessibility, sensability = compiled.covers
    reached = set().union(*(accessibility.sets[i] for i in sel.inputs))
    sensed = set().union(*(sensability.sets[j] for j in sel.outputs))
    return len(reached) == compiled.scc.q, len(sensed) == compiled.scc.k


class TestReachability:
    def test_demo_full(self, demo):
        assert covers_all(demo, Selection.full(demo)) == (True, True)

    def test_demo_restricted(self, demo):
        assert covers_all(demo, Selection([2], []))[0]  # u3 reaches everything
        assert not covers_all(demo, Selection([1], []))[0]  # x4 unreachable
        assert covers_all(demo, Selection([], [0]))[1]  # everything flows to y1
        assert not covers_all(demo, Selection([], [1]))[1]  # x3 has no path out

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
        system, sel = case
        dual_sel = Selection(inputs=sel.outputs)
        assert covers_all(system, sel)[1] == covers_all(oracles.transpose_dual(system), dual_sel)[0]


class TestConditionA:
    def test_demo_cases(self, demo):
        dg = build_bipartite(demo)
        assert condition_a_holds(dg, Selection.full(demo))
        # u3 with y1 closes a loop through every state
        assert condition_a_holds(dg, Selection([2], [0]))
        # y2 reads x1 only; x3, x4 stay outside any feedback loop
        assert not condition_a_holds(dg, Selection([2], [1]))

    def test_witness_structure(self, demo):
        w = condition_a_witness(build_bipartite(demo), Selection.full(demo))
        assert set(w) == {"x1", "x2", "x3", "x4"}
        for info in w.values():
            assert info["feedback_edge"] == ["y1", "u1"]
            assert "x3" in info["scc"]

    def test_witness_marks_failing_states(self, demo):
        w = condition_a_witness(build_bipartite(demo), Selection([2], [1]))
        failing = {s for s, info in w.items() if info["feedback_edge"] is None}
        assert failing == {"x3", "x4"}
        # x1 does close a loop: x1 -> y2 -> u3 -> x1
        assert w["x1"]["feedback_edge"] == ["y2", "u3"]

    @given(systems_with_selection(max_n=6))
    def test_matches_reference(self, case):
        system, sel = case
        assert condition_a_holds(build_bipartite(system), sel) == oracles.condition_a(system, sel)

    @given(systems_with_selection(max_n=6))
    def test_witness_agrees_with_predicate(self, case):
        system, sel = case
        dg = build_bipartite(system)
        w = condition_a_witness(dg, sel)
        assert condition_a_holds(dg, sel) == all(
            info["feedback_edge"] is not None for info in w.values()
        )


class TestDumps:
    def test_system_digraph_format(self, demo):
        text = dump_system_digraph(build_bipartite(demo))
        lines = text.strip().splitlines()
        assert len(lines) == 7 + 7 + 2 + 6
        assert all(len(line.split()) == 3 for line in lines)
        assert "x2 x1 EX" in lines
        assert "u3 x4 EU" in lines
        assert "y1 u1 EK" in lines

    def test_condensation_format(self, demo):
        text = dump_condensation(decompose_sccs(build_bipartite(demo)))
        assert "# scc1 = x1" in text
        assert "scc2 scc1 cond" in text

    @given(systems(max_n=5))
    def test_dump_deterministic(self, system):
        dg = build_bipartite(system)
        assert dump_system_digraph(dg) == dump_system_digraph(dg)

    @given(varied_systems_with_selection())
    def test_system_digraph_lists_the_raw_stars(self, case):
        # every edge of D(A, B, C, K) among the kept vertices, with its
        # class, a complete K star by star, each once
        system, sel = case
        n, m = system.n, system.m
        expected = sorted(
            f"{vertex_name(s, n, m)} {vertex_name(d, n, m)} {cls}"
            for s, d, cls in oracles.system_edges(system, sel, classes=True)
        )
        lines = dump_system_digraph(build_bipartite(system), sel).splitlines()
        assert sorted(lines) == expected
        assert len(set(lines)) == len(lines)
