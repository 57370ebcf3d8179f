from dataclasses import replace

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from conftest import hall_ids, make_system, matching_cost, systems, systems_with_selection
from ioselect.graph_core import (
    EDGE_EK,
    EDGE_EU,
    EDGE_EUU,
    EDGE_EX,
    EDGE_EY,
    EDGE_EYY,
    SystemGraph,
    _augment,
    _hopcroft_karp,
    _maximum_matching,
    _path,
)
from ioselect.matching import (
    NoPerfectMatching,
    build_bipartite,
    cycle_cover_check,
    dump_matching,
    extract_io,
    hall_set,
    has_perfect_matching,
    min_cost_perfect_matching,
    state_pattern_has_pm,
)
from ioselect.system_model import (
    COST_SCALE,
    InvariantViolated,
    Selection,
    SparsityPattern,
    restrict,
)
from test_hub import COMPLETE_KINDS, wide_systems

U = COST_SCALE


class TestBuild:
    def test_demo_edges(self, demo):
        g = build_bipartite(demo)
        assert (g.n, g.m, g.p, g.size) == (4, 3, 2, 9)
        by_class = {}
        for l, r in g.edges:
            if g.size not in (l, r):
                cls, cost = g.edge(l, r)
                by_class.setdefault(cls, []).append((l, r))
                assert cost == 0  # only an EK edge costs, and a hub has none
        assert sorted(by_class) == sorted([EDGE_EX, EDGE_EU, EDGE_EY, EDGE_EUU, EDGE_EYY])
        assert sorted(by_class[EDGE_EX]) == [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 3), (3, 3)]
        assert sorted(by_class[EDGE_EU]) == [(0, 4), (0, 6), (1, 5), (1, 6), (2, 4), (2, 5), (3, 6)]
        assert sorted(by_class[EDGE_EY]) == [(7, 2), (8, 0)]
        assert sorted(by_class[EDGE_EUU]) == [(4, 4), (5, 5), (6, 6)]
        assert sorted(by_class[EDGE_EYY]) == [(7, 7), (8, 8)]
        # the complete K is the hub 9: u'_i -> hub -> y_j
        assert sorted(e for e in g.edges if g.size in e) == [(4, 9), (5, 9), (6, 9), (9, 7), (9, 8)]
        assert len(g.edges) == 7 + 7 + 2 + 2 * (3 + 2)

    def test_feedback_costs(self):
        system = make_system(
            1, 2, 2, [(1, 1)], [(1, 1)], [(1, 1)], cost_u=["3", "5"], cost_y=["7", "11"]
        )
        g = build_bipartite(system)
        assert {e for e in g.edges if g.size in e} == {(1, 5), (2, 5), (5, 3), (5, 4)}
        # through the hub, a matched (u'_i, y_j) is an EK edge priced p_u(i) + p_y(j)
        assert g.edge(1, 4) == (EDGE_EK, 14 * U) and g.edge(2, 3) == (EDGE_EK, 12 * U)
        # an explicit partial K keeps one edge per star, priced the same way
        partial = replace(system, K=SparsityPattern(2, 2, frozenset({(0, 1), (1, 0)})))
        g = build_bipartite(partial)
        ek = {(l, r): g.edge(l, r)[1] for l, r in g.edges if g.edge(l, r)[0] == EDGE_EK}
        assert ek == {(1, 4): 14 * U, (2, 3): 12 * U}
        assert all(g.size not in e for e in g.edges)

    def test_left_adjacency_and_names(self, demo):
        g = build_bipartite(demo)
        assert g.left_name(0) == "x1'"
        assert g.left_name(4) == "u1'"
        assert g.right_name(7) == "y1"
        # every edge joins a left and a right vertex, except the hub's
        for l, r in g.edges:
            if l == g.size:
                assert g.n + g.m <= r < g.size
            elif r == g.size:
                assert g.n <= l < g.n + g.m
            else:
                assert 0 <= l < g.size and 0 <= r < g.size

    def test_side_2_rows_built_once_per_graph(self, demo, monkeypatch):
        # every condition (b) on one graph searches the same cached lists
        prop = SystemGraph.__dict__["rows_to_states"]
        original, built = prop.func, []
        monkeypatch.setattr(prop, "func", lambda g: built.append(1) or original(g))
        g = build_bipartite(demo)
        assert has_perfect_matching(g)
        assert has_perfect_matching(g, Selection([0], [0]))
        assert len(built) == 1
        assert g.rows_to_states == g.state_rows + [[], [], [], [2], [0]]


class TestPerfectMatching:
    def test_demo_has_pm(self, demo):
        assert has_perfect_matching(build_bipartite(demo))

    def test_isolated_state_has_none(self):
        system = make_system(2, 0, 0, [(1, 1)], [], [])
        assert not has_perfect_matching(build_bipartite(system))

    @given(systems_with_selection())
    def test_matches_cycle_criterion(self, pair):
        """Perfect matching iff disjoint cycles span all states."""
        system, sel = pair
        assert cycle_cover_check(system, sel) == oracles.spanning_disjoint_cycles(
            system, sel
        )

    @given(systems())
    def test_size_matches_reference(self, system):
        """The largest matching every check reads (with K complete and never
        expanded, the two sides' joined one) is a maximum matching of the
        expanded graph."""
        from ioselect.matching import _largest

        g = build_bipartite(system)
        match_l = _largest(g, None)
        matched = [(l, r) for l, r in enumerate(match_l) if r >= 0]
        pairs = oracles.bipartite_pairs(system)
        assert set(matched) <= set(pairs)
        assert len({r for _l, r in matched}) == len(matched)
        assert len(matched) == oracles.matching_size(g.size, g.size, pairs)


@st.composite
def square_adjacency(draw, max_n=40):
    """Adjacency lists of a bipartite graph with n left and n right
    vertices, n up to ``max_n``: rows of 0-6 distinct right vertices, in
    any order, so empty rows and empty columns come up."""
    n = draw(st.integers(0, max_n))
    row = st.lists(st.integers(0, n - 1), max_size=min(n, 6), unique=True) if n else st.just([])
    return draw(st.lists(row, min_size=n, max_size=n))


class TestMaximumMatching:
    @given(square_adjacency())
    @example([])
    @example([[], [], []])
    @example([[0, 1], [0]])  # first fit takes 0 for row 0; one path is left
    @example([[1], [0, 1], [1, 2]])  # column 0 is row 1's alone
    @example([[0, 1], [0, 1], [0, 1]])
    def test_size_and_partners_match_reference(self, adj):
        self._check(adj, *_maximum_matching(adj))
        # Hopcroft-Karp's phases, which finish a long run of passes, grow
        # the empty matching to a maximum one too
        match_l, match_r = [-1] * len(adj), [-1] * len(adj)
        _hopcroft_karp(adj, match_l, match_r, [0] * len(adj))
        self._check(adj, match_l, match_r)

    @staticmethod
    def _check(adj, match_l, match_r):
        n = len(adj)
        assert len(match_l) == len(match_r) == n
        for l, r in enumerate(match_l):
            assert r < 0 or (match_r[r] == l and r in adj[l])
        for r, l in enumerate(match_r):
            assert l < 0 or match_l[l] == r
        size = sum(r >= 0 for r in match_l)
        assert size == sum(l >= 0 for l in match_r)
        assert size == oracles.matching_size(n, n, [(l, r) for l, row in enumerate(adj) for r in row])

    @given(systems_with_selection(), st.data())
    def test_partial_k_largest_matches_reference(self, pair, data):
        """A partial K's largest matching, one _maximum_matching on the
        restricted rows, is a matching of the full graph as large as the
        restricted system's maximum one and one own edge per unselected
        channel, which has no other edge."""
        from ioselect.matching import _largest

        system, sel = pair
        stars = data.draw(st.frozensets(st.tuples(st.integers(0, system.m - 1), st.integers(0, system.p - 1))))
        assume(len(stars) < system.m * system.p)
        system = replace(system, K=SparsityPattern(system.m, system.p, stars))
        g = build_bipartite(system)
        assert not g.hub
        n, out0 = system.n, system.n + system.m
        kept = [n + i for i in sel.inputs] + [out0 + j for j in sel.outputs]
        unselected = set(range(n, g.size)) - set(kept)
        match_l = _largest(g, sel)
        matched = [(l, r) for l, r in enumerate(match_l) if r >= 0]
        assert set(matched) <= set(oracles.bipartite_pairs(system))
        assert len({r for _l, r in matched}) == len(matched)
        assert all(match_l[v] in (v, -1) for v in unselected)
        pairs = [(dst, src) for src, dst in oracles.system_edges(system, sel)] + [(v, v) for v in kept]
        assert len(matched) == oracles.matching_size(g.size, g.size, pairs) + len(unselected)

    @pytest.mark.parametrize(
        "nbr,mate_w,short,flipped",
        [
            # root 0 reaches free right 1 by one edge, and free right 2 by
            # three, 0 -> r0 = l1 -> r2, whose first edge it scans first
            ([[0, 1], [2], []], [1, -1, -1], 1, [1, 0, -1]),
            # five edges to right 4 through r0 = l1 and r2 = l3, which a
            # depth-first search from the last neighbour takes, and three
            # to right 3 through r1 = l2
            ([[1, 0], [2], [3], [4], []], [1, 2, 3, -1, -1], 3, [1, 0, 3, 2, -1]),
        ],
        ids=["one_or_three", "three_or_five"],
    )
    def test_path_flips_a_shortest_augmenting_path(self, nbr, mate_w, short, flipped):
        size = len(nbr)
        mate_s = [-1] * size
        for w, s in enumerate(mate_w):
            if s >= 0:
                mate_s[s] = w
        parent = [0] * size
        assert _path(0, nbr, mate_w, [False] * size, parent, []) == short
        _augment(short, parent, mate_s, mate_w)
        assert mate_w == flipped
        assert all(mate_s[s] == w for w, s in enumerate(mate_w) if s >= 0)


class TestHallWitness:
    def test_isolated_state(self):
        system = make_system(2, 0, 0, [(1, 1)], [], [])
        g = build_bipartite(system)
        assert hall_ids(g) == ((1,), ())
        hall = hall_set(g)
        assert (hall.left_labels, hall.right_labels) == (("x2'",), ())
        assert str(hall) == "no perfect matching: {x2'} has only neighbors {}"

    def test_none_when_perfect(self, demo):
        g = build_bipartite(demo)
        assert hall_set(g) is None
        assert hall_set(g, Selection([2], [0])) is None

    def test_refuses_a_matching_that_is_not_largest(self, demo):
        # stage 3's perfect matching with the partner of right vertex 0
        # freed: the free left vertex reaches 0, the only free right vertex,
        # so the matching is not largest and no Hall set exists
        from ioselect.graph_core import restricted_rows
        from ioselect.matching import _hall

        g = build_bipartite(demo)
        partners = list(min_cost_perfect_matching(g))
        partners[partners.index(0)] = -1
        with pytest.raises(InvariantViolated, match="not largest"):
            _hall(g, *restricted_rows(g, None), partners)

    @given(systems(max_n=5))
    def test_witness_is_deficient_neighborhood(self, system):
        g = build_bipartite(system)
        if has_perfect_matching(g):
            return
        left, right = hall_ids(g)
        assert len(left) > len(right)
        pairs = oracles.bipartite_pairs(system)
        assert {r for l, r in pairs if l in left} == set(right)


class TestMinCost:
    def test_demo(self, demo):
        g = build_bipartite(demo)
        partners = min_cost_perfect_matching(g)
        # perfect: every left and every right vertex exactly once
        assert len(partners) == 9 and sorted(partners) == list(range(9))
        assert matching_cost(g, partners) == 2 * U
        # x3' -> u1, u1' -> y1 and y1' -> x3; the other states on their
        # self-loops and the other channels on their own edges
        assert partners == (0, 1, 4, 3, 7, 5, 6, 2, 8)
        assert [g.edge(l, r)[0] for l, r in enumerate(partners)] == [
            EDGE_EX, EDGE_EX, EDGE_EU, EDGE_EX, EDGE_EK, EDGE_EUU, EDGE_EUU, EDGE_EY, EDGE_EYY,
        ]
        sel, cost = extract_io(g, partners)
        assert sel == Selection([0], [0])
        assert cost == 2 * U

    def test_forced_chain(self):
        # only cycle is u1 -> x1 -> x2 -> y1 -> u1
        system = make_system(
            2, 1, 1, [(2, 1)], [(1, 1)], [(1, 2)], cost_u=["0"], cost_y=["0"]
        )
        g = build_bipartite(system)
        partners = min_cost_perfect_matching(g)
        assert [(l, r, g.edge(l, r)[0]) for l, r in enumerate(partners)] == [
            (0, 2, EDGE_EU),
            (1, 0, EDGE_EX),
            (2, 3, EDGE_EK),
            (3, 1, EDGE_EY),
        ]
        sel, cost = extract_io(g, partners)
        assert sel == Selection([0], [0])
        assert cost == 0

    def test_prefers_fewer_feedback_edges_at_equal_cost(self):
        # zero costs: the self-loop family and the feedback cycle both cost
        # 0, but the former uses no feedback edge
        system = make_system(
            1, 1, 1, [(1, 1)], [(1, 1)], [(1, 1)], cost_u=["0"], cost_y=["0"]
        )
        g = build_bipartite(system)
        partners = min_cost_perfect_matching(g)
        assert all(g.edge(l, r)[0] != EDGE_EK for l, r in enumerate(partners))
        sel, cost = extract_io(g, partners)
        assert sel == Selection([], [])
        assert cost == 0

    def test_prefers_low_input_index_at_equal_cost(self):
        system = make_system(
            1, 2, 1, [], [(1, 1), (1, 2)], [(1, 1)], cost_u=["1", "1"], cost_y=["1"]
        )
        g = build_bipartite(system)
        sel, cost = extract_io(g, min_cost_perfect_matching(g))
        assert sel == Selection([0], [0])
        assert cost == 2 * U

    def test_prefers_low_output_index_at_equal_cost(self):
        system = make_system(
            1, 1, 2, [], [(1, 1)], [(1, 1), (2, 1)], cost_u=["1"], cost_y=["1", "1"]
        )
        g = build_bipartite(system)
        sel, cost = extract_io(g, min_cost_perfect_matching(g))
        assert sel == Selection([0], [0])

    def test_cost_beats_tie_break(self):
        # u2 is strictly cheaper, so the index preference must lose
        system = make_system(
            1, 2, 1, [], [(1, 1), (1, 2)], [(1, 1)], cost_u=["3", "1"], cost_y=["0"]
        )
        g = build_bipartite(system)
        sel, cost = extract_io(g, min_cost_perfect_matching(g))
        assert sel == Selection([1], [0])
        assert cost == 1 * U

    def test_raises_with_hall_witness(self):
        system = make_system(2, 0, 0, [(1, 1)], [], [])
        with pytest.raises(NoPerfectMatching) as exc:
            min_cost_perfect_matching(build_bipartite(system))
        assert exc.value.left_labels == ("x2'",)
        assert exc.value.right_labels == ()
        assert "x2'" in str(exc.value)

    @given(systems())
    def test_optimal_cost(self, system):
        """Minimum matching cost equals the cheapest spanning cycle family."""
        g = build_bipartite(system)
        ref = oracles.min_cycle_family_cost(system)
        if ref is None:
            assert not has_perfect_matching(g)
            with pytest.raises(NoPerfectMatching):
                min_cost_perfect_matching(g)
            return
        partners = min_cost_perfect_matching(g)
        assert matching_cost(g, partners) == ref
        sel, cost = extract_io(g, partners)
        assert cost == ref
        # the extracted selection really does admit a spanning cycle family
        assert oracles.spanning_disjoint_cycles(system, sel)

    def test_extract_checks_feedback_bijection(self):
        # x1' -> u1 uses input 1, but no feedback edge leaves u1'
        g = build_bipartite(make_system(1, 1, 0, [], [(1, 1)], []))
        with pytest.raises(InvariantViolated, match="bijection"):
            extract_io(g, (1, 0))


class TestJoin:
    @given(wide_systems(kinds=COMPLETE_KINDS))
    def test_join_of_the_greedy_sides(self, system):
        """Stage 3's matching is the Mendelsohn-Dulmage join of the two
        greedy sides: perfect, pairing the i-th kept input with the i-th
        kept output over K, and certified against the instance."""
        from ioselect.certify import certify_cycle_cover
        from ioselect.matching import _join, complete_side

        g = build_bipartite(system)
        n, out0 = g.n, g.n + g.m
        rows_to, inputs_kept = complete_side(g, 0, sorted(range(g.m), key=lambda i: g.cost_u[i]))
        states_from, outputs_kept = complete_side(g, 1, sorted(range(g.p), key=lambda j: g.cost_y[j]))
        if inputs_kept is None or outputs_kept is None:
            assert oracles.min_cycle_family_cost(system) is None
            return
        kept_in = sorted(n + i for i in inputs_kept)
        kept_out = sorted(out0 + j for j in outputs_kept)
        match_l = _join(g, rows_to, states_from)
        assert sorted(match_l) == list(range(g.size))  # one edge per left and per right vertex
        assert [(l, r) for l, r in enumerate(match_l) if n <= l < out0 and r >= out0] == list(zip(kept_in, kept_out))
        assert min_cost_perfect_matching(g) == tuple(match_l)
        sel, _cost = extract_io(g, match_l)
        assert sel == Selection([u - n for u in kept_in], [y - out0 for y in kept_out])
        assert certify_cycle_cover(system, sel, enumerate(match_l))


class TestCompleteSide:
    @given(systems_with_selection())
    def test_kept_channels_are_the_partner_lists(self, case):
        """Each side's kept channels, with the selected ones in index order
        and in (cost, index) order, are the channels on its partner list,
        kept in the order tried, and None exactly when the list holds a
        free vertex."""
        from ioselect.matching import complete_side

        system, sel = case
        g = build_bipartite(system)
        sides = [(sel.sorted_inputs(), g.cost_u, g.n), (sel.sorted_outputs(), g.cost_y, g.n + g.m)]
        for side, (chosen, costs, first) in enumerate(sides):
            for order in (chosen, sorted(chosen, key=costs.__getitem__)):
                partners, kept = complete_side(g, side, order)
                on_list = sorted(v - first for v in partners if v >= first)
                assert (kept is None) == (-1 in partners)
                if kept is not None:
                    assert sorted(kept) == on_list
                    assert kept == [c for c in order if c in on_list]


class TestStatePattern:
    def test_demo_states_alone_insufficient(self, demo):
        assert not state_pattern_has_pm(build_bipartite(demo))

    def test_cycle(self):
        system = make_system(3, 1, 1, [(2, 1), (3, 2), (1, 3)], [(1, 1)], [(1, 1)])
        assert state_pattern_has_pm(build_bipartite(system))

    def test_diagonal(self):
        system = make_system(2, 1, 1, [(1, 1), (2, 2)], [(1, 1)], [(1, 1)])
        assert state_pattern_has_pm(build_bipartite(system))

    def test_returns_the_matching(self):
        # x1 -> x2 -> x3 -> x1: each x'_i is matched to its one in-neighbour
        system = make_system(3, 1, 1, [(2, 1), (3, 2), (1, 3)], [(1, 1)], [(1, 1)])
        assert state_pattern_has_pm(build_bipartite(system)) == [2, 0, 1]

    @given(systems())
    def test_equivalent_to_empty_selection(self, system):
        match = state_pattern_has_pm(build_bipartite(system))
        assert (match is not None) == oracles.spanning_disjoint_cycles(
            system, Selection([], [])
        )
        if match is not None:  # a perfect matching of B(A): A_ij starred, each x_j once
            assert sorted(match) == list(range(system.n))
            assert all((i, j) in system.A.stars for i, j in enumerate(match))


class TestDump:
    def test_demo(self, demo):
        g = build_bipartite(demo)
        assert dump_matching(g, min_cost_perfect_matching(g)) == (
            "x1' x1 EX 0\n"
            "x2' x2 EX 0\n"
            "x3' u1 EU 0\n"
            "x4' x4 EX 0\n"
            "u1' y1 EK 2\n"
            "u2' u2 EUU 0\n"
            "u3' u3 EUU 0\n"
            "y1' x3 EY 0\n"
            "y2' y2 EYY 0\n"
        )

    def test_empty(self, demo):
        assert dump_matching(build_bipartite(demo), ()) == ""
