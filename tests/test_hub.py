"""The hub that stands for a complete feedback pattern, checked against the
oracles in ``oracles.py``, which expand K star by star.

The generators favour what the hub changes most: many more feedback pairs
than states (m*p >> n), selections empty on one side, zero costs, and
explicit K patterns, both complete (also a hub) and partial (kept as EK
edges).  The minimum-cost matching needs a hub, so its tests draw only
complete K.
"""

import itertools
import json
from dataclasses import replace

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

import oracles
from conftest import hall_ids, matching_cost
from ioselect import cli
from ioselect.graph_core import build_bipartite, condition_a_holds
from ioselect.matching import (
    NoPerfectMatching,
    build_bipartite,
    extract_io,
    has_perfect_matching,
    complete_side,
    min_cost_perfect_matching,
)
from ioselect.selector import (
    SfmStatus,
    check_no_sfm,
    compile_system,
    select_min_cost_io,
)
from ioselect.system_model import (
    COMPLETE,
    ModelError,
    Selection,
    SparsityPattern,
    StructuredSystem,
    parse_cost,
    restrict,
    system_to_json,
)


def _pattern(draw, rows, cols, max_stars):
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    stars = draw(st.frozensets(st.sampled_from(cells), max_size=max_stars)) if cells else frozenset()
    return SparsityPattern(rows, cols, stars)


KINDS = ("complete", "explicit complete", "partial")
COMPLETE_KINDS = KINDS[:2]


@st.composite
def wide_systems(draw, max_n=3, max_io=4, max_bc=4, kinds=KINDS):
    """Up to ``max_n`` states against up to ``max_io`` inputs and outputs.
    B and C get at most ``max_bc`` stars each; the defaults keep the
    oracles' cycle enumeration small.  K is drawn from ``kinds``."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_io))
    p = draw(st.integers(0, max_io))
    kind = draw(st.sampled_from(kinds))
    if kind == "complete":
        k = COMPLETE
    elif kind == "explicit complete":
        k = SparsityPattern(m, p, frozenset(itertools.product(range(m), range(p))))
    else:
        k = _pattern(draw, m, p, m * p)
    costs = st.sampled_from(["0", "0", "1", "2", "5"])
    return StructuredSystem(
        A=_pattern(draw, n, n, n * n),
        B=_pattern(draw, n, m, max_bc),
        C=_pattern(draw, p, n, max_bc),
        K=k,
        cost_u=tuple(parse_cost(draw(costs)) for _ in range(m)),
        cost_y=tuple(parse_cost(draw(costs)) for _ in range(p)),
    )


@st.composite
def lopsided_selections(draw, system):
    """Selections that are often empty (or full) on one side."""

    def side(count):
        return draw(
            st.one_of(
                st.just(frozenset()),
                st.just(frozenset(range(count))),
                st.frozensets(st.integers(0, count - 1)) if count else st.just(frozenset()),
            )
        )

    return Selection(side(system.m), side(system.p))


@st.composite
def systems_with_selection(draw):
    system = draw(wide_systems())
    return system, draw(lopsided_selections(system))


class TestConditions:
    @given(systems_with_selection())
    def test_check_matches_oracles(self, case):
        system, sel = case
        status = check_no_sfm(system, sel)
        cond_a = oracles.condition_a(system, sel)
        cond_b = oracles.spanning_disjoint_cycles(system, sel)
        assert condition_a_holds(build_bipartite(system), sel) == cond_a
        assert status.ok == oracles.no_sfm(system, sel)
        assert (status in (SfmStatus.TYPE1, SfmStatus.BOTH)) == (not cond_a)
        assert (status in (SfmStatus.TYPE2, SfmStatus.BOTH)) == (not cond_b)

    @given(systems_with_selection())
    def test_type1_states_are_the_uncovered_ones(self, case):
        system, sel = case
        status, witness = compile_system(system).decide(sel)
        if status in (SfmStatus.TYPE1, SfmStatus.BOTH):
            got = witness["type1_states"]
            assert got == [f"x{v + 1}" for v in _states_outside_feedback_sccs(system, sel)]


def _states_outside_feedback_sccs(system, sel):
    """States whose SCC holds no feedback edge, with K expanded."""
    n, m = system.n, system.m
    g = nx.DiGraph(oracles.system_edges(system, sel))
    g.add_nodes_from(range(n))
    k_edges = [
        (n + m + j, n + i)
        for i, j in oracles.k_stars(system)
        if i in sel.inputs and j in sel.outputs
    ]
    out = []
    for scc in nx.strongly_connected_components(g):
        if not any(a in scc and b in scc for a, b in k_edges):
            out += [v for v in scc if v < n]
    return sorted(out)


@st.composite
def complete_k_with_selection(draw):
    system = draw(wide_systems(max_n=6, max_io=5, max_bc=8, kinds=COMPLETE_KINDS))
    return system, draw(lopsided_selections(system))


class TestCompleteSide:
    @given(complete_k_with_selection())
    def test_each_side_against_a_matching(self, case):
        """Side 0 with inputs I completes iff the state rows match into the
        states and u_I over A and B; side 1 with outputs J iff the state rows
        and y'_J match onto the states over A and C.  Each side's partner
        list is a matching on those edges."""
        system, sel = case
        g = build_bipartite(system)
        n, out0 = system.n, system.n + system.m
        a = list(system.A.stars)  # (x'_i, x_j), and the channels under their vertex ids
        sides = [
            (out0, a + [(i, n + j) for i, j in system.B.stars if j in sel.inputs], sel.sorted_inputs()),
            (g.size, a + [(out0 + j, i) for j, i in system.C.stars if j in sel.outputs], sel.sorted_outputs()),
        ]
        for side, (others, pairs, chosen) in enumerate(sides):
            partners, kept = complete_side(g, side, chosen)
            complete = kept is not None
            shape = (n, others) if side == 0 else (others, n)
            assert complete == (oracles.matching_size(*shape, pairs) == n)
            edges = [(v, w) if side == 0 else (w, v) for v, w in enumerate(partners) if w >= 0]
            assert set(edges) <= set(pairs)
            assert len({w for v, w in enumerate(partners) if w >= 0}) == len(edges)
            assert complete == (-1 not in partners)


class TestHall:
    @given(systems_with_selection())
    def test_witness_is_a_hall_violator(self, case):
        system, sel = case
        sub = restrict(system, sel)
        g = build_bipartite(sub)
        pairs = oracles.bipartite_pairs(sub)
        largest = oracles.matching_size(g.size, g.size, pairs)
        assert has_perfect_matching(g) == (largest == g.size)
        if largest == g.size:
            return
        left, right = hall_ids(g)
        assert {r for l, r in pairs if l in left} == set(right)
        # the alternating-path set is maximally deficient: it accounts for
        # every vertex a maximum matching leaves free
        assert len(left) - len(right) == g.size - largest


def _cheapest_key(system):
    """Brute force over (I, J): the smallest (cost, |I|, input mask, output
    mask) whose inputs and outputs all lie on a spanning disjoint cycle
    family.  Those are the tie-break layers of the stage-3 matching."""
    best = None
    for imask in range(1 << system.m):
        inputs = [i for i in range(system.m) if imask >> i & 1]
        for jmask in range(1 << system.p):
            outputs = [j for j in range(system.p) if jmask >> j & 1]
            if len(inputs) != len(outputs):
                continue
            sel = Selection(inputs, outputs)
            cost = sum(system.cost_u[i] for i in inputs) + sum(system.cost_y[j] for j in outputs)
            key = (cost, len(inputs), imask, jmask)
            if best is not None and key >= best[0]:
                continue
            sub = restrict(system, sel)
            # no (u'_i, u_i) or (y'_j, y_j): every chosen input and output is used
            pairs = [(l, r) for l, r in oracles.bipartite_pairs(sub) if l != r or l < sub.n]
            if oracles.matching_size(sub.n + sub.m + sub.p, sub.n + sub.m + sub.p, pairs) == (
                sub.n + sub.m + sub.p
            ):
                best = (key, sel)
    return best


class TestMinCost:
    @given(wide_systems(kinds=COMPLETE_KINDS))
    def test_cost_matches_cheapest_family(self, system):
        g = build_bipartite(system)
        ref = oracles.min_cycle_family_cost(system)
        if ref is None:
            with pytest.raises(NoPerfectMatching):
                min_cost_perfect_matching(g)
            return
        partners = min_cost_perfect_matching(g)
        assert matching_cost(g, partners) == ref
        assert extract_io(g, partners)[1] == ref

    @settings(max_examples=60)
    @given(wide_systems(kinds=COMPLETE_KINDS))
    def test_tie_breaks_pick_the_documented_selection(self, system):
        best = _cheapest_key(system)
        g = build_bipartite(system)
        if best is None:
            assert not has_perfect_matching(g)
            return
        sel, cost = extract_io(g, min_cost_perfect_matching(g))
        assert (cost, sel) == (best[0][0], best[1])


    @settings(max_examples=150)
    @given(wide_systems(max_n=7, max_io=6, max_bc=14, kinds=COMPLETE_KINDS))
    def test_composite_weight_matches_network_simplex(self, system):
        """All layers at once: the matching's cost and tie-break weight is the
        minimum over perfect matchings of the expanded graph."""
        n, m, p = system.n, system.m, system.p
        cap = (min(m, p) + 1) << (m + p + 1)
        k_weight = {
            (n + i, n + m + j): (system.cost_u[i] + system.cost_y[j]) * cap
            + (1 << (m + p)) + (1 << (p + i)) + (1 << j)
            for i, j in oracles.k_stars(system)
        }
        pairs = [(l, r, k_weight.get((l, r), 0)) for l, r in oracles.bipartite_pairs(system)]
        ref = oracles.min_weight_perfect_matching(n + m + p, pairs)
        g = build_bipartite(system)
        if ref is None:
            assert not has_perfect_matching(g)
            return
        partners = min_cost_perfect_matching(g)
        sel, _cost = extract_io(g, partners)
        got = matching_cost(g, partners) * cap + len(sel.inputs) * (1 << (m + p))
        got += sum(1 << (p + i) for i in sel.inputs) + sum(1 << j for j in sel.outputs)
        assert got == ref

    def test_partial_k_is_refused(self, demo):
        # a partial K has no hub to price; with the one feedback edge
        # y1 -> u1 its graph still has a perfect matching for the unpriced
        # flow to find
        system = replace(demo, K=SparsityPattern(3, 2, frozenset({(0, 0)})))
        g = build_bipartite(system)
        assert not g.hub and has_perfect_matching(g)
        with pytest.raises(ModelError, match="complete feedback pattern"):
            min_cost_perfect_matching(g)


class TestNoExpansion:
    def test_select_and_check_never_list_k_stars(self, demo, tmp_path, capsys):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(system_to_json(demo)))

        # the one expansion of K into stars is oracles.k_stars, outside the package
        assert not hasattr(StructuredSystem, "k_stars")
        assert select_min_cost_io(demo).selection == Selection([0, 2], [0])
        assert cli.main(["select", str(path), "--trace"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["selection"]["inputs"] == [1, 3]
        assert cli.main(["check", str(path), "--inputs", "3", "--outputs", "2"]) == cli.EXIT_INFEASIBLE
        doc = json.loads(capsys.readouterr().out)
        assert doc["reason"] == "Type-1 and Type-2"
        assert doc["witness"]["type1_states"] == ["x3", "x4"]
        assert doc["witness"]["hall_violator"]["left"]
