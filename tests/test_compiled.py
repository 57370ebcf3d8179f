"""The compiled analysis of a system, checked against the oracles in
``oracles.py`` on every selection of small random systems.

Condition (a) is decided on the inputs' and outputs' covers, condition
(b) on B(A, B, C, K) of the full system with the unselected inputs and
outputs masked.  The generators favour what those two must get right:
states on isolated SCCs (both non-top and non-bottom), zero costs, and
explicit K patterns, complete (the covers) and partial (the SCC test on the
masked system digraph), including partial blocks that a selection cuts down
to a complete one.  Every selection is tested, so the empty, one-sided and
full ones always are.  The witnesses of failed selections, read off the same
masked graphs, are checked against the system restricted to the selection.
"""

import itertools
import signal
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from conftest import hall_ids
from test_graph_core import varied_systems_with_selection
from ioselect.graph_core import condition_a_witness, vertex_name
from ioselect.matching import has_perfect_matching, min_cost_perfect_matching
from ioselect.oracle_bench import exact_select
from ioselect.selector import SfmStatus, SystemHasSFMs, check_no_sfm, compile_system, select_min_cost_io
from ioselect.system_model import (
    COMPLETE,
    ModelError,
    Selection,
    SparsityPattern,
    StructuredSystem,
    parse_cost,
)

MODES = ["continuous", "discrete"]


def _stars(draw, rows, cols):
    cells = list(itertools.product(range(rows), range(cols)))
    return draw(st.frozensets(st.sampled_from(cells))) if cells else frozenset()


@st.composite
def small_systems(draw, mode, kinds=("complete", "explicit complete", "partial", "partial")):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    p = draw(st.integers(0, 3))
    # states in ``lonely`` keep at most a self-loop: each is an isolated SCC
    lonely = draw(st.frozensets(st.integers(0, n - 1)))
    a = frozenset(
        (i, j) for i, j in _stars(draw, n, n) if i == j or not {i, j} & lonely
    )
    kind = draw(st.sampled_from(kinds))
    if kind == "complete":
        k = COMPLETE
    elif kind == "explicit complete":
        k = SparsityPattern(m, p, frozenset(itertools.product(range(m), range(p))))
    else:
        k = SparsityPattern(m, p, _stars(draw, m, p))
    costs = st.sampled_from(["0", "0", "1", "2", "5"])
    return StructuredSystem(
        A=SparsityPattern(n, n, a),
        B=SparsityPattern(n, m, _stars(draw, n, m)),
        C=SparsityPattern(p, n, _stars(draw, p, n)),
        K=k,
        cost_u=tuple(parse_cost(draw(costs)) for _ in range(m)),
        cost_y=tuple(parse_cost(draw(costs)) for _ in range(p)),
        mode=mode,
    )


def _all_selections(system):
    for inputs in itertools.product([False, True], repeat=system.m):
        for outputs in itertools.product([False, True], repeat=system.p):
            yield Selection(
                [i for i, on in enumerate(inputs) if on], [j for j, on in enumerate(outputs) if on]
            )


def _key(sel, cost):
    return cost, sel.sorted_inputs(), sel.sorted_outputs()


@pytest.mark.parametrize("mode", MODES)
class TestStatus:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_every_selection_matches_oracles(self, mode, data):
        system = data.draw(small_systems(mode))
        compiled = compile_system(system)
        for sel in _all_selections(system):
            cond_a = oracles.condition_a(system, sel)
            status, _witness = compiled.decide(sel)
            assert compiled.condition_a(sel) == cond_a
            assert check_no_sfm(compiled, sel).ok == status.ok == oracles.no_sfm(system, sel)
            assert (status in (SfmStatus.TYPE1, SfmStatus.BOTH)) == (not cond_a)
            if mode == "discrete":
                assert status in (SfmStatus.NO_SFM, SfmStatus.TYPE1)
                continue
            cond_b = oracles.spanning_disjoint_cycles(system, sel)
            assert has_perfect_matching(compiled.graph, sel) == cond_b
            assert (status in (SfmStatus.TYPE2, SfmStatus.BOTH)) == (not cond_b)


def _check_type1(system, compiled, sel, type1_states):
    """Each state's SCC and smallest feedback edge in the witness, and the
    Type-1 states, are those of the expanded restricted digraph."""
    n, m = system.n, system.m
    cert = condition_a_witness(compiled.graph, sel)
    uncovered = []
    for scc, edge in oracles.feedback_sccs(system, sel):
        names = None if edge is None else [vertex_name(v, n, m) for v in edge]
        labels = [vertex_name(v, n, m) for v in sorted(scc)]
        for v in scc:
            if v < n:
                assert cert[vertex_name(v, n, m)] == {"scc": labels, "feedback_edge": names}
                if edge is None:
                    uncovered.append(v)
    assert type1_states == [vertex_name(v, n, m) for v in sorted(uncovered)]


def _check_hall(system, compiled, sel, violator):
    """The violator, and ``hall_ids``, are exactly the restricted
    graph's Dulmage-Mendelsohn set (``oracles.hall_set``) under the full
    system's ids: the same for every largest matching, so whichever one
    the package found."""
    n, m = system.n, system.m
    left, right = oracles.hall_set(system, sel)
    assert hall_ids(compiled.graph, sel) == (left, right)
    assert violator == {
        "left": [vertex_name(v, n, m) + "'" for v in left],
        "neighbors": [vertex_name(v, n, m) for v in right],
    }


class TestDecide:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_status_and_hall_set_match_oracles(self, data):
        # both K kinds (the token, all stars, partial) and both modes: the
        # status is the oracles' two conditions, and the Hall violator is
        # the restricted graph's Dulmage-Mendelsohn set
        system, sel = data.draw(varied_systems_with_selection())
        system = replace(system, mode=data.draw(st.sampled_from(MODES)))
        sel = Selection.full(system) if sel is None else sel
        status, witness = compile_system(system).decide(sel)
        cond_a = oracles.condition_a(system, sel)
        cond_b = system.mode == "discrete" or oracles.spanning_disjoint_cycles(system, sel)
        hall = None if system.mode == "discrete" else oracles.hall_set(system, sel)
        assert (hall is None) == cond_b
        assert (status in (SfmStatus.TYPE1, SfmStatus.BOTH)) == (not cond_a) == ("type1_states" in witness)
        assert (status in (SfmStatus.TYPE2, SfmStatus.BOTH)) == (not cond_b)
        n, m = system.n, system.m
        assert witness.get("hall_violator") == (hall and {
            "left": [vertex_name(v, n, m) + "'" for v in hall[0]],
            "neighbors": [vertex_name(v, n, m) for v in hall[1]],
        })


class TestWitness:
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=100)
    @given(data=st.data())
    def test_failed_selections_match_restricted_system(self, mode, data):
        system = data.draw(small_systems(mode))
        compiled = compile_system(system)
        for sel in _all_selections(system):
            status, witness = compiled.decide(sel)
            if status.ok:
                assert witness == {}
                continue
            if status in (SfmStatus.TYPE1, SfmStatus.BOTH):
                _check_type1(system, compiled, sel, witness["type1_states"])
            if status in (SfmStatus.TYPE2, SfmStatus.BOTH):
                _check_hall(system, compiled, sel, witness["hall_violator"])
        # a failing select reads its Hall set off stage 3's cost-ordered matching
        full = Selection.full(system)
        if mode == "continuous" and system.k_is_complete() and not has_perfect_matching(compiled.graph, full):
            with pytest.raises(SystemHasSFMs) as exc:
                select_min_cost_io(compiled)
            _check_hall(system, compiled, full, exc.value.witness["hall_violator"])


def test_unselected_input_keeps_only_its_own_edge():
    # x1 is fed only by u1, and u1 reaches y1 only through its star in a
    # partial K.  Without u1, x1 lies on no cycle; a flow that let the
    # unselected u1' keep its K edge would close x1 -> y1 -> u1 -> x1.
    system = StructuredSystem(
        A=SparsityPattern(1, 1, frozenset()),
        B=SparsityPattern(1, 2, frozenset({(0, 0)})),
        C=SparsityPattern(1, 1, frozenset({(0, 0)})),
        K=SparsityPattern(2, 1, frozenset({(0, 0)})),
        cost_u=(0, 0),
        cost_y=(0,),
    )
    compiled = compile_system(system)
    assert has_perfect_matching(compiled.graph, Selection.full(system))
    assert not has_perfect_matching(compiled.graph, Selection([1], [0]))
    assert not oracles.spanning_disjoint_cycles(system, Selection([1], [0]))


@pytest.mark.parametrize(
    "sel,message",
    [
        (Selection([-1], []), "input index 0 out of range 1..3"),
        (Selection([], [-1]), "output index 0 out of range 1..2"),
        (Selection([0, 3], [0]), "input index 4 out of range 1..3"),
    ],
)
@pytest.mark.parametrize("condition", ["condition_a", "check_no_sfm"])
def test_index_out_of_range_raises(demo, condition, sel, message):
    # a negative index must not wrap around to the last channel, nor send
    # condition (b)'s search into a loop: the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError(f"{condition} did not return")

    compiled = compile_system(demo)
    check = compiled.condition_a if condition == "condition_a" else lambda s: check_no_sfm(compiled, s)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(IndexError) as exc:
            check(sel)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "refuse",
    [
        select_min_cost_io,
        lambda s: exact_select(select_min_cost_io(s)),
        lambda s: min_cost_perfect_matching(compile_system(s).graph),
    ],
    ids=["select", "exact_select", "min_cost_perfect_matching"],
)
def test_partial_k_refused_alike(demo, refuse):
    system = replace(demo, K=SparsityPattern(demo.m, demo.p, frozenset({(0, 0)})))
    with pytest.raises(ModelError, match="^selection requires a complete feedback pattern$"):
        refuse(system)


class TestExactSearch:
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_exact_select_matches_reference(self, mode, data):
        system = data.draw(small_systems(mode))
        # select refuses a partial K and a full selection with fixed
        # modes, before any exact search
        if not system.k_is_complete():
            with pytest.raises(ModelError, match="^selection requires a complete feedback pattern$"):
                select_min_cost_io(system)
            return
        if not oracles.no_sfm(system, Selection.full(system)):
            with pytest.raises(SystemHasSFMs):
                select_min_cost_io(system)
            return
        assert _key(*exact_select(select_min_cost_io(system))) == oracles.best_selection(system)


class TestCompleteKSplit:
    """With a complete K and the full selection free of fixed modes, (I, J)
    is free of them exactly when (I, all outputs) and (all inputs, J) are:
    the split :func:`exact_select` searches by."""

    @staticmethod
    def _split(compiled, sel):
        full = Selection.full(compiled.system)
        return (
            check_no_sfm(compiled, Selection(sel.inputs, full.outputs)).ok
            and check_no_sfm(compiled, Selection(full.inputs, sel.outputs)).ok
        )

    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_split_equals_the_oracle(self, mode, data):
        system = data.draw(small_systems(mode, kinds=("complete", "explicit complete")))
        if not oracles.no_sfm(system, Selection.full(system)):
            return
        compiled = compile_system(system)
        for sel in _all_selections(system):
            assert self._split(compiled, sel) == oracles.no_sfm(system, sel)

    def test_partial_k_does_not_split(self):
        # x1 is fed by u1 and u2 and read by y1 and y2; K pairs u1 with y1
        # and u2 with y2.  ({u1}, all) and (all, {y2}) each close a cycle
        # through x1, but ({u1}, {y2}) has no K edge to close one with.
        system = StructuredSystem(
            A=SparsityPattern(1, 1, frozenset()),
            B=SparsityPattern(1, 2, frozenset({(0, 0), (0, 1)})),
            C=SparsityPattern(2, 1, frozenset({(0, 0), (1, 0)})),
            K=SparsityPattern(2, 2, frozenset({(0, 0), (1, 1)})),
            cost_u=(parse_cost("1"), parse_cost("2")),
            cost_y=(parse_cost("2"), parse_cost("1")),
        )
        compiled = compile_system(system)
        pair = Selection([0], [1])
        assert self._split(compiled, pair)
        assert not oracles.no_sfm(system, pair)
        # the split's pick would cost 2, where the true optimum is two pairs
        # of cost 3; selection, which every exact search starts from,
        # refuses a partial K
        assert oracles.best_selection(system) == (parse_cost("3"), (0,), (0,))
        with pytest.raises(ModelError, match="^selection requires a complete feedback pattern$"):
            select_min_cost_io(system)
