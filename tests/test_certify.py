"""The final check of ``select`` and the certificate it verifies.

``select`` decides condition (b) of the full selection with stage 3's flow
(or the state-only matching) instead of a separate check, and checks its
final selection by handing a perfect matching to
:func:`ioselect.certify.certify_cycle_cover`.  Checked here on the
generators of ``test_compiled.py`` and ``test_hub.py``, with complete,
explicit-complete and partial K, in both modes:

* ``select`` fails exactly when ``check_no_sfm`` of the full selection
  does, with the same status and witness;
* the ``state_pm`` tag is the oracle's answer for the empty selection, and
  implies condition (b) for the full one;
* the certifier accepts every certificate that ``select`` hands it, and on
  every mutation of one agrees with an oracle that reads the matching
  straight off the expanded system digraph.
"""

import itertools
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from conftest import make_system
from ioselect import selector as selector_mod
from ioselect.certify import certify_cycle_cover
from ioselect.graph_core import _maximum_matching, restricted_rows
from ioselect.matching import NoPerfectMatching, extract_io, min_cost_perfect_matching
from ioselect.selector import (
    SystemHasSFMs,
    applicable_special_cases,
    check_no_sfm,
    compile_system,
    select_min_cost_io,
)
from ioselect.system_model import COMPLETE, ModelError, Selection, SparsityPattern
from test_compiled import small_systems
from test_hub import wide_systems

MODES = ["continuous", "discrete"]


def any_system(mode):
    return st.one_of(small_systems(mode), wide_systems().map(lambda s: replace(s, mode=mode)))


def _expected(system, sel, pairs):
    """The oracle's verdict: ``pairs`` saturate both sides once, and each is
    an edge (v', w) for an edge w -> v of the digraph restricted to ``sel``
    (K star by star) or a channel's own edge."""
    size = system.n + system.m + system.p
    lefts, rights = zip(*pairs) if pairs else ((), ())
    if sorted(lefts) != list(range(size)) or sorted(rights) != list(range(size)):
        return False
    allowed = {(dst, src) for src, dst in oracles.system_edges(system, sel)}
    allowed |= {(v, v) for v in range(system.n, size)}
    return all(pair in allowed for pair in pairs)


def _select_recording(system):
    """``select`` on ``system``, with each call of the final check recorded
    as ((system, sel, pairs), verdict), the pairs as a list."""
    calls = []

    def recording(system, sel, pairs):
        args = (system, sel, list(pairs))
        verdict = certify_cycle_cover(*args)
        calls.append((args, verdict))
        return verdict

    with mock.patch.object(selector_mod, "certify_cycle_cover", recording):
        return select_min_cost_io(system), calls


def _check_mutations(system, sel, pairs):
    """The certifier agrees with the oracle on ``pairs`` and on every
    mutation named in the module docstring; the mutations that break the
    certificate for sure are rejected."""
    n, size = system.n, len(pairs)
    assert certify_cycle_cover(system, sel, pairs) is True
    assert _expected(system, sel, pairs)
    assert oracles.spanning_disjoint_cycles(system, sel)
    for a, b in itertools.combinations(range(size), 2):
        (la, ra), (lb, rb) = pairs[a], pairs[b]
        # two pairs swap their right ends: the bijection stays, the edges may not
        swapped = list(pairs)
        swapped[a], swapped[b] = (la, rb), (lb, ra)
        verdict = certify_cycle_cover(system, sel, swapped)
        assert verdict == _expected(system, sel, swapped)
        for v in (la, lb):
            unselected = (n <= v < n + system.m and v - n not in sel.inputs) or (
                v >= n + system.m and v - n - system.m not in sel.outputs
            )
            if unselected:  # an unselected channel taken off its own edge
                assert verdict is False
        # a right vertex matched twice (and another one left free)
        duplicated = list(pairs)
        duplicated[a] = (la, rb)
        assert certify_cycle_cover(system, sel, duplicated) is False
    assert certify_cycle_cover(system, sel, pairs[:-1]) is False
    assert certify_cycle_cover(system, sel, pairs + pairs[:1]) is False
    own = {l for l, r in pairs if l == r}
    for i in sel.inputs:
        # dropping a selected input breaks the certificate exactly when the
        # matching takes it off its own edge
        dropped = Selection(sel.inputs - {i}, sel.outputs)
        assert certify_cycle_cover(system, dropped, pairs) == (n + i in own)
    for j in sel.outputs:
        dropped = Selection(sel.inputs, sel.outputs - {j})
        assert certify_cycle_cover(system, dropped, pairs) == (n + system.m + j in own)


@pytest.mark.parametrize("mode", MODES)
class TestSelectAgainstFullCheck:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_fails_exactly_when_the_full_selection_does(self, mode, data):
        system = data.draw(any_system(mode))
        full = Selection.full(system)
        if not system.k_is_complete():
            with pytest.raises(ModelError, match="complete feedback pattern"):
                select_min_cost_io(system)
            return
        status = check_no_sfm(system, full)
        try:
            report, calls = _select_recording(system)
        except SystemHasSFMs as exc:
            assert not status.ok
            assert exc.status is status
            assert (exc.status, exc.witness) == compile_system(system).decide(full)
            return
        assert status.ok
        assert report.special_cases == (applicable_special_cases(system) or ("general",))
        if mode == "discrete":
            assert calls == []
            return
        ((args, verdict),) = calls
        assert verdict is True and args[1] == report.selection
        _check_mutations(system, report.selection, list(args[2]))

    @settings(max_examples=150)
    @given(data=st.data())
    def test_state_pm_tag(self, mode, data):
        system = data.draw(any_system(mode))
        state_pm = "state_pm" in applicable_special_cases(system)
        assert state_pm == oracles.spanning_disjoint_cycles(system, Selection([], []))
        if state_pm:
            assert oracles.spanning_disjoint_cycles(system, Selection.full(system))


class TestCertifier:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_stage3_matchings_of_any_k(self, data):
        # select and stage 3 refuse a partial K; condition (b)'s maximum
        # matching still matches its graph, which keeps one edge per K star,
        # so its perfect matchings exercise the K test
        system = data.draw(any_system("continuous"))
        g = compile_system(system).graph
        if g.hub:
            try:
                partners = min_cost_perfect_matching(g)
            except NoPerfectMatching:
                return
        else:
            partners = _maximum_matching(restricted_rows(g, None)[1])[0]
            if -1 in partners:
                return
        sel, _cost = extract_io(g, partners)
        _check_mutations(system, sel, list(enumerate(partners)))

    def test_irreducible_state_pm_certificate(self):
        # x1 -> x2 -> x3 -> x1: the cheapest connected pair, certified by the
        # state-only matching with every input and output on its own edge
        system = make_system(
            3, 2, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)], [(1, 3), (2, 1)],
            cost_u=["5", "2"], cost_y=["4", "9"],
        )
        report, calls = _select_recording(system)
        assert report.special_case == "irreducible" and report.matching is None
        ((args, verdict),) = calls
        assert verdict is True
        assert list(args[2]) == [(0, 2), (1, 0), (2, 1), (3, 3), (4, 4), (5, 5), (6, 6)]
        _check_mutations(system, report.selection, list(args[2]))

    @pytest.mark.parametrize("k_complete", [False, True])
    def test_feedback_edges_need_k_stars(self, k_complete):
        # x1 and x2 each on a cycle x -> y -> u -> x of their own; K holds
        # only the two feedback edges those cycles use, or every pair
        k = COMPLETE if k_complete else SparsityPattern(2, 2, frozenset({(0, 0), (1, 1)}))
        system = replace(make_system(2, 2, 2, [], [(1, 1), (2, 2)], [(1, 1), (2, 2)]), K=k)
        sel = Selection.full(system)
        pairs = [(0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (5, 1)]
        assert certify_cycle_cover(system, sel, pairs) is True
        # u1' -> y2 and u2' -> y1: feedback edges only under the complete K
        crossed = pairs[:2] + [(2, 5), (3, 4)] + pairs[4:]
        assert certify_cycle_cover(system, sel, crossed) is k_complete

    def test_out_of_range_ids(self, demo):
        report, ((args, _verdict),) = _select_recording(demo)
        pairs = list(args[2])
        assert pairs[0] == (0, 0) and pairs[-1] == (8, 8)  # x1' -> x1, y2' -> y2
        assert certify_cycle_cover(demo, report.selection, pairs[:-1] + [(8, 9)]) is False
        assert certify_cycle_cover(demo, report.selection, [(0, -1)] + pairs[1:]) is False
