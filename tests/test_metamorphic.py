"""Metamorphic relations: two runs of ``select`` whose results must agree in
a known way, so no oracle is needed and the check costs two runs at any
size (Chen, Cheung and Yiu 1998; Segura et al. 2016).

Each relation follows from the algorithm: the covers' greedy breaks its
ties by gain and set index, stage 3's matroid greedy by (cost, index), and
neither reads a state's number.  Hypothesis draws feasible systems with
distinct costs (three decimals, so ties are rare), and each relation also
runs on the first member of each of the benchmark's pools, read from
``perfbench/workloads.py``.

A relation that looks true but is not: a dearer copy of an input can lower
the total (pinned in ``tests/test_selector.py``).
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import benchmark_workloads, systems_with_selection
from ioselect.selector import CASE_IRREDUCIBLE, check_no_sfm, select_min_cost_io
from ioselect.system_model import Selection, SparsityPattern, StructuredSystem

MILLI = 1000  # one thousandth of a cost unit, in scaled cost units
POOLS = ("sparse", "wide", "oracle", "chain")


@st.composite
def cases(draw):
    """A feasible system whose m + p costs are distinct, a selection of it,
    and a seeded random source for the relation's own draws."""
    system, sel = draw(systems_with_selection(feasible=True, max_n=8, max_m=4, max_p=4))
    count = system.m + system.p
    costs = [MILLI * c for c in draw(st.lists(st.integers(1, 99_999), min_size=count, max_size=count, unique=True))]
    system = replace(system, cost_u=tuple(costs[: system.m]), cost_y=tuple(costs[system.m :]))
    return system, sel, random.Random(draw(st.integers(0, 2**32)))


def pool_case(pool):
    system = benchmark_workloads().WORKLOADS[pool].pool[0].build()
    return system, Selection.full(system), random.Random(pool)


def _select(system):
    report = select_min_cost_io(system)
    return report.selection, report.total_cost, report.special_case


def relabel(system, sel, rng):
    # a permutation of the states changes no selection, cost or tag
    n, perm = system.n, list(range(system.n))
    rng.shuffle(perm)
    moved = replace(
        system,
        A=SparsityPattern(n, n, frozenset((perm[i], perm[j]) for i, j in system.A.stars)),
        B=SparsityPattern(n, system.m, frozenset((perm[i], k) for i, k in system.B.stars)),
        C=SparsityPattern(system.p, n, frozenset((k, perm[j]) for k, j in system.C.stars)),
    )
    assert check_no_sfm(moved, sel) == check_no_sfm(system, sel)
    assert _select(moved) == _select(system)


def duality(system, sel, _rng):
    # (A^T, C^T, B^T) with the cost vectors swapped: the same status with
    # the inputs and outputs swapped, and the swapped selection at the same cost
    dual = StructuredSystem(
        A=oracles.transpose(system.A), B=oracles.transpose(system.C), C=oracles.transpose(system.B), K=system.K,
        cost_u=system.cost_y, cost_y=system.cost_u, mode=system.mode,
    )
    assert check_no_sfm(dual, Selection(sel.outputs, sel.inputs)) == check_no_sfm(system, sel)
    chosen, cost, _tag = _select(system)
    dual_chosen, dual_cost, _tag = _select(dual)
    assert (dual_chosen, dual_cost) == (Selection(chosen.outputs, chosen.inputs), cost)


def scaling(system, _sel, rng):
    # every cost times c: the same selection and tag, at c times the cost
    c = rng.randint(2, 9)
    scaled = replace(system, cost_u=tuple(c * w for w in system.cost_u), cost_y=tuple(c * w for w in system.cost_y))
    chosen, cost, tag = _select(system)
    assert _select(scaled) == (chosen, c * cost, tag)


def _channels(sel):
    return [("cost_u", i) for i in sorted(sel.inputs)] + [("cost_y", j) for j in sorted(sel.outputs)]


def _repriced(system, field, index, cost):
    costs = list(getattr(system, field))
    costs[index] = cost
    return replace(system, **{field: tuple(costs)})


def raise_unselected(system, _sel, rng):
    # a dearer unselected channel changes nothing
    chosen = _select(system)
    unselected = [ch for ch in _channels(Selection.full(system)) if ch not in _channels(chosen[0])]
    if unselected:
        field, index = rng.choice(unselected)
        dearer = getattr(system, field)[index] + MILLI * rng.randint(1, 99_999)
        assert _select(_repriced(system, field, index, dearer)) == chosen


def lower_selected(system, _sel, rng):
    # a cheaper selected channel stays selected
    field, index = rng.choice(_channels(_select(system)[0]))
    cheaper = rng.randrange(getattr(system, field)[index])
    assert (field, index) in _channels(_select(_repriced(system, field, index, cheaper))[0])


def discrete_within_continuous(system, _sel, _rng):
    # off the irreducible tag, the discrete selection is part of the continuous one
    chosen, _cost, tag = _select(system)
    if tag != CASE_IRREDUCIBLE:
        discrete, _cost, _tag = _select(replace(system, mode="discrete"))
        assert discrete.inputs <= chosen.inputs and discrete.outputs <= chosen.outputs


RELATIONS = [relabel, duality, scaling, raise_unselected, lower_selected, discrete_within_continuous]


@pytest.mark.parametrize("relation", RELATIONS, ids=lambda r: r.__name__)
@settings(max_examples=60)
@given(case=cases())
def test_relation_on_generated_systems(relation, case):
    relation(*case)


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("relation", RELATIONS, ids=lambda r: r.__name__)
def test_relation_on_a_pool_member(relation, pool):
    relation(*pool_case(pool))
