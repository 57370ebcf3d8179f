"""Weighted set cover: the system's two covers, the coverage test, greedy
and exact solvers, the JSON of greedy steps, and both reductions.

The accessibility problem reduces to weighted set cover (universe = non-top
SCCs, one set per input, weight = input cost), and sensability likewise
(universe = non-bottom SCCs, one set per output, weight = output cost).
An instance stores each set as the frozenset of its elements.
:func:`cover_instances` builds both covers' sets straight from the SCC
pass, once per compiled system; every stage, check and printout reads
them, and coverage is tested in one place
(:meth:`WeightedSetCoverInstance.uncovered`).  The greedy counts each
set's uncovered elements and keeps the sets in a heap, so its time and
memory are near the size of the cover incidence, and it records only the
order in which it took the sets; :func:`steps_to_json` replays that order
to print each step.  One exact search, :func:`branch_and_bound`, branches
over the same sets from a qualifying set its caller holds, within one work
budget: on its own from the greedy cover (:func:`exact_solve`), or with a
side's matching to complete from that side of the selection ``select``
certified (:func:`ioselect.oracle_bench.exact_select`).  Conversely, any
weighted set cover instance embeds into an accessibility problem over a
diagonal state pattern.  Both directions preserve weights and optima
exactly, which is what the round-trip tests exercise.

Universe elements and set indices are 0-based internally; the JSON format
(`{"N": 2, "sets": [[], [1], [1, 2]], "weights": ["1", "1", "1"]}`) is
1-based like every other external format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, count
from typing import Callable, Iterable, Optional

from ioselect.graph_core import SccDecomposition, build_bipartite, decompose_sccs
from ioselect.system_model import (
    COMPLETE,
    COST_SCALE,
    SIZE_LIMIT,
    FormatError,
    InvariantViolated,
    ModelError,
    Selection,
    SparsityPattern,
    StructuredSystem,
    format_cost,
    format_ratio,
    parse_cost,
)


class Infeasible(ModelError):
    """Some universe element is not covered by any available set."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element + 1} is in no set")


class InfeasibleSelection(ModelError):
    """A selection mapped back to a cover does not cover the universe."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(f"selection leaves element {element + 1} uncovered")


class TooLarge(ModelError):
    """An exact search passed its work budget (:data:`EXACT_BUDGET`)."""


_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class WeightedSetCoverInstance:
    """Universe {0..N-1}, sets S_0..S_{r-1}, nonnegative scaled-integer weights.

    Each set is stored as the frozenset of its elements; the constructor
    freezes any iterables of elements and raises :class:`ModelError` for
    r sets but not r weights, a universe size outside 0..``SIZE_LIMIT``, a
    negative weight or an element outside the universe.  The sets are the
    one stored form of the cover.  Feasibility (the union of the sets
    equals the universe) is checked at solve time.
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        n, sets, weights = self.universe_size, tuple(map(frozenset, self.sets)), tuple(self.weights)
        if len(sets) != len(weights):
            raise ModelError(f"{len(sets)} sets but {len(weights)} weights")
        if not 0 <= n <= SIZE_LIMIT:
            raise ModelError(f"universe size {n} outside 0..{SIZE_LIMIT}")
        if min(weights, default=0) < 0:
            idx = next(idx for idx, w in enumerate(weights) if w < 0)
            raise ModelError(f"set {idx + 1}: negative weight")
        elements = set().union(*sets)
        if elements and not 0 <= min(elements) <= max(elements) < n:
            idx, e = next((idx, e) for idx, s in enumerate(sets) for e in sorted(s) if not 0 <= e < n)
            raise ModelError(f"set {idx + 1}: element {e + 1} outside universe 1..{n}")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "weights", weights)

    @property
    def r(self) -> int:
        return len(self.sets)

    def uncovered(self, chosen: Iterable[int]) -> set[int]:
        """The elements that no chosen set covers."""
        return set(range(self.universe_size)).difference(*[self.sets[i] for i in chosen])


def _containing(inst: WeightedSetCoverInstance) -> list[list[int]]:
    """Per element, the ascending indices of the sets that hold it."""
    out: list[list[int]] = [[] for _ in range(inst.universe_size)]
    for idx in compress(count(), inst.sets):  # the sets that hold something
        for e in inst.sets[idx]:
            out[e].append(idx)
    return out


@dataclass(frozen=True)
class Cover:
    """A set of chosen sets and their total weight.  A greedy cover's
    ``trace`` is the indices of its sets in the order the greedy took them
    (empty for any other cover)."""

    chosen: frozenset[int]
    weight: int
    trace: tuple[int, ...] = ()


def greedy_solve(inst: WeightedSetCoverInstance) -> Cover:
    """Chvatal's greedy: repeatedly take the set with the smallest
    weight-per-newly-covered-element ratio.

    Ties break toward the set covering more new elements, then the lowest
    index, making the order of the taken sets, the cover's ``trace``, fully
    deterministic.  Zero-weight sets have ratio 0 and win against any
    positive ratio; sets covering nothing new are never taken.  An element
    in no set raises :class:`Infeasible` before any round, naming the
    smallest such element.  The result is within H(d) of the optimum,
    where d is the largest set size and H the harmonic number.

    Each set keeps its gain, the count of its uncovered elements, and
    taking a set decrements the gain of every set holding one of its new
    elements.  A heap holds each set that covers something under the key
    ``(w * D // gain, -gain, index)`` with ``D = N * N + 1`` for a universe
    of N elements: two ratios of gains at most N that differ do so by at
    least 1/N^2, so the integer part of w/gain scaled by D orders them
    exactly, ties included.  The heap stores the key packed into one
    integer, ``((w * D // gain) * N + N - gain) * r + index``, which orders
    as the tuple does (``N - gain < N`` and ``index < r``) but compares in
    one step, and a pop reads the index and the gain back out of it.  A
    key only grows as its gain falls, so a popped entry whose gain is
    current is the scan's choice; a stale one goes back under its current
    key.  That is O(sum |S| log r) time and O(sum |S|) space.  A round
    records only the index it took; the elements it covered and its ratio
    are worked out again by :func:`steps_to_json`, for a printout.
    """
    sets, weights = inst.sets, inst.weights
    holders = _containing(inst)
    if not all(holders):
        raise Infeasible(holders.index([]))  # the smallest one
    gain = list(map(len, sets))
    n, r = inst.universe_size, inst.r
    scale = n**2 + 1
    heap = [(weights[idx] * scale // k * n + n - k) * r + idx for idx, k in enumerate(gain) if k]
    heapify(heap)
    covered = [False] * n
    left = n
    trace: list[int] = []
    while left:
        key, idx = divmod(heappop(heap), r)
        k = gain[idx]
        if n - key % n != k:
            if k:
                heappush(heap, (weights[idx] * scale // k * n + n - k) * r + idx)
            continue
        for e in sets[idx]:
            if not covered[e]:
                covered[e] = True
                for holder in holders[e]:
                    gain[holder] -= 1
        left -= k
        trace.append(idx)
    return Cover(chosen=frozenset(trace), weight=sum(weights[i] for i in trace), trace=tuple(trace))


# The work one exact search may do before it raises TooLarge.  Each node
# it visits costs what its scan may read: the universe size, the set count
# and the sets' sizes, plus the state count where a side completion runs.
EXACT_BUDGET = 10_000_000


def branch_and_bound(
    inst: WeightedSetCoverInstance, seed: Cover, complete: Optional[Callable] = None, work: int = 0
) -> Cover:
    """The first set of ``inst``'s sets by (weight, sorted indices) that
    covers the universe and, with ``complete``, also completes its side's
    matching.

    ``seed`` is a qualifying set the caller already holds, with its
    weight; it is not checked here.  It is the search's first bound, and
    the best set the walk below knows until the search finds a cheaper
    one.  ``complete`` maps the sets in the order to try them to the ones
    a transversal matroid's greedy keeps to complete the side's matching,
    in any order, or to None when they cannot complete it: the kept
    channels of :func:`ioselect.matching.complete_side`.  ``work`` is the
    state count one run of it costs.

    The search keeps its nodes (chosen sets, banned sets, uncovered
    elements, weight) on an explicit stack.  A node takes every set that is
    the last usable one of some uncovered element.  Its bound is its weight
    plus that of the cheapest completion: the greedy with the chosen sets
    first and the other allowed ones after them in (weight, index) order,
    exact on a matroid (Edmonds 1971), and nothing without ``complete``.
    When the chosen sets and that completion also cover, the node is
    solved at its bound.  Otherwise it branches on the uncovered element
    with the fewest usable sets, each branch banning the sets tried before
    it, so no set of sets is reached twice.  Weights are nonnegative, so a
    bound above the best weight prunes.

    The search finds the optimum weight c*, the seed's when no set below
    it qualifies.  A walk then builds the first set of weight c* one index
    at a time: past a prefix T, for each j below the next index of the
    best set known, it asks the search (stopping at its first find) for a
    set of weight c* that starts T + (j) and uses no other index below j,
    and it stops once T itself qualifies.  Each node costs the work
    :data:`EXACT_BUDGET` names; past the budget, the search raises
    :class:`TooLarge`.
    """
    sets, weights, r = inst.sets, inst.weights, inst.r
    holders = _containing(inst)
    order = sorted(range(r), key=weights.__getitem__)  # stable: (weight, index)
    universe = frozenset(range(inst.universe_size))
    per_node = inst.universe_size + r + sum(map(len, sets)) + work
    nodes = 0

    def search(chosen: tuple[int, ...], banned: frozenset[int], limit: int, first: bool):
        """The (weight, sorted indices) of the best set of weight at most
        ``limit`` that holds ``chosen`` and none of ``banned``, or with
        ``first`` of the first one found; None when there is none."""
        nonlocal nodes
        best = None
        stack = [(chosen, banned, universe.difference(*[sets[i] for i in chosen]), sum(weights[i] for i in chosen))]
        while stack:
            chosen, banned, left, weight = stack.pop()
            if weight > limit:
                continue
            nodes += 1
            if nodes * per_node > EXACT_BUDGET:
                raise TooLarge(f"exact search over {r} sets passed its work budget of {EXACT_BUDGET}")
            usable = [[i for i in holders[e] if i not in banned] for e in left]
            if not all(usable):
                continue  # an element no allowed set covers
            forced = {held[0] for held in usable if len(held) == 1}
            if forced:  # the last usable set of an element
                chosen, weight = chosen + tuple(forced), weight + sum(weights[i] for i in forced)
                if weight > limit:
                    continue
                covered = _EMPTY.union(*[sets[i] for i in forced])
                usable = [held for e, held in zip(left, usable) if e not in covered]
                left -= covered
            fewest = min(usable, key=len, default=None)  # fail-first
            bound, extra = weight, ()
            if complete:
                taken = set(chosen)
                kept = complete([*chosen, *[i for i in order if i not in banned and i not in taken]])
                if kept is None:
                    continue
                extra = [i for i in kept if i not in taken]
                bound += sum(weights[i] for i in extra)
                if bound > limit:
                    continue
            if fewest is None or not left.difference(*[sets[i] for i in extra]):
                best = (bound, tuple(sorted((*chosen, *extra))))
                if first:
                    return best
                limit = bound - 1
                continue
            for k in range(len(fewest) - 1, -1, -1):  # exclusion branching, the lowest index popped first
                idx = fewest[k]
                stack.append((chosen + (idx,), banned.union(fewest[:k]), left - sets[idx], weight + weights[idx]))
        return best

    target, best = search((), _EMPTY, seed.weight - 1, False) or (seed.weight, tuple(sorted(seed.chosen)))
    prefix: list[int] = []  # best starts with it
    weight = 0
    while len(prefix) < len(best):
        if weight == target and search(tuple(prefix), frozenset(range(r)).difference(prefix), target, True):
            break
        nxt = best[len(prefix)]
        for j in range(prefix[-1] + 1 if prefix else 0, nxt):
            # a set that covers nothing is in no cheapest plain cover unless it is free
            if weight + weights[j] > target or not (sets[j] or complete or weights[j] == 0):
                continue
            if hit := search((*prefix, j), frozenset(range(j)).difference(prefix), target, True):
                best, nxt = hit[1], j
                break
        prefix.append(nxt)
        weight += weights[nxt]
    return Cover(chosen=frozenset(prefix), weight=target)


def exact_solve(inst: WeightedSetCoverInstance, seed: Cover) -> Cover:
    """The minimum-weight cover, the first by (weight, sorted indices):
    :func:`branch_and_bound` on the plain cover.

    ``seed`` is the cover the caller already holds, its greedy cover, and
    is the first bound.  It must cover the universe, or
    :class:`InvariantViolated` is raised: an instance that has no cover is
    refused before, by :func:`greedy_solve`'s :class:`Infeasible`.
    """
    if inst.uncovered(seed.chosen):
        raise InvariantViolated("the seed of the exact cover leaves an element uncovered")
    return branch_and_bound(inst, seed)


Labels = tuple[tuple[int, ...], ...]


def steps_to_json(
    inst: WeightedSetCoverInstance, cover: Cover, labels: Optional[Labels] = None
) -> list[dict]:
    """A greedy cover's steps in the external JSON shape, replayed from the
    order in which the greedy took the sets of ``inst``: per step the
    1-based set, the 1-based elements it newly covered and its ratio,
    weight per newly covered element in cost units.  With ``labels`` (see
    :func:`cover_labels`) each step also lists the states of the elements
    it newly covers."""
    covered: set[int] = set()
    out = []
    for idx in cover.trace:
        newly = sorted(inst.sets[idx] - covered)
        covered.update(newly)
        entry: dict = {"set": idx + 1, "newly_covered": [e + 1 for e in newly]}
        if labels is not None:
            entry["covered_states"] = [list(labels[e]) for e in newly]
        entry["ratio"] = format_ratio(Fraction(inst.weights[idx], len(newly) * COST_SCALE))
        out.append(entry)
    return out


def cover_instances(
    system: StructuredSystem, scc: SccDecomposition
) -> tuple[WeightedSetCoverInstance, WeightedSetCoverInstance]:
    """The accessibility and the sensability cover, as element sets straight
    from one SCC pass of D(A).

    Accessibility: universe element t is the t-th non-top SCC, set i the
    non-top SCCs input i covers, weights the input costs; t goes to each
    input in the union of the non-empty B rows of that SCC's states (a
    chain's one SCC holds every state, and most of their rows are empty).
    Sensability is the same over the non-bottom SCCs, the C rows and the
    output costs: output j's set holds, per state of its C row, the element
    of that state's component (None for the components that are not
    non-bottom, and dropped).  It equals the accessibility reduction of the
    dual system (A^T, C^T, p_y).  The sets that cover nothing share one
    empty frozenset.
    """
    b_rows, components = system.B.by_row, scc.components
    fed: dict[int, list[int]] = {}
    for t, ci in enumerate(scc.non_top):
        for i in set().union(*filter(None, map(b_rows.__getitem__, components[ci]))):
            fed.setdefault(i, []).append(t)
    in_sets = [_EMPTY] * system.m
    for i, elems in fed.items():
        in_sets[i] = frozenset(elems)
    element_of: list[Optional[int]] = [None] * len(components)
    for t, ci in enumerate(scc.non_bottom):
        element_of[ci] = t
    comp_of = scc.component_of
    read: dict[int, list[int]] = {}
    for j, row in enumerate(system.C.by_row):
        for s in row:
            t = element_of[comp_of[s]]
            if t is not None:
                read.setdefault(j, []).append(t)
    out_sets = [_EMPTY] * system.p
    for j, elems in read.items():
        out_sets[j] = frozenset(elems)
    return (
        WeightedSetCoverInstance(scc.q, in_sets, system.cost_u),
        WeightedSetCoverInstance(scc.k, out_sets, system.cost_y),
    )


def cover_labels(scc: SccDecomposition) -> tuple[Labels, Labels]:
    """The universe labels of both covers: per element, the sorted 1-based
    states of its SCC.  Only printouts read them."""

    def labels(universe: tuple[int, ...]) -> Labels:
        return tuple(tuple(v + 1 for v in scc.components[ci]) for ci in universe)

    return labels(scc.non_top), labels(scc.non_bottom)


def reduce_accessibility_to_wsc(
    system: StructuredSystem,
) -> tuple[WeightedSetCoverInstance, Labels]:
    """Accessibility as weighted set cover (SCCs numbered by minimum
    contained state) with its universe labels; see :func:`cover_instances`."""
    scc = decompose_sccs(build_bipartite(system))
    return cover_instances(system, scc)[0], cover_labels(scc)[0]


def reduce_wsc_to_accessibility(inst: WeightedSetCoverInstance) -> StructuredSystem:
    """Embed a set cover instance into an accessibility problem.

    States are universe elements with self-loop-only dynamics (diagonal A),
    input j feeds exactly the states in S_j, input costs are the weights,
    and there are no outputs.
    """
    n = inst.universe_size
    if n < 1:
        raise ModelError("reverse reduction needs a nonempty universe")
    return StructuredSystem(
        A=SparsityPattern.of_checked_rows(n, n, [[i] for i in range(n)]),
        B=SparsityPattern.of_checked_rows(n, inst.r, _containing(inst)),
        C=SparsityPattern.of_checked_rows(0, n, []),
        K=COMPLETE,
        cost_u=inst.weights,
        cost_y=(),
        mode="continuous",
    )


def selection_to_cover(inst: WeightedSetCoverInstance, sel: Selection) -> Cover:
    """Map an accessibility selection on the reduced system back to a cover.

    Raises :class:`InfeasibleSelection` if the selected sets leave an
    element uncovered (equivalently: some state of the reduced system is
    inaccessible).
    """
    for i in sel.inputs:
        if not 0 <= i < inst.r:
            raise IndexError(f"set index {i + 1} out of range 1..{inst.r}")
    left = inst.uncovered(sel.inputs)
    if left:
        raise InfeasibleSelection(min(left))
    return Cover(
        chosen=frozenset(sel.inputs),
        weight=sum(inst.weights[i] for i in sel.inputs),
        trace=(),
    )


# --- JSON format -------------------------------------------------------------


def wsc_from_json(data: dict) -> WeightedSetCoverInstance:
    if not isinstance(data, dict):
        raise FormatError("set cover document must be a JSON object")
    if "N" not in data or isinstance(data["N"], bool) or not isinstance(data["N"], int):
        raise FormatError('field "N": expected an integer')
    n = data["N"]
    raw_sets = data.get("sets")
    if not isinstance(raw_sets, list):
        raise FormatError('field "sets": expected a list of element lists')
    sets = []
    for k, entry in enumerate(raw_sets):
        if not isinstance(entry, list) or any(
            isinstance(e, bool) or not isinstance(e, int) for e in entry
        ):
            raise FormatError(f'field "sets"[{k}]: expected a list of integers')
        sets.append(frozenset(e - 1 for e in entry))
    raw_weights = data.get("weights")
    if not isinstance(raw_weights, list) or any(
        not isinstance(w, str) for w in raw_weights
    ):
        raise FormatError('field "weights": expected a list of decimal strings')
    try:
        weights = tuple(parse_cost(w) for w in raw_weights)
    except ModelError as exc:
        raise FormatError(f'field "weights": {exc}') from exc
    try:
        return WeightedSetCoverInstance(n, tuple(sets), weights)
    except ModelError as exc:
        raise FormatError(str(exc)) from exc


def wsc_to_json(inst: WeightedSetCoverInstance) -> dict:
    return {
        "N": inst.universe_size,
        "sets": [sorted(e + 1 for e in s) for s in inst.sets],
        "weights": [format_cost(w) for w in inst.weights],
    }
