"""Weighted set cover: the system's two covers, the coverage test, greedy
and exact solvers, the JSON of greedy steps, and both reductions.

The accessibility problem reduces to weighted set cover (universe = non-top
SCCs, one set per input, weight = input cost), and sensability likewise
(universe = non-bottom SCCs, one set per output, weight = output cost).
An instance stores each set only as an integer bitmask; its ``sets`` are
derived on first access.  :func:`cover_instances` builds both covers'
masks straight from the SCC pass, once per compiled system; every stage,
check and printout reads them, coverage is tested in one place
(:meth:`WeightedSetCoverInstance.uncovered`), and the greedy scans only
the sets that cover something.  Conversely, any weighted set
cover instance embeds into an accessibility problem over a diagonal state
pattern.  Both directions preserve weights and optima exactly, which is
what the round-trip tests exercise.

Universe elements and set indices are 0-based internally; the JSON format
(`{"N": 2, "sets": [[], [1], [1, 2]], "weights": ["1", "1", "1"]}`) is
1-based like every other external format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Optional

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
    """Instance exceeds a brute-force guard."""


def _check(universe_size: int, r: int, weights: tuple[int, ...]) -> None:
    """Both constructors' checks before the sets: r weights, a universe
    size in range and no negative weight."""
    if r != len(weights):
        raise ModelError(f"{r} sets but {len(weights)} weights")
    if not 0 <= universe_size <= SIZE_LIMIT:
        raise ModelError(f"universe size {universe_size} outside 0..{SIZE_LIMIT}")
    if min(weights, default=0) < 0:
        idx = next(idx for idx, w in enumerate(weights) if w < 0)
        raise ModelError(f"set {idx + 1}: negative weight")


def _outside(universe_size: int, idx: int, e: int) -> ModelError:
    return ModelError(f"set {idx + 1}: element {e + 1} outside universe 1..{universe_size}")


def _elements(mask: int) -> list[int]:
    """The elements of a set bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True, init=False)
class WeightedSetCoverInstance:
    """Universe {0..N-1}, sets S_0..S_{r-1}, nonnegative scaled-integer weights.

    Each set is stored as an integer bitmask, ``masks[i]`` (bit e set when
    e is in S_i).  ``WeightedSetCoverInstance(universe_size, sets,
    weights)`` builds the masks from the sets' elements;
    :meth:`of_masks` is given them.  Both raise :class:`ModelError` for a
    universe size outside 0..``SIZE_LIMIT``, a negative weight or an
    element outside the universe.  ``sets`` is derived from the masks and
    built on first access; equality and hashing are those of
    ``(universe_size, weights, masks)``.  Feasibility (the union of the
    sets equals the universe) is checked at solve time.
    """

    universe_size: int
    weights: tuple[int, ...]
    masks: tuple[int, ...]

    def __init__(self, universe_size: int, sets: Iterable[Iterable[int]], weights: Iterable[int]) -> None:
        sets, weights = tuple(sets), tuple(weights)
        _check(universe_size, len(sets), weights)
        masks = []
        for idx, s in enumerate(sets):
            mask = 0
            for e in s:
                if not 0 <= e < universe_size:
                    raise _outside(universe_size, idx, e)
                mask |= 1 << e
            masks.append(mask)
        vars(self).update(universe_size=universe_size, weights=weights, masks=tuple(masks))

    @classmethod
    def of_masks(cls, universe_size: int, masks: Iterable[int], weights: Iterable[int]) -> "WeightedSetCoverInstance":
        """The instance with these set bitmasks, checked in bulk."""
        masks, weights = tuple(masks), tuple(weights)
        _check(universe_size, len(masks), weights)
        if masks and (min(masks) < 0 or max(masks) >> universe_size):
            idx, high = next((idx, m >> universe_size) for idx, m in enumerate(masks) if m >> universe_size)
            raise _outside(universe_size, idx, universe_size + (high & -high).bit_length() - 1)
        inst = object.__new__(cls)
        vars(inst).update(universe_size=universe_size, weights=weights, masks=masks)
        return inst

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_elements(mask)) for mask in self.masks)

    @property
    def r(self) -> int:
        return len(self.masks)

    def uncovered(self, chosen: Iterable[int]) -> int:
        """The bitmask of the elements that no chosen set covers."""
        return ((1 << self.universe_size) - 1) & ~reduce(or_, map(self.masks.__getitem__, chosen), 0)


def _containing(inst: WeightedSetCoverInstance) -> list[list[int]]:
    """Per element, the ascending indices of the sets that hold it."""
    out: list[list[int]] = [[] for _ in range(inst.universe_size)]
    for idx, mask in enumerate(inst.masks):
        for e in _elements(mask):
            out[e].append(idx)
    return out


@dataclass(frozen=True)
class GreedyStep:
    set_index: int
    newly_covered: frozenset[int]
    ratio: Fraction  # scaled weight per newly covered element


@dataclass(frozen=True)
class Cover:
    chosen: frozenset[int]
    weight: int
    trace: tuple[GreedyStep, ...] = ()


def greedy_solve(inst: WeightedSetCoverInstance) -> Cover:
    """Chvatal's greedy: repeatedly take the set with the smallest
    weight-per-newly-covered-element ratio.

    The sets that cover something are listed once, with their bitmasks,
    and each round scans only those, counting a set's new elements as
    ``(mask & left).bit_count()``; a step's newly covered elements are the
    bits of the taken set's ``mask & left``.  Ties break toward the set
    covering more new elements, then the lowest index, making the trace
    fully deterministic; ratios are compared by integer
    cross-multiplication.  Zero-weight sets have ratio 0 and win against
    any positive ratio; sets covering nothing new are never taken.  The
    result is within H(d) of the optimum, where d is the largest set size
    and H the harmonic number.
    """
    masks, weights = inst.masks, inst.weights
    live = [(idx, mask) for idx, mask in enumerate(masks) if mask]
    left = (1 << inst.universe_size) - 1
    trace: list[GreedyStep] = []
    while left:
        best_idx, best_k, best_w = -1, 0, 1  # ratio 1/0: any set covering something beats it
        for idx, mask in live:
            k = (mask & left).bit_count()
            if not k:
                continue
            w = weights[idx]
            if w * best_k < best_w * k or (w * best_k == best_w * k and k > best_k):
                best_idx, best_k, best_w = idx, k, w
        if best_idx < 0:
            raise Infeasible((left & -left).bit_length() - 1)  # the smallest one
        newly = masks[best_idx] & left
        left ^= newly
        trace.append(GreedyStep(best_idx, frozenset(_elements(newly)), Fraction(best_w, best_k)))
    chosen = [step.set_index for step in trace]
    return Cover(chosen=frozenset(chosen), weight=sum(weights[i] for i in chosen), trace=tuple(trace))


EXACT_GUARD = 25


def exact_solve(inst: WeightedSetCoverInstance, seed: Cover) -> Cover:
    """Minimum-weight cover by branch and bound over set bitmasks.

    Guarded at r <= 25 sets; this is a desk-scale verification oracle, not a
    production solver.  ``seed`` is the cover the caller already holds,
    its greedy cover, and is the first bound.  It must cover the universe,
    or :class:`InvariantViolated` is raised: an instance that has no cover
    is refused before, by :func:`greedy_solve`'s :class:`Infeasible`.
    Ties break toward the lexicographically smallest chosen index set.  The
    pruning bound relies on nonnegative weights, which the instance enforces.
    """
    if inst.r > EXACT_GUARD:
        raise TooLarge(f"exact cover limited to {EXACT_GUARD} sets, got {inst.r}")
    if inst.uncovered(seed.chosen):
        raise InvariantViolated("the seed of the exact cover leaves an element uncovered")
    full = (1 << inst.universe_size) - 1
    masks = inst.masks

    candidates = _containing(inst)
    best_weight = seed.weight
    best_chosen = tuple(sorted(seed.chosen))

    def dfs(covered: int, weight: int, chosen: tuple[int, ...], banned: int) -> None:
        nonlocal best_weight, best_chosen
        if covered == full:
            if (weight, chosen) < (best_weight, best_chosen):
                best_weight, best_chosen = weight, chosen
            return
        if weight > best_weight:
            return
        # fail-first: branch on the uncovered element with fewest usable
        # sets (there is one, as covered != full).  Every uncovered element
        # keeps a usable set: at the root each has one, as the seed covers
        # the universe, and if a node's element has k, its i-th branch bans
        # only the i - 1 of them tried before, so each element still
        # uncovered keeps at least k - i + 1 >= 1.
        pick_cands: list[int] = []
        for e in range(inst.universe_size):
            if covered >> e & 1:
                continue
            cands = [i for i in candidates[e] if not banned >> i & 1]
            if not pick_cands or len(cands) < len(pick_cands):
                pick_cands = cands
        # exclusion branching: after exploring a candidate, ban it in the
        # remaining branches so no cover is enumerated twice
        sub_banned = banned
        for idx in pick_cands:
            dfs(
                covered | masks[idx],
                weight + inst.weights[idx],
                tuple(sorted(chosen + (idx,))),
                sub_banned,
            )
            sub_banned |= 1 << idx

    dfs(0, 0, (), 0)
    return Cover(chosen=frozenset(best_chosen), weight=best_weight, trace=())


Labels = tuple[tuple[int, ...], ...]


def steps_to_json(cover: Cover, labels: Optional[Labels] = None) -> list[dict]:
    """A greedy cover's steps in the external JSON shape: 1-based set and
    elements, and the ratio in cost units.  With ``labels`` (see
    :func:`cover_labels`) each step also lists the states of the elements
    it newly covers."""
    out = []
    for step in cover.trace:
        newly = sorted(step.newly_covered)
        entry: dict = {"set": step.set_index + 1, "newly_covered": [e + 1 for e in newly]}
        if labels is not None:
            entry["covered_states"] = [list(labels[e]) for e in newly]
        entry["ratio"] = format_ratio(step.ratio / COST_SCALE)  # scaled weight -> cost units
        out.append(entry)
    return out


def cover_instances(
    system: StructuredSystem, scc: SccDecomposition
) -> tuple[WeightedSetCoverInstance, WeightedSetCoverInstance]:
    """The accessibility and the sensability cover, as bitmasks straight
    from one SCC pass of D(A).

    Accessibility: universe element t is the t-th non-top SCC, set i the
    non-top SCCs input i covers, weights the input costs; bit t goes to
    each input in the union of the non-empty B rows of that SCC's states
    (a chain's one SCC holds every state, and most of their rows are
    empty).  Sensability is the same over the non-bottom SCCs, the C rows
    and the output costs: output j's mask ORs, per state of its C row,
    the bit of that state's component in a table per component (0 for
    the components that are not non-bottom).  It equals the
    accessibility reduction of the dual system (A^T, C^T, p_y).
    """
    b_rows, components = system.B.by_row, scc.components
    in_masks = [0] * system.m
    for t, ci in enumerate(scc.non_top):
        bit = 1 << t
        for i in set().union(*filter(None, map(b_rows.__getitem__, components[ci]))):
            in_masks[i] |= bit
    bit_of = [0] * len(components)
    for t, ci in enumerate(scc.non_bottom):
        bit_of[ci] = 1 << t
    comp_of = scc.component_of
    out_masks = []
    for row in system.C.by_row:
        mask = 0
        for s in row:
            mask |= bit_of[comp_of[s]]
        out_masks.append(mask)
    return (
        WeightedSetCoverInstance.of_masks(scc.q, in_masks, system.cost_u),
        WeightedSetCoverInstance.of_masks(scc.k, out_masks, system.cost_y),
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
        raise InfeasibleSelection((left & -left).bit_length() - 1)  # the smallest one
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
