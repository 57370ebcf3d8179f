"""Weighted set cover: the system's two covers, the coverage test, greedy
and exact solvers, the JSON of greedy steps, and both reductions.

The accessibility problem reduces to weighted set cover (universe = non-top
SCCs, one set per input, weight = input cost), and sensability likewise
(universe = non-bottom SCCs, one set per output, weight = output cost).
:func:`cover_instances` builds both once per compiled system; every stage,
check and printout reads them, and coverage is tested in one place
(:meth:`WeightedSetCoverInstance.uncovered`).  Conversely, any weighted set
cover instance embeds into an accessibility problem over a diagonal state
pattern.  Both directions preserve weights and optima exactly, which is
what the round-trip tests exercise.

Universe elements and set indices are 0-based internally; the JSON format
(`{"N": 2, "sets": [[], [1], [1, 2]], "weights": ["1", "1", "1"]}`) is
1-based like every other external format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from ioselect.graph_core import SccDecomposition, build_bipartite, decompose_sccs
from ioselect.system_model import (
    COMPLETE,
    COST_SCALE,
    SIZE_LIMIT,
    FormatError,
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


@dataclass(frozen=True)
class WeightedSetCoverInstance:
    """Universe {0..N-1}, sets S_0..S_{r-1}, nonnegative scaled-integer weights.

    A universe size outside 0..``SIZE_LIMIT``, a negative weight or an
    element outside the universe raises :class:`ModelError`.  Feasibility
    (the union of the sets equals the universe) is checked at solve time.
    ``masks`` holds each set as an integer bitmask (bit e set when e is in
    the set), built with the instance and left out of ``==``, ``hash`` and
    ``repr``.
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[int, ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.sets) != len(self.weights):
            raise ModelError(
                f"{len(self.sets)} sets but {len(self.weights)} weights"
            )
        if not 0 <= self.universe_size <= SIZE_LIMIT:
            raise ModelError(f"universe size {self.universe_size} outside 0..{SIZE_LIMIT}")
        for idx, w in enumerate(self.weights):
            if w < 0:
                raise ModelError(f"set {idx + 1}: negative weight")
        masks = []
        for idx, s in enumerate(self.sets):
            mask = 0
            for e in s:
                if not 0 <= e < self.universe_size:
                    raise ModelError(
                        f"set {idx + 1}: element {e + 1} outside universe 1..{self.universe_size}"
                    )
                mask |= 1 << e
            masks.append(mask)
        object.__setattr__(self, "masks", tuple(masks))

    @property
    def r(self) -> int:
        return len(self.sets)

    def uncovered(self, chosen: Iterable[int]) -> int:
        """The bitmask of the elements that no chosen set covers."""
        covered = 0
        for i in chosen:
            covered |= self.masks[i]
        return ((1 << self.universe_size) - 1) & ~covered


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

    Each round scans the sets' bitmasks, counting a set's new elements as
    ``(mask & left).bit_count()``; only the set taken is turned back into
    elements.  Ties break toward the set covering more new elements, then
    the lowest index, making the trace fully deterministic; ratios are
    compared by integer cross-multiplication.  Zero-weight sets have ratio
    0 and win against any positive ratio; sets covering nothing new are
    never taken.  The result is within H(d) of the optimum, where d is the
    largest set size and H the harmonic number.
    """
    masks, weights = inst.masks, inst.weights
    left = (1 << inst.universe_size) - 1
    trace: list[GreedyStep] = []
    while left:
        best_idx, best_k, best_w = -1, 0, 1  # ratio 1/0: any set covering something beats it
        for idx, mask in enumerate(masks):
            k = (mask & left).bit_count()
            if not k:
                continue
            w = weights[idx]
            if w * best_k < best_w * k or (w * best_k == best_w * k and k > best_k):
                best_idx, best_k, best_w = idx, k, w
        if best_idx < 0:
            raise Infeasible((left & -left).bit_length() - 1)  # the smallest one
        newly = frozenset(e for e in inst.sets[best_idx] if left >> e & 1)
        left &= ~masks[best_idx]
        trace.append(GreedyStep(best_idx, newly, Fraction(best_w, best_k)))
    chosen = [step.set_index for step in trace]
    return Cover(chosen=frozenset(chosen), weight=sum(weights[i] for i in chosen), trace=tuple(trace))


EXACT_GUARD = 25


def exact_solve(inst: WeightedSetCoverInstance) -> Cover:
    """Minimum-weight cover by branch and bound over set bitmasks.

    Guarded at r <= 25 sets; this is a desk-scale verification oracle, not a
    production solver.  The greedy cover seeds the bound, and an instance
    it cannot cover raises its :class:`Infeasible`.  Ties break toward the
    lexicographically smallest chosen index set.  The pruning bound relies
    on nonnegative weights, which the instance enforces.
    """
    if inst.r > EXACT_GUARD:
        raise TooLarge(f"exact cover limited to {EXACT_GUARD} sets, got {inst.r}")
    full = (1 << inst.universe_size) - 1
    masks = inst.masks
    # the greedy seed is also the feasibility test: it raises Infeasible
    # for the smallest element no set covers
    seed = greedy_solve(inst)

    candidates: list[list[int]] = [[] for _ in range(inst.universe_size)]
    for idx, s in enumerate(inst.sets):
        for e in s:
            candidates[e].append(idx)

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
        # sets (there is one, as covered != full); one with none ends the branch
        pick_cands: list[int] = []
        for e in range(inst.universe_size):
            if covered >> e & 1:
                continue
            cands = [i for i in candidates[e] if not banned >> i & 1]
            if not cands:
                return
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
    """The accessibility and the sensability cover, from one SCC pass of D(A).

    Accessibility: universe element t is the t-th non-top SCC, set i the
    non-top SCCs input i covers, weights the input costs; built in one pass
    over the B rows of the states in non-top SCCs.  Sensability is the same
    over the non-bottom SCCs, the C rows and the output costs; it equals the
    accessibility reduction of the dual system (A^T, C^T, p_y).
    """
    top_pos = {ci: t for t, ci in enumerate(scc.non_top)}
    bot_pos = {ci: t for t, ci in enumerate(scc.non_bottom)}
    comp_of = scc.component_of
    in_covers: list[set[int]] = [set() for _ in range(system.m)]
    for r, row in enumerate(system.B.by_row):
        t = top_pos.get(comp_of[r]) if row else None
        if t is not None:
            for i in row:
                in_covers[i].add(t)
    out_covers = [{bot_pos.get(comp_of[r]) for r in row} - {None} for row in system.C.by_row]
    return (
        WeightedSetCoverInstance(scc.q, in_covers, system.cost_u),
        WeightedSetCoverInstance(scc.k, out_covers, system.cost_y),
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
    b_rows: list[list[int]] = [[] for _ in range(n)]
    for j, s in enumerate(inst.sets):
        for e in s:
            b_rows[e].append(j)
    return StructuredSystem(
        A=SparsityPattern.of_checked_rows(n, n, [[i] for i in range(n)]),
        B=SparsityPattern.of_checked_rows(n, inst.r, b_rows),
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
