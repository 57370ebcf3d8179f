"""Matchings on B(A, B, C, K), the bipartite reading of the system graph.

The graph is :class:`ioselect.graph_core.SystemGraph`, stored once: row v'
of B(A, B, C, K) is v's list of in-neighbours in D(A, B, C, K), followed,
for an input or output, by its own twin.  Its edges and their costs:

* (x'_i, x_j)  iff A_ij is starred            (class EX, cost 0)
* (x'_i, u_j)  iff B_ij is starred            (class EU, cost 0)
* (y'_j, x_i)  iff C_ji is starred            (class EY, cost 0)
* (u'_i, y_j)  iff K_ij is starred            (class EK, cost p_u(i)+p_y(j))
* (u'_i, u_i) and (y'_j, y_j) always          (classes EUU/EYY, cost 0)

Perfect matchings of this graph correspond exactly to families of disjoint
cycles in the system digraph that span all states, and the minimum-cost
perfect matching realizes the cheapest such family; its used inputs/outputs
are read off the matched EU/EY edges.  A perfect matching is held as its
partner list: entry l is the right vertex matched to left vertex l, both
numbered as in :mod:`ioselect.graph_core`.  Edge classes and costs are
worked out only where a dump or trace prints them (:func:`matched_edges`).

A complete K (the stored graph's hub) is never expanded: it splits the
graph in two sides.  A perfect matching using inputs I and outputs J
matches the state rows x' into the states and u_I (side 0) and the states
from the state rows and y'_J (side 1), and pairs u'_I with y_J over K; a
matching of each side joins back into a perfect one (Mendelsohn-Dulmage,
:func:`_join`).  Each side completes B(A)'s maximum matching
(:attr:`SystemGraph.state_matching`) with d = n - nu(B(A)) channels.  The
channel sets that do so are the bases of a transversal matroid, so the
greedy algorithm (:func:`_greedy`) finds the cheapest exactly (Edmonds
1971, "Matroids and the greedy algorithm").  An explicit partial K keeps
one EK edge per star and does not split: its largest matching is one
Hopcroft-Karp on the restricted rows
(:func:`ioselect.graph_core.restricted_rows`).  :func:`_largest` makes
every largest matching here, either way: stage 3 reads it with the
channels in (cost, index) order, condition (b) and the Hall witness with
the selected channels in index order.
"""

from __future__ import annotations

from heapq import heappop  # noqa: F401  # see below
from typing import Iterable, Iterator, Optional, Sequence

from ioselect.graph_core import (
    SystemGraph,
    _augment,
    _hopcroft_karp,
    _require_hub,
    build_bipartite,
    restricted_rows,
)
from ioselect.system_model import (
    InvariantViolated,
    ModelError,
    Selection,
    StructuredSystem,
    _check_selection,
    format_cost,
)

# No code here pops a heap.  perfbench/tracer.py replaces this name to count
# heap pops, so the name stays until the tracer reads an in-package recorder
# (ROADMAP item 1b); its count reads 0.


class NoPerfectMatching(ModelError):
    """Condition b) is unsatisfiable: some states cannot be put on disjoint cycles.

    Carries a Hall witness: a left vertex set whose neighborhood is smaller
    than itself, given as vertex ids of ``g`` and kept as their labels.
    :func:`_hall` alone builds one, from the Dulmage-Mendelsohn set of a
    largest matching; :func:`hall_set` returns it and
    :func:`min_cost_perfect_matching` raises it.
    """

    def __init__(self, g: SystemGraph, left: Iterable[int], right: Iterable[int]):
        self.left_labels = tuple(map(g.left_name, left))
        self.right_labels = tuple(map(g.right_name, right))
        super().__init__(
            "no perfect matching: {%s} has only neighbors {%s}"
            % (", ".join(self.left_labels), ", ".join(self.right_labels))
        )


def _greedy(starts: Iterable[int], need: int, nbr, mate_s: list[int], mate_w: list[int]) -> int:
    """The greedy of one side: try the vertices of ``starts`` in turn, and
    keep one when an alternating path from it (:func:`_path`) reaches a
    free vertex of the other side, flipping that path with Hopcroft-Karp's
    flip (:func:`~ioselect.graph_core._augment`), until ``need`` are kept.
    Returns the number kept.

    ``nbr[s]`` lists the neighbours of s on the other side; ``mate_s`` and
    ``mate_w`` hold each vertex's partner on either side (-1 when free) and
    are updated in place.  Only a successful search's marks are cleared:
    from no w a failed one marked does an alternating path reach a free
    vertex, so every maximum matching so far covers w (Dulmage-Mendelsohn),
    and one after a keep that missed w would, less the new channel's edge,
    be one before it.  So a search skips only vertices that lead to no free
    one, and finds the path it would find with no marks kept.
    """
    seen, parent = [False] * len(mate_w), [0] * len(mate_w)
    kept = 0
    for s in starts:
        if kept == need:
            break
        reached: list[int] = []
        w = _path(s, nbr, mate_w, seen, parent, reached)
        if w >= 0:
            _augment(w, parent, mate_s, mate_w)
            kept += 1
            for v in reached:
                seen[v] = False
    return kept


def _path(s: int, nbr, mate_w: list[int], seen: list[bool], parent: list[int], reached: list[int]) -> int:
    """One alternating search from ``s`` past every marked vertex, marking
    and listing in ``reached`` what it reaches: the first free one, or -1."""
    stack = [s]
    while stack:
        s = stack.pop()
        for w in nbr[s]:
            if not seen[w]:
                seen[w] = True
                reached.append(w)
                parent[w] = s
                if mate_w[w] < 0:
                    return w
                stack.append(mate_w[w])
    return -1


def complete_side(g: SystemGraph, side: int, chosen: Iterable[int]) -> tuple[list[int], bool]:
    """Side 0 (the inputs) or 1 (the outputs): B(A)'s maximum matching
    completed by the greedy over the channels numbered ``chosen``, in that
    order.  Returns side 0's partner of each state row (a state or an input)
    or side 1's of each state (a state row or an output), -1 where free, and
    whether every one is matched."""
    mates = g.state_matching[side][:]
    need = mates.count(-1)
    nbr = g.rows_to_states if side else g.state_cols
    first = g.n + side * g.m
    others = g.state_matching[1 - side] + [-1] * (g.m + g.p)
    return mates, _greedy((first + c for c in chosen), need, nbr, others, mates) == need


def _join(g: SystemGraph, rows_to: list[int], states_from: list[int]) -> list[int]:
    """A largest matching of B(A, B, C, K), as each left vertex's partner
    (-1 when free), from a largest matching of each side.

    Side 0 leaves free exactly the states B(A)'s matching does.  Each one
    starts a path x -side 1- v' -side 0- x -side 1- ... whose left vertices
    take their side-1 edges; every other state row keeps its side-0 edge.
    That covers every state row side 0 covers and every state side 1 covers
    with nu(B(A)) state edges, all of side 0's inputs I and side 1's outputs
    J (Mendelsohn-Dulmage).  K pairs the i-th smallest of I with the i-th
    smallest of J, and every other channel takes its own edge.
    """
    n, out0, size = g.n, g.n + g.m, g.size
    match_l = rows_to + [-1] * (size - n)
    for x, v in enumerate(g.state_matching[1]):
        if v >= 0:
            continue
        while 0 <= x < n and states_from[x] >= 0:
            l = states_from[x]
            x, match_l[l] = match_l[l], x
    used = set(match_l[:n])  # the states and inputs the state rows take
    outputs = [y for y in range(out0, size) if match_l[y] >= 0]
    for v in range(n, size):
        if match_l[v] < 0 and v not in used:
            match_l[v] = v
    for u, y in zip(sorted(r for r in used if r >= n), outputs):
        match_l[u] = y
    return match_l


def _hall(g: SystemGraph, keep: list[bool], rows, match_l: list[int]) -> NoPerfectMatching:
    """The :class:`NoPerfectMatching` of a largest matching ``match_l`` of
    the restricted graph ``keep``, ``rows``
    (:func:`~ioselect.graph_core.restricted_rows`) that leaves a left
    vertex free: the left vertices that alternating paths reach from the
    free ones, and their neighbours, less the unselected channels.  That is
    the Dulmage-Mendelsohn set, the same for every largest matching.

    One :func:`_path` runs from each free left vertex, and the searches
    share their marks, so each right vertex is reached once.  A hub enters
    as one more matched pair, left and right vertex ``size``, so a search
    that reaches a selected input reaches every selected output, as K's
    stars would take it.  No search may reach a free vertex, since the
    matching is largest.
    """
    size = g.size
    match_r = [-1] * (size + 1)
    for l, r in enumerate(match_l):
        if r >= 0:
            match_r[r] = l
    if g.hub:
        match_r[size] = size
    seen, parent, reached = [False] * (size + 1), [0] * (size + 1), []
    for l, r in enumerate(match_l):
        if r < 0 and _path(l, rows, match_r, seen, parent, reached) >= 0:
            raise InvariantViolated("an alternating path reaches a free vertex: the matching is not largest")
    left = [r < 0 for r in match_l] + [False]
    for r in reached:
        left[match_r[r]] = True
    return NoPerfectMatching(
        g, (v for v in range(size) if left[v] and keep[v]), (v for v in range(size) if seen[v] and keep[v])
    )


def _largest(g: SystemGraph, sel: Optional[Selection], orders=None, rows=None) -> list[int]:
    """A largest matching of B(A, B, C, K) restricted to ``sel`` (all of it
    without ``sel``), under the ids of ``g``, as each left vertex's partner,
    -1 when free.

    With a hub, each side completed over its channels in ``orders`` (one
    iterable per side), by default ``sel``'s in index order, and the two
    joined (:func:`_join`).  With a partial K, Hopcroft-Karp's on the
    restricted rows ``rows`` (:func:`~ioselect.graph_core.restricted_rows`),
    built here when not given.  Callers range-check ``sel``.
    """
    if not g.hub:
        return _hopcroft_karp(rows or restricted_rows(g, sel)[1])[0]
    if orders is None:
        orders = (range(g.m), range(g.p)) if sel is None else (sel.sorted_inputs(), sel.sorted_outputs())
    return _join(g, *(complete_side(g, side, chosen)[0] for side, chosen in enumerate(orders)))


def has_perfect_matching(g: SystemGraph, sel: Optional[Selection] = None) -> bool:
    """True iff ``g`` has a perfect matching; with ``sel``, iff the graph of
    the system restricted to ``sel`` has one, decided under the ids of
    ``g``: iff :func:`_largest` leaves no left vertex free."""
    return -1 not in _largest(g, sel)


def hall_set(g: SystemGraph, sel: Optional[Selection] = None) -> Optional[NoPerfectMatching]:
    """None when the graph restricted to ``sel`` (all of it without ``sel``)
    has a perfect matching; otherwise the :class:`NoPerfectMatching` that
    :func:`_hall` builds on the one largest matching :func:`_largest`
    found, under the ids of ``g``.  The restricted rows are joined at most
    once, and a partial K's Hopcroft-Karp reads the same rows.  A caller
    that wants only the yes/no reads :func:`has_perfect_matching`, which
    builds no witness.  Callers range-check ``sel``.
    """
    restricted = None if g.hub else restricted_rows(g, sel)  # a hub's sides read no rows
    match_l = _largest(g, sel, rows=restricted[1] if restricted else None)
    if -1 not in match_l:
        return None
    keep, rows = restricted or restricted_rows(g, sel)
    return _hall(g, keep, rows, match_l)


def min_cost_perfect_matching(g: SystemGraph) -> tuple[int, ...]:
    """Exact minimum-cost perfect matching of a graph with a hub, as its
    partner list (entry l is left vertex l's right vertex): the largest
    matching of :func:`_largest` with each side's channels in (cost,
    index) order.

    Ties break as if a feedback edge (u'_i, y_j) paid, below its true cost,
    2**(m+p) (fewest feedback edges first), then 2**(p+i) (low input
    indices first), then 2**j (low output indices).  Every perfect matching
    uses at least d = n - nu(B(A)) feedback edges, and costs are never
    negative, so the optimum uses exactly d; each layer is then a sum of an
    input part and an output part.  On a matroid the greedy in (cost,
    index) order yields the basis that is lightest under every weight
    ordered that way (Edmonds 1971), so each side's greedy is the optimum's
    side.  The matching pairs the i-th smallest used input with the i-th
    smallest used output.

    Raises :class:`ModelError` if K is not complete, and
    :class:`NoPerfectMatching` (with a Hall witness) if no perfect matching
    exists.
    """
    _require_hub(g)
    orders = [sorted(range(len(costs)), key=costs.__getitem__) for costs in (g.cost_u, g.cost_y)]
    match_l = _largest(g, None, orders)
    if -1 in match_l:
        raise _hall(g, *restricted_rows(g, None), match_l)
    return tuple(match_l)


def extract_io(g: SystemGraph, partners: Sequence[int]) -> tuple[Selection, int]:
    """Used inputs/outputs of a perfect matching of ``g``, given as its
    partner list, and their cost.

    I collects the inputs matched to state rows (EU edges), J the outputs
    whose rows are matched to states (EY edges).  For complete (or any) K,
    the feedback edges (u'_i, y_j) in the matching are in bijection with
    both sets, so the selection cost, the sum of p_u over I and p_y over J,
    equals the matching cost; :class:`InvariantViolated` is raised if they
    are not.
    """
    n, out0 = g.n, g.n + g.m
    inputs = frozenset(r - n for r in partners[:n] if r >= n)
    outputs = frozenset(l - out0 for l in range(out0, g.size) if partners[l] < n)
    feedback = [(u - n, partners[u] - out0) for u in range(n, out0) if partners[u] >= out0]
    if frozenset(i for i, _j in feedback) != inputs or frozenset(j for _i, j in feedback) != outputs:
        raise InvariantViolated("feedback edges out of bijection with used inputs/outputs")
    return Selection(inputs, outputs), sum(g.cost_u[i] for i in inputs) + sum(g.cost_y[j] for j in outputs)


def cycle_cover_check(system: StructuredSystem, sel: Selection) -> bool:
    """True iff all states can be spanned by vertex-disjoint cycles of the
    restricted system digraph (perfect-matching criterion)."""
    _check_selection(system, sel)
    return has_perfect_matching(build_bipartite(system), sel)


def state_pattern_has_pm(g: SystemGraph) -> Optional[list[int]]:
    """A perfect matching in B(A) alone (EX edges only, the state rows of
    ``g``), or None when there is none: then the states need inputs or
    outputs for a spanning disjoint-cycle family.  Entry i is the state x_j
    matched to x'_i.  It is B(A)'s maximum matching, which also seeds every
    flow on ``g``; callers must not mutate it."""
    match_l = g.state_matching[0]
    return None if -1 in match_l else match_l


def matched_edges(g: SystemGraph, partners: Sequence[int]) -> Iterator[tuple[str, str, str, str]]:
    """The edges of a matching of ``g`` given as its partner list, by left
    vertex: left label, right label, class and cost, as dumps and traces
    print them."""
    for l, r in enumerate(partners):
        cls, cost = g.edge(l, r)
        yield g.left_name(l), g.right_name(r), cls, format_cost(cost)


def dump_matching(g: SystemGraph, partners: Sequence[int]) -> str:
    """One matched edge per line: ``left right class cost``."""
    return "".join(" ".join(edge) + "\n" for edge in matched_edges(g, partners))
