"""Matchings on B(A, B, C, K), the bipartite reading of the system graph.

The graph is :class:`ioselect.graph_core.SystemGraph`, stored once: row v'
of B(A, B, C, K) is v's list of in-neighbours in D(A, B, C, K), followed,
for an input or output, by its own twin.  Its edges and their costs:

* (x'_i, x_j)  iff A_ij is starred            (class EX, cost 0)
* (x'_i, u_j)  iff B_ij is starred            (class EU, cost 0)
* (y'_j, x_i)  iff C_ji is starred            (class EY, cost 0)
* (u'_i, y_j)  iff K_ij is starred            (class EK, cost p_u(i)+p_y(j))
* (u'_i, u_i) and (y'_j, y_j) always          (classes EUU/EYY, cost 0)

A complete K is not expanded into its m*p EK edges: a flag stands for one
hub vertex h (id n+m+p), with an edge (u'_i, h) of cost p_u(i) (class UH)
per input and an edge (h, y_j) of cost p_y(j) (class HY) per output.
Matchings are unit flows from the left side to the right side, and h
passes on as many units as it takes in, so a flow through h is a set of EK
edges pairing its inputs with its outputs.  Every pairing costs the same;
reported matchings pair the i-th smallest input with the i-th smallest
output.  An explicit partial K keeps one EK edge per star.  An edge's class
and cost follow from its end points' ids, so a :class:`BipEdge` is made
only for an edge that a matching reports.

Perfect matchings of this graph correspond exactly to families of disjoint
cycles in the system digraph that span all states, and the minimum-cost
perfect matching realizes the cheapest such family; its used inputs/outputs
are read off the matched EU/EY edges.

Every flow starts from B(A)'s maximum matching, found once per graph
(:attr:`SystemGraph.state_matching`), with every input and output on its
own edge: a largest matching of cost 0, so the minimum-cost one takes
n - nu(B(A)) more augmenting paths, each at most one transit through the
hub (the only edges that cost anything).  The feasibility flows flip every
path one sweep of the graph finds, and also run on a partial K.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop  # noqa: F401  # see below
from typing import Optional

# the edge classes, BipEdge and build_bipartite are also this module's names
from ioselect.graph_core import (
    EDGE_EK,
    EDGE_EU,
    EDGE_EUU,
    EDGE_EX,
    EDGE_EY,
    EDGE_EYY,
    EDGE_HY,
    EDGE_UH,
    BipEdge,
    SystemGraph,
    build_bipartite,
    selected_vertices,
    vertex_name,
)
from ioselect.system_model import (
    InvariantViolated,
    ModelError,
    Selection,
    StructuredSystem,
    _check_selection,
)

# No code here pops a heap.  perfbench/tracer.py replaces this name to count
# heap pops, so the name stays until the tracer reads an in-package recorder
# (ROADMAP item 1); its count reads 0.


class NoPerfectMatching(ModelError):
    """Condition b) is unsatisfiable: some states cannot be put on disjoint cycles.

    Carries a Hall witness: a left vertex set whose neighborhood is smaller
    than itself.
    """

    def __init__(self, left_labels: tuple[str, ...], right_labels: tuple[str, ...]):
        self.left_labels = left_labels
        self.right_labels = right_labels
        super().__init__(
            "no perfect matching: {%s} has only neighbors {%s}"
            % (", ".join(left_labels), ", ".join(right_labels))
        )


@dataclass(frozen=True)
class Matching:
    """A set of pairwise endpoint-disjoint edges; perfect when it saturates both sides."""

    n: int
    m: int
    p: int
    edges: tuple[BipEdge, ...]
    perfect: bool

    @property
    def total_cost(self) -> int:
        return sum(e.cost for e in self.edges)


def _unit_flow(
    g: SystemGraph,
    prices: Optional[tuple[list[int], list[int]]] = None,
    sel: Optional[Selection] = None,
) -> tuple[list[int], list[int], Optional[tuple[list[int], list[int]]]]:
    """Maximum unit flow from the left side to the right side of ``g``,
    through the hub where there is one.

    ``prices`` is one positive weight per input and one per output: an edge
    (u'_i, h) weighs its input's, an edge (h, y_j) its output's, and every
    other edge 0; with None every weight is 0.  With ``sel``, each
    unselected input and output is reduced to its edge (u'_i, u_i) or
    (y'_j, y_j), which a perfect matching must use, so the graph has one
    exactly when B(A, B, C, K) of the system restricted to ``sel`` has one.

    The flow starts from B(A)'s maximum matching with every input and output
    on its own edge, a largest flow of weight 0: no other edge of an input's
    left copy or an output's right copy weighs 0.  With ``prices`` each
    round augments one shortest path, so a perfect matching takes
    n - nu(B(A)) rounds; some shortest path per round is all successive
    shortest paths need (Ahuja, Magnanti and Orlin, *Network Flows*, section
    9.7).  Without, each round flips every path it finds (see :func:`_round`).

    Returns the partner of each left and each right vertex (the other side's
    vertex, the hub id ``g.size``, or -1 when free) and, when some left
    vertex stays free, a Hall witness: the left vertices the last round
    reached, through the hub too, without finding a path, and their
    neighbours in B(A, B, C, K).  It reaches the hub exactly when it reaches
    a selected input, which is adjacent to every selected output, so then
    every output is a neighbour.
    """
    n, m, size = g.n, g.m, g.size
    out0 = n + m
    keep = selected_vertices(n, m, g.p, sel)
    adj = g.adj if sel is None else [row if keep[v] else [v] for v, row in enumerate(g.adj)]
    price_in, price_out = prices if prices is not None else ([0] * m, [0] * g.p)
    # the cost of entering the hub from each selected input, and the exits by
    # cost: -p_u(i) back to an input that sends to it, +p_y(j) on to an output
    enter = [None] * n + [c if g.hub and keep[n + i] else None for i, c in enumerate(price_in)] + [None] * g.p
    exits = sorted(
        (v for v in range(n, size) if g.hub and keep[v]),
        key=lambda v: -price_in[v - n] if v < out0 else price_out[v - out0],
    )

    state_l, state_r = g.state_matching
    match_l = state_l + list(range(n, size))
    match_r = state_r + list(range(n, size))
    while True:
        free = [l for l in range(n) if match_l[l] < 0]
        if not free:
            return match_l, match_r, None
        hall = _round(adj, free, prices is not None, enter, price_out, exits, match_l, match_r, out0)
        if hall is not None:
            return match_l, match_r, hall


def _round(adj, free, priced, enter, price_out, exits, match_l, match_r, out0):
    """One round of :func:`_unit_flow`: one :func:`_search` from all the free
    states if ``priced``, else one from each in turn, each path found
    flipped at once.  Returns None if a path was flipped, else the witness.
    The marks and the hub's exits are shared, so a round sweeps the graph
    once: a search goes on only to vertices no earlier one met, which led to
    no free vertex then.  A flip can open a way through them, so the
    unpriced flow runs rounds until one flips no path."""
    size = len(match_l)
    seen_l = [r < 0 for r in match_l]  # the free states
    parent_r = [-1] * size  # the left vertex (or the hub) each right vertex was reached from
    # a lone free state whose neighbours are all reached leads nowhere new
    searches = [free] if priced else ([l] for l in free if any(parent_r[r] < 0 for r in adj[l]))
    exits, flipped, entered = iter(exits), False, False
    for stack in searches:
        target, entry = _search(adj, stack, seen_l, parent_r, enter, price_out, exits, match_l, match_r, out0)
        entered = entered or entry >= 0
        if target >= 0:
            _augment(match_l, match_r, parent_r, target, entry, size, out0)
            flipped = True
    if flipped:
        return None
    left = [l for l in range(size) if seen_l[l]]
    return left, [r for r in range(size) if parent_r[r] >= 0 or (entered and r >= out0)]


def _search(adj, stack, seen_l, parent_r, enter, price_out, exits, match_l, match_r, out0) -> tuple[int, int]:
    """Search on over 0-weight edges from the left vertices on ``stack``,
    recording in ``parent_r`` where each new right vertex was reached from,
    up to the first free right vertex.  When the stack runs dry, enter the
    hub once, at the cheapest entry met: (u'_i, h) from a reached input not
    sending to the hub (+p_u(i), ``enter``), or y_j -> h back over a reached
    output that the hub sends to (-p_y(j)).  Then, each time the stack runs
    dry, take the next exit from ``exits`` that is still one and still
    unreached: h -> y_j into an output, or h -> u'_i back to an input that
    sends to the hub.  Every weight sits on the hub's edges, so with
    ``exits`` in price order the first free right vertex met ends a
    shortest path.  Returns it, or -1, and the entry chosen, or -1.
    """
    hub = len(match_l)
    entry, best, entered = -1, 0, False
    while True:
        while stack:
            l = stack.pop()
            cost = enter[l]
            if cost is not None and not entered and match_l[l] != hub and (entry < 0 or cost < best):
                entry, best = l, cost
            for r in adj[l]:
                if parent_r[r] < 0:
                    parent_r[r] = l
                    nxt = match_r[r]
                    if nxt < 0:
                        return r, entry
                    if nxt == hub:
                        cost = -price_out[r - out0]
                        if not entered and (entry < 0 or cost < best):
                            entry, best = r, cost
                    elif not seen_l[nxt]:
                        seen_l[nxt] = True
                        stack.append(nxt)
        if entry < 0:
            return -1, -1
        entered = True
        for v in exits:
            if v >= out0:  # h -> y_j, and on from y_j's partner (an output stays matched)
                if match_r[v] == hub or parent_r[v] >= 0:
                    continue
                parent_r[v] = hub
                v = match_r[v]
            elif match_l[v] != hub:
                continue
            if not seen_l[v]:
                seen_l[v] = True
                stack.append(v)
                break
        else:
            return -1, entry


def _augment(
    match_l: list[int], match_r: list[int], parent_r: list[int], r: int, entry: int, hub: int, out0: int
) -> None:
    """Flip one round's path, back from the free right vertex ``r``.  A path
    through the hub is flipped from ``r`` back to its exit, and then from
    ``entry`` back to a free left vertex."""
    while True:
        l = parent_r[r]
        if l == hub:  # h -> y_j: the hub now sends to y_j
            match_r[r] = prev = hub
        else:
            prev = match_l[l]
            match_l[l] = r
            match_r[r] = l
        if prev < 0:
            return
        if prev != hub:
            r = prev
        elif entry < out0:  # (u'_i, h): u'_i now sends to the hub
            r, match_l[entry] = match_l[entry], hub
        else:  # y_j -> h: y_j takes the left vertex it was reached from
            r = entry


def has_perfect_matching(g: SystemGraph, sel: Optional[Selection] = None) -> bool:
    """True iff ``g`` has a perfect matching; with ``sel``, iff the graph of
    the system restricted to ``sel`` has one, decided on ``g`` itself."""
    return _unit_flow(g, None, sel)[2] is None


def hall_indices(
    g: SystemGraph, sel: Optional[Selection] = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex ids of a deficient left set and its (strictly smaller)
    neighborhood; with ``sel``, in the graph of the system restricted to
    ``sel``, under the ids of ``g``.

    The witness is what the flow's last round reaches from the unmatched
    left vertices by alternating paths, through the hub too: the same set
    (the Dulmage-Mendelsohn one) for every maximum matching.  With ``sel``
    the masked graph has a maximum matching made of one of the restricted
    graph and the unselected vertices' own edges, so its set, less the
    unselected vertices, is the restricted graph's.  Raises if the graph
    has a perfect matching.
    """
    witness = _unit_flow(g, None, sel)[2]
    if witness is None:
        raise ModelError("graph has a perfect matching; no Hall witness exists")
    keep = selected_vertices(g.n, g.m, g.p, sel)
    left, right = witness
    return tuple(v for v in left if keep[v]), tuple(v for v in right if keep[v])


def hall_witness(
    g: SystemGraph, sel: Optional[Selection] = None
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Like :func:`hall_indices` but with readable vertex labels."""
    left, right = hall_indices(g, sel)
    return _labels(g, left, right)


def _labels(g: SystemGraph, left, right) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(g.left_name(v) for v in left), tuple(g.right_name(v) for v in right)


def min_cost_perfect_matching(g: SystemGraph) -> Matching:
    """Exact minimum-cost perfect matching of a graph with a hub, by
    successive shortest paths, each through the hub at most once (see
    :func:`_unit_flow`).

    Costs are composite integers: the true cost in the high bits, then tie
    breaks that minimize the number of feedback edges used, then prefer low
    input indices, then low output indices.  A feedback edge (u'_i, y_j)
    pays 2**(m+p) (count layer) plus 2**(p+i) (input layer) plus 2**j
    (output layer).  Every layer is a sum of an input part and an output
    part, so the flow gets one price per input, p_u(i)*cap + 2**(m+p) +
    2**(p+i), and one per output, p_y(j)*cap + 2**j: an EK edge pays both,
    (u'_i, h) its input's and (h, y_j) its output's.  The layers make the
    used inputs and outputs of the optimum unique; the flow only compares
    them.  The returned matching holds a :class:`BipEdge` for each left
    vertex.

    Raises :class:`ModelError` if K is not complete, and
    :class:`NoPerfectMatching` (with a Hall witness) if no perfect matching
    exists.
    """
    if not g.hub:
        raise ModelError("min-cost matching requires a complete feedback pattern")
    n, m, p = g.n, g.m, g.p
    # the cap strictly exceeds the largest possible tie-break total, which
    # is min(m, p) feedback edges paying under 2**(m+p+1) each
    tie_cap = (min(m, p) + 1) << (m + p + 1)
    price_in = [c * tie_cap + (1 << (m + p)) + (1 << (p + i)) for i, c in enumerate(g.cost_u)]
    price_out = [c * tie_cap + (1 << j) for j, c in enumerate(g.cost_y)]
    match_l, match_r, hall = _unit_flow(g, (price_in, price_out))
    if hall is not None:
        raise NoPerfectMatching(*_labels(g, *hall))
    # the matched edge of each left vertex; each hub input in turn takes the
    # smallest hub output left
    hub_outputs = iter([r for r in range(g.size) if match_r[r] == g.size])
    edges = (g.edge(l, next(hub_outputs) if r == g.size else r) for l, r in enumerate(match_l))
    return Matching(n, m, p, tuple(edges), perfect=True)


def extract_io(matching: Matching) -> tuple[Selection, int]:
    """Used inputs/outputs of a perfect matching and their cost.

    I(M) collects inputs matched through EU edges, J(M) outputs matched
    through EY edges.  For complete (or any) K, the feedback edges in the
    matching are in bijection with both sets, so the selection cost equals
    the matching cost; :class:`InvariantViolated` is raised if they are not.
    """
    if not matching.perfect:
        raise ModelError("extract_io needs a perfect matching")
    n, m = matching.n, matching.m
    inputs = frozenset(e.right - n for e in matching.edges if e.cls == EDGE_EU)
    outputs = frozenset(e.left - n - m for e in matching.edges if e.cls == EDGE_EY)
    k_in = frozenset(e.left - n for e in matching.edges if e.cls == EDGE_EK)
    k_out = frozenset(e.right - n - m for e in matching.edges if e.cls == EDGE_EK)
    if k_in != inputs or k_out != outputs:
        raise InvariantViolated("feedback edges out of bijection with used inputs/outputs")
    return Selection(inputs, outputs), matching.total_cost


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


def dump_matching(matching: Matching) -> str:
    """One matched edge per line: ``left right class cost``."""
    from ioselect.system_model import format_cost

    lines = []
    n, m = matching.n, matching.m
    for e in sorted(matching.edges, key=lambda e: e.left):
        lines.append(
            f"{vertex_name(e.left, n, m)}' {vertex_name(e.right, n, m)} "
            f"{e.cls} {format_cost(e.cost)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
