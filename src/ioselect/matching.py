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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterator, Optional

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


def _hopcroft_karp(
    size: int, adj: list[list[int]], match_l: list[int], match_r: list[int]
) -> int:
    """Maximum matching via Hopcroft-Karp, extending the matching in place.

    ``adj[l]`` lists right neighbors.  Returns the matching size.
    """
    INF = size + 1
    matched = sum(1 for r in match_l if r >= 0)
    while True:
        dist = [INF] * size
        queue: deque[int] = deque()
        for l in range(size):
            if match_l[l] < 0:
                dist[l] = 0
                queue.append(l)
        found = False
        while queue:
            l = queue.popleft()
            for r in adj[l]:
                nxt = match_r[r]
                if nxt < 0:
                    found = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[l] + 1
                    queue.append(nxt)
        if not found:
            return matched

        # Depth-first search for augmenting paths along the BFS layers.  The
        # vertex being scanned and its neighbour iterator live in locals;
        # ``path`` holds the (vertex, iterator) frames below it, so path
        # length is not bounded by the recursion limit.
        for root in range(size):
            if match_l[root] >= 0:
                continue
            path: list[tuple[int, Iterator[int]]] = []
            l, it = root, iter(adj[root])
            while True:
                next_layer = dist[l] + 1
                for r in it:
                    nxt = match_r[r]
                    if nxt < 0 or dist[nxt] == next_layer:
                        break
                else:  # dead end: l is not tried again this phase
                    dist[l] = INF
                    if not path:
                        break
                    l, it = path.pop()
                    continue
                if nxt >= 0:  # descend to the left vertex matched to r
                    path.append((l, it))
                    l, it = nxt, iter(adj[nxt])
                    continue
                # r is free: flip the path.  Each vertex below takes the
                # right vertex its successor was matched to.
                while True:
                    prev = match_l[l]
                    match_l[l] = r
                    match_r[r] = l
                    if not path:
                        break
                    r = prev
                    l, _it = path.pop()
                matched += 1
                break


_LEFT, _RIGHT, _HUB = 0, 1, 2  # heap entry kinds
_FROM_HUB = -2  # parent of a right vertex reached by a hub -> y_j edge


def _unit_flow(
    g: SystemGraph,
    prices: Optional[tuple[list[int], list[int]]] = None,
    sel: Optional[Selection] = None,
) -> tuple[list[int], list[int], Optional[tuple[list[int], list[int]]]]:
    """Maximum unit flow from the left side to the right side of ``g``,
    through the hub where there is one, by successive shortest paths.

    ``prices`` is one weight per input and one per output.  An EK edge
    weighs the sum of its input's and its output's, a UH edge its input's,
    an HY edge its output's, and every other edge 0.  With ``sel``, the
    flow runs on ``g`` with each unselected input and output reduced to its
    edge (u'_i, u_i) or (y'_j, y_j).  A perfect matching must use that edge,
    so the edges into u_i or y_j from elsewhere stay unused, and the graph
    has a perfect matching exactly when B(A, B, C, K) of the system
    restricted to ``sel`` has one.

    Edges of weight 0 seed a Hopcroft-Karp matching; each round then runs
    Dijkstra with potentials (one per left vertex, right vertex and the hub)
    from every free left vertex in the residual graph, stops at the first
    free right vertex, and augments.  With nonnegative weights the flow has
    minimum weight among flows of its size.  With ``prices`` None any
    maximum flow will do: all weights are 0, free inputs go straight to free
    outputs through the hub before the first round, and a stack stands in
    for the heap (every order is a shortest-path order).

    Returns the partner of each left and each right vertex (the other side's
    vertex, the hub id ``g.size``, or -1 when free) and, when some left
    vertex stays free, a Hall witness: the left vertices the last search
    reached and their neighbours in B(A, B, C, K).  That search ran to the
    end, so it relaxed every edge of each left vertex it reached.  It
    reaches the hub exactly when it reaches an input, and in B(A, B, C, K)
    an input is adjacent to every output, so then every output with a hub
    edge is a neighbour.
    """
    n, m, size = g.n, g.m, g.size
    hub, out0 = size, n + m
    keep = selected_vertices(n, m, g.p, sel)
    adj = g.adj if sel is None else [row if keep[v] else [v] for v, row in enumerate(g.adj)]
    has_hub = g.hub
    hub_in = [l for l in range(n, out0) if keep[l]] if has_hub else []
    hub_out = range(out0, size) if has_hub else range(0)
    if prices is None:
        price_in, price_out = [0] * m, [0] * g.p
        seed = adj
    else:
        # prices are positive, so an input's own edge is its only free one
        price_in, price_out = prices
        seed = list(adj)
        seed[n:out0] = [[l] for l in range(n, out0)]

    match_l = [-1] * size
    match_r = [-1] * size
    _hopcroft_karp(size, seed, match_l, match_r)
    if prices is None:
        free_in = [l for l in hub_in if match_l[l] < 0]
        free_out = [r for r in hub_out if match_r[r] < 0]
        for l, r in zip(free_in, free_out):
            match_l[l] = match_r[r] = hub

    # Reduced cost of a residual edge a -> b of weight c is c - pot[a] + pot[b]
    # (a matched edge is used backwards with weight -c); every round keeps
    # them nonnegative and makes the augmenting path's edges 0.
    pot_l = [0] * size
    pot_r = [0] * size
    pot_h = 0
    push, pop = (heappush, heappop) if prices is not None else (list.append, list.pop)
    while True:
        heap = [(0, _LEFT, l) for l in range(size) if match_l[l] < 0]
        if not heap:
            return match_l, match_r, None
        dist_l = [-1] * size  # -1: not reached
        dist_r = [-1] * size
        dist_h = -1
        for _d, _k, l in heap:
            dist_l[l] = 0
        parent_r = [-1] * size  # left vertex before each right vertex, or _FROM_HUB
        parent_h = 0  # the left vertex l of an l -> hub edge, or ~y for y -> hub
        target = -1
        while heap:
            d, kind, v = pop(heap)
            if kind == _LEFT:
                if d > dist_l[v]:
                    continue
                base = d - pot_l[v]
                if not n <= v < out0:
                    for r in adj[v]:
                        nd = base + pot_r[r]
                        if dist_r[r] < 0 or nd < dist_r[r]:
                            dist_r[r] = nd
                            parent_r[r] = v
                            push(heap, (nd, _RIGHT, r))
                    continue
                # an input: its EK edges, its own edge (free), its hub edge
                priced = base + price_in[v - n]
                for r in adj[v]:
                    nd = (priced + price_out[r - out0] if r != v else base) + pot_r[r]
                    if dist_r[r] < 0 or nd < dist_r[r]:
                        dist_r[r] = nd
                        parent_r[r] = v
                        push(heap, (nd, _RIGHT, r))
                if has_hub and keep[v] and match_l[v] != hub:
                    nd = priced + pot_h
                    if dist_h < 0 or nd < dist_h:
                        dist_h, parent_h = nd, v
                        push(heap, (nd, _HUB, hub))
            elif kind == _RIGHT:
                if d > dist_r[v]:
                    continue
                back = match_r[v]
                if back < 0:
                    target = v
                    break
                if back == hub:
                    # several edges enter the hub, so this one need not be tight
                    nd = d - price_out[v - out0] - pot_r[v] + pot_h
                    if dist_h < 0 or nd < dist_h:
                        dist_h, parent_h = nd, ~v
                        push(heap, (nd, _HUB, hub))
                elif dist_l[back] < 0 or d < dist_l[back]:
                    dist_l[back] = d
                    push(heap, (d, _LEFT, back))
            else:
                if d > dist_h:
                    continue
                for r in hub_out:
                    if match_r[r] != hub:
                        nd = d + price_out[r - out0] - pot_h + pot_r[r]
                        if dist_r[r] < 0 or nd < dist_r[r]:
                            dist_r[r] = nd
                            parent_r[r] = _FROM_HUB
                            push(heap, (nd, _RIGHT, r))
                for l in hub_in:
                    if match_l[l] == hub:
                        nd = d - price_in[l - n] + pot_l[l] - pot_h
                        if dist_l[l] < 0 or nd < dist_l[l]:
                            dist_l[l] = nd
                            push(heap, (nd, _LEFT, l))
        if target < 0:
            left = [l for l in range(size) if dist_l[l] >= 0]
            right = [r for r in range(size) if dist_r[r] >= 0 or (dist_h >= 0 and r in hub_out)]
            return match_l, match_r, (left, right)

        # vertices settled below the target's distance move up by the gap;
        # the others (unreached, or reached no closer than it) stay
        best = dist_r[target]
        for v in range(size):
            if 0 <= dist_l[v] < best:
                pot_l[v] += best - dist_l[v]
            if 0 <= dist_r[v] < best:
                pot_r[v] += best - dist_r[v]
        if 0 <= dist_h < best:
            pot_h += best - dist_h

        # augment back from the target; ``r`` is a right vertex or the hub
        r = target
        while True:
            if r == hub:
                if parent_h < 0:  # y -> hub: y leaves the hub for its parent edge
                    r = ~parent_h
                else:  # l -> hub: l now sends to the hub
                    l = parent_h
                    r, match_l[l] = match_l[l], hub
                    if r < 0:
                        break
                    continue
            l = parent_r[r]
            if l == _FROM_HUB:
                match_r[r] = hub
                r = hub
                continue
            prev = match_l[l]
            match_l[l] = r
            match_r[r] = l
            if prev < 0:
                break
            r = prev


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

    Built from a maximum matching: left vertices reachable from an
    unmatched left vertex by alternating paths form the witness.  Every
    maximum matching gives the same set (the Dulmage-Mendelsohn one), so the
    witness does not depend on the matching found.  With ``sel`` the flow
    runs on ``g`` masked (see :func:`_unit_flow`), which has a maximum matching
    made of one of the restricted graph and the unselected vertices' own
    edges; so the masked graph's set, less the unselected vertices, is the
    restricted graph's.  Raises if the graph has a perfect matching.
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
    """Exact minimum-cost perfect matching by successive shortest paths.

    Costs are composite integers: the true cost in the high bits, then tie
    breaks that minimize the number of feedback edges used, then prefer low
    input indices, then low output indices.  A feedback edge (u'_i, y_j)
    pays 2**(m+p) (count layer) plus 2**(p+i) (input layer) plus 2**j
    (output layer).  Every layer is a sum of an input part and an output
    part, so the flow gets one price per input, p_u(i)*cap + 2**(m+p) +
    2**(p+i), and one per output, p_y(j)*cap + 2**j: an EK edge pays both,
    (u'_i, h) its input's and (h, y_j) its output's.  The layers make the
    used inputs and outputs of the optimum unique.  The returned matching
    holds a :class:`BipEdge` for each left vertex.

    Raises :class:`NoPerfectMatching` (with a Hall witness) if no perfect
    matching exists.
    """
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
    matched to x'_i."""
    n = g.n
    match_l = [-1] * n
    if _hopcroft_karp(n, g.state_rows(), match_l, [-1] * n) < n:
        return None
    return match_l


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
