"""System bipartite graph and matchings.

The bipartite graph B(A, B, C, K) has primed vertices x'_1..x'_n, u'_1..u'_m,
y'_1..y'_p on the left and their unprimed twins on the right.  Edges:

* (x'_i, x_j)  iff A_ij is starred            (class EX, cost 0)
* (x'_i, u_j)  iff B_ij is starred            (class EU, cost 0)
* (y'_j, x_i)  iff C_ji is starred            (class EY, cost 0)
* (u'_i, y_j)  iff K_ij is starred            (class EK, cost p_u(i)+p_y(j))
* (u'_i, u_i) and (y'_j, y_j) always          (classes EUU/EYY, cost 0)

A complete K is not expanded into its m*p EK edges.  One hub vertex h (id
n+m+p) takes their place, with an edge (u'_i, h) of cost p_u(i) (class UH)
per input and an edge (h, y_j) of cost p_y(j) (class HY) per output.
Matchings are computed as unit flows from the left side to the right side,
and h passes on as many units as it takes in, so a flow through h is a set
of EK edges pairing its inputs with its outputs.  Every pairing costs the
same; reported matchings pair the i-th smallest input with the i-th
smallest output.  An explicit partial K keeps one EK edge per star.

Perfect matchings of this graph correspond exactly to families of disjoint
cycles in the system digraph that span all states, and the minimum-cost
perfect matching realizes the cheapest such family; its used inputs/outputs
are read off the matched EU/EY edges.

Vertex ids on each side follow the graph_core encoding: states 0..n-1,
inputs n..n+m-1, outputs n+m..n+m+p-1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Callable, Iterator, Optional

from ioselect.graph_core import (
    EDGE_K as EDGE_EK,
    EDGE_U as EDGE_EU,
    EDGE_X as EDGE_EX,
    EDGE_Y as EDGE_EY,
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

EDGE_EUU = "EUU"
EDGE_EYY = "EYY"
EDGE_UH = "UH"
EDGE_HY = "HY"


@dataclass(frozen=True)
class BipEdge:
    left: int
    right: int
    cls: str
    cost: int  # scaled; nonzero only on EK, UH and HY edges


@dataclass(frozen=True)
class SystemBipartiteGraph:
    """B(A, B, C, K); UH edges end and HY edges start at the hub id ``size``."""

    n: int
    m: int
    p: int
    edges: tuple[BipEdge, ...]

    @property
    def size(self) -> int:
        return self.n + self.m + self.p

    def left_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m) + "'"

    def right_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m)

    @cached_property
    def unit_adjacency(self) -> _Adjacency:
        """:func:`_adjacency` with every weight 0, built once per graph for
        the feasibility searches."""
        return _adjacency(self, None)


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


def build_bipartite(system: StructuredSystem) -> SystemBipartiteGraph:
    """B(A, B, C, K), with a complete K as the hub's m + p edges."""
    n, m, p = system.n, system.m, system.p
    edges: list[BipEdge] = []
    for i, j in sorted(system.A.stars):
        edges.append(BipEdge(i, j, EDGE_EX, 0))
    for i, j in sorted(system.B.stars):
        edges.append(BipEdge(i, n + j, EDGE_EU, 0))
    for j, i in sorted(system.C.stars):
        edges.append(BipEdge(n + m + j, i, EDGE_EY, 0))
    if system.k_is_complete():
        hub = n + m + p
        for i in range(m):
            edges.append(BipEdge(n + i, hub, EDGE_UH, system.cost_u[i]))
        for j in range(p):
            edges.append(BipEdge(hub, n + m + j, EDGE_HY, system.cost_y[j]))
    else:
        for i, j in sorted(system.K.stars):
            edges.append(
                BipEdge(n + i, n + m + j, EDGE_EK, system.cost_u[i] + system.cost_y[j])
            )
    for i in range(m):
        edges.append(BipEdge(n + i, n + i, EDGE_EUU, 0))
    for j in range(p):
        edges.append(BipEdge(n + m + j, n + m + j, EDGE_EYY, 0))
    return SystemBipartiteGraph(n, m, p, tuple(edges))


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
_FEEDBACK = (EDGE_EK, EDGE_UH, EDGE_HY)


# per-left (right, weight) lists without the hub's edges; the weights of the
# hub's in-edges by input u'_i and of its out-edges by output y_j
_Adjacency = tuple[list[list[tuple[int, int]]], dict[int, int], dict[int, int]]


def _adjacency(
    g: SystemBipartiteGraph, weight: Optional[Callable[[BipEdge], int]]
) -> _Adjacency:
    """The edges of ``g`` as the flow reads them.  ``weight`` prices the
    feedback edges (classes EK, UH and HY); every other edge weighs 0."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.size)]
    hub_in: dict[int, int] = {}
    hub_out: dict[int, int] = {}
    for e in g.edges:
        w = weight(e) if weight is not None and e.cls in _FEEDBACK else 0
        if e.cls == EDGE_UH:
            hub_in[e.left] = w
        elif e.cls == EDGE_HY:
            hub_out[e.right] = w
        else:
            adj[e.left].append((e.right, w))
    return adj, hub_in, hub_out


def _masked(g: SystemBipartiteGraph, flow_graph: _Adjacency, sel: Selection) -> _Adjacency:
    """``flow_graph`` with each unselected input and output reduced to its
    edge (u'_i, u_i) or (y'_j, y_j).  A perfect matching must use that edge,
    so the edges into u_i or y_j from elsewhere stay unused, and the graph
    has a perfect matching exactly when B(A, B, C, K) of the system
    restricted to ``sel`` has one."""
    adj, hub_in, hub_out = flow_graph
    n, m = g.n, g.m
    adj = list(adj)
    for i in range(m):
        if i not in sel.inputs:
            adj[n + i] = [(n + i, 0)]
    for j in range(g.p):
        if j not in sel.outputs:
            adj[n + m + j] = [(n + m + j, 0)]
    hub_in = {l: w for l, w in hub_in.items() if l - n in sel.inputs}
    return adj, hub_in, hub_out


def _unit_flow(
    g: SystemBipartiteGraph,
    weight: Optional[Callable[[BipEdge], int]],
    sel: Optional[Selection] = None,
) -> tuple[list[int], list[int], Optional[tuple[list[int], list[int]]]]:
    """Maximum unit flow from the left side to the right side of ``g``,
    through the hub where there is one, by successive shortest paths.

    ``weight`` prices the feedback edges (classes EK, UH and HY); every
    other edge weighs 0.  With ``sel``, the flow runs on the graph of that
    selection (see :func:`_masked`).  Edges of weight 0 seed a
    Hopcroft-Karp matching; each round then runs Dijkstra with potentials
    (one per left vertex, right vertex and the hub) from every free left
    vertex in the residual graph, stops at the first free right vertex, and
    augments.  With nonnegative weights the flow has minimum weight among
    flows of its size.  With ``weight`` None any maximum flow will do: all
    weights are 0, free inputs go straight to free outputs through the hub
    before the first round, and a stack stands in for the heap (every order
    is a shortest-path order).

    Returns the partner of each left and each right vertex (the other side's
    vertex, the hub id ``g.size``, or -1 when free) and, when some left
    vertex stays free, a Hall witness: the left vertices the last search
    reached and their neighbours in B(A, B, C, K).  That search ran to the
    end, so it relaxed every edge of each left vertex it reached.  It
    reaches the hub exactly when it reaches an input, and in B(A, B, C, K)
    an input is adjacent to every output, so then every output with a hub
    edge is a neighbour.
    """
    size, hub = g.size, g.size
    flow_graph = g.unit_adjacency if weight is None else _adjacency(g, weight)
    if sel is not None:
        flow_graph = _masked(g, flow_graph, sel)
    adj, hub_in, hub_out = flow_graph
    seed = [[r for r, w in edges if w == 0] for edges in adj]

    match_l = [-1] * size
    match_r = [-1] * size
    _hopcroft_karp(size, seed, match_l, match_r)
    if weight is None:
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
    push, pop = (heappush, heappop) if weight is not None else (list.append, list.pop)
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
                for r, c in adj[v]:
                    nd = d + c - pot_l[v] + pot_r[r]
                    if dist_r[r] < 0 or nd < dist_r[r]:
                        dist_r[r] = nd
                        parent_r[r] = v
                        push(heap, (nd, _RIGHT, r))
                if v in hub_in and match_l[v] != hub:
                    nd = d + hub_in[v] - pot_l[v] + pot_h
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
                    nd = d - hub_out[v] - pot_r[v] + pot_h
                    if dist_h < 0 or nd < dist_h:
                        dist_h, parent_h = nd, ~v
                        push(heap, (nd, _HUB, hub))
                elif dist_l[back] < 0 or d < dist_l[back]:
                    dist_l[back] = d
                    push(heap, (d, _LEFT, back))
            else:
                if d > dist_h:
                    continue
                for r, c in hub_out.items():
                    if match_r[r] != hub:
                        nd = d + c - pot_h + pot_r[r]
                        if dist_r[r] < 0 or nd < dist_r[r]:
                            dist_r[r] = nd
                            parent_r[r] = _FROM_HUB
                            push(heap, (nd, _RIGHT, r))
                for l, c in hub_in.items():
                    if match_l[l] == hub:
                        nd = d - c + pot_l[l] - pot_h
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


def _matched_edges(
    g: SystemBipartiteGraph, match_l: list[int], match_r: list[int]
) -> tuple[BipEdge, ...]:
    """The matched edge of each left vertex, in left-vertex order.  The hub's
    inputs and outputs become EK edges, the i-th smallest input paired with
    the i-th smallest output."""
    hub = g.size
    hub_edge: dict[int, BipEdge] = {}  # u'_i or y_j -> its hub edge
    by_pair: dict[tuple[int, int], BipEdge] = {}
    for e in g.edges:
        if e.cls == EDGE_UH:
            hub_edge[e.left] = e
        elif e.cls == EDGE_HY:
            hub_edge[e.right] = e
        else:
            by_pair.setdefault((e.left, e.right), e)
    k_inputs = [l for l in range(g.size) if match_l[l] == hub]
    k_outputs = [r for r in range(g.size) if match_r[r] == hub]
    k_edges = {
        l: BipEdge(l, r, EDGE_EK, hub_edge[l].cost + hub_edge[r].cost)
        for l, r in zip(k_inputs, k_outputs)
    }
    return tuple(
        k_edges[l] if match_l[l] == hub else by_pair[(l, match_l[l])] for l in range(g.size)
    )


def has_perfect_matching(g: SystemBipartiteGraph, sel: Optional[Selection] = None) -> bool:
    """True iff ``g`` has a perfect matching; with ``sel``, iff the graph of
    the system restricted to ``sel`` has one, decided on ``g`` itself."""
    return _unit_flow(g, None, sel)[2] is None


def hall_indices(
    g: SystemBipartiteGraph, sel: Optional[Selection] = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex ids of a deficient left set and its (strictly smaller)
    neighborhood; with ``sel``, in the graph of the system restricted to
    ``sel``, under the ids of ``g``.

    Built from a maximum matching: left vertices reachable from an
    unmatched left vertex by alternating paths form the witness.  Every
    maximum matching gives the same set (the Dulmage-Mendelsohn one), so the
    witness does not depend on the matching found.  With ``sel`` the flow
    runs on ``g`` masked (see :func:`_masked`), which has a maximum matching
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
    g: SystemBipartiteGraph, sel: Optional[Selection] = None
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Like :func:`hall_indices` but with readable vertex labels."""
    left, right = hall_indices(g, sel)
    return _labels(g, left, right)


def _labels(g: SystemBipartiteGraph, left, right) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(g.left_name(v) for v in left), tuple(g.right_name(v) for v in right)


def min_cost_perfect_matching(g: SystemBipartiteGraph) -> Matching:
    """Exact minimum-cost perfect matching by successive shortest paths.

    Costs are composite integers: the true cost in the high bits, then tie
    breaks that minimize the number of feedback edges used, then prefer low
    input indices, then low output indices.  A feedback edge (u'_i, y_j)
    pays 2**(m+p) (count layer) plus 2**(p+i) (input layer) plus 2**j
    (output layer).  Every layer is a sum of an input part and an output
    part, so the hub's edges carry them exactly: (u'_i, h) pays the count
    and input layers, (h, y_j) the output layer.  The layers make the used
    inputs and outputs of the optimum unique.

    Raises :class:`NoPerfectMatching` (with a Hall witness) if no perfect
    matching exists.
    """
    n, m, p = g.n, g.m, g.p
    # the cap strictly exceeds the largest possible tie-break total, which
    # is min(m, p) feedback edges paying under 2**(m+p+1) each
    tie_cap = (min(m, p) + 1) << (m + p + 1)

    def weight(e: BipEdge) -> int:
        w = e.cost * tie_cap
        if e.cls in (EDGE_EK, EDGE_UH):
            w += (1 << (m + p)) + (1 << (p + e.left - n))
        if e.cls in (EDGE_EK, EDGE_HY):
            w += 1 << (e.right - n - m)
        return w

    match_l, match_r, hall = _unit_flow(g, weight)
    if hall is not None:
        raise NoPerfectMatching(*_labels(g, *hall))
    return Matching(n, m, p, _matched_edges(g, match_l, match_r), perfect=True)


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


def state_pattern_has_pm(system: StructuredSystem) -> bool:
    """Perfect matching in B(A) alone (EX edges only): the states already
    support a spanning disjoint-cycle family without inputs or outputs."""
    n = system.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(system.A.stars):
        adj[i].append(j)
    match_l = [-1] * n
    match_r = [-1] * n
    return _hopcroft_karp(n, adj, match_l, match_r) == n


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
