"""System bipartite graph and matchings.

The bipartite graph B(A, B, C, K) has primed vertices x'_1..x'_n, u'_1..u'_m,
y'_1..y'_p on the left and their unprimed twins on the right.  Edges:

* (x'_i, x_j)  iff A_ij is starred            (class EX, cost 0)
* (x'_i, u_j)  iff B_ij is starred            (class EU, cost 0)
* (y'_j, x_i)  iff C_ji is starred            (class EY, cost 0)
* (u'_i, y_j)  iff K_ij is starred            (class EK, cost p_u(i)+p_y(j))
* (u'_i, u_i) and (y'_j, y_j) always          (classes EUU/EYY, cost 0)

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
from typing import Iterator

from ioselect.graph_core import (
    EDGE_K as EDGE_EK,
    EDGE_U as EDGE_EU,
    EDGE_X as EDGE_EX,
    EDGE_Y as EDGE_EY,
    vertex_name,
)
from ioselect.system_model import (
    InvariantViolated,
    ModelError,
    Selection,
    StructuredSystem,
    restrict,
)

EDGE_EUU = "EUU"
EDGE_EYY = "EYY"


@dataclass(frozen=True)
class BipEdge:
    left: int
    right: int
    cls: str
    cost: int  # scaled; nonzero only on EK edges


@dataclass(frozen=True)
class SystemBipartiteGraph:
    n: int
    m: int
    p: int
    edges: tuple[BipEdge, ...]

    @property
    def size(self) -> int:
        return self.n + self.m + self.p

    @cached_property
    def left_adj(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices grouped by left endpoint."""
        out: list[list[int]] = [[] for _ in range(self.size)]
        for idx, e in enumerate(self.edges):
            out[e.left].append(idx)
        return tuple(tuple(lst) for lst in out)

    def left_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m) + "'"

    def right_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m)


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
    n, m, p = system.n, system.m, system.p
    edges: list[BipEdge] = []
    for i, j in sorted(system.A.stars):
        edges.append(BipEdge(i, j, EDGE_EX, 0))
    for i, j in sorted(system.B.stars):
        edges.append(BipEdge(i, n + j, EDGE_EU, 0))
    for j, i in sorted(system.C.stars):
        edges.append(BipEdge(n + m + j, i, EDGE_EY, 0))
    for i, j in sorted(system.k_stars()):
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


def _adjacency(g: SystemBipartiteGraph) -> list[list[int]]:
    return [[g.edges[e].right for e in lst] for lst in g.left_adj]


def has_perfect_matching(g: SystemBipartiteGraph) -> bool:
    size = g.size
    match_l = [-1] * size
    match_r = [-1] * size
    return _hopcroft_karp(size, _adjacency(g), match_l, match_r) == size


def hall_indices(g: SystemBipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex ids of a deficient left set and its (strictly smaller)
    neighborhood.

    Built from a maximum matching: left vertices reachable from an
    unmatched left vertex by alternating paths form the witness.  Raises if
    the graph actually has a perfect matching.
    """
    size = g.size
    adj = _adjacency(g)
    match_l = [-1] * size
    match_r = [-1] * size
    if _hopcroft_karp(size, adj, match_l, match_r) == size:
        raise ModelError("graph has a perfect matching; no Hall witness exists")
    reach_l: set[int] = set()
    reach_r: set[int] = set()
    frontier = [l for l in range(size) if match_l[l] < 0]
    reach_l.update(frontier)
    while frontier:
        nxt = []
        for l in frontier:
            for r in adj[l]:
                if r in reach_r:
                    continue
                reach_r.add(r)
                back = match_r[r]
                if back >= 0 and back not in reach_l:
                    reach_l.add(back)
                    nxt.append(back)
        frontier = nxt
    return tuple(sorted(reach_l)), tuple(sorted(reach_r))


def hall_witness(g: SystemBipartiteGraph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Like :func:`hall_indices` but with readable vertex labels."""
    left, right = hall_indices(g)
    return tuple(g.left_name(v) for v in left), tuple(g.right_name(v) for v in right)


def _tie_break_weight(g: SystemBipartiteGraph, e: BipEdge) -> int:
    """Secondary cost: minimize the number of feedback edges used, then
    prefer low input indices, then low output indices.

    Encoded additively in bit layers so a single solve settles all layers:
    every EK edge pays 2**(m+p) (count layer) plus 2**(p+i) (input layer)
    plus 2**j (output layer).  Non-EK edges pay nothing.
    """
    if e.cls != EDGE_EK:
        return 0
    n, m, p = g.n, g.m, g.p
    i = e.left - n
    j = e.right - n - m
    return (1 << (m + p)) + (1 << (p + i)) + (1 << j)


def min_cost_perfect_matching(g: SystemBipartiteGraph) -> Matching:
    """Exact minimum-cost perfect matching by successive shortest paths.

    The matching starts from a maximum matching on the zero-cost subgraph
    (every edge class except EK) and is completed with Dijkstra + potentials
    over exact integer costs; the tie-break layers of
    :func:`_tie_break_weight` make the answer deterministic.

    Raises :class:`NoPerfectMatching` (with a Hall witness) if no perfect
    matching exists.
    """
    size = g.size
    # composite integer costs: true cost in the high bits, tie-break low;
    # the cap strictly exceeds the largest possible tie-break total, which
    # is min(m, p) feedback edges paying under 2**(m+p+1) each
    tie_cap = (min(g.m, g.p) + 1) << (g.m + g.p + 1)
    costs = [e.cost * tie_cap + _tie_break_weight(g, e) for e in g.edges]

    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(size)]
    for idx, e in enumerate(g.edges):
        adj[e.left].append((e.right, costs[idx], idx))

    match_l = [-1] * size  # right endpoint, or -1
    match_r = [-1] * size
    edge_l = [-1] * size  # matched edge index per left vertex

    # zero-cost edges are exactly the non-EK ones; a maximum matching there
    # costs 0, hence is extreme, and seeds the successive-shortest-path loop
    zero_adj = [
        [g.edges[e].right for e in lst if g.edges[e].cls != EDGE_EK]
        for lst in g.left_adj
    ]
    _hopcroft_karp(size, zero_adj, match_l, match_r)
    for l in range(size):
        if match_l[l] >= 0:
            for r, _c, idx in adj[l]:
                if r == match_l[l] and g.edges[idx].cls != EDGE_EK:
                    edge_l[l] = idx
                    break

    pot_l = [0] * size
    pot_r = [0] * size
    INF = float("inf")

    unmatched = [l for l in range(size) if match_l[l] < 0]
    for _round in range(len(unmatched)):
        sources = [l for l in range(size) if match_l[l] < 0]
        if not sources:
            break
        dist_l: list[float] = [INF] * size
        dist_r: list[float] = [INF] * size
        parent_edge: list[int] = [-1] * size  # per right vertex
        heap: list[tuple[int, int, int]] = []
        for l in sources:
            dist_l[l] = 0
            heappush(heap, (0, 0, l))
        while heap:
            d, kind, v = heappop(heap)
            if kind == 0:
                if d > dist_l[v]:
                    continue
                for r, c, idx in adj[v]:
                    rc = c - pot_l[v] + pot_r[r]
                    nd = d + rc
                    if nd < dist_r[r]:
                        dist_r[r] = nd
                        parent_edge[r] = idx
                        heappush(heap, (nd, 1, r))
            else:
                if d > dist_r[v]:
                    continue
                back = match_r[v]
                if back >= 0 and d < dist_l[back]:
                    dist_l[back] = d
                    heappush(heap, (d, 0, back))
        target = -1
        best = INF
        for r in range(size):
            if match_r[r] < 0 and dist_r[r] < best:
                best = dist_r[r]
                target = r
        if target < 0:
            raise NoPerfectMatching(*hall_witness(g))
        # potential update keeps all reduced costs nonnegative and matched
        # edges tight (reduced cost is c - pot_l + pot_r, so both sides move
        # by best - dist)
        for v in range(size):
            if dist_l[v] < best:
                pot_l[v] += best - int(dist_l[v])
            if dist_r[v] < best:
                pot_r[v] += best - int(dist_r[v])
        # augment along the parent chain
        r = target
        while r >= 0:
            idx = parent_edge[r]
            e = g.edges[idx]
            prev_r = match_l[e.left]
            match_l[e.left] = r
            edge_l[e.left] = idx
            match_r[r] = e.left
            r = prev_r

    if any(m < 0 for m in match_l):
        raise NoPerfectMatching(*hall_witness(g))
    edges = tuple(g.edges[edge_l[l]] for l in range(size))
    return Matching(g.n, g.m, g.p, edges, perfect=True)


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
    return has_perfect_matching(build_bipartite(restrict(system, sel)))


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
