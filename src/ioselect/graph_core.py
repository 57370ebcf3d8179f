"""The one stored system graph, its SCCs, B(A)'s maximum matching,
coverage tables and reachability conditions.

The system digraph D(A, B, C, K) has state edges x_j -> x_i (A_ij starred),
input edges u_j -> x_i (B_ij), output edges x_j -> y_i (C_ij) and feedback
edges y_j -> u_i (K_ij); the state digraph D(A) is its part on the states.
The bipartite graph B(A, B, C, K) has primed vertices x'_1..x'_n,
u'_1..u'_m, y'_1..y'_p on the left and their unprimed twins on the right,
with an edge (v', w) for each edge w -> v of D(A, B, C, K), and the edges
(u'_i, u_i) and (y'_j, y_j) for every input and output.

Both are stored once, as :class:`SystemGraph`: row v lists the
in-neighbours of v in D(A, B, C, K), which is row v' of B(A, B, C, K).  The
rows are the successor lists of the transpose of D(A, B, C, K), and a
digraph and its transpose have the same SCCs, so the SCCs of D(A) and of
D(A, B, C, K) are found on the rows themselves.

A complete K (the ``COMPLETE`` token, or an explicit pattern with all m*p
stars) is never expanded: its m*p feedback edges are replaced by one hub
vertex h with edges y_j -> h -> u_i for every output and input.  Paths
through h are exactly the paths through some feedback edge, so
reachability and the SCCs of the other vertices are unchanged.  An explicit
partial K keeps its stars as ordinary edges.

Vertices are encoded as integers: states 0..n-1, inputs n..n+m-1, outputs
n+m..n+m+p-1, and the hub n+m+p.  ``vertex_name`` renders the 1-based
labels x1/u1/y1 used in messages and debug dumps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from ioselect.system_model import Selection, StructuredSystem

# the edge classes of B(A, B, C, K), tabled in ioselect.matching
EDGE_EX = "EX"
EDGE_EU = "EU"
EDGE_EY = "EY"
EDGE_EK = "EK"
EDGE_EUU = "EUU"
EDGE_EYY = "EYY"
EDGE_UH = "UH"
EDGE_HY = "HY"
_CLASS_ORDER = (EDGE_EX, EDGE_EU, EDGE_EY, EDGE_UH, EDGE_HY, EDGE_EK, EDGE_EUU, EDGE_EYY)


def vertex_name(v: int, n: int, m: int) -> str:
    if v < n:
        return f"x{v + 1}"
    if v < n + m:
        return f"u{v - n + 1}"
    return f"y{v - n - m + 1}"


@dataclass(frozen=True)
class BipEdge:
    left: int
    right: int
    cls: str
    cost: int  # scaled; nonzero only on EK, UH and HY edges


@dataclass(frozen=True)
class SystemGraph:
    """D(A, B, C, K) as in-neighbour lists, which are the rows of B(A, B, C, K).

    ``adj[v]`` lists v's in-neighbours other than the hub: a state's in
    ascending order, an input's or output's in ascending order and then its
    own id.  That last id is the bipartite edge (v', v), not a digraph
    edge.  With ``hub`` set, K is complete: the hub id ``size`` is an
    in-neighbour of every input, and every output is one of the hub's.
    """

    n: int
    m: int
    p: int
    cost_u: tuple[int, ...]
    cost_y: tuple[int, ...]
    adj: tuple[list[int], ...]
    hub: bool

    @property
    def size(self) -> int:
        """Number of state, input and output vertices (the hub, if any, is ``size``)."""
        return self.n + self.m + self.p

    def left_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m) + "'"

    def right_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m)

    def state_rows(self) -> list[list[int]]:
        """D(A) as in-neighbour lists: each state's row cut at id n.

        Sliced on the first call and shared by every later one; callers must
        not mutate the rows, as with ``adj``."""
        return self._state_rows

    @cached_property
    def _state_rows(self) -> list[list[int]]:
        n = self.n
        return [row[: bisect_left(row, n)] for row in self.adj[:n]]

    @cached_property
    def state_matching(self) -> tuple[list[int], list[int]]:
        """B(A)'s maximum matching, on the state rows: the state matched to
        each x'_i, and the x'_i matched to each state, or -1.  Found by
        Hopcroft-Karp once per graph; callers must not mutate it."""
        return _hopcroft_karp(self.state_rows())

    @property
    def ek(self) -> list[tuple[int, int]]:
        """The feedback edges (y, u) of an explicit K, read off the input
        rows; empty with a hub."""
        n = self.n
        return [(y, u) for u in range(n, n + self.m) for y in self.adj[u][:-1]]

    def edge(self, left: int, right: int) -> BipEdge:
        """The edge (left, right), its class and cost read off the id ranges."""
        n, out0, size = self.n, self.n + self.m, self.size
        if left == size:
            return BipEdge(left, right, EDGE_HY, self.cost_y[right - out0])
        if right == size:
            return BipEdge(left, right, EDGE_UH, self.cost_u[left - n])
        if left < n:
            return BipEdge(left, right, EDGE_EX if right < n else EDGE_EU, 0)
        if left == right:
            return BipEdge(left, right, EDGE_EUU if left < out0 else EDGE_EYY, 0)
        if left < out0:
            return BipEdge(left, right, EDGE_EK, self.cost_u[left - n] + self.cost_y[right - out0])
        return BipEdge(left, right, EDGE_EY, 0)

    @property
    def edges(self) -> tuple[BipEdge, ...]:
        """Every edge of B(A, B, C, K), by class in :data:`_CLASS_ORDER` and
        by end points within a class, built on each access.  No code in this
        package reads it; the tracer in ``perfbench/`` counts it."""
        n, out0, size = self.n, self.n + self.m, self.size
        pairs = [(l, r) for l, row in enumerate(self.adj) for r in row]
        if self.hub:
            pairs += [(l, size) for l in range(n, out0)] + [(size, r) for r in range(out0, size)]
        edges = [self.edge(l, r) for l, r in pairs]
        return tuple(sorted(edges, key=lambda e: _CLASS_ORDER.index(e.cls)))


def build_bipartite(system: StructuredSystem) -> SystemGraph:
    """The system's one graph: each vertex's in-neighbours grouped from the
    rows of A, B, C and a partial K; a complete K is the hub flag."""
    n, m, p = system.n, system.m, system.p
    out0 = n + m
    adj: list[list[int]] = [[] for _ in range(out0 + p)]
    for i, j in system.A.stars:
        adj[i].append(j)
    for i, j in system.B.stars:
        adj[i].append(n + j)
    for j, i in system.C.stars:
        adj[out0 + j].append(i)
    hub = system.k_is_complete()
    if not hub:
        for i, j in system.K.stars:
            adj[n + i].append(out0 + j)
    for v, row in enumerate(adj):
        row.sort()
        if v >= n:
            row.append(v)
    return SystemGraph(n, m, p, system.cost_u, system.cost_y, tuple(adj), hub)


def build_graphs(system: StructuredSystem) -> tuple[SystemGraph, SystemGraph]:
    """The system's graph twice, as the (D(A), D(A, B, C, K)) pair that the
    benchmark set-up in ``perfbench/`` unpacks.  No code in this package
    calls it."""
    g = build_bipartite(system)
    return g, g


def _hopcroft_karp(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Maximum matching via Hopcroft-Karp.  ``adj[l]`` lists the right
    neighbours of left vertex l, both sides numbered 0..len(adj)-1.
    Returns each left and each right vertex's partner (or -1)."""
    size = len(adj)
    match_l = [-1] * size
    match_r = [-1] * size
    for l, row in enumerate(adj):  # a greedy start leaves the phases little to do
        for r in row:
            if match_r[r] < 0:
                match_l[l], match_r[r] = r, l
                break
    INF = size + 1
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
            return match_l, match_r

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
                break


def _tarjan(num_vertices: int, successors) -> list[list[int]]:
    """Iterative Tarjan; components returned in reverse topological order.

    ``successors[v]`` is any iterable of v's successors.  Each frame of
    ``work`` holds a vertex and the iterator over its successors, so the
    scan of a vertex resumes where its last child returned; ``index[v]`` is
    0 until v is visited.
    """
    index = [0] * num_vertices
    low = [0] * num_vertices
    on_stack = [False] * num_vertices
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1

    for root in range(num_vertices):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comps


@dataclass(frozen=True)
class SccDecomposition:
    """SCCs of D(A) plus the condensation DAG.

    Components are numbered by their minimum contained state, ascending, so
    set-cover universes built from them are deterministic.  An SCC is
    non-top when no condensation edge enters it and non-bottom when none
    leaves; self-loops inside an SCC create no condensation edge, so an
    isolated singleton with a self-loop is both.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    dag_edges: frozenset[tuple[int, int]]
    non_top: tuple[int, ...]
    non_bottom: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.non_top)

    @property
    def k(self) -> int:
        return len(self.non_bottom)


def decompose_sccs(g: SystemGraph) -> SccDecomposition:
    """SCCs of D(A), found on its transpose (the state rows); each
    condensation edge points the way of D(A)'s edges."""
    rows = g.state_rows()
    raw = _tarjan(g.n, rows)
    comps = sorted((tuple(sorted(c)) for c in raw), key=lambda c: c[0])
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    dag = frozenset(
        (comp_of[s], comp_of[d])
        for d, row in enumerate(rows)
        for s in row
        if comp_of[s] != comp_of[d]
    )
    has_in = {d for _s, d in dag}
    has_out = {s for s, _d in dag}
    non_top = tuple(ci for ci in range(len(comps)) if ci not in has_in)
    non_bottom = tuple(ci for ci in range(len(comps)) if ci not in has_out)
    return SccDecomposition(
        components=tuple(comps),
        component_of=tuple(comp_of),
        dag_edges=dag,
        non_top=non_top,
        non_bottom=non_bottom,
    )


@dataclass(frozen=True)
class CoverageTables:
    """Which non-top SCCs each input covers and which non-bottom SCCs each output covers.

    Entries are positions into ``scc.non_top`` / ``scc.non_bottom`` (0-based),
    i.e. the elements of the set-cover universes derived from the system.
    """

    input_covers: tuple[frozenset[int], ...]
    output_covers: tuple[frozenset[int], ...]

    @property
    def mu(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.input_covers)

    @property
    def eta(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.output_covers)

    @property
    def mu_max(self) -> int:
        return max(self.mu, default=0)

    @property
    def eta_max(self) -> int:
        return max(self.eta, default=0)


def coverage(system: StructuredSystem, scc: SccDecomposition) -> CoverageTables:
    """The coverage tables of a validated system (see ``compile_system``)."""
    top_pos = {ci: t for t, ci in enumerate(scc.non_top)}
    bot_pos = {ci: t for t, ci in enumerate(scc.non_bottom)}
    in_covers: list[set[int]] = [set() for _ in range(system.m)]
    for r, i in system.B.stars:
        t = top_pos.get(scc.component_of[r])
        if t is not None:
            in_covers[i].add(t)
    out_covers: list[set[int]] = [set() for _ in range(system.p)]
    for j, r in system.C.stars:
        t = bot_pos.get(scc.component_of[r])
        if t is not None:
            out_covers[j].add(t)
    return CoverageTables(
        input_covers=tuple(frozenset(s) for s in in_covers),
        output_covers=tuple(frozenset(s) for s in out_covers),
    )


def selected_vertices(n: int, m: int, p: int, sel: Optional[Selection]) -> list[bool]:
    """Per vertex id 0..n+m+p (the hub's last): False for the inputs and
    outputs that ``sel`` leaves out, True for the rest."""
    keep = [True] * (n + m + p + 1)
    if sel is not None:
        for i in range(m):
            keep[n + i] = i in sel.inputs
        for j in range(p):
            keep[n + m + j] = j in sel.outputs
    return keep


def _feedback_sccs(
    g: SystemGraph, sel: Selection
) -> tuple[list[list[int]], list[int], dict[int, tuple[int, int]]]:
    """SCCs of the system digraph restricted to ``sel``, each vertex's SCC,
    and per SCC its smallest feedback edge (SCCs without one are absent).

    The SCCs are found on the rows of ``g`` (the transpose of the system
    digraph), with the hub's edges added and the rows of the unselected
    inputs and outputs emptied.  That removes their in-edges, so no cycle
    passes through them: each is a singleton SCC, and the others are the
    SCCs of the subgraph induced by the states, the hub and the selected
    inputs and outputs, the restricted system's digraph, with every vertex
    keeping its id in ``g``.

    With a hub, only the hub's SCC can hold feedback edges, and it does when
    it holds more than the hub: a cycle through the hub passes an output and
    an input, and every output/input pair in that SCC is a feedback edge
    inside it.  The smallest is (smallest output, smallest input).
    """
    n, out0, hub = g.n, g.n + g.m, g.size
    keep = selected_vertices(n, g.m, g.p, sel)
    rows = [row if keep[v] else () for v, row in enumerate(g.adj)]
    if g.hub:  # u_i <- h <- y_j, read backwards
        for u in range(n, out0):
            if keep[u]:
                rows[u] = rows[u] + [hub]
    rows.append(range(out0, hub) if g.hub else ())
    comps = _tarjan(hub + 1, rows)
    comp_of = [0] * (hub + 1)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    k_edge_of: dict[int, tuple[int, int]] = {}
    for edge in g.ek:
        ci = comp_of[edge[0]]
        if comp_of[edge[1]] == ci and (ci not in k_edge_of or edge < k_edge_of[ci]):
            k_edge_of[ci] = edge
    hub_comp = comps[comp_of[hub]]
    if g.hub and len(hub_comp) > 1:
        k_edge_of[comp_of[hub]] = (
            min(v for v in hub_comp if out0 <= v < hub),
            min(v for v in hub_comp if n <= v < out0),
        )
    return comps, comp_of, k_edge_of


def condition_a_holds(g: SystemGraph, sel: Selection) -> bool:
    """True iff every state lies in an SCC of the system digraph restricted
    to ``sel`` that contains at least one feedback edge.

    With a complete K this is: every state's SCC contains the hub vertex.
    For a selection with at least one input and one output that is the same
    as accessibility plus sensability.
    """
    _comps, comp_of, k_edge_of = _feedback_sccs(g, sel)
    return all(comp_of[v] in k_edge_of for v in range(g.n))


def condition_a_witness(g: SystemGraph, sel: Selection) -> dict[str, dict[str, object]]:
    """Per-state certificate: the SCC of the system digraph restricted to
    ``sel`` that the state belongs to and one feedback edge inside it (None
    when absent)."""
    comps, comp_of, k_edge_of = _feedback_sccs(g, sel)
    n, m = g.n, g.m

    def name(v: int) -> str:
        return vertex_name(v, n, m)

    members: dict[int, list[str]] = {}
    witness: dict[str, dict[str, object]] = {}
    for v in range(n):
        ci = comp_of[v]
        if ci not in members:
            members[ci] = [name(w) for w in sorted(comps[ci]) if w < g.size]
        edge = k_edge_of.get(ci)
        witness[name(v)] = {
            "scc": members[ci],
            "feedback_edge": [name(edge[0]), name(edge[1])] if edge else None,
        }
    return witness


def dump_system_digraph(g: SystemGraph, sel: Optional[Selection] = None) -> str:
    """One edge per line: ``src dst class`` with 1-based x/u/y labels.

    Each edge s -> d is read off row d, without the own id that ends an
    input's or output's row, and classed by the id ranges of its end points
    as :meth:`SystemGraph.edge` classes (d', s).  A hub is printed as the
    feedback edges it stands for, one per output/input pair, so the dump
    always lists D(A, B, C, K) itself.  With ``sel``, only the edges among
    the states and the selected inputs and outputs are listed, under their
    labels in the full system.
    """
    n, m, out0 = g.n, g.m, g.n + g.m
    keep = selected_vertices(n, m, g.p, sel)
    edges = [
        (s, d, g.edge(d, s).cls)
        for d, row in enumerate(g.adj)
        for s in (row if d < n else row[:-1])
    ]
    if g.hub:
        edges += [(y, u, EDGE_EK) for y in range(out0, g.size) for u in range(n, out0)]
    lines = [
        f"{vertex_name(s, n, m)} {vertex_name(d, n, m)} {cls}"
        for s, d, cls in sorted(edges)
        if keep[s] and keep[d]
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_condensation(scc: SccDecomposition) -> str:
    """Condensation DAG, one edge per line: ``sccI sccJ cond``.

    Header comments list the members of each component.
    """
    lines = []
    for ci, comp in enumerate(scc.components):
        members = " ".join(f"x{v + 1}" for v in comp)
        lines.append(f"# scc{ci + 1} = {members}")
    for s, d in sorted(scc.dag_edges):
        lines.append(f"scc{s + 1} scc{d + 1} cond")
    return "\n".join(lines) + ("\n" if lines else "")
