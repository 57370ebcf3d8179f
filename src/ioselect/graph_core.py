"""The one stored system graph, its SCCs, B(A)'s maximum matching,
reachability conditions, and the package's augmenting-path search
(:func:`_path`) and flip (:func:`_augment`).

The system digraph D(A, B, C, K) has state edges x_j -> x_i (A_ij starred),
input edges u_j -> x_i (B_ij), output edges x_j -> y_i (C_ij) and feedback
edges y_j -> u_i (K_ij); the state digraph D(A) is its part on the states.
The bipartite graph B(A, B, C, K) has primed vertices x'_1..x'_n,
u'_1..u'_m, y'_1..y'_p on the left and their unprimed twins on the right,
with an edge (v', w) for each edge w -> v of D(A, B, C, K), and the edges
(u'_i, u_i) and (y'_j, y_j) for every input and output.

Both are stored once, as :class:`SystemGraph`: the pattern rows
themselves.  Row v' of B(A, B, C, K), v's in-neighbours in D(A, B, C, K),
is joined from them by :func:`restricted_rows` alone, for a selection or
for the full system, on each call and never cached; the SCC pass of a
selection, the partial-K matching, the Hall witness and the system dump
read it there.
A's rows are the successor lists of the transpose of D(A), which has
D(A)'s SCCs, so the SCCs are found on A's rows themselves.

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

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from ioselect.system_model import ModelError, Selection, StructuredSystem

# the edge classes of B(A, B, C, K), tabled in ioselect.matching
EDGE_EX = "EX"
EDGE_EU = "EU"
EDGE_EY = "EY"
EDGE_EK = "EK"
EDGE_EUU = "EUU"
EDGE_EYY = "EYY"


def vertex_name(v: int, n: int, m: int) -> str:
    if v < n:
        return f"x{v + 1}"
    if v < n + m:
        return f"u{v - n + 1}"
    return f"y{v - n - m + 1}"


@dataclass(frozen=True)
class SystemGraph:
    """D(A, B, C, K) as A's, B's, C's and K's rows, shared and not copied:
    callers must not mutate them.  ``state_rows[i]``, A's row i, lists state
    i's in-neighbours in D(A), ascending.  ``k_rows`` is None when K is
    complete, which is then the hub vertex ``size``: an in-neighbour of
    every input, with every output one of its own.
    """

    n: int
    m: int
    p: int
    cost_u: tuple[int, ...]
    cost_y: tuple[int, ...]
    state_rows: list[list[int]]
    b_rows: list[list[int]]
    c_rows: list[list[int]]
    k_rows: Optional[list[list[int]]]

    @property
    def size(self) -> int:
        """Number of state, input and output vertices (the hub, if any, is ``size``)."""
        return self.n + self.m + self.p

    @property
    def hub(self) -> bool:
        """Whether K is complete: the one test of it once the graph is
        built (:func:`_require_hub` refuses a partial K)."""
        return self.k_rows is None

    def left_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m) + "'"

    def right_name(self, v: int) -> str:
        return vertex_name(v, self.n, self.m)

    @cached_property
    def state_cols(self) -> list[list[int]]:
        """The transpose of the state rows and B's rows: the x'_v whose row
        holds each state, then each input, ascending; shared, and callers
        must not mutate it."""
        n = self.n
        cols: list[list[int]] = [[] for _ in range(n + self.m)]
        for v, (a, b) in enumerate(zip(self.state_rows, self.b_rows)):
            for r in a:
                cols[r].append(v)
            for j in b:
                cols[n + j].append(v)
        return cols

    @cached_property
    def rows_to_states(self) -> list[list[int]]:
        """Side 1's neighbour lists, with a hub: each left vertex's states,
        so the state rows, none for an input and C's row for an output;
        shared, and callers must not mutate it."""
        return self.state_rows + [[] for _ in range(self.m)] + self.c_rows

    @cached_property
    def state_matching(self) -> tuple[list[int], list[int]]:
        """B(A)'s maximum matching, on the state rows: the state matched to
        each x'_i, and the x'_i matched to each state, or -1.  Found by
        :func:`_maximum_matching` once per graph; callers must not mutate
        it."""
        return _maximum_matching(self.state_rows)

    @property
    def ek(self) -> list[tuple[int, int]]:
        """The feedback edges (y, u) of an explicit K, read off its rows;
        empty with a hub."""
        n, out0 = self.n, self.n + self.m
        return [(out0 + j, n + i) for i, row in enumerate(self.k_rows or ()) for j in row]

    def edge(self, left: int, right: int) -> tuple[str, int]:
        """The class and cost of the edge (left, right), read off the id
        ranges of its end points; only an EK edge costs, p_u(i) + p_y(j)."""
        n, out0 = self.n, self.n + self.m
        if left < n:
            return (EDGE_EX if right < n else EDGE_EU), 0
        if left == right:
            return (EDGE_EUU if left < out0 else EDGE_EYY), 0
        if left < out0:
            return EDGE_EK, self.cost_u[left - n] + self.cost_y[right - out0]
        return EDGE_EY, 0

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge of B(A, B, C, K) as a (left, right) pair, the hub's
        (u'_i, hub) and (hub, y_j) included: the pairs of
        :func:`restricted_rows` for the full selection, built on each
        access.  No code in this package reads it; the tracer in
        ``perfbench/`` counts it."""
        return [(l, r) for l, row in enumerate(restricted_rows(self, None)[1]) for r in row]


def _require_hub(g: SystemGraph) -> None:
    """Refuse a partial K, which selection and its exact search do not take."""
    if not g.hub:
        raise ModelError("selection requires a complete feedback pattern")


def build_bipartite(system: StructuredSystem) -> SystemGraph:
    """The system's one graph: its pattern rows, K's only when not complete."""
    k_rows = None if system.k_is_complete() else system.K.by_row
    rows = (system.A.by_row, system.B.by_row, system.C.by_row, k_rows)
    return SystemGraph(system.n, system.m, system.p, system.cost_u, system.cost_y, *rows)


def build_graphs(system: StructuredSystem) -> tuple[SystemGraph, SystemGraph]:
    """The system's graph twice, as the (D(A), D(A, B, C, K)) pair that the
    benchmark set-up in ``perfbench/`` unpacks.  No code in this package
    calls it."""
    g = build_bipartite(system)
    return g, g


def _augment(w: int, parent: list[int], mate_s: list[int], mate_w: list[int]) -> None:
    """Flip the augmenting path that reached the free vertex ``w``, back to
    its free start: each vertex s on it takes the vertex w with
    ``parent[w] == s``, and ``mate_s``/``mate_w`` (each side's partners, -1
    when free) are updated in place.  The one flip of the package: each
    path that :func:`_path` finds, for B(A)'s passes
    (:func:`_maximum_matching`) and each stage-3 side's greedy
    (:mod:`ioselect.matching`), and each path of Hopcroft-Karp's phases
    (:func:`_hopcroft_karp`), is flipped by it."""
    while w >= 0:
        s = parent[w]
        mate_w[w], mate_s[s], w = s, w, mate_s[s]


def _path(s: int, nbr, mate_w: list[int], seen: list[bool], parent: list[int], reached: list[int]) -> int:
    """The package's augmenting-path search: breadth-first from ``s``
    past every marked vertex, over one growing list of the vertices on
    ``s``'s side, marking and listing in ``reached`` what it reaches.
    Returns the first free vertex reached, so the path to it (``parent``)
    is a shortest one past the marks, or -1."""
    queue = [s]
    for s in queue:
        for w in nbr[s]:
            if not seen[w]:
                seen[w] = True
                reached.append(w)
                parent[w] = s
                if mate_w[w] < 0:
                    return w
                queue.append(mate_w[w])
    return -1


def _maximum_matching(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """A maximum matching: ``adj[l]`` lists the right neighbours of left
    vertex l, both sides numbered 0..len(adj)-1.  Returns each left and
    each right vertex's partner (or -1).

    A first-fit start, then passes: in each, every free left vertex with
    a neighbour makes one :func:`_path` search that skips the right
    vertices this pass has already reached, and each path found is
    flipped (:func:`_augment`).  The marks are reset at the start of a
    pass and never cleared inside it, so a pass costs O(E).  A pass that
    flips nothing leaves the matching as it found it, so a vertex one of
    its searches skips was reached by an earlier search of it that found
    no free vertex, and leads to none either: no free left vertex starts
    an augmenting path, and the matching is maximum (Berge 1957).

    Passes flip most paths early, but a successful search's marks can
    block every other search of its pass, so a pass may flip a single
    path and V passes cost O(V*E).  After ``size.bit_length()`` passes
    (about log2 V) Hopcroft-Karp's phases (:func:`_hopcroft_karp`) finish
    from the matching the passes left, so the whole costs O(E*sqrt(V)).
    """
    size = len(adj)
    match_l = [-1] * size
    match_r = [-1] * size
    parent = [0] * size
    for l, row in enumerate(adj):
        for r in row:
            if match_r[r] < 0:
                match_l[l], match_r[r] = r, l
                break
    free = [l for l, r in enumerate(match_l) if r < 0 and adj[l]]
    for _pass in range(size.bit_length()):
        seen = [False] * size
        reached: list[int] = []
        failed: list[int] = []
        for l in free:
            w = _path(l, adj, match_r, seen, parent, reached)
            if w < 0:
                failed.append(l)
            else:
                _augment(w, parent, match_l, match_r)
        if len(failed) == len(free):
            return match_l, match_r
        free = failed
    _hopcroft_karp(adj, match_l, match_r, parent)
    return match_l, match_r


def _hopcroft_karp(adj: list[list[int]], match_l: list[int], match_r: list[int], parent: list[int]) -> None:
    """Hopcroft-Karp's phases from the matching ``match_l``/``match_r``,
    grown in place to a maximum one: each phase layers the graph
    breadth-first from every free left vertex and flips a maximal set of
    disjoint shortest augmenting paths, so O(sqrt(V)) phases of O(E) each
    run.  ``parent`` is :func:`_augment`'s scratch list."""
    size = len(adj)
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
            return

        # Depth-first search for augmenting paths along the BFS layers.  The
        # vertex being scanned and its neighbour iterator live in locals;
        # ``path`` holds the (vertex, iterator) frames below it, so path
        # length is not bounded by the recursion limit.  Each step to a
        # right vertex r records ``parent[r] = l``, and :func:`_augment`
        # flips a found path along those records.
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
                parent[r] = l
                if nxt >= 0:  # descend to the left vertex matched to r
                    path.append((l, it))
                    l, it = nxt, iter(adj[nxt])
                    continue
                _augment(r, parent, match_l, match_r)  # r is free
                break


def _tarjan(num_vertices: int, successors) -> tuple[list[list[int]], list[int]]:
    """Iterative Tarjan: the SCCs, each ascending and numbered by its
    smallest vertex, and each vertex's SCC number.

    ``successors[v]`` is any iterable of v's successors.  Each frame of
    ``work`` holds a vertex and the iterator over its successors, so the
    scan of a vertex resumes where its last child returned; ``index[v]`` is
    0 until v is visited, and ``done[v]`` is -1 until v's SCC is popped,
    then the SCC's root, so a visited w is on the stack exactly while
    ``done[w] < 0``.
    """
    index = [0] * num_vertices
    low = [0] * num_vertices
    done = [-1] * num_vertices
    stack: list[int] = []
    counter = 1

    for root in range(num_vertices):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(successors[w])))
                    break
                if done[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        done[w] = v
                        if w == v:
                            break
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]

    # bucket the vertices in ascending order: an SCC is numbered when its
    # smallest vertex is met, its members come ascending, and done[v]
    # becomes v's SCC number
    number = [-1] * num_vertices
    comps: list[list[int]] = []
    for v, label in enumerate(done):
        ci = number[label]
        if ci < 0:
            ci = number[label] = len(comps)
            comps.append([])
        comps[ci].append(v)
        done[v] = ci
    return comps, done


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
    rows = g.state_rows
    comps, comp_of = _tarjan(g.n, rows)
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
        components=tuple(map(tuple, comps)),
        component_of=tuple(comp_of),
        dag_edges=dag,
        non_top=non_top,
        non_bottom=non_bottom,
    )


def restricted_rows(g: SystemGraph, sel: Optional[Selection]) -> tuple[list[bool], list[list[int]]]:
    """B(A, B, C, K) restricted to ``sel``, under the full system's ids:
    per vertex id 0..size (the hub's last), whether ``sel`` keeps it, and
    the rows, all of them without ``sel``, joined from the pattern rows on
    each call.

    Row v' lists v's in-neighbours in D(A, B, C, K): a state's row is its A
    row, then its B row's inputs; a kept input's row is its K row's
    outputs, or with a hub the hub alone; a kept output's row is its C row.
    Every input's and output's row ends with its own id, the edge (v', v).

    Each unselected input or output keeps only its own edge.  As an edge of
    D(A, B, C, K) read off row v (v's in-neighbours) it is a self-loop, so
    it closes no cycle: the vertex is a singleton SCC, and the other SCCs
    are the restricted system digraph's.  As an edge of B(A, B, C, K) it is
    the only one of v', so a perfect matching must use it, and none other
    can reach v: the graph has a perfect matching exactly when the
    restricted one has, and every largest matching of the restricted graph
    grows into one of this graph by the unselected vertices' own edges.

    With a hub the rows hold it as vertex ``size``: it leads each selected
    input's row, and its own row lists the selected outputs, so y_j -> h ->
    u_i for each selected pair, as K's stars would run.
    """
    n, out0, size = g.n, g.n + g.m, g.size
    keep = [True] * (size + 1)
    if sel is not None:
        for i in range(g.m):
            keep[n + i] = i in sel.inputs
        for j in range(g.p):
            keep[out0 + j] = j in sel.outputs
    rows = [a + [n + j for j in b] if b else a for a, b in zip(g.state_rows, g.b_rows)]
    if g.hub:
        rows += [[size, u] if keep[u] else [u] for u in range(n, out0)]
    else:
        rows += [[out0 + j for j in k] + [u] if keep[u] else [u] for u, k in enumerate(g.k_rows, n)]
    rows += [c + [y] if keep[y] else [y] for y, c in enumerate(g.c_rows, out0)]
    if g.hub:
        rows.append([y for y in range(out0, size) if keep[y]])
    return keep, rows


def _feedback_sccs(
    g: SystemGraph, sel: Selection
) -> tuple[list[list[int]], list[int], dict[int, tuple[int, int]]]:
    """SCCs of the system digraph restricted to ``sel`` as :func:`_tarjan`
    gives them, each vertex's SCC, and per SCC its smallest feedback edge
    (SCCs without one are absent).

    The SCCs are found on :func:`restricted_rows`, the transpose of the
    restricted system digraph, every vertex keeping its id in ``g``.

    With a hub, only the hub's SCC can hold feedback edges, and it does when
    it holds more than the hub: a cycle through the hub passes an output and
    an input, and every output/input pair in that SCC is a feedback edge
    inside it.  The smallest is (smallest output, smallest input).
    """
    n, out0, hub = g.n, g.n + g.m, g.size
    rows = restricted_rows(g, sel)[1]
    comps, comp_of = _tarjan(len(rows), rows)
    k_edge_of: dict[int, tuple[int, int]] = {}
    for edge in g.ek:
        ci = comp_of[edge[0]]
        if comp_of[edge[1]] == ci and (ci not in k_edge_of or edge < k_edge_of[ci]):
            k_edge_of[ci] = edge
    if g.hub and len(hub_comp := comps[comp_of[hub]]) > 1:
        k_edge_of[comp_of[hub]] = (
            min(v for v in hub_comp if out0 <= v < hub),
            min(v for v in hub_comp if n <= v < out0),
        )
    return comps, comp_of, k_edge_of


def unfed_states(g: SystemGraph, sel: Selection) -> list[int]:
    """The states, ascending, whose SCC of the system digraph restricted to
    ``sel`` holds no feedback edge: condition (a)'s Type-1 states, from one
    SCC pass (:func:`_feedback_sccs`)."""
    _comps, comp_of, k_edge_of = _feedback_sccs(g, sel)
    return [v for v in range(g.n) if comp_of[v] not in k_edge_of]


def condition_a_holds(g: SystemGraph, sel: Selection) -> bool:
    """True iff every state lies in an SCC of the system digraph restricted
    to ``sel`` that contains at least one feedback edge: iff no state is
    unfed (:func:`unfed_states`).

    With a complete K this is: every state's SCC contains the hub vertex.
    For a selection with at least one input and one output that is the same
    as accessibility plus sensability.
    """
    return not unfed_states(g, sel)


def condition_a_witness(g: SystemGraph, sel: Selection) -> dict[str, dict[str, object]]:
    """Per-state certificate: the SCC of the system digraph restricted to
    ``sel`` that the state belongs to and one feedback edge inside it (None
    when absent)."""
    comps, comp_of, k_edge_of = _feedback_sccs(g, sel)
    name = g.right_name
    members: dict[int, list[str]] = {}
    witness: dict[str, dict[str, object]] = {}
    for v in range(g.n):
        ci = comp_of[v]
        if ci not in members:
            members[ci] = [name(w) for w in comps[ci] if w < g.size]
        edge = k_edge_of.get(ci)
        witness[name(v)] = {
            "scc": members[ci],
            "feedback_edge": [name(edge[0]), name(edge[1])] if edge else None,
        }
    return witness


def dump_system_digraph(g: SystemGraph, sel: Optional[Selection] = None) -> str:
    """One edge per line: ``src dst class`` with 1-based x/u/y labels.

    Each edge s -> d is read off row d of :func:`restricted_rows`, without
    the own id that ends an input's or output's row and without the hub,
    and classed by the id ranges of its end points as
    :meth:`SystemGraph.edge` classes (d', s).  A hub is printed as the
    feedback edges it stands for, one per output/input pair, so the dump
    always lists D(A, B, C, K) itself.  With ``sel``, only the edges among
    the states and the selected inputs and outputs are listed, under their
    labels in the full system.
    """
    n, out0, size = g.n, g.n + g.m, g.size
    keep, rows = restricted_rows(g, sel)
    edges = [
        (s, d, g.edge(d, s)[0])
        for d, row in zip(range(size), rows)
        for s in (row if d < n else row[:-1])
        if s < size
    ]
    if g.hub:
        edges += [(y, u, EDGE_EK) for y in range(out0, size) for u in range(n, out0)]
    lines = [
        f"{g.right_name(s)} {g.right_name(d)} {cls}"
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
