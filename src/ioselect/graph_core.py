"""State and system digraphs, SCCs, coverage tables, reachability conditions.

The state digraph D(A) has an edge x_j -> x_i exactly when A_ij is starred.
The system digraph adds input edges u_j -> x_i (from B), output edges
x_j -> y_i (from C) and feedback edges y_j -> u_i (from K).

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

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ioselect.system_model import Selection, StructuredSystem

EDGE_X = "EX"
EDGE_U = "EU"
EDGE_Y = "EY"
EDGE_K = "EK"


def vertex_name(v: int, n: int, m: int) -> str:
    if v < n:
        return f"x{v + 1}"
    if v < n + m:
        return f"u{v - n + 1}"
    return f"y{v - n - m + 1}"


@dataclass(frozen=True)
class StateDigraph:
    """D(A): one vertex per state, edge (x_j, x_i) iff A_ij is starred."""

    n: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for src, dst in self.edges:
            out[src].append(dst)
        return tuple(tuple(sorted(s)) for s in out)


@dataclass(frozen=True)
class SystemDigraph:
    """D(A, B, C, K) with per-class edge sets (global vertex ids).

    With ``hub`` set, K is complete: ``ek`` is empty and the feedback block
    is the vertex ``size`` with edges y_j -> hub -> u_i.
    """

    n: int
    m: int
    p: int
    ex: frozenset[tuple[int, int]]
    eu: frozenset[tuple[int, int]]
    ey: frozenset[tuple[int, int]]
    ek: frozenset[tuple[int, int]]
    hub: bool

    @property
    def size(self) -> int:
        """Number of state, input and output vertices (the hub, if any, is ``size``)."""
        return self.n + self.m + self.p

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted successor lists of vertices 0..size (the hub's slot is
        empty without a hub)."""
        hub = self.size
        out: list[list[int]] = [[] for _ in range(hub + 1)]
        for edges in (self.ex, self.eu, self.ey, self.ek):
            for s, d in edges:
                out[s].append(d)
        if self.hub:
            for y in range(self.n + self.m, hub):
                out[y].append(hub)
            out[hub] = list(range(self.n, self.n + self.m))
        return tuple(tuple(sorted(lst)) for lst in out)


def build_graphs(system: StructuredSystem) -> tuple[StateDigraph, SystemDigraph]:
    """Construct D(A) and D(A, B, C, K); a complete K becomes the hub vertex
    (no edge per star), an explicit partial K one edge per star."""
    n, m = system.n, system.m
    ex = frozenset((j, i) for i, j in system.A.stars)
    eu = frozenset((n + j, i) for i, j in system.B.stars)
    ey = frozenset((j, n + m + i) for i, j in system.C.stars)
    hub = system.k_is_complete()
    ek = frozenset() if hub else frozenset((n + m + j, n + i) for i, j in system.K.stars)
    return (
        StateDigraph(n, ex),
        SystemDigraph(n, m, system.p, ex, eu, ey, ek, hub),
    )


def _tarjan(num_vertices: int, successors) -> list[list[int]]:
    """Iterative Tarjan; components returned in reverse topological order."""
    index = [0] * num_vertices
    low = [0] * num_vertices
    on_stack = [False] * num_vertices
    visited = [False] * num_vertices
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1

    for root in range(num_vertices):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                visited[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            succ = successors[v]
            advanced = False
            while ei < len(succ):
                w = succ[ei]
                ei += 1
                if not visited[w]:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
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
                low[parent] = min(low[parent], low[v])
    return comps


@dataclass(frozen=True)
class SccDecomposition:
    """SCCs of a state digraph plus the condensation DAG.

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


def decompose_sccs(g: StateDigraph) -> SccDecomposition:
    raw = _tarjan(g.n, g.successors)
    comps = sorted((tuple(sorted(c)) for c in raw), key=lambda c: c[0])
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    dag = frozenset(
        (comp_of[s], comp_of[d]) for s, d in g.edges if comp_of[s] != comp_of[d]
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
    top_pos = {ci: t for t, ci in enumerate(scc.non_top)}
    bot_pos = {ci: t for t, ci in enumerate(scc.non_bottom)}
    in_covers: list[set[int]] = [set() for _ in range(system.m)]
    for r, i in system.B.stars:
        t = top_pos.get(scc.component_of[r]) if 0 <= r < len(scc.component_of) else None
        if t is not None:
            in_covers[i].add(t)
    out_covers: list[set[int]] = [set() for _ in range(system.p)]
    for j, r in system.C.stars:
        t = bot_pos.get(scc.component_of[r]) if 0 <= r < len(scc.component_of) else None
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
    dg: SystemDigraph, sel: Selection
) -> tuple[list[list[int]], list[int], dict[int, tuple[int, int]]]:
    """SCCs of the system digraph restricted to ``sel``, each vertex's SCC,
    and per SCC its smallest feedback edge (SCCs without one are absent).

    The SCCs are those of ``dg`` with the out-edges of the unselected inputs
    and outputs removed.  No cycle passes through those vertices then, so
    each is a singleton SCC and the others are the SCCs of the subgraph
    induced by the states, the hub and the selected inputs and outputs:
    the restricted system's digraph, with every vertex keeping its id in
    ``dg``.

    With a hub, only the hub's SCC can hold feedback edges, and it does when
    it holds more than the hub: a cycle through the hub passes an output and
    an input, and every output/input pair in that SCC is a feedback edge
    inside it.  The smallest is (smallest output, smallest input).
    """
    keep = selected_vertices(dg.n, dg.m, dg.p, sel)
    succ = [out if keep[v] else () for v, out in enumerate(dg.successors)]
    comps = _tarjan(dg.size + 1, succ)
    comp_of = [0] * (dg.size + 1)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    k_edge_of: dict[int, tuple[int, int]] = {}
    for edge in dg.ek:
        ci = comp_of[edge[0]]
        if comp_of[edge[1]] == ci and (ci not in k_edge_of or edge < k_edge_of[ci]):
            k_edge_of[ci] = edge
    hub_comp = comps[comp_of[dg.size]]
    if dg.hub and len(hub_comp) > 1:
        first_output = dg.n + dg.m
        k_edge_of[comp_of[dg.size]] = (
            min(v for v in hub_comp if first_output <= v < dg.size),
            min(v for v in hub_comp if dg.n <= v < first_output),
        )
    return comps, comp_of, k_edge_of


def condition_a_holds(dg: SystemDigraph, sel: Selection) -> bool:
    """True iff every state lies in an SCC of the system digraph restricted
    to ``sel`` that contains at least one feedback edge.

    With a complete K this is: every state's SCC contains the hub vertex.
    For a selection with at least one input and one output that is the same
    as accessibility plus sensability.
    """
    _comps, comp_of, k_edge_of = _feedback_sccs(dg, sel)
    return all(comp_of[v] in k_edge_of for v in range(dg.n))


def condition_a_witness(dg: SystemDigraph, sel: Selection) -> dict[str, dict[str, object]]:
    """Per-state certificate: the SCC of the system digraph restricted to
    ``sel`` that the state belongs to and one feedback edge inside it (None
    when absent)."""
    comps, comp_of, k_edge_of = _feedback_sccs(dg, sel)
    n, m = dg.n, dg.m

    def name(v: int) -> str:
        return vertex_name(v, n, m)

    members: dict[int, list[str]] = {}
    witness: dict[str, dict[str, object]] = {}
    for v in range(n):
        ci = comp_of[v]
        if ci not in members:
            members[ci] = [name(w) for w in sorted(comps[ci]) if w < dg.size]
        edge = k_edge_of.get(ci)
        witness[name(v)] = {
            "scc": members[ci],
            "feedback_edge": [name(edge[0]), name(edge[1])] if edge else None,
        }
    return witness


def dump_system_digraph(dg: SystemDigraph, sel: Optional[Selection] = None) -> str:
    """One edge per line: ``src dst class`` with 1-based x/u/y labels.

    A hub is printed as the feedback edges it stands for, one per
    output/input pair, so the dump always lists D(A, B, C, K) itself.  With
    ``sel``, only the edges among the states and the selected inputs and
    outputs are listed, under their labels in the full system.
    """
    n, m = dg.n, dg.m
    keep = selected_vertices(n, m, dg.p, sel)
    ek = dg.ek
    if dg.hub:
        ek = [(n + m + j, n + i) for j in range(dg.p) for i in range(m)]
    edges = [(s, d, EDGE_X) for s, d in dg.ex]
    edges += [(s, d, EDGE_U) for s, d in dg.eu]
    edges += [(s, d, EDGE_Y) for s, d in dg.ey]
    edges += [(s, d, EDGE_K) for s, d in ek]
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
