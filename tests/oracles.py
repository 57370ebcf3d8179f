"""Independent reference implementations used to verify the package.

Everything here recomputes results from the raw sparsity patterns with
different algorithms than the library (networkx SCC/cycle enumeration,
transitive closures, exhaustive subset scans) so agreement is meaningful.
Only desk-scale instances are expected.
"""

from __future__ import annotations

import itertools
from typing import Optional

import networkx as nx

from ioselect.system_model import (
    COMPLETE,
    CompleteK,
    Selection,
    SparsityPattern,
    StructuredSystem,
)

def transpose(pat: SparsityPattern) -> SparsityPattern:
    return SparsityPattern(pat.cols, pat.rows, frozenset((j, i) for i, j in pat.stars))


def transpose_dual(system: StructuredSystem) -> StructuredSystem:
    """The sensability-to-accessibility transform.

    Returns the system (A^T, C^T, p_y): outputs become inputs on the
    transposed state pattern and the output side is empty.  Solving
    accessibility on the result solves sensability on the original with the
    same index mapping.
    """
    return StructuredSystem(
        A=transpose(system.A),
        B=transpose(system.C),
        C=SparsityPattern(0, system.n),
        K=COMPLETE,
        cost_u=system.cost_y,
        cost_y=(),
        mode=system.mode,
    )


def k_stars(system: StructuredSystem) -> frozenset[tuple[int, int]]:
    """Feedback stars as explicit (input, output) pairs: m*p of them for a
    complete K, which the package's graph builders never list."""
    if isinstance(system.K, CompleteK):
        return frozenset((i, j) for i in range(system.m) for j in range(system.p))
    return system.K.stars


def draw_pattern_rows(rows: int, cols: int, density: float, rng) -> list[list[int]]:
    """The generator's pattern draw one cell at a time: cell (i, j) is
    starred when ``rng``'s next ``next_u64`` is below density * 2^64."""
    threshold = int(density * (1 << 64))
    return [[j for j in range(cols) if rng.next_u64() < threshold] for _ in range(rows)]


# vertex ids follow the package encoding: states 0..n-1, inputs n..n+m-1,
# outputs n+m..n+m+p-1 -- but graphs here are built straight from the stars.


def system_edges(
    system: StructuredSystem, sel: Optional[Selection] = None, classes: bool = False
) -> list[tuple]:
    """Edges (src, dst) of D(A, B, C, K), or with ``classes`` (src, dst,
    class), restricted to ``sel``; a complete K star by star."""
    n, m = system.n, system.m
    keep_u = set(range(m)) if sel is None else set(sel.inputs)
    keep_y = set(range(system.p)) if sel is None else set(sel.outputs)
    edges = []
    for i, j in system.A.stars:
        edges.append((j, i, "EX"))
    for i, j in system.B.stars:
        if j in keep_u:
            edges.append((n + j, i, "EU"))
    for j, i in system.C.stars:
        if j in keep_y:
            edges.append((i, n + m + j, "EY"))
    for i, j in k_stars(system):
        if i in keep_u and j in keep_y:
            edges.append((n + m + j, n + i, "EK"))
    return edges if classes else [(s, d) for s, d, _cls in edges]


def bipartite_pairs(system: StructuredSystem) -> list[tuple[int, int]]:
    """Edges (left, right) of B(A, B, C, K) with K expanded star by star: the
    left twin of each digraph edge's head, its tail, plus (u'_i, u_i) and
    (y'_j, y_j)."""
    n = system.n
    pairs = [(dst, src) for src, dst in system_edges(system)]
    pairs += [(v, v) for v in range(n, n + system.m + system.p)]
    return pairs


def _digraph(system: StructuredSystem, sel: Optional[Selection]) -> nx.DiGraph:
    n, m = system.n, system.m
    keep_u = range(m) if sel is None else sel.sorted_inputs()
    keep_y = range(system.p) if sel is None else sel.sorted_outputs()
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_nodes_from(n + j for j in keep_u)
    g.add_nodes_from(n + m + j for j in keep_y)
    g.add_edges_from(system_edges(system, sel))
    return g


def scc_partition(n: int, edges: list[tuple[int, int]]) -> set[frozenset[int]]:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return {frozenset(c) for c in nx.strongly_connected_components(g)}


def condition_a(system: StructuredSystem, sel: Selection) -> bool:
    """Every state in a strongly connected component containing a feedback edge."""
    n, m = system.n, system.m
    g = _digraph(system, sel)
    comp_of = {}
    for comp in nx.strongly_connected_components(g):
        for v in comp:
            comp_of[v] = frozenset(comp)
    k_edges = [
        (n + m + j, n + i)
        for i, j in k_stars(system)
        if i in sel.inputs and j in sel.outputs
    ]
    for v in range(n):
        comp = comp_of[v]
        if not any(src in comp and dst in comp for src, dst in k_edges):
            return False
    return True


def _cycles(system: StructuredSystem, sel: Optional[Selection]) -> list[frozenset[int]]:
    g = _digraph(system, sel)
    return [frozenset(c) for c in nx.simple_cycles(g)]


def spanning_disjoint_cycles(system: StructuredSystem, sel: Selection) -> bool:
    """Condition b by brute force: is there a family of vertex-disjoint
    simple cycles covering every state?"""
    n = system.n
    states = frozenset(range(n))
    cycles = _cycles(system, sel)
    by_state: dict[int, list[frozenset[int]]] = {v: [] for v in range(n)}
    for cyc in cycles:
        for v in cyc & states:
            by_state[v].append(cyc)

    def extend(covered: frozenset[int], used: frozenset[int]) -> bool:
        missing = states - covered
        if not missing:
            return True
        pivot = min(missing)
        for cyc in by_state[pivot]:
            if cyc & used:
                continue
            if extend(covered | (cyc & states), used | cyc):
                return True
        return False

    return extend(frozenset(), frozenset())


def min_cycle_family_cost(system: StructuredSystem) -> Optional[int]:
    """Cheapest selection admitting a spanning disjoint cycle family, found
    by branch-and-bound over cycle families (cycles are vertex-disjoint, so
    the family cost is the sum of its input/output costs)."""
    n, m = system.n, system.m
    states = frozenset(range(n))

    def cyc_cost(cyc: frozenset[int]) -> int:
        total = 0
        for v in cyc:
            if n <= v < n + m:
                total += system.cost_u[v - n]
            elif v >= n + m:
                total += system.cost_y[v - n - m]
        return total

    cycles = sorted(
        ((cyc, cyc_cost(cyc)) for cyc in _cycles(system, None)), key=lambda t: t[1]
    )
    by_state: dict[int, list[tuple[frozenset[int], int]]] = {v: [] for v in range(n)}
    for cyc, cost in cycles:
        for v in cyc & states:
            by_state[v].append((cyc, cost))

    best: Optional[int] = None

    def extend(covered: frozenset[int], used: frozenset[int], cost: int) -> None:
        nonlocal best
        if best is not None and cost >= best:
            return
        missing = states - covered
        if not missing:
            best = cost
            return
        pivot = min(missing)
        for cyc, c in by_state[pivot]:
            if cyc & used:
                continue
            extend(covered | (cyc & states), used | cyc, cost + c)

    extend(frozenset(), frozenset(), 0)
    return best


def no_sfm(system: StructuredSystem, sel: Selection) -> bool:
    if not condition_a(system, sel):
        return False
    if system.mode == "discrete":
        return True
    return spanning_disjoint_cycles(system, sel)


def accessible_states(system: StructuredSystem, sel: Selection) -> frozenset[int]:
    """States reachable from the retained inputs (no feedback shortcuts
    needed: with every retained input a source, feedback edges add nothing)."""
    g = _digraph(system, sel)
    seen: set[int] = set()
    for j in sel.inputs:
        seen |= {v for v in nx.descendants(g, system.n + j) if v < system.n}
    return frozenset(seen)


def sensable_states(system: StructuredSystem, sel: Selection) -> frozenset[int]:
    g = _digraph(system, sel)
    n, m = system.n, system.m
    seen: set[int] = set()
    for j in sel.outputs:
        seen |= {v for v in nx.ancestors(g, n + m + j) if v < n}
    return frozenset(seen)


def best_selection(
    system: StructuredSystem, feasible=None
) -> Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Exhaustive minimum over all selections; ties to lexicographically
    smallest (inputs, outputs).  ``feasible`` defaults to the full no-SFM
    test."""
    if feasible is None:
        feasible = lambda s: no_sfm(system, s)
    m, p = system.m, system.p
    best = None
    for inputs in itertools.chain.from_iterable(
        itertools.combinations(range(m), k) for k in range(m + 1)
    ):
        for outputs in itertools.chain.from_iterable(
            itertools.combinations(range(p), k) for k in range(p + 1)
        ):
            cost = sum(system.cost_u[i] for i in inputs) + sum(
                system.cost_y[j] for j in outputs
            )
            key = (cost, inputs, outputs)
            if (best is None or key < best) and feasible(
                Selection(inputs, outputs)
            ):
                best = key
    return best


def joint_exact_select(compiled) -> Optional[tuple[Selection, int]]:
    """The exact selection by a scan of every pair (I, J) in (cost, I, J)
    order, each decided whole by ``compiled.no_sfm`` (a
    :class:`ioselect.selector.CompiledSystem`): the first that qualifies,
    or None.  The exact search splits the pairs with a complete K; this
    scan does not."""
    system = compiled.system

    def subsets(count: int, costs: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        chosen = [tuple(i for i in range(count) if mask >> i & 1) for mask in range(1 << count)]
        return [(sum(costs[i] for i in c), c) for c in chosen]

    pairs = sorted(
        (in_cost + out_cost, inputs, outputs)
        for in_cost, inputs in subsets(system.m, system.cost_u)
        for out_cost, outputs in subsets(system.p, system.cost_y)
    )
    for cost, inputs, outputs in pairs:
        if compiled.no_sfm(Selection(inputs, outputs)):
            return Selection(inputs, outputs), cost
    return None


def best_cover(universe_size: int, sets, weights) -> Optional[tuple[int, tuple[int, ...]]]:
    """Exhaustive weighted set cover; ties to the lexicographically smallest
    chosen index tuple."""
    universe = frozenset(range(universe_size))
    best = None
    for k in range(len(sets) + 1):
        for chosen in itertools.combinations(range(len(sets)), k):
            if frozenset().union(*(sets[i] for i in chosen)) >= universe:
                key = (sum(weights[i] for i in chosen), chosen)
                if best is None or key < best:
                    best = key
    return best


def min_weight_perfect_matching(size: int, weighted_pairs) -> Optional[int]:
    """Smallest total weight of a perfect matching between left 0..size-1
    and right 0..size-1, as a min-cost flow solved by networkx's network
    simplex (exact on integers).  None if there is no perfect matching."""
    g = nx.DiGraph()
    for v in range(size):
        g.add_node(("L", v), demand=-1)
        g.add_node(("R", v), demand=1)
    for l, r, w in weighted_pairs:
        g.add_edge(("L", l), ("R", r), weight=w, capacity=1)
    try:
        cost, _flow = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        return None
    return cost


def scipy_min_cost(system: StructuredSystem) -> Optional[int]:
    """Smallest cost of a perfect matching of B(A, B, C, K), K expanded star
    by star, each edge (u'_i, y_j) costing cost_u[i] + cost_y[j], by scipy's
    ``min_weight_full_bipartite_matching`` (LAPJVsp).  None if there is no
    perfect matching.

    scipy reads a stored 0 as a missing edge, so every weight is stored plus
    1 and the vertex count is subtracted from the total.  The totals stay
    below 2**53, so the float64 sums are exact.  Callers skip when scipy is
    missing (``needs_scipy`` in ``test_scale_oracle.py``).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    n, m = system.n, system.m
    size = n + m + system.p
    pairs = bipartite_pairs(system)
    weights = [
        1 + (system.cost_u[l - n] + system.cost_y[r - n - m] if n <= l < n + m <= r else 0)
        for l, r in pairs
    ]
    if not pairs:
        return None if size else 0
    if max(weights) * size >= 2**53:
        raise ValueError("weights too large for exact float64 sums")
    rows, cols = zip(*pairs)
    graph = csr_matrix((weights, (rows, cols)), shape=(size, size), dtype="float64")
    try:
        row_ind, col_ind = min_weight_full_bipartite_matching(graph)
    except ValueError:  # no perfect matching
        return None
    return int(graph[row_ind, col_ind].sum()) - size


def matching_size(n_left: int, n_right: int, pairs: list[tuple[int, int]]) -> int:
    """Maximum bipartite matching size via networkx (left ids 0.., right ids
    offset by n_left inside this helper)."""
    g = nx.Graph()
    g.add_nodes_from(range(n_left), bipartite=0)
    g.add_nodes_from(range(n_left, n_left + n_right), bipartite=1)
    g.add_edges_from((l, n_left + r) for l, r in pairs)
    match = nx.bipartite.hopcroft_karp_matching(g, top_nodes=range(n_left))
    return sum(1 for v in match if v < n_left)


def hall_set(system: StructuredSystem, sel: Selection) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The Dulmage-Mendelsohn Hall set of the system restricted to ``sel``,
    in the full system's vertex ids, or None when that graph has a perfect
    matching.

    The graph is the restricted bipartite graph with K expanded star by
    star, built from ``system_edges``; its maximum matching is networkx's
    Hopcroft-Karp.  The left set is the free left vertices and every left
    vertex an alternating path from them reaches (a reached right vertex is
    always matched, since the matching is maximum); the right set is that
    set's neighbourhood.  Both come back ascending."""
    n, m = system.n, system.m
    verts = list(range(n)) + [n + i for i in sorted(sel.inputs)] + [n + m + j for j in sorted(sel.outputs)]
    g = nx.Graph()
    g.add_nodes_from(("l", v) for v in verts)
    g.add_nodes_from(("r", v) for v in verts)
    g.add_edges_from((("l", dst), ("r", src)) for src, dst in system_edges(system, sel))
    g.add_edges_from((("l", v), ("r", v)) for v in verts[n:])
    mate = nx.bipartite.hopcroft_karp_matching(g, top_nodes=[("l", v) for v in verts])
    left = {("l", v) for v in verts if ("l", v) not in mate}
    if not left:
        return None
    stack = list(left)
    while stack:
        for r in g[stack.pop()]:
            if mate[r] not in left:
                left.add(mate[r])
                stack.append(mate[r])
    right = {r for l in left for r in g[l]}
    return tuple(sorted(v for _side, v in left)), tuple(sorted(v for _side, v in right))


def condensation_ends(n: int, edges: list[tuple[int, int]]) -> tuple[set[frozenset[int]], set[frozenset[int]]]:
    """The SCCs that no condensation edge enters, and those that none leaves."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    cond = nx.condensation(g)
    members = {c: frozenset(cond.nodes[c]["members"]) for c in cond}
    return (
        {members[c] for c in cond if cond.in_degree(c) == 0},
        {members[c] for c in cond if cond.out_degree(c) == 0},
    )


def set_scan_steps(inst):
    """Chvatal's greedy as a scan of the sets themselves, the reference for
    :func:`ioselect.set_cover.greedy_solve`'s counting greedy and for the
    steps :func:`ioselect.set_cover.steps_to_json` replays: each round
    takes the set with the smallest weight per new element
    (cross-multiplied), then the most new elements, then the lowest index.
    Returns each round's (set index, newly covered elements, weight per
    newly covered element in cost units), or raises the same
    :class:`~ioselect.set_cover.Infeasible`."""
    from fractions import Fraction

    from ioselect.set_cover import Infeasible
    from ioselect.system_model import COST_SCALE

    uncovered = set(range(inst.universe_size))
    steps = []
    while uncovered:
        best_idx, best_new, best_w = -1, set(), 0
        for idx, s in enumerate(inst.sets):
            new = s & uncovered
            if not new:
                continue
            w = inst.weights[idx]
            if best_idx < 0 or w * len(best_new) < best_w * len(new) or (
                w * len(best_new) == best_w * len(new) and len(new) > len(best_new)
            ):
                best_idx, best_new, best_w = idx, new, w
        if best_idx < 0:
            raise Infeasible(min(uncovered))
        uncovered -= best_new
        steps.append((best_idx, frozenset(best_new), Fraction(best_w, len(best_new) * COST_SCALE)))
    return steps


def set_scan_greedy(inst):
    """:func:`set_scan_steps` as the same :class:`~ioselect.set_cover.Cover`
    that the greedy returns, its trace the sets in the order taken."""
    from ioselect.set_cover import Cover

    order = tuple(idx for idx, _new, _ratio in set_scan_steps(inst))
    return Cover(frozenset(order), sum(inst.weights[i] for i in order), order)


def _no_dynamics_system(n: int, b_rows: list[list[int]], c_rows: list[list[int]]) -> StructuredSystem:
    """A system with empty A, so each of its n states is an SCC both
    non-top and non-bottom, and unit costs on its n inputs and n outputs."""
    from ioselect.system_model import COST_SCALE

    return StructuredSystem(
        A=SparsityPattern.of_checked_rows(n, n, [[] for _ in range(n)]),
        B=SparsityPattern.of_checked_rows(n, n, b_rows),
        C=SparsityPattern.of_checked_rows(n, n, c_rows),
        cost_u=(COST_SCALE,) * n,
        cost_y=(COST_SCALE,) * n,
    )


def diagonal_system(n: int) -> StructuredSystem:
    """The diagonal shape: A empty and B = C = I, so each cover has n
    elements and n one-element sets, about 2n pairs in its file."""
    return _no_dynamics_system(n, [[s] for s in range(n)], [[s] for s in range(n)])


def widemask_system(n: int) -> StructuredSystem:
    """The wide-mask shape (n >= 2): A empty, input j feeds states j and
    n - 1, and output j reads states j and n - 1, so each cover has n
    elements and n two-element sets (the last one one-element), every set
    holding element n - 1; about 4n pairs in its file."""
    b_rows = [[s] for s in range(n - 1)] + [list(range(n))]
    c_rows = [[j, n - 1] for j in range(n - 1)] + [[n - 1]]
    return _no_dynamics_system(n, b_rows, c_rows)


def scale_system(n: int, seed: int) -> StructuredSystem:
    """The scale shape (n >= 10): m = p = n/10; state row i holds two
    random A columns and, on 19 rows in 20, its own diagonal; each state
    is fed by two random inputs and read by two random outputs; costs are
    whole units 1-100.  Every draw is a ``next_below`` of one
    ``oracle_bench.SplitMix64(seed)`` stream, in that order: per row its
    two columns and its diagonal draw, then per state its two inputs and
    its two outputs, then the input and the output costs.  That is O(n)
    draws, and the patterns are built as their rows."""
    from ioselect.oracle_bench import SplitMix64
    from ioselect.system_model import COST_SCALE

    rng = SplitMix64(seed)
    m = p = n // 10
    a_rows = []
    for i in range(n):
        row = {rng.next_below(n), rng.next_below(n)}
        if rng.next_below(20):
            row.add(i)
        a_rows.append(sorted(row))
    b_rows, c_rows = [], [[] for _ in range(p)]
    for s in range(n):
        b_rows.append(sorted({rng.next_below(m), rng.next_below(m)}))
        for j in {rng.next_below(p), rng.next_below(p)}:
            c_rows[j].append(s)  # states ascend, so each row does
    cost_u, cost_y = ([COST_SCALE * (1 + rng.next_below(100)) for _ in range(size)] for size in (m, p))
    return StructuredSystem(
        A=SparsityPattern.of_checked_rows(n, n, a_rows),
        B=SparsityPattern.of_checked_rows(n, m, b_rows),
        C=SparsityPattern.of_checked_rows(p, n, c_rows),
        K=COMPLETE,
        cost_u=tuple(cost_u),
        cost_y=tuple(cost_y),
    )
