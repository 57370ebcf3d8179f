"""Independent reference implementations used to verify the package.

Everything here recomputes results from the raw sparsity patterns with
different algorithms than the library (networkx SCC/cycle enumeration,
transitive closures, exhaustive subset scans) so agreement is meaningful.
Only desk-scale instances are expected.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

import networkx as nx

from ioselect.selector import check_no_sfm
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


def feedback_sccs(
    system: StructuredSystem, sel: Selection
) -> list[tuple[frozenset[int], Optional[tuple[int, int]]]]:
    """Each SCC of the restricted system digraph with K expanded (networkx),
    in the full system's ids, with the smallest feedback edge (y_j, u_i)
    inside it, or None."""
    n, m = system.n, system.m
    k_edges = sorted((n + m + j, n + i) for i, j in k_stars(system) if i in sel.inputs and j in sel.outputs)
    out = []
    for comp in nx.strongly_connected_components(_digraph(system, sel)):
        inside = [(src, dst) for src, dst in k_edges if src in comp and dst in comp]
        out.append((frozenset(comp), inside[0] if inside else None))
    return out


def condition_a(system: StructuredSystem, sel: Selection) -> bool:
    """Every state in a strongly connected component containing a feedback edge."""
    return all(edge is not None for comp, edge in feedback_sccs(system, sel) if min(comp) < system.n)


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
    order, each decided whole by :func:`ioselect.selector.check_no_sfm` on
    ``compiled`` (a :class:`ioselect.selector.CompiledSystem`): the first
    that qualifies, or None.  The exact search splits the pairs with a
    complete K; this scan does not."""
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
        if check_no_sfm(compiled, Selection(inputs, outputs)).ok:
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


def _milp_side(n, a_stars, b_stars, costs, ends, continuous) -> Optional[set[int]]:
    """The cheapest channels of one side, by scipy's MILP solver (HiGHS):
    the inputs of (A, B) with ``ends`` its source SCCs, or the same on the
    dual.  One binary per channel, and a cover row per SCC in ``ends``; in
    continuous mode one more binary per star of A and B, each state row
    matched exactly once over its stars, each state column at most once
    and each channel at most its binary.  None when no channels do."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = len(costs)
    a_stars, b_stars = sorted(a_stars), sorted(b_stars)
    width = m + (len(a_stars) + len(b_stars) if continuous else 0)
    rows, lower, upper = [], [], []

    def constrain(coeffs, lo, hi):
        row = np.zeros(width)
        for var, coeff in coeffs:
            row[var] += coeff
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for end in ends:
        constrain([(u, 1) for i, u in b_stars if i in end], 1, np.inf)
    if continuous:  # one variable per star, A's after the channels, then B's
        by_row, by_col, by_channel = [[] for _ in range(n)], [[] for _ in range(n)], [[] for _ in range(m)]
        for var, (i, j) in enumerate(a_stars, m):
            by_row[i].append((var, 1))
            by_col[j].append((var, 1))
        for var, (i, u) in enumerate(b_stars, m + len(a_stars)):
            by_row[i].append((var, 1))
            by_channel[u].append((var, 1))
        for i in range(n):
            constrain(by_row[i], 1, 1)
            constrain(by_col[i], 0, 1)
        for u in range(m):
            constrain(by_channel[u] + [(u, -1)], -np.inf, 0)
    objective = np.array([float(c) for c in costs] + [0.0] * (width - m))
    constraints = [LinearConstraint(np.array(rows), lower, upper)] if rows else []
    res = milp(
        objective, integrality=np.ones(width), bounds=Bounds(0, 1), constraints=constraints, options={"mip_rel_gap": 0}
    )
    if res.x is None:
        return None
    return {u for u in range(m) if round(res.x[u]) == 1}


def milp_optimum(system: StructuredSystem) -> Optional[tuple[Selection, int]]:
    """The cheapest selection free of fixed modes, and its cost, solved as
    two integer programs (:func:`_milp_side`) that share no code with the
    package's exact search.  With K complete the sides are independent:
    the inputs cover the source SCCs of A's digraph and the outputs its
    sink SCCs (``condensation_ends``, networkx), and in continuous mode
    [A B_I] has a matching of every state row and [A; C_J] one of every
    state column.  The outputs' program is the inputs' on A and C
    transposed.  The binaries are rounded and the cost is summed in exact
    integers.  None when a side has no solution.  Needs scipy."""
    n, continuous = system.n, system.mode == "continuous"
    sources, sinks = condensation_ends(n, [(j, i) for i, j in system.A.stars])
    inputs = _milp_side(n, system.A.stars, system.B.stars, system.cost_u, sources, continuous)
    outputs = _milp_side(
        n, {(j, i) for i, j in system.A.stars}, {(j, o) for o, j in system.C.stars}, system.cost_y, sinks, continuous
    )
    if inputs is None or outputs is None:
        return None
    cost = sum(system.cost_u[i] for i in inputs) + sum(system.cost_y[j] for j in outputs)
    return Selection(inputs, outputs), cost


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


def tight_greedy_system(k: int) -> StructuredSystem:
    """The greedy cover's tight family (Johnson 1974, Chvatal 1979) on both
    sides (k >= 1): k states, each with a self-loop and no other A edge;
    input i (from 1) feeds state i at L/i units, with L = lcm(1..k), and
    input k + 1 feeds every state at L + 1 units; the outputs mirror the
    inputs.  Every state is an SCC both sources and sinks, so each cover
    has k elements: the greedy takes the k singletons, the largest first,
    L*H(k) units, where the optimum is input k + 1 alone."""
    from ioselect.system_model import COST_SCALE

    lcm = math.lcm(*range(1, k + 1))
    costs = tuple(COST_SCALE * (lcm // i) for i in range(1, k + 1)) + (COST_SCALE * (lcm + 1),)
    singletons = [[i] for i in range(k)]
    return StructuredSystem(
        A=SparsityPattern.of_checked_rows(k, k, singletons),
        B=SparsityPattern.of_checked_rows(k, k + 1, [[i, k] for i in range(k)]),
        C=SparsityPattern.of_checked_rows(k + 1, k, singletons + [list(range(k))]),
        K=COMPLETE,
        cost_u=costs,
        cost_y=costs,
    )


def guarantee_formula(tag: str, mu_max: int, eta_max: int) -> Fraction:
    """The approximation guarantee of a selection report's primary tag
    (not ``irreducible``, which is exact), with the harmonic number H(x)
    where the paper writes log x: the greedy cover is within H(d) of the
    cover optimum, d the size of its largest set.  ``mu_max`` and
    ``eta_max`` are the largest set sizes of the accessibility and the
    sensability cover.  The discrete optimum is the two cover optima's
    sum, so the discrete selection is within the larger of the two
    covers' H."""

    def h(x: int) -> Fraction:
        return sum((Fraction(1, i) for i in range(1, x + 1)), Fraction(0))

    return {
        "state_pm": 2 * (h(mu_max) + h(eta_max)),
        "single_nontop": 3 * h(eta_max),
        "single_nonbottom": 3 * h(mu_max),
        "general": h(mu_max) + h(eta_max) + 1,
        "discrete": max(h(mu_max), h(eta_max)),
    }[tag]


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


# Fixed modes from their algebraic definition, with no graph in them.  A
# structured system (A, B, C, K) under a selection has a structurally fixed
# mode when A + BKC keeps an eigenvalue for every K of the pattern, for
# generic entries of A, B and C (Wang and Davison 1973; the graph conditions
# are a theorem about it, Pichai, Sezer and Siljak 1984).  Over GF(P) with
# random entries, a wrong answer has probability about n/P per draw
# (Schwartz 1980; Zippel 1979).
FIELD = (1 << 61) - 1


def charpoly(m: list[list[int]], prime: int = FIELD) -> list[int]:
    """det(xI - M) over GF(prime), lowest degree first: M reduced to upper
    Hessenberg form H by similarity, then Hessenberg's recurrence
    p_k = (x - h_kk) p_(k-1) - sum_(i<k) h_ik (h_(i+1)i ... h_k(k-1)) p_(i-1)
    (Cohen 1993, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.2.9), in O(n^3)."""
    n = len(m)
    h = [[x % prime for x in row] for row in m]
    for k in range(n - 2):
        pivot = next((i for i in range(k + 1, n) if h[i][k]), None)
        if pivot is None:
            continue
        if pivot != k + 1:  # swap rows and columns pivot and k + 1
            h[pivot], h[k + 1] = h[k + 1], h[pivot]
            for row in h:
                row[pivot], row[k + 1] = row[k + 1], row[pivot]
        inv = pow(h[k + 1][k], prime - 2, prime)
        for i in range(k + 2, n):
            u = h[i][k] * inv % prime
            if u:  # row i -= u * row k+1, then column k+1 += u * column i
                h[i] = [(x - u * y) % prime for x, y in zip(h[i], h[k + 1])]
                for row in h:
                    row[k + 1] = (row[k + 1] + u * row[i]) % prime
    polys = [[1]]
    for k in range(n):  # p_(k+1), on H's leading (k+1) x (k+1) block
        cur = [0, *polys[k]]
        for d, c in enumerate(polys[k]):
            cur[d] = (cur[d] - h[k][k] * c) % prime
        t = 1
        for i in range(k, 0, -1):
            t = t * h[i][i - 1] % prime
            coef = h[i - 1][k] * t % prime
            for d, c in enumerate(polys[i - 1]):
                cur[d] = (cur[d] - coef * c) % prime
        polys.append(cur)
    return polys[n]


def _monic(a: list[int], prime: int) -> list[int]:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    inv = pow(a[-1], prime - 2, prime) if a else 1
    return [c * inv % prime for c in a]


def poly_gcd(a: list[int], b: list[int], prime: int = FIELD) -> list[int]:
    """The monic gcd of two polynomials over GF(prime), lowest degree
    first, by Euclid's algorithm; [] for two zero polynomials."""
    a, b = _monic(a, prime), _monic(b, prime)
    while b:
        r = list(a)
        while len(r) >= len(b):  # r mod b, b monic
            c, shift = r[-1], len(r) - len(b)
            for d, bc in enumerate(b):
                r[shift + d] = (r[shift + d] - c * bc) % prime
            r.pop()
        a, b = b, _monic(r, prime)
    return a


def fixed_mode_polynomial(system: StructuredSystem, sel: Selection, rng, draws: int = 3) -> list[int]:
    """The gcd, over ``draws`` draws of K, of the characteristic polynomial
    of M = A + BKC over GF(2^61 - 1) on the selection, monic and lowest
    degree first: [1] when the selection has no structurally fixed mode.

    Each star of A, B and C gets one entry drawn uniformly from [1, P) by
    ``rng`` (a ``random.Random``), and each draw of K one per star of K
    between a selected input and a selected output, with all m*p stars of a
    complete K.  A gcd of degree d keeps d fixed modes, counted with
    multiplicity; λ = 0 among them is x dividing it.  Stdlib only.
    """
    n = system.n

    def entries(pattern: SparsityPattern) -> dict[tuple[int, int], int]:
        return {star: rng.randrange(1, FIELD) for star in sorted(pattern.stars)}

    a, b, c = entries(system.A), entries(system.B), entries(system.C)
    b_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (state, i), w in b.items():
        if i in sel.inputs:
            b_rows[state].append((i, w))
    c_rows: dict[int, list[tuple[int, int]]] = {j: [] for j in sel.outputs}
    for (j, state), w in c.items():
        if j in sel.outputs:
            c_rows[j].append((state, w))
    k_cells = sorted((i, j) for i, j in k_stars(system) if i in sel.inputs and j in sel.outputs)
    gcd: Optional[list[int]] = None
    for _ in range(draws):
        k_rows: dict[int, list[tuple[int, int]]] = {}
        for i, j in k_cells:
            k_rows.setdefault(i, []).append((j, rng.randrange(1, FIELD)))
        m = [[0] * n for _ in range(n)]
        for (row, col), w in a.items():
            m[row][col] += w
        for row in range(n):
            bk: dict[int, int] = {}  # row of BK, by output
            for i, bw in b_rows[row]:
                for j, kw in k_rows.get(i, ()):
                    bk[j] = bk.get(j, 0) + bw * kw
            for j, v in bk.items():
                for col, cw in c_rows[j]:
                    m[row][col] += v * cw
        poly = charpoly(m)
        gcd = _monic(poly, FIELD) if gcd is None else poly_gcd(gcd, poly)
    return gcd
