"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured counts and runtime.  Run with ``pytest -v tests/test_acceptance.py``
for the per-criterion pass/fail listing.
"""

import itertools
import math
import time
from fractions import Fraction

import oracles
from conftest import demo_system, matching_cost
from ioselect.matching import (
    build_bipartite,
    has_perfect_matching,
    min_cost_perfect_matching,
)
from ioselect.oracle_bench import (
    GenerationFailed,
    GeneratorConfig,
    SplitMix64,
    bench,
    exact_report,
    exact_select,
    generate,
)
from ioselect.selector import (
    check_no_sfm,
    compile_system,
    detect_special_case,
    report_to_json,
    select_min_cost_io,
)
from ioselect.set_cover import (
    WeightedSetCoverInstance,
    exact_solve,
    greedy_solve,
    reduce_accessibility_to_wsc,
    reduce_wsc_to_accessibility,
    selection_to_cover,
    InfeasibleSelection,
    Infeasible,
)
from ioselect.system_model import (
    COMPLETE,
    COST_SCALE,
    Selection,
    SparsityPattern,
    StructuredSystem,
    restrict,
    selection_cost,
)

U = COST_SCALE


def _config(s, seed_base, *, max_n=6, max_m=3, max_p=3, feasible=False,
            mode="continuous", densities=(0.2, 0.35, 0.5)):
    return GeneratorConfig(
        n=2 + s % (max_n - 1),
        m=1 + s % max_m,
        p=1 + (s // max_m) % max_p,
        state_density=densities[s % len(densities)],
        input_density=0.5,
        output_density=0.5,
        cost_range=("1", "9"),
        seed=seed_base + s,
        mode=mode,
        require_feasible=feasible,
    )


def _systems(count, seed_base, **kwargs):
    """Deterministic stream of generated systems with mixed shapes."""
    return [generate(_config(s, seed_base, **kwargs)) for s in range(count)]


def _feasible_systems(count, seed_base, **kwargs):
    """Like :func:`_systems` with ``require_feasible``, skipping dead seeds."""
    out = []
    s = 0
    while len(out) < count and s < 4 * count:
        try:
            out.append(generate(_config(s, seed_base, feasible=True, **kwargs)))
        except GenerationFailed:
            pass
        s += 1
    return out


def _wsc_instances(count, seed_base, max_n=8, max_r=8):
    """Deterministic feasible weighted set cover instances."""
    out = []
    for s in range(count):
        rng = SplitMix64(seed_base + s)
        n = 1 + rng.next_below(max_n)
        r = 1 + rng.next_below(max_r)
        sets = []
        for _ in range(r):
            sets.append(frozenset(e for e in range(n) if rng.next_below(3) == 0))
        covered = frozenset().union(*sets)
        for e in range(n):
            if e not in covered:
                k = rng.next_below(r)
                sets[k] = sets[k] | {e}
        weights = tuple(rng.next_below(10) * U for _ in range(r))
        out.append(WeightedSetCoverInstance(n, tuple(sets), weights))
    return out


def _min_accessibility_cost(system):
    """Brute-force cheapest input set making every state accessible."""
    all_states = frozenset(range(system.n))
    best = None
    for k in range(system.m + 1):
        for inputs in itertools.combinations(range(system.m), k):
            sel = Selection(inputs, [])
            if oracles.accessible_states(system, sel) != all_states:
                continue
            cost = sum(system.cost_u[i] for i in inputs)
            if best is None or cost < best:
                best = cost
    return best


def test_criterion_01_worked_example_structure():
    t0 = time.perf_counter()
    demo = demo_system()
    compiled = compile_system(demo)
    scc = compiled.scc
    non_top = [scc.components[c] for c in scc.non_top]
    non_bottom = [scc.components[c] for c in scc.non_bottom]
    assert non_top == [(1,), (3,)]        # {x2}, {x4}
    assert non_bottom == [(2,)]           # {x3}
    mu, eta = (tuple(map(len, inst.sets)) for inst in compiled.covers)
    assert mu == (0, 1, 2)
    assert eta == (1, 0)
    assert max(mu) == 2
    assert max(eta) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS - structure facts exact ({elapsed:.3f}s)")


def test_criterion_02_matching_equals_cycle_families():
    t0 = time.perf_counter()
    systems = _systems(500, seed_base=20_000)
    checked = 0
    for system in systems:
        full = Selection.full(system)
        half = Selection(
            inputs=frozenset(range(0, system.m, 2)),
            outputs=frozenset(range(1, system.p, 2)),
        )
        for sel in (full, Selection([], []), half):
            got = has_perfect_matching(build_bipartite(restrict(system, sel)))
            assert got == oracles.spanning_disjoint_cycles(system, sel)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 2: PASS - {len(systems)} systems / {checked} selections agree"
        f" ({elapsed:.1f}s)"
    )


def test_criterion_03_min_matching_cost_equals_cheapest_family():
    t0 = time.perf_counter()
    count = 0
    for s in range(200):
        m = 1 + s % 4
        p = 1 + (s // 4) % 4
        cfg = GeneratorConfig(
            n=3 + s % 4, m=m, p=p,
            state_density=(0.2, 0.35, 0.5)[s % 3],
            input_density=0.5, output_density=0.5,
            cost_range=("1", "9"), seed=30_000 + s,
        )
        system = generate(cfg)
        assert system.m + system.p <= 8
        g = build_bipartite(system)
        c_star = matching_cost(g, min_cost_perfect_matching(g))
        assert c_star == oracles.min_cycle_family_cost(system)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 200 and elapsed < 120.0
    print(f"criterion 3: PASS - c* exact on {count} systems ({elapsed:.1f}s)")


def test_criterion_04_reduction_round_trips():
    t0 = time.perf_counter()
    # reverse: cover instance -> system -> cover instance, optima preserved
    instances = _wsc_instances(100, seed_base=40_000)
    for inst in instances:
        system = reduce_wsc_to_accessibility(inst)
        back, labels = reduce_accessibility_to_wsc(system)
        assert back.universe_size == inst.universe_size
        assert back.sets == inst.sets and back.weights == inst.weights
        assert labels == tuple((e + 1,) for e in range(inst.universe_size))
        assert exact_solve(inst, greedy_solve(inst)).weight == _min_accessibility_cost(system)

    # forward: system -> cover instance, feasibility and weights per selection
    systems = _systems(100, seed_base=41_000, max_m=3)
    for system in systems:
        inst, _ = reduce_accessibility_to_wsc(system)
        all_states = frozenset(range(system.n))
        for k in range(system.m + 1):
            for inputs in itertools.combinations(range(system.m), k):
                sel = Selection(inputs, [])
                accessible = oracles.accessible_states(system, sel) == all_states
                try:
                    cover = selection_to_cover(inst, sel)
                except InfeasibleSelection:
                    assert not accessible
                    continue
                assert accessible
                assert cover.weight == selection_cost(system, sel)
        try:
            best = exact_solve(inst, greedy_solve(inst)).weight
        except Infeasible:
            best = None
        assert best == _min_accessibility_cost(system)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS - {len(instances)} reverse + {len(systems)} forward"
        f" reductions exact ({elapsed:.1f}s)"
    )


def test_criterion_05_greedy_harmonic_bound():
    t0 = time.perf_counter()
    violations = 0
    instances = _wsc_instances(250, seed_base=50_000)
    for inst in instances:
        greedy = greedy_solve(inst)
        best = exact_solve(inst, greedy)
        d = max((len(s) for s in inst.sets), default=0)
        harmonic = sum(Fraction(1, k) for k in range(1, d + 1))
        if greedy.weight > harmonic * best.weight:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0 and elapsed < 60.0
    print(
        f"criterion 5: PASS - greedy within H(d) on {len(instances)} instances"
        f" ({elapsed:.1f}s)"
    )


def test_criterion_06_pipeline_always_feasible():
    t0 = time.perf_counter()
    systems = _feasible_systems(500, seed_base=60_000, max_n=8, max_m=4, max_p=4)
    for system in systems:
        report = select_min_cost_io(system)
        assert check_no_sfm(system, report.selection).ok
        assert report_to_json(report)["no_sfm"] is True
    elapsed = time.perf_counter() - t0
    assert len(systems) >= 500 and elapsed < 120.0
    print(
        f"criterion 6: PASS - selection feasible on {len(systems)} systems"
        f" ({elapsed:.1f}s)"
    )


def test_criterion_07_lower_bound_inequalities():
    t0 = time.perf_counter()
    count = 0
    for s in range(200):
        cfg = GeneratorConfig(
            n=2 + s % 5, m=1 + s % 3, p=1 + (s // 3) % 3,
            state_density=(0.2, 0.35, 0.5)[s % 3],
            input_density=0.5, output_density=0.5,
            cost_range=("1", "9"), seed=70_000 + s,
        )
        system = generate(cfg)
        _sel, p_star = exact_select(select_min_cost_io(system))
        acc, _ = reduce_accessibility_to_wsc(system)
        sen, _ = reduce_accessibility_to_wsc(oracles.transpose_dual(system))
        stage_bound = sum(exact_solve(inst, greedy_solve(inst)).weight for inst in (acc, sen))
        c_star = oracles.min_cycle_family_cost(system)
        assert p_star >= stage_bound
        assert p_star >= c_star
        count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 200
    print(
        f"criterion 7: PASS - p* >= stage sum and p* >= c* on {count} instances"
        f" ({elapsed:.1f}s)"
    )


def test_criterion_08_worked_example_end_to_end():
    t0 = time.perf_counter()
    demo = demo_system()
    report = select_min_cost_io(demo)
    assert report.selection == Selection([0, 2], [0])
    assert report.total_cost == 3 * U
    assert report.stage_costs == (1 * U, 1 * U, 2 * U)
    assert report.lower_bound == 2 * U
    sel, p_star = exact_select(report)
    assert sel == Selection([2], [0])
    assert p_star == 2 * U
    assert Fraction(report.total_cost, p_star) == Fraction(3, 2)
    exact = exact_report(report)
    assert exact.oracle == (sel, p_star)
    doc = report_to_json(exact)
    assert doc["oracle"]["ratio"] == "1.5"
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: PASS - cost 3 vs optimum 2, ratio 1.5 ({elapsed:.3f}s)")


def test_criterion_09_special_cases(monkeypatch):
    t0 = time.perf_counter()
    # (a) irreducible instances are solved exactly
    irreducible = 0
    for s in range(400):
        if irreducible >= 50:
            break
        cfg = GeneratorConfig(
            n=3 + s % 3, m=2 + s % 2, p=2, state_density=0.6,
            input_density=0.6, output_density=0.6, cost_range=("1", "9"),
            seed=90_000 + s, require_feasible=False,
        )
        system = generate(cfg)
        if detect_special_case(system) != "irreducible":
            continue
        if not check_no_sfm(system, Selection.full(system)).ok:
            continue
        report = select_min_cost_io(system)
        _sel, p_star = exact_select(report)
        assert report.total_cost == p_star
        assert report.guarantee == "exact optimum"
        irreducible += 1
    assert irreducible >= 50

    # (b) diagonal state pattern: the cycle stage is free
    from ioselect.oracle_bench import CH_B, CH_C, _draw_pattern, _stream

    diagonal = 0
    for s in range(400):
        if diagonal >= 50:
            break
        n, m, p = 3 + s % 3, 2, 2
        system = StructuredSystem(
            A=SparsityPattern(n, n, frozenset((i, i) for i in range(n))),
            B=_draw_pattern(n, m, 0.8, _stream(91_000 + s, 0, CH_B)),
            C=_draw_pattern(p, n, 0.8, _stream(91_000 + s, 0, CH_C)),
            K=COMPLETE,
            cost_u=(U,) * m,
            cost_y=(U,) * p,
            mode="continuous",
        )
        if not check_no_sfm(system, Selection.full(system)).ok:
            continue
        report = select_min_cost_io(system)
        assert report.stage_costs[2] == 0
        diagonal += 1
    assert diagonal >= 50

    # (c) discrete mode never reaches the matching stage
    import ioselect.matching

    def forbidden(_g):
        raise AssertionError("matching stage invoked in discrete mode")

    monkeypatch.setattr(ioselect.matching, "min_cost_perfect_matching", forbidden)
    from ioselect.graph_core import condition_a_holds

    discrete = _feasible_systems(100, seed_base=92_000, mode="discrete")
    assert len(discrete) >= 100
    for system in discrete:
        report = select_min_cost_io(system)
        assert report.stage_costs[2] is None
        assert condition_a_holds(build_bipartite(system), report.selection)
    monkeypatch.undo()

    elapsed = time.perf_counter() - t0
    print(
        f"criterion 9: PASS - {irreducible} irreducible exact, {diagonal} diagonal"
        f" free-cycle, {len(discrete)} discrete no-matching ({elapsed:.1f}s)"
    )


def test_criterion_10_large_instance_and_growth():
    def select_time(n, seed=1, repeats=3):
        cfg = GeneratorConfig(
            n=n, m=n // 10, p=n // 10, state_density=5.0 / n,
            input_density=0.2, output_density=0.2,
            cost_range=("1", "99"), seed=seed,
        )
        system = generate(cfg)
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = select_min_cost_io(system)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert check_no_sfm(system, report.selection).ok
        return best

    big = select_time(500, repeats=1)
    assert big < 10.0

    times = {n: select_time(n) for n in (100, 200, 400)}
    # doubling n must not grow the runtime by more than the cubic factor 8
    # (slack 2x for timer noise at millisecond scale)
    assert times[200] <= 16 * times[100]
    assert times[400] <= 16 * times[200]
    table = ", ".join(f"n={n}: {t * 1000:.1f}ms" for n, t in sorted(times.items()))
    print(
        f"criterion 10: PASS - n=500 select {big:.2f}s; growth {table}"
    )


def test_criterion_11_ratio_envelope():
    t0 = time.perf_counter()
    configs = [
        GeneratorConfig(
            n=n, m=2, p=2, state_density=density, input_density=0.5,
            output_density=0.5, cost_range=("1", "9"), seed=110_000 + 97 * n,
        )
        for n in (3, 4, 5, 6)
        for density in (0.3, 0.45)
    ]
    records, summary = bench(configs, trials=63, oracle=True)
    assert summary["instances"] >= 500
    assert summary["errors"] == 0
    worst = Fraction(0)
    for rec in records:
        assert rec.feasible and rec.ratio is not None
        envelope = 1 + 2 * math.log(max(rec.n, 2))
        assert float(rec.ratio) <= envelope, (
            f"ratio {rec.ratio} above envelope {envelope:.3f} (digest {rec.digest})"
        )
        worst = max(worst, rec.ratio)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 11: PASS - max ratio {float(worst):.3f} over"
        f" {summary['instances']} instances, envelope respected ({elapsed:.1f}s)"
    )
