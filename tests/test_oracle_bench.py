import io
import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_system, pool_config, systems
from ioselect import oracle_bench
from ioselect.oracle_bench import (
    _LANES,
    CH_A,
    CH_B,
    CH_C,
    CH_COST_U,
    CH_COST_Y,
    BenchRecord,
    GenerationFailed,
    GeneratorConfig,
    SplitMix64,
    _cost_grid,
    _draw_costs,
    _draw_pattern,
    _lanes,
    _mix64,
    _some_state_unlinked,
    _stream,
    bench,
    exact_report,
    exact_select,
    generate,
    instance_digest,
    record_to_json,
    write_csv,
    write_jsonl,
)
from ioselect.selector import (
    SfmStatus,
    SystemHasSFMs,
    approximation_ratio,
    check_no_sfm,
    compile_system,
    select_min_cost_io,
)
from ioselect.set_cover import TooLarge, exact_solve, greedy_solve
from ioselect.system_model import COST_SCALE, SIZE_LIMIT, ModelError, Selection, StructuredSystem

U = COST_SCALE


class TestSplitMix64:
    def test_reference_sequence(self):
        # published test vector for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_42(self):
        rng = SplitMix64(42)
        assert rng.next_u64() == 0xBDD732262FEB6E95
        assert rng.next_u64() == 0x28EFE333B266F103

    def test_mix64_zero(self):
        assert _mix64(0) == 0

    def test_next_below_range(self):
        rng = SplitMix64(7)
        draws = [rng.next_below(10) for _ in range(200)]
        assert set(draws) <= set(range(10))
        assert len(set(draws)) == 10  # all residues show up quickly

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_below(0)

    def test_streams_are_separated(self):
        seen = set()
        for attempt in (0, 1, 2):
            for ch in (CH_A, CH_B, CH_C, CH_COST_U, CH_COST_Y):
                seen.add(SplitMix64(_stream(7, attempt, ch)).next_u64())
        assert len(seen) == 15

    @given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
    def test_next_below_bound(self, seed, bound):
        assert 0 <= SplitMix64(seed).next_below(bound) < bound


class TestDrawPattern:
    """The packed row draw against the cell-by-cell reference: the same
    stars from the same start state."""

    @staticmethod
    def _agree(rows, cols, density, state):
        pattern = _draw_pattern(rows, cols, density, state)
        assert (pattern.rows, pattern.cols) == (rows, cols)
        assert pattern.by_row == oracles.draw_pattern_rows(rows, cols, density, SplitMix64(state))

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 40),
        cols=st.integers(0, 40),
        density=st.sampled_from([0.0, 1.0, 5 / 400]) | st.floats(0.0, 1.0),
        seed=st.sampled_from([0, 1, 2**64 - 1]),
        stream=st.none() | st.tuples(st.integers(0, 3), st.sampled_from([CH_A, CH_B, CH_C])),
    )
    def test_matches_cell_by_cell(self, rows, cols, density, seed, stream):
        self._agree(rows, cols, density, seed if stream is None else _stream(seed, *stream))

    @staticmethod
    def _seed_drawing(value, draw=0):
        """The seed whose draw number ``draw`` (from 0) is ``value``: the
        finalizer run backwards, less draw + 1 steps."""

        def unshift(z, shift):
            x = z
            for _ in range(64 // shift + 1):
                x = z ^ (x >> shift)
            return x

        z = unshift(value, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
        z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
        return (unshift(z, 30) - (draw + 1) * 0x9E3779B97F4A7C15) % 2**64

    def test_draw_at_the_threshold_is_not_a_star(self):
        # seeds whose first draws are threshold - 1 and threshold exactly
        threshold = 1 << 63  # density 0.5
        for value, starred in ((threshold - 1, [[0]]), (threshold, [[]])):
            assert SplitMix64(self._seed_drawing(value)).next_u64() == value
            assert _draw_pattern(1, 1, 0.5, self._seed_drawing(value)).by_row == starred
            self._agree(3, 5, 0.5, self._seed_drawing(value))

    @pytest.mark.parametrize("density", [0.5, 5 / 400])
    def test_threshold_in_a_later_row(self, density):
        # row 1's last column is draw 2*cols - 1, made from the row counters
        # carried past row 0: threshold - 1 is a star there, threshold not
        rows, cols = 3, 5
        threshold = int(density * (1 << 64))
        for value, starred in ((threshold - 1, True), (threshold, False)):
            seed = self._seed_drawing(value, 2 * cols - 1)
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(2 * cols)][-1] == value
            pattern = _draw_pattern(rows, cols, density, seed)
            assert (cols - 1 in pattern.by_row[1]) == starred
            self._agree(rows, cols, density, seed)

    def test_sparse_pool_state_pattern(self):
        # the sparse benchmark pool's A: 400 x 400 at density 5/400
        self._agree(400, 400, 5 / 400, _stream(0, 0, CH_A))

    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("rows, cols", [(100, 30), (3, 1500), (0, 7), (7, 0), (0, 0)])
    def test_blocks(self, rows, cols, density):
        # 100 x 30 is two full blocks of _LANES // 30 rows and a partial
        # one; a row 1,500 wide is a block of its own, wider than _LANES
        assert 2 * (_LANES // 30) < 100 < 3 * (_LANES // 30) and 1500 > _LANES
        self._agree(rows, cols, density, _stream(5, 1, CH_B))

    @pytest.mark.parametrize("rows, cols", [(100, 30), (400, 400), (120, 60), (3, 1500), (5, 30)])
    def test_blocks_are_whole_rows_within_lanes(self, rows, cols, monkeypatch):
        sizes = []

        def recording(slots, threshold):
            sizes.append(slots)
            return _lanes(slots, threshold)

        monkeypatch.setattr(oracle_bench, "_lanes", recording)
        self._agree(rows, cols, 0.3, _stream(5, 2, CH_C))
        assert sizes and all(size % cols == 0 and size <= max(_LANES, cols) for size in sizes)

    def test_cache_hit_draws_the_same(self):
        _lanes.cache_clear()
        first = _draw_pattern(100, 30, 0.3, _stream(9, 0, CH_B))
        assert _lanes.cache_info()[:2] == (0, 2)  # (hits, misses): the full block and the last
        again = _draw_pattern(100, 30, 0.3, _stream(9, 0, CH_B))
        assert _lanes.cache_info()[:2] == (2, 2)
        assert again.by_row == first.by_row
        self._agree(100, 30, 0.3, _stream(9, 0, CH_B))

    def test_cache_is_bounded(self):
        _lanes.cache_clear()
        bound = _lanes.cache_info().maxsize
        for cols in range(1, 2 * bound):
            _draw_pattern(2, cols, 0.5, cols)
        assert _lanes.cache_info().currsize == bound


class TestDrawCosts:
    """The cost draw against one ``next_below`` per cost of a stepper
    started at the same state."""

    @settings(max_examples=200, deadline=None)
    @given(
        state=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        count=st.integers(0, 20),
        cost_range=st.sampled_from([("5", "5"), ("1", "99"), ("0.05", "3.7")]),
        decimals=st.integers(1, 2),
    )
    @example(state=0, count=20, cost_range=("5", "5"), decimals=1)
    @example(state=2**64 - 1, count=20, cost_range=("1", "99"), decimals=2)
    def test_matches_next_below(self, state, count, cost_range, decimals):
        grid = _cost_grid(GeneratorConfig(1, 1, 1, cost_range=cost_range, cost_decimals=decimals))
        step, first, last = grid
        reference = SplitMix64(state)
        expected = tuple(step * (first + reference.next_below(last - first + 1)) for _ in range(count))
        costs = _draw_costs(count, grid, SplitMix64(state))
        assert costs == expected
        lo, hi = (Fraction(v) * U for v in cost_range)
        assert all(lo <= c <= hi and c % step == 0 for c in costs)


def _pool_attempts(mode):
    """First attempts of pool-shaped configs, kept whatever they hold."""
    return st.builds(
        lambda workload, seed: generate(
            replace(pool_config(workload, 0), seed=seed, mode=mode, require_feasible=False)
        ),
        st.sampled_from(["oracle", "wide", "sparse"]),
        st.integers(0, 2**64 - 1),
    )


class TestGate:
    """The generator's pre-compile gate rejects only attempts whose full
    selection has structurally fixed modes."""

    @settings(max_examples=200, deadline=None)
    @given(
        system=st.sampled_from(["continuous", "discrete"]).flatmap(
            lambda mode: systems(mode=mode) | _pool_attempts(mode)
        )
    )
    @example(system=make_system(2, 1, 1, [], [], []))
    @example(system=make_system(2, 1, 1, [(1, 1)], [(1, 1)], [(1, 1)], mode="discrete"))
    def test_rejects_only_fixed_modes(self, system):
        if _some_state_unlinked(system.A, system.B, system.C):
            assert not check_no_sfm(compile_system(system), Selection.full(system)).ok

    def test_compiles_only_what_it_passes(self, monkeypatch):
        # the oracle pool's first members: the gate sees every attempt,
        # rejects some, each with fixed modes, and the rest are compiled
        verdicts, compiled = [], []
        gate, compile_ = _some_state_unlinked, compile_system

        def gate_spy(a, b, c):
            verdicts.append(((a, b, c), gate(a, b, c)))
            return verdicts[-1][1]

        def compile_spy(system):
            compiled.append(system)
            return compile_(system)

        monkeypatch.setattr(oracle_bench, "_some_state_unlinked", gate_spy)
        monkeypatch.setattr(oracle_bench, "compile_system", compile_spy)
        for member in range(8):
            generate(pool_config("oracle", member))
        rejected = [patterns for patterns, unlinked in verdicts if unlinked]
        assert rejected and len(compiled) == len(verdicts) - len(rejected)
        for a, b, c in rejected:
            system = StructuredSystem(a, b, c, cost_u=(0,) * b.cols, cost_y=(0,) * c.rows)
            assert not check_no_sfm(compile_(system), Selection.full(system)).ok


class TestGeneratorConfig:
    def test_rejects_zero_sizes(self):
        with pytest.raises(ModelError, match="at least 1"):
            GeneratorConfig(n=0, m=1, p=1)
        # and sizes validation would refuse; only the config is built, nothing is drawn
        for sizes in ((SIZE_LIMIT + 1, 1, 1), (1, SIZE_LIMIT + 1, 1), (1, 1, SIZE_LIMIT + 1)):
            with pytest.raises(ModelError, match=f"at most {SIZE_LIMIT}"):
                GeneratorConfig(*sizes)
        # sizes at the limit pass the size check; their cells are the cell
        # limit's to refuse
        with pytest.raises(ModelError, match="pattern cells"):
            GeneratorConfig(SIZE_LIMIT, SIZE_LIMIT, SIZE_LIMIT)

    def test_cell_limit_refuses_before_any_draw(self, monkeypatch):
        # n*n + n*m + p*n cells, each one draw: 8*8 + 8*1 + 1*8 = 80 fits a
        # limit of 80, and one more input column does not; nothing is drawn
        monkeypatch.setattr(oracle_bench, "CELL_LIMIT", 80)
        monkeypatch.setattr(oracle_bench, "_draw_pattern", None)
        GeneratorConfig(8, 1, 1)
        message = r"an attempt would draw 88 pattern cells \(n\*n \+ n\*m \+ p\*n\), over the limit 80"
        with pytest.raises(ModelError, match=message):
            GeneratorConfig(8, 2, 1)
        with pytest.raises(ModelError, match="88 pattern cells"):
            GeneratorConfig(8, 1, 2)

    def test_cell_limit_at_scale(self):
        # only the configs are built: one draw of 10^10 cells would take
        # about 2,400 s and 400 GB
        with pytest.raises(ModelError, match="10000200000 pattern cells"):
            GeneratorConfig(SIZE_LIMIT, 1, 1)
        GeneratorConfig(7000, 1, 1)

    def test_one_attempt_is_enough(self):
        # the least max_attempts is 1: it constructs, and 0 does not
        assert GeneratorConfig(n=3, m=1, p=1, max_attempts=1).max_attempts == 1
        with pytest.raises(ModelError, match="max_attempts must be at least 1"):
            GeneratorConfig(n=3, m=1, p=1, max_attempts=0)

    def test_rejects_bad_density(self):
        with pytest.raises(ModelError, match="state_density"):
            GeneratorConfig(n=1, m=1, p=1, state_density=1.5)

    def test_rejects_bad_decimals(self):
        with pytest.raises(ModelError, match="cost_decimals"):
            GeneratorConfig(n=1, m=1, p=1, cost_decimals=7)

    def test_rejects_inverted_range(self):
        with pytest.raises(ModelError, match="exceeds upper"):
            GeneratorConfig(n=1, m=1, p=1, cost_range=("2", "1"))
        # a negative lowest cost, which validation would refuse
        for cost_range in (("-5", "-1"), ("-0.000001", "1")):
            with pytest.raises(ModelError, match="lower bound is negative"):
                GeneratorConfig(n=1, m=1, p=1, cost_range=cost_range, cost_decimals=6)
        GeneratorConfig(n=1, m=1, p=1, cost_range=("0", "1"))

    def test_rejects_unrepresentable_range(self):
        # no whole number lies in [0.15, 0.18]
        with pytest.raises(ModelError, match="no value"):
            GeneratorConfig(n=1, m=1, p=1, cost_range=("0.15", "0.18"))
        GeneratorConfig(n=1, m=1, p=1, cost_range=("0.15", "0.18"), cost_decimals=2)


class TestGenerate:
    CFG = dict(
        n=4, m=2, p=2, state_density=0.35, input_density=0.6,
        output_density=0.6, cost_range=("1", "9"), seed=11,
    )

    def test_deterministic(self):
        cfg = GeneratorConfig(**self.CFG)
        assert generate(cfg) == generate(cfg)
        assert instance_digest(generate(cfg)) == "90955cb46e52a23c"

    def test_frozen_draw(self):
        system = generate(GeneratorConfig(**self.CFG))
        assert sorted(system.A.stars) == [
            (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 3), (3, 0),
        ]
        assert sorted(system.B.stars) == [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert sorted(system.C.stars) == [(0, 3), (1, 0), (1, 1)]
        assert system.cost_u == (5 * U, 3 * U)
        assert system.cost_y == (3 * U, 7 * U)

    def test_seed_changes_instance(self):
        base = GeneratorConfig(**self.CFG)
        other = GeneratorConfig(**{**self.CFG, "seed": 12})
        assert instance_digest(generate(base)) != instance_digest(generate(other))

    def test_feasible_by_construction(self):
        from ioselect.selector import check_no_sfm

        for seed in range(8):
            system = generate(GeneratorConfig(**{**self.CFG, "seed": seed}))
            assert check_no_sfm(system, Selection.full(system)).ok

    def test_generation_failed(self):
        cfg = GeneratorConfig(
            n=2, m=1, p=1, state_density=0.0, input_density=0.0,
            output_density=0.0, max_attempts=3,
        )
        with pytest.raises(GenerationFailed, match="3 attempts") as exc:
            generate(cfg)
        assert exc.value.attempts == 3

    def test_infeasible_draw_allowed(self):
        cfg = GeneratorConfig(
            n=2, m=1, p=1, state_density=0.0, input_density=0.0,
            output_density=0.0, require_feasible=False,
        )
        system = generate(cfg)
        assert not system.A.stars and not system.B.stars and not system.C.stars

    def test_cost_precision(self):
        cfg = GeneratorConfig(
            n=1, m=4, p=4, cost_range=("0.25", "0.75"), cost_decimals=2,
            seed=5, require_feasible=False,
        )
        system = generate(cfg)
        for c in system.cost_u + system.cost_y:
            assert 250_000 <= c <= 750_000
            assert c % 10_000 == 0  # multiples of 0.01

    @given(systems())
    def test_digest_is_stable(self, system):
        assert instance_digest(system) == instance_digest(system)
        assert len(instance_digest(system)) == 16


class TestExactSelect:
    def test_demo(self, demo):
        sel, cost = exact_select(select_min_cost_io(demo))
        assert sel == Selection([2], [0])
        assert cost == 2 * U

    def test_budget(self, monkeypatch):
        # 17 channels answer; a search past its work budget raises TooLarge
        import ioselect.set_cover as set_cover_mod

        system = make_system(1, 9, 8, [(1, 1)], [(1, j) for j in range(1, 10)], [(j, 1) for j in range(1, 9)])
        report = select_min_cost_io(system)
        assert exact_select(report) == (Selection([0], [0]), 2 * U)
        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)
        with pytest.raises(TooLarge, match="exact search over 9 sets passed its work budget of 1"):
            exact_select(report)

    def test_sfm_system(self):
        # select refuses the system before any exact search, with the full
        # selection's error
        one = ([(1, 1)], [(1, 1)])  # x1 alone is driven and read
        shared = ([(1, 1), (2, 1)], [(1, 1), (1, 2)])  # x1 and x2 share the one input and output
        for a, (b, c), status in [
            ([(1, 1), (2, 2)], one, SfmStatus.TYPE1),  # x2 keeps a self-loop, but no input reaches it
            ([], shared, SfmStatus.TYPE2),
            ([(1, 1)], one, SfmStatus.BOTH),  # x2 has no edge at all
        ]:
            system = make_system(2, 1, 1, a, b, c)
            full = Selection.full(system)
            assert check_no_sfm(system, full) is status
            with pytest.raises(SystemHasSFMs) as exc:
                select_min_cost_io(system)
            assert exc.value.status is status
            assert (exc.value.status, exc.value.witness) == compile_system(system).decide(full)

    def test_lexicographic_ties(self):
        # u1/u2 and y1/y2 interchangeable at equal cost
        system = make_system(1, 2, 2, [], [(1, 1), (1, 2)], [(1, 1), (2, 1)])
        sel, cost = exact_select(select_min_cost_io(system))
        assert sel == Selection([0], [0])
        assert cost == 2 * U

    @given(systems(max_n=5, feasible=True))
    @settings(max_examples=40)
    def test_matches_reference(self, system):
        sel, cost = exact_select(select_min_cost_io(system))
        ref = oracles.best_selection(
            system, feasible=lambda s: oracles.no_sfm(system, s)
        )
        assert ref is not None
        assert cost == ref[0]
        assert (tuple(sel.sorted_inputs()), tuple(sel.sorted_outputs())) == ref[1:]


    @pytest.mark.parametrize("m, p", [(1, 1), (3, 2), (5, 5)])
    def test_one_compile_per_search(self, m, p, monkeypatch):
        # every candidate is decided on the report's compiled analysis,
        # however many selections the search visits: the search builds
        # nothing of its own and validates nothing again
        from test_selector import wrap_counting

        names = [
            "system_model.restrict", "system_model.validate", "matching.build_bipartite", "graph_core.decompose_sccs"
        ]
        system = generate(GeneratorConfig(n=8, m=m, p=p, cost_range=("1", "9"), seed=m * 10 + p))
        report = select_min_cost_io(system)
        counts = wrap_counting(monkeypatch, names)
        exact_select(report)
        assert counts == dict.fromkeys(names, 0)

    @pytest.mark.parametrize("seed", [5, 6, 8])
    def test_complete_k_decides_each_subset_once(self, seed, monkeypatch):
        # with a complete K the input subsets and the output subsets are
        # searched apart, each on its own side: no whole-selection decision,
        # where a scan of the pairs in cost order decides 104, 408 and 217
        # of these systems' 1,024
        import ioselect.oracle_bench as oracle_bench_mod
        from test_selector import wrap_counting

        system = generate(GeneratorConfig(n=8, m=5, p=5, cost_range=("1", "9"), seed=seed))
        counts = wrap_counting(monkeypatch, ["selector.check_no_sfm"])
        decided, complete_side = [], oracle_bench_mod.complete_side
        monkeypatch.setattr(
            oracle_bench_mod, "complete_side", lambda *args: decided.append(args[1]) or complete_side(*args)
        )
        exact_select(select_min_cost_io(system))
        assert decided
        assert counts["selector.check_no_sfm"] == 0

    def test_failed_completions_leave_the_seed(self, demo, monkeypatch):
        # each side starts from its side of the certified selection: when
        # no other set completes its matching, the seed is the answer
        import ioselect.oracle_bench as oracle_bench_mod

        report = select_min_cost_io(demo)
        assert exact_select(report)[1] < report.total_cost
        monkeypatch.setattr(oracle_bench_mod, "complete_side", lambda g, side, chosen: ([], None))
        assert exact_select(report) == (report.selection, report.total_cost)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_tied_costs_match_joint_scan(self, mode):
        # costs in {0, 1, 2} tie many selections: the search and its walk
        # give the scan's first (I, J) by (cost, I, J)
        for seed in range(400):
            config = GeneratorConfig(
                n=3 + seed % 5, m=1 + seed % 4, p=1 + seed // 4 % 4, state_density=0.3,
                cost_range=("0", "2"), seed=seed, mode=mode,
            )
            compiled = compile_system(generate(config))
            assert exact_select(select_min_cost_io(compiled)) == oracles.joint_exact_select(compiled), seed

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_oracle_pool_matches_joint_scan(self, mode):
        # the per-side search against the scan of every (I, J) pair on
        # systems shaped as the benchmark's oracle pool
        for seed in range(64):
            system = generate(replace(pool_config("oracle", seed), mode=mode))
            compiled = compile_system(system)
            assert exact_select(select_min_cost_io(compiled)) == oracles.joint_exact_select(compiled), seed

    @pytest.mark.parametrize("k", range(2, 21))
    def test_greedy_tight_family(self, k):
        # the greedy takes k singletons on each side, 2*L*H(k) units, where
        # the one input and the one output that reach every state cost
        # 2(L + 1): the ratio H(k)*L/(L + 1) grows as ln k
        system = oracles.tight_greedy_system(k)
        lcm, harmonic = math.lcm(*range(1, k + 1)), sum(Fraction(1, i) for i in range(1, k + 1))
        report = select_min_cost_io(system)
        assert report.special_case == "state_pm"
        assert report.total_cost == 2 * lcm * harmonic * U
        _sel, optimum = exact_select(report)
        assert optimum == 2 * (lcm + 1) * U
        assert approximation_ratio(report.total_cost, optimum) == (harmonic * lcm / (lcm + 1), False)

    def test_ratio_within_each_tags_guarantee(self):
        # every tag's guarantee, H(x) for the paper's log x, against the
        # optimum on small drawn systems; an irreducible system's selection
        # is the optimum itself
        tags = set()
        for mode in ("continuous", "discrete"):
            for s in range(1000):
                config = GeneratorConfig(
                    n=2 + s % 7, m=1 + s % 4, p=1 + (s // 4) % 4, state_density=0.15 + 0.1 * (s % 3),
                    input_density=0.4, output_density=0.4, cost_range=("1", "20"), seed=s, mode=mode,
                )
                try:
                    report = select_min_cost_io(generate(config))
                except GenerationFailed:  # continuous seed 18: no feasible draw in 200 attempts
                    continue
                ratio, _flagged = approximation_ratio(report.total_cost, exact_select(report)[1])
                tag = report.special_case
                tags.add(tag)
                if tag == "irreducible":
                    assert ratio == 1, (mode, s)
                    continue
                mu_max, eta_max = (max(map(len, cover.sets), default=0) for cover in report.compiled.covers)
                assert ratio <= oracles.guarantee_formula(tag, mu_max, eta_max), (mode, s, tag)
        assert tags == {"discrete", "irreducible", "state_pm", "single_nontop", "single_nonbottom", "general"}


class TestExactReport:
    """``select --exact``'s report: the exact cover bound beside the exact
    selection, each cover searched once."""

    IRREDUCIBLE = make_system(  # one SCC with a state-only perfect matching
        3, 2, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)], [(1, 3), (2, 1)], cost_u=["5", "2"], cost_y=["4", "9"]
    )

    @pytest.mark.parametrize(
        "which, flags, searches",
        [("demo", ["--discrete"], 2), ("demo", [], 4), ("irreducible", [], 2)],
        ids=["discrete", "continuous", "irreducible"],
    )
    def test_searches_per_select_exact(self, demo, tmp_path, monkeypatch, capsys, which, flags, searches):
        # a discrete side's exact search is its exact cover, so the two
        # searches of the exact selection give the bound too; a continuous
        # select searches each cover once more, and an irreducible one has
        # no cover bound to search
        from ioselect import cli
        from ioselect.system_model import system_to_json
        from test_selector import wrap_counting

        path = tmp_path / "instance.json"
        path.write_text(json.dumps(system_to_json(demo if which == "demo" else self.IRREDUCIBLE)))
        counts = wrap_counting(monkeypatch, ["set_cover.branch_and_bound"])
        assert cli.main(["select", str(path), "--exact", *flags]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "oracle" in doc and ("exact_stage_bound" in doc) == (which == "demo")
        assert counts == {"set_cover.branch_and_bound": searches}

    def test_searches_per_bench_record(self, monkeypatch):
        # a bench --oracle record runs the exact selection alone
        from test_selector import wrap_counting

        counts = wrap_counting(monkeypatch, ["set_cover.branch_and_bound"])
        records, _summary = bench([pool_config("oracle", 0)], 1, oracle=True)
        assert records[0].oracle_cost is not None
        assert counts == {"set_cover.branch_and_bound": 2}

    @pytest.mark.parametrize("which", ["demo", 0, 1, 2])
    def test_discrete_bound_is_the_exact_covers(self, demo, which):
        # in discrete mode the optimum's cost is the bound: the sum of the
        # two covers' exact optima, each from its greedy cover
        system = demo if which == "demo" else generate(pool_config("oracle", which))
        report = exact_report(select_min_cost_io(replace(system, mode="discrete")))
        _sel, cost = report.oracle
        covers = report.compiled.covers
        assert report.exact_stage_bound == cost == sum(exact_solve(inst, greedy_solve(inst)).weight for inst in covers)
        assert report.lower_bound == cost <= report.total_cost


class TestBench:
    CFG = GeneratorConfig(
        n=4, m=2, p=2, state_density=0.35, input_density=0.6,
        output_density=0.6, cost_range=("1", "9"), seed=100,
    )

    def test_records_and_summary(self):
        records, summary = bench([self.CFG], trials=5, oracle=True)
        assert [r.seed for r in records] == [100, 101, 102, 103, 104]
        assert summary["instances"] == 5
        assert summary["feasible"] == 5
        assert summary["errors"] == 0
        assert summary["with_oracle"] == 5
        assert summary["max_ratio"] >= 1.0
        assert summary["mean_ratio"] >= 1.0
        for rec in records:
            assert rec.feasible and rec.error is None
            assert rec.algo_cost >= rec.oracle_cost > 0
            assert rec.ratio == Fraction(rec.algo_cost, rec.oracle_cost)
            assert not rec.ratio_flagged
            assert rec.q >= 1 or rec.k >= 1 or rec.special_case
            assert "select" in rec.timings and "oracle" in rec.timings
        assert "4" in summary["runtime_by_n"]
        assert summary["runtime_by_n"]["4"]["trials"] == 5

    def test_oracle_past_sixteen_channels(self):
        # m + p = 24: every record gets the exact optimum and its ratio
        cfg = GeneratorConfig(
            n=10, m=12, p=12, state_density=0.2, input_density=0.2,
            output_density=0.2, cost_range=("1", "9"), seed=3,
        )
        records, summary = bench([cfg], trials=4, oracle=True)
        assert summary["with_oracle"] == 4
        for rec in records:
            assert rec.feasible and rec.oracle_cost is not None
            assert rec.ratio >= 1

    def test_oracle_past_the_budget(self, monkeypatch):
        # a search past its budget leaves the record without an optimum
        import ioselect.set_cover as set_cover_mod

        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)
        records, summary = bench([self.CFG], trials=2, oracle=True)
        assert summary["with_oracle"] == 0
        for rec in records:
            assert rec.feasible and rec.error is None
            assert rec.oracle_cost is None and rec.ratio is None
            assert "oracle" in rec.timings

    def test_without_oracle(self):
        records, summary = bench([self.CFG], trials=2)
        assert summary["with_oracle"] == 0
        assert summary["max_ratio"] is None
        assert all(r.oracle_cost is None and r.ratio is None for r in records)

    def test_config_major_order(self):
        cfg2 = GeneratorConfig(
            n=3, m=2, p=2, state_density=0.35, input_density=0.6,
            output_density=0.6, seed=7,
        )
        records, _ = bench([self.CFG, cfg2], trials=2)
        assert [(r.n, r.seed) for r in records] == [
            (4, 100), (4, 101), (3, 7), (3, 8),
        ]

    def test_one_scc_pass_per_analysis(self, monkeypatch):
        # the trial's compiled analysis feeds q, k, the special-case tag,
        # select and the exact search; the only other SCC pass is the
        # generator's feasibility check
        import sys
        from dataclasses import replace

        import ioselect.graph_core as graph_core
        from ioselect.selector import detect_special_case

        original = graph_core.decompose_sccs
        calls = []

        def counting(g):
            calls.append(g.n)
            return original(g)

        for name, mod in list(sys.modules.items()):
            if name.startswith("ioselect") and getattr(mod, "decompose_sccs", None) is original:
                monkeypatch.setattr(mod, "decompose_sccs", counting)
        records, _ = bench([self.CFG], trials=1)
        assert len(calls) == 2
        system = generate(replace(self.CFG, seed=records[0].seed))
        assert records[0].special_case == detect_special_case(system)
        # the exact search reuses the trial's compiled analysis
        calls.clear()
        records, _ = bench([self.CFG], trials=1, oracle=True)
        assert records[0].oracle_cost is not None
        assert len(calls) == 2

    def test_state_matching_inside_select_time(self, monkeypatch):
        # the record's "select" time runs from the trial's compile to the
        # end of select_min_cost_io; B(A)'s maximum matching, cached on the
        # trial's graph, runs once after that compile, and inside the select
        import ioselect.graph_core as graph_core
        import ioselect.oracle_bench as oracle_bench

        events = []

        def wrap(module, name, before, after=None):
            real = getattr(module, name)

            def wrapper(*args):
                events.append(before)
                try:
                    return real(*args)
                finally:
                    if after:
                        events.append(after)

            monkeypatch.setattr(module, name, wrapper)

        wrap(oracle_bench, "compile_system", "compile")
        wrap(oracle_bench, "select_min_cost_io", "select", "select returned")
        wrap(graph_core, "_maximum_matching", "maximum_matching")
        records, _ = bench([self.CFG], trials=1)
        assert records[0].feasible
        # the generator's own compile and matching come first
        assert events[-4:] == ["compile", "select", "maximum_matching", "select returned"]

    def test_zero_cost_optimum_flagged(self):
        cfg = replace(self.CFG, cost_range=("0", "0"))
        records, summary = bench([cfg], trials=1, oracle=True)
        rec = records[0]
        assert (rec.algo_cost, rec.oracle_cost) == (0, 0)
        assert rec.ratio == 1 and rec.ratio_flagged
        assert summary["flagged_zero_optimum"] == 1

    def test_select_error_recorded(self):
        # without the rejection loop the draw has a fixed mode: with no A
        # stars, one input and one output cannot span two states by cycles
        cfg = GeneratorConfig(
            n=2, m=1, p=1, state_density=0.0, input_density=1.0,
            output_density=1.0, require_feasible=False,
        )
        records, summary = bench([cfg], trials=1, oracle=True)
        rec = records[0]
        assert summary["errors"] == 1 and summary["feasible"] == 0
        assert rec.error == "system has structurally fixed modes (Type-2)"
        assert not rec.feasible and rec.digest and rec.special_case
        assert list(rec.timings) == ["select"] and rec.oracle_cost is None

    def test_generation_failure_recorded(self):
        cfg = GeneratorConfig(
            n=2, m=1, p=1, state_density=0.0, input_density=0.0,
            output_density=0.0, max_attempts=2, seed=0,
        )
        records, summary = bench([cfg], trials=1)
        assert summary["errors"] == 1 and summary["feasible"] == 0
        rec = records[0]
        assert rec.error == "no feasible instance after 2 attempts"
        assert not rec.feasible and rec.digest == ""


class TestSerialization:
    def _record(self):
        return BenchRecord(
            digest="abc123", seed=9, n=2, m=1, p=1, q=1, k=1, mu_max=1,
            eta_max=1, special_case="general", algo_cost=3 * U,
            oracle_cost=2 * U, ratio=Fraction(3, 2), ratio_flagged=False,
            feasible=True, error=None, timings={"select": 0.001234567},
        )

    def test_record_json(self):
        doc = record_to_json(self._record())
        assert doc["algo_cost"] == "3"
        assert doc["oracle_cost"] == "2"
        assert doc["ratio"] == "1.5"
        assert doc["ratio_float"] == 1.5
        assert doc["timings"] == {"select": 0.001235}

    def test_jsonl(self):
        buf = io.StringIO()
        write_jsonl([self._record()], {"instances": 1}, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["digest"] == "abc123"
        assert json.loads(lines[1]) == {"summary": {"instances": 1}}

    def test_csv(self):
        import csv as csv_mod

        buf = io.StringIO()
        write_csv([self._record()], buf)
        rows = list(csv_mod.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 1
        assert rows[0]["digest"] == "abc123"
        assert rows[0]["ratio_float"] == "1.5"
        assert rows[0]["select_s"] == "0.001235"
