import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_system, pool_config, systems
from ioselect.oracle_bench import (
    CH_A,
    CH_B,
    CH_C,
    CH_COST_U,
    CH_COST_Y,
    BenchRecord,
    GenerationFailed,
    GeneratorConfig,
    SplitMix64,
    _draw_pattern,
    _mix64,
    _stream,
    bench,
    exact_select,
    generate,
    instance_digest,
    record_to_json,
    write_csv,
    write_jsonl,
)
from ioselect.selector import SfmStatus, SystemHasSFMs, check_no_sfm, compile_system
from ioselect.set_cover import TooLarge
from ioselect.system_model import COST_SCALE, SIZE_LIMIT, InvariantViolated, ModelError, Selection

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
                seen.add(_stream(7, attempt, ch).next_u64())
        assert len(seen) == 15

    @given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
    def test_next_below_bound(self, seed, bound):
        assert 0 <= SplitMix64(seed).next_below(bound) < bound


class TestDrawPattern:
    """The packed row draw against the cell-by-cell reference: the same
    stars, and the stream left in the same state."""

    @staticmethod
    def _agree(rows, cols, density, make_rng):
        packed, reference = make_rng(), make_rng()
        pattern = _draw_pattern(rows, cols, density, packed)
        assert (pattern.rows, pattern.cols) == (rows, cols)
        assert pattern.by_row == oracles.draw_pattern_rows(rows, cols, density, reference)
        assert packed._state == reference._state

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 40),
        cols=st.integers(0, 40),
        density=st.sampled_from([0.0, 1.0, 5 / 400]) | st.floats(0.0, 1.0),
        seed=st.sampled_from([0, 1, 2**64 - 1]),
        stream=st.none() | st.tuples(st.integers(0, 3), st.sampled_from([CH_A, CH_B, CH_C])),
    )
    def test_matches_cell_by_cell(self, rows, cols, density, seed, stream):
        if stream is None:
            self._agree(rows, cols, density, lambda: SplitMix64(seed))
        else:
            self._agree(rows, cols, density, lambda: _stream(seed, *stream))

    def test_draw_at_the_threshold_is_not_a_star(self):
        # seeds whose first draws are threshold - 1 and threshold exactly
        def unshift(z, shift):
            x = z
            for _ in range(64 // shift + 1):
                x = z ^ (x >> shift)
            return x

        def seed_drawing(value):
            z = unshift(value, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
            z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
            return (unshift(z, 30) - 0x9E3779B97F4A7C15) % 2**64

        threshold = 1 << 63  # density 0.5
        for value, starred in ((threshold - 1, [[0]]), (threshold, [[]])):
            assert SplitMix64(seed_drawing(value)).next_u64() == value
            assert _draw_pattern(1, 1, 0.5, SplitMix64(seed_drawing(value))).by_row == starred
            self._agree(3, 5, 0.5, lambda: SplitMix64(seed_drawing(value)))

    def test_sparse_pool_state_pattern(self):
        # the sparse benchmark pool's A: 400 x 400 at density 5/400
        self._agree(400, 400, 5 / 400, lambda: _stream(0, 0, CH_A))


class TestGeneratorConfig:
    def test_rejects_zero_sizes(self):
        with pytest.raises(ModelError, match="at least 1"):
            GeneratorConfig(n=0, m=1, p=1)
        # and sizes validation would refuse; only the config is built, nothing is drawn
        for sizes in ((SIZE_LIMIT + 1, 1, 1), (1, SIZE_LIMIT + 1, 1), (1, 1, SIZE_LIMIT + 1)):
            with pytest.raises(ModelError, match=f"at most {SIZE_LIMIT}"):
                GeneratorConfig(*sizes)
        GeneratorConfig(SIZE_LIMIT, SIZE_LIMIT, SIZE_LIMIT)

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
        sel, cost = exact_select(demo)
        assert sel == Selection([2], [0])
        assert cost == 2 * U

    def test_budget(self, monkeypatch):
        # 17 channels answer; a search past its work budget raises TooLarge
        import ioselect.set_cover as set_cover_mod

        system = make_system(1, 9, 8, [(1, 1)], [(1, j) for j in range(1, 10)], [(j, 1) for j in range(1, 9)])
        assert exact_select(system) == (Selection([0], [0]), 2 * U)
        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)
        with pytest.raises(TooLarge, match="exact search over 9 sets passed its work budget of 1"):
            exact_select(system)

    def test_sfm_system(self):
        # the searches find nothing, and the error is the full selection's
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
                exact_select(system)
            assert exc.value.status is status
            assert (exc.value.status, exc.value.witness) == compile_system(system).decide(full)

    def test_lexicographic_ties(self):
        # u1/u2 and y1/y2 interchangeable at equal cost
        system = make_system(1, 2, 2, [], [(1, 1), (1, 2)], [(1, 1), (2, 1)])
        sel, cost = exact_select(system)
        assert sel == Selection([0], [0])
        assert cost == 2 * U

    @given(systems(max_n=5, feasible=True))
    @settings(max_examples=40)
    def test_matches_reference(self, system):
        sel, cost = exact_select(system)
        ref = oracles.best_selection(
            system, feasible=lambda s: oracles.no_sfm(system, s)
        )
        assert ref is not None
        assert cost == ref[0]
        assert (tuple(sel.sorted_inputs()), tuple(sel.sorted_outputs())) == ref[1:]


    @pytest.mark.parametrize("m, p", [(1, 1), (3, 2), (5, 5)])
    def test_one_compile_per_search(self, m, p, monkeypatch):
        # every candidate is decided on one compiled analysis, however many
        # selections the search visits
        from test_selector import wrap_counting

        names = ["system_model.restrict", "matching.build_bipartite", "graph_core.decompose_sccs"]
        system = generate(GeneratorConfig(n=8, m=m, p=p, cost_range=("1", "9"), seed=m * 10 + p))
        counts = wrap_counting(monkeypatch, names)
        exact_select(system)
        assert counts == {
            "system_model.restrict": 0,
            "matching.build_bipartite": 1,
            "graph_core.decompose_sccs": 1,
        }

    @pytest.mark.parametrize("seed", [5, 6, 8])
    def test_complete_k_decides_each_subset_once(self, seed, monkeypatch):
        # with a complete K the input subsets and the output subsets are
        # searched apart, each on its own side: no whole-selection decision,
        # where a scan of the pairs in cost order decides 104, 408 and 217
        # of these systems' 1,024, and each node a side's search visits
        # runs at most one completion
        import ioselect.oracle_bench as oracle_bench_mod
        from test_selector import wrap_counting

        system = generate(GeneratorConfig(n=8, m=5, p=5, cost_range=("1", "9"), seed=seed))
        counts = wrap_counting(monkeypatch, ["selector.CompiledSystem.no_sfm"])
        decided, complete_side = [], oracle_bench_mod.complete_side
        monkeypatch.setattr(
            oracle_bench_mod, "complete_side", lambda *args: decided.append(args[1]) or complete_side(*args)
        )
        searched, branch_and_bound = [], oracle_bench_mod.branch_and_bound
        monkeypatch.setattr(
            oracle_bench_mod, "branch_and_bound", lambda *args: searched.append(branch_and_bound(*args)) or searched[-1]
        )
        exact_select(system)
        assert decided
        assert all(decided.count(side) <= cover.nodes for side, cover in enumerate(searched))
        assert counts["selector.CompiledSystem.no_sfm"] == 0

    def test_empty_search_raises(self, demo, monkeypatch):
        # the full selection qualifies, so a search that finds nothing is a
        # defect, reported also under python -O
        import ioselect.oracle_bench as oracle_bench_mod

        monkeypatch.setattr(oracle_bench_mod, "complete_side", lambda g, side, chosen: ([], None))
        with pytest.raises(InvariantViolated, match="full selection"):
            exact_select(demo)

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
            assert exact_select(compiled) == oracles.joint_exact_select(compiled), seed

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_oracle_pool_matches_joint_scan(self, mode):
        # the per-side search against the scan of every (I, J) pair on
        # systems shaped as the benchmark's oracle pool
        for seed in range(64):
            system = generate(replace(pool_config("oracle", seed), mode=mode))
            compiled = compile_system(system)
            assert exact_select(compiled) == oracles.joint_exact_select(compiled), seed


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
        # end of select_min_cost_io; B(A)'s Hopcroft-Karp, cached on the
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
        wrap(graph_core, "_hopcroft_karp", "hopcroft_karp")
        records, _ = bench([self.CFG], trials=1)
        assert records[0].feasible
        # the generator's own compile and matching come first
        assert events[-4:] == ["compile", "select", "hopcroft_karp", "select returned"]

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
