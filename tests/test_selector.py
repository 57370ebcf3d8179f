from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import benchmark_workloads, make_system, matching_cost, pool_config, systems
from test_graph_core import varied_systems_with_selection
from ioselect.selector import (
    SelectionReport,
    SfmStatus,
    SystemHasSFMs,
    ValidationFailed,
    applicable_special_cases,
    check_no_sfm,
    compile_system,
    detect_special_case,
    report_to_json,
    select_min_cost_io,
)
from ioselect import matching as matching_mod
from ioselect import oracle_bench as oracle_bench_mod
from ioselect import selector as selector_mod
from ioselect.matching import build_bipartite, state_pattern_has_pm
from ioselect.oracle_bench import GeneratorConfig, exact_report, exact_select, generate
from ioselect.set_cover import cover_labels
from ioselect.system_model import (
    COST_SCALE,
    InvariantViolated,
    ModelError,
    Selection,
    SparsityPattern,
    selection_cost,
    system_from_json,
)

U = COST_SCALE


def diagonal_system():
    return make_system(
        3, 2, 2, [(1, 1), (2, 2), (3, 3)], [(1, 1), (2, 1), (3, 2)],
        [(1, 1), (2, 2), (2, 3)],
    )


def long_cycle_system(n):
    # x1 -> ... -> xn -> x1 with self-loops on all but the last state:
    # irreducible, and the states alone have a perfect matching
    a = [(i, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return make_system(n, 1, 1, a, [(1, 1)], [(1, n // 2)])


# the layers every select times: the compile's four, B(A)'s matching, the
# tags with condition (a) of the full selection, and the final check
EVERY_SELECT = {
    "validate", "build_bipartite", "decompose_sccs", "cover_instances",
    "state_matching", "special_cases", "final_check",
}
COVERS = {"accessibility", "sensability"}
STAGE3 = {"state_cols_rows_to_states", "stage3"}


def assert_layers(rep, ran):
    assert set(rep.timings) == EVERY_SELECT | ran
    assert all(seconds >= 0 for seconds in rep.timings.values())


def shared_pair_system():
    # two states competing for the single u/y pair: cycle condition fails
    return make_system(2, 1, 1, [], [(1, 1), (2, 1)], [(1, 1), (1, 2)])


class TestCheckNoSfm:
    def test_demo_full(self, demo):
        assert check_no_sfm(demo, Selection.full(demo)) is SfmStatus.NO_SFM

    def test_demo_minimal_pair(self, demo):
        assert check_no_sfm(demo, Selection([2], [0])) is SfmStatus.NO_SFM

    def test_demo_wrong_output(self, demo):
        # without y1 state x3 has no outlet: both conditions break
        assert check_no_sfm(demo, Selection([2], [1])) is SfmStatus.BOTH

    def test_type1_only(self):
        # self-loops satisfy the cycle condition on their own
        assert (
            check_no_sfm(diagonal_system(), Selection([], []))
            is SfmStatus.TYPE1
        )

    def test_type2_only(self):
        system = shared_pair_system()
        assert check_no_sfm(system, Selection.full(system)) is SfmStatus.TYPE2

    def test_discrete_ignores_cycles(self, demo):
        system = shared_pair_system()
        assert (
            check_no_sfm(replace(system, mode="discrete"), Selection.full(system))
            is SfmStatus.NO_SFM
        )
        disc = replace(demo, mode="discrete")
        assert check_no_sfm(disc, Selection([2], [1])) is SfmStatus.TYPE1
        assert check_no_sfm(disc, Selection.full(disc)) is SfmStatus.NO_SFM

    def test_ok_property(self):
        assert SfmStatus.NO_SFM.ok
        for status in (SfmStatus.TYPE1, SfmStatus.TYPE2, SfmStatus.BOTH):
            assert not status.ok

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_reference(self, data):
        # both modes, K as the token, all stars or some stars, and a random
        # or the full selection: the status without a witness is decide's,
        # and it is the oracles' two conditions
        system, sel = data.draw(varied_systems_with_selection())
        system = replace(system, mode=data.draw(st.sampled_from(["continuous", "discrete"])))
        sel = Selection.full(system) if sel is None else sel
        status = check_no_sfm(system, sel)
        assert status is compile_system(system).decide(sel)[0]
        cond_a = oracles.condition_a(system, sel)
        cond_b = system.mode == "discrete" or oracles.spanning_disjoint_cycles(system, sel)
        expected = {(True, True): "NO_SFM", (True, False): "TYPE2", (False, True): "TYPE1", (False, False): "BOTH"}
        assert status is SfmStatus[expected[cond_a, cond_b]]


class TestWitness:
    def test_type1_states(self, demo):
        status, w = compile_system(demo).decide(Selection([2], [1]))
        assert status is SfmStatus.BOTH
        assert w["type1_states"] == ["x3", "x4"]
        hall = w["hall_violator"]
        assert hall["left"] == ["x1'", "x2'", "x3'", "x4'", "u3'", "y2'"]
        assert hall["neighbors"] == ["x1", "x2", "x4", "u3", "y2"]

    def test_type2_full_system(self):
        system = shared_pair_system()
        status, w = compile_system(system).decide(Selection.full(system))
        assert status is SfmStatus.TYPE2
        assert w == {"hall_violator": {"left": ["x1'", "x2'"], "neighbors": ["u1"]}}

    @pytest.mark.parametrize("sel", [Selection([5], [0]), Selection([0], [7])])
    def test_index_out_of_range(self, demo, sel):
        # refused as check_no_sfm refuses it, not witnessed with the index dropped
        with pytest.raises(IndexError, match="index [68] out of range"):
            compile_system(demo).decide(sel)

    def test_type1_empty_selection(self):
        status, w = compile_system(diagonal_system()).decide(Selection([], []))
        assert status is SfmStatus.TYPE1
        assert w == {"type1_states": ["x1", "x2", "x3"]}

    # Stage 3's failure (cost order) and hall_set (index order) join
    # different greedy matchings but reach the same Dulmage-Mendelsohn set,
    # so select's witness, read off stage 3's failure, keeps check's bytes.
    @staticmethod
    def _check_stage3_hall_witness(system) -> bool:
        """False when B(A, B, C, K) has a perfect matching; else check that
        stage 3's NoPerfectMatching carries decide's Hall violator."""
        compiled = compile_system(system)
        try:
            matching_mod.min_cost_perfect_matching(compiled.graph)
        except matching_mod.NoPerfectMatching as exc:
            hall = compiled.decide(Selection.full(system))[1]["hall_violator"]
            assert {"left": list(exc.left_labels), "neighbors": list(exc.right_labels)} == hall
            return True
        return False

    @given(systems(max_n=8))
    @settings(max_examples=150)
    def test_stage3_failure_carries_the_sfm_hall_witness(self, system):
        self._check_stage3_hall_witness(system)

    @pytest.mark.parametrize("name", ["sfm", "gen_sfms"])
    def test_stage3_failure_on_golden_systems(self, name):
        from test_golden_cli import _instances

        assert self._check_stage3_hall_witness(system_from_json(_instances()[name]))

    def test_discrete_never_reports_hall(self):
        system = replace(make_system(2, 1, 1, [(1, 1)], [(1, 1)], [(1, 1)]),
                         mode="discrete")
        status, w = compile_system(system).decide(Selection.full(system))
        assert status is SfmStatus.TYPE1
        assert w == {"type1_states": ["x2"]}


class TestSpecialCases:
    def test_demo(self, demo):
        assert applicable_special_cases(demo) == ("single_nonbottom",)
        assert detect_special_case(demo) == "single_nonbottom"

    def test_diagonal(self):
        assert applicable_special_cases(diagonal_system()) == ("state_pm",)

    def test_single_nontop(self):
        system = make_system(3, 2, 2, [(2, 1), (3, 1)], [(1, 1), (3, 2)],
                             [(1, 2), (2, 3)])
        assert applicable_special_cases(system) == ("single_nontop",)

    def test_general(self):
        system = make_system(4, 2, 2, [(2, 1), (4, 3)], [(1, 1), (3, 2)],
                             [(1, 2), (2, 4)])
        assert applicable_special_cases(system) == ()
        assert detect_special_case(system) == "general"

    def test_irreducible_tags_everything(self):
        system = make_system(3, 2, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)],
                             [(1, 3), (2, 1)])
        assert applicable_special_cases(system) == (
            "irreducible", "state_pm", "single_nontop", "single_nonbottom",
        )
        assert detect_special_case(system) == "irreducible"

    def test_discrete_takes_precedence(self):
        system = replace(
            make_system(3, 2, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)],
                        [(1, 3), (2, 1)]),
            mode="discrete",
        )
        assert detect_special_case(system) == "discrete"
        assert applicable_special_cases(system)[0] == "discrete"


class TestSelectDemo:
    def test_frozen_values(self, demo):
        rep = select_min_cost_io(demo)
        assert rep.selection == Selection([0, 2], [0])
        assert rep.total_cost == 3 * U
        assert rep.stage_costs == (1 * U, 1 * U, 2 * U)
        assert rep.lower_bound == 2 * U
        assert rep.special_case == "single_nonbottom"
        assert rep.special_cases == ("single_nonbottom",)
        assert "mu_max" in rep.guarantee
        assert report_to_json(rep)["no_sfm"] is True
        assert rep.exact_stage_bound is None
        assert rep.stage1.chosen == frozenset({2})
        assert rep.stage2.chosen == frozenset({0})
        assert cover_labels(rep.compiled.scc) == (((2,), (4,)), ((3,),))
        assert matching_cost(rep.compiled.graph, rep.matching) == 2 * U
        assert_layers(rep, COVERS | STAGE3)

    def test_compile_timings(self, demo):
        # the compile times its four builds; a select of the compiled value
        # reports them from a copy, and they take no part in == or repr
        compiled = compile_system(demo)
        assert set(compiled.timings) == {"validate", "build_bipartite", "decompose_sccs", "cover_instances"}
        before = dict(compiled.timings)
        rep = select_min_cost_io(compiled)
        assert compiled.timings == before
        assert {name: rep.timings[name] for name in before} == before
        assert replace(compiled, timings={}) == compiled
        assert "timings" not in repr(compiled)

    @pytest.mark.parametrize("instance", ["demo", "sparse"])
    def test_layer_times_fit_inside_the_call(self, demo, instance):
        # the layers, the compile's four included, are disjoint parts of
        # one select, so their times add up to at most its wall time
        import time

        system = demo if instance == "demo" else generate(pool_config("sparse", 0))
        t0 = time.perf_counter()
        rep = select_min_cost_io(system)
        wall = time.perf_counter() - t0
        assert 0 <= sum(rep.timings.values()) <= wall

    def test_exact_covers_tighten_bound(self, demo):
        rep = exact_report(select_min_cost_io(demo))
        assert rep.exact_stage_bound == 2 * U
        assert rep.lower_bound == 2 * U
        # the two exact optima are timed as one layer, the exact selection as another
        assert_layers(rep, COVERS | STAGE3 | {"exact_covers", "exact_select"})

    def test_forced_expensive_input(self):
        # u3 is the only input reaching x4, so both the greedy and the
        # optimum must pay for it; the greedy additionally keeps u2
        system = make_system(
            4, 3, 2,
            [(1, 1), (1, 2), (2, 2), (3, 1), (3, 2), (3, 4), (4, 4)],
            [(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (4, 3)],
            [(1, 3), (2, 1)],
            cost_u=["1", "1", "100"],
            cost_y=["1", "1"],
        )
        rep = exact_report(select_min_cost_io(system))
        assert rep.selection == Selection([0, 1, 2], [0])
        assert rep.total_cost == 103 * U
        assert rep.stage_costs == (101 * U, 1 * U, 2 * U)
        assert rep.exact_stage_bound == 101 * U
        assert rep.lower_bound == 101 * U
        ref = oracles.best_selection(
            system, feasible=lambda s: oracles.no_sfm(system, s)
        )
        assert ref == (101 * U, (2,), (0,))


@pytest.fixture
def no_exact_covers(monkeypatch):
    # an irreducible system's stage-cost sum is exact: no cover is solved exactly
    def boom(_inst, _seed):
        raise AssertionError("an irreducible system needs no exact cover bound")

    monkeypatch.setattr(oracle_bench_mod, "exact_solve", boom)


class TestSelectSpecialPaths:
    def test_diagonal_matching_is_free(self):
        rep = select_min_cost_io(diagonal_system())
        assert rep.special_case == "state_pm"
        assert rep.stage_costs == (2 * U, 2 * U, 0)
        assert rep.total_cost == 4 * U
        assert rep.selection == Selection([0, 1], [0, 1])
        assert rep.matching is not None and matching_cost(rep.compiled.graph, rep.matching) == 0

    def test_irreducible_with_state_pm(self, no_exact_covers):
        system = make_system(
            3, 2, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)], [(1, 3), (2, 1)],
            cost_u=["5", "2"], cost_y=["4", "9"],
        )
        for exact in (False, True):
            rep = select_min_cost_io(system)
            rep = exact_report(rep) if exact else rep
            assert rep.special_case == "irreducible"
            assert rep.guarantee == "exact optimum"
            assert rep.selection == Selection([1], [0])
            assert rep.total_cost == 6 * U
            assert rep.stage_costs == (2 * U, 4 * U, 0)
            assert rep.lower_bound == rep.total_cost
            assert rep.exact_stage_bound is None
            assert rep.stage1 is None and rep.stage2 is None and rep.matching is None
            # stage 3 does not run: the time goes to the two covers
            assert_layers(rep, COVERS | ({"exact_select"} if exact else set()))

    def test_irreducible_without_state_pm(self, no_exact_covers):
        system = make_system(
            3, 2, 2, [(2, 1), (1, 2), (3, 2), (2, 3)], [(1, 1), (3, 2)],
            [(1, 2), (2, 1)], cost_u=["5", "2"], cost_y=["4", "9"],
        )
        for exact in (False, True):
            rep = select_min_cost_io(system)
            rep = exact_report(rep) if exact else rep
            assert rep.special_case == "irreducible"
            assert rep.selection == Selection([1], [1])
            assert rep.total_cost == 11 * U
            assert rep.stage_costs == (0, 0, 11 * U)
            assert rep.lower_bound == rep.total_cost
            assert rep.exact_stage_bound is None
            assert rep.stage1 is None and rep.stage2 is None and rep.matching is not None
            assert_layers(rep, STAGE3 | ({"exact_select"} if exact else set()))

    def test_single_nontop(self):
        system = make_system(3, 2, 2, [(2, 1), (3, 1)], [(1, 1), (3, 2)],
                             [(1, 2), (2, 3)])
        rep = select_min_cost_io(system)
        assert rep.special_case == "single_nontop"
        assert "eta_max" in rep.guarantee
        assert rep.total_cost == 4 * U
        assert rep.stage_costs == (1 * U, 2 * U, 4 * U)
        assert rep.lower_bound == 4 * U

    def test_discrete_skips_matching(self, demo, monkeypatch):
        import ioselect.matching

        def boom(_g):
            raise AssertionError("matching stage must not run in discrete mode")

        monkeypatch.setattr(ioselect.matching, "min_cost_perfect_matching", boom)
        rep = select_min_cost_io(replace(demo, mode="discrete"))
        assert rep.special_case == "discrete"
        assert rep.stage_costs[2] is None
        assert rep.matching is None
        assert_layers(rep, COVERS)
        assert rep.selection == Selection([2], [0])
        assert rep.total_cost == 2 * U
        assert rep.lower_bound == 0

    def test_discrete_exact_bound(self, demo):
        # each side's exact search is its exact cover: the bound is the
        # optimum's cost, and no cover is searched apart from it
        rep = exact_report(select_min_cost_io(replace(demo, mode="discrete")))
        _sel, cost = rep.oracle
        assert rep.exact_stage_bound == cost == 2 * U
        assert rep.lower_bound == 2 * U
        assert_layers(rep, COVERS | {"exact_select"})

    def test_a_dearer_copy_of_an_input_lowers_the_total(self):
        # ROADMAP item 24's counterexample: a copy of an input at a higher
        # cost is not a relation that holds.  Stage 3's transversal matroid
        # counts the copy as a second element, which matches a second state
        # row, so stage 3 takes the copy (cost 2) and input 2 where it took
        # inputs 1 (cost 9) and 2.
        config = GeneratorConfig(
            n=6, m=3, p=3, state_density=0.2, input_density=0.4, output_density=0.4,
            cost_range=("1", "9"), seed=6,
        )
        system = generate(config)
        rep = select_min_cost_io(system)
        assert rep.selection == Selection([0, 1], [0, 1, 2])
        assert rep.stage_costs[2] == 20 * U
        assert rep.total_cost == 23 * U
        copied = replace(
            system,
            B=SparsityPattern.of_checked_rows(
                system.n, system.m + 1, [row + [system.m] * (1 in row) for row in system.B.by_row]
            ),
            cost_u=(*system.cost_u, 2 * U),
        )
        rep = select_min_cost_io(copied)
        assert rep.selection == Selection([1, 3], [0, 1, 2])
        assert rep.stage_costs[2] == 13 * U
        assert rep.total_cost == 16 * U


class TestSelectErrors:
    def test_sfm_system_raises_with_witness(self):
        system = make_system(2, 1, 1, [(1, 1)], [(1, 1)], [(1, 1)])
        with pytest.raises(SystemHasSFMs) as exc:
            select_min_cost_io(system)
        assert exc.value.status is SfmStatus.BOTH
        assert exc.value.witness["type1_states"] == ["x2"]
        assert exc.value.witness["hall_violator"]["left"] == ["x2'"]
        assert "Type-1 and Type-2" in str(exc.value)

    def test_discrete_sfm_status(self):
        system = replace(make_system(2, 1, 1, [(1, 1)], [(1, 1)], [(1, 1)]),
                         mode="discrete")
        with pytest.raises(SystemHasSFMs) as exc:
            select_min_cost_io(system)
        assert exc.value.status is SfmStatus.TYPE1

    def test_validation(self, demo):
        bad = replace(demo, cost_u=(U, -1, U))
        with pytest.raises(ValidationFailed) as exc:
            select_min_cost_io(bad)
        assert any("negative cost" in v for v in exc.value.violations)

    def test_incomplete_feedback_pattern(self, demo):
        bad = replace(demo, K=SparsityPattern(3, 2, frozenset({(0, 0)})))
        with pytest.raises(ModelError, match="complete feedback pattern"):
            select_min_cost_io(bad)
        # a malformed system is reported as such, whatever its K
        with pytest.raises(ValidationFailed):
            select_min_cost_io(replace(bad, cost_u=(U, -1, U)))


class TestValidateOnce:
    # Every public entry point compiles, and compile_system validates: a
    # star of A outside 0..n-1 is reported, never read as a vertex id
    # (-1 is the last state in Python) nor left to raise IndexError.
    ENTRIES = {
        "compile_system": compile_system,
        "check_no_sfm": lambda s: check_no_sfm(s, Selection.full(s)),
        "select_min_cost_io": select_min_cost_io,
        "exact_select": lambda s: exact_select(select_min_cost_io(s)),
        "applicable_special_cases": applicable_special_cases,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("star", [(-1, 0), (0, 2)])
    def test_star_out_of_range(self, entry, star):
        good = make_system(2, 1, 1, [(1, 1), (2, 2), (2, 1)], [(1, 1)], [(1, 2)])
        bad = replace(good, A=SparsityPattern(2, 2, good.A.stars | {star}))
        assert check_no_sfm(good, Selection.full(good)).ok
        with pytest.raises(ValidationFailed, match=r"A: star \(\d+, \d+\) (row|col) out of range"):
            self.ENTRIES[entry](bad)


class TestSelectProperties:
    @given(systems(feasible=True))
    @settings(max_examples=60)
    def test_always_feasible_and_bounded(self, system):
        rep = select_min_cost_io(system)
        assert oracles.no_sfm(system, rep.selection)
        assert rep.total_cost == selection_cost(system, rep.selection)
        assert rep.lower_bound <= rep.total_cost
        assert rep.special_case == detect_special_case(system)
        assert report_to_json(rep)["no_sfm"] is True

    @staticmethod
    def assert_exact_bounds(system):
        # the bounds sit below the optimum, which sits below the total; in
        # discrete mode the exact covers are the optimum
        rep = exact_report(select_min_cost_io(system))
        assert rep.oracle == exact_select(rep)
        cost = rep.oracle[1]
        assert rep.lower_bound <= cost <= rep.total_cost
        if rep.exact_stage_bound is not None:
            assert rep.exact_stage_bound <= cost
        if system.mode == "discrete":
            assert rep.exact_stage_bound == rep.lower_bound == cost

    @given(systems(max_n=5, max_m=3, max_p=3, feasible=True))
    @settings(max_examples=40)
    def test_exact_bound_sandwich(self, system):
        self.assert_exact_bounds(system)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    @pytest.mark.parametrize("workload", ["oracle", "wide", "sparse"])
    def test_exact_bound_sandwich_on_the_pools(self, workload, mode):
        # every member of three benchmark pools, feasible in either mode
        for spec in benchmark_workloads().WORKLOADS[workload].pool:
            self.assert_exact_bounds(replace(spec.build(), mode=mode))

    @given(systems(max_n=7), st.sampled_from(["select", "exact", "trace"]))
    @example(shared_pair_system(), "trace")
    @settings(max_examples=80)
    def test_pattern_rows_left_unmodified(self, system, how):
        # the graph, stage 3 and the certifier all read the pattern rows
        # themselves: whatever a select does, feasible or failing, with
        # --exact or --trace, leaves them as they were
        import copy

        from ioselect.graph_core import dump_system_digraph

        before = {name: copy.deepcopy(getattr(system, name).by_row) for name in "ABC"}
        try:
            rep = select_min_cost_io(system)
        except SystemHasSFMs:
            rep = None
        if rep is not None and how == "exact":
            exact_report(rep)
        if rep is not None and how == "trace":
            report_to_json(rep, include_traces=True)
            dump_system_digraph(rep.compiled.graph)
            if rep.matching is not None:
                matching_mod.dump_matching(rep.compiled.graph, rep.matching)
        assert {name: getattr(system, name).by_row for name in "ABC"} == before


class TestReportJson:
    def test_demo_shape(self, demo):
        rep = select_min_cost_io(demo)
        doc = report_to_json(rep)
        assert doc["selection"] == {"inputs": [1, 3], "outputs": [1]}
        assert doc["total_cost"] == "3"
        assert doc["stage_costs"] == {
            "accessibility": "1",
            "sensability": "1",
            "cycle": "2",
        }
        assert doc["lower_bound"] == "2"
        assert doc["special_case"] == "single_nonbottom"
        assert doc["no_sfm"] is True
        assert "trace" not in doc and "oracle" not in doc

    def test_demo_oracle_and_traces(self, demo):
        rep = exact_report(select_min_cost_io(demo))
        assert rep.oracle == (Selection([2], [0]), 2 * U)
        doc = report_to_json(rep, include_traces=True)
        assert doc["exact_stage_bound"] == "2"
        assert doc["oracle"] == {
            "selection": {"inputs": [3], "outputs": [1]},
            "cost": "2",
            "ratio": "1.5",
        }
        trace = doc["trace"]
        assert trace["accessibility_cover"]["chosen"] == [3]
        assert trace["accessibility_cover"]["steps"] == [
            {
                "set": 3,
                "newly_covered": [1, 2],
                "covered_states": [[2], [4]],
                "ratio": "0.5",
            }
        ]
        assert trace["sensability_cover"]["chosen"] == [1]
        assert len(trace["matching"]) == 9
        assert {
            "left": "u1'", "right": "y1", "class": "EK", "cost": "2",
        } in trace["matching"]
        assert "x1" in trace["scc_feedback_witness"]

    def test_zero_cost_oracle_convention(self, demo):
        rep = replace(select_min_cost_io(demo), oracle=(Selection([], []), 0))
        doc = report_to_json(rep)
        assert doc["oracle"]["ratio"] == "1"
        assert doc["oracle"]["ratio_convention"] == (
            "zero-cost optimum reported as ratio 1"
        )

    def test_the_report_is_all_it_renders(self, demo):
        # one option: the optimum rides on the report, and the primary tag
        # and its guarantee are read off the tags, not stored again
        import dataclasses
        import inspect

        assert list(inspect.signature(report_to_json).parameters) == ["report", "include_traces"]
        names = {f.name for f in dataclasses.fields(SelectionReport)}
        assert len(names) == 12 and not names & {"special_case", "guarantee"}
        rep = select_min_cost_io(demo)
        assert rep.oracle is None and "oracle" not in report_to_json(rep)
        assert exact_report(rep).oracle == exact_select(rep)
        assert rep.special_case == rep.special_cases[0]
        assert rep.guarantee == selector_mod._GUARANTEES[rep.special_case]

    def test_discrete_cycle_entry_is_null(self, demo):
        rep = select_min_cost_io(replace(demo, mode="discrete"))
        doc = report_to_json(rep)
        assert doc["stage_costs"]["cycle"] is None
        assert doc["total_cost"] == "2"


def wrap_counting(monkeypatch, names):
    """Count calls of each ``module.function`` or ``module.Class.method`` in
    ``names``.  A function is replaced in every ioselect module that binds
    it, so calls made inside its home module count too; a method is
    replaced on its class."""
    import importlib
    import sys

    counts = dict.fromkeys(names, 0)
    for name in names:
        home, *owners, fn_name = name.split(".")
        owner = importlib.import_module(f"ioselect.{home}")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        if owners:
            monkeypatch.setattr(owner, fn_name, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("ioselect") and getattr(mod, fn_name, None) is original:
                monkeypatch.setattr(mod, fn_name, wrapper)
    return counts


class TestBuildOnce:
    # Per default select: one compiled analysis (one SCC pass of D(A), one
    # B(A, B, C, K)) serves the full-selection check, the tags, both covers,
    # stage 3 and the final check; nothing is restricted; the witness waits
    # for a trace, and so do the covers' universe labels.
    LIMITS = {
        "system_model.restrict": 0,
        "graph_core.build_graphs": 0,
        "matching.build_bipartite": 1,
        "graph_core.decompose_sccs": 1,
        "set_cover.cover_instances": 1,
        "set_cover.cover_labels": 0,
        "graph_core.condition_a_witness": 0,
        "matching.state_pattern_has_pm": 1,
        "selector.applicable_special_cases": 1,
    }

    def test_builder_calls_per_select(self, demo, monkeypatch):
        counts = wrap_counting(monkeypatch, self.LIMITS)
        rep = select_min_cost_io(demo)
        assert rep.stage1 is not None and rep.matching is not None  # every stage ran
        over = {k: v for k, v in counts.items() if v > self.LIMITS[k]}
        assert over == {}
        assert counts["matching.build_bipartite"] == 1

    # The one stored graph is built exactly once per call, in compile_system.
    CALLS = {
        "check": lambda s: check_no_sfm(s, Selection([2], [1])),
        "select": select_min_cost_io,
        "discrete select": lambda s: select_min_cost_io(replace(s, mode="discrete")),
        "exact select": lambda s: exact_report(select_min_cost_io(s)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_graph_build_per_call(self, demo, monkeypatch, call):
        counts = wrap_counting(monkeypatch, ["graph_core.build_graphs", "matching.build_bipartite"])
        self.CALLS[call](demo)
        assert counts == {"graph_core.build_graphs": 0, "matching.build_bipartite": 1}

    def test_completeness_asked_once(self, demo, monkeypatch):
        # an explicit all-star K is found complete once, where the graph is
        # built; the select, the exact search and a status read its hub
        every_star = frozenset((i, j) for i in range(demo.m) for j in range(demo.p))
        system = replace(demo, K=SparsityPattern(demo.m, demo.p, every_star))
        name = "system_model.StructuredSystem.k_is_complete"
        counts = wrap_counting(monkeypatch, [name])
        report = select_min_cost_io(system)
        assert counts[name] == 1
        for decide in (exact_select, lambda r: r.compiled.decide(Selection([2], [1]))):
            decide(report)
            assert counts[name] == 1

    def test_select_reads_decoded_rows_not_stars(self, tmp_path, monkeypatch, capsys):
        # a decoded pattern keeps its rows; select never builds the stars of
        # A, B or C (a sparse pool instance of the benchmark)
        import json

        from ioselect import cli
        from ioselect.system_model import system_from_json, system_to_json

        system = generate(pool_config("sparse", 0))
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(system_to_json(system)))
        decoded = []
        monkeypatch.setattr(cli, "system_from_json", lambda doc: decoded.append(system_from_json(doc)) or decoded[-1])
        assert cli.main(["select", str(path)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["no_sfm"] is True
        assert [name for name in "ABC" if "stars" in vars(getattr(decoded[0], name))] == []

    @pytest.mark.parametrize("flag", ["", "--trace", "--dump-matching"], ids=["default", "trace", "dump"])
    def test_edge_classes_only_where_printed(self, tmp_path, monkeypatch, capsys, flag):
        # stage 3 hands on its partner list; only a trace or a matching dump
        # works out the class and cost of an edge, once per matched edge
        import json

        from ioselect import cli
        from ioselect.oracle_bench import GeneratorConfig, generate
        from ioselect.system_model import system_to_json

        system = generate(
            GeneratorConfig(
                n=200, m=20, p=20, state_density=5 / 200, input_density=0.2,
                output_density=0.2, cost_range=("1", "99"), seed=101,
            )
        )
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(system_to_json(system)))
        args = {"": [], "--trace": [flag], "--dump-matching": [flag, str(tmp_path / "matching.txt")]}[flag]
        counts = wrap_counting(monkeypatch, ["graph_core.SystemGraph.edge"])
        assert cli.main(["select", str(path), *args]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert ("trace" in doc) == (flag == "--trace")
        printed = system.n + system.m + system.p if flag else 0
        assert counts == {"graph_core.SystemGraph.edge": printed}

    @pytest.mark.parametrize("flag,labelled", [("", 0), ("--trace", 1)], ids=["default", "trace"])
    def test_labels_only_where_printed(self, demo_json, monkeypatch, capsys, flag, labelled):
        # the covers' universe labels are worked out once, for a trace only
        import json

        from ioselect import cli

        counts = wrap_counting(monkeypatch, ["set_cover.cover_labels"])
        assert cli.main(["select", demo_json, *filter(None, [flag])]) == cli.EXIT_OK
        assert ("trace" in json.loads(capsys.readouterr().out)) == bool(flag)
        assert counts == {"set_cover.cover_labels": labelled}

    # An exact cover starts from the greedy cover its caller already holds:
    # select --exact solves each stage cover once by the greedy, and
    # solve-setcover --exact solves its one cover once.
    SOLVERS = ["set_cover.greedy_solve", "set_cover.exact_solve"]

    @pytest.mark.parametrize("which", ["demo", "oracle"])
    def test_one_greedy_per_cover_in_an_exact_select(self, demo_json, tmp_path, monkeypatch, capsys, which):
        import json

        from ioselect import cli
        from ioselect.system_model import system_to_json

        path = demo_json
        if which == "oracle":
            path = tmp_path / "oracle.json"
            path.write_text(json.dumps(system_to_json(generate(pool_config("oracle", 0)))))
        counts = wrap_counting(monkeypatch, self.SOLVERS)
        assert cli.main(["select", str(path), "--exact"]) == cli.EXIT_OK
        assert "exact_stage_bound" in json.loads(capsys.readouterr().out)
        assert counts == dict.fromkeys(self.SOLVERS, 2)

    def test_one_greedy_per_exact_solve_setcover(self, demo, tmp_path, monkeypatch, capsys):
        import json

        from ioselect import cli
        from ioselect.set_cover import wsc_to_json

        path = tmp_path / "accessibility.json"
        path.write_text(json.dumps(wsc_to_json(compile_system(demo).covers[0])))
        counts = wrap_counting(monkeypatch, self.SOLVERS)
        assert cli.main(["solve-setcover", str(path), "--exact"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["exact"] == {"cover": [3], "weight": "1"}
        assert counts == dict.fromkeys(self.SOLVERS, 1)

    @pytest.mark.parametrize("which", ["demo", "wide"])
    def test_ratios_only_where_printed(self, demo, monkeypatch, which):
        # a greedy round records only the set it took: a select and its
        # default report build no ratio, and a trace builds one per step
        # it prints, as it replays the covers
        from fractions import Fraction

        from ioselect import set_cover

        calls = []
        monkeypatch.setattr(set_cover, "Fraction", lambda *args: calls.append(args) or Fraction(*args))
        system = demo if which == "demo" else generate(pool_config("wide", 0))
        rep = select_min_cost_io(system)
        assert rep.stage1 is not None
        assert "trace" not in report_to_json(rep) and calls == []
        trace = report_to_json(rep, include_traces=True)["trace"]
        printed = len(trace["accessibility_cover"]["steps"]) + len(trace["sensability_cover"]["steps"])
        assert len(calls) == printed == len(rep.stage1.trace) + len(rep.stage2.trace) > 0

    # Stage 3's two one-sided searches also decide condition (b) of the full
    # selection, and the final check verifies its matching without a
    # search.  The one Hopcroft-Karp run finds B(A)'s maximum matching,
    # which gives the state_pm tag and seeds both sides.
    FLOWS = ["matching._greedy", "graph_core._hopcroft_karp", "selector.check_no_sfm"]

    @pytest.mark.parametrize(
        "mode,flows",
        [("continuous", (2, 1, 0)), ("discrete", (0, 1, 0))],
    )
    def test_flows_per_select(self, demo, monkeypatch, mode, flows):
        counts = wrap_counting(monkeypatch, self.FLOWS)
        select_min_cost_io(replace(demo, mode=mode))
        assert counts == dict(zip(self.FLOWS, flows))

    def test_one_hopcroft_karp_per_exact_select(self, demo, monkeypatch):
        # every masked condition (b) of the exact search starts from the same
        # cached B(A) matching
        counts = wrap_counting(monkeypatch, self.FLOWS)
        exact_report(select_min_cost_io(demo))
        assert counts["matching._greedy"] > 2
        assert counts["graph_core._hopcroft_karp"] == 1

    def test_failing_select_searches_once(self, monkeypatch):
        # two states compete for the one u/y pair: stage 3's two sides fail,
        # and the one reach over their joined matching is the Hall witness;
        # no second search runs for it
        names = ["matching._greedy", "matching._hall", "matching.hall_set", "graph_core._hopcroft_karp"]
        counts = wrap_counting(monkeypatch, names)
        with pytest.raises(SystemHasSFMs) as exc:
            select_min_cost_io(shared_pair_system())
        assert counts == dict(zip(names, (2, 1, 0, 1)))
        assert exc.value.witness["hall_violator"] == {"left": ["x1'", "x2'"], "neighbors": ["u1"]}

    # A failing check decides each condition once and reads its witness off
    # the pass that decided it.  With a complete K the covers decide
    # (a) and one SCC pass names its states; one largest matching, a greedy
    # per side, decides (b) and gives its Hall set.  With a partial K the
    # one SCC pass decides (a) too, and the Hall set reads the rows that
    # Hopcroft-Karp matched.  Compile's SCC pass of D(A) is counted, and so
    # is B(A)'s Hopcroft-Karp, which the complete K's sides start from.
    SEARCHES = [
        "matching._largest", "matching.complete_side", "matching._hall",
        "graph_core.restricted_rows", "graph_core._tarjan", "graph_core._hopcroft_karp",
    ]

    @pytest.mark.parametrize(
        "k,searches",
        [(None, (1, 2, 1, 2, 2, 1)), ({(1, 1), (2, 1)}, (1, 0, 1, 2, 2, 1))],
        ids=["complete", "partial"],
    )
    def test_failing_check_searches_once_per_condition(self, demo, tmp_path, monkeypatch, capsys, k, searches):
        import json

        from ioselect import cli
        from ioselect.system_model import COMPLETE, system_to_json

        system = replace(demo, K=COMPLETE if k is None else SparsityPattern(3, 2, frozenset(k)))
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(system_to_json(system)))
        counts = wrap_counting(monkeypatch, self.SEARCHES)
        assert cli.main(["check", str(path), "--inputs", "1", "--outputs", "2"]) == cli.EXIT_INFEASIBLE
        doc = json.loads(capsys.readouterr().out)
        assert doc["reason"] == "Type-1 and Type-2"
        assert list(doc["witness"]) == ["type1_states", "hall_violator"]
        assert counts == dict(zip(self.SEARCHES, searches))

    # check_no_sfm decides the same selection with no witness: the covers
    # decide (a) with a complete K, so its one SCC pass is compile's,
    # and one largest matching decides (b) with no Hall set.  A partial K's
    # SCC pass and Hopcroft-Karp each join the restricted rows once.
    @pytest.mark.parametrize(
        "k,searches",
        [(None, (1, 2, 0, 0, 1, 1)), ({(1, 1), (2, 1)}, (1, 0, 0, 2, 2, 1))],
        ids=["complete", "partial"],
    )
    def test_check_no_sfm_builds_no_witness(self, demo, monkeypatch, k, searches):
        from ioselect.system_model import COMPLETE

        system = replace(demo, K=COMPLETE if k is None else SparsityPattern(3, 2, frozenset(k)))
        counts = wrap_counting(monkeypatch, self.SEARCHES)
        assert check_no_sfm(system, Selection([2], [1])) is SfmStatus.BOTH
        assert counts == dict(zip(self.SEARCHES, searches))

    # select's error path reads stage 3's Hall set and runs one SCC pass of
    # the full selection only when condition (a) failed
    @pytest.mark.parametrize(
        "a,b,c,searches",
        [
            ([], [(1, 1), (2, 1)], [(1, 1), (1, 2)], (1, 2, 1, 1, 1, 1)),  # Type-2
            ([(1, 1)], [(1, 1)], [(1, 1)], (1, 2, 1, 2, 2, 1)),  # both: x2 has no edge
            ([(1, 1), (2, 2)], [(1, 1)], [(1, 1)], (1, 2, 0, 1, 2, 1)),  # Type-1
        ],
        ids=["type2", "both", "type1"],
    )
    def test_failing_select_witness_runs_no_new_search(self, monkeypatch, a, b, c, searches):
        system = make_system(2, 1, 1, a, b, c)
        counts = wrap_counting(monkeypatch, self.SEARCHES)
        with pytest.raises(SystemHasSFMs) as exc:
            select_min_cost_io(system)
        assert counts == dict(zip(self.SEARCHES, searches))
        assert (exc.value.status, exc.value.witness) == compile_system(system).decide(Selection.full(system))

    @pytest.mark.parametrize("seed", [2, 3, 4])  # nu(B(A)) = n - 2, n - 2, n - 1
    def test_stage3_augments_n_minus_nu_times(self, monkeypatch, seed):
        # every augmenting path is flipped by the one _augment: Hopcroft-Karp
        # flips nu(B(A)) less its first-fit start's size, once per graph;
        # then each side starts from B(A)'s maximum matching and keeps
        # exactly n - nu(B(A)) channels, one augmenting path each
        from ioselect.oracle_bench import GeneratorConfig, generate

        system = generate(
            GeneratorConfig(
                n=120, m=12, p=12, state_density=5 / 120, input_density=0.2,
                output_density=0.2, cost_range=("1", "99"), seed=seed,
            )
        )
        nu = oracles.matching_size(system.n, system.n, sorted(system.A.stars))
        assert nu < system.n
        taken: set[int] = set()
        for row in system.A.by_row:  # Hopcroft-Karp's first-fit start
            taken.update([r for r in row if r not in taken][:1])
        counts = wrap_counting(monkeypatch, ["graph_core._augment", "graph_core._hopcroft_karp"])
        g = build_bipartite(system)
        assert g.state_matching[0].count(-1) == system.n - nu
        assert counts == {"graph_core._augment": nu - len(taken), "graph_core._hopcroft_karp": 1}
        counts["graph_core._augment"] = 0
        sel, _cost = matching_mod.extract_io(g, matching_mod.min_cost_perfect_matching(g))
        assert counts == {"graph_core._augment": 2 * (system.n - nu), "graph_core._hopcroft_karp": 1}
        assert len(sel.inputs) == len(sel.outputs) == system.n - nu

    def test_diagonal_check_searches_each_channel_once(self, monkeypatch):
        # A empty, B and C diagonal: nu(B(A)) = 0, so every state row and
        # every state starts free, and each channel's one search ends at
        # its first neighbour: 3000 states take 2 * 3000 short searches
        n = 3000
        diagonal = [(i, i) for i in range(1, n + 1)]
        system = make_system(n, n, n, [], diagonal, diagonal)
        counts = wrap_counting(monkeypatch, ["matching._path", "matching._augment"])
        assert check_no_sfm(system, Selection.full(system)).ok
        assert counts == {"matching._path": 2 * n, "matching._augment": 2 * n}

    def test_diagonal_stage3_searches_at_most_m_plus_p(self, monkeypatch):
        # the same shape at n = 2000 with seeded unequal costs: stage 3 keeps
        # every channel, after at most m + p searches, and the complete K
        # pairs the i-th input with the i-th output
        import random

        n = 2000
        rng = random.Random(2000)
        costs = [str(c) for c in rng.sample(range(1, 10 * n), 2 * n)]
        diagonal = [(i, i) for i in range(1, n + 1)]
        system = make_system(n, n, n, [], diagonal, diagonal, cost_u=costs[:n], cost_y=costs[n:])
        counts = wrap_counting(monkeypatch, ["matching._path"])
        g = build_bipartite(system)
        partners = matching_mod.min_cost_perfect_matching(g)
        assert counts["matching._path"] <= system.m + system.p
        assert matching_mod.extract_io(g, partners) == (Selection.full(system), sum(system.cost_u + system.cost_y))
        assert partners[n : 2 * n] == tuple(range(2 * n, 3 * n))  # u'_i -> y_i over K

    def test_hall_witness_from_one_reach(self, monkeypatch):
        # one input feeds every state and one output reads every state: each
        # side keeps its one channel and stops short, and one reach over
        # the joined matching is the Hall witness: every x'_i has only u1
        n = 3000
        system = make_system(n, 1, 1, [], [(i, 1) for i in range(1, n + 1)], [(1, i) for i in range(1, n + 1)])
        names = ["matching._greedy", "matching._augment", "matching._hall"]
        counts = wrap_counting(monkeypatch, names)
        hall = matching_mod.hall_set(build_bipartite(system))
        assert counts == dict(zip(names, (2, 2, 1)))
        assert (hall.left_labels, hall.right_labels) == (tuple(f"x{i}'" for i in range(1, n + 1)), ("u1",))

    def test_no_flow_on_irreducible_state_pm(self, monkeypatch):
        system = long_cycle_system(3000)
        counts = wrap_counting(monkeypatch, self.FLOWS)
        rep = select_min_cost_io(system)
        assert rep.special_cases[:2] == ("irreducible", "state_pm")
        assert counts == dict(zip(self.FLOWS, (0, 1, 0)))

    def test_state_rows_sliced_once(self):
        # the SCC pass, the state_pm tag and stage 3 read A's decoded rows
        # themselves: the graph holds them, uncut and uncopied
        system = long_cycle_system(500)
        rep = select_min_cost_io(system)
        assert rep.special_cases[:2] == ("irreducible", "state_pm")
        assert rep.compiled.graph.state_rows is system.A.by_row

    @pytest.mark.parametrize("seed", [101, 102])
    def test_feasible_select_never_joins_the_rows(self, monkeypatch, demo, seed):
        # a feasible select with a complete K reads the pattern rows, never
        # B(A, B, C, K)'s joined rows; the SCC witness of a trace and a dump
        # join them
        from ioselect.graph_core import dump_system_digraph
        from ioselect.oracle_bench import GeneratorConfig, generate

        sparse = generate(
            GeneratorConfig(
                n=200, m=20, p=20, state_density=5 / 200, input_density=0.2,
                output_density=0.2, cost_range=("1", "99"), seed=seed,
            )
        )
        name = "graph_core.restricted_rows"
        counts = wrap_counting(monkeypatch, [name])
        for system in (demo, sparse):
            rep = select_min_cost_io(system)
            report_to_json(rep)
            assert counts[name] == 0
        report_to_json(rep, include_traces=True)
        assert counts[name] == 1
        dump_system_digraph(rep.compiled.graph)
        assert counts[name] == 2

    @pytest.mark.parametrize("n", [200, 400])
    def test_failed_search_marks_stay_dead(self, monkeypatch, n):
        # d = n - nu(B(A)) = n/2 free states, each with its own input and
        # output, and between every two of those channels one whose search
        # explores the whole chain of the other n/2 states and fails.  A
        # failed search's rows stay marked for the rest of the side's pass,
        # so each side marks O(n + m) rows, not one chain per keep
        import inspect

        r, d = n // 2, n - n // 2
        a = [(i, i) for i in range(1, r + 1)] + [(i, i + 1) for i in range(1, r)]
        b = [pair for k in range(d) for pair in ((r + 1 + k, 2 * k + 1), (r, 2 * k + 2))]
        c = [pair for k in range(d) for pair in ((2 * k + 1, r + 1 + k), (2 * k + 2, 1))]
        system = make_system(n, 2 * d, 2 * d, a, b, c)
        original = matching_mod._path
        signature = inspect.signature(original)
        marks: list[int] = []

        def counting(*args):
            seen = signature.bind(*args).arguments["seen"]
            before = list(seen)
            found = original(*args)
            marks.append(sum(x != y for x, y in zip(before, seen)))
            return found

        monkeypatch.setattr(matching_mod, "_path", counting)
        g = build_bipartite(system)
        sel, _cost = matching_mod.extract_io(g, matching_mod.min_cost_perfect_matching(g))
        assert sel == Selection(range(0, 2 * d, 2), range(0, 2 * d, 2))
        searches = 2 * d - 1  # per side: d keeps and the d - 1 failures between them
        assert len(marks) == 2 * searches
        per_side = [sum(marks[:searches]), sum(marks[searches:])]
        assert per_side == [r + d, r + d]
        assert max(per_side) <= system.n + system.m

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_failed_search_marks_stay_dead_on_the_scale_shape(self, monkeypatch, seed):
        # the same count on oracles.scale_system at n = 1,600: each side's
        # failed searches mark at most the side's rows in all, as no later
        # search marks them again.  The output side fails 86-125 searches
        # here, so failures that cleared their marks would mark far more
        import inspect

        system = oracles.scale_system(1600, seed)
        original = matching_mod._path
        signature = inspect.signature(original)
        failed: dict[int, list] = {}  # per side's mark list: that list, and the marks and searches of its failures

        def counting(*args):
            seen = signature.bind(*args).arguments["seen"]
            before = sum(seen)
            found = original(*args)
            if found < 0:
                entry = failed.setdefault(id(seen), [seen, 0, 0])
                entry[1] += sum(seen) - before
                entry[2] += 1
            return found

        monkeypatch.setattr(matching_mod, "_path", counting)
        g = build_bipartite(system)
        matching_mod.min_cost_perfect_matching(g)
        assert failed
        for seen, marks, searches in failed.values():
            assert searches > 50 and marks <= len(seen)

    def test_witness_built_only_for_traces(self, demo, monkeypatch):
        counts = wrap_counting(monkeypatch, ["graph_core.condition_a_witness"])
        rep = select_min_cost_io(demo)
        report_to_json(rep)
        assert counts["graph_core.condition_a_witness"] == 0
        doc = report_to_json(rep, include_traces=True)
        assert counts["graph_core.condition_a_witness"] == 1
        assert doc["trace"]["scc_feedback_witness"]["x1"]["feedback_edge"] is not None


class TestRobustness:
    def test_long_chain_within_default_recursion_limit(self):
        # Hopcroft-Karp's greedy start matches each x_i' but x_n' to x_i,
        # and the one augmenting path left walks the whole cycle
        import sys

        system = long_cycle_system(3000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert state_pattern_has_pm(build_bipartite(system))
            assert check_no_sfm(system, Selection.full(system)).ok
            rep = select_min_cost_io(system)
        finally:
            sys.setrecursionlimit(limit)
        assert rep.special_case == "irreducible"
        assert rep.selection == Selection([0], [0])

    def test_long_open_chain_within_default_recursion_limit(self):
        # x1 -> ... -> xn, driven at x1 and read at xn: B(A) matches every
        # x'_(i+1) to x_i, and stage 3's one round closes the cycle
        # u1 -> x1 -> ... -> xn -> y1 -> u1 through the hub
        import sys

        n = 3000
        system = make_system(n, 1, 1, [(i + 1, i) for i in range(1, n)], [(1, 1)], [(1, n)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            g = build_bipartite(system)
            partners = matching_mod.min_cost_perfect_matching(g)
            status = check_no_sfm(system, Selection.full(system))
        finally:
            sys.setrecursionlimit(limit)
        assert status.ok
        assert matching_mod.extract_io(g, partners) == (Selection([0], [0]), 2 * U)

    def test_infeasible_final_selection_raises(self, demo, monkeypatch):
        # the final check is shown the stage-3 matching with the right ends of
        # its first two pairs swapped; in the demo x2' -> x1 is no edge
        real = selector_mod.certify_cycle_cover

        def first_two_swapped(system, sel, pairs):
            (l0, r0), (l1, r1), *rest = pairs
            return real(system, sel, [(l0, r1), (l1, r0), *rest])

        monkeypatch.setattr(selector_mod, "certify_cycle_cover", first_two_swapped)
        with pytest.raises(InvariantViolated, match="structurally fixed modes"):
            select_min_cost_io(demo)

    def test_lower_bound_above_the_cost_raises(self, demo, exact_cover_too_heavy):
        with pytest.raises(InvariantViolated, match="^lower bound exceeds achieved cost$"):
            exact_report(select_min_cost_io(demo))
