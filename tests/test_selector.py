from dataclasses import replace

import pytest
from hypothesis import given, settings

import oracles
from conftest import make_system, systems
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
    sfm_witness,
)
from ioselect import matching as matching_mod
from ioselect.matching import build_bipartite, state_pattern_has_pm
from ioselect.oracle_bench import exact_select
from ioselect.system_model import (
    COST_SCALE,
    InvariantViolated,
    ModelError,
    Selection,
    SparsityPattern,
    selection_cost,
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


def shared_pair_system():
    # two states competing for the single u/y pair: cycle condition fails
    return make_system(2, 1, 1, [], [(1, 1), (2, 1)], [(1, 1), (1, 2)])


class TestCheckNoSfm:
    def test_demo_full(self, demo):
        assert check_no_sfm(demo, Selection.full(demo)) is SfmStatus.NO_SFM

    def test_demo_minimal_pair(self, demo):
        assert check_no_sfm(demo, Selection.of([2], [0])) is SfmStatus.NO_SFM

    def test_demo_wrong_output(self, demo):
        # without y1 state x3 has no outlet: both conditions break
        assert check_no_sfm(demo, Selection.of([2], [1])) is SfmStatus.BOTH

    def test_type1_only(self):
        # self-loops satisfy the cycle condition on their own
        assert (
            check_no_sfm(diagonal_system(), Selection.of([], []))
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
        assert check_no_sfm(disc, Selection.of([2], [1])) is SfmStatus.TYPE1
        assert check_no_sfm(disc, Selection.full(disc)) is SfmStatus.NO_SFM

    def test_ok_property(self):
        assert SfmStatus.NO_SFM.ok
        for status in (SfmStatus.TYPE1, SfmStatus.TYPE2, SfmStatus.BOTH):
            assert not status.ok

    @given(systems(max_n=5))
    def test_matches_reference(self, system):
        sel = Selection.full(system)
        status = check_no_sfm(system, sel)
        assert status.ok == oracles.no_sfm(system, sel)


class TestWitness:
    def test_type1_states(self, demo):
        w = sfm_witness(compile_system(demo), SfmStatus.BOTH, Selection.of([2], [1]))
        assert w["type1_states"] == ["x3", "x4"]
        hall = w["hall_violator"]
        assert hall["left"] == ["x1'", "x2'", "x3'", "x4'", "u3'", "y2'"]
        assert hall["neighbors"] == ["x1", "x2", "x4", "u3", "y2"]

    def test_type2_full_system(self):
        w = sfm_witness(compile_system(shared_pair_system()), SfmStatus.TYPE2)
        assert w == {"hall_violator": {"left": ["x1'", "x2'"], "neighbors": ["u1"]}}

    def test_type1_empty_selection(self):
        w = sfm_witness(compile_system(diagonal_system()), SfmStatus.TYPE1, Selection.of([], []))
        assert w == {"type1_states": ["x1", "x2", "x3"]}

    def test_discrete_never_reports_hall(self):
        system = replace(make_system(2, 1, 1, [(1, 1)], [(1, 1)], [(1, 1)]),
                         mode="discrete")
        w = sfm_witness(compile_system(system), SfmStatus.TYPE1)
        assert "hall_violator" not in w
        assert w["type1_states"] == ["x2"]


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
        assert rep.selection == Selection.of([0, 2], [0])
        assert rep.total_cost == 3 * U
        assert rep.stage_costs == (1 * U, 1 * U, 2 * U)
        assert rep.lower_bound == 2 * U
        assert rep.special_case == "single_nonbottom"
        assert rep.special_cases == ("single_nonbottom",)
        assert "mu_max" in rep.guarantee
        assert rep.no_sfm is True
        assert rep.exact_stage_bound is None
        assert rep.stage1.chosen == frozenset({2})
        assert rep.stage2.chosen == frozenset({0})
        assert rep.stage1_labels == ((2,), (4,))
        assert rep.stage2_labels == ((3,),)
        assert rep.matching.total_cost == 2 * U
        assert set(rep.timings) == {
            "sfm_check", "accessibility", "sensability", "cycle", "final_check",
        }

    def test_exact_covers_tighten_bound(self, demo):
        rep = select_min_cost_io(demo, exact_covers=True)
        assert rep.exact_stage_bound == 2 * U
        assert rep.lower_bound == 2 * U

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
        rep = select_min_cost_io(system, exact_covers=True)
        assert rep.selection == Selection.of([0, 1, 2], [0])
        assert rep.total_cost == 103 * U
        assert rep.stage_costs == (101 * U, 1 * U, 2 * U)
        assert rep.exact_stage_bound == 101 * U
        assert rep.lower_bound == 101 * U
        ref = oracles.best_selection(
            system, feasible=lambda s: oracles.no_sfm(system, s)
        )
        assert ref == (101 * U, (2,), (0,))


class TestSelectSpecialPaths:
    def test_diagonal_matching_is_free(self):
        rep = select_min_cost_io(diagonal_system())
        assert rep.special_case == "state_pm"
        assert rep.stage_costs == (2 * U, 2 * U, 0)
        assert rep.total_cost == 4 * U
        assert rep.selection == Selection.of([0, 1], [0, 1])
        assert rep.matching is not None and rep.matching.total_cost == 0

    def test_irreducible_with_state_pm(self):
        system = make_system(
            3, 2, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)], [(1, 3), (2, 1)],
            cost_u=["5", "2"], cost_y=["4", "9"],
        )
        rep = select_min_cost_io(system)
        assert rep.special_case == "irreducible"
        assert rep.guarantee == "exact optimum"
        assert rep.selection == Selection.of([1], [0])
        assert rep.total_cost == 6 * U
        assert rep.stage_costs == (2 * U, 4 * U, 0)
        assert rep.lower_bound == 6 * U
        assert rep.stage1 is None and rep.matching is None

    def test_irreducible_without_state_pm(self):
        system = make_system(
            3, 2, 2, [(2, 1), (1, 2), (3, 2), (2, 3)], [(1, 1), (3, 2)],
            [(1, 2), (2, 1)], cost_u=["5", "2"], cost_y=["4", "9"],
        )
        rep = select_min_cost_io(system)
        assert rep.special_case == "irreducible"
        assert rep.selection == Selection.of([1], [1])
        assert rep.total_cost == 11 * U
        assert rep.stage_costs == (0, 0, 11 * U)
        assert rep.lower_bound == 11 * U
        assert rep.matching is not None

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
        assert rep.selection == Selection.of([2], [0])
        assert rep.total_cost == 2 * U
        assert rep.lower_bound == 0

    def test_discrete_exact_bound(self, demo):
        rep = select_min_cost_io(replace(demo, mode="discrete"), exact_covers=True)
        assert rep.exact_stage_bound == 2 * U
        assert rep.lower_bound == 2 * U


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
        "exact_select": exact_select,
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
        assert rep.no_sfm is True

    @given(systems(max_n=5, max_m=3, max_p=3, feasible=True))
    @settings(max_examples=40)
    def test_exact_bound_sandwich(self, system):
        rep = select_min_cost_io(system, exact_covers=True)
        assert rep.exact_stage_bound is None or (
            rep.lower_bound <= rep.total_cost
            and rep.exact_stage_bound <= rep.total_cost
        )


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
        rep = select_min_cost_io(demo, exact_covers=True)
        doc = report_to_json(
            rep, include_traces=True, oracle=(Selection.of([2], [0]), 2 * U)
        )
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
        rep = select_min_cost_io(demo)
        doc = report_to_json(rep, oracle=(Selection.of([], []), 0))
        assert doc["oracle"]["ratio"] == "1"
        assert doc["oracle"]["ratio_convention"] == (
            "zero-cost optimum reported as ratio 1"
        )

    def test_discrete_cycle_entry_is_null(self, demo):
        rep = select_min_cost_io(replace(demo, mode="discrete"))
        doc = report_to_json(rep)
        assert doc["stage_costs"]["cycle"] is None
        assert doc["total_cost"] == "2"


def wrap_counting(monkeypatch, names):
    """Count calls of each ``module.function`` in ``names``, replacing it in
    every ioselect module that binds it, so calls made inside its home
    module count too."""
    import importlib
    import sys

    counts = dict.fromkeys(names, 0)
    for name in names:
        home, fn_name = name.split(".")
        original = getattr(importlib.import_module(f"ioselect.{home}"), fn_name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("ioselect") and getattr(mod, fn_name, None) is original:
                monkeypatch.setattr(mod, fn_name, wrapper)
    return counts


class TestBuildOnce:
    # Per default select: one compiled analysis (one SCC pass of D(A), one
    # B(A, B, C, K)) serves the full-selection check, the tags, both covers,
    # stage 3 and the final check; nothing is restricted; the witness waits
    # for a trace.
    LIMITS = {
        "system_model.restrict": 0,
        "system_model.transpose_dual": 0,
        "graph_core.build_graphs": 0,
        "matching.build_bipartite": 1,
        "graph_core.decompose_sccs": 1,
        "graph_core.coverage": 1,
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
        "check": lambda s: check_no_sfm(s, Selection.of([2], [1])),
        "select": select_min_cost_io,
        "discrete select": lambda s: select_min_cost_io(replace(s, mode="discrete")),
        "exact select": lambda s: exact_select(select_min_cost_io(s, exact_covers=True).compiled),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_graph_build_per_call(self, demo, monkeypatch, call):
        counts = wrap_counting(monkeypatch, ["graph_core.build_graphs", "matching.build_bipartite"])
        self.CALLS[call](demo)
        assert counts == {"graph_core.build_graphs": 0, "matching.build_bipartite": 1}

    def test_edge_objects_only_for_the_matching(self, monkeypatch):
        # B(A, B, C, K) is stored as neighbour lists: a select creates a
        # BipEdge only for each matched edge it reports
        import ioselect.graph_core as graph_core
        import ioselect.matching as matching_mod
        from ioselect.oracle_bench import GeneratorConfig, generate

        system = generate(
            GeneratorConfig(
                n=200, m=20, p=20, state_density=5 / 200, input_density=0.2,
                output_density=0.2, cost_range=("1", "99"), seed=101,
            )
        )
        assert len(matching_mod.build_bipartite(system).edges) >= 1000
        created = []

        class CountedEdge(matching_mod.BipEdge):
            def __init__(self, *args):
                created.append(args)
                super().__init__(*args)

        monkeypatch.setattr(graph_core, "BipEdge", CountedEdge)  # SystemGraph.edge makes them
        rep = select_min_cost_io(system)
        assert rep.matching is not None
        assert 0 < len(created) <= system.n + system.m + system.p

    # Stage 3's flow also decides condition (b) of the full selection, and
    # the final check verifies its matching without a flow.  The one
    # Hopcroft-Karp run finds B(A)'s maximum matching, which gives the
    # state_pm tag and seeds stage 3.
    FLOWS = ["matching._unit_flow", "graph_core._hopcroft_karp", "selector.check_no_sfm"]

    @pytest.mark.parametrize(
        "mode,flows",
        [("continuous", (1, 1, 0)), ("discrete", (0, 1, 0))],
    )
    def test_flows_per_select(self, demo, monkeypatch, mode, flows):
        counts = wrap_counting(monkeypatch, self.FLOWS)
        select_min_cost_io(replace(demo, mode=mode))
        assert counts == dict(zip(self.FLOWS, flows))

    def test_one_hopcroft_karp_per_exact_select(self, demo, monkeypatch):
        # every masked flow of the exact search starts from the same cached
        # B(A) matching
        counts = wrap_counting(monkeypatch, self.FLOWS)
        exact_select(select_min_cost_io(demo, exact_covers=True).compiled)
        assert counts["matching._unit_flow"] > 1
        assert counts["graph_core._hopcroft_karp"] == 1

    @pytest.mark.parametrize("seed", [2, 3, 4])  # nu(B(A)) = n - 2, n - 2, n - 1
    def test_stage3_augments_n_minus_nu_times(self, monkeypatch, seed):
        # the seed is a largest matching of cost 0, and each round augments
        # one path, so a perfect matching takes n - nu(B(A)) rounds
        from ioselect.oracle_bench import GeneratorConfig, generate

        system = generate(
            GeneratorConfig(
                n=120, m=12, p=12, state_density=5 / 120, input_density=0.2,
                output_density=0.2, cost_range=("1", "99"), seed=seed,
            )
        )
        nu = oracles.matching_size(system.n, system.n, sorted(system.A.stars))
        assert nu < system.n
        counts = wrap_counting(monkeypatch, ["matching._augment", "graph_core._hopcroft_karp"])
        matching_mod.min_cost_perfect_matching(build_bipartite(system))
        assert counts == {"matching._augment": system.n - nu, "graph_core._hopcroft_karp": 1}

    def test_unpriced_rounds_flip_many_paths(self, monkeypatch):
        # A empty, B and C diagonal: nu(B(A)) = 0, so every state starts
        # free.  One round searches from each free state in turn and flips
        # every path it finds, so 3000 free states take one round, not 3000.
        n = 3000
        diagonal = [(i, i) for i in range(1, n + 1)]
        system = make_system(n, n, n, [], diagonal, diagonal)
        counts = wrap_counting(monkeypatch, ["matching._round", "matching._augment"])
        assert check_no_sfm(system, Selection.full(system)).ok
        assert counts == {"matching._round": 1, "matching._augment": n}

    def test_unpriced_rounds_end_with_one_failed_round(self, monkeypatch):
        # one input feeds every state and one output reads every state: one
        # round flips the one path through the hub, the next finds none, and
        # its reach is the Hall witness: every x'_i has only u1
        n = 3000
        system = make_system(n, 1, 1, [], [(i, 1) for i in range(1, n + 1)], [(1, i) for i in range(1, n + 1)])
        counts = wrap_counting(monkeypatch, ["matching._round", "matching._augment"])
        left, right = matching_mod.hall_indices(build_bipartite(system))
        assert counts == {"matching._round": 2, "matching._augment": 1}
        assert (left, right) == (tuple(range(n)), (n,))

    def test_no_flow_on_irreducible_state_pm(self, monkeypatch):
        system = long_cycle_system(3000)
        counts = wrap_counting(monkeypatch, self.FLOWS)
        rep = select_min_cost_io(system)
        assert rep.special_cases[:2] == ("irreducible", "state_pm")
        assert counts == dict(zip(self.FLOWS, (0, 1, 0)))

    def test_state_rows_sliced_once(self, monkeypatch):
        # the SCC pass and the state_pm tag share one slice per state row
        n = 500
        system = long_cycle_system(n)
        counts = wrap_counting(monkeypatch, ["graph_core.bisect_left"])
        rep = select_min_cost_io(system)
        assert rep.special_cases[:2] == ("irreducible", "state_pm")
        assert counts == {"graph_core.bisect_left": n}

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
        # the first Hopcroft-Karp phase matches each x_i' to x_i, and the
        # remaining augmenting path walks the whole cycle
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
        assert rep.selection == Selection.of([0], [0])

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
            matching = matching_mod.min_cost_perfect_matching(build_bipartite(system))
            status = check_no_sfm(system, Selection.full(system))
        finally:
            sys.setrecursionlimit(limit)
        assert status.ok
        assert matching_mod.extract_io(matching) == (Selection.of([0], [0]), 2 * U)

    def test_infeasible_final_selection_raises(self, demo, monkeypatch):
        # the final check is shown the stage-3 matching with the right ends of
        # its first two pairs swapped; in the demo x2' -> x1 is no edge
        import ioselect.selector as selector_mod

        real = selector_mod.certify_cycle_cover

        def first_two_swapped(system, sel, pairs):
            (l0, r0), (l1, r1), *rest = pairs
            return real(system, sel, [(l0, r1), (l1, r0), *rest])

        monkeypatch.setattr(selector_mod, "certify_cycle_cover", first_two_swapped)
        with pytest.raises(InvariantViolated, match="structurally fixed modes"):
            select_min_cost_io(demo)
