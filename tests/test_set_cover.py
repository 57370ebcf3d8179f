import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_system, systems
from ioselect.selector import compile_system
from ioselect.set_cover import (
    Cover,
    Infeasible,
    InfeasibleSelection,
    TooLarge,
    WeightedSetCoverInstance,
    branch_and_bound,
    cover_instances,
    cover_labels,
    exact_solve,
    greedy_solve,
    reduce_accessibility_to_wsc,
    reduce_wsc_to_accessibility,
    selection_to_cover,
    steps_to_json,
    wsc_from_json,
    wsc_to_json,
)
from ioselect.system_model import (
    COST_SCALE,
    SIZE_LIMIT,
    FormatError,
    InvariantViolated,
    ModelError,
    Selection,
    selection_cost,
)


def units(*ws):
    return tuple(w * COST_SCALE for w in ws)


@st.composite
def wsc_instances(draw, max_n=8, max_r=8, feasible=True, max_weight=9):
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, max_r))
    sets = [draw(st.frozensets(st.integers(0, n - 1))) for _ in range(r)]
    if feasible:
        covered = frozenset().union(*sets)
        for e in range(n):
            if e not in covered:
                sets[e % r] = sets[e % r] | {e}
    weights = tuple(draw(st.integers(0, max_weight)) * COST_SCALE for _ in range(r))
    return WeightedSetCoverInstance(n, tuple(sets), weights)


def _outcome(solve, inst):
    """The solver's cover, or the element of its Infeasible."""
    try:
        return solve(inst)
    except Infeasible as exc:
        return exc.element


def _replayed(inst, cover, labels=None):
    """The steps :func:`steps_to_json` prints for ``cover``, read back as
    the reference scan gives them: (set index, newly covered elements,
    ratio), 0-based.  With ``labels``, each step's states are checked to be
    the labels of its newly covered elements."""
    steps = steps_to_json(inst, cover, labels)
    if labels is not None:
        assert [s["covered_states"] for s in steps] == [
            [list(labels[e - 1]) for e in s["newly_covered"]] for s in steps
        ]
    return [(s["set"] - 1, frozenset(e - 1 for e in s["newly_covered"]), Fraction(s["ratio"])) for s in steps]


class TestInstance:
    def test_rejects_mismatched_weights(self):
        with pytest.raises(ModelError, match="2 sets but 1 weights"):
            WeightedSetCoverInstance(2, (frozenset(), frozenset()), (1,))

    def test_rejects_out_of_universe_elements(self):
        with pytest.raises(ModelError, match="element 4 outside universe"):
            WeightedSetCoverInstance(3, (frozenset({3}),), (1,))

    def test_r(self):
        assert WeightedSetCoverInstance(1, (frozenset({0}),) * 3, (1, 2, 3)).r == 3
        inst = WeightedSetCoverInstance(3, (frozenset(), frozenset({0, 2})), (1, 2))
        assert inst.sets == (frozenset(), frozenset({0, 2}))
        assert (inst.uncovered([]), inst.uncovered([0]), inst.uncovered([1])) == ({0, 1, 2}, {0, 1, 2}, {1})

    @pytest.mark.parametrize(
        "sets,weights,message",
        [
            (({0}, {1}), (1, -1), "set 2: negative weight"),
            (({0}, {0, 2}), (1, 1), "set 2: element 3 outside universe 1..2"),
            (({0}, {1, 3, 5}), (1, 1), "set 2: element 4 outside universe 1..2"),
            (({-1, 0},), (1,), "set 1: element 0 outside universe 1..2"),
            (({0},), (1, 1), "1 sets but 2 weights"),
        ],
    )
    def test_refuses(self, sets, weights, message):
        with pytest.raises(ModelError, match=message):
            WeightedSetCoverInstance(2, sets, weights)

    @pytest.mark.parametrize("shape", ["diagonal", "widemask"])
    def test_cover_memory_is_linear(self, shape):
        # n = 20,000 is well inside SIZE_LIMIT.  Covers stored as bitmasks
        # grow as n^2 on these shapes, and the compile peaked at 87 MB
        # (diagonal) and 140 MB (wide-mask); as element sets it is near 21 MB
        system = getattr(oracles, f"{shape}_system")(20_000)
        tracemalloc.start()
        try:
            compile_system(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000


class TestGreedy:
    def test_picks_best_ratio(self):
        # covering {0,1,2}: one big set at weight 3 vs singletons at weight 2
        inst = WeightedSetCoverInstance(
            3,
            (frozenset({0, 1, 2}), frozenset({0}), frozenset({1}), frozenset({2})),
            units(3, 2, 2, 2),
        )
        cover = greedy_solve(inst)
        assert cover.chosen == frozenset({0})
        assert cover.weight == units(3)[0]
        assert cover.trace == (0,)
        assert steps_to_json(inst, cover)[0]["ratio"] == "1"

    def test_ratio_tie_prefers_more_elements(self):
        inst = WeightedSetCoverInstance(
            2, (frozenset({0}), frozenset({0, 1})), units(1, 2)
        )
        assert greedy_solve(inst).chosen == frozenset({1})

    def test_exact_tie_prefers_lowest_index(self):
        inst = WeightedSetCoverInstance(
            1, (frozenset({0}), frozenset({0})), units(1, 1)
        )
        assert greedy_solve(inst).chosen == frozenset({0})

    def test_zero_weight_set_wins(self):
        inst = WeightedSetCoverInstance(
            2, (frozenset({0}), frozenset({0, 1})), units(0, 5)
        )
        cover = greedy_solve(inst)
        assert 0 in cover.chosen
        assert cover.trace[0] == 0
        assert steps_to_json(inst, cover)[0]["ratio"] == "0"

    def test_trace_is_complete(self):
        inst = WeightedSetCoverInstance(
            3, (frozenset({0, 1}), frozenset({2})), units(1, 1)
        )
        cover = greedy_solve(inst)
        steps = steps_to_json(inst, cover)
        assert sorted(e for step in steps for e in step["newly_covered"]) == [1, 2, 3]
        assert [step["set"] - 1 for step in steps] == list(cover.trace) == sorted(cover.chosen)

    def test_infeasible_reports_smallest_element(self):
        inst = WeightedSetCoverInstance(3, (frozenset({0}),), units(1))
        with pytest.raises(Infeasible, match="element 2 is in no set") as exc:
            greedy_solve(inst)
        assert exc.value.element == 1

    @given(wsc_instances())
    def test_result_is_a_cover(self, inst):
        cover = greedy_solve(inst)
        covered = frozenset().union(*(inst.sets[i] for i in cover.chosen), frozenset())
        assert covered == frozenset(range(inst.universe_size))
        assert cover.weight == sum(inst.weights[i] for i in cover.chosen)

    @settings(max_examples=300)
    @given(st.data())
    def test_mask_scan_matches_set_scan(self, data):
        # the same cover, trace included, or the same Infeasible element as
        # the reference scan over the sets; weights 0-6 make zero weights and
        # ratio ties common, and empty sets and an empty universe are drawn
        n = data.draw(st.integers(0, 10))
        r = data.draw(st.integers(0, 8))
        sets = [data.draw(st.frozensets(st.integers(0, n - 1), max_size=n)) if n else frozenset() for _ in range(r)]
        weights = units(*(data.draw(st.integers(0, 6)) for _ in range(r)))
        inst = WeightedSetCoverInstance(n, tuple(sets), weights)
        assert _outcome(greedy_solve, inst) == _outcome(oracles.set_scan_greedy, inst)

    @settings(max_examples=200)
    @given(st.data())
    def test_live_scan_matches_set_scan_when_most_sets_are_empty(self, data):
        # the greedy lists only the sets that cover something: with at least
        # 80% of the sets empty, some of them zero-weight, it still gives the
        # reference's cover, trace included, or its Infeasible element
        n = data.draw(st.integers(0, 12))
        live = data.draw(st.integers(0, 6))
        empty = data.draw(st.integers(4 * live, 4 * live + 20))
        sets = [data.draw(st.frozensets(st.integers(0, n - 1), min_size=1)) if n else frozenset() for _ in range(live)]
        sets += [frozenset()] * empty
        sets = data.draw(st.permutations(sets))
        weights = units(*(data.draw(st.integers(0, 3)) for _ in sets))
        inst = WeightedSetCoverInstance(n, tuple(sets), weights)
        assert sum(not s for s in inst.sets) >= 0.8 * inst.r
        assert _outcome(greedy_solve, inst) == _outcome(oracles.set_scan_greedy, inst)

    def test_live_scan_matches_set_scan_on_wide(self, workloads):
        # both covers of the benchmark's wide instances of seed 1, where most
        # of the 120 sets per side are empty
        for spec in workloads.WORKLOADS["wide"].choose(1):
            for inst in compile_system(spec.build()).covers:
                assert sum(1 for s in inst.sets if s) < inst.r // 2
                assert _outcome(greedy_solve, inst) == _outcome(oracles.set_scan_greedy, inst)

    @pytest.mark.parametrize("shape", ["diagonal", "widemask"])
    def test_counting_scan_matches_set_scan_on_the_scale_shapes(self, shape):
        # one-element sets on the diagonal; on the wide-mask shape every set
        # shares the last element, so all but the first step are stale pops
        for inst in compile_system(getattr(oracles, f"{shape}_system")(300)).covers:
            assert inst.universe_size == inst.r == 300
            assert _outcome(greedy_solve, inst) == _outcome(oracles.set_scan_greedy, inst)

    def test_ratios_near_2_63_one_over_k1_k2_apart(self):
        # S0's ratio w0/3 is below S1's w1/4 by exactly 1/12, a gap no float
        # near 2^61 resolves: a float key would tie them and take S1, which
        # covers more.  S2 ties S1 exactly and covers more, so it goes first;
        # the zero-weight S3 goes before all of them
        w1 = 2**63 + 3
        w0 = (3 * w1 - 1) // 4
        assert Fraction(w1, 4) - Fraction(w0, 3) == Fraction(1, 12)
        inst = WeightedSetCoverInstance(
            17,
            (frozenset({0, 1, 2}), frozenset({3, 4, 5, 6}), frozenset(range(7, 15)), frozenset({15}), frozenset({16})),
            (w0, w1, 2 * w1, 0, w1),
        )
        cover = greedy_solve(inst)
        assert cover.trace == (3, 0, 2, 1, 4)
        assert cover == oracles.set_scan_greedy(inst)
        assert _replayed(inst, cover) == oracles.set_scan_steps(inst)
        short = WeightedSetCoverInstance(18, inst.sets, inst.weights)
        assert _outcome(greedy_solve, short) == _outcome(oracles.set_scan_greedy, short) == 17


class TestReplay:
    # The greedy records only the order it took its sets; steps_to_json
    # replays that order, and each step's newly covered elements, their
    # states and its ratio must be the ones the reference scan worked out
    # as it took the set.  Overlapping sets make a replay that forgets what
    # earlier steps covered print too many elements.
    @settings(max_examples=300)
    @given(wsc_instances(max_n=10))
    def test_replayed_steps_match_set_scan(self, inst):
        labels = tuple((e + 1, e + 3) for e in range(inst.universe_size))
        assert _replayed(inst, greedy_solve(inst), labels) == oracles.set_scan_steps(inst)

    @pytest.mark.parametrize("workload", ["sparse", "wide", "oracle", "chain"])
    def test_replayed_steps_match_set_scan_on_the_pools(self, workloads, workload):
        # both covers of the first member of each benchmark pool
        compiled = compile_system(workloads.WORKLOADS[workload].pool[0].build())
        for inst, labels in zip(compiled.covers, cover_labels(compiled.scc)):
            assert _replayed(inst, greedy_solve(inst), labels) == oracles.set_scan_steps(inst)


class TestExact:
    def test_beats_greedy_on_classic_trap(self):
        # cheap singletons lure the ratio greedy away from the one big set
        inst = WeightedSetCoverInstance(
            4,
            (
                frozenset({0, 1, 2, 3}),
                frozenset({0}),
                frozenset({1}),
                frozenset({2}),
                frozenset({3}),
            ),
            units(4, 0, 1, 2, 4),
        )
        greedy = greedy_solve(inst)
        assert greedy.chosen == frozenset({0, 1, 2})
        assert greedy.weight == units(5)[0]
        best = exact_solve(inst, greedy)
        assert best.chosen == frozenset({0})
        assert best.weight == units(4)[0]

    def test_equal_weight_prefers_lex_smallest(self):
        inst = WeightedSetCoverInstance(
            2,
            (frozenset({0}), frozenset({1}), frozenset({0, 1})),
            units(1, 1, 2),
        )
        best = exact_solve(inst, greedy_solve(inst))
        assert best.weight == units(2)[0]
        assert tuple(sorted(best.chosen)) == (0, 1)

    def test_budget(self, monkeypatch):
        # 26 sets answer; a search past its work budget raises TooLarge
        import ioselect.set_cover as set_cover_mod

        inst = WeightedSetCoverInstance(1, (frozenset({0}),) * 26, units(*[1] * 26))
        assert exact_solve(inst, greedy_solve(inst)).chosen == frozenset({0})
        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)
        with pytest.raises(TooLarge, match="exact search over 26 sets passed its work budget of 1"):
            exact_solve(inst, greedy_solve(inst))

    def test_seed_that_does_not_cover(self):
        # the seed is the caller's greedy cover; one that misses an element
        # is a defect of the caller, not an infeasible instance
        inst = WeightedSetCoverInstance(2, (frozenset({0}), frozenset({1})), units(1, 1))
        for chosen in ((), (0,), (1,)):
            seed = Cover(chosen=frozenset(chosen), weight=len(chosen) * COST_SCALE)
            with pytest.raises(InvariantViolated, match="uncovered"):
                exact_solve(inst, seed)
        assert exact_solve(inst, greedy_solve(inst)).chosen == frozenset({0, 1})

    def test_tie_break_takes_a_free_set_that_covers_nothing(self):
        # covers {1} and {0, 1} both weigh 1, and (0, 1) < (1,): the first
        # cover by (weight, indices) takes set 0, which covers nothing
        inst = WeightedSetCoverInstance(2, (frozenset(), frozenset({0, 1})), units(0, 1))
        best = exact_solve(inst, greedy_solve(inst))
        assert (best.weight, best.chosen) == (units(1)[0], frozenset({0, 1}))
        assert oracles.best_cover(inst.universe_size, inst.sets, inst.weights) == (units(1)[0], (0, 1))

    @pytest.mark.parametrize("draw", ["elements", "blocks"])
    def test_matches_reference_minimum_on_a_large_universe(self, draw):
        # 10 random sets over 20,000 elements.  "elements" holds each
        # element with probability 0.3, so every set holds an element no
        # other set does and the optimum takes them all; "blocks" holds
        # each of 12 blocks of elements with probability 0.3, where the
        # optimum (16) is well below the greedy's (22).  The reference
        # enumerates the subsets over one element per class of elements
        # with the same holders, which has the same covers.
        n, r = 20_000, 10
        if draw == "elements":
            rng = random.Random(44)
            sets = [{e for e in range(n) if rng.random() < 0.3} for _ in range(r)]
        else:
            rng = random.Random(43)
            block = [rng.randrange(12) for _ in range(n)]
            held = [{b for b in range(12) if rng.random() < 0.3} for _ in range(r)]
            for b in set(range(12)).difference(*held):
                held[b % r].add(b)
            sets = [{e for e in range(n) if block[e] in h} for h in held]
        for e in set(range(n)).difference(*sets):
            sets[e % r].add(e)
        inst = WeightedSetCoverInstance(n, sets, units(*(rng.randint(1, 9) for _ in range(r))))
        classes = sorted({tuple(i for i, s in enumerate(inst.sets) if e in s) for e in range(n)})
        class_sets = [frozenset(c for c, holders in enumerate(classes) if i in holders) for i in range(r)]
        best = exact_solve(inst, greedy_solve(inst))
        ref = oracles.best_cover(len(classes), class_sets, inst.weights)
        assert (best.weight, tuple(sorted(best.chosen))) == ref

    @given(wsc_instances(feasible=False))
    def test_infeasible_names_greedys_element(self, inst):
        # the greedy, which seeds every exact cover, names the smallest
        # element no set covers, or none
        uncovered = sorted(set(range(inst.universe_size)).difference(*inst.sets))
        try:
            greedy_solve(inst)
            named = None
        except Infeasible as exc:
            named = exc.element
        assert named == (uncovered[0] if uncovered else None)

    @given(wsc_instances())
    def test_matches_reference_minimum(self, inst):
        best = exact_solve(inst, greedy_solve(inst))
        ref = oracles.best_cover(inst.universe_size, inst.sets, inst.weights)
        assert (best.weight, tuple(sorted(best.chosen))) == ref

    def test_branch_and_bound_answers_from_its_seed(self):
        # on the trap above: the optimal seed {0} is the answer, and the
        # dearer qualifying seeds (the greedy's cover, every set) are beaten
        inst = WeightedSetCoverInstance(
            4, (frozenset(range(4)), *(frozenset({e}) for e in range(4))), units(4, 0, 1, 2, 4)
        )
        for chosen in ((0,), (0, 1, 2), range(5)):
            seed = Cover(frozenset(chosen), sum(inst.weights[i] for i in chosen))
            best = branch_and_bound(inst, seed)
            assert (best.chosen, best.weight) == (frozenset({0}), units(4)[0])

    @given(wsc_instances(max_r=6))
    def test_branch_and_bound_from_every_optimal_or_a_dearer_seed(self, inst):
        # every cover of the optimum's weight, as the seed, leads to the
        # first one by (weight, indices), and so does every set together
        ref = oracles.best_cover(inst.universe_size, inst.sets, inst.weights)
        seeds = [
            chosen
            for k in range(inst.r + 1)
            for chosen in itertools.combinations(range(inst.r), k)
            if not inst.uncovered(chosen) and sum(inst.weights[i] for i in chosen) == ref[0]
        ]
        for chosen in [*seeds, range(inst.r)]:
            best = branch_and_bound(inst, Cover(frozenset(chosen), sum(inst.weights[i] for i in chosen)))
            assert (best.weight, tuple(sorted(best.chosen))) == ref

    @given(wsc_instances())
    def test_greedy_within_harmonic_bound(self, inst):
        greedy = greedy_solve(inst)
        best = exact_solve(inst, greedy)
        d = max((len(s) for s in inst.sets), default=0)
        harmonic = sum(Fraction(1, k) for k in range(1, d + 1))
        assert greedy.weight <= harmonic * best.weight


class TestReductions:
    def test_demo_forward(self, demo):
        inst, labels = reduce_accessibility_to_wsc(demo)
        assert inst.universe_size == 2
        assert inst.sets == (frozenset(), frozenset({0}), frozenset({0, 1}))
        assert inst.weights == units(1, 1, 1)
        assert labels == ((2,), (4,))
        cover = greedy_solve(inst)
        assert cover.chosen == frozenset({2})
        assert Selection(inputs=cover.chosen) == Selection([2], [])

    def test_forward_weight_preserved_per_selection(self, demo):
        inst, _ = reduce_accessibility_to_wsc(demo)
        all_states = frozenset(range(demo.n))
        for k in range(4):
            for inputs in itertools.combinations(range(3), k):
                sel = Selection(inputs, [])
                try:
                    cover = selection_to_cover(inst, sel)
                    feasible = True
                except InfeasibleSelection:
                    feasible = False
                assert feasible == (oracles.accessible_states(demo, sel) == all_states)
                if feasible:
                    assert cover.weight == selection_cost(demo, sel)

    @given(systems(max_n=7))
    def test_sensability_is_dual_reduction(self, system):
        from ioselect.graph_core import build_bipartite, decompose_sccs

        scc = decompose_sccs(build_bipartite(system))
        stage1, stage2 = zip(cover_instances(system, scc), cover_labels(scc))
        assert stage1 == reduce_accessibility_to_wsc(system)
        assert stage2 == reduce_accessibility_to_wsc(oracles.transpose_dual(system))

    @given(systems(max_n=6))
    def test_forward_optimum_preserved(self, system):
        """Minimum accessibility cost equals the reduced cover optimum."""
        inst, _ = reduce_accessibility_to_wsc(system)
        all_states = frozenset(range(system.n))
        ref = oracles.best_selection(
            system,
            feasible=lambda s: oracles.accessible_states(system, s) == all_states,
        )
        try:
            best = exact_solve(inst, greedy_solve(inst))
        except Infeasible:
            assert ref is None
            return
        assert ref is not None
        assert best.weight == ref[0]

    @given(wsc_instances())
    def test_reverse_optimum_preserved(self, inst):
        """Reverse direction: cover optimum equals the embedded system's
        minimum accessibility cost."""
        system = reduce_wsc_to_accessibility(inst)
        all_states = frozenset(range(system.n))
        ref = oracles.best_selection(
            system,
            feasible=lambda s: oracles.accessible_states(system, s) == all_states,
        )
        assert ref is not None  # instances are generated feasible
        assert exact_solve(inst, greedy_solve(inst)).weight == ref[0]

    @given(wsc_instances())
    def test_round_trip_weights(self, inst):
        """Forward-of-reverse keeps sets and weights intact."""
        system = reduce_wsc_to_accessibility(inst)
        back, labels = reduce_accessibility_to_wsc(system)
        assert back.universe_size == inst.universe_size
        assert back.sets == inst.sets
        assert back.weights == inst.weights
        assert labels == tuple((e + 1,) for e in range(inst.universe_size))

    def test_reverse_rejects_empty_universe(self):
        with pytest.raises(ModelError):
            reduce_wsc_to_accessibility(WeightedSetCoverInstance(0, (), ()))

    def test_selection_to_cover_range_check(self):
        inst = WeightedSetCoverInstance(1, (frozenset({0}),), units(1))
        with pytest.raises(IndexError):
            selection_to_cover(inst, Selection([4], []))


class TestJson:
    def test_round_trip(self):
        inst = WeightedSetCoverInstance(
            2, (frozenset(), frozenset({0}), frozenset({0, 1})), units(1, 1, 1)
        )
        doc = wsc_to_json(inst)
        assert doc == {"N": 2, "sets": [[], [1], [1, 2]], "weights": ["1", "1", "1"]}
        assert wsc_from_json(doc) == inst

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"sets": [], "weights": []}, '"N"'),
            ({"N": 1, "sets": [[0.5]], "weights": ["1"]}, '"sets"'),
            ({"N": 1, "sets": [[1]], "weights": [1]}, '"weights"'),
            ({"N": 1, "sets": [[1]], "weights": ["1", "2"]}, "sets but"),
            ({"N": 1, "sets": [[2]], "weights": ["1"]}, "outside universe"),
            ([], "set cover document must be a JSON object"),
            ({"N": 1, "sets": [[1]], "weights": ["1.0000001"]}, '"weights": cost'),
            ({"N": -1, "sets": [], "weights": []}, "universe size -1 outside 0.."),
            ({"N": SIZE_LIMIT + 1, "sets": [], "weights": []}, f"outside 0..{SIZE_LIMIT}"),
            ({"N": 1, "sets": [[1]], "weights": ["-1"]}, "set 1: negative weight"),
        ],
    )
    def test_format_errors(self, doc, message):
        with pytest.raises(FormatError, match=message):
            wsc_from_json(doc)

    @given(wsc_instances(feasible=False))
    def test_random_round_trip(self, inst):
        assert wsc_from_json(wsc_to_json(inst)) == inst
