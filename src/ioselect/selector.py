"""Top-level pipeline: SFM decision, three-stage selection, special cases.

A structured system with complete feedback pattern is free of structurally
fixed modes exactly when (a) every state lies in an SCC of the system
digraph containing a feedback edge and (b) all states can be spanned by
disjoint cycles.  For discrete-time systems only condition (a) matters.

``select_min_cost_io`` runs the three-stage approximation:

1. greedy weighted set cover of the non-top SCCs by inputs   -> I_A
2. the same for the non-bottom SCCs by outputs (sensability) -> J_A
3. minimum-cost perfect matching on the full bipartite graph -> (I_C, J_C)

and returns the union (I_A u I_C, J_A u J_C), which is always feasible.
Every stage reads one :class:`CompiledSystem`: the one stored system graph,
read as D(A, B, C, K) for condition (a) and as B(A, B, C, K) for stage 3
and condition (b), and the SCC decomposition of D(A) behind the covers and
the special-case tags.
Stage 3 alone is a certified lower bound on the optimum; the exact cover
optima that tighten it belong to the exact selection
(:func:`ioselect.oracle_bench.exact_report`), not to this polynomial
pipeline.

Condition (b) of the full selection holds exactly when B(A, B, C, K) has a
perfect matching, so stage 3 decides it: it runs first, and its failure is
the system's Type-2 fixed mode, Hall witness included.  When the states
alone have a perfect matching (the ``state_pm`` tag), that matching plus
every input's and output's own edge already is one.  The final check runs
no search: condition (a) is the covers' test, and condition (b) is a linear
check of the perfect matching against the instance
(:func:`ioselect.certify.certify_cycle_cover`).
"""

from __future__ import annotations

import contextlib
import enum
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from ioselect import matching as matching_mod
from ioselect.certify import certify_cycle_cover
from ioselect.graph_core import (
    SccDecomposition,
    SystemGraph,
    _require_hub,
    build_bipartite,
    condition_a_holds,
    condition_a_witness,
    decompose_sccs,
    unfed_states,
)
from ioselect.set_cover import (
    Cover,
    WeightedSetCoverInstance,
    cover_instances,
    cover_labels,
    greedy_solve,
    steps_to_json,
)
from ioselect.system_model import (
    InvariantViolated,
    ModelError,
    Selection,
    StructuredSystem,
    _check_selection,
    format_cost,
    format_ratio,
    selection_cost,
    validate,
)


class SfmStatus(enum.Enum):
    NO_SFM = "none"
    TYPE1 = "Type-1"
    TYPE2 = "Type-2"
    BOTH = "Type-1 and Type-2"

    @property
    def ok(self) -> bool:
        return self is SfmStatus.NO_SFM


class SystemHasSFMs(ModelError):
    """The full system already has structurally fixed modes; no selection can help."""

    def __init__(self, status: SfmStatus, witness: dict):
        self.status = status
        self.witness = witness
        super().__init__(f"system has structurally fixed modes ({status.value})")


class ValidationFailed(ModelError):
    def __init__(self, violations: tuple[str, ...]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class CompiledSystem:
    """The analysis of a validated full system that its selections are
    decided on.

    :func:`compile_system` builds it once: the one stored system graph
    (the pattern rows, from which
    :func:`ioselect.graph_core.restricted_rows` joins the rows of
    B(A, B, C, K), the in-neighbour lists of D(A, B, C, K), on each call
    that needs them), the SCCs of D(A), found on its transpose, and
    ``covers``, the accessibility and the sensability set-cover instances
    (:func:`ioselect.set_cover.cover_instances`), each set as its
    elements.  A selection is decided and witnessed on these structures with
    the unselected inputs and outputs masked out, so every vertex keeps its
    id in the full system.  ``timings`` holds the seconds each of the four
    builds took, by name; it takes no part in ``==`` or ``repr``.
    """

    system: StructuredSystem
    graph: SystemGraph
    scc: SccDecomposition
    covers: tuple[WeightedSetCoverInstance, WeightedSetCoverInstance]
    timings: dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    def condition_a(self, sel: Selection) -> bool:
        """Every state shares an SCC of the restricted system digraph with a
        feedback edge.

        With a complete K that holds exactly when the selected inputs cover
        every non-top SCC of D(A) and the selected outputs every non-bottom
        one.  An explicit partial K runs the SCC test on the restricted
        rows (:func:`ioselect.graph_core.restricted_rows`).  Raises
        IndexError on an index out of range.
        """
        _check_selection(self.system, sel)
        if not self.graph.hub:
            return condition_a_holds(self.graph, sel)
        accessibility, sensability = self.covers
        return not accessibility.uncovered(sel.inputs) and not sensability.uncovered(sel.outputs)

    def decide(self, sel: Selection) -> tuple[SfmStatus, dict]:
        """Classify the selection, and witness each condition that fails
        off the pass that decided it (:func:`_verdict`): continuous mode
        decides both conditions, discrete mode only condition (a), so
        Type-2 is never reported there.  A caller that wants no witness
        reads :func:`check_no_sfm` instead.

        With a complete K the covers decide condition (a), and only
        when they fail does one SCC pass
        (:func:`ioselect.graph_core.unfed_states`) name its states; with a
        partial K that one pass decides and names them.  Condition (b) is
        one largest matching, whose Hall set is read off it when it is not
        perfect (:func:`ioselect.matching.hall_set`).  Raises IndexError on
        an index out of range.
        """
        _check_selection(self.system, sel)
        g = self.graph
        unfed = [] if g.hub and self.condition_a(sel) else unfed_states(g, sel)
        hall = matching_mod.hall_set(g, sel) if self.system.mode == "continuous" else None
        return _verdict(g, unfed, hall)


def _classify(cond_a: bool, cond_b: bool) -> SfmStatus:
    if cond_a and cond_b:
        return SfmStatus.NO_SFM
    if cond_a:
        return SfmStatus.TYPE2
    if cond_b:
        return SfmStatus.TYPE1
    return SfmStatus.BOTH


def _verdict(
    g: SystemGraph, unfed: list[int], hall: Optional[matching_mod.NoPerfectMatching]
) -> tuple[SfmStatus, dict]:
    """The status of a selection from what its two searches left, and its
    machine-checkable witness under the full system's labels: the states
    outside any feedback-carrying SCC (``type1_states``, from
    :func:`ioselect.graph_core.unfed_states`; none when condition (a)
    holds) and the Hall violator of a failed largest matching
    (``hall_violator``; None when condition (b) holds or was not asked)."""
    witness: dict = {}
    if unfed:
        witness["type1_states"] = [g.right_name(v) for v in unfed]
    if hall is not None:
        witness["hall_violator"] = {"left": list(hall.left_labels), "neighbors": list(hall.right_labels)}
    return _classify(not unfed, hall is None), witness


@contextlib.contextmanager
def timed(timings: dict[str, float], name: str):
    """Store the wall time of the ``with`` block as ``timings[name]``."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def compile_system(system: Union[StructuredSystem, CompiledSystem]) -> CompiledSystem:
    """Validate ``system`` and build its graph, one SCC pass of D(A) and the
    two set-cover instances, for deciding any number of its selections, each
    step timed.  Raises :class:`ValidationFailed` on a malformed system.  A
    system given already compiled is returned as it is."""
    if isinstance(system, CompiledSystem):
        return system
    timings: dict[str, float] = {}
    with timed(timings, "validate"):
        report = validate(system)
    if not report.ok:
        raise ValidationFailed(report.violations)
    with timed(timings, "build_bipartite"):
        graph = build_bipartite(system)
    with timed(timings, "decompose_sccs"):
        scc = decompose_sccs(graph)
    with timed(timings, "cover_instances"):
        covers = cover_instances(system, scc)
    return CompiledSystem(system, graph, scc, covers, timings)


def check_no_sfm(system: Union[StructuredSystem, CompiledSystem], sel: Selection) -> SfmStatus:
    """Classify the system under the given selection, compiling it if need
    be: :meth:`CompiledSystem.decide`'s status, from one test per condition
    and no witness.  The covers, or with a partial K one SCC pass,
    decide condition (a), and in continuous mode one largest matching
    (:func:`ioselect.matching.has_perfect_matching`) decides condition (b).
    Raises IndexError on an index out of range, before either test."""
    compiled = compile_system(system)
    cond_a = compiled.condition_a(sel)  # range-checks sel, which the matching does not
    cond_b = compiled.system.mode == "discrete" or matching_mod.has_perfect_matching(compiled.graph, sel)
    return _classify(cond_a, cond_b)


CASE_DISCRETE = "discrete"
CASE_IRREDUCIBLE = "irreducible"
CASE_STATE_PM = "state_pm"
CASE_SINGLE_NONTOP = "single_nontop"
CASE_SINGLE_NONBOTTOM = "single_nonbottom"
CASE_GENERAL = "general"

_GUARANTEES = {
    CASE_DISCRETE: "two greedy cover stages; cycle condition not required",
    CASE_IRREDUCIBLE: "exact optimum",
    CASE_STATE_PM: "within 2(log mu_max + log eta_max) of the optimum",
    CASE_SINGLE_NONTOP: "within 3 log(eta_max) of the optimum",
    CASE_SINGLE_NONBOTTOM: "within 3 log(mu_max) of the optimum",
    CASE_GENERAL: "greedy covers + min-cost matching; cycle stage is a certified lower bound",
}


def applicable_special_cases(system: Union[StructuredSystem, CompiledSystem]) -> tuple[str, ...]:
    """Every structural tag that applies (may be several), strongest first:
    discrete, irreducible, state_pm, single_nontop, single_nonbottom."""
    compiled = compile_system(system)
    scc = compiled.scc
    tags = []
    if compiled.system.mode == "discrete":
        tags.append(CASE_DISCRETE)
    if len(scc.components) == 1:
        tags.append(CASE_IRREDUCIBLE)
    if matching_mod.state_pattern_has_pm(compiled.graph) is not None:
        tags.append(CASE_STATE_PM)
    if scc.q == 1:
        tags.append(CASE_SINGLE_NONTOP)
    if scc.k == 1:
        tags.append(CASE_SINGLE_NONBOTTOM)
    return tuple(tags)


def detect_special_case(system: Union[StructuredSystem, CompiledSystem]) -> str:
    """The strongest applicable tag (precedence: discrete, irreducible,
    state_pm, single_nontop, single_nonbottom), or ``general``."""
    return (applicable_special_cases(system) or (CASE_GENERAL,))[0]


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of the pipeline with machine-checkable certificates.

    ``stage_costs`` is (accessibility greedy weight, sensability greedy
    weight, matching cost); the cycle entry is None in discrete mode.  The
    union of the stage selections may cost less than the stage-cost sum.
    Costs are scaled integers; serialize with
    :func:`ioselect.system_model.format_cost`.  ``matching`` is stage 3's
    perfect matching as its partner list (entry l is the right vertex of
    left vertex l; see :mod:`ioselect.matching`), or None where stage 3 did
    not run.  ``special_cases`` holds every tag that applies, strongest
    first, or ``general`` alone; the primary tag and its guarantee are
    read from it.  ``exact_stage_bound``, the sum of the two covers' exact
    optima, and ``oracle``, the optimum selection and its cost, are set
    only by :func:`ioselect.oracle_bench.exact_report`.  The report is all
    that :func:`report_to_json` renders.
    """

    compiled: CompiledSystem
    selection: Selection
    total_cost: int
    stage_costs: tuple[Optional[int], Optional[int], Optional[int]]
    lower_bound: int
    special_cases: tuple[str, ...]
    stage1: Optional[Cover]
    stage2: Optional[Cover]
    matching: Optional[tuple[int, ...]]
    timings: dict[str, float]
    exact_stage_bound: Optional[int] = None
    oracle: Optional[tuple[Selection, int]] = None

    @property
    def special_case(self) -> str:
        """The strongest tag: the first of ``special_cases``."""
        return self.special_cases[0]

    @property
    def guarantee(self) -> str:
        """The approximation guarantee of the strongest tag."""
        return _GUARANTEES[self.special_case]


def select_min_cost_io(system: Union[StructuredSystem, CompiledSystem]) -> SelectionReport:
    """Three-stage minimum-cost input/output selection; the stages that run
    make the report.

    Raises :class:`ValidationFailed` on malformed systems,
    :class:`ModelError` on a non-complete feedback pattern, and
    :class:`SystemHasSFMs` (with a witness) when even the full selection has
    structurally fixed modes.  Stage 3 runs on a continuous system unless it
    is irreducible with a state-only perfect matching, the two greedy covers
    run unless it is irreducible without one, and the selection is the
    union of what ran.  ``stage_costs`` holds the cover weights, or (0, 0),
    and the cycle cost (0 where a continuous stage 3 did not run, None in
    discrete mode).  An irreducible system's stage-cost sum is its optimum
    and its lower bound, with ``stage1`` and ``stage2`` left None;
    otherwise the bound is the cycle cost (0 in discrete mode).  Every
    stage reads one compiled system; one given already compiled is not
    compiled again.  ``timings`` holds the seconds of each layer that ran,
    by name: the compile's four (:attr:`CompiledSystem.timings`),
    ``state_matching``, ``special_cases`` (the tags and condition (a) of
    the full selection), where they run ``state_cols_rows_to_states``,
    ``stage3``, ``accessibility`` and ``sensability``, and
    ``final_check``.
    """
    compiled = compile_system(system)
    system, graph = compiled.system, compiled.graph
    _require_hub(graph)
    timings = dict(compiled.timings)
    continuous = system.mode == "continuous"
    with timed(timings, "state_matching"):
        graph.state_matching  # B(A)'s Hopcroft-Karp, read by the tags and both stage-3 sides
    with timed(timings, "special_cases"):
        tags = applicable_special_cases(compiled) or (CASE_GENERAL,)
        cond_a = compiled.condition_a(Selection.full(system))
    irreducible = tags[0] == CASE_IRREDUCIBLE  # so continuous: the discrete tag ranks first
    # the tag's perfect matching of the states alone: B(A)'s maximum matching
    state_match = graph.state_matching[0] if CASE_STATE_PM in tags else None

    # Stage 3 finds a perfect matching of the full graph exactly when the
    # full selection meets condition (b), so it runs first and decides it.
    # A state-only perfect matching already meets (b).  On one SCC, any
    # feasible selection uses at least one connected input and output, and
    # each cover's one element is that SCC: with a state-only perfect
    # matching the covers' cheapest pair is optimal, and without one the
    # matching stage alone is (its cost is a lower bound met with equality).
    selection = Selection()
    cycle_cost: Optional[int] = 0 if continuous else None
    match_result = no_match = None
    if continuous and not (irreducible and state_match is not None):
        with timed(timings, "state_cols_rows_to_states"):
            graph.state_cols, graph.rows_to_states  # the two sides' neighbour lists
        with timed(timings, "stage3"):
            try:
                match_result = matching_mod.min_cost_perfect_matching(graph)
            except matching_mod.NoPerfectMatching as exc:
                no_match = exc  # condition (b) fails; exc holds the Hall violator
            else:
                selection, cycle_cost = matching_mod.extract_io(graph, match_result)
    # Stage 3 is the only search here that can fail condition (b): discrete
    # mode and a state-only perfect matching meet it without one.
    if not cond_a or no_match is not None:  # only a failed (a) runs one more SCC pass
        unfed = [] if cond_a else unfed_states(graph, Selection.full(system))
        raise SystemHasSFMs(*_verdict(graph, unfed, no_match))

    covers: list[Cover] = []
    if not (irreducible and state_match is None):
        for name, inst in zip(("accessibility", "sensability"), compiled.covers):
            with timed(timings, name):
                covers.append(greedy_solve(inst))
        selection = selection.union(Selection(*(cover.chosen for cover in covers)))
    stage_costs = (*([cover.weight for cover in covers] or (0, 0)), cycle_cost)
    stage1, stage2 = (None, None) if irreducible else covers
    lower = sum(stage_costs) if irreducible else cycle_cost or 0

    # The final check verifies condition (b) on a perfect matching that
    # leaves only selected channels off their own edges: stage 3's, or,
    # where stage 3 did not run, the state-only one with every input and
    # output on its own edge.
    with timed(timings, "final_check"):
        total = selection_cost(system, selection)
        feasible = compiled.condition_a(selection)
        if feasible and continuous:
            own = range(system.n, graph.size)
            partners = [*state_match, *own] if match_result is None else match_result
            feasible = certify_cycle_cover(system, selection, enumerate(partners))
        if not feasible:
            raise InvariantViolated("pipeline produced a selection with structurally fixed modes")
        # The bound is the cycle cost, which stage 3's channels make up, all
        # of them selected, or an irreducible system's stage-cost sum, which
        # is its total: above the total, a stage misreported its cost.
        if lower > total:
            raise InvariantViolated("lower bound exceeds achieved cost")

    return SelectionReport(
        compiled=compiled,
        selection=selection,
        total_cost=total,
        stage_costs=stage_costs,
        lower_bound=lower,
        special_cases=tags,
        stage1=stage1,
        stage2=stage2,
        matching=match_result,
        timings=timings,
    )


def approximation_ratio(cost: int, optimum: int) -> tuple[Fraction, bool]:
    """``cost / optimum``, and whether the zero-optimum convention applied:
    a zero-cost optimum is taken as ratio 1, flagged."""
    if optimum == 0:
        return Fraction(1), True
    return Fraction(cost, optimum), False


def selection_to_json(sel: Selection) -> dict:
    """A selection in the external JSON shape: sorted 1-based indices."""
    return {
        "inputs": [i + 1 for i in sel.sorted_inputs()],
        "outputs": [j + 1 for j in sel.sorted_outputs()],
    }


def report_to_json(report: SelectionReport, include_traces: bool = False) -> dict:
    """Render a report in the external JSON shape (1-based indices,
    decimal-string costs), with ``exact_stage_bound`` and ``oracle`` (the
    optimum, its cost and the report's ratio to it) where the report holds
    them.  With ``include_traces``, the trace opens with the selection's
    condition-(a) certificate
    (:func:`~ioselect.graph_core.condition_a_witness`), built here: it
    costs O(n * |SCC|), and no other output shows it."""
    acc, sen, cyc = report.stage_costs
    out: dict = {
        "selection": selection_to_json(report.selection),
        "total_cost": format_cost(report.total_cost),
        "stage_costs": {
            "accessibility": None if acc is None else format_cost(acc),
            "sensability": None if sen is None else format_cost(sen),
            "cycle": None if cyc is None else format_cost(cyc),
        },
        "lower_bound": format_cost(report.lower_bound),
        "special_case": report.special_case,
        "special_cases": list(report.special_cases),
        "guarantee": report.guarantee,
        "no_sfm": True,  # a selection with fixed modes raises instead
    }
    if report.exact_stage_bound is not None:
        out["exact_stage_bound"] = format_cost(report.exact_stage_bound)
    if report.oracle is not None:
        oracle_sel, oracle_cost = report.oracle
        entry: dict = {
            "selection": selection_to_json(oracle_sel),
            "cost": format_cost(oracle_cost),
        }
        ratio, flagged = approximation_ratio(report.total_cost, oracle_cost)
        entry["ratio"] = format_ratio(ratio)
        if flagged:
            entry["ratio_convention"] = "zero-cost optimum reported as ratio 1"
        out["oracle"] = entry
    if include_traces:
        trace: dict = {"scc_feedback_witness": condition_a_witness(report.compiled.graph, report.selection)}
        if report.stage1 is not None:  # both greedy stages ran
            covers = zip((report.stage1, report.stage2), report.compiled.covers, cover_labels(report.compiled.scc))
            for key, (cover, inst, labels) in zip(("accessibility_cover", "sensability_cover"), covers):
                trace[key] = {
                    "chosen": sorted(k + 1 for k in cover.chosen),
                    "steps": steps_to_json(inst, cover, labels),
                }
        if report.matching is not None:
            trace["matching"] = [
                dict(zip(("left", "right", "class", "cost"), edge))
                for edge in matching_mod.matched_edges(report.compiled.graph, report.matching)
            ]
        out["trace"] = trace
    return out
