"""The exact selection, a reproducible instance generator, and the bench harness.

The exact selection is the ground truth the approximation pipeline is
measured against.  It takes the report of a ``select``, and searches the
inputs and the outputs apart, each side by the one exact search
(:func:`ioselect.set_cover.branch_and_bound`) over its cover and its
side's matching, from that side of the report's certified selection (see
:func:`exact_select`).  :func:`exact_report` puts that optimum and the
exact cover bound on the report, which is all ``select --exact`` prints.

The generator uses SplitMix64 with a fixed stream discipline so fixtures are
reproducible across platforms and languages.  A channel's stream is the
state its draws start from,

    state(seed, attempt, channel) = mix64(seed + GAMMA*(8*attempt + channel))

with channels A=1, B=2, C=3, cost_u=4, cost_y=5, and its draw k (from 1)
is mix64(state + k*GAMMA), as SplitMix64 steps it.  Each matrix and cost
vector is drawn from its own stream; rejection attempts shift every stream
at once, so retries never replay bits.  This stream (v1) is fixed: the
pinned instance digests depend on it (:func:`_draw_pattern` computes it a
block of rows at a time, with the same bits).  An attempt's patterns are
drawn and checked first; the cost vectors are drawn only for the attempt
:func:`generate` returns, each from its own stream, unchanged, so a
rejected attempt draws no cost and a kept one the same costs as before.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import Iterable, Optional

from ioselect.matching import complete_side
from ioselect.selector import (
    SelectionReport,
    approximation_ratio,
    check_no_sfm,
    compile_system,
    detect_special_case,
    select_min_cost_io,
    timed,
)
from ioselect.set_cover import Cover, TooLarge, branch_and_bound, exact_solve
from ioselect.system_model import (
    COMPLETE,
    COST_DECIMALS,
    SIZE_LIMIT,
    InvariantViolated,
    ModelError,
    Selection,
    SparsityPattern,
    StructuredSystem,
    format_cost,
    format_ratio,
    parse_cost,
    system_to_json,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# SplitMix64's finalizer (Steele, Lea & Flood's constants): xor-shift by
# _SHIFT1, multiply by _MUL1, xor-shift by _SHIFT2, multiply by _MUL2,
# xor-shift by _SHIFT3.
_SHIFT1, _SHIFT2, _SHIFT3 = 30, 27, 31
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(z: int, lane: int = _MASK64) -> int:
    """SplitMix64's output finalizer, run on each 64-bit lane of ``z``
    that ``lane`` masks: one by default, one per 128-bit slot in
    :func:`_draw_pattern`."""
    z &= lane
    z ^= (z >> _SHIFT1) & lane
    z = z * _MUL1 & lane
    z ^= (z >> _SHIFT2) & lane
    z = z * _MUL2 & lane
    return z ^ (z >> _SHIFT3) & lane


class SplitMix64:
    """Minimal SplitMix64: 64-bit state advanced by the golden gamma."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_below(self, bound: int) -> int:
        """Unbiased draw from [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


CH_A, CH_B, CH_C, CH_COST_U, CH_COST_Y = 1, 2, 3, 4, 5


def _stream(seed: int, attempt: int, channel: int) -> int:
    """The state ``channel``'s draws start from in ``attempt`` of ``seed``:
    mix64(seed + GAMMA*(8*attempt + channel))."""
    return _mix64((seed + _GAMMA * (8 * attempt + channel)) & _MASK64)


class GenerationFailed(ModelError):
    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"no feasible instance after {attempts} attempts")


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines a random instance; seed fixes it exactly."""

    n: int
    m: int
    p: int
    state_density: float = 0.25
    input_density: float = 0.5
    output_density: float = 0.5
    cost_range: tuple[str, str] = ("1", "1")
    cost_decimals: int = 0
    seed: int = 0
    mode: str = "continuous"
    require_feasible: bool = True
    max_attempts: int = 200

    def __post_init__(self):
        if not all(1 <= size <= SIZE_LIMIT for size in (self.n, self.m, self.p)):
            raise ModelError(f"sizes must be at least 1 and at most {SIZE_LIMIT}")
        if self.max_attempts < 1:
            raise ModelError("max_attempts must be at least 1")
        for name in ("state_density", "input_density", "output_density"):
            d = getattr(self, name)
            if not 0.0 <= d <= 1.0:
                raise ModelError(f"{name} must lie in [0, 1]")
        if not 0 <= self.cost_decimals <= COST_DECIMALS:
            raise ModelError(f"cost_decimals must lie in [0, {COST_DECIMALS}]")
        _step, first, last = _cost_grid(self)
        if first > last:
            raise ModelError("cost_range contains no value at cost_decimals precision")


def _cost_grid(config: GeneratorConfig) -> tuple[int, int, int]:
    """The scaled costs ``config`` draws from, as the step between them and
    the first and last multiples of it in ``cost_range`` (the first is
    above the last when there is none).  Raises :class:`ModelError` for a
    negative or inverted range."""
    lo, hi = (parse_cost(v) for v in config.cost_range)
    if lo < 0:
        raise ModelError("cost_range lower bound is negative")
    if lo > hi:
        raise ModelError("cost_range lower bound exceeds upper bound")
    step = 10 ** (COST_DECIMALS - config.cost_decimals)
    return step, -((-lo) // step), hi // step


_LANES = 1024  # the most slots in one finalizer pass of _draw_pattern, unless a row is wider


@functools.lru_cache(maxsize=16)
def _lanes(slots: int, threshold: int) -> tuple[int, int, int, int, int]:
    """The constants of a block of ``slots`` 128-bit slots in
    :func:`_draw_pattern`: 1 in every slot, the lane mask, the counter
    steps (slot k holds (k + 1)*GAMMA mod 2^64), the block's advance
    (slots*GAMMA mod 2^64 in every slot) and 2^64 - ``threshold`` in every
    slot.  A block is one finalizer pass, so no entry is wider than one."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * slots, "little")
    steps = int.from_bytes(
        b"".join((k * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(1, slots + 1)),
        "little",
    )
    return ones, ones * _MASK64, steps, ones * (slots * _GAMMA & _MASK64), ones * ((1 << 64) - threshold)


def _draw_pattern(rows: int, cols: int, density: float, state: int) -> SparsityPattern:
    """Each cell starred with probability ``density``, drawn as the rows.

    Cell (i, j) is starred when draw t = i*cols + j of the stream that
    starts at the 64-bit ``state``, mix64(state + (t + 1)*GAMMA), the value the
    (t + 1)-th ``next_u64`` of ``SplitMix64(state)`` returns, is below
    density * 2^64.

    The rows are drawn in blocks of whole rows, as many as fit in
    :data:`_LANES` slots (one row where a row is wider), and a block's
    draws are computed at once: draw t sits in the low 64 bits (its lane)
    of slot t - t0 of one integer, where t0 is the block's first draw and
    each slot is 128 bits wide.  A lane plus a 64-bit step, or times a
    64-bit multiplier, stays inside its slot, so one big-integer operation
    runs the finalizer on every lane.  The counters hold state +
    (t + 1)*GAMMA mod 2^64 in each lane; they are built once, for a full
    block, from the cached constants (:func:`_lanes`), and advance by the
    block's slots times GAMMA, reduced, in every slot at once.  So a slot
    starts below 2^65 and gains less than 2^64 per block: it stays below
    2^65 + rows*2^64 < 2^128, and none spills into the next, between rows
    or between blocks.  The finalizer reads only its lane, and a partial
    last block's lane mask only its low slots.  Adding 2^64 - threshold to
    a finalized slot carries into bit 64, the slot's ninth byte, exactly
    when its lane is not below the threshold; a row's starred cells are
    the slots of its span without that carry.
    """
    threshold = int(density * (1 << 64))
    per_block = min(rows, _LANES // max(cols, 1)) or 1
    ones, lane, steps, advance, not_below = _lanes(per_block * cols, threshold)
    counters = ones * state + steps
    by_row = []
    for first in range(0, rows, per_block):
        block = min(per_block, rows - first)
        if block < per_block:  # the last block, partial: its slots are the low ones
            _ones, lane, _steps, _advance, not_below = _lanes(block * cols, threshold)
        carries = (_mix64(counters, lane) + not_below).to_bytes(16 * block * cols, "little")[8::16]
        for r in range(block):
            span = carries[r * cols:(r + 1) * cols]
            row = []
            j = span.find(0)
            while j >= 0:
                row.append(j)
                j = span.find(0, j + 1)
            by_row.append(row)
        counters += advance
    return SparsityPattern.of_checked_rows(rows, cols, by_row)


def _draw_costs(count: int, grid: tuple[int, int, int], rng: SplitMix64) -> tuple[int, ...]:
    step, first, last = grid
    return tuple(step * (first + rng.next_below(last - first + 1)) for _ in range(count))


def _some_state_unlinked(a: SparsityPattern, b: SparsityPattern, c: SparsityPattern) -> bool:
    """Whether some state has no in-edge (its A and B rows are empty) or no
    out-edge (it is in no A or C row).  Such a state is an SCC of its own
    with no feedback edge, so the full selection fails condition (a), in
    either mode.  O(nnz)."""
    if not all(ra or rb for ra, rb in zip(a.by_row, b.by_row)):
        return True
    return len(set().union(*a.by_row, *c.by_row)) < a.cols


def generate(config: GeneratorConfig) -> StructuredSystem:
    """Draw an instance; with ``require_feasible`` rejection-sample until the
    full system is free of structurally fixed modes.

    An attempt with a state :func:`_some_state_unlinked` names is rejected
    without a compile; every other one is compiled and decided by
    :func:`~ioselect.selector.check_no_sfm` on the full selection, which
    reads no cost.  So the patterns are checked with zero costs, and the
    returned attempt's costs alone are drawn, from their own streams.
    """
    grid, s = _cost_grid(config), config.seed
    for attempt in range(config.max_attempts):
        a = _draw_pattern(config.n, config.n, config.state_density, _stream(s, attempt, CH_A))
        b = _draw_pattern(config.n, config.m, config.input_density, _stream(s, attempt, CH_B))
        c = _draw_pattern(config.p, config.n, config.output_density, _stream(s, attempt, CH_C))
        system = StructuredSystem(a, b, c, K=COMPLETE, cost_u=(0,) * config.m, cost_y=(0,) * config.p, mode=config.mode)
        if not config.require_feasible or (
            not _some_state_unlinked(a, b, c) and check_no_sfm(compile_system(system), Selection.full(system)).ok
        ):
            return replace(
                system,
                cost_u=_draw_costs(config.m, grid, SplitMix64(_stream(s, attempt, CH_COST_U))),
                cost_y=_draw_costs(config.p, grid, SplitMix64(_stream(s, attempt, CH_COST_Y))),
            )
    raise GenerationFailed(config.max_attempts)


def instance_digest(system: StructuredSystem) -> str:
    blob = json.dumps(system_to_json(system), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def exact_select(report: SelectionReport) -> tuple[Selection, int]:
    """Ground-truth minimum-cost selection with no structurally fixed modes
    of the system ``select`` made ``report`` for; ties break to the first I
    by (cost, I) and J by (cost, J).  A search past its budget raises
    :class:`TooLarge`.

    A report exists only for a system :func:`select_min_cost_io` validated,
    with a complete K and a full selection free of fixed modes.  Then
    (I, J) qualifies exactly when (I, all outputs) and (all inputs, J) do:
    condition (a) asks the inputs to cover the non-top SCCs and the outputs
    the non-bottom ones, and condition (b) splits by the Mendelsohn-Dulmage
    theorem (a matching of each side joins into a perfect one).  So each
    side is one :func:`~ioselect.set_cover.branch_and_bound` on the
    report's compiled system: I covers the accessibility cover and, in
    continuous mode, completes side 0's matching, J likewise on side 1,
    and the two optima join into the optimum, under the same tie order.
    The search's completion is :func:`ioselect.matching.complete_side`'s
    kept channels, as it returns them.

    Each side's seed is that side of ``report.selection``, with its cost:
    the first bound, and the best set the tie walk knows.  It is not
    checked again.  ``select`` certified the selection before it returned
    the report, by the covers' test and, in continuous mode,
    :func:`~ioselect.certify.certify_cycle_cover`, checks that share no
    code with the search.
    """
    compiled, sel = report.compiled, report.selection
    g = compiled.graph
    sides = [(None, 0)] * 2 if compiled.system.mode == "discrete" else [
        (lambda order, side=side: complete_side(g, side, order)[1], g.n) for side in (0, 1)
    ]
    inputs, outputs = (
        branch_and_bound(cover, Cover(chosen, sum(cover.weights[i] for i in chosen)), *side)
        for cover, chosen, side in zip(compiled.covers, (sel.inputs, sel.outputs), sides)
    )
    return Selection(inputs.chosen, outputs.chosen), inputs.weight + outputs.weight


def exact_report(report: SelectionReport) -> SelectionReport:
    """``report`` with its exact stage bound and, as ``oracle``,
    :func:`exact_select`'s optimum: what ``select --exact`` prints.

    The bound is the sum of the two covers' exact optima, each the first
    by (weight, sorted indices), and the report's lower bound is raised to
    it.  An irreducible system has none: its stage-cost sum already is its
    optimum.  In discrete mode a side qualifies exactly when it covers, and
    the report's selection is the two greedy covers, so each side's search
    is the exact cover from its greedy cover, and the optimum's cost is the
    bound.  In continuous mode each cover is searched once more, from its
    greedy cover (:func:`ioselect.set_cover.exact_solve`), before the
    optimum.  ``timings`` gains ``exact_covers`` where the covers are
    searched, and ``exact_select``.  A search past its budget raises
    :class:`TooLarge`, and a bound above the report's cost
    :class:`InvariantViolated`.
    """
    compiled, timings, bound = report.compiled, dict(report.timings), None
    if report.stage1 is not None and compiled.system.mode == "continuous":
        with timed(timings, "exact_covers"):
            bound = sum(exact_solve(*pair).weight for pair in zip(compiled.covers, (report.stage1, report.stage2)))
    with timed(timings, "exact_select"):
        optimum = exact_select(report)
    bound = optimum[1] if compiled.system.mode == "discrete" else bound
    lower = max(report.lower_bound, bound or 0)
    if lower > report.total_cost:
        raise InvariantViolated("lower bound exceeds achieved cost")
    return replace(report, lower_bound=lower, exact_stage_bound=bound, oracle=optimum, timings=timings)


@dataclass(frozen=True)
class BenchRecord:
    digest: str
    seed: int
    n: int
    m: int
    p: int
    q: int = 0
    k: int = 0
    mu_max: int = 0
    eta_max: int = 0
    special_case: str = ""
    algo_cost: Optional[int] = None
    oracle_cost: Optional[int] = None
    ratio: Optional[Fraction] = None
    ratio_flagged: bool = False
    feasible: bool = False
    error: Optional[str] = None
    timings: dict = field(default_factory=dict)


def record_to_json(rec: BenchRecord) -> dict:
    return {
        **asdict(rec),
        "algo_cost": None if rec.algo_cost is None else format_cost(rec.algo_cost),
        "oracle_cost": None if rec.oracle_cost is None else format_cost(rec.oracle_cost),
        "ratio": None if rec.ratio is None else format_ratio(rec.ratio),
        "ratio_float": None if rec.ratio is None else float(rec.ratio),
        "timings": {k: round(v, 6) for k, v in rec.timings.items()},
    }


def _run_trial(config: GeneratorConfig, trial: int, oracle: bool) -> BenchRecord:
    """One bench record: draw the trial's instance, then time its compile
    and ``select`` in one window, and with ``oracle`` the exact search; a
    search past its work budget leaves ``oracle_cost`` and ``ratio`` None.

    The trial compiles the drawn system again although :func:`generate`'s
    rejection test already compiled it, ran B(A)'s Hopcroft-Karp (the
    maximum matching of the state rows) and built both side lists
    (``state_cols`` and ``rows_to_states``): reusing that analysis would
    take them out of the record's ``select`` time.
    """
    seed = (config.seed + trial) & _MASK64
    try:
        system = generate(replace(config, seed=seed))
    except GenerationFailed as exc:
        return BenchRecord("", seed, config.n, config.m, config.p, error=str(exc))

    report = error = oracle_cost = ratio = None
    flagged = False
    timings: dict[str, float] = {}
    with timed(timings, "select"):  # the compile is part of select's time
        compiled = compile_system(system)
        try:
            report = select_min_cost_io(compiled)
        except ModelError as exc:
            error = str(exc)
    if report is not None:
        timings.update(report.timings)
        if oracle:
            with timed(timings, "oracle"), contextlib.suppress(TooLarge):  # past the budget: no ratio
                _sel, oracle_cost = exact_select(report)
        if oracle_cost is not None:
            ratio, flagged = approximation_ratio(report.total_cost, oracle_cost)
    mu_max, eta_max = (max(map(len, inst.sets), default=0) for inst in compiled.covers)
    return BenchRecord(
        instance_digest(system), seed, config.n, config.m, config.p,
        q=compiled.scc.q, k=compiled.scc.k, mu_max=mu_max, eta_max=eta_max,
        special_case=detect_special_case(compiled) if report is None else report.special_case,
        algo_cost=None if report is None else report.total_cost,
        oracle_cost=oracle_cost, ratio=ratio, ratio_flagged=flagged,
        feasible=report is not None, error=error, timings=timings,
    )


def bench(
    configs: Iterable[GeneratorConfig],
    trials: int,
    oracle: bool = False,
) -> tuple[list[BenchRecord], dict]:
    """Run ``trials`` instances per config, one after another in this
    process; returns records (config-major, trial-minor order) and a summary
    with ratio extremes and a runtime-vs-n table."""
    records = [_run_trial(cfg, t, oracle) for cfg in configs for t in range(trials)]

    ratios = [r.ratio for r in records if r.ratio is not None]
    by_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.feasible:
            by_n.setdefault(rec.n, []).append(rec.timings.get("select", 0.0))
    summary = {
        "instances": len(records),
        "feasible": sum(1 for r in records if r.feasible),
        "errors": sum(1 for r in records if r.error is not None),
        "with_oracle": len(ratios),
        "max_ratio": float(max(ratios)) if ratios else None,
        "mean_ratio": float(sum(ratios) / len(ratios)) if ratios else None,
        "flagged_zero_optimum": sum(1 for r in records if r.ratio_flagged),
        "runtime_by_n": {
            str(n): {
                "trials": len(ts),
                "mean_select_s": round(sum(ts) / len(ts), 6),
                "max_select_s": round(max(ts), 6),
            }
            for n, ts in sorted(by_n.items())
        },
    }
    return records, summary


def write_jsonl(records: list[BenchRecord], summary: dict, stream) -> None:
    for rec in records:
        stream.write(json.dumps(record_to_json(rec), sort_keys=True) + "\n")
    stream.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


def write_csv(records: list[BenchRecord], stream) -> None:
    """One row per record, a column per :class:`BenchRecord` field in its
    order: ``ratio`` as its float (``ratio_float``) and ``timings`` as the
    select time alone (``select_s``)."""
    renamed = {"ratio": "ratio_float", "timings": "select_s"}
    writer = csv.DictWriter(
        stream, fieldnames=[renamed.get(f.name, f.name) for f in fields(BenchRecord)], extrasaction="ignore"
    )
    writer.writeheader()
    for rec in records:
        row = record_to_json(rec)
        writer.writerow({**row, "select_s": row["timings"].get("select")})
