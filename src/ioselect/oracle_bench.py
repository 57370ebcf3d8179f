"""The exact selection, a reproducible instance generator, and the bench harness.

The exact selection is the ground truth the approximation pipeline is
measured against.  It takes a complete K, as selection does, and searches
the inputs and the outputs apart, each side by the one exact search
(:func:`ioselect.set_cover.branch_and_bound`) over its cover and its
side's matching (see :func:`exact_select`).

The generator uses SplitMix64 with a fixed stream discipline so fixtures are
reproducible across platforms and languages:

    stream(seed, attempt, channel) = SplitMix64(mix64(seed + GAMMA*(8*attempt + channel)))

with channels A=1, B=2, C=3, cost_u=4, cost_y=5.  Each matrix and cost
vector is drawn from its own stream; rejection attempts shift every stream
at once, so retries never replay bits.  This stream (v1) is fixed: the
pinned instance digests depend on it (:func:`_draw_pattern` computes it a
row at a time, with the same bits).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import Iterable, Optional, Union

from ioselect.graph_core import _require_hub
from ioselect.matching import complete_side
from ioselect.selector import (
    CompiledSystem,
    SystemHasSFMs,
    approximation_ratio,
    compile_system,
    detect_special_case,
    select_min_cost_io,
    timed,
)
from ioselect.set_cover import TooLarge, branch_and_bound
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


def _stream(seed: int, attempt: int, channel: int) -> SplitMix64:
    return SplitMix64(_mix64((seed + _GAMMA * (8 * attempt + channel)) & _MASK64))


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


def _draw_pattern(rows: int, cols: int, density: float, rng: SplitMix64) -> SparsityPattern:
    """Each cell starred with probability ``density``, drawn as the rows.

    Cell (i, j) is starred when ``rng``'s draw number i*cols + j is below
    density * 2^64, and ``rng`` ends rows*cols draws on, as if each draw
    were a ``next_u64``.  A row's draws are computed at once: draw j sits in
    the low 64 bits (its lane) of the j-th 128-bit slot of one integer.  A
    lane plus a 64-bit step, or times a 64-bit multiplier, stays inside its
    slot, so one big-integer operation runs the finalizer on every lane.
    Adding 2^64 - threshold to a slot carries into bit 64 exactly when its
    lane is not below the threshold; the starred cells are the slots
    without that carry.
    """
    threshold = int(density * (1 << 64))
    ones = int.from_bytes((b"\x01" + bytes(15)) * cols, "little")  # 1 in every slot
    lane = ones * _MASK64
    steps = int.from_bytes(
        b"".join((j * _GAMMA & _MASK64).to_bytes(16, "little") for j in range(1, cols + 1)),
        "little",
    )
    not_below = ones * ((1 << 64) - threshold)
    row_step = cols * _GAMMA
    state = rng._state
    by_row = []
    for _ in range(rows):
        z = _mix64(ones * state + steps, lane)  # on the row's counters state + j*GAMMA
        carries = ((z + not_below) >> 64).to_bytes(16 * cols, "little")[::16]
        row = []
        j = carries.find(0)
        while j >= 0:
            row.append(j)
            j = carries.find(0, j + 1)
        by_row.append(row)
        state = (state + row_step) & _MASK64
    rng._state = state
    return SparsityPattern.of_checked_rows(rows, cols, by_row)


def _draw_costs(count: int, grid: tuple[int, int, int], rng: SplitMix64) -> tuple[int, ...]:
    step, first, last = grid
    return tuple(step * (first + rng.next_below(last - first + 1)) for _ in range(count))


def _draw_system(config: GeneratorConfig, attempt: int, grid: tuple[int, int, int]) -> StructuredSystem:
    s = config.seed
    return StructuredSystem(
        A=_draw_pattern(config.n, config.n, config.state_density, _stream(s, attempt, CH_A)),
        B=_draw_pattern(config.n, config.m, config.input_density, _stream(s, attempt, CH_B)),
        C=_draw_pattern(config.p, config.n, config.output_density, _stream(s, attempt, CH_C)),
        K=COMPLETE,
        cost_u=_draw_costs(config.m, grid, _stream(s, attempt, CH_COST_U)),
        cost_y=_draw_costs(config.p, grid, _stream(s, attempt, CH_COST_Y)),
        mode=config.mode,
    )


def generate(config: GeneratorConfig) -> StructuredSystem:
    """Draw an instance; with ``require_feasible`` rejection-sample until the
    full system is free of structurally fixed modes."""
    grid = _cost_grid(config)
    for attempt in range(config.max_attempts):
        system = _draw_system(config, attempt, grid)
        if not config.require_feasible:
            return system
        if compile_system(system).no_sfm(Selection.full(system)):
            return system
    raise GenerationFailed(config.max_attempts)


def instance_digest(system: StructuredSystem) -> str:
    blob = json.dumps(system_to_json(system), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def exact_select(system: Union[StructuredSystem, CompiledSystem]) -> tuple[Selection, int]:
    """Ground-truth minimum-cost selection with no structurally fixed modes;
    ties break to the first I by (cost, I) and J by (cost, J).

    Every side is decided on one
    :class:`~ioselect.selector.CompiledSystem` (a system given already
    compiled is not compiled again).  A search past its budget raises
    :class:`TooLarge`; a K that is not complete raises the
    :class:`ModelError` of :func:`~ioselect.selector.select_min_cost_io`.
    A full selection with structurally fixed modes raises
    :class:`SystemHasSFMs`, with the witness of
    :meth:`~ioselect.selector.CompiledSystem.decide`.

    With a complete K, and the full selection qualifying, (I, J) qualifies
    exactly when (I, all outputs) and (all inputs, J) do: condition (a)
    asks the inputs to cover the non-top SCCs and the outputs the
    non-bottom ones, and condition (b) splits by the Mendelsohn-Dulmage
    theorem (a matching of each side joins into a perfect one).  So each
    side is one :func:`~ioselect.set_cover.branch_and_bound`: I covers the
    accessibility cover and, in continuous mode, completes side 0's
    matching, J likewise on side 1, and the two optima join into the
    optimum, under the same tie order.  The search's completion is
    :func:`ioselect.matching.complete_side`'s kept channels, as it returns
    them.
    Coverage and completion only grow with the set, so a side finds
    nothing exactly when the full selection fails it, and the full
    selection is checked only then.
    """
    compiled = compile_system(system)
    system, g = compiled.system, compiled.graph
    _require_hub(g)

    sides = [(None, 0)] * 2 if system.mode == "discrete" else [
        (lambda order, side=side: complete_side(g, side, order)[1], g.n) for side in (0, 1)
    ]
    found = [branch_and_bound(cover, *side) for cover, side in zip(compiled.covers, sides)]
    if None in found:  # the full selection's fixed modes, or a defect where it has none
        status, witness = compiled.decide(Selection.full(system))
        if status.ok:
            raise InvariantViolated("no selection qualifies, yet the full selection does")
        raise SystemHasSFMs(status, witness)
    inputs, outputs = found
    return Selection(inputs.chosen, outputs.chosen), inputs.weight + outputs.weight


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
                _sel, oracle_cost = exact_select(compiled)
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
