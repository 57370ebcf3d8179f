"""Timed calls of ``ioselect select``, the per-call correctness gate, and the
percentile rules the end-to-end metrics use.

Times are reported at the reference machine's speed.  The virtual machines
this benchmark runs on change speed by up to 20% either way for tens of
seconds at a time, which would swamp the regressions the bounds are meant
to catch.  So a fixed pure-Python calibration loop is timed before every
call, and the call's wall time is scaled by ``CALIBRATION_REF_S`` over the
calibration time measured around it.  The raw wall times are kept too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional, Sequence

from ioselect import cli

# Candidate tail percentiles.  p90 is the highest so that the chain
# workload's one failing instance in eighteen (5.6%, counted as +inf) stays
# below the share of samples beyond the tail.
TAIL_LADDER = (50, 75, 90)
TAIL_MIN_BEYOND = 10

# The calibration loop's typical time on the reference machine (see
# README.md), and how many neighbouring calibrations a call's scale factor
# takes the median of.  The loop allocates and uses a dict, like the program:
# an allocation-free loop followed the machine's speed changes less closely.
CALIBRATION_REF_S = 0.0042
CALIBRATION_WINDOW = 5


def _calibration_work() -> int:
    table: dict[int, int] = {}
    for i in range(20_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return len(table)


def time_calibration() -> float:
    """Wall time of one run of the calibration loop."""
    t0 = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - t0


def to_reference(seconds: float, calibration: float) -> float:
    """A wall time scaled to the reference machine's speed."""
    return seconds * CALIBRATION_REF_S / calibration


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of all
    samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[int]:
    """Highest percentile of the ladder with at least ten samples beyond it,
    or None when there are fewer than twenty samples."""
    best = None
    for q in TAIL_LADDER:
        if count - math.ceil(q / 100 * count) >= TAIL_MIN_BEYOND:
            best = q
    return best


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Expected:
    """What the gate knows about one instance, read from the instance file."""

    digest: str  # oracle_bench.instance_digest of the instance
    cost_u: tuple[Decimal, ...]
    cost_y: tuple[Decimal, ...]
    golden: Optional[str]  # output digest, None when not checked

    @classmethod
    def from_file(cls, path: str, digest: str, golden: Optional[str]) -> "Expected":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            digest,
            tuple(Decimal(c) for c in doc["cost_u"]),
            tuple(Decimal(c) for c in doc["cost_y"]),
            golden,
        )


def check_output(code: int, text: str, expected: Expected, exact: bool) -> Optional[str]:
    """The reason the call's result is wrong, or None when it passes.

    Never raises: a malformed output is itself a reason.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(text)
        sel = doc["selection"]
        total = Decimal(doc["total_cost"])
        recomputed = sum((expected.cost_u[i - 1] for i in sel["inputs"]), Decimal(0)) + sum(
            (expected.cost_y[j - 1] for j in sel["outputs"]), Decimal(0)
        )
        if total != recomputed:
            return f"total_cost {total} but the selection costs {recomputed}"
        if not Decimal(doc["lower_bound"]) <= total:
            return f"lower_bound {doc['lower_bound']} exceeds total_cost {total}"
        if exact and not Decimal(doc["oracle"]["cost"]) <= total:
            return f"oracle cost {doc['oracle']['cost']} exceeds total_cost {total}"
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    if expected.golden is not None and output_digest(text) != expected.golden:
        return f"output digest {output_digest(text)} differs from golden {expected.golden}"
    return None


@dataclass(frozen=True)
class Call:
    instance: int
    seconds: float  # measured wall time, also for a failed call
    calibration: float  # calibration loop time measured just before the call
    error: Optional[str]  # None when the call passed the gate
    wrong: bool = False  # the program answered, and the answer failed the gate


def samples(calls: Sequence[Call]) -> list[float]:
    """Each call's latency at reference speed, +inf when it failed.

    A call is scaled by the median calibration time of the CALIBRATION_WINDOW
    calls centred on it, which follows the machine's speed but not the noise
    of one short calibration run.
    """
    half = CALIBRATION_WINDOW // 2
    out = []
    for k, call in enumerate(calls):
        window = sorted(c.calibration for c in calls[max(0, k - half):k + half + 1])
        scaled = to_reference(call.seconds, window[len(window) // 2])
        out.append(scaled if call.error is None else math.inf)
    return out


def run_select(path: str, flags: tuple[str, ...]) -> tuple[int, str]:
    """One in-process ``ioselect select``; returns exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["select", path, *flags])
    return code, out.getvalue()


def timed_pass(
    paths: list[str],
    expected: list[Expected],
    flags: tuple[str, ...],
    rounds: int,
    on_call=None,
) -> list[Call]:
    """``rounds`` passes over the instances, one call at a time (a closed
    loop with one client).

    A call that raises counts as failed and is not repeated to get a
    success; each pass calls every instance once.  ``on_call(k)`` and one
    calibration run come before the k-th call, outside the timed region.
    """
    exact = "--exact" in flags
    calls: list[Call] = []
    for _ in range(rounds):
        for i, path in enumerate(paths):
            if on_call is not None:
                on_call(len(calls))
            calibration = time_calibration()
            t0 = time.perf_counter()
            try:
                code, text = run_select(path, flags)
            except Exception as exc:  # a crash is one failed call, not the end of the run
                seconds = time.perf_counter() - t0
                calls.append(Call(i, seconds, calibration, f"{type(exc).__name__}: {exc}"))
                continue
            seconds = time.perf_counter() - t0
            reason = check_output(code, text, expected[i], exact)
            calls.append(Call(i, seconds, calibration, reason, wrong=reason is not None and code == 0))
    return calls
