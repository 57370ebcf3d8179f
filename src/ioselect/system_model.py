"""Structured-system data model.

A structured system is a tuple (A, B, C, K) of {0, *} sparsity patterns with
per-input costs p_u and per-output costs p_y.  Only the positions of the
stars matter; properties computed here hold generically, i.e. for almost all
numerical realizations of the patterns.

Conventions
-----------
* Indices are 0-based everywhere inside the package.  External formats
  (JSON files, CLI flags, human-readable messages) are 1-based.
* Costs are exact.  Decimal strings are scaled by ``10**COST_DECIMALS``
  into integers so comparisons in greedy ratios and matchings never touch
  floating point.  Costs that need more precision, or do not fit into the
  signed 64-bit scaled range, are rejected.
* All values are immutable after construction; every function is pure.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

COST_DECIMALS = 6
COST_SCALE = 10**COST_DECIMALS
_COST_LIMIT = 2**63
# Scales a cost without rounding it: the default context keeps 28 digits
# and traps on exponents past 999999.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
# The largest n, m, p or pattern dimension accepted (rows are allocated per row).
SIZE_LIMIT = 100_000


class ModelError(Exception):
    """Base class for errors raised by this package."""


class CostError(ModelError):
    """A cost cannot be represented exactly at the configured precision."""


class FormatError(ModelError):
    """A JSON document does not match the instance format."""


class InvariantViolated(ModelError):
    """An internal consistency check failed: a defect in this package, not in the input."""


def parse_cost(value: Union[str, int]) -> int:
    """Parse a decimal cost string into a scaled integer.

    Integers are taken as whole cost units (a convenience for tests and
    generated data).  Strings go through :class:`decimal.Decimal` so that
    e.g. ``"0.1"`` is exact.

    >>> parse_cost("1.5")
    1500000
    >>> parse_cost(2)
    2000000
    """
    if isinstance(value, bool):
        raise CostError(f"not a decimal cost: {value!r}")
    if isinstance(value, int):
        scaled = value * COST_SCALE
    else:
        try:
            dec = decimal.Decimal(str(value))
        except decimal.InvalidOperation as exc:
            raise CostError(f"not a decimal cost: {value!r}") from exc
        if not dec.is_finite():
            raise CostError(f"cost must be finite: {value!r}")
        if dec and dec.adjusted() + COST_DECIMALS >= 19:
            scaled = _COST_LIMIT  # at least 10**19 once scaled: refused before int() spells it out
        else:
            quantized = dec.scaleb(COST_DECIMALS, _EXACT)
            scaled = int(quantized)
            if scaled != quantized:
                raise CostError(
                    f"cost {value!r} needs more than {COST_DECIMALS} decimal places"
                )
    if abs(scaled) >= _COST_LIMIT:
        raise CostError(f"cost {value!r} overflows the scaled 64-bit range")
    return scaled


def format_cost(scaled: int) -> str:
    """Render a scaled cost as its canonical decimal string.

    Inverse of :func:`parse_cost` up to canonicalization: trailing zeros in
    the fractional part are dropped and ``-0`` never appears.
    """
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), COST_SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:0{COST_DECIMALS}d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


def format_ratio(ratio: Fraction) -> str:
    """Render an exact ratio, as a decimal when it terminates.

    Non-terminating ratios are printed as ``num/den`` so nothing is ever
    rounded.
    """
    den = ratio.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den != 1:
        return f"{ratio.numerator}/{ratio.denominator}"
    dec = _EXACT.divide(decimal.Decimal(ratio.numerator), decimal.Decimal(ratio.denominator))
    return format(dec.normalize(_EXACT), "f")


@dataclass(frozen=True, init=False)
class SparsityPattern:
    """A {0, *} matrix, stored as its rows.

    ``by_row[i]`` lists row i's starred columns, ascending and without
    repeats; the graph builder, the set-cover instances and the certifier
    read only the rows.  ``outside`` holds the stars given out of range, for
    :func:`validate` to report: every star when a dimension is negative or
    over ``SIZE_LIMIT``, and then no row is allocated.
    ``SparsityPattern(rows, cols, stars)`` splits its stars into the two
    once, here.  Every pattern the package builds (decoded by
    :func:`system_from_json`, drawn by the seeded generator, restricted by
    :func:`restrict` or reduced from a set cover) is given its checked rows
    instead (:meth:`of_checked_rows`).  ``stars`` is derived from both and
    built on first access; equality (of the rows and ``outside``) and
    hashing are those of the star set.

    Zero-sized patterns are legal: restricting to an empty input or output
    selection yields a pattern with zero columns or rows, and the reverse
    set-cover reduction builds systems with no outputs at all.
    """

    rows: int
    cols: int
    by_row: list[list[int]]
    outside: frozenset[tuple[int, int]]

    def __init__(self, rows: int, cols: int, stars: Iterable[tuple[int, int]] = frozenset()) -> None:
        stars = stars if type(stars) is frozenset else frozenset(map(tuple, stars))
        by_row, outside = [], stars
        if 0 <= rows <= SIZE_LIMIT and 0 <= cols <= SIZE_LIMIT:
            by_row, outside = [[] for _ in range(rows)], []
            for i, j in stars:
                if 0 <= i < rows and 0 <= j < cols:
                    by_row[i].append(j)
                else:
                    outside.append((i, j))
            for row in by_row:
                row.sort()
        vars(self).update(rows=rows, cols=cols, by_row=by_row, outside=frozenset(outside))

    @classmethod
    def of_checked_rows(cls, rows: int, cols: int, by_row: list[list[int]]) -> "SparsityPattern":
        """The pattern with these rows, each in range, ascending and without repeats."""
        pat = object.__new__(cls)
        vars(pat).update(rows=rows, cols=cols, by_row=by_row, outside=frozenset())
        return pat

    @cached_property
    def stars(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, row in enumerate(self.by_row) for j in row) | self.outside

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.stars))

    def to_pairs(self) -> list[list[int]]:
        """Sorted 1-based [row, col] pairs for serialization."""
        if self.outside:
            return [[i + 1, j + 1] for i, j in sorted(self.stars)]
        return [[i + 1, j + 1] for i, row in enumerate(self.by_row) for j in row]


@dataclass(frozen=True)
class CompleteK:
    """Marker for a complete feedback pattern: every output may feed every input."""


COMPLETE = CompleteK()

KPattern = Union[CompleteK, SparsityPattern]

MODES = ("continuous", "discrete")


@dataclass(frozen=True)
class StructuredSystem:
    """Bundle (A, B, C, K, p_u, p_y, mode) with sizes n = |states|, m = |inputs|, p = |outputs|.

    ``K`` is normally the :data:`COMPLETE` token.  An explicit pattern is
    accepted by the file format and validated, but the selection pipeline
    refuses feedback patterns that are not complete.
    """

    A: SparsityPattern
    B: SparsityPattern
    C: SparsityPattern
    K: KPattern = COMPLETE
    cost_u: tuple[int, ...] = ()
    cost_y: tuple[int, ...] = ()
    mode: str = "continuous"

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost_u", tuple(self.cost_u))
        object.__setattr__(self, "cost_y", tuple(self.cost_y))

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows

    def k_is_complete(self) -> bool:
        """True for the COMPLETE token and for an explicit K whose rows hold
        m*p stars and that has no star out of range."""
        if isinstance(self.K, CompleteK):
            return True
        return not self.K.outside and sum(map(len, self.K.by_row)) == self.m * self.p


@dataclass(frozen=True)
class Selection:
    """A choice of input and output indices (0-based).  The constructor
    takes any iterables of indices and freezes them."""

    inputs: frozenset[int] = frozenset()
    outputs: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))

    @classmethod
    def full(cls, system: StructuredSystem) -> "Selection":
        return cls(frozenset(range(system.m)), frozenset(range(system.p)))

    def sorted_inputs(self) -> tuple[int, ...]:
        return tuple(sorted(self.inputs))

    def sorted_outputs(self) -> tuple[int, ...]:
        return tuple(sorted(self.outputs))

    def union(self, other: "Selection") -> "Selection":
        return Selection(self.inputs | other.inputs, self.outputs | other.outputs)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_pattern(name: str, pat: SparsityPattern, out: list[str]) -> None:
    if pat.rows < 0 or pat.cols < 0:
        out.append(f"{name}: negative dimensions {pat.rows}x{pat.cols}")
        return
    if max(pat.rows, pat.cols) > SIZE_LIMIT:
        out.append(f"{name}: dimensions {pat.rows}x{pat.cols} exceed the size limit {SIZE_LIMIT}")
        return
    for i, j in sorted(pat.outside):
        if not 0 <= i < pat.rows:
            out.append(f"{name}: star ({i + 1}, {j + 1}) row out of range")
        elif not 0 <= j < pat.cols:
            out.append(f"{name}: star ({i + 1}, {j + 1}) col out of range")


def validate(system: StructuredSystem) -> ValidationReport:
    """Check dimension consistency and limits, star ranges, cost signs, and mode.

    Report-style: never raises, returns the full list of violations.
    """
    out: list[str] = []
    n = system.A.rows
    if system.A.cols != n:
        out.append(f"A: must be square, got {system.A.rows}x{system.A.cols}")
    if n < 1:
        out.append("A: at least one state required")
    if system.B.rows != n:
        out.append(f"B: expected {n} rows, got {system.B.rows}")
    if system.C.cols != n:
        out.append(f"C: expected {n} cols, got {system.C.cols}")
    _check_pattern("A", system.A, out)
    _check_pattern("B", system.B, out)
    _check_pattern("C", system.C, out)
    if not isinstance(system.K, CompleteK):
        if system.K.rows != system.m or system.K.cols != system.p:
            out.append(
                f"K: expected {system.m}x{system.p}, got {system.K.rows}x{system.K.cols}"
            )
        _check_pattern("K", system.K, out)
    if len(system.cost_u) != system.m:
        out.append(f"cost_u: expected {system.m} entries, got {len(system.cost_u)}")
    if len(system.cost_y) != system.p:
        out.append(f"cost_y: expected {system.p} entries, got {len(system.cost_y)}")
    for i, c in enumerate(system.cost_u):
        if c < 0:
            out.append(f"negative cost at input {i + 1}")
    for j, c in enumerate(system.cost_y):
        if c < 0:
            out.append(f"negative cost at output {j + 1}")
    if system.mode not in MODES:
        out.append(f"mode: expected one of {MODES}, got {system.mode!r}")
    return ValidationReport(tuple(out))


def _check_selection(system: StructuredSystem, sel: Selection) -> None:
    """Raise IndexError naming an index of ``sel`` out of range, if any: a
    bound test per side, and a walk over the side only when it fails."""
    for side, chosen, count in (("input", sel.inputs, system.m), ("output", sel.outputs, system.p)):
        if chosen and not (min(chosen) >= 0 and max(chosen) < count):
            i = next(i for i in chosen if not 0 <= i < count)
            raise IndexError(f"{side} index {i + 1} out of range 1..{count}")


def restrict(system: StructuredSystem, sel: Selection) -> StructuredSystem:
    """Restrict B to the selected input columns and C to the selected output rows.

    Retained indices keep their relative order; K restricts to the selected
    block (the COMPLETE token stays complete).  Empty selections are legal
    and produce zero-width patterns.  The result is built as rows: it
    shares A and C's kept rows, and renumbers B's and K's.  Raises
    :class:`ModelError` for a system whose B, C or K has a star out of
    range or a dimension out of bounds, or whose K is not m x p
    (:func:`validate` reports each).
    """
    _check_selection(system, sel)
    in_keep, out_keep = sel.sorted_inputs(), sel.sorted_outputs()
    complete = isinstance(system.K, CompleteK)
    patterns = (system.B, system.C) if complete else (system.B, system.C, system.K)
    k_fits = complete or (system.K.rows, system.K.cols) == (system.m, system.p)
    if not k_fits or any(pat.outside or len(pat.by_row) != pat.rows for pat in patterns):
        raise ModelError("cannot restrict an invalid system")
    in_pos = {orig: k for k, orig in enumerate(in_keep)}
    out_pos = {orig: k for k, orig in enumerate(out_keep)}
    k_new: KPattern = COMPLETE
    if not complete:
        k_new = SparsityPattern.of_checked_rows(
            len(in_keep),
            len(out_keep),
            [[out_pos[j] for j in system.K.by_row[i] if j in out_pos] for i in in_keep],
        )
    return StructuredSystem(
        A=system.A,
        B=SparsityPattern.of_checked_rows(
            system.B.rows, len(in_keep), [[in_pos[j] for j in row if j in in_pos] for row in system.B.by_row]
        ),
        C=SparsityPattern.of_checked_rows(len(out_keep), system.C.cols, [system.C.by_row[j] for j in out_keep]),
        K=k_new,
        cost_u=tuple(system.cost_u[i] for i in in_keep),
        cost_y=tuple(system.cost_y[j] for j in out_keep),
        mode=system.mode,
    )


def selection_cost(system: StructuredSystem, sel: Selection) -> int:
    """p(I, J) = sum of selected input costs plus selected output costs (scaled)."""
    _check_selection(system, sel)
    return sum(system.cost_u[i] for i in sel.inputs) + sum(
        system.cost_y[j] for j in sel.outputs
    )


# --- JSON instance format ---------------------------------------------------
#
# {"n": 4, "m": 3, "p": 2,
#  "A": [[1, 1], [1, 2], ...], "B": [...], "C": [[1, 3], [2, 1]],
#  "K": "complete",            # or a 1-based [input, output] pair list
#  "cost_u": ["1", "1", "1"], "cost_y": ["1", "1"],
#  "mode": "continuous"}


def _require(data: dict, field: str, kind) -> object:
    if field not in data:
        raise FormatError(f"missing field {field!r}")
    value = data[field]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise FormatError(f"field {field!r}: expected an integer")
    if kind is int and value < 0:
        raise FormatError(f"field {field!r}: {value} is negative")
    if kind is int and value > SIZE_LIMIT:
        raise FormatError(f"field {field!r}: {value} exceeds the size limit {SIZE_LIMIT}")
    if kind is list and not isinstance(value, list):
        raise FormatError(f"field {field!r}: expected a list")
    return value


def _pairs(data: dict, field: str, rows: int, cols: int) -> SparsityPattern:
    """The pattern of a 1-based pair list, decoded in one pass while it
    runs strictly ascending and in range: each pair is type-checked and
    appended to its row, so the rows come sorted and without repeats.  At
    the first pair that breaks the run (a repeat, a step back, a row or
    column 0, or an index out of range) every entry is type-checked and the
    pattern is built from its stars instead, which sorts and dedupes the
    rows and keeps the stars out of range in ``outside`` for
    :func:`validate` to report.  Only JSON values arrive here, so an entry
    that unpacks into two exact ints is a [row, col] pair."""
    raw = _require(data, field, list)
    by_row: list[list[int]] = [[] for _ in range(rows)]
    row: list[int] = []
    pi, pj = 0, cols  # (0, cols) precedes every in-range pair and continues no row
    try:
        for i, j in raw:
            if type(i) is not int or type(j) is not int:
                break
            if i != pi:
                if not pi < i <= rows:
                    break
                row, pi, pj = by_row[i - 1], i, 0
            if not pj < j <= cols:
                break
            row.append(j - 1)
            pj = j
        else:
            return SparsityPattern.of_checked_rows(rows, cols, by_row)
        stars = []
        for i, j in raw:
            if type(i) is not int or type(j) is not int:
                raise TypeError
            stars.append((i - 1, j - 1))
    except (TypeError, ValueError):
        raise FormatError(f"field {field!r}: entries must be [row, col] integer pairs") from None
    return SparsityPattern(rows, cols, frozenset(stars))


def _costs(data: dict, field: str) -> tuple[int, ...]:
    raw = _require(data, field, list)
    out = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, str):
            raise FormatError(f"field {field!r}[{k}]: costs must be decimal strings")
        if entry.isascii() and entry.isdigit() and len(entry) <= 12:
            out.append(int(entry) * COST_SCALE)  # a whole number, well inside the range
            continue
        try:
            out.append(parse_cost(entry))
        except CostError as exc:
            raise FormatError(f"field {field!r}[{k}]: {exc}") from exc
    return tuple(out)


def system_from_json(data: dict) -> StructuredSystem:
    """Decode the JSON instance format.  Raises :class:`FormatError` naming the field."""
    if not isinstance(data, dict):
        raise FormatError("instance document must be a JSON object")
    n = _require(data, "n", int)
    m = _require(data, "m", int)
    p = _require(data, "p", int)
    a = _pairs(data, "A", n, n)
    b = _pairs(data, "B", n, m)
    c = _pairs(data, "C", p, n)
    k_raw = data.get("K", "complete")
    if k_raw == "complete":
        k: KPattern = COMPLETE
    elif isinstance(k_raw, list):
        k = _pairs(data, "K", m, p)
    else:
        raise FormatError('field "K": expected "complete" or a pair list')
    mode = data.get("mode", "continuous")
    if mode not in MODES:
        raise FormatError(f'field "mode": expected one of {MODES}, got {mode!r}')
    return StructuredSystem(
        A=a,
        B=b,
        C=c,
        K=k,
        cost_u=_costs(data, "cost_u"),
        cost_y=_costs(data, "cost_y"),
        mode=mode,
    )


def system_to_json(system: StructuredSystem) -> dict:
    """Encode to the JSON instance format (costs echoed as decimal strings)."""
    k = "complete" if isinstance(system.K, CompleteK) else system.K.to_pairs()
    return {
        "n": system.n,
        "m": system.m,
        "p": system.p,
        "A": system.A.to_pairs(),
        "B": system.B.to_pairs(),
        "C": system.C.to_pairs(),
        "K": k,
        "cost_u": [format_cost(c) for c in system.cost_u],
        "cost_y": [format_cost(c) for c in system.cost_y],
        "mode": system.mode,
    }
