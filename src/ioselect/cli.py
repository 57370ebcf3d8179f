"""Command-line front end.

Commands: check, select, reduce-setcover, solve-setcover, gen, bench.
Exit codes: 0 success, 1 infeasible / has fixed modes / no feasible
instance drawn, 2 usage or parse error, 3 internal error (a failed
consistency check: a defect in this package).
:func:`main` alone prints every ``error: <message>`` line on stderr, one per
failed call.  Every package error that reaches it (a refused setting, an
instance past a declared size limit) exits 2, except ``gen``'s
:class:`oracle_bench.GenerationFailed` (no feasible instance within
``--max-attempts`` draws), which exits 1.  A command adds only the path or
flag prefix of its own usage messages; :func:`_load_json` names the file
for every reason it cannot be read, parsed or decoded.
All output is JSON (``--format table`` flattens it for reading); identical
inputs and flags produce byte-identical output from every command but
``bench``, whose records carry wall-clock times (each record's ``timings``
and CSV ``select_s``, the summary's ``runtime_by_n``); its other bytes repeat.

Every command but ``bench`` runs with the cyclic garbage collector paused,
and :func:`main` leaves it on or off as it found it.  What such a command
builds for its answer (the parsed document, the decoded rows, the compiled
system, the report) holds no reference cycle, so reference counting frees it
all on return, and a collection during the command could only rescan live
objects.  The standard library's indenting JSON encoder leaves a small cycle
of its own per call, which the collector frees once it runs again.
``bench`` keeps the collector on: its trial loop is unbounded, and a caught
exception can leave a cycle through its frame.  No library function touches
the collector.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys
from dataclasses import fields, replace
from typing import Callable, Optional

from ioselect import oracle_bench, selector
from ioselect.graph_core import dump_condensation, dump_system_digraph
from ioselect.matching import dump_matching
from ioselect.selector import SystemHasSFMs, ValidationFailed
from ioselect.set_cover import (
    Cover,
    Infeasible,
    cover_labels,
    exact_solve,
    greedy_solve,
    steps_to_json,
    wsc_from_json,
    wsc_to_json,
)
from ioselect.system_model import (
    FormatError,
    InvariantViolated,
    ModelError,
    Selection,
    StructuredSystem,
    format_cost,
    system_from_json,
    system_to_json,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


def _load_json(path: str, decode: Callable):
    """The JSON document in the file at ``path``, as ``decode`` makes it.
    A file that cannot be read, parsed or decoded is one usage error, named
    by its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:  # before ValueError, its base class
        raise _UsageError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise _UsageError(f"{path}: nesting too deep") from None
    except UnicodeDecodeError:
        raise _UsageError(f"{path}: not UTF-8") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise _UsageError(f"{path}: integer too long") from None
    try:
        return decode(doc)
    except FormatError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _read_system(path: str, discrete: bool = False) -> StructuredSystem:
    system = _load_json(path, system_from_json)
    return replace(system, mode="discrete") if discrete else system


def _int_list(text: str, flag: str, count: Optional[int] = None) -> list[int]:
    """The integers of the comma-separated value of ``--flag``, blank parts
    skipped; with ``count``, each must be a 1-based index in 1..count.
    Parts are read in order, so the first bad one is named."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise _UsageError(f"--{flag}: {part!r} is not an integer") from None
        if count is not None and not 1 <= value <= count:
            raise _UsageError(f"--{flag}: index {value} out of range 1..{count}")
        values.append(value)
    return values


def _selection_from_flags(system: StructuredSystem, args) -> Selection:
    return Selection(*(
        range(count) if flag is None else [i - 1 for i in _int_list(flag, kind, count)]
        for kind, flag, count in (("inputs", args.inputs, system.m), ("outputs", args.outputs, system.p))
    ))


def _flatten(obj, prefix: str, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}.{key}" if prefix else str(key), lines)
    elif isinstance(obj, list):
        if obj and any(isinstance(x, (dict, list)) for x in obj):
            for i, val in enumerate(obj):
                _flatten(val, f"{prefix}[{i}]", lines)
        else:
            body = " ".join(str(x) for x in obj) if obj else "(none)"
            lines.append(f"{prefix} = {body}")
    else:
        lines.append(f"{prefix} = {obj}")


def _opened(path: Optional[str], newline: Optional[str] = None):
    """The stream every output is written to, for a ``with``: the file at
    ``path``, replaced, or stdout (left open) without one."""
    return open(path, "w", encoding="utf-8", newline=newline) if path else contextlib.nullcontext(sys.stdout)


def _emit(doc: dict, args) -> None:
    if args.format == "table":
        lines: list[str] = []
        _flatten(doc, "", lines)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    with _opened(args.output) as fh:
        fh.write(text)


def _cmd_check(args) -> int:
    system = _read_system(args.instance, args.discrete)
    compiled = selector.compile_system(system)  # validates before the flags are read
    sel = _selection_from_flags(system, args)  # checks the index ranges
    status, witness = compiled.decide(sel)
    doc = {
        "no_sfm": status.ok,
        "reason": status.value,
        "mode": system.mode,
        "selection": selector.selection_to_json(sel),
    }
    if not status.ok:
        doc["witness"] = witness
    if args.dump_graph:
        graph = dump_system_digraph(compiled.graph, sel)
        with _opened(args.dump_graph) as fh:
            fh.write(graph + "\n" + dump_condensation(compiled.scc))
    _emit(doc, args)
    return EXIT_OK if status.ok else EXIT_INFEASIBLE


def _cmd_select(args) -> int:
    system = _read_system(args.instance, args.discrete)
    try:
        report = selector.select_min_cost_io(system)
    except SystemHasSFMs as exc:
        _emit({"error": str(exc), "reason": exc.status.value, "witness": exc.witness}, args)
        return EXIT_INFEASIBLE
    report = oracle_bench.exact_report(report) if args.exact else report
    doc = selector.report_to_json(report, include_traces=args.trace)
    if args.dump_matching:
        g = report.compiled.graph
        text = "# no matching stage\n" if report.matching is None else dump_matching(g, report.matching)
        with _opened(args.dump_matching) as fh:
            fh.write(text)
    _emit(doc, args)
    return EXIT_OK


def _cmd_reduce_setcover(args) -> int:
    system = _read_system(args.instance)
    compiled = selector.compile_system(system)
    side = 1 if args.dual else 0
    doc = wsc_to_json(compiled.covers[side])
    doc["labels"] = [list(states) for states in cover_labels(compiled.scc)[side]]
    _emit(doc, args)
    return EXIT_OK


def _cover_json(cover: Cover) -> dict:
    return {"cover": sorted(k + 1 for k in cover.chosen), "weight": format_cost(cover.weight)}


def _cmd_solve_setcover(args) -> int:
    inst = _load_json(args.instance, wsc_from_json)
    try:
        cover = greedy_solve(inst)
    except Infeasible as exc:
        _emit({"error": str(exc), "element": exc.element + 1}, args)
        return EXIT_INFEASIBLE
    doc = _cover_json(cover)
    if args.exact:
        doc["exact"] = _cover_json(exact_solve(inst, cover))
    if args.trace:
        doc["steps"] = steps_to_json(inst, cover)
    _emit(doc, args)
    return EXIT_OK


_GENERATOR_DEFAULTS = {f.name: f.default for f in fields(oracle_bench.GeneratorConfig)}


def _generator_config(args, n: int) -> oracle_bench.GeneratorConfig:
    # every flag whose dest is a field name passes as is; bench's --n is a list
    flags = {name: value for name, value in vars(args).items() if name in _GENERATOR_DEFAULTS and name != "n"}
    return oracle_bench.GeneratorConfig(
        n=n,
        **flags,
        cost_range=(args.cost_lo, args.cost_hi),
        mode="discrete" if args.discrete else _GENERATOR_DEFAULTS["mode"],
        require_feasible=not args.allow_sfms,
    )


def _cmd_gen(args) -> int:
    _emit(system_to_json(oracle_bench.generate(_generator_config(args, args.n))), args)
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = _int_list(args.n, "n")
    if not sizes:
        raise _UsageError("--n: no sizes given")
    if args.trials < 0:
        raise _UsageError(f"--trials: {args.trials} is negative")
    configs = [_generator_config(args, n) for n in sizes]
    records, summary = oracle_bench.bench(configs, args.trials, oracle=args.oracle)
    with _opened(args.output) as fh:
        oracle_bench.write_jsonl(records, summary, fh)
    if args.csv:
        with _opened(args.csv, newline="") as fh:
            oracle_bench.write_csv(records, fh)
    return EXIT_OK


def _add_generator_flags(sub: argparse.ArgumentParser) -> None:
    default = _GENERATOR_DEFAULTS  # flags left out draw as GeneratorConfig does
    lo, hi = default["cost_range"]
    sub.add_argument("--m", type=int, required=True, help="number of candidate inputs")
    sub.add_argument("--p", type=int, required=True, help="number of candidate outputs")
    sub.add_argument("--state-density", type=float, default=default["state_density"])
    sub.add_argument("--input-density", type=float, default=default["input_density"])
    sub.add_argument("--output-density", type=float, default=default["output_density"])
    sub.add_argument("--cost-lo", default=lo, help="lowest cost (decimal string)")
    sub.add_argument("--cost-hi", default=hi, help="highest cost (decimal string)")
    sub.add_argument("--cost-decimals", type=int, default=default["cost_decimals"])
    sub.add_argument("--seed", type=int, default=default["seed"])
    sub.add_argument("--discrete", action="store_true", help="discrete-time instances")
    sub.add_argument("--allow-sfms", action="store_true", help="skip the feasibility rejection loop")
    sub.add_argument("--max-attempts", type=int, default=default["max_attempts"])


def _add_output_flags(sub: argparse.ArgumentParser, output_help: Optional[str] = None) -> None:
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.add_argument("-o", "--output", help=output_help)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every command; :func:`main` reuses one per process."""
    parser = argparse.ArgumentParser(
        prog="ioselect",
        description="minimum-cost input/output selection for structured systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide absence of structurally fixed modes")
    c.add_argument("instance", help="instance JSON path")
    c.add_argument("--inputs", help="comma-separated 1-based input indices (default: all)")
    c.add_argument("--outputs", help="comma-separated 1-based output indices (default: all)")
    c.add_argument("--discrete", action="store_true", help="override mode to discrete")
    c.add_argument("--dump-graph", metavar="PATH", help="write system digraph + condensation")
    _add_output_flags(c, "write result here instead of stdout")

    s = sub.add_parser("select", help="three-stage minimum-cost selection")
    s.add_argument("instance")
    s.add_argument("--exact", action="store_true", help="add the exact optimum + exact cover bounds")
    s.add_argument("--trace", action="store_true", help="include greedy/matching traces")
    s.add_argument("--discrete", action="store_true", help="override mode to discrete")
    s.add_argument("--dump-matching", metavar="PATH", help="write the stage-3 matching edge list")
    _add_output_flags(s)

    r = sub.add_parser("reduce-setcover", help="emit the accessibility set-cover instance")
    r.add_argument("instance")
    r.add_argument("--dual", action="store_true", help="reduce sensability instead")
    _add_output_flags(r)

    w = sub.add_parser("solve-setcover", help="greedy (optionally exact) weighted set cover")
    w.add_argument("instance", help="set-cover JSON path")
    w.add_argument("--exact", action="store_true")
    w.add_argument("--trace", action="store_true")
    _add_output_flags(w)

    g = sub.add_parser("gen", help="generate a reproducible random instance")
    g.add_argument("--n", type=int, required=True, help="number of states")
    _add_generator_flags(g)
    _add_output_flags(g)

    b = sub.add_parser("bench", help="run the ratio/runtime harness")
    b.add_argument("--n", required=True, help="state counts, comma-separated (e.g. 100,200,400)")
    _add_generator_flags(b)
    b.add_argument("--trials", type=int, default=100)
    b.add_argument("--oracle", action="store_true", help="exact optimum per instance, none past its work budget")
    b.add_argument("--csv", metavar="PATH", help="also export records as CSV")
    b.add_argument("-o", "--output", help="write JSONL here instead of stdout")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Shared by every main() call in the process.  Reuse is safe because
    # parse_args leaves the parser unchanged and no argument has a mutable
    # default (tests/test_cli.py::TestParserOnce).
    return build_parser()


_COMMANDS = {
    "check": _cmd_check,
    "select": _cmd_select,
    "reduce-setcover": _cmd_reduce_setcover,
    "solve-setcover": _cmd_solve_setcover,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # why every command but bench pauses the collector: see the module docstring
    pause = args.command != "bench" and gc.isenabled()
    if pause:
        gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (_UsageError, ModelError, OSError) as exc:
        # validation fails only on a system file: a generated system always validates
        where = f"{args.instance}: " if isinstance(exc, ValidationFailed) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, oracle_bench.GenerationFailed) else EXIT_USAGE
    finally:
        if pause:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
