"""CLI output bytes pinned by SHA-256.

Each case runs ``ioselect.cli.main`` on one instance with one set of flags
and hashes the exit code, stdout, stderr and any file the command writes
(``--dump-matching``, ``--dump-graph``).  The instances are the demo
system (as given, with zero costs and with an explicit partial K), a
system with fixed modes, one that fails validation, and a few seeded
generator instances; ``solve-setcover`` runs on set-cover documents (one
with tied and zero weights, where greedy and exact covers differ, one
infeasible and one malformed), and ``gen`` on no file at all.
``golden_cli.json`` holds the digests; a refactor
that must not change output keeps every one of them.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden_cli.py --write``.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import DEMO_A, DEMO_B, DEMO_C, demo_system
from ioselect.cli import main
from ioselect.oracle_bench import GeneratorConfig, generate
from ioselect.system_model import system_to_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")


def _pairs(stars):
    return [list(s) for s in stars]


def _instances() -> dict[str, dict]:
    demo = system_to_json(demo_system())
    docs = {
        "demo": demo,
        "demo_zero_cost": system_to_json(demo_system(cost_u=["0"] * 3, cost_y=["0"] * 2)),
        "demo_partial_k": {**demo, "K": [[2, 2], [3, 2]]},
        "sfm": {
            "n": 2, "m": 1, "p": 1, "A": [[1, 1]], "B": [[1, 1]], "C": [[1, 1]],
            "K": "complete", "cost_u": ["1"], "cost_y": ["1"], "mode": "continuous",
        },
        "invalid": {
            **demo,
            "A": _pairs(DEMO_A) + [[5, 1], [1, 7]],
            "B": _pairs(DEMO_B) + [[9, 1], [2, 4]],
            "C": _pairs(DEMO_C) + [[3, 1]],
            "cost_u": ["1", "-1", "1"],
        },
    }
    configs = {
        "gen_small": GeneratorConfig(8, 3, 3, 0.3, 0.5, 0.5, ("1", "9"), seed=7),
        "gen_zero_cost": GeneratorConfig(12, 4, 4, 0.2, 0.4, 0.4, ("0", "3"), seed=5),
        "gen_decimal": GeneratorConfig(20, 6, 5, 0.15, 0.3, 0.3, ("1", "9"), 1, seed=11),
        "gen_mid": GeneratorConfig(40, 8, 8, 0.08, 0.25, 0.25, ("1", "99"), seed=13),
        "gen_wide": GeneratorConfig(60, 20, 20, 0.05, 0.1, 0.1, ("1", "99"), seed=17),
        "gen_sfms": GeneratorConfig(
            30, 5, 5, 0.05, 0.1, 0.1, ("1", "9"), seed=19, require_feasible=False
        ),
    }
    for name, config in configs.items():
        docs[name] = system_to_json(generate(config))
    return docs


def _partial(doc: dict) -> list[str]:
    """Every other input and the first half of the outputs."""
    inputs = ",".join(str(i) for i in range(1, doc["m"] + 1, 2))
    outputs = ",".join(str(j) for j in range(1, (doc["p"] + 1) // 2 + 1))
    return ["--inputs", inputs, "--outputs", outputs]


def _commands(doc: dict) -> dict[str, list[str]]:
    part = _partial(doc)
    return {
        "select": ["select"],
        "select_trace_dump": ["select", "--trace", "--dump-matching", "{dump}"],
        "select_exact_trace": ["select", "--exact", "--trace"],
        "select_trace_discrete": ["select", "--trace", "--discrete"],
        "select_table": ["select", "--format", "table"],
        "check": ["check"],
        "check_table": ["check", "--format", "table"],
        "check_dump": ["check", "--dump-graph", "{dump}"],
        "check_partial": ["check", *part],
        "check_partial_dump": ["check", *part, "--dump-graph", "{dump}"],
        "check_discrete": ["check", "--discrete"],
        "check_partial_discrete": ["check", "--discrete", *part],
        "reduce": ["reduce-setcover"],
        "reduce_dual": ["reduce-setcover", "--dual"],
    }


# Two optimal covers tie at weight 2: the exact search returns sets 1 and
# 2, the first by sorted indices, and the greedy, taking the free set 6
# first, sets 1, 3 and 6.  Set 5 is empty and free.
SETCOVER_TIES = {
    "N": 6,
    "sets": [[1, 2, 3], [4, 5, 6], [1, 2, 4, 5], [3, 6], [], [6]],
    "weights": ["1", "1", "1", "1", "0", "0"],
}


def _other_cases() -> dict[str, tuple[dict | None, list[str]]]:
    """The commands that read no system: ``solve-setcover`` on its own
    documents, and ``gen``, which reads no file (``None``)."""
    solve = ["solve-setcover"]
    gen = ["gen", "--n", "12", "--m", "3", "--p", "3", "--seed", "4"]
    return {
        "setcover_ties/solve": (SETCOVER_TIES, solve),
        "setcover_ties/solve_exact": (SETCOVER_TIES, [*solve, "--exact"]),
        "setcover_ties/solve_trace": (SETCOVER_TIES, [*solve, "--trace"]),
        "setcover_ties/solve_table": (SETCOVER_TIES, [*solve, "--format", "table"]),
        "setcover_infeasible/solve": ({"N": 3, "sets": [[1], [2]], "weights": ["1", "0"]}, solve),
        "setcover_malformed/solve": ({"N": 3, "sets": [[1], "x"], "weights": ["1", "0"]}, solve),
        "gen/default": (None, gen),
        "gen/discrete_decimals": (
            None, [*gen, "--discrete", "--cost-lo", "0.5", "--cost-hi", "9.5", "--cost-decimals", "1"]
        ),
    }


def _cases():
    for name, doc in _instances().items():
        for cmd, argv in _commands(doc).items():
            yield f"{name}/{cmd}", doc, argv
    for name, (doc, argv) in _other_cases().items():
        yield name, doc, argv


def _digest(doc: dict | None, argv: list[str], tmp_dir: str) -> str:
    instance = os.path.join(tmp_dir, "instance.json")
    dump = os.path.join(tmp_dir, "dump.txt")
    if doc is not None:
        with open(instance, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    if os.path.exists(dump):
        os.remove(dump)
    args = [a.replace("{dump}", dump) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([args[0], *([] if doc is None else [instance]), *args[1:]])
    dumped = ""
    if os.path.exists(dump):
        with open(dump, encoding="utf-8") as fh:
            dumped = fh.read()
    record = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "file": dumped}
    text = json.dumps(record, sort_keys=True).replace(instance, "<instance>")
    return hashlib.sha256(text.encode()).hexdigest()


def _load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


CASES = list(_cases())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_output_bytes(case, tmp_path):
    name, doc, argv = case
    assert _digest(doc, argv, str(tmp_path)) == _load_golden()[name]


def test_every_case_pinned():
    assert sorted(_load_golden()) == sorted(c[0] for c in CASES)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: _digest(doc, argv, tmp) for name, doc, argv in CASES}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
