"""A structure-aware fuzz of the commands that read a file, driven through
``ioselect.cli.main``: ``check``, ``select`` (plain, ``--exact``,
``--trace``), ``reduce-setcover`` and ``solve-setcover``.

Each input starts from a valid document (the golden-CLI instances, a
``gen`` output, or a set-cover instance) and takes a few mutations: a key
dropped or given twice, a value of another JSON type, a bool where an int
goes, a huge or negative number, NaN, non-ASCII digits, a ragged pair,
another K string; then its bytes may be cut short or made non-UTF-8.
Whatever the input, a command exits 0, 1 or 2, never 3 and never with an
exception, and an exit 2 prints exactly one ``error:`` line.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ioselect.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from test_golden_cli import _instances

SYSTEM_COMMANDS = [
    ["check"],
    ["check", "--inputs", "1", "--outputs", "2"],
    ["check", "--discrete"],
    ["select"],
    ["select", "--exact"],
    ["select", "--trace", "--format", "table"],
    ["reduce-setcover"],
    ["reduce-setcover", "--dual"],
]
SETCOVER_COMMANDS = [["solve-setcover"], ["solve-setcover", "--exact"], ["solve-setcover", "--trace"]]

# Values put where the format expects something else, by the kind of value
# they mostly stand in for: bools, floats, NaN and numbers at and past the
# limits for an int; the cost grammar's corners and K strings for a string;
# ragged and wrongly typed pairs and other containers for a list.
ODD = {
    int: [True, False, 0, -1, 1, 3, 100_001, 2**63, -(10**30), 1.0, 1.5, float("nan"), float("-inf"), None, "1"],
    str: ["", "1", "-1", "٣", "1e3", "1e1000000", "1e-1000000", " +1 ", "1_0", "0.0000001", "NaN", "Infinity",
          "complete", "COMPLETE", "partial", 1],
    list: [[], [1], [1, 2, 3], [[1]], [[1, 2, 3]], [[True, 1]], [[1.0, 1]], [[1, "1"]], [[0, 0]], [[-1, 1]],
           [[2**63, 1]], [[float("nan"), 1]], ["1"], [None], {}, {"a": 1}],
}


@st.composite
def odd_value(draw, like=None):
    """A value from ``ODD``, mostly of the kind of ``like``; a copy, since
    later mutations may edit it in place."""
    kinds = list(ODD) + [type(like)] * 6 if type(like) in ODD else list(ODD)
    return copy.deepcopy(draw(st.sampled_from(ODD[draw(st.sampled_from(kinds))])))


SETCOVER_DOCS = [
    {"N": 3, "sets": [[1, 2], [2, 3], [3]], "weights": ["1", "1", "0.5"]},
    {"N": 4, "sets": [[1], [2, 3, 4], [1, 2]], "weights": ["2", "3", "1"]},
    {"N": 2, "sets": [[1]], "weights": ["1"]},  # infeasible
]


def _gen_doc() -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["gen", "--n", "6", "--m", "3", "--p", "2", "--cost-hi", "9", "--seed", "3"])
    assert code == EXIT_OK
    return json.loads(out.getvalue())


GOLDEN = ("demo", "demo_partial_k", "sfm", "invalid", "gen_small")
SYSTEM_DOCS = [doc for name, doc in _instances().items() if name in GOLDEN] + [_gen_doc()]


def _paths(node, path=()):
    """The path of every value in a JSON tree, the root's ``()`` first."""
    yield path
    if isinstance(node, dict):
        children = sorted(node.items())
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with up to three values, each drawn from all of its values,
    replaced, dropped from their object or repeated in their list."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        *up, key = draw(st.sampled_from(list(_paths(doc)))) or [None]
        if key is None:
            return draw(odd_value(doc))
        parent = doc
        for step in up:
            parent = parent[step]
        if draw(st.booleans()):
            parent[key] = draw(odd_value(parent[key]))
        elif isinstance(parent, dict):
            del parent[key]
        else:
            parent.append(parent[key])
    return doc


@st.composite
def file_bytes(draw, docs):
    doc = draw(mutated(draw(st.sampled_from(docs))))
    text = json.dumps(doc)
    if isinstance(doc, dict) and doc and draw(st.booleans()):
        key = json.dumps(draw(st.sampled_from(sorted(doc))))
        dup = f"{key}: {json.dumps(draw(odd_value()))}"
        text = "{" + dup + ", " + text[1:] if draw(st.booleans()) else text[:-1] + ", " + dup + "}"
    data = text.encode()
    cut = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["none"] * 6 + ["truncate", "non-utf8"]))
    if edit == "truncate":
        data = data[:cut]
    elif edit == "non-utf8":
        data = data[:cut] + b"\xff\xfe" + data[cut:]
    return data


def run_file(path, argv, data):
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_USAGE), err
    if code == EXIT_USAGE:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.json"


@settings(max_examples=300, derandomize=True, database=None)
@given(argv=st.sampled_from(SYSTEM_COMMANDS), data=file_bytes(SYSTEM_DOCS))
def test_system_commands_exit_cleanly(path, argv, data):
    assert_clean_exit(*run_file(path, argv, data))


@settings(max_examples=200, derandomize=True, database=None)
@given(argv=st.sampled_from(SETCOVER_COMMANDS), data=file_bytes(SETCOVER_DOCS))
def test_setcover_commands_exit_cleanly(path, argv, data):
    assert_clean_exit(*run_file(path, argv, data))
