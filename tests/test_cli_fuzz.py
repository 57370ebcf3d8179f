"""A structure-aware fuzz of the command line, driven through
``ioselect.cli.main``: the commands that read a file (``check``,
``select`` plain, ``--exact`` and ``--trace``, ``reduce-setcover`` and
``solve-setcover``), and the flags of the two that generate (``gen`` and
``bench``).

Each input file starts from a valid document (the golden-CLI instances, a
``gen`` output, or a set-cover instance) and takes a few mutations: a key
dropped or given twice, a value of another JSON type, a bool where an int
goes, a huge or negative number, NaN, non-ASCII digits, a ragged pair,
another K string; then its bytes may be cut short or made non-UTF-8.  The
generator flags take sizes at and past the limits, odd ``--n`` lists,
densities outside [0, 1], NaN and infinity, the cost grammar's corners and
counts at and past their ends; every size is either small or refused before
anything is drawn.  Whatever the input, a command exits 0, 1 or 2, never 3
and never with an exception, and an exit 2 prints exactly one ``error:``
line.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

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


# Sizes at and past the limits; 100_001 is refused before anything is drawn,
# so no draw allocates.
SIZES = [-1, 0, 1, 2, 3, 4, 5, 6, 100_001]
BENCH_NS = ["3,4", "", "x", "4,,5", " 2 , x", "1,100001"]
DENSITIES = [-0.5, 0, 0.3, 1, 1.5, float("nan"), float("inf")]


def mostly(valid, odd):
    """A value from ``valid`` about as often as one from ``odd``, so that
    most inputs get past the first check and reach the generator."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(odd))


@st.composite
def generator_argv(draw, command):
    """``gen`` or ``bench`` with each flag given or left at its default;
    values go in the ``--flag=value`` form, so a leading ``-`` reads as one."""
    sizes = mostly([1, 2, 3, 4, 5, 6], SIZES).map(str)
    if command == "bench":
        n = draw(st.one_of(st.sampled_from(BENCH_NS), st.lists(sizes, min_size=1, max_size=3).map(",".join)))
    else:
        n = draw(sizes)
    argv = [command, f"--n={n}", f"--m={draw(sizes)}", f"--p={draw(sizes)}"]
    densities = mostly([0, 0.3, 1], DENSITIES)
    values = {
        "--state-density": densities,
        "--input-density": densities,
        "--output-density": densities,
        "--cost-lo": mostly(["-1", "0", "1", "0.5"], ODD[str]),
        "--cost-hi": mostly(["-1", "1", "9", "2.25"], ODD[str]),
        "--cost-decimals": st.integers(-1, 8),
        "--max-attempts": st.integers(0, 3),
        "--seed": st.sampled_from([0, 1, -1, 2**64]),
    }
    switches = ["--allow-sfms", "--discrete"]
    if command == "bench":
        values["--trials"] = st.integers(0, 2)
        switches.append("--oracle")
    else:
        values["--format"] = st.just("table")
    for flag, value in values.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(value)}")
    return argv + [flag for flag in switches if draw(st.booleans())]


def run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# Generator configs that validation used to refuse only after the draw, in a
# handler that read a flag these commands do not have; rare in random draws.
@settings(max_examples=200, derandomize=True, database=None)
@given(argv=generator_argv("gen"))
@example(argv=["gen", "--n=2", "--m=1", "--p=1", "--cost-lo=-5", "--cost-hi=-1"])
@example(argv=["gen", "--n=1", "--m=100001", "--p=1", "--allow-sfms"])
def test_gen_flags_exit_cleanly(argv):
    assert_clean_exit(*run_argv(argv))


@settings(max_examples=100, derandomize=True, database=None)
@given(argv=generator_argv("bench"), to_files=st.booleans())
@example(argv=["bench", "--n=2", "--m=1", "--p=1", "--cost-lo=-1", "--cost-hi=1", "--trials=1"], to_files=False)
def test_bench_flags_exit_cleanly(path, argv, to_files):
    if to_files:  # the JSONL and CSV writers, to files
        argv = argv + ["-o", str(path.with_suffix(".jsonl")), "--csv", str(path.with_suffix(".csv"))]
    assert_clean_exit(*run_argv(argv))
