"""No package path builds a pattern's star set.

Every pattern the package builds is given its rows, and every layer reads
only the rows, so the star set of a pattern is built only when a caller
asks for it, or for a pair list with a pair out of range, which
``validate`` reports.  Each system below is decoded as the CLI decodes it
and run through the commands, and its patterns are looked at afterwards.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ioselect import cli
from ioselect.set_cover import WeightedSetCoverInstance, reduce_wsc_to_accessibility
from ioselect.system_model import CompleteK, Selection, restrict, system_from_json
from test_golden_cli import _instances


def _patterns(system):
    return [system.A, system.B, system.C] + ([] if isinstance(system.K, CompleteK) else [system.K])


@pytest.mark.parametrize("name", ["demo", "demo_partial_k", "gen_small"])
def test_commands_build_no_star_set(name, tmp_path, monkeypatch):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_instances()[name]))
    decoded = []

    def decode(data):
        decoded.append(system_from_json(data))
        return decoded[-1]

    monkeypatch.setattr(cli, "system_from_json", decode)
    commands = [["select"], ["select", "--trace"], ["check", "--dump-graph", str(tmp_path / "g.txt")], ["reduce-setcover"]]
    if name == "demo":
        commands.append(["select", "--exact"])
    for argv in commands:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main([argv[0], str(path), *argv[1:]])
        assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE, cli.EXIT_USAGE)  # select refuses a partial K
        assert not any("stars" in vars(pat) for pat in _patterns(decoded.pop())), argv


def test_builders_give_rows():
    system = system_from_json(_instances()["demo_partial_k"])
    inst = WeightedSetCoverInstance(3, (frozenset({0, 1}), frozenset({2}), frozenset()), (1, 2, 3))
    for built in (restrict(system, Selection([0, 2], [1])), reduce_wsc_to_accessibility(inst)):
        for pat in _patterns(built):
            assert "by_row" in vars(pat) and "stars" not in vars(pat)
