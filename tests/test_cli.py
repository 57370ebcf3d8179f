import gc
import json

import pytest

from conftest import pool_config
from ioselect.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def sfm_json(tmp_path):
    path = tmp_path / "sfm.json"
    path.write_text(
        '{"n":2,"m":1,"p":1,"A":[[1,1]],"B":[[1,1]],"C":[[1,1]],'
        '"K":"complete","cost_u":["1"],"cost_y":["1"],"mode":"continuous"}'
    )
    return str(path)


def write_wsc(tmp_path, doc, name="wsc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_full_selection(self, capsys, demo_json):
        code, doc, _ = run_json(capsys, "check", demo_json)
        assert code == EXIT_OK
        assert doc == {
            "no_sfm": True,
            "reason": "none",
            "mode": "continuous",
            "selection": {"inputs": [1, 2, 3], "outputs": [1, 2]},
        }

    def test_failing_selection(self, capsys, demo_json):
        code, doc, _ = run_json(
            capsys, "check", demo_json, "--inputs", "3", "--outputs", "2"
        )
        assert code == EXIT_INFEASIBLE
        assert doc["no_sfm"] is False
        assert doc["reason"] == "Type-1 and Type-2"
        assert doc["selection"] == {"inputs": [3], "outputs": [2]}
        assert doc["witness"]["type1_states"] == ["x3", "x4"]
        assert doc["witness"]["hall_violator"]["neighbors"] == [
            "x1", "x2", "x4", "u3", "y2",
        ]

    def test_feasible_pair(self, capsys, demo_json):
        code, doc, _ = run_json(
            capsys, "check", demo_json, "--inputs", "3", "--outputs", "1"
        )
        assert code == EXIT_OK and doc["no_sfm"] is True

    def test_discrete_override(self, capsys, demo_json):
        code, doc, _ = run_json(
            capsys, "check", demo_json, "--discrete", "--inputs", "3",
            "--outputs", "1",
        )
        assert code == EXIT_OK
        assert doc["mode"] == "discrete"
        code, doc, _ = run_json(
            capsys, "check", demo_json, "--discrete", "--inputs", "3",
            "--outputs", "2",
        )
        assert code == EXIT_INFEASIBLE
        assert doc["reason"] == "Type-1"
        assert "hall_violator" not in doc["witness"]

    def test_empty_index_list(self, capsys, demo_json):
        code, doc, _ = run_json(capsys, "check", demo_json, "--inputs", "")
        assert code == EXIT_INFEASIBLE
        assert doc["selection"]["inputs"] == []

    def test_index_out_of_range(self, capsys, demo_json):
        code, _out, err = run(capsys, "check", demo_json, "--inputs", "9")
        assert code == EXIT_USAGE
        assert "out of range 1..3" in err

    def test_index_not_integer(self, capsys, demo_json):
        code, _out, err = run(capsys, "check", demo_json, "--inputs", "a,b")
        assert code == EXIT_USAGE
        assert "not an integer" in err

    def test_dump_graph(self, capsys, demo_json, tmp_path):
        dump = tmp_path / "graph.txt"
        code, _doc, _err = run_json(
            capsys, "check", demo_json, "--dump-graph", str(dump)
        )
        assert code == EXIT_OK
        text = dump.read_text()
        assert "x1 x1 EX\n" in text
        assert "y1 u1 EK\n" in text
        assert "# scc1 = x1" in text

    def test_dump_graph_partial_selection(self, capsys, demo_json, tmp_path):
        # the dump names u3 and y2 as the flags and the witness do
        dump = tmp_path / "graph.txt"
        code, doc, _err = run_json(
            capsys, "check", demo_json, "--inputs", "3", "--outputs", "2", "--dump-graph", str(dump)
        )
        assert code == EXIT_INFEASIBLE
        assert doc["witness"]["hall_violator"]["left"][-2:] == ["u3'", "y2'"]
        text = dump.read_text()
        assert "y2 u3 EK\n" in text
        assert "u3 x4 EU\n" in text and "x1 y2 EY\n" in text
        assert "u1" not in text and "y1" not in text

    def test_table_format(self, capsys, demo_json):
        code, out, _ = run(capsys, "check", demo_json, "--format", "table")
        assert code == EXIT_OK
        assert "no_sfm = True\n" in out
        assert "selection.inputs = 1 2 3\n" in out

    def test_output_file(self, capsys, demo_json, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "check", demo_json, "-o", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["no_sfm"] is True

    def test_output_into_missing_directory(self, capsys, demo_json, tmp_path):
        target = tmp_path / "missing" / "result.json"
        code, out, err = run(capsys, "check", demo_json, "-o", str(target))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: [Errno 2] ") and str(target) in err

    @pytest.mark.parametrize("command", ["check", "select"])
    def test_negative_size_refused(self, capsys, demo_json, tmp_path, command):
        # one message naming the field, no traceback and no output
        with open(demo_json) as fh:
            doc = json.load(fh)
        doc["m"] = -2
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {path}: field 'm': -2 is negative\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _out, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE and "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _out, err = run(capsys, "check", str(path))
        assert code == EXIT_USAGE and "line 1" in err

    @pytest.mark.parametrize("command", ["select", "check", "reduce-setcover"])
    @pytest.mark.parametrize("pair", [[1], [1, "2"]], ids=["one integer", "a string"])
    def test_pair_not_two_integers(self, capsys, tmp_path, command, pair):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 2, "m": 1, "p": 1, "A": [[1, 1], pair], "B": [[1, 1]], "C": [[1, 2]], "cost_u": ["1"], "cost_y": ["1"],
        }))
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {path}: field 'A': entries must be [row, col] integer pairs\n")

    def test_malformed_system(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1}')
        code, _out, err = run(capsys, "check", str(path))
        assert code == EXIT_USAGE and "missing field" in err

    @pytest.mark.parametrize("star", [[0, 1], [1, 3]])
    @pytest.mark.parametrize(
        "argv", [("check", "--inputs", "9"), ("select",), ("select", "--exact"), ("reduce-setcover",)]
    )
    def test_invalid_system(self, capsys, tmp_path, star, argv):
        # every command reports the violations under the file's path, and
        # check does so before it reads --inputs
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 2, "m": 1, "p": 1, "A": [[1, 1], [2, 2], star], "B": [[1, 1]], "C": [[1, 2]],
            "K": "complete", "cost_u": ["1"], "cost_y": ["1"], "mode": "continuous",
        }))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {path}: A: star ({star[0]}, {star[1]}) ")
        assert err.endswith(" out of range\n")

    def test_over_the_size_limit(self, capsys, demo_json, monkeypatch):
        from ioselect import system_model

        monkeypatch.setattr(system_model, "SIZE_LIMIT", 3)
        code, out, err = run(capsys, "select", demo_json)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {demo_json}: field 'n': 4 exceeds the size limit 3\n"


class TestSelect:
    def test_demo(self, capsys, demo_json):
        code, doc, _ = run_json(capsys, "select", demo_json)
        assert code == EXIT_OK
        assert doc["selection"] == {"inputs": [1, 3], "outputs": [1]}
        assert doc["total_cost"] == "3"
        assert doc["stage_costs"] == {
            "accessibility": "1", "sensability": "1", "cycle": "2",
        }
        assert doc["lower_bound"] == "2"
        assert doc["special_case"] == "single_nonbottom"
        assert doc["no_sfm"] is True
        assert "oracle" not in doc and "trace" not in doc

    def test_exact(self, capsys, demo_json):
        code, doc, _ = run_json(capsys, "select", demo_json, "--exact")
        assert code == EXIT_OK
        assert doc["exact_stage_bound"] == "2"
        assert doc["oracle"]["selection"] == {"inputs": [3], "outputs": [1]}
        assert doc["oracle"]["cost"] == "2"
        assert doc["oracle"]["ratio"] == "1.5"

    def test_trace(self, capsys, demo_json):
        code, doc, _ = run_json(capsys, "select", demo_json, "--trace")
        assert code == EXIT_OK
        assert doc["trace"]["accessibility_cover"]["chosen"] == [3]
        assert doc["trace"]["sensability_cover"]["chosen"] == [1]
        assert len(doc["trace"]["matching"]) == 9

    def test_byte_determinism(self, capsys, demo_json):
        _, first, _ = run(capsys, "select", demo_json, "--exact", "--trace")
        _, second, _ = run(capsys, "select", demo_json, "--exact", "--trace")
        assert first == second

    def test_dump_matching(self, capsys, demo_json, tmp_path):
        dump = tmp_path / "matching.txt"
        run_json(capsys, "select", demo_json, "--dump-matching", str(dump))
        text = dump.read_text()
        assert "u1' y1 EK 2\n" in text
        assert len(text.splitlines()) == 9

    def test_discrete(self, capsys, demo_json, tmp_path):
        dump = tmp_path / "matching.txt"
        code, doc, _ = run_json(
            capsys, "select", demo_json, "--discrete", "--dump-matching", str(dump)
        )
        assert code == EXIT_OK
        assert doc["total_cost"] == "2"
        assert doc["stage_costs"]["cycle"] is None
        assert dump.read_text() == "# no matching stage\n"

    def test_sfm_instance(self, capsys, sfm_json):
        code, doc, _ = run_json(capsys, "select", sfm_json)
        assert code == EXIT_INFEASIBLE
        assert doc["reason"] == "Type-1 and Type-2"
        assert doc["witness"]["type1_states"] == ["x2"]
        assert "structurally fixed modes" in doc["error"]

    def test_exact_guard(self, capsys, tmp_path, monkeypatch):
        # one SCC, so no exact cover runs: 18 channels answer, and the exact
        # selection past its work budget exits 2 with one error line
        import ioselect.set_cover as set_cover_mod

        doc = {
            "n": 1, "m": 9, "p": 9,
            "A": [[1, 1]],
            "B": [[1, j] for j in range(1, 10)],
            "C": [[j, 1] for j in range(1, 10)],
            "K": "complete",
            "cost_u": ["1"] * 9,
            "cost_y": ["1"] * 9,
            "mode": "continuous",
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, doc, _err = run_json(capsys, "select", str(path), "--exact")
        assert code == EXIT_OK
        assert doc["oracle"]["cost"] == "2"
        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)
        assert run(capsys, "select", str(path), "--exact") == (
            EXIT_USAGE, "", "error: exact search over 9 sets passed its work budget of 1\n"
        )

    def test_exact_cover_guard(self, capsys, tmp_path, monkeypatch):
        # two SCCs, so the covers run and --exact solves them exactly: 26
        # inputs answer, and past its work budget the exact cover refuses
        # before the oracle
        import ioselect.set_cover as set_cover_mod

        path = tmp_path / "many_inputs.json"
        path.write_text(json.dumps({
            "n": 2, "m": 26, "p": 1,
            "A": [[1, 1], [2, 2]],
            "B": [[i, j] for i in (1, 2) for j in range(1, 27)],
            "C": [[1, 1], [1, 2]],
            "K": "complete", "cost_u": ["1"] * 26, "cost_y": ["1"], "mode": "continuous",
        }))
        code, doc, _err = run_json(capsys, "select", str(path), "--exact")
        assert (code, doc["exact_stage_bound"]) == (EXIT_OK, "2")
        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)
        code, out, err = run(capsys, "select", str(path), "--exact")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: exact search over 26 sets passed its work budget of 1\n"

    def test_table_format(self, capsys, demo_json):
        code, out, _ = run(capsys, "select", demo_json, "--format", "table")
        assert code == EXIT_OK
        assert "selection.inputs = 1 3\n" in out
        assert "total_cost = 3\n" in out


class TestReduceSetcover:
    def test_demo(self, capsys, demo_json):
        code, doc, _ = run_json(capsys, "reduce-setcover", demo_json)
        assert code == EXIT_OK
        assert doc == {
            "N": 2,
            "sets": [[], [1], [1, 2]],
            "weights": ["1", "1", "1"],
            "labels": [[2], [4]],
        }

    def test_dual(self, capsys, demo_json):
        code, doc, _ = run_json(capsys, "reduce-setcover", demo_json, "--dual")
        assert code == EXIT_OK
        assert doc == {
            "N": 1,
            "sets": [[1], []],
            "weights": ["1", "1"],
            "labels": [[3]],
        }


class TestSolveSetcover:
    def test_trivial(self, capsys, tmp_path):
        path = write_wsc(tmp_path, {"N": 1, "sets": [[1]], "weights": ["0"]})
        code, doc, _ = run_json(capsys, "solve-setcover", path)
        assert code == EXIT_OK
        assert doc == {"cover": [1], "weight": "0"}

    def test_demo_reduction(self, capsys, tmp_path):
        path = write_wsc(
            tmp_path,
            {"N": 2, "sets": [[], [1], [1, 2]], "weights": ["1", "1", "1"]},
        )
        code, doc, _ = run_json(capsys, "solve-setcover", path, "--trace")
        assert code == EXIT_OK
        assert doc["cover"] == [3]
        assert doc["weight"] == "1"
        assert doc["steps"] == [
            {"set": 3, "newly_covered": [1, 2], "ratio": "0.5"}
        ]

    def test_exact_block(self, capsys, tmp_path):
        path = write_wsc(
            tmp_path,
            {
                "N": 4,
                "sets": [[1, 2, 3, 4], [1], [2], [3], [4]],
                "weights": ["4", "0", "1", "2", "4"],
            },
        )
        code, doc, _ = run_json(capsys, "solve-setcover", path, "--exact")
        assert code == EXIT_OK
        assert doc["cover"] == [1, 2, 3]
        assert doc["weight"] == "5"
        assert doc["exact"] == {"cover": [1], "weight": "4"}

    def test_infeasible(self, capsys, tmp_path):
        path = write_wsc(tmp_path, {"N": 2, "sets": [[1]], "weights": ["1"]})
        code, doc, _ = run_json(capsys, "solve-setcover", path)
        assert code == EXIT_INFEASIBLE
        assert doc["element"] == 2
        assert "in no set" in doc["error"]

    def test_exact_guard(self, capsys, tmp_path, monkeypatch):
        # 26 sets answer; past its work budget the exact cover exits 2
        import ioselect.set_cover as set_cover_mod

        path = write_wsc(
            tmp_path,
            {"N": 1, "sets": [[1]] * 26, "weights": ["1"] * 26},
        )
        code, doc, _err = run_json(capsys, "solve-setcover", path, "--exact")
        assert (code, doc["exact"]) == (EXIT_OK, {"cover": [1], "weight": "1"})
        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)
        assert run(capsys, "solve-setcover", path, "--exact") == (
            EXIT_USAGE, "", "error: exact search over 26 sets passed its work budget of 1\n"
        )

    def test_format_error(self, capsys, tmp_path):
        path = write_wsc(tmp_path, {"N": 1})
        code, _out, err = run(capsys, "solve-setcover", path)
        assert code == EXIT_USAGE and '"sets"' in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"N": -1, "sets": [], "weights": []}, "universe size -1 outside 0..100000"),
            ({"N": 2, "sets": [[1], [2], [1, 2]], "weights": ["-1"] * 3}, "set 1: negative weight"),
            (
                {"N": 1, "sets": [[1]], "weights": ["1e1000000"]},
                "field \"weights\": cost '1e1000000' overflows the scaled 64-bit range",
            ),
            ({"N": 2, "sets": [[1], [2, "x"]], "weights": ["1", "1"]}, 'field "sets"[1]: expected a list of integers'),
        ],
    )
    @pytest.mark.parametrize("flags", [(), ("--exact",)])
    def test_refused_instance(self, capsys, tmp_path, doc, message, flags):
        # refused before any solver runs: no traceback, no output
        path = write_wsc(tmp_path, doc)
        code, out, err = run(capsys, "solve-setcover", path, *flags)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {path}: {message}\n")


class TestGen:
    ARGS = (
        "gen", "--n", "4", "--m", "2", "--p", "2", "--state-density", "0.35",
        "--input-density", "0.6", "--output-density", "0.6",
        "--cost-lo", "1", "--cost-hi", "9", "--seed", "11",
    )

    def test_deterministic_bytes(self, capsys):
        code, first, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_instance_round_trips(self, capsys):
        from ioselect.system_model import system_from_json, validate

        _, out, _ = run(capsys, *self.ARGS)
        system = system_from_json(json.loads(out))
        assert validate(system).ok
        assert (system.n, system.m, system.p) == (4, 2, 2)

    def test_allow_sfms(self, capsys):
        code, doc, _ = run_json(
            capsys, "gen", "--n", "2", "--m", "1", "--p", "1",
            "--state-density", "0", "--input-density", "0",
            "--output-density", "0", "--allow-sfms",
        )
        assert code == EXIT_OK
        assert doc["A"] == [] and doc["B"] == [] and doc["C"] == []

    def test_generation_failure(self, capsys):
        code, out, err = run(
            capsys, "gen", "--n", "2", "--m", "1", "--p", "1",
            "--state-density", "0", "--input-density", "0",
            "--output-density", "0", "--max-attempts", "2",
        )
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "no feasible instance after 2 attempts" in err

    def test_one_attempt(self, capsys):
        # every star drawn: the first draw is feasible, and one attempt takes it
        dense = ("gen", "--n", "3", "--m", "1", "--p", "1", "--max-attempts", "1")
        code, doc, err = run_json(
            capsys, *dense, "--state-density", "1", "--input-density", "1", "--output-density", "1"
        )
        assert (code, err) == (EXIT_OK, "")
        assert (doc["n"], doc["m"], doc["p"]) == (3, 1, 1)
        # no star drawn: the one attempt fails
        code, out, err = run(capsys, *dense, "--state-density", "0", "--input-density", "0", "--output-density", "0")
        assert (code, out, err) == (EXIT_INFEASIBLE, "", "error: no feasible instance after 1 attempts\n")

    def test_required_flags_only(self, capsys):
        # every optional flag left out draws with GeneratorConfig's defaults
        from ioselect.oracle_bench import GeneratorConfig, generate
        from ioselect.system_model import system_to_json

        expected = json.dumps(system_to_json(generate(GeneratorConfig(8, 3, 3))), indent=2) + "\n"
        assert run(capsys, "gen", "--n", "8", "--m", "3", "--p", "3") == (EXIT_OK, expected, "")

    def test_bad_density(self, capsys, tmp_path, monkeypatch):
        import ioselect.set_cover as set_cover_mod

        code, _out, err = run(
            capsys, "gen", "--n", "2", "--m", "1", "--p", "1",
            "--state-density", "1.5",
        )
        assert code == EXIT_USAGE and "state_density" in err
        # configs that validation would refuse are refused before any draw,
        # and main alone turns each package error into one error line
        sizes = "sizes must be at least 1 and at most 100000"
        wsc = write_wsc(tmp_path, {"N": 1, "sets": [[1]] * 26, "weights": ["1"] * 26})
        monkeypatch.setattr(set_cover_mod, "EXACT_BUDGET", 1)  # the exact cover's refusal
        for argv, message in (
            (("gen", "--n", "2", "--m", "1", "--p", "1", "--cost-lo=-5", "--cost-hi=-1"), "cost_range lower bound is negative"),
            (("gen", "--n", "2", "--m", "1", "--p", "1", "--cost-lo", "3", "--cost-hi", "2"),
             "cost_range lower bound exceeds upper bound"),
            (("gen", "--n", "1", "--m", "100001", "--p", "1"), sizes),
            (("gen", "--n", "1", "--m", "100001", "--p", "1", "--allow-sfms"), sizes),
            (("gen", "--n", "3", "--m", "1", "--p", "1", "--max-attempts=-1"), "max_attempts must be at least 1"),
            (("gen", "--n", "3", "--m", "1", "--p", "1", "--max-attempts=0"), "max_attempts must be at least 1"),
            (("gen", "--n", "3", "--m", "1", "--p", "1", "--max-attempts=0", "--allow-sfms"), "max_attempts must be at least 1"),
            (("bench", "--n", "4", "--m", "0", "--p", "1"), sizes),
            (("solve-setcover", wsc, "--exact"), "exact search over 26 sets passed its work budget of 1"),
        ):
            assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n"), argv


def untimed(jsonl: str) -> list[dict]:
    """A bench JSONL stream's records less their wall-clock fields: each
    record's ``timings`` and the summary's ``runtime_by_n``."""
    docs = [json.loads(line) for line in jsonl.splitlines()]
    for doc in docs:
        doc.pop("timings", None)
        doc.get("summary", {}).pop("runtime_by_n", None)
    return docs


class TestBench:
    FIXED = (
        "bench", "--n", "3,4", "--m", "2", "--p", "2", "--state-density", "0.35",
        "--input-density", "0.6", "--output-density", "0.6", "--cost-lo", "1",
        "--cost-hi", "9", "--cost-decimals", "1", "--trials", "3", "--oracle", "--seed", "50",
    )
    CSV_HEAD = (
        "digest,seed,n,m,p,q,k,mu_max,eta_max,special_case,algo_cost,oracle_cost,"
        "ratio_float,ratio_flagged,feasible,error"
    )
    CSV_OK = [
        "7c9bf9af9b3247be,50,3,2,2,1,1,1,1,irreducible,5.3,5.3,1.0,False,True,",
        "3143301766f8fc9e,51,3,2,2,1,2,1,1,single_nontop,23.6,23.6,1.0,False,True,",
        "93666851d7b85e2c,52,3,2,2,2,2,2,2,general,12.6,10.3,1.2233009708737863,False,True,",
        "96556ebcc1a7633d,50,4,2,2,1,1,1,1,irreducible,5.3,5.3,1.0,False,True,",
    ]
    CSV_LAST = "de5bf63f5eedba9b,52,4,2,2,1,1,1,1,irreducible,7,7,1.0,False,True,"

    # Every byte of the records but the wall-clock ones.  One attempt per
    # draw leaves trial 2 of n = 4 undrawn; with --allow-sfms it is drawn
    # and select refuses it.
    @pytest.mark.parametrize(
        "flag, failed, jsonl_sha256",
        [
            ("--max-attempts=1", ",51,4,2,2,0,0,0,0,,,,,False,False,no feasible instance after 1 attempts",
             "5465703e444843a8d41501c622101cb0d4b8f536b395edcb7e82d0305e5637fa"),
            ("--allow-sfms",
             "1e9948f7b2f69402,51,4,2,2,2,2,1,2,state_pm,,,,False,False,system has structurally fixed modes (Type-1)",
             "e5dbf65a055c405bb5e6ba33f9cf9b12a3bbbf4d891f84550b199069ffdb08c5"),
        ],
        ids=["failed draw", "select refused"],
    )
    def test_pinned_records(self, capsys, tmp_path, flag, failed, jsonl_sha256):
        import hashlib

        csv_path = tmp_path / "bench.csv"
        code, out, err = run(capsys, *self.FIXED, flag, "--csv", str(csv_path))
        assert (code, err) == (EXIT_OK, "")
        # select_s, the last column, is wall-clock time
        rows = [line.rpartition(",")[0] for line in csv_path.read_text().splitlines()]
        assert rows == [self.CSV_HEAD, *self.CSV_OK, failed, self.CSV_LAST]
        blob = json.dumps(untimed(out), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == jsonl_sha256

    def test_required_flags_only(self, capsys):
        # the records GeneratorConfig's defaults and 100 trials give
        import io

        from ioselect import oracle_bench

        code, out, err = run(capsys, "bench", "--n", "3,4", "--m", "2", "--p", "2")
        assert (code, err) == (EXIT_OK, "")
        configs = [oracle_bench.GeneratorConfig(n, 2, 2) for n in (3, 4)]
        expected = io.StringIO()
        oracle_bench.write_jsonl(*oracle_bench.bench(configs, 100), expected)
        assert untimed(out) == untimed(expected.getvalue())
        assert len(untimed(out)) == 201

    def test_files(self, capsys, tmp_path):
        jsonl = tmp_path / "bench.jsonl"
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--n", "3,4", "--m", "2", "--p", "2",
            "--state-density", "0.35", "--input-density", "0.6",
            "--output-density", "0.6", "--trials", "2", "--oracle",
            "--seed", "50", "-o", str(jsonl), "--csv", str(csv_path),
        )
        assert code == EXIT_OK and out == ""
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 5
        summary = json.loads(lines[-1])["summary"]
        assert summary["instances"] == 4
        records = [json.loads(l) for l in lines[:-1]]
        assert [r["n"] for r in records] == [3, 3, 4, 4]
        assert csv_path.read_text().count("\n") == 5

    def test_stdout(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--n", "3", "--m", "1", "--p", "1",
            "--state-density", "0.35", "--trials", "1", "--seed", "3",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        assert "summary" in json.loads(lines[1])

    def test_bad_sizes(self, capsys):
        code, _out, err = run(
            capsys, "bench", "--n", "3,x", "--m", "1", "--p", "1"
        )
        assert code == EXIT_USAGE and "not an integer" in err
        code, _out, err = run(
            capsys, "bench", "--n", ",", "--m", "1", "--p", "1"
        )
        assert code == EXIT_USAGE and "no sizes" in err
        for flags, message in (
            (("--n", "2", "--m", "1", "--p", "1", "--cost-lo=-1", "--cost-hi=1"), "negative"),
            (("--n", "1", "--m", "100001", "--p", "1"), "at most 100000"),
            (("--n", "3", "--m", "1", "--p", "1", "--max-attempts=0"), "max_attempts must be at least 1"),
        ):
            code, out, err = run(capsys, "bench", *flags, "--trials", "1")
            assert code == EXIT_USAGE and out == "" and message in err
            assert err.count("error:") == 1 and "Traceback" not in err
        code, out, err = run(capsys, "bench", "--n", "3", "--m", "1", "--p", "1", "--trials=-2")
        assert code == EXIT_USAGE and out == "" and err == "error: --trials: -2 is negative\n"


class TestCompileOnce:
    def test_check_with_witness_and_dump(self, capsys, demo_json, tmp_path, monkeypatch):
        # status, witness and dump all read one compiled analysis
        from test_selector import wrap_counting

        names = [
            "system_model.restrict",
            "graph_core.build_graphs",
            "graph_core.decompose_sccs",
            "matching.build_bipartite",
        ]
        counts = wrap_counting(monkeypatch, names)
        dump = str(tmp_path / "graph.txt")
        argv = ["check", demo_json, "--inputs", "3", "--outputs", "2", "--dump-graph", dump]
        code, doc, _err = run_json(capsys, *argv)
        assert code == EXIT_INFEASIBLE and "hall_violator" in doc["witness"]
        assert counts == {
            "system_model.restrict": 0,
            "graph_core.build_graphs": 0,
            "graph_core.decompose_sccs": 1,
            "matching.build_bipartite": 1,
        }

    @pytest.mark.parametrize("flags", [(), ("--discrete",), ("--exact",)])
    def test_select_builds_one_graph(self, capsys, demo_json, monkeypatch, flags):
        from test_selector import wrap_counting

        counts = wrap_counting(monkeypatch, ["graph_core.build_graphs", "matching.build_bipartite"])
        code, _doc, _err = run_json(capsys, "select", demo_json, *flags)
        assert code == EXIT_OK
        assert counts == {"graph_core.build_graphs": 0, "matching.build_bipartite": 1}

    def test_select_exact(self, capsys, demo_json, monkeypatch):
        # the exact search reuses the pipeline's compiled analysis, and the
        # pipeline's own validation serves the CLI
        from test_selector import wrap_counting

        names = ["graph_core.decompose_sccs", "matching.build_bipartite", "system_model.validate"]
        counts = wrap_counting(monkeypatch, names)
        code, doc, _err = run_json(capsys, "select", demo_json, "--exact")
        assert code == EXIT_OK and "oracle" in doc
        assert counts == dict.fromkeys(names, 1)


    def test_exact_search_decides_sides_alone(self, capsys, tmp_path, monkeypatch):
        # on an oracle-pool system the exact search's one perfect-matching
        # test is the full selection's; every subset is decided on its own
        # side, and no selection's graph is masked
        import ioselect.oracle_bench as oracle_bench
        from ioselect.system_model import system_to_json
        from test_selector import wrap_counting

        system = oracle_bench.generate(pool_config("oracle", 1))
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(system_to_json(system)))
        names = ["matching.has_perfect_matching", "graph_core.restricted_rows"]
        counts = wrap_counting(monkeypatch, names)
        inside = {}
        real = oracle_bench.exact_select

        def exact_select(report):
            before = dict(counts)
            try:
                return real(report)
            finally:
                inside.update({name: counts[name] - before[name] for name in names})

        monkeypatch.setattr(oracle_bench, "exact_select", exact_select)
        code, doc, _err = run_json(capsys, "select", str(path), "--exact")
        assert code == EXIT_OK and "oracle" in doc
        assert inside["matching.has_perfect_matching"] <= 1
        assert inside["graph_core.restricted_rows"] == 0


@pytest.fixture
def final_check_fails(monkeypatch):
    # a failed consistency check is a defect, not a usage error: here the
    # final check is shown the selection without its inputs, one of which
    # the stage-3 matching uses
    import ioselect.selector as selector_mod

    real = selector_mod.certify_cycle_cover

    def inputs_dropped(system, sel, pairs):
        return real(system, selector_mod.Selection(outputs=sel.outputs), pairs)

    monkeypatch.setattr(selector_mod, "certify_cycle_cover", inputs_dropped)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test, and restored."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()


class TestMain:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_help(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ioselect" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_internal_error_exit_code(self, capsys, demo_json, final_check_fails):
        code, out, err = run(capsys, "select", demo_json)
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err.startswith("internal error: ") and "structurally fixed modes" in err

    def test_lower_bound_above_the_cost(self, capsys, demo_json, exact_cover_too_heavy):
        assert run(capsys, "select", demo_json, "--exact") == (
            EXIT_INTERNAL, "", "internal error: lower bound exceeds achieved cost\n"
        )

    def test_cycle_cost_above_the_cost(self, capsys, demo_json, monkeypatch):
        # select's own bound is stage 3's cycle cost, the cost of channels
        # all in its selection: reported ten units dearer, it is above the
        # total, and select stops
        import ioselect.matching as matching_mod
        from ioselect.system_model import COST_SCALE

        real = matching_mod.extract_io

        def dearer(g, partners):
            selection, cost = real(g, partners)
            return selection, cost + 10 * COST_SCALE

        monkeypatch.setattr(matching_mod, "extract_io", dearer)
        assert run(capsys, "select", demo_json) == (
            EXIT_INTERNAL, "", "internal error: lower bound exceeds achieved cost\n"
        )

    # every command but bench runs with the cyclic collector paused, and
    # main leaves it as it found it, whatever the exit
    @pytest.mark.parametrize("case", ["ok", "infeasible", "malformed", "internal", "help"])
    def test_main_restores_the_collector(
        self, capsys, collector, demo_json, sfm_json, tmp_path, request, case
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(MALFORMED["not UTF-8"])
        if case == "internal":
            request.getfixturevalue("final_check_fails")
        argv, expected = {
            "ok": (["select", demo_json], EXIT_OK),
            "infeasible": (["select", sfm_json], EXIT_INFEASIBLE),
            "malformed": (["select", str(bad)], EXIT_USAGE),
            "internal": (["select", demo_json], EXIT_INTERNAL),
            "help": (["--help"], EXIT_OK),
        }[case]
        assert main(argv) == expected
        capsys.readouterr()
        assert gc.isenabled() is collector

    def test_bench_trials_run_with_the_collector_on(self, capsys, monkeypatch):
        import ioselect.oracle_bench as oracle_bench

        seen = []
        real = oracle_bench._run_trial

        def run_trial(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(oracle_bench, "_run_trial", run_trial)
        assert gc.isenabled()
        code, _out, _err = run(
            capsys, "bench", "--n", "4", "--m", "1", "--p", "1",
            "--state-density", "0.35", "--trials", "2", "--seed", "3",
        )
        assert code == EXIT_OK and seen == [True, True]

    @pytest.mark.parametrize("argv", [["select"], ["select", "--trace"], ["check"]], ids=" ".join)
    def test_one_instance_commands_run_no_collection(self, capsys, tmp_path, argv):
        # a sparse-shaped instance decodes into thousands of live containers,
        # which would trigger collections that free nothing
        from ioselect import cli, oracle_bench
        from ioselect.system_model import system_to_json

        system = oracle_bench.generate(oracle_bench.GeneratorConfig(
            n=200, m=20, p=20, state_density=5 / 200, input_density=0.2, output_density=0.2, seed=1,
        ))
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(system_to_json(system)))
        cli._parser()  # built once per process, before the pause
        starts = []

        def count(phase, _info):
            if phase == "start":
                starts.append(1)

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            code = main([argv[0], str(path), *argv[1:]])
        finally:
            gc.callbacks.remove(count)
        capsys.readouterr()
        assert code == EXIT_OK and starts == []


MALFORMED = {
    "line 1: Expecting property name enclosed in double quotes": b"{",
    "nesting too deep": b"[" * 100_000,
    "not UTF-8": b'{"n": "\xff"}',
    "integer too long": b'{"n": ' + b"9" * 5000 + b"}",
}


class TestMalformedJson:
    # a file the JSON reader cannot take in is a usage error with one line,
    # whichever command reads it
    @pytest.mark.parametrize("command", ["select", "check", "solve-setcover", "reduce-setcover"])
    @pytest.mark.parametrize("message", list(MALFORMED))
    def test_exit_usage_without_traceback(self, capsys, tmp_path, command, message):
        path = tmp_path / "bad.json"
        path.write_bytes(MALFORMED[message])
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {path}: {message}\n"


class TestOptimizedRun:
    # checks hold without assert statements, so a run under python -O
    # answers byte for byte as the same call in this process
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["select", "DEMO"], EXIT_OK),
            (["select", "DEMO", "--exact", "--trace"], EXIT_OK),
            (["check", "DEMO", "--inputs", "1", "--outputs", "2"], EXIT_INFEASIBLE),
            (["gen", "--n", "2", "--m", "1", "--p", "1", "--max-attempts", "1",
              "--state-density", "0", "--input-density", "0", "--output-density", "0"], EXIT_INFEASIBLE),
            (["gen", "--n", "8", "--m", "3", "--p", "3"], EXIT_OK),
        ],
        ids=["select", "select --exact --trace", "failing check", "gen refusal", "gen defaults"],
    )
    def test_same_answer_as_in_process(self, capsys, demo_json, argv, expected):
        import os
        import subprocess
        import sys

        argv = [demo_json if arg == "DEMO" else arg for arg in argv]
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        optimized = subprocess.run(
            [sys.executable, "-O", "-m", "ioselect.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        in_process = run(capsys, *argv)
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == in_process
        assert in_process[0] == expected


class TestParserOnce:
    # main() builds its parser once per process; parsing must leave it as
    # it was, so a call's result cannot depend on the calls before it.
    @staticmethod
    def argvs(demo_json, out):
        return [
            ["select", demo_json, "--exact", "--trace", "--format", "table", "-o", out],
            ["select", demo_json],
            ["select", demo_json, "--nope"],
            ["check", demo_json, "--inputs", "1"],
            ["check", demo_json],
            ["--help"],
        ]

    def test_one_build_for_many_calls(self, capsys, demo_json, tmp_path, monkeypatch):
        import ioselect.cli as cli

        builds = []
        real = cli.build_parser

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            codes = [main(argv) for argv in self.argvs(demo_json, str(tmp_path / "out.txt"))]
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert codes == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_OK, EXIT_OK]
        assert len(builds) == 1

    def test_reused_parser_answers_like_a_fresh_one(self, capsys, demo_json, tmp_path):
        import ioselect.cli as cli

        out = str(tmp_path / "out.txt")
        argvs = self.argvs(demo_json, out)
        reused = []
        for argv in argvs:
            reused.append((run(capsys, *argv), tmp_path.joinpath("out.txt").read_text()))
        for argv, result in zip(argvs, reused):
            cli._parser.cache_clear()
            assert (run(capsys, *argv), tmp_path.joinpath("out.txt").read_text()) == result
