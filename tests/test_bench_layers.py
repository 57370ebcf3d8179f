"""Smoke test of ``scripts/bench_layers.py``: one repeat of its layers, on a
small member of the sparse shape and on a short chain, records by name the
layers of the first record's sparse-400 and chain-640 entries in
``BENCH_pr26.json``; times both greedy covers on small members of the two
cover shapes, stage 3 on a small member of the scale shape, and the exact
path on the oracle shape; and the record's paired gap, from scripted layer
and end-to-end times.  No timing is checked."""

import dataclasses
import importlib.util
import json
import pathlib

import pytest

from ioselect.system_model import system_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "scripts" / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_layers)


def _recorded_layers(shape: str) -> set[str]:
    with open(ROOT / "BENCH_pr26.json", encoding="utf-8") as fh:
        record = json.load(fh)["records"][0]
    (entry,) = [s for s in record["shapes"] if s["shape"] == shape]
    return set(entry["layers_s"])


def _small_sparse():
    sparse = bench_layers.workloads.WORKLOADS["sparse"].pool[0]
    config = dataclasses.replace(sparse.config, n=40, m=4, p=4, state_density=3 / 40)
    return bench_layers.workloads.Generated(config).build()


# a small instance of each recorded shape, and what runs on it
SMALL = {
    "sparse-400": _small_sparse,  # stage 3 and both covers
    "chain-640": lambda: bench_layers.workloads.Chain(24, 0).build(),  # irreducible: the covers alone
}


@pytest.mark.parametrize("shape", SMALL)
def test_time_layers_names_the_recorded_layers(shape, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(system_to_json(SMALL[shape]())), encoding="utf-8")
    seconds, _case = bench_layers.time_layers(str(path))
    assert set(seconds) == _recorded_layers(shape)


@pytest.mark.parametrize("shape", ["diagonal", "widemask"])
def test_cover_shapes_time_both_greedy_covers(shape, tmp_path):
    # the ladder shapes of tests/oracles.py, at n = 50 in place of 10,000
    assert f"{shape}-10000" in bench_layers._shapes()
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(system_to_json(getattr(bench_layers.oracles, f"{shape}_system")(50))), encoding="utf-8")
    seconds, _case = bench_layers.time_layers(str(path))
    assert {"accessibility", "sensability"} <= set(seconds)


def test_scale_shape_times_stage3(tmp_path):
    # the scale shape of tests/oracles.py, at n = 400 in place of 12,800
    assert {"scale-12800", "scale-25600"} <= set(bench_layers._shapes())
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(system_to_json(bench_layers.oracles.scale_system(400, 1))), encoding="utf-8")
    seconds, case = bench_layers.time_layers(str(path))
    assert {"stage3", "accessibility", "sensability"} <= set(seconds)
    assert case == "single_nontop"


def test_oracle_shape_times_the_exact_path(tmp_path):
    # the first oracle pool member, selected with --exact as its workload
    # selects: both exact cover optima and exact_select get a layer, which
    # a plain select of it does not time
    assert "oracle-30" in bench_layers._shapes() and "oracle-30" in bench_layers.EXACT
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(system_to_json(bench_layers._shapes()["oracle-30"]())), encoding="utf-8")
    exact = {"exact_covers", "exact_select"}
    seconds, _case = bench_layers.time_layers(str(path), exact=True)
    assert exact <= set(seconds)
    plain, _case = bench_layers.time_layers(str(path))
    assert not exact & set(plain)
    assert bench_layers.time_main(str(path), exact=True) > 0


def test_gap_is_the_median_of_paired_repeats(monkeypatch, tmp_path):
    # scripted repeats whose best layers and best end-to-end time come from
    # different repeats: the unpaired gap would read 3.1 - 2.0 = 1.1, and
    # the paired gaps are 0.5, 0.1 and 0.3
    layers = iter([{"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 1.0}, {"a": 1.5, "b": 1.5}])
    main = iter([3.5, 3.1, 3.3])
    monkeypatch.setattr(bench_layers, "time_layers", lambda path, exact: (next(layers), "general"))
    monkeypatch.setattr(bench_layers, "time_main", lambda path, exact: next(main))
    record = bench_layers.bench_shape("chain-24", SMALL["chain-640"], str(tmp_path), repeats=3)
    assert record["layers_s"] == {"a": 1.0, "b": 1.0}
    assert record["layer_sum_s"] == 2.0 and record["end_to_end_s"] == 3.1
    assert record["gap_s"] == 0.3


def test_generated_shapes_fit_the_cell_limit():
    # the generator refuses an attempt of more than CELL_LIMIT pattern
    # cells; the largest shape generated here, sparse-6400, fits.  Only the
    # configs are built, and nothing is drawn
    from ioselect.oracle_bench import CELL_LIMIT

    generated = {
        name: build.__self__.config
        for name, build in bench_layers._shapes().items()
        if isinstance(getattr(build, "__self__", None), bench_layers.workloads.Generated)
    }
    cells = {name: c.n * (c.n + c.m + c.p) for name, c in generated.items()}
    assert max(cells, key=cells.get) == "sparse-6400"
    assert cells["sparse-6400"] == 49_152_000 <= CELL_LIMIT
