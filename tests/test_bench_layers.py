"""Smoke test of ``scripts/bench_layers.py``: one repeat of its layers, on a
small member of the sparse shape and on a short chain, records by name the
layers of the first record's sparse-400 and chain-640 entries in
``BENCH_pr26.json``.  No timing is checked."""

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
