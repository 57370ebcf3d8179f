import functools
import importlib.util
import os
import sys
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, settings

from ioselect.matching import hall_set
from ioselect.oracle_bench import GenerationFailed, GeneratorConfig, generate
from ioselect.system_model import (
    COMPLETE,
    Selection,
    SparsityPattern,
    StructuredSystem,
    parse_cost,
)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("default")


WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


@functools.cache
def benchmark_workloads():
    """perfbench/workloads.py, loaded once by path and unedited, so tests
    read the benchmark's pools from the file the benchmark runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def workloads():
    return benchmark_workloads()


def pool_config(workload, member):
    """The generator config of member ``member`` of a generated pool."""
    return benchmark_workloads().WORKLOADS[workload].pool[member].config


def from_pairs(rows, cols, pairs):
    """The pattern of 1-based [row, col] pairs (the JSON convention)."""
    return SparsityPattern(rows, cols, frozenset((i - 1, j - 1) for i, j in pairs))


def make_system(n, m, p, a_stars, b_stars, c_stars, cost_u=None, cost_y=None, mode="continuous"):
    """Build from 1-based star pairs; unit costs unless given (whole units)."""
    return StructuredSystem(
        A=from_pairs(n, n, a_stars),
        B=from_pairs(n, m, b_stars),
        C=from_pairs(p, n, c_stars),
        K=COMPLETE,
        cost_u=tuple(parse_cost(c) for c in (cost_u or [1] * m)),
        cost_y=tuple(parse_cost(c) for c in (cost_y or [1] * p)),
        mode=mode,
    )


# 4-state running example: two source states x2, x4, a sink state x3 read by
# y1, and y2 on x1.  Small enough to verify every pipeline stage by hand.
DEMO_A = [(1, 1), (1, 2), (2, 2), (3, 1), (3, 2), (3, 4), (4, 4)]
DEMO_B = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (4, 3)]
DEMO_C = [(1, 3), (2, 1)]


def matching_cost(g, partners):
    """The cost of a matching of ``g`` given as its partner list, priced
    edge by edge."""
    return sum(g.edge(l, r)[1] for l, r in enumerate(partners))


def hall_ids(g, sel=None):
    """The Hall set that ``matching.hall_set(g, sel)`` carries, as vertex
    ids of ``g`` (left, then right, each ascending), or None when the
    restricted graph has a perfect matching."""
    hall = hall_set(g, sel)
    if hall is None:
        return None
    ids = {g.right_name(v): v for v in range(g.size)}
    return tuple(ids[label[:-1]] for label in hall.left_labels), tuple(map(ids.__getitem__, hall.right_labels))


def demo_system(cost_u=None, cost_y=None, mode="continuous"):
    return make_system(4, 3, 2, DEMO_A, DEMO_B, DEMO_C, cost_u, cost_y, mode)


@pytest.fixture
def demo():
    return demo_system()


@pytest.fixture
def exact_cover_too_heavy(monkeypatch):
    """``oracle_bench.exact_solve`` made to return its seed ten cost units
    heavier, so an exact-cover lower bound exceeds what the demo's
    selection costs."""
    import ioselect.oracle_bench as oracle_bench_mod
    from ioselect.system_model import COST_SCALE

    def heavier(inst, seed):
        return replace(seed, weight=seed.weight + 10 * COST_SCALE)

    monkeypatch.setattr(oracle_bench_mod, "exact_solve", heavier)


@pytest.fixture
def demo_json(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(
        '{"n":4,"m":3,"p":2,'
        '"A":[[1,1],[1,2],[2,2],[3,1],[3,2],[3,4],[4,4]],'
        '"B":[[1,1],[1,3],[2,2],[2,3],[3,1],[3,2],[4,3]],'
        '"C":[[1,3],[2,1]],"K":"complete",'
        '"cost_u":["1","1","1"],"cost_y":["1","1"],"mode":"continuous"}'
    )
    return str(path)


@st.composite
def systems(
    draw,
    max_n=6,
    max_m=3,
    max_p=3,
    feasible=False,
    mode="continuous",
    max_cost=9,
):
    """Random structured systems via the deterministic generator; hypothesis
    shrinks over the config, the seed fixes the draw."""
    cfg = GeneratorConfig(
        n=draw(st.integers(1, max_n)),
        m=draw(st.integers(1, max_m)),
        p=draw(st.integers(1, max_p)),
        state_density=draw(st.sampled_from([0.1, 0.2, 0.35, 0.5])),
        input_density=draw(st.sampled_from([0.3, 0.5, 0.8])),
        output_density=draw(st.sampled_from([0.3, 0.5, 0.8])),
        cost_range=("1", str(draw(st.integers(1, max_cost)))),
        seed=draw(st.integers(0, 2**48 - 1)),
        mode=mode,
        require_feasible=feasible,
        max_attempts=40,
    )
    try:
        return generate(cfg)
    except GenerationFailed:
        assume(False)


@st.composite
def selections(draw, system):
    inputs = draw(st.frozensets(st.integers(0, system.m - 1)))
    outputs = draw(st.frozensets(st.integers(0, system.p - 1)))
    return Selection(inputs=inputs, outputs=outputs)


@st.composite
def systems_with_selection(draw, **kwargs):
    system = draw(systems(**kwargs))
    return system, draw(selections(system))
