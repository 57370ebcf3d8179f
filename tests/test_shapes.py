"""The ladder shapes that ``tests/oracles.py`` builds: each one's instance
digest is pinned, so a record taken on a shape names the instance it ran,
and the scale shape's size, cost range and tag are checked."""

import pytest

import oracles
from ioselect.oracle_bench import instance_digest
from ioselect.selector import select_min_cost_io
from ioselect.system_model import COST_SCALE, validate

DIGESTS = {
    "scale-1600": ("422ddf823f352baa", lambda: oracles.scale_system(1600, 1)),
    "diagonal-1000": ("e8b7fd1d7c0ed8dc", lambda: oracles.diagonal_system(1000)),
    "widemask-1000": ("a6e909ab0c3f45d7", lambda: oracles.widemask_system(1000)),
}


@pytest.mark.parametrize("shape", DIGESTS)
def test_shape_digest_is_pinned(shape):
    digest, build = DIGESTS[shape]
    assert instance_digest(build()) == digest


def test_scale_shape():
    system = oracles.scale_system(1600, 1)
    assert validate(system).ok
    for pat in (system.A, system.B, system.C):  # of_checked_rows' contract
        assert all(row == sorted(set(row)) for row in pat.by_row)
    assert (system.n, system.m, system.p) == (1600, 160, 160)
    assert all(COST_SCALE <= c <= 100 * COST_SCALE for c in system.cost_u + system.cost_y)
    assert sum(i in row for i, row in enumerate(system.A.by_row)) in range(1500, 1561)  # 19 rows in 20
    assert all(len(row) in (1, 2) for row in system.B.by_row)  # two draws per state
    assert select_min_cost_io(system).special_case == "single_nontop"
    assert instance_digest(oracles.scale_system(1600, 2)) != DIGESTS["scale-1600"][0]
