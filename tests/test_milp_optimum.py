"""The exact selection against an optimum that shares no code with it.

``oracles.milp_optimum`` solves each side as an integer program with
scipy's MILP solver (HiGHS): the cover rows come from networkx's
condensation, and in continuous mode the matching rows from the stars
themselves, so neither ``branch_and_bound`` nor the package's graphs,
covers or matchings are involved.  Every member of the benchmark's oracle
pool is checked in both modes: the solver's selection is free of fixed
modes by the networkx oracles, its cost lies between the report's lower
bound and its cost, and ``exact_select`` finds the same cost.  Skipped
without scipy.
"""

from dataclasses import replace

import pytest

import oracles
from conftest import benchmark_workloads
from ioselect.oracle_bench import exact_select, generate
from ioselect.selector import select_min_cost_io

pytest.importorskip("scipy")


@pytest.fixture(scope="module")
def oracle_pool():
    return [generate(spec.config) for spec in benchmark_workloads().WORKLOADS["oracle"].pool]


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_exact_select_matches_milp(oracle_pool, mode):
    assert len(oracle_pool) == 104
    for member, system in enumerate(oracle_pool):
        system = replace(system, mode=mode)
        sel, optimum = oracles.milp_optimum(system)
        assert oracles.condition_a(system, sel), member
        # condition (b) binds only in continuous mode
        assert mode == "discrete" or oracles.hall_set(system, sel) is None, member
        report = select_min_cost_io(system)
        assert report.lower_bound <= optimum <= report.total_cost, member
        assert exact_select(report)[1] == optimum, member
