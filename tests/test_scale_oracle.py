"""Stage 3's cost against scipy's sparse assignment solver, at the sizes of
the benchmark's pools.

The brute-force and networkx oracles only reach desk-sized systems.
``oracles.scipy_min_cost`` solves the same minimum-cost perfect matching of
B(A, B, C, K), with K expanded into its m*p feedback edges, by a different
algorithm (LAPJVsp), fast enough for the sparse (n = 400, m = p = 40) and
wide (n = 60, m = p = 120) instances the benchmark selects on.
"""

import pytest
from hypothesis import given

import oracles
from ioselect.matching import NoPerfectMatching, build_bipartite, min_cost_perfect_matching
from ioselect.oracle_bench import GeneratorConfig, generate
from test_hub import COMPLETE_KINDS, wide_systems

pytest.importorskip("scipy")

# the GeneratorConfig parameters of the benchmark's sparse and wide pools
POOLS = {
    "sparse": dict(n=400, m=40, p=40, state_density=5 / 400, input_density=0.2, output_density=0.2),
    "wide": dict(n=60, m=120, p=120, state_density=2.5 / 60, input_density=0.03, output_density=0.03),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_stage3_cost_matches_scipy(pool, seed):
    system = generate(GeneratorConfig(cost_range=("1", "99"), seed=seed, **POOLS[pool]))
    ref = oracles.scipy_min_cost(system)
    assert ref is not None
    assert min_cost_perfect_matching(build_bipartite(system)).total_cost == ref


@given(wide_systems(kinds=COMPLETE_KINDS))
def test_small_systems_agree(system):
    # zero costs and systems without a perfect matching included
    ref = oracles.scipy_min_cost(system)
    g = build_bipartite(system)
    if ref is None:
        with pytest.raises(NoPerfectMatching):
            min_cost_perfect_matching(g)
        return
    assert min_cost_perfect_matching(g).total_cost == ref
