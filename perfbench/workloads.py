"""The benchmark's workloads: which instances a run gets from its seed.

Every workload draws its instances from a fixed pool, so the golden output
digests in ``golden.json`` cover every instance any seed can pick.  The seed
chooses which pool members a run uses; the same seed always gives the same
instances in the same order.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Union

from ioselect import oracle_bench
from ioselect.graph_core import build_graphs, decompose_sccs
from ioselect.selector import detect_special_case
from ioselect.system_model import COMPLETE, SparsityPattern, StructuredSystem, parse_cost, system_to_json


@dataclass(frozen=True)
class Generated:
    """A pool member drawn by the library's seeded generator."""

    config: oracle_bench.GeneratorConfig

    @property
    def label(self) -> str:
        return f"gen-{self.config.seed}"

    def build(self) -> StructuredSystem:
        # Looked up at call time, so a traced set-up sees the wrapped function.
        return oracle_bench.generate(self.config)


@dataclass(frozen=True)
class Chain:
    """The adversarial cycle A = {(i,i), (i,i+1)} u {(n-1,0)} with a few inputs
    driving states in [0, w) and a few outputs reading states in [w, 2w).

    An augmenting path from an output to an input must walk almost the whole
    cycle, so matching depth grows with n whatever the seeded attachment
    points and costs are.
    """

    n: int
    variant: int

    io_count = 3
    window = 8

    @property
    def label(self) -> str:
        return f"chain-{self.n}-{self.variant}"

    def build(self) -> StructuredSystem:
        n, w, k = self.n, self.window, self.io_count
        rng = random.Random(f"chain:{n}:{self.variant}")
        a = {(i, i) for i in range(n)} | {(i, i + 1) for i in range(n - 1)} | {(n - 1, 0)}
        b = {(rng.randrange(w), j) for j in range(k) for _ in range(2)}
        c = {(j, w + rng.randrange(w)) for j in range(k) for _ in range(2)}
        return StructuredSystem(
            A=SparsityPattern(n, n, frozenset(a)),
            B=SparsityPattern(n, k, frozenset(b)),
            C=SparsityPattern(k, n, frozenset(c)),
            K=COMPLETE,
            cost_u=tuple(parse_cost(rng.randint(1, 99)) for _ in range(k)),
            cost_y=tuple(parse_cost(rng.randint(1, 99)) for _ in range(k)),
        )


Spec = Union[Generated, Chain]


def _generated_pool(size: int, **params) -> tuple[Generated, ...]:
    return tuple(
        Generated(oracle_bench.GeneratorConfig(cost_range=("1", "99"), seed=s, **params))
        for s in range(size)
    )


# Chain sizes: a ladder from 128 to 640, so the call times spread evenly and
# the median does not sit on one instance whose samples the machine's own
# speed swings split in two.  Every size below about 1000 succeeds today;
# 1536 raises RecursionError in the recursive Hopcroft-Karp augment, so the
# known defect shows as one failed instance in eighteen (5.6%).  That is
# below the 10% of samples beyond p90, so select_tail_s stays finite.
CHAIN_SIZES = tuple(range(128, 641, 32))
CHAIN_FAILING_SIZE = 1536
CHAIN_VARIANTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    select_flags: tuple[str, ...]
    pool: tuple[Spec, ...]
    pick: Callable[[random.Random, tuple[Spec, ...]], list[Spec]]  # a run's instances
    # Nominal seconds one pass over a run's instances takes on the reference
    # machine; it fixes the number of passes, so a run makes the same number
    # of calls on every commit.
    round_s: float

    def choose(self, seed: int) -> list[Spec]:
        return self.pick(random.Random(f"{self.name}:{seed}"), self.pool)

    def rounds(self, seconds: float, instances: int) -> int:
        """Passes over the instances: about ``seconds`` of calls on the
        reference machine, and never fewer than 20 calls, so a tail exists."""
        return max(math.ceil(20 / instances), round(seconds / self.round_s))


def _sample(count: int):
    """Picks ``count`` pool members, in pool order."""
    return lambda rng, pool: [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]


def _chain_pick(rng: random.Random, _pool) -> list[Spec]:
    """One seeded variant of every size, the failing size last."""
    return [Chain(n, rng.randrange(CHAIN_VARIANTS)) for n in CHAIN_SIZES + (CHAIN_FAILING_SIZE,)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse",
            why="large plant, m = p = n/10: per-state work (restrict, graph builds, SCCs, witness) dominates",
            select_flags=(),
            pool=_generated_pool(
                32, n=400, m=40, p=40, state_density=5 / 400, input_density=0.2, output_density=0.2
            ),
            pick=_sample(6),
            round_s=1.9,
        ),
        Workload(
            name="wide",
            why="m*p >> n: the complete feedback block, the matching Dijkstra and the greedy over many sets dominate",
            select_flags=(),
            pool=_generated_pool(
                32, n=60, m=120, p=120, state_density=2.5 / 60, input_density=0.03, output_density=0.03
            ),
            pick=_sample(10),
            round_s=2.8,
        ),
        Workload(
            name="oracle",
            why="select --exact, m + p = 10: 2^10 SFM checks on tiny restricted systems, so per-call rebuilds dominate",
            select_flags=("--exact",),
            pool=_generated_pool(
                104, n=30, m=5, p=5, state_density=0.1, input_density=0.2, output_density=0.2
            ),
            # The exact search's time per instance ranges from 0.03 to 0.8 s, so
            # a run takes nearly the whole pool: its median then hardly
            # depends on which instances the seed left out.
            pick=_sample(96),
            round_s=19.5,
        ),
        Workload(
            name="chain",
            why="long cycle: matching depth grows with n; the largest size hits the recursion limit",
            select_flags=(),
            pool=tuple(
                Chain(n, v) for n in CHAIN_SIZES + (CHAIN_FAILING_SIZE,) for v in range(CHAIN_VARIANTS)
            ),
            pick=_chain_pick,
            round_s=1.75,
        ),
    )
}


def set_up(specs: list[Spec], directory: str) -> tuple[list[str], list[StructuredSystem]]:
    """Build every instance and write it as JSON; returns paths and systems."""
    os.makedirs(directory, exist_ok=True)
    paths, systems = [], []
    for i, spec in enumerate(specs):
        system = spec.build()
        path = os.path.join(directory, f"{i:02d}-{spec.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(system_to_json(system), fh)
        paths.append(path)
        systems.append(system)
    return paths, systems


def describe(spec: Spec, system: StructuredSystem) -> dict:
    """The instance's inputs, so two commits can be shown to run the same ones."""
    sg, _dg = build_graphs(system)
    scc = decompose_sccs(sg)
    return {
        "label": spec.label,
        "n": system.n,
        "m": system.m,
        "p": system.p,
        "nnz_A": len(system.A.stars),
        "nnz_B": len(system.B.stars),
        "nnz_C": len(system.C.stars),
        "mp": system.m * system.p,
        "q": scc.q,
        "k": scc.k,
        "sccs": len(scc.components),
        "special_case": detect_special_case(system),
        "digest": oracle_bench.instance_digest(system),
    }
