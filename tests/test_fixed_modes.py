"""Fixed modes over a prime field: an oracle with no graph in it.

Every other oracle restates the graph characterisation the package
implements (condition (a) through SCCs, condition (b) through cycle families
or matchings), so a characterisation wrong in the same way in both would
pass them.  ``oracles.fixed_mode_polynomial`` works from the definition: the
gcd over draws of K of the characteristic polynomial of A + BKC, with random
entries over GF(2^61 - 1).  Every random generator here has a fixed seed.

In continuous mode the selection is free of structurally fixed modes exactly
when that gcd is 1, and condition (b) holds exactly when det(A + BKC) is not
zero for one draw.  Discrete mode is out of this oracle's scope: the
package's discrete rule is condition (a) alone, which is not "no fixed mode
other than λ = 0" (see the README).
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import demo_system, pool_config, systems_with_selection
from ioselect.matching import has_perfect_matching
from ioselect.oracle_bench import generate
from ioselect.selector import check_no_sfm, compile_system, select_min_cost_io
from ioselect.system_model import ModelError, SparsityPattern, system_from_json
from test_golden_cli import _instances

P = oracles.FIELD


@st.composite
def systems_with_selection_and_k(draw):
    """A continuous system, free of fixed modes under the full selection
    half the time, a selection, and a K that is complete or a drawn partial
    pattern."""
    system, sel = draw(systems_with_selection(feasible=draw(st.booleans())))
    if draw(st.booleans()):
        cells = [(i, j) for i in range(system.m) for j in range(system.p)]
        system = replace(system, K=SparsityPattern(system.m, system.p, draw(st.frozensets(st.sampled_from(cells)))))
    return system, sel


def _det(m, prime=P):
    """det(M) over GF(prime) by Gaussian elimination."""
    m = [row[:] for row in m]
    det = 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k] % prime), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k] % prime
        inv = pow(m[k][k], prime - 2, prime)
        for i in range(k + 1, len(m)):
            u = m[i][k] * inv % prime
            m[i] = [(x - u * y) % prime for x, y in zip(m[i], m[k])]
    return det % prime


class TestCharpoly:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_matches_the_determinant(self, n):
        # charpoly(M) at x is det(xI - M), on dense and on sparse matrices
        rng = random.Random(n)
        for density in (1.0, 0.3):
            m = [[rng.randrange(P) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            poly = oracles.charpoly(m)
            assert len(poly) == n + 1 and poly[-1] == 1
            for _ in range(3):
                x = rng.randrange(P)
                shifted = [[(x * (i == j) - m[i][j]) % P for j in range(n)] for i in range(n)]
                assert sum(c * pow(x, d, P) for d, c in enumerate(poly)) % P == _det(shifted)

    def test_gcd(self):
        # (x - 1)(x - 2) and (x - 2)(x - 3) share x - 2; x and x + 1 nothing
        assert oracles.poly_gcd([2, P - 3, 1], [6, P - 5, 1]) == [P - 2, 1]
        assert oracles.poly_gcd([0, 1], [1, 1]) == [1]


class TestAgainstTheGraphConditions:
    @given(systems_with_selection_and_k())
    @settings(max_examples=150, deadline=None)
    def test_no_sfm_exactly_when_the_gcd_is_1(self, case):
        system, sel = case
        gcd = oracles.fixed_mode_polynomial(system, sel, random.Random(1))
        assert check_no_sfm(system, sel).ok == (gcd == [1]), (system, sel, gcd)

    @given(systems_with_selection_and_k())
    @settings(max_examples=150, deadline=None)
    def test_condition_b_exactly_when_the_determinant_is_not_0(self, case):
        # the characteristic polynomial's constant term is (-1)^n det(M)
        system, sel = case
        poly = oracles.fixed_mode_polynomial(system, sel, random.Random(2), draws=1)
        assert has_perfect_matching(compile_system(system).graph, sel) == (poly[0] != 0), (system, sel, poly)


def _answered():
    """The continuous systems that ``select`` answers: the demo, the golden
    CLI systems, and three wide and three oracle pool members."""
    systems = {"demo": demo_system()}
    for name, doc in _instances().items():
        systems[f"golden {name}"] = system_from_json(doc)
    for workload in ("wide", "oracle"):
        for member in range(3):
            systems[f"{workload} {member}"] = generate(pool_config(workload, member))
    return systems


def test_every_select_answer_has_no_fixed_mode():
    answered = 0
    for name, system in _answered().items():
        try:
            report = select_min_cost_io(system)
        except ModelError:  # fixed modes, a partial K or an invalid system
            continue
        answered += 1
        gcd = oracles.fixed_mode_polynomial(system, report.selection, random.Random(3))
        assert gcd == [1], (name, report.selection, gcd)
    assert answered >= 12
