"""Exact permutation group orders and ordered-pair orbits: against the
breadth-first closure on small groups, and against closed forms on groups
far too large to list."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import permutation_closure_oracle

from ncprism.finitefield import (
    FiniteFieldSpec,
    GaloisField,
    pair_orbit_size,
    permutation_closure_size,
    projective_action,
    projective_line,
    psl2_order,
)


def cycle(n, points):
    """The permutation of range(n) that cycles ``points`` in order."""
    perm = list(range(n))
    for src, dst in zip(points, points[1:] + points[:1]):
        perm[src] = dst
    return perm


def symmetric_generators(n):
    """(0 1) and (0 1 ... n-1), which generate the symmetric group S_n."""
    return [cycle(n, [0, 1]), cycle(n, list(range(n)))]


@st.composite
def generator_sets(draw):
    n = draw(st.integers(0, 9))
    return draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))


class TestPermutationClosureSize:
    # The cap keeps the breadth-first oracle cheap: random permutations of
    # degree 9 mostly generate A_9 or S_9, which it would list in full.
    @settings(max_examples=300)
    @given(generator_sets(), st.integers(0, 3000))
    def test_agrees_with_breadth_first_closure(self, gens, limit):
        assert permutation_closure_size(gens, limit) == permutation_closure_oracle(gens, limit)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_symmetric_group(self, n):
        order = math.factorial(n)
        assert permutation_closure_size(symmetric_generators(n), 10 * order) == order

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 20, 30])
    def test_alternating_group_from_three_cycles(self, n):
        gens = [cycle(n, [0, 1, i]) for i in range(2, n)]
        order = math.factorial(n) // 2
        assert permutation_closure_size(gens, 10 * order) == order

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_classical_pair_generates_psl2(self, q):
        gf = GaloisField(FiniteFieldSpec(q, 1))
        points = projective_line(gf)
        gens = [projective_action(gf, mat, points) for mat in (((0, -1), (1, -1)), ((0, -1), (1, 0)))]
        assert permutation_closure_size(gens, 10**9) == psl2_order(q)

    @pytest.mark.parametrize("gens", [[[]], [[0]], [[0, 1, 2]], [[0, 1, 2, 3]] * 3])
    def test_identity_generators_give_the_trivial_group(self, gens):
        assert permutation_closure_size(gens, 10) == 1

    def test_cap(self):
        gens = symmetric_generators(12)
        order = math.factorial(12)
        for limit in (0, 1, 5, order - 1):
            assert permutation_closure_size(gens, limit) == limit + 1
        for limit in (order, order + 1, 10**12):
            assert permutation_closure_size(gens, limit) == order

    @pytest.mark.parametrize(
        "gens, match",
        [
            ([], "no generators"),
            ([[1, 0, 2], [1, 0]], "unequal length"),
            ([[0, 0, 1]], "not a permutation"),
            ([[0, 1, 2], [1, 2, 3]], "not a permutation"),
        ],
    )
    def test_invalid_generators_raise(self, gens, match):
        with pytest.raises(ValueError, match=match):
            permutation_closure_size(gens, 10)


def group_elements(gens):
    """Every element of the generated permutation group, listed breadth first."""
    identity = tuple(range(len(gens[0])))
    seen, frontier = {identity}, [identity]
    while frontier:
        found = []
        for perm in frontier:
            for g in gens:
                composed = tuple(g[i] for i in perm)
                if composed not in seen:
                    seen.add(composed)
                    found.append(composed)
        frontier = found
    return seen


class TestPairOrbitSize:
    @settings(max_examples=200)
    @given(st.integers(2, 6).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
    def test_agrees_with_the_listed_group(self, gens):
        orbit = {(g[0], g[1]) for g in group_elements([tuple(g) for g in gens])}
        assert pair_orbit_size(gens) == len(orbit)

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
    def test_symmetric_and_cyclic_groups(self, n):
        assert pair_orbit_size(symmetric_generators(n)) == n * (n - 1)
        assert pair_orbit_size([cycle(n, list(range(n)))]) == n

    @pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_classical_pair_is_two_transitive(self, q):
        gf = GaloisField(FiniteFieldSpec(q, 1))
        points = projective_line(gf)
        gens = [projective_action(gf, mat, points) for mat in (((0, -1), (1, -1)), ((0, -1), (1, 0)))]
        assert pair_orbit_size(gens) == q * (q + 1)

    @pytest.mark.parametrize(
        "gens, match",
        [([], "no generators"), ([[0]], "at least 2 points"), ([[0, 0, 1]], "not a permutation")],
    )
    def test_invalid_generators_raise(self, gens, match):
        with pytest.raises(ValueError, match=match):
            pair_orbit_size(gens)
