"""Exact permutation group orders and ordered-pair orbits: against the
breadth-first closure on small groups, and against closed forms on groups
far too large to list. The trace rule ``generates_psl2`` against the
ordered-pair orbit."""

import collections
import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FACTORY_MODULI,
    irreducible_specs,
    pair_orbit_oracle,
    permutation_closure_oracle,
    psl2_order,
)

from ncprism.finitefield import (
    FiniteFieldSpec,
    GaloisField,
    factor_prime_power,
    generates_psl2,
    permutation_closure_size,
    prime_factors,
    projective_action,
    sl2_involutions,
)

U = ((0, -1), (1, -1))


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
        gens = [projective_action(gf, mat) for mat in (U, ((0, -1), (1, 0)))]
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


class TestPairOrbitOracle:
    @settings(max_examples=200)
    @given(st.integers(2, 6).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
    def test_agrees_with_the_listed_group(self, gens):
        orbit = {(g[0], g[1]) for g in group_elements([tuple(g) for g in gens])}
        assert pair_orbit_oracle(gens) == len(orbit)

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
    def test_symmetric_and_cyclic_groups(self, n):
        assert pair_orbit_oracle(symmetric_generators(n)) == n * (n - 1)
        assert pair_orbit_oracle([cycle(n, list(range(n)))]) == n

    @pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_classical_pair_is_two_transitive(self, q):
        gf = GaloisField(FiniteFieldSpec(q, 1))
        gens = [projective_action(gf, mat) for mat in (U, ((0, -1), (1, 0)))]
        assert pair_orbit_oracle(gens) == q * (q + 1)


def orbit_generates(gf, v):
    """Whether <U, v> acts 2-transitively on P^1(F_q), which for q >= 4 only
    PSL2(F_q) does (Dickson)."""
    gens = [projective_action(gf, mat) for mat in (U, v)]
    return pair_orbit_oracle(gens) == gf.q * (gf.q + 1)


def rejecting_clauses(gf, v, exempt=True):
    """The names of the trace rule's clauses that reject v, each written out
    again on its own from gamma = tr Uv; the A5 clause exempts q = 4 and 5
    only if ``exempt``."""
    (a, b), (c, _) = v
    gamma = gf.add(gf.add(a, b), gf.neg(c))
    square = gf.mul(gamma, gamma)

    def power(x, n):
        y = gf.one
        for _ in range(n):
            y = gf.mul(y, x)
        return y

    clauses = {
        "singular": square == gf.from_int(3),
        "order 2": gamma == gf.zero,
        "order 3": square == gf.one,
        "order 4": square == gf.from_int(2),
        "A5": not (exempt and gf.q in (4, 5)) and square in (gf.add(gamma, gf.one), gf.add(gf.neg(gamma), gf.one)),
        "subfield": any(power(square, gf.p ** (gf.e // r)) == square for r, _ in prime_factors(gf.e)),
    }
    return {name for name, holds in clauses.items() if holds}


# Every prime power 4 <= q <= 32 but 9.
SMALL_Q = [q for q in range(4, 33) if len(prime_factors(q)) == 1 and q != 9]


@functools.cache
def small_field_candidates(q):
    """The default field of order q and, for each of its sl2_involutions
    candidates, the candidate and the oracle's verdict."""
    gf = GaloisField(FiniteFieldSpec(*factor_prime_power(q)))
    return gf, [(v, orbit_generates(gf, v)) for v in sl2_involutions(gf)]


class TestGeneratesPsl2:
    @pytest.mark.parametrize("q", SMALL_Q)
    def test_agrees_with_the_orbit_on_every_candidate(self, q):
        gf, candidates = small_field_candidates(q)
        assert [generates_psl2(gf, v) for v, _ in candidates] == [ok for _, ok in candidates]

    @pytest.mark.parametrize("q", [49, 64, 81, 121, 169])
    def test_agrees_with_the_orbit_on_a_prefix(self, q):
        gf = GaloisField(FiniteFieldSpec(*factor_prime_power(q)))
        for v in itertools.islice(sl2_involutions(gf), 12):
            assert generates_psl2(gf, v) == orbit_generates(gf, v)

    @pytest.mark.parametrize("q, index", [(q, i) for q, count in FACTORY_MODULI.items() for i in range(count)])
    def test_agrees_through_the_first_accepted_candidate(self, q, index):
        gf = GaloisField(irreducible_specs(*factor_prime_power(q))[index])
        for v in sl2_involutions(gf):
            accepted = orbit_generates(gf, v)
            assert generates_psl2(gf, v) == accepted
            if accepted:
                break

    def test_each_clause_is_needed(self):
        # A clause is needed when it alone rejects some candidate the orbit
        # rejects: without it the rule would accept that candidate.
        alone, exempted, total = collections.Counter(), collections.Counter(), 0
        for q in SMALL_Q:
            gf, candidates = small_field_candidates(q)
            total += len(candidates)
            for v, accepted in candidates:
                clauses = rejecting_clauses(gf, v)
                assert generates_psl2(gf, v) == (not clauses)
                if not accepted and len(clauses) == 1:
                    alone.update(clauses)
                if accepted and rejecting_clauses(gf, v, exempt=False) == {"A5"}:
                    exempted[q] += 1
        assert total == 6026
        assert alone == {"singular": 54, "order 2": 156, "order 3": 312, "order 4": 156, "A5": 360}
        assert exempted == {4: 6, 5: 12}
        # The subfield clause is first needed at q = 49: its seventh
        # candidate generates a group with an orbit of 168 ordered pairs.
        gf = GaloisField(FiniteFieldSpec(7, 2))
        v = next(itertools.islice(sl2_involutions(gf), 6, None))
        assert rejecting_clauses(gf, v) == {"subfield"}
        assert pair_orbit_oracle([projective_action(gf, mat) for mat in (U, v)]) == 168
