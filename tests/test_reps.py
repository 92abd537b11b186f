import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    FACTORY_MODULI,
    closure_order_oracle,
    irreducible_specs,
    permutation_closure_oracle,
    poly_mul,
    psl2_order,
    random_unitary,
    within_bounds,
    worst,
)

import ncprism.cli
import ncprism.finitefield
import ncprism.matkernel
import ncprism.reps

from ncprism.errors import (
    AssemblyFailedError,
    NcprismError,
    IndexOutOfRangeError,
    LambdaOutOfRangeError,
    NotSymmetryError,
    OrderMismatchError,
    RelationCheckFailedError,
    ShapeMismatchError,
    SizeBudgetExceededError,
    UnsupportedQError,
)
from ncprism.finitefield import (
    FiniteFieldSpec,
    GaloisField,
    factor_prime_power,
    projective_action,
    projective_line,
    sl2_involutions,
)
from ncprism.matkernel import (
    SPEC_TOL,
    commutant_dimension,
    dagger,
    direct_sum,
    opnorm,
)
from ncprism.reps import (
    S3_RELATIONS,
    A4_RELATIONS,
    a4_pair,
    assemble_dimension,
    canonical_form_residuals,
    generated_group_order,
    hadamard_residuals,
    hadamard_symmetries,
    pair_residuals,
    prism_character,
    prism_vertex_rep,
    s3_pair,
    square_irrep,
    steinberg_pair,
    symmetry_tuple_residuals,
    tensor_pair,
    two_symmetry_canonical_form,
    universal_square_pair,
    vertex_residuals,
)


# The row that certifies the S3 and A4 pairs irreducible.
NONCOMMUTING = "||WV - VW||_F >= 1"


@pytest.mark.parametrize("recheck, shapes", [
    (lambda: vertex_residuals(prism_vertex_rep(3, 0, 1)[0], np.ones(4) / 2, 0, 1), "4 and 3 x 3"),
    (lambda: vertex_residuals(prism_vertex_rep(3, 0, 1)[0], np.ones((1, 3)), 0, 1), "1 x 3 and 3 x 3"),
    (lambda: canonical_form_residuals(np.eye(2), np.eye(2), two_symmetry_canonical_form(np.eye(3), -np.eye(3))),
     "2 x 2 and 2 x 2 and 3 x 3"),
    (lambda: canonical_form_residuals(np.eye(3), np.eye(2), two_symmetry_canonical_form(np.eye(3), -np.eye(3))),
     "3 x 3 and 2 x 2 and 3 x 3"),
    (lambda: symmetry_tuple_residuals([np.eye(2), np.eye(3)]), "2 x 2, 3 x 3"),
    (lambda: symmetry_tuple_residuals([]), "none"),
], ids=["vertex-length", "vertex-row", "canonical-dimension", "canonical-ragged", "tuple-ragged", "tuple-empty"])
def test_rechecks_refuse_operands_of_another_size(recheck, shapes):
    # Named, rather than a numpy error (matmul, broadcast) or, for the
    # ragged symmetry tuple, every row passing: SymmetryTuple refuses it.
    with pytest.raises(ShapeMismatchError, match=f"got {shapes}$"):
        recheck()


def test_rechecks_of_valid_operands_keep_their_rows():
    pair, xi = prism_vertex_rep(4, 1, -1)
    assert vertex_residuals(pair, xi[:, None], 1, -1) == vertex_residuals(pair, xi, 1, -1)
    assert [name for name, _, _ in vertex_residuals(pair, xi, 1, -1)] == ["vertex_attained"]
    v1, v2 = square_irrep(0.3).mats
    form = two_symmetry_canonical_form(v1, v2)
    assert [name for name, _, _ in canonical_form_residuals(v1, v2, form)] == ["reconstruction"]
    names = [name for name, _, _ in symmetry_tuple_residuals([v1, v2])]
    assert names == ["s0_selfadjoint", "s0_squares_to_identity", "s1_selfadjoint", "s1_squares_to_identity"]


class TestSquareIrrep:
    def test_lambda_zero(self):
        st = square_irrep(0.0)
        assert np.allclose(st.mats[0], np.diag([-1.0, 1.0]))
        assert np.allclose(st.mats[1], np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_lambda_point_six(self):
        st = square_irrep(0.6)
        assert np.allclose(st.mats[1], np.array([[0.6, 0.8], [0.8, -0.6]]), atol=1e-14)

    def test_boundary_rejected(self):
        with pytest.raises(LambdaOutOfRangeError):
            square_irrep(1.0)
        with pytest.raises(LambdaOutOfRangeError):
            square_irrep(-1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.3, -0.3, 0.5, -0.5, 0.9, -0.9, 0.99])
    def test_irreducible(self, lam):
        dim, _ = commutant_dimension(square_irrep(lam).mats)
        assert dim == 1

    @pytest.mark.parametrize("lam", [0.0, 0.3, -0.3, 0.9, -0.9])
    def test_coupling_recovered_from_canonical_form(self, lam):
        st = square_irrep(lam)
        form = two_symmetry_canonical_form(st.mats[0], st.mats[1])
        assert form.lambdas == pytest.approx([lam], abs=1e-8)


class TestUniversalSquarePair:
    def test_single_block_is_reflection(self):
        st = universal_square_pair([1.0])
        assert np.allclose(st.mats[1], np.diag([1.0, -1.0]))

    def test_two_blocks(self):
        st = universal_square_pair([1.0, 0.0])
        assert st.dim == 4
        assert within_bounds(symmetry_tuple_residuals(st.mats))

    def test_grid_symmetries(self):
        lambdas = [1.0] + list(np.linspace(-0.95, 0.95, 31))
        st = universal_square_pair(lambdas)
        assert st.dim == 64
        assert worst(symmetry_tuple_residuals(st.mats)) <= 1e-10

    def test_leading_one_required(self):
        with pytest.raises(LambdaOutOfRangeError):
            universal_square_pair([0.5, 0.0])

    @pytest.mark.parametrize("shapes", [[(2, 2), (3, 3)], [(2, 3), (2, 3)]], ids=["unequal", "non-square"])
    def test_tuple_entries_must_be_square_of_equal_size(self, shapes):
        with pytest.raises(ShapeMismatchError, match="square of equal size"):
            ncprism.reps.SymmetryTuple([np.ones(shape) for shape in shapes])


class TestCanonicalForm:
    def test_commuting_pair_characters_only(self):
        d = np.diag([1.0, -1.0])
        form = two_symmetry_canonical_form(d, d)
        assert form.lambdas == []
        assert form.char_counts == (1, 0, 0, 1)

    def test_roundtrip_through_conjugation(self):
        rng = np.random.default_rng(13)
        st = square_irrep(0.6)
        u = random_unitary(rng, 2)
        v1 = u @ st.mats[0] @ dagger(u)
        v2 = u @ st.mats[1] @ dagger(u)
        form = two_symmetry_canonical_form(v1, v2)
        assert len(form.lambdas) == 1
        assert form.lambdas[0] == pytest.approx(0.6, abs=1e-8)

    def test_block_recovery_from_direct_sum(self):
        a = square_irrep(0.0)
        b = square_irrep(0.5)
        v1 = direct_sum(a.mats[0], b.mats[0])
        v2 = direct_sum(a.mats[1], b.mats[1])
        form = two_symmetry_canonical_form(v1, v2)
        assert form.lambdas == pytest.approx([0.0, 0.5], abs=1e-8)

    def test_reconstruction_error_random_mixture_up_to_dim_16(self):
        rng = np.random.default_rng(29)
        for trial in range(10):
            n_blocks = 3 if trial < 5 else 7  # dimensions 8 and 16
            blocks = [square_irrep(float(lam)) for lam in rng.uniform(-0.9, 0.9, n_blocks)]
            v1 = blocks[0].mats[0]
            v2 = blocks[0].mats[1]
            for blk in blocks[1:]:
                v1 = direct_sum(v1, blk.mats[0])
                v2 = direct_sum(v2, blk.mats[1])
            # Append characters and conjugate everything by a random unitary.
            v1 = direct_sum(v1, np.diag([1.0, -1.0]))
            v2 = direct_sum(v2, np.diag([1.0, 1.0]))
            n = v1.shape[0]
            u = random_unitary(rng, n)
            v1, v2 = u @ v1 @ dagger(u), u @ v2 @ dagger(u)
            form = two_symmetry_canonical_form(v1, v2)
            assert within_bounds(canonical_form_residuals(v1, v2, form))

    def test_rejects_non_symmetry(self):
        with pytest.raises(NotSymmetryError):
            two_symmetry_canonical_form(np.diag([0.5, 1.0]), np.eye(2))

    @pytest.mark.parametrize("distance", [0.0, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("near_one", [False, True])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_couplings_near_0_and_1_are_classified_once(self, distance, near_one, conjugated):
        # The block (diag(-1, 1), [[l, mu], [mu, -l]]) with l = 1 - 2t, where
        # t lies `distance` spec_tol from 0 or 1, beside a block of coupling
        # 0.4. At t = 0 or 1 it is two characters; at t within spec_tol of 0
        # or 1 its off-diagonal mu = 2 sqrt(t (1 - t)) is still about 1e-4,
        # so it is a 2 x 2 block, which a character would miss by mu.
        t = distance * SPEC_TOL
        t = 1.0 - t if near_one else t
        lam, mu = 1.0 - 2.0 * t, 2.0 * math.sqrt(t * (1.0 - t))
        v1 = direct_sum(np.diag([-1.0, 1.0]), square_irrep(0.4).mats[0])
        v2 = direct_sum(np.array([[lam, mu], [mu, -lam]]), square_irrep(0.4).mats[1])
        if conjugated:
            u = random_unitary(np.random.default_rng(14), 4)
            v1, v2 = u @ v1 @ dagger(u), u @ v2 @ dagger(u)
        form, again = (two_symmetry_canonical_form(v1, v2) for _ in range(2))
        assert form.lambdas == again.lambdas and form.char_counts == again.char_counts
        assert np.array_equal(form.conjugator, again.conjugator)
        if distance == 0.0:
            assert form.lambdas == pytest.approx([0.4], abs=1e-12)
            assert form.char_counts == ((1, 0, 0, 1) if near_one else (0, 1, 1, 0))
        else:
            assert form.lambdas == pytest.approx(sorted([lam, 0.4]), abs=1e-12)
            assert form.char_counts == (0, 0, 0, 0)
        assert within_bounds(canonical_form_residuals(v1, v2, form))


class TestHadamard:
    def test_m1(self):
        st = hadamard_symmetries(1)
        assert np.allclose(st.mats[0], np.diag([1.0, -1.0]))
        assert np.allclose(
            st.mats[1], np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        )
        assert commutant_dimension(st.mats)[0] == 1

    def test_m2_digit_pattern(self):
        st = hadamard_symmetries(2)
        assert np.allclose(np.diag(st.mats[0]).real, [1.0, -1.0, 1.0, -1.0])
        assert np.allclose(np.diag(st.mats[1]).real, [1.0, 1.0, -1.0, -1.0])
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(st.mats[2], np.kron(h2, h2) / 2.0)
        assert commutant_dimension(st.mats)[0] == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_structure(self, m):
        st = hadamard_symmetries(m)
        assert worst(hadamard_residuals(st.mats)) <= 1e-12
        for i in range(m):
            for j in range(i + 1, m):
                assert np.array_equal(st.mats[i] @ st.mats[j], st.mats[j] @ st.mats[i])
        assert commutant_dimension(st.mats)[0] == 1

    def test_budget(self, capsys):
        # Dimension 2^13 is above the budget of 4096: the library raises and
        # the CLI exits 2, both before building a matrix (one 8192 x 8192
        # complex matrix alone takes 1 GiB).
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetExceededError):
                hadamard_symmetries(13)
            code = ncprism.cli.main(["rep", "hadamard", "--m", "13"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "exceeds budget" in capsys.readouterr().err
        assert peak <= 1e6


class TestVertexRep:
    def test_k3_plus_vertex(self):
        pair, xi = prism_vertex_rep(3, 0, 1)
        assert complex(np.vdot(xi, pair.w @ xi)) == pytest.approx(1.0, abs=1e-12)
        assert complex(np.vdot(xi, pair.v @ xi)) == pytest.approx(1.0, abs=1e-12)

    def test_k3_omega_minus(self):
        pair, xi = prism_vertex_rep(3, 1, -1)
        omega = np.exp(2j * np.pi / 3)
        assert complex(np.vdot(xi, pair.w @ xi)) == pytest.approx(omega, abs=1e-12)
        assert complex(np.vdot(xi, pair.v @ xi)) == pytest.approx(-1.0, abs=1e-12)

    def test_k5_j2(self):
        pair, xi = prism_vertex_rep(5, 2, 1)
        expected = np.exp(4j * np.pi / 5)
        assert complex(np.vdot(xi, pair.w @ xi)) == pytest.approx(expected, abs=1e-10)
        assert within_bounds(pair_residuals(pair))

    def test_shift_structure(self):
        pair, _ = prism_vertex_rep(3, 0, 1)
        # e_1 -> e_3, e_2 -> e_1, e_3 -> e_2.
        assert pair.w[2, 0] == 1.0 and pair.w[0, 1] == 1.0 and pair.w[1, 2] == 1.0

    @pytest.mark.parametrize("k", [3, 7])
    def test_characters_are_the_vertices(self, k):
        # The 1 x 1 pair (omega^j, sign) takes the vertex value itself.
        for j, sign in itertools.product(range(k), (1, -1)):
            char = prism_character(k, j, sign)
            assert char.dim == 1 and char.commutant_dim == 1
            assert within_bounds(vertex_residuals(char, np.ones(1), j, sign))

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            prism_vertex_rep(3, 3, 1)
        with pytest.raises(IndexOutOfRangeError):
            prism_vertex_rep(2, 0, 1)


class TestGroupPairs:
    def test_s3_relation(self):
        assert worst(pair_residuals(s3_pair(), relations=S3_RELATIONS)) <= 1e-10

    def test_s3_irreducible(self):
        pair = s3_pair()
        assert commutant_dimension([pair.w, pair.v])[0] == 1

    def test_s3_group_order_oracle(self):
        pair = s3_pair()
        assert closure_order_oracle([pair.w, pair.v]) == 6

    def test_a4_relation(self):
        assert worst(pair_residuals(a4_pair(), relations=A4_RELATIONS)) <= 1e-10

    def test_a4_group_order_oracle(self):
        pair = a4_pair()
        assert closure_order_oracle([pair.w, pair.v]) == 12

    @pytest.mark.parametrize("factory, order", [(s3_pair, 6), (a4_pair, 12)])
    def test_group_order_matches_oracle(self, factory, order):
        pair = factory()
        gens = [pair.w, pair.v]
        assert generated_group_order(gens) == closure_order_oracle(gens) == order
        u = random_unitary(np.random.default_rng(order), pair.dim)
        conj = [u @ g @ u.conj().T for g in gens]
        assert generated_group_order(conj) == closure_order_oracle(conj) == order

    @pytest.mark.parametrize("factory, order", [(s3_pair, 6), (a4_pair, 12)])
    def test_group_order_finds_neighbours_across_buckets(self, factory, order):
        # The buckets are a few SPEC_TOL wide. Generators in a random frame,
        # perturbed by 1e-9, put near-repeats (at most ~3.5e-9 apart) across
        # a bucket boundary in about one trial in eight; every near-repeat
        # must still be recognised.
        pair = factory()
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = random_unitary(rng, pair.dim)
            gens = []
            for g in (pair.w, pair.v):
                noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                gens.append(u @ g @ u.conj().T + 1e-9 * noise / np.linalg.norm(noise))
            assert generated_group_order(gens) == order

    def test_a4_irreducible(self):
        pair = a4_pair()
        assert commutant_dimension([pair.w, pair.v])[0] == 1

    @pytest.mark.parametrize("k", [0, -2])
    def test_a_pair_of_order_below_one_is_refused(self, k):
        # W^0 = 1 would pass the order rows of any unitary W.
        with pytest.raises(NcprismError, match=f"an order k must be at least 1, got k={k}$"):
            ncprism.reps.RepPair(np.eye(2), np.eye(2), k)

    def test_reducible_pair_with_the_s3_relation_is_refused(self):
        # W = 1 and V = diag(1, -1) satisfy the orders and VWV = W^-1 but
        # generate Z2, not S3: they commute, and the commutator row refuses
        # them.
        w, v = np.eye(2), np.diag([1.0, -1.0])
        assert within_bounds(pair_residuals(ncprism.reps.RepPair(w, v, 3), S3_RELATIONS[:1]))
        with pytest.raises(RelationCheckFailedError, match=re.escape(f"{NONCOMMUTING} residual 1.000e+00")):
            ncprism.reps._verified_pair(w, v, 3, "reducible", S3_RELATIONS)

    @pytest.mark.parametrize(
        "factory, relations, norm",
        [(s3_pair, S3_RELATIONS, math.sqrt(6.0)), (a4_pair, A4_RELATIONS, 2.0 * math.sqrt(2.0))],
        ids=["s3", "a4"],
    )
    def test_commutator_row_is_the_irreducible_norm(self, factory, relations, norm):
        # ||WV - VW||_F is a unitary invariant of the irreducible pair: the
        # same in any frame, and far from the bound 1 that separates it from
        # every commuting (reducible) pair.
        pair = factory()
        u = random_unitary(np.random.default_rng(3), pair.dim)
        for w, v in ((pair.w, pair.v), (u @ pair.w @ dagger(u), u @ pair.v @ dagger(u))):
            rows = {name: value for name, value, _ in pair_residuals(ncprism.reps.RepPair(w, v, 3), relations)}
            assert rows[NONCOMMUTING] == pytest.approx(1.0 - norm, abs=1e-12)


def projective_perm_oracle(q, mat):
    """Brute-force mod-p projective action for prime q: points 0..q-1, infinity."""
    (a, b), (c, d) = mat
    points = list(range(q)) + ["inf"]

    def act(pt):
        if pt == "inf":
            num, den = a % q, c % q
        else:
            num, den = (a * pt + b) % q, (c * pt + d) % q
        if den == 0:
            return "inf"
        return (num * pow(den, -1, q)) % q

    return {pt: act(pt) for pt in points}


class TestFiniteField:
    FIELDS = [(5, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]

    @staticmethod
    def oracle(p, e):
        """The field with its elements, and the oracle's digitwise addition
        and negation and polynomial product."""
        gf = GaloisField(FiniteFieldSpec(p, e))

        def add(a, b):
            return tuple((x + y) % p for x, y in zip(a, b))

        def neg(a):
            return tuple(-x % p for x in a)

        def mul(a, b):
            return poly_mul(a, b, gf.spec.modulus, p)

        return gf, gf.elements(), add, neg, mul

    @pytest.mark.parametrize("p, e", FIELDS + [(2, 5), (3, 4)])
    def test_tables_match_polynomial_arithmetic(self, p, e):
        gf, elems, add, neg, mul = self.oracle(p, e)
        assert elems == [tuple(t) for t in itertools.product(range(p), repeat=e)]
        assert gf.zero == elems[0] and gf.one == (1,) + (0,) * (e - 1)
        for a in elems:
            for b in elems:
                assert gf.add(a, b) == add(a, b)
                assert gf.mul(a, b) == mul(a, b)
            assert gf.neg(a) == neg(a)
            if a != gf.zero:
                assert mul(a, gf.inv(a)) == gf.one
        with pytest.raises(ZeroDivisionError):
            gf.inv(gf.zero)

    @pytest.mark.parametrize("p, e", [(2, 3), (3, 2), (5, 2), (2, 4)])
    def test_involutions_in_enumeration_order(self, p, e):
        gf, elems, add, neg, mul = self.oracle(p, e)
        expected = [
            ((a, b), (c, neg(a)))
            for a in elems
            for b in elems
            for c in elems
            if add(mul(a, neg(a)), neg(mul(b, c))) == gf.one
            and not (b == c == gf.zero and mul(a, a) == gf.one)
        ]
        assert list(sl2_involutions(gf)) == expected

    @pytest.mark.parametrize("p, e", [(2, 3), (5, 2)])
    def test_projective_action_matches_oracle(self, p, e):
        gf, elems, add, neg, mul = self.oracle(p, e)
        points = projective_line(gf)

        def image(a, b, c, d, x, y):
            nx, ny = add(mul(a, x), mul(b, y)), add(mul(c, x), mul(d, y))
            if ny == gf.zero:
                return (gf.one, gf.zero)
            return (mul(nx, next(z for z in elems if mul(ny, z) == gf.one)), gf.one)

        # U, the first involutions, and matrices with entries across the field.
        mats = [((0, -1), (1, -1))] + list(itertools.islice(sl2_involutions(gf), 12))
        mats += [((elems[i], elems[-1]), (elems[1], elems[i - 1])) for i in range(3, len(elems), 5)]
        for mat in mats:
            a, b, c, d = (gf.from_int(x) if isinstance(x, int) else x for row in mat for x in row)
            if add(mul(a, d), neg(mul(b, c))) == gf.zero:
                continue
            perm = projective_action(gf, mat)
            assert [points[i] for i in perm] == [image(a, b, c, d, x, y) for x, y in points]


class TestSteinberg:
    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_prime_fields(self, q):
        pair = steinberg_pair(q)
        assert pair.dim == q
        assert within_bounds(pair_residuals(pair))
        assert pair.commutant_dim == 1

    def test_permutation_matches_oracle(self):
        # Independent finite-field oracle over F_5 for the order-3 generator.
        q = 5
        oracle = projective_perm_oracle(q, ((0, -1), (1, -1)))
        gf = GaloisField(FiniteFieldSpec(5, 1))
        points = projective_line(gf)
        perm = projective_action(gf, ((0, -1), (1, -1)))

        def decode(pt):
            return "inf" if pt[1] == gf.zero else pt[0][0]

        for i, pt in enumerate(points):
            assert decode(points[perm[i]]) == oracle[decode(pt)]

    def test_permutation_matrices_doubly_stochastic_before_compression(self):
        gf = GaloisField(FiniteFieldSpec(7, 1))
        for mat in (((0, -1), (1, -1)), ((0, -1), (1, 0))):
            perm = projective_action(gf, mat)
            assert sorted(perm) == list(range(8))

    def test_prime_power_fields(self):
        for q in (4, 8):
            pair = steinberg_pair(q)
            assert pair.dim == q
            assert pair.commutant_dim == 1

    def test_q9_rejected(self):
        with pytest.raises(UnsupportedQError):
            steinberg_pair(9)

    def test_small_q_rejected(self):
        for q in (2, 3):
            with pytest.raises(UnsupportedQError):
                steinberg_pair(q)

    def test_non_prime_power_rejected(self):
        for q in (6, 10, 12):
            with pytest.raises(UnsupportedQError, match="not a prime power"):
                steinberg_pair(q)
        assert issubclass(UnsupportedQError, ValueError)

    def test_explicit_field_spec(self):
        pair = steinberg_pair(4, FiniteFieldSpec(2, 2, (1, 1, 1)))
        assert pair.dim == 4

    def test_budget(self, capsys):
        # Dimensions above the budget of 512 are refused before any field or
        # matrix is built: at q = 1000003 one (q + 1) x (q + 1) complex
        # matrix alone would take 14.6 TiB. 521 is the least prime above the
        # budget.
        tracemalloc.start()
        try:
            for build, arg in ((steinberg_pair, 521), (steinberg_pair, 1000003), (assemble_dimension, 513)):
                with pytest.raises(SizeBudgetExceededError, match="exceeds budget 512"):
                    build(arg)
            codes = [
                ncprism.cli.main(["rep", "steinberg", "--q", "1000003"]),
                ncprism.cli.main(["rep", "assemble", "--n", "1000"]),
            ]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert codes == [2, 2] and err.count("exceeds budget 512") == 2
        assert peak <= 1e6

    @pytest.mark.parametrize(
        "q, p, e, count", [(4, 2, 2, None), (8, 2, 3, None), (16, 2, 4, None), (25, 5, 2, 2), (27, 3, 3, 2)]
    )
    def test_involution_matches_breadth_first_selection(self, q, p, e, count):
        # The trace rule must accept the first involution whose group, listed
        # by the breadth-first closure, is all of PSL2(F_q): V is the same.
        for spec in irreducible_specs(p, e)[:count]:
            gf = GaloisField(spec)
            expected = next(c for c in sl2_involutions(gf) if closure_generates(gf, c))
            perms = [projective_action(gf, mat) for mat in (((0, -1), (1, -1)), expected)]
            assert recovered_permutations(steinberg_pair(q, spec)) == perms

    @pytest.mark.parametrize(
        "q, digest",
        [
            (25, "2fe61b0c0f182abde1ba645d596d48395963b17e802da659c819ba6d3d3d2dd1"),
            (27, "d62a1142d376df40c2e18b6e04c78354c8faa3abd1847dd6f03697e9f18c1857"),
        ],
    )
    def test_default_modulus_permutations_pinned(self, q, digest):
        # The digest pins the permutations, not the last bits of a platform's
        # BLAS.
        perms = recovered_permutations(steinberg_pair(q))
        assert hashlib.sha256(np.array(perms, dtype=np.int64).tobytes()).hexdigest() == digest

    def test_a_non_generating_involution_is_skipped(self, monkeypatch):
        # An involution of PSL2(F_7) that generates a proper subgroup with U,
        # put first in the walk: the rule passes it over, and the pair is
        # the one built without it.
        gf = GaloisField(FiniteFieldSpec(7, 1))
        bad = next(c for c in sl2_involutions(gf) if not closure_generates(gf, c))
        expected = steinberg_pair(7)
        seen = []

        def walk(gf):
            yield bad
            seen.append(bad)
            yield from sl2_involutions(gf)

        monkeypatch.setattr(ncprism.finitefield, "sl2_involutions", walk)
        pair = steinberg_pair(7)
        assert seen == [bad]
        assert pair.w.tobytes() == expected.w.tobytes() and pair.v.tobytes() == expected.v.tobytes()
        assert (pair.provenance, pair.commutant_dim) == (expected.provenance, expected.commutant_dim)

    def test_no_generating_involution_is_refused(self, monkeypatch):
        def proper(gf):
            return (c for c in sl2_involutions(gf) if not closure_generates(gf, c))

        monkeypatch.setattr(ncprism.finitefield, "sl2_involutions", proper)
        with pytest.raises(UnsupportedQError, match="no involution generating"):
            steinberg_pair(8)

    @pytest.mark.parametrize("q", [5, 8, 27, "s3", "a4"])
    def test_no_commutant_solve_and_no_group_order(self, monkeypatch, q):
        def forbidden(*args, **kwargs):
            raise AssertionError("the factory must not call this")

        for module, name in (
            (ncprism.matkernel, "commutant_dimension"),
            (ncprism.reps, "commutant_dimension"),
            (ncprism.finitefield, "permutation_closure_size"),
            (ncprism.reps, "generated_group_order"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        build, provenance, certificate = {
            "s3": (s3_pair, "s3_pair", ["VWV = W^-1", NONCOMMUTING]),
            "a4": (a4_pair, "a4_pair", ["WVW = VW^2V", NONCOMMUTING]),
        }.get(q, (lambda: steinberg_pair(q), f"steinberg_pair(q={q})", ["generates_psl2"]))
        with ncprism.matkernel.measured() as records:
            pair = build()
        assert pair.commutant_dim == 1 and pair.provenance == provenance
        assert [name for name, *_ in records] == [
            "w_unitary", "w_order_3", "v_unitary", "v_order_2", *certificate
        ]
        assert {what for *_, what in records} == {provenance}
        if isinstance(q, str):
            assert records[-1][1:3] == (pytest.approx(1.0 - np.linalg.norm(pair.w @ pair.v - pair.v @ pair.w)), 0.0)
        else:
            assert records[-1] == ("generates_psl2", 0.0, 0.0, provenance)

    # Every modulus the factory benchmark uses at q = 8, 16, 25 and 27.
    ORACLE_CASES = [(q, None) for q in (4, 5, 7, 8, 11, 13, 16, 25, 27, 49)] + [
        (q, index) for q, count in FACTORY_MODULI.items() for index in range(count)
    ]

    @pytest.mark.parametrize("q, index", ORACLE_CASES)
    def test_commutant_solve_agrees_with_the_trace_rule(self, q, index):
        spec = None if index is None else irreducible_specs(*factor_prime_power(q))[index]
        pair = steinberg_pair(q, spec)
        assert commutant_dimension([pair.w, pair.v])[0] == 1


def closure_generates(gf, involution) -> bool:
    """Whether U = [[0, -1], [1, -1]] and the involution generate PSL2(F_q)
    on P^1(F_q), by the breadth-first closure."""
    perms = [projective_action(gf, mat) for mat in (((0, -1), (1, -1)), involution)]
    return permutation_closure_oracle(perms, psl2_order(gf.q)) == psl2_order(gf.q)


def recovered_permutations(pair) -> list[list[int]]:
    """The permutations of P^1(F_q) that a Steinberg pair compresses.

    W and V compress permutation matrices P to the complement of the
    all-ones vector, so P = Z X Z* + J / (q + 1) recovers P exactly after
    rounding."""
    q = pair.dim
    z = np.linalg.qr(np.ones((q + 1, 1)), mode="complete")[0][:, 1:]
    perms = []
    for x in (pair.w, pair.v):
        full = (z @ x @ dagger(z)).real + 1.0 / (q + 1)
        assert np.abs(full - np.round(full)).max() <= 1e-9
        perms.append(np.argmax(np.round(full), axis=0).tolist())
    return perms


class TestTensorAndAssembly:
    def test_orders_multiply_coordinatewise(self):
        pair = tensor_pair(s3_pair(), a4_pair())
        assert pair.dim == 6
        assert within_bounds(pair_residuals(pair))

    def test_tensor_with_trivial_character(self):
        trivial = assemble_dimension(1)
        pair = tensor_pair(s3_pair(), trivial)
        assert pair.dim == 2
        assert opnorm(pair.w - s3_pair().w) <= 1e-14

    def test_s3_a4_tensor_irreducible(self):
        pair = tensor_pair(s3_pair(), a4_pair())
        assert pair.commutant_dim == 1

    def test_order_mismatch(self):
        p1, _ = prism_vertex_rep(3, 0, 1)
        p2, _ = prism_vertex_rep(4, 0, 1)
        with pytest.raises(OrderMismatchError):
            tensor_pair(p1, p2)

    def test_dimension_one(self):
        # The trivial character, from the one factory of the characters.
        pair, char = assemble_dimension(1), prism_character(3, 0, 1)
        assert pair.dim == 1
        assert np.allclose(pair.w, [[1.0]])
        assert np.allclose(pair.v, [[1.0]])
        assert np.array_equal(pair.w, char.w) and np.array_equal(pair.v, char.v)
        assert pair.provenance == char.provenance == "character(k=3, j=0, sign=+1)"
        assert pair.commutant_dim == char.commutant_dim == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 10])
    def test_dimensions(self, n):
        pair = assemble_dimension(n)
        assert pair.dim == n
        assert within_bounds(pair_residuals(pair))
        assert pair.commutant_dim is not None

    def test_dimension_five_is_projective(self):
        assert "steinberg" in assemble_dimension(5).provenance

    def test_nine_fails_honestly(self):
        with pytest.raises(AssemblyFailedError):
            assemble_dimension(9)
        with pytest.raises(AssemblyFailedError):
            assemble_dimension(18)

    @pytest.mark.parametrize("n", [9, 18, 45, 90])
    def test_nine_is_refused_before_any_block_is_built(self, monkeypatch, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("no block may be built")

        for name in ("s3_pair", "a4_pair", "steinberg_pair", "tensor_pair"):
            monkeypatch.setattr(ncprism.reps, name, forbidden)
        message = (
            f"dimension {n} requires a block of dimension 9, for which the "
            "projective-line construction is unavailable (q = 9 is rejected)"
        )
        with pytest.raises(AssemblyFailedError) as caught:
            assemble_dimension(n)
        assert str(caught.value) == message

    def test_twentyseven_uses_field_cube(self):
        # 27 = 3^3 is a legitimate prime power distinct from 9.
        pair = assemble_dimension(27)
        assert pair.dim == 27
        assert pair.commutant_dim == 1
