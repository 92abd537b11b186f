import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_psd_trace_one, within_bounds

from ncprism.convexity import random_prism_point
from ncprism.dilation import joint_prism_dilation
from ncprism.errors import (
    InvalidDensityError,
    NotSelfadjointError,
    WrongLevelError,
)
from ncprism.matkernel import DEFAULT_TOL, dagger, hermitize, opnorm
from ncprism.opsys import (
    STRICT_MARGIN,
    Certified,
    Unknown,
    _basis_operators,
    _sample_groups,
    _sample_lows,
    _sample_pairs,
    DiagTuple,
    DualTuple,
    PrismElement,
    Refuted,
    certified_residuals,
    dual_member,
    element_distance,
    functional_to_tuple,
    matrix_positivity_prism,
    min_eigenvalue,
    psi_k,
    psi_k_basis_element,
    refuted_residuals,
    scalar_positivity_cube,
    scalar_positivity_prism,
)
from ncprism.reps import RepPair, pair_residuals, prism_vertex_rep


def scalar_element(k, coeffs, g):
    blocks = [np.array([[complex(c)]]) for c in coeffs]
    return PrismElement(k, 1, blocks, np.array([[complex(g)]]))


def random_selfadjoint_element(k, q, seed, shift):
    """c_m = (r_m + r_(-m)*)/2 from random blocks r, plus shift on c_0."""
    rng = np.random.default_rng(seed)
    raw = (rng.standard_normal((k + 1, q, q)) + 1j * rng.standard_normal((k + 1, q, q))) / k
    c = [(raw[m] + dagger(raw[(-m) % k])) / 2 for m in range(k)]
    c[0] = c[0] + shift * np.eye(q)
    return PrismElement(k, q, c, hermitize(raw[k]))


def kronecker_sum(e, pair):
    """sum_m c_m (x) W^m + g (x) V, one np.kron at a time."""
    total, power = np.kron(e.g, pair.v), np.eye(pair.dim)
    for block in e.c:
        total, power = total + np.kron(block, power), power @ pair.w
    return total


class TestPsiK:
    def test_all_ones_maps_to_unit(self):
        image = psi_k(DiagTuple.ones(3, 1))
        assert element_distance(image, PrismElement.unit(3, 1)) <= 1e-12

    def test_kernel_vector_maps_to_zero(self):
        eye = np.eye(1, dtype=complex)
        kernel = DiagTuple(3, 1, [eye, eye, eye, -eye, -eye])
        image = psi_k(kernel)
        assert max(opnorm(b) for b in [*image.c, image.g]) <= 1e-12

    def test_spectral_average_expansion(self):
        # k e_0 expands to coefficient 1/2 on every power of w.
        k = 4
        zero = np.zeros((1, 1), dtype=complex)
        blocks = [np.eye(1) * k, zero, zero, zero, zero, zero]
        image = psi_k(DiagTuple(k, 1, blocks))
        for block in image.c:
            assert complex(block[0, 0]) == pytest.approx(0.5, abs=1e-14)
        assert opnorm(image.g) <= 1e-14

    def test_matrix_level_kernel(self):
        rng = np.random.default_rng(19)
        y = hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        kernel = DiagTuple(3, 2, [y, y, y, -y, -y])
        image = psi_k(kernel)
        assert max(opnorm(b) for b in [*image.c, image.g]) <= 1e-12

    def test_basis_images_are_positive_scalar_elements(self):
        for index in range(5):
            e = psi_k_basis_element(3, index)
            verdict = scalar_positivity_prism(e)
            assert verdict.positive


class TestDualMember:
    def test_balanced(self):
        assert dual_member(DualTuple(3, np.array([1.0, 1.0, 1.0, 1.0, 2.0])))

    def test_unbalanced(self):
        assert not dual_member(DualTuple(3, np.array([1.0, 1.0, 1.0, 1.0, 1.0])))

    def test_zero(self):
        assert dual_member(DualTuple(3, np.zeros(5)))


class TestFunctionalToTuple:
    def test_vertex_state(self):
        pair, xi = prism_vertex_rep(3, 0, 1)
        rho = np.outer(xi, xi.conj())
        z = functional_to_tuple(pair, rho, 3)
        assert np.allclose(z.z, [0.5, 0.0, 0.0, 0.5, 0.0], atol=1e-10)
        assert dual_member(z)

    def test_trivial_character(self):
        from ncprism.reps import assemble_dimension

        pair = assemble_dimension(1)
        z = functional_to_tuple(pair, np.eye(1), 3)
        assert np.allclose(z.z, [0.5, 0.0, 0.0, 0.5, 0.0], atol=1e-12)

    def test_maximally_mixed_on_vertex_rep(self):
        pair, _ = prism_vertex_rep(3, 1, -1)
        rho = np.eye(3) / 3.0
        z = functional_to_tuple(pair, rho, 3)
        assert dual_member(z)
        assert z.z.real.min() >= -1e-10
        assert np.abs(z.z.imag).max() <= 1e-10

    def test_random_densities_land_in_dual_cone(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.choice([3, 4, 5]))
            pair, _ = prism_vertex_rep(k, int(rng.integers(0, k)), int(rng.choice([1, -1])))
            rho = random_psd_trace_one(rng, pair.dim)
            z = functional_to_tuple(pair, rho, k)
            assert dual_member(z)
            assert z.z.real.min() >= -1e-10

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_coordinates_are_the_state_on_basis_images(self, k):
        # z_i = tr(rho . psi(e_i)(W, V)) on random joint dilations, not only
        # on vertex representations and characters.
        rng = np.random.default_rng(40 + k)
        for _ in range(5):
            a, b = random_prism_point(rng, int(rng.integers(1, 4)), k)
            pair, _ = joint_prism_dilation(a, b, k)
            rho = random_psd_trace_one(rng, pair.dim)
            z = functional_to_tuple(pair, rho, k)
            for i in range(k + 2):
                value = np.trace(rho @ psi_k_basis_element(k, i).evaluate(pair))
                assert abs(z.z[i] - value) <= 1e-12

    def test_rejects_bad_density(self):
        pair, _ = prism_vertex_rep(3, 0, 1)
        with pytest.raises(InvalidDensityError):
            functional_to_tuple(pair, np.eye(3), 3)  # trace 3, not 1
        with pytest.raises(InvalidDensityError):
            functional_to_tuple(pair, np.diag([1.5, -0.5, 0.0]), 3)


class TestScalarPositivity:
    def test_unit(self):
        verdict = scalar_positivity_prism(PrismElement.unit(3, 1))
        assert verdict.positive
        assert verdict.margin == pytest.approx(1.0)

    def test_one_plus_v(self):
        verdict = scalar_positivity_prism(scalar_element(3, [1, 0, 0], 1))
        assert verdict.positive
        assert verdict.margin == pytest.approx(0.0, abs=1e-14)
        assert verdict.worst_vertex[1] == -1

    def test_one_plus_w_plus_wstar_plus_v(self):
        verdict = scalar_positivity_prism(scalar_element(3, [1, 1, 1], 1))
        assert not verdict.positive
        assert verdict.margin == pytest.approx(-1.0, abs=1e-12)

    def test_requires_selfadjoint(self):
        with pytest.raises(NotSelfadjointError):
            scalar_positivity_prism(scalar_element(3, [0, 1, 0], 0))

    @pytest.mark.parametrize("k", [4, 6])
    def test_margin_is_the_minimum_over_characters(self, k):
        # The 2k one-dimensional characters (omega^j, sign) are the vertices;
        # worst_vertex is the first minimum in (j, sign) order.
        rng = np.random.default_rng(k)
        omega = np.exp(2j * np.pi / k)
        for _ in range(20):
            raw = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            coeffs = (raw + raw[-np.arange(k) % k].conj()) / 2  # c_(k-m) = conj(c_m)
            e = scalar_element(k, coeffs, rng.standard_normal())
            vertices = [(j, sign) for j in range(k) for sign in (1, -1)]
            values = [
                min_eigenvalue(e, RepPair([[omega**j]], [[sign]], k)) for j, sign in vertices
            ]
            verdict = scalar_positivity_prism(e)
            assert verdict.margin == pytest.approx(min(values), abs=1e-12)
            assert verdict.worst_vertex == vertices[int(np.argmin(values))]

    def test_requires_scalar_level(self):
        with pytest.raises(WrongLevelError):
            scalar_positivity_prism(PrismElement.unit(3, 2))


class TestScalarCube:
    def test_margin_zero(self):
        positive, margin = scalar_positivity_cube(1.0, [1.0, 0.0])
        assert positive and margin == pytest.approx(0.0)

    def test_positive(self):
        positive, margin = scalar_positivity_cube(2.0, [1.0, 1.0])
        assert positive and margin == pytest.approx(0.0)

    def test_negative(self):
        positive, margin = scalar_positivity_cube(1.9, [1.0, 1.0])
        assert not positive
        assert margin == pytest.approx(-0.1)


class TestMatrixPositivity:
    def test_unit_certified(self):
        verdict = matrix_positivity_prism(PrismElement.unit(3, 1), samples=4)
        assert isinstance(verdict, Certified)
        # Re-verify the certificate from its payload alone.
        assert within_bounds(certified_residuals(PrismElement.unit(3, 1), verdict))

    def test_negative_element_refuted_with_sound_witness(self):
        e = scalar_element(3, [1, 1, 1], 1)
        verdict = matrix_positivity_prism(e, samples=4)
        assert isinstance(verdict, Refuted)
        assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])

    def test_interior_matrix_level_certified(self):
        rng = np.random.default_rng(5)
        perturb = hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        perturb = perturb / opnorm(perturb) * 0.1
        blocks = [1.5 * np.eye(2), perturb, perturb.conj().T]
        e = PrismElement(3, 2, blocks, np.zeros((2, 2)))
        assert e.is_selfadjoint()
        verdict = matrix_positivity_prism(e, samples=4)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(e, verdict))

    def test_boundary_element_is_not_contradicted(self):
        # 1 + v has scalar margin exactly 0: no refutation may appear, and
        # certification at strict margin is impossible, so Unknown is the
        # honest outcome (Certified would also be sound if slack existed).
        e = scalar_element(3, [1, 0, 0], 1)
        verdict = matrix_positivity_prism(e, samples=4)
        assert not isinstance(verdict, Refuted)

    def test_consistency_with_scalar_rule_on_grid(self):
        for cval in np.linspace(-1.0, 1.0, 5):
            for gval in np.linspace(-1.0, 1.0, 5):
                e = scalar_element(3, [1.0, cval, cval], gval)
                scalar = scalar_positivity_prism(e)
                verdict = matrix_positivity_prism(e, samples=3)
                if isinstance(verdict, Certified):
                    assert scalar.margin >= -1e-10
                if isinstance(verdict, Refuted):
                    assert scalar.margin <= 1e-8

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(NotSelfadjointError):
            matrix_positivity_prism(scalar_element(3, [0, 1, 0], 0))

    def test_rejects_bad_budgets(self):
        unit = PrismElement.unit(3, 1)
        with pytest.raises(ValueError, match="samples"):
            matrix_positivity_prism(unit, samples=-1)

    def test_witness_is_a_copy_of_the_cached_pair(self):
        e = scalar_element(3, [1, 1, 1], 1)
        first = matrix_positivity_prism(e, samples=4)
        groups = _sample_groups(3, 4, 8, 0, DEFAULT_TOL)
        before = [ops.copy() for _, ops in groups]
        # A caller scribbling on the witness must not reach the cached sample set.
        first.witness.v[...] = -5.0 * np.eye(first.witness.dim)
        first.witness.w[...] = 0.0
        assert all(np.array_equal(ops, old) for (_, ops), old in zip(groups, before))
        again = matrix_positivity_prism(e, samples=4)
        assert isinstance(again, Refuted)
        assert again.min_eigenvalue == first.min_eigenvalue
        assert within_bounds([*pair_residuals(again.witness), *refuted_residuals(e, again)])

    @pytest.mark.parametrize("shift", [0, 1, 2])
    @pytest.mark.parametrize("flip", [False, True])
    def test_witness_is_the_first_near_lowest_pair(self, shift, flip):
        # A scalar element with x_0 + x_+ = -0.6, rotated and flipped: its
        # lowest vertex value is also reached, up to rounding, by Steinberg
        # and random pairs later in the sample set. The first pair within
        # alg_tol of the lowest, a vertex representation, is the witness,
        # whatever the rounding of the rest.
        rng = np.random.default_rng(17)
        blocks = list(rng.uniform(0.2, 1.2, 5))
        blocks[0] -= blocks[0] + blocks[3] + 0.6
        blocks = blocks[shift:3] + blocks[:shift] + (blocks[4:2:-1] if flip else blocks[3:])
        e = psi_k(DiagTuple(3, 1, [np.array([[x]]) for x in blocks]))
        verdict = matrix_positivity_prism(e)
        lows = _sample_lows(e, 20, 8, 0, DEFAULT_TOL)
        first = int(np.flatnonzero(lows <= lows.min() + DEFAULT_TOL.alg_tol)[0])
        assert isinstance(verdict, Refuted)
        assert verdict.witness.provenance == _sample_pairs(3, 20, 8, 0, DEFAULT_TOL)[first].provenance
        assert verdict.witness.provenance.startswith("prism_vertex_rep")
        assert verdict.min_eigenvalue == lows[first]
        assert abs(verdict.min_eigenvalue - scalar_positivity_prism(e).margin) <= 1e-14


class TestBoundaryVerdicts:
    """q = 1 elements c_0 + (w + w*)/4 + v/2 whose exact vertex margin sits at
    the refutation tolerance spec_tol or just above the certification margin."""

    @staticmethod
    def element(k, margin):
        low = 0.5 * np.cos(2 * np.pi * (k // 2) / k) - 0.5  # the lowest vertex value
        coeffs = [margin - low, 0.25, *[0.0] * (k - 3), 0.25]
        return scalar_element(k, coeffs, 0.5)

    @pytest.mark.parametrize("k", [3, 6])
    def test_margin_twice_spec_tol_below_zero_is_refuted(self, k):
        e = self.element(k, -2 * DEFAULT_TOL.spec_tol)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Refuted)
        assert abs(verdict.min_eigenvalue + 2 * DEFAULT_TOL.spec_tol) <= DEFAULT_TOL.spec_tol
        assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])

    @pytest.mark.parametrize("k", [3, 6])
    def test_margin_half_spec_tol_below_zero_is_unknown(self, k):
        verdict = matrix_positivity_prism(self.element(k, -DEFAULT_TOL.spec_tol / 2))
        assert isinstance(verdict, Unknown)

    @pytest.mark.parametrize("k", [3, 6])
    def test_margin_twice_strict_margin_is_certified(self, k):
        e = self.element(k, 2 * STRICT_MARGIN)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(e, verdict))


def preimage_element(q, boundary, seed):
    """psi of a tuple of blocks >= 0.2; ``boundary`` puts a common null vector
    into x_0 and x_+, which leaves no strictly positive preimage."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(5):
        raw = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        h = raw @ dagger(raw)
        blocks.append(h / opnorm(h) + 0.2 * np.eye(q))
    if boundary:
        vec = rng.standard_normal((q, 1)) + 1j * rng.standard_normal((q, 1))
        rest = np.eye(q) - vec @ dagger(vec) / float(np.vdot(vec, vec).real)
        for idx in (0, 3):
            blocks[idx] = hermitize(rest @ blocks[idx] @ rest)
    return psi_k(DiagTuple(3, q, blocks))


class TestLiftSolver:
    """The certification phase: the best lift through the quotient map."""

    @pytest.mark.parametrize("q", [1, 2])
    def test_certified_lift(self, q):
        e = preimage_element(q, False, 40 + q)
        verdict = matrix_positivity_prism(e, samples=2)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(e, verdict))
        assert verdict.min_block_eigenvalue >= STRICT_MARGIN
        assert verdict.residual == element_distance(psi_k(verdict.lift), e)

    @pytest.mark.parametrize("q", [1, 2])
    def test_boundary_stays_unknown(self, q):
        # No strictly positive lift exists (the best floor is 0): the solver
        # proves the floor stays below STRICT_MARGIN, and the residual is the
        # shortfall of the best lift found.
        e = preimage_element(q, True, 50 + q)
        verdict = matrix_positivity_prism(e, samples=2)
        assert isinstance(verdict, Unknown)
        assert "smallest block eigenvalue lies in [" in verdict.reason
        assert STRICT_MARGIN <= verdict.residual < 1e-4

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_unit_certified_at_every_k(self, k):
        unit = PrismElement.unit(k, 1)
        verdict = matrix_positivity_prism(unit)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(unit, verdict))

    @settings(max_examples=40)
    @given(
        k=st.integers(3, 8),
        q=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-1.0, 3.0),
    )
    def test_selfadjoint_elements_get_a_checked_verdict(self, k, q, seed, shift):
        e = random_selfadjoint_element(k, q, seed, shift)
        verdict = matrix_positivity_prism(e, samples=4)
        if isinstance(verdict, Refuted):
            assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])
        elif isinstance(verdict, Certified):
            assert within_bounds(certified_residuals(e, verdict))
        else:
            assert isinstance(verdict, Unknown)


class TestSamplePairs:
    def test_memoised_tuple_of_read_only_pairs(self):
        pairs = _sample_pairs(3, 2, 8, 0, DEFAULT_TOL)
        assert isinstance(pairs, tuple)
        assert _sample_pairs(3, 2, 8, 0, DEFAULT_TOL) is pairs
        assert not pairs[0].w.flags.writeable

    def test_memoised_groups_of_read_only_basis_stacks(self):
        pairs = _sample_pairs(3, 20, 8, 0, DEFAULT_TOL)
        groups = _sample_groups(3, 20, 8, 0, DEFAULT_TOL)
        assert _sample_groups(3, 20, 8, 0, DEFAULT_TOL) is groups
        # Dimensions 3, 2, 4, 5, 7, 8 of the factory pairs, then 18, 6, 12.
        assert [ops.shape[-1] for _, ops in groups] == [3, 2, 4, 5, 7, 8, 18, 6, 12]
        assert sorted(np.concatenate([index for index, _ in groups])) == list(range(len(pairs)))
        for index, ops in groups:
            assert not index.flags.writeable and not ops.flags.writeable
            for i, basis in zip(index, ops):
                assert np.array_equal(basis, _basis_operators(pairs[i]))

    @settings(max_examples=30)
    @given(k=st.integers(3, 8), q=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_batched_lows_match_each_pair(self, k, q, seed):
        e = random_selfadjoint_element(k, q, seed, 0.0)
        pairs = _sample_pairs(k, 4, 8, 0, DEFAULT_TOL)
        scale = max(1.0, max(opnorm(b) for b in [*e.c, e.g]))
        lows = _sample_lows(e, 4, 8, 0, DEFAULT_TOL)
        each = [min_eigenvalue(e, pair) for pair in pairs]
        assert np.abs(lows - each).max() <= 1e-12 * scale
        for pair in (pairs[0], pairs[-1]):
            assert opnorm(e.evaluate(pair) - kronecker_sum(e, pair)) <= 1e-12 * scale

    def test_factory_part_skips_unsupported_q(self):
        # Steinberg pairs at q = 4, 5, 7, 8; q = 6, 9, 10 are rejected by steinberg_pair.
        names = [pair.provenance for pair in _sample_pairs(3, 0, 10, 0, DEFAULT_TOL)]
        vertices = [f"prism_vertex_rep(k=3, j={j}, sign={s:+d})" for j in range(3) for s in (1, -1)]
        steinberg = [f"steinberg_pair(q={q})" for q in (4, 5, 7, 8)]
        assert names == [*vertices, "s3_pair", "a4_pair", *steinberg]

    def test_seed_changes_only_the_random_part(self):
        base = _sample_pairs(3, 2, 8, 0, DEFAULT_TOL)
        other = _sample_pairs(3, 2, 8, 1, DEFAULT_TOL)
        for p1, p2 in zip(base[:-2], other[:-2]):
            assert np.array_equal(p1.w, p2.w) and np.array_equal(p1.v, p2.v)
        for p1, p2 in zip(base[-2:], other[-2:]):
            assert p1.w.shape != p2.w.shape or not np.allclose(p1.v, p2.v)


class TestDualPairing:
    def test_entrywise_pairing_nonnegative(self):
        # Positivity in the diagonal source system pairs nonnegatively with
        # entrywise-nonnegative dual tuples.
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = 3
            blocks = []
            for _ in range(k + 2):
                raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                blocks.append(raw @ raw.conj().T)
            x = DiagTuple(k, 2, blocks)
            weights = rng.uniform(0.0, 1.0, k + 2)
            paired = sum(w * b for w, b in zip(weights, x.blocks))
            assert np.linalg.eigvalsh(hermitize(paired)).min() >= -1e-10


class TestLevels:
    def test_level_zero_is_rejected(self):
        with pytest.raises(ValueError, match="q must be >= 1"):
            PrismElement(3, 0, [np.zeros((0, 0))] * 3, np.zeros((0, 0)))
        with pytest.raises(ValueError, match="q must be >= 1"):
            DiagTuple(3, 0, [np.zeros((0, 0))] * 5)


class TestSelfadjointness:
    def test_selfadjoint_flag(self):
        rng = np.random.default_rng(7)
        c1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        blocks = [np.eye(2), c1, c1.conj().T]
        e = PrismElement(3, 2, blocks, np.eye(2))
        assert e.is_selfadjoint()
        bad = PrismElement(3, 2, [np.eye(2), c1, c1], np.eye(2))
        assert not bad.is_selfadjoint()

    @pytest.mark.parametrize("slot", ["g", 0, 2])
    def test_defect_in_one_hermitian_block_is_rejected(self, slot):
        # At k = 4, c_0, c_2 (its own mirror) and g must each be Hermitian.
        rng = np.random.default_rng(11)
        c1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = [np.eye(2), c1, np.diag([0.5, -0.25]), c1.conj().T]
        g = np.diag([0.3, 0.1])
        assert PrismElement(4, 2, c, g).is_selfadjoint()
        defect = np.array([[0.0, 1e-3], [0.0, 0.0]])
        if slot == "g":
            g = g + defect
        else:
            c[slot] = c[slot] + defect
        assert not PrismElement(4, 2, c, g).is_selfadjoint()

    def test_evaluation_is_hermitian_for_selfadjoint(self):
        rng = np.random.default_rng(9)
        a, b = random_prism_point(rng, 2, 3)
        pair, _ = joint_prism_dilation(a, b, 3)
        c1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        e = PrismElement(3, 2, [np.eye(2), c1, c1.conj().T], np.eye(2))
        value = e.evaluate(pair)
        assert opnorm(value - value.conj().T) <= 1e-8
