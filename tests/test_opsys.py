import importlib.util
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_psd_trace_one,
    random_unitary,
    record_direction_products,
    record_factorisations,
    reference_dft,
    within_bounds,
)

from ncprism.convexity import random_prism_point
from ncprism.dilation import joint_prism_dilation
from ncprism.errors import (
    InvalidDensityError,
    NotSelfadjointError,
    ShapeMismatchError,
    WrongLevelError,
)
from ncprism.matkernel import (
    ALG_TOL,
    SPEC_TOL,
    FloorSystem,
    _exact_diagonal,
    dagger,
    hermitian_basis,
    hermitize,
    is_hermitian,
    lmi_floor,
    measured,
    opnorm,
    roots_of_unity,
)
from ncprism.opsys import (
    STRICT_MARGIN,
    Certified,
    Unknown,
    _basis_operators,
    _dual_witness,
    _kernel,
    _particular_lift,
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
from ncprism import opsys, reps
from ncprism.reps import RepPair, pair_residuals, prism_character, prism_vertex_rep
from ncprism.serialize import verdict_to_json


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


class TestFourierSums:
    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, float(np.abs(want).max()))

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("k", [3, 4, 5, 8, 64])
    def test_every_transform_matches_the_dense_reference(self, k, q):
        # psi, the particular lift, the scalar vertex values and the dual
        # coordinates, each against its formula written with the dense DFT.
        f, eye = reference_dft(k), np.eye(q)
        rng = np.random.default_rng([k, q])
        x = rng.standard_normal((k + 2, q, q)) + 1j * rng.standard_normal((k + 2, q, q))
        c = np.einsum("jm,jab->mab", f.conj(), x[:k]) / (2 * k)
        c[0] += (x[k] + x[k + 1]) / 4
        self.assert_close(psi_k(DiagTuple(k, q, x)).blocks, np.concatenate([c, [(x[k] - x[k + 1]) / 4]]))

        e = random_selfadjoint_element(k, q, k * q, 0.5)
        xs = eye + 2 * np.einsum("jm,mab->jab", f[:, 1:], e.c[1:])
        c0 = 2 * e.c[0] - eye
        self.assert_close(_particular_lift(e.blocks), hermitize(np.concatenate([xs, [c0 + 2 * e.g, c0 - 2 * e.g]])))

        scalar = PrismElement(k, 1, e.c[:, :1, :1], e.g[:1, :1])
        base, g = (f @ scalar.c[:, 0, 0]).real, scalar.g[0, 0].real
        self.assert_close(scalar_positivity_prism(scalar).margin, min((base + g).min(), (base - g).min()))

        n = q + 2
        u, u2 = random_unitary(rng, n), random_unitary(rng, n)
        w = (u * np.exp(2j * np.pi * rng.integers(0, k, n) / k)) @ dagger(u)
        pair = RepPair(w, (u2 * rng.choice([1.0, -1.0], n)) @ dagger(u2), k)
        rho = random_psd_trace_one(rng, n)
        moments, power = [], np.eye(n)
        for _ in range(k):
            moments, power = moments + [np.trace(rho @ power)], power @ w
        mu0, mu_v = moments[0], np.trace(rho @ pair.v)
        want = np.append(f.conj() @ moments / (2 * k), [(mu0 + mu_v) / 4, (mu0 - mu_v) / 4])
        self.assert_close(functional_to_tuple(pair, rho, k).z, want)

    @pytest.mark.parametrize("k", [3, 5, 7, 64])
    def test_characters_and_vertices_sit_at_the_roots(self, k):
        # One set of roots: the characters, the vertex representations and
        # the POVM labels agree bit for bit.
        roots = roots_of_unity(k)
        for j in range(k):
            assert prism_character(k, j, 1).w[0, 0] == roots[j]
            assert prism_vertex_rep(k, j, 1)[0].w[0, 1] == roots[j]


class TestDualMember:
    def test_balanced(self):
        assert dual_member(DualTuple(3, np.array([1.0, 1.0, 1.0, 1.0, 2.0])))

    def test_unbalanced(self):
        assert not dual_member(DualTuple(3, np.array([1.0, 1.0, 1.0, 1.0, 1.0])))

    def test_zero(self):
        assert dual_member(DualTuple(3, np.zeros(5)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_order_below_three_is_refused(self, k):
        # As for PrismElement: there is no prism system below k = 3, so a
        # balanced k = 1 tuple (1 = 0 + 1) is no member of anything.
        with pytest.raises(ValueError, match="k must be >= 3"):
            DualTuple(k, np.array([1.0, 0.0, 1.0, 0.0])[: k + 2])

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imaginary"])
    def test_non_finite_coordinate_is_refused(self, value):
        # A NaN coordinate would give dual_member a definite, meaningless answer.
        with pytest.raises(ValueError, match="finite"):
            DualTuple(3, np.array([value, 0.0, 0.0, 0.0, 0.0]))


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

    def test_moments_are_taken_of_the_checked_density(self):
        # A density whose skew part is within SPEC_TOL: the moments come from
        # its Hermitian part, whose spectrum was checked, so the coordinates
        # are real to rounding (imaginary parts near 2.5e-10 from the raw rho).
        pair, _ = prism_vertex_rep(3, 1, 1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3))
        k = rng.standard_normal((3, 3))
        rho = x @ x.T / np.trace(x @ x.T) + 1e-10j * (k + k.T)
        z = functional_to_tuple(pair, rho, 3)
        assert np.abs(z.z.imag).max() < 1e-15

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


def character_lows(e):
    """(k, 2) least eigenvalues of e(omega^j, sign) = sum_m c_m omega^(j m)
    + sign g, sign +1 in column 0, each value summed from its formula."""
    roots = np.exp(2j * np.pi * np.arange(e.k) / e.k)
    values = np.tensordot(roots[:, None] ** np.arange(e.k), np.stack(e.c), axes=1)
    stack = np.stack([values + e.g, values - e.g], axis=1)
    return np.linalg.eigvalsh(hermitize(stack)).min(axis=-1)


class TestMatrixPositivity:
    def test_unit_certified(self):
        verdict = matrix_positivity_prism(PrismElement.unit(3, 1))
        assert isinstance(verdict, Certified)
        # Re-verify the certificate from its payload alone.
        assert within_bounds(certified_residuals(PrismElement.unit(3, 1), verdict))

    def test_negative_element_refuted_with_sound_witness(self):
        e = scalar_element(3, [1, 1, 1], 1)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Refuted)
        assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])

    def test_interior_matrix_level_certified(self):
        rng = np.random.default_rng(5)
        perturb = hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        perturb = perturb / opnorm(perturb) * 0.1
        blocks = [1.5 * np.eye(2), perturb, perturb.conj().T]
        e = PrismElement(3, 2, blocks, np.zeros((2, 2)))
        assert e.is_selfadjoint()
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(e, verdict))

    def test_boundary_element_is_not_contradicted(self):
        # 1 + v has scalar margin exactly 0: no refutation may appear, and
        # certification at strict margin is impossible, so Unknown is the
        # honest outcome (Certified would also be sound if slack existed).
        e = scalar_element(3, [1, 0, 0], 1)
        verdict = matrix_positivity_prism(e)
        assert not isinstance(verdict, Refuted)

    def test_consistency_with_scalar_rule_on_grid(self):
        # At q = 1 the best lift's floor is the exact vertex margin, so the
        # verdict follows the margin outside the band (-spec_tol, STRICT_MARGIN).
        for cval in np.linspace(-1.0, 1.0, 5):
            for gval in np.linspace(-1.0, 1.0, 5):
                e = scalar_element(3, [1.0, cval, cval], gval)
                scalar = scalar_positivity_prism(e)
                verdict = matrix_positivity_prism(e)
                if isinstance(verdict, Certified):
                    assert scalar.margin >= -1e-10
                if isinstance(verdict, Refuted):
                    assert scalar.margin <= 1e-8
                    assert verdict.min_eigenvalue >= scalar.margin - 1e-12
                if scalar.margin < -1e-6:
                    assert isinstance(verdict, Refuted)
                if scalar.margin > 1e-5:
                    assert isinstance(verdict, Certified)

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(NotSelfadjointError):
            matrix_positivity_prism(scalar_element(3, [0, 1, 0], 0))

    def test_refuses_an_element_whose_lift_overflows(self):
        # Finite, but 2 c_0 - 1 +/- 2 g overflows: no verdict with a NaN bracket.
        with pytest.raises(ValueError, match="particular lift overflows"):
            matrix_positivity_prism(scalar_element(3, [1e308, 0, 0], 1e308))

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(3, 8), q=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_evaluate_matches_kronecker_sum(self, k, q, seed):
        # At W = U diag(omega^j_i) U*, V = U' diag(+/-1) U'* of dimension 2k.
        rng = np.random.default_rng(seed)
        e = random_selfadjoint_element(k, q, seed, 0.0)
        u, u2 = random_unitary(rng, 2 * k), random_unitary(rng, 2 * k)
        w = (u * np.exp(2j * np.pi * rng.integers(0, k, 2 * k) / k)) @ dagger(u)
        pair = RepPair(w, (u2 * rng.choice([1.0, -1.0], 2 * k)) @ dagger(u2), k)
        scale = max(1.0, max(opnorm(b) for b in [*e.c, e.g]))
        assert opnorm(e.evaluate(pair) - kronecker_sum(e, pair)) <= 1e-12 * scale

    def test_rejects_bad_budgets(self):
        # The oracle draws no sample set, so it takes no sample budget.
        for budget in ("samples", "size_budget", "seed"):
            with pytest.raises(TypeError, match=budget):
                matrix_positivity_prism(PrismElement.unit(3, 1), **{budget: 4})


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
        e = self.element(k, -2 * SPEC_TOL)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Refuted)
        assert abs(verdict.min_eigenvalue + 2 * SPEC_TOL) <= SPEC_TOL
        assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])

    @pytest.mark.parametrize("k", [3, 6])
    def test_margin_half_spec_tol_below_zero_is_unknown(self, k):
        verdict = matrix_positivity_prism(self.element(k, -SPEC_TOL / 2))
        assert isinstance(verdict, Unknown)

    @pytest.mark.parametrize("k", [3, 6])
    def test_margin_twice_strict_margin_is_certified(self, k):
        e = self.element(k, 2 * STRICT_MARGIN)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(e, verdict))


def preimage_element(q, boundary, seed, k=3, at=(0, 0)):
    """psi of a tuple of k + 2 blocks >= 0.2; ``boundary`` puts a common null
    vector into x_j and x_+/- for the character ``at`` = (j, side), side 0
    for +, which leaves no strictly positive preimage."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(k + 2):
        raw = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        h = raw @ dagger(raw)
        blocks.append(h / opnorm(h) + 0.2 * np.eye(q))
    if boundary:
        vec = rng.standard_normal((q, 1)) + 1j * rng.standard_normal((q, 1))
        rest = np.eye(q) - vec @ dagger(vec) / float(np.vdot(vec, vec).real)
        for idx in (at[0], k + at[1]):
            blocks[idx] = hermitize(rest @ blocks[idx] @ rest)
    return psi_k(DiagTuple(k, q, blocks))


class TestLiftSolver:
    """The certification phase: the best lift through the quotient map."""

    @pytest.mark.parametrize("q", [1, 2])
    def test_certified_lift(self, q):
        e = preimage_element(q, False, 40 + q)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(e, verdict))
        assert verdict.min_block_eigenvalue >= STRICT_MARGIN
        assert verdict.residual == element_distance(psi_k(verdict.lift), e)

    @pytest.mark.parametrize("k, q, seed", [(3, 2, 0), (4, 2, 3)])
    def test_the_solver_lift_is_certified_as_returned(self, monkeypatch, k, q, seed):
        # t_scalar is 0.01 below 0, so only the solve certifies. The verdict
        # certifies the solver's FloorResult.lift, and the one direction-stack
        # tensordot is lmi_floor's own: no caller forms the lift again.
        t_scalar, _ = TestFloorBracket.bracket(random_selfadjoint_element(k, q, seed, 0.0))
        e = random_selfadjoint_element(k, q, seed, -0.01 - t_scalar)
        results = []

        def solve(*args):
            results.append(lmi_floor(*args))
            return results[-1]

        monkeypatch.setattr("ncprism.opsys.lmi_floor", solve)
        products = record_direction_products(monkeypatch)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Certified) and len(results) == 1 and results[0].steps > 0
        assert products == [(q * q, k + 2, q, q)]
        assert verdict.lift.blocks.tobytes() == results[0].lift.tobytes()
        assert verdict.min_block_eigenvalue == results[0].t_lo >= STRICT_MARGIN
        assert within_bounds(certified_residuals(e, verdict))

    @pytest.mark.parametrize("q", [1, 2])
    def test_boundary_stays_unknown(self, q, monkeypatch):
        # No strictly positive lift exists (the best floor is 0), and no solve
        # runs. At q = 1 the scalar shift and the characters place the floor
        # exactly, as the one-point bracket [t, t]; at q = 2 the midpoint lift
        # at the binding character and the characters give [t_mid, t_char].
        # The residual is the shortfall of the best lift found.
        e = preimage_element(q, True, 50 + q)
        monkeypatch.setattr("ncprism.opsys.lmi_floor", refuse_to_solve)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Unknown)
        assert "smallest block eigenvalue lies in [" in verdict.reason
        low, high = re.search(r"lies in \[(\S+), (\S+)\]", verdict.reason).groups()
        assert abs(float(low)) <= 1e-15 and abs(float(high)) <= 1e-15
        assert q > 1 or low == high
        assert abs(verdict.residual - STRICT_MARGIN) <= 1e-15

    def test_step_cap_is_named_in_the_reason(self, monkeypatch):
        # With one Newton step allowed, a floor 1e-3 below 0 is not yet placed.
        e = gap_probe_element(6, 3, 0, -1e-3)
        monkeypatch.setattr("ncprism.matkernel._LMI_STEPS", 1)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Unknown)
        assert "undecided after 1 Newton steps (step cap" in verdict.reason

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
        verdict = matrix_positivity_prism(e)
        if isinstance(verdict, Refuted):
            assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])
        elif isinstance(verdict, Certified):
            assert within_bounds(certified_residuals(e, verdict))
        else:
            assert isinstance(verdict, Unknown)


class SolverReached(Exception):
    pass


def refuse_to_solve(*args):
    raise SolverReached


class TestFloorBracket:
    """The brackets that decide without a solve: t_scalar <= t* <= t_char and
    t_mid <= t* <= t_char. t_scalar is the floor of the particular lift
    shifted by s 1 along the kernel at the best s, t_char the least eigenvalue
    at the 2k characters, and t_mid the floor of the midpoint lift, the
    particular lift x moved by (x_+/- - x_j)/2 along the kernel at the binding
    character (j, +/-), which puts (x_j + x_+/-)/2 on both of its blocks."""

    @staticmethod
    def bracket(e):
        lows = np.linalg.eigvalsh(_particular_lift(e.blocks)).min(axis=-1)
        return (lows[: e.k].min() + lows[e.k :].min()) / 2, character_lows(e).min()

    @staticmethod
    def midpoint(e):
        """t_mid, at the first binding character in (j, sign) order."""
        base = _particular_lift(e.blocks)
        j, side = divmod(int(np.argmin(character_lows(e))), 2)
        middle = base + _kernel(e.k)[:, None, None] * ((base[e.k + side] - base[j]) / 2)
        return np.linalg.eigvalsh(middle).min()

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(3, 8),
        q=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(0, 7),
        side=st.integers(0, 1),
    )
    def test_boundary_elements_are_unknown_at_the_midpoint(self, k, q, seed, j, side):
        # Blocks >= 0.2 with a common null vector in x_j and x_+/-: t* = 0 = t_char.
        # Whenever the midpoint lift's floor is inside the band, the verdict
        # is Unknown without a solve; it is a lift, so t_mid never exceeds
        # the solver's upper end.
        e = preimage_element(q, True, seed, k, (j % k, side))
        t_char, t_mid = character_lows(e).min(), self.midpoint(e)
        assert abs(t_char) <= 1e-12 and t_mid <= 1e-12
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("ncprism.opsys.lmi_floor", refuse_to_solve)
            try:
                verdict = matrix_positivity_prism(e)
            except SolverReached:
                assert t_mid < -SPEC_TOL
                verdict = None
        assert verdict is None or isinstance(verdict, Unknown)
        result = lmi_floor(*lift_problem(e), (-SPEC_TOL, STRICT_MARGIN))
        scale = max(1.0, max(opnorm(b) for b in [*e.c, e.g]))
        assert t_mid <= result.t_hi + 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
        target=st.sampled_from(
            [-2 * SPEC_TOL, -SPEC_TOL, -SPEC_TOL / 2, 0.0, STRICT_MARGIN, 2 * STRICT_MARGIN]
        )
        | st.floats(-1.0, 1.0),
    )
    def test_scalar_level_never_solves(self, k, seed, target):
        # At q = 1 the scalar shift spans the kernel, so the bracket is the
        # exact vertex margin and only rounding at a band edge reaches the solver.
        low = scalar_positivity_prism(random_selfadjoint_element(k, 1, seed, 0.0)).margin
        e = random_selfadjoint_element(k, 1, seed, target - low)
        margin = scalar_positivity_prism(e).margin
        near_edge = min(abs(margin + SPEC_TOL), abs(margin - STRICT_MARGIN)) <= 1e-15
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("ncprism.opsys.lmi_floor", refuse_to_solve)
            try:
                verdict = matrix_positivity_prism(e)
            except SolverReached:
                assert near_edge
                return
        if not near_edge:
            assert isinstance(verdict, Refuted) == (margin <= -SPEC_TOL)
            assert isinstance(verdict, Certified) == (margin >= STRICT_MARGIN)
        if isinstance(verdict, Refuted):
            assert verdict.witness.dim == 1
            assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])
        if isinstance(verdict, Certified):
            assert within_bounds(certified_residuals(e, verdict))

    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize(
        "margin, kind",
        [(-2 * SPEC_TOL, Refuted), (-SPEC_TOL / 2, Unknown), (2 * STRICT_MARGIN, Certified)],
    )
    def test_direct_sum_with_the_unit_needs_no_solve(self, k, margin, kind):
        # A q = 2 direct sum of a boundary element (as in TestBoundaryVerdicts)
        # and twice the unit: the scalar summand holds every least block
        # eigenvalue, so t_scalar = t_char and all three outcomes come without a solve.
        scalar = TestBoundaryVerdicts.element(k, margin)
        c = [np.diag([complex(b[0, 0]), 2.0 * (m == 0)]) for m, b in enumerate(scalar.c)]
        e = PrismElement(k, 2, c, np.diag([complex(scalar.g[0, 0]), 0.0]))
        t_scalar, t_char = self.bracket(e)
        assert t_scalar == pytest.approx(t_char, abs=1e-15)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("ncprism.opsys.lmi_floor", refuse_to_solve)
            verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, kind)
        if kind is Certified:
            assert within_bounds(certified_residuals(e, verdict))
        if kind is Unknown:
            assert abs(verdict.residual - STRICT_MARGIN - SPEC_TOL / 2) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(3, 8),
        q=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        target=st.sampled_from(
            [-2 * SPEC_TOL, -SPEC_TOL / 2, 0.0, STRICT_MARGIN / 2, 2 * STRICT_MARGIN]
        )
        | st.floats(-0.5, 0.5),
    )
    def test_solve_free_verdicts_agree_with_the_solver(self, k, q, seed, target):
        # c_0 is shifted so that t_scalar is ``target``. A verdict reached
        # without a solve has the class the solver's bracket alone implies.
        t_scalar, _ = self.bracket(random_selfadjoint_element(k, q, seed, 0.0))
        e = random_selfadjoint_element(k, q, seed, target - t_scalar)
        t_scalar, t_char = self.bracket(e)
        solves = []

        def counted(*args):
            solves.append(args)
            return lmi_floor(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("ncprism.opsys.lmi_floor", counted)
            verdict = matrix_positivity_prism(e)
        result = lmi_floor(*lift_problem(e), (-SPEC_TOL, STRICT_MARGIN))
        scale = max(1.0, max(opnorm(b) for b in [*e.c, e.g]))
        assert t_scalar <= result.t_hi + 1e-12 * scale
        assert result.t_lo <= t_char + 1e-12 * scale
        if solves:
            return
        if result.t_lo >= STRICT_MARGIN:
            assert isinstance(verdict, Certified)
        elif result.t_hi < -SPEC_TOL:
            assert isinstance(verdict, Refuted)
        else:
            assert isinstance(verdict, Unknown)
        if isinstance(verdict, Certified):
            assert within_bounds(certified_residuals(e, verdict))


def gap_probe_element(k, q, seed, target):
    """A random selfadjoint element (blocks 0.3 complex Gaussian) with c_0
    shifted so that its best lift's floor t* is ``target``: t* is found by
    bisection on lmi_floor's band (t, t), narrowed by each bracket.

    The bisection starts from a bracket of the element itself: the floor of
    the particular lift is at most t*, and every lift x has floor(x) <=
    lambda_min((x_j + x_+/-)/2), the least eigenvalue at the 2k characters,
    which is the same for every lift."""
    rng = np.random.default_rng(seed)
    raw = 0.3 * (rng.standard_normal((k + 1, q, q)) + 1j * rng.standard_normal((k + 1, q, q)))
    c = [(raw[m] + dagger(raw[(-m) % k])) / 2 for m in range(k)]
    e = PrismElement(k, q, c, hermitize(raw[k]))
    base, system = lift_problem(e)
    low = np.linalg.eigvalsh(base).min()
    high = np.linalg.eigvalsh((base[:k, None] + base[None, k:]) / 2).min()
    while high - low > 1e-9:
        mid = (low + high) / 2
        result = lmi_floor(base, system, (mid, mid))
        if result.t_lo >= mid:
            low = result.t_lo
        elif result.t_hi < mid:
            high = result.t_hi
        else:
            low, high = result.t_lo, result.t_hi
            break
    c[0] = c[0] + (target - (low + high) / 2) * np.eye(q)
    return PrismElement(k, q, c, e.g)


def lift_problem(e):
    """The particular lift and the system of the kernel directions the oracle
    solves over."""
    return _particular_lift(e.blocks), FloorSystem(_kernel(e.k)[:, None, None] * hermitian_basis(e.q)[:, None])


def benchmark_workloads():
    """The benchmark's workload module, loaded from its file; it builds its
    inputs without calling the library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


class TestWorkloadBoundary:
    """The positivity workload's q = 2 boundary element, x_0 + x_+ with a
    null vector: the midpoint lift decides it in every frame, with no solve."""

    @pytest.mark.parametrize("shift", range(3))
    @pytest.mark.parametrize("flip", [False, True])
    def test_no_solve_in_any_frame(self, shift, flip, monkeypatch):
        workloads = benchmark_workloads()
        pool = workloads._positivity_pool()
        monkeypatch.setattr("ncprism.opsys.lmi_floor", refuse_to_solve)
        for frame in range(8):
            u = workloads.haar_unitary(np.random.default_rng(frame), 2)
            blocks = workloads._dihedral(pool[(2, "boundary")], 3, shift, flip)
            blocks = [hermitize(u @ b @ dagger(u)) for b in blocks]
            verdict = matrix_positivity_prism(PrismElement(3, 2, *workloads.psi(3, blocks)))
            assert isinstance(verdict, Unknown) and "inside the band" in verdict.reason


class TestDualWitness:
    """Refutations built from the lift solver's primal point."""

    @pytest.mark.parametrize("k, q, seed", [(3, 2, 9), (3, 2, 23), (6, 3, 0), (6, 3, 2)])
    def test_gap_probe_elements_are_decided(self, k, q, seed):
        # Elements whose best floor sits 1e-3 below or above 0. At these seeds
        # no vertex representation has a negative eigenvalue below -spec_tol,
        # so only the solver's dual witness refutes them.
        below = gap_probe_element(k, q, seed, -1e-3)
        verdict = matrix_positivity_prism(below)
        assert isinstance(verdict, Refuted)
        assert verdict.witness.dim > 1
        assert verdict.witness.provenance == f"dual_witness(k={k}, level={q})"
        assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(below, verdict)])
        assert verdict.min_eigenvalue >= -1e-3 - 1e-8
        above = gap_probe_element(k, q, seed, 1e-3)
        verdict = matrix_positivity_prism(above)
        assert isinstance(verdict, Certified)
        assert within_bounds(certified_residuals(above, verdict))

    def test_gap_probe_places_the_floor_at_large_order(self):
        # Unshifted, this element's best floor is about -11.2, so the
        # bisection must start from a bracket of the element itself.
        e = gap_probe_element(64, 3, 0, -1e-3)
        result = lmi_floor(*lift_problem(e), (-1e-3 - 1e-6, -1e-3 + 1e-6))
        assert -1e-3 - 1e-6 <= result.t_lo and result.t_hi < -1e-3 + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(3, 8),
        q=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        delta=st.floats(1e-4, 0.1),
    )
    def test_witness_is_a_checked_pair_below_the_bound(self, k, q, seed, delta):
        # c_0 is shifted so that the least eigenvalue over the 2k characters
        # is +delta: no character refutes, so every refutation here is the
        # solver's dual witness. At q = 1 the characters decide exactly, so
        # such an element is never refuted there.
        low = character_lows(random_selfadjoint_element(k, q, seed, 0.0)).min()
        e = random_selfadjoint_element(k, q, seed, delta - low)
        assert character_lows(e).min() == pytest.approx(delta, abs=1e-12)
        result = lmi_floor(*lift_problem(e), (-SPEC_TOL, STRICT_MARGIN))
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Refuted) == (result.t_hi < -SPEC_TOL)
        if isinstance(verdict, Refuted):
            assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])
            assert verdict.witness.dim <= k * q
            scale = max(1.0, max(opnorm(b) for b in [*e.c, e.g]))
            assert verdict.min_eigenvalue <= result.t_hi + 1e-12 * scale

    @pytest.mark.parametrize("k", [3, 5])
    def test_rank_deficient_primal_point(self, k):
        # A q = 2 direct sum of a scalar element with vertex value -0.3 at
        # (omega^0, +1) and 2 times the unit. The primal point on that vertex
        # of the first coordinate alone has R = diag(1/2, 0), singular, and
        # b = 1 on its support; the witness lives on the support, at
        # dimension k, and bounds the element by that vertex value.
        c = [np.diag([-0.7, 2.0]), np.diag([0.1, 0.0])]
        c += [np.zeros((2, 2))] * (k - 3) + [np.diag([0.1, 0.0])]
        e = PrismElement(k, 2, c, np.diag([0.2, 0.0]))
        x = np.zeros((k + 2, 2, 2))
        x[0, 0, 0] = x[k, 0, 0] = 0.5
        bound = float(np.vdot(_particular_lift(e.blocks), x).real)
        assert bound == pytest.approx(-0.3, abs=1e-14)
        witness = _dual_witness(x, k)
        assert witness.dim == k
        assert within_bounds(pair_residuals(witness))
        assert min_eigenvalue(e, witness) <= bound + 1e-12
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Refuted)
        assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])

    def test_the_witness_effects_are_factored_once(self, monkeypatch):
        # The k = 3 effects are the only (3, r, r) stacks factored: the
        # solver's stacks have k + 2 slices, and R is a single q x q matrix.
        # Positive definite, they are factored by Cholesky alone.
        e = gap_probe_element(3, 2, 9, -1e-3)
        calls = record_factorisations(monkeypatch)
        verdict = matrix_positivity_prism(e)
        assert verdict.witness.provenance == "dual_witness(k=3, level=2)"
        assert [name for name, shape, _ in calls if len(shape) == 3 and shape[0] == 3] == ["cholesky"]


def vertex_element(k, q, j, sign, seed):
    """psi of a Haar-framed lift whose only negative character value is
    -0.3, at (omega^j, sign): x_j = diag(-1.6, 1, ..., 1) and x_sign = 1
    give (x_j + x_sign)/2 = -0.3 there; x_-sign = 2 and every other x_i = 1
    keep all other characters at 0.2 or above."""
    u = random_unitary(np.random.default_rng(seed), q)
    blocks = [np.eye(q) for _ in range(k)] + ([np.eye(q), 2 * np.eye(q)][::sign])
    blocks[j] = u @ np.diag([-1.6] + [1.0] * (q - 1)) @ dagger(u)
    return psi_k(DiagTuple(k, q, blocks))


class TestCharacterRefutation:
    """Elements with an eigenvalue <= -spec_tol at one of the 2k characters
    are refuted there, by a 1 x 1 witness and without the lift solve."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_one_negative_vertex_gives_a_one_dimensional_witness(self, k, q):
        rng = np.random.default_rng(100 * k + q)
        j, sign = int(rng.integers(0, k)), int(rng.choice([1, -1]))
        e = vertex_element(k, q, j, sign, 100 * k + q)
        lows = character_lows(e)
        assert np.unravel_index(np.argmin(lows), lows.shape) == (j, (1 - sign) // 2)
        verdict = matrix_positivity_prism(e)
        assert isinstance(verdict, Refuted)
        assert verdict.witness.dim == 1
        assert verdict.witness.provenance == f"character(k={k}, j={j}, sign={sign:+d})"
        assert verdict.witness.w[0, 0] == pytest.approx(np.exp(2j * np.pi * j / k), abs=1e-15)
        assert verdict.witness.v[0, 0] == sign
        assert verdict.min_eigenvalue == pytest.approx(-0.3, abs=1e-12)
        assert within_bounds([*pair_residuals(verdict.witness), *refuted_residuals(e, verdict)])

    def test_witness_is_the_scalar_worst_vertex_on_grid(self):
        # Ties (as between j = 1 and 2 at k = 3) go to the first vertex in
        # (j, sign) order, as in scalar_positivity_prism.
        refuted = 0
        for cval in np.linspace(-1.0, 1.0, 5):
            for gval in np.linspace(-1.0, 1.0, 5):
                e = scalar_element(3, [1.0, cval, cval], gval)
                scalar = scalar_positivity_prism(e)
                if scalar.margin > -SPEC_TOL:
                    continue
                verdict = matrix_positivity_prism(e)
                j, sign = scalar.worst_vertex
                assert verdict.witness.provenance == f"character(k=3, j={j}, sign={sign:+d})"
                assert verdict.min_eigenvalue == pytest.approx(scalar.margin, abs=1e-12)
                refuted += 1
        assert refuted == 15

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(3, 8),
        q=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-1.0, 0.5),
    )
    def test_character_route_agrees_with_the_lift_solve(self, k, q, seed, shift):
        # A character value bounds every lift's floor from above, so the
        # solver's lower end t_lo never exceeds a character refutation.
        e = random_selfadjoint_element(k, q, seed, shift)
        lows = character_lows(e)
        verdict = matrix_positivity_prism(e)
        if lows.min() <= -SPEC_TOL - 1e-12:
            j, side = np.unravel_index(np.argmin(lows), lows.shape)
            assert isinstance(verdict, Refuted)
            assert verdict.witness.provenance == f"character(k={k}, j={j}, sign={1 - 2 * side:+d})"
            assert verdict.min_eigenvalue == pytest.approx(lows.min(), abs=1e-12)
            result = lmi_floor(*lift_problem(e), (-SPEC_TOL, STRICT_MARGIN))
            scale = max(1.0, max(opnorm(b) for b in [*e.c, e.g]))
            assert result.t_lo <= verdict.min_eigenvalue + 1e-12 * scale
        elif isinstance(verdict, Refuted):
            assert verdict.witness.dim > 1

    def test_repeated_refutations_check_each_character_once(self, monkeypatch):
        # A character's order residuals are checked once per (k, j, sign)
        # and replayed on every refutation: each measured block records the
        # same rows, the verdict bytes do not change, and every refutation
        # returns a witness of its own.
        reps._checked_character.cache_clear()
        checked = []
        original = reps.pair_residuals
        monkeypatch.setattr(
            reps, "pair_residuals", lambda pair, *rest: checked.append(pair.k) or original(pair, *rest)
        )
        elements = [vertex_element(3, 2, 0, 1, 7), vertex_element(3, 2, 2, -1, 8)]
        runs = []
        for _ in range(3):
            for e in elements:
                with measured() as records:
                    verdict = matrix_positivity_prism(e)
                runs.append((records, json.dumps(verdict_to_json(verdict)), verdict.witness))
        assert len(checked) == len(elements)
        for i, (records, body, witness) in enumerate(runs):
            assert records == runs[i % 2][0] and body == runs[i % 2][1]
            assert [name for name, *_ in records[:4]] == ["w_unitary", "w_order_3", "v_unitary", "v_order_2"]
        runs[0][2].w[0, 0] = 0.0
        assert runs[2][2].w[0, 0] == 1.0 and runs[0][2] is not runs[2][2]

    def test_large_order_is_refuted_at_a_character_in_little_memory(self):
        # The k = 64, q = 3 element, blocks 0.3 complex Gaussian (seed 0) and
        # c_0 shifted by 2: the dual witness of dimension 384 would peak near
        # 300 MB; the character route needs no solve and no dilation.
        k, q = 64, 3
        rng = np.random.default_rng(0)
        raw = 0.3 * (rng.standard_normal((k + 1, q, q)) + 1j * rng.standard_normal((k + 1, q, q)))
        c = [(raw[m] + dagger(raw[(-m) % k])) / 2 for m in range(k)]
        c[0] = c[0] + 2.0 * np.eye(q)
        e = PrismElement(k, q, c, hermitize(raw[k]))
        tracemalloc.start()
        try:
            verdict = matrix_positivity_prism(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(verdict, Refuted)
        assert verdict.witness.dim == 1
        assert verdict.min_eigenvalue == pytest.approx(character_lows(e).min(), abs=1e-12)
        assert peak <= 5e6

    def test_order_4096_decides_in_little_memory(self):
        # The probe element c_0 = 1, c_1 = c_(k-1) = 0.2, g = 0.1 at q = 1,
        # certified from the bracket. A dense k x k Fourier table alone would
        # take 268 MB; the transform needs O(k) memory.
        k = 4096
        c = np.zeros((k, 1, 1))
        c[0], c[1], c[k - 1] = 1.0, 0.2, 0.2
        e = PrismElement(k, 1, c, [[0.1]])
        tracemalloc.start()
        try:
            verdict = matrix_positivity_prism(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(verdict, Certified)
        assert verdict.min_block_eigenvalue == pytest.approx(0.5, abs=1e-12)
        assert peak <= 20e6


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


class TestSkewScreen:
    """``PrismElement.is_selfadjoint`` and ``is_hermitian`` give the SVD
    rule's verdict; a skew part of Frobenius norm at most ALG_TOL passes
    without an SVD."""

    @pytest.mark.parametrize("scale", [1.0, 7.0])
    @pytest.mark.parametrize(
        "norm", [0.0, 1e-12, ALG_TOL * (1 - 1e-3), ALG_TOL * (1 + 1e-3), 1e-6]
    )
    def test_verdicts_match_the_svd_rule(self, monkeypatch, norm, scale):
        # g has the largest block norm, `scale`; the defect i (norm / 2) E_00
        # on it makes its skew part i norm E_00, of spectral and Frobenius
        # norm `norm`, and every other skew part is exactly 0.
        import ncprism.matkernel as matkernel
        import ncprism.opsys as opsys

        rng = np.random.default_rng(5)
        c1 = 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        c = [np.diag([0.5, 0.25]), c1, np.diag([0.25, -0.5]), c1.conj().T]
        g = scale * np.diag([1.0, 0.3]) + 0.5j * norm * np.diag([1.0, 0.0])
        e = PrismElement(4, 2, c, g)
        stack = np.stack([*e.c, e.g])
        skew = stack - dagger(stack[[0, 3, 2, 1, 4]])
        element_rule = max(map(opnorm, skew)) <= ALG_TOL * max(1.0, max(map(opnorm, stack)))
        herm = stack[[0, 2, 4]]
        hermitian_rule = all(opnorm(x - dagger(x)) <= ALG_TOL * max(1.0, opnorm(x)) for x in herm)
        svds = []
        for module in (matkernel, opsys):
            real = module.opnorms
            monkeypatch.setattr(module, "opnorms", lambda a, real=real: svds.append(1) or real(a))
        expected = norm <= ALG_TOL * scale
        assert e.is_selfadjoint() == element_rule == expected
        assert is_hermitian(herm) == hermitian_rule == expected
        assert (svds == []) == (norm <= ALG_TOL)


class TestDiagonalEvaluation:
    """``PrismElement.evaluate`` at an exactly diagonal W sums sum_m d_i^m c_m
    on the diagonal and builds no power of W; it equals the power-stack
    evaluation within 1e-12 max(1, ||e(W, V)||)."""

    @staticmethod
    def assert_matches_the_power_stack(monkeypatch, e, pair):
        import ncprism.opsys as opsys

        assert _exact_diagonal(pair.w) is not None
        size = e.q * pair.dim
        dense = np.einsum("sab,sij->aibj", e.blocks, _basis_operators(pair)).reshape(size, size)
        calls = []
        real = opsys._basis_operators
        monkeypatch.setattr(opsys, "_basis_operators", lambda p: calls.append(1) or real(p))
        value = e.evaluate(pair)
        assert calls == []
        assert opnorm(value - dense) <= 1e-12 * max(1.0, opnorm(dense))

    @pytest.mark.parametrize("k", range(3, 9))
    def test_characters(self, monkeypatch, k):
        e = random_selfadjoint_element(k, 2, k, 0.0)
        for j in range(k):
            for sign in (1, -1):
                self.assert_matches_the_power_stack(monkeypatch, e, prism_character(k, j, sign))

    def test_joint_dilation(self, monkeypatch):
        rng = np.random.default_rng(4)
        a, b = random_prism_point(rng, 4, 3)
        pair, _ = joint_prism_dilation(a, b, 3)
        for q in (1, 2, 3):
            self.assert_matches_the_power_stack(monkeypatch, random_selfadjoint_element(3, q, q, 0.0), pair)

    def test_dual_witness(self, monkeypatch):
        e = gap_probe_element(6, 3, 0, -1e-3)
        verdict = matrix_positivity_prism(e)
        assert verdict.witness.provenance == "dual_witness(k=6, level=3)"
        self.assert_matches_the_power_stack(monkeypatch, e, verdict.witness)

    def test_dual_witness_at_order_32_in_little_memory(self):
        # Blocks 0.3 complex Gaussian (seed 0), c_0 shifted so that the least
        # character eigenvalue is +1e-3: only the dual witness, of dimension
        # kq = 96, refutes. The power stack of its W peaked near 40 MB.
        k, q = 32, 3
        rng = np.random.default_rng(0)
        raw = 0.3 * (rng.standard_normal((k + 1, q, q)) + 1j * rng.standard_normal((k + 1, q, q)))
        c = [(raw[m] + dagger(raw[(-m) % k])) / 2 for m in range(k)]
        e = PrismElement(k, q, c, hermitize(raw[k]))
        c[0] = c[0] + (1e-3 - character_lows(e).min()) * np.eye(q)
        e = PrismElement(k, q, c, e.g)
        tracemalloc.start()
        try:
            verdict = matrix_positivity_prism(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(verdict, Refuted)
        assert verdict.witness.dim == 96
        assert peak <= 25e6

    def test_a_cyclic_shift_takes_the_power_stack(self, monkeypatch):
        import ncprism.opsys as opsys

        pair, _ = prism_vertex_rep(5, 2, -1)
        e = random_selfadjoint_element(5, 2, 1, 0.0)
        calls = []
        real = opsys._basis_operators
        monkeypatch.setattr(opsys, "_basis_operators", lambda p: calls.append(1) or real(p))
        assert opnorm(e.evaluate(pair) - kronecker_sum(e, pair)) <= 1e-12 * max(1.0, opnorm(kronecker_sum(e, pair)))
        assert calls == [1]


class TestBlockValidation:
    """The blocks are coerced and checked as one stack, with the errors the
    per-block checks gave."""

    @pytest.mark.parametrize("make", ["tuple", "element"])
    def test_errors(self, make):
        def build(blocks):  # q = 2, padded with identities
            if make == "tuple":
                return DiagTuple(3, 2, blocks + [np.eye(2)] * (5 - len(blocks)))
            return PrismElement(3, 2, (blocks + [np.eye(2)] * (4 - len(blocks)))[:3], np.eye(2))

        with pytest.raises(ShapeMismatchError, match="blocks must be 2 x 2"):
            build([np.eye(2), np.eye(3)])
        with pytest.raises(ShapeMismatchError, match="blocks must be 2 x 2"):
            build([np.eye(3)] * 5)
        with pytest.raises(ShapeMismatchError, match="blocks must be 2 x 2"):
            build([1.0] * 5)
        # NaN or inf in the real part or in the imaginary part alone.
        for bad in (complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(0, -np.inf)):
            block = np.eye(2, dtype=complex)
            block[0, 1] = bad
            with pytest.raises(ValueError, match="must be finite"):
                build([block])

    def test_scalars_at_level_one(self):
        x = DiagTuple(3, 1, [1, 2.0, 3j, np.float64(4.0), np.complex128(5.0)])
        assert [b.shape for b in x.blocks] == [(1, 1)] * 5
        assert x.blocks[2][0, 0] == 3j
        e = PrismElement(3, 1, [1.0, 0.0, 0.0], 0.5)
        assert e.g.shape == (1, 1) and e.c[0][0, 0] == 1.0

    def test_element_blocks_are_one_stack(self):
        # c and g are views into blocks, which every formula reads; a
        # rebound g would leave blocks behind (the unit with g = 5 evaluates
        # to -4 at the character (1, -1), yet its stale stack certifies), so
        # rebinding is refused.
        e = PrismElement.unit(3, 1)
        assert np.shares_memory(e.c, e.blocks) and np.shares_memory(e.g, e.blocks)
        with pytest.raises(AttributeError):
            e.g = np.array([[5.0]])
        e.g[0, 0] = 5.0
        assert isinstance(matrix_positivity_prism(e), Refuted)


class TestCachedConstants:
    @staticmethod
    def solved():
        # Elements the solve-free rules leave open, at (k, q) = (3, 2),
        # (6, 3), (3, 2): refuted by the dual witness, certified, and one
        # with t* = +1e-7, inside the band, that the solver leaves Unknown.
        return [
            gap_probe_element(3, 2, 9, -1e-3),
            gap_probe_element(6, 3, 0, 1e-3),
            gap_probe_element(3, 2, 0, 1e-7),
            gap_probe_element(3, 2, 23, 1e-3),
        ]

    @staticmethod
    def payload(e):
        return json.dumps(verdict_to_json(matrix_positivity_prism(e)), sort_keys=True)

    def test_cached_lift_system_is_read_only(self):
        system = opsys._lift_system(3, 2)
        built = dict(vars(system))
        self.payload(self.solved()[0])
        assert opsys._lift_system(3, 2) is system
        assert vars(system) == built
        for array in built.values():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0

    def test_cached_and_fresh_lift_systems_decide_alike(self, monkeypatch):
        # A first call, a second call and calls interleaving (3, 2), (6, 3),
        # (3, 2) give the verdict payloads of a system built afresh for
        # every call, byte for byte.
        elements = self.solved()
        elements.insert(1, elements[0])
        opsys._lift_system.cache_clear()
        cached = [self.payload(e) for e in elements]
        monkeypatch.setattr(opsys, "_lift_system", opsys._lift_system.__wrapped__)
        assert cached == [self.payload(e) for e in elements]

    def test_a_second_solve_builds_no_system(self, monkeypatch):
        # The second solve at one (k, q) forms no direction stack and runs no
        # Gram eigvalsh: one eigvalsh fewer than the first, same Newton steps.
        e = self.solved()[2]
        opsys._lift_system.cache_clear()
        bases, basis = [], opsys.hermitian_basis
        monkeypatch.setattr(opsys, "hermitian_basis", lambda q: bases.append(q) or basis(q))
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append(1) or eigvalsh(*args))
        counts = []
        for _ in range(2):
            before = (len(bases), len(calls))
            self.payload(e)
            counts.append((len(bases) - before[0], len(calls) - before[1]))
        (built, first), (again, second) = counts
        assert (built, again) == (1, 0) and first == second + 1
