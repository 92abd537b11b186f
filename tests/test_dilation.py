import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import record_eigh, reference_dft, within_bounds

from ncprism import convexity, dilation, matkernel
from ncprism.convexity import (
    make_polygon,
    max_member,
    random_hermitian_contraction,
    random_prism_point,
    real_imag_parts,
)
from ncprism.dilation import (
    DilationResult,
    GroupWord,
    Povm,
    cube_dilation,
    cube_residuals,
    evaluate_compressed_word,
    evaluate_word,
    halmos_symmetry,
    halmos_symmetry_residuals,
    halmos_unitary,
    halmos_unitary_residuals,
    joint_prism_dilation,
    joint_residuals,
    naimark_normal,
    _dilate_povm,
    naimark_residuals,
    order_k_povm,
    povm_residuals,
    triangle_povm,
)
from ncprism.errors import (
    InfeasibleError,
    InvalidDensityError,
    InvalidPovmError,
    NormExceedsOneError,
    NotHermitianError,
    NotPSDError,
    NumericalRangeOutsideTriangleError,
    OrderMismatchError,
    ShapeMismatchError,
)
from ncprism.convexity import make_cube, prism_member
from ncprism.matkernel import (
    PSD_CLAMP,
    SPEC_TOL,
    commutant_dimension,
    compress,
    dagger,
    hermitize,
    measured,
    opnorm,
    psd_sqrt,
    require_hermitian,
    roots_of_unity,
    support_values,
    symmetry_residuals,
)
from ncprism.opsys import DiagTuple, PrismElement, functional_to_tuple
from ncprism.reps import (
    RepPair,
    SymmetryTuple,
    generated_group_order,
    hadamard_residuals,
    pair_residuals,
    prism_vertex_rep,
    s3_pair,
    two_symmetry_canonical_form,
)

OMEGA = np.exp(2j * np.pi / 3)


class TestHalmosSymmetry:
    def test_zero_contraction(self):
        assert np.allclose(
            halmos_symmetry(np.array([[0.0]])), np.array([[0.0, 1.0], [1.0, 0.0]])
        )

    def test_boundary_contraction(self):
        assert np.allclose(
            halmos_symmetry(np.array([[1.0]])), np.diag([1.0, -1.0]), atol=1e-12
        )
        # Norms up to 1 + psd_clamp pass the self-check; beyond that, refused.
        for norm in (1.0, 1.0 + PSD_CLAMP / 2):
            halmos_symmetry(np.diag([norm, -0.5]))
        with pytest.raises(NormExceedsOneError):
            halmos_symmetry(np.diag([1.0 + 2 * PSD_CLAMP, -0.5]))

    def test_half(self):
        s = halmos_symmetry(np.array([[0.5]]))
        expected = np.array([[0.5, math.sqrt(0.75)], [math.sqrt(0.75), -0.5]])
        assert np.allclose(s, expected, atol=1e-14)

    def test_random_contract(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            b = random_hermitian_contraction(rng, n)
            s = halmos_symmetry(b)
            assert opnorm(s - dagger(s)) <= 1e-12
            assert opnorm(s @ s - np.eye(2 * n)) <= 1e-8
            assert np.array_equal(s[:n, :n], b)

    def test_rejects_expansion(self):
        with pytest.raises(NormExceedsOneError):
            halmos_symmetry(np.array([[1.5]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            halmos_symmetry(np.array([[0.0, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "dilate, name",
    [
        (halmos_symmetry, "b"),
        (halmos_unitary, "x"),
        (lambda b: joint_prism_dilation(0.2 * np.eye(2), b, 3), "b"),
    ],
    ids=["halmos_symmetry", "halmos_unitary", "joint_prism_dilation"],
)
def test_one_contraction_check(dilate, name):
    # Halmos' hypothesis ||x|| <= 1 is checked in one place, up to psd_clamp,
    # for all three dilations.
    dilate(np.diag([1.0 + PSD_CLAMP / 2, -0.5]))
    with pytest.raises(NormExceedsOneError, match=re.escape(f"||{name}|| = 1.000000000002 exceeds 1")):
        dilate(np.diag([1.0 + 2 * PSD_CLAMP, -0.5]))


class TestHalmosUnitary:
    def test_zero(self):
        assert np.allclose(halmos_unitary(np.array([[0.0]])), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_boundary_phase(self):
        u = halmos_unitary(np.array([[1j]]))
        assert np.allclose(u, np.diag([1j, 1j]), atol=1e-12)
        assert opnorm(dagger(u) @ u - np.eye(2)) <= 1e-12
        for norm in (1.0, 1.0 + PSD_CLAMP / 2):
            halmos_unitary(np.array([[0.0, norm], [0.0, 0.0]]))
        with pytest.raises(NormExceedsOneError):
            halmos_unitary(np.array([[0.0, 1.0 + 2 * PSD_CLAMP], [0.0, 0.0]]))

    def test_nilpotent_contraction(self):
        x = np.array([[0.0, 0.8], [0.0, 0.0]])
        u = halmos_unitary(x)
        assert u.shape == (4, 4)
        assert within_bounds(halmos_unitary_residuals(x, u))


class TestTrianglePovm:
    def test_centroid(self):
        povm = triangle_povm(np.array([[0.0]]))
        for h in povm.effects:
            assert np.allclose(h, np.array([[1.0 / 3.0]]), atol=1e-14)

    def test_vertex(self):
        povm = triangle_povm(np.array([[1.0]]))
        values = [complex(h[0, 0]).real for h in povm.effects]
        assert values == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_edge_midpoint(self):
        povm = triangle_povm(np.array([[(1.0 + OMEGA) / 2.0]]))
        values = [complex(h[0, 0]).real for h in povm.effects]
        assert values == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)

    def test_constraints_on_matrix_input(self):
        rng = np.random.default_rng(2)
        a, _ = random_prism_point(rng, 4, 3, scale=0.9)
        povm = triangle_povm(a)
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))
        recombined = sum(
            label * h for label, h in zip(povm.outcome_labels, povm.effects)
        )
        assert opnorm(recombined - a) <= 1e-10

    def test_rejects_outside_triangle(self):
        with pytest.raises(NumericalRangeOutsideTriangleError):
            triangle_povm(np.array([[1.2]]))


class TestTriangleMembership:
    """triangle_povm decides membership from the spectra of its effects as
    max_member does from the facets' support values: the same verdict, error
    class and facet index."""

    SPEC = SPEC_TOL

    @staticmethod
    def outcome(a):
        try:
            triangle_povm(a)
            return "povm", None
        except NumericalRangeOutsideTriangleError as err:
            return "outside", int(re.search(r"facet (\d)", str(err)).group(1))
        except InfeasibleError:
            return "infeasible", None

    def expected(self, a):
        verdict = max_member(list(real_imag_parts(a)), make_polygon(3))
        if not verdict.member:
            return "outside", verdict.facet_index
        # The smallest effect eigenvalue is 2/3 of the margin; the band rule
        # clamps it above -spec_tol / 12 and refuses it below.
        return ("povm" if 2 * verdict.margin / 3 >= -self.SPEC / 12 else "infeasible"), None

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        # The margin -spec_tol itself is the membership threshold, where
        # rounding decides in either computation: it is approached from both
        # sides at a relative 1e-6, as is the band edge -spec_tol / 8.
        target=st.sampled_from(
            [SPEC, -SPEC * (1 - 1e-6), -SPEC * (1 + 1e-6), 1e-9, -1e-9,
             -SPEC / 8 * (1 - 1e-3), -SPEC / 8 * (1 + 1e-3), 0.1, -0.1]
        ),
    )
    def test_margins_decide_as_max_member(self, seed, n, target):
        # Inside the disc of radius 0.3 every slack is at least 0.2; moving a
        # out along the worst facet's normal lowers that slack to the target
        # and raises the others, so the worst facet stays the worst.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= 0.3 / opnorm(a)
        verdict = max_member(list(real_imag_parts(a)), make_polygon(3))
        normal = np.exp(1j * np.pi * (2 * verdict.facet_index + 1) / 3)
        a = a + (verdict.margin - target) * normal * np.eye(n)
        assert self.outcome(a) == self.expected(a)

    @pytest.mark.parametrize("j", range(3))
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("outward", [0.0, 1e-9, 3e-8, 1e-3, 0.5])
    def test_vertex_ties_name_the_first_facet(self, j, n, outward):
        # The two facets through the vertex omega^j tie, and both tests name
        # the first of them in facet order.
        a = (1.0 + outward) * OMEGA**j * np.eye(n)
        outside = outward / 2 > self.SPEC
        first = min(j, (j - 1) % 3)
        assert self.outcome(a) == self.expected(a)
        assert self.outcome(a) == (("outside", first) if outside else ("povm", None))

    def test_no_support_values_are_taken(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("max_member called")

        monkeypatch.setattr(dilation, "max_member", refuse)
        triangle_povm(0.2 * np.eye(2))
        with pytest.raises(NumericalRangeOutsideTriangleError, match="facet 0"):
            triangle_povm(np.array([[1.2]]))


class TestNaimark:
    def test_scalar_centroid(self):
        povm = Povm(
            [np.array([[1 / 3]]), np.array([[1 / 3]]), np.array([[1 / 3]])],
            [1.0, OMEGA, OMEGA**2],
        )
        result = naimark_normal(povm)
        assert np.allclose(result.isometry, np.full((3, 1), 1 / math.sqrt(3)), atol=1e-12)
        assert abs(complex(result.compressions()[0][0, 0])) <= 1e-12

    def test_scalar_vertex(self):
        povm = Povm(
            [np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]])],
            [1.0, OMEGA, OMEGA**2],
        )
        result = naimark_normal(povm)
        assert complex(result.compressions()[0][0, 0]) == pytest.approx(1.0)

    def test_roundtrip_diag(self):
        a = np.diag([1.0, OMEGA])
        result = naimark_normal(triangle_povm(a))
        nd = result.operators[0]
        assert nd.shape == (6, 6)
        assert opnorm(nd @ dagger(nd) - dagger(nd) @ nd) <= 1e-12
        assert opnorm(result.compressions()[0] - a) <= 1e-8

    def test_rejects_bad_povm(self):
        with pytest.raises(InvalidPovmError):
            naimark_normal(
                Povm([np.array([[0.9]]), np.array([[0.3]])], [1.0, -1.0])
            )

    @pytest.mark.parametrize(
        "effects, labels",
        [([], []), ([np.eye(2), np.eye(3)], [1.0, -1.0]), (np.zeros((2, 2, 3)), [1.0, -1.0]), (np.eye(2), [1.0, -1.0])],
        ids=["empty", "ragged", "not-square", "one-matrix"],
    )
    def test_a_malformed_stack_is_refused(self, effects, labels):
        with pytest.raises(InvalidPovmError, match="nonempty stack of square matrices"):
            Povm(effects, labels)

    def test_effects_changed_after_construction_are_refused(self):
        # Weight 0.01 moved from h_1 to h_0 keeps the sum at 1 but moves the
        # first moment by 0.01 (1 - omega): the roots, taken from the spectrum
        # of the effects as built, no longer compress N to that moment.
        povm = triangle_povm(np.diag([0.2, 0.1j]))
        povm.effects[0] += 0.01 * np.eye(2)
        povm.effects[1] -= 0.01 * np.eye(2)
        b = 0.5 * np.eye(2)
        with pytest.raises(InvalidPovmError, match="naimark_normal: compression"):
            naimark_normal(povm)
        with pytest.raises(InvalidPovmError, match=r"joint_prism_dilation\(k=3, level=2\): compression"):
            _dilate_povm(povm, b, dilation._hermitian_defect(b, "b"))

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_effect_eigenvalue_at_the_clamp_edge(self, k):
        # Effects diag(low, 1/k), diag(2/k - low, 1/k), then 1/k: they sum to
        # the identity, and one batched root takes all k of them.
        clamp = PSD_CLAMP

        def povm(low):
            effects = np.stack([np.eye(2, dtype=complex) / k] * k)
            effects[0, 0, 0], effects[1, 0, 0] = low, 2.0 / k - low
            return Povm(list(effects), roots_of_unity(k).tolist())

        result = naimark_normal(povm(-clamp / 2))
        assert result.isometry[0, 0] == 0.0
        assert within_bounds(naimark_residuals(povm(-clamp / 2), result))
        with pytest.raises(NotPSDError):
            naimark_normal(povm(-2 * clamp))


class TestStructuredResiduals:
    """The Naimark and V-compression residuals apply an exactly diagonal N
    through its diagonal and G = [Z; 0] through Z, with the values of the
    dense products; any other N or G takes the dense products."""

    def dense_naimark(self, povm, result):
        z, nd = result.isometry, result.operators[0]
        moment = sum(label * h for label, h in zip(povm.outcome_labels, povm.effects))
        labels = np.diag(np.repeat(povm.outcome_labels, z.shape[1]))
        return [np.linalg.norm(dagger(z) @ nd @ z - moment), np.abs(nd - labels).max()]

    @pytest.mark.parametrize("shift", [0.0, 1e-6])
    def test_naimark_values_match_the_dense_products(self, shift):
        a, _ = random_prism_point(np.random.default_rng(5), 4, 3, scale=0.8)
        povm = triangle_povm(a)
        result = naimark_normal(povm)
        result.operators[0][0, -1] += shift
        values = [value for _, value, _ in naimark_residuals(povm, result)[1:]]
        assert values == pytest.approx(self.dense_naimark(povm, result), rel=1e-12, abs=1e-15)
        assert within_bounds(naimark_residuals(povm, result)) == (shift == 0.0)

    @pytest.mark.parametrize("lower", [0.0, 1e-6])
    def test_v_compression_matches_the_dense_product(self, lower):
        rng = np.random.default_rng(6)
        a, b = random_prism_point(rng, 4, 3, scale=0.8)
        pair, g = joint_prism_dilation(a, b, 3)
        g[-1, 0] += lower
        (_, value, _), = joint_residuals(a, b, pair, g)[2:]
        assert value == pytest.approx(np.linalg.norm(dagger(g) @ pair.v @ g - b), rel=1e-12, abs=1e-15)


class TestOrderKPovm:
    def test_k3_delegates_to_triangle(self):
        povm = order_k_povm(np.array([[0.0]]), 3)
        assert len(povm.effects) == 3

    @pytest.mark.parametrize(
        "a",
        [
            random_prism_point(np.random.default_rng(3), 3, 3, scale=0.8)[0],
            np.array([[OMEGA * (1 + 1e-9)]]),
            np.array([[OMEGA * (1 + 5e-9)]]),
            np.array([[1.1]]),
        ],
        ids=["interior", "clamped", "primal-certificate", "facet"],
    )
    def test_triangle_povm_is_order_k_povm_at_k3(self, a):
        # Bit-identical effects, or the same refusal, down both names.
        outcomes = []
        for build in (triangle_povm, lambda a: order_k_povm(a, 3)):
            try:
                outcomes.append(build(a).effects.tobytes())
            except (InfeasibleError, NumericalRangeOutsideTriangleError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_povm_rows_carry_one_label(self, k):
        a, _ = random_prism_point(np.random.default_rng(k), 2, k, scale=0.5)
        with measured() as records:
            order_k_povm(a, k)
        rows = [(name, what) for name, _, _, what in records if not what.startswith("polygon")]
        label = f"order_k_povm(k={k}, level=2)"
        assert rows == [("first_moment", label), ("sum_to_identity", label), ("effects_positive", label)]

    def test_rejects_a_non_square_input(self):
        with pytest.raises(ShapeMismatchError, match="square"):
            order_k_povm(np.zeros((2, 3)), 4)

    def test_vertex_k4(self):
        a = np.array([[1j]])
        povm = order_k_povm(a, 4)
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))

    def test_center_k4(self):
        a = np.array([[0.0]])
        povm = order_k_povm(a, 4)
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))

    def test_matrix_level_k5(self):
        rng = np.random.default_rng(4)
        a, _ = random_prism_point(rng, 2, 5, scale=0.8)
        povm = order_k_povm(a, 5)
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))

    def test_infeasible_outside_polygon(self):
        with pytest.raises(InfeasibleError):
            order_k_povm(np.array([[1.5]]), 4)

    @pytest.mark.parametrize("k", [4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_random_points_decompose(self, k, n):
        rng = np.random.default_rng([k, n])
        a, _ = random_prism_point(rng, n, k, scale=0.75)
        povm = order_k_povm(a, k)
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))
        assert min(np.linalg.eigvalsh(h).min() for h in povm.effects) > 0.0

    @pytest.mark.parametrize("k", [4, 6])
    def test_near_boundary_points_are_decided(self, k):
        # A scale-0.95 point of W^max(C_k): a decomposition or a proof that none exists.
        a, _ = random_prism_point(np.random.default_rng(k), 2, k, scale=0.95)
        try:
            povm = order_k_povm(a, k)
        except InfeasibleError as exc:
            assert str(exc).startswith("no positive decomposition")
        else:
            assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))

    def test_feasible_k6_draw_decomposes(self):
        # The first k = 6, scale-0.9 draw at level 4 from default_rng([20260117, 6, 9]):
        # 5000 alternating-projection sweeps did not converge on it, yet the best
        # smallest effect eigenvalue is about 1.1e-3.
        k, scale = 6, 0.9
        rng = np.random.default_rng([20260117, k, round(10 * scale)])
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        re, im = real_imag_parts(raw)
        angles = (2 * np.arange(k) + 1) * np.pi / k
        reach = max(
            np.linalg.eigvalsh(math.cos(t) * re + math.sin(t) * im).max() for t in angles
        ) / math.cos(math.pi / k)
        a = raw * (scale / reach)
        povm = order_k_povm(a, k)
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))
        assert min(np.linalg.eigvalsh(h).min() for h in povm.effects) > 0.0

    def test_infeasible_k5_draw_is_certified(self):
        # Sample 4 of the seed-0 sequence of random_prism_point draws at k = 5 lies in
        # W^max(C_5) but has no positive decomposition (best floor about -6.2e-3).
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            a, _ = random_prism_point(rng, n, 5)
        assert n == 3
        with pytest.raises(InfeasibleError, match="^no positive decomposition"):
            order_k_povm(a, 5)

    @settings(max_examples=40)
    @given(
        k=st.integers(4, 8),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.05, 1.0),
    )
    def test_polygon_points_decompose_or_raise_infeasible(self, k, n, seed, scale):
        a, _ = random_prism_point(np.random.default_rng(seed), n, k, scale=scale)
        try:
            povm = order_k_povm(a, k)
        except InfeasibleError:
            return
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))


    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_scaled_vertex_switches_outcome_once(self, k):
        # a = v (1 + delta) at a vertex v sits outside the polygon by about
        # delta, inside max_member's tolerance. Its best floor falls through
        # -band = -spec_tol / 4k at delta = 2.5e-9: every outcome is a checked
        # decomposition or a proof with t_hi < -band, except that the floor
        # at exactly -band leaves an undecided bracket around it. At k = 3 the
        # barycentric effects are the only decomposition, so the bracket is exact.
        band = SPEC_TOL / (4 * k)
        for vertex in roots_of_unity(k)[:2]:
            outcomes = []
            for delta in np.linspace(1e-9, 5e-9, 17):
                a = np.array([[vertex * (1 + delta)]])
                try:
                    povm = order_k_povm(a, k)
                except InfeasibleError as exc:
                    low, high = (float(x) for x in str(exc).split("[")[1].split("]")[0].split(","))
                    if str(exc).startswith("no positive decomposition"):
                        assert "(primal certificate)" in str(exc) and high < -band
                        outcomes.append("proof")
                    else:
                        assert str(exc).startswith("undecided") and low <= -band <= high
                        outcomes.append("undecided")
                else:
                    assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))
                    outcomes.append("povm")
            switches = [x for i, x in enumerate(outcomes) if i == 0 or x != outcomes[i - 1]]
            assert switches in (["povm", "proof"], ["povm", "undecided", "proof"])
            assert outcomes.count("undecided") <= 1


class TestJointPrismDilation:
    def test_zero_pair(self):
        pair, g = joint_prism_dilation(np.array([[0.0]]), np.array([[0.0]]), 3)
        assert pair.dim == 6
        assert abs(complex(compress(pair.w, g)[0, 0])) <= 1e-10
        assert abs(complex(compress(pair.v, g)[0, 0])) <= 1e-10
        assert within_bounds(pair_residuals(pair))

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ShapeMismatchError, match="equal size"):
            joint_prism_dilation(np.zeros((2, 2)), np.zeros((3, 3)), 3)

    def test_vertex_pair(self):
        pair, g = joint_prism_dilation(np.array([[1.0]]), np.array([[1.0]]), 3)
        assert complex(compress(pair.w, g)[0, 0]) == pytest.approx(1.0, abs=1e-10)
        assert complex(compress(pair.v, g)[0, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_shift_and_signs_roundtrip(self):
        shift = np.zeros((3, 3), dtype=complex)
        shift[0, 2] = shift[1, 0] = shift[2, 1] = 1.0
        b = np.diag([1.0, -1.0, 1.0]).astype(complex)
        pair, g = joint_prism_dilation(shift, b, 3)
        assert pair.dim == 18
        assert within_bounds(joint_residuals(shift, b, pair, g))

    def test_order_four(self):
        rng = np.random.default_rng(8)
        a, b = random_prism_point(rng, 2, 4, scale=0.7)
        pair, g = joint_prism_dilation(a, b, 4)
        assert within_bounds([*pair_residuals(pair), *joint_residuals(a, b, pair, g)])

    @staticmethod
    def assert_symmetry_of_carried_b(a, b, k, bound=SPEC_TOL):
        """V is a symmetry with corner Z b Z*, equals the Halmos symmetry of
        Z b Z* built at level k n within ``bound``, and the whole output
        passes its residuals."""
        pair, g = joint_prism_dilation(a, b, k)
        z = g[: pair.dim // 2]
        carried = hermitize(z @ b @ dagger(z))
        reference = halmos_symmetry(carried)
        assert opnorm(pair.v - reference) <= bound
        assert within_bounds(halmos_symmetry_residuals(carried, pair.v))
        assert within_bounds([*pair_residuals(pair), *joint_residuals(a, b, pair, g)])

    # Scales up to 1/2 keep W(a) inside the square where the k = 4
    # Fourier-minimal effects are already positive, so no level-32 solve runs.
    @settings(max_examples=30)
    @given(
        k=st.sampled_from([3, 4]),
        n=st.sampled_from([1, 2, 8, 32]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.05, 0.5),
    )
    def test_symmetry_matches_halmos_of_carried_b(self, k, n, seed, scale):
        a, b = random_prism_point(np.random.default_rng(seed), n, k, scale=scale)
        self.assert_symmetry_of_carried_b(a, b, k)

    @pytest.mark.parametrize(
        "b",
        [
            np.diag([1.0, -0.3, 0.2]),
            np.diag([1.0 + PSD_CLAMP / 2, -0.5, 0.1]),
            np.eye(3),
            -np.eye(3),
        ],
        ids=["norm_one", "norm_one_plus_half_clamp", "plus_one", "minus_one"],
    )
    def test_boundary_contractions(self, b):
        # The defect 1 - b^2 has eigenvalues at 0, whose computed square roots
        # are fixed only to sqrt(psd_clamp), so the two constructions of V
        # agree to that bound; both are symmetries within spec_tol.
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        a, _ = random_prism_point(rng, 3, 3, scale=0.8)
        for contraction in (b, u @ b @ dagger(u)):
            self.assert_symmetry_of_carried_b(a, contraction, 3, math.sqrt(PSD_CLAMP))

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_norm_at_the_clamp_edge(self, k):
        # ||b|| = 1 and 1 + psd_clamp/2 give a checked pair; 1 + 2 psd_clamp
        # is refused.
        clamp = PSD_CLAMP
        a, _ = random_prism_point(np.random.default_rng(k), 2, k, scale=0.5)
        for top in (1.0, 1.0 + clamp / 2):
            b = np.diag([top, -0.4])
            pair, g = joint_prism_dilation(a, b, k)
            assert within_bounds([*pair_residuals(pair), *joint_residuals(a, b, pair, g)])
        with pytest.raises(NormExceedsOneError):
            joint_prism_dilation(a, np.diag([1.0 + 2 * clamp, -0.4]), k)

    def test_singular_effects_on_a_triangle_edge(self):
        # Points on the edge [1, omega] and at the vertex omega^2: the effects
        # are singular, so the Naimark isometry has rank-deficient blocks.
        a = np.diag([0.3 + 0.7 * OMEGA, 0.5 + 0.5 * OMEGA, OMEGA**2])
        u = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 1j * np.eye(3))[0]
        for b in (np.diag([0.9, -0.4, 0.2]), np.diag([0.9, -0.4, 1.0])):
            for rotated in (a, u @ a @ dagger(u)):
                self.assert_symmetry_of_carried_b(rotated, b, 3, math.sqrt(PSD_CLAMP))


    @pytest.mark.parametrize("k", [3, 4, 6, 8])
    def test_dilation_of_a_given_povm(self, k):
        # A random POVM with labels at the k-th roots of unity, not one that
        # order_k_povm would return: G* W^m G = sum_j omega^(j m) h_j for every
        # m, and G* V G = b.
        rng = np.random.default_rng(k)
        n = 3
        raw = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        parts = raw @ dagger(raw)
        w, u = np.linalg.eigh(parts.sum(axis=0))
        root = (u / np.sqrt(w)) @ dagger(u)
        effects = hermitize(root @ parts @ root)
        b = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        b = 0.9 * b / opnorm(b)
        povm = Povm(list(effects), roots_of_unity(k).tolist())
        pair, g = _dilate_povm(povm, b, dilation._hermitian_defect(b, "b"))
        assert pair.dim == 2 * k * n
        assert within_bounds(pair_residuals(pair))
        power = np.eye(pair.dim)
        for m in range(k):
            moment = np.tensordot(reference_dft(k)[:, m], effects, axes=1)
            assert opnorm(dagger(g) @ power @ g - moment) <= 1e-10
            power = power @ pair.w
        assert opnorm(dagger(g) @ pair.v @ g - b) <= 1e-10


class TestCubeDilation:
    def test_single_half(self):
        result = cube_dilation([np.array([[0.5]])])
        expected = np.array([[0.5, math.sqrt(0.75)], [math.sqrt(0.75), -0.5]])
        assert np.allclose(result.operators[0], expected, atol=1e-14)

    def test_two_zeros(self):
        result = cube_dilation([np.zeros((1, 1)), np.zeros((1, 1))])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for op in result.operators:
            assert np.allclose(op, swap)

    def test_three_random(self):
        rng = np.random.default_rng(31)
        mats = [random_hermitian_contraction(rng, 4) for _ in range(3)]
        result = cube_dilation(mats)
        assert [op.shape for op in result.operators] == [(8, 8)] * 3
        assert within_bounds(cube_residuals(mats, result))

    def test_rows_carry_the_labels_of_cube_residuals(self):
        # Each entry's symmetry rows are recorded under its own label, with
        # the values that cube_residuals re-checks.
        mats = [0.5 * np.eye(2), np.array([[0.3, 0.1j], [-0.1j, -0.2]])]
        with measured() as records:
            result = cube_dilation(mats)
        rechecked = {name: (value, bound) for name, value, bound in cube_residuals(mats, result)}
        assert [name for name, *_ in records] == [
            "s1_selfadjoint", "s1_squares_to_identity", "s2_selfadjoint", "s2_squares_to_identity"
        ]
        for name, value, bound, what in records:
            assert (value, bound) == rechecked[name] and what == "halmos_symmetry"


class TestWords:
    def test_empty_word_identity(self):
        pair, _ = prism_vertex_rep(3, 0, 1)
        word = GroupWord((), 3)
        assert np.array_equal(evaluate_word(pair, word), np.eye(3, dtype=complex))

    def test_vv_is_identity(self):
        pair, _ = prism_vertex_rep(3, 1, -1)
        value = evaluate_word(pair, GroupWord.from_string("vv", 3))
        assert opnorm(value - np.eye(3)) <= 1e-12

    def test_wv_against_direct_multiplication(self):
        pair, _ = prism_vertex_rep(3, 0, 1)
        value = evaluate_word(pair, GroupWord.from_string("wv", 3))
        assert opnorm(value - pair.w @ pair.v) <= 1e-14

    def test_w_star_is_inverse_power(self):
        pair, _ = prism_vertex_rep(4, 1, 1)
        value = evaluate_word(pair, GroupWord.from_string("ww*", 4))
        assert opnorm(value - np.eye(4)) <= 1e-12

    def test_compressed_single_letters_match_generators(self):
        rng = np.random.default_rng(17)
        a, b = random_prism_point(rng, 2, 3)
        pair, g = joint_prism_dilation(a, b, 3)
        wval = evaluate_compressed_word(pair, g, GroupWord.from_string("w", 3))
        vval = evaluate_compressed_word(pair, g, GroupWord.from_string("v", 3))
        assert opnorm(wval - a) <= 1e-8
        assert opnorm(vval - b) <= 1e-8

    def test_order_mismatch(self):
        pair, _ = prism_vertex_rep(3, 0, 1)
        with pytest.raises(OrderMismatchError):
            evaluate_word(pair, GroupWord.from_string("w", 4))

    def test_word_parser_rejects_junk(self):
        with pytest.raises(ValueError):
            GroupWord.from_string("wx", 3)


class TestMirmanInvariant:
    def test_compression_of_normal_roundtrip(self):
        rng = np.random.default_rng(42)
        spectrum = np.array([OMEGA ** int(rng.integers(0, 3)) for _ in range(12)])
        normal = np.diag(spectrum)
        raw = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        z0, _ = np.linalg.qr(raw)
        a = dagger(z0) @ normal @ z0
        povm = triangle_povm(a)
        result = naimark_normal(povm)
        assert within_bounds(povm_residuals(povm.effects, povm.outcome_labels, a))
        assert within_bounds(naimark_residuals(povm, result))
        assert np.allclose(povm.outcome_labels, [1.0, OMEGA, OMEGA**2], atol=1e-12)
        assert opnorm(result.compressions()[0] - a) <= 1e-8


class TestOneFactorisation:
    """Each dilation factors each input once and checks its identities
    with no SVD: the k = 3 joint dilation takes one ``eigh`` of the effect
    stack and one of b."""

    @staticmethod
    def count(monkeypatch, *names):
        # Patch the numpy.linalg functions both where callers name them and
        # where numpy's own norm helpers call them.
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.linalg, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
            monkeypatch.setattr(np.linalg._linalg, name, counted)
        return calls

    @staticmethod
    def joint_input():
        return random_prism_point(np.random.default_rng(25), 32, 3, scale=0.8)

    @pytest.mark.parametrize(
        "build, inputs",
        [
            (lambda a, b: joint_prism_dilation(a, b, 3), lambda: TestOneFactorisation.joint_input()),
            (halmos_symmetry, lambda: [random_hermitian_contraction(np.random.default_rng(1), 8)]),
            (halmos_unitary, lambda: [0.9 * np.linalg.qr(np.arange(64.0).reshape(8, 8) + 1j)[0]]),
            (
                lambda *mats: cube_dilation(mats),
                lambda: [random_hermitian_contraction(np.random.default_rng(j), 4) for j in range(3)],
            ),
            (naimark_normal, lambda: [triangle_povm(0.3 * np.diag([1.0, 1j, -1.0]))]),
        ],
        ids=["joint_k3_n32", "halmos_symmetry", "halmos_unitary", "cube_dilation", "naimark_normal"],
    )
    def test_no_svd(self, monkeypatch, build, inputs):
        args = inputs()
        calls = self.count(monkeypatch, "svd")
        build(*args)
        assert calls["svd"] == 0

    def test_joint_k3_takes_two_eigh(self, monkeypatch):
        a, b = self.joint_input()
        calls = self.count(monkeypatch, "eigh", "eigvalsh", "svd")
        joint_prism_dilation(a, b, 3)
        assert calls == {"eigh": 2, "eigvalsh": 0, "svd": 0}

    # Each effect stack is factored by one ``eigh``, the POVM's own: the
    # membership test, the band rule, ``effects_positive`` and the Naimark
    # roots all read it. A call counts when its argument is the stack of the
    # effects returned (the solver's own stacks at k >= 4 are not).
    @staticmethod
    def factorisations(calls, effects):
        effects = np.asarray(effects)
        return sum(c.shape == effects.shape and np.array_equal(hermitize(c), effects) for c in calls)

    def test_naimark_of_the_triangle_povm_factors_the_effects_once(self, monkeypatch):
        a, _ = random_prism_point(np.random.default_rng(8), 4, 3, scale=0.8)
        calls = record_eigh(monkeypatch)
        povm = triangle_povm(a)
        naimark_normal(povm)
        assert self.factorisations(calls, povm.effects) == 1

    @pytest.mark.parametrize("k", [3, 5])
    def test_joint_dilation_factors_the_effects_once(self, monkeypatch, k):
        a, b = random_prism_point(np.random.default_rng(k), 4, k, scale=0.8)
        effects = order_k_povm(a, k).effects
        calls = record_eigh(monkeypatch)
        joint_prism_dilation(a, b, k)
        assert self.factorisations(calls, effects) == 1

    @pytest.mark.parametrize("k, passes", [(3, 2), (4, 4), (5, 4), (8, 4)])
    def test_each_array_passes_the_operand_rule_once(self, monkeypatch, k, passes):
        # The operand, its Hermitian parts (k >= 4: real_imag_parts, then
        # support_values, which max_member relies on) and the effect stack
        # (Povm, whose one pass also checks it Hermitian) each pass once.
        a, _ = random_prism_point(np.random.default_rng(k), 3, k, scale=0.8)
        calls, rule = [], matkernel._operands
        for module in (matkernel, convexity, dilation):
            monkeypatch.setattr(module, "_operands", lambda *args, **kw: calls.append(args[0]) or rule(*args, **kw))
        order_k_povm(a, k)
        assert len(calls) == passes, calls


class TestModeSystemCache:
    """``order_k_povm`` keeps one read-only ``lmi_floor`` system per (k, n)
    and ``make_polygon`` one polygon per k; neither changes a result."""

    @staticmethod
    def draw(k):
        # A scale-0.9 point at level 4, as in the benchmark's dilate pool: its
        # decomposition takes Newton steps, so it reads the system's constraints.
        return random_prism_point(np.random.default_rng([20260117, k, 9]), 4, k, scale=0.9)[0]

    @staticmethod
    def outcome(a, k):
        try:
            return order_k_povm(a, k).effects.tobytes()
        except InfeasibleError as exc:
            return str(exc)

    def test_cached_arrays_are_read_only(self):
        system = dilation._mode_system(4, 4)
        self.outcome(self.draw(4), 4)
        assert dilation._mode_system(4, 4) is system
        for array in (system.directions, *system.constraints):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0
        for k in (3, 4, 6):
            polygon = make_polygon(k)
            assert make_polygon(k) is polygon
            fresh = make_polygon.__wrapped__(k)
            for name in ("vertices", "normals", "offsets"):
                assert np.array_equal(getattr(polygon, name), getattr(fresh, name))
                with pytest.raises(ValueError, match="read-only"):
                    getattr(polygon, name)[0] = 0.0

    def test_cached_and_fresh_systems_decide_alike(self, monkeypatch):
        # A first call, a second call and calls interleaving (4, 4), (6, 4),
        # (4, 4) give the effects, or the refusal, of a system built afresh
        # for every call, bit for bit.
        inputs = [(self.draw(k), k) for k in (4, 4, 6, 4, 6)]
        dilation._mode_system.cache_clear()
        cached = [self.outcome(a, k) for a, k in inputs]
        monkeypatch.setattr(dilation, "_mode_system", dilation._mode_system.__wrapped__)
        assert cached == [self.outcome(a, k) for a, k in inputs]

    def test_a_second_call_builds_no_system(self, monkeypatch):
        # The second call at one (k, n) forms no direction stack and runs no
        # Gram eigvalsh: it takes one eigvalsh fewer than the first, which
        # follows the same Newton steps.
        a = self.draw(6)
        dilation._mode_system.cache_clear()
        bases, basis = [], dilation.hermitian_basis
        monkeypatch.setattr(dilation, "hermitian_basis", lambda n: bases.append(n) or basis(n))
        calls = TestOneFactorisation.count(monkeypatch, "eigvalsh")
        counts = []
        for _ in range(2):
            before = (len(bases), calls["eigvalsh"])
            self.outcome(a, 6)
            counts.append((len(bases) - before[0], calls["eigvalsh"] - before[1]))
        (built, first), (again, second) = counts
        assert (built, again) == (1, 0) and first == second + 1 and second > 2


@pytest.mark.parametrize(
    "call",
    [
        lambda a: support_values([a, a], np.eye(2)),
        lambda a: max_member([a, a], make_polygon(4)),
        lambda a: prism_member(a, a, 4),
        lambda a: triangle_povm(a),
        lambda a: order_k_povm(a, 3),
        lambda a: order_k_povm(a, 4),
        lambda a: joint_prism_dilation(a, a, 3),
        lambda a: joint_prism_dilation(a, a, 5),
        lambda a: commutant_dimension([a]),
        lambda a: psd_sqrt(a),
        lambda a: require_hermitian(a),
        lambda a: compress(a, np.eye(2)),
        lambda a: symmetry_residuals(a),
        lambda a: halmos_symmetry(a),
        lambda a: halmos_unitary(a),
        lambda a: cube_dilation([a, a]),
        lambda a: DilationResult(np.eye(2), [a], ["a"]),
        lambda a: real_imag_parts(a),
        lambda a: RepPair(a, a, 3),
        lambda a: SymmetryTuple([a, a]),
        lambda a: two_symmetry_canonical_form(a, a),
        lambda a: generated_group_order([a]),
        lambda a: hadamard_residuals([a, a]),
        lambda a: PrismElement(3, 2, [a] * 3, a),
        lambda a: DiagTuple(3, 2, [a] * 5),
    ],
    ids=[
        "support_values", "max_member", "prism_member", "triangle_povm", "order_k_povm-3",
        "order_k_povm-4", "joint_prism_dilation-3", "joint_prism_dilation-5", "commutant_dimension",
        "psd_sqrt", "require_hermitian", "compress", "symmetry_residuals", "halmos_symmetry",
        "halmos_unitary", "cube_dilation", "DilationResult", "real_imag_parts", "RepPair", "SymmetryTuple",
        "two_symmetry_canonical_form", "generated_group_order", "hadamard_residuals", "PrismElement",
        "DiagTuple",
    ],
)
def test_empty_input_is_refused(call):
    # A 0 x 0 input is refused by the library, not by numpy's zero-size reduction.
    with pytest.raises(ShapeMismatchError, match="0 x 0"):
        call(np.zeros((0, 0)))


# Every entry point that takes its square operands through the operand rule
# (matkernel._operands): a call on a list of operands, the number it takes
# (None for a tuple of any length) and the error it raises for a malformed shape.
OPERAND_ENTRIES = {
    "psd_sqrt": (lambda m: psd_sqrt(m[0]), 1, ShapeMismatchError),
    "require_hermitian": (lambda m: require_hermitian(m[0]), 1, ShapeMismatchError),
    "commutant_dimension": (commutant_dimension, None, ShapeMismatchError),
    "support_values": (lambda m: support_values(m, np.ones((1, len(m)))), None, ShapeMismatchError),
    "compress": (lambda m: compress(m[0], np.eye(2)), 1, ShapeMismatchError),
    "symmetry_residuals": (lambda m: symmetry_residuals(m[0]), 1, ShapeMismatchError),
    "Povm": (lambda m: Povm(m, [1.0] * len(m)), None, InvalidPovmError),
    "naimark_normal": (lambda m: naimark_normal(Povm(m, [1.0] * len(m))), None, InvalidPovmError),
    "DilationResult": (lambda m: DilationResult(np.eye(2), m, ["op"] * len(m)), None, ShapeMismatchError),
    "halmos_symmetry": (lambda m: halmos_symmetry(m[0]), 1, ShapeMismatchError),
    "halmos_unitary": (lambda m: halmos_unitary(m[0]), 1, ShapeMismatchError),
    "triangle_povm": (lambda m: triangle_povm(m[0]), 1, ShapeMismatchError),
    "order_k_povm": (lambda m: order_k_povm(m[0], 4), 1, ShapeMismatchError),
    "joint_prism_dilation": (lambda m: joint_prism_dilation(*m, 3), 2, ShapeMismatchError),
    "cube_dilation": (cube_dilation, None, ShapeMismatchError),
    "real_imag_parts": (lambda m: real_imag_parts(m[0]), 1, ShapeMismatchError),
    "max_member": (lambda m: max_member(m, make_cube(len(m) or 1)), None, ShapeMismatchError),
    "prism_member": (lambda m: prism_member(*m, 3), 2, ShapeMismatchError),
    "RepPair": (lambda m: RepPair(*m, 3), 2, ShapeMismatchError),
    "SymmetryTuple": (SymmetryTuple, None, ShapeMismatchError),
    "two_symmetry_canonical_form": (lambda m: two_symmetry_canonical_form(*m), 2, ShapeMismatchError),
    "generated_group_order": (generated_group_order, None, ShapeMismatchError),
    "hadamard_residuals": (hadamard_residuals, None, ShapeMismatchError),
    "PrismElement": (lambda m: PrismElement(3, 2, m[:3], m[3]), 4, ShapeMismatchError),
    "DiagTuple": (lambda m: DiagTuple(3, 2, m), 5, ShapeMismatchError),
    "functional_to_tuple": (lambda m: functional_to_tuple(s3_pair(), m[0], 3), 1, InvalidDensityError),
}


def _malformed_cases():
    """(call, operands, error, match) for every entry point: a non-square
    operand, unequal sizes and an empty tuple where the entry takes more than
    one operand, a NaN or +-inf entry in the real or the imaginary part, and a
    0 x 0 operand where the error is not ShapeMismatchError (the others are in
    test_empty_input_is_refused). A refused shape is named in the message."""
    for name, (call, count, error) in OPERAND_ENTRIES.items():
        size = count or 2
        cases = {"non-square": ([np.zeros((2, 3))] * size, "got .*2 x 3")}
        if size > 1:
            cases["unequal"] = ([np.eye(3)] + [np.eye(2)] * (size - 1), "got .*2 x 2|arrays of different shapes")
        if count is None:
            cases["empty"] = ([], r"got (none|shape \(0,\))")
        if error is not ShapeMismatchError:
            cases["0x0"] = ([np.zeros((0, 0))] * size, "got .*0 x 0")
        for case, (operands, match) in cases.items():
            yield pytest.param(call, operands, error, match, id=f"{name}-{case}")
        non_finite = {"nan": np.nan, "nan-imaginary": complex(0, np.nan), "inf": np.inf, "-inf-imaginary": complex(0, -np.inf)}
        for case, value in non_finite.items():
            bad = np.eye(2, dtype=complex)
            bad[0, 1] = value
            yield pytest.param(call, [bad] * size, ValueError, "finite", id=f"{name}-{case}")


@pytest.mark.parametrize("call, operands, error, match", _malformed_cases())
def test_malformed_operands_are_refused(call, operands, error, match):
    # The library's own error, never numpy's shape or reduction ValueError,
    # an IndexError or the built-in max() of an empty sequence.
    with pytest.raises(error, match=match):
        call(operands)
