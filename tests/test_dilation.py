import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    record_direction_products,
    record_factorisations,
    reference_dft,
    square_root_dilation,
    within_bounds,
)

from ncprism import convexity, dilation, floor, matkernel, reps
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


@pytest.mark.parametrize("recheck, dilate", [
    (dilation.halmos_symmetry_residuals, halmos_symmetry),
    (halmos_unitary_residuals, halmos_unitary),
], ids=["symmetry", "unitary"])
@pytest.mark.parametrize("corner, cut, shapes", [
    (np.array([[0.5]]), 4, "1 x 1 and 4 x 4"),
    (np.eye(4), 4, "4 x 4 and 4 x 4"),
    (np.array([[0.5, 0.1], [0.1, -0.3]]), 3, "2 x 2 and 4 x 3"),
], ids=["smaller-corner", "larger-corner", "non-square"])
def test_halmos_recheck_refuses_a_corner_of_another_size(recheck, dilate, corner, cut, shapes):
    # The 4 x 4 dilation of a 2 x 2 b, re-checked against a corner that is
    # not half its size, or with a column cut off: no row may compare only
    # the block the two shapes share.
    big = dilate(np.array([[0.5, 0.1], [0.1, -0.3]]))[:, :cut]
    with pytest.raises(ShapeMismatchError, match=f"needs an n x n corner of a 2n x 2n operator, got {shapes}$"):
        recheck(corner, big)


def _level_pair():
    """The joint dilation of the 2 x 2 zero pair over C_3, and the level-2 POVM
    and Naimark dilation of a = 0."""
    povm = triangle_povm(np.zeros((2, 2)))
    return joint_prism_dilation(np.zeros((2, 2)), np.zeros((2, 2)), 3), povm, naimark_normal(povm)


@pytest.mark.parametrize("recheck, shapes", [
    (lambda pair, g, povm, result: joint_residuals(np.zeros((1, 1)), np.zeros((1, 1)), pair, g),
     "1 x 1 and 1 x 1 and 6 x 6 and 6 x 2"),
    (lambda pair, g, povm, result: joint_residuals(np.zeros((2, 2)), np.zeros((2, 2)), pair, g[:3]),
     "2 x 2 and 2 x 2 and 6 x 6 and 3 x 2"),
    (lambda pair, g, povm, result: naimark_residuals(triangle_povm(np.zeros((1, 1))), result),
     "3 x 1 x 1 and 6 x 2"),
    (lambda pair, g, povm, result: naimark_residuals(povm, replace(result, isometry=g[:, :1])),
     "3 x 2 x 2 and 6 x 1"),
    (lambda pair, g, povm, result: cube_residuals([np.zeros((1, 1))], cube_dilation([np.zeros((2, 2))])),
     "1 x 1 and 4 x 2"),
    (lambda pair, g, povm, result: povm_residuals(povm.effects, povm.outcome_labels, np.zeros((1, 1))),
     "3 x 2 x 2 and 3 and 1 x 1"),
    (lambda pair, g, povm, result: povm_residuals(povm.effects[0], povm.outcome_labels[:2], np.zeros((2, 2))),
     "2 x 2 and 2 and 2 x 2"),
], ids=["joint-level", "joint-height", "naimark-level", "naimark-width", "cube-level", "povm-level", "povm-one-effect"])
def test_rechecks_refuse_operands_of_another_level(recheck, shapes):
    # Each re-check of a level-2 output against operands of level 1 (or a
    # cut isometry) names both shapes, rather than a row broadcasting them
    # into a pass: a 1 x 1 zero against a 2 x 2 one passed every row before.
    (pair, g), povm, result = _level_pair()
    with pytest.raises(ShapeMismatchError, match=f"got {shapes}$"):
        recheck(pair, g, povm, result)


def test_povm_residuals_refuse_a_label_count_other_than_the_effect_count():
    povm = triangle_povm(np.zeros((2, 2)))
    with pytest.raises(ShapeMismatchError, match="k labels and an n x n a, got 3 x 2 x 2 and 2 and 2 x 2$"):
        povm_residuals(povm.effects, povm.outcome_labels[:2], np.zeros((2, 2)))


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

        monkeypatch.setattr(convexity, "max_member", refuse)
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
            _dilate_povm(povm, b, dilation._unit_spectrum(b, "b"))

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
        assert pair.dim == 3
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
        assert pair.dim == 9
        assert within_bounds(joint_residuals(shift, b, pair, g))

    def test_order_four(self):
        rng = np.random.default_rng(8)
        a, b = random_prism_point(rng, 2, 4, scale=0.7)
        pair, g = joint_prism_dilation(a, b, 4)
        assert within_bounds([*pair_residuals(pair), *joint_residuals(a, b, pair, g)])

    @staticmethod
    def assert_reflection_compressing_to_b(a, b, k):
        """The pair has the Naimark dimension kn, V = 1 + M (H - 1) M* is the
        reflection 1 - 2P in an n-dimensional range (n eigenvalues -1, the
        rest +1, within SPEC_TOL), and the whole output passes its residuals,
        G*VG = b among them."""
        pair, g = joint_prism_dilation(a, b, k)
        n = len(b)
        assert pair.dim == k * n
        signs = np.repeat([-1.0, 1.0], [n, (k - 1) * n])
        assert np.abs(np.linalg.eigvalsh(pair.v) - signs).max() <= SPEC_TOL
        assert within_bounds(symmetry_residuals(pair.v))
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
    def test_symmetry_is_a_reflection_compressing_to_b(self, k, n, seed, scale):
        a, b = random_prism_point(np.random.default_rng(seed), n, k, scale=scale)
        self.assert_reflection_compressing_to_b(a, b, k)

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
        # are fixed only to sqrt(psd_clamp) (and at 1 + psd_clamp/2 it is taken
        # at b rescaled into the unit ball); V is still a reflection within
        # spec_tol that compresses to b.
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        a, _ = random_prism_point(rng, 3, 3, scale=0.8)
        for contraction in (b, u @ b @ dagger(u)):
            self.assert_reflection_compressing_to_b(a, contraction, 3)

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
                self.assert_reflection_compressing_to_b(rotated, b, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("k", [3, 4, 5, 8, 12])
    def test_boundary_points_whose_naimark_isometry_has_zero_blocks(self, monkeypatch, k, n):
        # At the vertex omega and on the edge [1, omega] the effects off the
        # vertex or edge vanish (to the band: blocks within sqrt(SPEC_TOL)),
        # so Z has k - 1 or k - 2 zero blocks, and ||b|| = 1 exactly. The
        # pair still has the Naimark dimension kn and G is Z itself.
        omega = roots_of_unity(k)[1]
        b = np.diag(np.linspace(1.0, -1.0, n))
        naimark, isometries = dilation._naimark, []

        def recorded(*args):
            isometries.append(naimark(*args))
            return isometries[-1]

        monkeypatch.setattr(dilation, "_naimark", recorded)
        for a, support in ((omega * np.eye(n), [1]), ((1.0 + omega) / 2.0 * np.eye(n), [0, 1])):
            pair, g = joint_prism_dilation(a, b, k)
            [(z, _)] = isometries
            isometries.clear()
            blocks = np.linalg.norm(z.reshape(k, n, n), axis=(1, 2))
            assert np.delete(blocks, support).max() <= math.sqrt(SPEC_TOL)
            assert pair.dim == k * n and g is z
            assert within_bounds(joint_residuals(a, b, pair, g))

    # Scales up to 0.45 keep every Fourier effect positive, so no solve runs.
    @settings(max_examples=25)
    @given(
        k=st.integers(3, 8),
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.05, 0.45),
    )
    @example(k=3, n=1, seed=0, scale=0.3)
    def test_recorded_square_row_bounds_the_dense_one(self, k, n, seed, scale):
        # v_squares_to_identity, from ||x* x - 1||_F alone, is at least the
        # dense ||V^2 - 1||_F of the V returned, taken in extended precision
        # up to that product's own rounding gamma_(kn+2) || |V| |V| ||_F.
        a, b = random_prism_point(np.random.default_rng(seed), n, k, scale=scale)
        with measured() as rows:
            pair, _ = joint_prism_dilation(a, b, k)
        [recorded] = [value for name, value, _, _ in rows if name == "v_squares_to_identity"]
        v = pair.v.astype(np.clongdouble)
        gap = v @ v - np.eye(k * n)
        modulus = np.abs(v)
        rounding = (k * n + 2) * np.finfo(np.longdouble).eps * np.sqrt((np.abs(modulus @ modulus) ** 2).sum())
        assert recorded >= float(np.sqrt((np.abs(gap) ** 2).sum()) - rounding)
        assert "v_selfadjoint" not in {name for name, _, _, _ in rows}
        assert np.array_equal(pair.v, dagger(pair.v))

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
        pair, g = _dilate_povm(povm, b, dilation._unit_spectrum(b, "b"))
        assert pair.dim == k * n
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
        # the values that cube_residuals re-checks: the recorded rows come
        # from the Halmos block formula, the re-check from the dense one, so
        # they agree within 1e-12 max(1, value), not bit for bit.
        mats = [0.5 * np.eye(2), np.array([[0.3, 0.1j], [-0.1j, -0.2]])]
        with measured() as records:
            result = cube_dilation(mats)
        rechecked = {name: (value, bound) for name, value, bound in cube_residuals(mats, result)}
        assert [name for name, *_ in records] == [
            "s1_selfadjoint", "s1_squares_to_identity", "s2_selfadjoint", "s2_squares_to_identity"
        ]
        for name, value, bound, what in records:
            dense, dense_bound = rechecked[name]
            assert abs(value - dense) <= 1e-12 * max(1.0, dense)
            assert bound == dense_bound and what == "halmos_symmetry"

    @pytest.mark.parametrize("count", [1, 4])
    def test_residuals_refuse_a_tuple_of_another_length(self, count):
        # Three operators re-checked against one entry, or against four whose
        # fourth, 5 * 1, has no operator: neither may be zipped away.
        rng = np.random.default_rng(37)
        mats = [random_hermitian_contraction(rng, 2) for _ in range(3)]
        result = cube_dilation(mats)
        given = [*mats, 5.0 * np.eye(2)][:count]
        with pytest.raises(ShapeMismatchError, match=f"got {count} entries for 3 operators"):
            cube_residuals(given, result)


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
    with no SVD: the k = 3 joint dilation takes one Cholesky factorisation
    of the effect stack and one ``eigh`` of b."""

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

    def test_joint_k3_takes_one_cholesky_and_one_eigh(self, monkeypatch):
        a, b = self.joint_input()
        calls = self.count(monkeypatch, "cholesky", "eigh", "eigvalsh", "svd")
        joint_prism_dilation(a, b, 3)
        assert calls == {"cholesky": 1, "eigh": 1, "eigvalsh": 0, "svd": 0}

    # Each effect stack is factored once, by its POVM: a positive base by
    # Cholesky, whose factors are the Naimark blocks, and a lift by the
    # ``eigh`` that lmi_floor returns with it, which the Naimark roots read.
    # A call counts when its argument is the stack of the effects returned
    # (the solver's own stacks at k >= 4 are not).
    @staticmethod
    def factorisations(calls, effects):
        effects = np.asarray(effects)
        return [name for name, shape, c in calls if shape == effects.shape and np.array_equal(hermitize(c), effects)]

    def test_naimark_of_the_triangle_povm_factors_the_effects_once(self, monkeypatch):
        a, _ = random_prism_point(np.random.default_rng(8), 4, 3, scale=0.8)
        calls = record_factorisations(monkeypatch)
        povm = triangle_povm(a)
        naimark_normal(povm)
        assert self.factorisations(calls, povm.effects) == ["cholesky"]

    @pytest.mark.parametrize("k, factorisation", [(3, "cholesky"), (5, "eigh")], ids=["3", "5"])
    def test_joint_dilation_factors_the_effects_once(self, monkeypatch, k, factorisation):
        a, b = random_prism_point(np.random.default_rng(k), 4, k, scale=0.8)
        effects = order_k_povm(a, k).effects
        calls = record_factorisations(monkeypatch)
        joint_prism_dilation(a, b, k)
        assert self.factorisations(calls, effects) == [factorisation]

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

    @pytest.mark.parametrize("k, passes", [(3, 2), (4, 4)])
    def test_joint_dilation_passes_each_operand_once(self, monkeypatch, k, passes):
        # a and b pass once together, and b's Hermitian test takes no second
        # pass; past them, only what order_k_povm's own passes take: the
        # Hermitian parts at k >= 4 and the effect stack. W and V, written
        # from checked operands, are not passed again.
        a, b = random_prism_point(np.random.default_rng(k), 3, k, scale=0.8)
        calls, rule = [], matkernel._operands
        for module in (matkernel, convexity, dilation, reps):
            monkeypatch.setattr(module, "_operands", lambda *args, **kw: calls.append(args[0]) or rule(*args, **kw))
        joint_prism_dilation(a, b, k)
        assert len(calls) == passes, calls


class TestModeSystemCache:
    """``order_k_povm`` keeps one read-only ``lmi_floor`` system per (k, n)
    and ``make_polygon`` one polygon per k; neither changes a result."""

    @staticmethod
    def draw(k):
        # A scale-0.9 point at level 4, as in the benchmark's dilate pool: its
        # decomposition takes Newton steps over the cached system.
        return random_prism_point(np.random.default_rng([20260117, k, 9]), 4, k, scale=0.9)[0]

    @staticmethod
    def outcome(a, k):
        try:
            return order_k_povm(a, k).effects.tobytes()
        except InfeasibleError as exc:
            return str(exc)

    def test_cached_arrays_are_read_only(self):
        system = dilation._mode_system(4, 4)
        built = dict(vars(system))
        self.outcome(self.draw(4), 4)
        assert dilation._mode_system(4, 4) is system
        assert vars(system) == built
        for array in built.values():
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


class TestOneLift:
    """A positive Fourier base is its own POVM, with no solve; otherwise
    ``lmi_floor`` forms the effects base + sum_i y_i D_i once and returns
    them as ``FloorResult.lift`` with their ``eigh``, and the band rule reads
    one ``FloorResult`` from either source of the bracket."""

    @staticmethod
    def solves(monkeypatch):
        calls, solve = [], floor.lmi_floor

        def counted(base, *args):
            calls.append((base, solve(base, *args)))
            return calls[-1][1]

        monkeypatch.setattr(floor, "lmi_floor", counted)
        return calls

    @pytest.mark.parametrize("scale", [0.3, 0.9], ids=["no-step", "newton-steps"])
    def test_one_direction_product_per_solve(self, monkeypatch, scale):
        # A scale-0.3 point has a positive Fourier base, which is returned
        # byte for byte with no solve and no direction product; a scale-0.9
        # one takes Newton steps, and its lift is formed once, by lmi_floor.
        a = random_prism_point(np.random.default_rng([20260117, 6, 9]), 4, 6, scale=scale)[0]
        calls = self.solves(monkeypatch)
        products = record_direction_products(monkeypatch)
        povm = order_k_povm(a, 6)
        if scale == 0.3:
            assert calls == [] and products == []
            assert povm.effects.tobytes() == dilation._fourier_base(a, roots_of_unity(6)).tobytes()
            return
        ((_, result),) = calls
        assert result.steps > 0 and products == [(3 * 16, 6, 4, 4)]
        if result.t_lo > 0.0:
            assert povm.effects is result.lift and povm.spectrum is result.spectrum

    def test_a_base_that_clears_the_band_is_the_lift(self, monkeypatch):
        # At n = 16 and ||a|| = 0.2 the Fourier base is positive: the effects
        # are that base, byte for byte, and no solve and no direction product
        # is made.
        rng = np.random.default_rng(641)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a *= 0.2 / opnorm(a)
        calls = self.solves(monkeypatch)
        products = record_direction_products(monkeypatch)
        povm = order_k_povm(a, 6)
        assert calls == [] and products == []
        assert povm.effects.tobytes() == dilation._fourier_base(a, roots_of_unity(6)).tobytes()

    def test_the_exact_floor_is_a_one_point_floor_result(self, monkeypatch):
        # diag(0.1, p) with p just past the midpoint of the edge [1, omega]:
        # the effect at omega^2 has eigenvalue about -3e-12, inside the band,
        # so the base is not positive and the band rule clamps it.
        p = (1.0 + roots_of_unity(3)[1]) / 2.0 * (1.0 + 1e-11)
        a = np.diag([0.1, p])
        floors, settle = [], dilation._settle
        monkeypatch.setattr(dilation, "_settle", lambda floor, *args: floors.append(floor) or settle(floor, *args))
        povm = order_k_povm(a, 3)
        (floor,) = floors
        assert isinstance(floor, matkernel.FloorResult)
        assert floor.t_lo == floor.t_hi == float(floor.spectrum[0].min()) < 0.0
        assert floor.lift.tobytes() == dilation._fourier_base(a, roots_of_unity(3)).tobytes()
        assert floor.y.size == 0 and floor.steps == 0 and floor.x is None
        assert povm.effects is not floor.lift and povm.spectrum[0].min() >= 0.0


class TestOneFactorisationPerDecidedStack:
    """Every effect stack that ``order_k_povm`` decides is factored once: a
    positive Fourier base by its POVM's Cholesky factorisation alone, an
    accepted lift by the ``eigh`` that ``lmi_floor`` returns with it, and a
    k = 3 base that the band rule clamps, once Cholesky has refused it, by
    the ``eigh`` its bracket was read from."""

    @staticmethod
    def factored(calls, stack):
        """How often a recorded call took ``stack``, or its Hermitian part."""
        return sum(c.shape == stack.shape and np.array_equal(hermitize(c), stack) for _, _, c in calls)

    def test_a_positive_base_is_its_povm(self, monkeypatch):
        # n = 16 and ||a|| = 0.2: the (6, 16, 16) base is positive, so one
        # Cholesky factorisation of it decides, with no eigenvalues, no facet
        # screen and no solve.
        rng = np.random.default_rng(641)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a *= 0.2 / opnorm(a)

        def refuse(*args):
            raise AssertionError("a positive base reached a solver or a facet screen")

        monkeypatch.setattr(floor, "lmi_floor", refuse)
        monkeypatch.setattr(convexity, "max_member", refuse)
        calls = record_factorisations(monkeypatch)
        povm = order_k_povm(a, 6)
        stacks = [(name, shape) for name, shape, _ in calls if shape == (6, 16, 16)]
        assert stacks == [("cholesky", (6, 16, 16))]
        assert self.factored(calls, povm.effects) == 1

    def test_an_accepted_lift_keeps_the_solvers_spectrum(self, monkeypatch):
        # A scale-0.9 point takes Newton steps, and its lift clears the band:
        # the POVM's spectrum is the FloorResult's, and the lift is factored
        # once, by lmi_floor's closing eigh.
        a = random_prism_point(np.random.default_rng([20260117, 6, 9]), 4, 6, scale=0.9)[0]
        results, solve = [], floor.lmi_floor
        monkeypatch.setattr(floor, "lmi_floor", lambda *args: results.append(solve(*args)) or results[-1])
        calls = record_factorisations(monkeypatch)
        povm = order_k_povm(a, 6)
        (result,) = results
        assert result.steps > 0 and result.t_lo > 0.0
        assert povm.effects is result.lift and povm.spectrum is result.spectrum
        assert self.factored(calls, result.lift) == 1

    def test_a_triangle_base_is_factored_once(self, monkeypatch):
        # k = 3: a positive base costs one Cholesky factorisation in all. A
        # base inside the band (diag(0.1, p), p just past the edge [1, omega])
        # is refused by Cholesky and factored by one eigh, and its clamped,
        # renormalised effects by one more, beside the eigh of their sum.
        p = (1.0 + roots_of_unity(3)[1]) / 2.0 * (1.0 + 1e-11)
        positive = random_prism_point(np.random.default_rng(8), 4, 3, scale=0.8)[0]
        calls = record_factorisations(monkeypatch)
        cases = [(positive, ["cholesky"], 1), (np.diag([0.1, p]), ["cholesky", "eigh", "eigh", "eigh"], 2)]
        for a, names, base_calls in cases:
            del calls[:]
            povm = order_k_povm(a, 3)
            base = dilation._fourier_base(a, roots_of_unity(3))
            assert [name for name, *_ in calls] == names
            assert self.factored(calls, base) == base_calls and self.factored(calls, povm.effects) == 1

    def test_a_large_order_base_takes_little_memory(self):
        # A 1 x 1 point well inside Conv(C_2048): its positive base decides
        # with no (k - 3) x k direction stack (168 MB when it was built).
        tracemalloc.start()
        try:
            povm = order_k_povm(0.1 + 0.05j, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert povm.effects.shape == (2048, 1, 1) and peak < 2e6


class TestCholeskyNaimarkBlocks:
    """A positive effect stack is decided and dilated by one batched Cholesky
    factorisation h_j = F_j* F_j: the F_j are its Naimark blocks, and W and
    G are the square-root recipe's (``helpers.square_root_dilation``)
    conjugated by (+)_j U_j, U_j = F_j h_j^(-1/2). V need not be: its Y comes
    from the QR of each Z, so it is checked through its compression and its
    symmetry rows. Any other stack keeps the ``eigh`` path, whose dilation is
    that recipe's byte for byte."""

    @staticmethod
    def positive_input(n, k, seed=0):
        # ||a|| <= 0.45 keeps every Fourier effect (1 + 2 Re omega^-j a)/k >= 0.1/k.
        return random_prism_point(np.random.default_rng([seed, n, k]), n, k, scale=0.45)

    def test_a_positive_base_takes_one_cholesky_and_no_eigenvalues(self, monkeypatch):
        a, b = self.positive_input(32, 3)
        calls = record_factorisations(monkeypatch)
        joint_prism_dilation(a, b, 3)
        assert [(name, shape) for name, shape, _ in calls if shape == (3, 32, 32)] == [("cholesky", (3, 32, 32))]

    def test_a_k4_base_that_is_not_positive_takes_no_eigh_before_the_solve(self, monkeypatch):
        a = TestModeSystemCache.draw(4)
        base = dilation._fourier_base(a, roots_of_unity(4))
        calls, solve = record_factorisations(monkeypatch), floor.lmi_floor
        before = []
        monkeypatch.setattr(floor, "lmi_floor", lambda *args: before.extend(calls) or solve(*args))
        order_k_povm(a, 4)
        assert np.linalg.eigvalsh(base).min() < 0.0 and before
        assert [name for name, shape, c in before if shape == base.shape and np.array_equal(c, base)] == ["cholesky"]

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_the_dilation_is_the_square_root_recipe_up_to_the_cholesky_unitaries(self, k, n):
        a, b = self.positive_input(n, k)
        povm = order_k_povm(a, k)
        pair, g = joint_prism_dilation(a, b, k)
        assert povm.factors is not None
        w, _, g_root = square_root_dilation(povm.effects, b)
        lam, q = np.linalg.eigh(povm.effects)
        inverse_roots = (q / np.sqrt(lam)[:, None, :]) @ dagger(q)
        u = matkernel.direct_sum(*(povm.factors @ inverse_roots))
        assert pair.w.tobytes() == w.tobytes()
        assert opnorm(dagger(u) @ u - np.eye(len(u))) <= 1e-12
        assert opnorm(u @ w @ dagger(u) - pair.w) <= 1e-12 and opnorm(u @ g_root - g) <= 1e-12
        assert opnorm(compress(pair.v, g) - b) <= 1e-12
        assert within_bounds(symmetry_residuals(pair.v))

    @staticmethod
    def rejected_positive_base():
        """The first seeded level-8 point, just inside the edge [1, omega],
        whose Fourier base ``eigh`` finds positive definite, so that it is
        returned unclamped, and Cholesky refuses."""
        roots = roots_of_unity(3)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
            inside = 0.3 * rng.uniform(-1, 1, 7) + 0.3j * rng.uniform(-1, 1, 7)
            a = u @ np.diag([(roots[0] + roots[1]) / 2 * (1 - 3e-16), *inside]) @ dagger(u)
            base = dilation._fourier_base(a, roots)
            try:
                np.linalg.cholesky(base)
            except np.linalg.LinAlgError:
                if np.linalg.eigh(base)[0].min() > 0.0:
                    return a, base
        raise AssertionError("no seed gave a positive definite base that Cholesky refuses")

    def test_a_stack_cholesky_refuses_takes_the_eigh_path(self):
        # A positive definite base that Cholesky refuses is returned as it
        # stands, and a base inside the band is clamped; each POVM has no
        # factors, and its dilation is the square-root recipe's byte for byte.
        a, base = self.rejected_positive_base()
        p = (1.0 + roots_of_unity(3)[1]) / 2.0 * (1.0 + 1e-11)
        b = 0.6 * np.diag(np.linspace(-1.0, 1.0, 8))
        for a, b, stack in ((a, b, base), (np.diag([0.1, p]), b[:2, :2], None)):
            povm = order_k_povm(a, 3)
            assert povm.factors is None
            if stack is not None:
                assert povm.effects.tobytes() == stack.tobytes()
            pair, g = joint_prism_dilation(a, b, 3)
            for built, recipe in zip((pair.w, pair.v, g), square_root_dilation(povm.effects, b)):
                assert built.tobytes() == recipe.tobytes()

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_large_positive_bases_take_the_cholesky_path(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        with measured() as records:
            povm = order_k_povm(0.45 * x / opnorm(x), 3)
        (positive,) = [value for name, value, _, _ in records if name == "effects_positive"]
        assert povm.factors is not None and positive == povm.negativity <= PSD_CLAMP

    def test_the_n32_joint_dilation_peaks_within_nine_blocks(self):
        # Output and temporaries together, in 96 x 96 complex blocks (1.33 MB). A
        # dilation at twice the Naimark dimension cannot meet it: its
        # 192 x 192 W and V alone take eight blocks.
        a, b = self.positive_input(32, 3)
        joint_prism_dilation(a, b, 3)
        tracemalloc.start()
        try:
            pair, _ = joint_prism_dilation(a, b, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.dim == 96 and peak <= 9 * 96 * 96 * 16

    @pytest.mark.parametrize("k", [3, 5])
    def test_w_rows_are_taken_on_the_diagonal_it_was_written_from(self, monkeypatch, k):
        # The constructor makes no diagonal scan of W, and its rows are those
        # of the public order_residuals, which scans once, bit for bit.
        a, b = random_prism_point(np.random.default_rng(k), 4, k, scale=0.8)
        scans, scan = [], matkernel._exact_diagonal
        monkeypatch.setattr(matkernel, "_exact_diagonal", lambda u: scans.append(u.shape) or scan(u))
        with measured() as records:
            pair, _ = joint_prism_dilation(a, b, k)
        assert scans == []
        rows = [(name, value, bound) for name, value, bound, _ in records if name.startswith("w_")]
        assert rows == matkernel.prefixed("w_", matkernel.order_residuals(pair.w, k))
        assert scans == [pair.w.shape]


class TestSeededDecompositions:
    """160 seeded decompositions over C_k, k = 4 .. 8, at levels n = 1 .. 4,
    8 seeds each: a = raw scaled so that W(a) reaches a facet scale drawn
    from U(0.5, 1.02) of Conv(C_k), as the benchmark's ``polygon_operator``
    scales it."""

    # (k, n, seed) of the inputs refused with a primal certificate, and of
    # those whose numerical range leaves Conv(C_k); every other one decomposes.
    CERTIFIED = {
        (4, 2, 0), (4, 3, 7), (4, 4, 6), (5, 2, 2), (5, 3, 3), (5, 4, 7), (6, 2, 1), (6, 4, 2),
        (6, 4, 3), (6, 4, 6), (7, 2, 4), (7, 2, 7), (7, 3, 2), (7, 3, 4), (7, 4, 6), (8, 2, 2),
        (8, 2, 3), (8, 2, 4), (8, 3, 2), (8, 3, 4), (8, 3, 6), (8, 4, 5), (8, 4, 6),
    }
    OUTSIDE = {(5, 1, 1), (5, 1, 2), (8, 1, 0), (8, 4, 7)}

    @staticmethod
    def draw(k, n, seed):
        rng = np.random.default_rng([11, k, n, seed])
        scale = rng.uniform(0.5, 1.02)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        re, im = (raw + dagger(raw)) / 2, (raw - dagger(raw)) / 2j
        angles = ((2 * j + 1) * math.pi / k for j in range(k))
        reach = max(np.linalg.eigvalsh(math.cos(t) * re + math.sin(t) * im).max() for t in angles)
        return raw * (scale / (reach / math.cos(math.pi / k)))

    def test_outcomes_and_newton_steps(self, monkeypatch):
        # Started from the primal start's duality gap, the dual takes 219
        # Newton steps over the 160 inputs; started at t_lo - 1 it took 296,
        # with the same outcome for every input. The 18 inputs whose Fourier
        # base is positive are decided before any solve.
        steps, solve = [], floor.lmi_floor

        def counted(*args):
            result = solve(*args)
            steps.append(result.steps)
            return result

        monkeypatch.setattr(floor, "lmi_floor", counted)
        outcomes = {}
        for k, n, seed in itertools.product(range(4, 9), range(1, 5), range(8)):
            try:
                order_k_povm(self.draw(k, n, seed), k)
                outcomes[k, n, seed] = "povm"
            except InfeasibleError as exc:
                proof = str(exc).endswith("(primal certificate)")
                outcomes[k, n, seed] = "certified" if proof else "outside" if "leaves Conv" in str(exc) else str(exc)
        assert len(outcomes) == 160
        assert {key for key, outcome in outcomes.items() if outcome == "certified"} == self.CERTIFIED
        assert {key for key, outcome in outcomes.items() if outcome == "outside"} == self.OUTSIDE
        assert sum(outcome == "povm" for outcome in outcomes.values()) == 133
        assert len(steps) == 138 and sum(steps) == 219


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
