import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_hermitian, random_isometry, random_unitary

from ncprism import convexity
from ncprism.convexity import (
    PolytopeSpec,
    circumnorm,
    cube_scaling_constant,
    incircle_radius,
    make_cube,
    make_polygon,
    make_prism,
    max_member,
    prism_member,
    random_prism_point,
    real_imag_parts,
    theta_lower_bound,
)
from ncprism.dilation import triangle_povm
from ncprism.errors import NotHermitianError, NumericalRangeOutsideTriangleError, ShapeMismatchError
from ncprism.matkernel import compress, dagger, measured, support_value
from ncprism.reps import prism_vertex_rep, vertex_residuals


class TestPolytopes:
    def test_prism3_counts(self):
        spec = make_prism(3)
        assert spec.vertices.shape == (6, 3)
        assert spec.normals.shape == (5, 3)

    def test_cube2_counts(self):
        spec = make_cube(2)
        assert spec.vertices.shape == (4, 2)
        assert spec.normals.shape == (4, 2)

    def test_prism4_facet_offset(self):
        spec = make_prism(4)
        assert spec.offsets[0] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_vertices_satisfy_facets(self):
        for k in (3, 5, 8):
            spec = make_prism(k)
            assert (spec.vertices @ spec.normals.T - spec.offsets).max() <= 1e-12

    def test_self_check_memory_is_bounded(self):
        # The vertices x facets product is taken in row blocks: whole, at
        # k = 4096 it and its slacks took 538 MB. The uncached build is
        # measured, since a cached prism builds nothing.
        tracemalloc.start()
        try:
            make_prism.__wrapped__(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_a_prism_is_built_once_per_k(self, monkeypatch):
        # One object per k, as for make_polygon: a second prism_member call
        # at k = 4096 runs no polytope self-check and reports the rows of
        # the first, the prism's and the polygon's.
        make_prism.cache_clear()
        checked, original = [], convexity.polytope_residuals
        monkeypatch.setattr(convexity, "polytope_residuals", lambda spec: checked.append(spec.name) or original(spec))
        x = np.array([[0.2]])
        runs = []
        for _ in range(2):
            before = len(checked)
            with measured() as records:
                prism_member(x, x, 4096)
            runs.append((len(checked) - before, records))
        (built, first), (again, second) = runs
        assert built >= 1 and again == 0
        assert first == second and {what for *_, what in first} == {"polygon:4096", "prism:4096"}
        assert make_prism(4096) is make_prism(4096)

    @pytest.mark.parametrize("spec", [lambda: make_prism(5), lambda: make_cube(2)], ids=["prism", "cube"])
    def test_polytope_arrays_are_read_only(self, spec):
        spec = spec()
        for name in ("vertices", "normals", "offsets"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(spec, name)[0] = 0.0

    def test_a_vertex_outside_a_facet_in_a_later_block_is_refused(self):
        vertices = np.zeros((1000, 2))
        vertices[-1] = [2.0, 0.0]
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="vertices_within_facets"):
            PolytopeSpec(2, vertices, normals, np.ones(4), name="square")


class TestMaxMember:
    def test_symmetric_pair_in_square(self):
        mats = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        assert max_member(mats, make_cube(2)).member

    def test_scalar_outside_triangle(self):
        re, im = real_imag_parts(np.array([[1.2]]))
        zero = np.zeros((1, 1))
        result = max_member([re, im, zero], make_prism(3))
        assert not result.member
        assert result.margin < 0
        # The worst facet is one of the polygon sides, not a cap.
        assert result.facet_index < 3

    def test_vertex_pair_member(self):
        pair, _ = prism_vertex_rep(3, 0, 1)
        re, im = real_imag_parts(pair.w)
        result = max_member([re, im, pair.v], make_prism(3))
        assert result.member

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            max_member([np.eye(2)], make_cube(2))

    def test_matches_a_per_facet_support_loop(self):
        rng = np.random.default_rng(19)
        for spec in [make_prism(3), make_prism(5), make_cube(2), make_cube(3)]:
            for _ in range(10):
                n = int(rng.integers(1, 5))
                mats = [random_hermitian(rng, n) * 0.3 for _ in range(spec.ambient_dim)]
                slacks = [o - support_value(mats, d) for d, o in zip(spec.normals, spec.offsets)]
                result = max_member(mats, spec)
                assert result.facet_index == int(np.argmin(slacks))
                assert result.margin == pytest.approx(min(slacks), abs=1e-12)
                assert result.member == (min(slacks) >= -1e-8)

    def test_all_zero_tuple_ties_to_the_first_facet(self):
        result = max_member([np.zeros((2, 2))] * 3, make_cube(3))
        assert result.member
        assert result.facet_index == 0
        assert result.margin == 1.0

    @pytest.mark.parametrize("d", [3e-8, 1e-3])
    def test_tied_facets_name_the_first_as_triangle_povm_does(self, d):
        # W(a) is the side [omega, omega^2] scaled by 1 + d: all three facets
        # of the triangle have slack -d/2.
        omega = np.exp(2j * np.pi / 3)
        a = (1 + d) * np.diag([omega, omega**2])
        with pytest.raises(NumericalRangeOutsideTriangleError, match="facet 0 violated"):
            triangle_povm(a)
        result = max_member(list(real_imag_parts(a)), make_polygon(3))
        assert result.facet_index == 0
        assert result.margin == pytest.approx(-d / 2, rel=1e-6)
        assert result.offset - result.support == pytest.approx(result.margin, rel=1e-6)
        assert prism_member(a, np.zeros((2, 2)), 3).facet_index == 0

    def test_rejects_bad_entries(self):
        with pytest.raises(ShapeMismatchError):
            max_member([np.eye(2), np.eye(3)], make_cube(2))
        with pytest.raises(ShapeMismatchError):
            max_member([np.ones((2, 3)), np.ones((2, 3))], make_cube(2))
        with pytest.raises(NotHermitianError):
            max_member([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])], make_cube(2))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        cube = make_cube(3)
        for _ in range(10):
            mats = [random_hermitian(rng, 3) * 0.4 for _ in range(3)]
            u = random_unitary(rng, 3)
            conj = [u @ m @ dagger(u) for m in mats]
            assert max_member(mats, cube).member == max_member(conj, cube).member
            assert max_member(mats, cube).margin == pytest.approx(
                max_member(conj, cube).margin, abs=1e-10
            )


class TestPrismMember:
    def test_origin(self):
        assert prism_member(np.zeros((1, 1)), np.zeros((1, 1)), 3).member

    def test_large_b_fails(self):
        assert not prism_member(np.zeros((2, 2)), 2.0 * np.eye(2), 3).member

    def test_vertex_scalar(self):
        assert prism_member(np.array([[1.0]]), np.array([[1.0]]), 3).member

    def test_non_square_a_is_refused(self):
        with pytest.raises(ShapeMismatchError, match="square"):
            prism_member(np.zeros((2, 3)), np.zeros((2, 2)), 3)


class TestVertexAttainment:
    @pytest.mark.parametrize("k", [3, 4, 12])
    def test_all_vertices_attained(self, k):
        for j in range(k):
            for sign in (1, -1):
                (_, error, _), = vertex_residuals(*prism_vertex_rep(k, j, sign), j, sign)
                assert error <= 1e-10


class TestGeometry:
    def test_incircle_three(self):
        assert incircle_radius(3) == pytest.approx(0.5, abs=1e-15)

    def test_incircle_matches_facets(self):
        for k in range(3, 65):
            assert incircle_radius(k) == pytest.approx(math.cos(math.pi / k), abs=1e-15)
            assert incircle_radius(k) == pytest.approx(make_prism(k).offsets[:k].min(), abs=1e-12)

    @pytest.mark.parametrize("k", range(3, 65))
    def test_circumnorm(self, k):
        assert circumnorm(k) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        largest = np.linalg.norm(make_prism(k).vertices, axis=1).max()
        assert circumnorm(k) == pytest.approx(largest, abs=1e-12)

    def test_theta_bound_three(self):
        assert theta_lower_bound(3) == pytest.approx(1.060660171779821, abs=1e-12)
        assert theta_lower_bound(3) == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), abs=1e-15)

    @pytest.mark.parametrize("d,expected", [(2, math.sqrt(2)), (3, math.sqrt(3)), (9, 3.0)])
    def test_cube_scaling(self, d, expected):
        assert cube_scaling_constant(d) == pytest.approx(expected, abs=1e-15)


class TestCompressionMonotonicity:
    def test_compressions_stay_members(self):
        rng = np.random.default_rng(37)
        prism = make_prism(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a, b = random_prism_point(rng, n, 3)
            re, im = real_imag_parts(a)
            assert max_member([re, im, b], prism).member
            m = int(rng.integers(1, n))
            z = random_isometry(rng, m, n)
            small = [compress(x, z) for x in (re, im, b)]
            assert max_member(small, prism).member


class TestFactoryPairsAreMembers:
    def test_representation_pairs_lie_in_their_prism(self):
        from ncprism.reps import a4_pair, assemble_dimension, s3_pair, steinberg_pair

        pairs = [s3_pair(), a4_pair(), steinberg_pair(5), assemble_dimension(6)]
        for k in (3, 4, 5):
            for j in range(k):
                pairs.append(prism_vertex_rep(k, j, 1)[0])
        for pair in pairs:
            result = prism_member(pair.w, pair.v, pair.k)
            assert result.member
            assert result.margin >= -1e-10


class TestRandomPrismPoint:
    def test_points_are_members(self):
        rng = np.random.default_rng(41)
        for k in (3, 4, 6):
            for _ in range(5):
                a, b = random_prism_point(rng, 3, k)
                assert prism_member(a, b, k).member

    def test_polygon_counts(self):
        spec = make_polygon(5)
        assert spec.vertices.shape == (5, 2)
        assert spec.normals.shape == (5, 2)
