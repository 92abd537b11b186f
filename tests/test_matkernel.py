import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    commutant_oracle,
    generic_pair,
    random_hermitian,
    random_unitary,
    record_direction_products,
    reference_dft,
    within_bounds,
)

from ncprism.errors import (
    NcprismError,
    NotHermitianError,
    NotIsometryError,
    NotPSDError,
    RelationCheckFailedError,
    ShapeMismatchError,
)
from ncprism.dilation import cube_dilation, halmos_symmetry
from ncprism.matkernel import (
    _LMI_REACH,
    ALG_TOL,
    PSD_CLAMP,
    SPEC_TOL,
    FloorSystem,
    _h_weights,
    _halmos_residuals,
    _schur,
    _step_lengths,
    commutant_dimension,
    commutant_residuals,
    compress,
    dagger,
    direct_sum,
    fourier_coefficients,
    fourier_values,
    hermitian_basis,
    hermitize,
    is_hermitian,
    kron,
    lmi_floor,
    measured,
    opnorm,
    opnorms,
    order_residuals,
    psd_sqrt,
    roots_of_unity,
    support_value,
    symmetry_residuals,
    unitary_residual,
)
from ncprism.reps import a4_pair, hadamard_symmetries, s3_pair, square_irrep, steinberg_pair


def test_fixed_tolerances_keep_their_values_and_order():
    assert (ALG_TOL, SPEC_TOL, PSD_CLAMP) == (1e-10, 1e-8, 1e-12)
    assert 0.0 < PSD_CLAMP <= ALG_TOL <= SPEC_TOL < 1.0


class TestPsdSqrt:
    def test_identity_fixed_point(self):
        assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14)

    def test_against_eigendecomposition_oracle(self):
        h = np.array([[1.0, 0.6], [0.6, 1.0]], dtype=complex)
        w, u = np.linalg.eigh(h)
        oracle = (u * np.sqrt(w)) @ dagger(u)
        s = psd_sqrt(h)
        assert opnorm(s - oracle) <= 1e-12
        assert opnorm(s @ s - h) <= 1e-8

    def test_clamps_tiny_negative_eigenvalues(self):
        h = np.diag([1.0, -0.5e-12])
        s = psd_sqrt(h)
        assert np.linalg.eigvalsh(s).min() >= 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -0.1]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_square_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 17))
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = raw @ dagger(raw)
            s = psd_sqrt(h)
            assert opnorm(s @ s - h) <= 1e-8 * (1 + opnorm(h))
            assert np.linalg.eigvalsh(s).min() >= -1e-12

    def test_stack_matches_slice_by_slice(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        stack = raw @ dagger(raw)
        stack[1, 2] = np.diag([1.0, -0.5e-12, 2.0, 0.0])
        roots = psd_sqrt(stack)
        assert roots.shape == stack.shape
        for index in np.ndindex(stack.shape[:2]):
            assert np.abs(roots[index] - psd_sqrt(stack[index])).max() <= 1e-15

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.diag([1.0, -0.1]), NotPSDError),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitianError),
            (np.diag([np.nan, 1.0]), ValueError),
        ],
        ids=["indefinite", "non_hermitian", "nan"],
    )
    def test_stack_raises_as_its_bad_slice(self, bad, error):
        for h in (bad, np.stack([np.eye(2), bad]), np.stack([[np.eye(2)], [bad]])):
            with pytest.raises(error):
                psd_sqrt(h)

    def test_stack_must_have_square_slices(self):
        with pytest.raises(ShapeMismatchError):
            psd_sqrt(np.zeros((2, 2, 3)))

    def test_hermiticity_is_judged_per_slice(self):
        # A skew part of 1e-7 passes next to a norm of 1e4 (tol 1e-10 times
        # the norm) but not next to a norm of 1, whatever the other slices.
        skew = 1e-7 * np.array([[0.0, 1.0], [0.0, 0.0]])
        large, small = 1e4 * np.eye(2) + skew, np.eye(2) + skew
        psd_sqrt(np.stack([large, np.eye(2)]))
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.stack([large, small]))


class TestOpnormZero:
    """An argument with no nonzero entry has norm 0.0, taken without an SVD."""

    @pytest.mark.parametrize(
        "zero",
        [np.zeros((3, 3)), -np.zeros((3, 3)), np.full((3, 3), complex(-0.0, -0.0)), np.zeros((0, 0))],
        ids=["zero", "negative_zero", "complex_zero", "empty"],
    )
    def test_zero_gives_positive_zero_without_an_svd(self, monkeypatch, zero):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD of a zero argument")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(np.linalg, "norm", no_svd)
        assert opnorm(zero) == 0.0 and not math.copysign(1.0, opnorm(zero)) < 0
        norms = opnorms(np.stack([zero, zero]))
        assert norms.shape == (2,) and np.array_equal(norms, [0.0, 0.0])
        assert not np.signbit(norms).any()

    def test_nan_is_left_to_the_svd(self):
        # NaN is nonzero, so the SVD decides, as without the zero path: LAPACK
        # either reports no convergence or returns NaN.
        nan = np.array([[np.nan, 0.0], [0.0, 0.0]])
        for norm_of, arg in ((opnorm, nan), (opnorms, np.stack([np.eye(2), nan]))):
            try:
                value = norm_of(arg)
            except np.linalg.LinAlgError:
                continue
            assert np.isnan(value).any()

    def test_empty_stack_has_no_norms(self):
        assert opnorms(np.zeros((0, 2, 2))).shape == (0,)


class TestOpnormScalars:
    def test_one_by_one_slices_are_moduli_without_an_svd(self, monkeypatch):
        # The SVD of a 1 x 1 slice is its modulus, up to the last bit.
        rng = np.random.default_rng(5)
        stack = (rng.standard_normal(200) + 1j * rng.standard_normal(200)).reshape(4, 50, 1, 1)
        svd = np.linalg.svd(stack, compute_uv=False)[..., 0]

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD of 1 x 1 slices")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        norms = opnorms(stack)
        assert norms.shape == (4, 50) and np.allclose(norms, svd, rtol=4 * np.finfo(float).eps, atol=0.0)
        zeros = opnorms(np.array([[[-0.0]], [[complex(-0.0, -0.0)]]]))
        assert np.array_equal(zeros, [0.0, 0.0]) and not np.signbit(zeros).any()


class TestStepLengths:
    """The batched step lengths of the Newton step against the Cholesky
    route: the largest step in (0, 1] going at most _LMI_REACH of the way to
    the PSD boundary, from L^-1 dP L^-* with P = L L*."""

    @staticmethod
    def cholesky_route(p, dp):
        root = np.linalg.inv(np.linalg.cholesky(p))
        low = float(np.linalg.eigvalsh(hermitize(root @ dp @ dagger(root))).min())
        return min(1.0, _LMI_REACH / -low) if low < 0.0 else 1.0

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
    )
    def test_batched_lengths_match_the_cholesky_route(self, seed, m, n, scale):
        rng = np.random.default_rng(seed)
        raw, moves = (
            rng.standard_normal((2, m, n, n)) + 1j * rng.standard_normal((2, m, n, n))
            for _ in range(2)
        )
        x, s = hermitize(raw @ dagger(raw)) + 0.1 * np.eye(n)
        dx, ds = scale * hermitize(moves)
        factors = np.linalg.inv(np.linalg.cholesky(np.stack([x, s])))
        lengths = _step_lengths(factors, np.stack([dx, ds]))
        assert lengths.shape == (2,)
        assert abs(lengths[0] - self.cholesky_route(x, dx)) <= 1e-12
        assert abs(lengths[1] - self.cholesky_route(s, ds)) <= 1e-12


class TestSchurAssembly:
    """The per-block Schur matrix against the product-stack formula
    Re <A_i, X A_j S^-1> over the (P, m, n, n) products."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 12),
        m=st.integers(1, 4),
        n=st.integers(1, 5),
    )
    def test_per_block_assembly_matches_the_product_stack(self, seed, count, m, n):
        rng = np.random.default_rng(seed)
        a, (x, s_inv) = (
            hermitize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for shape in ((count, m, n, n), (2, m, n, n))
        )
        pair = a.reshape(count, -1).conj()
        stack = (pair @ (x[None] @ a @ s_inv[None]).reshape(count, -1).T).real
        stack = (stack + stack.T) / 2.0
        schur = _schur(x, s_inv, a.transpose(1, 2, 0, 3).reshape(m, n, -1), pair)
        assert schur.shape == (count, count) and np.array_equal(schur, schur.T)
        assert np.abs(schur - stack).max() <= 1e-13 * np.abs(stack).max()


class TestHermitianRule:
    """is_hermitian gives the verdict of the SVD rule ||A - A*|| <=
    ALG_TOL max(1, ||A||), also for skew parts at ALG_TOL (1 +- 1e-9) and
    for skew parts whose Frobenius norm exceeds ALG_TOL while their spectral
    norm does not."""

    @staticmethod
    def svd_rule(a):
        slices = a.reshape(-1, *a.shape[-2:])
        return all(opnorm(x - dagger(x)) <= ALG_TOL * max(1.0, opnorm(x)) for x in slices)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        rank=st.integers(1, 2),
        ratio=st.sampled_from([1 - 1e-9, 1 + 1e-9, 0.5, 0.75, 1.25]),
        norm=st.sampled_from([0.5, 3.0]),
        stacked=st.booleans(),
    )
    def test_verdict_matches_the_svd_rule(self, seed, n, rank, ratio, norm, stacked):
        # A = H + iR with H real diagonal of norm `norm` and R real symmetric:
        # A - A* = 2iR exactly, and 2R = c (an orthogonal projection of rank
        # `rank`), so its spectral norm is c and its Frobenius norm c sqrt(rank).
        rng = np.random.default_rng(seed)
        h = np.diag(np.append(norm, rng.uniform(-norm, norm, n - 1)))
        v = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        c = ratio * ALG_TOL * max(1.0, norm)
        a = h + 0.5j * c * (v @ v.T)
        if stacked:
            a = np.stack([random_hermitian(rng, n), a])
        assert is_hermitian(a) == self.svd_rule(a) == (ratio < 1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2), (4, 2, 3)])
    def test_a_matrix_that_is_not_square_is_not_hermitian(self, shape):
        # Not an error: A - A* has no meaning there, and the verdict is False.
        assert not is_hermitian(np.zeros(shape))


class TestHalmosBlockResiduals:
    """``_halmos_residuals`` takes the symmetry rows of [[P, Q], [Q, -P]]
    from its upper block row and equals the dense formulas; the constructors
    that write that form record its values, and the public
    ``symmetry_residuals`` re-checks any matrix densely."""

    @staticmethod
    def dense(s):
        return [np.linalg.norm(s - dagger(s)), np.linalg.norm(s @ s - np.eye(len(s)))]

    @staticmethod
    def symmetry(rng, n):
        b = random_hermitian(rng, n)
        return halmos_symmetry(b / (1.5 * opnorm(b)))

    @settings(max_examples=90, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["exact", "skew", "blocks"]))
    def test_block_values_match_the_dense_formulas(self, n, seed, kind):
        # Exactly Hermitian P and Q take T*T; a skew part of 1e-12 in P, or
        # arbitrary blocks, take the upper block row of S^2.
        rng = np.random.default_rng(seed)
        if kind == "blocks":
            p, q = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
            s = np.block([[p, q], [q, -p]])
        else:
            s = self.symmetry(rng, n)
            if kind == "skew":
                x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                skew = 1e-12 * (x - dagger(x)) / np.linalg.norm(x - dagger(x))
                s[:n, :n] += skew
                s[n:, n:] -= skew
        rows = _halmos_residuals(s)
        assert (rows[0][1] == 0.0) == (kind == "exact")
        for (_, value, _), dense in zip(rows, self.dense(s)):
            assert abs(value - dense) <= 1e-12 * max(1.0, dense)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(0, 3),
        shift=st.sampled_from([1e-6, -1e-6, 1e-6j]),
        data=st.data(),
    )
    def test_one_shifted_entry_is_flagged(self, n, seed, block, shift, data):
        # A shift in any block is flagged by the dense re-check; one in an
        # upper block, which the block rows read, by those rows too.
        s = self.symmetry(np.random.default_rng(seed), n)
        row, col = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        s[row + n * (block // 2), col + n * (block % 2)] += shift
        assert max(value for _, value, _ in symmetry_residuals(s)) > SPEC_TOL
        if block < 2:
            assert max(value for _, value, _ in _halmos_residuals(s)) > SPEC_TOL

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), stretch=st.sampled_from([0.0, 1e-6]))
    def test_exactly_hermitian_blocks_take_one_product(self, n, seed, stretch):
        # P and Q exactly Hermitian: squares_to_identity is sqrt 2 ||T*T - 1||
        # with T = P + iQ, which equals sqrt 2 ||TT* - 1|| and the dense
        # ||S^2 - 1||, and flags the non-symmetry Q = (1 + 1e-6) defect.
        s = self.symmetry(np.random.default_rng(seed), n)
        s[:n, n:] *= 1.0 + stretch
        s[n:, :n] *= 1.0 + stretch
        (_, selfadjoint, _), (_, square, _) = _halmos_residuals(s)
        t = s[:n, :n] + 1j * s[:n, n:]
        swapped = math.sqrt(2.0) * np.linalg.norm(t @ dagger(t) - np.eye(n))
        assert selfadjoint == 0.0
        for value in (swapped, self.dense(s)[1]):
            assert abs(square - value) <= 1e-12 * max(1.0, value)
        assert (square > SPEC_TOL) == (stretch > 0.0)

    @staticmethod
    def _halmos_writers():
        # (records, operator of each row-name prefix) of every constructor
        # that writes the Halmos form and records _halmos_residuals.
        rng = np.random.default_rng(47)
        for n in (1, 2, 5, 16):
            mats = [b / (1.5 * opnorm(b)) for b in (random_hermitian(rng, n) for _ in range(3))]
            with measured() as records:
                s = halmos_symmetry(mats[0])
            yield records, {"": s}
            with measured() as records:
                result = cube_dilation(mats)
            yield records, {f"{label}_": op for label, op in zip(result.labels, result.operators)}
        for lam in np.linspace(-0.99, 0.99, 23):
            with measured() as records:
                pair = square_irrep(float(lam))
            yield records, {"s1_": pair.mats[1]}
        for m in range(1, 7):
            with measured() as records:
                tuple_ = hadamard_symmetries(m)
            yield records, {f"s{m}_": tuple_.mats[-1]}

    def test_constructors_record_the_dense_values(self):
        # Each recorded row is _halmos_residuals' own, bit for bit, and the
        # dense formula's within 1e-12 max(1, value).
        names = ["selfadjoint", "squares_to_identity"]
        count = 0
        for records, operators in self._halmos_writers():
            assert records
            for name, value, _, _ in records:
                prefix = next(p for p in operators if name.startswith(p) and name[len(p):] in names)
                row = names.index(name[len(prefix):])
                dense = self.dense(operators[prefix])[row]
                assert value == _halmos_residuals(operators[prefix])[row][1]
                assert abs(value - dense) <= 1e-12 * max(1.0, dense), (name, value, dense)
                count += 1
        # halmos_symmetry 2 rows, cube_dilation 6, square_irrep 2 (23 of
        # them) and hadamard_symmetries 1 (6 of them).
        assert count == 4 * (2 + 6) + 23 * 2 + 6


class TestCommutant:
    def test_identity_has_full_commutant(self):
        dim, basis = commutant_dimension([np.eye(2)])
        assert dim == 4
        assert len(basis) == 4

    def test_irreducible_pair(self):
        mats = [np.diag([-1.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        dim, basis = commutant_dimension(mats)
        assert dim == 1
        # The single basis element is a scalar multiple of the identity.
        b = basis[0]
        assert opnorm(b - b[0, 0] * np.eye(2)) <= 1e-10

    def test_diagonal_commutant(self):
        dim, _ = commutant_dimension([np.diag([1.0, -1.0])])
        assert dim == 2

    @pytest.mark.parametrize(
        "scale, message",
        [
            (1e100, "kept no element"),
            (1e150, "kept no element"),
            (1e200, "inputs too large"),
        ],
    )
    def test_huge_inputs_are_refused(self, scale, message):
        # The identity always commutes: a solve that keeps no element failed.
        # Past about 1e154 the Gram matrix overflows. Neither may surface as
        # a numpy error or warning.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        with pytest.raises(RelationCheckFailedError, match=message):
            commutant_dimension([scale * a, scale * b])

    def test_basis_orthonormal_and_commutes(self):
        rng = np.random.default_rng(3)
        mats = [random_hermitian(rng, 4) for _ in range(2)]
        dim, basis = commutant_dimension(mats)
        for i, b in enumerate(basis):
            for a in mats:
                assert opnorm(b @ a - a @ b) <= 1e-6
            for j, other in enumerate(basis):
                ip = np.vdot(b.ravel(), other.ravel())
                assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(11)
        mats = [np.diag([-1.0, 1.0, 1.0]), random_hermitian(rng, 3)]
        dim, basis = commutant_dimension(mats)
        u = random_unitary(rng, 3)
        conj = [u @ m @ dagger(u) for m in mats]
        dim2, basis2 = commutant_dimension(conj)
        assert dim2 == dim
        # The conjugated original basis lies in the span of the new basis.
        for b in basis:
            target = (u @ b @ dagger(u)).ravel()
            coeffs = np.array([np.vdot(nb.ravel(), target) for nb in basis2])
            reconstructed = sum(c * nb.ravel() for c, nb in zip(coeffs, basis2))
            assert np.linalg.norm(reconstructed - target) <= 1e-6

    @pytest.mark.parametrize(
        "mats",
        [
            *([steinberg_pair(q).w, steinberg_pair(q).v] for q in (5, 8, 27)),
            hadamard_symmetries(3).mats,
            # Simple spectrum of H, n unknowns, a dense Haar-framed V.
            generic_pair(64),
            generic_pair(128),
        ],
        ids=["steinberg(5)", "steinberg(8)", "steinberg(27)", "hadamard(3)", "generic(64)", "generic(128)"],
    )
    def test_irreducible_basis_is_the_positive_identity(self, mats):
        n = mats[0].shape[0]
        dim, basis = commutant_dimension(mats)
        assert dim == 1
        assert opnorm(basis[0] - np.eye(n) / np.sqrt(n)) <= 1e-12

    @pytest.mark.parametrize(
        "inputs, solves",
        [
            (lambda: [steinberg_pair(27).w, steinberg_pair(27).v], 1),
            (lambda: conjugated(np.random.default_rng(2), block_sum(IRREPS["s3"](), IRREPS["s3"](), IRREPS["a4"]())), 1),
            (lambda: [np.eye(4, k=1)], 1),
            # The first block solve leaves the count unsettled.
            (lambda: [np.diag(np.exp(2j * np.pi * np.arange(5) / 5)), 0.5e-8 * (np.ones((5, 5)) - np.eye(5))], 2),
        ],
        ids=["simple", "blocks", "no_normal_entry", "merged"],
    )
    def test_no_qr_and_no_svd(self, monkeypatch, inputs, solves):
        # Every solve is one eigh of the Gram matrix and one of the Ritz
        # Gram, after one of H; the residuals take no SVD either. Patched
        # where callers name the functions and where np.linalg.norm calls them.
        mats = inputs()
        calls = dict.fromkeys(["qr", "svd", "eigh"], 0)
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
            monkeypatch.setattr(np.linalg._linalg, name, counted)
        commutant_dimension(mats)
        assert calls["qr"] == calls["svd"] == 0
        assert calls["eigh"] == 1 + 2 * solves

    def test_orthonormality_residual_is_the_frobenius_norm(self):
        # A basis off orthonormality in every direction: the Frobenius norm
        # of B*B - 1 exceeds its operator norm, and the residual is the former.
        noise = np.random.default_rng(26).standard_normal((9, 3, 3))
        basis = list(np.eye(9).reshape(9, 3, 3) + 1e-9 * noise)
        flat = np.array(basis).reshape(9, 9)
        gap = flat.conj() @ flat.T - np.eye(9)
        value = dict((name, value) for name, value, _ in commutant_residuals([np.eye(3)], basis))["basis_orthonormal"]
        assert value == pytest.approx(np.linalg.norm(gap), rel=1e-12)
        assert value > 1.5 * np.linalg.norm(gap, 2)

    def test_weights_of_h_are_drawn_once_and_read_only(self):
        assert _h_weights(3) is _h_weights(3)
        assert not _h_weights(3).flags.writeable
        assert np.array_equal(_h_weights(3), np.random.default_rng(0).uniform(0.5, 1.0, (3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            commutant_dimension([np.eye(2), np.eye(3)])
        with pytest.raises(ShapeMismatchError):
            commutant_dimension([])


def block_sum(*tuples):
    """Entrywise direct sum of equally long matrix tuples."""
    out = list(tuples[0])
    for t in tuples[1:]:
        out = [direct_sum(a, b) for a, b in zip(out, t)]
    return out


def conjugated(rng, mats):
    u = random_unitary(rng, mats[0].shape[0])
    return [u @ m @ dagger(u) for m in mats]


IRREPS = {
    "s3": lambda: [s3_pair().w, s3_pair().v],
    "a4": lambda: [a4_pair().w, a4_pair().v],
    "square(0.3)": lambda: square_irrep(0.3).mats,
    "square(-0.6)": lambda: square_irrep(-0.6).mats,
    "trivial": lambda: [np.eye(1), np.eye(1)],
    "sign": lambda: [np.eye(1), -np.eye(1)],
    **{f"steinberg({q})": lambda q=q: [steinberg_pair(q).w, steinberg_pair(q).v] for q in (5, 7, 8)},
}


class TestCommutantAgainstFullStack:
    """The blockwise kernel against the direct n^2-unknown solve."""

    def assert_matches(self, mats, expected=None):
        dim, basis = commutant_dimension(mats)
        oracle_dim, projector = commutant_oracle(mats)
        assert dim == oracle_dim
        if expected is not None:
            assert dim == expected
        # Same null space: the basis lies in the oracle's span.
        flat = np.array([b.ravel() for b in basis])
        assert np.linalg.norm(flat - flat @ projector.T) <= 1e-6
        # Each trace is real and non-negative, or at rounding level.
        traces = np.trace(np.array(basis), axis1=1, axis2=2)
        big = np.abs(traces) > 1e-12
        assert np.all(np.abs(traces[big].imag) <= 1e-12) and np.all(traces[big].real > 0)

    @pytest.mark.parametrize(
        "multiplicities",
        [
            {"s3": 2},
            {"a4": 3},
            {"s3": 1, "a4": 1},
            {"s3": 2, "a4": 1, "square(0.3)": 1},
            {"square(0.3)": 2, "square(-0.6)": 1},
            {"s3": 1, "a4": 2, "square(-0.6)": 2},
            # Simple spectrum of H: every block pair is 1 x 1.
            {"steinberg(5)": 1},
            {"steinberg(7)": 1},
            {"steinberg(8)": 1},
            {"s3": 1, "trivial": 1, "sign": 1},
            # Blocks of sizes 2 and 1: both 1 x 1 pairs and larger ones.
            {"s3": 2, "trivial": 1, "sign": 1},
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_conjugated_block_sums(self, multiplicities, seed):
        parts = [IRREPS[name]() for name, count in multiplicities.items() for _ in range(count)]
        mats = conjugated(np.random.default_rng(seed), block_sum(*parts))
        self.assert_matches(mats, sum(c * c for c in multiplicities.values()))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_jordan_block(self, n):
        self.assert_matches([np.eye(n, k=1)], n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_normal_entry(self, seed):
        rng = np.random.default_rng(seed)
        pair = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        self.assert_matches(pair, 1)
        self.assert_matches(conjugated(rng, block_sum(pair, pair)), 4)

    def test_normal_and_non_normal_entries(self):
        rng = np.random.default_rng(4)
        mixed = square_irrep(0.3).mats + [np.eye(2, k=1)]
        self.assert_matches(conjugated(rng, mixed), 1)
        self.assert_matches(conjugated(rng, block_sum(mixed, mixed)), 4)

    @pytest.mark.parametrize("copies", [2, 3])
    def test_repeated_eigenvalue_of_h(self, copies):
        # Equal summands: every eigenvalue of H is repeated `copies` times.
        t = square_irrep(0.3).mats
        mats = conjugated(np.random.default_rng(copies), block_sum(*[t] * copies))
        self.assert_matches(mats, copies * copies)

    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((square_irrep(0.3).mats, square_irrep(-0.6).mats), 2),
            ((square_irrep(0.3).mats, square_irrep(0.3).mats), 4),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_within_tolerance(self, parts, expected, seed):
        # Hermitian noise of norm 0.1 * spec_tol keeps every entry normal, so
        # each enters H, and splits H's repeated eigenvalues by about 1e-9;
        # each split eigenvalue must stay inside one cluster.
        rng = np.random.default_rng(seed)
        mats = []
        for m in conjugated(rng, block_sum(*parts)):
            noise = random_hermitian(rng, m.shape[0])
            mats.append(m + 0.1 * SPEC_TOL * noise / opnorm(noise))
        self.assert_matches(mats, expected)

    @pytest.mark.parametrize(
        "factor",
        [0.1, 10.0, (1 - 1e-3) / math.sqrt(10), (1 + 1e-3) / math.sqrt(10)],
        ids=["0.1", "10.0", "just_below", "just_above"],
    )
    def test_diagonal_unitary_with_a_coupling_near_the_cutoff(self, factor):
        # Distinct eigenvalues make every block 1 x 1; the coupling's rows
        # have four singular values sqrt(2 n) factor = sqrt(10) factor times
        # the cutoff, so the commutant is the diagonal (factor < 1 / sqrt(10))
        # or the scalars. Two of H's eigenvalues lie 0.077 apart, so at 0.1
        # the first block solve counts 3: the count is settled only after
        # those clusters are merged. The last two factors put the four
        # values 1e-3 of the cutoff below and above it, 5e-11 away, far
        # inside sqrt(delta) ~ 1e-7 for the a-priori eigh error delta =
        # P eps ||M||_F of the Gram matrix M: its eigenvalues, the squared
        # singular values, cannot tell the two apart, and the unsquared
        # Ritz check must.
        n = 5
        diagonal = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        coupling = factor * SPEC_TOL * n * (np.ones((n, n)) - np.eye(n))
        expected = n if factor < 1 / math.sqrt(10) else 1
        self.assert_matches([diagonal, coupling], expected)
        self.assert_matches(conjugated(np.random.default_rng(8), [diagonal, coupling]), expected)

    def test_hadamard_one_twenty_eight_in_bounded_memory(self):
        # H's spectrum is simple, so the Gram matrix is 128 x 128, the Ritz
        # check applies K to one trial vector, and the normality screen takes
        # one input at a time: the whole call stays within a few copies of
        # the (8, 128, 128) input stack.
        mats = hadamard_symmetries(7).mats
        tracemalloc.start()
        try:
            dim, _ = commutant_dimension(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 1
        assert peak <= 8e6

    def test_weak_coupling_in_bounded_memory(self):
        # An irreducible pair of small norm where it matters: H's eigenvalues
        # 0, 1, ..., 127 keep every block 1 x 1, while the coupling 5e-4 puts
        # all of the Gram matrix's nonzero eigenvalues near 6.4e-5. A Ritz
        # threshold that does not scale with the inputs would take all 128
        # eigenvectors into the Ritz check (a 33 MB trial stack); one from the
        # cutoff and delta takes the single null vector. Left in the inputs,
        # the diagonal's squares would cancel in the Gram matrix and put the
        # basis element about 6e-9 from +I/sqrt(n).
        n = 128
        mats = [np.diag(np.arange(n, dtype=float)), 5e-4 * (np.ones((n, n)) - np.eye(n))]
        tracemalloc.start()
        try:
            dim, basis = commutant_dimension(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 1
        assert opnorm(basis[0] - np.eye(n) / math.sqrt(n)) <= 1e-12
        assert peak <= 8e6

    def test_hadamard_sixty_four_is_feasible(self):
        # The full stack would be a (7 * 4096) x 4096 system.
        dim, basis = commutant_dimension(hadamard_symmetries(6).mats)
        assert dim == 1
        assert opnorm(basis[0] - basis[0][0, 0] * np.eye(64)) <= 1e-10


class TestSupportValue:
    def test_largest_eigenvalue(self):
        assert support_value([np.diag([1.0, -1.0])], [1.0]) == pytest.approx(1.0)

    def test_sqrt_two(self):
        # Eigenvalues of [[1, 1], [1, -1]] are +/- sqrt(2).
        mats = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        assert support_value(mats, [1.0, 1.0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_zero_operator(self):
        assert support_value([np.zeros((3, 3))], [5.0]) == pytest.approx(0.0)

    def test_width_nonnegative_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            mats = [random_hermitian(rng, n) for _ in range(3)]
            c = rng.standard_normal(3)
            width = support_value(mats, c) + support_value(mats, -c)
            assert width >= -1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            support_value([np.array([[0.0, 1.0], [0.0, 0.0]])], [1.0])

    def test_rejects_bad_direction(self):
        with pytest.raises(ShapeMismatchError):
            support_value([np.eye(2)], [1.0, 2.0])


class TestBlocks:
    def test_kron_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_direct_sum(self):
        out = direct_sum(np.array([[1.0]]), np.array([[-1.0]]))
        assert np.array_equal(out, np.diag([1.0, -1.0]).astype(complex))

    def test_direct_sum_of_one_and_of_three_blocks(self):
        rng = np.random.default_rng(12)
        a, b, c = (random_hermitian(rng, n) for n in (1, 3, 2))
        assert np.array_equal(direct_sum(b), b)
        assert direct_sum(b).dtype == complex
        assert np.array_equal(direct_sum(a, b, c), direct_sum(direct_sum(a, b), c))
        assert np.array_equal(direct_sum(a, b, c), direct_sum(a, direct_sum(b, c)))

    def test_compress_corner(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        e1 = np.array([[1.0], [0.0]])
        assert np.array_equal(compress(swap, e1), np.array([[0.0]], dtype=complex))

    def test_compress_first_block_inclusion_is_exact(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        big = direct_sum(a, b)
        inclusion = np.vstack([np.eye(3), np.zeros((2, 3))])
        assert np.array_equal(compress(big, inclusion), a)

    def test_compress_rejects_non_isometry(self, monkeypatch):
        # Z*Z = 2 deviates from the identity by 1; the refusal reports the
        # deviation that decided it, taken by one spectral norm.
        import ncprism.matkernel as matkernel

        norms = []
        monkeypatch.setattr(matkernel, "opnorm", lambda a: norms.append(1) or opnorm(a))
        with pytest.raises(NotIsometryError) as info:
            compress(np.eye(2), np.array([[1.0], [1.0]]))
        assert str(info.value) == "Z*Z deviates from identity by 1.000e+00"
        assert norms == [1]


class TestStacks:
    """Slicewise kernels on (m, n, n) stacks agree with the 2-D call per slice."""

    STACK = np.random.default_rng(31).standard_normal((4, 3, 3, 2)) @ np.array([1.0, 1j])

    def test_dagger_and_hermitize_act_per_slice(self):
        for fn in (dagger, hermitize):
            out = fn(self.STACK)
            assert out.shape == self.STACK.shape
            for got, block in zip(out, self.STACK):
                assert np.array_equal(got, fn(block))


def near_parallel(delta):
    """Three 1 x 1 blocks, base (0, 1, -2), and the directions (1, -1, 0)
    and (1, -1, delta), parallel but for delta."""
    base = np.array([0.0, 1.0, -2.0]).reshape(3, 1, 1)
    directions = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, delta]]).reshape(2, 3, 1, 1)
    return base, directions


class TestLmiFloor:
    """Two 1 x 1 blocks, base (0, 1) and the one direction (1, -1): the best
    floor is max_y min(y, 1 - y) = 1/2, and x = (1/2, 1/2) attains the bound."""

    BASE = np.array([[[0.0]], [[1.0]]])
    DIRECTIONS = np.array([[[[1.0]], [[-1.0]]]])

    @staticmethod
    def floor_of(y, base=BASE, directions=DIRECTIONS):
        return np.linalg.eigvalsh(hermitize(base + np.tensordot(y, directions, axes=1))).min()

    def test_hermitian_basis_is_orthonormal(self):
        for n in range(1, 5):
            basis = hermitian_basis(n)
            assert basis.shape == (n * n, n, n)
            assert np.array_equal(basis, dagger(basis))
            gram = np.einsum("aij,bji->ab", basis, basis)
            assert np.abs(gram - np.eye(n * n)).max() <= 1e-15

    def test_fourier_transform_pair(self):
        # fourier_values is F c and fourier_coefficients its inverse F^H x / k,
        # along axis 0 of a stack, with F the dense reference DFT.
        for k in (3, 4, 7):
            f = reference_dft(k)
            assert np.abs(roots_of_unity(k) - f[:, 1]).max() <= 1e-15
            x = np.random.default_rng(k).standard_normal((k, 2, 2)) + 0j
            values = fourier_values(x)
            assert np.abs(values - np.einsum("jm,mab->jab", f, x)).max() <= 1e-14
            assert np.abs(fourier_coefficients(values) - x).max() <= 1e-15

    def test_base_above_threshold_takes_no_step(self):
        result = lmi_floor(self.BASE + 1.0, FloorSystem(self.DIRECTIONS), (0.5, 0.5))
        assert result.steps == 0 and result.t_lo == 1.0
        assert np.array_equal(result.y, [0.0])

    def test_first_point_above_threshold(self):
        result = lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.4, 0.4))
        assert 0 < result.steps < 50
        assert 0.4 <= result.t_lo <= 0.5
        assert result.t_lo == self.floor_of(result.y)

    def test_primal_point_proves_threshold_out_of_reach(self):
        result = lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.6, 0.6))
        x = result.x
        assert result.t_lo < 0.6 and 0.5 <= result.t_hi < 0.6
        assert np.linalg.eigvalsh(x).min() >= 0.0
        assert abs(np.trace(x, axis1=1, axis2=2).sum() - 1.0) <= 1e-14
        assert abs(np.vdot(self.DIRECTIONS[0], x)) <= 1e-14
        assert np.vdot(self.BASE, x).real == result.t_hi

    def test_threshold_at_the_optimum_leaves_a_tight_bracket(self):
        result = lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.5, 0.5))
        assert result.t_lo <= 0.5 + 1e-15 and result.t_hi >= 0.5 - 1e-15
        assert result.t_hi - result.t_lo <= 1e-9

    def test_band_stops_once_the_bracket_is_inside(self):
        # The best floor is 1/2: the band (0.4, 0.6) can neither be cleared nor
        # ruled out, so the solver stops at the first bracket inside it, no
        # later than the tight bracket that the band (0.5, 0.5) runs to.
        result = lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.4, 0.6))
        assert 0.4 <= result.t_lo <= 0.5 <= result.t_hi < 0.6
        assert result.t_lo == self.floor_of(result.y)
        assert 0 < result.steps <= lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.5, 0.5)).steps

    def test_band_sides_decide_as_thresholds(self):
        # Each side of a band decides as a threshold does: a floor of 1/2
        # clears the band (0.3, 0.4) and is ruled out of (0.6, 0.7).
        assert lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.3, 0.4)).t_lo >= 0.4
        above = lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.6, 0.7))
        assert 0.5 <= above.t_hi < 0.6

    def test_band_must_be_ordered(self):
        with pytest.raises(ValueError, match="low <= high"):
            lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.6, 0.4))

    @staticmethod
    def random_problem(seed):
        """Seeded blocks and directions: 1 to 3 blocks of 1 x 1 to 3 x 3."""
        rng = np.random.default_rng(seed)
        m, n = 1 + seed % 3, 1 + (seed // 3) % 3
        p = int(rng.integers(1, max(2, m * n * n)))
        base = hermitize(rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        directions = hermitize(
            rng.standard_normal((p, m, n, n)) + 1j * rng.standard_normal((p, m, n, n))
        )
        return base, directions

    def test_single_point_band_keeps_the_threshold_stops(self):
        # 60 random problems x 4 thresholds t. Seeds 0, 9, ..., 54 pose one
        # 1 x 1 block with one direction, whose span holds the identity: they
        # are refused. The other 212 stops, the step count and the side that
        # stopped the band (t, t) ("lo": t_lo >= t, "hi": t_hi < t, "none":
        # the gap, the cap or a failed step), are pinned by their digest. At
        # seed 25 / lift 2.0 a solver without step halving lost the
        # factorisation of its primal iterate at step 39 and stopped at 38
        # steps, side "none", on the bracket [-0.1888, 0.6272]; the best
        # floor is -0.1888, so a decision must say "hi".
        stops = []
        for seed in range(60):
            base, directions = self.random_problem(seed)
            for lift in (0.05, 0.5, 1.0, 2.0):
                t = float(np.linalg.eigvalsh(base).min() + lift)
                if seed % 9 == 0:
                    with pytest.raises(ValueError, match="linearly independent to rounding"):
                        lmi_floor(base, FloorSystem(directions), (t, t))
                    continue
                result = lmi_floor(base, FloorSystem(directions), (t, t))
                side = "lo" if result.t_lo >= t else "hi" if result.t_hi < t else "none"
                if (seed, lift) == (25, 2.0):
                    assert side == "hi" and result.t_hi < -0.188 < t
                stops.append((result.steps, side))
        assert len(stops) == 212
        digest = hashlib.sha256(repr(stops).encode()).hexdigest()
        assert digest == "350ef36e3c5e89e1cd18d53e5ee030655c42e2a67376a1762d105e9e04df9c9e"

    def test_lift_is_the_stack_its_floor_was_taken_of(self):
        # On the fixed problem (its y = 0 return included) and on every
        # problem and lift of the pinned test above: lift is
        # hermitize(base + sum_i y_i D_i) bit for bit, spectrum is its eigh
        # bit for bit, and t_lo the least eigenvalue of that spectrum.
        problems = [(self.BASE + 1.0, self.DIRECTIONS, 0.5), (self.BASE, self.DIRECTIONS, 0.4)]
        problems += [(self.BASE, self.DIRECTIONS, 0.6)]
        for seed in range(60):
            if seed % 9:
                base, directions = self.random_problem(seed)
                low = float(np.linalg.eigvalsh(base).min())
                problems += [(base, directions, low + lift) for lift in (0.05, 2.0)]
        steps = []
        for base, directions, t in problems:
            system = FloorSystem(directions)
            result = lmi_floor(base, system, (t, t))
            stack = np.asarray(base, dtype=complex) + np.tensordot(result.y, system.directions, axes=1)
            expected = hermitize(stack)
            assert result.lift.dtype == expected.dtype and result.lift.tobytes() == expected.tobytes()
            w, u = np.linalg.eigh(expected)
            assert result.spectrum[0].tobytes() == w.tobytes() and result.spectrum[1].tobytes() == u.tobytes()
            assert result.t_lo == float(w.min())
            steps.append(result.steps)
        assert steps[0] == 0 < steps[1] and max(steps) > 1

    def test_a_clearing_base_is_its_own_lift(self, monkeypatch):
        # When y = 0 clears the band, the lift is hermitize(base) byte for
        # byte and no product with the directions is formed.
        problems = [(self.BASE + 1.0, self.DIRECTIONS, 0.5)]
        for seed in range(60):
            if seed % 9:
                base, directions = self.random_problem(seed)
                problems.append((base, directions, float(np.linalg.eigvalsh(base).min()) - 0.5))
        systems = [FloorSystem(directions) for _, directions, _ in problems]
        products = record_direction_products(monkeypatch)
        for (base, _, t), system in zip(problems, systems):
            result = lmi_floor(base, system, (t, t))
            expected = hermitize(np.asarray(base, dtype=complex))
            assert result.steps == 0 and not result.y.any() and result.t_lo >= t
            assert result.lift.dtype == expected.dtype and result.lift.tobytes() == expected.tobytes()
        assert products == []

    def test_a_reused_system_solves_as_fresh_ones(self):
        # On every problem and lift of the pinned test above, one system
        # serves the four bands and gives a fresh system's result bit for
        # bit; a dependent problem is refused when its system is made.
        for seed in range(60):
            base, directions = self.random_problem(seed)
            if seed % 9 == 0:
                with pytest.raises(ValueError, match="linearly independent to rounding"):
                    FloorSystem(directions)
                continue
            system = FloorSystem(directions)
            for lift in (0.05, 0.5, 1.0, 2.0):
                t = float(np.linalg.eigvalsh(base).min() + lift)
                ours, theirs = lmi_floor(base, system, (t, t)), lmi_floor(base, FloorSystem(directions), (t, t))
                assert (ours.t_lo, ours.t_hi, ours.steps) == (theirs.t_lo, theirs.t_hi, theirs.steps)
                assert ours.y.tobytes() == theirs.y.tobytes()
                assert (ours.x is None) == (theirs.x is None)
                assert ours.x is None or ours.x.tobytes() == theirs.x.tobytes()
                assert ours.lift.tobytes() == theirs.lift.tobytes()

    def test_a_system_is_read_only_and_built_when_made(self):
        system = FloorSystem(self.DIRECTIONS)
        built = dict(vars(system))
        assert set(built) == {"directions", "flat", "pair", "cols", "b", "gram", "slack_cut"}
        for array in built.values():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0
        # Neither a clearing base nor a solve that takes steps adds to it or
        # replaces an array (dict equality compares the arrays by identity).
        for base in (self.BASE + 1.0, self.BASE):
            lmi_floor(base, system, (0.5, 0.5))
            assert vars(system) == built
        with pytest.raises(ShapeMismatchError, match="blocks"):
            lmi_floor(np.zeros((3, 1, 1)), system, (0.5, 0.5))
        with pytest.raises(ShapeMismatchError, match=r"\(p, m, n, n\)"):
            FloorSystem(self.BASE)

    @pytest.mark.parametrize("seed, t", [(41, 0.3), (59, 0.0)])
    def test_failed_factorisation_halves_the_step(self, monkeypatch, seed, t):
        # A Cholesky factorisation that fails halfway through the solve costs
        # a halved step, not the decision the undisturbed solve reaches:
        # "hi" after 22 steps and "lo" after 5.
        base, directions = self.random_problem(seed)
        undisturbed = lmi_floor(base, FloorSystem(directions), (t, t))
        fail_at = 1 + undisturbed.steps // 2
        cholesky, calls = np.linalg.cholesky, []

        def flaky(stack):
            calls.append(1)
            if len(calls) == fail_at:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(stack)

        monkeypatch.setattr(np.linalg, "cholesky", flaky)
        result = lmi_floor(base, FloorSystem(directions), (t, t))
        assert undisturbed.steps >= 5 and len(calls) > fail_at
        sides = [("lo" if r.t_lo >= t else "hi" if r.t_hi < t else "none") for r in (undisturbed, result)]
        assert sides[0] != "none" and sides[1] == sides[0]
        assert result.t_lo == self.floor_of(result.y, base, directions)

    def test_deterministic(self):
        first, again = (lmi_floor(self.BASE, FloorSystem(self.DIRECTIONS), (0.6, 0.6)) for _ in range(2))
        assert np.array_equal(first.y, again.y) and np.array_equal(first.x, again.x)
        assert (first.t_lo, first.t_hi, first.steps) == (again.t_lo, again.t_hi, again.steps)

    def test_floor_is_recomputed_from_y(self):
        # 3 x 3 blocks: the floor the iterates carry may differ in the last
        # bits from a fresh factorisation of the lift of y, and the returned
        # t_lo is the least eigenvalue of the returned spectrum, which is the
        # eigh of that lift bit for bit.
        rng = np.random.default_rng(0)
        base, directions = (
            hermitize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for shape in ((4, 3, 3), (3, 4, 3, 3))
        )
        for threshold in (-1.5, -0.5):
            result = lmi_floor(base, FloorSystem(directions), (threshold, threshold))
            w, u = np.linalg.eigh(hermitize(base + np.tensordot(result.y, directions, axes=1)))
            assert result.steps > 0
            assert result.spectrum[0].tobytes() == w.tobytes() and result.spectrum[1].tobytes() == u.tobytes()
            assert result.t_lo == float(w.min())

    def test_projection_that_is_not_psd_bounds_nothing(self):
        # Direction (1, 3) is PSD, so every floor is reachable; the primal
        # constraints force x = (3/2, -1/2), which is no certificate.
        result = lmi_floor(np.zeros((2, 1, 1)), FloorSystem(np.array([[[[1.0]], [[3.0]]]])), (1.0, 1.0))
        assert result.t_lo >= 1.0 and result.t_hi == math.inf and result.x is None

    def test_dependent_directions_raise_no_linalg_error(self):
        # A repeated direction would make the Newton systems singular; the
        # Gram screen refuses it first, with a ValueError that is not a
        # LinAlgError from a factorisation.
        twice = np.concatenate([self.DIRECTIONS, self.DIRECTIONS])
        for threshold in (0.4, 0.6):
            with pytest.raises(ValueError, match="linearly independent to rounding") as info:
                lmi_floor(self.BASE, FloorSystem(twice), (threshold, threshold))
            assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_a_system_holds_its_constraints(self):
        # The constraint matrices are A_i = -D_i and then the identity:
        # ``flat`` holds them one per row, ``pair`` conjugated, block b of
        # ``cols`` is [A_1b | ... | A_Pb], b = (0, ..., 0, 1), ``gram`` is
        # Re <A_i, A_j> and ``slack_cut`` the rounding allowance per row.
        for seed in (1, 13, 50):
            _, directions = self.random_problem(seed)
            system = FloorSystem(directions)
            p, m, n, _ = directions.shape
            a = np.concatenate([-directions, [np.broadcast_to(np.eye(n), (m, n, n))]])
            assert np.array_equal(system.directions, directions)
            assert np.array_equal(system.flat, a.reshape(p + 1, -1))
            assert np.array_equal(system.pair, a.reshape(p + 1, -1).conj())
            for block in range(m):
                assert np.array_equal(system.cols[block], np.hstack(list(a[:, block])))
            assert np.array_equal(system.b, np.eye(p + 1)[-1])
            gram = np.einsum("iabc,jabc->ij", a.conj(), a).real
            assert np.abs(system.gram - gram).max() <= 1e-12 * np.abs(gram).max()
            cut = m * n * n * np.finfo(float).eps * np.linalg.norm(a.reshape(p + 1, -1), axis=1)
            assert np.allclose(system.slack_cut, cut, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "directions",
        [
            np.concatenate([DIRECTIONS, DIRECTIONS]),
            np.concatenate([DIRECTIONS, [[[[1.0]], [[1.0]]]]]),
            *(near_parallel(delta)[1] for delta in (1e-6, 1e-7, 3e-8)),
        ],
        ids=["repeated", "identity-in-the-span", "delta-1e-06", "delta-1e-07", "delta-3e-08"],
    )
    def test_dependent_directions_are_refused(self, directions):
        # A repeated direction, directions whose span holds the identity, and
        # nearly parallel ones whose constraint Gram matrix is singular to
        # within sqrt(eps) are outside the solver's contract: the system is
        # refused when it is made, before any base is seen, so a base that
        # would clear the band at y = 0 gets no answer from them either.
        with pytest.raises(ValueError, match="linearly independent to rounding"):
            FloorSystem(directions)

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 3e-8, 1e-3])
    @pytest.mark.parametrize("threshold", [0.4, 0.6])
    def test_primal_point_must_meet_the_callers_constraints(self, delta, threshold):
        # Base (0, 1, -2) and directions (1, -1, 0), (1, -1, delta): every
        # floor below 1/2 is reachable (the second direction lifts the third
        # block), so no bound may fall below 1/2, and a threshold below 1/2
        # is reached. For delta <= 1e-6 the constraint Gram matrix is
        # singular to within sqrt(eps) and the problem is refused. At
        # delta = 1e-3 it is not, but the projection is ill-conditioned
        # enough that two projected points miss <D_i, X> = 0 by far more
        # than rounding and must not be taken as bounds.
        base, directions = near_parallel(delta)
        if delta < 1e-3:
            with pytest.raises(ValueError, match="linearly independent to rounding"):
                lmi_floor(base, FloorSystem(directions), (threshold, threshold))
            return
        result = lmi_floor(base, FloorSystem(directions), (threshold, threshold))
        assert result.t_hi >= 0.5 - 1e-12 and result.t_hi >= result.t_lo
        if threshold < 0.5:
            assert result.t_lo >= threshold
            assert result.t_lo == self.floor_of(result.y, base, directions)
        if result.x is not None:
            assert max(abs(np.vdot(d, result.x)) for d in directions) <= 1e-14


class TestMeasured:
    def test_no_block_open_records_nothing(self):
        with measured() as closed:
            s3_pair()
        count = len(closed)
        s3_pair()
        with measured() as fresh:
            pass
        assert count > 0 and len(closed) == count and fresh == []

    def test_nested_block_receives_only_its_own_records(self):
        with measured() as outer:
            s3_pair()
            with measured() as inner:
                square = square_irrep(0.3)
            hadamard_symmetries(1)
        assert {what for *_, what in inner} == {square.provenance}
        assert {what for *_, what in outer} == {"s3_pair", "hadamard_symmetries(m=1)"}
        # In check order, each with the bound it was checked against.
        names = [name for name, _, _, what in outer if what == "s3_pair"]
        assert names[:2] == ["w_unitary", "w_order_3"] and names[-1] == "||WV - VW||_F >= 1"
        assert all(value <= bound for _, value, bound, _ in outer + inner)


class TestCheckOrder:
    def test_identity_order_one(self):
        assert within_bounds(order_residuals(np.eye(3), 1))

    def test_roots_of_unity(self):
        omega = np.exp(2j * np.pi / 3)
        assert within_bounds(order_residuals(np.diag([1.0, omega, omega**2]), 3))

    def test_wrong_order_rejected(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert within_bounds(order_residuals(swap, 2))
        assert not within_bounds(order_residuals(swap, 3))

    def test_non_unitary_rejected(self):
        assert not within_bounds(order_residuals(np.diag([0.5, 1.0]), 1))

    @pytest.mark.parametrize("k", [0, -2])
    def test_order_below_one_refused(self, k):
        # U^0 = 1 would pass the order row of any unitary.
        with pytest.raises(NcprismError, match=f"an order k must be at least 1, got k={k}$"):
            order_residuals(np.eye(2), k)


class TestDiagonalResiduals:
    """Exactly diagonal matrices have their unitary and order residuals taken
    on the diagonal; anything else takes the dense products."""

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_diagonal_values_match_the_dense_formulas(self, n, k):
        rng = np.random.default_rng(n * k)
        d = np.exp(2j * np.pi * rng.integers(0, k, n) / k) * (1 + 1e-9 * rng.standard_normal(n))
        u = np.diag(d)
        dense_unitary = np.linalg.norm(dagger(u) @ u - np.eye(n))
        dense_order = np.linalg.norm(np.linalg.matrix_power(u, k) - np.eye(n))
        unitary, order = order_residuals(u, k)
        assert unitary == unitary_residual(u)
        assert abs(unitary[1] - dense_unitary) <= 1e-14 * n
        assert abs(order[1] - dense_order) <= 1e-14 * n

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_one_diagonal_scan_per_order_check(self, monkeypatch, diagonal):
        # The order check scans u once, and its unitary residual is the one
        # unitary_residual gives, bit for bit.
        import ncprism.matkernel as matkernel

        k = 5
        d = np.exp(2j * np.pi * np.arange(4) / k) * (1 + 1e-9 * np.arange(4))
        u = np.diag(d) if diagonal else random_unitary(np.random.default_rng(3), 4) * d
        expected = [unitary_residual(u), ("order_5", matkernel._frobenius(
            d**k - 1.0 if diagonal else np.linalg.matrix_power(u, k) - np.eye(4)), SPEC_TOL * k)]
        scans = []
        real = matkernel._exact_diagonal
        monkeypatch.setattr(matkernel, "_exact_diagonal", lambda a: scans.append(1) or real(a))
        assert order_residuals(u, k) == expected
        assert scans == [1]

    def test_tiny_off_diagonal_entry_takes_the_dense_path(self, monkeypatch):
        calls = []
        dense_power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda *args: calls.append(1) or dense_power(*args))
        diagonal = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
        order_residuals(diagonal, 4)
        assert calls == []
        for row, col in zip(*np.nonzero(~np.eye(4, dtype=bool))):
            u = diagonal.copy()
            u[row, col] = 1e-300
            assert within_bounds(order_residuals(u, 4))
        assert len(calls) == 12

    def test_shifted_diagonal_is_flagged(self):
        u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        assert within_bounds(order_residuals(u, 3))
        flagged = [value > bound for _, value, bound in order_residuals(u + 1e-6 * np.eye(3), 3)]
        assert flagged == [True, True]
