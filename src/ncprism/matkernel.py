"""Dense complex linear-algebra primitives and the verification kernel.

Everything downstream (dilations, representation factories, membership and
positivity tests) is built on the handful of operations here: positive
square roots, commutant computation, support functions of joint numerical
ranges, block constructions, the order predicate for unitaries and the
Fourier transform over the k-th roots of unity. The one iterative solver,
``floor.lmi_floor``, lives in a module of its own that only a solve loads;
what it returns, :class:`FloorResult`, stays here.

Each construction has a residual function beside it returning its defining
identities as ``(name, residual, bound)`` triples; constructors pass them to
:func:`require`, and the tests call the same function. Inside a
:func:`measured` block, ``require`` also records every residual it checks,
which is how ``verify`` and the CLI report what the constructors measured.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
All operations are pure functions; the only state is the collector that
:func:`measured` opens for the block it encloses, and read-only shape
constants built once, such as :func:`commutant_dimension`'s weights per
input count, kept by :func:`constant`, the one process cache of the package.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import (
    NcprismError,
    NotHermitianError,
    NotIsometryError,
    NotPSDError,
    RelationCheckFailedError,
    ShapeMismatchError,
)

__all__ = [
    "ALG_TOL",
    "SPEC_TOL",
    "PSD_CLAMP",
    "as_matrix",
    "dagger",
    "hermitize",
    "opnorm",
    "opnorms",
    "is_hermitian",
    "require_hermitian",
    "psd_sqrt",
    "roots_of_unity",
    "fourier_values",
    "fourier_coefficients",
    "hermitian_basis",
    "FloorResult",
    "commutant_dimension",
    "support_value",
    "support_values",
    "kron",
    "direct_sum",
    "compress",
    "Residual",
    "Measured",
    "require",
    "measured",
    "constant",
    "prefixed",
    "unitary_residual",
    "order_residuals",
    "symmetry_residuals",
    "commutant_residuals",
    "irreducibility_residual",
]

Residual = tuple[str, float, float]
"""A named residual and its bound; the identity holds when residual <= bound."""


# The fixed tolerances every verdict is decided at, 0 < PSD_CLAMP <= ALG_TOL
# <= SPEC_TOL < 1. ALG_TOL bounds identities of exact block constructions,
# SPEC_TOL those that pass through eigensolvers, and eigenvalues in
# [-PSD_CLAMP, 0) are clamped to zero before positive square roots (anything
# below is an error).
ALG_TOL = 1e-10
SPEC_TOL = 1e-8
PSD_CLAMP = 1e-12


Measured = tuple[str, float, float, str]
"""A residual that :func:`require` checked, with the ``what`` it was checked for."""

_COLLECTOR: ContextVar[list[Measured] | None] = ContextVar("ncprism_measured", default=None)


@contextmanager
def measured() -> Iterator[list[Measured]]:
    """Collect every ``(name, residual, bound, what)`` that :func:`require`
    checks inside the block, in order. A block nested inside another
    receives its own records only; outside every block nothing is kept."""
    records: list[Measured] = []
    token = _COLLECTOR.set(records)
    try:
        yield records
    finally:
        _COLLECTOR.reset(token)


def require(residuals: list[Residual], error: type[Exception], what: str) -> None:
    """Raise ``error`` at the first residual above its bound, recording each
    one checked into the innermost :func:`measured` block, if any."""
    records = _COLLECTOR.get()
    for name, value, bound in residuals:
        if records is not None:
            records.append((name, value, bound, what))
        if not value <= bound:
            raise error(f"{what}: {name} residual {value:.3e} exceeds its bound {bound:.1e}")


def constant(maxsize: int):
    """Cache a shape constant: a function of small hashable arguments whose
    value no caller changes, such as a polytope or a solver's constraint
    system, kept for the last ``maxsize`` argument tuples.

    A miss runs the function inside a :func:`measured` block of its own and
    keeps the rows that block recorded beside the value. Every call, hit or
    miss, appends those rows to the caller's innermost ``measured`` block, if
    one is open, so a report lists the same rows whatever ran before it.
    ``cache_clear()`` empties the cache; ``__wrapped__`` is the uncached
    function."""

    def decorate(build):
        @functools.lru_cache(maxsize=maxsize)
        def built(*args, **kwargs):
            with measured() as records:
                return build(*args, **kwargs), tuple(records)

        @functools.wraps(build)
        def replay(*args, **kwargs):
            value, records = built(*args, **kwargs)
            outer = _COLLECTOR.get()
            if outer is not None:
                outer.extend(records)
            return value

        replay.cache_clear = built.cache_clear
        return replay

    return decorate


def prefixed(prefix: str, residuals: list[Residual]) -> list[Residual]:
    """The same residuals with ``prefix`` put before each name."""
    return [(prefix + name, value, bound) for name, value, bound in residuals]


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _operands(
    what: str, *operands, error: type[Exception] = ShapeMismatchError, n: int | None = None,
    ndim: int | None = 2, hermitian: str | None = None,
) -> list[np.ndarray]:
    """The operand rule: a call's square operands as complex arrays that are
    finite, square and all n x n with n >= 1 (the given n, if any), and
    Hermitian by :func:`is_hermitian` if ``hermitian`` names them.

    Each operand is a matrix (a scalar is 1 x 1); with ``ndim`` = 3, a stack
    of matrices (a vector is a stack of 1 x 1 matrices); with ``ndim`` None,
    a nonempty (..., n, n) stack of any depth. No operand, an empty one, a
    ragged nested list or a wrong shape raises ``error`` with ``what`` and the
    shapes given ("0 x 0" for an empty matrix); a non-finite entry raises
    ``ValueError``, and a skew part ``NotHermitianError`` with the name in
    ``hermitian``. An operand that is already a complex array is not copied.
    A callee that is handed operands passed through this rule relies on it
    rather than passing them again."""
    try:
        mats = [np.asarray(m, dtype=complex) for m in operands]
    except ValueError as exc:
        raise error(f"{what}, got arrays of different shapes") from exc
    lead = 0 if ndim is None else ndim - 2
    square = None if n is None else (n, n)
    for i, m in enumerate(mats):
        if m.ndim == lead and m.size:
            mats[i] = m = m.reshape(m.shape + (1, 1))
        square = square or m.shape[-1:] * 2
        if m.shape[-2:] != square or not m.size or ndim and m.ndim != ndim:
            shapes = ", ".join(" x ".join(map(str, m.shape)) if m.ndim > 1 else f"shape {m.shape}" for m in mats)
            raise error(f"{what}, got {shapes}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
    if not mats:
        raise error(f"{what}, got none")
    if hermitian:
        _require_hermitian(mats, hermitian)
    return mats


def _require_shapes(what: str, need: str, fits: bool, *operands) -> None:
    """The operand rule of a re-check, whose operands are tied by sizes that
    :func:`_operands` does not know: unless ``fits``, ``ShapeMismatchError``
    naming the shapes of ``operands``, rather than a row broadcasting
    operands of another size or numpy failing on them."""
    if not fits:
        shapes = " and ".join(" x ".join(map(str, np.shape(m))) or "a scalar" for m in operands)
        raise ShapeMismatchError(f"{what} needs {need}, got {shapes}")


def _require_hermitian(mats: list[np.ndarray], name: str) -> None:
    """Raise ``NotHermitianError`` with ``name`` unless each of the operands
    ``mats``, already passed through :func:`_operands`, is Hermitian by
    :func:`is_hermitian`."""
    if not all(map(is_hermitian, mats)):
        skew = max(float(opnorms(m - dagger(m)).max()) for m in mats)
        raise NotHermitianError(f"{name} is not Hermitian: ||A - A*|| = {skew:.3e}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; on an (m, n, n) stack, of each slice."""
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the Hermitian matrices (slicewise on a stack)."""
    return (a + dagger(a)) / 2.0


def opnorm(a: np.ndarray) -> float:
    """Spectral (operator 2-) norm; 0.0 without an SVD when no entry is
    nonzero (the value the SVD gives), which includes the empty matrix."""
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def opnorms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each slice of an (..., n, n) stack, by one batched
    SVD; the modulus of each entry at n = 1, and zeros, without one, when no
    entry of the stack is nonzero."""
    if stack.shape[-1] == 1:
        return np.abs(stack[..., 0, 0])
    if not stack.any():
        return np.zeros(stack.shape[:-2])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def is_hermitian(a: np.ndarray) -> bool:
    """||A - A*|| <= ALG_TOL * max(1, ||A||), for a matrix or for every slice
    of an (..., n, n) stack. Skew parts whose Frobenius norm, over the whole
    stack, is at most ALG_TOL pass without an SVD, since the Frobenius norm
    bounds the spectral norm of each; the norms of A are computed only when
    some skew part exceeds ALG_TOL, since otherwise the verdict cannot depend
    on them. A matrix that is not square is not Hermitian."""
    if a.shape[-2] != a.shape[-1]:
        return False
    skew = a - dagger(a)
    if _frobenius(skew) <= ALG_TOL:
        return True
    skew = opnorms(skew)
    return bool((skew <= ALG_TOL).all() or (skew <= ALG_TOL * np.maximum(1.0, opnorms(a))).all())


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    """``a``, a matrix or an (..., n, n) stack, as :func:`_operands` returns
    it; raise unless each slice is Hermitian by :func:`is_hermitian`."""
    return _operands(f"{what} must be square", a, ndim=None, hermitian=what)[0]


def psd_sqrt(h) -> np.ndarray:
    """Positive square root of a positive semidefinite Hermitian matrix, or
    of each slice of an (..., n, n) stack by one batched ``eigh``.

    Eigenvalues in ``[-PSD_CLAMP, 0)`` are clamped to zero; an eigenvalue
    below ``-PSD_CLAMP`` raises :class:`NotPSDError`.
    """
    h = require_hermitian(h, "psd_sqrt input")
    return _spectral_sqrt(*np.linalg.eigh(hermitize(h)))


def _spectral_sqrt(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`psd_sqrt` of the Hermitian matrix, or stack, whose ``eigh`` is
    (w, u), with the same clamp rule: callers that have factored the matrix
    already take its root without a second ``eigh``."""
    if w.min(initial=0.0) < -PSD_CLAMP:
        raise NotPSDError(
            f"matrix has eigenvalue {w.min():.3e} below -PSD_CLAMP={-PSD_CLAMP:.1e}"
        )
    return _spectral(u, np.sqrt(np.clip(w, 0.0, None)))


def _spectral(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The Hermitian matrix, or stack, U diag(values) U* with the
    eigenvectors ``u`` of an ``eigh`` and a function of its eigenvalues,
    hermitized."""
    return hermitize((u * values[..., None, :]) @ dagger(u))


def roots_of_unity(k: int) -> np.ndarray:
    """omega^j = exp(2 pi i j/k), j = 0 .. k-1, each from its own fraction j/k (no power of a rounded omega)."""
    return np.exp(2j * np.pi * (np.arange(k) / k))


def fourier_values(c: np.ndarray) -> np.ndarray:
    """sum_m c_m omega^(j m) for j = 0 .. k-1, along axis 0: one unscaled inverse FFT, no k x k table."""
    return np.fft.ifft(c, axis=0, norm="forward")


def fourier_coefficients(x: np.ndarray) -> np.ndarray:
    """(1/k) sum_j x_j omega^(-j m) for m = 0 .. k-1, along axis 0: the inverse of :func:`fourier_values`."""
    return np.fft.fft(x, axis=0, norm="forward")


def hermitian_basis(n: int) -> np.ndarray:
    """An (n^2, n, n) stack that is an orthonormal basis of the n x n Hermitian
    matrices (real Frobenius inner product): the diagonal units, then
    (E_ab + E_ba)/sqrt 2 and i(E_ab - E_ba)/sqrt 2 for a < b."""
    rows, cols = np.triu_indices(n, 1)
    sym = n + np.arange(len(rows))
    skew = sym + len(rows)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[sym, rows, cols] = basis[sym, cols, rows] = math.sqrt(0.5)
    basis[skew, rows, cols] = 1j * math.sqrt(0.5)
    basis[skew, cols, rows] = -1j * math.sqrt(0.5)
    return basis


@dataclass(frozen=True)
class FloorResult:
    """What ``floor.lmi_floor`` found, or ``dilation``'s exact k = 3 floor.

    ``y`` is the best point, ``lift`` the Hermitian stack base + sum_i y_i
    directions[i] it gives, formed once, ``spectrum`` its one ``eigh``, and
    ``t_lo`` its floor, the least eigenvalue there. ``t_hi`` = <base, x>
    bounds every floor from above through the primal point ``x``: PSD blocks
    of total trace 1, orthogonal to every direction. While no such point is
    known, ``t_hi`` is inf and ``x`` is None. ``steps`` counts Newton steps.

    A solve that stops because t_lo reaches the band's high end stops before
    it projects that step's primal iterate: ``t_hi`` and ``x`` are then those
    of the earlier steps, which no caller reads.
    """

    y: np.ndarray
    lift: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray]
    t_hi: float
    x: np.ndarray | None
    steps: int

    t_lo = property(lambda self: float(self.spectrum[0].min()))


def _floor(stack: np.ndarray) -> float:
    """Smallest eigenvalue over the blocks of a Hermitian stack."""
    return float(np.linalg.eigvalsh(hermitize(stack)).min())


@np.errstate(over="ignore", invalid="ignore")
def commutant_dimension(mats) -> tuple[int, list[np.ndarray]]:
    """Dimension and orthonormal basis of the joint commutant of a set.

    The commutant ``{X : XA = AX for all A}`` is the null space of the
    stacked linear maps ``X -> XA - AX``; singular values at or below
    ``SPEC_TOL * n`` are treated as zero. The basis is orthonormal in the
    Frobenius inner product. Dimension 1 certifies that the set is
    irreducible.

    The null space is solved blockwise. For a normal A, A* is a polynomial
    in A, so the Hermitian element H = sum c_i (A_i + A_i*) + d_i i(A_i - A_i*)
    over the normal inputs (fixed generic weights) lies in the algebra they
    generate, and every X in the commutant commutes with H: X is block
    diagonal over H's eigenspaces. Only those sum d_b^2 unknowns enter the
    solve (n of them when H's spectrum is simple, as for an irreducible
    pair): one Gram eigensolve and an unsquared Rayleigh-Ritz check
    (``_block_null_space``), with no QR and no SVD. Eigenvalues closer than
    the merge gap share a block: clustering may merge eigenspaces but never
    splits one that a perturbation within the cutoff could have split. With no normal input H is 0 and the single
    block is the full problem.

    The count is that of the full n^2-unknown solve. Restricting the map to
    the blocks never lowers its k-th smallest singular value s_k, nor raises
    an s_k <= cutoff above (1 + R / g) s_k / 0.99, for g the least gap
    between clusters and R = 2 ||A|| L (||A||^2 = sum ||A_i||_2^2, L as in
    the merge gap). An X with sum ||[X, A_i]||^2 = s^2 has ||[X, H]|| <= L s,
    so its part off the blocks has norm at most L s / g <= 0.01 ||X|| (as
    g > 100 L cutoff), and the map moves that part by at most 2 ||A|| times
    its norm. So a block solve whose singular values avoid
    (cutoff, (1 + R / g) cutoff / 0.99] counts as the full one. Otherwise the
    clusters closer than the gap that would settle it are merged and the
    solve repeated, at worst up to the single block.

    Each basis element is scaled by the unit phase that makes its trace real
    and non-negative, unless the trace is at rounding level (then the element
    is left as the solve gave it). An irreducible set therefore returns one
    element, +1/sqrt(n) times the identity to rounding.

    The identity always commutes, so a solve that keeps no element failed and
    raises ``RelationCheckFailedError``, as does one whose Gram matrix
    overflows ("inputs too large"); numpy's overflow warnings are silenced.
    """
    mats = _operands("the commutant needs square matrices of equal size", *mats)
    stack = np.array(mats)
    n = stack.shape[1]
    cutoff = SPEC_TOL * n
    eigvecs, w, lipschitz = _hermitian_spectrum(stack)
    # ||A_i||_2^2 <= ||A_i||_1 ||A_i||_inf (largest column and row sums).
    size = np.abs(stack)
    norms = size.sum(axis=1).max(axis=1) * size.sum(axis=2).max(axis=1)
    del size
    reach = 2.0 * math.sqrt(float(np.sum(norms))) * lipschitz
    merge = 100.0 * lipschitz * cutoff
    rotated = dagger(eigvecs) @ stack @ eigvecs
    # The solve needs only the rotated copy of the stack.
    del stack
    on_diagonal = rotated.reshape(len(mats), n * n)[:, :: n + 1]
    diagonal = on_diagonal.copy()
    while True:
        ends = np.append(np.flatnonzero(np.diff(w) > merge) + 1, n)
        sizes = np.diff(ends, prepend=0)
        # Each input's scalar part on each block commutes with every block-
        # diagonal X; left in, a normal input's eigenvalues would cancel on
        # the Gram matrix's diagonal, with rounding far above its delta.
        means = np.add.reduceat(diagonal, ends - sizes, axis=1) / sizes
        on_diagonal[:] = diagonal - np.repeat(means, sizes, axis=1)
        coords, above = _block_null_space(rotated, sizes, cutoff)
        gap = float(np.diff(w)[ends[:-1] - 1].min(initial=np.inf))
        if len(sizes) == 1 or above > (1.0 + reach / gap) * cutoff / 0.99:
            break
        # The least gap at which ``above`` would settle the count.
        margin = 0.99 * above / cutoff - 1.0
        merge = max(gap, reach / margin) if margin > 0 else np.inf
    if not len(coords):
        raise RelationCheckFailedError("commutant solve failed: it kept no element, not even the identity")
    # tr X = tr coords, since eigvecs is unitary. Turn each trace real and
    # non-negative unless it is at rounding level (|tr X| <= sqrt(n) here).
    traces = np.trace(coords, axis1=1, axis2=2)
    turn = np.abs(traces) > _TRACE_ROUNDING * n
    coords[turn] *= (traces[turn].conj() / np.abs(traces[turn]))[:, None, None]
    basis = list(eigvecs @ coords @ dagger(eigvecs))
    require(commutant_residuals(mats, basis), RelationCheckFailedError, "commutant basis")
    return len(basis), basis


# A basis element's trace at or below this times n is rounding: its phase is
# left as the solve gave it.
_TRACE_ROUNDING = 10 * np.finfo(float).eps


# An input enters H only when its normality defect ||AA* - A*A||_F is at
# rounding level: at most this times n ||B||_F^2, with B = A - (tr A / n) 1 its
# traceless part (the defect does not change under A -> A + z 1, so neither
# may the bound). Computed unitaries and symmetries show at most about
# eps / 2 times n ||B||_F^2. A merely near-normal input is left out, which
# costs speed but cannot drop a commutant element.
_NORMALITY_TOL = 10 * np.finfo(float).eps


def _hermitian_spectrum(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvectors and ascending eigenvalues of H, and L = 2 sum(c_i + d_i).

    The weights (c_i, d_i) of H are fixed and generic (seeded uniform draws
    in [0.5, 1)), so that H's eigenvalues do not coincide by an accident of
    the weights. Consecutive eigenvalues closer than the merge gap
    100 * L * cutoff share a cluster. L, summed over the normal inputs, is the
    Lipschitz constant of the inputs -> H map: moving each input by at most
    the cutoff moves each eigenvalue of H by at most L * cutoff, so an exactly
    repeated eigenvalue, perturbed within the tolerance, stays inside one
    cluster. For normal A_i, ||[X, A_i*]||_F = ||[X, A_i]||_F, so also
    ||[X, H]||_F <= L max_i ||[X, A_i]||_F.
    """
    n = stack.shape[1]
    eye = np.eye(n)
    # One input at a time, so that the temporaries are a few n x n matrices:
    # the defects and the norms of the traceless parts.
    defect, traceless = np.zeros(len(stack)), np.zeros(len(stack))
    for i, a in enumerate(stack):
        adj = a.conj().T
        defect[i] = np.linalg.norm(a @ adj - adj @ a, axis=(0, 1))
        traceless[i] = np.linalg.norm(a - np.trace(a) * eye / n, axis=(0, 1))
    normal = defect <= _NORMALITY_TOL * n * traceless**2
    c, d = _h_weights(len(stack))[normal].T
    # c (A + A*) + d i(A - A*) = G + G* with G = (c + i d) A: exactly Hermitian.
    g = np.tensordot(c + 1j * d, stack[normal], 1)
    w, eigvecs = np.linalg.eigh(g + dagger(g))
    return eigvecs, w, 2.0 * float(np.sum(c + d))


@constant(maxsize=32)
def _h_weights(count: int) -> np.ndarray:
    """The weights (c_i, d_i) of H for ``count`` inputs, drawn once: a
    read-only (count, 2) array of seeded uniform draws in [0.5, 1)."""
    weights = np.random.default_rng(0).uniform(0.5, 1.0, (count, 2))
    weights.flags.writeable = False
    return weights


def _block_null_space(rotated: np.ndarray, sizes: np.ndarray, cutoff: float) -> tuple[np.ndarray, float]:
    """Null space of K: X -> ([X, A_i])_i on block-diagonal X, as
    Frobenius-orthonormal n x n matrices, and K's least singular value above
    the cutoff (inf if there is none). ``rotated`` holds the inputs in H's
    eigenbasis, less their scalar part on each block; ``sizes`` the blocks.

    Step 1 takes one ``eigh`` of the Gram matrix M = K*K over the P
    unknowns X[a, b], a and b in one block (for 1 x 1 blocks, the real
    Laplacian of the weights sum_i |A_i[c, e]|^2 + |A_i[e, c]|^2). M squares
    the singular values, and its computed eigenvalues are only within
    delta = P eps ||M||_F of the true ones. So step 2 applies K itself to
    V_r, M's eigenvectors with eigenvalue at most the Ritz threshold
    t = max(cutoff^2 + 2 delta, (100 delta / cutoff)^2): one ``eigh`` of the
    r x r Gram matrix of K V_r, which rounds relative to ||K V_r||^2, gives
    the null vectors (Ritz values at or below the cutoff) and the least Ritz
    value above it. Every unit X orthogonal to V_r has
    ||K X||^2 >= lambda_(r+1) - delta > cutoff^2. A true null vector's part
    outside V_r has ||K x|| <= delta / sqrt(t) <= cutoff / 100. t scales
    with the inputs, so r stays near the commutant's dimension.
    """
    n = rotated.shape[1]
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    rows, cols = np.nonzero(block_of[:, None] == block_of)
    simple = len(rows) == n
    if simple:
        # (K x)_i has entries (x_c - x_e) A_i[c, e].
        weight = sum(a.real**2 + a.imag**2 for a in rotated)
        gram = -(weight + weight.T)
        gram[np.diag_indices(n)] -= gram.sum(axis=1)
    else:
        gram = _block_gram(rotated, rows, cols)
    if not np.isfinite(gram).all():
        raise RelationCheckFailedError("commutant solve failed: inputs too large, their Gram matrix overflows")
    delta = len(rows) * np.finfo(float).eps * np.linalg.norm(gram)
    lam, vecs = np.linalg.eigh(gram)
    threshold = max(cutoff * cutoff + 2.0 * delta, (100.0 * delta / cutoff) ** 2)
    r = int(np.count_nonzero(lam <= threshold))
    trial = np.zeros((r, n, n), dtype=complex)
    trial[:, rows, cols] = vecs[:, :r].T
    if simple:
        diff = (vecs[:, None, :r] - vecs[:, :r]).reshape(n * n, r)
        ritz = diff.T @ (weight.reshape(n * n, 1) * diff)
    else:
        ritz = _commutator_gram(rotated, sizes, trial)
    theta, coeffs = np.linalg.eigh(ritz)
    theta = np.sqrt(np.maximum(theta, 0.0))
    null = theta <= cutoff
    outside = math.sqrt(max(lam[r] - delta, 0.0)) if r < len(lam) else np.inf
    return np.tensordot(coeffs[:, null].T, trial, 1), float(min(theta[~null].min(initial=np.inf), outside))


def _block_gram(rotated: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """M over the unknowns X[rows, cols], one input at a time:
    M[(a'b'), (ab)] = sum_i d_aa' (A_i A_i*)_bb' + d_bb' (A_i* A_i)_a'a
    - (A_i)_a'a conj((A_i)_b'b) - conj((A_i)_aa') (A_i)_bb'."""
    n, width = rotated.shape[1], len(rows)
    # sum_i A_i A_i* and A_i* A_i, on the blocks only.
    left, right = np.zeros((2, n, n), dtype=complex)
    gram = np.zeros((width, width), dtype=complex)
    for a in rotated:
        left[rows, cols] += np.einsum("uk,uk->u", a[rows], a[cols].conj())
        right[rows, cols] += np.einsum("ku,ku->u", a[:, rows].conj(), a[:, cols])
        cross = a[rows[:, None], rows] * a[cols[:, None], cols].conj()
        gram -= cross + cross.conj().T
    gram += (rows[:, None] == rows) * left[cols, cols[:, None]]
    gram += (cols[:, None] == cols) * right[rows[:, None], rows]
    return gram.real if not gram.imag.any() else gram


def _commutator_gram(rotated: np.ndarray, sizes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gram matrix of the commutators X_j A_i - A_i X_j, stacked over i, for
    the block-diagonal X_j of ``x``, multiplied block by block."""
    starts = np.cumsum(sizes) - sizes
    groups = [starts[sizes == s, None] + np.arange(s) for s in np.unique(sizes)]
    blocks = [x[:, idx[:, :, None], idx[:, None, :]] for idx in groups]
    ritz = np.zeros((len(x), len(x)), dtype=complex)
    for a in rotated:
        image = np.empty_like(x)
        for idx, y in zip(groups, blocks):
            image[:, idx] = y @ a[idx]
        for idx, y in zip(groups, blocks):
            image[:, :, idx] -= (a[:, idx].transpose(1, 0, 2) @ y).transpose(0, 2, 1, 3)
        image = image.reshape(len(x), -1)
        ritz += image.conj() @ image.T
    return ritz


def commutant_residuals(mats, basis) -> list[Residual]:
    """The basis commutes with every matrix (largest Frobenius norm of XA - AX,
    within ten times the null-space cutoff) and is Frobenius-orthonormal
    (||B*B - 1||_F, which bounds the operator norm, within SPEC_TOL)."""
    if not (len(mats) and len(basis)):
        raise ShapeMismatchError("commutant_residuals needs n x n matrices and basis elements, got none")
    n = mats[0].shape[0]
    fits = all(np.shape(m) == (n, n) for m in (*mats, *basis))
    _require_shapes("commutant_residuals", "n x n matrices and basis elements", fits, *mats, *basis)
    stack = np.array(basis).reshape(len(basis), n, n)
    commutes = max(float(np.linalg.norm(stack @ a - a @ stack, axis=(1, 2)).max()) for a in mats)
    flat = stack.reshape(len(basis), n * n)
    gram = flat.conj() @ flat.T - np.eye(len(basis))
    return [
        ("basis_commutes", commutes, SPEC_TOL * n * 10),
        ("basis_orthonormal", _frobenius(gram), SPEC_TOL),
    ]


def irreducibility_residual(mats) -> Residual:
    """Commutant dimension minus one: zero exactly when the set is irreducible."""
    dim, _ = commutant_dimension(mats)
    return ("commutant_dimension_1", float(dim - 1), 0.0)


def support_values(mats, directions) -> np.ndarray:
    """Support function of the joint numerical range in many real directions.

    Returns ``lambda_max(sum_j d_j a_j)`` for each row ``d`` of the (m, len(mats))
    array ``directions``, for a tuple of Hermitian matrices of equal size.
    Each entry is validated once and one batched ``eigvalsh`` takes every
    lambda_max. The combinations are summed term by term in tuple order, as a
    per-direction loop sums them, so near-ties between directions round alike.
    """
    mats = _operands(
        "support_value needs square matrices of equal size", *mats, hermitian="support_value tuple entry"
    )
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != len(mats):
        raise ShapeMismatchError(
            f"directions have shape {directions.shape}, expected (m, {len(mats)})"
        )
    stack = np.stack(mats)
    combos = (directions[:, :, None, None] * stack).sum(axis=1)
    return np.linalg.eigvalsh(hermitize(combos)).max(axis=-1)


def support_value(mats, direction) -> float:
    """Support function of the joint numerical range in a real direction.

    Returns ``lambda_max(sum_j direction_j a_j)`` for a tuple of Hermitian
    matrices of equal size: the one-direction case of :func:`support_values`.
    """
    return float(support_values(mats, np.asarray(direction, dtype=float)[None])[0])


def kron(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(a), as_matrix(b))


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal sum ``b_1 (+) b_2 (+) ...`` of any number of blocks."""
    blocks = [as_matrix(b) for b in blocks]
    rows, cols = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def compress(a, z) -> np.ndarray:
    """Corner compression ``Z* A Z`` through an isometry ``Z``."""
    (a,) = _operands("compress needs a square a", a)
    z = as_matrix(z)
    if z.shape[0] != a.shape[0]:
        raise ShapeMismatchError(
            f"cannot compress {a.shape} through isometry of shape {z.shape}"
        )
    deviation = opnorm(dagger(z) @ z - np.eye(z.shape[1]))
    if deviation > ALG_TOL:
        raise NotIsometryError(f"Z*Z deviates from identity by {deviation:.3e}")
    return dagger(z) @ a @ z


def unitary_residual(u) -> Residual:
    """||U* U - 1||_F, taken as || |d|^2 - 1 || over the diagonal d of an exactly diagonal U."""
    return _unitary_residual(u, _exact_diagonal(u))


def _unitary_residual(u: np.ndarray, d: np.ndarray | None) -> Residual:
    """:func:`unitary_residual` of ``u``, given its :func:`_exact_diagonal` ``d``."""
    gap = dagger(u) @ u - np.eye(u.shape[1]) if d is None else (d.conj() * d).real - 1.0
    return ("unitary", _frobenius(gap), SPEC_TOL)


def order_residuals(u, k: int) -> list[Residual]:
    """``u`` is unitary and ``u**k`` is the identity (bound SPEC_TOL * k); for
    an exactly diagonal U, found by one scan, both are taken on its diagonal d."""
    _require_order(k)
    shape = np.shape(u)
    _require_shapes("order_residuals", "a square u", len(shape) == 2 and shape[0] == shape[1], u)
    d = _exact_diagonal(u)
    gap = np.linalg.matrix_power(u, k) - np.eye(u.shape[0]) if d is None else d**k - 1.0
    return [_unitary_residual(u, d), (f"order_{k}", _frobenius(gap), SPEC_TOL * k)]


def _require_order(k: int) -> None:
    """``NcprismError`` naming k unless k >= 1 (U^0 = 1 passes any U's order row)."""
    if k < 1:
        raise NcprismError(f"an order k must be at least 1, got k={k}")


def _exact_diagonal(u: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square ``u`` whose off-diagonal entries are all
    exactly 0, else None: the residuals of such a matrix equal their dense
    Frobenius norms and are taken on the diagonal alone."""
    n = u.shape[0]
    if u.shape[1] != n:
        return None
    # After the first entry, the flat matrix runs in rows of n + 1 entries
    # whose last is the next diagonal entry: the rest are the off-diagonal ones.
    off_diagonal = u.ravel()[1:].reshape(n - 1, n + 1)[:, :-1]
    return None if off_diagonal.any() else np.diagonal(u)


def symmetry_residuals(s) -> list[Residual]:
    """``s`` is a symmetry: ||S - S*||_F and ||S^2 - 1||_F, taken densely."""
    (s,) = _operands("a symmetry must be square", s)
    gap = s @ s
    gap.ravel()[:: len(s) + 1] -= 1.0
    return [("selfadjoint", _frobenius(s - dagger(s)), SPEC_TOL), ("squares_to_identity", _frobenius(gap), SPEC_TOL)]


def _halmos_residuals(s: np.ndarray) -> list[Residual]:
    """:func:`symmetry_residuals` of S = [[P, Q], [Q, -P]], m x m blocks,
    whose caller wrote its lower blocks as exactly Q and -P.

    The lower block rows of S - S* and S^2 - 1 then repeat the upper ones
    up to order and sign, so both norms are taken from the upper rows:
    ||S - S*||^2 = 2 (||P - P*||^2 + ||Q - Q*||^2) and
    ||S^2 - 1||^2 = 2 (||P^2 + Q^2 - 1||^2 + ||PQ - QP||^2), the upper row
    of S^2 being [P, Q] S = [P^2 + Q^2, PQ - QP]. When P and Q are exactly
    Hermitian (the first residual is exactly 0), TT* and T*T of T = P + iQ
    are P^2 + Q^2 -+ i(PQ - QP) and have the same spectrum, so one product
    gives ||S^2 - 1||^2 = ||TT* - 1||^2 + ||T*T - 1||^2 = 2 ||T*T - 1||^2."""
    m, scale = len(s) // 2, math.sqrt(2.0)
    selfadjoint = scale * _frobenius(s[:m] - dagger(s[:, :m]))
    if selfadjoint == 0.0:
        t = s[:m, :m] + s[:m, m:] * 1j
        gap = dagger(t) @ t
    else:
        gap = s[:m] @ s
    gap.ravel()[:: gap.shape[1] + 1] -= 1.0
    return [("selfadjoint", selfadjoint, SPEC_TOL), ("squares_to_identity", scale * _frobenius(gap), SPEC_TOL)]


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm (of a stack, as one vector): an upper bound on ``opnorm``
    that needs no SVD, used for the unitary, order and symmetry residuals,
    for every residual of the dilations, for the commutant basis's
    orthonormality and for the Hermitian test."""
    return math.sqrt(np.vdot(a, a).real)
