"""Dilation constructions: Halmos blocks, barycentric POVMs, Naimark
dilations, joint order-(k, 2) dilations, and cube dilations.

The joint construction pairs Naimark's and Halmos' dilations: split the
operator with numerical range in the polygon into a positive decomposition
summing to the identity, dilate it through the Naimark isometry Z to a
normal operator with spectrum at the polygon's vertices, and reflect the
same space in the range of an isometry x = Y c_1 - Z c_0, V = 1 - 2 x x*,
whose Z-corner is the second operator. Compressing through Z recovers the
original pair exactly.

Every positive decomposition, at every k, is made by :func:`order_k_povm`
and starts from the Fourier-minimal effects (1 + omega^-j a + omega^j a*)/k,
whose Fourier modes other than 0, 1 and k - 1 vanish. At k = 3 these are the
barycentric coordinates; for k >= 4, unless they are positive, ``lmi_floor``
searches the free modes 2 .. k-2 for positive effects, or proves none are.

Each constructor checks the identities its own arithmetic can break. A block
written from the data it would be compared with (a Halmos corner, the labels
on N's diagonal) is not checked; the public ``*_residuals`` functions check
it too, for matrices a caller did not build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleError,
    InvalidPovmError,
    NormExceedsOneError,
    NotIsometryError,
    NotSymmetryError,
    NumericalRangeOutsideTriangleError,
    OrderMismatchError,
    RelationCheckFailedError,
    ShapeMismatchError,
)
from .matkernel import (
    ALG_TOL,
    PSD_CLAMP,
    SPEC_TOL,
    FloorResult,
    Residual,
    _frobenius,
    _halmos_residuals,
    _operands,
    _require_hermitian,
    _require_shapes,
    _spectral,
    _spectral_sqrt,
    _unitary_residual,
    as_matrix,
    compress,
    constant,
    dagger,
    hermitian_basis,
    hermitize,
    prefixed,
    require,
    roots_of_unity,
    symmetry_residuals,
    unitary_residual,
)
from .reps import RepPair

__all__ = [
    "DilationResult",
    "Povm",
    "GroupWord",
    "halmos_symmetry",
    "halmos_unitary",
    "triangle_povm",
    "naimark_normal",
    "order_k_povm",
    "joint_prism_dilation",
    "cube_dilation",
    "evaluate_word",
    "evaluate_compressed_word",
    "halmos_symmetry_residuals",
    "halmos_unitary_residuals",
    "povm_residuals",
    "naimark_residuals",
    "joint_residuals",
    "cube_residuals",
]


@dataclass
class DilationResult:
    """An isometry into an enlarged space plus the operators living there."""

    isometry: np.ndarray
    operators: list[np.ndarray]
    labels: list[str]

    def __post_init__(self):
        self.isometry = as_matrix(self.isometry)
        self.operators = _operands(
            "operators must be square of the isometry's height", *self.operators, n=len(self.isometry)
        )
        if len(self.operators) != len(self.labels):
            raise ShapeMismatchError("labels must match operators one-to-one")

    def compressions(self) -> list[np.ndarray]:
        """Z* T Z for every enlarged-space operator T."""
        z = self.isometry
        return [dagger(z) @ op @ z for op in self.operators]


@dataclass
class Povm:
    """Positive effects summing to the identity, tagged with target spectrum points.

    The effects are one Hermitian (k, n, n) stack, factored once. A batched
    Cholesky factorisation h_j = L_j L_j* decides it when it succeeds and
    beta = sqrt(n) sum_j ||F_j* F_j - h_j||_F <= PSD_CLAMP, F_j = L_j*:
    ``factors`` holds the F_j, the Naimark blocks, and ``negativity``, the
    ``effects_positive`` row, is beta. Any other stack, and a lift that
    ``lmi_floor`` hands over with its ``eigh`` (:meth:`_built`), has no
    ``factors`` and is read through ``spectrum``, its ``eigh``, taken when
    first read (by the k = 3 facet slacks, the band rule's clamp,
    ``negativity`` or the Naimark roots)."""

    effects: np.ndarray
    outcome_labels: list[complex]
    factors: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        (self.effects,) = _operands(
            "effects must be a nonempty stack of square matrices of equal size",
            self.effects, error=InvalidPovmError, ndim=3, hermitian="POVM effects",
        )
        if len(self.effects) != len(self.outcome_labels):
            raise InvalidPovmError("each effect needs exactly one outcome label")
        try:
            factors = dagger(np.linalg.cholesky(self.effects))
        except np.linalg.LinAlgError:
            return
        gaps = np.linalg.norm(dagger(factors) @ factors - self.effects, axis=(1, 2))
        beta = math.sqrt(self.effects.shape[1]) * float(gaps.sum())
        if beta <= PSD_CLAMP:
            self.factors, self.negativity = factors, beta

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(hermitize(self.effects))

    @functools.cached_property
    def negativity(self) -> float:
        return float(np.clip(-self.spectrum[0].min(axis=-1), 0.0, None).sum())

    @classmethod
    def _built(cls, effects: np.ndarray, labels: list[complex], spectrum) -> Povm:
        """The POVM of an exactly Hermitian complex stack and its ``eigh``, taken as given."""
        povm = object.__new__(cls)
        povm.effects, povm.outcome_labels, povm.factors, povm.spectrum = effects, labels, None, spectrum
        return povm


def povm_residuals(effects, labels, a) -> list[Residual]:
    """Effects decompose ``a``: sum(label_j h_j) = a, sum(h_j) = 1, and the
    negative parts of the effects' least eigenvalues, summed, stay within
    PSD_CLAMP.

    ``effects`` is a list of n x n effects or their (k, n, n) stack, one
    label each, and ``a`` is n x n (else ``ShapeMismatchError``)."""
    effects, a = np.asarray(effects), np.asarray(a)
    fits = effects.ndim == 3 and a.shape == effects.shape[1:] == effects.shape[1:2] * 2
    fits = fits and len(labels) == len(effects)
    _require_shapes("povm_residuals", "k n x n effects, k labels and an n x n a", fits, effects, labels, a)
    lowest = np.linalg.eigvalsh(hermitize(effects)).min(axis=-1)
    return _povm_residuals(effects, labels, a, float(np.clip(-lowest, 0.0, None).sum()))


def _povm_residuals(effects, labels, a, negativity: float) -> list[Residual]:
    """:func:`povm_residuals` of an effect stack whose ``effects_positive``
    row is ``negativity``, as its :class:`Povm` measured it: from the least
    eigenvalues as above, or as beta = sqrt(n) sum_j ||E_j||_F of the
    Cholesky gaps E_j = F_j* F_j - h_j. Weyl's inequality bounds the summed
    negative eigenvalues of h_j = F_j* F_j - E_j by the trace norm ||E_j||_*
    <= sqrt(n) ||E_j||_F, so beta bounds the first form."""
    moment_gap = np.tensordot(np.asarray(labels), effects, axes=1) - a
    return [
        ("first_moment", _frobenius(moment_gap), SPEC_TOL),
        ("sum_to_identity", _frobenius(effects.sum(axis=0) - np.eye(len(a))), SPEC_TOL),
        ("effects_positive", negativity, PSD_CLAMP),
    ]


@dataclass(frozen=True)
class GroupWord:
    """A word in the letters {w, w*, v} for generators of orders (k, 2)."""

    letters: tuple[str, ...]
    k: int

    def __post_init__(self):
        for letter in self.letters:
            if letter not in ("w", "w*", "v"):
                raise ValueError(f"unknown letter {letter!r}; expected w, w* or v")

    @classmethod
    def from_string(cls, text: str, k: int) -> "GroupWord":
        """Parse a compact word such as 'wvw*' (spaces and commas allowed)."""
        letters = []
        i = 0
        cleaned = text.replace(",", "").replace(" ", "")
        while i < len(cleaned):
            if cleaned[i] == "w" and i + 1 < len(cleaned) and cleaned[i + 1] == "*":
                letters.append("w*")
                i += 2
            elif cleaned[i] in ("w", "v"):
                letters.append(cleaned[i])
                i += 1
            else:
                raise ValueError(f"cannot parse word {text!r} at position {i}")
        return cls(tuple(letters), k)


def _unit_ball(norm: float, name: str | None) -> float:
    """Halmos' hypothesis ||x|| <= 1, checked up to PSD_CLAMP for the input
    ``name``: the divisor max(1, ||x||) that rescales x into the closed unit
    ball, so the defect stays PSD at the boundary, or
    ``NormExceedsOneError``. With no name, x is only rescaled."""
    if name is not None and norm > 1.0 + PSD_CLAMP:
        raise NormExceedsOneError(f"||{name}|| = {norm:.12f} exceeds 1")
    return max(1.0, norm)


def _unit_spectrum(b: np.ndarray, name: str | None) -> tuple[np.ndarray, np.ndarray]:
    """One ``eigh`` (w, U) of a Hermitian b, w divided by the :func:`_unit_ball`
    divisor of ||b|| = max |w|: the spectrum of c = b / max(1, ||b||), so
    |w| <= 1 exactly, from which the Halmos defect sqrt(1 - c^2) and the
    joint reflector are taken."""
    w, u = np.linalg.eigh(hermitize(b))
    return w / _unit_ball(float(np.abs(w).max(initial=0.0)), name), u


def halmos_symmetry(b) -> np.ndarray:
    """Dilate a Hermitian contraction to a symmetry on the doubled space.

    Returns S = [[b, D], [D, -b]] with D = sqrt(1 - b^2), taken from one
    ``eigh`` of b that also checks ||b|| <= 1: S is Hermitian, S^2 is the
    identity within SPEC_TOL, and the top-left block is ``b`` itself.
    """
    (b,) = _operands("halmos_symmetry requires a square matrix", b, hermitian="halmos_symmetry input")
    return _halmos_symmetry(b, "")


def _halmos_symmetry(b: np.ndarray, prefix: str) -> np.ndarray:
    """:func:`halmos_symmetry` of a Hermitian operand ``b``, recording the
    ``_halmos_residuals`` of the S it writes with ``prefix`` before each name."""
    w, u = _unit_spectrum(b, "b")
    m = len(b)
    s = np.empty((2 * m, 2 * m), dtype=complex)
    s[:m, :m] = b
    s[:m, m:] = s[m:, :m] = _spectral(u, np.sqrt((1.0 - w) * (1.0 + w)))
    np.negative(b, out=s[m:, m:])
    require(prefixed(prefix, _halmos_residuals(s)), NotSymmetryError, "halmos_symmetry")
    return s


def halmos_symmetry_residuals(b, s) -> list[Residual]:
    """``s`` is a symmetry with top-left block ``b`` (see :func:`_corner`)."""
    corner = _corner("halmos_symmetry_residuals", b, s)
    return [*symmetry_residuals(s), corner]


def _corner(what: str, x, big) -> Residual:
    """The row ``corner``: ``big``'s top-left block is ``x``. Unless ``x`` is
    n x n and ``big`` 2n x 2n, ``ShapeMismatchError`` names both shapes,
    rather than the row comparing a block of another size."""
    x, big = as_matrix(x), as_matrix(big)
    n = len(x)
    fits = x.shape == (n, n) and big.shape == (2 * n, 2 * n)
    _require_shapes(what, "an n x n corner of a 2n x 2n operator", fits, x, big)
    return ("corner", _frobenius(big[:n, :n] - x), ALG_TOL)


def halmos_unitary(x) -> np.ndarray:
    """Dilate a contraction to a unitary on the doubled space.

    Returns U = [[x, sqrt(1 - x x*)], [sqrt(1 - x* x), -x*]], which is
    unitary within SPEC_TOL with top-left block ``x`` itself; both defects
    come from one ``eigh`` (see :func:`_unitary_defects`).
    """
    (x,) = _operands("halmos_unitary requires a square matrix", x)
    d_left, d_right = _unitary_defects(x)
    u = np.block([[x, d_left], [d_right, -dagger(x)]])
    require([unitary_residual(u)], NotIsometryError, "halmos_unitary")
    return u


def _unitary_defects(x: np.ndarray) -> np.ndarray:
    """The defects sqrt(1 - c c*) and sqrt(1 - c* c) of c = x / max(1, ||x||),
    stacked, once :func:`_unit_ball` has checked ||x|| <= 1.

    One ``eigh`` of x* x = R diag(s) R*, the right half of the SVD of x,
    gives ||x||^2 = max s and both: with r = sqrt(1 - s) for c,
    sqrt(1 - c* c) = R diag(r) R* and sqrt(1 - c c*) =
    1 - (cR) diag(1 / (1 + r)) (cR)*, since 1 - sqrt(1 - t) =
    t / (1 + sqrt(1 - t)) and c f(c* c) c* = f(c c*) c c*."""
    s, right = np.linalg.eigh(hermitize(dagger(x) @ x))
    scale = _unit_ball(math.sqrt(max(0.0, float(s.max(initial=0.0)))), "x")
    root = np.sqrt(1.0 - np.clip(s / scale**2, 0.0, 1.0))
    cr = (x / scale) @ right
    d_left = np.eye(len(x)) - (cr / (1.0 + root)) @ dagger(cr)
    return hermitize(np.stack([d_left, _spectral(right, root)]))


def halmos_unitary_residuals(x, u) -> list[Residual]:
    """``u`` is unitary with top-left block ``x`` (see :func:`_corner`)."""
    corner = _corner("halmos_unitary_residuals", x, u)
    return [unitary_residual(u), corner]


def triangle_povm(a) -> Povm:
    """Barycentric decomposition of an operator over the root-of-unity
    triangle Conv{1, omega, omega^2}: :func:`order_k_povm` with k = 3."""
    return order_k_povm(a, 3)


def _settle(floor: FloorResult, band: float, labels: list[complex]) -> Povm:
    """The band rule of :func:`order_k_povm` for the effects ``floor.lift``
    over the k roots of unity ``labels``, from the bracket of ``floor``: the
    exact floor at k = 3 (one point, no steps) or the ``lmi_floor`` solve at
    k >= 4. Its POVM keeps ``floor.spectrum``, or clamps it to >= 0."""
    if floor.t_lo > 0.0:
        return Povm._built(floor.lift, labels, floor.spectrum)
    k, t_lo, t_hi = len(floor.lift), floor.t_lo, floor.t_hi
    # A one-point bracket is the exact floor: it is printed to full precision.
    show = repr if t_lo == t_hi else "{:.3e}".format
    bracket = f"[{show(t_lo)}, {show(t_hi)}]"
    if t_lo < -band:
        if t_hi < -band:
            raise InfeasibleError(
                f"no positive decomposition over C_{k}: the smallest effect eigenvalue "
                f"is at most {t_hi:.3e}, bracket {bracket} (primal certificate)"
            )
        raise InfeasibleError(
            f"undecided after {floor.steps} Newton steps: the best smallest effect "
            f"eigenvalue lies in {bracket} (not a proof of infeasibility)"
        )
    # Exact renormalization: congruence by (sum h_j)^(-1/2) restores the
    # identity sum at machine precision while keeping every effect PSD.
    effects = _spectral(floor.spectrum[1], np.clip(floor.spectrum[0], 0.0, None))
    w, u = np.linalg.eigh(hermitize(effects.sum(axis=0)))
    if w.min() <= 0.5:
        raise InfeasibleError("effect sum is too singular to renormalize")
    t = (u * (w**-0.5)) @ dagger(u)
    effects = hermitize(t @ effects @ t)
    return Povm._built(effects, labels, np.linalg.eigh(effects))


def _fourier_base(a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack (1 + omega^-j a + omega^j a*)/k over the k roots of
    unity ``labels``: it sums to 1, its first moment is a, and its Fourier
    modes 2 .. k-2 vanish."""
    roots = labels[:, None, None]
    return hermitize((np.eye(a.shape[0]) + roots.conj() * a + roots * dagger(a)) / len(labels))


def naimark_normal(povm: Povm) -> DilationResult:
    """Dilate a POVM to a normal operator with spectrum at the outcome labels.

    The isometry stacks the POVM's Naimark blocks F_j, F_j* F_j = h_j (see
    :func:`_naimark`); the normal operator is the direct sum of label_j times
    the identity. Compression returns sum(label_j h_j); effects that do not
    sum to the identity fail the isometry residual.
    """
    z, labels = _naimark(povm, "naimark_normal")
    return DilationResult(isometry=z, operators=[np.diag(labels)], labels=["normal"])


def _naimark(povm: Povm, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The Naimark isometry Z, the Naimark blocks of :func:`_naimark_blocks`
    stacked, and the diagonal of N = (+)_j label_j 1, once Z*Z = 1 and
    Z*NZ = sum(label_j h_j) hold (else ``InvalidPovmError`` naming
    ``what``). N is applied through the labels it is written from."""
    k, n = povm.effects.shape[:2]
    z = _naimark_blocks(povm).reshape(k * n, n)
    labels = np.repeat(np.asarray(povm.outcome_labels, dtype=complex), n)
    require(_naimark_residuals(povm, z, labels[:, None] * z), InvalidPovmError, what)
    return z, labels


def _naimark_blocks(povm: Povm) -> np.ndarray:
    """Blocks F_j with F_j* F_j = h_j: the POVM's Cholesky ``factors``, else
    the roots h_j^(1/2) from its ``spectrum``. The dilations of the two differ
    by the unitaries (+)_j F_j h_j^(-1/2), which commute with N."""
    return _spectral_sqrt(*povm.spectrum) if povm.factors is None else povm.factors


def naimark_residuals(povm: Povm, result: DilationResult) -> list[Residual]:
    """Z is an isometry, Z* N Z = sum(label_j h_j), and N is the diagonal
    matrix of the labels (so normal with spectrum at the labels). ``povm``
    has k n x n effects and Z is kn x n (else ``ShapeMismatchError``)."""
    z, nd = result.isometry, result.operators[0]
    k, n = povm.effects.shape[:2]
    fits = z.shape == (k * n, n)
    _require_shapes("naimark_residuals", "k n x n effects and a kn x n isometry", fits, povm.effects, z)
    labels = np.repeat(povm.outcome_labels, z.shape[1])
    return [
        *_naimark_residuals(povm, z, nd @ z),
        ("labels_on_diagonal", float(np.abs(nd - np.diag(labels)).max()), ALG_TOL),
    ]


def _naimark_residuals(povm: Povm, z, nz) -> list[Residual]:
    """The isometry and compression rows of :func:`naimark_residuals`, from
    Z and the product N Z."""
    moment = np.tensordot(np.asarray(povm.outcome_labels), povm.effects, axes=1)
    return [
        ("isometry", _frobenius(dagger(z) @ z - np.eye(z.shape[1])), SPEC_TOL),
        ("compression", _frobenius(dagger(z) @ nz - moment), SPEC_TOL),
    ]


def order_k_povm(a, k: int) -> Povm:
    """Positive decomposition of ``a`` over the k-th roots of unity.

    The effects start from the Fourier-minimal base
    (1 + omega^-j a + omega^j a*)/k, whose ``Povm`` is returned, with no
    eigenvalues, no facet screen and no solve, when its Cholesky
    factorisation decides it (see :class:`Povm`). Otherwise their best
    smallest eigenvalue is bracketed in [t_lo, t_hi] and judged against the
    band (-band, 0), band = SPEC_TOL / 4k:

    - t_lo > 0: those effects, unclamped;
    - t_lo >= -band: the effects clamped to >= 0 and renormalised, which
      moves the moments by at most about 2k band;
    - t_hi < -band, from an exact floor or a re-checked primal point:
      ``InfeasibleError``, a proof that no positive decomposition exists;
    - otherwise ``InfeasibleError`` naming the undecided bracket.

    At k = 3 the base is the only decomposition, the barycentric
    coordinates, so t_lo = t_hi is its smallest eigenvalue. The base's
    ``eigh`` decides membership as well: the slack of the facet opposite the
    vertex omega^j, facet (j + 1) mod 3 of ``convexity.make_polygon(3)``, is
    3/2 lambda_min(h_j), and W(a) lies in the triangle when the smallest
    slack, the first in facet order, is >= -SPEC_TOL (else
    ``NumericalRangeOutsideTriangleError``).

    For k >= 4, once ``convexity.max_member`` has placed W(a) in Conv(C_k),
    the base may be moved by any Hermitian combination of the Fourier modes
    m = 2 .. k-2 (the (k-3) n^2 real unknowns that keep sum(h_j) = 1 and
    sum(omega^j h_j) = a), and ``floor.lmi_floor``, over the system kept
    for (k, n) (:func:`_mode_system`), gives the bracket and its lift's
    ``eigh``; the base itself takes no ``eigh``. Returned effects are factored
    once, by Cholesky or ``eigh``, for ``effects_positive`` and the Naimark
    blocks, and always pass ``povm_residuals``, checked here as
    ``order_k_povm(k=.., level=..)`` (else ``InvalidPovmError``).
    """
    (a,) = _operands("order_k_povm requires a square matrix", a)
    return _order_k_povm(a, k)


def _order_k_povm(a: np.ndarray, k: int) -> Povm:
    """:func:`order_k_povm` of an operand already passed through
    :func:`_operands`."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    labels = roots_of_unity(k)
    povm = Povm(_fourier_base(a, labels), labels.tolist())
    if povm.factors is None:
        band = SPEC_TOL / (4 * k)
        if k == 3:
            spectra = povm.spectrum[0]
            # Facet i is opposite the vertex omega^(i - 1): slacks in facet order.
            slacks = 1.5 * spectra.min(axis=-1)[[2, 0, 1]]
            margin = float(slacks.min())
            if not margin >= -SPEC_TOL:
                # Slacks equal up to the rounding of the effects (two facets
                # meeting at a vertex) name the first of them, as exact slacks would.
                tie = 16 * np.finfo(float).eps * max(1.0, float(np.abs(spectra).max()))
                facet = int(np.argmax(slacks <= margin + tie))
                raise NumericalRangeOutsideTriangleError(
                    f"numerical range leaves the triangle: facet {facet} violated by {-margin:.3e}"
                )
            # The decomposition is unique: its smallest eigenvalue is the exact floor.
            floor = FloorResult(np.zeros(0), povm.effects, povm.spectrum, float(spectra.min()), None, 0)
        else:
            # Imported here: only a base that is not positive, at k >= 4, screens
            # the facets and solves.
            from .convexity import make_polygon, max_member, real_imag_parts
            from .floor import lmi_floor

            re, im = real_imag_parts(a)
            verdict = max_member([re, im], make_polygon(k))
            if not verdict.member:
                raise InfeasibleError(
                    f"numerical range of a leaves Conv(C_{k}) "
                    f"(facet margin {verdict.margin:.3e}); no decomposition exists"
                )
            floor = lmi_floor(povm.effects, _mode_system(k, len(a)), (-band, 0.0))
        povm = _settle(floor, band, povm.outcome_labels)
    residuals = _povm_residuals(povm.effects, labels, a, povm.negativity)
    require(residuals, InvalidPovmError, f"order_k_povm(k={k}, level={len(a)})")
    return povm


@constant(maxsize=4)
def _mode_system(k: int, n: int):
    """The ``lmi_floor`` system of the level-n decompositions over the k-th
    roots of unity, built once per (k, n) and read-only: its directions are
    the Hermitian Fourier modes m = 2 .. k-2 tensored with
    ``hermitian_basis(n)``, as real vectors over j Re omega^(j m) up to k/2
    and Im omega^(j m) beyond (they pair with modes k - m).

    An entry keeps the (k-3) n^2 x k x n x n direction stack and its
    constraints, about four copies of the stack: 0.07 MB at (4, 4), 0.3 MB
    at (6, 4), 5 MB at (6, 8) and 80 MB at (6, 16), where one call peaks
    near 142 MB. Four entries hold k = 4 .. 7 at one level n <= 8 in 17 MB."""
    from .floor import FloorSystem

    roots, j = roots_of_unity(k), np.arange(k)
    modes = [roots[j * m % k].real if 2 * m <= k else roots[j * m % k].imag for m in range(2, k - 1)]
    return FloorSystem(np.einsum("mj,eab->mejab", modes, hermitian_basis(n)).reshape(-1, k, n, n))


def joint_prism_dilation(a, b, k: int) -> tuple[RepPair, np.ndarray]:
    """Common dilation of (a, b) to unitaries of orders k and 2.

    Builds the normal dilation (W, Z) of ``a`` from its positive
    decomposition, W = N = (+)_j omega^j 1 at the Naimark dimension kn, and
    on the same space the reflection V = 1 - 2 x x* of :func:`_dilate_povm`.
    The returned isometry G = Z satisfies G* W G = a and G* V G = b.
    Each input is factored once: the effect stack by the one factorisation
    of its POVM, Cholesky or ``eigh``, which decided the decomposition and
    also gives the Naimark blocks, and b by one ``eigh`` that checks
    ||b|| <= 1 and gives x. ``a`` and ``b`` pass the operand rule once,
    together; the decomposition, W, V and V's rows take them as passed.
    """
    a, b = _operands("a and b must be square of equal size", a, b)
    _require_hermitian([b], "joint_prism_dilation input b")
    spectrum = _unit_spectrum(b, "b")
    return _dilate_povm(_order_k_povm(a, k), b, spectrum)


def _dilate_povm(
    povm: Povm, b: np.ndarray, spectrum: tuple[np.ndarray, np.ndarray], name: str = "joint_prism_dilation"
) -> tuple[RepPair, np.ndarray]:
    """The joint dilation of :func:`joint_prism_dilation` from a given POVM
    with labels at the k-th roots of unity, k its number of effects, and a
    Hermitian contraction b with its :func:`_unit_spectrum` (w, U): G* W^m G
    = sum_j omega^(j m) h_j for every m, and G* V G = b, at the Naimark
    dimension kn. Every row checked is labelled with the pair's provenance,
    ``name(k=.., level=..)``.

    W = N is written from the labels, whose unitary and order rows are taken
    on them; G = Z; V = 1 - 2 x x*, exactly Hermitian, for the x of
    :func:`_reflector`, and ``v_squares_to_identity`` is its n x n
    certificate :func:`_reflection_bound`, with no kn x kn product V V."""
    k, n = len(povm.effects), b.shape[0]
    provenance = f"{name}(k={k}, level={n})"
    z, labels = _naimark(povm, provenance)
    x = _reflector(z, *spectrum)
    v = x @ dagger(x)
    v = np.negative(v + dagger(v), out=v)
    v.ravel()[:: k * n + 1] += 1.0
    pair = RepPair._built(np.diag(labels), v, k, provenance)
    unitary = _unitary_residual(pair.w, labels)
    # The Naimark residuals certified G*G = Z*Z = 1 and G*WG = Z*NZ, which
    # the POVM ties to its first moment. Left: V a symmetry, W's order, and
    # G*VG = b.
    residuals = [
        ("v_squares_to_identity", _reflection_bound(x), SPEC_TOL),
        *prefixed("w_", [unitary, (f"order_{k}", _frobenius(labels**k - 1.0), SPEC_TOL * k)]),
        ("v_compression", _frobenius(dagger(z) @ v @ z - b), SPEC_TOL),
    ]
    require(residuals, RelationCheckFailedError, provenance)
    return pair, z


def _reflector(z: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x = Y U sqrt((1 + w)/2) - Z U sqrt((1 - w)/2) for the kn x n Naimark
    isometry Z and the spectrum (w, U) of b, |w| <= 1, with Y columns
    n .. 2n-1 of a complete QR of Z, an isometry into (ran Z)^perp. Then x is
    an isometry with Z* x = -U sqrt((1 - w)/2), so Z* V Z = U w U* = b, and
    V = 1 - 2 x x* is the Halmos symmetry of b carried to the range of [Z Y]."""
    n = z.shape[1]
    y = np.linalg.qr(z, mode="complete")[0][:, n : 2 * n]
    return y @ (u * np.sqrt((1.0 + w) / 2.0)) - z @ (u * np.sqrt((1.0 - w) / 2.0))


def _reflection_bound(x: np.ndarray) -> float:
    """A bound on ||V^2 - 1||_F for V = 1 - 2 x x* as formed from the kn x n x:
    V^2 - 1 = 4 x (x* x - 1) x* and ||x||^2 <= 1 + delta give 4 (1 + d) d at
    delta = ||x* x - 1||_F <= d, plus (2 ||V|| + e) e, ||V|| <= 1 + 2 d, for
    the rounding e of forming V. With s = ||x||_F^2, d adds (kn + 4) eps s
    to the computed delta (the Gram entries are inner products of length kn),
    and e = eps ((2n + 10) s + sqrt(kn)) covers x x*, its adjoint added, and
    the subtraction from 1."""
    kn, n = x.shape
    eps = float(np.finfo(float).eps)
    s = float(np.vdot(x, x).real)
    gram = dagger(x) @ x
    gram.ravel()[:: n + 1] -= 1.0
    d = _frobenius(gram) + (kn + 4) * eps * s
    e = eps * ((2 * n + 10) * s + math.sqrt(kn))
    return 4.0 * (1.0 + d) * d + (2.0 + 4.0 * d + e) * e


def joint_residuals(a, b, pair: RepPair, g) -> list[Residual]:
    """G is an isometry with G* W G = a and G* V G = b; a and b are n x n for
    the m x n G of the m x m pair (else ``ShapeMismatchError``)."""
    a, b, g = np.asarray(a), np.asarray(b), np.asarray(g)
    m, n = g.shape if g.ndim == 2 else (-1, -1)
    fits = a.shape == b.shape == (n, n) and pair.dim == m
    _require_shapes("joint_residuals", "n x n a and b, an m x m pair and an m x n isometry", fits, a, b, pair.v, g)
    gs = dagger(g)
    return [
        ("isometry", _frobenius(gs @ g - np.eye(g.shape[1])), SPEC_TOL),
        ("w_compression", _frobenius(gs @ pair.w @ g - a), SPEC_TOL),
        ("v_compression", _frobenius(gs @ pair.v @ g - b), SPEC_TOL),
    ]


def cube_dilation(mats) -> DilationResult:
    """Simultaneous Halmos symmetries for a tuple of Hermitian contractions.

    All d symmetries act on the common doubled space; the single
    block-inclusion isometry compresses each one back to its input. That
    compression is the corner block, the entry itself. Entry j's rows are
    recorded as ``s{j}_selfadjoint`` and ``s{j}_squares_to_identity``, with
    the labels of :func:`cube_residuals`.
    """
    mats = _operands(
        "cube_dilation needs square matrices of equal size", *mats, hermitian="halmos_symmetry input"
    )
    n = len(mats[0])
    labels = [f"s{j + 1}" for j in range(len(mats))]
    symmetries = [_halmos_symmetry(m, f"{label}_") for label, m in zip(labels, mats)]
    isometry = np.vstack([np.eye(n), np.zeros((n, n))]).astype(complex)
    return DilationResult(isometry=isometry, operators=symmetries, labels=labels)


def cube_residuals(mats, result: DilationResult) -> list[Residual]:
    """Each entry has one operator, a symmetry that the isometry compresses to it."""
    if len(mats) != len(result.operators):
        raise ShapeMismatchError(f"cube_residuals got {len(mats)} entries for {len(result.operators)} operators")
    n = result.isometry.shape[1]
    fits = all(np.shape(m) == (n, n) for m in mats)
    _require_shapes("cube_residuals", "n x n entries for an isometry of n columns", fits, *mats, result.isometry)
    residuals = []
    for label, m, s, small in zip(result.labels, mats, result.operators, result.compressions()):
        compression = ("compression", _frobenius(small - m), ALG_TOL)
        residuals += prefixed(f"{label}_", [*symmetry_residuals(s), compression])
    return residuals


def evaluate_word(pair: RepPair, word: GroupWord) -> np.ndarray:
    """Multiply out a word in (W, V); w* is realized as W^(k-1)."""
    if pair.k != word.k:
        raise OrderMismatchError(f"pair has order {pair.k}, word is for order {word.k}")
    n = pair.dim
    letters = {
        "w": pair.w,
        "w*": np.linalg.matrix_power(pair.w, pair.k - 1),
        "v": pair.v,
    }
    product = np.eye(n, dtype=complex)
    for letter in word.letters:
        product = product @ letters[letter]
    return product


def evaluate_compressed_word(pair: RepPair, isometry, word: GroupWord) -> np.ndarray:
    """Value Z* (word in W, V) Z of the compressed extension on a group word."""
    return compress(evaluate_word(pair, word), isometry)
