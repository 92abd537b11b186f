"""Dilation constructions: Halmos blocks, barycentric POVMs, Naimark
dilations, joint order-(k, 2) dilations, and cube dilations.

The joint construction follows the classical route end to end: split the
operator with numerical range in the polygon into a positive decomposition
summing to the identity, dilate that decomposition to a normal operator
with spectrum at the polygon's vertices, carry the second operator to the
enlarged space, and close with a 2x2 Halmos symmetry block. Compressing
back through the composite isometry recovers the original pair exactly.

Every positive decomposition, at every k, is made by :func:`order_k_povm`
and starts from the Fourier-minimal effects (1 + omega^-j a + omega^j a*)/k,
whose Fourier modes other than 0, 1 and k - 1 vanish. At k = 3 these are the
barycentric coordinates; for k >= 4 ``matkernel.lmi_floor`` searches the free
modes 2 .. k-2 for effects that are all positive, or proves that none are.

Each constructor checks the identities its own arithmetic can break. A block
written from the data it would be compared with (a Halmos corner, the labels
on N's diagonal, V's corner Z b Z*) is not checked; the public ``*_residuals``
functions check it too, for matrices a caller did not build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convexity import make_polygon, max_member, real_imag_parts
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
    FloorSystem,
    Residual,
    _frobenius,
    _operands,
    _spectral,
    _spectral_sqrt,
    as_matrix,
    clamp_spectrum,
    compress,
    constant,
    dagger,
    hermitian_basis,
    hermitize,
    lmi_floor,
    order_residuals,
    prefixed,
    require,
    require_hermitian,
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

    The effects are one Hermitian (k, n, n) stack, and ``spectrum`` is its
    ``eigh``, taken once here: the facet slacks, the band rule,
    ``effects_positive`` and the Naimark roots all read it."""

    effects: np.ndarray
    outcome_labels: list[complex]
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        (self.effects,) = _operands(
            "effects must be a nonempty stack of square matrices of equal size",
            self.effects, error=InvalidPovmError, ndim=3, hermitian="POVM effects",
        )
        if len(self.effects) != len(self.outcome_labels):
            raise InvalidPovmError("each effect needs exactly one outcome label")
        self.spectrum = np.linalg.eigh(hermitize(self.effects))


def povm_residuals(effects, labels, a) -> list[Residual]:
    """Effects decompose ``a``: sum(label_j h_j) = a, sum(h_j) = 1, and the
    summed negative parts of the effects stay within PSD_CLAMP.

    ``effects`` is a list of n x n effects or their (k, n, n) stack."""
    effects = np.asarray(effects)
    return _povm_residuals(effects, labels, a, np.linalg.eigvalsh(hermitize(effects)))


def _povm_residuals(effects, labels, a, spectra) -> list[Residual]:
    """:func:`povm_residuals` of an effect stack whose (k, n) eigenvalues,
    those of its Hermitian parts, are ``spectra``."""
    moment_gap = np.tensordot(np.asarray(labels), effects, axes=1) - a
    lowest = spectra.min(axis=-1)
    return [
        ("first_moment", _frobenius(moment_gap), SPEC_TOL),
        ("sum_to_identity", _frobenius(effects.sum(axis=0) - np.eye(len(a))), SPEC_TOL),
        ("effects_positive", float(np.clip(-lowest, 0.0, None).sum()), PSD_CLAMP),
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


def _hermitian_defect(b: np.ndarray, name: str | None) -> np.ndarray:
    """The Halmos defect sqrt(1 - c^2) of c = b / max(1, ||b||) for a
    Hermitian b, from one ``eigh`` of b: its eigenvalues w give both
    ||b|| = max |w| for :func:`_unit_ball` and the defect's eigenvalues
    sqrt((1 - w)(1 + w)) once rescaled, so |w| <= 1 exactly."""
    w, u = np.linalg.eigh(hermitize(b))
    w = w / _unit_ball(float(np.abs(w).max(initial=0.0)), name)
    return _spectral(u, np.sqrt((1.0 - w) * (1.0 + w)))


def halmos_symmetry(b) -> np.ndarray:
    """Dilate a Hermitian contraction to a symmetry on the doubled space.

    Returns S = [[b, D], [D, -b]] with D = sqrt(1 - b^2), taken from one
    ``eigh`` of b that also checks ||b|| <= 1: S is Hermitian, S^2 is the
    identity within SPEC_TOL, and the top-left block is ``b`` itself.
    """
    (b,) = _operands("halmos_symmetry requires a square matrix", b, hermitian="halmos_symmetry input")
    return _halmos_symmetry(b, "")


def _halmos_symmetry(b: np.ndarray, prefix: str) -> np.ndarray:
    """:func:`halmos_symmetry` of a Hermitian operand ``b``, recording its
    rows with ``prefix`` before each name."""
    s = _symmetry_block(b, _hermitian_defect(b, "b"))
    require(prefixed(prefix, symmetry_residuals(s)), NotSymmetryError, "halmos_symmetry")
    return s


def _symmetry_block(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The block matrix [[P, Q], [Q, -P]] of two m x m blocks."""
    m = len(p)
    s = np.empty((2 * m, 2 * m), dtype=complex)
    s[:m, :m], s[:m, m:], s[m:, :m] = p, q, q
    np.negative(p, out=s[m:, m:])
    return s


def halmos_symmetry_residuals(b, s) -> list[Residual]:
    """``s`` is a symmetry with top-left block ``b``."""
    n = b.shape[0]
    return [*symmetry_residuals(s), ("corner", _frobenius(s[:n, :n] - b), ALG_TOL)]


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
    """``u`` is unitary with top-left block ``x``."""
    n = x.shape[0]
    return [unitary_residual(u), ("corner", _frobenius(u[:n, :n] - x), ALG_TOL)]


def triangle_povm(a) -> Povm:
    """Barycentric decomposition of an operator over the root-of-unity
    triangle Conv{1, omega, omega^2}: :func:`order_k_povm` with k = 3."""
    return order_k_povm(a, 3)


def _settle(effects: np.ndarray, t_lo: float, t_hi: float, steps: int, band: float) -> np.ndarray:
    """The band rule of :func:`order_k_povm` for effects over the k roots of
    unity whose best smallest eigenvalue lies in [t_lo, t_hi], after
    ``steps`` Newton steps."""
    if t_lo > 0.0:
        return effects
    k = len(effects)
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
            f"undecided after {steps} Newton steps: the best smallest effect "
            f"eigenvalue lies in {bracket} (not a proof of infeasibility)"
        )
    # Exact renormalization: congruence by (sum h_j)^(-1/2) restores the
    # identity sum at machine precision while keeping every effect PSD.
    effects = clamp_spectrum(effects, 0.0)
    w, u = np.linalg.eigh(hermitize(effects.sum(axis=0)))
    if w.min() <= 0.5:
        raise InfeasibleError("effect sum is too singular to renormalize")
    t = (u * (w**-0.5)) @ dagger(u)
    return hermitize(t @ effects @ t)


def _fourier_base(a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack (1 + omega^-j a + omega^j a*)/k over the k roots of
    unity ``labels``: it sums to 1, its first moment is a, and its Fourier
    modes 2 .. k-2 vanish."""
    roots = labels[:, None, None]
    return hermitize((np.eye(a.shape[0]) + roots.conj() * a + roots * dagger(a)) / len(labels))


def naimark_normal(povm: Povm) -> DilationResult:
    """Dilate a POVM to a normal operator with spectrum at the outcome labels.

    The isometry stacks the square roots of the effects (see
    :func:`_naimark`); the normal operator is the direct sum of label_j times
    the identity. Compression returns sum(label_j h_j); effects that do not
    sum to the identity fail the isometry residual.
    """
    z, labels = _naimark(povm, "naimark_normal")
    return DilationResult(isometry=z, operators=[np.diag(labels)], labels=["normal"])


def _naimark(povm: Povm, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The Naimark isometry Z, the square roots of the effects stacked, and the
    diagonal of N = (+)_j label_j 1, once Z*Z = 1 and Z*NZ = sum(label_j h_j)
    hold (else ``InvalidPovmError`` naming ``what``). The roots come from the
    POVM's own ``eigh``; N is applied through the labels it is written from."""
    k, n = povm.effects.shape[:2]
    z = _spectral_sqrt(*povm.spectrum).reshape(k * n, n)
    labels = np.repeat(np.asarray(povm.outcome_labels, dtype=complex), n)
    require(_naimark_residuals(povm, z, labels[:, None] * z), InvalidPovmError, what)
    return z, labels


def naimark_residuals(povm: Povm, result: DilationResult) -> list[Residual]:
    """Z is an isometry, Z* N Z = sum(label_j h_j), and N is the diagonal
    matrix of the labels (so normal with spectrum at the labels)."""
    z, nd = result.isometry, result.operators[0]
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
    (1 + omega^-j a + omega^j a*)/k. Their best smallest eigenvalue is
    bracketed in [t_lo, t_hi] and judged against the band (-band, 0),
    band = SPEC_TOL / 4k:

    - t_lo > 0: those effects, unclamped;
    - t_lo >= -band: the effects clamped to >= 0 and renormalised, which
      moves the moments by at most about 2k band;
    - t_hi < -band, from an exact floor or a re-checked primal point:
      ``InfeasibleError``, a proof that no positive decomposition exists;
    - otherwise ``InfeasibleError`` naming the undecided bracket.

    At k = 3 the base is the only decomposition, the barycentric
    coordinates, so t_lo = t_hi is its smallest eigenvalue. The POVM's
    ``eigh`` decides membership as well: the slack of the facet opposite the
    vertex omega^j, facet (j + 1) mod 3 of ``convexity.make_polygon(3)``, is
    3/2 lambda_min(h_j), and W(a) lies in the triangle when the smallest
    slack, the first in facet order, is >= -SPEC_TOL (else
    ``NumericalRangeOutsideTriangleError``). The same factorisation gives
    ``effects_positive`` and the Naimark square roots, unless the band rule
    changed the effects.

    For k >= 4, once ``convexity.max_member`` has placed W(a) in Conv(C_k),
    the base may be moved by any Hermitian combination of the Fourier modes
    m = 2 .. k-2 (the (k-3) n^2 real unknowns that keep sum(h_j) = 1 and
    sum(omega^j h_j) = a), and ``matkernel.lmi_floor``, over the system kept
    for (k, n) (:func:`_mode_system`), gives the bracket.

    Returned effects always pass ``povm_residuals``, checked here as
    ``order_k_povm(k=.., level=..)`` (else ``InvalidPovmError``).
    """
    (a,) = _operands("order_k_povm requires a square matrix", a)
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    labels = roots_of_unity(k)
    base = _fourier_base(a, labels)
    band = SPEC_TOL / (4 * k)
    if k == 3:
        povm = Povm(base, labels.tolist())
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
        effects, steps = povm.effects, 0
        t_lo = t_hi = float(spectra.min())
    else:
        povm = None
        re, im = real_imag_parts(a)
        verdict = max_member([re, im], make_polygon(k))
        if not verdict.member:
            raise InfeasibleError(
                f"numerical range of a leaves Conv(C_{k}) "
                f"(facet margin {verdict.margin:.3e}); no decomposition exists"
            )
        system = _mode_system(k, len(a))
        result = lmi_floor(base, system, (-band, 0.0))
        effects = hermitize(base + np.tensordot(result.y, system.directions, axes=1))
        t_lo, t_hi, steps = result.t_lo, result.t_hi, result.steps
    effects = _settle(effects, t_lo, t_hi, steps, band)
    if povm is None or effects is not povm.effects:
        povm = Povm(effects, labels.tolist())
    residuals = _povm_residuals(povm.effects, labels, a, povm.spectrum[0])
    require(residuals, InvalidPovmError, f"order_k_povm(k={k}, level={len(a)})")
    return povm


@constant(maxsize=4)
def _mode_system(k: int, n: int) -> FloorSystem:
    """The ``lmi_floor`` system of the level-n decompositions over the k-th
    roots of unity, built once per (k, n) and read-only: its directions are
    the Hermitian Fourier modes m = 2 .. k-2 tensored with
    ``hermitian_basis(n)``, as real vectors over j Re omega^(j m) up to k/2
    and Im omega^(j m) beyond (they pair with modes k - m).

    An entry keeps the (k-3) n^2 x k x n x n direction stack and, once a
    solve has built them, its constraints: about four copies of the stack,
    0.07 MB at (4, 4), 0.3 MB at (6, 4), 5 MB at (6, 8) and 80 MB at
    (6, 16), where one call peaks near 142 MB. Four entries hold k = 4 .. 7
    at one level n <= 8 in 17 MB."""
    roots, j = roots_of_unity(k), np.arange(k)
    modes = [roots[j * m % k].real if 2 * m <= k else roots[j * m % k].imag for m in range(2, k - 1)]
    return FloorSystem(np.einsum("mj,eab->mejab", modes, hermitian_basis(n)).reshape(-1, k, n, n))


def joint_prism_dilation(a, b, k: int) -> tuple[RepPair, np.ndarray]:
    """Common dilation of (a, b) to unitaries of orders k and 2.

    Builds the normal dilation (y, z) of ``a`` from its positive
    decomposition, carries ``b`` to the enlarged space as z b z*, dilates
    that to a Halmos symmetry, and extends y by the identity on the second
    summand. The returned isometry G satisfies G* W G = a and G* V G = b.
    Each input is factored once: the effect stack by the POVM's own ``eigh``,
    which decided the decomposition and also gives the Naimark roots, and b by
    one ``eigh`` that checks ||b|| <= 1 and gives the symmetry's defect at
    the level of ``b`` (see ``_carried_blocks``), so its identities are
    checked here.
    """
    a, b = _operands("a and b must be square of equal size", a, b)
    require_hermitian(b, "joint_prism_dilation input b")
    defect = _hermitian_defect(b, "b")
    return _dilate_povm(order_k_povm(a, k), b, defect)


def _dilate_povm(
    povm: Povm, b: np.ndarray, defect: np.ndarray, name: str = "joint_prism_dilation"
) -> tuple[RepPair, np.ndarray]:
    """The joint dilation of :func:`joint_prism_dilation` from a given POVM
    with labels at the k-th roots of unity, k its number of effects, and a
    Hermitian contraction b with its Halmos defect ``defect`` (of b rescaled
    into the unit ball): G* W^m G = sum_j omega^(j m) h_j for every m, and
    G* V G = b. Every row checked is labelled with the pair's provenance,
    ``name(k=.., level=..)``.

    W = N (+) 1 is written as its diagonal, the labels then ones; G = [Z; 0]."""
    k, n = len(povm.effects), b.shape[0]
    kn = k * n
    provenance = f"{name}(k={k}, level={n})"
    z, labels = _naimark(povm, provenance)
    w_big = np.zeros((2 * kn, 2 * kn), dtype=complex)
    w_big.ravel()[:: 2 * kn + 1] = np.concatenate([labels, np.ones(kn)])

    b_tilde, d = _carried_blocks(z, b, defect)
    v_big = _symmetry_block(b_tilde, d)
    g = np.vstack([z, np.zeros((kn, n), dtype=complex)])
    pair = RepPair(w_big, v_big, k, provenance=provenance)
    # The Naimark residuals certified G*G = Z*Z = 1 and G*WG = Z*NZ, which
    # the POVM ties to its first moment. Left: V a symmetry, W's order, and
    # G*VG = b, which is Z* V_11 Z as G's lower half is exactly zero.
    residuals = [
        *prefixed("v_", symmetry_residuals(v_big)),
        *prefixed("w_", order_residuals(w_big, k)),
        ("v_compression", _frobenius(dagger(z) @ v_big[:kn, :kn] @ z - b), SPEC_TOL),
    ]
    require(residuals, RelationCheckFailedError, provenance)
    return pair, g


def _carried_blocks(z, b, defect) -> np.ndarray:
    """The blocks of the Halmos symmetry [[b~, D], [D, -b~]] of b~ = Z b Z*,
    stacked: b~ and its defect D = sqrt(1 - b~^2), taken at the level of b.

    Z*Z = 1 splits 1 - (Z b Z*)^2 = (1 - Z Z*) + Z (1 - b^2) Z* into PSD terms
    with orthogonal ranges, so D = (1 - Z Z*) + Z sqrt(1 - b^2) Z*, that is
    1 + Z (sqrt(1 - b^2) - 1) Z*. ``defect`` is sqrt(1 - b^2) for b rescaled
    into the unit ball, as in :func:`halmos_symmetry`; Z b Z* and
    Z (defect - 1) Z* come from one batched product. The caller checks the
    symmetry."""
    carried = hermitize(z @ np.stack([b, defect - np.eye(len(b))]) @ dagger(z))
    carried[1].ravel()[:: z.shape[0] + 1] += 1.0
    return carried


def joint_residuals(a, b, pair: RepPair, g) -> list[Residual]:
    """G is an isometry with G* W G = a and G* V G = b."""
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
    """Each operator is a symmetry that the isometry compresses to its entry."""
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
