"""Operator-system layer: the quotient map onto the prism system, its dual,
and positivity certification.

Elements of the prism operator system at matrix level q are stored by their
coefficient blocks in the basis {1, w, ..., w^(k-1), v}. The quotient map
from the diagonal source system sends the first k slots through the
spectral averages of w and the last two through (1 +/- v)/2, halved so the
all-ones tuple maps to the unit; its kernel is spanned by
(1, ..., 1, -1, -1). Scalar positivity is decided exactly by vertex
enumeration; matrix-level positivity gets a three-valued verdict with
independently checkable witnesses and certificates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .convexity import random_prism_point
from .dilation import joint_prism_dilation
from .errors import (
    InvalidDensityError,
    NotSelfadjointError,
    OrderMismatchError,
    RelationCheckFailedError,
    ShapeMismatchError,
    UnsupportedQError,
    WrongLevelError,
)
from .matkernel import (
    DEFAULT_TOL,
    Residual,
    ToleranceConfig,
    as_matrix,
    clamp_spectrum,
    dagger,
    hermitize,
    opnorm,
    opnorms,
    require,
)
from .reps import RepPair, a4_pair, prism_vertex_rep, s3_pair, steinberg_pair

__all__ = [
    "PrismElement",
    "DiagTuple",
    "DualTuple",
    "ScalarVerdict",
    "Refuted",
    "Certified",
    "Unknown",
    "psi_k",
    "psi_k_basis_element",
    "dual_member",
    "functional_to_tuple",
    "scalar_positivity_prism",
    "scalar_positivity_cube",
    "matrix_positivity_prism",
    "element_distance",
    "STRICT_MARGIN",
    "quotient_residuals",
    "functional_residuals",
    "refuted_residuals",
    "certified_residuals",
    "min_eigenvalue",
]

STRICT_MARGIN = 1e-6
_LINEAR_TOL = 1e-12


@dataclass
class PrismElement:
    """Coefficient form of an element of the level-q prism system.

    ``c[m]`` is the q x q block multiplying w^m (m = 0..k-1) and ``g`` the
    block multiplying v.
    """

    k: int
    q: int
    c: list[np.ndarray]
    g: np.ndarray

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        self.c = [as_matrix(block) for block in self.c]
        self.g = as_matrix(self.g)
        if len(self.c) != self.k:
            raise ShapeMismatchError(f"need {self.k} power blocks, got {len(self.c)}")
        for block in [*self.c, self.g]:
            if block.shape != (self.q, self.q):
                raise ShapeMismatchError(
                    f"blocks must be {self.q} x {self.q}, got {block.shape}"
                )

    @classmethod
    def unit(cls, k: int, q: int = 1) -> "PrismElement":
        zero = np.zeros((q, q), dtype=complex)
        blocks = [np.eye(q, dtype=complex)] + [zero.copy() for _ in range(k - 1)]
        return cls(k, q, blocks, zero.copy())

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
        """True iff c_0, g are Hermitian and c_(k-m) = c_m* for 1 <= m < k."""
        scale = max(1.0, *(opnorm(b) for b in [*self.c, self.g]))
        if opnorm(self.c[0] - dagger(self.c[0])) > tol * scale:
            return False
        if opnorm(self.g - dagger(self.g)) > tol * scale:
            return False
        for m in range(1, self.k):
            if opnorm(self.c[self.k - m] - dagger(self.c[m])) > tol * scale:
                return False
        return True

    def evaluate(self, pair: RepPair) -> np.ndarray:
        """The operator sum_m c_m (x) W^m + g (x) V on the q n dimensional space."""
        if pair.k != self.k:
            raise OrderMismatchError(
                f"element has order {self.k}, pair has order {pair.k}"
            )
        n = pair.dim
        acc = np.zeros((self.q * n, self.q * n), dtype=complex)
        power = np.eye(n, dtype=complex)
        for m in range(self.k):
            acc += np.kron(self.c[m], power)
            power = power @ pair.w
        acc += np.kron(self.g, pair.v)
        return acc


@dataclass
class DiagTuple:
    """An element of the level-q diagonal source system C^k (+) C^2."""

    k: int
    q: int
    blocks: list[np.ndarray]

    def __post_init__(self):
        self.blocks = [as_matrix(b) for b in self.blocks]
        if len(self.blocks) != self.k + 2:
            raise ShapeMismatchError(
                f"need {self.k + 2} blocks, got {len(self.blocks)}"
            )
        for b in self.blocks:
            if b.shape != (self.q, self.q):
                raise ShapeMismatchError(
                    f"blocks must be {self.q} x {self.q}, got {b.shape}"
                )

    @classmethod
    def ones(cls, k: int, q: int = 1) -> "DiagTuple":
        return cls(k, q, [np.eye(q, dtype=complex) for _ in range(k + 2)])

    def min_block_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(hermitize(np.stack(self.blocks))).min())


@dataclass(frozen=True)
class DualTuple:
    """A functional on the prism system, written in the k+2 dual coordinates."""

    k: int
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        if self.z.shape != (self.k + 2,):
            raise ShapeMismatchError(f"need {self.k + 2} coordinates, got {self.z.shape}")


@dataclass(frozen=True)
class ScalarVerdict:
    """Outcome of the exact scalar-level positivity test."""

    positive: bool
    margin: float
    worst_vertex: tuple[int, int]


@dataclass(frozen=True)
class Refuted:
    """Positivity fails: a representation evaluation has a negative eigenvalue."""

    witness: RepPair
    min_eigenvalue: float


@dataclass(frozen=True)
class Certified:
    """Positivity holds: a strictly positive preimage under the quotient map."""

    lift: DiagTuple
    min_block_eigenvalue: float
    residual: float


@dataclass(frozen=True)
class Unknown:
    """Neither a witness nor a certificate was found within the budget."""

    reason: str
    residual: float


def psi_k(x: DiagTuple) -> PrismElement:
    """Quotient map from the diagonal system onto the prism system.

    psi(x) = (1/2) [ sum_j x_j (x) q_j + x_+ (x) (1+v)/2 + x_- (x) (1-v)/2 ]
    with q_j the spectral averages of w. The all-ones tuple maps to the
    unit and (1, ..., 1, -1, -1) spans the kernel. One (k+1) x (k+2)
    coefficient matrix acts on the stacked blocks of ``x``.
    """
    blocks = np.tensordot(_psi_matrix(x.k), np.stack(x.blocks), axes=1)
    return PrismElement(x.k, x.q, list(blocks[: x.k]), blocks[x.k])


def _psi_matrix(k: int) -> np.ndarray:
    """Coefficients of the quotient map: row m (m < k) gives c_m and row k
    gives g as combinations of the k + 2 blocks of the source tuple."""
    omega = np.exp(2j * np.pi / k)
    coeffs = np.zeros((k + 1, k + 2), dtype=complex)
    for m in range(k):
        coeffs[m, :k] = [omega ** (-j * m) / (2.0 * k) for j in range(k)]
    coeffs[0, k:] = 0.25
    coeffs[k, k:] = [0.25, -0.25]
    return coeffs


def _stacked(e: PrismElement) -> np.ndarray:
    """The (k + 1, q, q) stack of coefficient blocks c_0, ..., c_(k-1), g."""
    return np.stack([*e.c, e.g])


def _stack_distance(s1: np.ndarray, s2: np.ndarray) -> float:
    """Largest operator-norm distance between corresponding slices."""
    return float(opnorms(s1 - s2).max())


def psi_k_basis_element(k: int, index: int) -> PrismElement:
    """Image under the quotient map of the index-th canonical basis vector."""
    blocks = [np.zeros((1, 1), dtype=complex) for _ in range(k + 2)]
    blocks[index] = np.eye(1, dtype=complex)
    return psi_k(DiagTuple(k, 1, blocks))


def quotient_residuals(k: int, q: int = 1) -> list[Residual]:
    """The quotient map sends (1, ..., 1, -1, -1) to zero and (1, ..., 1) to the unit."""
    eye = np.eye(q, dtype=complex)
    zero = psi_k(DiagTuple(k, q, [eye] * k + [-eye, -eye]))
    unit_gap = element_distance(psi_k(DiagTuple.ones(k, q)), PrismElement.unit(k, q))
    return [
        ("kernel_maps_to_zero", max(opnorm(b) for b in [*zero.c, zero.g]), _LINEAR_TOL),
        ("ones_map_to_unit", unit_gap, _LINEAR_TOL),
    ]


def _dual_balance(z: DualTuple) -> Residual:
    gap = abs(z.z[: z.k].sum() - z.z[z.k :].sum())
    return ("dual_balance", float(gap), _LINEAR_TOL * max(1.0, float(np.abs(z.z).max())))


def dual_member(z: DualTuple) -> bool:
    """Membership in the dual system: first k coordinates sum to the last two."""
    _, gap, bound = _dual_balance(z)
    return bool(gap <= bound)


def functional_residuals(z: DualTuple, tol: ToleranceConfig = DEFAULT_TOL) -> list[Residual]:
    """The dual coordinates of a state lie in the dual system and are real
    and nonnegative."""
    return [
        _dual_balance(z),
        ("nonnegative", max(0.0, -float(z.z.real.min())), tol.alg_tol),
        ("real", float(np.abs(z.z.imag).max()), tol.alg_tol),
    ]


def functional_to_tuple(
    pair: RepPair, density: np.ndarray, k: int, tol: ToleranceConfig = DEFAULT_TOL
) -> DualTuple:
    """Dual coordinates of the state trace(density . (W, V)-evaluation).

    The i-th coordinate is the state applied to the image of the i-th
    canonical basis vector under the quotient map; the result always lands
    in the dual system with entrywise nonnegative values for PSD densities.
    """
    if pair.k != k:
        raise OrderMismatchError(f"pair has order {pair.k}, expected {k}")
    density = as_matrix(density)
    if density.shape != (pair.dim, pair.dim):
        raise InvalidDensityError(
            f"density has shape {density.shape}, expected {(pair.dim, pair.dim)}"
        )
    if opnorm(density - dagger(density)) > tol.spec_tol:
        raise InvalidDensityError("density must be Hermitian")
    eigs = np.linalg.eigvalsh(hermitize(density))
    if eigs.min() < -tol.psd_clamp:
        raise InvalidDensityError(f"density has negative eigenvalue {eigs.min():.3e}")
    if abs(eigs.sum() - 1.0) > tol.spec_tol:
        raise InvalidDensityError(f"density trace {eigs.sum():.12f} differs from 1")

    omega = np.exp(2j * np.pi / k)
    n = pair.dim
    powers = [np.eye(n, dtype=complex)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ pair.w)
    coords = []
    for j in range(k):
        qj = sum((omega ** (-j * m)) * powers[m] for m in range(k)) / k
        coords.append(complex(np.trace(density @ qj)) / 2.0)
    coords.append(complex(np.trace(density @ (np.eye(n) + pair.v))) / 4.0)
    coords.append(complex(np.trace(density @ (np.eye(n) - pair.v))) / 4.0)
    z = DualTuple(k, np.array(coords))
    require(functional_residuals(z, tol), RelationCheckFailedError, "functional_to_tuple")
    return z


def scalar_positivity_prism(e: PrismElement) -> ScalarVerdict:
    """Exact positivity test at scalar level by vertex enumeration.

    The element is positive iff its evaluation at every extreme point
    (omega^j, sign) of the prism is >= 0; the margin is the minimum such
    value and is exact because the scalar-level states are convex
    combinations of the vertex evaluations.
    """
    if e.q != 1:
        raise WrongLevelError(f"scalar test requires level q = 1, got q = {e.q}")
    if not e.is_selfadjoint():
        raise NotSelfadjointError("scalar positivity requires a selfadjoint element")
    omega = np.exp(2j * np.pi / e.k)
    coeffs = [complex(block[0, 0]) for block in e.c]
    gval = complex(e.g[0, 0]).real
    margin = math.inf
    worst = (0, 1)
    for j in range(e.k):
        t = omega**j
        base = sum(cm * t**m for m, cm in enumerate(coeffs)).real
        for sign in (1, -1):
            value = float(base + gval * sign)
            if value < margin:
                margin, worst = value, (j, sign)
    return ScalarVerdict(bool(margin >= -_LINEAR_TOL), float(margin), worst)


def scalar_positivity_cube(alpha: float, beta) -> tuple[bool, float]:
    """Positivity of alpha + sum(beta_j u_j) in the cube system.

    Positive iff alpha >= sum |beta_j|; the worst vertex of the cube flips
    every coordinate against its coefficient.
    """
    margin = float(alpha) - float(np.abs(np.asarray(beta, dtype=float)).sum())
    return bool(margin >= -_LINEAR_TOL), margin


def element_distance(e1: PrismElement, e2: PrismElement) -> float:
    """Largest operator-norm distance between corresponding coefficient blocks."""
    if (e1.k, e1.q) != (e2.k, e2.q):
        raise ShapeMismatchError("elements live in different systems")
    return _stack_distance(_stacked(e1), _stacked(e2))


@functools.lru_cache(maxsize=8)
def _sample_pairs(k: int, samples: int, size_budget: int, seed: int, tol) -> tuple[RepPair, ...]:
    """Factory representations up to the size budget plus random dilated pairs.

    A pure function of its arguments, memoised so that repeated positivity
    calls share one sample set. The cached arrays are read-only, and a
    ``Refuted`` witness is a copy of its pair.
    """
    pairs = []
    for j in range(k):
        for sign in (1, -1):
            pairs.append(prism_vertex_rep(k, j, sign)[0])
    if k == 3:
        pairs.append(s3_pair())
        pairs.append(a4_pair())
        for q in range(4, size_budget + 1):
            try:
                pairs.append(steinberg_pair(q))
            except UnsupportedQError:
                continue
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        n = int(rng.integers(1, 4))
        a, b = random_prism_point(rng, n, k)
        pair, _ = joint_prism_dilation(a, b, k, tol)
        pairs.append(pair)
    for pair in pairs:
        pair.w.setflags(write=False)
        pair.v.setflags(write=False)
    return tuple(pairs)


def min_eigenvalue(e: PrismElement, pair: RepPair) -> float:
    """Smallest eigenvalue of the evaluation of ``e`` at ``pair``."""
    return float(np.linalg.eigvalsh(hermitize(e.evaluate(pair))).min())


def refuted_residuals(
    e: PrismElement, verdict: Refuted, tol: ToleranceConfig = DEFAULT_TOL
) -> list[Residual]:
    """The witness evaluation of ``e`` has an eigenvalue at or below -spec_tol.
    The witness pair's own identities are ``reps.pair_residuals``."""
    return [("witness_min_eigenvalue", min_eigenvalue(e, verdict.witness), -tol.spec_tol)]


def certified_residuals(
    e: PrismElement, verdict: Certified, tol: ToleranceConfig = DEFAULT_TOL
) -> list[Residual]:
    """The lift maps onto ``e`` and its blocks are >= STRICT_MARGIN (less psd_clamp)."""
    shortfall = STRICT_MARGIN - verdict.lift.min_block_eigenvalue()
    return [
        ("lift_maps_to_element", element_distance(psi_k(verdict.lift), e), tol.spec_tol),
        ("lift_strictly_positive", shortfall, tol.psd_clamp),
    ]


def _particular_lift(e: PrismElement) -> DiagTuple:
    """A Hermitian preimage of ``e`` under the quotient map (alpha = 1 gauge)."""
    k, q = e.k, e.q
    omega = np.exp(2j * np.pi / k)
    eye = np.eye(q, dtype=complex)
    xs = []
    for j in range(k):
        xs.append(
            hermitize(eye + 2.0 * sum((omega ** (j * m)) * e.c[m] for m in range(1, k)))
        )
    x_plus = hermitize(2.0 * e.c[0] - eye + 2.0 * e.g)
    x_minus = hermitize(2.0 * e.c[0] - eye - 2.0 * e.g)
    return DiagTuple(k, q, [*xs, x_plus, x_minus])


def matrix_positivity_prism(
    e: PrismElement,
    samples: int = 20,
    max_iter: int = 2000,
    tol: ToleranceConfig = DEFAULT_TOL,
    size_budget: int = 8,
    seed: int = 0,
):
    """Three-valued positivity verdict for a selfadjoint element.

    Phase 1 (refutation) evaluates the element on factory representations
    and on random dilated pairs; an eigenvalue below -spec_tol yields
    ``Refuted`` with the witness pair. Phase 2 (certification) searches for
    a preimage with all blocks >= STRICT_MARGIN via Dykstra-corrected
    alternating projections between the strictly-positive product set and
    the affine fiber of the quotient map; success yields ``Certified`` with
    the lift. Otherwise ``Unknown``. Both definite verdicts re-verify from
    their payloads alone. Each sweep acts on the (k + 2, q, q) stack of lift
    blocks; the sample set is memoised on (k, samples, size_budget, seed,
    tol). Raises ValueError for max_iter < 1 or samples < 0.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if not e.is_selfadjoint():
        raise NotSelfadjointError("positivity requires a selfadjoint element")

    worst_pair = None
    worst_eig = 0.0
    for pair in _sample_pairs(e.k, samples, size_budget, seed, tol):
        low = min_eigenvalue(e, pair)
        if low < worst_eig:
            worst_eig, worst_pair = low, pair
    if worst_pair is not None and worst_eig < -tol.spec_tol:
        witness = replace(worst_pair, w=worst_pair.w.copy(), v=worst_pair.v.copy())
        verdict = Refuted(witness=witness, min_eigenvalue=worst_eig)
        require(refuted_residuals(e, verdict, tol), RelationCheckFailedError, "refutation")
        return verdict

    # Every sweep acts on (k + 2, q, q) stacks; kernel_signs spans the
    # quotient map's kernel, (1, ..., 1, -1, -1).
    k = e.k
    coeffs = _psi_matrix(k)
    target = _stacked(e)
    kernel_signs = np.array([1.0] * k + [-1.0, -1.0])
    particular = np.stack(_particular_lift(e).blocks)
    x = particular.copy()
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    best_residual = math.inf
    for _ in range(max_iter):
        y = clamp_spectrum(x + p_corr, STRICT_MARGIN)
        p_corr = x + p_corr - y
        shifted = y + q_corr
        ycomp = hermitize(np.tensordot(kernel_signs, shifted - particular, axes=1) / (k + 2))
        x = hermitize(particular + kernel_signs[:, None, None] * ycomp)
        q_corr = shifted - x

        residual = _stack_distance(np.tensordot(coeffs, y, axes=1), target)
        best_residual = min(best_residual, residual)
        if residual <= tol.spec_tol:
            lift = DiagTuple(k, e.q, list(y))
            verdict = Certified(
                lift=lift,
                min_block_eigenvalue=lift.min_block_eigenvalue(),
                residual=residual,
            )
            require(certified_residuals(e, verdict, tol), RelationCheckFailedError, "certificate")
            return verdict
    return Unknown(
        reason=f"no witness below -{tol.spec_tol:.0e} and no strict lift within "
        f"{max_iter} sweeps",
        residual=best_residual,
    )
