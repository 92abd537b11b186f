"""Operator-system layer: the quotient map onto the prism system, its dual,
and positivity certification.

Elements of the prism operator system at matrix level q are stored by their
coefficient blocks in the basis {1, w, ..., w^(k-1), v}. The quotient map
from the diagonal source system sends the first k slots through the
spectral averages of w and the last two through (1 +/- v)/2, halved so the
all-ones tuple maps to the unit; its kernel is spanned by
(1, ..., 1, -1, -1). Every formula for it is a Fourier sum over Z_k plus the
two sign rows, taken by ``matkernel``'s FFT pair in O(k q^2) memory, with no
k x k table. Scalar positivity is
decided exactly by vertex enumeration; matrix-level positivity gets a
three-valued verdict with independently checkable witnesses and
certificates. The best floor t* of the lifts through the quotient map is
bracketed without a solve, t_scalar <= t* <= t_char: t_char is the least
eigenvalue at the 2k characters, read off the particular lift, and t_scalar
the floor of that lift shifted by a scalar multiple of the kernel. t_char <=
-SPEC_TOL refutes with a 1 x 1 witness, t_scalar >= STRICT_MARGIN certifies
with the shifted lift, and a bracket inside the band (-SPEC_TOL,
STRICT_MARGIN) is ``Unknown``. At q = 1 the two ends coincide, so scalar
elements are never solved. At q >= 2 an element these rules leave open gets
a second closed-form lift, the midpoint lift, which puts the binding
character's value (x_j + x_+/-)/2 on both of its blocks: its floor t_mid <=
t* certifies at t_mid >= STRICT_MARGIN, and [t_mid, t_char] inside the band
is ``Unknown``, which decides boundary elements such as a common null vector
of x_j and x_+/-. Any other element gets one ``matkernel.lmi_floor`` solve
over the lifts: a strictly positive lift certifies, and the solver's primal
point, a matrix state that separates the element, dilates to a refuting
representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidDensityError,
    NotSelfadjointError,
    OrderMismatchError,
    RelationCheckFailedError,
    ShapeMismatchError,
    WrongLevelError,
)
from .matkernel import (
    ALG_TOL,
    PSD_CLAMP,
    SPEC_TOL,
    FloorSystem,
    Residual,
    _exact_diagonal,
    _floor,
    _frobenius,
    _operands,
    constant,
    dagger,
    fourier_coefficients,
    fourier_values,
    hermitian_basis,
    hermitize,
    lmi_floor,
    opnorm,
    opnorms,
    require,
    roots_of_unity,
)
from .reps import RepPair, prism_character

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


def _square_blocks(blocks, q: int) -> np.ndarray:
    """The blocks as one (count, q, q) operand stack, q >= 1; scalars at q = 1."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return _operands(f"blocks must be {q} x {q}", blocks, n=q, ndim=3)[0]


@dataclass(frozen=True)
class PrismElement:
    """Coefficient form of an element of the level-q prism system.

    ``blocks`` is the (k + 1, q, q) stack c_0, ..., c_(k-1), g: ``c[m]`` is
    the q x q block multiplying w^m (m = 0..k-1) and ``g`` the block
    multiplying v, both views into it. Frozen, so that no ``c`` or ``g``
    can be rebound apart from the stack every formula reads.
    """

    k: int
    q: int
    c: np.ndarray
    g: np.ndarray
    blocks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        blocks = np.concatenate([_square_blocks(self.c, self.q), _square_blocks([self.g], self.q)])
        if len(blocks) != self.k + 1:
            raise ShapeMismatchError(f"need {self.k} power blocks, got {len(blocks) - 1}")
        for name, value in (("blocks", blocks), ("c", blocks[: self.k]), ("g", blocks[self.k])):
            object.__setattr__(self, name, value)

    @classmethod
    def unit(cls, k: int, q: int = 1) -> "PrismElement":
        return cls(k, q, [np.eye(q)] + [np.zeros((q, q))] * (k - 1), np.zeros((q, q)))

    def is_selfadjoint(self) -> bool:
        """True iff c_(-m mod k) = c_m* for every m and g is Hermitian."""
        return _selfadjoint(self.blocks)

    def evaluate(self, pair: RepPair) -> np.ndarray:
        """The operator sum_m c_m (x) W^m + g (x) V on the q n dimensional space.
        At an exactly diagonal W = diag(d) (characters, dilations, dual witnesses)
        the first sum is block diagonal, sum_m d_i^m c_m at (i, i): no W^m is formed."""
        if pair.k != self.k:
            raise OrderMismatchError(f"element has order {self.k}, pair has order {pair.k}")
        size, d = self.q * pair.dim, _exact_diagonal(pair.w)
        if d is None:  # every Kronecker product c_m (x) W^m and g (x) V in one contraction
            return np.einsum("sab,sij->aibj", self.blocks, _basis_operators(pair)).reshape(size, size)
        out = self.g[:, None, :, None] * pair.v[None, :, None, :]  # g (x) V, axes (a, i, b, j)
        powers = np.vander(d, self.k, increasing=True)  # d_i^m by repeated products, as W^m is formed
        # "aibi->iab" is a writeable view of the (i, i) blocks of out.
        np.einsum("aibi->iab", out)[...] += np.einsum("im,mab->iab", powers, self.c)
        return out.reshape(size, size)


@dataclass
class DiagTuple:
    """An element of the level-q diagonal source system C^k (+) C^2, its
    blocks one (k + 2, q, q) stack."""

    k: int
    q: int
    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = _square_blocks(self.blocks, self.q)
        if len(self.blocks) != self.k + 2:
            raise ShapeMismatchError(f"need {self.k + 2} blocks, got {len(self.blocks)}")

    @classmethod
    def ones(cls, k: int, q: int = 1) -> "DiagTuple":
        return cls(k, q, np.tile(np.eye(q, dtype=complex), (k + 2, 1, 1)))

    def min_block_eigenvalue(self) -> float:
        return _floor(self.blocks)


@dataclass(frozen=True)
class DualTuple:
    """A functional on the prism system, k >= 3, written in the k+2 dual
    coordinates, which must be finite."""

    k: int
    z: np.ndarray

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        if self.z.shape != (self.k + 2,):
            raise ShapeMismatchError(f"need {self.k + 2} coordinates, got {self.z.shape}")
        if not np.isfinite(self.z).all():
            raise ValueError("dual coordinates must be finite")


@dataclass(frozen=True)
class ScalarVerdict:
    """Outcome of the exact scalar-level positivity test."""

    positive: bool
    margin: float
    worst_vertex: tuple[int, int]


@dataclass(frozen=True)
class Refuted:
    """Positivity fails: a representation evaluation has a negative eigenvalue.

    The witness is a 1 x 1 character (omega^j, sign) when the element has an
    eigenvalue <= -SPEC_TOL at one, else the solver's dual witness, of
    dimension at most kq; ``witness.provenance`` names which.
    """

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
    """The bracket on the best lift's floor t* lies neither above
    STRICT_MARGIN nor below -SPEC_TOL.

    The bracket is t_scalar <= t* <= t_char, from the scalar shift and the
    characters, when it lies inside the band (-SPEC_TOL, STRICT_MARGIN); it
    refutes at t_char <= -SPEC_TOL and certifies at t_scalar >=
    STRICT_MARGIN, and at q = 1, where its ends coincide, it always decides.
    Failing that, it is [t_mid, t_char] from the midpoint lift when that lies
    inside the band, and otherwise the solver's [t_lo, t_hi]."""

    reason: str
    residual: float


def psi_k(x: DiagTuple) -> PrismElement:
    """Quotient map from the diagonal system onto the prism system.

    psi(x) = (1/2) [ sum_j x_j (x) q_j + x_+ (x) (1+v)/2 + x_- (x) (1-v)/2 ]
    with q_j the spectral averages of w. The all-ones tuple maps to the
    unit and (1, ..., 1, -1, -1) spans the kernel: c_m is half the m-th Fourier
    coefficient of x_0 .. x_(k-1), plus (x_+ + x_-)/4 at m = 0, and g = (x_+ - x_-)/4.
    """
    c = fourier_coefficients(x.blocks[: x.k]) / 2
    c[0] += (x.blocks[x.k] + x.blocks[x.k + 1]) / 4
    return PrismElement(x.k, x.q, c, (x.blocks[x.k] - x.blocks[x.k + 1]) / 4)


def _kernel(k: int) -> np.ndarray:
    """(1, ..., 1, -1, -1), which spans the kernel of the quotient map."""
    return np.array([1.0] * k + [-1.0, -1.0])


def _selfadjoint(stack: np.ndarray) -> bool:
    """``is_selfadjoint`` of a stack: every slice of stack - stack[mirror]* has norm <= ALG_TOL
    max(1, largest block norm). Frobenius norm <= ALG_TOL, which bounds each, needs no SVD."""
    k = len(stack) - 1
    skew = stack - dagger(stack[np.append(-np.arange(k) % k, k)])
    if _frobenius(skew) <= ALG_TOL:
        return True
    return bool(opnorms(skew).max() <= ALG_TOL * max(1.0, float(opnorms(stack).max())))


def _basis_operators(pair: RepPair) -> np.ndarray:
    """The (k + 1, n, n) stack W^0, ..., W^(k-1), V those blocks multiply, for a non-diagonal W."""
    powers = [np.eye(pair.dim, dtype=complex)]
    for _ in range(pair.k - 1):
        powers.append(powers[-1] @ pair.w)
    return np.stack([*powers, pair.v])


def psi_k_basis_element(k: int, index: int) -> PrismElement:
    """Image under the quotient map of the index-th canonical basis vector."""
    return psi_k(DiagTuple(k, 1, (np.arange(k + 2) == index)[:, None, None]))


def quotient_residuals(k: int, q: int = 1) -> list[Residual]:
    """The quotient map sends (1, ..., 1, -1, -1) to zero and (1, ..., 1) to the unit."""
    zero = psi_k(DiagTuple(k, q, _kernel(k)[:, None, None] * np.eye(q)))
    unit_gap = element_distance(psi_k(DiagTuple.ones(k, q)), PrismElement.unit(k, q))
    return [
        ("kernel_maps_to_zero", float(opnorms(zero.blocks).max()), _LINEAR_TOL),
        ("ones_map_to_unit", unit_gap, _LINEAR_TOL),
    ]


def _dual_balance(z: DualTuple) -> Residual:
    gap = abs(_kernel(z.k) @ z.z)
    return ("dual_balance", float(gap), _LINEAR_TOL * max(1.0, float(np.abs(z.z).max())))


def dual_member(z: DualTuple) -> bool:
    """Membership in the dual system: first k coordinates sum to the last two."""
    _, gap, bound = _dual_balance(z)
    return bool(gap <= bound)


def functional_residuals(z: DualTuple) -> list[Residual]:
    """The dual coordinates of a state lie in the dual system and are real
    and nonnegative."""
    return [
        _dual_balance(z),
        ("nonnegative", max(0.0, -float(z.z.real.min())), ALG_TOL),
        ("real", float(np.abs(z.z.imag).max()), ALG_TOL),
    ]


def functional_to_tuple(pair: RepPair, density: np.ndarray, k: int) -> DualTuple:
    """Dual coordinates of the state trace(density . (W, V)-evaluation).

    The i-th coordinate is the state applied to the image of the i-th
    canonical basis vector under the quotient map: half the Fourier coefficients
    of the moments mu_m = tr(rho W^m), then (mu_0 +/- tr(rho V))/4. It always
    lands in the dual system, entrywise nonnegative for PSD densities.
    """
    if pair.k != k:
        raise OrderMismatchError(f"pair has order {pair.k}, expected {k}")
    n = pair.dim
    (density,) = _operands(f"density must be {n} x {n}", density, error=InvalidDensityError, n=n)
    if opnorm(density - dagger(density)) > SPEC_TOL:
        raise InvalidDensityError("density must be Hermitian")
    density = hermitize(density)
    eigs = np.linalg.eigvalsh(density)
    if eigs.min() < -PSD_CLAMP:
        raise InvalidDensityError(f"density has negative eigenvalue {eigs.min():.3e}")
    if abs(eigs.sum() - 1.0) > SPEC_TOL:
        raise InvalidDensityError(f"density trace {eigs.sum():.12f} differs from 1")

    if (d := _exact_diagonal(pair.w)) is None:
        moments = np.einsum("ij,mji->m", density, _basis_operators(pair))
    else:  # tr(rho W^m) = sum_i rho_ii d_i^m
        moments = np.diagonal(density) @ np.vander(d, k, increasing=True)
        moments = np.append(moments, (density * pair.v.T).sum())
    mu0, mu_v = moments[0], moments[k]
    z = DualTuple(k, np.append(fourier_coefficients(moments[:k]) / 2, [(mu0 + mu_v) / 4, (mu0 - mu_v) / 4]))
    require(functional_residuals(z), RelationCheckFailedError, "functional_to_tuple")
    return z


def scalar_positivity_prism(e: PrismElement) -> ScalarVerdict:
    """Exact positivity test at scalar level by vertex enumeration.

    The element is positive iff its evaluation at every extreme point
    (omega^j, sign) of the prism is >= 0; the margin is the minimum such
    value F c +/- g (ties to the first vertex in (j, sign) order), exact as
    the scalar-level states are convex combinations of vertex evaluations.
    """
    if e.q != 1:
        raise WrongLevelError(f"scalar test requires level q = 1, got q = {e.q}")
    if not e.is_selfadjoint():
        raise NotSelfadjointError("scalar positivity requires a selfadjoint element")
    base = fourier_values(e.c[:, 0, 0]).real
    gval = e.g[0, 0].real
    values = np.column_stack([base + gval, base - gval])
    j, side = np.unravel_index(np.argmin(values), values.shape)
    margin = float(values[j, side])
    return ScalarVerdict(margin >= -_LINEAR_TOL, margin, (int(j), 1 - 2 * int(side)))


def scalar_positivity_cube(alpha: float, beta) -> tuple[bool, float]:
    """Positivity of alpha + sum(beta_j u_j) in the cube system.

    Positive iff alpha >= sum |beta_j|; the worst vertex of the cube flips
    every coordinate against its coefficient. Non-finite data, or a margin
    that overflows, is refused.
    """
    margin = float(alpha) - float(np.abs(np.asarray(beta, dtype=float)).sum())
    if not math.isfinite(margin):
        raise ValueError(f"alpha and beta must be finite, as must their margin, got {margin}")
    return bool(margin >= -_LINEAR_TOL), margin


def element_distance(e1: PrismElement, e2: PrismElement) -> float:
    """Largest operator-norm distance between corresponding coefficient blocks."""
    if (e1.k, e1.q) != (e2.k, e2.q):
        raise ShapeMismatchError("elements live in different systems")
    return float(opnorms(e1.blocks - e2.blocks).max())


def min_eigenvalue(e: PrismElement, pair: RepPair) -> float:
    """Smallest eigenvalue of the evaluation of ``e`` at ``pair``."""
    return _floor(e.evaluate(pair))


def refuted_residuals(e: PrismElement, verdict: Refuted) -> list[Residual]:
    """The witness evaluation of ``e`` has an eigenvalue at or below -SPEC_TOL.
    The witness pair's own identities are ``reps.pair_residuals``."""
    return _refuted(e, verdict.witness)[1]


def _refuted(e: PrismElement, witness: RepPair) -> tuple[Refuted, list[Residual]]:
    """The verdict that ``witness`` refutes ``e`` and its residuals, from one
    evaluation of ``e`` at the witness."""
    low = min_eigenvalue(e, witness)
    return Refuted(witness, low), [("witness_min_eigenvalue", low, -SPEC_TOL)]


def certified_residuals(e: PrismElement, verdict: Certified) -> list[Residual]:
    """The lift maps onto ``e`` and its blocks are >= STRICT_MARGIN (less PSD_CLAMP)."""
    return _certified(e, verdict.lift)[1]


def _certified(e: PrismElement, lift: DiagTuple) -> tuple[Certified, list[Residual]]:
    """The verdict that ``lift`` certifies ``e`` and its residuals, from one
    image of the lift and one pass over its block eigenvalues."""
    low = lift.min_block_eigenvalue()
    distance = element_distance(psi_k(lift), e)
    return Certified(lift, low, distance), [
        ("lift_maps_to_element", distance, SPEC_TOL),
        ("lift_strictly_positive", STRICT_MARGIN - low, PSD_CLAMP),
    ]


def _particular_lift(stack: np.ndarray) -> np.ndarray:
    """A Hermitian preimage (alpha = 1 gauge) of the element with this stack: 1 + 2 sum_(m>0) omega^(jm) c_m,
    then 2 c_0 - 1 +/- 2 g. An element for which it overflows is refused (``ValueError``)."""
    k, eye = len(stack) - 1, np.eye(stack.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = 2.0 * stack[0] - eye
        xs = 2.0 * fourier_values(stack[:k]) - c0
        lift = hermitize(np.concatenate([xs, [c0 + 2.0 * stack[k], c0 - 2.0 * stack[k]]]))
    if not np.isfinite(lift).all():
        raise ValueError("the element's particular lift overflows: its entries are too large")
    return lift


def matrix_positivity_prism(e: PrismElement):
    """Three-valued positivity verdict for a selfadjoint element.

    Every lift x of ``e`` (the particular lift plus kernel (x) Y over
    Hermitian q x q Y) has e(omega^j, +/-1) = (x_j + x_+/-)/2, so the best
    lift floor t* is at most t_char, the least eigenvalue at the 2k
    characters. The scalar gauge Y = s 1 bounds it from below: with a and b
    the least eigenvalues of the particular lift's blocks x_j and x_+/-, the
    shift s* = (b - a)/2 lifts the floor to t_scalar = min(a + s*, b - s*).
    One batched ``eigvalsh`` of the k + 2 blocks and the 2k character sums
    gives the bracket t_scalar <= t* <= t_char, which decides without a solve:

    - t_char <= -SPEC_TOL: the 1 x 1 character at the first argmin in
      (j, sign) order, the tie rule of ``scalar_positivity_prism``, is the
      witness and the verdict is ``Refuted``. Should the evaluation of ``e``
      at that character come out above -SPEC_TOL (the two differ only by
      rounding), the solve below decides instead;
    - t_scalar >= STRICT_MARGIN: the shifted lift x + s* kernel (x) 1 has
      every block >= STRICT_MARGIN, and the verdict is ``Certified``;
    - t_scalar >= -SPEC_TOL and t_char < STRICT_MARGIN: the bracket lies
      inside the band (-SPEC_TOL, STRICT_MARGIN), and the verdict is
      ``Unknown``.

    At q = 1 the gauge is the whole kernel, t_scalar = t_char and the
    bracket always decides. At q >= 2, with (j, +/-) that binding character,
    the gauge Y = (x_+/- - x_j)/2 gives the midpoint lift, with the character
    value (x_j + x_+/-)/2 on both of those blocks, so its floor, taken by one
    more batched ``eigvalsh`` and capped at t_char against rounding, is
    t_mid <= t* <= t_char, and t_mid = t_char whenever the other k blocks
    keep some slack:

    - t_mid >= STRICT_MARGIN: the midpoint lift certifies;
    - t_mid >= -SPEC_TOL and t_char < STRICT_MARGIN: ``Unknown``, as above.

    Otherwise ``matkernel.lmi_floor`` brackets t* against the same band,
    over the system kept for (k, q) (:func:`_lift_system`):

    - t_lo >= STRICT_MARGIN: a lift with every block >= STRICT_MARGIN, and
      the verdict is ``Certified``;
    - t_hi < -SPEC_TOL: the solver's primal point is a matrix state that
      separates ``e`` from the positive cone, and its dilation
      (``_dual_witness``) is a representation at which ``e`` has an
      eigenvalue <= t_hi. The verdict is ``Refuted`` with that pair and its
      own lowest eigenvalue;
    - otherwise ``Unknown``.

    An ``Unknown`` residual is the shortfall STRICT_MARGIN - t_lo of the
    best lift found, and its reason gives the bracket [t_lo, t_hi] and
    whether it lies inside the band or the step cap stopped the solver.
    Both definite verdicts re-verify from their payloads alone. An element
    whose particular lift overflows is refused with a ``ValueError``.
    """
    if not e.is_selfadjoint():
        raise NotSelfadjointError("positivity requires a selfadjoint element")

    k = e.k
    base = _particular_lift(e.blocks)
    chars = ((base[:k, None] + base[None, k:]) / 2).reshape(2 * k, e.q, e.q)
    lows = np.linalg.eigvalsh(np.concatenate([base, chars])).min(axis=-1)
    a, b = lows[:k].min(), lows[k : k + 2].min()
    shift = (b - a) / 2
    t_scalar = float(min(a + shift, b - shift))
    index = int(np.argmin(lows[k + 2 :]))
    t_char = float(lows[k + 2 + index])
    j, side = divmod(index, 2)
    if t_char <= -SPEC_TOL:
        verdict, residuals = _refuted(e, prism_character(k, j, 1 - 2 * side))
        if verdict.min_eigenvalue <= -SPEC_TOL:
            require(residuals, RelationCheckFailedError, "refutation")
            return verdict
    elif t_scalar >= STRICT_MARGIN:
        return _certify(e, base + shift * _kernel(k)[:, None, None] * np.eye(e.q))
    elif t_char < STRICT_MARGIN and t_scalar >= -SPEC_TOL:
        return _unknown(t_scalar, t_char)
    middle = base + _kernel(k)[:, None, None] * ((base[k + side] - base[j]) / 2)
    t_mid = min(_floor(middle), t_char)
    if t_mid >= STRICT_MARGIN:
        return _certify(e, middle)
    if t_mid >= -SPEC_TOL and t_char < STRICT_MARGIN:
        return _unknown(t_mid, t_char)

    result = lmi_floor(base, _lift_system(k, e.q), (-SPEC_TOL, STRICT_MARGIN))
    if result.t_lo >= STRICT_MARGIN:
        return _certify(e, result.lift)
    if result.t_hi < -SPEC_TOL:
        verdict, residuals = _refuted(e, _dual_witness(result.x, k))
        require(residuals, RelationCheckFailedError, "refutation")
        return verdict
    inside = result.t_lo >= -SPEC_TOL and result.t_hi < STRICT_MARGIN
    return _unknown(result.t_lo, result.t_hi, None if inside else result.steps)


@constant(maxsize=8)
def _lift_system(k: int, q: int) -> FloorSystem:
    """The ``lmi_floor`` system of the level-q lifts through the quotient
    map, built once per (k, q) and read-only: its directions are the kernel
    vector tensored with ``hermitian_basis(q)``. An entry keeps the
    q^2 x (k + 2) x q x q direction stack and its constraints, about four
    copies of the stack: 6 kB at (3, 2), 0.2 MB at (8, 4) and 2.7 MB at
    (8, 8). At k <= 8 and q <= 4 the eight entries keep at most 1.4 MB."""
    return FloorSystem(_kernel(k)[:, None, None] * hermitian_basis(q)[:, None])


def _certify(e: PrismElement, blocks: np.ndarray) -> Certified:
    """``Certified`` with the lift ``blocks``, once its residuals pass."""
    verdict, residuals = _certified(e, DiagTuple(e.k, e.q, hermitize(blocks)))
    require(residuals, RelationCheckFailedError, "certificate")
    return verdict


def _unknown(t_lo: float, t_hi: float, steps: int | None = None) -> Unknown:
    """``Unknown`` for a bracket [t_lo, t_hi] on t*: inside the band, or left
    open by the solver after ``steps`` Newton steps."""
    bracket = f"[{t_lo:.3e}, {t_hi:.3e}]"
    if steps is None:
        found = f"the best lift's smallest block eigenvalue lies in {bracket}, inside the band"
    else:
        found = (
            f"undecided after {steps} Newton steps (step cap, stopping gap or "
            f"failed step), bracket {bracket}"
        )
    return Unknown(
        reason=f"no witness below -{SPEC_TOL:.0e} and no lift with blocks >= "
        f"{STRICT_MARGIN:.0e}: {found}",
        residual=STRICT_MARGIN - t_lo,
    )


# Eigenvalues of R at or below this fraction of its largest are outside the
# support on which the dual witness's effects are normalised.
_SUPPORT_CUT = 1e-12


def _dual_witness(x: np.ndarray, k: int) -> RepPair:
    """A representation built from a primal point x = (Z_0 .. Z_(k-1), Z_+, Z_-)
    of the lift solver: PSD blocks of total trace 1 with the kernel balance
    sum_j Z_j = Z_+ + Z_-.

    With R = sum_j Z_j^T, restricted to its support, the effects
    h_j = R^-1/2 Z_j^T R^-1/2 form a POVM with labels omega^j and
    b = R^-1/2 (Z_+ - Z_-)^T R^-1/2 is a Hermitian contraction; their joint
    dilation (W, V, G), of the Naimark dimension kr <= kq at the rank r of
    R, is the witness. Rounding in R^-1/2 can leave ||b|| a little above 1,
    so V is taken at b / max(1, ||b||), with no norm check, from one
    ``eigh`` of b. The vector xi = (1 (x) G R^1/2) Omega,
    Omega = sum_a e_a (x) e_a, has <xi, e(W, V) xi> = <base, x> ||xi||^2
    for every lift's base, so e(W, V) has an eigenvalue at most
    t_hi = <base, x>. The dilation checks its own identities, and the caller
    checks that eigenvalue.
    """
    # Imported here: positivity decided without a dilation (every q = 1
    # element) then loads neither dilation nor convexity.
    from .dilation import Povm, _dilate_povm, _unit_spectrum

    zt = np.swapaxes(x, -1, -2)
    lam, u = np.linalg.eigh(hermitize(zt[:k].sum(axis=0)))
    support = lam > _SUPPORT_CUT * lam.max()
    root = u[:, support] / np.sqrt(lam[support])
    parts = hermitize(dagger(root) @ zt @ root)
    b = parts[k] - parts[k + 1]
    povm = Povm(parts[:k], roots_of_unity(k).tolist())
    pair, _ = _dilate_povm(povm, b, _unit_spectrum(b, None), "dual_witness")
    return pair
