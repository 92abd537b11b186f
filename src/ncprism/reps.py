"""Factories for explicit irreducible representations.

The generator images produced here are the noncommutative extreme points of
the cube and prism bodies: the one-parameter family of 2x2 symmetry pairs,
block-diagonal universal pairs, Hadamard symmetry tuples, prism vertex
representations, the S3/A4/PSL2(F_q) pairs of order (3, 2), their tensor
assemblies, and the canonical form of an arbitrary pair of symmetries.

Every constructor requires the residual functions defined beside it (orders
and relations, symmetries, Hadamard structure, vertex attainment,
canonical-form reconstruction) and raises rather than returning unverified
matrices. The S3, A4 and Steinberg pairs also certify irreducibility (the
first two by their presentation and one commutator row, the last by a
trace rule); tensor products record their commutant dimension. The
square and Hadamard constructors do not compute a commutant; their
irreducibility is checked by the consumers. A constructor records no row
that holds by construction, such as the symmetry rows of an exact sign
diagonal; the residual functions keep every row for re-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AssemblyFailedError,
    IndexOutOfRangeError,
    LambdaOutOfRangeError,
    NotSymmetryError,
    RelationCheckFailedError,
    SizeBudgetExceededError,
    OrderMismatchError,
    UnsupportedQError,
)
from .matkernel import (
    ALG_TOL,
    SPEC_TOL,
    Residual,
    _halmos_residuals,
    _operands,
    _require_order,
    commutant_dimension,
    constant,
    dagger,
    direct_sum,
    hermitize,
    opnorm,
    order_residuals,
    prefixed,
    require,
    symmetry_residuals,
)

if TYPE_CHECKING:
    from .finitefield import FiniteFieldSpec

__all__ = [
    "RepPair",
    "SymmetryTuple",
    "CanonicalForm",
    "square_irrep",
    "universal_square_pair",
    "two_symmetry_canonical_form",
    "hadamard_symmetries",
    "prism_vertex_rep",
    "prism_character",
    "s3_pair",
    "a4_pair",
    "steinberg_pair",
    "tensor_pair",
    "assemble_dimension",
    "generated_group_order",
    "pair_residuals",
    "symmetry_tuple_residuals",
    "hadamard_residuals",
    "vertex_residuals",
    "canonical_form_residuals",
    "S3_RELATIONS",
    "A4_RELATIONS",
]


@dataclass
class RepPair:
    """Images (W, V) of the order-(k, 2) generators under a representation."""

    w: np.ndarray
    v: np.ndarray
    k: int
    provenance: str = ""
    commutant_dim: int | None = None

    def __post_init__(self):
        self.w, self.v = _operands("W and V must be square of equal size", self.w, self.v)
        _require_order(self.k)

    @classmethod
    def _built(cls, w: np.ndarray, v: np.ndarray, k: int, provenance: str) -> RepPair:
        """The pair of the n x n complex arrays W and V that a constructor has
        written from operands already passed through :func:`_operands`, taken
        as they are: a second pass would only scan them again."""
        pair = object.__new__(cls)
        pair.w, pair.v, pair.k, pair.provenance, pair.commutant_dim = w, v, k, provenance, None
        return pair

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def pair_residuals(pair: RepPair, relations=()) -> list[Residual]:
    """W has order k and V order 2; each ``(name, residual_fn, bound)`` in
    ``relations`` adds ``residual_fn(W, V)`` under its name."""
    return [
        *prefixed("w_", order_residuals(pair.w, pair.k)),
        *prefixed("v_", order_residuals(pair.v, 2)),
        *((name, float(fn(pair.w, pair.v)), bound) for name, fn, bound in relations),
    ]


@dataclass
class SymmetryTuple:
    """A tuple of selfadjoint unitaries of common size."""

    mats: list[np.ndarray]
    provenance: str = ""

    def __post_init__(self):
        self.mats = _operands("entries must be square of equal size", *self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]


def symmetry_tuple_residuals(mats) -> list[Residual]:
    """Every entry is a symmetry; names carry the entry index."""
    return [r for i, m in enumerate(mats) for r in prefixed(f"s{i}_", symmetry_residuals(m))]


def _verified_tuple(first, second, provenance: str, rows) -> SymmetryTuple:
    """The pair of symmetries (first, second), with only the second checked
    by ``rows``: the first is an exact +-1 diagonal, a symmetry by
    construction, which :func:`symmetry_tuple_residuals` keeps for re-checks."""
    st = SymmetryTuple([first, second], provenance)
    require(prefixed("s1_", rows(st.mats[1])), NotSymmetryError, provenance)
    return st


@dataclass
class CanonicalForm:
    """Joint canonical form of a pair of symmetries.

    ``lambdas`` lists the couplings of the irreducible 2x2 blocks
    (diag(-1, 1), [[l, sqrt(1-l^2)], [sqrt(1-l^2), -l]]); ``char_counts``
    gives the multiplicities of the joint eigencases in the fixed order
    (+1,+1), (+1,-1), (-1,+1), (-1,-1). ``conjugator`` is the unitary with
    conjugator @ canonical @ conjugator* equal to the input pair.
    """

    lambdas: list[float]
    char_counts: tuple[int, int, int, int]
    conjugator: np.ndarray
    _char_cases = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    @property
    def dim(self) -> int:
        return 2 * len(self.lambdas) + sum(self.char_counts)

    def canonical_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The block-diagonal model matrices (V1, V2) in canonical order."""
        blocks1 = [np.diag([-1.0, 1.0])] * len(self.lambdas)
        blocks2 = [_lambda_block(lam) for lam in self.lambdas]
        for (s1, s2), count in zip(self._char_cases, self.char_counts):
            for _ in range(count):
                blocks1.append(np.array([[float(s1)]]))
                blocks2.append(np.array([[float(s2)]]))
        return direct_sum(*blocks1), direct_sum(*blocks2)


def _lambda_block(lam: float) -> np.ndarray:
    mu = math.sqrt(max(0.0, 1.0 - lam * lam))
    return np.array([[lam, mu], [mu, -lam]], dtype=complex)


def square_irrep(lam: float) -> SymmetryTuple:
    """The 2-dimensional irreducible symmetry pair with coupling ``lam``.

    Returns u1 = diag(-1, 1) and u2 = [[l, sqrt(1-l^2)], [sqrt(1-l^2), -l]],
    in the Halmos form [[P, Q], [Q, -P]] (checked from its upper row), for l
    strictly inside (-1, 1); at |l| = 1 the pair degenerates to commuting
    multiples of u1 and is rejected.
    """
    if not -1.0 < lam < 1.0:
        raise LambdaOutOfRangeError(
            f"lambda must lie strictly in (-1, 1), got {lam}"
        )
    u1 = np.diag([-1.0, 1.0]).astype(complex)
    return _verified_tuple(u1, _lambda_block(lam), f"square_irrep(lambda={lam})", _halmos_residuals)


def universal_square_pair(lambdas) -> SymmetryTuple:
    """Block-diagonal symmetry pair over a finite coupling grid.

    ``lambdas`` must start with 1 and stay inside (-1, 1]; the direct sum of
    the corresponding 2x2 blocks is a finite truncation of the universal
    free pair of symmetries.
    """
    lambdas = [float(x) for x in lambdas]
    if not lambdas:
        raise LambdaOutOfRangeError("lambdas must be nonempty")
    if lambdas[0] != 1.0:
        raise LambdaOutOfRangeError(f"leading coupling must be 1, got {lambdas[0]}")
    for lam in lambdas:
        if not -1.0 < lam <= 1.0:
            raise LambdaOutOfRangeError(f"coupling {lam} outside (-1, 1]")
    big1 = direct_sum(*[np.diag([-1.0, 1.0])] * len(lambdas))
    big2 = direct_sum(*[_lambda_block(lam) for lam in lambdas])
    return _verified_tuple(big1, big2, f"universal_square_pair(n={len(lambdas)})", symmetry_residuals)


def two_symmetry_canonical_form(v1, v2) -> CanonicalForm:
    """Decompose a pair of symmetries into 2x2 couplings plus characters.

    With p = (1 + v1)/2 and q = (1 + v2)/2, the eigenvectors x of p q p on
    range(p), with eigenvalues t, classify the pair by their coupling
    c = ||(1 - p) q x|| = sqrt(t (1 - t)), the off-diagonal entry 2c of v2
    that a joint eigenvector would drop: c <= SPEC_TOL / 4 gives a character
    (+1 if t > 1/2, else -1 for v2), and any larger c an irreducible 2x2
    block whose coupling satisfies (1 - coupling)/2 = t. The eigenvectors of
    (1 - p) q (1 - p) on range(1 - p) are classified alike by ||p q x||;
    those that are not characters belong to the blocks. Near t = 0 or 1 the
    coupling is taken from the vectors, not from t, whose rounding would
    dominate sqrt(t). The returned conjugator reconstructs the input from
    the canonical pair.
    """
    v1, v2 = _operands("the two symmetries must be square of equal size", v1, v2)
    require(symmetry_tuple_residuals([v1, v2]), NotSymmetryError, "canonical form input")
    n = v1.shape[0]
    cut = SPEC_TOL / 4.0

    w1, u1vecs = np.linalg.eigh(hermitize(v1))
    plus = u1vecs[:, w1 > 0.0]
    minus = u1vecs[:, w1 <= 0.0]
    q = (np.eye(n) + hermitize(v2)) / 2.0

    lambdas: list[float] = []
    pairs: list[tuple[float, np.ndarray, np.ndarray]] = []
    chars = {case: [] for case in CanonicalForm._char_cases}

    for sign, inside, outside in ((1, plus, minus), (-1, minus, plus)):
        tvals, tvecs = np.linalg.eigh(hermitize(dagger(inside) @ q @ inside))
        xs = inside @ tvecs
        across = outside @ (dagger(outside) @ (q @ xs))
        couplings = np.linalg.norm(across, axis=0)
        for t, x, y, c in zip(tvals, xs.T, across.T, couplings):
            if c <= cut:
                chars[(sign, 1 if t > 0.5 else -1)].append(x)
            elif sign == 1:
                pairs.append((1.0 - 2.0 * float(t), y / c, x))
            # Coupled vectors of range(1 - p) belong to the blocks found above.

    pairs.sort(key=lambda item: item[0])
    columns = []
    for lam, y, x in pairs:
        lambdas.append(lam)
        columns.extend([y, x])
    char_counts = []
    for case in CanonicalForm._char_cases:
        char_counts.append(len(chars[case]))
        columns.extend(chars[case])

    if 2 * len(lambdas) + sum(char_counts) != n:
        raise RelationCheckFailedError(
            "eigenvalue clustering is inconsistent; blocks do not fill the space "
            f"(2*{len(lambdas)} + {sum(char_counts)} != {n})"
        )

    conj = np.column_stack(columns) if columns else np.zeros((n, 0), dtype=complex)
    form = CanonicalForm(lambdas, tuple(char_counts), conj)
    require(canonical_form_residuals(v1, v2, form), RelationCheckFailedError, "canonical form")
    return form


def canonical_form_residuals(v1, v2, form: CanonicalForm) -> list[Residual]:
    """The conjugator carries the canonical pair back to (v1, v2)."""
    u = form.conjugator
    c1, c2 = form.canonical_pair()
    err = max(opnorm(u @ c1 @ dagger(u) - v1), opnorm(u @ c2 @ dagger(u) - v2))
    return [("reconstruction", err, SPEC_TOL)]


# The largest dimension 2^m that hadamard_symmetries builds: its m + 1 dense
# complex matrices then take m + 1 times 256 MiB.
_HADAMARD_MAX_DIM = 4096


def hadamard_symmetries(m: int) -> SymmetryTuple:
    """m+1 irreducible symmetries in dimension 2^m, the first m commuting.

    A_0..A_{m-1} are diagonal with entries (-1)**(i-th binary digit of the
    index); A_m, the normalized m-fold tensor power of the 2x2 Hadamard
    matrix, is exactly [[h', h'], [h', -h']], in the Halmos form. Only
    diagonal matrices commute with the first m, and only scalars commute
    with all m+1. A dimension above ``_HADAMARD_MAX_DIM`` raises
    ``SizeBudgetExceededError`` before anything is built.
    """
    if m < 1:
        raise IndexOutOfRangeError(f"m must be >= 1, got {m}")
    n = 2**m
    if n > _HADAMARD_MAX_DIM:
        raise SizeBudgetExceededError(f"dimension 2^{m} exceeds budget {_HADAMARD_MAX_DIM}")
    mats = []
    idx = np.arange(n)
    for i in range(m):
        digits = (idx >> i) & 1
        mats.append(np.diag((-1.0) ** digits).astype(complex))
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    h = np.array([[1.0]])
    for _ in range(m):
        h = np.kron(h, h2)
    mats.append((h / math.sqrt(n)).astype(complex))
    st = SymmetryTuple(mats, provenance=f"hadamard_symmetries(m={m})")
    # The heads are exact sign diagonals and the last entry an exactly
    # symmetric real matrix: only its square can miss, taken from its upper
    # block row (hadamard_residuals keeps the other rows for re-checks).
    squares = _halmos_residuals(st.mats[-1])[1:]
    require(prefixed(f"s{m}_", squares), NotSymmetryError, st.provenance)
    return st


def hadamard_residuals(mats) -> list[Residual]:
    """The entries other than the last (none in a one-entry tuple) are
    diagonal sign matrices, hence commuting symmetries (checked entrywise in
    O(n^2) each), and the last is a symmetry. Each diagonal entry is compared with +-1 by the sign of its
    real part, never with 0, so a zero entry is 1 away."""
    mats = _operands("hadamard tuple entries must be square of equal size", *mats)
    heads = (np.abs(a - np.diag(np.copysign(1.0, a.diagonal().real))).max() for a in mats[:-1])
    signs = max(heads, default=0.0)
    return [
        ("heads_diagonal_signs", float(signs), ALG_TOL),
        *prefixed(f"s{len(mats) - 1}_", symmetry_residuals(mats[-1])),
    ]


def cyclic_shift(k: int) -> np.ndarray:
    """The k x k cyclic shift sending e_1 -> e_k, e_2 -> e_1, ..., e_k -> e_{k-1}."""
    u = np.zeros((k, k), dtype=complex)
    for c in range(k):
        u[(c - 1) % k, c] = 1.0
    return u


def prism_vertex_rep(k: int, j: int, sign: int) -> tuple[RepPair, np.ndarray]:
    """Vertex representation attaining the extreme point (omega^j, sign).

    W is omega^j times the cyclic shift, V is sign times the (1 2) swap
    padded by the identity, and the returned unit vector is a common
    eigenvector whose vector state evaluates the pair to the vertex.
    """
    if k < 3:
        raise IndexOutOfRangeError(f"k must be >= 3, got {k}")
    if not 0 <= j < k:
        raise IndexOutOfRangeError(f"vertex index j={j} outside 0..{k - 1}")
    if sign not in (1, -1):
        raise IndexOutOfRangeError(f"sign must be +1 or -1, got {sign}")
    w = np.exp(2j * np.pi * (j / k)) * cyclic_shift(k)  # roots_of_unity(k)[j], bit for bit
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = sign * direct_sum(swap, np.eye(k - 2))
    xi = np.ones(k, dtype=complex) / math.sqrt(k)
    pair = RepPair(w, v, k, provenance=f"prism_vertex_rep(k={k}, j={j}, sign={sign:+d})")
    # V is an exact signed swap, so only W's rows can move (pair_residuals
    # keeps V's for re-checks).
    residuals = [*prefixed("w_", order_residuals(pair.w, k)), *vertex_residuals(pair, xi, j, sign)]
    require(residuals, RelationCheckFailedError, pair.provenance)
    return pair, xi


def prism_character(k: int, j: int, sign: int) -> RepPair:
    """The 1 x 1 pair W = omega^j, V = sign: the extreme point (omega^j, sign).

    Each call returns a pair of its own, with the provenance under which
    :func:`_checked_character` required its :func:`pair_residuals`."""
    provenance = _checked_character(k, j, sign)
    return RepPair(np.exp(2j * np.pi * (j / k)), sign, k, provenance, commutant_dim=1)


@constant(maxsize=256)
def _checked_character(k: int, j: int, sign: int) -> str:
    """The provenance ``character(k=.., j=.., sign=..)``, once the character's
    :func:`pair_residuals` have passed ``require`` under it."""
    provenance = f"character(k={k}, j={j}, sign={sign:+d})"
    pair = RepPair(np.exp(2j * np.pi * (j / k)), sign, k)
    require(pair_residuals(pair), RelationCheckFailedError, provenance)
    return provenance


def vertex_residuals(pair: RepPair, xi, j: int, sign: int) -> list[Residual]:
    """The vector state of ``xi`` maps (W, V) to the vertex (omega^j, sign)."""
    wval = complex(np.vdot(xi, pair.w @ xi))
    vval = complex(np.vdot(xi, pair.v @ xi))
    angle = 2 * math.pi * j / pair.k
    attained = np.array([wval.real, wval.imag, vval.real])
    target = np.array([math.cos(angle), math.sin(angle), float(sign)])
    error = float(np.linalg.norm(attained - target) + abs(vval.imag))
    return [("vertex_attained", error, ALG_TOL)]


_GROUP_MAX_ORDER = 720


def generated_group_order(generators) -> int:
    """Order of the matrix group generated by the given unitaries.

    Closure enumeration; a candidate is new unless it lies within SPEC_TOL
    of a known element in operator norm. Known elements sit in buckets keyed
    on one rounded linear functional of their entries, with unit Frobenius
    weights and bucket width 2 sqrt(n) SPEC_TOL. Two elements within
    SPEC_TOL differ by at most sqrt(n) SPEC_TOL in that functional, so a
    candidate is compared only with the elements of its own bucket and the
    two adjacent ones. Raises RelationCheckFailedError if the closure
    exceeds ``_GROUP_MAX_ORDER`` elements.
    """
    gens = _operands("generators must be square of equal size", *generators)
    n = gens[0].shape[0]
    weights = np.random.default_rng(0).standard_normal((n, n))
    weights /= np.linalg.norm(weights)
    width = 2.0 * math.sqrt(n) * SPEC_TOL
    buckets: dict[int, list[np.ndarray]] = {}

    def is_new(candidate) -> bool:
        """True, with the candidate filed, unless a known element is within SPEC_TOL."""
        key = math.floor(float(np.vdot(weights, candidate).real) / width)
        near = (e for k in (key - 1, key, key + 1) for e in buckets.get(k, ()))
        if any(opnorm(candidate - e) <= SPEC_TOL for e in near):
            return False
        buckets.setdefault(key, []).append(candidate)
        return True

    identity = np.eye(n, dtype=complex)
    is_new(identity)
    order, frontier = 1, [identity]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gens:
                candidate = e @ g
                if is_new(candidate):
                    new_frontier.append(candidate)
                    order += 1
                    if order > _GROUP_MAX_ORDER:
                        raise RelationCheckFailedError(
                            f"group closure exceeded {_GROUP_MAX_ORDER} elements"
                        )
        frontier = new_frontier
    return order


def _verified_pair(w, v, k: int, provenance: str, relations) -> RepPair:
    """Build a RepPair and check its orders and the rows of ``relations``,
    which certify irreducibility (see :data:`S3_RELATIONS` and
    :func:`steinberg_pair`)."""
    pair = RepPair(w, v, k, provenance=provenance)
    require(pair_residuals(pair, relations), RelationCheckFailedError, provenance)
    pair.commutant_dim = 1
    return pair


# The commutator row of the S3 and A4 certificates (see S3_RELATIONS).
_NONCOMMUTING = ("||WV - VW||_F >= 1", lambda w, v: 1.0 - float(np.linalg.norm(w @ v - v @ w)), 0.0)

S3_RELATIONS = (("VWV = W^-1", lambda w, v: opnorm(v @ w @ v - w @ w), ALG_TOL), _NONCOMMUTING)
"""The S3 relation (VW)^2 = 1 and the commutator row, as ``(name, residual
of (W, V), bound)`` rows for :func:`pair_residuals`; with the orders they
certify an irreducible S3 pair with no commutant solve.

With W^3 = V^2 = 1, (VW)^2 = 1 presents S3 and (WV)^3 = 1 presents A4
(Coxeter and Moser, "Generators and Relations for Discrete Groups", 1957).
The orders and the relation, each met within its tolerance, put (W, V)
within O(ALG_TOL) of a true unitary representation of the group (Kazhdan
1982, "On epsilon-representations": near-representations of a finite group
are near true ones). Every proper quotient of S3 or A4 is abelian, so a
representation with a proper image has WV = VW; and every reducible
representation of dimension 2 (S3) or 3 (A4) is a sum of characters, so it
commutes too. The irreducible one has ||WV - VW||_F = sqrt(6) (S3) or
2 sqrt(2) (A4), a unitary invariant. So the row 1 - ||WV - VW||_F <= 0
separates the irreducible pair, and fixes its group, with a margin far
above the tolerances; no group closure is enumerated."""
A4_RELATIONS = (("WVW = VW^2V", lambda w, v: opnorm(w @ v @ w - v @ w @ w @ v), ALG_TOL), _NONCOMMUTING)
"""The A4 relation (WV)^3 = 1, written WVW = VW^2V, and the commutator row
(see :data:`S3_RELATIONS`)."""


def s3_pair() -> RepPair:
    """The 2-dimensional pair of order (3, 2) with V W V = W^{-1}.

    W is the rotation by 2*pi/3 and V the reflection diag(1, -1); together
    they generate S3 acting irreducibly (see :data:`S3_RELATIONS`).
    """
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    w = np.array([[c, -s], [s, c]], dtype=complex)
    v = np.diag([1.0, -1.0]).astype(complex)
    return _verified_pair(w, v, 3, "s3_pair", S3_RELATIONS)


def a4_pair() -> RepPair:
    """The 3-dimensional pair of order (3, 2) with W V W = V W^2 V.

    W cyclically permutes the coordinate axes and V flips two of them;
    together they generate A4 acting irreducibly (see :data:`S3_RELATIONS`).
    """
    w = np.zeros((3, 3), dtype=complex)
    w[1, 0] = w[2, 1] = w[0, 2] = 1.0
    v = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    return _verified_pair(w, v, 3, "a4_pair", A4_RELATIONS)


# The largest dimension steinberg_pair and assemble_dimension build. The
# Steinberg pair takes 0.03 s at q = 257, 0.09 s at q = 383 and 0.22 s at
# q = 512 (one BLAS thread, 2-vCPU host), mostly the compression and the
# order checks; the compression gathers columns and takes one product per
# generator.
_PAIR_MAX_DIM = 512


def steinberg_pair(q: int, field: FiniteFieldSpec | None = None) -> RepPair:
    """The q-dimensional pair of order (3, 2) from PSL2(F_q) on P^1(F_q).

    Permutes the q+1 projective points by an order-3 element U and an
    involution V generating PSL2(F_q), then compresses the permutation
    matrices to the orthogonal complement of the all-ones vector.

    U = [[0, -1], [1, -1]] is the companion matrix of t^2 + t + 1, and V is
    the first trace-zero element of :func:`sl2_involutions` that
    :func:`~ncprism.finitefield.generates_psl2` accepts. For prime q that is
    the first candidate, ((0, 1), (-1, 0)): -1 times the mod-p reduction
    [[0, -1], [1, 0]] of the modular-group involution, so it induces the same
    permutation. One argument both picks V and
    certifies the pair, recorded as the row ``generates_psl2`` with bound 0:
    by Macbeath's trace classification and Dickson's list of the subgroups,
    <U, V> is all of PSL2(F_q). That group acts 2-transitively on P^1(F_q),
    so it has rank 2 and its permutation module is the trivial module plus
    one irreducible module (Burnside; Isaacs, "Character Theory of Finite
    Groups", Cor. 5.17): the compression is irreducible, and the pair
    records commutant_dim = 1 with no commutant solve.

    PSL2(F_9) is not generated by any order-(3, 2) pair and is rejected, as
    are q <= 3 and any q that is not a prime power. A q above
    ``_PAIR_MAX_DIM`` raises ``SizeBudgetExceededError`` before any field or
    matrix is built.
    """
    if q > _PAIR_MAX_DIM:
        raise SizeBudgetExceededError(f"dimension q = {q} exceeds budget {_PAIR_MAX_DIM}")
    # Imported here: only the Steinberg pairs need the field arithmetic.
    from .finitefield import (
        FiniteFieldSpec, GaloisField, factor_prime_power, generates_psl2, projective_action, sl2_involutions,
    )

    try:
        p, e = factor_prime_power(q)
    except ValueError as exc:
        raise UnsupportedQError(str(exc)) from exc
    if q <= 3 or q == 9:
        raise UnsupportedQError(
            f"q = {q} is unsupported: no order-(3, 2) generating pair exists "
            "(q = 9) or the group is not simple (q <= 3)"
        )
    if field is None:
        field = FiniteFieldSpec(p, e)
    if field.q != q:
        raise ValueError(f"field spec describes F_{field.q}, expected F_{q}")
    gf = GaloisField(field)
    v = next((c for c in sl2_involutions(gf) if generates_psl2(gf, c)), None)
    if v is None:
        raise UnsupportedQError(
            f"no involution generating PSL2(F_{q}) together with the "
            "order-3 element was found"
        )
    perm_u = projective_action(gf, ((0, -1), (1, -1)))
    perm_v = projective_action(gf, v)

    # Column src of the permutation matrix P is e_perm[src], so Z* P = Z*[:, perm].
    qmat, _ = np.linalg.qr(np.ones((q + 1, 1)), mode="complete")
    z = qmat[:, 1:].astype(complex)
    zh = dagger(z)
    # The walk ends only on an involution the rule accepts.
    generates = (("generates_psl2", lambda w, v: 0.0, 0.0),)
    return _verified_pair(zh[:, perm_u] @ z, zh[:, perm_v] @ z, 3, f"steinberg_pair(q={q})", generates)


def tensor_pair(p1: RepPair, p2: RepPair) -> RepPair:
    """Tensor product of two pairs of equal generator order.

    Orders are preserved. The commutant dimension of the product is
    computed and recorded rather than assumed to be 1.
    """
    if p1.k != p2.k:
        raise OrderMismatchError(f"cannot tensor orders k={p1.k} and k={p2.k}")
    pair = RepPair(
        np.kron(p1.w, p2.w),
        np.kron(p1.v, p2.v),
        p1.k,
        provenance=f"tensor({p1.provenance}, {p2.provenance})",
    )
    require(pair_residuals(pair), RelationCheckFailedError, pair.provenance)
    pair.commutant_dim, _ = commutant_dimension([pair.w, pair.v])
    pair.provenance += f"[commutant_dim={pair.commutant_dim}]"
    return pair


def assemble_dimension(n: int) -> RepPair:
    """A pair of order (3, 2) in dimension n, built from prime-power blocks.

    Dimension 1 is the trivial character, 2 the S3 pair, 3 the A4 pair,
    prime powers q > 3 (q != 9) the Steinberg pair, and composite n the
    tensor product over the prime-power factorization. A factor equal to 9
    has no building block here and raises AssemblyFailedError before any
    block is built. The result records its commutant dimension: 1 for a
    single block, and the one ``tensor_pair`` computes for a product. A
    dimension above ``_PAIR_MAX_DIM`` raises ``SizeBudgetExceededError``
    before any block is built.
    """
    if n < 1:
        raise IndexOutOfRangeError(f"dimension must be >= 1, got {n}")
    if n > _PAIR_MAX_DIM:
        raise SizeBudgetExceededError(f"dimension {n} exceeds budget {_PAIR_MAX_DIM}")
    if n == 1:
        return prism_character(3, 0, 1)

    from .finitefield import prime_factors

    factors = sorted(p**e for p, e in prime_factors(n))
    if 9 in factors:
        raise AssemblyFailedError(
            f"dimension {n} requires a block of dimension 9, for which the "
            "projective-line construction is unavailable (q = 9 is rejected)"
        )
    blocks = [s3_pair() if f == 2 else a4_pair() if f == 3 else steinberg_pair(f) for f in factors]

    pair = blocks[0]
    for nxt in blocks[1:]:
        pair = tensor_pair(pair, nxt)
    return pair
