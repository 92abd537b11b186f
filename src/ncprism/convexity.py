"""Membership tests for max-type matrix convex sets and scaling geometry.

A Hermitian tuple belongs to the maximal matrix convex set over a polytope
exactly when its joint numerical range satisfies every facet inequality,
which reduces membership at any level to finitely many largest-eigenvalue
computations. This module builds the cube and prism polytopes, decides
membership, and evaluates the closed-form scaling constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .matkernel import (
    SPEC_TOL,
    Residual,
    _operands,
    constant,
    hermitize,
    opnorm,
    require,
    support_values,
)

__all__ = [
    "PolytopeSpec",
    "MembershipResult",
    "make_polygon",
    "make_prism",
    "make_cube",
    "max_member",
    "prism_member",
    "incircle_radius",
    "circumnorm",
    "theta_lower_bound",
    "cube_scaling_constant",
    "real_imag_parts",
    "random_prism_point",
    "random_hermitian_contraction",
    "polytope_residuals",
]

_GEOM_TOL = 1e-12


@dataclass(frozen=True)
class PolytopeSpec:
    """Vertices and facet half-planes {x : <normal, x> <= offset} of a polytope,
    kept as read-only views and checked by :func:`polytope_residuals`."""

    ambient_dim: int
    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    name: str = ""

    def __post_init__(self):
        for name in ("vertices", "normals", "offsets"):
            array = np.asarray(getattr(self, name), dtype=float).view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.vertices.shape[1] != self.ambient_dim:
            raise ShapeMismatchError("vertex dimension differs from ambient dimension")
        if self.normals.shape[1] != self.ambient_dim:
            raise ShapeMismatchError("facet dimension differs from ambient dimension")
        require(polytope_residuals(self), ValueError, self.name)


# polytope_residuals takes the vertices x facets product this many vertex
# rows at a time, so that its memory stays bounded at large k; every prism
# with k <= 128 and every cube with d <= 8 is one block.
_VERTEX_ROWS = 256


def polytope_residuals(spec: PolytopeSpec) -> list[Residual]:
    """Facet normals are unit vectors and every vertex satisfies every facet."""
    norms = np.linalg.norm(spec.normals, axis=1)
    worst = max(
        float((spec.vertices[i : i + _VERTEX_ROWS] @ spec.normals.T - spec.offsets).max())
        for i in range(0, len(spec.vertices), _VERTEX_ROWS)
    )
    return [
        ("unit_normals", float(np.abs(norms - 1.0).max()), _GEOM_TOL),
        ("vertices_within_facets", max(0.0, worst), _GEOM_TOL),
    ]


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a facet-by-facet membership test.

    ``margin`` is the smallest facet slack (offset minus support value);
    membership holds when it is >= -SPEC_TOL. The worst facet is reported
    for diagnostics.
    """

    member: bool
    margin: float
    facet_index: int
    normal: np.ndarray
    offset: float
    support: float

    def __bool__(self) -> bool:
        return self.member


def _check_polygon(k: int) -> None:
    if k < 3:
        raise ValueError(f"polygon needs k >= 3, got {k}")


@constant(maxsize=32)
def make_polygon(k: int) -> PolytopeSpec:
    """Convex hull of the k-th roots of unity in the plane: one object per k,
    kept by ``matkernel.constant``, and every call reports its self-check."""
    _check_polygon(k)
    angles = 2.0 * np.pi * np.arange(k) / k
    vertices = np.column_stack([np.cos(angles), np.sin(angles)])
    mid = (2.0 * np.arange(k) + 1.0) * np.pi / k
    normals = np.column_stack([np.cos(mid), np.sin(mid)])
    offsets = np.full(k, math.cos(math.pi / k))
    return PolytopeSpec(2, vertices, normals, offsets, name=f"polygon:{k}")


@constant(maxsize=32)
def make_prism(k: int) -> PolytopeSpec:
    """The prism Conv(C_k) x [-1, 1]: 2k vertices, k side facets plus 2 caps.

    One object per k, kept by ``matkernel.constant``: each call reports the
    rows of the prism's self-check and of :func:`make_polygon`'s, as the
    first call did, and a second call builds and checks nothing."""
    polygon = make_polygon(k)
    top = np.column_stack([polygon.vertices, np.ones(k)])
    bottom = np.column_stack([polygon.vertices, -np.ones(k)])
    vertices = np.vstack([top, bottom])
    side_normals = np.column_stack([polygon.normals, np.zeros(k)])
    cap_normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    normals = np.vstack([side_normals, cap_normals])
    offsets = np.concatenate([polygon.offsets, [1.0, 1.0]])
    return PolytopeSpec(3, vertices, normals, offsets, name=f"prism:{k}")


def make_cube(d: int) -> PolytopeSpec:
    """The cube [-1, 1]^d: 2^d vertices and 2d facets."""
    if d < 1:
        raise ValueError(f"cube needs d >= 1, got {d}")
    grids = np.meshgrid(*([np.array([-1.0, 1.0])] * d), indexing="ij")
    vertices = np.column_stack([g.ravel() for g in grids])
    normals = np.vstack([np.eye(d), -np.eye(d)])
    offsets = np.ones(2 * d)
    return PolytopeSpec(d, vertices, normals, offsets, name=f"cube:{d}")


def max_member(mats, polytope: PolytopeSpec) -> MembershipResult:
    """Decide membership of a Hermitian tuple in the maximal set over a polytope.

    Exact for polytopes: the joint numerical range is convex and compact,
    so it lies inside the body iff every facet support inequality
    support_value(mats, normal) <= offset holds (within SPEC_TOL). One call
    to ``support_values`` evaluates every facet. The reported facet is the
    first, in facet order, whose slack is within rounding of the least (a
    few eps times |offset| + |support|), so exactly tied facets name the first
    of them; the margin is the least slack.
    """
    # support_values takes the entries through the operand rule, which also
    # names an empty tuple.
    if 0 < len(mats) != polytope.ambient_dim:
        raise ShapeMismatchError(
            f"tuple has {len(mats)} entries, polytope is {polytope.ambient_dim}-dimensional"
        )
    supports = support_values(mats, polytope.normals)
    slacks = polytope.offsets - supports
    margin = float(slacks.min())
    tie = 8 * np.finfo(float).eps * (np.abs(polytope.offsets) + np.abs(supports))
    worst = int(np.argmax(slacks <= margin + tie))
    return MembershipResult(
        member=bool(margin >= -SPEC_TOL),
        margin=margin,
        facet_index=worst,
        normal=polytope.normals[worst].copy(),
        offset=float(polytope.offsets[worst]),
        support=float(supports[worst]),
    )


def real_imag_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian real and imaginary parts of a square operator."""
    (a,) = _operands("real and imaginary parts need a square matrix", a)
    return hermitize(a), hermitize(a / 1j)


def prism_member(a, b, k: int) -> MembershipResult:
    """Membership of (a, b) in the maximal prism set at its level.

    Tests the triple (Re a, Im a, b) against the facets of the k-prism; for
    this product polytope that amounts to W(a) inside Conv(C_k) together
    with ||b|| <= 1.
    """
    re, im = real_imag_parts(a)
    (b,) = _operands(f"b must be {len(re)} x {len(re)}, as a is", b, n=len(re))
    return max_member([re, im, b], make_prism(k))


def incircle_radius(k: int) -> float:
    """Incircle radius cos(pi/k) of Conv(C_k), the offset of its facets."""
    _check_polygon(k)
    return math.cos(math.pi / k)


def circumnorm(k: int) -> float:
    """Largest vertex norm of the k-prism: always sqrt(2)."""
    _check_polygon(k)
    return math.sqrt(2.0)


def theta_lower_bound(k: int) -> float:
    """Lower bound (3/sqrt(2)) cos(pi/k) for the minimal prism scaling constant."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    return 3.0 / math.sqrt(2.0) * math.cos(math.pi / k)


def cube_scaling_constant(d: int) -> float:
    """The minimal scaling constant sqrt(d) for the d-cube (reported, not searched)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return math.sqrt(d)


def random_hermitian_contraction(rng: np.random.Generator, n: int, scale=None) -> np.ndarray:
    """A random Hermitian matrix rescaled to norm ``scale`` (uniform in [0, 1] if None)."""
    h = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    norm = opnorm(h)
    if norm == 0:
        return h
    return h / norm * (scale if scale is not None else rng.uniform(0.0, 1.0))


def random_prism_point(
    rng: np.random.Generator, n: int, k: int = 3, scale: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """A random pair (a, b) at level n inside the maximal k-prism set.

    ``a`` is a random operator shrunk until its numerical range sits inside
    Conv(C_k); ``b`` is a random Hermitian contraction. ``scale``, if given,
    fixes the shrink factor relative to the boundary (1.0 touches it).
    """
    polygon = make_polygon(k)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    re, im = real_imag_parts(raw)
    reach = float((support_values([re, im], polygon.normals) / polygon.offsets).max())
    factor = scale if scale is not None else rng.uniform(0.0, 1.0)
    a = raw * (factor / reach) if reach > 0 else raw
    return a, random_hermitian_contraction(rng, n, scale)
