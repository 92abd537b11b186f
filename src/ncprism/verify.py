"""Seeded end-to-end invariant suite, exposed through the CLI.

Each check is a row of ``_CHECKS``: a name, a bound, and a seeded sampler that
builds constructions and yields their catalogue residual lists (the functions
their constructors require), or for the scalar positivity grid and
compression monotonicity a comparison kept here. A check reports the worst
residual seen, so a report line documents not just pass/fail but how much
slack remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convexity, dilation, opsys, reps
from .matkernel import (
    DEFAULT_TOL,
    ToleranceConfig,
    compress,
    dagger,
    hermitize,
    irreducibility_residual,
)

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    bound: float


def _halmos(rng, budget, tol):
    for _ in range(50):
        n = int(rng.integers(1, min(budget, 8) + 1))
        b = convexity.random_hermitian_contraction(rng, n)
        yield dilation.halmos_symmetry_residuals(b, dilation.halmos_symmetry(b, tol), tol)


def _mirman(rng, budget, tol):
    omega = np.exp(2j * np.pi / 3)
    for _ in range(25):
        big, small = 12, 4
        spectrum = np.array([omega ** int(rng.integers(0, 3)) for _ in range(big)])
        raw = rng.standard_normal((big, small)) + 1j * rng.standard_normal((big, small))
        z0, _ = np.linalg.qr(raw)
        a = dagger(z0) @ np.diag(spectrum) @ z0
        povm = dilation.triangle_povm(a, tol)
        yield dilation.povm_residuals(povm.effects, povm.outcome_labels, a, tol)
        yield dilation.naimark_residuals(povm, dilation.naimark_normal(povm, tol), tol)
        roots = np.abs(np.array(povm.outcome_labels) - omega ** np.arange(3)).max()
        yield [("labels_at_roots", float(roots), tol.spec_tol)]


def _joint(rng, budget, tol):
    for _ in range(25):
        n = int(rng.integers(1, min(budget, 6) + 1))
        a, b = convexity.random_prism_point(rng, n, 3)
        pair, g = dilation.joint_prism_dilation(a, b, 3, tol)
        yield [*reps.pair_residuals(pair, tol), *dilation.joint_residuals(a, b, pair, g, tol)]


def _square(rng, budget, tol):
    for lam in (0.0, 0.5, -0.5, 0.9, -0.9):
        st = reps.square_irrep(lam)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v1, v2 = (u @ m @ dagger(u) for m in st.mats)
        form = reps.two_symmetry_canonical_form(v1, v2, tol)
        recovered = abs(form.lambdas[0] - lam) if len(form.lambdas) == 1 else math.inf
        yield [
            irreducibility_residual(st.mats, tol),
            *reps.canonical_form_residuals(v1, v2, form, tol),
            ("coupling_recovered", recovered, tol.spec_tol),
        ]


def _hadamard(rng, budget, tol):
    for m in range(1, max(1, min(3, int(math.log2(max(2, budget))))) + 1):
        mats = reps.hadamard_symmetries(m).mats
        yield [*reps.hadamard_residuals(mats, tol), irreducibility_residual(mats, tol)]


def _group_pairs(rng, budget, tol):
    samples = [(reps.s3_pair(), reps.S3_RELATIONS, 2), (reps.a4_pair(), reps.A4_RELATIONS, 3)]
    if budget >= 5:
        samples.append((reps.steinberg_pair(5), (), 5))
    for pair, relations, dim in samples:
        yield [
            *reps.pair_residuals(pair, tol, relations),
            ("commutant_dimension_1", float(pair.commutant_dim - 1), 0.0),
            ("dimension", float(abs(pair.dim - dim)), 0.0),
        ]


def _vertices(rng, budget, tol):
    for k in (3, 4, 5):
        for j in range(k):
            for sign in (1, -1):
                yield reps.vertex_residuals(*reps.prism_vertex_rep(k, j, sign), j, sign, tol)


def _geometry(rng, budget, tol):
    for k in range(3, 65):
        yield convexity.geometry_residuals(k)
    theta = abs(convexity.theta_lower_bound(3) - 3.0 / (2.0 * math.sqrt(2.0)))
    cube = max(abs(convexity.cube_scaling_constant(d) - math.sqrt(d)) for d in (2, 3, 9))
    yield [("theta_lower_bound", theta, 1e-12), ("cube_scaling_constant", cube, 1e-12)]


def _quotient(rng, budget, tol):
    for k in (3, 4, 5):
        for q in (1, 2):
            yield opsys.quotient_residuals(k, q)


def _dual(rng, budget, tol):
    for _ in range(20):
        k = int(rng.choice([3, 4, 5]))
        j = int(rng.integers(0, k))
        pair, _ = reps.prism_vertex_rep(k, j, int(rng.choice([1, -1])))
        raw = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        rho = raw @ dagger(raw)
        rho = hermitize(rho / np.trace(rho).real)
        yield opsys.functional_residuals(opsys.functional_to_tuple(pair, rho, k, tol), tol)


def _positivity(rng, budget, tol):
    """The exact vertex margin against the evaluations on factory pairs."""
    pairs = [reps.prism_vertex_rep(3, j, s)[0] for j in range(3) for s in (1, -1)]
    pairs += [reps.s3_pair(), reps.a4_pair()]
    for cval in np.linspace(-0.8, 0.8, 3):
        for gval in np.linspace(-0.8, 0.8, 3):
            blocks = [np.array([[1.0]]), np.array([[cval]]), np.array([[cval]])]
            e = opsys.PrismElement(3, 1, blocks, np.array([[gval]]))
            sampled = min(opsys.min_eigenvalue(e, p) for p in pairs)
            margin = opsys.scalar_positivity_prism(e).margin
            yield [("margin_matches_samples", abs(sampled - margin), 1e-8)]


def _monotone(rng, budget, tol):
    prism = convexity.make_prism(3)
    for _ in range(20):
        n = int(rng.integers(2, min(budget, 6) + 1))
        a, b = convexity.random_prism_point(rng, n, 3)
        m = int(rng.integers(1, n))
        raw = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        z, _ = np.linalg.qr(raw)
        re, im = convexity.real_imag_parts(a)
        small = [compress(re, z, tol), compress(im, z, tol), compress(b, z, tol)]
        margin = convexity.max_member(small, prism, tol).margin
        yield [("compressed_margin", max(0.0, -margin), tol.spec_tol)]


# (name, bound on the worst residual, sampler). Each check draws from its own
# generator, seeded with seed + row index.
_CHECKS = [
    ("halmos_symmetry", 1e-8, _halmos),
    ("mirman_roundtrip", 1e-8, _mirman),
    ("joint_prism_dilation", 1e-8, _joint),
    ("square_classification", 1e-8, _square),
    ("hadamard_symmetries", 1e-8, _hadamard),
    ("group_pairs", 1e-10, _group_pairs),
    ("vertex_attainment", 1e-10, _vertices),
    ("scaling_geometry", 1e-12, _geometry),
    ("quotient_kernel_unit", 1e-12, _quotient),
    ("dual_embedding", 1e-10, _dual),
    ("scalar_positivity_grid", 1e-8, _positivity),
    ("compression_monotonicity", 1e-8, _monotone),
]


def run_all(
    size_budget: int = 8, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL
) -> list[CheckResult]:
    """Run every invariant check with a fresh seeded generator per check.
    Raises ValueError for size_budget < 1."""
    if size_budget < 1:
        raise ValueError(f"size_budget must be >= 1, got {size_budget}")
    results = []
    for i, (name, bound, sampler) in enumerate(_CHECKS):
        rng = np.random.default_rng(seed + i)
        residuals = sampler(rng, size_budget, tol)
        worst = max(value for sample in residuals for _, value, _ in sample)
        results.append(CheckResult(name, worst <= bound, worst, bound))
    return results
