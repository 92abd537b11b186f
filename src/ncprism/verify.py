"""Seeded end-to-end invariant suite, exposed through the CLI.

Each check is a row of ``_CHECKS``: a name, a bound, and a seeded sampler that
builds constructions inside a ``matkernel.measured`` block, so that every
residual their constructors require is recorded. A sampler returns residuals
of its own only for what no constructor checks: the recovered coupling, the
quotient map, irreducibility of the square and Hadamard families, the scalar
positivity grid and compression monotonicity. A check reports the worst
residual seen, so a report line documents not just pass/fail but how much
slack remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convexity, dilation, opsys, reps
from .matkernel import (
    SPEC_TOL,
    compress,
    dagger,
    irreducibility_residual,
    measured,
)

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    bound: float


def _halmos(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        dilation.halmos_symmetry(convexity.random_hermitian_contraction(rng, n))
    return ()


def _mirman(rng):
    omega = np.exp(2j * np.pi / 3)
    for _ in range(25):
        big, small = 12, 4
        spectrum = np.array([omega ** int(rng.integers(0, 3)) for _ in range(big)])
        raw = rng.standard_normal((big, small)) + 1j * rng.standard_normal((big, small))
        z0, _ = np.linalg.qr(raw)
        a = dagger(z0) @ np.diag(spectrum) @ z0
        dilation.naimark_normal(dilation.triangle_povm(a))
    return ()


def _joint(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        dilation.joint_prism_dilation(*convexity.random_prism_point(rng, n, 3), 3)
    return ()


def _square(rng):
    for lam in (0.0, 0.5, -0.5, 0.9, -0.9):
        st = reps.square_irrep(lam)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v1, v2 = (u @ m @ dagger(u) for m in st.mats)
        form = reps.two_symmetry_canonical_form(v1, v2)
        recovered = abs(form.lambdas[0] - lam) if len(form.lambdas) == 1 else math.inf
        yield irreducibility_residual(st.mats)
        yield ("coupling_recovered", recovered, SPEC_TOL)


def _hadamard(rng):
    return [irreducibility_residual(reps.hadamard_symmetries(m).mats) for m in (1, 2, 3)]


def _group_pairs(rng):
    for build in (reps.s3_pair, reps.a4_pair, lambda: reps.steinberg_pair(5)):
        build()
    return ()


def _vertices(rng):
    for k in (3, 4, 5):
        for j in range(k):
            for sign in (1, -1):
                reps.prism_vertex_rep(k, j, sign)
    return ()


def _geometry(rng):
    for k in range(3, 65):
        convexity.make_prism(k)
    theta = abs(convexity.theta_lower_bound(3) - 3.0 / (2.0 * math.sqrt(2.0)))
    return [("theta_lower_bound", theta, 1e-12)]


def _quotient(rng):
    return [r for k in (3, 4, 5) for q in (1, 2) for r in opsys.quotient_residuals(k, q)]


def _dual(rng):
    for _ in range(20):
        k = int(rng.choice([3, 4, 5]))
        j = int(rng.integers(0, k))
        pair, _ = reps.prism_vertex_rep(k, j, int(rng.choice([1, -1])))
        raw = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        rho = raw @ dagger(raw)
        opsys.functional_to_tuple(pair, rho / np.trace(rho).real, k)
    return ()


def _positivity(rng):
    """The exact vertex margin against the evaluations on factory pairs."""
    pairs = [reps.prism_vertex_rep(3, j, s)[0] for j in range(3) for s in (1, -1)]
    pairs += [reps.s3_pair(), reps.a4_pair()]
    for cval in np.linspace(-0.8, 0.8, 3):
        for gval in np.linspace(-0.8, 0.8, 3):
            blocks = [np.array([[1.0]]), np.array([[cval]]), np.array([[cval]])]
            e = opsys.PrismElement(3, 1, blocks, np.array([[gval]]))
            sampled = min(opsys.min_eigenvalue(e, p) for p in pairs)
            margin = opsys.scalar_positivity_prism(e).margin
            yield ("margin_matches_samples", abs(sampled - margin), 1e-8)


def _monotone(rng):
    prism = convexity.make_prism(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, b = convexity.random_prism_point(rng, n, 3)
        m = int(rng.integers(1, n))
        raw = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        z, _ = np.linalg.qr(raw)
        re, im = convexity.real_imag_parts(a)
        small = [compress(re, z), compress(im, z), compress(b, z)]
        margin = convexity.max_member(small, prism).margin
        yield ("compressed_margin", max(0.0, -margin), SPEC_TOL)


# (name, bound on the worst residual, sampler). A sampler builds its samples
# and returns or yields the residuals it checks itself. Each check draws from
# its own generator, seeded with seed + row index.
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


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every invariant check with a fresh seeded generator per check. A
    check's residuals are those its constructors required plus those its
    sampler returns; an enclosing ``measured`` block receives none of them."""
    results = []
    for i, (name, bound, sampler) in enumerate(_CHECKS):
        with measured() as records:
            own = list(sampler(np.random.default_rng(seed + i)))
        worst = float(max(value for _, value, *_ in [*records, *own]))
        results.append(CheckResult(name, worst <= bound, worst, bound))
    return results
