"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or ``pytest -v`` for pytest's own pass/fail report.
"""

import math

import numpy as np
import pytest

from helpers import (
    closure_order_oracle,
    random_isometry,
    random_psd_trace_one,
    random_unitary,
    within_bounds,
    worst,
)

from ncprism import convexity, dilation, opsys, reps
from ncprism.errors import UnsupportedQError
from ncprism.matkernel import compress, dagger, hermitize, irreducibility_residual, opnorm

OMEGA = np.exp(2j * np.pi / 3)


def report(number, text):
    print(f"[criterion {number:2d}] PASS: {text}")


def test_criterion_01_halmos_suite():
    rng = np.random.default_rng(101)
    largest = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        b = convexity.random_hermitian_contraction(rng, n)
        s = dilation.halmos_symmetry(b)
        assert np.array_equal(s[:n, :n], b), "corner block must equal input exactly"
        largest = max(largest, worst(dilation.halmos_symmetry_residuals(b, s)))
    assert largest <= 1e-8
    report(1, f"200 Halmos symmetry dilations, worst residual {largest:.2e}")


def test_criterion_02_mirman_suite():
    rng = np.random.default_rng(102)
    targets = np.array([1.0, OMEGA, OMEGA**2])
    largest = 0.0
    for _ in range(100):
        spectrum = targets[rng.integers(0, 3, size=12)]
        iso = random_isometry(rng, 4, 12)
        a = dagger(iso) @ np.diag(spectrum) @ iso
        povm = dilation.triangle_povm(a)
        result = dilation.naimark_normal(povm)
        largest = max(
            largest,
            worst(dilation.povm_residuals(povm.effects, povm.outcome_labels, a)),
            worst(dilation.naimark_residuals(povm, result)),
            float(np.abs(np.array(povm.outcome_labels) - targets).max()),
            opnorm(result.compressions()[0] - a),
        )
    assert largest <= 1e-8
    report(2, f"100 normal dilations with vertex spectrum, worst residual {largest:.2e}")


def test_criterion_03_joint_dilation_suite():
    rng = np.random.default_rng(103)
    largest = 0.0
    for i in range(100):
        n = 1 + i % 6
        a, b = convexity.random_prism_point(rng, n, 3)
        pair, g = dilation.joint_prism_dilation(a, b, 3)
        joint = [*reps.pair_residuals(pair), *dilation.joint_residuals(a, b, pair, g)]
        largest = max(largest, worst(joint))
    assert largest <= 1e-8
    report(3, f"100 joint order-(3,2) dilations at levels 1..6, worst residual {largest:.2e}")


def test_criterion_04_square_classification():
    rng = np.random.default_rng(104)
    largest = 0.0
    for lam in (0.0, 0.5, -0.5, 0.9, -0.9, 0.99):
        st = reps.square_irrep(lam)
        assert within_bounds(reps.symmetry_tuple_residuals(st.mats))
        assert within_bounds([irreducibility_residual(st.mats)])
        u = random_unitary(rng, 2)
        v1, v2 = u @ st.mats[0] @ dagger(u), u @ st.mats[1] @ dagger(u)
        form = reps.two_symmetry_canonical_form(v1, v2)
        assert within_bounds(reps.canonical_form_residuals(v1, v2, form))
        assert len(form.lambdas) == 1
        largest = max(largest, abs(form.lambdas[0] - lam))
    assert largest <= 1e-8
    report(4, f"square family irreducible and coupling recovered, worst error {largest:.2e}")


def test_criterion_05_hadamard_symmetries():
    for m in (1, 2, 3, 4):
        st = reps.hadamard_symmetries(m)
        assert worst(reps.hadamard_residuals(st.mats)) <= 1e-12
        for i in range(m):
            for j in range(i + 1, m):
                assert np.array_equal(st.mats[i] @ st.mats[j], st.mats[j] @ st.mats[i])
        assert within_bounds([irreducibility_residual(st.mats)])
    report(5, "Hadamard tuples for m=1..4: symmetries, commuting heads, irreducible")


def test_criterion_06_finite_level_prism_extremes():
    groups = ((reps.s3_pair(), reps.S3_RELATIONS, 6), (reps.a4_pair(), reps.A4_RELATIONS, 12))
    for pair, relations, order in groups:
        assert worst(reps.pair_residuals(pair, relations=relations)) <= 1e-10
        assert within_bounds([irreducibility_residual([pair.w, pair.v])])
        assert closure_order_oracle([pair.w, pair.v]) == order

    for q in (5, 7, 11, 13):
        pair = reps.steinberg_pair(q)
        assert pair.dim == q
        assert within_bounds(reps.pair_residuals(pair))
        assert within_bounds([irreducibility_residual([pair.w, pair.v])])

    with pytest.raises(UnsupportedQError):
        reps.steinberg_pair(9)

    for n in (1, 2, 3, 4, 5, 6, 7, 8, 10):
        pair = reps.assemble_dimension(n)
        assert pair.dim == n
        assert within_bounds(reps.pair_residuals(pair))
        assert pair.commutant_dim is not None
        if n in (1, 2, 3, 5, 6, 7):
            assert pair.commutant_dim == 1
    report(6, "S3/A4/Steinberg pairs verified; q=9 rejected; dimensions 1..8,10 assembled")


def test_criterion_07_vertex_attainment():
    largest = 0.0
    for k in (3, 4, 5, 12):
        for j in range(k):
            for sign in (1, -1):
                pair, xi = reps.prism_vertex_rep(k, j, sign)
                largest = max(largest, worst(reps.vertex_residuals(pair, xi, j, sign)))
    assert largest <= 1e-10
    report(7, f"all extreme points attained for k in {{3,4,5,12}}, worst error {largest:.2e}")


def test_criterion_08_geometry():
    # The closed forms against the facets and vertices of the built prism.
    gaps = []
    for k in range(3, 65):
        prism = convexity.make_prism(k)
        gaps.append(abs(convexity.incircle_radius(k) - prism.offsets[:k].min()))
        gaps.append(abs(convexity.circumnorm(k) - np.linalg.norm(prism.vertices, axis=1).max()))
    largest = max(gaps)
    assert largest <= 1e-12
    assert abs(convexity.theta_lower_bound(3) - 1.060660171779821) <= 1e-12
    for d in (2, 3, 4, 9, 16):
        assert convexity.cube_scaling_constant(d) == math.sqrt(d)
    report(8, f"incircle/circumnorm/theta/cube constants verified, worst gap {largest:.2e}")


def test_criterion_09_quotient_and_dual():
    largest = max(worst(opsys.quotient_residuals(k, 1)) for k in (3, 4, 5))
    assert largest <= 1e-12

    rng = np.random.default_rng(109)
    for _ in range(100):
        k = int(rng.choice([3, 4, 5]))
        pair, _ = reps.prism_vertex_rep(k, int(rng.integers(0, k)), int(rng.choice([1, -1])))
        rho = random_psd_trace_one(rng, pair.dim)
        assert within_bounds(opsys.functional_residuals(opsys.functional_to_tuple(pair, rho, k)))
    report(9, f"kernel/unit residual {largest:.2e}; 100 functionals in the dual cone")


def test_criterion_10_positivity_oracles():
    rng = np.random.default_rng(110)
    # Evaluation pool: factory representations plus random dilated pairs.
    pool = [reps.prism_vertex_rep(3, j, s)[0] for j in range(3) for s in (1, -1)]
    pool += [reps.s3_pair(), reps.a4_pair(), reps.steinberg_pair(5)]
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a, b = convexity.random_prism_point(rng, n, 3)
        pool.append(dilation.joint_prism_dilation(a, b, 3)[0])

    # Random unit states per pair; states plus eigen-minima give the
    # brute-force sample (>= 10^4 evaluation points per grid cell).
    states = {}
    per_pair = max(1, 10_000 // len(pool) + 1)
    for idx, pair in enumerate(pool):
        raw = rng.standard_normal((pair.dim, per_pair)) + 1j * rng.standard_normal(
            (pair.dim, per_pair)
        )
        states[idx] = raw / np.linalg.norm(raw, axis=0)

    grid = np.linspace(-1.0, 1.0, 9)
    contradictions = 0
    worst_gap = 0.0
    for cval in grid:
        for gval in grid:
            blocks = [np.eye(1), cval * np.eye(1), cval * np.eye(1)]
            e = opsys.PrismElement(3, 1, blocks, gval * np.eye(1))
            margin = opsys.scalar_positivity_prism(e).margin

            brute = math.inf
            for idx, pair in enumerate(pool):
                value = hermitize(e.evaluate(pair))
                brute = min(brute, float(np.linalg.eigvalsh(value).min()))
                xs = states[idx]
                vals = np.einsum("ij,ij->j", xs.conj(), value @ xs).real
                brute = min(brute, float(vals.min()))
            worst_gap = max(worst_gap, abs(brute - margin))
            assert abs(brute - margin) <= 1e-8

            verdict = opsys.matrix_positivity_prism(e)
            if isinstance(verdict, opsys.Certified) and margin < -1e-10:
                contradictions += 1
            if isinstance(verdict, opsys.Refuted) and margin > 1e-8:
                contradictions += 1
            # Definite verdicts re-verify from their payloads alone.
            if isinstance(verdict, opsys.Certified):
                assert within_bounds(opsys.certified_residuals(e, verdict))
            if isinstance(verdict, opsys.Refuted):
                assert within_bounds(reps.pair_residuals(verdict.witness))
                assert within_bounds(opsys.refuted_residuals(e, verdict))

    assert contradictions == 0
    report(
        10,
        f"scalar rule matches brute-force sample (gap {worst_gap:.2e}); "
        "no verdict contradictions on the 9x9 grid",
    )


def test_criterion_11_membership_monotonicity():
    rng = np.random.default_rng(111)
    prism = convexity.make_prism(3)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a, b = convexity.random_prism_point(rng, n, 3)
        re, im = convexity.real_imag_parts(a)
        m = int(rng.integers(1, n))
        z = random_isometry(rng, m, n)
        small = [compress(x, z) for x in (re, im, b)]
        assert convexity.max_member(small, prism).member
    report(11, "100 seeded compressions of prism points remain members")
