"""The residual catalogue is not vacuous: each residual function passes on a
constructor's output and flags the named identity once that output is
shifted, and each self-checking constructor refuses a corrupted block."""

from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from helpers import within_bounds

from ncprism import convexity, dilation, matkernel, opsys, reps
from ncprism.errors import (
    InvalidPovmError,
    NotIsometryError,
    NotSymmetryError,
    RelationCheckFailedError,
)


def shift(x, on=True):
    return x + 1e-6 if on else x


HALF, A, B = np.array([[0.5]]), np.array([[0.2]]), np.array([[-0.2]])
POVM = dilation.triangle_povm(A)
NAIMARK = dilation.naimark_normal(POVM)
JOINT = dilation.joint_prism_dilation(A, B, 3)
CUBE = dilation.cube_dilation([HALF])
S3, SQUARE, HADAMARD = reps.s3_pair(), reps.square_irrep(0.3).mats, reps.hadamard_symmetries(2)
FORM = reps.two_symmetry_canonical_form(*SQUARE)
VERTEX = reps.prism_vertex_rep(3, 0, 1)
BASIS = matkernel.commutant_dimension(SQUARE)[1]
PRISM = convexity.make_prism(3)
STATE = opsys.functional_to_tuple(VERTEX[0], np.outer(VERTEX[1], VERTEX[1].conj()), 3)
UNIT = opsys.PrismElement.unit(3, 1)
CERTIFIED = opsys.matrix_positivity_prism(UNIT)
NEGATIVE = opsys.PrismElement(3, 1, [np.eye(1)] * 3, np.eye(1))
REFUTED = opsys.matrix_positivity_prism(NEGATIVE)


def _element(e, c0):
    return opsys.PrismElement(e.k, e.q, [c0, *e.c[1:]], e.g)


def _quotient(on):
    psi = opsys.psi_k
    with mock.patch.object(opsys, "psi_k", lambda x: _element(psi(x), shift(psi(x).c[0], on))):
        return opsys.quotient_residuals(3)


# Residual name -> residual list of a constructor's output, shifted when `on`.
CASES = {
    "squares_to_identity": lambda on: dilation.halmos_symmetry_residuals(
        HALF, shift(dilation.halmos_symmetry(HALF), on)
    ),
    "unitary": lambda on: dilation.halmos_unitary_residuals(
        HALF, shift(dilation.halmos_unitary(HALF), on)
    ),
    "first_moment": lambda on: dilation.povm_residuals(
        POVM.effects, POVM.outcome_labels, shift(A, on)
    ),
    "isometry": lambda on: dilation.naimark_residuals(
        POVM, replace(NAIMARK, isometry=shift(NAIMARK.isometry, on))
    ),
    "v_compression": lambda on: dilation.joint_residuals(A, shift(B, on), *JOINT),
    "s1_compression": lambda on: dilation.cube_residuals([shift(HALF, on)], CUBE),
    "w_unitary": lambda on: reps.pair_residuals(reps.RepPair(shift(S3.w, on), S3.v, 3)),
    "VWV = W^-1": lambda on: reps.pair_residuals(
        reps.RepPair(S3.w, shift(S3.v, on), 3), relations=reps.S3_RELATIONS[:1]
    ),
    "s0_squares_to_identity": lambda on: reps.symmetry_tuple_residuals(
        [shift(SQUARE[0], on), SQUARE[1]]
    ),
    "heads_diagonal_signs": lambda on: reps.hadamard_residuals([shift(m, on) for m in HADAMARD.mats]),
    "reconstruction": lambda on: reps.canonical_form_residuals(
        shift(SQUARE[0], on), SQUARE[1], FORM
    ),
    "vertex_attained": lambda on: reps.vertex_residuals(VERTEX[0], shift(VERTEX[1], on), 0, 1),
    "basis_commutes": lambda on: matkernel.commutant_residuals(
        SQUARE, [shift(b, on) for b in BASIS]
    ),
    "commutant_dimension_1": lambda on: [
        matkernel.irreducibility_residual(SQUARE[:1] if on else SQUARE)
    ],
    "kernel_maps_to_zero": _quotient,
    "unit_normals": lambda on: convexity.polytope_residuals(
        SimpleNamespace(**{**vars(PRISM), "normals": shift(PRISM.normals, on)})
    ),
    "vertices_within_facets": lambda on: convexity.polytope_residuals(
        SimpleNamespace(**{**vars(PRISM), "vertices": shift(PRISM.vertices, on)})
    ),
    "dual_balance": lambda on: opsys.functional_residuals(opsys.DualTuple(3, shift(STATE.z, on))),
    "lift_maps_to_element": lambda on: opsys.certified_residuals(
        _element(UNIT, shift(UNIT.c[0], on)), CERTIFIED
    ),
    # Adding 2 to c_0 lifts every evaluation above zero: no witness any more.
    "witness_min_eigenvalue": lambda on: opsys.refuted_residuals(
        _element(NEGATIVE, NEGATIVE.c[0] + (2.0 if on else 0.0)), REFUTED
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_residual_function_flags_shifted_output(name):
    assert within_bounds(CASES[name](False))
    flagged = {n: value > bound for n, value, bound in CASES[name](True)}
    assert flagged[name]


@pytest.mark.parametrize(
    "block, build, error",
    [
        ("psd_sqrt", lambda: dilation.halmos_symmetry(HALF), NotSymmetryError),
        ("psd_sqrt", lambda: dilation.halmos_unitary(HALF), NotIsometryError),
        ("psd_sqrt", lambda: dilation.cube_dilation([HALF, HALF]), NotSymmetryError),
        ("psd_sqrt", lambda: dilation.naimark_normal(POVM), InvalidPovmError),
        ("psd_sqrt", lambda: dilation.joint_prism_dilation(A, B, 3), InvalidPovmError),
        ("_carried_symmetry", lambda: dilation.joint_prism_dilation(A, B, 3), RelationCheckFailedError),
        ("direct_sum", lambda: dilation.joint_prism_dilation(A, B, 3), RelationCheckFailedError),
    ],
)
def test_constructor_refuses_corrupted_block(monkeypatch, block, build, error):
    original = getattr(dilation, block)
    monkeypatch.setattr(dilation, block, lambda *args: shift(original(*args)))
    with pytest.raises(error):
        build()


def test_joint_dilation_refuses_a_corrupted_defect_block(monkeypatch):
    # G = [Z; 0] sees only V's top-left block, so G*VG = b cannot catch a
    # corrupted lower-right block; V's own symmetry residual must.
    original = dilation._carried_symmetry

    def corrupted(*args):
        v = original(*args)
        half = v.shape[0] // 2
        v[half:, half:] += 1e-6 * np.eye(half)
        return v

    monkeypatch.setattr(dilation, "_carried_symmetry", corrupted)
    with pytest.raises(RelationCheckFailedError, match="v_squares_to_identity"):
        dilation.joint_prism_dilation(A, B, 3)
