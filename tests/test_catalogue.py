"""The residual catalogue is not vacuous: each residual function passes on a
constructor's output and flags the named identity once that output is
shifted, and each self-checking constructor refuses a corrupted block."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from constructions import BUILDS, CONSTRUCTIONS, A, B, HALF, POVM
from helpers import within_bounds

import ncprism
from ncprism import convexity, dilation, matkernel, opsys, reps
from ncprism.errors import (
    InvalidPovmError,
    NotIsometryError,
    NotSymmetryError,
    RelationCheckFailedError,
)


def shift(x, on=True):
    return x + 1e-6 if on else x


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


# Residual name, with a [variant] when one name has two cases -> residual list
# of a constructor's output, shifted when `on`.
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
    # W = 1 with the S3 pair's V meets the orders and VWV = W^-1, but commutes.
    "||WV - VW||_F >= 1": lambda on: reps.pair_residuals(
        reps.RepPair(np.eye(2) if on else S3.w, S3.v, 3), relations=reps.S3_RELATIONS
    ),
    "s0_squares_to_identity": lambda on: reps.symmetry_tuple_residuals(
        [shift(SQUARE[0], on), SQUARE[1]]
    ),
    "heads_diagonal_signs": lambda on: reps.hadamard_residuals([shift(m, on) for m in HADAMARD.mats]),
    # A zero on a head's diagonal is 1 away from both signs.
    "heads_diagonal_signs[zero]": lambda on: reps.hadamard_residuals(
        [np.diag([1.0, 0.0 if on else -1.0]), reps.hadamard_symmetries(1).mats[1]]
    ),
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
    assert flagged[name.split("[")[0]]


def _joint():
    return dilation.joint_prism_dilation(A, B, 3)


# Every block the constructors call, each corrupted by 1e-6: the joint
# dilation's effects, Naimark roots, defect of b, carried blocks and symmetry,
# and the effects of a decomposition over C_4.
@pytest.mark.parametrize(
    "block, build, error",
    [
        ("_hermitian_defect", lambda: dilation.halmos_symmetry(HALF), NotSymmetryError),
        ("_unitary_defects", lambda: dilation.halmos_unitary(HALF), NotIsometryError),
        ("_hermitian_defect", lambda: dilation.cube_dilation([HALF, HALF]), NotSymmetryError),
        ("_spectral_sqrt", lambda: dilation.naimark_normal(POVM), InvalidPovmError),
        ("_fourier_base", _joint, InvalidPovmError),
        ("_fourier_base", lambda: dilation.order_k_povm(A, 4), InvalidPovmError),
        ("_spectral_sqrt", _joint, InvalidPovmError),
        ("_hermitian_defect", _joint, RelationCheckFailedError),
        ("_carried_blocks", _joint, RelationCheckFailedError),
        ("_symmetry_block", _joint, RelationCheckFailedError),
    ],
    ids=[
        "halmos_symmetry-defect", "halmos_unitary-defects", "cube-defect", "naimark-roots",
        "joint-effects", "order_k-effects", "joint-roots", "joint-defect", "joint-carried",
        "joint-symmetry",
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
    original = dilation._symmetry_block

    def corrupted(*args):
        v = original(*args)
        half = v.shape[0] // 2
        v[half:, half:] += 1e-6 * np.eye(half)
        return v

    monkeypatch.setattr(dilation, "_symmetry_block", corrupted)
    with pytest.raises(RelationCheckFailedError, match="v_squares_to_identity"):
        dilation.joint_prism_dilation(A, B, 3)


def _opnorm(gap):
    return float(np.linalg.norm(gap, 2))


def _dense_gaps(name, *args):
    """The dense gap matrix of each residual that ``name``'s residual function
    takes as a Frobenius norm, from its arguments."""
    eye = np.eye
    if name == "povm":
        effects, labels, a = args
        stack = np.stack(effects)
        return {
            "first_moment": np.tensordot(labels, stack, axes=1) - a,
            "sum_to_identity": stack.sum(axis=0) - eye(len(a)),
        }
    if name == "naimark":
        povm, result = args
        z, nd = result.isometry, result.operators[0]
        moment = np.tensordot(povm.outcome_labels, np.stack(povm.effects), axes=1)
        return {"isometry": z.conj().T @ z - eye(z.shape[1]), "compression": z.conj().T @ nd @ z - moment}
    if name == "joint":
        a, b, pair, g = args
        gs = g.conj().T
        return {
            "isometry": gs @ g - eye(g.shape[1]),
            "w_compression": gs @ pair.w @ g - a,
            "v_compression": gs @ pair.v @ g - b,
        }
    if name == "cube":
        mats, result = args
        z = result.isometry
        return {
            f"{label}_compression": z.conj().T @ s @ z - m
            for label, m, s in zip(result.labels, mats, result.operators)
        }
    corner, big = args
    return {"corner": big[: len(corner), : len(corner)] - corner}


_RESIDUAL_FUNCTIONS = {
    "povm": dilation.povm_residuals,
    "naimark": dilation.naimark_residuals,
    "joint": dilation.joint_residuals,
    "cube": dilation.cube_residuals,
    "halmos_symmetry": dilation.halmos_symmetry_residuals,
    "halmos_unitary": dilation.halmos_unitary_residuals,
}


def _shifted_catalogue():
    """The catalogue's outputs, each shifted by 1e-6 as in CASES."""
    yield "povm", (POVM.effects, POVM.outcome_labels, shift(A))
    yield "naimark", (POVM, replace(NAIMARK, isometry=shift(NAIMARK.isometry)))
    yield "joint", (A, shift(B), *JOINT)
    yield "joint", (shift(A), B, JOINT[0], shift(JOINT[1]))
    yield "cube", ([shift(HALF)], CUBE)
    yield "halmos_symmetry", (shift(HALF), dilation.halmos_symmetry(HALF))
    yield "halmos_unitary", (shift(HALF), dilation.halmos_unitary(HALF))


def _perturb(x, on=True):
    """x plus a full-rank perturbation of size about 1e-6, whose Frobenius
    norm exceeds its operator norm (unlike the rank-one ``shift``)."""
    return x + 1e-6 * np.cos(np.arange(x.size)).reshape(x.shape) if on else x


def _random_dilations(shifted):
    """Random dilations of every kind, their outputs perturbed by about 1e-6 or not."""
    shift = _perturb
    rng = np.random.default_rng(2501)
    for n in (1, 3, 8):
        for k in (3, 4):
            a, b = convexity.random_prism_point(rng, n, k, scale=0.8)
            povm = dilation.order_k_povm(a, k)
            yield "povm", (povm.effects, povm.outcome_labels, shift(a, shifted))
            result = dilation.naimark_normal(povm)
            yield "naimark", (povm, replace(result, isometry=shift(result.isometry, shifted)))
            pair, g = dilation.joint_prism_dilation(a, b, k)
            yield "joint", (a, shift(b, shifted), pair, shift(g, shifted))
        mats = [convexity.random_hermitian_contraction(rng, n) for _ in range(3)]
        yield "cube", ([shift(m, shifted) for m in mats], dilation.cube_dilation(mats))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x *= 0.9 / _opnorm(x)
        yield "halmos_symmetry", (shift(mats[0], shifted), dilation.halmos_symmetry(mats[0]))
        yield "halmos_unitary", (shift(x, shifted), dilation.halmos_unitary(x))


@pytest.mark.parametrize("source", ["catalogue", "random_shifted", "random"])
def test_frobenius_residuals_bound_the_operator_norms(source):
    # Every dilation residual taken as a norm of a gap matrix is its
    # Frobenius norm: at least the operator norm of the dense gap, and equal
    # to the gap's dense Frobenius norm, up to the rounding of gap entries
    # that the structured residuals compute in another order (1e-16 at most).
    cases = {
        "catalogue": _shifted_catalogue,
        "random_shifted": lambda: _random_dilations(True),
        "random": lambda: _random_dilations(False),
    }[source]()
    floor = 1e-15
    seen = set()
    for name, args in cases:
        values = {n: value for n, value, _ in _RESIDUAL_FUNCTIONS[name](*args)}
        for residual, gap in _dense_gaps(name, *args).items():
            seen.add(residual)
            assert values[residual] >= _opnorm(gap) * (1 - 1e-12) - floor, (name, residual)
            frobenius = float(np.linalg.norm(gap))
            assert values[residual] == pytest.approx(frobenius, rel=1e-12, abs=floor), (name, residual)
    assert {"first_moment", "sum_to_identity", "isometry", "compression", "v_compression",
            "w_compression", "corner"} <= seen


@pytest.mark.parametrize("build, label, exact", list(CONSTRUCTIONS.values()), ids=list(CONSTRUCTIONS))
def test_constructions_record_only_rows_their_arithmetic_can_move(build, label, exact):
    # A corner, N's diagonal or a group order fixed by the presentation holds
    # by construction; the residual functions keep them for re-checks.
    with matkernel.measured() as records:
        build()
    names = {name for name, *_ in records}
    assert names and not names & {"group_order_6", "group_order_12", "corner", "labels_on_diagonal", "v_corner"}
    assert not names & exact
    # The Naimark rows carry the label of the construction that ran, as the
    # dilation's other rows do.
    naimark = {what for name, *_, what in records if name in ("isometry", "compression")}
    if label is None:
        assert not naimark
    else:
        assert naimark == {label}
        assert {what for name, *_, what in records if name[:2] in ("v_", "w_")} <= {label}


# Prints, as JSON lines, the rows each entry of the catalogue and each probe
# records in a fresh process: a child forked, per entry, from a process that
# has imported the catalogue and nothing else.
_FRESH = """
import json, os
from constructions import BUILDS
from ncprism.matkernel import measured

for name, build in BUILDS.items():
    if not os.fork():
        try:
            with measured() as records:
                build()
            print(json.dumps([name, records]), flush=True)
        finally:
            os._exit(0)
    os.wait()
"""


def _rows(build):
    with matkernel.measured() as records:
        build()
    return json.loads(json.dumps(records))


def test_recorded_rows_do_not_depend_on_what_ran_before():
    # A cached shape constant reports the rows of its build on every call,
    # so each entry records the rows of a fresh process twice in a row here,
    # and again after every other entry has run.
    path = [os.path.dirname(os.path.dirname(ncprism.__file__)), os.path.dirname(__file__)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*path, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True, env=env, timeout=120)
    fresh = dict(json.loads(line) for line in fresh.stdout.splitlines())
    assert fresh.keys() == BUILDS.keys()
    runs = {name: [_rows(build), _rows(build)] for name, build in BUILDS.items()}
    for name, build in BUILDS.items():
        runs[name].append(_rows(build))
    for name, rows in runs.items():
        assert rows == [fresh[name]] * 3, name
