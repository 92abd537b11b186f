"""The construction catalogue: the self-checking constructions whose rows
``test_catalogue`` inspects, and the probes that build cached shape
constants. Importing this module builds no shape constant (a polygon, a
prism, a character or a solver system), so a process that has imported it
runs an entry with nothing cached before it."""

import numpy as np

from ncprism import convexity, dilation, opsys, reps

HALF, A, B = np.array([[0.5]]), np.array([[0.2]]), np.array([[-0.2]])
POVM = dilation.triangle_povm(A)

# A q = 2 element that no character refutes; the lift solver's dual witness does.
_C1 = np.array([[0.1124 - 0.0457j, -0.3728 - 0.0937j], [-0.0648 - 0.1706j, 0.2492 + 0.4852j]])
DUAL = opsys.PrismElement(
    3,
    2,
    [np.array([[1.1524, -0.212 + 0.2848j], [-0.212 - 0.2848j, 1.5901]]), _C1, _C1.conj().T],
    np.array([[-0.0143, 0.5023 - 0.2575j], [0.5023 + 0.2575j, 0.0833]]),
)


def _dual_refutation():
    verdict = opsys.matrix_positivity_prism(DUAL)
    assert verdict.witness.provenance == "dual_witness(k=3, level=2)"


# The rows each construction must not record besides the common ones: an S3
# or A4 pair solves no commutant, and exact sign diagonals, an exactly
# symmetric Kronecker power and an exact signed swap are symmetries or
# unitaries of their order by construction.
_SOLVED = {"commutant_dimension_1", "basis_commutes", "basis_orthonormal"}

# Id -> (build, the label of its Naimark and pair rows or None, the rows it
# must not record).
CONSTRUCTIONS = {
    "s3": (reps.s3_pair, None, _SOLVED),
    "a4": (reps.a4_pair, None, _SOLVED),
    "halmos_symmetry": (lambda: dilation.halmos_symmetry(HALF), None, set()),
    "halmos_unitary": (lambda: dilation.halmos_unitary(HALF), None, set()),
    "naimark": (lambda: dilation.naimark_normal(POVM), "naimark_normal", set()),
    "cube": (lambda: dilation.cube_dilation([HALF, B]), None, set()),
    "joint_k3": (lambda: dilation.joint_prism_dilation(A, B, 3), "joint_prism_dilation(k=3, level=1)", set()),
    "joint_k4": (
        lambda: dilation.joint_prism_dilation(
            *convexity.random_prism_point(np.random.default_rng(1), 3, 4, scale=0.8), 4
        ),
        "joint_prism_dilation(k=4, level=3)",
        set(),
    ),
    "dual_witness": (_dual_refutation, "dual_witness(k=3, level=2)", set()),
    "square": (lambda: reps.square_irrep(0.3), None, {"s0_selfadjoint", "s0_squares_to_identity"}),
    "hadamard": (lambda: reps.hadamard_symmetries(2), None, {"heads_diagonal_signs", "s2_selfadjoint"}),
    "vertex": (lambda: reps.prism_vertex_rep(4, 1, -1), None, {"v_unitary", "v_order_2"}),
}

_PAIR = np.array([[0.1, 0.05], [0.0, -0.1]]), np.array([[0.2, 0.0], [0.0, -0.1]])

# Id -> a call whose rows include those of a cached shape constant: the
# polygon, the prism and a character.
PROBES = {
    "order_k_povm_k5": lambda: dilation.order_k_povm(_PAIR[0], 5),
    "prism_member_k3": lambda: convexity.prism_member(*_PAIR, 3),
    "prism_character": lambda: reps.prism_character(3, 1, 1),
}

# Id -> call, for every entry above.
BUILDS = {**{name: entry[0] for name, entry in CONSTRUCTIONS.items()}, **PROBES}
