"""Executable toolkit for noncommutative cubes and prisms.

Constructs unitary and symmetry dilations (Halmos blocks, barycentric
POVMs with Naimark dilations, joint order-(k, 2) dilations), factories for
the irreducible representation families realizing extreme points at every
finite level, exact membership tests for the max-type matrix convex sets
over cubes and prisms, the operator-system quotient and dual machinery
with positivity certification, and the closed-form scaling-constant
geometry. Every construction verifies itself numerically.
"""

from .matkernel import (
    commutant_dimension,
    compress,
    direct_sum,
    kron,
    psd_sqrt,
    support_value,
)
from .dilation import (
    DilationResult,
    GroupWord,
    Povm,
    cube_dilation,
    evaluate_compressed_word,
    evaluate_word,
    halmos_symmetry,
    halmos_unitary,
    joint_prism_dilation,
    naimark_normal,
    order_k_povm,
    triangle_povm,
)
from .reps import (
    CanonicalForm,
    RepPair,
    SymmetryTuple,
    a4_pair,
    assemble_dimension,
    hadamard_symmetries,
    prism_vertex_rep,
    s3_pair,
    square_irrep,
    steinberg_pair,
    tensor_pair,
    two_symmetry_canonical_form,
    universal_square_pair,
)
from .convexity import (
    MembershipResult,
    PolytopeSpec,
    circumnorm,
    cube_scaling_constant,
    incircle_radius,
    make_cube,
    make_polygon,
    make_prism,
    max_member,
    prism_member,
    random_prism_point,
    theta_lower_bound,
)
from .opsys import (
    Certified,
    DiagTuple,
    DualTuple,
    PrismElement,
    Refuted,
    ScalarVerdict,
    Unknown,
    dual_member,
    functional_to_tuple,
    matrix_positivity_prism,
    psi_k,
    scalar_positivity_cube,
    scalar_positivity_prism,
)
from .finitefield import FiniteFieldSpec, GaloisField

__version__ = "0.1.0"
