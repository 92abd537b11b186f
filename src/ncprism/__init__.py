"""Executable toolkit for noncommutative cubes and prisms.

Constructs unitary and symmetry dilations (Halmos blocks, barycentric
POVMs with Naimark dilations, joint order-(k, 2) dilations), factories for
the irreducible representation families realizing extreme points at every
finite level, exact membership tests for the max-type matrix convex sets
over cubes and prisms, the operator-system quotient and dual machinery
with positivity certification, and the closed-form scaling-constant
geometry. Every construction verifies itself numerically.

The package namespace is lazy (PEP 562): ``import ncprism`` loads no
submodule, and each public name imports its module on first access, so a
CLI command loads only the modules it calls.
"""

import sys

__version__ = "0.1.0"

# Module -> the public names the package re-exports from it.
_EXPORTS = {
    "matkernel": (
        "commutant_dimension",
        "compress",
        "direct_sum",
        "kron",
        "psd_sqrt",
        "support_value",
    ),
    "dilation": (
        "DilationResult",
        "GroupWord",
        "Povm",
        "cube_dilation",
        "evaluate_compressed_word",
        "evaluate_word",
        "halmos_symmetry",
        "halmos_unitary",
        "joint_prism_dilation",
        "naimark_normal",
        "order_k_povm",
        "triangle_povm",
    ),
    "reps": (
        "CanonicalForm",
        "RepPair",
        "SymmetryTuple",
        "a4_pair",
        "assemble_dimension",
        "hadamard_symmetries",
        "prism_vertex_rep",
        "s3_pair",
        "square_irrep",
        "steinberg_pair",
        "tensor_pair",
        "two_symmetry_canonical_form",
        "universal_square_pair",
    ),
    "convexity": (
        "MembershipResult",
        "PolytopeSpec",
        "circumnorm",
        "cube_scaling_constant",
        "incircle_radius",
        "make_cube",
        "make_polygon",
        "make_prism",
        "max_member",
        "prism_member",
        "random_prism_point",
        "theta_lower_bound",
    ),
    "opsys": (
        "Certified",
        "DiagTuple",
        "DualTuple",
        "PrismElement",
        "Refuted",
        "ScalarVerdict",
        "Unknown",
        "dual_member",
        "functional_to_tuple",
        "matrix_positivity_prism",
        "psi_k",
        "scalar_positivity_cube",
        "scalar_positivity_prism",
    ),
    "finitefield": ("FiniteFieldSpec", "GaloisField"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "serialize", "verify"}

__all__ = list(_MODULE_OF)


def _submodule(name):
    # __import__, not importlib.import_module, so that -X importtime lists
    # the import.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    # Not cached in globals(): the value is read from its module on every
    # access, so whatever that module holds now, a patch or its removal, is
    # what the package shows. A submodule binds itself here once imported.
    if name in _SUBMODULES:
        return _submodule(name)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(module), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
