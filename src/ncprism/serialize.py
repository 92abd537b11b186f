"""JSON wire formats for matrices and the structured results.

A matrix is {"rows": n, "cols": m, "data": [[re, im], ...]} with the
entries flattened row-major; complex scalars are [re, im] pairs. Floats
pass through ``json`` using Python's shortest round-trip repr, so decimal
literals survive a round trip bit-exactly up to 17 significant digits.
The counts ``rows``, ``cols``, ``k``, ``q`` and a pair's ``commutant_dim``
(null or >= 1) must be JSON integers, its ``provenance`` a string, a matrix
an object with a ``data`` list, and every other scalar (each part of a
complex scalar, a list of two, and each real ``real_from_json`` reads) a
JSON number, an integer or a float; else ``ValueError`` names the value.
"""

from __future__ import annotations

import cmath
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatchError
from .matkernel import as_matrix

if TYPE_CHECKING:
    from .dilation import DilationResult
    from .opsys import DiagTuple, DualTuple, PrismElement
    from .reps import RepPair, SymmetryTuple

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "tuple_to_json",
    "tuple_from_json",
    "complex_to_json",
    "complex_from_json",
    "real_from_json",
    "rep_pair_to_json",
    "rep_pair_from_json",
    "symmetry_tuple_to_json",
    "dilation_result_to_json",
    "prism_element_to_json",
    "prism_element_from_json",
    "diag_tuple_to_json",
    "diag_tuple_from_json",
    "dual_tuple_to_json",
    "verdict_to_json",
]


# The types ``json`` reads a JSON number as; bool, a subclass of int, is not one.
_NUMBER = (int, float)


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(pair) -> complex:
    if type(pair) is not list or len(pair) != 2 or not all(type(part) in _NUMBER for part in pair):
        raise ValueError(f"complex scalars must be [re, im] pairs of JSON numbers, got {pair!r}")
    z = complex(float(pair[0]), float(pair[1]))
    if not cmath.isfinite(z):
        raise ValueError(f"complex scalars must be finite, got {z}")
    return z


def real_from_json(value, what: str) -> float:
    """``value`` as a float, refused with ``ValueError`` naming ``what``
    unless it is a JSON number."""
    if type(value) not in _NUMBER:
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _integer(obj, key: str) -> int:
    """``obj[key]``, refused with ``ValueError`` unless it is an integer."""
    if type(obj[key]) is not int:
        raise ValueError(f"{key!r} must be a JSON integer, got {obj[key]!r}")
    return obj[key]


def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    rows, cols = a.shape
    data = np.stack([a.real.ravel(), a.imag.ravel()], axis=1).tolist()
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj) -> np.ndarray:
    if type(obj) is not dict or not {"rows", "cols", "data"} <= obj.keys() or type(obj["data"]) is not list:
        raise ValueError(f"a matrix must be a JSON object with rows, cols and a data list, got {obj!r}")
    rows, cols = _integer(obj, "rows"), _integer(obj, "cols")
    if rows < 1 or cols < 1:
        raise ShapeMismatchError(f"matrix JSON needs rows and cols >= 1, got {rows}x{cols}")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ShapeMismatchError(
            f"matrix JSON declares {rows}x{cols} but carries {len(data)} entries"
        )
    flat = np.array([complex_from_json(pair) for pair in data], dtype=complex)
    return as_matrix(flat.reshape(rows, cols))


def tuple_to_json(mats) -> dict:
    return {"tuple": [matrix_to_json(m) for m in mats]}


def tuple_from_json(obj) -> list[np.ndarray]:
    return [matrix_from_json(m) for m in obj["tuple"]]


def rep_pair_to_json(pair: RepPair) -> dict:
    return {
        "k": pair.k,
        "W": matrix_to_json(pair.w),
        "V": matrix_to_json(pair.v),
        "provenance": pair.provenance,
        "commutant_dim": pair.commutant_dim,
    }


def rep_pair_from_json(obj) -> RepPair:
    from .reps import RepPair

    provenance, dim = obj.get("provenance", ""), obj.get("commutant_dim")
    if type(provenance) is not str:
        raise ValueError(f"'provenance' must be a JSON string, got {provenance!r}")
    if dim is not None and _integer(obj, "commutant_dim") < 1:
        raise ValueError(f"'commutant_dim' must be null or a JSON integer >= 1, got {dim!r}")
    return RepPair(matrix_from_json(obj["W"]), matrix_from_json(obj["V"]), _integer(obj, "k"), provenance, dim)


def symmetry_tuple_to_json(st: SymmetryTuple) -> dict:
    out = tuple_to_json(st.mats)
    out["provenance"] = st.provenance
    return out


def dilation_result_to_json(result: DilationResult) -> dict:
    return {
        "isometry": matrix_to_json(result.isometry),
        "operators": [matrix_to_json(op) for op in result.operators],
        "labels": list(result.labels),
    }


def prism_element_to_json(e: PrismElement) -> dict:
    return {
        "k": e.k,
        "q": e.q,
        "c": [matrix_to_json(block) for block in e.c],
        "g": matrix_to_json(e.g),
    }


def prism_element_from_json(obj) -> PrismElement:
    from .opsys import PrismElement

    return PrismElement(
        _integer(obj, "k"),
        _integer(obj, "q"),
        [matrix_from_json(block) for block in obj["c"]],
        matrix_from_json(obj["g"]),
    )


def diag_tuple_to_json(x: DiagTuple) -> dict:
    return {"k": x.k, "q": x.q, "blocks": [matrix_to_json(b) for b in x.blocks]}


def diag_tuple_from_json(obj) -> DiagTuple:
    from .opsys import DiagTuple

    return DiagTuple(
        _integer(obj, "k"), _integer(obj, "q"), [matrix_from_json(b) for b in obj["blocks"]]
    )


def dual_tuple_to_json(z: DualTuple) -> dict:
    return {"k": z.k, "z": [complex_to_json(val) for val in z.z]}


def verdict_to_json(verdict) -> dict:
    from .opsys import Certified, Refuted, Unknown

    if isinstance(verdict, Refuted):
        return {
            "verdict": "refuted",
            "witness": rep_pair_to_json(verdict.witness),
            "min_eigenvalue": verdict.min_eigenvalue,
        }
    if isinstance(verdict, Certified):
        return {
            "verdict": "certified",
            "lift": diag_tuple_to_json(verdict.lift),
            "min_block_eigenvalue": verdict.min_block_eigenvalue,
            "residual": verdict.residual,
        }
    if isinstance(verdict, Unknown):
        return {"verdict": "unknown", "reason": verdict.reason, "residual": verdict.residual}
    raise TypeError(f"not a positivity verdict: {type(verdict)!r}")
