import json
import math
import re

import numpy as np
import pytest

from ncprism.dilation import triangle_povm, naimark_normal
from ncprism.errors import ShapeMismatchError
from ncprism.opsys import DiagTuple, DualTuple, PrismElement, Unknown
from ncprism.reps import s3_pair
from ncprism.serialize import (
    complex_from_json,
    diag_tuple_from_json,
    diag_tuple_to_json,
    dilation_result_to_json,
    dual_tuple_to_json,
    matrix_from_json,
    matrix_to_json,
    prism_element_from_json,
    prism_element_to_json,
    real_from_json,
    rep_pair_from_json,
    rep_pair_to_json,
    tuple_from_json,
    tuple_to_json,
    verdict_to_json,
)


class TestMatrixFormat:
    def test_layout(self):
        obj = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0j]]))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 4.0]]

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        text = json.dumps(matrix_to_json(a))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, a)

    def test_decimal_literal_roundtrip(self):
        value = 0.12345678901234567
        obj = {"rows": 1, "cols": 1, "data": [[value, -value]]}
        text = json.dumps(matrix_to_json(matrix_from_json(obj)))
        assert json.loads(text)["data"] == [[value, -value]]

    def test_entries_match_the_per_entry_conversion(self):
        # The data rows come from one array-wide tolist(); the indented JSON
        # must match converting each entry on its own, signed zeros and
        # subnormals included.
        tiny = np.finfo(float).smallest_subnormal
        a = np.array([[-0.0, complex(0.0, -0.0), tiny], [complex(-tiny, 3 * tiny), -1e-310j, 1 / 3 - 0.1j]])
        reference = [[float(z.real), float(z.imag)] for z in a.ravel()]
        obj = matrix_to_json(a)
        assert all(type(x) is float for row in obj["data"] for x in row)
        assert json.dumps(obj["data"], indent=2) == json.dumps(reference, indent=2)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 2), (2, 0), (-1, -1)])
    def test_empty_matrix_rejected(self, rows, cols):
        with pytest.raises(ShapeMismatchError, match="rows and cols >= 1"):
            matrix_from_json({"rows": rows, "cols": cols, "data": []})

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 2.9, "cols": 1, "data": [[1, 0], [2, 0]]},
            {"rows": 2.0, "cols": 1, "data": [[1, 0], [2, 0]]},
            {"rows": True, "cols": True, "data": [[1, 0]]},
            {"rows": "2", "cols": 1, "data": [[1, 0], [2, 0]]},
        ],
        ids=["fraction", "integral-float", "bool", "string"],
    )
    def test_non_integer_shape_rejected(self, obj):
        with pytest.raises(ValueError, match="'rows' must be a JSON integer"):
            matrix_from_json(obj)

    @pytest.mark.parametrize(
        "pair", ["34", [True, False], ["1e3", "2"], [1.0, "2"], [None, 0.0], [0.5, False]],
        ids=["two-character-string", "bools", "numeric-strings", "string-imaginary", "null", "bool-imaginary"],
    )
    def test_non_number_entry_rejected(self, pair):
        with pytest.raises(ValueError, match=re.escape(f"pairs of JSON numbers, got {pair!r}")):
            complex_from_json(pair)
        with pytest.raises(ValueError, match=re.escape(repr(pair))):
            matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], pair]})

    @pytest.mark.parametrize(
        "pair, z", [([3, 4], 3 + 4j), ([0.5, -2], 0.5 - 2j), ([-0.0, 1e-310], complex(-0.0, 1e-310))]
    )
    def test_integer_and_float_parts_read(self, pair, z):
        assert complex_from_json(pair) == z
        assert math.copysign(1.0, complex_from_json(pair).real) == math.copysign(1.0, z.real)

    @pytest.mark.parametrize("value", ["3", True, None, [1.0], 1j])
    def test_non_number_real_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(f"alpha must be a JSON number, got {value!r}")):
            real_from_json(value, "alpha")

    @pytest.mark.parametrize("value", [3, -0.25])
    def test_number_real_read(self, value):
        assert real_from_json(value, "alpha") == value and type(real_from_json(value, "alpha")) is float

    @pytest.mark.parametrize(
        "pair", [[1, 0, 0], 5, [1], [], None, (1.0, 0.0)],
        ids=["three-entries", "number", "one-entry", "empty", "null", "tuple"],
    )
    def test_malformed_complex_rejected(self, pair):
        with pytest.raises(ValueError, match=re.escape(f"pairs of JSON numbers, got {pair!r}")):
            complex_from_json(pair)

    @pytest.mark.parametrize(
        "obj",
        [{"rows": 1, "cols": 1}, {"cols": 1, "data": [[1, 0]]}, [1], [[1, 0]], 5, {"rows": 1, "cols": 1, "data": 5}],
        ids=["no-data", "no-rows", "list", "list-of-pairs", "number", "data-not-a-list"],
    )
    def test_malformed_matrix_rejected(self, obj):
        with pytest.raises(ValueError, match=re.escape(f"rows, cols and a data list, got {obj!r}")):
            matrix_from_json(obj)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_tuple_roundtrip(self):
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        back = tuple_from_json(tuple_to_json(mats))
        for a, b in zip(mats, back):
            assert np.array_equal(a, b.real)


class TestStructured:
    def test_rep_pair_roundtrip(self):
        pair = s3_pair()
        back = rep_pair_from_json(rep_pair_to_json(pair))
        assert np.array_equal(back.w, pair.w)
        assert np.array_equal(back.v, pair.v)
        assert back.k == 3
        assert back.commutant_dim == 1

    def test_dilation_result_shape(self):
        result = naimark_normal(triangle_povm(np.array([[0.0]])))
        obj = dilation_result_to_json(result)
        assert set(obj) == {"isometry", "operators", "labels"}
        assert obj["labels"] == ["normal"]

    def test_prism_element_roundtrip(self):
        e = PrismElement.unit(4, 2)
        back = prism_element_from_json(prism_element_to_json(e))
        assert back.k == 4 and back.q == 2
        assert np.array_equal(back.c[0], e.c[0])

    def test_diag_tuple_roundtrip(self):
        x = DiagTuple.ones(3, 2)
        back = diag_tuple_from_json(diag_tuple_to_json(x))
        assert back.k == 3 and back.q == 2
        assert np.array_equal(back.blocks[4], x.blocks[4])

    @pytest.mark.parametrize("key, value", [("k", 3.0), ("k", True), ("q", 1.5), ("q", True)])
    def test_non_integer_orders_rejected(self, key, value):
        element = prism_element_to_json(PrismElement.unit(3, 1))
        tuple_ = diag_tuple_to_json(DiagTuple.ones(3, 1))
        pair = rep_pair_to_json(s3_pair())
        for obj, read in ((element, prism_element_from_json), (tuple_, diag_tuple_from_json), (pair, rep_pair_from_json)):
            if key in obj:
                with pytest.raises(ValueError, match=f"'{key}' must be a JSON integer"):
                    read({**obj, key: value})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("commutant_dim", True, "'commutant_dim' must be a JSON integer, got True"),
            ("commutant_dim", 1.0, "'commutant_dim' must be a JSON integer, got 1.0"),
            ("commutant_dim", "1", "'commutant_dim' must be a JSON integer, got '1'"),
            ("commutant_dim", 0, "'commutant_dim' must be null or a JSON integer >= 1, got 0"),
            ("provenance", {"a": 1}, "'provenance' must be a JSON string, got {'a': 1}"),
            ("provenance", 3, "'provenance' must be a JSON string, got 3"),
            ("provenance", None, "'provenance' must be a JSON string, got None"),
        ],
        ids=[
            "dim-bool", "dim-float", "dim-string", "dim-zero", "provenance-object", "provenance-number", "provenance-null",
        ],
    )
    def test_pair_metadata_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            rep_pair_from_json({**rep_pair_to_json(s3_pair()), key: value})

    @pytest.mark.parametrize("dim", [None, 1, 7])
    def test_pair_metadata_read(self, dim):
        obj = {**rep_pair_to_json(s3_pair()), "commutant_dim": dim, "provenance": "given"}
        back = rep_pair_from_json(obj)
        assert back.commutant_dim == dim and back.provenance == "given"
        del obj["commutant_dim"], obj["provenance"]
        back = rep_pair_from_json(obj)
        assert back.commutant_dim is None and back.provenance == ""

    def test_dual_tuple(self):
        obj = dual_tuple_to_json(DualTuple(3, np.array([1, 1, 1, 1, 2.0])))
        assert obj["z"][4] == [2.0, 0.0]

    def test_unknown_verdict(self):
        obj = verdict_to_json(Unknown(reason="budget", residual=0.5))
        assert obj["verdict"] == "unknown"
