import argparse
import gc
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from constructions import DUAL
from helpers import random_unitary

import ncprism
from ncprism import cli, convexity, opsys, reps, serialize, verify
from ncprism.serialize import matrix_from_json, matrix_to_json

SRC = os.path.dirname(os.path.dirname(ncprism.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, monkeypatch, args, stdin_obj=None):
    text = json.dumps(stdin_obj) if stdin_obj is not None else ""

    class FakeStdin:
        def isatty(self):
            return not bool(text)

        def read(self):
            return text

    monkeypatch.setattr(cli.sys, "stdin", FakeStdin())
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scalar(value):
    return matrix_to_json(np.array([[value]], dtype=complex))


class TestGeometry:
    def test_table_values(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["geometry", "--k", "3"])
        assert code == 0
        assert "0.500000000000000" in out
        assert "1.060660171779821" in out

    def test_json_mode(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["geometry", "--k", "4", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["incircle_radius"] == pytest.approx(np.sqrt(2) / 2)


class TestRepAndCommutant:
    def test_square_then_commutant_dimension_one(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["rep", "square", "--lambda", "0"])
        assert code == 0
        tuple_json = json.loads(out)
        code, out, _ = run_cli(capsys, monkeypatch, ["commutant"], stdin_obj=tuple_json)
        assert code == 0
        assert json.loads(out)["dimension"] == 1

    def test_commutant_of_complex_tuple_commutes(self, capsys, monkeypatch):
        u = random_unitary(np.random.default_rng(5), 4)
        mat = u @ np.diag([1.0, 1.0, -1.0, -1.0]) @ u.conj().T
        payload = {"tuple": [matrix_to_json(mat)]}
        code, out, _ = run_cli(capsys, monkeypatch, ["commutant"], stdin_obj=payload)
        assert code == 0
        basis = [matrix_from_json(b) for b in json.loads(out)["basis"]]
        assert len(basis) == 8
        assert max(np.linalg.norm(b @ mat - mat @ b, 2) for b in basis) <= 1e-8

    def test_s3_reports_orders_and_relations(self, capsys, monkeypatch):
        _, out, _ = run_cli(capsys, monkeypatch, ["rep", "s3", "--json"])
        checks = {c["name"]: c for c in json.loads(out)["report"]["checks"]}
        names = ("w_unitary", "w_order_3", "v_unitary", "v_order_2", "VWV = W^-1", "||WV - VW||_F >= 1")
        for name in names:
            assert checks[name]["passed"] and checks[name]["residual"] <= checks[name]["bound"]
        # The relation and the commutator row fix the group and its
        # irreducibility: no order row and no commutant solve.
        assert not checks.keys() & {"group_order_6", "commutant_dimension_1", "basis_commutes"}

    def test_s3_report_is_what_the_factory_measured(self, capsys, monkeypatch):
        _, out, _ = run_cli(capsys, monkeypatch, ["rep", "s3", "--json"])
        checks = json.loads(out)["report"]["checks"]
        assert [c["name"] for c in checks].count("VWV = W^-1") == 1
        irreducible = [c for c in checks if c["name"] == "||WV - VW||_F >= 1"]
        assert irreducible == [
            {
                "name": "||WV - VW||_F >= 1",
                "passed": True,
                "residual": pytest.approx(1.0 - math.sqrt(6.0), abs=1e-12),
                "bound": 0.0,
                "of": "s3_pair",
            }
        ]

    @pytest.mark.parametrize(
        "args, payload, stub",
        [
            # The handlers check what no constructor does: a word's input pair
            # (here W = 1/2, not of order 3), the quotient map, and the
            # irreducibility of the square family. The last two pass on every
            # real input, so their residual functions are stubbed to fail.
            (["word", "--k", "3", "--letters", "wv"], {"k": 3, "W": scalar(0.5), "V": scalar(1.0)}, None),
            (
                ["quotient", "psi", "--k", "3"],
                {"k": 3, "q": 1, "blocks": [scalar(1.0)] * 5},
                (opsys, "quotient_residuals", lambda k, q: [("kernel_maps_to_zero", 1.0, 1e-12)]),
            ),
            (
                ["rep", "square", "--lambda", "0"],
                None,
                (cli, "irreducibility_residual", lambda mats: ("commutant_dimension_1", 1.0, 0.0)),
            ),
        ],
    )
    def test_handler_check_failure_exits_two(self, capsys, monkeypatch, args, payload, stub):
        if stub is not None:
            monkeypatch.setattr(*stub)
        code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exceeds its bound" in err

    def test_vertex_rep_artifact(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["rep", "vertex", "--k", "3", "--j", "1", "--sign", "-"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 3
        assert "state_vector" in obj

    def test_steinberg_nine_is_error(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["rep", "steinberg", "--q", "9"])
        assert code == 2
        assert "9" in err

    @pytest.mark.parametrize(
        "args, payload, target",
        [
            (["rep", "vertex", "--k", "200000", "--j", "0"], None, ("reps", "prism_vertex_rep")),
            (["dilate", "joint", "--k", "300000"], {"a": scalar(0.1), "b": scalar(0.1)}, ("dilation", "joint_prism_dilation")),
        ],
    )
    def test_out_of_memory_exits_two(self, capsys, monkeypatch, args, payload, target):
        # Exit 1 means a false or refuted verdict, so a request too large to
        # allocate is an error. The library call is stubbed: nothing is
        # allocated.
        def oversized(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        monkeypatch.setattr(f"ncprism.{target[0]}.{target[1]}", oversized)
        code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload)
        assert (code, out) == (2, "")
        assert err == "error: Unable to allocate 596. GiB for an array\n"


class TestCheck:
    def test_prism_nonmember_exit_one(self, capsys, monkeypatch):
        payload = {"a": scalar(0.0), "b": scalar(2.0)}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["check", "prism", "--k", "3"], stdin_obj=payload
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["member"] is False
        assert "worst_facet" in obj

    def test_cube_member_exit_zero(self, capsys, monkeypatch):
        m1 = matrix_to_json(np.diag([1.0, -1.0]).astype(complex))
        m2 = matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["check", "cube", "--d", "2"], stdin_obj={"tuple": [m1, m2]}
        )
        assert code == 0
        assert json.loads(out)["member"] is True


class TestDilate:
    def test_halmos(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["dilate", "halmos"], stdin_obj=scalar(0.5))
        assert code == 0
        obj = json.loads(out)
        assert obj["operators"][0]["rows"] == 2

    def test_joint(self, capsys, monkeypatch):
        payload = {"a": scalar(0.3), "b": scalar(-0.2)}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["dilate", "joint", "--k", "3"], stdin_obj=payload
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pair"]["k"] == 3


class TestPositivity:
    def test_scalar_negative_exit_one(self, capsys, monkeypatch):
        one = scalar(1.0)
        element = {"k": 3, "q": 1, "c": [one, one, one], "g": one}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["positivity", "scalar", "--k", "3"], stdin_obj=element
        )
        assert code == 1
        assert json.loads(out)["margin"] == pytest.approx(-1.0)

    def test_matrix_unit_certified(self, capsys, monkeypatch):
        one, zero = scalar(1.0), scalar(0.0)
        element = {"k": 3, "q": 1, "c": [one, zero, zero], "g": zero}
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["positivity", "matrix", "--k", "3"],
            stdin_obj=element,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_matrix_unit_certified_at_k5(self, capsys, monkeypatch):
        one, zero = scalar(1.0), scalar(0.0)
        element = {"k": 5, "q": 1, "c": [one, zero, zero, zero, zero], "g": zero}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["positivity", "matrix", "--k", "5"], stdin_obj=element
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_matrix_refuses_an_overflowing_element(self, capsys, monkeypatch):
        # Finite entries whose particular lift overflows: exit 2, and no NaN
        # is printed where JSON is expected.
        big, zero = scalar(1e308), scalar(0.0)
        element = {"k": 3, "q": 1, "c": [big, zero, zero], "g": big}
        code, out, err = run_cli(
            capsys, monkeypatch, ["positivity", "matrix", "--k", "3", "--json"], stdin_obj=element
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows" in err

    @pytest.mark.parametrize("flags", [["--samples", "-1"], ["--samples", "20"]])
    def test_matrix_rejects_bad_budgets(self, capsys, monkeypatch, flags):
        # The oracle draws no sample set: any sample budget is an unknown flag.
        one, zero = scalar(1.0), scalar(0.0)
        element = {"k": 3, "q": 1, "c": [one, zero, zero], "g": zero}
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                capsys,
                monkeypatch,
                ["positivity", "matrix", "--k", "3", "--json", *flags],
                stdin_obj=element,
            )
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err

    def test_cube_rule(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["positivity", "cube"],
            stdin_obj={"alpha": 1.9, "beta": [1.0, 1.0]},
        )
        assert code == 1
        assert json.loads(out)["margin"] == pytest.approx(-0.1)


class TestQuotient:
    def test_psi_kernel(self, capsys, monkeypatch):
        one, minus = scalar(1.0), scalar(-1.0)
        payload = {"k": 3, "q": 1, "blocks": [one, one, one, minus, minus]}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["quotient", "psi", "--k", "3"], stdin_obj=payload
        )
        assert code == 0
        obj = json.loads(out)
        flat = [abs(complex(re, im)) for block in obj["c"] for re, im in block["data"]]
        assert max(flat) <= 1e-12

    def test_psi_refuses_a_mismatched_k(self, capsys, monkeypatch):
        # --k restates the tuple's k, as for positivity, and must match it.
        one = scalar(1.0)
        payload = {"k": 3, "q": 1, "blocks": [one] * 5}
        code, out, err = run_cli(
            capsys, monkeypatch, ["quotient", "psi", "--k", "7"], stdin_obj=payload
        )
        assert code == 2
        assert out == ""
        assert "tuple has k=3, flag says k=7" in err

    def test_dual_member(self, capsys, monkeypatch):
        payload = {"z": [[1.0, 0.0]] * 3 + [[1.0, 0.0], [2.0, 0.0]]}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["quotient", "dual-member", "--k", "3"], stdin_obj=payload
        )
        assert code == 0
        assert json.loads(out)["member"] is True

    @pytest.mark.parametrize(
        "k, z, message",
        [
            ("1", [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "k must be >= 3"),
            ("3", [[float("nan"), 0.0]] + [[0.0, 0.0]] * 4, "finite"),
        ],
        ids=["k-1", "nan"],
    )
    def test_dual_member_refuses_a_bad_tuple(self, capsys, monkeypatch, k, z, message):
        # Refused as a usage error, never answered "member": true or false.
        code, out, err = run_cli(
            capsys, monkeypatch, ["quotient", "dual-member", "--k", k], stdin_obj={"z": z}
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_functional_refuses_a_pair_that_is_not_one(self, capsys, monkeypatch):
        # W = V = 0 is no unitary pair: refused as word refuses it, not
        # turned into dual coordinates.
        payload = {"pair": {"k": 3, "W": scalar(0.0), "V": scalar(0.0)}, "density": scalar(1.0)}
        code, out, err = run_cli(capsys, monkeypatch, ["quotient", "functional", "--k", "3"], stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error: input pair: w_unitary")

    @pytest.mark.parametrize("k", [0, -2])
    @pytest.mark.parametrize(
        "args", [["word", "--letters", "w*v"], ["quotient", "functional"]], ids=["word", "functional"]
    )
    def test_a_pair_of_order_below_one_is_refused(self, capsys, monkeypatch, k, args):
        # At k = 0 the order rows pass any unitary pair (W^0 = 1), and the
        # functional's transform has no points: refused by the pair itself.
        pair = {"k": k, "W": scalar(1.0), "V": scalar(1.0)}
        payload = {"pair": pair, "density": scalar(1.0)}
        code, out, err = run_cli(capsys, monkeypatch, [*args, "--k", str(k)], stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err == f"error: an order k must be at least 1, got k={k}\n"

    def test_functional_reports_the_input_pair_rows(self, capsys, monkeypatch):
        pair = ncprism.s3_pair()
        payload = {"pair": serialize.rep_pair_to_json(pair), "density": matrix_to_json(np.eye(2) / 2)}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["quotient", "functional", "--k", "3", "--json"], stdin_obj=payload
        )
        assert code == 0
        checks = json.loads(out)["report"]["checks"]
        rows = [c["name"] for c in checks if c["of"] == "input pair"]
        assert rows == [name for name, *_ in ncprism.reps.pair_residuals(pair)]
        assert all(c["passed"] for c in checks)


class TestReportAndDeterminism:
    def test_identical_runs_are_byte_identical(self, capsys, monkeypatch):
        _, out1, _ = run_cli(capsys, monkeypatch, ["rep", "hadamard", "--m", "2", "--json"])
        _, out2, _ = run_cli(capsys, monkeypatch, ["rep", "hadamard", "--m", "2", "--json"])
        assert out1 == out2

    def test_report_structure(self, capsys, monkeypatch):
        _, out, _ = run_cli(capsys, monkeypatch, ["rep", "square", "--lambda", "0.5", "--json"])
        payload = json.loads(out)
        assert set(payload) == {"report", "result"}
        report = payload["report"]
        assert report["command"] == "rep square"
        assert report["seed"] == 0
        assert all(c["passed"] for c in report["checks"])

    def test_out_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "artifact.json"
        code, out, _ = run_cli(
            capsys, monkeypatch, ["rep", "square", "--lambda", "0", "--out", str(target)]
        )
        assert code == 0
        assert "PASS" in out
        assert json.loads(target.read_text())["provenance"].startswith("square_irrep")

    def test_bad_input_exit_two(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["commutant"], stdin_obj={"nope": 1})
        assert code == 2
        assert err.startswith("error:")

    # A file that cannot be opened is an error (2), not a false verdict (1).
    @pytest.mark.parametrize(
        "args", [["geometry", "--k", "3", "--out", "{missing}/x.json"], ["commutant", "--in", "{missing}.json"]]
    )
    def test_unopenable_file_exits_two(self, capsys, monkeypatch, tmp_path, args):
        args = [a.format(missing=tmp_path / "missing") for a in args]
        code, out, err = run_cli(capsys, monkeypatch, args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "No such file or directory" in err

    @pytest.mark.parametrize(
        "args", [["geometry", "--k", "3"], ["rep", "steinberg", "--q", "8"], ["verify", "all"]]
    )
    def test_input_free_command_ignores_open_stdin(self, args, tmp_path):
        # stdin is a pipe that is never written to or closed, as under a
        # background job or a CI step; a command that read it would block.
        target = tmp_path / "out.json"
        with open(target, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ncprism.cli", *args, "--json"],
                stdin=subprocess.PIPE,
                stdout=out,
                env=ENV,
            )
            try:
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()
                proc.stdin.close()
        report = json.loads(target.read_text())["report"]
        assert report["inputs"] == hashlib.sha256(b"").hexdigest()

    @pytest.mark.parametrize(
        "args", [["geometry", "--k", "3"], ["rep", "steinberg", "--q", "8"], ["verify", "all"]]
    )
    def test_input_free_command_rejects_in_flag(self, capsys, args, tmp_path):
        source = tmp_path / "x.json"
        source.write_text("{}")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*args, "--in", str(source)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --in" in capsys.readouterr().err

    # Every verdict is decided at the fixed tolerances of matkernel: no flag
    # sets them.
    @pytest.mark.parametrize("args", [["positivity", "matrix", "--k", "3"], ["rep", "s3"]])
    def test_tol_flag_is_refused(self, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*args, "--tol", "1e-4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestVerify:
    def test_small_budget_suite(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["verify", "all"]
        )
        assert code == 0
        assert "all checks passed" in out

    def test_json_rows_are_the_checks_and_the_report_has_none(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "all", "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["result"]["all_passed"]
        assert [c["name"] for c in payload["result"]["checks"]] == [name for name, _, _ in verify._CHECKS]
        # Each row collects its own residuals; none reach the command's report.
        assert payload["report"]["checks"] == []

    def test_out_writes_the_result_of_json_mode(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "all", "--out", str(target)])
        assert code == 0 and f"wrote {target}" in out
        _, json_out, _ = run_cli(capsys, monkeypatch, ["verify", "all", "--json"])
        assert json.loads(target.read_text()) == json.loads(json_out)["result"]


EMPTY = {"rows": 0, "cols": 0, "data": []}


class TestMalformedMatrices:
    @pytest.mark.parametrize(
        "args, payload",
        [
            (["positivity", "matrix", "--k", "3"], {"k": 3, "q": 0, "c": [EMPTY] * 3, "g": EMPTY}),
            (["dilate", "mirman"], EMPTY),
            (["dilate", "halmos"], EMPTY),
            (["commutant"], {"tuple": [EMPTY]}),
            (["check", "prism", "--k", "3"], {"a": EMPTY, "b": EMPTY}),
        ],
    )
    def test_empty_matrix_exits_two(self, capsys, monkeypatch, args, payload):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_nan_entry_exits_two(self, capsys, monkeypatch):
        payload = {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
        code, out, err = run_cli(capsys, monkeypatch, ["dilate", "halmos"], stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert "finite" in err

    # Python's json reads and writes the Infinity and NaN tokens.
    @pytest.mark.parametrize(
        "entry", [[float("inf"), 0.0], [float("-inf"), 0.0], [0.0, float("nan")]], ids=["inf", "-inf", "nan-imaginary"]
    )
    def test_non_finite_entry_exits_two(self, capsys, monkeypatch, entry):
        payload = {"rows": 1, "cols": 1, "data": [entry]}
        code, out, err = run_cli(capsys, monkeypatch, ["dilate", "halmos"], stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "args, payload",
        [
            (["positivity", "cube"], lambda x: {"alpha": x, "beta": [0.5]}),
            (["positivity", "cube"], lambda x: {"alpha": 1.0, "beta": [x]}),
            (["quotient", "dual-member", "--k", "3"], lambda x: {"z": [[x, 0.0]] + [[0.0, 0.0]] * 4}),
        ],
        ids=["cube-alpha", "cube-beta", "dual-member-z"],
    )
    def test_non_finite_scalar_exits_two(self, capsys, monkeypatch, args, payload, value):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload(value))
        assert code == 2
        assert out == ""
        assert "finite" in err

    # JSON numbers must be numbers: a string or a bool in a scalar's place is
    # refused by name, never read through float().
    @pytest.mark.parametrize(
        "args, payload, named",
        [
            (["dilate", "halmos"], {"rows": 1, "cols": 1, "data": ["34"]}, "'34'"),
            (["dilate", "halmos"], {"rows": 1, "cols": 1, "data": [[True, False]]}, "[True, False]"),
            (["dilate", "halmos"], {"rows": 1, "cols": 1, "data": [["1e3", "2"]]}, "['1e3', '2']"),
            (["quotient", "dual-member", "--k", "3"], {"z": ["12"] + [[0.0, 0.0]] * 4}, "'12'"),
            (["positivity", "cube"], {"alpha": "3", "beta": ["1", True]}, "input: 'alpha' must be a JSON number, got '3'"),
            (["positivity", "cube"], {"alpha": 3, "beta": ["1", True]}, "got '1'"),
            (["positivity", "cube"], {"alpha": 3, "beta": [1.0, True]}, "got True"),
            (["positivity", "cube"], {"alpha": False, "beta": [0.5]}, "got False"),
            (["positivity", "cube"], {"alpha": 3, "beta": "12"}, "input: 'beta' must be a JSON list, got '12'"),
        ],
        ids=[
            "string-entry", "bool-entry", "string-parts", "dual-member-string", "cube-string-alpha",
            "cube-string-beta", "cube-bool-beta", "cube-bool-alpha", "cube-string-beta-list",
        ],
    )
    def test_non_number_scalar_exits_two(self, capsys, monkeypatch, args, payload, named):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err

    # A matrix or a complex scalar of the wrong shape is refused by name, in
    # the library's words rather than Python's unpacking or indexing errors.
    @pytest.mark.parametrize(
        "args, payload, named",
        [
            (["dilate", "halmos"], {"rows": 1, "cols": 1, "data": [[1, 0, 0]]}, "got [1, 0, 0]"),
            (["dilate", "halmos"], {"rows": 1, "cols": 1, "data": [5]}, "got 5"),
            (["dilate", "halmos"], {"rows": 1, "cols": 1}, "got {'rows': 1, 'cols': 1}"),
            (["dilate", "halmos"], [1], "got [1]"),
            (["dilate", "joint"], {"a": [1], "b": {"rows": 1, "cols": 1, "data": [[0.1, 0.0]]}}, "got [1]"),
            (["quotient", "dual-member", "--k", "3"], {"z": [[1]] + [[0.0, 0.0]] * 4}, "got [1]"),
        ],
        ids=[
            "three-part-entry", "number-entry", "no-data", "list-for-halmos", "list-for-joint", "dual-member-one-part",
        ],
    )
    def test_malformed_matrix_or_scalar_exits_two(self, capsys, monkeypatch, args, payload, named):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err
        assert "unpack" not in err and "indices" not in err

    def test_pair_metadata_must_be_typed(self, capsys, monkeypatch):
        pair = {**serialize.rep_pair_to_json(reps.s3_pair()), "commutant_dim": True, "provenance": {"a": 1}}
        code, out, err = run_cli(capsys, monkeypatch, ["word", "--k", "3", "--letters", "wv"], stdin_obj=pair)
        assert code == 2
        assert out == ""
        assert err.startswith("error: 'provenance' must be a JSON string, got {'a': 1}")

    def test_integer_beyond_the_floats_exits_two(self, capsys, monkeypatch):
        payload = {"rows": 1, "cols": 1, "data": [[10**400, 0]]}
        code, out, err = run_cli(capsys, monkeypatch, ["dilate", "halmos"], stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "too large" in err


def _reading_rows():
    """The name and argv of every row of the CLI's command table that reads
    input, with a value for each required flag."""
    rows = []
    for command, (_, _, subcommands) in cli._COMMANDS.items():
        for subcommand, (reads_input, flags) in subcommands.items():
            if reads_input:
                argv = [command, *filter(None, [subcommand])]
                name = " ".join(argv)
                for flag, kwargs in flags:
                    if kwargs.get("required"):
                        argv += [flag, "3" if kwargs.get("type") is int else "w"]
                rows.append(pytest.param(name, argv, id=name.replace(" ", "-")))
    return rows


class TestOutsideInput:
    """Input the library cannot take is refused with exit 2 and its own message."""

    @pytest.mark.parametrize("name, args", _reading_rows())
    def test_no_input_is_refused_by_name(self, capsys, monkeypatch, tmp_path, name, args):
        # An empty stdin, and a JSON null given with --in.
        null = tmp_path / "null.json"
        null.write_text("null")
        for argv in (args, [*args, "--in", str(null)]):
            code, out, err = run_cli(capsys, monkeypatch, argv, stdin_obj=None)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {name} reads its input as JSON from stdin or --in")
            assert "NoneType" not in err

    @pytest.mark.parametrize(
        "args, payload, message",
        [
            (["dilate", "halmos"], {"rows": 2.9, "cols": 1, "data": [[1, 0], [2, 0]]}, "'rows' must be a JSON integer"),
            (["dilate", "halmos"], {"rows": True, "cols": True, "data": [[0.5, 0]]}, "'rows' must be a JSON integer"),
            (
                ["positivity", "matrix", "--k", "3"],
                {"k": 3.0, "q": 1, "c": [scalar(1.0)] * 3, "g": scalar(0.0)},
                "'k' must be a JSON integer",
            ),
            (
                ["positivity", "matrix", "--k", "3"],
                {"k": 3, "q": True, "c": [scalar(1.0)] * 3, "g": scalar(0.0)},
                "'q' must be a JSON integer",
            ),
            (
                ["check", "prism", "--k", "3"],
                {"a": matrix_to_json(np.zeros((2, 3))), "b": matrix_to_json(np.zeros((2, 2)))},
                "need a square matrix",
            ),
            (["dilate", "halmos"], matrix_to_json(np.zeros((2, 3))), "halmos_unitary requires a square matrix"),
        ],
        ids=["float-rows", "bool-shape", "float-k", "bool-q", "non-square-a", "non-square-halmos"],
    )
    def test_refused_with_exit_two(self, capsys, monkeypatch, args, payload, message):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "broadcast" not in err

    @pytest.mark.parametrize("scale, message", [(1e100, "kept no element"), (1e200, "inputs too large")])
    def test_commutant_of_huge_inputs_exits_two(self, capsys, monkeypatch, scale, message):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        payload = {"tuple": [matrix_to_json(scale * a), matrix_to_json(scale * b)]}
        code, out, err = run_cli(capsys, monkeypatch, ["commutant"], stdin_obj=payload)
        assert code == 2
        assert out == ""
        assert err.startswith("error: commutant solve") and message in err


ONE = scalar(0.1)
PAIR = serialize.rep_pair_to_json(reps.s3_pair())

# Each reading row of the command table -> a payload with a required key
# left out, that key, a payload with a value of the wrong JSON type, and the
# refusal that names it.
PAYLOAD_ERRORS = {
    "dilate halmos": ({"rows": 1, "cols": 1}, "data", {"rows": 1, "cols": 1, "data": 5}, "'data' must be a JSON list"),
    "dilate mirman": ({"rows": 1, "data": []}, "cols", {"rows": "1", "cols": 1, "data": []}, "'rows' must be a JSON integer"),
    "dilate joint": ({"a": ONE}, "b", {"a": [1], "b": ONE}, "'a' must be a JSON object"),
    "dilate cube": ({}, "tuple", {"tuple": ONE}, "'tuple' must be a JSON list"),
    "check cube": ({"tuples": []}, "tuple", {"tuple": 5}, "'tuple' must be a JSON list"),
    "check prism": ({"b": ONE}, "a", {"a": ONE, "b": None}, "'b' must be a JSON object"),
    "commutant": ({}, "tuple", {"tuple": "x"}, "'tuple' must be a JSON list"),
    "positivity scalar": ({"k": 3, "c": [], "g": ONE}, "q", {"k": 3, "q": 1, "c": [], "g": []}, "'g' must be a JSON object"),
    "positivity matrix": ({"k": 3, "q": 1, "c": []}, "g", {"k": 3, "q": 1, "c": 5, "g": ONE}, "'c' must be a JSON list"),
    "positivity cube": ({"beta": []}, "alpha", {"alpha": 1, "beta": 0.5}, "'beta' must be a JSON list"),
    "word": ({"pair": {"W": ONE, "V": ONE}}, "k", {"pair": PAIR, "isometry": [1]}, "'isometry' must be a JSON object"),
    "quotient psi": ({"k": 3, "q": 1}, "blocks", {"k": True, "q": 1, "blocks": []}, "'k' must be a JSON integer"),
    "quotient dual-member": ({"k": 3}, "z", {"z": {"re": 1}}, "'z' must be a JSON list"),
    "quotient functional": ({"pair": PAIR}, "density", {"pair": {**PAIR, "W": 1}, "density": ONE}, "'W' must be a JSON object"),
}


class TestPayloadReader:
    """Every reading row refuses, with exit 2 and a message naming the
    command and the key, a payload that is not a JSON object, one without a
    key it reads, and one whose key holds the wrong JSON type."""

    def test_every_reading_row_has_a_case(self):
        assert sorted(PAYLOAD_ERRORS) == sorted(row.values[0] for row in _reading_rows())

    @pytest.mark.parametrize("name, args", _reading_rows())
    def test_malformed_payload_is_refused_by_command_and_key(self, capsys, monkeypatch, name, args):
        missing, key, typed, refusal = PAYLOAD_ERRORS[name]
        for payload, message in (
            ([1], f"{name} input must be a JSON object, got [1]"),
            ("x", f"{name} input must be a JSON object, got 'x'"),
            (missing, f"{name} input has no key {key!r}, got "),
            (typed, f"{name} input: {refusal}, got "),
        ):
            code, out, err = run_cli(capsys, monkeypatch, args, stdin_obj=payload)
            assert (code, out) == (2, "") and err.startswith(f"error: {message}"), err


# Every option of every (command, subcommand): dest, type, default, choices,
# required and nargs. The shared options are the same everywhere; --in only
# where the command reads JSON input.
_SHARED = {
    "--seed": ("seed", int, 0, None, False, None),
    "--out": ("out", None, None, None, False, None),
    "--json": ("json", None, False, None, False, 0),
}
_IN = {"--in": ("infile", None, None, None, False, None)}
_K = {"--k": ("k", int, None, None, True, None)}

CLI_SURFACE = {
    ("dilate", "halmos"): (True, {**_SHARED, **_IN}),
    ("dilate", "mirman"): (True, {**_SHARED, **_IN}),
    ("dilate", "joint"): (True, {**_SHARED, **_IN, "--k": ("k", int, 3, None, False, None)}),
    ("dilate", "cube"): (True, {**_SHARED, **_IN}),
    ("rep", "square"): (False, {**_SHARED, "--lambda": ("lam", float, None, None, True, None)}),
    ("rep", "hadamard"): (False, {**_SHARED, "--m": ("m", int, None, None, True, None)}),
    ("rep", "vertex"): (
        False,
        {
            **_SHARED,
            **_K,
            "--j": ("j", int, None, None, True, None),
            "--sign": ("sign", None, "+", ["+", "-", "+1", "-1", "1"], False, None),
        },
    ),
    ("rep", "s3"): (False, _SHARED),
    ("rep", "a4"): (False, _SHARED),
    ("rep", "steinberg"): (False, {**_SHARED, "--q": ("q", int, None, None, True, None)}),
    ("rep", "assemble"): (False, {**_SHARED, "--n": ("n", int, None, None, True, None)}),
    ("check", "cube"): (True, {**_SHARED, **_IN, "--d": ("d", int, None, None, True, None)}),
    ("check", "prism"): (True, {**_SHARED, **_IN, **_K}),
    ("commutant", None): (True, {**_SHARED, **_IN}),
    ("positivity", "scalar"): (True, {**_SHARED, **_IN, **_K}),
    ("positivity", "matrix"): (True, {**_SHARED, **_IN, **_K}),
    ("positivity", "cube"): (True, {**_SHARED, **_IN}),
    ("geometry", None): (False, {**_SHARED, **_K, "--d": ("d", int, None, None, False, None)}),
    ("word", None): (True, {**_SHARED, **_IN, **_K, "--letters": ("letters", None, None, None, True, None)}),
    ("quotient", "psi"): (True, {**_SHARED, **_IN, **_K}),
    ("quotient", "dual-member"): (True, {**_SHARED, **_IN, **_K}),
    ("quotient", "functional"): (True, {**_SHARED, **_IN, **_K}),
    ("verify", "all"): (False, _SHARED),
}


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


class TestSurface:
    def test_every_command_has_its_options_and_input_rule(self):
        surface = {}
        (commands,) = _subparsers(cli.build_parser())
        assert commands.required
        for command, parser in commands.choices.items():
            subs = _subparsers(parser)
            assert all(s.required for s in subs)
            for subcommand, leaf in subs[0].choices.items() if subs else [(None, parser)]:
                options = {
                    flag: (a.dest, a.type, a.default, a.choices, a.required, a.nargs)
                    for a in leaf._actions
                    if not isinstance(a, argparse._HelpAction)
                    for flag in a.option_strings
                }
                assert leaf.get_default("reads_input") == ("--in" in options)
                surface[command, subcommand] = (leaf.get_default("reads_input"), options)
        assert surface == CLI_SURFACE


class TestRender:
    @pytest.mark.parametrize(
        "json_flag, out", [(True, None), (False, "art.json"), (False, None), (True, "art.json")]
    )
    def test_non_finite_json_is_refused_before_anything_is_written(
        self, tmp_path, capsys, json_flag, out
    ):
        path = str(tmp_path / out) if out else None
        args = argparse.Namespace(command="geometry", subcommand=None, seed=0, out=path, json=json_flag)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli._render(args, "", [], {"value": value})
        assert capsys.readouterr().out == ""
        assert not (path and os.path.exists(path))


def python(*args, stdin=b""):
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, env=ENV, timeout=120)


# A q = 2 element refuted by the dual witness (exit 1), and a 4 x 4 pair.
_DUAL = serialize.prism_element_to_json(DUAL)
_JOINT = dict(zip("ab", map(matrix_to_json, convexity.random_prism_point(np.random.default_rng(48), 4, 3, scale=0.8))))


class TestProcessEntry:
    """``ncprism`` and ``python -m ncprism.cli`` run :func:`cli.run`, which
    freezes the collector's heap around ``main``; ``main`` itself and a plain
    import of the module leave the collector as they found it."""

    @pytest.mark.parametrize(
        "args, payload", [(["geometry", "--k", "3"], None), (["positivity", "matrix", "--k", "3"], _DUAL)],
        ids=["geometry", "positivity-matrix"],
    )
    def test_main_leaves_the_collector_alone(self, capsys, monkeypatch, args, payload):
        before = gc.isenabled(), gc.get_freeze_count()
        code, _, _ = run_cli(capsys, monkeypatch, args, payload)
        assert code == (0 if payload is None else 1)
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_import_leaves_the_collector_alone(self):
        proc = python("-c", "import gc, ncprism.cli; print(gc.isenabled(), gc.get_freeze_count())")
        assert (proc.returncode, proc.stdout) == (0, b"True 0\n"), proc.stderr

    def test_run_returns_the_exit_code_of_main_and_freezes(self):
        code = (
            "import gc, sys; from ncprism import cli; "
            "codes = [cli.run(['geometry', '--k', '3']), cli.run(['rep', 'assemble', '--n', '18'])]; "
            "print(codes, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)"
        )
        proc = python("-c", code)
        assert proc.returncode == 0 and proc.stderr.splitlines()[-1] == b"[0, 2] True True", proc.stderr

    @pytest.mark.parametrize(
        "args, payload, exit_code",
        [
            (["geometry", "--k", "3", "--json"], None, 0),
            (["verify", "all", "--json", "--seed", "3"], None, 0),
            (["positivity", "matrix", "--k", "3"], _DUAL, 1),
            (["dilate", "joint", "--k", "3"], _JOINT, 0),
        ],
        ids=["geometry", "verify-all", "positivity-matrix-refuted", "dilate-joint"],
    )
    def test_module_run_prints_what_main_prints(self, capsys, monkeypatch, args, payload, exit_code):
        code, out, _ = run_cli(capsys, monkeypatch, args, payload)
        proc = python("-m", "ncprism.cli", *args, stdin=json.dumps(payload).encode() if payload else b"")
        assert code == exit_code
        assert (proc.returncode, proc.stdout) == (code, out.encode()), proc.stderr
