"""The package namespace is lazy, and each CLI command loads only the
modules it calls. Module sets are read from fresh interpreters: this test
process has imported every module already."""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

import ncprism
import ncprism.reps

SRC = os.path.dirname(os.path.dirname(ncprism.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def scalar(value):
    return {"rows": 1, "cols": 1, "data": [[value, 0.0]]}


def python(*args, stdin=""):
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=ENV, timeout=120
    )


# Beside the command's own modules, every command loads the package and the
# three modules cli imports at its top; cli itself runs as __main__.
FRONT = {"ncprism", "ncprism.serialize", "ncprism.errors", "ncprism.matkernel"}
PAIR = {"a": scalar(0.3), "b": scalar(-0.2)}
ELEMENT = {"k": 3, "q": 1, "c": [scalar(2.0), scalar(0.0), scalar(0.0)], "g": scalar(0.0)}


@pytest.mark.parametrize(
    "args, payload, loaded",
    [
        (["geometry", "--k", "3"], None, {"convexity"}),
        (["check", "prism", "--k", "3"], PAIR, {"convexity"}),
        (["commutant"], {"tuple": [scalar(1.0)]}, set()),
        (["rep", "steinberg", "--q", "5"], None, {"reps", "finitefield"}),
        # Only a decomposition over k >= 4 roots of unity whose Fourier base
        # is not positive screens the facets (convexity) and solves (floor):
        # a = 0.9 puts the eigenvalue (1 - 1.8)/4 on the effect at -1, a = 0.3
        # none below 0.1. Only a Steinberg pair needs finitefield.
        (["dilate", "joint", "--k", "3"], PAIR, {"dilation", "reps"}),
        (
            ["dilate", "joint", "--k", "4"], {"a": scalar(0.9), "b": scalar(-0.2)},
            {"dilation", "convexity", "floor", "reps"},
        ),
        (["dilate", "joint", "--k", "4"], PAIR, {"dilation", "reps"}),
        (["dilate", "mirman"], scalar(0.3), {"dilation", "reps"}),
        # A q = 1 element is decided without a dual witness, so dilation
        # stays unloaded.
        (["positivity", "matrix", "--k", "3"], ELEMENT, {"opsys", "reps"}),
        # Every verify entry is decided without a solve.
        (["verify", "all"], None, {"verify", "convexity", "dilation", "finitefield", "opsys", "reps"}),
    ],
    ids=[
        "geometry", "check-prism", "commutant", "rep-steinberg", "dilate-joint", "dilate-joint-k4",
        "dilate-joint-k4-positive-base", "dilate-mirman", "positivity-matrix", "verify-all",
    ],
)
def test_command_loads_only_its_modules(args, payload, loaded):
    # -X importtime names every module the process imports, on stderr.
    proc = python("-X", "importtime", "-m", "ncprism.cli", *args, stdin=json.dumps(payload) if payload else "")
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert {n for n in names if n.split(".")[0] == "ncprism"} == FRONT | {f"ncprism.{m}" for m in loaded}


def test_import_loads_no_submodule():
    code = "import sys, ncprism; print(sorted(m for m in sys.modules if m.split('.')[0] == 'ncprism'))"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['ncprism']"


def test_every_exported_name_is_its_modules_object():
    assert len(ncprism.__all__) == len(set(ncprism.__all__)) == 58
    for name in ncprism.__all__:
        value = getattr(ncprism, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("ncprism.")
        assert getattr(module, name) is value


def test_dir_lists_the_exported_names_and_submodules():
    listed = set(dir(ncprism))
    assert set(ncprism.__all__) <= listed
    assert {"cli", "matkernel", "opsys", "reps", "serialize", "verify", "__version__"} <= listed


def test_names_and_submodules_import_from_the_package():
    from ncprism import RepPair, cli, steinberg_pair

    assert RepPair is ncprism.reps.RepPair
    assert steinberg_pair is ncprism.reps.steinberg_pair
    assert cli is sys.modules["ncprism.cli"] is ncprism.cli


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="no attribute 'steinberg'"):
        ncprism.steinberg
    with pytest.raises(ImportError):
        from ncprism import steinberg  # noqa: F401


def test_package_shows_what_its_module_holds_now(monkeypatch):
    # A name is read from its module on every access: a patch of the module,
    # and its removal, show through the package, so nothing stays bound
    # after a patch is undone.
    original = ncprism.s3_pair
    monkeypatch.setattr(ncprism.reps, "s3_pair", len)
    assert ncprism.s3_pair is len
    monkeypatch.undo()
    assert ncprism.s3_pair is original is ncprism.reps.s3_pair


def test_workflow_calls_only_functions_of_checks_artifacts():
    # CI re-checks artifacts as `artifacts NAME ARGS...`, a shell function for `python -m checks.artifacts`, which
    # calls the function NAME: a renamed or deleted check fails here rather than leave CI calling nothing.
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as f:
        workflow = f.read()
    with open(os.path.join(ROOT, "checks", "artifacts.py")) as f:
        defined = {node.name for node in ast.parse(f.read()).body if isinstance(node, ast.FunctionDef)}
    assert 'artifacts() { PYTHONPATH="$GITHUB_WORKSPACE" python -m checks.artifacts "$@"; }' in workflow
    called = set(re.findall(r"\bartifacts (\w+)", workflow))
    assert {"inputs", "jointcheck", "reflection", "strict"} <= called <= defined, called - defined
