"""Command-line front end with JSON input/output and verification reports.

The command surface is declared once, in the table ``_COMMANDS``: every
command and subcommand, its flags, whether it reads input, and its handler.
Inputs are read as JSON from stdin (or ``--in FILE``) by the commands that
take one; ``rep``, ``geometry`` and ``verify`` read nothing. The primary artifact
is written as JSON to stdout, or to ``--out FILE`` with a short textual
report on stdout instead. ``--json`` wraps the artifact together with the
run report (command, input digest, seed, checks) in one machine-readable
object. The checks are the residuals the library required while building the
artifact, each a (name, residual, bound) line with the construction it was
checked ``of``. Each handler returns its artifact, its exit code and, if
the command prints a table, the table; ``main`` renders all of it in one
place. Outputs are byte-identical for identical inputs and seeds. Every
verdict is decided at the fixed tolerances of ``matkernel``. Each handler
imports the library modules it calls, so a process loads only what its
command runs.

A process runs :func:`run`, the entry of the ``ncprism`` script and of
``python -m ncprism.cli``: the modules load with the cyclic collector off,
``gc.freeze()`` moves them to its permanent generation before ``main`` and
again after it, and the collector runs in between. The loaded heap, some
24 000 objects under numpy, lives until exit and holds no garbage, so no
collection during the handler or at interpreter exit walks it; the
handler's own cycles are collected as usual. ``main(argv)`` leaves the
collector alone, for callers that run it in their own process.

Exit codes: 0 success or true verdict, 1 false or refuted verdict,
2 usage, input, file, memory or runtime error, 3 unknown verdict.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # the modules below load with no collection; run() re-enables it

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import serialize
from .errors import NcprismError, RelationCheckFailedError
from .matkernel import (
    commutant_dimension,
    irreducibility_residual,
    is_hermitian,
    measured,
    require,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3


def _read_input(args) -> tuple[dict | None, str]:
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif not sys.stdin.isatty():
        text = sys.stdin.read()
    else:
        text = ""
    return (json.loads(text) if text.strip() else None), text


# The JSON types a payload's keys may hold; a key ending in "?" may be absent.
_KINDS = {"object": (dict,), "list": (list,), "integer": (int,), "number": (int, float)}
_MATRIX = {"rows": "integer", "cols": "integer", "data": "list"}
_TUPLE = {"tuple": "list"}
_PAIR = {"W": "object", "V": "object", "k": "integer"}
_ELEMENT = {"k": "integer", "q": "integer", "c": "list", "g": "object"}


def _payload(args, payload, keys: dict):
    """``payload`` once it is a JSON object holding each key of ``keys`` with
    a value of the JSON type named there, else an error naming the command
    and the key: the one reader of every input payload, so that no handler
    indexes or iterates one unchecked."""
    name = " ".join(filter(None, (args.command, args.subcommand)))
    if payload is None:
        raise NcprismError(f"{name} reads its input as JSON from stdin or --in, and got none")
    if type(payload) is not dict:
        raise ValueError(f"{name} input must be a JSON object, got {payload!r:.60}")
    for key, kind in keys.items():
        optional, key = key.endswith("?"), key.rstrip("?")
        if key not in payload and not optional:
            raise ValueError(f"{name} input has no key {key!r}, got {payload!r:.60}")
        if key in payload and type(payload[key]) not in _KINDS[kind]:
            raise ValueError(f"{name} input: {key!r} must be a JSON {kind}, got {payload[key]!r:.60}")
    return payload


def _render(args, input_text: str, records: list, artifact: dict, table: list[str] | None = None) -> None:
    """Write the artifact to ``--out``, print the report and artifact with
    ``--json``, and otherwise print ``table`` if the command has one, else
    the artifact. ``records`` are the residuals that ``require`` recorded
    while the command ran inside ``measured``. NaN or Infinity in JSON to be
    written or printed raises ``ValueError`` before anything is written."""
    out = args.out
    checks = [
        {"name": name, "passed": bool(value <= bound), "residual": float(value),
         "bound": float(bound), "of": what}
        for name, value, bound, what in records
    ]
    if out:
        body = json.dumps(artifact, indent=2, allow_nan=False)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    if args.json:
        import hashlib  # loads OpenSSL: only the report's input digest needs it
        report = {
            "command": args.command + (f" {args.subcommand}" if args.subcommand else ""),
            "inputs": hashlib.sha256(input_text.encode("utf-8")).hexdigest(),
            "seed": args.seed,
            "checks": checks,
            "artifacts": [out] if out else ["stdout"],
        }
        print(json.dumps({"report": report, "result": artifact}, indent=2, allow_nan=False))
    elif out:
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            values = f"residual {check['residual']:.3e}, bound {check['bound']:.1e}"
            print(f"{check['name']} of {check['of']}: {status} ({values})")
        print(f"wrote {out}")
    elif table is not None:
        print("\n".join(table))
    else:
        print(json.dumps(artifact, indent=2, allow_nan=False))


def _cmd_dilate(args, payload) -> tuple:
    from . import dilation

    sub = args.subcommand
    if sub == "joint":
        a = serialize.matrix_from_json(payload["a"])
        b = serialize.matrix_from_json(payload["b"])
        pair, g = dilation.joint_prism_dilation(a, b, args.k)
        artifact = {
            "pair": serialize.rep_pair_to_json(pair),
            "isometry": serialize.matrix_to_json(g),
        }
        return artifact, EXIT_OK
    if sub == "halmos":
        x = serialize.matrix_from_json(payload)
        if is_hermitian(x):
            big = dilation.halmos_symmetry(x)
        else:
            big = dilation.halmos_unitary(x)
        n = x.shape[0]
        iso = np.vstack([np.eye(n), np.zeros((n, n))]).astype(complex)
        result = dilation.DilationResult(iso, [big], ["dilation"])
    elif sub == "mirman":
        a = serialize.matrix_from_json(payload)
        povm = dilation.triangle_povm(a)
        result = dilation.naimark_normal(povm)
    else:  # "cube": the subparser admits no other choice.
        mats = serialize.tuple_from_json(payload)
        result = dilation.cube_dilation(mats)
    return serialize.dilation_result_to_json(result), EXIT_OK


def _cmd_rep(args, payload) -> tuple:
    from . import reps

    sub = args.subcommand
    if sub in ("square", "hadamard"):
        # Irreducible by theory: their constructors compute no commutant.
        st = reps.square_irrep(args.lam) if sub == "square" else reps.hadamard_symmetries(args.m)
        require([irreducibility_residual(st.mats)], RelationCheckFailedError, st.provenance)
        return serialize.symmetry_tuple_to_json(st), EXIT_OK
    if sub == "vertex":
        sign = 1 if args.sign in ("+", "+1", "1") else -1
        pair, xi = reps.prism_vertex_rep(args.k, args.j, sign)
        artifact = serialize.rep_pair_to_json(pair)
        artifact["state_vector"] = serialize.matrix_to_json(xi.reshape(-1, 1))
        return artifact, EXIT_OK
    builders = {
        "s3": reps.s3_pair,
        "a4": reps.a4_pair,
        "steinberg": lambda: reps.steinberg_pair(args.q),
        "assemble": lambda: reps.assemble_dimension(args.n),
    }
    return serialize.rep_pair_to_json(builders[sub]()), EXIT_OK


def _membership_artifact(result) -> dict:
    return {
        "member": result.member,
        "worst_facet": {
            "index": result.facet_index,
            "normal": list(map(float, result.normal)),
            "offset": result.offset,
            "support": result.support,
        },
        "margin": result.margin,
    }


def _cmd_check(args, payload) -> tuple:
    from . import convexity

    if args.subcommand == "cube":
        mats = serialize.tuple_from_json(payload)
        result = convexity.max_member(mats, convexity.make_cube(args.d))
    else:
        a = serialize.matrix_from_json(payload["a"])
        b = serialize.matrix_from_json(payload["b"])
        result = convexity.prism_member(a, b, args.k)
    return _membership_artifact(result), EXIT_OK if result.member else EXIT_FALSE


def _cmd_commutant(args, payload) -> tuple:
    mats = serialize.tuple_from_json(payload)
    dim, basis = commutant_dimension(mats)
    artifact = {"dimension": dim, "basis": [serialize.matrix_to_json(b) for b in basis]}
    return artifact, EXIT_OK


def _require_k(args, what: str, k: int) -> None:
    """A --k flag that restates the input's k must match it."""
    if k != args.k:
        raise NcprismError(f"{what} has k={k}, flag says k={args.k}")


def _cmd_positivity(args, payload) -> tuple:
    from . import opsys

    sub = args.subcommand
    if sub == "cube":
        beta = [serialize.real_from_json(b, "each beta entry") for b in payload["beta"]]
        positive, margin = opsys.scalar_positivity_cube(float(payload["alpha"]), beta)
        artifact = {"positive": positive, "margin": margin}
        return artifact, EXIT_OK if positive else EXIT_FALSE
    element = serialize.prism_element_from_json(payload)
    _require_k(args, "element", element.k)
    if sub == "scalar":
        verdict = opsys.scalar_positivity_prism(element)
        artifact = {
            "positive": verdict.positive,
            "margin": verdict.margin,
            "worst_vertex": {"j": verdict.worst_vertex[0], "sign": verdict.worst_vertex[1]},
        }
        return artifact, EXIT_OK if verdict.positive else EXIT_FALSE
    artifact = serialize.verdict_to_json(opsys.matrix_positivity_prism(element))
    return artifact, {"certified": EXIT_OK, "refuted": EXIT_FALSE}.get(artifact["verdict"], EXIT_UNKNOWN)


def _cmd_geometry(args, payload) -> tuple:
    from . import convexity

    artifact = {
        "k": args.k,
        "incircle_radius": convexity.incircle_radius(args.k),
        "circumnorm": convexity.circumnorm(args.k),
        "theta_lower_bound": convexity.theta_lower_bound(args.k),
    }
    if args.d is not None:
        artifact["cube_scaling_constant"] = convexity.cube_scaling_constant(args.d)
    table = [
        f"k = {args.k}",
        f"incircle radius r_k      = {artifact['incircle_radius']:.15f}",
        f"circumscribed norm       = {artifact['circumnorm']:.15f}",
        f"theta lower bound        = {artifact['theta_lower_bound']:.15f}",
    ]
    if args.d is not None:
        table.append(f"cube scaling constant    = {artifact['cube_scaling_constant']:.15f}")
    return artifact, EXIT_OK, table


def _cmd_word(args, payload) -> tuple:
    from . import dilation, reps

    pair = serialize.rep_pair_from_json(_payload(args, payload.get("pair", payload), _PAIR))
    require(reps.pair_residuals(pair), RelationCheckFailedError, "input pair")
    word = dilation.GroupWord.from_string(args.letters, args.k)
    if "isometry" in payload:
        iso = serialize.matrix_from_json(payload["isometry"])
        value = dilation.evaluate_compressed_word(pair, iso, word)
    else:
        value = dilation.evaluate_word(pair, word)
    return {"value": serialize.matrix_to_json(value)}, EXIT_OK


def _cmd_quotient(args, payload) -> tuple:
    from . import opsys, reps

    sub = args.subcommand
    if sub == "psi":
        x = serialize.diag_tuple_from_json(payload)
        _require_k(args, "tuple", x.k)
        image = opsys.psi_k(x)
        # psi_k is linear: checked through its kernel and unit, not per call.
        require(opsys.quotient_residuals(x.k, x.q), RelationCheckFailedError, "psi_k")
        return serialize.prism_element_to_json(image), EXIT_OK
    if sub == "dual-member":
        z = opsys.DualTuple(args.k, np.array([serialize.complex_from_json(v) for v in payload["z"]]))
        member = opsys.dual_member(z)
        return {"member": member}, EXIT_OK if member else EXIT_FALSE
    # "functional": the subparser admits no other choice.
    pair = serialize.rep_pair_from_json(_payload(args, payload["pair"], _PAIR))
    require(reps.pair_residuals(pair), RelationCheckFailedError, "input pair")
    density = serialize.matrix_from_json(payload["density"])
    z = opsys.functional_to_tuple(pair, density, args.k)
    artifact = serialize.dual_tuple_to_json(z)
    artifact["dual_member"] = opsys.dual_member(z)
    return artifact, EXIT_OK


def _cmd_verify(args, payload) -> tuple:
    from . import verify

    results = verify.run_all(seed=args.seed)
    artifact = {"checks": [asdict(r) for r in results], "all_passed": all(r.passed for r in results)}
    table = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}  (worst residual {r.residual:.3e})" for r in results]
    table.append("all checks passed" if artifact["all_passed"] else "SOME CHECKS FAILED")
    return artifact, EXIT_OK if artifact["all_passed"] else EXIT_FALSE, table


_INT = {"type": int, "required": True}
_K = ("--k", _INT)
_AB = {"a": "object", "b": "object"}

# The command surface, declared once: each command's help, its handler and
# its subcommands. Each subcommand gives the keys of the JSON object it reads
# for :func:`_payload` (and so takes --in), or False if it reads no input, and
# lists its own flags as (flag, argparse kwargs) pairs; a single-level
# command is its own one subcommand, None.
_COMMANDS = {
    "dilate": ("construct dilations", _cmd_dilate, {
        "halmos": (_MATRIX, []), "mirman": (_MATRIX, []),
        "joint": (_AB, [("--k", {"type": int, "default": 3})]), "cube": (_TUPLE, []),
    }),
    "rep": ("build representation pairs and tuples", _cmd_rep, {
        "square": (False, [("--lambda", {"dest": "lam", "type": float, "required": True})]),
        "hadamard": (False, [("--m", _INT)]),
        "vertex": (False, [_K, ("--j", _INT),
                           ("--sign", {"default": "+", "choices": ["+", "-", "+1", "-1", "1"]})]),
        "s3": (False, []), "a4": (False, []),
        "steinberg": (False, [("--q", _INT)]), "assemble": (False, [("--n", _INT)]),
    }),
    "check": ("membership in max-type convex sets", _cmd_check, {
        "cube": (_TUPLE, [("--d", _INT)]), "prism": (_AB, [_K]),
    }),
    "commutant": ("commutant dimension and basis", _cmd_commutant, {None: (_TUPLE, [])}),
    "positivity": ("positivity tests", _cmd_positivity, {
        "scalar": (_ELEMENT, [_K]), "matrix": (_ELEMENT, [_K]),
        "cube": ({"alpha": "number", "beta": "list"}, []),
    }),
    "geometry": ("scaling-constant geometry table", _cmd_geometry, {
        None: (False, [_K, ("--d", {"type": int, "default": None})]),
    }),
    "word": ("evaluate a group word on a pair", _cmd_word, {
        None: ({"pair?": "object", "isometry?": "object"},
               [_K, ("--letters", {"required": True, "help": "word such as wvw*"})]),
    }),
    "quotient": ("quotient map and dual system", _cmd_quotient, {
        "psi": ({"k": "integer", "q": "integer", "blocks": "list"}, [_K]),
        "dual-member": ({"z": "list"}, [_K]),
        "functional": ({"pair": "object", "density": "object"}, [_K]),
    }),
    "verify": ("run the invariant suite", _cmd_verify, {"all": (False, [])}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncprism",
        description="dilations, representations, membership and positivity "
        "tests for noncommutative cubes and prisms",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, subcommands) in _COMMANDS.items():
        top = commands.add_parser(command, help=help_text)
        nested = None if None in subcommands else top.add_subparsers(dest="subcommand", required=True)
        for subcommand, (reads_input, flags) in subcommands.items():
            sub = top if subcommand is None else nested.add_parser(subcommand)
            for flag, kwargs in flags:
                sub.add_argument(flag, **kwargs)
            sub.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
            sub.add_argument("--out", default=None, help="write the artifact JSON to a file")
            sub.add_argument("--json", action="store_true", help="emit report plus artifact as JSON")
            # Commands that read no input never read stdin, so an open one
            # cannot block them, and their report digests the empty input.
            if reads_input:
                sub.add_argument("--in", dest="infile", default=None, help="read input JSON from a file")
            sub.set_defaults(reads_input=bool(reads_input), subcommand=subcommand)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text = _read_input(args) if args.reads_input else (None, "")
        if args.reads_input:
            _payload(args, payload, _COMMANDS[args.command][2][args.subcommand][0])
        with measured() as records:
            artifact, exit_code, *table = _COMMANDS[args.command][1](args, payload)
        _render(args, text, records, artifact, *table)
        return exit_code
    except (
        NcprismError, OSError, ValueError, KeyError, TypeError, OverflowError, MemoryError, json.JSONDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run(argv=None) -> int:
    """The process entry of the ``ncprism`` script and ``python -m
    ncprism.cli``: :func:`main`, with the collector enabled only while it
    runs and the heap loaded before it, and then by it, frozen (see the
    module docstring)."""
    gc.freeze()
    gc.enable()
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
