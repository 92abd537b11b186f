"""Command-line front end with JSON input/output and verification reports.

Inputs are read as JSON from stdin (or ``--in FILE``) by the commands that
take one; ``rep``, ``geometry`` and ``verify`` read nothing. The primary artifact
is written as JSON to stdout, or to ``--out FILE`` with a short textual
report on stdout instead. ``--json`` wraps the artifact together with the
run report (command, input digest, seed, checks) in one machine-readable
object. The checks are the residuals the library required while building the
artifact, each a (name, residual, bound) line with the construction it was
checked ``of``. Outputs are byte-identical for identical inputs and seeds.
Every verdict is decided at the fixed tolerances of ``matkernel``. Each
handler imports the library modules it calls, so a process loads only what
its command runs.

Exit codes: 0 success or true verdict, 1 false or refuted verdict,
2 usage, input, file or runtime error, 3 unknown verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import serialize
from .errors import NcprismError, RelationCheckFailedError
from .matkernel import (
    ALG_TOL,
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


class Run:
    """Renders the final report; ``records`` are the residuals that
    ``require`` records while the command runs inside ``measured``."""

    def __init__(self, args, input_text: str, records: list):
        self.command = args.command + (
            f" {args.subcommand}" if getattr(args, "subcommand", None) else ""
        )
        self.seed = int(getattr(args, "seed", 0) or 0)
        self.digest = hashlib.sha256(input_text.encode("utf-8")).hexdigest()
        self.records = records
        self.args = args

    @property
    def checks(self) -> list[dict]:
        return [
            {"name": name, "passed": bool(value <= bound), "residual": float(value),
             "bound": float(bound), "of": what}
            for name, value, bound, what in self.records
        ]

    def report(self, artifacts: list[str]) -> dict:
        return {
            "command": self.command,
            "inputs": self.digest,
            "seed": self.seed,
            "checks": self.checks,
            "artifacts": artifacts,
        }

    def emit(self, artifact: dict, exit_code: int, table: list[str] | None = None) -> int:
        """Write the artifact to ``--out``, print the report and artifact with
        ``--json``, and otherwise print ``table`` if the command has one, else
        the artifact."""
        out = getattr(self.args, "out", None)
        as_json = getattr(self.args, "json", False)
        artifacts = [out] if out else ["stdout"]
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(artifact, fh, indent=2)
                fh.write("\n")
        if as_json:
            print(json.dumps({"report": self.report(artifacts), "result": artifact}, indent=2))
        elif out:
            for check in self.checks:
                status = "PASS" if check["passed"] else "FAIL"
                values = f"residual {check['residual']:.3e}, bound {check['bound']:.1e}"
                print(f"{check['name']} of {check['of']}: {status} ({values})")
            print(f"wrote {out}")
        elif table is not None:
            print("\n".join(table))
        else:
            print(json.dumps(artifact, indent=2))
        return exit_code


def _add_common(sub, reads_input: bool = True):
    """The options every subcommand shares. ``--in`` only where the command
    reads JSON input: the others never read stdin, so an open one cannot
    block them, and their report carries the digest of the empty input."""
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    sub.add_argument("--out", default=None, help="write the artifact JSON to a file")
    sub.add_argument("--json", action="store_true", help="emit report plus artifact as JSON")
    if reads_input:
        sub.add_argument("--in", dest="infile", default=None, help="read input JSON from a file")
    sub.set_defaults(reads_input=reads_input)


def _cmd_dilate(args, run: Run, payload) -> int:
    from . import dilation

    sub = args.subcommand
    if sub == "halmos":
        x = serialize.matrix_from_json(payload)
        if is_hermitian(x, ALG_TOL):
            big = dilation.halmos_symmetry(x)
        else:
            big = dilation.halmos_unitary(x)
        n = x.shape[0]
        iso = np.vstack([np.eye(n), np.zeros((n, n))]).astype(complex)
        result = dilation.DilationResult(iso, [big], ["dilation"])
        return run.emit(serialize.dilation_result_to_json(result), EXIT_OK)
    if sub == "mirman":
        a = serialize.matrix_from_json(payload)
        povm = dilation.triangle_povm(a)
        result = dilation.naimark_normal(povm)
        return run.emit(serialize.dilation_result_to_json(result), EXIT_OK)
    if sub == "joint":
        a = serialize.matrix_from_json(payload["a"])
        b = serialize.matrix_from_json(payload["b"])
        pair, g = dilation.joint_prism_dilation(a, b, args.k)
        artifact = {
            "pair": serialize.rep_pair_to_json(pair),
            "isometry": serialize.matrix_to_json(g),
        }
        return run.emit(artifact, EXIT_OK)
    # "cube": the subparser admits no other choice.
    mats = serialize.tuple_from_json(payload)
    result = dilation.cube_dilation(mats)
    return run.emit(serialize.dilation_result_to_json(result), EXIT_OK)


def _cmd_rep(args, run: Run, payload) -> int:
    from . import reps

    sub = args.subcommand
    if sub in ("square", "hadamard"):
        # Irreducible by theory: their constructors compute no commutant.
        st = reps.square_irrep(args.lam) if sub == "square" else reps.hadamard_symmetries(args.m)
        require([irreducibility_residual(st.mats)], RelationCheckFailedError, st.provenance)
        return run.emit(serialize.symmetry_tuple_to_json(st), EXIT_OK)
    if sub == "vertex":
        sign = 1 if args.sign in ("+", "+1", "1") else -1
        pair, xi = reps.prism_vertex_rep(args.k, args.j, sign)
        artifact = serialize.rep_pair_to_json(pair)
        artifact["state_vector"] = serialize.matrix_to_json(xi.reshape(-1, 1))
        return run.emit(artifact, EXIT_OK)
    builders = {
        "s3": reps.s3_pair,
        "a4": reps.a4_pair,
        "steinberg": lambda: reps.steinberg_pair(args.q),
        "assemble": lambda: reps.assemble_dimension(args.n),
    }
    return run.emit(serialize.rep_pair_to_json(builders[sub]()), EXIT_OK)


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


def _cmd_check(args, run: Run, payload) -> int:
    from . import convexity

    if args.subcommand == "cube":
        mats = serialize.tuple_from_json(payload)
        result = convexity.max_member(mats, convexity.make_cube(args.d))
    else:
        a = serialize.matrix_from_json(payload["a"])
        b = serialize.matrix_from_json(payload["b"])
        result = convexity.prism_member(a, b, args.k)
    return run.emit(_membership_artifact(result), EXIT_OK if result.member else EXIT_FALSE)


def _cmd_commutant(args, run: Run, payload) -> int:
    mats = serialize.tuple_from_json(payload)
    dim, basis = commutant_dimension(mats)
    artifact = {"dimension": dim, "basis": [serialize.matrix_to_json(b) for b in basis]}
    return run.emit(artifact, EXIT_OK)


def _cmd_positivity(args, run: Run, payload) -> int:
    from . import opsys

    sub = args.subcommand
    if sub == "cube":
        positive, margin = opsys.scalar_positivity_cube(payload["alpha"], payload["beta"])
        artifact = {"positive": positive, "margin": margin}
        return run.emit(artifact, EXIT_OK if positive else EXIT_FALSE)
    element = serialize.prism_element_from_json(payload)
    if element.k != args.k:
        raise NcprismError(f"element has k={element.k}, flag says k={args.k}")
    if sub == "scalar":
        verdict = opsys.scalar_positivity_prism(element)
        artifact = {
            "positive": verdict.positive,
            "margin": verdict.margin,
            "worst_vertex": {"j": verdict.worst_vertex[0], "sign": verdict.worst_vertex[1]},
        }
        return run.emit(artifact, EXIT_OK if verdict.positive else EXIT_FALSE)
    verdict = opsys.matrix_positivity_prism(element)
    artifact = serialize.verdict_to_json(verdict)
    if isinstance(verdict, opsys.Certified):
        return run.emit(artifact, EXIT_OK)
    if isinstance(verdict, opsys.Refuted):
        return run.emit(artifact, EXIT_FALSE)
    return run.emit(artifact, EXIT_UNKNOWN)


def _cmd_geometry(args, run: Run, payload) -> int:
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
    return run.emit(artifact, EXIT_OK, table)


def _cmd_word(args, run: Run, payload) -> int:
    from . import dilation, reps

    pair = serialize.rep_pair_from_json(payload["pair"] if "pair" in payload else payload)
    require(reps.pair_residuals(pair), RelationCheckFailedError, "input pair")
    word = dilation.GroupWord.from_string(args.letters, args.k)
    if "isometry" in payload:
        iso = serialize.matrix_from_json(payload["isometry"])
        value = dilation.evaluate_compressed_word(pair, iso, word)
    else:
        value = dilation.evaluate_word(pair, word)
    return run.emit({"value": serialize.matrix_to_json(value)}, EXIT_OK)


def _cmd_quotient(args, run: Run, payload) -> int:
    from . import opsys

    sub = args.subcommand
    if sub == "psi":
        x = serialize.diag_tuple_from_json(payload)
        image = opsys.psi_k(x)
        # psi_k is linear: checked through its kernel and unit, not per call.
        require(opsys.quotient_residuals(x.k, x.q), RelationCheckFailedError, "psi_k")
        return run.emit(serialize.prism_element_to_json(image), EXIT_OK)
    if sub == "dual-member":
        z = opsys.DualTuple(args.k, np.array([serialize.complex_from_json(v) for v in payload["z"]]))
        member = opsys.dual_member(z)
        return run.emit({"member": member}, EXIT_OK if member else EXIT_FALSE)
    # "functional": the subparser admits no other choice.
    pair = serialize.rep_pair_from_json(payload["pair"])
    density = serialize.matrix_from_json(payload["density"])
    z = opsys.functional_to_tuple(pair, density, args.k)
    artifact = serialize.dual_tuple_to_json(z)
    artifact["dual_member"] = opsys.dual_member(z)
    return run.emit(artifact, EXIT_OK)


def _cmd_verify(args, run: Run, payload) -> int:
    from . import verify

    results = verify.run_all(seed=run.seed)
    artifact = {"checks": [asdict(r) for r in results], "all_passed": all(r.passed for r in results)}
    table = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}  (worst residual {r.residual:.3e})" for r in results]
    table.append("all checks passed" if artifact["all_passed"] else "SOME CHECKS FAILED")
    return run.emit(artifact, EXIT_OK if artifact["all_passed"] else EXIT_FALSE, table)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncprism",
        description="dilations, representations, membership and positivity "
        "tests for noncommutative cubes and prisms",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dil = commands.add_parser("dilate", help="construct dilations")
    dil_sub = dil.add_subparsers(dest="subcommand", required=True)
    for name in ("halmos", "mirman", "joint", "cube"):
        sp = dil_sub.add_parser(name)
        _add_common(sp)
        if name == "joint":
            sp.add_argument("--k", type=int, default=3)

    rep = commands.add_parser("rep", help="build representation pairs and tuples")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    sp = rep_sub.add_parser("square")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_common(sp, reads_input=False)
    sp = rep_sub.add_parser("hadamard")
    sp.add_argument("--m", type=int, required=True)
    _add_common(sp, reads_input=False)
    sp = rep_sub.add_parser("vertex")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--sign", default="+", choices=["+", "-", "+1", "-1", "1"])
    _add_common(sp, reads_input=False)
    for name in ("s3", "a4"):
        sp = rep_sub.add_parser(name)
        _add_common(sp, reads_input=False)
    sp = rep_sub.add_parser("steinberg")
    sp.add_argument("--q", type=int, required=True)
    _add_common(sp, reads_input=False)
    sp = rep_sub.add_parser("assemble")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp, reads_input=False)

    chk = commands.add_parser("check", help="membership in max-type convex sets")
    chk_sub = chk.add_subparsers(dest="subcommand", required=True)
    sp = chk_sub.add_parser("cube")
    sp.add_argument("--d", type=int, required=True)
    _add_common(sp)
    sp = chk_sub.add_parser("prism")
    sp.add_argument("--k", type=int, required=True)
    _add_common(sp)

    com = commands.add_parser("commutant", help="commutant dimension and basis")
    _add_common(com)

    pos = commands.add_parser("positivity", help="positivity tests")
    pos_sub = pos.add_subparsers(dest="subcommand", required=True)
    sp = pos_sub.add_parser("scalar")
    sp.add_argument("--k", type=int, required=True)
    _add_common(sp)
    sp = pos_sub.add_parser("matrix")
    sp.add_argument("--k", type=int, required=True)
    _add_common(sp)
    sp = pos_sub.add_parser("cube")
    _add_common(sp)

    geo = commands.add_parser("geometry", help="scaling-constant geometry table")
    geo.add_argument("--k", type=int, required=True)
    geo.add_argument("--d", type=int, default=None)
    _add_common(geo, reads_input=False)

    word = commands.add_parser("word", help="evaluate a group word on a pair")
    word.add_argument("--k", type=int, required=True)
    word.add_argument("--letters", required=True, help="word such as wvw*")
    _add_common(word)

    quo = commands.add_parser("quotient", help="quotient map and dual system")
    quo_sub = quo.add_subparsers(dest="subcommand", required=True)
    for name in ("psi", "dual-member", "functional"):
        sp = quo_sub.add_parser(name)
        sp.add_argument("--k", type=int, required=True)
        _add_common(sp)

    ver = commands.add_parser("verify", help="run the invariant suite")
    ver_sub = ver.add_subparsers(dest="subcommand", required=True)
    sp = ver_sub.add_parser("all")
    _add_common(sp, reads_input=False)

    return parser


_HANDLERS = {
    "dilate": _cmd_dilate,
    "rep": _cmd_rep,
    "check": _cmd_check,
    "commutant": _cmd_commutant,
    "positivity": _cmd_positivity,
    "geometry": _cmd_geometry,
    "word": _cmd_word,
    "quotient": _cmd_quotient,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text = _read_input(args) if args.reads_input else (None, "")
        with measured() as records:
            return _HANDLERS[args.command](args, Run(args, text, records), payload)
    except (NcprismError, OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
