"""Re-checks of `ncprism` CLI artifacts from their JSON alone, with json and numpy (never ncprism), and their inputs.
``python -m checks.artifacts NAME ARGS...`` exits with what function NAME returns: 0 or None passes, 1 fails."""

import json
import sys

import numpy as np

# A q = 2 element with best lift floor about -1e-3 that no vertex representation refutes: the dual witness does.
GAP = {"k": 3, "q": 2, "c": [
    {"rows": 2, "cols": 2, "data": [[1.1524, 0.0], [-0.212, 0.2848], [-0.212, -0.2848], [1.5901, 0.0]]},
    {"rows": 2, "cols": 2, "data": [[0.1124, -0.0457], [-0.3728, -0.0937], [-0.0648, -0.1706], [0.2492, 0.4852]]},
    {"rows": 2, "cols": 2, "data": [[0.1124, 0.0457], [-0.0648, 0.1706], [-0.3728, 0.0937], [0.2492, -0.4852]]},
], "g": {"rows": 2, "cols": 2, "data": [[-0.0143, 0.0], [0.5023, -0.2575], [0.5023, 0.2575], [0.0833, 0.0]]}}
# A q = 2 element whose scalar-shifted lift has every block >= 0.88.
POSITIVE = {"k": 3, "q": 2, "c": [
    {"rows": 2, "cols": 2, "data": [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [1.5, 0.0]]},
    {"rows": 2, "cols": 2, "data": [[0.1, 0.0], [0.2, 0.1], [0.0, 0.0], [-0.1, 0.0]]},
    {"rows": 2, "cols": 2, "data": [[0.1, 0.0], [0.0, 0.0], [0.2, -0.1], [-0.1, 0.0]]},
], "g": {"rows": 2, "cols": 2, "data": [[0.3, 0.0], [0.1, 0.0], [0.1, 0.0], [-0.2, 0.0]]}}


def matrix(o):
    """The complex matrix of a JSON matrix {"rows", "cols", "data": [[re, im], ...]}."""
    return np.array([complex(*z) for z in o["data"]]).reshape(o["rows"], o["cols"])


def as_json(t):
    """The JSON matrix of a 2-d array, row-major."""
    return {"rows": t.shape[0], "cols": t.shape[1], "data": [[v.real, v.imag] for v in t.ravel().tolist()]}


def load(path):
    with open(path) as f:
        return json.load(f)


def numerical_radius(x):
    """max over 720 angles t of lambda_max of the Hermitian part of exp(-it) x."""
    turns = np.exp(-2j * np.pi * np.arange(720) / 720)[:, None, None] * x
    return np.linalg.eigvalsh((turns + turns.conj().swapaxes(1, 2)) / 2).max()


def inputs(directory):
    """Write the seeded inputs, the nonsquare ones, GAP and POSITIVE into directory."""
    def write(name, o, end="\n", **options):
        with open(f"{directory}/{name}", "w") as f:
            f.write(json.dumps(o, **options) + end)

    g = np.random.default_rng(14)
    x = g.standard_normal((32, 32)) + 1j * g.standard_normal((32, 32))
    y = x + x.conj().T
    write("joint_in.json", {"a": as_json(0.3 * x / np.linalg.norm(x, 2)), "b": as_json(0.5 * y / np.linalg.norm(y, 2))})
    g = np.random.default_rng(16)
    x = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    y = x + x.conj().T
    for radius in (0.5, 0.6):
        a = radius * x / numerical_radius(x)
        write(f"joint4_{radius}_in.json", {"a": as_json(a), "b": as_json(0.5 * y / np.linalg.norm(y, 2))})
    g = np.random.default_rng(15)
    x = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    write("mirman_in.json", as_json(x * (0.3 / np.linalg.norm(x, 2))))
    g = np.random.default_rng(17)
    x, s = (g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)) for _ in range(2))
    y, s = x + x.conj().T, s - s.conj().T
    write("halmos_in.json", as_json(0.5 * y / np.linalg.norm(y, 2) + 1e-12 * s / np.linalg.norm(s, 2)))
    g = np.random.default_rng(18)
    x = g.standard_normal((2, 3, 3)) + 1j * g.standard_normal((2, 3, 3))
    write("cube_in.json", {"tuple": [as_json(0.9 * (y + y.conj().T) / np.linalg.norm(y + y.conj().T, 2)) for y in x]})
    write("nonsquare_in.json", {"a": as_json(np.zeros((2, 3))), "b": as_json(np.zeros((2, 2)))})
    write("nonsquare_x.json", as_json(np.zeros((2, 3))), end="")
    write("dual_in.json", GAP, separators=(",", ":"))
    write("certified2_in.json", POSITIVE, separators=(",", ":"))


def jointcheck(given, artifact):
    """A `dilate joint` artifact dilates its input: in operator norm, each within 1e-8, W*W = 1, W^k = 1 with k read
    from the artifact, V = V*, V^2 = 1, G*G = 1, G*WG = a and G*VG = b."""
    i, r = load(given), load(artifact)["result"]
    w, v, g, a, b = (matrix(o) for o in (r["pair"]["W"], r["pair"]["V"], r["isometry"], i["a"], i["b"]))
    one, gs = np.eye(len(w)), g.conj().T
    gaps = [w.conj().T @ w - one, np.linalg.matrix_power(w, r["pair"]["k"]) - one, v - v.conj().T, v @ v - one,
            gs @ g - np.eye(len(a)), gs @ w @ g - a, gs @ v @ g - b]
    return not max(np.linalg.norm(x, 2) for x in gaps) <= 1e-8


def tamper(artifact, out):
    """Write to out a copy of a `dilate joint` artifact with one entry of V moved by 1e-6."""
    r = load(artifact)
    r["result"]["pair"]["V"]["data"][0][0] += 1e-6
    with open(out, "w") as f:
        json.dump(r, f)


def joint_rows(artifact):
    """A `dilate joint` artifact passes its v_squares_to_identity row and has no row that holds by construction."""
    checks = load(artifact)["report"]["checks"]
    certified = any(c["name"] == "v_squares_to_identity" and c["passed"] is True for c in checks)
    return not (certified and not {c["name"] for c in checks} & {"labels_on_diagonal", "v_corner"})


def reflection(artifact):
    """No v_selfadjoint row (V is formed Hermitian), and one v_squares_to_identity row at least the dense ||V^2 - 1||_F
    of the artifact's V, less 1e-12, and the part of dilation._reflection_bound that holds at ||x* x - 1||_F = 0,
    4 (1 + d) d + (2 + 4 d + e) e with d = (kn + 4) eps s and e = eps ((2n + 10) s + sqrt(kn)), kn being V's size, n
    the isometry's column count and s = ||x||_F^2 = tr((1 - V)/2), less 1e-9 of it for the rounding of that trace."""
    r = load(artifact)
    checks = r["report"]["checks"]
    v = matrix(r["result"]["pair"]["V"])
    values = [c["residual"] for c in checks if c["name"] == "v_squares_to_identity"]
    kn, n, eps = len(v), r["result"]["isometry"]["cols"], np.finfo(float).eps
    s = (kn - np.trace(v).real) / 2
    d = (kn + 4) * eps * s
    e = eps * ((2 * n + 10) * s + kn**0.5)
    return not (len(values) == 1 and values[0] >= np.linalg.norm(v @ v - np.eye(kn)) - 1e-12
                and values[0] >= (4 * (1 + d) * d + (2 + 4 * d + e) * e) * (1 - 1e-9)
                and "v_selfadjoint" not in {c["name"] for c in checks})


def scaled(artifact, out, factor):
    """Write to out a copy of a `dilate joint` artifact with its v_squares_to_identity row times factor."""
    r = load(artifact)
    for c in r["report"]["checks"]:
        if c["name"] == "v_squares_to_identity":
            c["residual"] *= float(factor)
    with open(out, "w") as f:
        json.dump(r, f)


def povm(artifact):
    """Every row of a `dilate joint --k 4` artifact passes, and its POVM rows carry the one decomposition label."""
    named = ("first_moment", "sum_to_identity", "effects_positive")
    labels = [c["of"] for c in load(artifact)["report"]["checks"] if c["name"] in named]
    return passes(artifact) or labels != ["order_k_povm(k=4, level=4)"] * 3


def w_rows(artifact):
    """The W of a 1 x 1 pair's `dilate joint --k 256` artifact is 256 x 256: kn rows."""
    w = load(artifact)["result"]["pair"]["W"]
    return not (w["rows"] == w["cols"] == 256)


def recheck(given, artifact):
    """sum_m c_m (x) W^m + g (x) V at the witness has least eigenvalue <= -1e-8, within 1e-8 of min_eigenvalue."""
    e, r = load(given), load(artifact)["result"]
    w, v = matrix(r["witness"]["W"]), matrix(r["witness"]["V"])
    x = sum(np.kron(matrix(c), np.linalg.matrix_power(w, j)) for j, c in enumerate(e["c"])) + np.kron(matrix(e["g"]), v)
    low = np.linalg.eigvalsh((x + x.conj().T) / 2).min()
    return not (low <= -1e-8 and abs(low - r["min_eigenvalue"]) <= 1e-8)


def route(artifact, kind):
    """The witness came by the route kind: a 1 x 1 "character", or a "dual_witness" of dimension > 1."""
    w = load(artifact)["result"]["witness"]
    return not (w["provenance"].startswith(kind + "(") and (w["W"]["rows"] == 1) == (kind == "character"))


def certify(given, artifact):
    """The k + 2 blocks of a certified element's lift give back the element by psi, written out again, within 1e-8,
    and each has least eigenvalue at least the strict margin 1e-6, less 1e-12."""
    e, r = load(given), load(artifact)["result"]
    k = e["k"]
    x = [matrix(b) for b in r["lift"]["blocks"]]
    w = np.exp(-2j * np.pi / k)
    c = [sum(w ** (j * s) * x[j] for j in range(k)) / (2 * k) + (s == 0) * (x[k] + x[k + 1]) / 4 for s in range(k)]
    g = (x[k] - x[k + 1]) / 4
    err = max(np.abs(a - matrix(b)).max() for a, b in zip(c + [g], e["c"] + [e["g"]]))
    low = min(np.linalg.eigvalsh((b + b.conj().T) / 2).min() for b in x)
    return not (len(x) == k + 2 and err <= 1e-8 and low >= 1e-6 - 1e-12)


def commutant(artifact):
    """A `commutant` artifact of an irreducible tuple: dimension 1 and one basis element."""
    r = load(artifact)["result"]
    return not (r["dimension"] == 1 and len(r["basis"]) == 1)


def rows(artifact, relation):
    """A `rep s3` or `rep a4` artifact carries its relation and the commutator row, and no group order or solve."""
    names = {c["name"] for c in load(artifact)["report"]["checks"]}
    solved = {"commutant_dimension_1", "basis_commutes", "group_order_6", "group_order_12"}
    return not ({relation, "||WV - VW||_F >= 1"} <= names and not names & solved)


def passes(*artifacts):
    """Each artifact has rows, and every one passes."""
    reports = [load(artifact)["report"]["checks"] for artifact in artifacts]
    return not all(checks and all(c["passed"] is True for c in checks) for checks in reports)


def skewed(artifact):
    """A `dilate halmos` artifact of a nearly Hermitian input has a nonzero selfadjoint row."""
    return not any(c["name"] == "selfadjoint" and c["residual"] > 0.0 for c in load(artifact)["report"]["checks"])


def halmos_rows(*artifacts):
    """Every selfadjoint and squares_to_identity row of `dilate halmos` and `dilate cube` artifacts equals the dense
    ||S - S*||_F and ||S^2 - 1||_F of the artifact's own operator within 1e-12 max(1, value), two rows per operator."""
    dense = {"selfadjoint": lambda s: np.linalg.norm(s - s.conj().T),
             "squares_to_identity": lambda s: np.linalg.norm(s @ s - np.eye(len(s)))}
    for path in artifacts:
        artifact = load(path)
        ops = {label: matrix(o) for label, o in zip(artifact["result"]["labels"], artifact["result"]["operators"])}
        found = [(c, dense[r](ops[c["name"][: -len(r)].rstrip("_") or "dilation"]))
                 for c in artifact["report"]["checks"] for r in dense if c["name"].endswith(r)]
        for check, value in found:
            if not abs(check["residual"] - value) <= 1e-12 * max(1.0, value):
                return f"{path}: {check} against {value}"
        if len(found) != 2 * len(ops):
            return f"{path}: {len(found)} rows for {len(ops)} operators"
        print(f"{path}: {len(found)} rows re-derived")


def strict(*paths):
    """Every file is strict JSON, with no NaN or Infinity; an empty file (a refused command's stdout) holds none."""
    for path in paths:
        with open(path) as f:
            text = f.read()
        if text:
            json.loads(text, parse_constant=lambda c: sys.exit(f"{path} holds {c}"))


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    sys.exit(globals()[name](*args))
