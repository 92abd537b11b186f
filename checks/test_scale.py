"""The constructions at scale, outside tier-1's testpaths: ``PYTHONPATH=src:tests python -m pytest -q checks``, or
``PYTHONPATH=tests`` against an installed package. Times and peaks are printed, not bounded: runners are shared."""

import hashlib
import itertools
import signal
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import generic_pair, pair_orbit_oracle
from test_reps import recovered_permutations

import ncprism
import ncprism.finitefield as ff
from checks.artifacts import GAP, matrix, numerical_radius
from ncprism import Certified, PrismElement, Unknown, dilation, floor, matrix_positivity_prism, steinberg_pair
from ncprism.errors import InfeasibleError
from ncprism.matkernel import PSD_CLAMP, commutant_dimension, measured


@contextmanager
def within(seconds):
    """Fail the block when it runs longer than seconds of wall time."""
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail(f"still running after {seconds} s"))
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def solver_replaced(stand_in):
    """ncprism.floor.lmi_floor replaced by stand_in(solve, *args), solve being the solver, for the block. The block
    fails when no call reached the stand-in, so a patch that no solve looks up cannot pass."""
    solve, calls = floor.lmi_floor, []

    def replaced(*args):
        calls.append(args)
        return stand_in(solve, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(floor, "lmi_floor", replaced)
        yield calls
    assert calls, "no call reached the stand-in for ncprism.floor.lmi_floor"


@contextmanager
def traced():
    """A list that gets the block's wall time in seconds and tracemalloc peak in bytes when the block ends."""
    cost, start = [], time.perf_counter()
    tracemalloc.start()
    try:
        yield cost
    finally:
        cost += time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def test_decomposition_at_n_16():
    # ROADMAP item 8's probe, twice: the same primal-certificate InfeasibleError, and the second call, reusing the
    # lmi_floor system the first cached, peaks lower by at least the direction stack's size.
    n, k = 16, 6
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.85 * x / numerical_radius(x)

    def counted(solve, *args):
        result = solve(*args)
        print(f"lmi_floor: {result.steps} Newton steps, bracket [{result.t_lo:.3e}, {result.t_hi:.3e}]")
        return result

    errors, peaks = [], []
    with solver_replaced(counted) as solves:
        for call in ("first", "second"):
            with traced() as cost, pytest.raises(InfeasibleError) as raised:
                dilation.order_k_povm(a, k)
            errors.append(str(raised.value))
            peaks.append(cost[1])
            print(f"{call} call: {cost[0]:.2f} s, peak {cost[1] / 1e6:.1f} MB")
    system = dilation._mode_system(k, n)
    kept = sum(array.nbytes for array in vars(system).values())
    print(f"the cache keeps {kept / 1e6:.1f} MB; the direction stack is {system.directions.nbytes / 1e6:.1f} MB")
    assert errors[0] == errors[1], errors
    assert len(solves) == 2, solves
    assert errors[0].startswith("no positive decomposition") and errors[0].endswith("(primal certificate)"), errors
    assert peaks[0] - peaks[1] >= system.directions.nbytes, peaks


def test_joint_dilations_at_n_128_and_64():
    # (n, k) = (128, 3) and (64, 4) within 300 s together. ||a|| = 0.45 keeps every Fourier effect positive definite
    # (the Cholesky path). Dense spectral norms <= 1e-8 of the identities, and effects_positive <= PSD_CLAMP.
    with within(300):
        for n, k, seed in ((128, 3, 0), (64, 4, 1)):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.45 * x / np.linalg.norm(x, 2)
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = (y + y.conj().T) / 2
            b *= 0.9 / np.linalg.norm(b, 2)
            with traced() as cost, measured() as rows:
                pair, g = dilation.joint_prism_dilation(a, b, k)
            w, v, gs = pair.w, pair.v, g.conj().T
            one = np.eye(len(w))
            gaps = {"G*G = 1": gs @ g - np.eye(n), "G*WG = a": gs @ w @ g - a, "G*VG = b": gs @ v @ g - b,
                    f"W^{k} = 1": np.linalg.matrix_power(w, k) - one, "V^2 = 1": v @ v - one}
            worst = {name: float(np.linalg.norm(gap, 2)) for name, gap in gaps.items()}
            (positive,) = [value for name, value, _, _ in rows if name == "effects_positive"]
            print(f"n = {n}, k = {k}: {cost[0]:.3f} s, tracemalloc peak {cost[1] / 1e6:.1f} MB, "
                  f"effects_positive {positive:.2e}, dense gaps {worst}")
            assert positive <= PSD_CLAMP, positive
            assert max(worst.values()) <= 1e-8, worst


def test_commutant_at_scale():
    # Commutant dimension 1, solved here: steinberg_pair certifies its pair by the trace rule and solves none.
    start = time.perf_counter()
    pair = steinberg_pair(383)
    dim, _ = commutant_dimension([pair.w, pair.v])
    print(f"steinberg_pair(383) and its commutant: commutant_dim {dim}, {time.perf_counter() - start:.2f} s")
    assert dim == 1 == pair.commutant_dim
    mats = generic_pair(512)
    start = time.perf_counter()
    dim, _ = commutant_dimension(mats)
    print(f"generic k = 3 pair, n = 512: commutant_dim {dim}, {time.perf_counter() - start:.2f} s")
    assert dim == 1


def test_every_steinberg_pair():
    # Commutant dimension 1 for every prime power 4 <= q <= 512 but 9, and the permutations recovered from every pair
    # hash as the pairs once chosen by Schreier-Sims and certified by a commutant solve did.
    digest = hashlib.sha256()
    start = time.perf_counter()
    for q in (q for q in range(4, 513) if len(ff.prime_factors(q)) == 1 and q != 9):
        pair = steinberg_pair(q)
        dim, _ = commutant_dimension([pair.w, pair.v])
        assert dim == 1, f"q = {q}: commutant dimension {dim}"
        digest.update(np.array(recovered_permutations(pair), dtype=np.int64).tobytes())
    print(f"every Steinberg pair, q <= 512: {time.perf_counter() - start:.1f} s")
    assert digest.hexdigest() == "899a0825c59dc92aae3c5132b8af5906ff5d25f58c015ca2f63184814cc20de9"


def test_trace_rule_on_larger_fields():
    # generates_psl2 agrees with the ordered-pair orbit (q(q + 1) exactly when <U, V> is PSL2(F_q)) on the first 20
    # sl2_involutions candidates of every prime power 33 <= q <= 512; tier-1 covers every candidate for q <= 32.
    start, count = time.perf_counter(), 0
    for q in (q for q in range(33, 513) if len(ff.prime_factors(q)) == 1):
        gf = ff.GaloisField(ff.FiniteFieldSpec(*ff.factor_prime_power(q)))
        for v in itertools.islice(ff.sl2_involutions(gf), 20):
            perms = [ff.projective_action(gf, mat) for mat in (((0, -1), (1, -1)), v)]
            assert ff.generates_psl2(gf, v) == (pair_orbit_oracle(perms) == q * (q + 1)), f"q = {q}, candidate {v}"
            count += 1
    print(f"trace rule against the orbit, {count} candidates: {time.perf_counter() - start:.1f} s")


def test_decomposition_at_k_4096():
    # A positive base, decomposed with no direction stack.
    with within(20):
        assert dilation.order_k_povm(0.1 + 0.05j, 4096).effects.shape == (4096, 1, 1)


def test_positivity_at_k_4096():
    # The q = 2 element, null at the character (-1, -1), is Unknown with no solve (its midpoint lift's floor is 0),
    # each under 20 MB (a dense k x k Fourier table alone is 268 MB); the stand-in for the solver first fires on GAP.
    def refuse(solve, *args):
        raise AssertionError("lmi_floor reached")

    k = 4096
    c = np.zeros((k, 2, 2))
    c[0], c[1], c[k - 1] = np.diag([1.0, 1.5]), np.diag([0.2, 0.5]), np.diag([0.2, 0.5])
    probe = PrismElement(k, 1, c[:, :1, :1], [[0.1]])
    boundary = PrismElement(k, 2, c, np.diag([0.1, 0.5]))
    with solver_replaced(refuse):
        with pytest.raises(AssertionError, match="^lmi_floor reached$"):
            matrix_positivity_prism(PrismElement(GAP["k"], GAP["q"], [matrix(m) for m in GAP["c"]], matrix(GAP["g"])))
        for e, kind in ((probe, Certified), (boundary, Unknown)):
            with traced() as cost:
                verdict = matrix_positivity_prism(e)
            print(f"{ncprism.__file__}: k = {k}, q = {e.q}, {type(verdict).__name__}, {cost[0] * 1e3:.1f} ms, "
                  f"peak {cost[1] / 1e6:.2f} MB")
            assert isinstance(verdict, kind), verdict
            assert cost[1] < 20e6, cost


def test_membership_at_k_4096(monkeypatch):
    # Two prism_member calls record the same self-check rows, and the second builds no polytope (one prism per k).
    built, check = [], ncprism.convexity.polytope_residuals
    monkeypatch.setattr(ncprism.convexity, "polytope_residuals", lambda spec: built.append(spec.name) or check(spec))
    x, runs = np.array([[0.2]]), []
    for _ in range(2):
        before = len(built)
        start = time.perf_counter()
        with measured() as records:
            ncprism.convexity.prism_member(x, x, 4096)
        runs.append(records)
        print(f"{ncprism.__file__}: k = 4096, {len(records)} rows, {len(built) - before} polytopes built, "
              f"{(time.perf_counter() - start) * 1e3:.1f} ms")
    assert runs[0] == runs[1], runs
    assert not built[before:], built
