"""Shared randomized constructions for the test suite (all seeded), and
direct reference implementations used as test oracles."""

import itertools
import math

import numpy as np

from ncprism.errors import NoIrreduciblePolynomialError
from ncprism.finitefield import FiniteFieldSpec
from ncprism.matkernel import SPEC_TOL, dagger, hermitize, roots_of_unity

# How many moduli of each genuine prime power the factory benchmark takes,
# the first ones of irreducible_specs.
FACTORY_MODULI = {8: 2, 16: 3, 25: 5, 27: 8}


def within_bounds(residuals):
    """True when every (name, residual, bound) triple has residual <= bound."""
    return all(value <= bound for _, value, bound in residuals)


def worst(residuals):
    return max(value for _, value, _ in residuals)


def record_direction_products(monkeypatch):
    """Replace ``np.tensordot``, as floor, dilation and opsys bind it
    (through ``np``), by one that records the shape of each right operand
    that is a (p, m, n, n) stack of ``lmi_floor`` directions: the products
    that form a lift base + sum_i y_i D_i. Returns the list of shapes."""
    calls = []
    real = np.tensordot

    def recording(a, b, *args, **kwargs):
        if np.ndim(b) == 4:
            calls.append(np.shape(b))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "tensordot", recording)
    return calls


def record_factorisations(monkeypatch):
    """Replace ``np.linalg.eigh``, ``np.linalg.eigvalsh`` and
    ``np.linalg.cholesky``, as every ncprism module calls them, by functions
    that record each call as (name, shape, a copy of the argument); returns
    the list of records."""
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        real = getattr(np.linalg, name)

        def recording(a, *args, name=name, real=real, **kwargs):
            calls.append((name, np.shape(a), np.array(a)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def square_root_dilation(effects, b):
    """The joint dilation (W, V, G) of an effect stack over the k-th roots of
    unity and a Hermitian contraction b by the square-root recipe at the
    Naimark dimension kn, in the arithmetic of the library's ``eigh`` path:
    G = Z stacks the roots h_j^(1/2) from one ``eigh`` of the stack, W is the
    diagonal of the labels, and V is the reflection 1 - (P + P*), P = x x*,
    with x = Y U sqrt((1 + w)/2) - Z U sqrt((1 - w)/2) for Y columns
    n .. 2n-1 of a complete QR of Z and (w, U) one ``eigh`` of b, w divided
    by max(1, ||b||)."""
    k, n, _ = effects.shape
    w, u = np.linalg.eigh(hermitize(effects))
    z = hermitize((u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(u)).reshape(k * n, n)
    w, u = np.linalg.eigh(hermitize(b))
    w = w / max(1.0, float(np.abs(w).max()))
    y = np.linalg.qr(z, mode="complete")[0][:, n : 2 * n]
    x = y @ (u * np.sqrt((1.0 + w) / 2.0)) - z @ (u * np.sqrt((1.0 - w) / 2.0))
    p = x @ dagger(x)
    v = -(p + dagger(p))
    v.ravel()[:: k * n + 1] += 1.0
    return np.diag(np.repeat(roots_of_unity(k), n)), v, z


def reference_dft(k):
    """The dense k x k matrix F[j, m] = exp(2 pi i r / k), r = j m mod k, each
    entry from its exact fraction r/k by the math module: the oracle for
    every Fourier sum of the library."""
    turns = [[2 * math.pi * ((j * m) % k) / k for m in range(k)] for j in range(k)]
    return np.array([[complex(math.cos(t), math.sin(t)) for t in row] for row in turns])


def random_hermitian(rng, n):
    return hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    # Fix the phase so the distribution is Haar and the output deterministic.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def generic_pair(n, seed=0):
    """A generic order-(3, 2) pair of dimension n >= 2: W the diagonal of the
    cube roots of unity, each with multiplicity about n / 3, and the symmetry
    V = U diag(1_p, -1_(n-p)) U* with p = n // 2 and U Haar from a seeded QR.
    It is irreducible: no multiplicity exceeds min(p, n - p)."""
    w = np.diag(np.exp(2j * np.pi * (np.arange(n) % 3) / 3))
    u = random_unitary(np.random.default_rng(seed), n)
    signs = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    return [w, hermitize((u * signs) @ dagger(u))]


def random_isometry(rng, n_from, n_to):
    raw = rng.standard_normal((n_to, n_from)) + 1j * rng.standard_normal((n_to, n_from))
    q, _ = np.linalg.qr(raw)
    return q


def random_psd_trace_one(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = raw @ dagger(raw)
    return hermitize(rho / np.trace(rho).real)


def closure_order_oracle(mats, digits=6):
    """Independent group-closure enumeration using rounded-entry keys."""
    def key(m):
        return tuple(np.round(m, digits).ravel().tolist())

    n = mats[0].shape[0]
    elements = {key(np.eye(n, dtype=complex)): np.eye(n, dtype=complex)}
    frontier = [np.eye(n, dtype=complex)]
    while frontier:
        fresh = []
        for e in frontier:
            for g in mats:
                cand = e @ g
                k = key(cand)
                if k not in elements:
                    elements[k] = cand
                    fresh.append(cand)
        frontier = fresh
        assert len(elements) <= 1000
    return len(elements)


def permutation_closure_oracle(generators, limit):
    """Breadth-first closure of the generated permutation group under
    composition: its size, or limit + 1 once the group exceeds ``limit``."""
    gens = [tuple(g) for g in generators]
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for perm in frontier:
            for g in gens:
                composed = tuple(map(g.__getitem__, perm))
                if composed not in seen:
                    seen.add(composed)
                    next_frontier.append(composed)
                    if len(seen) > limit:
                        return limit + 1
        frontier = next_frontier
    return len(seen)


def pair_orbit_oracle(generators):
    """Size of the orbit of the ordered pair (0, 1) under the group the
    permutations of one range(n), n >= 2, generate: n(n - 1) exactly when it
    acts 2-transitively. One flag per ordered pair, and a stack of the pairs
    found but not yet moved: a finite group's orbit is closed under its
    generators alone."""
    gens = [tuple(g) for g in generators]
    n = len(gens[0])
    seen = bytearray(n * n)
    seen[1] = 1
    stack = [(0, 1)]
    while stack:
        a, b = stack.pop()
        for g in gens:
            x, y = g[a], g[b]
            if not seen[x * n + y]:
                seen[x * n + y] = 1
                stack.append((x, y))
    return seen.count(1)


def irreducible_specs(p, e):
    """Every monic irreducible degree-e modulus over F_p, in ascending order
    of its coefficient tuple."""
    specs = []
    for tail in itertools.product(range(p), repeat=e):
        try:
            specs.append(FiniteFieldSpec(p, e, tail + (1,)))
        except NoIrreduciblePolynomialError:
            pass
    return specs


def psl2_order(q):
    """Order of PSL2(F_q)."""
    return q * (q * q - 1) // (1 if q % 2 == 0 else 2)


def commutant_oracle(mats):
    """Commutant by a thin SVD of the full n^2-unknown Kronecker stack.

    The direct algorithm, O(m n^6): returns the dimension (singular values
    at or below SPEC_TOL * n) and the orthogonal projector onto the null
    space in row-major vec coordinates.
    """
    n = mats[0].shape[0]
    eye = np.eye(n)
    stack = np.vstack([np.kron(eye, a.T) - np.kron(a, eye) for a in mats])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    null = vh[s <= SPEC_TOL * n].conj()
    return len(null), null.T @ null.conj()


def poly_mul(a, b, modulus, p):
    """Product of two GF(p^e) elements, coefficient tuples in ascending
    powers, by schoolbook multiplication and long division by the monic
    ``modulus``: the polynomial arithmetic the field tables must agree with."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, e - 1, -1):
        coef = prod[top]
        for i, m in enumerate(modulus):
            prod[top - e + i] = (prod[top - e + i] - coef * m) % p
    return tuple(prod[:e])
