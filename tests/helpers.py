"""Shared randomized constructions for the test suite (all seeded), and
direct reference implementations used as test oracles."""

import math

import numpy as np

from ncprism.errors import InfeasibleError
from ncprism.matkernel import DEFAULT_TOL, dagger, hermitize, opnorm
from ncprism.opsys import STRICT_MARGIN


def within_bounds(residuals):
    """True when every (name, residual, bound) triple has residual <= bound."""
    return all(value <= bound for _, value, bound in residuals)


def worst(residuals):
    return max(value for _, value, _ in residuals)


def random_hermitian(rng, n):
    return hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    # Fix the phase so the distribution is Haar and the output deterministic.
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def commutant_oracle(mats, tol=DEFAULT_TOL):
    """Commutant by a thin SVD of the full n^2-unknown Kronecker stack.

    The direct algorithm, O(m n^6): returns the dimension (singular values
    at or below spec_tol * n) and the orthogonal projector onto the null
    space in row-major vec coordinates.
    """
    n = mats[0].shape[0]
    eye = np.eye(n)
    stack = np.vstack([np.kron(eye, a.T) - np.kron(a, eye) for a in mats])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    null = vh[s <= tol.spec_tol * n].conj()
    return len(null), null.T @ null.conj()


def _povm_residual_oracle(effects, labels, a):
    n = a.shape[0]
    total = sum(effects)
    moment = sum(label * h for label, h in zip(labels, effects))
    negative = sum(max(0.0, -float(np.linalg.eigvalsh(hermitize(h)).min())) for h in effects)
    return opnorm(moment - a) + opnorm(total - np.eye(n)) + negative


def _clamp_oracle(h, floor):
    w, u = np.linalg.eigh(hermitize(h))
    return hermitize((u * np.clip(w, floor, None)) @ dagger(u))


def order_k_povm_oracle(a, k, tol=DEFAULT_TOL, max_iter=5000):
    """The alternating projections of ``order_k_povm`` over a Python list of
    effects, one eigendecomposition per effect per sweep (k >= 4, with the
    numerical range of ``a`` inside the polygon). Returns the renormalized
    effects, or raises InfeasibleError with the solver's stall message."""
    n = a.shape[0]
    omega = np.exp(2j * np.pi / k)
    labels = [omega**j for j in range(k)]
    eye = np.eye(n)
    effects = [eye.astype(complex) / k for _ in range(k)]
    residual = math.inf
    for _ in range(max_iter):
        r0 = eye - sum(effects)
        r1 = a - sum((omega**j) * h for j, h in enumerate(effects))
        effects = [
            hermitize(h + (r0 + (omega ** (-j)) * r1 + (omega**j) * dagger(r1)) / k)
            for j, h in enumerate(effects)
        ]
        effects = [_clamp_oracle(h, 0.0) for h in effects]
        residual = _povm_residual_oracle(effects, labels, a)
        if residual <= tol.spec_tol / 2.0:
            break
    else:
        raise InfeasibleError(
            f"alternating projections stalled at residual {residual:.3e} "
            f"after {max_iter} sweeps (not a proof of infeasibility)"
        )
    w, u = np.linalg.eigh(hermitize(sum(effects)))
    t = (u * (w**-0.5)) @ dagger(u)
    return [hermitize(t @ h @ t) for h in effects]


def _psi_oracle(k, blocks):
    omega = np.exp(2j * np.pi / k)
    xs, x_plus, x_minus = blocks[:k], blocks[k], blocks[k + 1]
    c = [sum(xs) / (2.0 * k) + (x_plus + x_minus) / 4.0]
    for m in range(1, k):
        c.append(sum((omega ** (-j * m)) * xs[j] for j in range(k)) / (2.0 * k))
    return [*c, (x_plus - x_minus) / 4.0]


def certification_oracle(e, max_iter=2000, tol=DEFAULT_TOL):
    """The Dykstra certification phase of ``matrix_positivity_prism`` over
    Python lists of q x q blocks, with the quotient map and the distance
    taken block by block. Returns ``("certified", lift blocks)`` or
    ``("unknown", best residual)``."""
    k, q = e.k, e.q
    omega = np.exp(2j * np.pi / k)
    eye = np.eye(q, dtype=complex)
    particular = [
        hermitize(eye + 2.0 * sum((omega ** (j * m)) * e.c[m] for m in range(1, k)))
        for j in range(k)
    ]
    particular += [hermitize(2.0 * e.c[0] - eye + 2.0 * e.g), hermitize(2.0 * e.c[0] - eye - 2.0 * e.g)]
    target = [*e.c, e.g]
    x = [b.copy() for b in particular]
    p_corr = [np.zeros_like(b) for b in x]
    q_corr = [np.zeros_like(b) for b in x]
    best = math.inf
    for _ in range(max_iter):
        y = [_clamp_oracle(xb + pb, STRICT_MARGIN) for xb, pb in zip(x, p_corr)]
        p_corr = [xb + pb - yb for xb, pb, yb in zip(x, p_corr, y)]
        shifted = [yb + qb for yb, qb in zip(y, q_corr)]
        diff = [s - p for s, p in zip(shifted, particular)]
        ycomp = hermitize((sum(diff[:k]) - diff[k] - diff[k + 1]) / (k + 2))
        kernel = [ycomp] * k + [-ycomp, -ycomp]
        x = [hermitize(p + kv) for p, kv in zip(particular, kernel)]
        q_corr = [s - xb for s, xb in zip(shifted, x)]
        residual = max(opnorm(a - b) for a, b in zip(_psi_oracle(k, y), target))
        best = min(best, residual)
        if residual <= tol.spec_tol:
            return "certified", y
    return "unknown", best
