"""``lmi_floor``, the one iterative solver: it decides whether an affine
stack of Hermitian blocks can be lifted above a floor, for the positive
decompositions of ``dilation`` at k >= 4 and the lifts through the prism
quotient that certify or refute positivity in ``opsys``.

Each caller imports this module inside the branch that solves, so a process
that decides without a solve never compiles it. What a solve returns,
:class:`matkernel.FloorResult`, stays in the kernel, where ``dilation``'s
exact k = 3 floor builds one without solving.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatchError
from .matkernel import FloorResult, _floor, dagger, hermitize

__all__ = ["FloorSystem", "lmi_floor"]


# lmi_floor's cap on Newton steps, its stopping gap t_hi - t_lo (absolute, as
# its callers pose problems with O(1) data), the fraction of the way to the
# boundary of the PSD cone that one step may go, and how many times a step
# whose iterate fails to factor is halved and taken again.
_LMI_STEPS = 50
_LMI_GAP = 1e-12
_LMI_REACH = 0.95
_LMI_HALVINGS = 8


class FloorSystem:
    """A (p, m, n, n) stack of Hermitian directions D_i for :func:`lmi_floor`
    and the constraints formed from it when the system is made, every array
    kept read-only.

    The constraint matrices A_i are -D_i for each y_i, then the identity for
    t, so that S = base - sum_i z_i A_i with z = (y, t) and the primal
    constraints read <A_i, X> = b_i. ``flat`` holds them one per row and
    ``pair`` conjugated, so that Re pair @ vec(X) is <A_i, X>; block b of
    ``cols`` is the row of blocks [A_1b | ... | A_Pb]. ``gram`` is their real
    Gram matrix and ``slack_cut`` the rounding allowance of a primal point's
    constraints (:func:`_meets`).

    The system depends on the directions alone: a caller that solves many
    problems over one stack keeps its system and passes it to every
    :func:`lmi_floor` call. The directions and the identity must be linearly
    independent to rounding: the smallest eigenvalue of ``gram`` must be
    above sqrt(eps) times its largest, or ``ValueError`` is raised. The
    callers' directions (Fourier modes or a kernel vector tensored with
    ``matkernel.hermitian_basis``) always are.
    """

    def __init__(self, directions):
        directions = np.asarray(directions, dtype=complex).view()
        if directions.ndim != 4:
            raise ShapeMismatchError(f"directions must be a (p, m, n, n) stack, got shape {directions.shape}")
        _, m, n, _ = directions.shape
        a = np.concatenate([-directions, np.broadcast_to(np.eye(n), (1, m, n, n))])
        self.directions = directions
        self.flat = a.reshape(len(a), -1)
        self.pair = self.flat.conj()
        self.cols = a.transpose(1, 2, 0, 3).reshape(m, n, -1)
        self.b = np.zeros(len(a))
        self.b[-1] = 1.0
        self.gram = (self.pair @ self.flat.T).real
        lam = np.linalg.eigvalsh(self.gram)
        if not lam.min() > math.sqrt(np.finfo(float).eps) * lam.max():
            raise ValueError(
                "the directions and the identity must be linearly independent to rounding: "
                f"their Gram matrix has smallest eigenvalue {lam.min():.3e}, not above "
                f"sqrt(eps) times its largest, {lam.max():.3e}"
            )
        # A projected point bounds the floors only if tr X = 1 and <D_i, X> = 0
        # hold to the rounding of the products, which an ill-conditioned
        # projection need not achieve.
        self.slack_cut = self.pair.shape[1] * np.finfo(float).eps * np.linalg.norm(self.pair, axis=1)
        for array in vars(self).values():
            array.flags.writeable = False


def lmi_floor(base, system: FloorSystem, band: tuple[float, float]) -> FloorResult:
    """Bracket max t s.t. base + sum_i y_i directions[i] >= t 1 against the
    band (low, high), low <= high.

    ``base`` is an (m, n, n) stack of Hermitian blocks and ``system`` the
    :class:`FloorSystem` of the directions, a (p, m, n, n) stack of p such
    stacks; the order holds block by block.

    The solver stops at the first bracket [t_lo, t_hi] that places the best
    floor against the band: t_lo >= high, with the first point y found whose
    floor clears the band, as soon as it is found (before that step's primal
    projection and its ``eigvalsh``); t_hi < low, with a primal point x that
    proves no y reaches it; or low <= t_lo and t_hi < high, a bracket inside
    the band.
    A band (t, t) asks whether the floor reaches t. Otherwise it leaves a
    bracket after ``_LMI_STEPS`` Newton steps, at a gap of ``_LMI_GAP`` or
    at a step that fails numerically (no ``LinAlgError`` escapes). A step
    whose new iterate (X, S) is not positive definite in rounding, so that
    its Cholesky factorisation fails, is taken again from the last good
    iterate at half the step lengths, up to ``_LMI_HALVINGS`` times. Before
    return the lift of y is formed once and factored by one batched ``eigh``,
    ``FloorResult.spectrum``, whose least eigenvalue is t_lo; x was accepted
    only with no negative eigenvalue and with sum tr x = 1 and <D_i, x> = 0
    to rounding.

    y = 0 is tried first, by one ``eigvalsh`` that also seeds the dual start.
    A base above the band is its own lift: ``order_k_povm`` sends one there
    only when Cholesky refuses a positive definite base, and ``opsys``
    certifies by its scalar bracket every base whose floor reaches
    ``STRICT_MARGIN``, as t_scalar = (a + b)/2 is at least that floor.
    Otherwise an infeasible-start primal-dual interior-point method
    (Mehrotra's predictor-corrector on the HKM direction: Vandenberghe and
    Boyd, "Semidefinite programming", 1996; Helmberg, Rendl, Vanderbei and
    Wolkowicz, 1996) solves

        max t          s.t. S = base + sum_i y_i D_i - t 1 >= 0,
        min <base, X>  s.t. X >= 0, sum tr X = 1, <D_i, X> = 0 for all i,

    where <S, X> = <base, X> - t >= 0 makes each feasible X an upper bound.
    The primal starts at X0 = 1/(mn) in every block, the dual at y = 0 and
    t0 = t_lo - min(1, g), g = <base, X0> - t_lo the duality gap of X0
    (1/k - t_lo for a decomposition over the k-th roots of unity), and at
    t0 = t_lo - 1 when g = 0, every block being t_lo 1.
    S is recomputed from (y, t), so the dual iterates stay feasible; each
    primal iterate, projected onto the linear constraints, is a bound once
    the projection is PSD. A Newton step solves one (p+1) x (p+1) Schur
    system (a predictor and a corrector right-hand side), built block by
    block from the products X_b A_jb S_b^-1 (:func:`_schur`):
    O(p m n^3 + p^2 m n^2 + p^3) flops, with
    p = (k-3) n^2 for a positive decomposition over the k-th roots of unity
    at level n and p = q^2 for a level-q lift through the prism quotient.
    The method is deterministic and draws no random numbers.
    """
    low, high = band
    if not low <= high:
        raise ValueError(f"band must have low <= high, got ({low}, {high})")
    base = hermitize(np.asarray(base, dtype=complex))
    m, n, _ = base.shape
    directions = system.directions
    if directions.shape[1:] != base.shape:
        raise ShapeMismatchError(f"the directions have blocks {directions.shape[1:]}, the base {base.shape}")
    y, t_lo = np.zeros(len(directions)), _floor(base)
    if t_lo >= high:
        return FloorResult(y, base, np.linalg.eigh(base), math.inf, None, 0)
    flat, pair, b = system.flat, system.pair, system.b
    x = np.broadcast_to(np.eye(n), base.shape) / (m * n)
    gap = float(np.vdot(base, x).real) - t_lo
    z = np.append(y, t_lo - (min(1.0, gap) if gap > 0.0 else 1.0))
    t_hi, x_hi, steps, halvings = math.inf, None, 0, 0
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            while True:
                s = hermitize(base - (z @ flat).reshape(base.shape))
                w, u = np.linalg.eigh(s)
                if z[-1] + w.min() > t_lo:
                    y, t_lo = z[:-1].copy(), float(z[-1] + w.min())
                    if t_lo >= high:
                        break
                shift = np.linalg.solve(system.gram, b - (pair @ x.ravel()).real)
                projected = hermitize(x + (shift @ flat).reshape(x.shape))
                if np.linalg.eigvalsh(projected).min() >= 0.0:
                    bound = float(np.vdot(base, projected).real)
                    if bound < t_hi and _meets(projected, pair, b, system.slack_cut):
                        t_hi, x_hi = bound, projected
                decided = t_hi < low or (t_lo >= low and t_hi < high)
                if decided or t_hi - t_lo <= _LMI_GAP or steps == _LMI_STEPS:
                    break
                try:
                    factors = np.linalg.inv(np.linalg.cholesky(np.stack([x, s])))
                except np.linalg.LinAlgError:
                    # The last step left the cone in rounding: take it again
                    # from the last good iterate at half its lengths.
                    if steps == 0 or halvings == _LMI_HALVINGS:
                        break
                    halvings += 1
                    step_x, step_z = step_x / 2.0, step_z / 2.0
                    x, z = x_good + step_x * dx, z_good + step_z * dz
                    continue
                halvings = 0
                s_inv = (u / w[..., None, :]) @ dagger(u)
                dz, dx, (step_x, step_z) = _newton_step(x, s, s_inv, factors, system)
                x_good, z_good = x, z
                x, z = x + step_x * dx, z + step_z * dz
                steps += 1
    except (np.linalg.LinAlgError, FloatingPointError):
        pass
    lift = hermitize(base + np.tensordot(y, directions, axes=1))
    return FloorResult(y, lift, np.linalg.eigh(lift), t_hi, x_hi, steps)


def _meets(x: np.ndarray, rows: np.ndarray, target: np.ndarray, cut: np.ndarray) -> bool:
    """Re <rows_i, vec(x)> = target_i for every i, to within cut_i ||x||_F."""
    slack = np.abs(target - (rows @ x.ravel()).real)
    return bool((slack <= cut * math.sqrt(np.vdot(x, x).real)).all())

def _newton_step(x, s, s_inv, factors, system: FloorSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mehrotra's predictor-corrector on the HKM direction at (x, s): the
    steps dz and dX (dS = -sum_i dz_i A_i), and the lengths to take them by,
    for x and for z. ``factors`` holds L^-1 for the Cholesky factors L of X
    and of S.

    Linearising X S = sigma mu 1 with A(dX) = b - A(X) and dS = -A^T(dz)
    gives dX = W - X dS S^-1 (then hermitized) and the Schur system
    M dz = b - A(W + X), M_ij = Re tr(A_i X A_j S^-1), with
    W = -X for the predictor and W = sigma mu S^-1 - X - dX' dS' S^-1 for the
    corrector, sigma = (mu' / mu)^3 from the predictor's reach mu'.

    X and S are factored once per iterate, by one batched Cholesky
    factorisation and inverse, and the predictor's reach and the corrector's
    step each take both step lengths from one batched ``eigvalsh``
    (:func:`_step_lengths`).
    """
    flat, pair, b = system.flat, system.pair, system.b
    size = x.shape[0] * x.shape[1]
    schur = _schur(x, s_inv, system.cols, pair)

    def solve(rhs, w):
        dz = np.linalg.solve(schur, rhs)
        ds = -(dz @ flat).reshape(x.shape)
        dx = hermitize(w - x @ ds @ s_inv)
        return dz, ds, dx, _step_lengths(factors, np.stack([dx, ds]))

    dz, ds, dx, (step_x, step_s) = solve(b, -x)
    mu = np.vdot(x, s).real / size
    reach = np.vdot(x + step_x * dx, s + step_s * ds).real / size
    target = (reach / mu) ** 3 * mu
    second = dx @ ds @ s_inv
    rhs = b - target * (pair @ s_inv.ravel()).real + (pair @ second.ravel()).real
    dz, _, dx, steps = solve(rhs, target * s_inv - x - second)
    return dz, dx, steps


def _schur(x: np.ndarray, s_inv: np.ndarray, cols: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """The Schur matrix M_ij = Re tr(A_i X A_j S^-1), symmetrised, for the
    (m, n, n) blocks X_b and S_b^-1 and constraint blocks A_ib given as the
    rows of blocks ``cols``[b] = [A_1b | ... | A_Pb] and as the conjugated
    flat rows ``pair``. Per block b, one product gives [X_b A_1b | ... |
    X_b A_Pb] and one more, restacked, every (X_b A_ib) S_b^-1."""
    m, n, _ = x.shape
    count = cols.shape[-1] // n
    left = (x @ cols).reshape(m, n, count, n).transpose(0, 2, 1, 3).reshape(m, count * n, n)
    products = (left @ s_inv).reshape(m, count, n, n).swapaxes(0, 1).reshape(count, -1)
    schur = (pair @ products.T).real
    return (schur + schur.T) / 2.0


def _step_lengths(factors: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """For each positive definite stack P = L L*, given by ``factors`` L^-1,
    and its move dP in ``moves``: the largest step in (0, 1] that goes at
    most ``_LMI_REACH`` of the way from P to the PSD boundary along dP. One
    batched ``eigvalsh`` of the L^-1 dP L^-* serves every pair."""
    low = np.linalg.eigvalsh(hermitize(factors @ moves @ dagger(factors)))
    low = low.reshape(len(moves), -1).min(axis=1)
    # min(1, reach / -low) for low < 0 and 1 otherwise, without dividing by 0.
    return _LMI_REACH / np.maximum(-low, _LMI_REACH)
