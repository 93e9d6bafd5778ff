"""RIS phase optimization: homogenized objective, SDP relaxation solved in
low-rank factored form with a dual certificate, and Gaussian randomization.

The quadratic uplink objective over a unit-modulus reflection row q is
homogenized with an auxiliary coordinate into v = [q, 1], giving the pure
form v D v^H with D = W diag(p) W^H.  The objective is kept as the
(N+1) x k factor W and the k real weights p, k = I M, and the (N+1)^2 matrix
D is never formed.  The relaxation drops rank-1, leaving max Tr(DV) over
Hermitian V with unit diagonal and V PSD.  It is solved over V = U U^H with
a thin U by the generalized power method, and every solve reports the gap
to a dual bound, certified by a k x k Schur-complement test, so an
uncertified result is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .ris_system import NetworkSnapshot


@dataclass(frozen=True, eq=False)
class HomogenizedObjective:
    """D = W diag(p) W^H in factored form; a negative weight makes D
    indefinite."""

    W: np.ndarray  # (N+1, k) factor, column j = w_j
    p: np.ndarray  # (k,) real weights

    def __post_init__(self):
        W = np.asarray(self.W, dtype=complex)
        p = np.asarray(self.p, dtype=float)
        if W.ndim != 2 or W.shape[0] < 1 or p.shape != (W.shape[1],):
            raise ValueError("W must be (N+1) x k with N+1 >= 1, p of length k")
        if not (np.isfinite(W).all() and np.isfinite(p).all()):
            raise ValueError("objective factor must be finite")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "p", p)

    @property
    def N(self) -> int:
        return self.W.shape[0] - 1


@dataclass(frozen=True, eq=False)
class SdpSolution:
    U: np.ndarray       # (N+1, r) factor with unit rows
    objective: float    # Tr(DV)
    iterations: int
    converged: bool     # gap <= tol * |objective|
    # the Schur test, lam and eps of the last check, kept for `gap`
    exit_check: tuple = field(repr=False)

    @cached_property
    def gap(self) -> float:
        """Certified dual bound minus objective, from bisection steps on the
        exit check's Schur test, run on first read."""
        test, lam, eps = self.exit_check
        return -self.U.shape[0] * test.bound(lam, eps, self.converged)


# Randomization draws no scenario needs: each draw is a row of length N + 1
# held at once, so a larger count would exhaust memory.
MAX_RANDOMIZATION_DRAWS = 10_000


@dataclass(frozen=True)
class OptimizerConfig:
    sdp_tol: float = 1e-6
    sdp_max_iter: int = 5000
    randomization_draws: int = 100

    def __post_init__(self):
        if self.sdp_max_iter < 1:
            raise ValueError("sdp_max_iter must be >= 1")
        if not 1 <= self.randomization_draws <= MAX_RANDOMIZATION_DRAWS:
            raise ValueError("randomization_draws must lie in "
                             f"[1, {MAX_RANDOMIZATION_DRAWS}]")


def build_D(snap: NetworkSnapshot) -> HomogenizedObjective:
    """Factored homogenized objective from a snapshot's channels and powers.

    With W_i = [G_i; h_i], h_i the conjugated column i of H_d, IoT i's power
    ||h_i + q G_i||^2 is [q, 1] W_i W_i^H [q, 1]^H, so D = sum_i P_i W_i W_i^H
    = W diag(p) W^H with W = [W_1, ..., W_I] and p = repeat(P_t, M).  Only
    W and p are returned; D itself is never formed.  The snapshot has
    already checked every shape and power.
    """
    I, N, M = snap.G.shape
    # the blocks W_i stacked as (I, N+1, M), then laid side by side
    W = np.concatenate([snap.G, snap.H_d.T.conj()[:, None, :]], axis=1)
    W = W.transpose(1, 0, 2).reshape(N + 1, I * M)
    # the powers weight the columns and sit under no square root, so
    # scaling them scales every objective value exactly
    return HomogenizedObjective(W=W, p=np.repeat(snap.P_t, M))


def _values(obj: HomogenizedObjective, V: np.ndarray):
    """v D v^H = sum_j p_j |v w_j|^2 for each row v of V."""
    return np.abs(V @ obj.W) ** 2 @ obj.p


def reflection_objective(obj: HomogenizedObjective, q) -> float:
    """Quadratic objective [q, 1] D [q, 1]^H (row-vector convention)."""
    v = np.concatenate([np.asarray(q, dtype=complex), [1.0 + 0.0j]])
    return float(_values(obj, v))


# Bisection steps on the Schur test that tighten the reported gap.
_GAP_BISECTIONS = 8


class _ShiftTest:
    """Certified lower bounds mu on lambda_min(diag(lam) - D) from k x k work.

    Dropping the negative-weight columns only adds a PSD term to
    diag(lam) - D, so any mu with diag(lam) - mu I - W+ W+^H PSD is a valid
    bound, W+ being W scaled by sqrt(p) on the positive-weight columns.  For
    mu < min(lam) the Schur complement turns that into a Cholesky test of
    I_k - W+^H (diag(lam) - mu I)^-1 W+, and that test alone decides each
    certificate.  The Weyl bound min(lam) - ||W+||_F^2 never passes where
    the test fails (it makes the Schur matrix PSD), so it serves only as the
    known-valid floor of bound's bisection."""

    def __init__(self, obj: HomogenizedObjective):
        pos = obj.p > 0
        self.Wp = obj.W[:, pos] * np.sqrt(obj.p[pos])
        self.Wph = np.ascontiguousarray(self.Wp.conj().T)
        self.eye = np.eye(self.Wp.shape[1])

    def holds(self, lam, mu: float) -> bool:
        d = lam - mu
        if not np.all(d > 0):
            return False
        try:
            np.linalg.cholesky(self.eye - (self.Wph * (1.0 / d)) @ self.Wp)
        except np.linalg.LinAlgError:
            return False
        return True

    def bound(self, lam, eps: float, certified: bool) -> float:
        """Largest mu <= 0 found by bisection between the known-valid bound
        and the first value not known to hold; the Weyl bound is the
        known-valid floor."""
        lo = float(np.min(lam)) - float(np.sum(np.abs(self.Wp) ** 2))
        hi = -eps
        if certified:
            lo, hi = max(lo, -eps), 0.0
        if lo >= 0.0:
            return 0.0
        for _ in range(_GAP_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if self.holds(lam, mid):
                lo = mid
            else:
                hi = mid
        return lo


@lru_cache(maxsize=4)
def _start(n: int, r: int) -> np.ndarray:
    """Fixed (n, r) start with unit rows, drawn from its own seed, not the
    trial RNG, and computed once per shape.  The method needs only a
    feasible start, so every solve of one shape may share it.  The array is
    read-only, because every caller of the cache gets the same one, and the
    cache keeps the last few shapes only, so a sweep over array sizes holds
    bounded memory."""
    init = np.random.default_rng(0)
    U = init.standard_normal((n, r)) + 1j * init.standard_normal((n, r))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    U.flags.writeable = False
    return U


def solve_sdp(obj: HomogenizedObjective, tol: float = 1e-6,
              max_iter: int = 5000) -> SdpSolution:
    """Maximize Tr(DV) s.t. diag(V) = 1, V PSD, over V = U U^H.

    U has unit rows, so V is always feasible, and r >= sqrt(2n) columns, for
    which second-order critical points are optimal (Boumal, Voroninski &
    Bandeira 2016).  Each iteration is the generalized power step
    U <- row-normalize(W (p * (W^H U))) = row-normalize(D U) (Burer &
    Monteiro 2003), ascending for PSD D.  When the objective stalls, at
    iterations at least doubling apart, the dual point y = lam - mu is
    tested, lam_i = Re(DV)_ii and mu a lower bound on
    lambda_min(diag(lam) - D): diag(y) - D is PSD, so sum(y) bounds the
    optimum for any Hermitian D.  The solve stops when a k x k Schur test
    certifies mu >= -tol * |Tr(DV)| / n, that is sum(y) - Tr(DV) <=
    tol * |Tr(DV)|, and only then is it `converged`.  The reported gap comes
    from a few bisection steps on the same test, run when `gap` is first
    read.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    W, Wh, p = obj.W, obj.W.conj().T, obj.p[:, None]
    test = _ShiftTest(obj)
    n = W.shape[0]
    r = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    U = _start(n, r).copy()     # the loop below writes into U
    value = -np.inf
    next_check = 1
    for k in range(1, max_iter + 1):
        DU = W @ (p * (Wh @ U))
        lam = np.real(np.sum(DU * U.conj(), axis=1))   # Re(DV)_ii
        value, previous = float(np.sum(lam)), value
        if k == max_iter or (k >= next_check
                             and value - previous <= tol * abs(value)):
            eps = tol * abs(value) / n
            certified = test.holds(lam, -eps)
            if certified or k == max_iter:
                break
            next_check = 2 * k
        norms = np.linalg.norm(DU, axis=1, keepdims=True)
        U = np.divide(DU, norms, out=U, where=norms > 0)  # zero rows stay
    return SdpSolution(U=U, objective=value, iterations=k,
                       converged=certified, exit_check=(test, lam, eps))


def randomize(sol: SdpSolution, R: int, obj: HomogenizedObjective, rng) -> np.ndarray:
    """Best-of-R Gaussian rounding of the relaxed solution to unit modulus.

    Draws v = U e with e ~ CN(0, I_r), so E[v v^H] = V; all-ones is kept
    unless a draw beats it.
    """
    if R < 1:
        raise ValueError("need at least one draw")
    n, r = sol.U.shape
    E = (rng.standard_normal((R, r)) + 1j * rng.standard_normal((R, r))) / np.sqrt(2.0)
    Vs = E @ sol.U.T                                       # (R, n) draws
    # the row-form phases of [q, 1] are z / |z|, z the conjugated ratio of
    # the column-convention draw against its last entry; z = 0 keeps 1, as
    # exp(1j * angle(0)) would
    z = Vs.conj() * Vs[:, -1:]
    mag = np.abs(z)
    rows = np.ones((R + 1, n), dtype=complex)
    np.divide(z, mag, out=rows[1:], where=mag > 0)
    return rows[int(np.argmax(_values(obj, rows))), :-1]


def optimize_phases(snap: NetworkSnapshot, cfg: OptimizerConfig, rng):
    """Full chain: build the factored objective, solve the SDP, randomize,
    and guard with the all-ones reflection and sign flips so the result
    never loses to them.

    Returns (q, capacity, sol): the relaxed SdpSolution is kept for
    diagnostics.
    """
    obj = build_D(snap)
    ones = np.ones(obj.N, dtype=complex)
    sol = solve_sdp(obj, cfg.sdp_tol, cfg.sdp_max_iter)
    q_rand = randomize(sol, cfg.randomization_draws, obj, rng)
    # The +/- pair of any candidate averages to at least the direct-only
    # power, so including sign flips certifies RIS-on >= RIS-off.
    candidates = (q_rand, -q_rand, ones, -ones)
    values = [reflection_objective(obj, q) for q in candidates]
    best = int(np.argmax(values))   # the first of a tie
    capacity = snap.beta * float(np.log2(1.0 + values[best] / snap.sigma2))
    return candidates[best], capacity, sol
