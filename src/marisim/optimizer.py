"""RIS phase optimization: homogenized objective, SDP relaxation solved in
low-rank factored form with a dual certificate, Gaussian randomization, and
a brute-force oracle.

The quadratic uplink objective over a unit-modulus reflection row q is
homogenized with an auxiliary coordinate into v = [q, 1], giving the pure
form v D v^H with D Hermitian PSD.  The relaxation drops rank-1, leaving
max Tr(DV) over Hermitian V with unit diagonal and V PSD.  It is solved over
V = U U^H with a thin U by the generalized power method, and every solve
reports the gap to a dual bound, so an uncertified result is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ris_system import NetworkSnapshot, combined_channel


@dataclass(frozen=True, eq=False)
class HomogenizedObjective:
    D: np.ndarray  # (N+1, N+1) Hermitian PSD

    def __post_init__(self):
        D = np.asarray(self.D, dtype=complex)
        if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] < 1:
            raise ValueError("D must be square of size N+1 >= 1")
        if np.max(np.abs(D - D.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(D))):
            raise ValueError("D must be Hermitian")
        object.__setattr__(self, "D", D)

    @property
    def N(self) -> int:
        return self.D.shape[0] - 1


@dataclass(frozen=True, eq=False)
class SdpSolution:
    U: np.ndarray       # (N+1, r) factor with unit rows
    objective: float    # Tr(DV)
    gap: float          # certified dual bound minus objective
    iterations: int
    converged: bool     # gap <= tol * |objective|

    @property
    def V(self) -> np.ndarray:
        return self.U @ self.U.conj().T


@dataclass(frozen=True)
class OptimizerConfig:
    sdp_tol: float = 1e-6
    sdp_max_iter: int = 5000
    randomization_draws: int = 100

    def __post_init__(self):
        if self.sdp_max_iter < 1 or self.randomization_draws < 1:
            raise ValueError("sdp_max_iter and randomization_draws must be >= 1")


def build_D(Hd: np.ndarray, G, P_t) -> HomogenizedObjective:
    """Block matrix of the homogenized objective from channels and powers.

    With W_i = [G_i; h_i], h_i the conjugated column i of Hd, IoT i's power
    ||h_i + q G_i||^2 is [q, 1] W_i W_i^H [q, 1]^H, so D = sum_i P_i W_i W_i^H.
    """
    Hd = np.asarray(Hd, dtype=complex)
    G = np.asarray(G, dtype=complex)   # ragged input raises here
    P_t = np.asarray(P_t, dtype=float)
    if Hd.ndim != 2:
        raise ValueError("Hd must be M x I")
    M, I = Hd.shape
    if G.ndim != 3 or G.shape[0] != I or G.shape[2] != M:
        raise ValueError("G must be I x N x M")
    if P_t.shape != (I,):
        raise ValueError("need one power per IoT")
    if np.any(P_t < 0):
        raise ValueError("powers must be non-negative")
    N = G.shape[1]
    W = np.concatenate([G, Hd.T.conj()[:, None, :]], axis=1)   # (I, N+1, M)
    W = W.transpose(1, 0, 2).reshape(N + 1, I * M)
    # P_i weights one factor only, so scaling the powers scales D exactly
    D = (W * np.repeat(P_t, M)) @ W.conj().T
    D = 0.5 * (D + D.conj().T)
    return HomogenizedObjective(D=D)


def reflection_objective(obj: HomogenizedObjective, q) -> float:
    """Quadratic objective [q, 1] D [q, 1]^H (row-vector convention)."""
    v = np.concatenate([np.asarray(q, dtype=complex), [1.0 + 0.0j]])
    return float(np.real(v @ obj.D @ v.conj()))


def solve_sdp(obj: HomogenizedObjective, tol: float = 1e-6,
              max_iter: int = 5000) -> SdpSolution:
    """Maximize Tr(DV) s.t. diag(V) = 1, V PSD, over V = U U^H.

    U has unit rows, so V is always feasible, and r >= sqrt(2n) columns, for
    which second-order critical points are optimal (Boumal, Voroninski &
    Bandeira 2016).  Each iteration is the generalized power step
    U <- row-normalize(D U) (Burer & Monteiro 2003), ascending for PSD D.
    When the objective stalls, at iterations at least doubling apart, the
    dual point y = lam - min(0, lambda_min(diag(lam) - D)), lam_i = Re(DV)_ii,
    is formed: diag(y) - D is PSD, so sum(y) bounds the optimum for any
    Hermitian D.  `converged` means sum(y) - Tr(DV) <= tol * |Tr(DV)|.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    D = obj.D
    n = D.shape[0]
    r = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    init = np.random.default_rng(0)     # fixed start, not the trial RNG
    U = init.standard_normal((n, r)) + 1j * init.standard_normal((n, r))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    value = -np.inf
    next_check = 1
    for k in range(1, max_iter + 1):
        DU = D @ U
        lam = np.real(np.sum(DU * U.conj(), axis=1))   # Re(DV)_ii
        value, previous = float(np.sum(lam)), value
        if k == max_iter or (k >= next_check
                             and value - previous <= tol * abs(value)):
            gap = -n * min(0.0, float(np.linalg.eigvalsh(np.diag(lam) - D)[0]))
            if gap <= tol * abs(value) or k == max_iter:
                break
            next_check = 2 * k
        norms = np.linalg.norm(DU, axis=1, keepdims=True)
        U = np.divide(DU, norms, out=U, where=norms > 0)  # zero rows stay
    return SdpSolution(U=U, objective=value, gap=gap, iterations=k,
                       converged=bool(gap <= tol * abs(value)))


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
    # the row-form phases of [q, 1] follow from the conjugated ratio of the
    # column-convention draw against its last entry
    W = np.vstack([np.ones(n), np.exp(1j * np.angle(Vs.conj() * Vs[:, -1:]))])
    vals = np.real(np.sum((W @ obj.D) * W.conj(), axis=1))
    return W[int(np.argmax(vals)), :-1]


def optimize_phases(snap: NetworkSnapshot, cfg: OptimizerConfig, rng):
    """Full chain: build D, solve the SDP, randomize, and guard with the
    all-ones reflection and sign flips so the result never loses to them.

    Returns (q, capacity, sol): the relaxed SdpSolution is kept for
    diagnostics, and is None when there is no RIS (N = 0).
    """
    obj = build_D(snap.H_d, snap.G, snap.P_t)
    N = obj.N
    ones = np.ones(N, dtype=complex)
    if N == 0:
        capacity = snap.beta * float(np.log2(1.0 + obj.D[0, 0].real / snap.sigma2))
        return ones, capacity, None
    sol = solve_sdp(obj, cfg.sdp_tol, cfg.sdp_max_iter)
    q_rand = randomize(sol, cfg.randomization_draws, obj, rng)
    # The +/- pair of any candidate averages to at least the direct-only
    # power, so including sign flips certifies RIS-on >= RIS-off.
    best_q = None
    best_val = -np.inf
    for q in (q_rand, -q_rand, ones, -ones):
        val = reflection_objective(obj, q)
        if val > best_val:
            best_val = val
            best_q = q
    capacity = snap.beta * float(np.log2(1.0 + best_val / snap.sigma2))
    return best_q, capacity, sol


_BRUTE_FORCE_GUARD = 10 ** 8
_BRUTE_FORCE_CHUNK = 1 << 17


def brute_force_phases(snap: NetworkSnapshot, levels: int):
    """Exhaustive search over levels^N quantized reflections (test oracle)."""
    N = snap.N
    if levels < 1:
        raise ValueError("levels must be >= 1")
    total = levels ** N
    if total > _BRUTE_FORCE_GUARD:
        raise ValueError("search space exceeds the enumeration guard")
    phases = np.exp(2j * np.pi * np.arange(levels) / levels)
    best_val = -np.inf
    best_idx = 0
    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(start + _BRUTE_FORCE_CHUNK, total))
        digits = (idx[:, None] // levels ** np.arange(N)[None, :]) % levels
        rows = combined_channel(snap.direct_rows, phases[digits], snap.G)
        val = np.sum(np.abs(rows) ** 2, axis=-1) @ snap.P_t
        k = int(np.argmax(val))
        if val[k] > best_val:
            best_val = float(val[k])
            best_idx = int(idx[k])
    digits = (best_idx // levels ** np.arange(N)) % levels
    q = phases[digits]
    capacity = snap.beta * float(np.log2(1.0 + best_val / snap.sigma2))
    return q, capacity
