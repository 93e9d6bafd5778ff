"""Two-stage least-squares channel estimation with RIS reflection scheduling.

Stage one cancels the RIS path with a +/- reflection pair and solves for the
direct channels; stage two sweeps B >= N scheduled reflections and solves for
the cascaded channels.  All B + 2 reflections are sounded as one (B + 2, N)
stack, giving (B + 2, T, M) received blocks, and stage two returns the
cascaded channels of all I IoTs as one (I, N, M) tensor from a single solve
of the schedule's normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ris_system import NetworkSnapshot, combined_channel


@dataclass(frozen=True, eq=False)
class PilotBook:
    """Orthogonal pilots: S is T x I with column i equal to s_i^H."""

    S: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=complex)
        powers = np.asarray(self.powers, dtype=float)
        if S.ndim != 2 or S.shape[0] < S.shape[1]:
            raise ValueError("pilot matrix must be T x I with T >= I")
        if powers.shape != (S.shape[1],):
            raise ValueError("need one pilot power per IoT")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "powers", powers)

    @property
    def T(self) -> int:
        return self.S.shape[0]

    @property
    def I(self) -> int:
        return self.S.shape[1]


def make_orthogonal_pilots(I: int, T: int, powers) -> PilotBook:
    """Fourier pilot book scaled so s_i s_i^H = P_i * T."""
    if T < I:
        raise ValueError("pilot length shorter than IoT count")
    powers = np.broadcast_to(np.asarray(powers, dtype=float), (I,)).copy()
    if np.any(powers <= 0):
        raise ValueError("pilot powers must be positive")
    k = np.arange(T)[:, None]
    i = np.arange(I)[None, :]
    S = np.sqrt(powers) * np.exp(2j * np.pi * k * i / T)
    return PilotBook(S=S, powers=powers)


@dataclass(frozen=True, eq=False)
class ReflectionSchedule:
    """Reflection plan: the +/- pair (q0, q1) plus B scheduled reflections
    stored column-wise in Qtilde (N x B, column b = q_b^H).

    The stage-two normal matrix Qtilde Qtilde^H is formed and checked for
    rank here; a rank-deficient plan raises np.linalg.LinAlgError."""

    q0: np.ndarray
    Qtilde: np.ndarray
    normal: np.ndarray = field(init=False, repr=False)   # (N, N)

    def __post_init__(self):
        q0 = np.asarray(self.q0, dtype=complex)
        Qt = np.asarray(self.Qtilde, dtype=complex)
        if q0.ndim != 1 or Qt.ndim != 2 or Qt.shape[0] != q0.size:
            raise ValueError("Qtilde must be N x B")
        if Qt.shape[1] < Qt.shape[0]:
            raise ValueError("need B >= N scheduled reflections")
        for arr in (q0, Qt):
            if np.max(np.abs(np.abs(arr) - 1.0)) > 1e-9:
                raise ValueError("reflections must be unit modulus")
        normal = Qt @ Qt.conj().T
        if np.linalg.cond(normal) > 1e12:
            raise np.linalg.LinAlgError("reflection schedule is rank deficient")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "Qtilde", Qt)
        object.__setattr__(self, "normal", normal)

    @property
    def q1(self) -> np.ndarray:
        return -self.q0

    @property
    def N(self) -> int:
        return self.Qtilde.shape[0]

    @property
    def B(self) -> int:
        return self.Qtilde.shape[1]

    def scheduled_reflection(self, b: int) -> np.ndarray:
        """The 1 x N reflection row used in sub-frame b."""
        return self.Qtilde[:, b].conj()

    @property
    def reflections(self) -> np.ndarray:
        """All (B + 2, N) reflection rows in sounding order: q0, q1, then
        the B scheduled reflections."""
        return np.vstack([self.q0, self.q1, self.Qtilde.T.conj()])


def make_reflection_schedule(N: int, B: int) -> ReflectionSchedule:
    """Fourier schedule.

    Rows of the B-point Fourier matrix are orthogonal for N <= B, so the
    stage-two normal matrix is B times the identity.
    """
    if B < N:
        raise ValueError("full-rank estimation needs B >= N")
    n = np.arange(N)[:, None]
    b = np.arange(B)[None, :]
    return ReflectionSchedule(q0=np.ones(N, dtype=complex),
                              Qtilde=np.exp(-2j * np.pi * n * b / B))


def simulate_pilot_rx(snap: NetworkSnapshot, q, pilots: PilotBook, rng=None) -> np.ndarray:
    """Received pilot blocks under reflection q: (T, M) for one reflection,
    (K, T, M) for a (K, N) stack.  rng None disables noise.

    Each block's noise is drawn as its real then its imaginary (T, M) part,
    in stack order, so a stack uses rng exactly as K single calls do.
    """
    if pilots.I != snap.I:
        raise ValueError("pilot book and snapshot disagree on IoT count")
    combined = combined_channel(snap.direct_rows, q, snap.G)   # (..., I, M)
    Y = pilots.S @ combined
    if rng is not None:
        scale = np.sqrt(snap.sigma2 / 2.0)
        z = rng.standard_normal(Y.shape[:-2] + (2,) + Y.shape[-2:])
        Y = Y + scale * (z[..., 0, :, :] + 1j * z[..., 1, :, :])
    return Y


def estimate_direct(Y0: np.ndarray, Y1: np.ndarray, pilots: PilotBook) -> np.ndarray:
    """LS direct-channel estimate (M x I) from the +/- reflection pair."""
    S = pilots.S
    gram = S.conj().T @ S
    Hd_H = 0.5 * np.linalg.solve(gram, S.conj().T @ (np.asarray(Y0) + np.asarray(Y1)))
    return Hd_H.conj().T


def estimate_cascaded(Yb, pilots: PilotBook, Hd_hat: np.ndarray,
                      sched: ReflectionSchedule) -> np.ndarray:
    """LS cascaded-channel estimates of all IoTs as one (I, N, M) tensor,
    from the (B, T, M) blocks received under the scheduled reflections.

    Each IoT's projection is normalized by its pilot energy P_i * T so the
    noiseless reconstruction is exact; the I * M projected columns share one
    solve of the schedule's normal equations.
    """
    Yb = np.asarray(Yb, dtype=complex)
    if Yb.ndim != 3 or Yb.shape[0] != sched.B:
        raise ValueError("need one received block per scheduled reflection")
    resid = Yb - pilots.S @ np.asarray(Hd_hat, dtype=complex).conj().T
    # u[b, i] = s_i r_b / (P_i T), the row IoT i sees in sub-frame b
    u = pilots.S.conj().T @ resid / (pilots.powers * pilots.T)[:, None]
    B, I, M = u.shape
    G = np.linalg.solve(sched.normal, sched.Qtilde @ u.reshape(B, I * M))
    return G.reshape(sched.N, I, M).transpose(1, 0, 2)


def pilot_overhead_symbols(B: int, T: int) -> int:
    """Symbol slots spent on estimation per interval: (B + 2) sub-frames."""
    return (B + 2) * T
