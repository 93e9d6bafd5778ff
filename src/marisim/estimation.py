"""Two-stage least-squares channel estimation with RIS reflection scheduling.

Stage one cancels the RIS path with a +/- reflection pair and solves for the
direct channels; stage two sweeps B >= N scheduled reflections and solves for
each cascaded channel.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def pilot_row(self, i: int) -> np.ndarray:
        """The 1 x T pilot sequence s_i."""
        return self.S[:, i].conj()


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
    stored column-wise in Qtilde (N x B, column b = q_b^H)."""

    q0: np.ndarray
    Qtilde: np.ndarray

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
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "Qtilde", Qt)

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
    """Received pilot block (T x M) under reflection q; rng None disables noise."""
    if pilots.I != snap.I:
        raise ValueError("pilot book and snapshot disagree on IoT count")
    combined = np.zeros((snap.I, snap.M), dtype=complex)
    for i in range(snap.I):
        combined[i] = combined_channel(snap.direct_row(i), q, snap.G[i])
    Y = pilots.S @ combined
    if rng is not None:
        scale = np.sqrt(snap.sigma2 / 2.0)
        Y = Y + scale * (rng.standard_normal(Y.shape)
                         + 1j * rng.standard_normal(Y.shape))
    return Y


def estimate_direct(Y0: np.ndarray, Y1: np.ndarray, pilots: PilotBook) -> np.ndarray:
    """LS direct-channel estimate (M x I) from the +/- reflection pair."""
    S = pilots.S
    gram = S.conj().T @ S
    Hd_H = 0.5 * np.linalg.solve(gram, S.conj().T @ (np.asarray(Y0) + np.asarray(Y1)))
    return Hd_H.conj().T


def estimate_cascaded(Yb, pilots: PilotBook, Hd_hat: np.ndarray,
                      sched: ReflectionSchedule):
    """LS cascaded-channel estimates, one N x M matrix per IoT.

    Per-IoT projections are normalized by the pilot energy P_i * T so the
    noiseless reconstruction is exact.
    """
    Yb = [np.asarray(Y, dtype=complex) for Y in Yb]
    if len(Yb) != sched.B:
        raise ValueError("need one received block per scheduled reflection")
    Qt = sched.Qtilde
    normal = Qt @ Qt.conj().T
    if np.linalg.cond(normal) > 1e12:
        raise np.linalg.LinAlgError("reflection schedule is rank deficient")
    direct_part = pilots.S @ np.asarray(Hd_hat, dtype=complex).conj().T
    resid = [Y - direct_part for Y in Yb]
    out = []
    for i in range(pilots.I):
        s_i = pilots.pilot_row(i)
        energy = pilots.powers[i] * pilots.T
        u = np.array([s_i @ r for r in resid]) / energy   # (B, M) rows u_{i,b}
        U = u.conj().T                                    # (M, B)
        Gh_H = np.linalg.solve(normal, (U @ Qt.conj().T).conj().T).conj().T
        out.append(Gh_H.conj().T)
    return out


def pilot_overhead_symbols(B: int, T: int) -> int:
    """Symbol slots spent on estimation per interval: (B + 2) sub-frames."""
    return (B + 2) * T
