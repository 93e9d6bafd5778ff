"""Two-stage least-squares channel estimation with RIS reflection scheduling.

Stage one cancels the RIS path with a +/- reflection pair and estimates the
direct channels; stage two sweeps B >= N scheduled reflections and estimates
the cascaded channels.  All B + 2 reflections are sounded as one (B + 2, N)
stack, giving (B + 2, T, M) received blocks.

The pilot book and the reflection schedule can only be built as Fourier
matrices, so S^H S = diag(P_i T) and Qtilde Qtilde^H = B I hold by
construction and both LS stages are matched filters: no Gram or normal
matrix is formed or solved.

The schedule depends on N and B only, so it is built once per (N, B) and
shared by every interval that asks for it; its arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ris_system import NetworkSnapshot, combined_channel


@dataclass(frozen=True, eq=False)
class PilotBook:
    """Fourier pilots of length T, one per IoT: S is T x I with column i
    equal to s_i^H = sqrt(P_i) exp(2 pi j k i / T), so S^H S = diag(P_i T)."""

    T: int
    powers: np.ndarray

    def __post_init__(self):
        powers = np.array(self.powers, dtype=float)
        if powers.ndim != 1:
            raise ValueError("need one pilot power per IoT")
        if self.T < powers.size:
            raise ValueError("pilot length shorter than IoT count")
        if np.any(powers <= 0):
            raise ValueError("pilot powers must be positive")
        object.__setattr__(self, "powers", powers)

    @property
    def I(self) -> int:
        return self.powers.size

    @cached_property
    def S(self) -> np.ndarray:
        k = np.arange(self.T)[:, None]
        i = np.arange(self.I)[None, :]
        return np.sqrt(self.powers) * np.exp(2j * np.pi * k * i / self.T)


def make_orthogonal_pilots(I: int, T: int, powers) -> PilotBook:
    """Fourier pilot book for I IoTs; powers is a scalar or one per IoT."""
    return PilotBook(T, np.broadcast_to(np.asarray(powers, dtype=float), (I,)))


@dataclass(frozen=True)
class ReflectionSchedule:
    """Fourier reflection plan over N elements and B >= N sub-frames: the
    +/- pair (q0, q1) = (1, -1) plus B scheduled reflections stored
    column-wise in Qtilde (N x B, column b = q_b^H).

    Rows of the B-point Fourier matrix are orthogonal for N <= B, so
    Qtilde Qtilde^H = B I."""

    N: int
    B: int

    def __post_init__(self):
        if self.B < self.N:
            raise ValueError("full-rank estimation needs B >= N")

    @property
    def q0(self) -> np.ndarray:
        return np.ones(self.N, dtype=complex)

    @property
    def q1(self) -> np.ndarray:
        return -self.q0

    @cached_property
    def Qtilde(self) -> np.ndarray:
        # exp(-2 pi i n b / B) depends on n b mod B only: index the B roots
        roots = np.exp(-2j * np.pi * np.arange(self.B) / self.B)
        Qt = roots[np.outer(np.arange(self.N), np.arange(self.B)) % self.B]
        Qt.flags.writeable = False
        return Qt

    def scheduled_reflection(self, b: int) -> np.ndarray:
        """The 1 x N reflection row used in sub-frame b."""
        return self.Qtilde[:, b].conj()

    @cached_property
    def reflections(self) -> np.ndarray:
        """All (B + 2, N) reflection rows in sounding order: q0, q1, then
        the B scheduled reflections."""
        rows = np.vstack([self.q0, self.q1, self.Qtilde.T.conj()])
        rows.flags.writeable = False
        return rows


@lru_cache(maxsize=1)
def make_reflection_schedule(N: int, B: int) -> ReflectionSchedule:
    """Fourier schedule of B sub-frames for an N-element RIS.  The last
    (N, B) is kept, so the intervals of a cell share one schedule and at
    most one N x B schedule stays resident."""
    return ReflectionSchedule(N, B)


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
    """LS direct-channel estimate (M x I) from the +/- reflection pair:
    Hd^H = S^H (Y0 + Y1) / (2 P_i T)."""
    Y = np.asarray(Y0) + np.asarray(Y1)
    Hd_H = pilots.S.conj().T @ Y / (2.0 * pilots.powers * pilots.T)[:, None]
    return Hd_H.conj().T


def estimate_cascaded(Yb, pilots: PilotBook, Hd_hat: np.ndarray,
                      sched: ReflectionSchedule) -> np.ndarray:
    """LS cascaded-channel estimates of all IoTs as one (I, N, M) tensor,
    from the (B, T, M) blocks received under the scheduled reflections.

    Each IoT's projection is normalized by its pilot energy P_i * T, and
    the schedule's normal matrix is B I, so G = Qtilde u / B.
    """
    Yb = np.asarray(Yb, dtype=complex)
    if Yb.ndim != 3 or Yb.shape[0] != sched.B:
        raise ValueError("need one received block per scheduled reflection")
    resid = Yb - pilots.S @ np.asarray(Hd_hat, dtype=complex).conj().T
    # u[b, i] = s_i r_b / (P_i T), the row IoT i sees in sub-frame b
    u = pilots.S.conj().T @ resid / (pilots.powers * pilots.T)[:, None]
    B, I, M = u.shape
    G = sched.Qtilde @ u.reshape(B, I * M) / B
    return G.reshape(sched.N, I, M).transpose(1, 0, 2)


def pilot_overhead_symbols(B: int, T: int) -> int:
    """Symbol slots spent on estimation per interval: (B + 2) sub-frames."""
    return (B + 2) * T
