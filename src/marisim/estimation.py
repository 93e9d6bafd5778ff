"""Two-stage least-squares channel estimation with RIS reflection scheduling.

Stage one cancels the RIS path with a +/- reflection pair and estimates the
direct channels; stage two sweeps B >= N scheduled reflections and estimates
the cascaded channels.  All B + 2 reflections are sounded in one call.

Sounding returns pilot observations, not received blocks: row i is
s_i Y / (P_i T), IoT i's projection of a received (T, M) block Y.  The
Fourier pilot book has S^H S = diag(P_i T), so row i's signal part is IoT
i's combined channel and the book only projects the noise.  Stage one
averages the +/- pair, and stage two is a matched filter: no Gram or normal
matrix is formed or solved.

The schedule is the DFT plan of Zheng & Zhang, "Intelligent reflecting
surface-enhanced OFDM: channel estimation and reflection optimization",
IEEE WCL 9(4), 2020: sub-frame b reflects with q_b[n] = exp(2 pi j n b / B),
and its normal matrix is B I.  So the B scheduled combined channels
h_d + q_b G are h_d + B ifft(G) over the element axis, zero-padded to B
points, and the stage-two matched filter G = sum_b q_b^H (U_b - h_d) / B is
the first N points of the FFT over the sub-frames, divided by B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    +/- pair (q0, q1) = (1, -1) plus B scheduled reflections, reflection b
    being q_b[n] = exp(2 pi j n b / B).  Its rows are orthogonal for N <= B,
    so its normal matrix is B I.  No reflection is stored: sounding and LS
    apply the schedule as an FFT."""

    N: int
    B: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("the schedule needs N >= 1 elements")
        if self.B < self.N:
            raise ValueError("full-rank estimation needs B >= N")

    @property
    def q0(self) -> np.ndarray:
        return np.ones(self.N, dtype=complex)

    @property
    def q1(self) -> np.ndarray:
        return -self.q0

    def scheduled_reflection(self, b: int) -> np.ndarray:
        """The 1 x N reflection row used in sub-frame b."""
        # exp(2 pi j n b / B) depends on n b mod B only
        return np.exp(2j * np.pi * (np.arange(self.N) * b % self.B) / self.B)


def make_reflection_schedule(N: int, B: int) -> ReflectionSchedule:
    """Fourier schedule of B sub-frames for an N-element RIS."""
    return ReflectionSchedule(N, B)


def _scheduled_channels(snap: NetworkSnapshot, sched: ReflectionSchedule) -> np.ndarray:
    """Combined channels of every IoT under q0, q1 and the B scheduled
    reflections, as (I, B + 2, M): h_d +/- sum_n G[n], then h_d + B ifft(G)
    over the elements, zero-padded to B points."""
    if sched.N != snap.N:
        raise ValueError("schedule and snapshot disagree on element count")
    h_d = snap.direct_rows[:, None, :]
    ris = np.sum(snap.G, axis=1, keepdims=True)
    rows = np.empty((snap.I, sched.B + 2, snap.M), dtype=complex)
    rows[:, :1] = h_d + ris
    rows[:, 1:2] = h_d - ris
    rows[:, 2:] = h_d + sched.B * np.fft.ifft(snap.G, n=sched.B, axis=1)
    return rows


def simulate_pilot_rx(snap: NetworkSnapshot, q, pilots: PilotBook, rng=None) -> np.ndarray:
    """Pilot observations under reflection q: (I, M) for one reflection,
    (K, I, M) for a (K, N) stack, and (B + 2, I, M) for a ReflectionSchedule,
    sounded in the order q0, q1, then the B scheduled reflections: the
    combined channel rows plus the projected noise.  rng None disables noise.

    Each block's noise is drawn as its real then its imaginary (T, M) part,
    in stack order, so a stack uses rng exactly as K single calls do.
    """
    if pilots.I != snap.I:
        raise ValueError("pilot book and snapshot disagree on IoT count")
    if isinstance(q, ReflectionSchedule):
        U = _scheduled_channels(snap, q).transpose(1, 0, 2)
    else:
        U = combined_channel(snap, q)
    if rng is not None:
        T = pilots.T
        z = rng.standard_normal(U.shape[:-2] + (2, T, snap.M))
        # each block's parts interleaved as one complex (T, M) block, and
        # every block projected by S^H with the noise scale and 1 / (P_i T)
        # folded in: the same product per block as a single call makes
        z = np.moveaxis(z, -3, -1).copy().view(complex)[..., 0]
        S_H = pilots.S.conj().T * (np.sqrt(snap.sigma2 / 2.0)
                                   / (pilots.powers * T))[:, None]
        U += S_H @ z
    return U


def _rows(U, pilots: PilotBook) -> np.ndarray:
    """U as complex pilot observations, checked to hold one row per IoT."""
    U = np.asarray(U, dtype=complex)
    if U.ndim < 2 or U.shape[-2] != pilots.I:
        raise ValueError("need pilot observations with one row per IoT")
    return U


def estimate_direct(U0, U1, pilots: PilotBook) -> np.ndarray:
    """LS direct-channel estimate (M x I) from the observations of the +/-
    reflection pair: Hd^H = (U0 + U1) / 2."""
    return ((_rows(U0, pilots) + _rows(U1, pilots)) / 2.0).conj().T


def estimate_cascaded(Ub, pilots: PilotBook, Hd_hat: np.ndarray,
                      sched: ReflectionSchedule) -> np.ndarray:
    """LS cascaded-channel estimates of all IoTs as one (I, N, M) tensor,
    from the (B, I, M) observations under the scheduled reflections.

    The schedule's normal matrix is B I, so G is the first N points of the
    FFT over the sub-frames of U_b - Hd_hat^H, divided by B.
    """
    Ub = _rows(Ub, pilots)
    if Ub.ndim != 3 or Ub.shape[0] != sched.B:
        raise ValueError("need one observation per scheduled reflection")
    resid = (Ub - np.asarray(Hd_hat, dtype=complex).conj().T).transpose(1, 0, 2)
    return np.fft.fft(resid, axis=1)[:, :sched.N] / sched.B


def pilot_overhead_symbols(B: int, T: int) -> int:
    """Symbol slots spent on estimation per interval: (B + 2) sub-frames."""
    return (B + 2) * T
