"""Frozen per-interval MU-MIMO model: combined channels and sum capacity.

Row-vector convention throughout: a direct channel h_d is a length-M row,
a reflection q is a length-N unit-modulus row, and a cascaded channel G is
N x M, so the combined channel is h_d + q @ G.  A snapshot keeps all I
cascaded channels as one (I, N, M) tensor and the direct rows as (I, M), so
one contraction forms every IoT's combined channel under one reflection or
under a (K, N) stack of reflections at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_MODULUS_TOL = 1e-9


def make_planar_ris(N: int, center, wavelength: float) -> np.ndarray:
    """(N, 3) element positions, meters, of a half-wavelength planar grid
    centered at a 3-D point, lying in the y-z plane (broadside along x).
    Uses the most square factorization of N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rows = int(math.isqrt(N))
    while N % rows:
        rows -= 1
    cols = N // rows
    spacing = wavelength / 2.0
    iy = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    iz = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    yy, zz = np.meshgrid(iy, iz)
    return np.column_stack([
        np.full(N, float(center[0])),
        float(center[1]) + yy.ravel(),
        float(center[2]) + zz.ravel(),
    ])


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """One coherence interval's channels, powers, and radio constants."""

    H_d: np.ndarray        # (M, I); column i is the conjugated direct row
    G: np.ndarray          # (I, N, M); G[i] is IoT i's cascaded channel
    P_t: np.ndarray        # (I,) transmit powers, W
    sigma2: float
    beta: float

    def __post_init__(self):
        H_d = np.asarray(self.H_d, dtype=complex)
        G = np.asarray(self.G, dtype=complex)   # ragged input raises here
        P_t = np.asarray(self.P_t, dtype=float)
        if H_d.ndim != 2:
            raise ValueError("H_d must be M x I")
        M, I = H_d.shape
        if G.ndim != 3 or G.shape[0] != I or G.shape[2] != M:
            raise ValueError("G must be I x N x M")
        if P_t.shape != (I,):
            raise ValueError("need one power per IoT")
        if np.any(P_t < 0):
            raise ValueError("powers must be non-negative")
        if self.sigma2 <= 0 or self.beta <= 0:
            raise ValueError("sigma2 and beta must be positive")
        object.__setattr__(self, "H_d", H_d)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "P_t", P_t)

    @property
    def M(self) -> int:
        return self.H_d.shape[0]

    @property
    def I(self) -> int:
        return self.H_d.shape[1]

    @property
    def N(self) -> int:
        return self.G.shape[1]

    @property
    def direct_rows(self) -> np.ndarray:
        """The I x M direct channel rows; row i belongs to IoT i."""
        return self.H_d.T.conj()


def _check_unit_modulus(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=complex)
    if q.ndim < 1:
        raise ValueError("reflection must be a length-N vector")
    if q.size and np.max(np.abs(np.abs(q) - 1.0)) > UNIT_MODULUS_TOL:
        raise ValueError("reflection entries must be unit modulus")
    return q


def combined_channel(snap: NetworkSnapshot, q) -> np.ndarray:
    """Effective channel rows h_d + q G of every IoT: (..., I, M) for one
    reflection q of shape (N,) or a stack (..., N)."""
    q = _check_unit_modulus(q)
    if q.shape[-1] != snap.N:
        raise ValueError("reflection length must match the RIS size N")
    return snap.direct_rows + np.tensordot(q, snap.G, axes=(-1, -2))


def _capacity(snap: NetworkSnapshot, rows: np.ndarray) -> float:
    """beta log2(1 + sum_i P_i ||row_i||^2 / sigma2) over (I, M) rows."""
    power = float(np.sum(snap.P_t * np.sum(np.abs(rows) ** 2, axis=-1)))
    return snap.beta * math.log2(1.0 + power / snap.sigma2)


def sum_capacity(snap: NetworkSnapshot, q) -> float:
    """Uplink sum capacity (bit/s) under reflection q."""
    return _capacity(snap, combined_channel(snap, q))


def direct_capacity(snap: NetworkSnapshot) -> float:
    """Sum capacity with the RIS term deleted (direct channels only)."""
    return _capacity(snap, snap.direct_rows)
