"""Test oracles: exhaustive and closed-form references that the simulator
never calls, kept next to the tests that compare against them."""

import numpy as np

from marisim.optimizer import SdpSolution
from marisim.ris_system import NetworkSnapshot, _capacity, combined_channel

BRUTE_FORCE_GUARD = 10 ** 8
BRUTE_FORCE_CHUNK = 1 << 17


def brute_force_phases(snap: NetworkSnapshot, levels: int):
    """Exhaustive search over levels^N quantized reflections."""
    N = snap.N
    if levels < 1:
        raise ValueError("levels must be >= 1")
    total = levels ** N
    if total > BRUTE_FORCE_GUARD:
        raise ValueError("search space exceeds the enumeration guard")
    phases = np.exp(2j * np.pi * np.arange(levels) / levels)
    best_val = -np.inf
    best_idx = 0
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total))
        digits = (idx[:, None] // levels ** np.arange(N)[None, :]) % levels
        rows = combined_channel(snap, phases[digits])
        val = np.sum(np.abs(rows) ** 2, axis=-1) @ snap.P_t
        k = int(np.argmax(val))
        if val[k] > best_val:
            best_val = float(val[k])
            best_idx = int(idx[k])
    digits = (best_idx // levels ** np.arange(N)) % levels
    q = phases[digits]
    capacity = snap.beta * float(np.log2(1.0 + best_val / snap.sigma2))
    return q, capacity


def aligned_capacity_bound(snap: NetworkSnapshot) -> float:
    """Perfect-phase-alignment capacity; defined for M = 1 only."""
    if snap.M != 1:
        raise ValueError("bound defined for single-antenna receiver")
    aligned = np.abs(snap.direct_rows[:, 0]) + np.sum(np.abs(snap.G[:, :, 0]), axis=1)
    return _capacity(snap, aligned[:, None])


def relaxed_matrix(sol: SdpSolution) -> np.ndarray:
    """The relaxed solution V = U U^H that the solver keeps factored."""
    return sol.U @ sol.U.conj().T


def ray_clears_sea(tx_xy, h_tx, rx_xy, h_rx, wave, t, step=0.1):
    """True for each link whose straight segment between the antenna points
    (tx_xy, h_tx) and (rx_xy, h_rx) stays above the sea surface
    a sin(2 pi (d / l + t / T_wave)), d the distance from the wave source, at
    time t.  The segment is tested at points at most step meters apart along
    the path, both ends included.  tx_xy is (I, 2) and h_tx (I,); rx_xy and
    h_rx are one receiver's or one per link."""
    tx_xy = np.asarray(tx_xy, dtype=float)
    delta = np.asarray(rx_xy, dtype=float) - tx_xy
    s = np.linspace(0.0, 1.0, int(np.ceil(
        np.hypot(delta[:, 0], delta[:, 1]).max() / step)) + 1)
    rel = tx_xy - wave.source
    d_src = np.hypot(rel[:, :1] + s * delta[:, :1],
                     rel[:, 1:] + s * delta[:, 1:])          # (I, S) path
    sea = wave.a * np.sin(2.0 * np.pi * (d_src / wave.l + t / wave.T_wave))
    h_tx = np.asarray(h_tx, dtype=float)[:, None]
    ray = h_tx + s * (np.asarray(h_rx, dtype=float)[..., None] - h_tx)
    return np.all(ray > sea, axis=1)
