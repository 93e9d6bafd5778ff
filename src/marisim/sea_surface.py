"""Sine-wave sea surface: buoy heave, wave-peak geometry, and LoS blocking.

The surface is one deterministic sine wave travelling from a distant source
point.  Buoys ride the surface vertically (heave only).  A direct link is
line-of-sight when neither side's nearest wave crest cuts the ray between
the two antennas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81  # m/s^2

# Far enough away that wave fronts are locally planar over a ~1 km site.
DEFAULT_WAVE_SOURCE = (-10_000.0, 0.0)

@dataclass(frozen=True)
class SeaState:
    """One row of the sea-state table (heights are crest-to-trough meters)."""

    level: int | str
    height_range: tuple[float, float]
    height_mean: float
    period_range: tuple[float, float] | None = None
    period_mean: float | None = None

    def __post_init__(self):
        lo, hi = self.height_range
        if not lo < hi:
            raise ValueError("height_range needs min < max")
        if not lo <= self.height_mean <= hi:
            raise ValueError("height_mean outside height_range")
        if self.period_range is not None:
            plo, phi = self.period_range
            if self.period_mean is None or not plo <= self.period_mean <= phi:
                raise ValueError("period_mean outside period_range")


# Standard sea-state code. Levels 0 and 1 share the calm row, which defines
# no wave period; integer levels above 8 fold into the ">8" row.
BUILTIN_SEA_STATES = (
    SeaState("0-1", (0.0, 0.1), 0.05, None, None),
    SeaState(2, (0.1, 0.5), 0.3, (3.0, 15.0), 7.0),
    SeaState(3, (0.5, 1.25), 0.875, (5.0, 15.5), 8.0),
    SeaState(4, (1.25, 2.5), 1.875, (6.0, 16.0), 9.0),
    SeaState(5, (2.5, 4.0), 3.25, (7.0, 16.5), 10.0),
    SeaState(6, (4.0, 6.0), 5.0, (9.0, 17.0), 12.0),
    SeaState(7, (6.0, 9.0), 7.5, (10.0, 18.0), 14.0),
    SeaState(8, (9.0, 14.0), 11.5, (13.0, 19.0), 17.0),
    SeaState(">8", (14.0, math.inf), 14.0, (18.0, 24.0), 20.0),
)


def sea_state(level) -> SeaState:
    """Look up a sea-state row by level (0..8, ">8", or any int above 8)."""
    for row in BUILTIN_SEA_STATES:
        if row.level == level:
            return row
    if isinstance(level, (int, np.integer)) and level >= 0:
        folded = "0-1" if level <= 1 else ">8"
        for row in BUILTIN_SEA_STATES:
            if row.level == folded:
                return row
    raise KeyError(f"unknown sea state {level!r}")


@dataclass(frozen=True)
class WaveField:
    """Travelling sine wave: amplitude a, wavelength l, period T_wave."""

    a: float
    l: float
    T_wave: float
    source: tuple[float, float] = DEFAULT_WAVE_SOURCE

    def __post_init__(self):
        if self.a < 0 or self.l <= 0 or self.T_wave <= 0:
            raise ValueError("need a >= 0, l > 0, T_wave > 0")


@dataclass(frozen=True)
class FloatingNode:
    """A buoy-mounted antenna: 2-D anchor position plus mast height.

    A position of shape (I, 2) makes the node a batch of I buoys sharing
    one mast height; antenna_height and los_state then return one value per
    buoy.
    """

    position: tuple[float, float] | np.ndarray
    mast_height: float

    def __post_init__(self):
        if not self.mast_height > 0:
            raise ValueError("mast_height must be positive")


def wave_from_sea_state(state: SeaState, source=DEFAULT_WAVE_SOURCE) -> WaveField:
    """Sea-state row -> sine parameters; wavelength from deep-water dispersion."""
    if state.period_mean is None:
        raise ValueError(f"sea state {state.level} defines no wave period")
    T = float(state.period_mean)
    return WaveField(
        a=state.height_mean / 2.0,  # table heights are crest-to-trough
        l=GRAVITY * T * T / (2.0 * np.pi),
        T_wave=T,
        source=source,
    )


def _distance(a, b):
    """Horizontal distance between (..., 2) positions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


def _source_distance(node: FloatingNode, wave: WaveField):
    return _distance(node.position, wave.source)


def _source_unit(node: FloatingNode, wave: WaveField) -> np.ndarray:
    d = _source_distance(node, wave)
    if np.any(d == 0):
        raise ValueError("node sits on the wave source")
    return (np.asarray(node.position, dtype=float) - wave.source) / d[..., None]


def _wave_phase(node, wave, t, extra_dist=0.0):
    """Sine argument at the node; extra_dist offsets the travelled distance."""
    d_r = _source_distance(node, wave) + np.asarray(extra_dist, dtype=float)
    return (2.0 * np.pi * np.mod(d_r, wave.l) / wave.l
            + 2.0 * np.pi * np.mod(np.asarray(t, dtype=float), wave.T_wave) / wave.T_wave)


def _height(node, wave, phase):
    return wave.a * np.sin(phase) + node.mast_height


def antenna_height(node: FloatingNode, wave: WaveField, t):
    """Antenna height above the mean sea level at time t (seconds)."""
    out = _height(node, wave, _wave_phase(node, wave, t))
    return float(out) if np.ndim(out) == 0 else out


def _peak_shift(a, l, phase):
    # Rising buoy has the crest (a - delta)/(4a) wavelengths ahead of it,
    # falling buoy the complement; delta is the vertical displacement.
    delta = a * np.sin(phase)
    frac = (a - delta) / (4.0 * a)
    return np.where(np.cos(phase) >= 0.0, l * frac, l * (1.0 - frac))


def _los_mask(tx, rx, wave, t, tx_extra_dist=0.0, rx_extra_dist=0.0):
    """Vectorized LoS test over time samples / per-buoy phase offsets, or
    over a batch of buoys."""
    d = _distance(tx.position, rx.position)
    if np.any(d == 0):
        raise ValueError("co-located nodes")
    if wave.a == 0:
        return np.broadcast_to(True, np.broadcast_shapes(np.shape(t), d.shape))
    ph_t = _wave_phase(tx, wave, t, tx_extra_dist)
    ph_r = _wave_phase(rx, wave, t, rx_extra_dist)
    h_t = _height(tx, wave, ph_t)
    h_r = _height(rx, wave, ph_r)
    shift_t = _peak_shift(wave.a, wave.l, ph_t)
    shift_r = _peak_shift(wave.a, wave.l, ph_r)
    peak_t = tx.position + shift_t[..., None] * _source_unit(tx, wave)
    peak_r = rx.position + shift_r[..., None] * _source_unit(rx, wave)
    dist_t = _distance(rx.position, peak_t)
    dist_r = _distance(tx.position, peak_r)
    # arctan2 handles a crest exactly under the peer antenna (dist -> 0).
    phi_t = np.arctan2(h_r - h_t, d)
    psi_t = np.arctan2(h_r - wave.a, dist_t)
    psi_r = np.arctan2(h_t - wave.a, dist_r)
    return (phi_t <= psi_t) & (-phi_t <= psi_r)


def los_state(tx: FloatingNode, rx: FloatingNode, wave: WaveField, t):
    """True when the direct Tx-Rx ray clears both nearest wave crests; an
    (I,) bool array when tx or rx is a batch of I buoys."""
    mask = _los_mask(tx, rx, wave, t)
    return bool(mask) if mask.ndim == 0 else np.array(mask)


def los_probability(state: SeaState, tx: FloatingNode, rx: FloatingNode,
                    samples: int, seed, source=DEFAULT_WAVE_SOURCE) -> float:
    """Fraction of LoS instants over random times and buoy phase offsets."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    wave = wave_from_sea_state(state, source)
    if wave.a == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, wave.T_wave, samples)
    off_t = rng.uniform(0.0, wave.l, samples)
    off_r = rng.uniform(0.0, wave.l, samples)
    return float(np.mean(_los_mask(tx, rx, wave, t, off_t, off_r)))
