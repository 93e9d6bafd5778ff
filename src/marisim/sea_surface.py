"""Sine-wave sea surface: buoy heave, wave-peak geometry, and LoS blocking.

The surface is one deterministic sine wave travelling from a distant source
point.  Buoys ride the surface vertically (heave only).  A direct link is
line-of-sight when neither side's nearest wave crest cuts the ray between
the two antennas.

One kernel, _los_mask, holds that geometry.  It takes the sine argument of
each buoy and returns the LoS flags with the two antenna heights, each step
a fresh array and its inputs left as they were; a flat sea is answered at
once.  los_state forms the two phases from the time and the buoys'
distances from the wave source and calls it once for a batch of buoys, so
one pass over the sea gives both the flags and the heights.

los_probability integrates the LoS set over the torus of the two buoys'
phases.  A buoy's phase is uniform over a wave period whatever the time, and
the two buoys' phases are independent, so the share of LoS instants is the
area of that set.  It takes the area by a rank-1 lattice rule (Sloan & Joe,
Lattice Methods for Multiple Integration, Oxford, 1994): N points, the k-th
at the phases 2 pi (k + 1/2)/N and 2 pi ((k g mod N) + 1/2)/N, which is the
Fibonacci lattice when N is a Fibonacci number.  It draws nothing and takes
no seed, and it judges the lattice LOS_CHUNK points at a time, so its
memory does not grow with N.

Which side of a buoy its nearest crest lies on depends only on the sign of
cos(phase), for a phase in [0, 4 pi].  The kernel reads that sign from the
phase's quadrant: cos(phase) < 0 exactly when an odd number of the largest
doubles below pi/2, 3 pi/2, 5 pi/2 and 7 pi/2 lie below the phase.  No double
is a zero of cos, so the cosine of a double on either side of such an edge
is nonzero and of the sign of the true value, and the rule agrees with any
faithfully rounded cos at every double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81  # m/s^2

# Far enough away that wave fronts are locally planar over a ~1 km site.
DEFAULT_WAVE_SOURCE = (-10_000.0, 0.0)

# Lattice points per slice of los_probability: small enough that the arrays
# of one _los_mask call stay in cache.
LOS_CHUNK = 8192

# Largest lattice of los_probability: its index products k g stay below
# N^2 < 2^63 in int64, and one cell of it takes a few seconds.
MAX_LOS_SAMPLES = 10**8

# Largest doubles below pi/2, 3 pi/2, 5 pi/2 and 7 pi/2 (see the module
# docstring): the quadrant edges of the phase.
_COS_EDGES = (1.5707963267948966, 4.71238898038469, 7.853981633974483,
              10.995574287564276)


@dataclass(frozen=True)
class SeaState:
    """One row of the sea-state table: mean crest-to-trough height (m) and
    mean period (s)."""

    level: int
    height_mean: float
    period_mean: float


# Standard sea-state code from level 2 up; the row of level 9 serves every
# level above 8.  The calm levels 0 and 1 define no wave period and have no
# row.
BUILTIN_SEA_STATES = (
    SeaState(2, 0.3, 7.0),
    SeaState(3, 0.875, 8.0),
    SeaState(4, 1.875, 9.0),
    SeaState(5, 3.25, 10.0),
    SeaState(6, 5.0, 12.0),
    SeaState(7, 7.5, 14.0),
    SeaState(8, 11.5, 17.0),
    SeaState(9, 14.0, 20.0),
)

_ROWS = {row.level: row for row in BUILTIN_SEA_STATES}


def sea_state(level: int) -> SeaState:
    """The row of a sea-state level, an integer >= 2 as config.sea_level
    admits; every level above 8 takes the last row."""
    return _ROWS[min(level, BUILTIN_SEA_STATES[-1].level)]


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
    one mast height; los_state then returns one flag and one pair of
    antenna heights per buoy.
    """

    position: tuple[float, float] | np.ndarray
    mast_height: float

    def __post_init__(self):
        if not self.mast_height > 0:
            raise ValueError("mast_height must be positive")


def wave_from_sea_state(state: SeaState, source=DEFAULT_WAVE_SOURCE) -> WaveField:
    """Sea-state row -> sine parameters; wavelength from deep-water dispersion."""
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


def _cos_negative(phase):
    """cos(phase) < 0 for phases in [0, 4 pi], from four comparisons: an odd
    number of _COS_EDGES lie below such a phase exactly when its cosine is
    negative."""
    e0, e1, e2, e3 = _COS_EDGES
    return (phase > e0) ^ (phase > e1) ^ (phase > e2) ^ (phase > e3)


def _side(node: FloatingNode, wave: WaveField) -> tuple:
    """The per-call constants of one side of a link: the node's distance from
    the wave source and mast height, its coordinates and its unit vector
    away from the source."""
    pos = np.asarray(node.position, dtype=float)
    d_src = _distance(pos, wave.source)
    if (d_src == 0).any():
        raise ValueError("node sits on the wave source")
    unit = (pos - wave.source) / d_src[..., None]
    return (d_src, node.mast_height, pos[..., 0], pos[..., 1],
            unit[..., 0], unit[..., 1])


def _crest_geometry(side, peer, wave, phase):
    """(h, dist) of the side's node at the sine argument phase: its antenna
    height, and the horizontal distance from the peer's antenna to its
    nearest crest.  The buoy heaves by delta = a sin(phase); a rising buoy
    has that crest frac = (a - delta)/(4a) wavelengths downwind of it, a
    falling one the complement."""
    _, mast, x, y, ux, uy = side
    heave = wave.a * np.sin(phase)
    frac = (wave.a - heave) / (4.0 * wave.a)
    # frac lies in [0, 1/2], so |falling - frac| is exactly 1 - frac for a
    # falling buoy and frac for a rising one, without a branch per sample
    shift = wave.l * np.abs(_cos_negative(phase) - frac)
    return heave + mast, np.hypot(peer[2] - (x + shift * ux),
                                  peer[3] - (y + shift * uy))


def _link_distance(tx: FloatingNode, rx: FloatingNode):
    d = _distance(tx.position, rx.position)
    if (d == 0).any():
        raise ValueError("co-located nodes")
    return d


def _los_mask(d, side_t, side_r, wave, phase_t, phase_r):
    """(los, h_t, h_r) of a link at the sine arguments phase_t and phase_r,
    each in [0, 4 pi], of its two buoys, over phase samples or over a batch
    of buoys: los is True where the ray clears both nearest crests, and h_t
    and h_r are the two antenna heights.

    d, side_t and side_r are the link's per-call constants (_link_distance
    and _side).  The phases are float arrays of one shape, which d
    broadcasts to, and are left unchanged.  Each output has their shape; a
    flat sea is line-of-sight everywhere, at the two masts' heights.
    """
    if wave.a == 0:
        shape = np.shape(phase_t)
        return (np.ones(shape, dtype=bool),
                np.full(shape, side_t[1], dtype=float),
                np.full(shape, side_r[1], dtype=float))
    h_t, dist_t = _crest_geometry(side_t, side_r, wave, phase_t)
    h_r, dist_r = _crest_geometry(side_r, side_t, wave, phase_r)
    # arctan2 handles a crest exactly under the peer antenna (dist -> 0).
    phi_t = np.arctan2(h_r - h_t, d)
    psi_t = np.arctan2(h_r - wave.a, dist_t)
    psi_r = np.arctan2(h_t - wave.a, dist_r)
    return (phi_t <= psi_t) & (-phi_t <= psi_r), h_t, h_r


def los_state(tx: FloatingNode, rx: FloatingNode, wave: WaveField, t):
    """(los, h_tx, h_rx) of the direct Tx-Rx link at time t (seconds), from
    one pass over the sea: los is True where the ray clears both nearest wave
    crests, and h_tx and h_rx are the two antenna heights above the mean sea
    level.  Each array is (I,) when tx or rx is a batch of I buoys, 0-d for
    two single buoys."""
    d = _link_distance(tx, rx)
    side_t, side_r = _side(tx, wave), _side(rx, wave)
    # np.mod keeps the time term in [0, 2 pi) even when a uniform draw of t
    # rounds up to T_wave, so each phase lies in [0, 4 pi]
    t = np.broadcast_to(t, np.broadcast(t, d).shape)
    time_phase = 2.0 * np.pi * np.mod(t, wave.T_wave) / wave.T_wave
    phase_t, phase_r = (2.0 * np.pi * np.mod(side[0], wave.l) / wave.l
                        + time_phase for side in (side_t, side_r))
    # ufuncs give scalars for two single buoys: return 0-d arrays
    return tuple(map(np.asarray, _los_mask(d, side_t, side_r, wave,
                                           phase_t, phase_r)))


def _lattice_generator(n: int) -> int:
    """Generator g of the n-point rank-1 lattice: the integer nearest
    n (sqrt(5) - 1)/2, stepped down until it is coprime to n, so that
    k -> k g mod n permutes the indices; for a Fibonacci n it is the
    Fibonacci number before n."""
    g = round(n * (math.sqrt(5.0) - 1.0) / 2.0)
    while math.gcd(g, n) != 1:
        g -= 1
    return g


def los_probability(tx: FloatingNode, rx: FloatingNode, wave: WaveField,
                    samples: int) -> float:
    """Share of LoS instants of the Tx-Rx link over random times and buoy
    positions: the LoS area of the torus of the two buoys' phases, by the
    samples-point rank-1 lattice rule (see the module docstring), judged
    LOS_CHUNK points at a time.  samples lies in [1, MAX_LOS_SAMPLES]."""
    if not 1 <= samples <= MAX_LOS_SAMPLES:
        raise ValueError(f"samples must lie in [1, {MAX_LOS_SAMPLES}]")
    d = _link_distance(tx, rx)
    side_t, side_r = _side(tx, wave), _side(rx, wave)
    g, step = _lattice_generator(samples), 2.0 * np.pi / samples
    # the count is an exact integer, so the slicing cannot change the mean
    count = 0
    for s in range(0, samples, LOS_CHUNK):
        k = np.arange(s, min(s + LOS_CHUNK, samples))
        phase_t = (k + 0.5) * step
        phase_r = (k * g % samples + 0.5) * step
        count += int(np.count_nonzero(
            _los_mask(d, side_t, side_r, wave, phase_t, phase_r)[0]))
    return count / samples
