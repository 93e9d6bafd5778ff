"""Sine-wave sea surface: buoy heave, wave-peak geometry, and LoS blocking.

The surface is one deterministic sine wave travelling from a distant source
point.  Buoys ride the surface vertically (heave only).  A direct link is
line-of-sight when neither side's nearest wave crest cuts the ray between
the two antennas.

One kernel, _los_mask, holds that geometry.  It takes the sine argument
of each buoy, sizes its own buffers for the broadcast shape of its inputs,
writes every step into them through in-place ufunc calls, and answers a
flat sea at once.  los_state forms the two phases from the time and the
buoys' distances from the wave source and calls it once for a batch of
buoys; it returns the antenna heights the kernel leaves next to the flags,
so one pass over the sea gives both.

los_probability integrates the LoS set over the torus of the two buoys'
phases.  A buoy's phase is uniform over a wave period whatever the time, and
the two buoys' phases are independent, so the share of LoS instants is the
area of that set.  It takes the area by a rank-1 lattice rule (Sloan & Joe,
Lattice Methods for Multiple Integration, Oxford, 1994): N points, the k-th
at the phases 2 pi (k + 1/2)/N and 2 pi ((k g mod N) + 1/2)/N, which is the
Fibonacci lattice when N is a Fibonacci number.  It draws nothing and takes
no seed, and it feeds the kernel LOS_CHUNK points at a time, so its memory
does not grow with N.

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

# Lattice points per slice of los_probability: small enough that every
# buffer of one _los_mask call stays in cache.
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
    """One row of the sea-state table (heights are crest-to-trough meters)."""

    level: int | str
    height_range: tuple[float, float]
    height_mean: float
    period_range: tuple[float, float]
    period_mean: float

    def __post_init__(self):
        lo, hi = self.height_range
        if not lo < hi:
            raise ValueError("height_range needs min < max")
        if not lo <= self.height_mean <= hi:
            raise ValueError("height_mean outside height_range")
        plo, phi = self.period_range
        if not plo <= self.period_mean <= phi:
            raise ValueError("period_mean outside period_range")


# Standard sea-state code from level 2 up; integer levels above 8 fold into
# the ">8" row.  The calm levels 0 and 1 define no wave period and have no row.
BUILTIN_SEA_STATES = (
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
    """Look up a sea-state row by level (2..8, ">8", or any int above 8)."""
    for row in BUILTIN_SEA_STATES:
        if row.level == level:
            return row
    if isinstance(level, (int, np.integer)) and level > 8:
        return BUILTIN_SEA_STATES[-1]
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


def _scratch(rows: int, shape, dtype=float) -> list:
    """rows writable buffers of one shape from one allocation; a 0-d shape
    gives 0-d arrays, which ufuncs can write through out=."""
    block = np.empty((rows, *shape), dtype=dtype)
    return [block[k, ...] for k in range(rows)]


def _time_phase(wave: WaveField, t, out):
    """Time term of the sine argument, written into out.  np.mod keeps it in
    [0, 2 pi) even when a uniform draw of t rounds up to T_wave."""
    np.mod(t, wave.T_wave, out=out)
    np.multiply(2.0 * np.pi, out, out=out)
    return np.divide(out, wave.T_wave, out=out)


def _wave_phase(d_src, time_phase, wave: WaveField, out):
    """Sine argument, in [0, 4 pi], of a node d_src from the wave source,
    written into out."""
    np.mod(d_src, wave.l, out=out)
    np.multiply(2.0 * np.pi, out, out=out)
    np.divide(out, wave.l, out=out)
    return np.add(out, time_phase, out=out)


def _cos_negative(phase, out, spare):
    """out = cos(phase) < 0 for phases in [0, 4 pi], from four comparisons:
    an odd number of _COS_EDGES lie below such a phase exactly when its cosine
    is negative."""
    np.greater(phase, _COS_EDGES[0], out=out)
    for edge in _COS_EDGES[1:]:
        np.logical_xor(out, np.greater(phase, edge, out=spare), out=out)
    return out


def _heave_and_shift(wave: WaveField, phase, shift, falling, spare):
    """Turn phase, in place, into the heave delta = a sin(phase) of a buoy,
    and write into shift the downwind distance to its nearest crest: a rising
    buoy has the crest frac = (a - delta)/(4a) wavelengths ahead of it, a
    falling one the complement.  falling and spare are bool scratch."""
    falling = _cos_negative(phase, falling, spare)
    heave = np.multiply(wave.a, np.sin(phase, out=phase), out=phase)
    np.subtract(wave.a, heave, out=shift)
    np.divide(shift, 4.0 * wave.a, out=shift)
    # frac lies in [0, 1/2], so |falling - frac| is exactly 1 - frac for a
    # falling buoy and frac for a rising one, without a branch per sample
    np.subtract(falling, shift, out=shift)
    np.abs(shift, out=shift)
    np.multiply(wave.l, shift, out=shift)
    return heave, shift


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


def _crest_geometry(side, peer, wave, phase, dist, tmp, bits):
    """Turn phase, the sine argument of the side's node, in place into the
    node's antenna height, and write into dist the horizontal distance from
    the peer's antenna to the node's nearest crest."""
    d_src, mast, x, y, ux, uy = side
    heave, shift = _heave_and_shift(wave, phase, dist, *bits)
    h = np.add(heave, mast, out=phase)
    np.multiply(shift, ux, out=tmp)
    np.add(x, tmp, out=tmp)
    np.subtract(peer[2], tmp, out=tmp)
    np.multiply(shift, uy, out=dist)
    np.add(y, dist, out=dist)
    np.subtract(peer[3], dist, out=dist)
    np.hypot(tmp, dist, out=dist)
    return h


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
    and _side).  The phases are writable float arrays of one shape, which d
    broadcasts to, and they are spent: the heights are written over them.
    Each output has their shape; a flat sea is line-of-sight everywhere, at
    the two masts' heights.
    """
    shape = phase_t.shape
    if wave.a == 0:
        return (np.ones(shape, dtype=bool),
                np.full(shape, side_t[1], dtype=float),
                np.full(shape, side_r[1], dtype=float))
    dist_t, dist_r, tmp, top = _scratch(4, shape)
    bits = _scratch(2, shape, bool)
    h_t = _crest_geometry(side_t, side_r, wave, phase_t, dist_t, tmp, bits)
    h_r = _crest_geometry(side_r, side_t, wave, phase_r, dist_r, tmp, bits)
    # arctan2 handles a crest exactly under the peer antenna (dist -> 0).
    phi_t = np.arctan2(np.subtract(h_r, h_t, out=tmp), d, out=tmp)
    psi_t = np.arctan2(np.subtract(h_r, wave.a, out=top), dist_t, out=dist_t)
    psi_r = np.arctan2(np.subtract(h_t, wave.a, out=top), dist_r, out=dist_r)
    mask = np.less_equal(phi_t, psi_t, out=bits[0])
    np.less_equal(np.negative(phi_t, out=phi_t), psi_r, out=bits[1])
    return np.logical_and(mask, bits[1], out=mask), h_t, h_r


def los_state(tx: FloatingNode, rx: FloatingNode, wave: WaveField, t):
    """(los, h_tx, h_rx) of the direct Tx-Rx link at time t (seconds), from
    one pass over the sea: los is True where the ray clears both nearest wave
    crests, and h_tx and h_rx are the two antenna heights above the mean sea
    level.  Each array is (I,) when tx or rx is a batch of I buoys, 0-d for
    two single buoys."""
    d = _link_distance(tx, rx)
    side_t, side_r = _side(tx, wave), _side(rx, wave)
    time_phase, phase_t, phase_r = _scratch(3, np.broadcast(t, d).shape)
    _time_phase(wave, t, time_phase)
    return _los_mask(d, side_t, side_r, wave,
                     _wave_phase(side_t[0], time_phase, wave, phase_t),
                     _wave_phase(side_r[0], time_phase, wave, phase_r))


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
    first = np.arange(min(samples, LOS_CHUNK))
    indices = _scratch(2, first.shape, np.int64)
    phases = _scratch(2, first.shape)
    # the count is an exact integer, so the slicing cannot change the mean
    count = 0
    for s in range(0, samples, LOS_CHUNK):
        n = min(LOS_CHUNK, samples - s)
        k, j, phase_t, phase_r = (row[:n] for row in (*indices, *phases))
        np.add(first[:n], s, out=k)
        np.remainder(np.multiply(k, g, out=j), samples, out=j)
        np.multiply(np.add(k, 0.5, out=phase_t), step, out=phase_t)
        np.multiply(np.add(j, 0.5, out=phase_r), step, out=phase_r)
        count += int(np.count_nonzero(
            _los_mask(d, side_t, side_r, wave, phase_t, phase_r)[0]))
    return count / samples
