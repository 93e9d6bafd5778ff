"""Sine-wave sea surface: buoy heave, wave-peak geometry, and LoS blocking.

The surface is one deterministic sine wave travelling from a distant source
point.  Buoys ride the surface vertically (heave only).  A direct link is
line-of-sight when neither side's nearest wave crest cuts the ray between
the two antennas.

One kernel, _los_mask, holds that geometry.  It sizes its own buffers for
the broadcast shape of its inputs, writes every step into them through
in-place ufunc calls, and answers a flat sea at once.  los_state calls it
once for a batch of buoys and returns the antenna heights it leaves next to
the flags, so one pass over the sea gives both.  los_probability calls it
per slice of LOS_CHUNK samples and reuses only its three draw buffers,
which it fills slice by slice from three generators on one seed's stream,
each advanced to the start of its run, so its memory does not grow with
the sample count and its draws equal whole-array ones.

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

# Samples per slice of the LoS sampler: small enough that every buffer of
# one _los_mask call stays in cache.
LOS_CHUNK = 8192

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


def _wave_phase(d_src, extra_dist, time_phase, wave: WaveField, out):
    """Sine argument, in [0, 4 pi], of a node d_src from the wave source,
    written into out; extra_dist offsets the travelled distance."""
    np.add(d_src, extra_dist, out=out)
    np.mod(out, wave.l, out=out)
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


def _crest_geometry(side, peer, wave, time_phase, extra_dist, h, dist, tmp,
                    bits):
    """Write into h the antenna height of the side's node, and into dist the
    horizontal distance from the peer's antenna to the node's nearest crest."""
    d_src, mast, x, y, ux, uy = side
    heave, shift = _heave_and_shift(
        wave, _wave_phase(d_src, extra_dist, time_phase, wave, h), dist, *bits)
    np.add(heave, mast, out=h)
    np.multiply(shift, ux, out=tmp)
    np.add(x, tmp, out=tmp)
    np.subtract(peer[2], tmp, out=tmp)
    np.multiply(shift, uy, out=dist)
    np.add(y, dist, out=dist)
    np.subtract(peer[3], dist, out=dist)
    return np.hypot(tmp, dist, out=dist)


def _link_distance(tx: FloatingNode, rx: FloatingNode):
    d = _distance(tx.position, rx.position)
    if (d == 0).any():
        raise ValueError("co-located nodes")
    return d


def _los_mask(d, side_t, side_r, wave, t, off_t=0.0, off_r=0.0):
    """(los, h_t, h_r) of a link, over time samples and per-buoy phase
    offsets or over a batch of buoys: los is True where the ray clears both
    nearest crests, and h_t and h_r are the two antenna heights.

    d, side_t and side_r are the link's per-call constants (_link_distance
    and _side).  Each output has the broadcast shape of t, the offsets and
    d; a flat sea is line-of-sight everywhere, at the two masts' heights.
    """
    shape = np.broadcast(t, off_t, off_r, d).shape
    if wave.a == 0:
        return (np.ones(shape, dtype=bool),
                np.full(shape, side_t[1], dtype=float),
                np.full(shape, side_r[1], dtype=float))
    time_phase, h_t, dist_t, h_r, dist_r, tmp = _scratch(6, shape)
    bits = _scratch(2, shape, bool)
    _time_phase(wave, t, time_phase)
    _crest_geometry(side_t, side_r, wave, time_phase, off_t, h_t, dist_t, tmp,
                    bits)
    _crest_geometry(side_r, side_t, wave, time_phase, off_r, h_r, dist_r, tmp,
                    bits)
    # arctan2 handles a crest exactly under the peer antenna (dist -> 0).
    # The time phase is spent: its buffer takes each crest-top difference,
    # so the antenna heights stay in h_t and h_r.
    phi_t = np.arctan2(np.subtract(h_r, h_t, out=tmp), d, out=tmp)
    psi_t = np.arctan2(np.subtract(h_r, wave.a, out=time_phase), dist_t,
                       out=dist_t)
    psi_r = np.arctan2(np.subtract(h_t, wave.a, out=time_phase), dist_r,
                       out=dist_r)
    mask = np.less_equal(phi_t, psi_t, out=bits[0])
    np.less_equal(np.negative(phi_t, out=phi_t), psi_r, out=bits[1])
    return np.logical_and(mask, bits[1], out=mask), h_t, h_r


def los_state(tx: FloatingNode, rx: FloatingNode, wave: WaveField, t):
    """(los, h_tx, h_rx) of the direct Tx-Rx link at time t (seconds), from
    one pass over the sea: los is True where the ray clears both nearest wave
    crests, and h_tx and h_rx are the two antenna heights above the mean sea
    level.  Each array is (I,) when tx or rx is a batch of I buoys, 0-d for
    two single buoys."""
    return _los_mask(_link_distance(tx, rx), _side(tx, wave), _side(rx, wave),
                     wave, t)


def los_probability(tx: FloatingNode, rx: FloatingNode, wave: WaveField,
                    samples: int, seed) -> float:
    """Fraction of LoS instants of the Tx-Rx link over samples random times
    and buoy phase offsets drawn from seed, judged LOS_CHUNK at a time."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = _link_distance(tx, rx)
    side_t, side_r = _side(tx, wave), _side(rx, wave)
    # the times and the two offsets are the three consecutive runs of
    # `samples` draws of one generator; a generator on the same seed
    # advanced to the start of each run draws that run slice by slice.
    # uniform(0, span) returns 0 + span * random(), exactly span * random().
    draws = [(np.random.Generator(np.random.PCG64(seed).advance(k * samples)),
              span) for k, span in enumerate((wave.T_wave, wave.l, wave.l))]
    buffers = _scratch(3, (min(samples, LOS_CHUNK),))
    # the count is an exact integer, so the slicing cannot change the mean
    count = 0
    for s in range(0, samples, LOS_CHUNK):
        n = min(LOS_CHUNK, samples - s)
        parts = [row[:n] for row in buffers]
        for (gen, span), out in zip(draws, parts):
            np.multiply(span, gen.random(out=out), out=out)
        count += int(np.count_nonzero(
            _los_mask(d, side_t, side_r, wave, *parts)[0]))
    return count / samples
