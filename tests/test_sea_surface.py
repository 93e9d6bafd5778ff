"""Sea-surface model: state table, wave kinematics, and LoS geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marisim.sea_surface import (
    BUILTIN_SEA_STATES,
    FloatingNode,
    GRAVITY,
    LOS_CHUNK,
    SeaState,
    WaveField,
    _heave_and_shift,
    _los_mask,
    _time_phase,
    _wave_phase,
    antenna_height,
    los_probability,
    los_state,
    sea_state,
    wave_from_sea_state,
)

# deep-water wavelengths g T^2 / 2pi for the builtin periods, meters
WAVELENGTHS = {2: 76.5042, 3: 99.9238, 4: 126.4661, 5: 156.1310,
               6: 224.8286, 7: 306.0168, 8: 451.2186}


def default_wave(level=4):
    return wave_from_sea_state(sea_state(level))


def test_table_lookup_and_level_folding():
    assert sea_state(4).height_mean == 1.875
    assert sea_state(4).period_mean == 9.0
    assert sea_state(">8").period_mean == 20.0
    assert sea_state(9).level == ">8"
    assert sea_state(30).level == ">8"
    with pytest.raises(KeyError):
        sea_state(3.5)
    with pytest.raises(KeyError):
        sea_state("rough")
    with pytest.raises(KeyError):
        sea_state(-1)


def test_table_rows_are_internally_consistent():
    for row in BUILTIN_SEA_STATES:
        lo, hi = row.height_range
        assert lo <= row.height_mean <= hi
        plo, phi = row.period_range
        assert plo <= row.period_mean <= phi


def test_sea_state_row_validation():
    with pytest.raises(ValueError):
        SeaState(2, (1.0, 0.5), 0.7, (3.0, 15.0), 7.0)
    with pytest.raises(ValueError):
        SeaState(2, (0.1, 0.5), 0.7, (3.0, 15.0), 7.0)
    with pytest.raises(ValueError):
        SeaState(2, (0.1, 0.5), 0.3, (3.0, 15.0), 20.0)


def test_wave_from_sea_state_uses_dispersion_relation():
    for level, expected_l in WAVELENGTHS.items():
        wave = default_wave(level)
        state = sea_state(level)
        assert wave.a == state.height_mean / 2.0
        assert wave.T_wave == state.period_mean
        assert wave.l == pytest.approx(expected_l, abs=5e-5)
        assert wave.l == pytest.approx(GRAVITY * wave.T_wave ** 2 / (2 * math.pi))


def test_calm_row_defines_no_wave():
    # levels 0-1 have no wave period, so the table has no row for them
    for level in (0, 1):
        with pytest.raises(KeyError):
            sea_state(level)
    with pytest.raises(TypeError):
        SeaState("0-1", (0.0, 0.1), 0.05)


@given(st.floats(0.0, 500.0), st.floats(1.0, 30.0))
def test_antenna_height_stays_within_one_amplitude(t, mast):
    wave = default_wave(5)
    node = FloatingNode(position=(120.0, -40.0), mast_height=mast)
    h = antenna_height(node, wave, t)
    assert mast - wave.a <= h <= mast + wave.a


def test_heave_direction_matches_height_slope():
    # a rising buoy has its nearest crest within half a wavelength ahead,
    # a falling one between half and one wavelength
    wave = default_wave(4)
    node = FloatingNode(position=(80.0, 15.0), mast_height=2.0)
    eps = 1e-4
    for t in np.linspace(0.0, 2.0 * wave.T_wave, 37):
        dh = antenna_height(node, wave, t + eps) - antenna_height(node, wave, t)
        if abs(dh) < 1e-9:  # turning point, direction is a tie-break
            continue
        _, shift = _heave_and_shift(
            wave, _wave_phase(node, wave, _time_phase(wave, t)))
        if dh > 0:
            assert 0.0 <= shift <= wave.l / 2
        else:
            assert wave.l / 2 <= shift <= wave.l


def test_nearest_peak_lies_within_one_wavelength_downwind():
    wave = default_wave(6)
    for phase in np.linspace(0.0, 2.0 * np.pi, 65):
        assert 0.0 <= _heave_and_shift(wave, phase)[1] <= wave.l


def test_angle_helpers_validate_distances():
    # the LoS elevation angles need the two buoys apart, in a batch too
    node = FloatingNode((50.0, 0.0), 2.0)
    batch = FloatingNode(np.array([[0.0, 40.0], [50.0, 0.0]]), 2.0)
    for wave in (default_wave(4), WaveField(a=0.0, l=100.0, T_wave=10.0)):
        with pytest.raises(ValueError):
            los_state(node, node, wave, 1.0)
        with pytest.raises(ValueError):
            los_state(batch, node, wave, 1.0)


def test_flat_sea_is_always_line_of_sight():
    flat = WaveField(a=0.0, l=100.0, T_wave=10.0)
    tx = FloatingNode((50.0, 0.0), 2.0)
    rx = FloatingNode((250.0, 0.0), 5.0)
    assert los_state(tx, rx, flat, 3.7) is True
    batch = FloatingNode(np.array([[50.0, 0.0], [0.0, 80.0], [-30.0, -40.0]]),
                         2.0)
    flags = los_state(batch, rx, flat, 3.7)
    assert flags.shape == (3,) and flags.dtype == bool
    assert np.all(flags)


@given(st.integers(2, 8), st.floats(0.0, 50.0),
       st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
def test_los_state_is_symmetric_in_the_two_buoys(level, t, x, y):
    wave = default_wave(level)
    tx = FloatingNode((x, y), 2.0)
    rx = FloatingNode((x + 180.0, y - 60.0), 5.0)
    assert los_state(tx, rx, wave, t) == los_state(rx, tx, wave, t)


@pytest.mark.parametrize("level", [3, 6, 8])
def test_batch_los_state_equals_single_calls(level):
    wave = default_wave(level)
    pos = np.random.default_rng(level).uniform(-150.0, 150.0, (64, 2))
    rx = FloatingNode((200.0, 0.0), 5.0)
    for t in (0.0, 4.2):
        flags = los_state(FloatingNode(pos, 2.0), rx, wave, t)
        assert flags.shape == (64,) and flags.dtype == bool
        assert flags.tolist() == [los_state(FloatingNode(tuple(xy), 2.0), rx,
                                            wave, t) for xy in pos]


def test_los_probability_bounds_and_determinism():
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    state = sea_state(6)
    p1 = los_probability(state, tx, rx, samples=2000, seed=5)
    p2 = los_probability(state, tx, rx, samples=2000, seed=5)
    assert 0.0 <= p1 <= 1.0
    assert p1 == p2
    flat = SeaState("flat", (0.0, 0.1), 0.0, (3.0, 15.0), 7.0)
    assert los_probability(flat, tx, rx, samples=10, seed=5) == 1.0
    with pytest.raises(ValueError):
        los_probability(state, tx, rx, samples=0, seed=5)


def test_rough_sea_blocks_low_antennas_more_often():
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 2.0)
    p_mild = los_probability(sea_state(3), tx, rx, samples=4000, seed=9)
    p_rough = los_probability(sea_state(8), tx, rx, samples=4000, seed=9)
    assert p_rough < p_mild


def reference_los_mask(tx, rx, wave, t, tx_extra_dist=0.0, rx_extra_dist=0.0):
    """The LoS test as first written, one helper call per quantity: each
    side's phase, height and crest shift from its own sin and cos, and the
    crests as (n, 2) positions."""
    def distance(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])

    def phase(node, extra):
        d_r = distance(node.position, wave.source) + np.asarray(extra, dtype=float)
        return (2.0 * np.pi * np.mod(d_r, wave.l) / wave.l
                + 2.0 * np.pi * np.mod(np.asarray(t, dtype=float), wave.T_wave)
                / wave.T_wave)

    def peak(node, ph):
        delta = wave.a * np.sin(ph)
        frac = (wave.a - delta) / (4.0 * wave.a)
        shift = np.where(np.cos(ph) >= 0.0, wave.l * frac, wave.l * (1.0 - frac))
        unit = ((np.asarray(node.position, dtype=float) - wave.source)
                / distance(node.position, wave.source)[..., None])
        return node.position + shift[..., None] * unit

    d = distance(tx.position, rx.position)
    ph_t, ph_r = phase(tx, tx_extra_dist), phase(rx, rx_extra_dist)
    h_t = wave.a * np.sin(ph_t) + tx.mast_height
    h_r = wave.a * np.sin(ph_r) + rx.mast_height
    dist_t = distance(rx.position, peak(tx, ph_t))
    dist_r = distance(tx.position, peak(rx, ph_r))
    phi_t = np.arctan2(h_r - h_t, d)
    psi_t = np.arctan2(h_r - wave.a, dist_t)
    psi_r = np.arctan2(h_t - wave.a, dist_r)
    return (phi_t <= psi_t) & (-phi_t <= psi_r)


def sampler_draws(wave, samples, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.0, wave.T_wave, samples),
            rng.uniform(0.0, wave.l, samples),
            rng.uniform(0.0, wave.l, samples))


@pytest.mark.parametrize("level", range(2, 9))
def test_los_mask_is_bit_equal_to_the_reference(level):
    wave = default_wave(level)
    tx = FloatingNode((30.0, -40.0), 2.0)   # off the wave's axis
    t, off_t, off_r = sampler_draws(wave, 100_000, level)
    t[:3] = wave.T_wave     # a uniform draw can round up to the period
    assert _time_phase(wave, t[:3]).tolist() == [0.0] * 3
    for h in (2.0, 10.0, 30.0):
        rx = FloatingNode((180.0, 70.0), h)
        mask = _los_mask(tx, rx, wave, t, off_t, off_r)
        ref = reference_los_mask(tx, rx, wave, t, off_t, off_r)
        assert mask.dtype == bool and np.array_equal(mask, ref)


@pytest.mark.parametrize("level", [3, 6, 8])
def test_batch_los_mask_is_bit_equal_to_the_reference(level):
    wave = default_wave(level)
    batch = FloatingNode(
        np.random.default_rng(level).uniform(-150.0, 150.0, (64, 2)), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    for t in (0.0, 4.2, wave.T_wave):
        flags = los_state(batch, rx, wave, t)
        assert np.array_equal(flags, reference_los_mask(batch, rx, wave, t))


@pytest.mark.parametrize("samples", [1, LOS_CHUNK - 1, LOS_CHUNK,
                                     LOS_CHUNK + 1, 20_000])
def test_chunked_los_probability_equals_the_reference_mean(samples):
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    state = sea_state(6)
    wave = wave_from_sea_state(state)
    t, off_t, off_r = sampler_draws(wave, samples, 11)
    expected = float(np.mean(reference_los_mask(tx, rx, wave, t, off_t, off_r)))
    assert los_probability(state, tx, rx, samples, seed=11) == expected
    if samples > 1:
        assert 0.0 < expected < 1.0
