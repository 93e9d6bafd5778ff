"""Sea-surface model: state table, wave kinematics, and LoS geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marisim.sea_surface import (
    BUILTIN_SEA_STATES,
    FloatingNode,
    GRAVITY,
    SeaState,
    WaveField,
    _peak_shift,
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
    assert sea_state(0).level == "0-1"
    assert sea_state(1).level == "0-1"
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
        if row.period_range is not None:
            plo, phi = row.period_range
            assert plo <= row.period_mean <= phi


def test_sea_state_row_validation():
    with pytest.raises(ValueError):
        SeaState(2, (1.0, 0.5), 0.7)
    with pytest.raises(ValueError):
        SeaState(2, (0.1, 0.5), 0.7)
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
    with pytest.raises(ValueError):
        wave_from_sea_state(sea_state(0))


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
        shift = _peak_shift(wave.a, wave.l, _wave_phase(node, wave, t))
        if dh > 0:
            assert 0.0 <= shift <= wave.l / 2
        else:
            assert wave.l / 2 <= shift <= wave.l


def test_nearest_peak_lies_within_one_wavelength_downwind():
    wave = default_wave(6)
    for phase in np.linspace(0.0, 2.0 * np.pi, 65):
        assert 0.0 <= _peak_shift(wave.a, wave.l, phase) <= wave.l


def test_angle_helpers_validate_distances():
    # the LoS elevation angles need the two buoys apart
    node = FloatingNode((50.0, 0.0), 2.0)
    for wave in (default_wave(4), WaveField(a=0.0, l=100.0, T_wave=10.0)):
        with pytest.raises(ValueError):
            los_state(node, node, wave, 1.0)


def test_flat_sea_is_always_line_of_sight():
    flat = WaveField(a=0.0, l=100.0, T_wave=10.0)
    tx = FloatingNode((50.0, 0.0), 2.0)
    rx = FloatingNode((250.0, 0.0), 5.0)
    assert los_state(tx, rx, flat, 3.7) is True


@given(st.integers(2, 8), st.floats(0.0, 50.0),
       st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
def test_los_state_is_symmetric_in_the_two_buoys(level, t, x, y):
    wave = default_wave(level)
    tx = FloatingNode((x, y), 2.0)
    rx = FloatingNode((x + 180.0, y - 60.0), 5.0)
    assert los_state(tx, rx, wave, t) == los_state(rx, tx, wave, t)


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
    # the calm table row defines no period, so it cannot be sampled
    with pytest.raises(ValueError):
        los_probability(sea_state(0), tx, rx, samples=10, seed=5)
    with pytest.raises(ValueError):
        los_probability(state, tx, rx, samples=0, seed=5)


def test_rough_sea_blocks_low_antennas_more_often():
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 2.0)
    p_mild = los_probability(sea_state(3), tx, rx, samples=4000, seed=9)
    p_rough = los_probability(sea_state(8), tx, rx, samples=4000, seed=9)
    assert p_rough < p_mild
