"""Sea-surface model: state table, wave kinematics, and LoS geometry."""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marisim import harness, sea_surface
from marisim.config import ScenarioConfig
from marisim.sea_surface import (
    DEFAULT_WAVE_SOURCE,
    FloatingNode,
    GRAVITY,
    LOS_CHUNK,
    MAX_LOS_SAMPLES,
    SeaState,
    WaveField,
    _COS_EDGES,
    _cos_negative,
    _crest_geometry,
    _lattice_generator,
    _link_distance,
    _los_mask,
    _side,
    los_probability,
    los_state,
    sea_state,
    wave_from_sea_state,
)
from oracles import ray_clears_sea

# deep-water wavelengths g T^2 / 2pi for the builtin periods, meters
WAVELENGTHS = {2: 76.5042, 3: 99.9238, 4: 126.4661, 5: 156.1310,
               6: 224.8286, 7: 306.0168, 8: 451.2186}


def default_wave(level=4):
    return wave_from_sea_state(sea_state(level))


# a fixed peer far from every node the height tests place
DISTANT_PEER = FloatingNode((900.0, 600.0), 5.0)


def node_height(node, wave, t):
    """The node's antenna height, as los_state reads it off the sea."""
    return los_state(node, DISTANT_PEER, wave, t)[1]


def node_phase(node, wave, t):
    """Sine argument at a single node at time t, as los_state forms it."""
    return oracle_wave_phase(node, wave, oracle_time_phase(wave, t))


def crest_shift(wave, phase):
    """Downwind distance from a buoy at this phase to its nearest crest: the
    crest's distance from the buoy's own anchor, on a side whose unit vector
    is (1, 0), so that no rounding enters it."""
    side = (None, 1.0, 0.0, 0.0, 1.0, 0.0)
    return _crest_geometry(side, side, wave, np.array(phase, dtype=float))[1]


def kernel_mask(tx, rx, wave, t, off_t=0.0, off_r=0.0):
    """The LoS flags of one _los_mask call at time t, each buoy's travelled
    distance offset by off_t or off_r."""
    time_phase = oracle_time_phase(wave, t)
    return _los_mask(_link_distance(tx, rx), _side(tx, wave), _side(rx, wave),
                     wave, oracle_wave_phase(tx, wave, time_phase, off_t),
                     oracle_wave_phase(rx, wave, time_phase, off_r))[0]


def lattice_phases(samples):
    """The two phase arrays of the samples-point Fibonacci-type lattice, whole
    at once, its generator found by a plain search."""
    g = round(samples * (math.sqrt(5.0) - 1.0) / 2.0)
    while math.gcd(g, samples) != 1:
        g -= 1
    k = np.arange(samples)
    step = 2.0 * np.pi / samples
    return (k + 0.5) * step, ((k * g) % samples + 0.5) * step


def test_table_lookup_and_level_folding():
    assert sea_state(4).height_mean == 1.875
    assert sea_state(4).period_mean == 9.0
    assert sea_state(9).period_mean == 20.0
    assert sea_state(30) is sea_state(9)
    assert sea_state(10 ** 30) is sea_state(9)
    with pytest.raises(KeyError):
        sea_state(3.5)
    with pytest.raises(TypeError):   # levels are integers, not labels
        sea_state(">8")
    with pytest.raises(KeyError):
        sea_state(-1)


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
        SeaState(1, 0.05)


@given(st.floats(0.0, 500.0), st.floats(1.0, 30.0))
def test_antenna_height_stays_within_one_amplitude(t, mast):
    wave = default_wave(5)
    node = FloatingNode(position=(120.0, -40.0), mast_height=mast)
    h = node_height(node, wave, t)
    assert mast - wave.a <= h <= mast + wave.a


def test_heave_direction_matches_height_slope():
    # a rising buoy has its nearest crest within half a wavelength ahead,
    # a falling one between half and one wavelength
    wave = default_wave(4)
    node = FloatingNode(position=(80.0, 15.0), mast_height=2.0)
    eps = 1e-4
    for t in np.linspace(0.0, 2.0 * wave.T_wave, 37):
        dh = node_height(node, wave, t + eps) - node_height(node, wave, t)
        if abs(dh) < 1e-9:  # turning point, direction is a tie-break
            continue
        shift = crest_shift(wave, node_phase(node, wave, t))
        if dh > 0:
            assert 0.0 <= shift <= wave.l / 2
        else:
            assert wave.l / 2 <= shift <= wave.l


def test_nearest_peak_lies_within_one_wavelength_downwind():
    wave = default_wave(6)
    for phase in np.linspace(0.0, 2.0 * np.pi, 65):
        assert 0.0 <= crest_shift(wave, phase) <= wave.l


def test_angle_helpers_validate_distances():
    # the LoS elevation angles need the two buoys apart, in a batch too
    node = FloatingNode((50.0, 0.0), 2.0)
    batch = FloatingNode(np.array([[0.0, 40.0], [50.0, 0.0]]), 2.0)
    for wave in (default_wave(4), WaveField(a=0.0, l=100.0, T_wave=10.0)):
        with pytest.raises(ValueError):
            los_state(node, node, wave, 1.0)
        with pytest.raises(ValueError):
            los_state(batch, node, wave, 1.0)
        with pytest.raises(ValueError, match="co-located"):
            los_probability(node, node, wave, 10)
        # a flat sea checks the geometry too
        with pytest.raises(ValueError, match="wave source"):
            los_state(FloatingNode(wave.source, 2.0), node, wave, 1.0)


def test_flat_sea_is_always_line_of_sight():
    flat = WaveField(a=0.0, l=100.0, T_wave=10.0)
    tx = FloatingNode((50.0, 0.0), 2.0)
    rx = FloatingNode((250.0, 0.0), 5.0)
    flag, h_t, h_r = los_state(tx, rx, flat, 3.7)
    assert flag.shape == () and flag.dtype == bool and flag
    assert h_t.shape == h_r.shape == () and (h_t, h_r) == (2.0, 5.0)
    batch = FloatingNode(np.array([[50.0, 0.0], [0.0, 80.0], [-30.0, -40.0]]),
                         2.0)
    flags, h_t, h_r = los_state(batch, rx, flat, 3.7)
    assert flags.shape == (3,) and flags.dtype == bool
    assert np.all(flags)
    assert h_t.tolist() == [2.0] * 3 and h_r.tolist() == [5.0] * 3


@given(st.integers(2, 8), st.floats(0.0, 50.0),
       st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
def test_los_state_is_symmetric_in_the_two_buoys(level, t, x, y):
    wave = default_wave(level)
    tx = FloatingNode((x, y), 2.0)
    rx = FloatingNode((x + 180.0, y - 60.0), 5.0)
    flag, h_t, h_r = los_state(tx, rx, wave, t)
    back, h_r_back, h_t_back = los_state(rx, tx, wave, t)
    assert flag == back and (h_t, h_r) == (h_t_back, h_r_back)


@pytest.mark.parametrize("level", [3, 6, 8])
def test_batch_los_state_equals_single_calls(level):
    wave = default_wave(level)
    pos = np.random.default_rng(level).uniform(-150.0, 150.0, (64, 2))
    rx = FloatingNode((200.0, 0.0), 5.0)
    for t in (0.0, 4.2):
        flags = los_state(FloatingNode(pos, 2.0), rx, wave, t)[0]
        assert flags.shape == (64,) and flags.dtype == bool
        assert flags.tolist() == [bool(los_state(FloatingNode(tuple(xy), 2.0),
                                                 rx, wave, t)[0])
                                  for xy in pos]


def test_los_probability_bounds_and_determinism():
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    wave = default_wave(6)
    p = los_probability(tx, rx, wave, samples=2000)
    assert 0.0 < p < 1.0
    assert los_probability(tx, rx, wave, samples=2000) == p
    flat = WaveField(a=0.0, l=76.5, T_wave=7.0)
    assert los_probability(tx, rx, flat, samples=10) == 1.0
    for samples in (0, MAX_LOS_SAMPLES + 1):
        with pytest.raises(ValueError, match="samples must lie in"):
            los_probability(tx, rx, wave, samples)


def test_rough_sea_blocks_low_antennas_more_often():
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 2.0)
    p_mild = los_probability(tx, rx, default_wave(3), samples=4000)
    p_rough = los_probability(tx, rx, default_wave(8), samples=4000)
    assert p_rough < p_mild


def test_lattice_generator_is_the_fibonacci_one():
    fib = [1, 2]
    while fib[-1] < MAX_LOS_SAMPLES:
        fib.append(fib[-1] + fib[-2])
    for before, n in zip(fib, fib[1:]):
        assert _lattice_generator(n) == before
    for n in (1, 2, 4, 10, 10_000, 20_001, MAX_LOS_SAMPLES):
        g = _lattice_generator(n)
        assert 1 <= g < n or n == 1
        assert math.gcd(g, n) == 1
        assert n * g < 2 ** 63   # every index product fits int64


def random_draws(wave, samples, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.0, wave.T_wave, samples),
            rng.uniform(0.0, wave.l, samples),
            rng.uniform(0.0, wave.l, samples))


@pytest.mark.parametrize("level", range(2, 9))
def test_los_mask_is_bit_equal_to_the_reference(level):
    wave = default_wave(level)
    tx = FloatingNode((30.0, -40.0), 2.0)   # off the wave's axis
    t, off_t, off_r = random_draws(wave, 100_000, level)
    t[:3] = wave.T_wave     # a uniform draw can round up to the period
    # where the time term is 0, as at t = 0: every bit of each buoy's flag
    # and heights is the same at the two times
    batch = FloatingNode(np.stack([off_t[:64], off_r[:64]], axis=1), 2.0)
    at_period, at_zero = (los_state(batch, tx, wave, t0)
                          for t0 in (wave.T_wave, 0.0))
    assert all(np.array_equal(a, b) for a, b in zip(at_period, at_zero))
    for h in (2.0, 10.0, 30.0):
        rx = FloatingNode((180.0, 70.0), h)
        mask = kernel_mask(tx, rx, wave, t, off_t, off_r)
        ref = oracle_los_mask(tx, rx, wave, t, off_t, off_r)
        assert mask.dtype == bool and np.array_equal(mask, ref)


@pytest.mark.parametrize("level", [3, 6, 8])
def test_batch_los_mask_is_bit_equal_to_the_reference(level):
    wave = default_wave(level)
    batch = FloatingNode(
        np.random.default_rng(level).uniform(-150.0, 150.0, (64, 2)), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    for t in (0.0, 4.2, wave.T_wave):
        flags = los_state(batch, rx, wave, t)[0]
        assert np.array_equal(flags, oracle_los_mask(batch, rx, wave, t))


@pytest.mark.parametrize("samples", [1, LOS_CHUNK - 1, LOS_CHUNK,
                                     LOS_CHUNK + 1, 20_000])
def test_chunked_los_probability_equals_the_reference_mean(samples):
    # the kernel on the whole lattice at once, against the chunked count
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    wave = default_wave(6)
    mask = _los_mask(_link_distance(tx, rx), _side(tx, wave), _side(rx, wave),
                     wave, *lattice_phases(samples))[0]
    expected = float(np.mean(mask))
    assert los_probability(tx, rx, wave, samples) == expected
    if samples > 1:
        assert 0.0 < expected < 1.0


# Criterion 4's cells whose probability lies inside (0, 1), as (sea state,
# receiver mast height), against a 317 811-point (Fibonacci) lattice: the
# 10 000-point rule was within 5.9e-4 of it on every one of criterion 4's
# 35 cells.
INTERIOR_CELLS = [(4, 2.0), (5, 2.0), (5, 5.0), (6, 2.0), (6, 5.0), (7, 2.0),
                  (7, 5.0), (7, 10.0), (8, 2.0), (8, 10.0), (8, 30.0)]
FINE_SAMPLES = 317_811


@pytest.mark.parametrize("level, h", INTERIOR_CELLS)
def test_lattice_is_within_1e3_of_a_much_finer_lattice(level, h):
    g = ScenarioConfig().geometry
    tx = FloatingNode(g.turbine_position, g.iot_mast_m)
    rx = FloatingNode(g.rx_position, h)
    wave = wave_from_sea_state(sea_state(level), g.wave_source)
    fine = los_probability(tx, rx, wave, FINE_SAMPLES)
    assert 0.0 < fine < 1.0
    assert abs(los_probability(tx, rx, wave, 10_000) - fine) <= 1e-3


# An earlier version of the LoS code (names prefixed oracle_), as the oracle
# of the differential tests below: np.where over np.cos for the side of the
# crest, where the kernel takes the phase's quadrant.  Its mask is split at the two buoys' phases,
# where the lattice enters it whole.

def oracle_distance(a, b):
    """Horizontal distance between (..., 2) positions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


def oracle_source_distance(node: FloatingNode, wave: WaveField):
    return oracle_distance(node.position, wave.source)


def oracle_source_unit(node: FloatingNode, wave: WaveField) -> np.ndarray:
    d = oracle_source_distance(node, wave)
    if np.any(d == 0):
        raise ValueError("node sits on the wave source")
    return ((np.asarray(node.position, dtype=float) - wave.source)
            / d[..., None])


def oracle_time_phase(wave: WaveField, t):
    """Time term of the sine argument.  np.mod keeps it in [0, 2 pi) even
    when a uniform draw of t rounds up to T_wave."""
    return (2.0 * np.pi * np.mod(np.asarray(t, dtype=float), wave.T_wave)
            / wave.T_wave)


def oracle_wave_phase(node, wave, time_phase, extra_dist=0.0):
    """Sine argument at the node; extra_dist offsets the travelled distance."""
    d_r = (oracle_source_distance(node, wave)
           + np.asarray(extra_dist, dtype=float))
    return 2.0 * np.pi * np.mod(d_r, wave.l) / wave.l + time_phase


def oracle_antenna_height(node: FloatingNode, wave: WaveField, t):
    """Antenna height above the mean sea level at time t (seconds)."""
    phase = oracle_wave_phase(node, wave, oracle_time_phase(wave, t))
    out = wave.a * np.sin(phase) + node.mast_height
    return float(out) if np.ndim(out) == 0 else out


def oracle_heave_and_shift(wave: WaveField, phase):
    """Heave delta = a sin(phase) of a buoy and the downwind distance to its
    nearest crest: a rising buoy has the crest (a - delta)/(4a) wavelengths
    ahead of it, a falling buoy the complement."""
    heave = wave.a * np.sin(phase)
    frac = (wave.a - heave) / (4.0 * wave.a)
    return heave, wave.l * np.where(np.cos(phase) >= 0.0, frac, 1.0 - frac)


def oracle_crest_geometry(node, peer, wave, phase):
    """Antenna height of node at the sine argument phase, and the horizontal
    distance from the peer antenna to node's nearest crest."""
    heave, shift = oracle_heave_and_shift(wave, phase)
    pos = np.asarray(node.position, dtype=float)
    peer_pos = np.asarray(peer.position, dtype=float)
    unit = oracle_source_unit(node, wave)
    return heave + node.mast_height, np.hypot(
        peer_pos[..., 0] - (pos[..., 0] + shift * unit[..., 0]),
        peer_pos[..., 1] - (pos[..., 1] + shift * unit[..., 1]))


def oracle_phase_mask(tx, rx, wave, phase_t, phase_r):
    """Vectorized LoS test at the two buoys' sine arguments."""
    d = oracle_distance(tx.position, rx.position)
    if np.any(d == 0):
        raise ValueError("co-located nodes")
    if wave.a == 0:
        return np.broadcast_to(True, np.broadcast_shapes(
            np.shape(phase_t), np.shape(phase_r), d.shape))
    h_t, dist_t = oracle_crest_geometry(tx, rx, wave, phase_t)
    h_r, dist_r = oracle_crest_geometry(rx, tx, wave, phase_r)
    # arctan2 handles a crest exactly under the peer antenna (dist -> 0).
    phi_t = np.arctan2(h_r - h_t, d)
    psi_t = np.arctan2(h_r - wave.a, dist_t)
    psi_r = np.arctan2(h_t - wave.a, dist_r)
    return (phi_t <= psi_t) & (-phi_t <= psi_r)


def oracle_los_mask(tx, rx, wave, t, tx_extra_dist=0.0, rx_extra_dist=0.0):
    """Vectorized LoS test over time samples / per-buoy phase offsets, or
    over a batch of buoys."""
    time_phase = oracle_time_phase(wave, t)
    return oracle_phase_mask(
        tx, rx, wave, oracle_wave_phase(tx, wave, time_phase, tx_extra_dist),
        oracle_wave_phase(rx, wave, time_phase, rx_extra_dist))


def oracle_los_state(tx: FloatingNode, rx: FloatingNode, wave: WaveField,
                     t):
    """Bool array, True where the direct Tx-Rx ray clears both nearest wave
    crests: (I,) when tx or rx is a batch of I buoys, 0-d for two single
    buoys."""
    return np.array(oracle_los_mask(tx, rx, wave, t))


def oracle_los_probability(state: SeaState, tx: FloatingNode,
                           rx: FloatingNode, samples: int,
                           source=DEFAULT_WAVE_SOURCE) -> float:
    """LoS share over the whole samples-point lattice of the two phases."""
    wave = wave_from_sea_state(state, source)
    return float(np.mean(oracle_phase_mask(tx, rx, wave,
                                           *lattice_phases(samples))))


OFF_AXIS_SOURCE = (-7_000.0, 5_000.0)   # both unit-vector components nonzero


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7, 8, 9])
def test_los_probability_equals_the_whole_array_oracle(level):
    state = sea_state(level)
    tx = FloatingNode((30.0, -40.0), 2.0)
    for source in (DEFAULT_WAVE_SOURCE, OFF_AXIS_SOURCE):
        for h in (0.5, 2.0, 5.0, 30.0):
            rx = FloatingNode((180.0, 70.0), h)
            for samples in (1, LOS_CHUNK - 1, LOS_CHUNK, LOS_CHUNK + 1,
                            20_001):
                wave = wave_from_sea_state(state, source)
                assert (los_probability(tx, rx, wave, samples)
                        == oracle_los_probability(state, tx, rx, samples,
                                                  source))


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7, 8, 9])
def test_los_state_and_height_equal_the_oracle(level):
    wave = wave_from_sea_state(sea_state(level), OFF_AXIS_SOURCE)
    five = np.random.default_rng(3).uniform(-150.0, 150.0, (5, 2))
    rx = FloatingNode((200.0, 10.0), 5.0)
    for position in (five, five[:1], (12.0, 7.0)):   # batches and a scalar
        node = FloatingNode(position, 2.0)
        for t in (0.0, 4.2, -3.1, wave.T_wave, np.float64(7.7)):
            for pair in ((node, rx), (rx, node)):
                new, *heights = los_state(*pair, wave, t)
                old = oracle_los_state(*pair, wave, t)
                assert type(new) is type(old) and np.array_equal(new, old)
                # each side's heights, value for value: a single buoy's
                # float from the oracle stands for every link it is on
                for side, h in zip(pair, heights):
                    h_old = oracle_antenna_height(side, wave, t)
                    assert h.shape == new.shape and h.dtype == float
                    assert np.array_equal(h, np.broadcast_to(h_old, h.shape))


def test_quadrant_rule_equals_the_sign_of_cos():
    assert "cos" not in {node.attr for node in ast.walk(
        ast.parse(inspect.getsource(sea_surface)))
        if isinstance(node, ast.Attribute)}
    for c in _COS_EDGES:
        above = np.nextafter(c, np.inf)
        assert np.cos(c) != 0 and np.cos(above) != 0
        assert np.sign(np.cos(c)) != np.sign(np.cos(above))
    around = [(np.float64(c).view(np.int64)
               + np.arange(-100_000, 100_001)).view(np.float64)
              for c in _COS_EDGES]
    uniform = np.random.default_rng(4).uniform(0.0, 4.0 * np.pi, 1_000_000)
    for phase in (*around, uniform, np.array([0.0, 2 * np.pi, 4 * np.pi])):
        negative = _cos_negative(phase)
        assert np.array_equal(~negative, np.cos(phase) >= 0.0)


def test_kernel_leaves_its_inputs_unchanged():
    wave = default_wave(6)
    rng = np.random.default_rng(6)
    batch = FloatingNode(rng.uniform(-150.0, 150.0, (8, 2)), 2.0)
    rx = FloatingNode(np.array([200.0, 10.0]), 5.0)
    t = rng.uniform(0.0, wave.T_wave, 8)
    d = _link_distance(batch, rx)
    side_t, side_r = _side(batch, wave), _side(rx, wave)
    phases = rng.uniform(0.0, 4.0 * np.pi, (2, 8))
    inputs = [batch.position, rx.position, t, d, *side_t, *side_r, *phases]
    before = [np.array(x, copy=True) for x in inputs]
    _los_mask(d, side_t, side_r, wave, *phases)
    los_state(batch, rx, wave, t)
    los_state(rx, batch, wave, t)
    for x, old in zip(inputs, before):
        assert np.array_equal(x, old)


def test_los_probability_memory_does_not_grow_with_samples():
    tx = FloatingNode((0.0, 0.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    tracemalloc.start()
    try:
        los_probability(tx, rx, default_wave(6), 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000   # whole-array draws alone would take 48 MB


# Shares of the default site's IoT -> receiver links, per sea state: the
# rule's LoS, the exact ray's LoS, rule NLoS with a clear ray, and rule LoS
# with a blocked ray.  The rule blocks many rays that clear the sea.  An
# earlier sample of about 3200 links per state gave
#   state 5: 0.831, 0.935, 0.112, 0.007
#   state 6: 0.497, 0.757, 0.265, 0.006
#   state 7: 0.306, 0.675, 0.372, 0.003
#   state 8: 0.178, 0.757, 0.582, 0.003
RULE_AGAINST_RAY = {5: (0.8160, 0.9344, 0.1258, 0.0074),
                    6: (0.5125, 0.7638, 0.2562, 0.0050),
                    7: (0.2843, 0.6818, 0.4021, 0.0047),
                    8: (0.2190, 0.7915, 0.5787, 0.0062)}


@pytest.mark.parametrize("level", sorted(RULE_AGAINST_RAY))
def test_los_rule_against_the_exact_ray(level):
    """About 1600 links per state: IoTs deployed on the default disk outside
    the exclusion zones at 200 random instants, each against the default
    receiver, judged by los_state and by the sampled straight ray."""
    cfg = ScenarioConfig()
    g = cfg.geometry
    wave = wave_from_sea_state(sea_state(level), g.wave_source)
    rx = FloatingNode(g.rx_position, g.rx_mast_m)
    rng = np.random.default_rng([4, level])
    rule, exact = [], []
    for _ in range(200):
        t = rng.uniform(0.0, wave.T_wave)
        pos = harness.deploy_iots(8.0, g.deploy_radius_m, g.turbine_position,
                                  rng, exclusions=harness._exclusion_zones(cfg))
        if len(pos):
            los, h_t, h_r = los_state(FloatingNode(pos, g.iot_mast_m), rx,
                                      wave, t)
            rule.append(los)
            exact.append(ray_clears_sea(pos, h_t, g.rx_position, h_r, wave, t))
    rule, exact = np.concatenate(rule), np.concatenate(exact)
    shares = [np.mean(rule), np.mean(exact), np.mean(~rule & exact),
              np.mean(rule & ~exact)]
    assert shares == pytest.approx(RULE_AGAINST_RAY[level], abs=0.01)
