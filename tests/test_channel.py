"""Propagation models: path loss branches, link draws, array responses."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marisim import channel
from marisim.channel import (
    PathLossParams,
    SPEED_OF_LIGHT,
    cascade,
    db2pow,
    draw_link_fading,
    path_loss_free_space,
    path_loss_los,
    path_loss_nlos,
    pow2db,
    ris_departure_matrix,
    ris_incident_vector,
    synthesize_direct_channel,
    two_ray_boundary,
    ula_steering_phases,
)
from marisim.ris_system import make_planar_ris

P = PathLossParams()

# frozen with the default 5.8 GHz carrier, h_t = 2 m, h_r = 5 m
LAMBDA = 0.05168835482758621
BOUNDARY_2_5 = 773.8687008597127
LOS_500 = 99.38824010561203      # two-ray branch (below the boundary)
LOS_1000 = 103.42593132492098    # three-ray branch (beyond the boundary)
NLOS_500 = 187.2783700910564
FS_100 = 87.71855987125872
FS_1000 = 107.71855987125872


def los(d, xi=0.0):
    return path_loss_los(d, 2.0, 5.0, P, xi)


def test_wavelength_and_regime_boundary():
    assert P.lam == pytest.approx(LAMBDA, rel=1e-12)
    assert P.lam == pytest.approx(SPEED_OF_LIGHT / P.f_c, rel=1e-15)
    assert two_ray_boundary(2.0, 5.0, P) == pytest.approx(BOUNDARY_2_5, rel=1e-12)
    assert two_ray_boundary(2.0, 5.0, P) == pytest.approx(4 * 2 * 5 / P.lam)


def test_path_loss_frozen_values():
    assert los(500.0) == pytest.approx(LOS_500, rel=1e-12)
    assert los(1000.0) == pytest.approx(LOS_1000, rel=1e-12)
    assert path_loss_nlos(500.0, P, 0.0) == pytest.approx(NLOS_500, rel=1e-12)
    assert path_loss_free_space(100.0, P.f_c) == pytest.approx(FS_100, rel=1e-12)
    assert path_loss_free_space(1000.0, P.f_c) == pytest.approx(FS_1000, rel=1e-12)


def test_array_path_loss_equals_elementwise_calls():
    # distances on both sides of the regime boundary and through the
    # two-ray null, with per-link heights and shadowing
    rng = np.random.default_rng(0)
    d = np.concatenate([np.linspace(1.0, 3000.0, 97),
                        [2.0 * 2.0 * 5.0 / P.lam, BOUNDARY_2_5]])
    h_t = rng.uniform(0.05, 6.0, d.size)
    xi = rng.normal(0.0, 3.0, d.size)
    got = path_loss_los(d, h_t, 5.0, P, xi)
    assert got.shape == d.shape
    want = [path_loss_los(float(a), float(b), 5.0, P, float(c))
            for a, b, c in zip(d, h_t, xi)]
    assert got == pytest.approx(want, rel=1e-14)
    assert path_loss_nlos(d, P, xi) == pytest.approx(
        [path_loss_nlos(float(a), P, float(c)) for a, c in zip(d, xi)],
        rel=1e-14)
    assert path_loss_free_space(d, P.f_c) == pytest.approx(
        [path_loss_free_space(float(a), P.f_c) for a in d], rel=1e-14)


def test_free_space_slope_is_20_db_per_decade():
    assert (path_loss_free_space(1000.0, P.f_c)
            - path_loss_free_space(100.0, P.f_c)) == pytest.approx(20.0)


def test_nlos_reference_distance_and_slope():
    assert path_loss_nlos(P.d_0, P, 0.0) == pytest.approx(P.K)
    assert (path_loss_nlos(100.0, P, 0.0) - path_loss_nlos(10.0, P, 0.0)
            ) == pytest.approx(10.0 * P.alpha)
    with pytest.raises(ValueError):
        path_loss_nlos(0.5 * P.d_0, P, 0.0)


@given(st.floats(-8.0, 8.0), st.sampled_from([150.0, 500.0, 900.0, 1500.0]))
def test_shadowing_term_is_additive(xi, d):
    assert los(d, xi) == pytest.approx(los(d) + xi)
    assert path_loss_nlos(d, P, xi) == pytest.approx(
        path_loss_nlos(d, P, 0.0) + xi)


def test_two_ray_null_is_floored_and_counted():
    # at d = 2 h_t h_r / lambda the two-ray interference term vanishes and
    # the log argument hits the floor instead of producing an infinite loss
    d_null = 2.0 * 2.0 * 5.0 / P.lam
    loss = los(d_null)
    assert np.isfinite(loss)
    assert loss > los(500.0)
    assert loss <= -20.0 * math.log10(1e-12) + 1e-9
    losses = los(np.array([500.0, d_null, 1000.0]))
    assert np.all(np.isfinite(losses))
    assert losses[1] == loss


def test_db_conversions_roundtrip():
    assert db2pow(pow2db(0.025)) == pytest.approx(0.025, rel=1e-12)
    assert pow2db(1.0) == 0.0


def test_link_gain_conventions():
    # antennas at 2 m and 5 m: a LoS link has the frozen two-ray loss plus
    # both antenna gains and the path phase
    iots, h_t = np.array([[100.0, 0.0], [100.0, 0.0]]), np.full(2, 2.0)
    rx = (600.0, 0.0)
    row = synthesize_direct_channel(iots, rx, h_t, 5.0, np.array([True, True]),
                                    1, P, np.zeros(2), np.zeros(2))
    assert np.abs(row) == pytest.approx(
        np.full((2, 1), 10.0 ** ((P.G_t - LOS_500 + P.G_r) / 20.0)))
    assert np.angle(row[0, 0]) % (2 * np.pi) == pytest.approx(
        float(np.mod(-2 * np.pi * 500.0 / P.lam, 2 * np.pi)))
    # an NLoS link takes its phase from the draws, uniform on [0, 2pi)
    flags = np.zeros(200, dtype=bool)
    _, _, phases, _ = draw_link_fading(flags, P, np.random.default_rng(3))
    assert 0.0 <= phases.min() and phases.max() < 2 * np.pi
    assert np.std(phases) > 1.0  # uniform, not deterministic
    nlos = synthesize_direct_channel(iots, rx, h_t, 5.0, np.array([False, False]),
                                     1, P, np.zeros(2), phases[:2])
    assert np.abs(nlos) == pytest.approx(
        np.full((2, 1), 10.0 ** ((P.G_t - NLOS_500 + P.G_r) / 20.0)))
    assert np.angle(nlos[:, 0]) % (2 * np.pi) == pytest.approx(phases[:2])


def _shadowing(rng, sigma):
    return rng.normal(0.0, sigma) if sigma > 0 else 0.0


@pytest.mark.parametrize("sigma_los, sigma_nlos",
                         [(3.5, 5.1), (0.0, 0.0), (0.0, 5.1), (3.5, 0.0)])
def test_link_draws_keep_the_per_iot_stream_order(sigma_los, sigma_nlos):
    p = PathLossParams(sigma_los=sigma_los, sigma_nlos=sigma_nlos)
    flags = np.array([True, False, False, True])
    rng = np.random.default_rng(11)
    xi_departure, xi_direct, phase, xi_incident = draw_link_fading(flags, p,
                                                                   rng)
    # the shared RIS->receiver shadowing first, then one IoT after the
    # other: direct shadowing, NLoS phase, incident shadowing; a zero sigma
    # draws nothing
    ref = np.random.default_rng(11)
    dep = _shadowing(ref, sigma_los)
    d0 = _shadowing(ref, sigma_los)
    r0 = _shadowing(ref, sigma_los)
    d1 = _shadowing(ref, sigma_nlos)
    ph1 = ref.uniform(0.0, 2.0 * np.pi)
    r1 = _shadowing(ref, sigma_los)
    d2 = _shadowing(ref, sigma_nlos)
    ph2 = ref.uniform(0.0, 2.0 * np.pi)
    r2 = _shadowing(ref, sigma_los)
    d3 = _shadowing(ref, sigma_los)
    r3 = _shadowing(ref, sigma_los)
    assert xi_departure == dep
    assert xi_direct.tolist() == [d0, d1, d2, d3]
    assert phase.tolist() == [0.0, ph1, ph2, 0.0]
    assert xi_incident.tolist() == [r0, r1, r2, r3]
    assert rng.bit_generator.state == ref.bit_generator.state


def test_steering_phases_ramp():
    ph = ula_steering_phases(4, math.pi / 6)
    assert ph.shape == (4,)
    assert ph == pytest.approx(-math.pi * np.arange(4) * 0.5)
    assert ula_steering_phases(3, 0.0) == pytest.approx(np.zeros(3))


def fixture_scene():
    """IoT positions and antenna heights, the receiver's position and
    height, and a 12-element RIS."""
    iots = np.array([[60.0, 20.0], [-40.0, 90.0], [150.0, -70.0]])
    h_iot = np.array([2.4, 1.1, 2.9])
    ris = make_planar_ris(12, (0.0, 0.0, 35.0), P.lam)
    return iots, h_iot, (200.0, 0.0), 5.6, ris


def test_direct_channel_row_shape_and_magnitude():
    iots, h_iot, rx, h_rx, _ = fixture_scene()
    rows = synthesize_direct_channel(iots, rx, h_iot, h_rx,
                                     np.ones(3, dtype=bool), 8, P, np.zeros(3),
                                     np.zeros(3))
    assert rows.shape == (3, 8)
    # one scalar gain per IoT on a steering ramp: each row shares a magnitude
    assert np.all(np.ptp(np.abs(rows), axis=1)
                  <= 1e-12 * np.abs(rows).mean(axis=1))


def test_direct_channel_survives_a_submerged_antenna():
    iots, _, rx, _, _ = fixture_scene()
    # troughs below the mean sea level, on both sides of the links
    buried, h_rx = np.array([-0.9, 0.3, -1e-6]), -0.2
    flags = np.array([True, False, True])
    _, xi, phase, _ = draw_link_fading(flags, P, np.random.default_rng(1))
    rows = synthesize_direct_channel(iots, rx, buried, h_rx, flags, 4, P, xi,
                                     phase)
    assert np.all(np.isfinite(rows))


def test_ris_segments_shapes_and_rank():
    iots, h_iot, rx, h_rx, ris = fixture_scene()
    h_r = ris_incident_vector(iots, h_iot, ris, P, np.zeros(3))
    F = ris_departure_matrix(ris, rx, h_rx, 6, P, 1.2)
    assert h_r.shape == (3, 12)
    assert F.shape == (12, 6)
    # outer product of element phases and a steering ramp
    assert np.linalg.matrix_rank(F, tol=1e-12 * np.abs(F).max()) == 1
    assert np.all(np.ptp(np.abs(h_r), axis=1)
                  <= 1e-12 * np.abs(h_r).mean(axis=1))


def test_batch_synthesis_equals_one_iot_calls():
    iots, h_iot, rx, h_rx, ris = fixture_scene()
    flags = np.array([True, False, True])
    _, xi, phase, xi_r = draw_link_fading(flags, P, np.random.default_rng(5))
    rows = synthesize_direct_channel(iots, rx, h_iot, h_rx, flags, 4, P, xi,
                                     phase)
    h_r = ris_incident_vector(iots, h_iot, ris, P, xi_r)
    for i in range(3):
        k = slice(i, i + 1)              # a batch of one buoy
        row = synthesize_direct_channel(iots[k], rx, h_iot[k], h_rx, flags[k],
                                        4, P, xi[k], phase[k])
        assert row.shape == (1, 4)
        assert rows[i] == pytest.approx(row[0], rel=1e-12)
        assert h_r[i] == pytest.approx(
            ris_incident_vector(iots[k], h_iot[k], ris, P, xi_r[k])[0],
            rel=1e-12)


def test_cascade_is_elementwise_row_scaling():
    iots, h_iot, rx, h_rx, ris = fixture_scene()
    rng = np.random.default_rng(4)
    F = ris_departure_matrix(ris, rx, h_rx, 6, P, rng.normal(0.0, 3.5))
    h_r = ris_incident_vector(iots, h_iot, ris, P, rng.normal(0.0, 3.5, 3))
    G = cascade(h_r, F)
    assert G.shape == (3, 12, 6)
    for i in range(3):
        assert G[i] == pytest.approx(h_r[i][:, None] * F)
    with pytest.raises(ValueError):
        cascade(h_r, F.T)


def test_link_geometry_validation():
    ris = fixture_scene()[4]
    # non-positive distances and LoS heights are rejected by the loss models
    with pytest.raises(ValueError):
        path_loss_los(np.array([100.0, 0.0]), 2.0, 5.0, P)
    for h_t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            path_loss_los(100.0, np.array([2.0, h_t]), 5.0, P)
    with pytest.raises(ValueError):
        path_loss_free_space(np.array([10.0, -1.0]), P.f_c)
    # an antenna below the height floor is legal: synthesis floors it at
    # loss time
    assert np.all(np.isfinite(ris_incident_vector(np.array([[60.0, 20.0]]),
                                                  np.array([1e-6]), ris, P,
                                                  np.zeros(1))))


def test_synthesis_takes_heights_and_draws_from_the_caller():
    # the sea model stays outside this module, and one function draws
    assert not any(getattr(value, "__module__", None) == "marisim.sea_surface"
                   or getattr(value, "__name__", None) == "marisim.sea_surface"
                   for value in vars(channel).values())
    takes_rng = [name for name, fn in vars(channel).items()
                 if inspect.isfunction(fn)
                 and "rng" in inspect.signature(fn).parameters]
    assert takes_rng == ["draw_link_fading"]
