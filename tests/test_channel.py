"""Propagation models: path loss branches, link gains, array responses."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marisim import channel
from marisim.channel import (
    LinkGeometry,
    PathLossParams,
    SPEED_OF_LIGHT,
    cascade,
    clamp_hits,
    db2pow,
    link_gain,
    path_loss_free_space,
    path_loss_los,
    path_loss_nlos,
    pow2db,
    reset_clamp_hits,
    ris_departure_matrix,
    ris_incident_vector,
    synthesize_direct_channel,
    two_ray_boundary,
    ula_steering_phases,
)
from marisim.ris_system import make_planar_ris
from marisim.sea_surface import (
    FloatingNode,
    los_state,
    sea_state,
    wave_from_sea_state,
)

P = PathLossParams()

# frozen with the default 5.8 GHz carrier, h_t = 2 m, h_r = 5 m
LAMBDA = 0.05168835482758621
BOUNDARY_2_5 = 773.8687008597127
LOS_500 = 99.38824010561203      # two-ray branch (below the boundary)
LOS_1000 = 103.42593132492098    # three-ray branch (beyond the boundary)
NLOS_500 = 187.2783700910564
FS_100 = 87.71855987125872
FS_1000 = 107.71855987125872


def geom(d, los=True, h_t=2.0, h_r=5.0):
    return LinkGeometry(h_t=h_t, h_r=h_r, d=d, los=los)


def test_wavelength_and_regime_boundary():
    assert P.lam == pytest.approx(LAMBDA, rel=1e-12)
    assert P.lam == pytest.approx(SPEED_OF_LIGHT / P.f_c, rel=1e-15)
    assert two_ray_boundary(2.0, 5.0, P) == pytest.approx(BOUNDARY_2_5, rel=1e-12)
    assert two_ray_boundary(2.0, 5.0, P) == pytest.approx(4 * 2 * 5 / P.lam)


def test_path_loss_frozen_values():
    assert path_loss_los(geom(500.0), P, 0.0) == pytest.approx(LOS_500, rel=1e-12)
    assert path_loss_los(geom(1000.0), P, 0.0) == pytest.approx(LOS_1000, rel=1e-12)
    assert path_loss_nlos(500.0, P, 0.0) == pytest.approx(NLOS_500, rel=1e-12)
    assert path_loss_free_space(100.0, P.f_c) == pytest.approx(FS_100, rel=1e-12)
    assert path_loss_free_space(1000.0, P.f_c) == pytest.approx(FS_1000, rel=1e-12)


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
    assert path_loss_los(geom(d), P, xi) == pytest.approx(
        path_loss_los(geom(d), P, 0.0) + xi)
    assert path_loss_nlos(d, P, xi) == pytest.approx(
        path_loss_nlos(d, P, 0.0) + xi)


def test_two_ray_null_is_floored_and_counted():
    # at d = 2 h_t h_r / lambda the two-ray interference term vanishes and
    # the log argument hits the floor; the clamp counter must notice
    d_null = 2.0 * 2.0 * 5.0 / P.lam
    reset_clamp_hits()
    loss = path_loss_los(geom(d_null), P, 0.0)
    assert clamp_hits() == 1
    assert np.isfinite(loss)
    assert loss > path_loss_los(geom(500.0), P, 0.0)
    reset_clamp_hits()
    assert clamp_hits() == 0


def test_db_conversions_roundtrip():
    assert db2pow(pow2db(0.025)) == pytest.approx(0.025, rel=1e-12)
    assert pow2db(1.0) == 0.0


def test_link_gain_conventions():
    g = geom(500.0, los=True)
    amplitude, phase = link_gain(g, PathLossParams(sigma_los=0.0),
                                 np.random.default_rng(0))
    assert amplitude == pytest.approx(10.0 ** ((P.G_t - LOS_500 + P.G_r) / 20.0))
    assert phase == pytest.approx(float(np.mod(-2 * np.pi * 500.0 / P.lam,
                                               2 * np.pi)))
    rng = np.random.default_rng(3)
    phases = [link_gain(geom(500.0, los=False), P, rng)[1] for _ in range(200)]
    assert 0.0 <= min(phases) and max(phases) < 2 * np.pi
    assert np.std(phases) > 1.0  # uniform, not deterministic


def test_steering_phases_ramp():
    ph = ula_steering_phases(4, math.pi / 6)
    assert ph.shape == (4,)
    assert ph == pytest.approx(-math.pi * np.arange(4) * 0.5)
    assert ula_steering_phases(3, 0.0) == pytest.approx(np.zeros(3))


def fixture_scene():
    wave = wave_from_sea_state(sea_state(4))
    iot = FloatingNode((60.0, 20.0), 2.0)
    rx = FloatingNode((200.0, 0.0), 5.0)
    ris = make_planar_ris(12, (0.0, 0.0, 35.0), P.lam)
    return wave, iot, rx, ris


def test_direct_channel_row_shape_and_magnitude():
    wave, iot, rx, _ = fixture_scene()
    row = synthesize_direct_channel(iot, rx, wave, 1.0, True, 8,
                                    PathLossParams(sigma_los=0.0,
                                                   sigma_nlos=0.0),
                                    np.random.default_rng(0))
    assert row.shape == (8,)
    # one scalar gain on a steering ramp: all entries share the magnitude
    assert np.ptp(np.abs(row)) <= 1e-12 * np.abs(row).mean()


def test_direct_channel_survives_a_submerged_antenna():
    wave, _, rx, _ = fixture_scene()
    buried = FloatingNode((60.0, 20.0), 1e-6)  # mast far below the amplitude
    row = synthesize_direct_channel(buried, rx, wave, 2.0,
                                    los_state(buried, rx, wave, 2.0), 4, P,
                                    np.random.default_rng(1))
    assert np.all(np.isfinite(row))


def test_ris_segments_shapes_and_rank():
    wave, iot, rx, ris = fixture_scene()
    rng = np.random.default_rng(2)
    h_r = ris_incident_vector(iot, ris, wave, 0.5, P, rng)
    F = ris_departure_matrix(ris, rx, wave, 0.5, 6, P, rng)
    assert h_r.shape == (12,)
    assert F.shape == (12, 6)
    # outer product of element phases and a steering ramp
    assert np.linalg.matrix_rank(F, tol=1e-12 * np.abs(F).max()) == 1
    assert np.ptp(np.abs(h_r)) <= 1e-12 * np.abs(h_r).mean()


def test_cascade_is_elementwise_row_scaling():
    wave, iot, rx, ris = fixture_scene()
    rng = np.random.default_rng(4)
    h_r = ris_incident_vector(iot, ris, wave, 0.5, P, rng)
    F = ris_departure_matrix(ris, rx, wave, 0.5, 6, P, rng)
    G = cascade(h_r, F)
    assert G.shape == (12, 6)
    assert G == pytest.approx(h_r[:, None] * F)
    with pytest.raises(ValueError):
        cascade(h_r, F.T)


def test_link_geometry_validation():
    # negative heights are legal (submerged antenna, floored at loss time)
    LinkGeometry(h_t=-1.0, h_r=5.0, d=100.0, los=True)
    with pytest.raises(ValueError):
        LinkGeometry(h_t=2.0, h_r=5.0, d=0.0, los=True)
    with pytest.raises(ValueError):
        LinkGeometry(h_t=math.nan, h_r=5.0, d=100.0, los=True)
