"""RIS layout, network snapshots, combined channels, capacity expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marisim.optimizer import build_D, reflection_objective
from marisim.ris_system import (
    NetworkSnapshot,
    combined_channel,
    direct_capacity,
    make_planar_ris,
    sum_capacity,
)
from oracles import aligned_capacity_bound

LAM = 0.05


def random_snapshot(rng, N=5, M=3, I=2, sigma2=1.0, beta=1.0):
    Hd = rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I))
    G = tuple(rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
              for _ in range(I))
    P_t = rng.uniform(0.5, 2.0, I)
    return NetworkSnapshot(H_d=Hd, G=G, P_t=P_t, sigma2=sigma2, beta=beta)


def unit_q(rng, N):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))


def test_planar_ris_grid_geometry():
    pos = make_planar_ris(12, (1.0, -2.0, 35.0), LAM)
    assert pos.shape == (12, 3)
    assert np.all(pos[:, 0] == 1.0)                      # broadside along x
    assert pos.mean(axis=0) == pytest.approx([1.0, -2.0, 35.0])
    ys = np.unique(np.round(pos[:, 1], 12))
    zs = np.unique(np.round(pos[:, 2], 12))
    assert len(ys) * len(zs) == 12
    assert {len(ys), len(zs)} == {3, 4}                  # most square split
    assert np.diff(ys) == pytest.approx(np.full(len(ys) - 1, LAM / 2.0))
    prime = make_planar_ris(7, (0.0, 0.0, 30.0), LAM)    # falls back to 1 x N
    assert len(np.unique(prime[:, 2])) == 1


def test_ris_config_validation():
    with pytest.raises(ValueError):
        make_planar_ris(0, (0, 0, 35.0), LAM)


def test_snapshot_dimensions_and_direct_row():
    snap = random_snapshot(np.random.default_rng(0))
    assert (snap.M, snap.I, snap.N) == (3, 2, 5)
    assert snap.G.shape == (2, 5, 3)
    assert snap.direct_rows.shape == (2, 3)
    for i in range(snap.I):
        assert snap.direct_rows[i] == pytest.approx(snap.H_d[:, i].conj())


def test_snapshot_validation():
    rng = np.random.default_rng(1)
    good = random_snapshot(rng)
    with pytest.raises(ValueError):
        NetworkSnapshot(H_d=good.H_d, G=good.G[:1], P_t=good.P_t,
                        sigma2=1.0, beta=1.0)
    with pytest.raises(ValueError):
        NetworkSnapshot(H_d=good.H_d, G=good.G, P_t=-good.P_t,
                        sigma2=1.0, beta=1.0)
    with pytest.raises(ValueError):
        NetworkSnapshot(H_d=good.H_d, G=good.G, P_t=good.P_t,
                        sigma2=0.0, beta=1.0)
    # ragged matrices, and tensors whose I, N or M disagrees with H_d
    for G in ((good.G[0], good.G[1][:3]), good.G[:1], good.G[..., :2],
              good.G.transpose(0, 2, 1), good.G[0]):
        with pytest.raises(ValueError):
            NetworkSnapshot(H_d=good.H_d, G=G, P_t=good.P_t, sigma2=1.0,
                            beta=1.0)


def test_combined_channel_rejects_non_unit_reflections():
    rng = np.random.default_rng(2)
    snap = random_snapshot(rng)
    with pytest.raises(ValueError):
        combined_channel(snap, 2.0 * unit_q(rng, snap.N))
    with pytest.raises(ValueError, match="reflection length"):
        combined_channel(snap, unit_q(rng, snap.N + 1))   # one per element


def test_combined_channel_over_the_tensor_matches_per_iot_rows():
    rng = np.random.default_rng(8)
    snap = random_snapshot(rng, N=6, M=3, I=4)
    Q = np.stack([unit_q(rng, snap.N) for _ in range(5)])
    rows = combined_channel(snap, Q)
    assert rows.shape == (5, snap.I, snap.M)
    for k in range(5):
        assert np.allclose(combined_channel(snap, Q[k]),
                           rows[k], rtol=1e-12, atol=0.0)
        for i in range(snap.I):
            want = snap.direct_rows[i] + Q[k] @ snap.G[i]
            assert np.allclose(rows[k, i], want, rtol=1e-12, atol=0.0)


@given(st.integers(0, 2 ** 32 - 1))
def test_capacity_matches_quadratic_objective(seed):
    """The capacity evaluated channel-wise equals the homogenized form."""
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng)
    q = unit_q(rng, snap.N)
    obj = build_D(snap)
    direct = sum(snap.P_t[i] * np.sum(np.abs(
        snap.direct_rows[i] + q @ snap.G[i]) ** 2) for i in range(snap.I))
    assert reflection_objective(obj, q) == pytest.approx(direct, rel=1e-9)
    assert sum_capacity(snap, q) == pytest.approx(
        snap.beta * math.log2(1.0 + direct / snap.sigma2), rel=1e-12)


def test_direct_capacity_drops_the_ris_term():
    snap = random_snapshot(np.random.default_rng(3))
    total = sum(snap.P_t[i] * np.sum(np.abs(snap.direct_rows[i]) ** 2)
                for i in range(snap.I))
    assert direct_capacity(snap) == pytest.approx(
        snap.beta * math.log2(1.0 + total / snap.sigma2), rel=1e-12)


def test_aligned_bound_single_antenna_only():
    rng = np.random.default_rng(4)
    snap = random_snapshot(rng, N=4, M=1, I=2)
    total = 0.0
    for i in range(snap.I):
        aligned = abs(snap.H_d[0, i]) + np.sum(np.abs(snap.G[i][:, 0]))
        total += snap.P_t[i] * aligned ** 2
    assert aligned_capacity_bound(snap) == pytest.approx(
        snap.beta * math.log2(1.0 + total / snap.sigma2), rel=1e-12)
    with pytest.raises(ValueError):
        aligned_capacity_bound(random_snapshot(rng, M=2))


def test_aligned_bound_dominates_any_reflection():
    rng = np.random.default_rng(5)
    snap = random_snapshot(rng, N=6, M=1, I=3)
    bound = aligned_capacity_bound(snap)
    for _ in range(50):
        assert sum_capacity(snap, unit_q(rng, snap.N)) <= bound + 1e-12
