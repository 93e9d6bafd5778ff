"""SDP relaxation, randomized rounding, and the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marisim.optimizer import (
    HomogenizedObjective,
    OptimizerConfig,
    brute_force_phases,
    build_D,
    optimize_phases,
    randomize,
    reflection_objective,
    solve_sdp,
)
from marisim.ris_system import NetworkSnapshot, direct_capacity, sum_capacity

HAND_D = np.array([[1.0, 1.0j], [-1.0j, 1.0]])   # optimum 4 at q = -i


def random_snapshot(rng, N, M, I, sigma2=1.0, beta=1.0):
    Hd = rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I))
    G = tuple(rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
              for _ in range(I))
    P_t = rng.uniform(0.5, 2.0, I)
    return NetworkSnapshot(H_d=Hd, G=G, P_t=P_t, sigma2=sigma2, beta=beta)


def test_build_d_shape_and_hermitian_psd():
    rng = np.random.default_rng(0)
    snap = random_snapshot(rng, N=6, M=3, I=2)
    obj = build_D(snap.H_d, snap.G, snap.P_t)
    D = obj.D
    assert obj.N == 6 and D.shape == (7, 7)
    assert np.max(np.abs(D - D.conj().T)) <= 1e-12 * np.max(np.abs(D))
    evals = np.linalg.eigvalsh(D)
    assert evals.min() >= -1e-10 * evals.max()


def test_build_d_validation():
    rng = np.random.default_rng(1)
    snap = random_snapshot(rng, N=4, M=2, I=2)
    # ragged matrices, and tensors whose I, N or M disagrees with Hd
    for G in ((snap.G[0], snap.G[1].T), snap.G[:1], snap.G[..., :1],
              snap.G.transpose(0, 2, 1), snap.G[0]):
        with pytest.raises(ValueError):
            build_D(snap.H_d, G, snap.P_t)
    with pytest.raises(ValueError):
        build_D(snap.H_d, snap.G, -snap.P_t)
    with pytest.raises(ValueError):
        HomogenizedObjective(D=np.array([[1.0, 2.0], [3.0, 1.0]]))


def test_hand_instance_solves_to_known_optimum():
    obj = HomogenizedObjective(D=HAND_D)
    sol = solve_sdp(obj, tol=1e-9, max_iter=20000)
    assert sol.converged
    assert sol.objective == pytest.approx(4.0, abs=1e-5)
    # relaxed iterate obeys the constraint set up to solver tolerance
    assert np.max(np.abs(np.diag(sol.V).real - 1.0)) < 1e-8
    assert np.linalg.eigvalsh(sol.V).min() > -1e-8
    q = randomize(sol, 16, obj, np.random.default_rng(0))
    assert reflection_objective(obj, q) == pytest.approx(4.0, abs=1e-9)
    assert q[0] == pytest.approx(-1.0j, abs=1e-4)


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_relaxation_sandwich_on_small_instances(seed):
    """Brute force <= rounded supremum <= relaxed optimum (plus tolerance)."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    snap = random_snapshot(rng, N, M=int(rng.integers(1, 3)),
                           I=int(rng.integers(1, 3)))
    obj = build_D(snap.H_d, snap.G, snap.P_t)
    sol = solve_sdp(obj, tol=1e-8, max_iter=5000)
    q_bf, _ = brute_force_phases(snap, levels=16)
    brute = reflection_objective(obj, q_bf)
    rounded = reflection_objective(obj, randomize(sol, 100, obj, rng))
    assert sol.objective >= brute - 1e-6 * max(1.0, abs(brute))
    assert sol.objective >= rounded - 1e-6 * max(1.0, abs(rounded))


def certified_dual(obj, sol):
    """The solver's dual point y = lam - min(0, lambda_min(diag(lam) - D))
    with lam_i = Re(D V)_ii, rebuilt from the returned solution."""
    lam = np.real(np.diag(obj.D @ sol.V))
    shift = min(0.0, np.linalg.eigvalsh(np.diag(lam) - obj.D)[0])
    return lam - shift


def assert_certificate_holds(obj, sol, tol):
    y = certified_dual(obj, sol)
    roundoff = 1e-12 * obj.D.shape[0] * max(1.0, np.max(np.abs(obj.D)))
    # diag(y) - D is PSD to round-off, so sum(y) bounds the SDP optimum
    assert np.linalg.eigvalsh(np.diag(y) - obj.D)[0] >= -roundoff
    assert sol.objective == pytest.approx(np.real(np.trace(obj.D @ sol.V)),
                                          rel=1e-12, abs=roundoff)
    assert sol.gap == pytest.approx(np.sum(y) - sol.objective, abs=roundoff)
    if sol.converged:
        assert np.sum(y) - sol.objective <= tol * abs(sol.objective) + roundoff


def test_certificate_on_criterion_2_sized_and_64_element_instances():
    rng = np.random.default_rng(1002)
    sizes = [(int(rng.integers(1, 5)), int(rng.integers(1, 3)),
              int(rng.integers(1, 3))) for _ in range(50)] + [(64, 4, 3)]
    for N, M, I in sizes:
        snap = random_snapshot(rng, N, M, I)
        obj = build_D(snap.H_d, snap.G, snap.P_t)
        sol = solve_sdp(obj, tol=1e-6, max_iter=5000)
        assert sol.converged
        assert np.diag(sol.V).real == pytest.approx(np.ones(N + 1))
        assert_certificate_holds(obj, sol, 1e-6)


def test_iteration_cap_of_one_is_not_certified():
    rng = np.random.default_rng(65)
    snap = random_snapshot(rng, N=16, M=2, I=2)
    obj = build_D(snap.H_d, snap.G, snap.P_t)
    sol = solve_sdp(obj, tol=1e-6, max_iter=1)
    assert sol.iterations == 1 and not sol.converged
    assert sol.gap > 1e-6 * abs(sol.objective)
    assert_certificate_holds(obj, sol, 1e-6)
    with pytest.raises(ValueError):
        solve_sdp(obj, tol=1e-6, max_iter=0)


def test_indefinite_objective_is_never_falsely_certified():
    rng = np.random.default_rng(66)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    obj = HomogenizedObjective(D=A + A.conj().T)
    assert np.linalg.eigvalsh(obj.D)[0] < 0
    for max_iter in (1, 5, 200):
        assert_certificate_holds(obj, solve_sdp(obj, 1e-6, max_iter), 1e-6)


def test_randomize_is_deterministic_per_seed():
    obj = HomogenizedObjective(D=HAND_D)
    sol = solve_sdp(obj, tol=1e-9, max_iter=20000)
    q1 = randomize(sol, 25, obj, np.random.default_rng(42))
    q2 = randomize(sol, 25, obj, np.random.default_rng(42))
    assert np.array_equal(q1, q2)
    with pytest.raises(ValueError):
        randomize(sol, 0, obj, np.random.default_rng(0))


def test_power_scaling_rescales_objective_only():
    rng = np.random.default_rng(2)
    snap = random_snapshot(rng, N=5, M=2, I=2)
    scaled = NetworkSnapshot(H_d=snap.H_d, G=snap.G, P_t=2.0 * snap.P_t,
                             sigma2=snap.sigma2, beta=snap.beta)
    obj = build_D(snap.H_d, snap.G, snap.P_t)
    obj2 = build_D(scaled.H_d, scaled.G, scaled.P_t)
    assert np.array_equal(obj2.D, 2.0 * obj.D)
    cfg = OptimizerConfig(sdp_tol=1e-8, sdp_max_iter=5000,
                          randomization_draws=50)
    q1, _, _ = optimize_phases(snap, cfg, np.random.default_rng(9))
    q2, _, _ = optimize_phases(scaled, cfg, np.random.default_rng(9))
    # same normalized problem and same draws: same argmax, doubled value
    assert np.array_equal(q1, q2)
    assert reflection_objective(obj2, q2) == pytest.approx(
        2.0 * reflection_objective(obj, q1), rel=1e-12)


def test_optimizer_never_loses_to_direct_or_ones():
    rng = np.random.default_rng(3)
    for _ in range(20):
        snap = random_snapshot(rng, N=int(rng.integers(1, 9)),
                               M=int(rng.integers(1, 4)),
                               I=int(rng.integers(1, 4)))
        cfg = OptimizerConfig(sdp_tol=1e-6, sdp_max_iter=2000,
                              randomization_draws=30)
        q, capacity, _ = optimize_phases(snap, cfg, rng)
        assert capacity >= direct_capacity(snap) - 1e-9
        assert capacity >= sum_capacity(snap, np.ones(snap.N)) - 1e-9
        assert capacity == pytest.approx(sum_capacity(snap, q), rel=1e-12)


def test_zero_element_ris_degenerates_to_direct():
    rng = np.random.default_rng(4)
    snap = random_snapshot(rng, N=0, M=3, I=2)
    q, capacity, sol = optimize_phases(snap, OptimizerConfig(), rng)
    assert q.size == 0
    assert sol is None
    assert capacity == pytest.approx(direct_capacity(snap), rel=1e-12)


def test_direct_dominated_objective_does_not_collapse():
    # direct power concentrated in one corner entry dwarfs the RIS terms;
    # rounding under a short iteration cap must still return unit-modulus
    # phases no worse than all-ones
    N = 8
    D = np.eye(N + 1, dtype=complex) * 1e-6
    D[:N, N] = 0.3
    D[N, :N] = 0.3
    D[N, N] = 1e6
    obj = HomogenizedObjective(D=D)
    sol = solve_sdp(obj, tol=1e-4, max_iter=120)
    q = randomize(sol, 10, obj, np.random.default_rng(5))
    assert q.shape == (N,)
    assert np.abs(q) == pytest.approx(np.ones(N))
    ones_val = reflection_objective(obj, np.ones(N))
    assert reflection_objective(obj, q) >= ones_val - 1e-9 * abs(ones_val)


def test_brute_force_guard_and_trivial_levels():
    rng = np.random.default_rng(6)
    snap = random_snapshot(rng, N=3, M=2, I=1)
    q, capacity = brute_force_phases(snap, levels=1)
    assert np.array_equal(q, np.ones(3))
    assert capacity == pytest.approx(sum_capacity(snap, np.ones(3)), rel=1e-12)
    with pytest.raises(ValueError):
        brute_force_phases(random_snapshot(rng, N=16, M=1, I=1), levels=16)
    with pytest.raises(ValueError):
        brute_force_phases(snap, levels=0)
