"""SDP relaxation, randomized rounding, and the brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marisim import optimizer
from marisim.optimizer import (
    HomogenizedObjective,
    OptimizerConfig,
    build_D,
    optimize_phases,
    randomize,
    reflection_objective,
    solve_sdp,
)
from marisim.ris_system import NetworkSnapshot, direct_capacity, sum_capacity
from oracles import brute_force_phases, relaxed_matrix

# D = w w^H = [[1, i], [-i, 1]] with w = [1, -i]: optimum 4 at q = -i
HAND_D = HomogenizedObjective(W=[[1.0], [-1.0j]], p=[1.0])


def random_snapshot(rng, N, M, I, sigma2=1.0, beta=1.0):
    Hd = rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I))
    G = tuple(rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
              for _ in range(I))
    P_t = rng.uniform(0.5, 2.0, I)
    return NetworkSnapshot(H_d=Hd, G=G, P_t=P_t, sigma2=sigma2, beta=beta)


def dense(obj):
    """D = W diag(p) W^H, formed only as the tests' reference."""
    return (obj.W * obj.p) @ obj.W.conj().T


def test_build_d_shape_and_hermitian_psd():
    rng = np.random.default_rng(0)
    snap = random_snapshot(rng, N=6, M=3, I=2)
    obj = build_D(snap)
    assert obj.N == 6 and obj.W.shape == (7, 6)
    assert np.array_equal(obj.p, np.repeat(snap.P_t, 3))
    # the factor carries D = sum_i P_i W_i W_i^H, W_i = [G_i; h_i]
    blocks = [np.vstack([snap.G[i], snap.H_d[:, i].conj()]) for i in range(2)]
    D = dense(obj)
    want = sum(P * Wi @ Wi.conj().T for P, Wi in zip(snap.P_t, blocks))
    assert D == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert np.max(np.abs(D - D.conj().T)) <= 1e-12 * np.max(np.abs(D))
    evals = np.linalg.eigvalsh(D)
    assert evals.min() >= -1e-10 * evals.max()


def test_build_d_validation():
    # build_D reads a NetworkSnapshot, whose shape and power checks are
    # covered by test_snapshot_validation
    with pytest.raises(ValueError):
        HomogenizedObjective(W=np.ones((3, 2)), p=np.ones(3))


def test_hand_instance_solves_to_known_optimum():
    obj = HAND_D
    sol = solve_sdp(obj, tol=1e-9, max_iter=20000)
    assert sol.converged
    assert sol.objective == pytest.approx(4.0, abs=1e-5)
    # relaxed iterate obeys the constraint set up to solver tolerance
    assert np.max(np.abs(np.diag(relaxed_matrix(sol)).real - 1.0)) < 1e-8
    assert np.linalg.eigvalsh(relaxed_matrix(sol)).min() > -1e-8
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
    obj = build_D(snap)
    sol = solve_sdp(obj, tol=1e-8, max_iter=5000)
    q_bf, _ = brute_force_phases(snap, levels=16)
    brute = reflection_objective(obj, q_bf)
    rounded = reflection_objective(obj, randomize(sol, 100, obj, rng))
    assert sol.objective >= brute - 1e-6 * max(1.0, abs(brute))
    assert sol.objective >= rounded - 1e-6 * max(1.0, abs(rounded))


def assert_certificate_holds(obj, sol, tol, exact=True):
    """Check the k x k certificate against a dense eigvalsh of
    diag(lam) - D, lam_i = Re(D V)_ii.  With no negative weight (`exact`)
    the certify decision at eps = tol |Tr(DV)| / n must be the dense one."""
    D = dense(obj)
    n = D.shape[0]
    roundoff = 1e-12 * n * max(1.0, np.max(np.abs(D)))
    lam = np.real(np.diag(D @ relaxed_matrix(sol)))
    mu = np.linalg.eigvalsh(np.diag(lam) - D)[0]
    dense_gap = -n * min(0.0, mu)
    assert sol.objective == pytest.approx(np.sum(lam), rel=1e-12, abs=roundoff)
    # the reported gap is a valid bound: diag(lam + gap / n) - D is PSD
    assert sol.gap >= dense_gap - roundoff
    eps = tol * abs(sol.objective) / n
    if sol.converged:
        assert mu >= -eps - roundoff
        assert sol.gap <= tol * abs(sol.objective) + roundoff
        if exact:   # bisection brings the gap close to the dense one
            assert sol.gap <= dense_gap + 0.01 * tol * abs(sol.objective) + roundoff
    elif exact:
        assert mu < -eps + roundoff


def test_certificate_on_criterion_2_sized_and_64_element_instances():
    rng = np.random.default_rng(1002)
    sizes = [(int(rng.integers(1, 5)), int(rng.integers(1, 3)),
              int(rng.integers(1, 3))) for _ in range(50)] + [(64, 4, 3)]
    for N, M, I in sizes:
        snap = random_snapshot(rng, N, M, I)
        obj = build_D(snap)
        sol = solve_sdp(obj, tol=1e-6, max_iter=5000)
        assert sol.converged
        assert np.diag(relaxed_matrix(sol)).real == pytest.approx(np.ones(N + 1))
        assert_certificate_holds(obj, sol, 1e-6)


def test_certificate_decision_matches_dense_eigvalsh():
    # short iteration caps stop most solves uncertified, so both decisions
    # of the k x k test are compared with the dense one
    rng = np.random.default_rng(1002)
    sizes = [(int(rng.integers(1, 5)), int(rng.integers(1, 3)),
              int(rng.integers(1, 3))) for _ in range(50)] + [(64, 4, 3)]
    decisions = set()
    for N, M, I in sizes:
        snap = random_snapshot(rng, N, M, I)
        obj = build_D(snap)
        for max_iter in (1, 2, 3, 8):
            sol = solve_sdp(obj, tol=1e-6, max_iter=max_iter)
            assert_certificate_holds(obj, sol, 1e-6)
            decisions.add(sol.converged)
    assert decisions == {True, False}


def test_iteration_cap_of_one_is_not_certified():
    rng = np.random.default_rng(65)
    snap = random_snapshot(rng, N=16, M=2, I=2)
    obj = build_D(snap)
    sol = solve_sdp(obj, tol=1e-6, max_iter=1)
    assert sol.iterations == 1 and not sol.converged
    assert sol.gap > 1e-6 * abs(sol.objective)
    assert_certificate_holds(obj, sol, 1e-6)
    with pytest.raises(ValueError):
        solve_sdp(obj, tol=1e-6, max_iter=0)


def oracle_start(n, r):
    """The start solve_sdp drew inline on every solve before it was cached,
    kept verbatim."""
    init = np.random.default_rng(0)     # fixed start, not the trial RNG
    U = init.standard_normal((n, r)) + 1j * init.standard_normal((n, r))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U


def test_cached_start_is_the_old_draw_and_read_only():
    rng = np.random.default_rng(67)
    obj = build_D(random_snapshot(rng, N=30, M=2, I=2))
    n = obj.N + 1
    r = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    start = optimizer._start(n, r)
    assert not start.flags.writeable
    with pytest.raises(ValueError):
        start[0, 0] = 0.0
    assert np.array_equal(start, oracle_start(n, r))
    # a one-iteration solve returns its own writeable copy of the start
    first = solve_sdp(obj, tol=1e-6, max_iter=1)
    assert np.array_equal(first.U, oracle_start(n, r))
    assert first.U.flags.writeable and not np.shares_memory(first.U, start)
    # longer solves write into their copy and leave the cached start alone
    a = solve_sdp(obj, tol=1e-9, max_iter=400)
    b = solve_sdp(obj, tol=1e-9, max_iter=400)
    assert a.iterations > 1
    assert optimizer._start(n, r) is start
    assert np.array_equal(start, oracle_start(n, r))
    assert np.array_equal(a.U, b.U)
    assert a.objective == b.objective and a.iterations == b.iterations


def test_start_cache_holds_a_bounded_number_of_shapes():
    maxsize = optimizer._start.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 16
    for n in range(2, maxsize + 6):
        optimizer._start(n, 2)
    assert optimizer._start.cache_info().currsize <= maxsize


def test_indefinite_objective_is_never_falsely_certified():
    rng = np.random.default_rng(66)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    # A + A^H = W diag(p) W^H from its eigendecomposition: p is signed
    p, W = np.linalg.eigh(A + A.conj().T)
    obj = HomogenizedObjective(W=W, p=p)
    assert p.min() < 0 < p.max()
    assert dense(obj) == pytest.approx(A + A.conj().T, abs=1e-12)
    for max_iter in (1, 5, 200):
        assert_certificate_holds(obj, solve_sdp(obj, 1e-6, max_iter), 1e-6,
                                 exact=False)


def test_randomize_is_deterministic_per_seed():
    obj = HAND_D
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
    obj = build_D(snap)
    obj2 = build_D(scaled)
    assert np.array_equal(obj2.W, obj.W)
    assert np.array_equal(obj2.p, 2.0 * obj.p)
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
    assert snap.G.shape == (2, 0, 3)
    # no special case: the general path solves the 1 x 1 relaxation
    q, capacity, sol = optimize_phases(snap, OptimizerConfig(), rng)
    assert q.size == 0
    assert sol.converged
    assert capacity == pytest.approx(direct_capacity(snap), rel=1e-12)


def test_direct_dominated_objective_does_not_collapse():
    # direct power concentrated in one corner entry dwarfs the RIS terms;
    # rounding under a short iteration cap must still return unit-modulus
    # phases no worse than all-ones
    N = 8
    # D = 1e-6 I on the RIS block, 1e6 in the corner and 0.3 between them:
    # unit columns carry the diagonal, and the coupling
    # 0.3 (u e^T + e u^T) = 0.15 ((u + e)(u + e)^T - (u - e)(u - e)^T)
    u, e = np.r_[np.ones(N), 0.0], np.r_[np.zeros(N), 1.0]
    W = np.column_stack([np.eye(N + 1), u + e, u - e])
    p = np.r_[np.full(N, 1e-6), 1e6, 0.15, -0.15]
    obj = HomogenizedObjective(W=W, p=p)
    D = dense(obj)
    assert D[N, N] == pytest.approx(1e6) and D[0, N] == pytest.approx(0.3)
    assert D[0, 0] == pytest.approx(1e-6) and D[0, 1] == pytest.approx(0.0)
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
