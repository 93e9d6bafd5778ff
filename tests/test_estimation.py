"""Two-stage least-squares channel estimation from pilot sub-frames."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marisim import estimation
from marisim.config import (
    EstimationConfig,
    GeometryConfig,
    RadioConfig,
    ScenarioConfig,
)
from marisim.estimation import (
    PilotBook,
    ReflectionSchedule,
    estimate_cascaded,
    estimate_direct,
    make_orthogonal_pilots,
    make_reflection_schedule,
    pilot_overhead_symbols,
    simulate_pilot_rx,
)
from marisim.harness import run_cell
from marisim.optimizer import OptimizerConfig
from marisim.ris_system import NetworkSnapshot, combined_channel


def random_snapshot(rng, N, M, I, sigma2=1.0):
    Hd = rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I))
    G = tuple(rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
              for _ in range(I))
    P_t = rng.uniform(0.5, 2.0, I)
    return NetworkSnapshot(H_d=Hd, G=G, P_t=P_t, sigma2=sigma2, beta=1.0)


def run_pipeline(snap, B, T, noise_rng=None):
    pilots = make_orthogonal_pilots(snap.I, T, snap.P_t)
    sched = make_reflection_schedule(snap.N, B)
    Y = simulate_pilot_rx(snap, sched, pilots, noise_rng)
    Hd_hat = estimate_direct(Y[0], Y[1], pilots)
    G_hat = estimate_cascaded(Y[2:], pilots, Hd_hat, sched)
    assert G_hat.shape == (snap.I, snap.N, snap.M)
    return Hd_hat, G_hat


def test_pilot_book_orthogonality():
    powers = np.array([0.7, 1.3, 2.0])
    pilots = make_orthogonal_pilots(3, 5, powers)
    assert (pilots.T, pilots.I) == (5, 3)
    S = pilots.S
    gram = S.conj().T @ S
    assert gram == pytest.approx(np.diag(powers * 5), abs=1e-12)


def test_pilot_book_requires_enough_symbols():
    with pytest.raises(ValueError):
        make_orthogonal_pilots(4, 3, np.ones(4))
    make_orthogonal_pilots(4, 4, np.ones(4))   # square book is legal
    with pytest.raises(ValueError):
        PilotBook(3, np.ones(4))
    with pytest.raises(ValueError):
        make_orthogonal_pilots(2, 2, np.array([1.0, 0.0]))


def reflection_stack(sched):
    """The (B + 2, N) reflection rows in sounding order: q0, q1, then the B
    scheduled reflections."""
    return np.array([sched.q0, sched.q1]
                    + [sched.scheduled_reflection(b) for b in range(sched.B)])


def assert_closed_form(sched):
    N, B = sched.N, sched.B
    n, b = np.arange(N)[:, None], np.arange(B)[None, :]
    Qt = reflection_stack(sched)[2:].T.conj()   # N x B, column b = q_b^H
    assert np.max(np.abs(Qt - np.exp(-2j * np.pi * n * b / B))) < 1e-12
    assert np.max(np.abs(Qt @ Qt.conj().T - B * np.eye(N))) < 1e-12


def test_reflection_schedule_structure():
    sched = make_reflection_schedule(6, 9)
    assert (sched.N, sched.B) == (6, 9)
    assert sched.q1 == pytest.approx(-sched.q0)
    assert np.abs(sched.q0) == pytest.approx(np.ones(6))
    n = np.arange(6)
    for b in range(9):
        q = sched.scheduled_reflection(b)
        assert np.abs(q) == pytest.approx(np.ones(6))
        assert q == pytest.approx(np.exp(2j * np.pi * n * b / 9))
    # the closed-form DFT schedule, also at the paper's full array
    for N, B in ((6, 9), (360, 360)):
        assert_closed_form(make_reflection_schedule(N, B))
    with pytest.raises(ValueError):
        make_reflection_schedule(6, 5)   # fewer sub-frames than elements


@pytest.mark.parametrize("N, B", [(0, 0), (0, 4), (-1, 3)])
def test_empty_schedule_is_rejected(N, B):
    with pytest.raises(ValueError, match="N >= 1"):
        make_reflection_schedule(N, B)
    with pytest.raises(ValueError, match="N >= 1"):
        ReflectionSchedule(N, B)


def test_schedule_rebuilt_after_another_n_and_b_is_the_closed_form():
    first = make_reflection_schedule(6, 9)
    rows = reflection_stack(first)
    other = make_reflection_schedule(5, 7)
    assert_closed_form(other)
    again = make_reflection_schedule(6, 9)
    assert_closed_form(again)
    assert np.array_equal(reflection_stack(again), rows)


def test_intervals_of_a_cell_share_one_schedule(monkeypatch):
    sounded = []
    sound = estimation.simulate_pilot_rx

    def spy(snap, q, pilots, rng=None):
        sounded.append(q)
        return sound(snap, q, pilots, rng)

    monkeypatch.setattr(estimation, "simulate_pilot_rx", spy)
    cfg = ScenarioConfig(
        sea_state=5, geometry=GeometryConfig(mean_iot_count=4.0),
        radio=RadioConfig(m_antennas=2, n_elements=8),
        estimation=EstimationConfig(noiseless=True),
        optimizer=OptimizerConfig(sdp_tol=1e-4, sdp_max_iter=50,
                                  randomization_draws=5),
        seed=3)
    run_cell(cfg, trials=2)
    assert len(sounded) == 2   # both intervals deployed IoTs and sounded
    assert sounded[0] == sounded[1] == make_reflection_schedule(8, 8)
    assert_closed_form(make_reflection_schedule(8, 8))


def fft_snapshot(rng, N, M=2, I=3, sigma2=1.0):
    """A random snapshot with the pilot book that sounds it (T = I + 1)."""
    snap = random_snapshot(rng, N, M, I, sigma2)
    return snap, make_orthogonal_pilots(I, I + 1, snap.P_t)


@pytest.mark.parametrize("N, B", [(5, 5), (5, 8), (360, 360)])
def test_schedule_sounding_equals_per_row_sounding(N, B):
    """Sounding the schedule through the FFT gives the blocks of sounding
    q0, q1 and every scheduled_reflection(b) through combined_channel."""
    rng = np.random.default_rng([16, N, B])
    snap, pilots = fft_snapshot(rng, N)
    sched = make_reflection_schedule(N, B)
    Y = simulate_pilot_rx(snap, sched, pilots)
    assert Y.shape == (B + 2, pilots.T, snap.M)
    ref = np.stack([pilots.S @ combined_channel(snap.direct_rows, q, snap.G)
                    for q in reflection_stack(sched)])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(Y - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("N, B", [(5, 5), (5, 8)])
def test_schedule_sounding_draws_the_stacked_noise(N, B):
    """With the same seed the schedule draws the noise of the stacked
    (B + 2, N) sounding, in the same order, and leaves the generator in the
    same state."""
    rng = np.random.default_rng([17, N, B])
    snap, pilots = fft_snapshot(rng, N, sigma2=2.0)
    sched = make_reflection_schedule(N, B)
    Q = reflection_stack(sched)
    sched_rng, stack_rng = np.random.default_rng(18), np.random.default_rng(18)
    noise = (simulate_pilot_rx(snap, sched, pilots, sched_rng)
             - simulate_pilot_rx(snap, sched, pilots))
    stacked = (simulate_pilot_rx(snap, Q, pilots, stack_rng)
               - simulate_pilot_rx(snap, Q, pilots))
    assert np.max(np.abs(noise - stacked)) <= 1e-12 * np.max(np.abs(stacked))
    assert sched_rng.bit_generator.state == stack_rng.bit_generator.state
    # each block's real then imaginary (T, M) part, at sigma2 / 2 each
    z = np.random.default_rng(18).standard_normal((B + 2, 2, pilots.T, snap.M))
    drawn = (z[:, 0] + 1j * z[:, 1]) * np.sqrt(snap.sigma2 / 2.0)
    assert np.max(np.abs(noise - drawn)) <= 1e-12 * np.max(np.abs(drawn))


def test_schedule_sounding_rejects_another_element_count():
    rng = np.random.default_rng(19)
    snap, pilots = fft_snapshot(rng, 5)
    with pytest.raises(ValueError, match="element count"):
        simulate_pilot_rx(snap, make_reflection_schedule(6, 6), pilots)


@pytest.mark.parametrize("N, B", [(5, 5), (5, 8), (360, 360)])
def test_fft_least_squares_is_the_closed_form_matched_filter(N, B):
    """Stage-two LS equals G[n] = sum_b exp(-2 pi j n b / B) u[b] / B with
    u[b, i] = s_i^H (Y_b - S Hd_hat^H) / (P_i T), built here without FFT."""
    rng = np.random.default_rng([20, N, B])
    M, I, T = 2, 3, 4
    P = rng.uniform(0.5, 2.0, I)
    pilots = make_orthogonal_pilots(I, T, P)
    Yb = rng.standard_normal((B, T, M)) + 1j * rng.standard_normal((B, T, M))
    Hd_hat = rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I))
    S = pilots.S
    u = np.einsum("ti,btm->bim", S.conj(), Yb - S @ Hd_hat.conj().T)
    u /= (P * T)[:, None]
    n, b = np.arange(N)[:, None], np.arange(B)[None, :]
    F = np.exp(-2j * np.pi * n * b / B)
    expected = np.einsum("nb,bim->inm", F, u) / B
    G_hat = estimate_cascaded(Yb, pilots, Hd_hat, make_reflection_schedule(N, B))
    assert G_hat.shape == (I, N, M)
    assert np.max(np.abs(G_hat - expected)) <= 1e-12 * np.max(np.abs(expected))


@given(st.integers(0, 2 ** 32 - 1))
def test_noiseless_recovery_is_exact(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 9))
    M = int(rng.integers(1, 4))
    I = int(rng.integers(1, 4))
    snap = random_snapshot(rng, N, M, I)
    Hd_hat, G_hat = run_pipeline(snap, B=N, T=I)
    assert np.linalg.norm(Hd_hat - snap.H_d) <= 1e-9 * np.linalg.norm(snap.H_d)
    for i in range(I):
        assert (np.linalg.norm(G_hat[i] - snap.G[i])
                <= 1e-9 * np.linalg.norm(snap.G[i]))


def test_extra_subframes_do_not_break_recovery():
    rng = np.random.default_rng(10)
    snap = random_snapshot(rng, N=5, M=2, I=3)
    Hd_hat, G_hat = run_pipeline(snap, B=8, T=4)   # B > N, T > I
    assert Hd_hat == pytest.approx(snap.H_d, rel=1e-9)
    for i in range(3):
        assert G_hat[i] == pytest.approx(snap.G[i], rel=1e-9)


def test_noise_perturbs_but_tracks_the_truth():
    rng = np.random.default_rng(11)
    snap = random_snapshot(rng, N=4, M=2, I=2, sigma2=1e-8)
    Hd_hat, G_hat = run_pipeline(snap, B=4, T=2, noise_rng=rng)
    err = np.linalg.norm(Hd_hat - snap.H_d) / np.linalg.norm(snap.H_d)
    assert 0.0 < err < 1e-3   # tiny noise, tiny but nonzero error
    for i in range(2):
        rel = np.linalg.norm(G_hat[i] - snap.G[i]) / np.linalg.norm(snap.G[i])
        assert rel < 1e-2


def test_closed_forms_are_the_least_squares_solution():
    """On a noisy, overdetermined sounding both matched filters equal the
    least-squares solution of the stacked pilot and reflection model."""
    rng = np.random.default_rng(12)
    N, M, I, B, T = 5, 2, 3, 8, 4   # B > N, T > I
    snap = random_snapshot(rng, N, M, I, sigma2=0.3)
    pilots = make_orthogonal_pilots(I, T, snap.P_t)
    sched = make_reflection_schedule(N, B)
    Y = simulate_pilot_rx(snap, sched, pilots, rng)
    S = pilots.S

    # stage one: Y0 = S (Hd^H + R), Y1 = S (Hd^H - R), R the RIS term
    A = np.block([[S, S], [S, -S]])
    X = np.linalg.lstsq(A, np.vstack([Y[0], Y[1]]), rcond=None)[0]
    Hd_hat = estimate_direct(Y[0], Y[1], pilots)
    assert np.linalg.norm(Hd_hat - X[:I].conj().T) <= 1e-10 * np.linalg.norm(X[:I])

    # stage two: Y_b - S Hd_hat^H = sum_i S[:, i] q_b G_i over the B blocks
    resid = Y[2:] - S @ Hd_hat.conj().T
    A = np.vstack([np.kron(S, sched.scheduled_reflection(b)[None, :])
                   for b in range(B)])
    G = np.linalg.lstsq(A, resid.reshape(B * T, M), rcond=None)[0]
    G = G.reshape(I, N, M)
    G_hat = estimate_cascaded(list(Y[2:]), pilots, Hd_hat, sched)
    assert np.linalg.norm(G_hat - G) <= 1e-10 * np.linalg.norm(G)


def test_stacked_sounding_equals_single_calls():
    """A (K, N) stack of reflections gives the K blocks of K single calls,
    and draws the noise in the same order from the same generator."""
    rng = np.random.default_rng(14)
    snap = random_snapshot(rng, N=5, M=2, I=3)
    pilots = make_orthogonal_pilots(3, 4, snap.P_t)
    Q = reflection_stack(make_reflection_schedule(5, 7))
    Y = simulate_pilot_rx(snap, Q, pilots)
    assert Y.shape == (9, 4, 2)
    for k in range(9):
        assert np.allclose(Y[k], simulate_pilot_rx(snap, Q[k], pilots),
                           rtol=1e-12, atol=1e-12)
    # integer channels and quarter-turn reflections make every product
    # exact, so stacked and single calls must agree to the bit
    G = rng.integers(-4, 5, (3, 5, 2)) + 1j * rng.integers(-4, 5, (3, 5, 2))
    exact = NetworkSnapshot(H_d=rng.integers(-4, 5, (2, 3)), G=G,
                            P_t=snap.P_t, sigma2=0.5, beta=1.0)
    Q = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, (6, 5))]
    for seed in (None, 15):
        stack_rng = None if seed is None else np.random.default_rng(seed)
        single_rng = None if seed is None else np.random.default_rng(seed)
        Y = simulate_pilot_rx(exact, Q, pilots, stack_rng)
        singles = [simulate_pilot_rx(exact, q, pilots, single_rng) for q in Q]
        assert np.array_equal(Y, np.stack(singles))


def test_pilot_rx_rejects_mismatched_book():
    rng = np.random.default_rng(13)
    snap = random_snapshot(rng, N=3, M=2, I=2)
    pilots = make_orthogonal_pilots(3, 3, np.ones(3))
    sched = make_reflection_schedule(3, 3)
    with pytest.raises(ValueError):
        simulate_pilot_rx(snap, sched.q0, pilots)


def test_overhead_symbol_count():
    assert pilot_overhead_symbols(360, 4) == 1448   # (B + 2) sub-frames of T
    assert pilot_overhead_symbols(1, 1) == 3
