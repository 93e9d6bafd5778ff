"""Acceptance gate: end-to-end checks of the simulator against its contract.

Each test records one pass/fail line (printed in the terminal summary) and
then asserts, so a red criterion is visible both ways. Numbered criteria:

 1 noiseless estimation recovers every channel exactly
 2 relaxation-based optimizer is near the exhaustive-search optimum
 3 single-antenna capacity reaches the perfect-alignment bound
 4 LoS probability trends with sea state and receiver mast height
 5 two-ray boundary arithmetic and NLoS-above-free-space ordering
 6 with-RIS over without-RIS mean effective rate at the scaled scenario
 7 diminishing marginal rate gain per added RIS element
 8 energy-chain oracle and the power-limited calm-sea regime
 9 byte-identical results for identical config and seed
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from marisim import channel, energy, estimation, optimizer, ris_system
from marisim.config import (
    GeometryConfig,
    RadioConfig,
    ScenarioConfig,
    apply_sweep_value,
)
from marisim.harness import RESULT_COLUMNS, run_cell, run_sweep
from marisim.optimizer import OptimizerConfig
from marisim.sea_surface import sea_state
from marisim.tables import format_table, los_probability_table, write_blocks
from oracles import aligned_capacity_bound, brute_force_phases


def random_snapshot(rng, N, M, I):
    Hd = rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I))
    G = tuple(rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
              for _ in range(I))
    P_t = rng.uniform(0.5, 2.0, I)
    return ris_system.NetworkSnapshot(H_d=Hd, G=G, P_t=P_t, sigma2=1.0,
                                      beta=1.0)


def rel_err(est, truth) -> float:
    est, truth = np.asarray(est), np.asarray(truth)
    return float(np.linalg.norm(est - truth) / np.linalg.norm(truth))


def test_criterion_1_noiseless_estimation_is_exact(criterion):
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1001)
    for _ in range(100):
        N = int(rng.integers(1, 17))
        M = int(rng.integers(1, 5))
        I = int(rng.integers(1, 5))
        snap = random_snapshot(rng, N, M, I)
        pilots = estimation.make_orthogonal_pilots(I, I, snap.P_t)
        sched = estimation.make_reflection_schedule(N, N)
        Y0 = estimation.simulate_pilot_rx(snap, sched.q0, pilots, None)
        Y1 = estimation.simulate_pilot_rx(snap, sched.q1, pilots, None)
        Yb = [estimation.simulate_pilot_rx(snap, sched.scheduled_reflection(b),
                                           pilots, None)
              for b in range(sched.B)]
        Hd_hat = estimation.estimate_direct(Y0, Y1, pilots)
        G_hat = estimation.estimate_cascaded(Yb, pilots, Hd_hat, sched)
        worst = max(worst, rel_err(Hd_hat, snap.H_d),
                    rel_err(np.stack(G_hat), np.stack(snap.G)))
    elapsed = time.perf_counter() - t0
    criterion(1, worst < 1e-9 and elapsed < 10.0,
              f"worst relative error {worst:.2e} over 100 noiseless "
              f"instances (< 1e-9), {elapsed:.1f} s (< 10 s)")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_optimizer_near_exhaustive_search(criterion):
    t0 = time.perf_counter()
    cfg = OptimizerConfig()
    worst_ratio = np.inf
    worst_gap = np.inf
    rng = np.random.default_rng(1002)
    for k in range(50):
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 3))
        I = int(rng.integers(1, 3))
        snap = random_snapshot(rng, N, M, I)
        q_bf, c_bf = brute_force_phases(snap, levels=16)
        obj = optimizer.build_D(snap)
        bf_objective = optimizer.reflection_objective(obj, q_bf)
        _, c_star, sol = optimizer.optimize_phases(
            snap, cfg, np.random.default_rng([1002, k]))
        worst_ratio = min(worst_ratio, c_star / c_bf)
        worst_gap = min(worst_gap, sol.objective - bf_objective)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio >= 0.95 and worst_gap >= -1e-6 and elapsed < 60.0
    criterion(2, ok,
              f"worst capacity ratio {worst_ratio:.4f} (>= 0.95), worst "
              f"relaxation gap {worst_gap:+.2e} (>= -1e-6) over 50 "
              f"instances, {elapsed:.1f} s (< 60 s)")
    assert worst_ratio >= 0.95
    assert worst_gap >= -1e-6
    assert elapsed < 60.0


def test_criterion_3_single_antenna_alignment_bound(criterion):
    t0 = time.perf_counter()
    cfg = OptimizerConfig()
    worst = 0.0
    for k, N in enumerate((1, 2, 4)):
        rng = np.random.default_rng([1003, k])
        snap = random_snapshot(rng, N, M=1, I=1)
        bound = aligned_capacity_bound(snap)
        _, c_star, _ = optimizer.optimize_phases(snap, cfg, rng)
        worst = max(worst, abs(c_star - bound) / bound)
    elapsed = time.perf_counter() - t0
    criterion(3, worst <= 1e-4 and elapsed < 5.0,
              f"worst relative gap to the alignment bound {worst:.2e} "
              f"(<= 1e-4) for N in (1, 2, 4), {elapsed:.1f} s (< 5 s)")
    assert worst <= 1e-4
    assert elapsed < 5.0


def test_criterion_4_los_probability_trends(criterion):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(seed=0)
    states = [2, 3, 4, 5, 6, 7, 8]
    heights = [2.0, 5.0, 10.0, 20.0, 30.0]
    table = los_probability_table(cfg, states, heights, samples=10_000)
    prob = dict(zip(zip(table["sea_state"].tolist(), table["h_r0_m"].tolist()),
                    table["los_prob"].tolist()))
    monotone = all(prob[(s, a)] <= prob[(s, b)] + 1e-12
                   for s in states for a, b in zip(heights, heights[1:]))
    elapsed = time.perf_counter() - t0
    ok = (prob[(3, 2.0)] >= 0.99 and prob[(8, 30.0)] < 1.0 and monotone
          and elapsed < 10.0)
    criterion(4, ok,
              f"state 3 at 2 m {prob[(3, 2.0)]:.4f} (>= 0.99), state 8 at "
              f"30 m {prob[(8, 30.0)]:.4f} (< 1; state 7 saturates at "
              f"{prob[(7, 30.0)]:.4f}), monotone in height {monotone}, "
              f"{elapsed:.1f} s (< 10 s)")
    assert prob[(3, 2.0)] >= 0.99
    assert prob[(8, 30.0)] < 1.0
    assert monotone
    assert elapsed < 10.0


def test_criterion_5_pathloss_boundary_and_ordering(criterion):
    t0 = time.perf_counter()
    p = channel.PathLossParams()
    boundary = channel.two_ray_boundary(2.0, 5.0, p)
    ordered = all(
        channel.path_loss_nlos(d, p, 0.0)
        > channel.path_loss_free_space(d, p.f_c)
        for d in np.linspace(100.0, 1000.0, 101))
    elapsed = time.perf_counter() - t0
    ok = (abs(boundary - 773.8687008597127) <= 1e-9 * boundary
          and abs(boundary - 773.9) < 0.05 and ordered and elapsed < 1.0)
    criterion(5, ok,
              f"two-ray boundary {boundary:.4f} m (773.9 +- 0.05), NLoS above "
              f"free space on [100, 1000] m {ordered}, {elapsed:.2f} s (< 1 s)")
    assert abs(boundary - 773.8687008597127) <= 1e-9 * boundary
    assert abs(boundary - 773.9) < 0.05
    assert ordered
    assert elapsed < 1.0


def test_criterion_6_ris_rate_advantage_at_scaled_scenario(criterion):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        sea_state=6,
        geometry=GeometryConfig(mean_iot_count=4.0),   # rx mast 5 m default
        radio=RadioConfig(m_antennas=4, n_elements=64),
        optimizer=OptimizerConfig(sdp_tol=1e-4, sdp_max_iter=300,
                                  randomization_draws=40),
        seed=6,
    )
    records = run_cell(cfg, trials=200, cell_idx=0)
    ratio = (np.mean([r.rate_ris for r in records])
             / np.mean([r.rate_noris for r in records]))
    elapsed = time.perf_counter() - t0
    criterion(6, ratio >= 1.20 and elapsed < 600.0,
              f"with-RIS / without-RIS mean effective rate {ratio:.4f} "
              f"(>= 1.20 required), 200 trials, {elapsed:.0f} s (< 600 s)")
    assert elapsed < 600.0
    assert ratio >= 1.20


def test_criterion_7_diminishing_returns_per_element(criterion):
    t0 = time.perf_counter()
    Ns = (40, 80, 120, 240)
    rates = {}
    for N in Ns:
        cfg = ScenarioConfig(
            sea_state=5,
            radio=RadioConfig(m_antennas=8, n_elements=N),
            optimizer=OptimizerConfig(sdp_tol=1e-4, sdp_max_iter=120,
                                      randomization_draws=40),
            seed=11,
        )
        # same (scenario seed, cell, trial) streams across N: paired common
        # random numbers isolate the element-count effect
        recs = run_cell(cfg, trials=200, cell_idx=0)
        rates[N] = np.array([r.rate_ris for r in recs])
    gains = [float(np.mean(rates[b] - rates[a])) / (b - a)
             for a, b in zip(Ns, Ns[1:])]
    decreasing = all(x > y for x, y in zip(gains, gains[1:]))
    elapsed = time.perf_counter() - t0
    criterion(7, decreasing and elapsed < 900.0,
              "marginal gain per element "
              + " -> ".join(f"{g:.3e}" for g in gains)
              + f" bit/s, strictly decreasing {decreasing}, "
              f"{elapsed:.0f} s (< 900 s)")
    assert decreasing
    assert elapsed < 900.0


def test_criterion_8_energy_chain_and_calm_sea_regime(criterion):
    t0 = time.perf_counter()
    p = energy.WecParams()
    state = sea_state(4)
    harvested = energy.harvested_power(state.height_mean / 2.0,
                                       state.period_mean, p)
    oracle = 286.40029273441723
    chain_err = abs(harvested - oracle) / oracle

    cfg = ScenarioConfig(
        sea_state=2,
        geometry=GeometryConfig(mean_iot_count=4.0),
        radio=RadioConfig(m_antennas=2, n_elements=16),
        optimizer=OptimizerConfig(sdp_tol=1e-4, sdp_max_iter=150,
                                  randomization_draws=20),
        seed=8,
    )
    means = []
    for p_max in (10.0, 100.0):
        recs = run_cell(apply_sweep_value(cfg, "pmax", p_max),
                        trials=20, cell_idx=0)
        means.append(np.mean([r.rate_ris for r in recs]))
    change = abs(means[1] - means[0]) / means[0]
    elapsed = time.perf_counter() - t0
    ok = chain_err <= 1e-9 and change < 0.05 and elapsed < 300.0
    criterion(8, ok,
              f"harvested-power oracle error {chain_err:.2e} (<= 1e-9), calm-"
              f"sea rate change {change:.2%} for P_max 10 -> 100 W (< 5%), "
              f"{elapsed:.0f} s (< 300 s)")
    assert chain_err <= 1e-9
    assert change < 0.05
    assert elapsed < 300.0


def test_criterion_9_byte_identical_results(criterion, tmp_path):
    cfg = ScenarioConfig(
        sea_state=5,
        geometry=GeometryConfig(mean_iot_count=2.0),
        radio=RadioConfig(m_antennas=2, n_elements=8),
        optimizer=OptimizerConfig(sdp_tol=1e-4, sdp_max_iter=150,
                                  randomization_draws=15),
        seed=9,
    )
    blobs = []
    for run, jobs in enumerate((1, 1, 2)):
        table = run_sweep(cfg, "hr0", [5.0, 7.0], trials=2, n_jobs=jobs)
        path = tmp_path / f"run{run}.csv"
        write_blocks(format_table(table, "csv"), path)
        blobs.append(path.read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    criterion(9, identical,
              "repeat and 2-worker sweeps byte-identical: "
              f"{identical} ({len(blobs[0])} bytes)")
    assert identical
