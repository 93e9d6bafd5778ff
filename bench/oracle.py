"""Reference computations made apart from marisim, and the output checks
built on them. Each check returns a list of failure messages."""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# Sea-state table: mean crest-to-trough wave height (m) and mean period (s).
SEA_STATES = {2: (0.3, 7.0), 3: (0.875, 8.0), 4: (1.875, 9.0),
              5: (3.25, 10.0), 6: (5.0, 12.0), 7: (7.5, 14.0),
              8: (11.5, 17.0)}

REL_TOL = 1e-9
# marisim writes free-space loss with the rounded intercept -147.55 dB, where
# 20 log10(4 pi / c) is -147.5522 dB.
FREE_SPACE_TOL_DB = 5e-3


def harvested_power(sea_state: int, e) -> float:
    """eta_pto eta_conv gamma W rho g^2 a^2 T / (64 pi), with a = H / 2."""
    height, period = SEA_STATES[sea_state]
    a = height / 2.0
    return (e["eta_pto"] * e["eta_conv"] * e["gamma_cwr"] * e["capture_width_m"]
            * e["rho_kg_m3"] * e["gravity_m_s2"] ** 2 * a * a * period
            / (64.0 * math.pi))


def tx_power(sea_state: int, e) -> float:
    return max(0.0, min(harvested_power(sea_state, e) - e["p_0_w"],
                        e["p_max_w"]))


def overhead(n_elements: int, pilot_len: int, beta: float, tau: float) -> float:
    """1 - (B + 2) T / (beta tau) with B = N sub-frames."""
    return max(0.0, 1.0 - (n_elements + 2) * pilot_len / (beta * tau))


def received_power(H_d, G, P, q=None) -> float:
    """sum_i P_i ||h_i + q G_i||^2, h_i the conjugated column i of H_d."""
    rows = np.asarray(H_d).conj().T
    if q is not None:
        rows = rows + np.einsum("n,inm->im", q, np.asarray(G))
    return float(np.sum(np.asarray(P) * np.sum(np.abs(rows) ** 2, axis=1)))


def sum_rate(H_d, G, P, q, beta: float, sigma2: float) -> float:
    """beta log2(1 + sum_i P_i ||h_i + q G_i||^2 / sigma2); q None drops the
    RIS term."""
    return beta * math.log2(1.0 + received_power(H_d, G, P, q) / sigma2)


def free_space_db(d, f_c: float):
    return 20.0 * np.log10(4.0 * math.pi * np.asarray(d) * f_c / SPEED_OF_LIGHT)


def nlos_db(d, K: float, alpha: float, d_0: float):
    return K + 10.0 * alpha * np.log10(np.asarray(d) / d_0)


def _close(got, want, rel=REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def check_interval(rec, cap, scenario) -> list:
    """One coherence interval: its TrialRecord and what the capture hooks saw
    (harvested power, true channels with the scored reflection, estimated
    channels with the chosen reflection)."""
    errors = []
    sc, radio, e = (scenario["scenario"], scenario["radio"],
                    scenario["energy"])
    state = sc["sea_state"]
    count = len(rec.powers)
    if not _close(cap["harvested"], harvested_power(state, e)):
        errors.append(f"harvested power {cap['harvested']!r}")
    want_tx = tx_power(state, e) if count else 0.0
    if not _close(rec.tx_power_w, want_tx):
        errors.append(f"tx_power_w {rec.tx_power_w!r} != {want_tx!r}")
    pilot_len = max(round(scenario["geometry"]["mean_iot_count"]), count)
    want_oh = overhead(radio["n_elements"], pilot_len, radio["beta_hz"],
                       sc["interval_duration_s"])
    if not _close(rec.overhead, want_oh):
        errors.append(f"overhead {rec.overhead!r} != {want_oh!r}")
    if rec.rank_failure:
        errors.append("cascaded estimate reported rank failure")
    if "true" not in cap:
        if count and rec.tx_power_w > 0:
            errors.append("interval with IoTs was never scored")
        elif rec.c_ris != 0.0 or rec.c_noris != 0.0:
            errors.append("interval without IoTs has a nonzero rate")
        return errors

    snap, q = cap["true"]
    beta, sigma2 = radio["beta_hz"], 10.0 ** (radio["sigma2_dbw"] / 10.0)
    G = np.stack(snap.G)
    if not np.allclose(snap.P_t, want_tx, rtol=REL_TOL, atol=0.0):
        errors.append("scored snapshot powers differ from the budget")
    c_ris = sum_rate(snap.H_d, G, snap.P_t, q, beta, sigma2)
    c_noris = sum_rate(snap.H_d, G, snap.P_t, None, beta, sigma2)
    if not _close(rec.c_ris, c_ris):
        errors.append(f"c_ris {rec.c_ris!r} != {c_ris!r}")
    if not _close(rec.c_noris, c_noris):
        errors.append(f"c_noris {rec.c_noris!r} != {c_noris!r}")
    if not (_close(rec.rate_ris, want_oh * c_ris)
            and _close(rec.rate_noris, want_oh * c_noris)):
        errors.append("effective rates are not overhead times capacity")

    est, chosen = cap["estimated"]
    if not np.array_equal(chosen, q):
        errors.append("scored reflection is not the optimizer's choice")
    if np.max(np.abs(np.abs(q) - 1.0)) > REL_TOL:
        errors.append("chosen reflection is not unit modulus")
    G_est = np.stack(est.G)
    value = received_power(est.H_d, G_est, est.P_t, q)
    ones = np.ones(len(q), dtype=complex)
    floor = max(received_power(est.H_d, G_est, est.P_t, ones),
                received_power(est.H_d, G_est, est.P_t, -ones))
    if value < floor * (1.0 - REL_TOL):
        errors.append(f"estimated objective {value!r} below +/-ones {floor!r}")
    return errors


def check_sweep_row(row, rates, trials: int) -> list:
    """The sweep's output row against the checked per-interval rates."""
    errors = []
    if int(row["trials"]) != trials or len(rates) != trials:
        errors.append(f"row reports {row['trials']} trials, {len(rates)} ran")
        return errors
    for column, idx in (("mean_rate_ris", 0), ("mean_rate_noris", 1)):
        want = float(np.mean([r[idx] for r in rates]))
        if not _close(float(row[column]), want, 1e-12):
            errors.append(f"{column} {row[column]!r} != {want!r}")
    return errors


def check_los_table(rows, states, heights) -> list:
    """LoS probabilities: in [0, 1], non-decreasing in height, criterion 4's
    bounds (state 3 at 2 m >= 0.99, state 8 at 30 m < 1)."""
    prob = {(int(r["sea_state"]), float(r["h_r0_m"])): float(r["los_prob"])
            for r in rows}
    want = {(s, h) for s in states for h in heights}
    if set(prob) != want or len(rows) != len(want):
        return [f"table has {len(rows)} rows, expected {len(want)}"]
    errors = [f"probability {p!r} outside [0, 1] at {k}"
              for k, p in prob.items() if not 0.0 <= p <= 1.0]
    for s in states:
        for lo, hi in zip(heights, heights[1:]):
            if prob[(s, hi)] < prob[(s, lo)]:
                errors.append(f"state {s}: LoS falls from {lo} m to {hi} m")
    if 3 in states and 2.0 in heights and prob[(3, 2.0)] < 0.99:
        errors.append(f"state 3 at 2 m: {prob[(3, 2.0)]!r} < 0.99")
    if 8 in states and 30.0 in heights and not prob[(8, 30.0)] < 1.0:
        errors.append("state 8 at 30 m is always LoS")
    return errors


def check_pathloss_table(rows, d_min, d_max, points, p) -> list:
    """Free-space and NLoS columns against their formulas, NLoS above free
    space, and the distance grid itself."""
    if len(rows) != points:
        return [f"table has {len(rows)} rows, expected {points}"]
    d = np.array([float(r["d_m"]) for r in rows])
    fs = np.array([float(r["free_space_db"]) for r in rows])
    nlos = np.array([float(r["nlos_db"]) for r in rows])
    los = np.array([float(r["los_db"]) for r in rows])
    errors = []
    if not np.allclose(d, np.linspace(d_min, d_max, points), rtol=1e-12,
                       atol=0.0):
        errors.append("distance grid differs from the requested span")
    if np.max(np.abs(fs - free_space_db(d, p["f_c_hz"]))) > FREE_SPACE_TOL_DB:
        errors.append("free-space column off 20 log10(4 pi d f_c / c)")
    want = nlos_db(d, p["k_nlos_db"], p["alpha_nlos"], p["d_0_m"])
    if not np.allclose(nlos, want, rtol=REL_TOL, atol=0.0):
        errors.append("NLoS column off K + 10 alpha log10(d / d_0)")
    if not np.all(nlos > fs):
        errors.append("NLoS loss not above free space")
    if not np.all(np.isfinite(los)):
        errors.append("LoS column not finite")
    return errors


def check_noiseless_estimation(estimation, ris_system, N, M, I, seed) -> list:
    """Noiseless two-stage LS at the workload's own N and M recovers random
    channels to 1e-9 relative error."""
    rng = np.random.default_rng([seed, N, M])
    H_d = rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I))
    G = tuple(rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
              for _ in range(I))
    snap = ris_system.NetworkSnapshot(H_d=H_d, G=G,
                                      P_t=rng.uniform(0.5, 2.0, I),
                                      sigma2=1.0, beta=1.0)
    pilots = estimation.make_orthogonal_pilots(I, I, snap.P_t)
    sched = estimation.make_reflection_schedule(N, N)
    Y0 = estimation.simulate_pilot_rx(snap, sched.q0, pilots, None)
    Y1 = estimation.simulate_pilot_rx(snap, sched.q1, pilots, None)
    Yb = [estimation.simulate_pilot_rx(snap, sched.scheduled_reflection(b),
                                       pilots, None) for b in range(N)]
    H_hat = estimation.estimate_direct(Y0, Y1, pilots)
    G_hat = np.stack(estimation.estimate_cascaded(Yb, pilots, H_hat, sched))
    err_h = np.linalg.norm(H_hat - H_d) / np.linalg.norm(H_d)
    err_g = np.linalg.norm(G_hat - np.stack(G)) / np.linalg.norm(np.stack(G))
    if max(err_h, err_g) < 1e-9:
        return []
    return [f"noiseless estimation error {err_h:.2e} / {err_g:.2e}"]
