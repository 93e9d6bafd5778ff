"""The benchmark's workloads: scenario INI contents and the CLI arguments of
each round, all derived from the workload seed.

Every scenario key the checks depend on is written out in the INI, so the
reference computations in oracle.py read the same numbers the program loads
and never the program's defaults.
"""

from __future__ import annotations

import numpy as np

ENERGY = {"eta_pto": 0.5, "eta_conv": 0.9, "gamma_cwr": 0.082,
          "capture_width_m": 2.0, "rho_kg_m3": 1025.0, "gravity_m_s2": 9.81,
          "p_0_w": 5.0, "p_max_w": 100.0}
RADIO = {"beta_hz": 5e6, "sigma2_dbw": -131.0}
PATHLOSS = {"f_c_hz": 5.8e9, "k_nlos_db": 130.6, "alpha_nlos": 2.1,
            "d_0_m": 1.0}

# Criterion 6's scenario: many ADMM iterations on small matrices.
SCALED = {
    "scenario": {"sea_state": 6, "interval_duration_s": 0.1},
    "geometry": {"mean_iot_count": 4.0, "rx_mast_m": 5.0},
    "radio": {"m_antennas": 4, "n_elements": 64, **RADIO},
    "energy": ENERGY,
    "optimizer": {"sdp_tol": 1e-4, "sdp_max_iter": 300,
                  "randomization_draws": 40},
}

# The paper's full array at criterion 7's solver budget: LAPACK-bound eigh
# at 361 x 361, plus sounding and LS work that grows with N.
FULL = {
    "scenario": {"sea_state": 5, "interval_duration_s": 0.1},
    "geometry": {"mean_iot_count": 4.0, "rx_mast_m": 5.0},
    "radio": {"m_antennas": 8, "n_elements": 360, **RADIO},
    "energy": ENERGY,
    "optimizer": {"sdp_tol": 1e-4, "sdp_max_iter": 120,
                  "randomization_draws": 40},
}

# Geometry tables only: no solver, estimation or channel synthesis.
TABLES = {
    "geometry": {"iot_mast_m": 2.0, "rx_mast_m": 5.0},
    "radio": PATHLOSS,
}

TABLE_STATES = (3, 4, 5, 6, 7, 8)
TABLE_HEIGHTS = (2.0, 5.0, 10.0, 20.0, 30.0)
LOS_SAMPLES = 100_000
PATHLOSS_POINTS = 100_000

WORKLOADS = {
    # kind, scenario, trials per sweep round (interval workloads)
    "scaled": ("interval", SCALED, 8),
    "full": ("interval", FULL, 1),
    "tables": ("tables", TABLES, None),
}


def ini_text(scenario) -> str:
    lines = []
    for section, keys in scenario.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def round_seed(seed: int, r: int) -> int:
    """Seed of round r: distinct inputs per round, the same for every run."""
    return seed * 1000 + r


def pathloss_range(seed: int):
    """Distance span of the pathloss table, drawn from the workload seed."""
    rng = np.random.default_rng([seed, 7])
    d_min = float(np.round(rng.uniform(20.0, 100.0), 3))
    return d_min, float(np.round(d_min + rng.uniform(1500.0, 2500.0), 3))


def table_items(what: str) -> int:
    """LoS evaluations of one los-prob call, or points of one pathloss call."""
    if what == "los-prob":
        return len(TABLE_STATES) * len(TABLE_HEIGHTS) * LOS_SAMPLES
    return PATHLOSS_POINTS


def round_commands(name: str, ini: str, seed: int, r: int, out_stem: str):
    """The CLI argument lists of round r, each one operation or one sweep,
    with the path each writes and what it produces."""
    kind, _, trials = WORKLOADS[name]
    s = round_seed(seed, r)
    if kind == "interval":
        out = f"{out_stem}-sweep.csv"
        return [(["sweep", "--config", ini, "--var", "hr0", "--values", "5",
                  "--trials", str(trials), "--seed", str(s), "--jobs", "1",
                  "--out", out], out, "sweep")]
    d_min, d_max = pathloss_range(seed)
    los_out, pl_out = f"{out_stem}-los.csv", f"{out_stem}-pathloss.csv"
    return [
        (["los-prob", "--config", ini,
          "--states", ",".join(str(v) for v in TABLE_STATES),
          "--heights", ",".join(repr(v) for v in TABLE_HEIGHTS),
          "--samples", str(LOS_SAMPLES), "--seed", str(s), "--out", los_out],
         los_out, "los-prob"),
        (["pathloss", "--config", ini, "--d-min", repr(d_min),
          "--d-max", repr(d_max), "--points", str(PATHLOSS_POINTS),
          "--out", pl_out], pl_out, "pathloss"),
    ]
