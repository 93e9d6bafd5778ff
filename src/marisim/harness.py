"""Monte-Carlo harness: Poisson IoT deployment, the per-coherence-interval
pipeline (deploy, harvest, synthesize, estimate, optimize, evaluate), sweep
drivers, and deterministic CSV/JSON result emission.

Determinism contract: every trial owns an RNG stream seeded by the integer
triple (seed, cell index, trial index), trials are collected in index order
whatever the worker pool does, and aggregation reduces fixed-order arrays,
so identical (config, seed) inputs give byte-identical output files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from . import channel, energy, estimation, optimizer, ris_system, sea_surface
from .config import ConfigError, ScenarioConfig, SWEEP_VARIABLES, apply_sweep_value
from .sea_surface import FloatingNode

RESULT_COLUMNS = ("sweep_var", "value", "sea_state", "mean_rate_ris",
                  "std_rate_ris", "mean_rate_noris", "std_rate_noris",
                  "mean_los_prob", "mean_tx_power_w", "trials", "seed")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """Everything observed in one coherence interval."""

    interval_idx: int
    sea_state: int
    positions: np.ndarray   # (I, 2) deployed IoT positions
    powers: np.ndarray      # (I,) transmit powers, W
    los_flags: np.ndarray   # (I,) direct-link LoS indicators
    hd_error: float         # relative Frobenius estimation errors (nan if
    g_error: float          # no estimate was formed or the truth is zero)
    c_ris: float            # capacities on the true channels, bits/s
    c_noris: float
    rate_ris: float         # effective rates after pilot overhead
    rate_noris: float
    los_frac: float
    tx_power_w: float       # per-IoT available transmit power
    overhead: float
    solver_iterations: int
    solver_converged: bool
    rank_failure: bool

    def __post_init__(self):
        for name in ("c_ris", "c_noris", "rate_ris", "rate_noris"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # overhead can only shrink a rate
        if self.rate_ris > self.c_ris * (1 + 1e-12) + 1e-9:
            raise ValueError("effective rate exceeds raw capacity")
        if self.rate_noris > self.c_noris * (1 + 1e-12) + 1e-9:
            raise ValueError("effective rate exceeds raw capacity")
        if not 0.0 <= self.overhead <= 1.0:
            raise ValueError("overhead factor must lie in [0, 1]")
        if not 0.0 <= self.los_frac <= 1.0:
            raise ValueError("los_frac must lie in [0, 1]")


# Consecutive rejected positions after which the exclusion zones are taken
# to cover the deploy disk.
MAX_REDRAWS = 10_000


def deploy_iots(mean_count: float, radius: float, center, rng,
                mast_height: float = 2.0, exclusions=()) -> list:
    """Poisson-count IoT buoys uniform on a disk, re-drawing any position
    that lands inside an exclusion circle (turbine hull, receiver buoy).

    Raises ConfigError after MAX_REDRAWS consecutive rejections."""
    if not mean_count > 0 or not radius > 0:
        raise ValueError("mean_count and radius must be positive")
    count = int(rng.poisson(mean_count))
    nodes = []
    for _ in range(count):
        for _ in range(MAX_REDRAWS):
            r = radius * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pos = (center[0] + r * math.cos(ang), center[1] + r * math.sin(ang))
            if all(math.dist(pos, c) >= excl_r for c, excl_r in exclusions):
                break
        else:
            raise ConfigError(f"exclusion zones cover the deploy disk: "
                              f"{MAX_REDRAWS} positions in a row rejected")
        nodes.append(FloatingNode(position=pos, mast_height=mast_height))
    return nodes


def _exclusion_zones(cfg: ScenarioConfig):
    # keep IoTs off the turbine hull and outside the NLoS reference distance
    # of the receiver (the path-loss model is undefined closer in)
    return ((cfg.geometry.turbine_position, cfg.geometry.turbine_diameter_m / 2.0),
            (cfg.geometry.rx_position, max(1.0, cfg.radio.pathloss.d_0)))


def _zero_record(cfg, interval_idx, positions, powers, flags, overhead):
    count = len(positions)
    return TrialRecord(
        interval_idx=interval_idx, sea_state=cfg.sea_state,
        positions=np.asarray(positions, dtype=float).reshape(count, 2),
        powers=np.asarray(powers, dtype=float),
        los_flags=np.asarray(flags, dtype=bool),
        hd_error=float("nan"), g_error=float("nan"),
        c_ris=0.0, c_noris=0.0, rate_ris=0.0, rate_noris=0.0,
        los_frac=float(np.mean(flags)) if count else 0.0,
        tx_power_w=float(powers[0]) if count else 0.0,
        overhead=overhead, solver_iterations=0, solver_converged=True,
        rank_failure=False)


def _relative_error(est, truth) -> float:
    num = float(np.linalg.norm(np.asarray(est) - np.asarray(truth)))
    den = float(np.linalg.norm(np.asarray(truth)))
    return num / den if den > 0 else float("nan")


def run_coherence_interval(cfg: ScenarioConfig, interval_idx: int, rng) -> TrialRecord:
    """One block-fading interval: redraw the sea and the deployment, harvest
    power, sound the channels, optimize on the estimates, score on the truth."""
    N = cfg.radio.n_elements
    B = cfg.b_effective
    if B < N:
        raise ConfigError("b_subframes must be >= n_elements for full rank")
    state = sea_surface.sea_state(cfg.sea_state)
    wave = sea_surface.wave_from_sea_state(state, cfg.geometry.wave_source)
    t = float(rng.uniform(0.0, wave.T_wave))
    rx = FloatingNode(position=cfg.geometry.rx_position,
                      mast_height=cfg.geometry.rx_mast_m)
    iots = deploy_iots(cfg.geometry.mean_iot_count, cfg.geometry.deploy_radius_m,
                       cfg.geometry.turbine_position, rng,
                       mast_height=cfg.geometry.iot_mast_m,
                       exclusions=_exclusion_zones(cfg))
    count = len(iots)
    positions = np.array([n.position for n in iots], dtype=float).reshape(count, 2)
    batch = FloatingNode(position=positions, mast_height=cfg.geometry.iot_mast_m)

    P_e = energy.harvested_power(wave.a, wave.T_wave, cfg.energy)
    P_tx = energy.available_tx_power(P_e, cfg.energy)
    powers = np.full(count, P_tx)
    flags = sea_surface.los_state(batch, rx, wave, t)

    T = max(cfg.t_baseline, count)
    slots = cfg.radio.beta_hz * cfg.interval_duration_s
    overhead = max(0.0, 1.0 - estimation.pilot_overhead_symbols(B, T) / slots)

    if count == 0 or P_tx <= 0.0:
        return _zero_record(cfg, interval_idx, positions, powers, flags, overhead)

    p = cfg.radio.pathloss
    sigma2 = cfg.radio.sigma2_w
    ris = ris_system.make_planar_ris(N, cfg.geometry.ris_center, p.lam)
    # the RIS->receiver segment is one physical link: one shadowing draw
    # per interval, shared by every IoT's cascade; the per-IoT draws follow
    F = channel.ris_departure_matrix(ris, rx, wave, t, cfg.radio.m_antennas, p, rng)
    xi_direct, nlos_phase, xi_incident = channel.draw_link_fading(flags, p, rng)
    rows = channel.synthesize_direct_channel(batch, rx, wave, t, flags,
                                             cfg.radio.m_antennas, p,
                                             xi_direct, nlos_phase)
    Hd = np.ascontiguousarray(rows.conj().T)
    G = channel.cascade(channel.ris_incident_vector(batch, ris, wave, t, p,
                                                    xi_incident), F)
    snap = ris_system.NetworkSnapshot(H_d=Hd, G=G, P_t=powers,
                                      sigma2=sigma2, beta=cfg.radio.beta_hz)

    pilots = estimation.make_orthogonal_pilots(count, T, powers)
    sched = estimation.make_reflection_schedule(N, B)
    noise_rng = None if cfg.estimation.noiseless else rng
    Y = estimation.simulate_pilot_rx(snap, sched.reflections, pilots, noise_rng)
    Hd_hat = estimation.estimate_direct(Y[0], Y[1], pilots)
    G_hat = estimation.estimate_cascaded(Y[2:], pilots, Hd_hat, sched)
    del sched, Y   # free the N x B schedule matrix before the solver runs

    snap_est = ris_system.NetworkSnapshot(H_d=Hd_hat, G=G_hat, P_t=powers,
                                          sigma2=sigma2,
                                          beta=cfg.radio.beta_hz)
    q_star, _, sol = optimizer.optimize_phases(snap_est, cfg.optimizer, rng)

    c_ris = ris_system.sum_capacity(snap, q_star)
    c_noris = ris_system.direct_capacity(snap)
    return TrialRecord(
        interval_idx=interval_idx, sea_state=cfg.sea_state,
        positions=positions, powers=powers, los_flags=flags,
        hd_error=_relative_error(Hd_hat, Hd),
        g_error=_relative_error(G_hat, G),
        c_ris=c_ris, c_noris=c_noris,
        rate_ris=overhead * c_ris, rate_noris=overhead * c_noris,
        los_frac=float(np.mean(flags)), tx_power_w=P_tx, overhead=overhead,
        solver_iterations=0 if sol is None else sol.iterations,
        solver_converged=True if sol is None else sol.converged,
        rank_failure=False)


def _trial_worker(args) -> TrialRecord:
    cfg, cell_idx, trial_idx, seed = args
    rng = np.random.default_rng([seed, cell_idx, trial_idx])
    return run_coherence_interval(cfg, trial_idx, rng)


def run_cell(cfg: ScenarioConfig, trials: int, seed=None, cell_idx: int = 0,
             n_jobs: int = 1) -> list:
    """All trials of one sweep cell, in trial order regardless of n_jobs."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed is None:
        seed = cfg.seed
    tasks = [(cfg, cell_idx, k, seed) for k in range(trials)]
    if n_jobs <= 1:
        return [_trial_worker(a) for a in tasks]
    with multiprocessing.Pool(n_jobs) as pool:
        return pool.map(_trial_worker, tasks)


def aggregate_cell(records) -> dict:
    """Order-stable trial statistics (population std keeps one-trial cells
    finite)."""
    rate_ris = np.array([r.rate_ris for r in records])
    rate_noris = np.array([r.rate_noris for r in records])
    return {
        "mean_rate_ris": float(np.mean(rate_ris)),
        "std_rate_ris": float(np.std(rate_ris)),
        "mean_rate_noris": float(np.mean(rate_noris)),
        "std_rate_noris": float(np.std(rate_noris)),
        "mean_los_prob": float(np.mean([r.los_frac for r in records])),
        "mean_tx_power_w": float(np.mean([r.tx_power_w for r in records])),
    }


def run_sweep(cfg: ScenarioConfig, variable: str, values, trials: int,
              seed=None, sea_states=None, n_jobs: int = 1,
              flush_path=None, flush_format: str = "csv") -> list:
    """Sweep one variable over values (crossed with sea states unless the
    variable IS the sea state); returns one aggregate row per cell.

    On a per-cell failure the completed rows are flushed to flush_path (when
    given) before the error propagates.
    """
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if seed is None:
        seed = cfg.seed
    if variable == "sea":
        if sea_states is not None:
            raise ConfigError("a sea-state sweep fixes the states itself")
        cells = [(v, int(v)) for v in values]
    else:
        states = [cfg.sea_state] if sea_states is None else list(sea_states)
        cells = [(v, int(s)) for v in values for s in states]

    rows = []
    for cell_idx, (value, state) in enumerate(cells):
        cfg_cell = apply_sweep_value(cfg, variable, value)
        if cfg_cell.sea_state != state:
            cfg_cell = dataclasses.replace(cfg_cell, sea_state=state)
        try:
            records = run_cell(cfg_cell, trials, seed, cell_idx, n_jobs)
        except Exception:
            if flush_path is not None:
                emit_results(rows, flush_path, flush_format)
            raise
        row = {"sweep_var": variable, "value": value, "sea_state": state}
        row.update(aggregate_cell(records))
        row.update({"trials": trials, "seed": seed})
        rows.append(row)
    return rows


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def format_table(rows, columns, fmt: str = "csv") -> str:
    """Render rows as CSV or JSON text; floats keep full round-trip precision."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        return buf.getvalue()
    if fmt == "structured":
        ordered = [{c: row[c] for c in columns} for row in rows]
        return json.dumps(ordered, indent=2) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def emit_results(rows, path, fmt: str = "csv") -> None:
    """Write a sweep result table; I/O errors carry the path."""
    text = format_table(rows, RESULT_COLUMNS, fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


_INT_COLUMNS = {"sea_state", "trials", "seed"}


def _parse_cell(column: str, text: str):
    if column == "sweep_var":
        return text
    if column in _INT_COLUMNS:
        return int(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_results(path) -> list:
    """Parse a file produced by emit_results back into row dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "[":
            return json.load(fh)
        reader = csv.reader(fh)
        header = next(reader)
        return [{c: _parse_cell(c, v) for c, v in zip(header, row)}
                for row in reader]


def los_probability_table(cfg: ScenarioConfig, states, heights,
                          samples: int = 10_000, seed=None) -> list:
    """LoS probability of the IoT->receiver hop per (sea state, mast height)."""
    if seed is None:
        seed = cfg.seed
    tx = FloatingNode(position=cfg.geometry.turbine_position,
                      mast_height=cfg.geometry.iot_mast_m)
    rows = []
    for si, level in enumerate(states):
        state = sea_surface.sea_state(int(level))
        for hi, h in enumerate(heights):
            rx = FloatingNode(position=cfg.geometry.rx_position,
                              mast_height=float(h))
            prob = sea_surface.los_probability(state, tx, rx, samples,
                                               seed=[seed, si, hi],
                                               source=cfg.geometry.wave_source)
            rows.append({"sea_state": int(level), "h_r0_m": float(h),
                         "los_prob": prob})
    return rows


def pathloss_table(cfg: ScenarioConfig, d_values) -> list:
    """Loss of each propagation model over distance, shadowing disabled."""
    p = cfg.radio.pathloss
    d = np.asarray(d_values, dtype=float)
    below = d[d < p.d_0]
    if below.size:
        raise ConfigError(f"distance {float(below[0])} m below the NLoS "
                          f"reference {p.d_0} m")
    h_t, h_r = cfg.geometry.iot_mast_m, cfg.geometry.rx_mast_m
    columns = (d, channel.path_loss_los(d, h_t, h_r, p),
               channel.path_loss_nlos(d, p),
               channel.path_loss_free_space(d, p.f_c))
    return [{"d_m": row[0], "los_db": row[1], "nlos_db": row[2],
             "free_space_db": row[3]}
            for row in zip(*(c.tolist() for c in columns))]
