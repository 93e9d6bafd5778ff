"""Monte-Carlo harness: Poisson IoT deployment, the per-coherence-interval
pipeline (deploy, harvest, synthesize, sound, estimate, optimize, score) and
the sweeps over it.  Each interval yields a TrialRecord of what it observed;
a sweep runs its (cell, trial) tasks through tables._ordered_map and reduces
each cell's records to one entry per RESULT_COLUMNS column, the table that
format_table writes.

Determinism contract: every trial owns an RNG stream seeded by the integer
triple (scenario seed, cell index, trial index), trials are collected in
index order whatever the process count, and aggregation reduces fixed-order
arrays, so identical configs give byte-identical output files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import (channel, energy, estimation, optimizer, ris_system, sea_surface,
               tables)
from .config import ConfigError, ScenarioConfig, apply_sweep_value, sea_level
from .sea_surface import FloatingNode
from .tables import MAX_CELLS, format_table, write_blocks

RESULT_COLUMNS = ("sweep_var", "value", "sea_state", "mean_rate_ris",
                  "std_rate_ris", "mean_rate_noris", "std_rate_noris",
                  "mean_los_prob", "mean_tx_power_w", "trials", "seed")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """What one coherence interval observed.  The effective rates, the LoS
    share and the transmit power are derived from these fields, so each
    result is held once."""

    positions: np.ndarray   # (I, 2) deployed IoT positions
    powers: np.ndarray      # (I,) transmit powers, W
    los_flags: np.ndarray   # (I,) direct-link LoS indicators
    hd_error: float         # relative Frobenius estimation errors (nan if
    g_error: float          # no estimate was formed or the truth is zero)
    c_ris: float            # capacities on the true channels, bits/s
    c_noris: float
    overhead: float         # share of the interval left after the pilots
    solver_iterations: int
    solver_converged: bool
    rank_failure: bool

    def __post_init__(self):
        for name in ("c_ris", "c_noris"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.overhead <= 1.0:
            raise ValueError("overhead factor must lie in [0, 1]")

    @property
    def rate_ris(self) -> float:     # effective rates after pilot overhead
        return self.overhead * self.c_ris

    @property
    def rate_noris(self) -> float:
        return self.overhead * self.c_noris

    @property
    def los_frac(self) -> float:     # share of direct links in LoS
        return float(np.mean(self.los_flags)) if len(self.los_flags) else 0.0

    @property
    def tx_power_w(self) -> float:   # per-IoT available transmit power
        return float(self.powers[0]) if len(self.powers) else 0.0


# Consecutive rejected positions after which the exclusion zones are taken
# to cover the deploy disk.
MAX_REDRAWS = 10_000


def deploy_iots(mean_count: float, radius: float, center, rng,
                exclusions=()) -> np.ndarray:
    """(I, 2) positions of Poisson-count IoT buoys uniform on a disk,
    re-drawing any position that lands inside an exclusion circle (turbine
    hull, receiver buoy).

    Raises ConfigError after MAX_REDRAWS consecutive rejections."""
    if not mean_count > 0 or not radius > 0:
        raise ValueError("mean_count and radius must be positive")
    count = int(rng.poisson(mean_count))
    positions = np.empty((count, 2))
    for i in range(count):
        for _ in range(MAX_REDRAWS):
            r = radius * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pos = (center[0] + r * math.cos(ang), center[1] + r * math.sin(ang))
            if all(math.dist(pos, c) >= excl_r for c, excl_r in exclusions):
                break
        else:
            raise ConfigError(f"exclusion zones cover the deploy disk: "
                              f"{MAX_REDRAWS} positions in a row rejected")
        positions[i] = pos
    return positions


# Elements any one array of an interval may hold; at this cap a complex array
# takes 268 MB.  The config caps bound each count alone, but the largest
# arrays grow with products of counts, the drawn IoT count among them.
MAX_INTERVAL_ELEMENTS = 2 ** 24

# Trials per sweep cell: a trial's record takes about 4.7 KB at the full
# scenario, so one cell's records stay under about 0.5 GB.
MAX_TRIALS = 100_000


def _check_interval_size(count: int, T: int, B: int, M: int) -> None:
    """Raise ConfigError before an interval of count IoTs, pilot length T,
    B sub-frames and M antennas allocates an array past
    MAX_INTERVAL_ELEMENTS; the sounding draws its noise as (B + 2) blocks of
    T x M."""
    for what, size in (("pilot book", T * count),
                       ("sounding blocks", (B + 2) * T * M),
                       ("solver's Schur test", (count * M) ** 2)):
        if size > MAX_INTERVAL_ELEMENTS:
            raise ConfigError(f"{count} IoTs need a {size}-element {what}, "
                              f"over the {MAX_INTERVAL_ELEMENTS} cap")


def _exclusion_zones(cfg: ScenarioConfig):
    # keep IoTs off the turbine hull and outside the NLoS reference distance
    # of the receiver (the path-loss model is undefined closer in)
    return ((cfg.geometry.turbine_position, cfg.geometry.turbine_diameter_m / 2.0),
            (cfg.geometry.rx_position, max(1.0, cfg.radio.pathloss.d_0)))


def _relative_error(est, truth) -> float:
    num = float(np.linalg.norm(np.asarray(est) - np.asarray(truth)))
    den = float(np.linalg.norm(np.asarray(truth)))
    return num / den if den > 0 else float("nan")


def run_coherence_interval(cfg: ScenarioConfig, rng) -> TrialRecord:
    """One block-fading interval: redraw the sea and the deployment, harvest
    power, sound the channels, optimize on the estimates, score on the truth.
    With no IoT or no power nothing is sounded or scored: the record has nan
    errors, zero capacities and no solver iterations.

    Here the sea meets the radio: one los_state call gives the links' LoS
    flags and both sides' antenna heights, and channel synthesis takes those
    arrays with the positions and draw_link_fading's draws."""
    N = cfg.radio.n_elements
    B = cfg.b_effective
    state = sea_surface.sea_state(cfg.sea_state)
    wave = sea_surface.wave_from_sea_state(state, cfg.geometry.wave_source)
    t = float(rng.uniform(0.0, wave.T_wave))
    rx = FloatingNode(position=cfg.geometry.rx_position,
                      mast_height=cfg.geometry.rx_mast_m)
    positions = deploy_iots(cfg.geometry.mean_iot_count,
                            cfg.geometry.deploy_radius_m,
                            cfg.geometry.turbine_position, rng,
                            exclusions=_exclusion_zones(cfg))
    count = len(positions)
    T = max(cfg.t_baseline, count)
    _check_interval_size(count, T, B, cfg.radio.m_antennas)
    batch = FloatingNode(position=positions, mast_height=cfg.geometry.iot_mast_m)

    P_e = energy.harvested_power(wave.a, wave.T_wave, cfg.energy)
    P_tx = energy.available_tx_power(P_e, cfg.energy)
    powers = np.full(count, P_tx)
    flags, h_iot, h_rx = sea_surface.los_state(batch, rx, wave, t)

    slots = cfg.radio.beta_hz * cfg.interval_duration_s
    overhead = max(0.0, 1.0 - estimation.pilot_overhead_symbols(B, T) / slots)

    record = functools.partial(TrialRecord, positions=positions, powers=powers,
                               los_flags=flags, overhead=overhead,
                               rank_failure=False)
    if count == 0 or P_tx <= 0.0:
        return record(hd_error=math.nan, g_error=math.nan, c_ris=0.0,
                      c_noris=0.0, solver_iterations=0, solver_converged=True)

    p = cfg.radio.pathloss
    M = cfg.radio.m_antennas
    sigma2 = cfg.radio.sigma2_w
    ris = ris_system.make_planar_ris(N, cfg.geometry.ris_center, p.lam)
    h_rx = float(h_rx[0])   # every link carries the receiver's one height
    xi_departure, xi_direct, nlos_phase, xi_incident = (
        channel.draw_link_fading(flags, p, rng))
    F = channel.ris_departure_matrix(ris, rx.position, h_rx, M, p, xi_departure)
    rows = channel.synthesize_direct_channel(positions, rx.position, h_iot,
                                             h_rx, flags, M, p, xi_direct,
                                             nlos_phase)
    Hd = np.ascontiguousarray(rows.conj().T)
    G = channel.cascade(channel.ris_incident_vector(positions, h_iot, ris, p,
                                                    xi_incident), F)
    snap = ris_system.NetworkSnapshot(H_d=Hd, G=G, P_t=powers,
                                      sigma2=sigma2, beta=cfg.radio.beta_hz)

    pilots = estimation.make_orthogonal_pilots(count, T, powers)
    sched = estimation.make_reflection_schedule(N, B)
    noise_rng = None if cfg.estimation.noiseless else rng
    U = estimation.simulate_pilot_rx(snap, sched, pilots, noise_rng)
    Hd_hat = estimation.estimate_direct(U[0], U[1], pilots)
    G_hat = estimation.estimate_cascaded(U[2:], pilots, Hd_hat, sched)
    del U   # free the (B + 2, I, M) pilot observations before the solver

    snap_est = ris_system.NetworkSnapshot(H_d=Hd_hat, G=G_hat, P_t=powers,
                                          sigma2=sigma2,
                                          beta=cfg.radio.beta_hz)
    q_star, _, sol = optimizer.optimize_phases(snap_est, cfg.optimizer, rng)

    return record(hd_error=_relative_error(Hd_hat, Hd),
                  g_error=_relative_error(G_hat, G),
                  c_ris=ris_system.sum_capacity(snap, q_star),
                  c_noris=ris_system.direct_capacity(snap),
                  solver_iterations=sol.iterations,
                  solver_converged=sol.converged)



def _map_trials(cells, trials: int, n_jobs: int):
    """Generator of the TrialRecords of each (cell index, config) in cells,
    trials per cell, cell by cell and in trial order, on at most n_jobs
    processes, one per trial and per CPU (see tables._map_width).  The tasks
    are a range of (cell, trial) numbers, decoded as they run.

    Raises ConfigError for trials outside [1, MAX_TRIALS] or n_jobs below 1
    before any trial runs."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ConfigError(f"trials must be <= {MAX_TRIALS}")
    if n_jobs < 1:
        raise ConfigError("jobs must be >= 1")
    cells = list(cells)

    def trial(t):
        cell_idx, cfg = cells[t // trials]
        rng = np.random.default_rng([cfg.seed, cell_idx, t % trials])
        return run_coherence_interval(cfg, rng)

    tasks = range(len(cells) * trials)
    return tables._ordered_map(trial, tasks,
                               tables._map_width(len(tasks), n_jobs))


def run_cell(cfg: ScenarioConfig, trials: int, *, cell_idx: int = 0,
             n_jobs: int = 1) -> list:
    """All trials of one sweep cell, trial k seeded by (cfg.seed, cell_idx,
    k), in trial order on at most n_jobs processes."""
    return list(_map_trials([(cell_idx, cfg)], trials, n_jobs))


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def aggregate_cell(records) -> dict:
    """Order-stable trial statistics (population std keeps one-trial cells
    finite).  The LoS share and the transmit power are per-IoT figures, so
    they average over the intervals that deployed an IoT, nan where none
    did."""
    rate_ris = np.array([r.rate_ris for r in records])
    rate_noris = np.array([r.rate_noris for r in records])
    deployed = [r for r in records if len(r.powers)]
    return {
        "mean_rate_ris": float(np.mean(rate_ris)),
        "std_rate_ris": float(np.std(rate_ris)),
        "mean_rate_noris": float(np.mean(rate_noris)),
        "std_rate_noris": float(np.std(rate_noris)),
        "mean_los_prob": _mean([r.los_frac for r in deployed]),
        "mean_tx_power_w": _mean([r.tx_power_w for r in deployed]),
    }


def run_sweep(cfg: ScenarioConfig, variable: str, values, trials: int, *,
              sea_states=None, n_jobs: int = 1,
              flush_path=None, flush_format: str = "csv") -> dict:
    """Sweep one variable over values (crossed with sea states unless the
    variable IS the sea state); returns the result table, each of the
    RESULT_COLUMNS a list with one aggregate per cell, for format_table.

    Every cell's config is built before any trial runs, so an unknown
    variable or an invalid value raises ConfigError first; so does a sweep
    of more than MAX_CELLS cells, before any config is built.  All (cell,
    trial) tasks then run through one ordered map on at most n_jobs
    processes, one per task and per CPU, trial k of cell c seeded by
    (cfg.seed, c, k).  On a failure inside a trial the completed cells are
    written to flush_path (when given), as flush_format, before the error
    propagates.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if variable == "sea":
        if sea_states is not None:
            raise ConfigError("a sea-state sweep fixes the states itself")
        states = [None]
    else:
        states = [cfg.sea_state] if sea_states is None else list(sea_states)
    count = len(values) * len(states)
    if count > MAX_CELLS:
        raise ConfigError(f"sweep has {count} cells, over the {MAX_CELLS} cap")
    cells = [(v, sea_level(v) if s is None else int(s))
             for v in values for s in states]
    cfgs = [dataclasses.replace(apply_sweep_value(cfg, variable, value),
                                sea_state=state) for value, state in cells]

    records = _map_trials(enumerate(cfgs), trials, n_jobs)
    table = {column: [] for column in RESULT_COLUMNS}
    try:
        with contextlib.closing(records):
            for value, state in cells:
                cell = list(itertools.islice(records, trials))
                row = {"sweep_var": variable, "value": value,
                       "sea_state": state, **aggregate_cell(cell),
                       "trials": trials, "seed": cfg.seed}
                for column, entries in table.items():
                    entries.append(row[column])
    except Exception:
        if flush_path is not None:
            write_blocks(format_table(table, flush_format), flush_path)
        raise
    return table
