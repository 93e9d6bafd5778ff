"""Command-line front end: sweeps, LoS-probability and path-loss tables, and
a built-in invariant suite.

Exit codes: 0 success, 1 configuration or write error, 2 numerical failure.
A reader that closes stdout early ends the output quietly, with exit code 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import (channel, energy, estimation, harness, optimizer, ris_system,
               sea_surface, tables)
from .config import (ConfigError, MAX_LENGTH_M, SWEEP_VARIABLES,
                     ScenarioConfig, _parse, _replace, load_config, sea_level)
from .sea_surface import MAX_LOS_SAMPLES, sea_state


# pathloss holds every column of its table in memory at once: at this cap one
# call peaks near 85 MB of RSS, and far larger counts would exhaust memory.
# los-prob --samples is capped at sea_surface.MAX_LOS_SAMPLES, where one cell
# takes a few seconds and its lattice indices still fit int64.
MAX_PATHLOSS_POINTS = 1_000_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract reserves
    # 2 for numerical failures, so route usage problems through ConfigError
    def error(self, message):
        raise ConfigError(message)


# Built on the first main call and reused: parse_args keeps no state in the
# parser, so one tree serves every call in the process.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="marisim",
                     description="RIS-assisted maritime IoT uplink simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)   # every table's options
    common.add_argument("--config", help="scenario INI file")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=tables.FORMATS, default="csv")
    table_parser = functools.partial(sub.add_parser, parents=[common])

    sweep = table_parser("sweep", help="Monte-Carlo sweep over one variable")
    sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated sweep values")
    sweep.add_argument("--states", help="comma-separated sea states to cross "
                       "the values with (default: the scenario's)")
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at least 1, at most one per "
                            "CPU and per trial (results identical for any "
                            "value)")

    los = table_parser("los-prob", help="LoS probability vs receiver height")
    los.add_argument("--states", default="3,4,5,6,7",
                     help="comma-separated sea states")
    los.add_argument("--heights", default="2,5,10,20,30",
                     help="comma-separated receiver mast heights, m")
    los.add_argument("--samples", type=int, default=10_000,
                     help="lattice points per cell")
    los.add_argument("--seed", type=int, default=None,
                     help="accepted as for sweep; the table does not depend "
                          "on it")

    pl = table_parser("pathloss", help="path loss of each model vs distance")
    pl.add_argument("--d-min", type=float, default=50.0)
    pl.add_argument("--d-max", type=float, default=2000.0)
    pl.add_argument("--points", type=int, default=391)

    sub.add_parser("validate", help="run the built-in invariant suite")
    return parser


def _parse_values(text: str, kind=float, what: str = "sweep value") -> list:
    """Comma-separated numbers, each through the config parse step, which
    rejects non-finite values."""
    values = [_parse(kind, part, what) for part in text.split(",")
              if part.strip()]
    if not values:
        raise ConfigError(f"no {what} given")
    return values


# The one writer, tables.write_blocks, under the name every subcommand calls.
_write_output = tables.write_blocks


def _cmd_sweep(cfg: ScenarioConfig, args) -> int:
    values = _parse_values(args.values, SWEEP_VARIABLES[args.var][0])
    states = (None if args.states is None
              else _parse_values(args.states, sea_level, "sea state"))
    if args.jobs > 1 and tables._map_width(args.jobs) == 1:
        print(f"note: --jobs {args.jobs} runs in one process: helpers are "
              "forked only where the start method is fork or forkserver, no "
              "other thread is alive and there is more than one CPU",
              file=sys.stderr)
    table = harness.run_sweep(cfg, args.var, values, args.trials,
                              sea_states=states, n_jobs=args.jobs,
                              flush_path=args.out, flush_format=args.format)
    _write_output(tables.format_table(table, args.format), args.out)
    return 0


def _cmd_los_prob(cfg: ScenarioConfig, args) -> int:
    states = _parse_values(args.states, sea_level, "sea state")
    heights = _parse_values(args.heights, float, "receiver mast height")
    if (not 1 <= args.samples <= MAX_LOS_SAMPLES
            or not all(0 < h <= MAX_LENGTH_M for h in heights)):
        raise ConfigError(f"need 1 <= samples <= {MAX_LOS_SAMPLES} and mast "
                          f"heights in (0, {MAX_LENGTH_M:g}] m")
    table = tables.los_probability_table(cfg, states, heights,
                                         samples=args.samples)
    _write_output(tables.format_table(table, args.format), args.out)
    return 0


def _cmd_pathloss(cfg: ScenarioConfig, args) -> int:
    if (not 2 <= args.points <= MAX_PATHLOSS_POINTS
            or not 0 < args.d_min < args.d_max < math.inf):
        raise ConfigError("need finite 0 < d_min < d_max and "
                          f"2 <= points <= {MAX_PATHLOSS_POINTS}")
    d_values = np.linspace(args.d_min, args.d_max, args.points)
    table = tables.pathloss_table(cfg, d_values)
    _write_output(tables.format_table(table, args.format), args.out)
    return 0


def _random_instance(rng, N, M, I):
    Hd = (rng.standard_normal((M, I)) + 1j * rng.standard_normal((M, I)))
    G = tuple((rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M)))
              for _ in range(I))
    P_t = rng.uniform(0.5, 2.0, I)
    return ris_system.NetworkSnapshot(H_d=Hd, G=G, P_t=P_t, sigma2=1.0,
                                      beta=1.0)


def _check_estimation_exact():
    rng = np.random.default_rng(0)
    snap = _random_instance(rng, N=6, M=2, I=2)
    pilots = estimation.make_orthogonal_pilots(2, 2, snap.P_t)
    sched = estimation.make_reflection_schedule(6, 6)
    U = estimation.simulate_pilot_rx(snap, sched, pilots, None)
    Hd_hat = estimation.estimate_direct(U[0], U[1], pilots)
    G_hat = estimation.estimate_cascaded(U[2:], pilots, Hd_hat, sched)
    err_h = np.linalg.norm(Hd_hat - snap.H_d) / np.linalg.norm(snap.H_d)
    err_g = np.max(np.linalg.norm(G_hat - snap.G, axis=(1, 2))
                   / np.linalg.norm(snap.G, axis=(1, 2)))
    assert err_h < 1e-9 and err_g < 1e-9, f"errors {err_h:.2e}, {err_g:.2e}"


def _check_sdp_hand_instance():
    # D = w w^H = [[1, i], [-i, 1]] with w = [1, -i]: optimum 4 at q = -i
    obj = optimizer.HomogenizedObjective(W=[[1.0], [-1.0j]], p=[1.0])
    sol = optimizer.solve_sdp(obj, tol=1e-9, max_iter=20000)
    assert sol.converged, f"gap {sol.gap} not certified"
    assert abs(sol.objective - 4.0) < 1e-5, f"objective {sol.objective}"
    q = optimizer.randomize(sol, 16, obj, np.random.default_rng(1))
    val = optimizer.reflection_objective(obj, q)
    assert abs(val - 4.0) < 1e-6, f"rounded objective {val}"


def _check_objective_identity():
    rng = np.random.default_rng(2)
    snap = _random_instance(rng, N=5, M=3, I=2)
    obj = optimizer.build_D(snap)
    q = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    rows = ris_system.combined_channel(snap, q)
    direct = np.sum(snap.P_t * np.sum(np.abs(rows) ** 2, axis=1))
    val = optimizer.reflection_objective(obj, q)
    assert abs(val - direct) <= 1e-9 * abs(direct), f"{val} vs {direct}"


def _check_energy_chain():
    p = energy.WecParams()
    state = sea_state(4)
    a = state.height_mean / 2.0
    T = state.period_mean
    expected = (p.rho * p.g * p.g * T / (64.0 * math.pi)) * a * a
    got = energy.wave_power_per_meter(a, T, p)
    assert abs(got - expected) <= 1e-12 * expected, f"{got} vs {expected}"
    harvested = energy.harvested_power(a, T, p)
    chain = p.eta_pto * p.eta_conv * p.gamma_cwr * p.W
    assert abs(harvested - chain * expected) <= 1e-12 * harvested
    assert energy.available_tx_power(harvested, p) == min(harvested - p.P_0,
                                                          p.P_max)


def _check_pathloss_ordering():
    p = channel.PathLossParams()
    boundary = channel.two_ray_boundary(2.0, 5.0, p)
    expected = 4.0 * 2.0 * 5.0 * p.f_c / channel.SPEED_OF_LIGHT
    assert abs(boundary - expected) <= 1e-9 * expected
    for d in (100.0, 300.0, 500.0, 1000.0):
        nlos = channel.path_loss_nlos(d, p, 0.0)
        fs = channel.path_loss_free_space(d, p.f_c)
        assert nlos > fs, f"NLoS {nlos} not above free space {fs} at {d} m"


def _tiny_config() -> ScenarioConfig:
    return _replace(ScenarioConfig(sea_state=5, seed=7), {
        "geometry.mean_iot_count": 2.0, "radio.m_antennas": 2,
        "radio.n_elements": 8, "optimizer.sdp_tol": 1e-4,
        "optimizer.sdp_max_iter": 200, "optimizer.randomization_draws": 20})


def _check_sweep_determinism():
    cfg = _tiny_config()
    texts = []
    for jobs in (1, 1, 2):
        # two cells, so the parallel run maps both through one ordered map
        table = harness.run_sweep(cfg, "hr0", [5.0, 7.0], 2, n_jobs=jobs)
        texts.append("".join(tables.format_table(table, "csv")))
    assert texts[0] == texts[1], "repeat run differs"
    assert texts[0] == texts[2], "parallel run differs"


def _check_los_table_determinism():
    cfg = ScenarioConfig(seed=5)
    states, heights, samples = (3, 8), (2.0, 30.0), 4000
    # the cells one by one in this process, against the table's ordered map
    serial = [sea_surface.los_probability(*cell, samples)
              for cell in tables._los_cells(cfg, states, heights)]
    table = tables.los_probability_table(cfg, states, heights, samples)
    reseeded = tables.los_probability_table(ScenarioConfig(seed=6), states,
                                            heights, samples)
    reference = dict(table, los_prob=np.array(serial))
    texts = ["".join(tables.format_table(t, "csv"))
             for t in (reference, table, reseeded)]
    assert texts[0] == texts[1], "table differs from the serial cells"
    assert texts[1] == texts[2], "table depends on the scenario seed"


def _check_table_emission_determinism():
    # enough blocks that the emitter splits them across helper processes
    # wherever it can, the last one a helper's on two processes, against the
    # same table formatted in this process
    n = (2 * tables.BLOCKS_PER_PROCESS + 1) * tables.ROWS_PER_BLOCK + 7
    x = np.random.default_rng(4).standard_normal(n)
    x[::5], x[1::7], x[2::11] = math.nan, math.inf, -math.inf
    table = {"k": np.arange(n), "s": ["hr0"] * n, "x": x, "y": x.tolist()}
    for structured in (False, True):
        split, inline = ("".join(tables._blocks(table, structured, width))
                         for width in (None, 1))
        assert split == inline, f"structured={structured} text differs"


_CHECKS = (
    ("estimation exact recovery", _check_estimation_exact),
    ("SDP hand instance", _check_sdp_hand_instance),
    ("objective identity", _check_objective_identity),
    ("energy chain arithmetic", _check_energy_chain),
    ("path-loss ordering", _check_pathloss_ordering),
    ("sweep determinism", _check_sweep_determinism),
    ("LoS table determinism", _check_los_table_determinism),
    ("table emission determinism", _check_table_emission_determinism),
)


def _cmd_validate(cfg: ScenarioConfig, args) -> int:
    failures = []

    def lines():
        for name, check in _CHECKS:
            try:
                check()
            except Exception as exc:   # report it and run the other checks
                failures.append(name)
                yield f"FAIL - {name}: {type(exc).__name__}: {exc}\n"
            else:
                yield f"ok - {name}\n"
        yield (f"{len(failures)} of {len(_CHECKS)} checks failed\n"
               if failures else f"all {len(_CHECKS)} checks passed\n")

    _write_output(lines())
    return 2 if failures else 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "los-prob": _cmd_los_prob,
    "pathloss": _cmd_pathloss,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = getattr(args, "config", None)
        cfg = load_config(config) if config else ScenarioConfig()
        if getattr(args, "seed", None) is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
