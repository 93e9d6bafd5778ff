"""Monte-Carlo harness: deployment statistics, interval pipeline, sweeps,
and deterministic result emission."""

import ast
import csv
import dataclasses
import inspect
import io
import json
import math
import multiprocessing
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from marisim import cli, harness, sea_surface, tables
from marisim.config import (
    ConfigError,
    EstimationConfig,
    GeometryConfig,
    RadioConfig,
    ScenarioConfig,
    apply_sweep_value,
)
from marisim.energy import available_tx_power, harvested_power
from marisim.harness import (
    RESULT_COLUMNS,
    aggregate_cell,
    deploy_iots,
    run_cell,
    run_coherence_interval,
    run_sweep,
)
from marisim.optimizer import OptimizerConfig
from marisim.sea_surface import FloatingNode, sea_state, wave_from_sea_state
from marisim.tables import (
    _format_cell,
    format_table,
    los_probability_table,
    pathloss_table,
    write_blocks,
)


FORKS = ("fork" in multiprocessing.get_all_start_methods()
         and (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
         in ("fork", "forkserver"))
needs_fork = pytest.mark.skipif(not FORKS, reason="map helpers are forked")


@pytest.fixture
def map_widths(monkeypatch):
    """The width of every tables._ordered_map call that forks helpers (a
    width over 1); the map itself runs as usual."""
    widths = []
    ordered_map = tables._ordered_map

    def spy(fn, items, width):
        if width > 1:
            widths.append(width)
        return ordered_map(fn, items, width)

    monkeypatch.setattr(tables, "_ordered_map", spy)
    return widths


def set_cpus(monkeypatch, n):
    """Let this process run on n CPUs, as _map_width counts them; None
    stands for a platform that reports neither an affinity nor a count."""
    if n is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)


def small_cfg(sea=5, N=8, M=2, mean_iots=2.0, seed=0, **estimation):
    """Scaled-down scenario so harness tests stay fast."""
    return ScenarioConfig(
        sea_state=sea,
        geometry=GeometryConfig(mean_iot_count=mean_iots),
        radio=RadioConfig(m_antennas=M, n_elements=N),
        estimation=EstimationConfig(**estimation),
        optimizer=OptimizerConfig(sdp_tol=1e-4, sdp_max_iter=150,
                                  randomization_draws=20),
        seed=seed,
    )


def test_deployment_statistics():
    rng = np.random.default_rng(100)
    counts = []
    radii = []
    for _ in range(20_000):
        positions = deploy_iots(4.0, 200.0, (0.0, 0.0), rng)
        assert positions.shape == (len(positions), 2)
        counts.append(len(positions))
        radii.extend(math.hypot(*xy) for xy in positions)
    mean = np.mean(counts)
    assert abs(mean - 4.0) / 4.0 < 0.02          # Poisson mean
    # uniform on the disk: radial CDF is (r/R)^2
    ks = stats.kstest(np.array(radii) / 200.0, lambda x: x ** 2)
    assert ks.pvalue > 0.01
    assert all(math.hypot(*xy) <= 200.0 for xy in positions)


def test_deployment_exclusion_zones_and_validation():
    rng = np.random.default_rng(101)
    zones = (((0.0, 0.0), 50.0), ((120.0, 0.0), 10.0))
    for _ in range(200):
        for xy in deploy_iots(3.0, 200.0, (0.0, 0.0), rng, exclusions=zones):
            for center, radius in zones:
                assert math.dist(xy, center) >= radius
    with pytest.raises(ValueError):
        deploy_iots(0.0, 200.0, (0.0, 0.0), rng)
    with pytest.raises(ValueError):
        deploy_iots(4.0, -1.0, (0.0, 0.0), rng)
    # a zone covering the whole disk rejects every draw: give up, not hang
    with pytest.raises(ConfigError, match="cover the deploy disk"):
        deploy_iots(50.0, 10.0, (0.0, 0.0), rng,
                    exclusions=(((3.0, 0.0), 20.0),))


def test_interval_record_is_internally_consistent():
    cfg = small_cfg(mean_iots=4.0)
    rec = run_coherence_interval(cfg, np.random.default_rng([3, 0, 0]))
    assert rec.positions.shape == (len(rec.powers), 2)
    assert rec.rate_ris == pytest.approx(rec.overhead * rec.c_ris, rel=1e-12)
    assert rec.rate_noris == pytest.approx(rec.overhead * rec.c_noris, rel=1e-12)
    assert 0.0 <= rec.los_frac <= 1.0
    if len(rec.powers):
        assert rec.los_frac == pytest.approx(float(np.mean(rec.los_flags)))
        # every buoy harvests from the same swell: one shared power level
        state = sea_state(5)
        expect = available_tx_power(
            harvested_power(state.height_mean / 2.0, state.period_mean,
                            cfg.energy), cfg.energy)
        assert rec.powers == pytest.approx(np.full(len(rec.powers), expect))
        assert rec.tx_power_w == pytest.approx(expect)


def test_interval_requires_enough_subframes():
    # the config rejects the pairing, so no interval or sweep cell holds it
    with pytest.raises(ConfigError, match="b_subframes must be >= n_elements"):
        small_cfg(N=8, b_subframes=4)
    assert small_cfg(N=8, b_subframes=8).b_effective == 8


def test_one_interval_reads_each_sides_antenna_height_once(monkeypatch):
    # one los_state call reads the sea, and synthesis gets its heights
    states, seen = [], {}
    los_state = sea_surface.los_state

    def spy_los(tx, rx, wave, t):
        states.append(los_state(tx, rx, wave, t))
        return states[-1]

    def spy(name, height_args):
        fn = getattr(harness.channel, name)

        def wrapper(*args, **kwargs):
            seen[name] = [args[i] for i in height_args]
            return fn(*args, **kwargs)
        monkeypatch.setattr(harness.channel, name, wrapper)

    monkeypatch.setattr(sea_surface, "los_state", spy_los)
    spy("synthesize_direct_channel", (2, 3))   # h_t, h_r
    spy("ris_departure_matrix", (2,))          # h_rx
    rec = run_coherence_interval(small_cfg(mean_iots=4.0),
                                 np.random.default_rng(3))
    count = len(rec.powers)
    assert count > 0 and len(states) == 1
    flags, h_iot, h_rx = states[0]
    assert h_iot.shape == h_rx.shape == (count,)
    assert np.array_equal(rec.los_flags, flags)
    h_t, h_r = seen["synthesize_direct_channel"]
    assert h_t is h_iot
    assert h_r == seen["ris_departure_matrix"][0] == h_rx[0]


def test_empty_deployment_yields_zero_record():
    cfg = small_cfg(mean_iots=1e-12, N=360, t_pilot_len=4)
    rec = run_coherence_interval(cfg, np.random.default_rng(1))
    assert rec.positions.shape == (0, 2)
    assert rec.c_ris == rec.rate_ris == 0.0
    assert rec.tx_power_w == 0.0
    # overhead is still the schedule cost: 1 - (B + 2) T / (beta * duration)
    assert rec.overhead == pytest.approx(1.0 - 362 * 4 / 500_000.0, rel=1e-12)
    assert rec.overhead == pytest.approx(0.997104, rel=1e-12)


def test_run_cell_is_deterministic_across_workers():
    cfg = small_cfg(seed=9)
    runs = [run_cell(cfg, trials=4, cell_idx=1, n_jobs=jobs)
            for jobs in (1, 1, 2)]
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            assert a.rate_ris == b.rate_ris
            assert a.rate_noris == b.rate_noris
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.powers, b.powers)


@needs_fork
def test_run_cell_caps_the_pool_at_trials_and_cpus(monkeypatch, map_widths):
    cfg = small_cfg(seed=9)
    serial = run_cell(cfg, trials=4, cell_idx=1)
    set_cpus(monkeypatch, 3)
    for jobs, trials in ((10 ** 6, 4), (10 ** 6, 2), (2, 4), (1, 4)):
        runs = run_cell(cfg, trials=trials, cell_idx=1, n_jobs=jobs)
        assert [r.rate_ris for r in runs] == [r.rate_ris for r in serial[:trials]]
    assert map_widths == [3, 2, 2]   # --jobs 1 forks no helper
    # an unknown CPU count runs the cell in this process
    set_cpus(monkeypatch, None)
    run_cell(cfg, trials=2, cell_idx=1, n_jobs=8)
    assert map_widths == [3, 2, 2]
    assert multiprocessing.active_children() == []


@needs_fork
def test_map_width_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # a 64-CPU host seen through a one-CPU affinity mask, as under taskset
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert tables._map_width(30) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9})
    assert tables._map_width(30) == 3
    # without an affinity call the count of the host's CPUs bounds the map
    monkeypatch.delattr(os, "sched_getaffinity")
    assert tables._map_width(30) == 30


@needs_fork
def test_run_sweep_maps_every_cell_through_one_pool(monkeypatch, map_widths):
    cfg = small_cfg(seed=8)
    serial = run_sweep(cfg, "hr0", [3.0, 5.0, 7.0], trials=2)
    set_cpus(monkeypatch, 3)
    pooled = run_sweep(cfg, "hr0", [3.0, 5.0, 7.0], trials=2, n_jobs=2)
    assert map_widths == [2]
    assert pooled == serial


@needs_fork
def test_failed_cell_flushes_partial_results_through_one_pool(tmp_path,
                                                              monkeypatch,
                                                              map_widths):
    set_cpus(monkeypatch, 3)
    cfg = small_cfg(N=4, seed=1, t_pilot_len=1000)
    out = tmp_path / "partial.csv"
    with pytest.raises(ConfigError, match="sounding blocks"):
        # the second cell's sounding blocks pass the interval memory cap; its
        # trial is the helper's, so the ConfigError crosses the pipe
        run_sweep(cfg, "n", [4, 10000], trials=1, flush_path=out, n_jobs=2)
    assert map_widths == [2]
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and int(rows[0]["value"]) == 4


def test_jobs_below_one_raise_before_any_interval(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_coherence_interval",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_cell(small_cfg(), trials=2, n_jobs=0)
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_sweep(small_cfg(), "hr0", [5.0, 7.0], trials=2, n_jobs=-1)
    with pytest.raises(ConfigError, match="trials must be <= 100000"):
        run_cell(small_cfg(), trials=harness.MAX_TRIALS + 1)
    assert calls == []


def test_trial_tasks_take_no_memory_before_the_first_interval(monkeypatch):
    """A cell's MAX_TRIALS tasks are a range, decoded as they run: mapping
    them allocates under 1 MB before the first interval, where a list of
    (cfg, cell, trial) tuples took about 10 MB."""
    allocated = []

    def interval(cfg, rng):
        allocated.append(tracemalloc.get_traced_memory()[0] - start)

    monkeypatch.setattr(harness, "run_coherence_interval", interval)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        records = harness._map_trials([(0, small_cfg())], harness.MAX_TRIALS, 1)
        next(records)
        records.close()
    finally:
        tracemalloc.stop()
    assert len(allocated) == 1 and allocated[0] < 1 << 20, allocated


def test_unknown_sweep_variable_raises_before_any_interval(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_coherence_interval",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="unknown sweep variable 'wind'; "
                                          "choose from hr0, n, pmax, sea"):
        run_sweep(small_cfg(), "wind", [1.0, 2.0], trials=2)
    assert calls == []


def test_sweep_past_the_cell_cap_raises_before_building_cells(monkeypatch):
    """101 values x 100 sea states pass MAX_CELLS: run_sweep raises after
    allocating under 1 MB, before any cell config or interval."""
    calls = []
    monkeypatch.setattr(harness, "run_coherence_interval",
                        lambda *args: calls.append(args))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ConfigError, match="sweep has 10100 cells, over "
                                              "the 10000 cap"):
            run_sweep(small_cfg(), "hr0", range(1, 102), trials=1,
                      sea_states=range(2, 102))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 1 << 20, peak


def test_los_table_past_the_cell_cap_raises_before_building_cells(
        monkeypatch):
    """101 sea states x 100 heights pass MAX_CELLS: los_probability_table
    raises after allocating under 1 MB, before any cell or node is built."""
    calls = []
    monkeypatch.setattr(tables.sea_surface, "los_probability",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(tables, "FloatingNode",
                        lambda *args, **kwargs: calls.append(args))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ConfigError, match="LoS table has 10100 cells, "
                                              "over the 10000 cap"):
            los_probability_table(small_cfg(), range(2, 103), range(1, 101),
                                  samples=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 1 << 20, peak


def test_noiseless_ris_never_loses_to_direct():
    cfg = small_cfg(sea=5, seed=21, noiseless=True)
    for rec in run_cell(cfg, trials=25):
        assert rec.c_ris >= rec.c_noris - 1e-9
        assert rec.rate_ris >= rec.rate_noris - 1e-9


def test_aggregate_cell_statistics():
    cfg = small_cfg(seed=2)
    records = run_cell(cfg, trials=5)
    agg = aggregate_cell(records)
    rates = [r.rate_ris for r in records]
    assert agg["mean_rate_ris"] == pytest.approx(np.mean(rates))
    assert agg["std_rate_ris"] == pytest.approx(np.std(rates))
    # the per-IoT columns average over the intervals that deployed an IoT;
    # one of these five deployed none
    deployed = [r for r in records if len(r.powers)]
    assert len(deployed) == 4
    assert agg["mean_los_prob"] == pytest.approx(
        np.mean([r.los_frac for r in deployed]))
    assert agg["mean_tx_power_w"] == pytest.approx(deployed[0].tx_power_w)


def test_cell_without_a_deployed_iot_reports_nan_los_share_and_power():
    # an interval with no IoT has no link to be in LoS, and its power budget
    # does not depend on the deployment, so it weighs in neither column
    empty = run_cell(small_cfg(mean_iots=1e-12), trials=2)
    assert [len(r.powers) for r in empty] == [0, 0]
    agg = aggregate_cell(empty)
    assert math.isnan(agg["mean_los_prob"])
    assert math.isnan(agg["mean_tx_power_w"])
    assert agg["mean_rate_ris"] == agg["mean_rate_noris"] == 0.0
    full = run_cell(small_cfg(mean_iots=4.0), trials=3)
    assert all(len(r.powers) for r in full)
    mixed = aggregate_cell(empty + full)
    assert mixed["mean_los_prob"] == aggregate_cell(full)["mean_los_prob"]
    assert mixed["mean_tx_power_w"] == full[0].tx_power_w
    text = "".join(format_table({"mean_los_prob": [agg["mean_los_prob"]]},
                                "structured"))
    assert math.isnan(json.loads(text)[0]["mean_los_prob"])


def test_run_sweep_cell_grid_and_single_trial_reduction():
    cfg = small_cfg(seed=4)
    table = run_sweep(cfg, "hr0", [5.0, 7.0], trials=2, sea_states=[4, 5])
    assert list(zip(table["value"], table["sea_state"])) == [
        (5.0, 4), (5.0, 5), (7.0, 4), (7.0, 5)]
    assert tuple(table) == RESULT_COLUMNS
    assert all(len(column) == 4 for column in table.values())

    single = run_sweep(cfg, "n", [8], trials=1)
    rec = run_cell(cfg, trials=1, cell_idx=0)[0]
    assert single["mean_rate_ris"] == [pytest.approx(rec.rate_ris)]
    assert single["std_rate_ris"] == [0.0]


def test_sea_sweep_sets_states_and_rejects_cross_product():
    cfg = small_cfg()
    table = run_sweep(cfg, "sea", [4, 6], trials=1)
    assert table["sea_state"] == [4, 6]
    with pytest.raises(ConfigError):
        run_sweep(cfg, "sea", [4, 6], trials=1, sea_states=[4])
    with pytest.raises(ConfigError):
        run_sweep(cfg, "hr0", [], trials=1)


def test_failed_cell_flushes_partial_results(tmp_path):
    cfg = small_cfg(N=4, seed=1, t_pilot_len=1000)
    out = tmp_path / "partial.csv"
    with pytest.raises(ConfigError, match="sounding blocks"):
        # the second cell's sounding blocks pass the interval memory cap
        run_sweep(cfg, "n", [4, 10000], trials=1, flush_path=out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and int(rows[0]["value"]) == 4


def test_emit_and_read_roundtrip_bit_exact(tmp_path):
    cfg = small_cfg(seed=6)
    table = run_sweep(cfg, "hr0", [5.0, 7.0], trials=2)
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    path = tmp_path / "out.json"
    write_blocks(format_table(table, "structured"), path)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == rows   # repr round-trip keeps floats exact
    path = tmp_path / "out.csv"
    write_blocks(format_table(table, "csv"), path)
    with open(path, newline="", encoding="utf-8") as fh:
        back = list(csv.DictReader(fh))
    assert [{c: type(v)(cells[c]) for c, v in row.items()}
            for row, cells in zip(rows, back)] == rows
    assert len(back) == len(rows)


def test_emit_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_blocks(format_table({c: [] for c in RESULT_COLUMNS}, "csv"), path)
    assert path.read_text() == ",".join(RESULT_COLUMNS) + "\n"


def test_format_table_structured_and_unknown_format():
    table = {"a": [1], "b": np.array([0.5])}
    text = "".join(format_table(table, "structured"))
    assert json.loads(text) == [{"a": 1, "b": 0.5}]
    with pytest.raises(ConfigError):
        format_table(table, "xml")   # on the call, before any block


def reference_csv(table) -> str:
    """csv.writer over per-row cells, the emitter as first written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table)
    for row in zip(*table.values()):
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def test_format_table_matches_csv_writer_reference():
    table = {"sweep_var": ["hr0", "n", "sea", "pmax"],
             "count": [1, np.int64(-2), 0, 3],
             "x": np.array([math.nan, math.inf, -0.0, 1e-300]),
             "y": [1e-300, -math.inf, 5.0, 0.1],
             "level": np.array([3, 4, 5, 8])}
    text = "".join(format_table(table, "csv"))
    assert text == reference_csv(table)
    assert text.splitlines()[2] == "n,-2,inf,-inf,4"
    assert text.splitlines()[3] == "sea,0,-0.0,5.0,5"
    # json writes Python ints only, as the emitter always did
    table["count"] = [1, -2, 0, 3]
    rows = [{c: (v.tolist() if isinstance(v, np.ndarray) else v)[i]
             for c, v in table.items()} for i in range(4)]
    assert "".join(format_table(table, "structured")) == json.dumps(
        rows, indent=2) + "\n"
    assert "".join(format_table({"a": [], "b": np.array([])})) == "a,b\n"


def test_format_table_blocks_join_to_the_whole_text(monkeypatch):
    # block seams fall inside, at and past a block's last row
    monkeypatch.setattr(tables, "ROWS_PER_BLOCK", 3)
    for n in (0, 1, 3, 4, 7):
        table = {"s": ["a%s"] * n, "k%": list(range(n)),
                 "x": np.resize([math.nan, math.inf, -math.inf, 0.1, -0.0], n)}
        rows = [{"s": "a%s", "k%": k, "x": x}
                for k, x in zip(table["k%"], table["x"].tolist())]
        blocks = list(format_table(table, "structured"))
        assert len(blocks) == -(-n // 3) + 1
        assert "".join(blocks) == json.dumps(rows, indent=2) + "\n"
        assert "".join(format_table(table, "csv")) == reference_csv(table)


def test_format_table_memory_stays_at_one_block():
    # the table exists before tracing starts, so the peak is the emitter's
    table = pathloss_table(small_cfg(), np.linspace(50.0, 2000.0, 200_000))
    for fmt in ("csv", "structured"):
        tracemalloc.start()
        try:
            length = sum(map(len, format_table(table, fmt)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length / 4, (fmt, peak, length)


def mixed_table(n_blocks: int) -> dict:
    """int, str and float columns, with nan and +-inf, over n_blocks blocks
    of which the last is short."""
    n = (n_blocks - 1) * tables.ROWS_PER_BLOCK + 5
    x = np.random.default_rng(8).standard_normal(n) * 1e3
    x[::5], x[1::7], x[2::11] = math.nan, math.inf, -math.inf
    return {"sweep_var": ["hr0", "n", "sea"] * (n // 3) + ["pmax"] * (n % 3),
            "count": list(range(-n // 2, n - n // 2)),
            "x": x, "y": x[::-1].tolist(), "level": np.arange(n) % 9}


def started_blocks(table, fmt="csv"):
    """The table's block generator after its first block, with its helper
    processes running."""
    blocks = format_table(table, fmt)
    first = next(blocks)
    assert multiprocessing.active_children(), "no helper was started"
    return first, blocks


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_split_table_is_byte_identical_to_inline(cpus, monkeypatch):
    monkeypatch.setattr(tables, "ROWS_PER_BLOCK", 64)
    table = mixed_table(4 * tables.BLOCKS_PER_PROCESS + 2)   # ends on helpers
    for fmt in ("csv", "structured"):
        set_cpus(monkeypatch, 1)
        inline = list(format_table(table, fmt))
        set_cpus(monkeypatch, cpus)
        first, rest = started_blocks(table, fmt)
        assert [first, *rest] == inline
        assert multiprocessing.active_children() == []
    assert "".join(inline) == json.dumps(
        [dict(zip(table, row)) for row in zip(*(
            v.tolist() if isinstance(v, np.ndarray) else v
            for v in table.values()))], indent=2) + "\n"


def sweep_table():
    return run_sweep(small_cfg(seed=8), "hr0", [3.0, 5.0], trials=2, n_jobs=2)


def los_table_text():
    return "".join(format_table(los_probability_table(
        small_cfg(seed=3), [3, 7], [2.0, 30.0], samples=200)))


def large_table_text():
    return "".join(format_table(mixed_table(3 * tables.BLOCKS_PER_PROCESS)))


@needs_fork
@pytest.mark.parametrize("run", [sweep_table, los_table_text, large_table_text],
                         ids=["sweep", "los_table", "large_table"])
def test_helpers_start_only_under_fork_with_no_other_thread(run, monkeypatch,
                                                            map_widths):
    set_cpus(monkeypatch, 2)
    forked = run()
    assert map_widths == [2]
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, daemon=True)
    waiter.start()
    try:
        assert run() == forked
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert map_widths == [2]   # the run beside a thread forked no helper
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: "forkserver")
    assert run() == forked
    assert map_widths == [2, 2]   # Linux's default from Python 3.14 forks
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: "spawn")
    assert run() == forked
    assert map_widths == [2, 2]   # spawn's platforms fork no helper
    assert multiprocessing.active_children() == []


@needs_fork
def test_pathloss_stdout_equals_out_file_and_inline(tmp_path, monkeypatch):
    # run as a program, so stdout is a real file the helpers inherit
    argv = ["pathloss", "--points", "100000"]
    out = tmp_path / "pathloss.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(harness.__file__)),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    with open(tmp_path / "stdout.csv", "wb") as fh:
        subprocess.run([sys.executable, "-m", "marisim.cli", *argv],
                       stdout=fh, env=env, check=True, timeout=120)
    subprocess.run([sys.executable, "-m", "marisim.cli", *argv, "--out",
                    str(out)], env=env, check=True, timeout=120)
    set_cpus(monkeypatch, 1)
    table = pathloss_table(ScenarioConfig(),
                           np.linspace(50.0, 2000.0, 100_000))
    inline = "".join(format_table(table)).encode()
    assert (tmp_path / "stdout.csv").read_bytes() == out.read_bytes() == inline


@needs_fork
def test_closing_blocks_early_stops_every_helper(monkeypatch, tmp_path):
    set_cpus(monkeypatch, 3)
    _, blocks = started_blocks(mixed_table(3 * tables.BLOCKS_PER_PROCESS))
    blocks.close()
    assert multiprocessing.active_children() == []
    if os.path.exists("/dev/full"):   # a write error mid-table
        assert cli.main(["pathloss", "--points", "100000",
                         "--out", "/dev/full"]) == 1
        assert multiprocessing.active_children() == []
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)   # never removed
        # the writer closes the blocks itself, though the caller holds them
        _, blocks = started_blocks(mixed_table(3 * tables.BLOCKS_PER_PROCESS))
        with pytest.raises(ConfigError, match="cannot write /dev/full"):
            write_blocks(blocks, "/dev/full")
        assert multiprocessing.active_children() == []


@needs_fork
def test_dead_helper_raises_and_never_truncates_silently(monkeypatch, capsys,
                                                         tmp_path):
    set_cpus(monkeypatch, 2)
    # each block outgrows a pipe's buffer, so the helper still waits to
    # send its first block when it is killed
    _, blocks = started_blocks(mixed_table(3 * tables.BLOCKS_PER_PROCESS))
    [helper] = multiprocessing.active_children()
    os.kill(helper.pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match="helper process 1 ended"):
        list(blocks)
    assert multiprocessing.active_children() == []
    # a helper that fails at once: exit 2 with the reason, through the CLI,
    # and the short --out file is removed
    monkeypatch.setattr(tables, "_send_results", lambda *args: os._exit(3))
    out = tmp_path / "pathloss.csv"
    assert cli.main(["pathloss", "--points", "100000",
                     "--out", str(out)]) == 2
    assert "helper process 1 ended before sending result 1 of 49" in (
        capsys.readouterr().err)
    assert multiprocessing.active_children() == []
    assert not out.exists()


def failing_blocks():
    yield "a,b\n"
    raise RuntimeError("block 1 failed")


def test_failed_table_removes_a_regular_out_file_only(tmp_path):
    out = tmp_path / "table.csv"
    out.write_text("an older table\n")
    with pytest.raises(RuntimeError, match="block 1 failed"):
        write_blocks(failing_blocks(), out)
    assert not out.exists()
    # a FIFO is written to, not replaced: its reader sees the first block
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(
        fifo.read_text()), daemon=True)
    reader.start()
    with pytest.raises(RuntimeError, match="block 1 failed"):
        write_blocks(failing_blocks(), fifo)
    reader.join(timeout=10)
    assert not reader.is_alive() and received == ["a,b\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@needs_fork
@pytest.mark.parametrize("width", [1, 2, 3])
def test_ordered_map_raises_a_helpers_exception_at_its_index(width):
    def square(b):
        if b == 5:
            raise ConfigError("item 5 is out of range")
        return b * b

    results = tables._ordered_map(square, range(8), width)
    assert [next(results) for _ in range(5)] == [0, 1, 4, 9, 16]
    with pytest.raises(ConfigError, match="item 5 is out of range"):
        next(results)
    assert multiprocessing.active_children() == []


# Run in a child interpreter, so that a regression hangs the child, which
# the timeout ends, and not the test session.
KILLED_HELPER_SCRIPT = """
import dataclasses, multiprocessing, os, signal, sys
from marisim import cli, config, harness

parent, interval = os.getpid(), harness.run_coherence_interval
os.sched_getaffinity = lambda pid: {0, 1}


def killed_on_a_helper(cfg, rng):
    # trial 1 of cell 1 is the helper's: kill it there, as the OOM killer
    # would; the trial is read off its seed (scenario seed, cell, trial)
    if (os.getpid() != parent
            and rng.bit_generator.seed_seq.entropy[1:] == [1, 1]):
        os.kill(os.getpid(), signal.SIGKILL)
    return interval(cfg, rng)


harness.run_coherence_interval = killed_on_a_helper
ini, out = sys.argv[1:]
try:
    cfg = dataclasses.replace(config.load_config(ini), seed=7)
    harness.run_sweep(cfg, "hr0", [5.0, 7.0], trials=4, n_jobs=2)
except RuntimeError as exc:
    print("RuntimeError:", exc)
print("children:", multiprocessing.active_children())
print("exit:", cli.main(["sweep", "--config", ini, "--var", "hr0",
                         "--values", "5,7", "--trials", "4", "--seed", "7",
                         "--jobs", "2", "--out", out]))
print("children:", multiprocessing.active_children())
"""


@needs_fork
def test_killed_sweep_helper_raises_instead_of_hanging(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[geometry]\nmean_iot_count = 2\n"
                   "[radio]\nm_antennas = 2\nn_elements = 8\n"
                   "[optimizer]\nsdp_max_iter = 150\n"
                   "randomization_draws = 20\n")
    out = tmp_path / "rates.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(harness.__file__)),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", KILLED_HELPER_SCRIPT,
                           str(ini), str(out)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "RuntimeError: helper process 1 ended before sending result 5 of 8",
        "children: []", "exit: 2", "children: []"]
    assert "numerical failure: helper process 1 ended" in done.stderr
    # cell 0's trials all completed before the helper died; its row is kept
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["value"], row["trials"]) for row in rows] == [("5.0", "4")]


@pytest.mark.parametrize("count, T, B, M, what", [
    (10, 11, 7, 1, "pilot book"),        # 110, 99, 100
    (1, 10, 9, 1, "sounding blocks"),    # 10, 110, 1
    (6, 6, 0, 2, "Schur test"),          # 36, 24, 144
])
def test_interval_size_is_checked_at_its_cap(count, T, B, M, what,
                                             monkeypatch):
    monkeypatch.setattr(harness, "MAX_INTERVAL_ELEMENTS", 100)
    harness._check_interval_size(count=10, T=10, B=8, M=1)   # all at 100
    harness._check_interval_size(count=5, T=5, B=0, M=2)     # Schur 100
    with pytest.raises(ConfigError, match=what):
        harness._check_interval_size(count=count, T=T, B=B, M=M)


def test_interval_past_the_size_cap_raises_before_allocating(monkeypatch):
    # about 10 000 IoTs: a 1e8-element pilot book and a (2e4)^2 Schur test
    monkeypatch.setattr(harness.estimation, "make_orthogonal_pilots",
                        lambda *args: pytest.fail("allocated the pilots"))
    with pytest.raises(ConfigError, match="pilot book, over the 16777216"):
        run_coherence_interval(small_cfg(mean_iots=10_000.0),
                               np.random.default_rng(0))


def test_los_probability_table_shape_and_range():
    cfg = small_cfg(seed=8)
    table = los_probability_table(cfg, [3, 7], [2.0, 30.0], samples=500)
    assert list(table) == ["sea_state", "h_r0_m", "los_prob"]
    assert list(zip(table["sea_state"].tolist(), table["h_r0_m"].tolist())) == [
        (3, 2.0), (3, 30.0), (7, 2.0), (7, 30.0)]
    assert all(0.0 <= p <= 1.0 for p in table["los_prob"])
    again = los_probability_table(cfg, [3, 7], [2.0, 30.0], samples=500)
    assert all(np.array_equal(table[c], again[c]) for c in table)


def is_cell(rx, wave, cell):
    """Whether a los_probability call is that of the (sea state, mast
    height) cell, told by the wave period, which differs per state, and the
    receiver's mast."""
    level, h = cell
    return (wave.T_wave, rx.mast_height) == (sea_state(level).period_mean, h)


def per_cell_reference(cfg, states, heights, samples):
    """los_probability called cell by cell, in table order, in this thread."""
    tx = FloatingNode(position=cfg.geometry.turbine_position,
                      mast_height=cfg.geometry.iot_mast_m)
    return [sea_surface.los_probability(
                tx, FloatingNode(position=cfg.geometry.rx_position,
                                 mast_height=h),
                wave_from_sea_state(sea_state(level), cfg.geometry.wave_source),
                samples)
            for level in states for h in heights]


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_los_probability_table_equals_per_cell_calls(cpus, monkeypatch,
                                                     map_widths):
    cfg = small_cfg(seed=4)
    states, heights = [3, 8, 5], [2.0, 30.0]
    reference = per_cell_reference(cfg, states, heights, 700)
    set_cpus(monkeypatch, cpus)
    table = los_probability_table(cfg, states, heights, samples=700)
    assert table["los_prob"].tolist() == reference
    assert map_widths == ([] if cpus == 1 else [cpus])


def test_los_probability_table_keeps_cell_order_when_cells_finish_late(
        monkeypatch):
    cfg = small_cfg(seed=2)
    reference = per_cell_reference(cfg, [3, 7], [2.0, 30.0], 300)
    calls = sea_surface.los_probability

    def first_cell_slow(tx, rx, wave, samples):
        if is_cell(rx, wave, (3, 2.0)):
            time.sleep(0.2)   # the helper finishes its cells first
        return calls(tx, rx, wave, samples)

    monkeypatch.setattr(sea_surface, "los_probability", first_cell_slow)
    set_cpus(monkeypatch, 2)
    table = los_probability_table(cfg, [3, 7], [2.0, 30.0], samples=300)
    assert table["los_prob"].tolist() == reference


@needs_fork
def test_los_probability_table_pool_is_capped_at_cells_and_cpus(
        monkeypatch, map_widths):
    cfg = small_cfg(seed=1)
    set_cpus(monkeypatch, 3)
    for states, heights in (([3, 7], [2.0, 5.0, 30.0]),   # 6 cells, 3 CPUs
                            ([3], [2.0, 30.0]),           # 2 cells
                            ([5], [10.0])):               # 1 cell: no helper
        los_probability_table(cfg, states, heights, samples=50)
        assert multiprocessing.active_children() == []
    assert map_widths == [3, 2]
    set_cpus(monkeypatch, None)
    los_probability_table(cfg, [3, 7], [2.0], samples=50)
    assert map_widths == [3, 2]


def failing_cell(calls, cell):
    """calls, the los_probability function, raising on one (sea state,
    mast height) cell."""

    def failing(tx, rx, wave, samples):
        if is_cell(rx, wave, cell):
            raise FloatingPointError(f"overflow in cell {cell}")
        return calls(tx, rx, wave, samples)

    return failing


@needs_fork
def test_failing_los_cell_propagates_and_leaves_no_helper(monkeypatch,
                                                          capsys):
    set_cpus(monkeypatch, 2)
    # of the four cells on two processes, (3, 30.0) is the helper's and
    # (7, 2.0) this process's
    calls = sea_surface.los_probability
    for cell in ((3, 30.0), (7, 2.0)):
        monkeypatch.setattr(sea_surface, "los_probability",
                            failing_cell(calls, cell))
        message = f"overflow in cell {cell}"
        with pytest.raises(FloatingPointError, match=re.escape(message)):
            los_probability_table(small_cfg(), [3, 7], [2.0, 30.0],
                                  samples=50)
        assert multiprocessing.active_children() == []
        assert cli.main(["los-prob", "--states", "3,7", "--heights", "2,30",
                         "--samples", "50"]) == 2
        assert message in capsys.readouterr().err
        assert multiprocessing.active_children() == []


def test_pathloss_table_columns_and_guard():
    cfg = small_cfg()
    table = pathloss_table(cfg, [100.0, 500.0])
    assert list(table) == ["d_m", "los_db", "nlos_db", "free_space_db"]
    assert table["d_m"][0] == 100.0
    assert table["nlos_db"][1] > table["los_db"][1]
    with pytest.raises(ConfigError):
        pathloss_table(cfg, [0.5])


def test_mean_rate_grows_with_receiver_mast_in_rough_seas():
    """Raising the receiver antenna clears more wave crests, so the mean
    effective rate should trend upward (one sampling inversion tolerated).

    Paired trials (same scenario seed and cell index per height) share
    deployments, wave phases, and fading draws, so the height effect is
    isolated."""
    cfg = small_cfg(sea=7, N=16, M=2, mean_iots=4.0, seed=3)
    heights = [2.0, 5.0, 10.0, 20.0, 30.0]
    rates = [np.array([r.rate_ris for r in
                       run_cell(apply_sweep_value(cfg, "hr0", h),
                                trials=200, cell_idx=0)])
             for h in heights]
    drops = 0
    for lo, hi in zip(rates, rates[1:]):
        diff = hi - lo
        if diff.mean() < 0:
            drops += 1
            assert -diff.mean() < diff.std(ddof=1) / math.sqrt(len(diff))
    assert drops <= 1


def imported_modules(module) -> set:
    """Names of the modules a module's source imports: top-level packages
    of absolute imports, and marisim modules by their own names."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[0])
            else:   # from . import channel: the modules named
                names.update(alias.name for alias in node.names)
    return names


def test_tables_and_harness_keep_to_their_own_concerns():
    # the tables know no interval stage; the pipeline forks and writes
    # nothing itself
    assert imported_modules(tables).isdisjoint(
        {"energy", "estimation", "optimizer", "ris_system", "harness"})
    assert imported_modules(harness).isdisjoint(
        {"json", "multiprocessing", "threading", "os"})
    assert {"channel", "sea_surface", "config"} <= imported_modules(tables)
    assert {"tables", "optimizer", "contextlib"} <= imported_modules(harness)


def test_only_write_blocks_writes_to_stdout():
    # one writer for every table and the validate report: no other code
    # names stdout, and every print goes to stderr
    lines, first = inspect.getsourcelines(tables.write_blocks)
    writer = range(first, first + len(lines))
    package = os.path.dirname(tables.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr == "stdout":
                assert name == "tables.py" and node.lineno in writer, where
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "print"):
                assert [ast.unparse(k.value) for k in node.keywords
                        if k.arg == "file"] == ["sys.stderr"], where
