"""Monte-Carlo harness: deployment statistics, interval pipeline, sweeps,
and deterministic result emission."""

import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from marisim import cli, harness, sea_surface
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
    _format_cell,
    aggregate_cell,
    deploy_iots,
    emit_results,
    format_table,
    los_probability_table,
    pathloss_table,
    run_cell,
    run_coherence_interval,
    run_sweep,
)
from marisim.optimizer import OptimizerConfig
from marisim.sea_surface import FloatingNode, sea_state


def small_cfg(sea=5, N=8, M=2, mean_iots=2.0, **estimation):
    """Scaled-down scenario so harness tests stay fast."""
    return ScenarioConfig(
        sea_state=sea,
        geometry=GeometryConfig(mean_iot_count=mean_iots),
        radio=RadioConfig(m_antennas=M, n_elements=N),
        estimation=EstimationConfig(**estimation),
        optimizer=OptimizerConfig(sdp_tol=1e-4, sdp_max_iter=150,
                                  randomization_draws=20),
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
    rec = run_coherence_interval(cfg, 0, np.random.default_rng([3, 0, 0]))
    assert rec.sea_state == 5
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
    cfg = small_cfg(N=8, b_subframes=4)
    with pytest.raises(ConfigError):
        run_coherence_interval(cfg, 0, np.random.default_rng(0))


def test_empty_deployment_yields_zero_record():
    cfg = small_cfg(mean_iots=1e-12, N=360, t_pilot_len=4)
    rec = run_coherence_interval(cfg, 5, np.random.default_rng(1))
    assert rec.positions.shape == (0, 2)
    assert rec.c_ris == rec.rate_ris == 0.0
    assert rec.tx_power_w == 0.0
    # overhead is still the schedule cost: 1 - (B + 2) T / (beta * duration)
    assert rec.overhead == pytest.approx(1.0 - 362 * 4 / 500_000.0, rel=1e-12)
    assert rec.overhead == pytest.approx(0.997104, rel=1e-12)


def test_run_cell_is_deterministic_across_workers():
    cfg = small_cfg()
    runs = [run_cell(cfg, trials=4, seed=9, cell_idx=1, n_jobs=jobs)
            for jobs in (1, 1, 2)]
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            assert a.rate_ris == b.rate_ris
            assert a.rate_noris == b.rate_noris
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.powers, b.powers)


class RecordingPool:
    """Stand-in for multiprocessing.Pool that records the size it is asked
    for and maps in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def test_run_cell_caps_the_pool_at_trials_and_cpus(monkeypatch):
    cfg = small_cfg()
    serial = run_cell(cfg, trials=4, seed=9, cell_idx=1)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for jobs, trials in ((10 ** 6, 4), (10 ** 6, 2), (2, 4), (1, 4)):
        runs = run_cell(cfg, trials=trials, seed=9, cell_idx=1, n_jobs=jobs)
        assert [r.rate_ris for r in runs] == [r.rate_ris for r in serial[:trials]]
    assert RecordingPool.sizes == [3, 2, 2]   # --jobs 1 starts no pool
    # an unknown CPU count runs the cell in this process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_cell(cfg, trials=2, seed=9, cell_idx=1, n_jobs=8)
    assert RecordingPool.sizes == [3, 2, 2]


def test_run_sweep_maps_every_cell_through_one_pool(monkeypatch):
    cfg = small_cfg()
    serial = run_sweep(cfg, "hr0", [3.0, 5.0, 7.0], trials=2, seed=8)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pooled = run_sweep(cfg, "hr0", [3.0, 5.0, 7.0], trials=2, seed=8,
                       n_jobs=2)
    assert RecordingPool.sizes == [2]
    assert pooled == serial


def test_failed_cell_flushes_partial_results_through_one_pool(tmp_path,
                                                              monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = small_cfg(N=4, b_subframes=8)
    out = tmp_path / "partial.csv"
    with pytest.raises(ConfigError):
        # second cell asks for more elements than scheduled sub-frames
        run_sweep(cfg, "n", [4, 16], trials=1, seed=1, flush_path=out,
                  n_jobs=2)
    assert RecordingPool.sizes == [2]
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and int(rows[0]["value"]) == 4


def test_noiseless_ris_never_loses_to_direct():
    cfg = small_cfg(sea=5, noiseless=True)
    for rec in run_cell(cfg, trials=25, seed=21):
        assert rec.c_ris >= rec.c_noris - 1e-9
        assert rec.rate_ris >= rec.rate_noris - 1e-9


def test_aggregate_cell_statistics():
    cfg = small_cfg()
    records = run_cell(cfg, trials=5, seed=2)
    agg = aggregate_cell(records)
    rates = [r.rate_ris for r in records]
    assert agg["mean_rate_ris"] == pytest.approx(np.mean(rates))
    assert agg["std_rate_ris"] == pytest.approx(np.std(rates))
    assert agg["mean_los_prob"] == pytest.approx(
        np.mean([r.los_frac for r in records]))


def test_run_sweep_cell_grid_and_single_trial_reduction():
    cfg = small_cfg()
    rows = run_sweep(cfg, "hr0", [5.0, 7.0], trials=2, seed=4,
                     sea_states=[4, 5])
    assert [(r["value"], r["sea_state"]) for r in rows] == [
        (5.0, 4), (5.0, 5), (7.0, 4), (7.0, 5)]
    assert all(set(RESULT_COLUMNS) == set(r) for r in rows)

    single = run_sweep(cfg, "n", [8], trials=1, seed=4)
    [row] = single
    rec = run_cell(cfg, trials=1, seed=4, cell_idx=0)[0]
    assert row["mean_rate_ris"] == pytest.approx(rec.rate_ris)
    assert row["std_rate_ris"] == 0.0


def test_sea_sweep_sets_states_and_rejects_cross_product():
    cfg = small_cfg()
    rows = run_sweep(cfg, "sea", [4, 6], trials=1, seed=0)
    assert [r["sea_state"] for r in rows] == [4, 6]
    with pytest.raises(ConfigError):
        run_sweep(cfg, "sea", [4, 6], trials=1, seed=0, sea_states=[4])
    with pytest.raises(ConfigError):
        run_sweep(cfg, "hr0", [], trials=1, seed=0)


def test_failed_cell_flushes_partial_results(tmp_path):
    cfg = small_cfg(N=4, b_subframes=8)
    out = tmp_path / "partial.csv"
    with pytest.raises(ConfigError):
        # second cell asks for more elements than scheduled sub-frames
        run_sweep(cfg, "n", [4, 16], trials=1, seed=1, flush_path=out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and int(rows[0]["value"]) == 4


def test_emit_and_read_roundtrip_bit_exact(tmp_path):
    cfg = small_cfg()
    rows = run_sweep(cfg, "hr0", [5.0], trials=2, seed=6)
    path = tmp_path / "out.json"
    emit_results(rows, path, "structured")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == rows   # repr round-trip keeps floats exact
    path = tmp_path / "out.csv"
    emit_results(rows, path, "csv")
    with open(path, newline="", encoding="utf-8") as fh:
        back = list(csv.DictReader(fh))
    assert [{c: type(v)(cells[c]) for c, v in row.items()}
            for row, cells in zip(rows, back)] == rows
    assert len(back) == len(rows)


def test_emit_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], path, "csv")
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
    monkeypatch.setattr(harness, "ROWS_PER_BLOCK", 3)
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


def test_los_probability_table_shape_and_range():
    cfg = small_cfg()
    table = los_probability_table(cfg, [3, 7], [2.0, 30.0], samples=500, seed=8)
    assert list(table) == ["sea_state", "h_r0_m", "los_prob"]
    assert list(zip(table["sea_state"].tolist(), table["h_r0_m"].tolist())) == [
        (3, 2.0), (3, 30.0), (7, 2.0), (7, 30.0)]
    assert all(0.0 <= p <= 1.0 for p in table["los_prob"])
    again = los_probability_table(cfg, [3, 7], [2.0, 30.0], samples=500, seed=8)
    assert all(np.array_equal(table[c], again[c]) for c in table)


def per_cell_reference(cfg, states, heights, samples, seed):
    """los_probability called cell by cell, in table order, in this thread."""
    tx = FloatingNode(position=cfg.geometry.turbine_position,
                      mast_height=cfg.geometry.iot_mast_m)
    return [sea_surface.los_probability(
                sea_state(level), tx,
                FloatingNode(position=cfg.geometry.rx_position,
                             mast_height=h),
                samples, seed=[seed, si, hi],
                source=cfg.geometry.wave_source)
            for si, level in enumerate(states)
            for hi, h in enumerate(heights)]


class RecordingExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor that records the size of every pool made."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


@pytest.fixture
def recording_executor(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    return RecordingExecutor.sizes


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_los_probability_table_equals_per_cell_calls(cpus, monkeypatch,
                                                     recording_executor):
    cfg = small_cfg()
    states, heights = [3, 8, 5], [2.0, 30.0]
    reference = per_cell_reference(cfg, states, heights, 700, 4)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    table = los_probability_table(cfg, states, heights, samples=700, seed=4)
    assert table["los_prob"].tolist() == reference
    assert recording_executor == ([] if cpus == 1 else [cpus])


def test_los_probability_table_keeps_cell_order_when_cells_finish_late(
        monkeypatch):
    cfg = small_cfg()
    reference = per_cell_reference(cfg, [3, 7], [2.0, 30.0], 300, 2)
    calls = sea_surface.los_probability

    def first_cell_slow(state, tx, rx, samples, seed, source):
        if seed[1:] == [0, 0]:
            time.sleep(0.2)   # the other thread finishes the rest first
        return calls(state, tx, rx, samples, seed=seed, source=source)

    monkeypatch.setattr(sea_surface, "los_probability", first_cell_slow)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    table = los_probability_table(cfg, [3, 7], [2.0, 30.0], samples=300,
                                  seed=2)
    assert table["los_prob"].tolist() == reference


def test_los_probability_table_pool_is_capped_at_cells_and_cpus(
        monkeypatch, recording_executor):
    cfg = small_cfg()
    calls = sea_surface.los_probability
    before = threading.active_count()
    seen = []

    def counting(*args, **kwargs):
        seen.append(threading.active_count())
        return calls(*args, **kwargs)

    monkeypatch.setattr(sea_surface, "los_probability", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for states, heights in (([3, 7], [2.0, 5.0, 30.0]),   # 6 cells, 3 CPUs
                            ([3], [2.0, 30.0]),           # 2 cells
                            ([5], [10.0])):               # 1 cell: no pool
        los_probability_table(cfg, states, heights, samples=50, seed=1)
        assert threading.active_count() == before
    assert recording_executor == [3, 2]
    assert max(seen) <= before + 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    los_probability_table(cfg, [3, 7], [2.0], samples=50, seed=1)
    assert recording_executor == [3, 2]


def test_failing_los_cell_propagates_and_leaves_no_thread(monkeypatch,
                                                          capsys):
    calls = sea_surface.los_probability

    def failing(state, tx, rx, samples, seed, source):
        if seed[1:] == [1, 0]:
            raise FloatingPointError("overflow in cell (1, 0)")
        return calls(state, tx, rx, samples, seed=seed, source=source)

    monkeypatch.setattr(sea_surface, "los_probability", failing)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="cell \\(1, 0\\)"):
        los_probability_table(small_cfg(), [3, 7], [2.0, 30.0], samples=50)
    assert threading.active_count() == before
    assert cli.main(["los-prob", "--states", "3,7", "--heights", "2,30",
                     "--samples", "50"]) == 2
    assert "overflow in cell (1, 0)" in capsys.readouterr().err
    assert threading.active_count() == before


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

    Paired trials (same seed and cell index per height) share deployments,
    wave phases, and fading draws, so the height effect is isolated."""
    cfg = small_cfg(sea=7, N=16, M=2, mean_iots=4.0)
    heights = [2.0, 5.0, 10.0, 20.0, 30.0]
    rates = [np.array([r.rate_ris for r in
                       run_cell(apply_sweep_value(cfg, "hr0", h),
                                trials=200, seed=3, cell_idx=0)])
             for h in heights]
    drops = 0
    for lo, hi in zip(rates, rates[1:]):
        diff = hi - lo
        if diff.mean() < 0:
            drops += 1
            assert -diff.mean() < diff.std(ddof=1) / math.sqrt(len(diff))
    assert drops <= 1
