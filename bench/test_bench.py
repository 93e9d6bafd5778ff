"""Tests of the benchmark's own arithmetic: span self times and the reference
formulas of oracle.py on hand-computed values.

    python3 -m pytest bench/test_bench.py
"""

import math
import sys
import types

import numpy as np
import pytest

import oracle
import tracer
import workloads


def span(stage, parent, start, end, is_stage=True):
    return [stage, stage, parent, is_stage, start, end]


def test_self_time_subtracts_direct_stage_children_only():
    spans = [
        span("root", -1, 0, 100),
        span("a", 0, 10, 40),
        span("eigh", 1, 15, 20, is_stage=False),   # detail: not subtracted
        span("b", 0, 50, 70),
        span("c", 3, 55, 60),
        span("a", 0, 80, 90),
    ]
    assert tracer.self_times(spans) == [100 - 30 - 20 - 10, 30, 5, 15, 5, 10]
    totals, calls = tracer.stage_totals(spans)
    assert totals["a"] == 40 and calls["a"] == 2
    # stage self times add up to the root's span exactly
    assert sum(totals[s] for s in ("root", "a", "b", "c")) == 100


def test_tracer_nests_spans_and_restores_functions(monkeypatch):
    mod = types.ModuleType("bench_fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    monkeypatch.setitem(sys.modules, "bench_fake", mod)
    originals = (mod.inner, mod.outer)
    t = tracer.Tracer()
    t.install((("bench_fake", "outer", "s.outer"),
               ("bench_fake", "inner", "s.inner")))
    try:
        assert mod.outer(1) == 4
    finally:
        t.uninstall()
    assert (mod.inner, mod.outer) == originals
    assert [(s[0], s[2]) for s in t.spans] == [("s.outer", -1), ("s.inner", 0)]
    own = tracer.self_times(t.spans)
    assert own[0] + own[1] == t.spans[0][5] - t.spans[0][4]


def test_harvested_power_matches_the_energy_chain_oracle():
    # criterion 8's oracle: state 4 with the default wave-energy converter
    assert oracle.harvested_power(4, workloads.ENERGY) == pytest.approx(
        286.40029273441723, rel=1e-12)
    # state 5 harvests ~956 W, so the 100 W cap binds
    assert oracle.tx_power(5, workloads.ENERGY) == 100.0
    low_cap = dict(workloads.ENERGY, p_max_w=1e6)
    assert oracle.tx_power(4, low_cap) == pytest.approx(281.40029273441723,
                                                        rel=1e-12)


def test_overhead_on_hand_values():
    # (64 + 2) sub-frames of 4 pilots out of 5e6 * 0.1 symbol slots
    assert oracle.overhead(64, 4, 5e6, 0.1) == pytest.approx(1 - 264 / 5e5,
                                                             rel=1e-15)
    assert oracle.overhead(360, 5000, 5e6, 0.1) == 0.0


def test_sum_rate_on_hand_values():
    H_d = np.array([[1.0 + 0j]])           # one antenna, one IoT
    G = np.array([[[1.0 + 0j]]])           # one element
    P = np.array([1.0])
    assert oracle.sum_rate(H_d, G, P, np.array([1.0]), 1.0, 1.0) == \
        pytest.approx(math.log2(5.0))
    assert oracle.sum_rate(H_d, G, P, np.array([-1.0]), 1.0, 1.0) == 0.0
    assert oracle.sum_rate(H_d, G, P, np.array([1j]), 1.0, 1.0) == \
        pytest.approx(math.log2(3.0))
    assert oracle.sum_rate(H_d, G, P, None, 2.0, 0.5) == pytest.approx(
        2.0 * math.log2(3.0))
    # H_d holds conjugated rows: column 1j is the row -1j
    assert oracle.received_power(np.array([[1j]]), G, P,
                                 np.array([1j])) == pytest.approx(0.0)


def test_path_loss_formulas_on_hand_values():
    # 20 log10(4 pi / c) + 20 log10(5.8e9) + 20 log10(1000)
    #   = -147.55222 + 195.26856 + 60
    assert oracle.free_space_db(1000.0, 5.8e9) == pytest.approx(107.71634,
                                                                abs=1e-5)
    assert oracle.nlos_db(100.0, 130.6, 2.1, 1.0) == pytest.approx(172.6)
    assert oracle.nlos_db(1.0, 130.6, 2.1, 1.0) == pytest.approx(130.6)


def test_table_checks_flag_bad_tables():
    states, heights = (3, 8), (2.0, 30.0)
    rows = [{"sea_state": 3, "h_r0_m": 2.0, "los_prob": 1.0},
            {"sea_state": 3, "h_r0_m": 30.0, "los_prob": 1.0},
            {"sea_state": 8, "h_r0_m": 2.0, "los_prob": 0.4},
            {"sea_state": 8, "h_r0_m": 30.0, "los_prob": 0.9}]
    assert oracle.check_los_table(rows, states, heights) == []
    rows[3]["los_prob"] = 0.3
    assert oracle.check_los_table(rows, states, heights)
    rows[3]["los_prob"] = 1.0
    assert oracle.check_los_table(rows, states, heights)

    p = workloads.PATHLOSS
    d = np.linspace(50.0, 60.0, 3)
    good = [{"d_m": x, "los_db": 100.0,
             "nlos_db": oracle.nlos_db(x, p["k_nlos_db"], p["alpha_nlos"],
                                       p["d_0_m"]),
             "free_space_db": oracle.free_space_db(x, p["f_c_hz"]) + 2e-3}
            for x in d]
    assert oracle.check_pathloss_table(good, 50.0, 60.0, 3, p) == []
    good[1]["nlos_db"] += 1e-3
    assert oracle.check_pathloss_table(good, 50.0, 60.0, 3, p)


def test_round_commands_follow_the_seed():
    a = workloads.round_commands("tables", "x.ini", 3, 0, "out")
    b = workloads.round_commands("tables", "x.ini", 3, 0, "out")
    c = workloads.round_commands("tables", "x.ini", 4, 0, "out")
    assert a == b and a != c
    (argv, _, what), = workloads.round_commands("scaled", "x.ini", 3, 2, "o")
    assert what == "sweep" and argv[argv.index("--seed") + 1] == "3002"
    assert argv[argv.index("--jobs") + 1] == "1"
