"""The benchmark's hooks and the README's experiment commands, run against
the package: a renamed function or option fails here rather than only in a
traced benchmark run or a user's shell."""

import contextlib
import csv
import importlib
import pathlib
import pkgutil
import re
import shlex

import numpy as np
import pytest

import marisim
from marisim import cli, estimation, harness, ris_system
from marisim.config import GeometryConfig, RadioConfig, ScenarioConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("tracer"), importlib.import_module("worker")


def test_every_traced_name_resolves_to_a_callable(bench):
    tracer, _ = bench
    names = (tracer.INTERVAL_STAGES + tracer.TABLE_STAGES + tracer.EMIT_STAGES
             + tracer.DETAILS + tracer.COUNTERS)
    for module, attr, _ in names:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


@contextlib.contextmanager
def installed_capture(worker):
    """A worker.Capture installed on the marisim modules, with the list of
    (module, attribute, original) it hooked, which is filled when the block
    ends: every hook is undone then, also after a partial install."""
    modules = [importlib.import_module(f"marisim.{info.name}")
               for info in pkgutil.iter_modules(marisim.__path__)]
    before = [dict(vars(m)) for m in modules]
    hooked = []
    try:
        capture = worker.Capture()
        capture.install()
        yield capture, hooked
    finally:
        for module, names in zip(modules, before):
            for attr, value in names.items():
                if getattr(module, attr) is not value:
                    hooked.append((module.__name__, attr, value))
                    setattr(module, attr, value)


def test_every_capture_hook_resolves_to_a_callable(bench):
    _, worker = bench
    with installed_capture(worker) as (_, hooked):
        pass
    assert len(hooked) == 4
    assert all(callable(value) for _, _, value in hooked), hooked


@pytest.mark.parametrize("name", ["scaled", "full"])
def test_benchmark_checks_pass_at_each_interval_workload(bench, name,
                                                         tmp_path):
    """What bench/worker.py checks of an interval workload, at its own
    shape: the noiseless-estimation check, and check_interval and
    check_sweep_row on three sweep rounds of the workload's INI run under
    worker.Capture.  A change that breaks a call the benchmark makes fails
    here, not only in a benchmark run."""
    _, worker = bench
    oracle = importlib.import_module("oracle")
    workloads = importlib.import_module("workloads")
    _, scenario, trials = workloads.WORKLOADS[name]
    radio = scenario["radio"]
    iots = max(1, round(scenario["geometry"]["mean_iot_count"]))
    assert oracle.check_noiseless_estimation(
        estimation, ris_system, radio["n_elements"], radio["m_antennas"],
        iots, 1) == []
    ini = tmp_path / f"{name}.ini"
    ini.write_text(workloads.ini_text(scenario))
    scored = 0
    with installed_capture(worker) as (capture, _):
        for r in range(3):
            [(argv, out, _)] = workloads.round_commands(
                name, str(ini), 1, r, str(tmp_path / name))
            capture.intervals.clear()
            assert cli.main(argv) == 0
            done = list(capture.intervals)
            assert len(done) == trials
            for _, rec, cap in done:
                assert oracle.check_interval(rec, cap, scenario) == []
                scored += "true" in cap
            rates = [(rec.rate_ris, rec.rate_noris) for _, rec, _ in done]
            assert oracle.check_sweep_row(worker.read_csv(out)[0], rates,
                                          trials) == []
    assert scored > 0   # the checks of a scored interval ran


def test_readme_experiment_commands_write_each_grid(tmp_path):
    """The README's paper experiments, run as documented at one trial each:
    every sweep writes one row per (value, sea state) of its options."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Paper experiments")[1].split("\n## ")[0]
    ini = tmp_path / "quick.ini"
    ini.write_text(re.search(r"```ini\n(.*?)```", section, re.DOTALL)[1])
    commands = [shlex.split(line) for line in section.replace("\\\n", " ")
                .splitlines() if line.startswith("marisim sweep")]
    grids = {}
    for command in commands:
        opts = dict(zip(command[2::2], command[3::2]))
        assert opts["--config"] == "quick.ini"
        out = tmp_path / opts["--out"]
        opts.update({"--config": str(ini), "--trials": "1", "--out": str(out)})
        assert cli.main(["sweep", *(x for kv in opts.items() for x in kv)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        grid = [(float(r["value"]), int(r["sea_state"])) for r in rows]
        assert grid == [(float(v), int(s)) for v in opts["--values"].split(",")
                        for s in opts["--states"].split(",")]
        assert all(r["sweep_var"] == opts["--var"] and r["trials"] == "1"
                   for r in rows)
        grids[opts["--var"]] = grid
    assert set(grids) == {"hr0", "n", "pmax"}
    assert len(grids["hr0"]) == 20 and len(grids["n"]) == 4
    assert set(grids["pmax"]) == {(v, s) for v in (10.0, 20.0, 50.0, 100.0)
                                  for s in (2, 5)}


def test_readme_library_example_runs_as_written(capsys):
    """The README's library use, executed as written: it prints one mean
    rate and then writes a sweep's table through format_table and
    write_blocks, so neither the documented calls nor the modules they are
    imported from can drift from the API."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use")[1].split("\n## ")[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    first, *table = capsys.readouterr().out.splitlines()
    mean_rate = float(first)
    assert np.isfinite(mean_rate) and mean_rate > 0
    rows = list(csv.DictReader(table))
    assert [(r["sweep_var"], float(r["value"]), r["trials"]) for r in rows] == [
        ("hr0", 5.0, "10"), ("hr0", 10.0, "10")]


def test_one_interval_sounds_the_schedule_once_and_estimates_once(monkeypatch):
    """The benchmark's estimation.sound and estimation.ls spans wrap these
    two calls, so all of the sounding and LS work must happen inside them."""
    calls = []
    sound, ls = estimation.simulate_pilot_rx, estimation.estimate_cascaded
    combine = estimation.combined_channel

    def spy_sound(snap, q, pilots, rng=None):
        calls.append(("sound", q))
        return sound(snap, q, pilots, rng)

    def spy_ls(Yb, pilots, Hd_hat, sched):
        calls.append(("ls", sched))
        return ls(Yb, pilots, Hd_hat, sched)

    def spy_combine(*args):
        calls.append(("combined_channel", None))
        return combine(*args)

    monkeypatch.setattr(estimation, "simulate_pilot_rx", spy_sound)
    monkeypatch.setattr(estimation, "estimate_cascaded", spy_ls)
    monkeypatch.setattr(estimation, "combined_channel", spy_combine)
    cfg = ScenarioConfig(sea_state=5,
                         geometry=GeometryConfig(mean_iot_count=4.0),
                         radio=RadioConfig(m_antennas=2, n_elements=8))
    rec = harness.run_coherence_interval(cfg, np.random.default_rng(3))
    assert len(rec.powers) > 0
    assert [name for name, _ in calls] == ["sound", "ls"]
    sched = calls[0][1]
    assert isinstance(sched, estimation.ReflectionSchedule)
    assert calls[1][1] is sched
    assert (sched.N, sched.B) == (8, cfg.b_effective)


def test_records_answer_every_field_the_benchmark_reads():
    """bench/oracle.py and bench/worker.py read TrialRecord fields by name;
    a record with IoTs and one without must answer each of them."""
    names = set()
    for script in ("oracle.py", "worker.py"):
        text = (ROOT / "bench" / script).read_text(encoding="utf-8")
        names.update(re.findall(r"\brec\.([A-Za-z_]\w*)", text))
    assert names, "no rec.<name> read found"
    records = []
    for mean_iots in (4.0, 1e-12):
        cfg = ScenarioConfig(sea_state=5,
                             geometry=GeometryConfig(mean_iot_count=mean_iots),
                             radio=RadioConfig(m_antennas=2, n_elements=8))
        records.append(harness.run_coherence_interval(
            cfg, np.random.default_rng(3)))
    assert [len(rec.powers) > 0 for rec in records] == [True, False]
    for rec in records:
        for name in sorted(names):
            assert hasattr(rec, name), name
