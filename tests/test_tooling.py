"""The benchmark's hooks and the README's experiment commands, run against
the package: a renamed function or option fails here rather than only in a
traced benchmark run or a user's shell."""

import csv
import importlib
import pathlib
import pkgutil
import re
import shlex

import numpy as np
import pytest

import marisim
from marisim import cli, estimation, harness
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


def test_every_capture_hook_resolves_to_a_callable(bench):
    _, worker = bench
    modules = [importlib.import_module(f"marisim.{info.name}")
               for info in pkgutil.iter_modules(marisim.__path__)]
    before = [dict(vars(m)) for m in modules]
    hooked = []
    try:
        worker.Capture().install()
    finally:
        # undo the hooks, also after a partial install
        for module, names in zip(modules, before):
            for attr, value in names.items():
                if getattr(module, attr) is not value:
                    hooked.append((module.__name__, attr, value))
                    setattr(module, attr, value)
    assert len(hooked) == 4
    assert all(callable(value) for _, _, value in hooked), hooked


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
    rec = harness.run_coherence_interval(cfg, 0, np.random.default_rng(3))
    assert len(rec.powers) > 0
    assert [name for name, _ in calls] == ["sound", "ls"]
    sched = calls[0][1]
    assert isinstance(sched, estimation.ReflectionSchedule)
    assert calls[1][1] is sched
    assert (sched.N, sched.B) == (8, cfg.b_effective)
