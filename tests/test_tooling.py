"""The benchmark's hooks and the experiment script, run against the package:
a renamed function fails here rather than only in a traced benchmark run."""

import csv
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import marisim

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


def test_rate_sweeps_script_writes_one_row_per_cell(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "rate_sweeps", ROOT / "scripts" / "rate_sweeps.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--scale", "quick", "--which", "pmax", "--trials", "1",
                        "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "rates_pmax.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8            # 4 power caps x 2 sea states
    assert {(float(r["value"]), int(r["sea_state"])) for r in rows} == {
        (v, s) for v in (10.0, 20.0, 50.0, 100.0) for s in (2, 5)}
    assert all(r["trials"] == "1" for r in rows)
