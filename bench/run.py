"""marisim benchmark: runs one workload (or all) from the root of a checkout.

    python3 bench/run.py --workload scaled --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh process (bench/worker.py) with the BLAS thread
count pinned and `marisim` imported from the checkout's own src/. Set-up
time is taken from several further fresh processes that import marisim and
load the workload's INI. Prints the metrics, then one JSON line: correct,
operations attempted and failed, and every metric with its unit (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
Outputs (INI files, result tables, traces) go to .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
# One BLAS thread: runs are single-process, and on a small machine threaded
# OpenBLAS competes with itself and with anything else running.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, timeout: float) -> dict:
    """Run bench/worker.py to its end; return its last stdout line as JSON."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def measure_setup(ini: str, deadline: float):
    """Median over fresh processes of spawn -> marisim imported and the INI
    loaded, plus the medians of the import and load times alone."""
    walls, imports, loads = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = run_child(["--probe", "--config", ini], deadline - t0)
        walls.append(out["ready"] - t0)
        imports.append(out["import_ms"])
        loads.append(out["load_ms"])
    return (statistics.median(walls), statistics.median(imports),
            statistics.median(loads))


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "marisim" / "__init__.py").is_file():
        raise BenchError(f"no marisim sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / name
    ini = Path(f"{stem}.ini")
    ini.write_text(workloads.ini_text(workloads.WORKLOADS[name][1]),
                   encoding="utf-8")
    setup_s, import_ms, load_ms = measure_setup(str(ini), deadline)
    result = run_child(["--config", str(ini), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace), "--out-stem", str(stem)],
                       deadline - time.monotonic())
    metrics = result["metrics"]
    if trace:
        metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
        metrics["config.load_ms"] = {"value": load_ms, "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [
        args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print(f"{name}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    for name, result in results.items():
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
