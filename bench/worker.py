"""One benchmark workload, run in a fresh process started by run.py.

The marisim CLI is called in-process, one round at a time, so that the clock
can be read at the harness.run_coherence_interval boundary and the inputs and
outputs of every interval captured for the checks in oracle.py. With
--probe the process only imports marisim and loads the scenario, which is
what setup_s measures. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import resource
import statistics
import sys
import time

import tracer as tracing


def probe(config: str) -> None:
    t0 = time.perf_counter()
    import marisim.cli  # noqa: F401
    t1 = time.perf_counter()
    from marisim.config import load_config
    load_config(config)
    t2 = time.perf_counter()
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_ms": (t1 - t0) * 1e3,
                      "load_ms": (t2 - t1) * 1e3}))


class Capture:
    """Hooks that stay installed for the whole run: the interval clock and
    the values the checks need. They add a Python call per hooked call."""

    def __init__(self):
        self.intervals = []   # (ns, TrialRecord, captured values)
        self._current = None

    def install(self):
        def hook(module_name, attr, make):
            module = importlib.import_module(module_name)
            setattr(module, attr, make(getattr(module, attr)))

        hook("marisim.harness", "run_coherence_interval", self._interval)
        hook("marisim.energy", "harvested_power",
             lambda f: self._keep(f, "harvested", lambda a, r: r))
        hook("marisim.ris_system", "sum_capacity",
             lambda f: self._keep(f, "true", lambda a, r: (a[0], a[1])))
        hook("marisim.optimizer", "optimize_phases",
             lambda f: self._keep(f, "estimated", lambda a, r: (a[0], r[0])))

    def _interval(self, fn):
        def wrapper(*args, **kwargs):
            self._current = cap = {}
            t0 = time.perf_counter_ns()
            rec = fn(*args, **kwargs)
            self.intervals.append((time.perf_counter_ns() - t0, rec, cap))
            return rec
        return wrapper

    def _keep(self, fn, key, pick):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._current is not None:
                self._current[key] = pick(args, result)
            return result
        return wrapper


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-stem", default="bench")
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.config)
        return 0

    from marisim import cli, estimation, ris_system

    # imported after the probe branch: they load numpy, which the probe
    # must time as part of importing marisim
    import oracle
    import workloads

    kind, scenario, trials = workloads.WORKLOADS[args.workload]
    capture = Capture()
    capture.install()
    stages = (tracing.INTERVAL_STAGES if kind == "interval"
              else tracing.TABLE_STAGES) + tracing.EMIT_STAGES
    trace = tracing.Tracer()

    attempted = failed = 0
    errors = []                    # every failed check, for stderr
    run_errors = []                # failures that are no one operation's
    op_ns = []                     # per untraced operation
    busy_ns = {False: 0, True: 0}  # timed wall time of the CLI calls
    ops = {False: 0, True: 0}
    iots_traced = 0
    work = {"los-prob": [0, 0], "pathloss": [0, 0]}   # items, ns untraced
    rate_gain = None

    def check_sweep(code, out, done):
        """Failed intervals of one sweep round."""
        nonlocal rate_gain
        if code != 0 or len(done) != trials:
            errors.append(f"sweep exited {code} after {len(done)} intervals")
            return trials
        bad = 0
        for _, rec, cap in done:
            errs = oracle.check_interval(rec, cap, scenario)
            errors.extend(errs)
            bad += bool(errs)
        row = read_csv(out)[0]
        errs = oracle.check_sweep_row(
            row, [(rec.rate_ris, rec.rate_noris) for _, rec, _ in done], trials)
        if errs:
            errors.extend(errs)
            return trials
        if rate_gain is None:
            rate_gain = (float(row["mean_rate_ris"])
                         / float(row["mean_rate_noris"]))
        return bad

    def check_table(code, out, what):
        if code != 0:
            errs = [f"{what} exited {code}"]
        elif what == "los-prob":
            errs = oracle.check_los_table(read_csv(out),
                                          workloads.TABLE_STATES,
                                          workloads.TABLE_HEIGHTS)
        else:
            d_min, d_max = workloads.pathloss_range(args.seed)
            errs = oracle.check_pathloss_table(
                read_csv(out), d_min, d_max, workloads.PATHLOSS_POINTS,
                scenario["radio"])
        errors.extend(errs)
        return bool(errs)

    def run_round(r, traced):
        nonlocal attempted, failed, iots_traced
        commands = workloads.round_commands(args.workload, args.config,
                                            args.seed, r, args.out_stem)
        call = cli.main
        if traced:
            trace.install(stages, tracing.DETAILS, tracing.COUNTERS)
            if kind == "tables":
                call = trace.root("cli.subcommand")(cli.main)
        try:
            for argv_, out, what in commands:
                capture.intervals.clear()
                t0 = time.perf_counter_ns()
                code = call(argv_)
                elapsed = time.perf_counter_ns() - t0
                busy_ns[traced] += elapsed
                if kind == "interval":
                    done = capture.intervals
                    ops[traced] += len(done)
                    if traced:
                        iots_traced += sum(len(rec.powers) for _, rec, _ in done)
                    else:
                        op_ns.extend(ns for ns, _, _ in done)
                    attempted += trials
                    failed += check_sweep(code, out, done)
                else:
                    ops[traced] += 1
                    attempted += 1
                    failed += check_table(code, out, what)
                    if not traced:
                        op_ns.append(elapsed)
                        work[what][0] += workloads.table_items(what)
                        work[what][1] += elapsed
        finally:
            if traced:
                trace.uninstall()

    # Whole rounds until the time is spent; with --trace 1 each round runs
    # untraced and then traced on the same inputs, which gives the overhead.
    start = time.perf_counter()
    r = 0
    while True:
        run_round(r, False)
        if args.trace:
            run_round(r, True)
        r += 1
        if time.perf_counter() - start >= args.seconds:
            break
    capture.intervals.clear()

    if kind == "interval":
        radio = scenario["radio"]
        run_errors.extend(oracle.check_noiseless_estimation(
            estimation, ris_system, radio["n_elements"], radio["m_antennas"],
            max(1, round(scenario["geometry"]["mean_iot_count"])), args.seed))

    def per_s(traced):
        return ops[traced] / (busy_ns[traced] * 1e-9)

    if args.trace:
        metrics = layer_metrics(trace, kind, ops[True], iots_traced,
                                per_s(False) / per_s(True), rate_gain, work)
        metrics["op_ms_p50"] = (statistics.median(op_ns) * 1e-6, "ms")
        trace.dump(f"{args.out_stem}-trace.json")
    else:
        metrics = {
            "ops_per_s": (per_s(False), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    for err in (errors + run_errors)[:20]:
        print("check failed:", err, file=sys.stderr)
    print(json.dumps({"correct": not run_errors, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(trace, kind, n_ops, iots, overhead, rate_gain, work):
    """Per-layer figures of the traced rounds: times are self time per
    operation (an interval or a table subcommand), counts are per interval
    or per solve as named."""
    totals, calls = tracing.stage_totals(trace.spans)
    root = "harness.interval" if kind == "interval" else "cli.subcommand"

    def ms(stage):
        return totals[stage] * 1e-6 / n_ops

    def per_interval(count):
        return count / n_ops if kind == "interval" else 0.0

    solves = trace.solves

    def per_solve(count):
        return count / len(solves) if solves else 0.0

    def inclusive_ms(stage):
        return sum(s[5] - s[4] for s in trace.spans if s[0] == stage) \
            * 1e-6 / n_ops

    def throughput(what):
        items, ns = work[what]
        return items / (ns * 1e-9) if ns else 0.0

    return {
        "harness.deploy_ms": (ms("harness.deploy"), "ms"),
        "harness.iots_per_interval": (per_interval(iots), "count"),
        "harness.emit_ms": (ms("harness.emit"), "ms"),
        "sea_surface.los_state_calls": (
            per_interval(calls["sea_surface.los_state"]), "count"),
        "sea_surface.los_state_ms": (ms("sea_surface.los_state"), "ms"),
        "sea_surface.los_probability_ms": (
            ms("sea_surface.los_probability"), "ms"),
        "channel.synth_ms": (ms("channel.synth"), "ms"),
        "channel.pathloss_ms": (ms("channel.pathloss"), "ms"),
        "ris_system.combined_channel_calls": (
            per_interval(trace.counts["ris_system.combined_channel"]), "count"),
        "ris_system.score_ms": (ms("ris_system.score"), "ms"),
        "estimation.sound_calls": (
            per_interval(calls["estimation.sound"]), "count"),
        "estimation.sound_ms": (ms("estimation.sound"), "ms"),
        "estimation.ls_ms": (ms("estimation.ls"), "ms"),
        "optimizer.build_D_ms": (ms("optimizer.build_D"), "ms"),
        "optimizer.sdp_ms": (ms("optimizer.sdp"), "ms"),
        "optimizer.sdp_iterations": (
            per_solve(sum(i for i, _ in solves)), "count"),
        "optimizer.eigh_calls": (per_solve(calls["optimizer.eigh"]), "count"),
        "optimizer.eigh_ms": (inclusive_ms("optimizer.eigh"), "ms"),
        "optimizer.certified_ratio": (
            per_solve(sum(c for _, c in solves)), "ratio"),
        "optimizer.randomize_ms": (ms("optimizer.randomize"), "ms"),
        "trace.op_ms": (inclusive_ms(root), "ms"),
        "trace.remainder_ms": (ms(root), "ms"),
        "trace.overhead_pct": ((overhead - 1.0) * 100.0, "%"),
        "rate_gain": (0.0 if rate_gain is None else rate_gain, "ratio"),
        "cli.los_evals_per_s": (throughput("los-prob"), "1/s"),
        "cli.pathloss_points_per_s": (throughput("pathloss"), "1/s"),
    }


if __name__ == "__main__":
    sys.exit(main())
