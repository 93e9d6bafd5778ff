"""In-memory span tracer that times marisim's layers from outside the program.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that records a span (stage, function, parent span, start,
end). Stage spans nest: a stage's self time is its span time minus the time
of its direct child stage spans. Detail spans (``np.linalg.eigh``) and
counters only add figures and take nothing from their parent, so the solver
keeps the eigendecompositions it runs in its own self time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute, stage). The first entry of INTERVAL_STAGES is the root
# of every interval; its self time is the remainder no stage accounts for.
INTERVAL_STAGES = (
    ("marisim.harness", "run_coherence_interval", "harness.interval"),
    ("marisim.harness", "deploy_iots", "harness.deploy"),
    ("marisim.energy", "harvested_power", "harness.deploy"),
    ("marisim.energy", "available_tx_power", "harness.deploy"),
    ("marisim.sea_surface", "los_state", "sea_surface.los_state"),
    ("marisim.channel", "synthesize_direct_channel", "channel.synth"),
    ("marisim.channel", "ris_incident_vector", "channel.synth"),
    ("marisim.channel", "ris_departure_matrix", "channel.synth"),
    ("marisim.channel", "cascade", "channel.synth"),
    ("marisim.estimation", "simulate_pilot_rx", "estimation.sound"),
    ("marisim.estimation", "estimate_direct", "estimation.ls"),
    ("marisim.estimation", "estimate_cascaded", "estimation.ls"),
    ("marisim.optimizer", "build_D", "optimizer.build_D"),
    ("marisim.optimizer", "solve_sdp", "optimizer.sdp"),
    ("marisim.optimizer", "randomize", "optimizer.randomize"),
    ("marisim.ris_system", "sum_capacity", "ris_system.score"),
    ("marisim.ris_system", "direct_capacity", "ris_system.score"),
)

# The path-loss functions are traced on the tables workload only: inside an
# interval they run under the synthesis functions and belong to that stage.
TABLE_STAGES = (
    ("marisim.sea_surface", "los_probability", "sea_surface.los_probability"),
    ("marisim.channel", "path_loss_los", "channel.pathloss"),
    ("marisim.channel", "path_loss_nlos", "channel.pathloss"),
    ("marisim.channel", "path_loss_free_space", "channel.pathloss"),
)

EMIT_STAGES = (
    ("marisim.harness", "format_table", "harness.emit"),
    ("marisim.cli", "_write_output", "harness.emit"),
)

DETAILS = (("numpy.linalg", "eigh", "optimizer.eigh"),)

# estimation imported combined_channel by name, so both bindings are counted.
COUNTERS = (
    ("marisim.ris_system", "combined_channel", "ris_system.combined_channel"),
    ("marisim.estimation", "combined_channel", "ris_system.combined_channel"),
)


class Tracer:
    """Spans and counters of one traced region, kept in memory."""

    def __init__(self):
        # each span: [stage, function, parent index, is_stage, start_ns, end_ns]
        self.spans = []
        self.counts = Counter()
        self.solves = []          # (iterations, converged) per solve_sdp call
        self._stack = []
        self._patches = []

    def _wrap(self, fn, stage, is_stage):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        func = getattr(fn, "__name__", stage)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [stage, func, stack[-1] if stack else -1, is_stage, 0, 0]
            spans.append(span)
            if is_stage:
                stack.append(idx)
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                if is_stage:
                    stack.pop()

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_solves(self, fn):
        solves = self.solves

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            solves.append((sol.iterations, bool(sol.converged)))
            return sol

        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._patches.append((module, attr, original))

    def install(self, stages, details=(), counters=()):
        """Wrap the functions of `stages` and `details` in spans and count
        the calls of `counters`."""
        for module, attr, stage in stages:
            make = (lambda f, s=stage: self._wrap(f, s, True))
            if attr == "solve_sdp":
                make = (lambda f, s=stage: self._wrap(self._record_solves(f),
                                                      s, True))
            self._patch(module, attr, make)
        for module, attr, stage in details:
            self._patch(module, attr, lambda f, s=stage: self._wrap(f, s, False))
        for module, attr, name in counters:
            self._patch(module, attr, lambda f, n=name: self._count(f, n))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def root(self, stage):
        """Wrapper for a callable that should be traced as one root span."""
        return lambda fn: self._wrap(fn, stage, True)

    def dump(self, path):
        """Write the spans (times in ns from the first span) and counters."""
        t0 = self.spans[0][4] if self.spans else 0
        doc = {"fields": ["stage", "function", "parent", "is_stage",
                          "start_ns", "end_ns"],
               "spans": [[s[0], s[1], s[2], s[3], s[4] - t0, s[5] - t0]
                         for s in self.spans],
               "counts": dict(self.counts),
               "solves": self.solves}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans):
    """Self time (ns) of each span: its duration minus its direct child stage
    spans. Detail spans keep their duration and take none from the parent."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        parent, is_stage = s[2], s[3]
        if parent >= 0 and is_stage:
            own[parent] -= s[5] - s[4]
    return own


def stage_totals(spans):
    """Total self time (ns) and number of spans, per stage name."""
    totals, calls = Counter(), Counter()
    for s, own in zip(spans, self_times(spans)):
        totals[s[0]] += own
        calls[s[0]] += 1
    return totals, calls
