"""In-memory span tracer for the traced benchmark run.

The tracer replaces, for the duration of one traced pass, the names each
peaksched module looks up when it calls into another layer (for example
``peaksched.layering.run_algorithm`` or ``peaksched.analysis.integrate``)
with wrappers that record a span: name, start, end, parent span and pass
id.  Hot leaf functions that run millions of times (``cost_ratio`` and the
quadrature integrand) are counted, not spanned.  Nothing under ``src/`` is
edited; the originals are put back when the pass ends.

A span's name is ``<layer>.<function>``; the layer is the part before the
first dot.  A span's self time is its duration minus its direct children's.
"""
from __future__ import annotations

import contextlib
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute looked up there, span name)
SPANS = (
    ("peaksched.harness.cli", "main", "cli.main"),
    ("peaksched.harness.cli", "run_experiment", "experiment.run_experiment"),
    ("peaksched.harness.cli", "run_sweep", "experiment.run_sweep"),
    ("peaksched.harness.cli", "verify_theorems", "verify.verify_theorems"),
    ("peaksched.harness.experiment", "run_experiment", "experiment.run_experiment"),
    ("peaksched.harness.experiment", "write_report", "experiment.write_report"),
    ("peaksched.harness.experiment", "parse_trace_csv", "traces.parse_trace_csv"),
    ("peaksched.harness.experiment", "synth_trace", "traces.synth_trace"),
    ("peaksched.harness.experiment", "optimal_general", "offline.optimal_general"),
    ("peaksched.harness.experiment", "optimal_with_ramp", "offline.optimal_with_ramp"),
    ("peaksched.harness.experiment", "true_layer_sigma_hats", "prediction.true_layer_sigma_hats"),
    ("peaksched.harness.experiment", "flipped_layer_sigma_hats", "prediction.flipped_layer_sigma_hats"),
    ("peaksched.harness.experiment", "predicted_layer_sigma_hats", "prediction.predicted_layer_sigma_hats"),
    ("peaksched.harness.experiment", "gaussian_predictor", "prediction.gaussian_predictor"),
    ("peaksched.harness.experiment", "sigma_hat_of", "prediction.sigma_hat"),
    ("peaksched.harness.experiment", "run_layered", "layering.run_layered"),
    ("peaksched.harness.experiment", "project_ramp", "layering.project_ramp"),
    ("peaksched.harness.experiment", "cost_of", "model.cost_of"),
    ("peaksched.harness.experiment", "cost_reduction", "model.cost_reduction"),
    ("peaksched.harness.experiment", "sigma_of", "model.sigma"),
    ("peaksched.harness.experiment", "beta_of", "model.beta"),
    ("peaksched.layering", "decompose", "layering.decompose"),
    ("peaksched.layering", "run_algorithm", "online.run_algorithm"),
    ("peaksched.online", "sample", "online.sample"),
    ("peaksched.online", "run_threshold", "online.run_threshold"),
    ("peaksched.offline", "cost_of", "model.cost_of"),
    ("peaksched.harness.verify", "check_closed_forms", "verify.check_closed_forms"),
    ("peaksched.harness.verify", "check_randomized_envelopes", "verify.check_randomized_envelopes"),
    ("peaksched.harness.verify", "check_ratio_curve_empirical", "verify.check_ratio_curve_empirical"),
    ("peaksched.harness.verify", "expected_ratio", "analysis.expected_ratio"),
    ("peaksched.harness.verify", "worst_case_instance", "analysis.worst_case_instance"),
    ("peaksched.harness.verify", "optimal_basic", "offline.optimal_basic"),
    ("peaksched.harness.verify", "run_threshold", "online.run_threshold"),
    ("peaksched.harness.verify", "cost_of", "model.cost_of"),
    ("peaksched.analysis", "integrate", "quadrature.integrate"),
    ("peaksched", "run_algorithm", "online.run_algorithm"),
    ("peaksched", "cost_of", "model.cost_of"),
)

# (module, attribute looked up there, counter name): counted, not spanned
COUNTED = (
    ("peaksched.analysis", "cost_ratio", "analysis.cost_ratio_calls"),
    ("peaksched.harness.verify", "cost_ratio", "analysis.cost_ratio_calls"),
)


# Per-layer metrics of the traced run: name -> (unit, which way is better).
# ``*_s`` are inclusive span seconds unless named ``self_s``; counts repeat
# exactly from pass to pass and run to run.
PER_LAYER = {
    "traces.parse_s": ("s", "lower"),
    "traces.rows": ("count", "lower"),
    "experiment.cells": ("count", "higher"),
    "experiment.self_s": ("s", "lower"),
    "experiment.write_s": ("s", "lower"),
    "offline.general_s": ("s", "lower"),
    "offline.general_calls": ("count", "lower"),
    "offline.ramp_s": ("s", "lower"),
    "offline.ramp_calls": ("count", "lower"),
    "offline.ramp_ops": ("computed-ops", "lower"),
    "offline.basic_s": ("s", "lower"),
    "prediction.hats_s": ("s", "lower"),
    "prediction.calls": ("count", "lower"),
    "layering.self_s": ("s", "lower"),
    "layering.decompose_s": ("s", "lower"),
    "layering.decompose_calls": ("count", "lower"),
    "layering.layers_built": ("count", "lower"),
    "layering.layers_run_frac": ("ratio", "higher"),
    "layering.project_s": ("s", "lower"),
    "layering.project_calls": ("count", "lower"),
    "online.run_algorithm_calls": ("count", "lower"),
    "online.run_algorithm_self_s": ("s", "lower"),
    "online.sample_s": ("s", "lower"),
    "online.sample_calls": ("count", "lower"),
    "online.run_threshold_s": ("s", "lower"),
    "model.cost_of_s": ("s", "lower"),
    "model.cost_of_calls": ("count", "lower"),
    "model.traces_built": ("count", "lower"),
    "model.schedules_built": ("count", "lower"),
    "analysis.expected_ratio_s": ("s", "lower"),
    "analysis.expected_ratio_calls": ("count", "lower"),
    "analysis.expected_ratio_repeat_frac": ("ratio", "lower"),
    "analysis.cost_ratio_calls": ("count", "lower"),
    "quadrature.integrate_s": ("s", "lower"),
    "quadrature.integrate_calls": ("count", "lower"),
    "quadrature.evals": ("count", "lower"),
    "quadrature.evals_per_call": ("ratio", "lower"),
    "verify.closed_forms_s": ("s", "lower"),
    "verify.envelopes_s": ("s", "lower"),
    "verify.ratio_curve_s": ("s", "lower"),
    "verify.other_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def ramp_ops(trace, params) -> int:
    """Computed work of ``optimal_with_ramp``: for every peak cap its DP
    runs, T stages x (C + 1) levels x (2R + 1) predecessor window slots."""
    d = trace.demands.astype(int)
    cap, ramp = int(params.capacity), int(params.ramp)
    max_d = int(d.max())
    caps = [m for m in range(max(0, max_d - cap), max_d + 1) if not np.any(d - m > cap)]
    return len(caps) * len(d) * (cap + 1) * (2 * ramp + 1)


class Tracer:
    """Spans and counters of traced passes, held in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: list[Counter] = []
        self.pass_walls: list[float] = []
        self._stack = [-1]
        self._seen_ratios: set = set()

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.pass_id.append(len(self.counts) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts[-1]

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call counters -----------------------------------------------
    def _after_parse(self, args, kwargs, loaded):
        self.counts[-1]["traces.rows"] += 2 * len(loaded.trace) + loaded.dropped_price_rows + loaded.dropped_demand_rows

    def _after_ramp(self, args, kwargs, result):
        self.counts[-1]["offline.ramp_ops"] += ramp_ops(*args)

    def _after_decompose(self, args, kwargs, stack):
        self.counts[-1]["layering.layers_built"] += stack.depth

    def _after_layer_run(self, args, kwargs, record):
        self.counts[-1]["layering.layers_run"] += 1

    def _after_expected_ratio(self, args, kwargs, value):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._seen_ratios:
            self.counts[-1]["analysis.expected_ratio_repeats"] += 1
        self._seen_ratios.add(key)

    def _counting_integrate(self, integrate):
        counts = self.counts[-1]

        def wrapper(f, *args, **kwargs):
            def integrand(x):
                counts["quadrature.evals"] += 1
                return f(x)

            return integrate(integrand, *args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    @contextlib.contextmanager
    def traced_pass(self):
        """Install the wrappers for one pass and remove them afterwards.

        The caller appends the pass's timed wall seconds to ``pass_walls``.
        """
        from peaksched.model import Schedule, Trace

        self.counts.append(Counter())
        self._seen_ratios = set()
        after = {
            "traces.parse_trace_csv": self._after_parse,
            "offline.optimal_with_ramp": self._after_ramp,
            "layering.decompose": self._after_decompose,
            "analysis.expected_ratio": self._after_expected_ratio,
        }
        patches = []
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            fn = self._counting_integrate(original) if name == "quadrature.integrate" else original
            hook = after.get(name)
            if module_name == "peaksched.layering" and attr == "run_algorithm":
                hook = self._after_layer_run
            patches.append((module, attr, original, self._spanned(name, fn, hook)))
        for module_name, attr, counter in COUNTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            patches.append((module, attr, original, self._counted(counter, original)))
        for cls, counter in ((Trace, "model.traces_built"), (Schedule, "model.schedules_built")):
            original = cls.__post_init__
            patches.append((cls, "__post_init__", original, self._counted(counter, original)))
        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------
    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        pass_id = np.frombuffer(self.pass_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name_id, pass_id, dur, dur - child

    def pass_tables(self) -> list[dict]:
        """Per pass: inclusive seconds, self seconds and calls by span name,
        the counters, and self seconds by layer."""
        name_id, pass_id, dur, self_time = self._arrays()
        n_names, n_passes = len(self.names), len(self.counts)
        key = pass_id.astype(np.int64) * max(n_names, 1) + name_id
        size = n_passes * max(n_names, 1)
        incl = np.bincount(key, weights=dur, minlength=size).reshape(n_passes, -1)
        selfs = np.bincount(key, weights=self_time, minlength=size).reshape(n_passes, -1)
        calls = np.bincount(key, minlength=size).reshape(n_passes, -1)
        tables = []
        for p in range(n_passes):
            by_layer: Counter = Counter()
            for i, name in enumerate(self.names):
                by_layer[name.split(".", 1)[0]] += float(selfs[p, i])
            by_layer["(outside spans)"] = self.pass_walls[p] - sum(by_layer.values())
            tables.append({
                "wall_s": self.pass_walls[p],
                "incl_s": {n: float(incl[p, i]) for i, n in enumerate(self.names) if calls[p, i]},
                "self_s": {n: float(selfs[p, i]) for i, n in enumerate(self.names) if calls[p, i]},
                "calls": {n: int(calls[p, i]) for i, n in enumerate(self.names) if calls[p, i]},
                "counts": dict(self.counts[p]),
                "layer_self_s": dict(by_layer),
            })
        return tables

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent index, pass id) as ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def layer_metrics(table: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (0 where a layer was idle)."""
    incl, selfs, calls, counts = table["incl_s"], table["self_s"], table["calls"], table["counts"]

    def total(mapping, *names):
        return float(sum(mapping.get(n, 0) for n in names))

    def layer_self(layer):
        return total(selfs, *(n for n in selfs if n.startswith(layer + ".")))

    hats = [n for n in calls if n.startswith("prediction.")]
    layers_built = counts.get("layering.layers_built", 0)
    er_calls = calls.get("analysis.expected_ratio", 0)
    integrations = calls.get("quadrature.integrate", 0)
    verify_named = total(incl, "verify.check_closed_forms", "verify.check_randomized_envelopes",
                         "verify.check_ratio_curve_empirical")
    return {
        "traces.parse_s": total(incl, "traces.parse_trace_csv"),
        "traces.rows": counts.get("traces.rows", 0),
        "experiment.cells": calls.get("layering.run_layered", 0),
        "experiment.self_s": layer_self("experiment"),
        "experiment.write_s": total(incl, "experiment.write_report"),
        "offline.general_s": total(incl, "offline.optimal_general"),
        "offline.general_calls": calls.get("offline.optimal_general", 0),
        "offline.ramp_s": total(incl, "offline.optimal_with_ramp"),
        "offline.ramp_calls": calls.get("offline.optimal_with_ramp", 0),
        "offline.ramp_ops": counts.get("offline.ramp_ops", 0),
        "offline.basic_s": total(incl, "offline.optimal_basic"),
        "prediction.hats_s": total(incl, *hats),
        "prediction.calls": sum(calls[n] for n in hats),
        "layering.self_s": layer_self("layering"),
        "layering.decompose_s": total(incl, "layering.decompose"),
        "layering.decompose_calls": calls.get("layering.decompose", 0),
        "layering.layers_built": layers_built,
        "layering.layers_run_frac": counts.get("layering.layers_run", 0) / layers_built if layers_built else 0.0,
        "layering.project_s": total(incl, "layering.project_ramp"),
        "layering.project_calls": calls.get("layering.project_ramp", 0),
        "online.run_algorithm_calls": calls.get("online.run_algorithm", 0),
        "online.run_algorithm_self_s": total(selfs, "online.run_algorithm"),
        "online.sample_s": total(incl, "online.sample"),
        "online.sample_calls": calls.get("online.sample", 0),
        "online.run_threshold_s": total(incl, "online.run_threshold"),
        "model.cost_of_s": total(incl, "model.cost_of"),
        "model.cost_of_calls": calls.get("model.cost_of", 0),
        "model.traces_built": counts.get("model.traces_built", 0),
        "model.schedules_built": counts.get("model.schedules_built", 0),
        "analysis.expected_ratio_s": total(incl, "analysis.expected_ratio"),
        "analysis.expected_ratio_calls": er_calls,
        "analysis.expected_ratio_repeat_frac": counts.get("analysis.expected_ratio_repeats", 0) / er_calls if er_calls else 0.0,
        "analysis.cost_ratio_calls": counts.get("analysis.cost_ratio_calls", 0),
        "quadrature.integrate_s": total(incl, "quadrature.integrate"),
        "quadrature.integrate_calls": integrations,
        "quadrature.evals": counts.get("quadrature.evals", 0),
        "quadrature.evals_per_call": counts.get("quadrature.evals", 0) / integrations if integrations else 0.0,
        "verify.closed_forms_s": total(incl, "verify.check_closed_forms"),
        "verify.envelopes_s": total(incl, "verify.check_randomized_envelopes"),
        "verify.ratio_curve_s": total(incl, "verify.check_ratio_curve_empirical"),
        "verify.other_s": total(incl, "verify.verify_theorems") - verify_named,
        "cli.self_s": total(selfs, "cli.main"),
    }
