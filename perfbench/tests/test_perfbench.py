"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import peaksched as ps  # noqa: E402
from tracing import COUNTED, PER_LAYER, SPANS, Tracer, layer_metrics, ramp_ops  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tables(tracer: Tracer) -> list[dict]:
    return [layer_metrics(t) for t in tracer.pass_tables()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_gives_the_untraced_fingerprint(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(3, tmp_path / "inputs")
    untraced = workload.run_pass(inputs, tmp_path / "plain")
    tracer = Tracer()
    traced = []
    for i in range(2 if name != "verify-full" else 1):
        with tracer.traced_pass():
            traced.append(workload.run_pass(inputs, tmp_path / f"traced{i}"))
        tracer.pass_walls.append(traced[-1].seconds)
    assert untraced.failed == 0 and not untraced.problems
    for result in traced:
        assert result.fingerprint == untraced.fingerprint
    # counts repeat exactly from pass to pass
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in _tables(tracer)]
    assert all(c == counts[0] for c in counts)
    assert set(_tables(tracer)[0]) == set(PER_LAYER) - {"trace_overhead_frac"}


def test_traced_pass_restores_every_wrapped_name(tmp_path):
    targets = [(m, a) for m, a, _ in SPANS + COUNTED]
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}
    before_inits = (ps.Trace.__post_init__, ps.Schedule.__post_init__)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced_pass():
            assert ps.harness.cli.main is not before[("peaksched.harness.cli", "main")]
            raise RuntimeError("pass failed")
    assert {(m, a): getattr(importlib.import_module(m), a) for m, a in targets} == before
    assert (ps.Trace.__post_init__, ps.Schedule.__post_init__) == before_inits


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    workload = WORKLOADS["compare-year"]
    inputs = workload.make_inputs(0, tmp_path / "inputs")
    tracer = Tracer()
    with tracer.traced_pass():
        result = workload.run_pass(inputs, tmp_path / "out")
    tracer.pass_walls.append(result.seconds)
    table = tracer.pass_tables()[0]
    assert table["calls"]["cli.main"] == 1
    assert table["incl_s"]["cli.main"] <= result.seconds
    assert sum(table["self_s"].values()) == pytest.approx(table["incl_s"]["cli.main"], rel=1e-9)
    metrics = layer_metrics(table)
    assert metrics["experiment.cells"] == 51
    assert metrics["online.run_algorithm_calls"] == 51 * 47
    assert metrics["layering.layers_built"] == 53 * 77  # 51 cells + perfect and adversarial hats
    tracer.write(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) == len(spans["pass_id"])
    assert list(spans["names"][spans["name_id"][spans["parent"] < 0]]) == ["cli.main"]


@pytest.mark.parametrize("name", ["compare-year", "sweep-ramp"])
def test_input_generation_is_deterministic_in_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.make_inputs(11, tmp_path / "a")
    again = workload.make_inputs(11, tmp_path / "b")
    other = workload.make_inputs(12, tmp_path / "c")
    for key in ("price_csv", "demand_csv"):
        assert Path(first[key]).read_bytes() == Path(again[key]).read_bytes()
    assert Path(first["demand_csv"]).read_bytes() != Path(other["demand_csv"]).read_bytes()
    for inputs in (first, other):
        demands = np.loadtxt(inputs["demand_csv"], delimiter=",", skiprows=1, usecols=1)
        assert demands.max() == workload.depth


def test_montecarlo_inputs_are_deterministic_in_the_seed(tmp_path):
    workload = WORKLOADS["montecarlo"]
    a, b, c = (workload.make_inputs(seed, tmp_path) for seed in (5, 5, 6))
    assert a["first_run_seed"] == b["first_run_seed"] != c["first_run_seed"]
    assert a["expected"] == b["expected"] and a["opt"] == b["opt"]


def test_ramp_ops_matches_a_hand_count():
    # d = [1, 3, 2], C = 2, R = 1: max d = 3, so caps m = 1, 2, 3 (floor 1);
    # every cap keeps max(0, d - m) within C, so all three DPs run, each
    # over 3 stages x 3 levels x 3 window slots: 3 * 27 = 81.
    trace = ps.Trace(prices=[1.0, 1.0, 1.0], demands=[1.0, 3.0, 2.0])
    assert ramp_ops(trace, ps.BillingParams(p_g=1.0, p_m=1.0, capacity=2, ramp=1)) == 81
    # C = 1 raises the floor to 2: caps 2 and 3 over 3 stages x 2 levels x 3 slots.
    assert ramp_ops(trace, ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1, ramp=1)) == 2 * 3 * 2 * 3


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    pins = json.loads((BENCH_DIR / "fingerprints.json").read_text())
    for name in WORKLOADS:
        assert pins["workloads"][name], name
    assert pins["held_out_seed"] != pins["dev_seed"]


def test_a_run_reports_the_end_to_end_metrics_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "montecarlo", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
