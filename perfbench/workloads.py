"""The benchmark's workloads: seeded input generation, one pass each, and
the answer checks.

A workload turns a seed into input files (``make_inputs``), runs one pass
through a public entry point (``run_pass``), and reduces the pass's answers
to a fingerprint.  Every pass of a run must give the same fingerprint, the
fingerprint must equal the pinned one when the seed is pinned, and
``check`` tests invariants that hold for every seed (the oracle matches an
independent reference and is never beaten, cell and check counts are
complete).  The Monte Carlo pass carries its own three-standard-error gate.

Only this module and the tracer know the package's internals; the passes
themselves go through ``peaksched.harness.cli.main`` and the top-level
``peaksched`` names, as a user would.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import peaksched as ps
from peaksched.harness import cli, synth_trace, write_trace_csv

COMPARE_ALGORITHMS = "bed,lambda-bed,red,lambda-red,naive-lambda-red"
COMPARE_LAMBDAS = "0.1,0.3,0.5,0.7,1.0"
COMPARE_PREDICTORS = "perfect,gaussian,adversarial"
SWEEP_ALGORITHMS = "bed,lambda-bed,red,lambda-red"
SWEEP_PREDICTORS = "perfect,adversarial"
SWEEP_RAMPS = "0.1,0.25,0.5,1.0"
VERIFY_CHECKS = 9

# C07's instance: lambda-red with trust 0.5 on the worst case for s = 0.6.
MC_MASS, MC_BETA, MC_LAM, MC_SLOTS = 0.6, 0.4, 0.5, 2000
MC_RUNS = 10_000


@dataclass
class PassResult:
    """Timed seconds and answers of one pass, reduced to what the checks need;
    ``reference_s`` is the timed seconds at the reference speed, set by the
    runner."""

    seconds: float
    fingerprint: dict
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    reference_s: float = math.nan


def pinned_depth_trace(days: int, seed: int, peak_level: float, depth: int):
    """A synthetic trace whose maximum demand is exactly ``depth``.

    Noise moves the maximum by a few units from seed to seed, and both the
    layer count and the capacity (hence the ramp DP's state space) follow
    it; pinning the maximum keeps the work per pass the same for every seed
    while the demand shape stays seeded.
    """
    trace = synth_trace(days=days, seed=seed, peak_level=peak_level, base_level=10.0, noise=5.0)
    demands = np.minimum(trace.demands, float(depth))
    demands[int(np.argmax(demands))] = float(depth)
    return ps.Trace(prices=trace.prices, demands=demands)


def _run_cli(argv: list[str]) -> tuple[float, int, str]:
    """Run one CLI command in-process; returns its seconds, exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        started = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - started
    return seconds, code, out.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reference_general_optimum(prices: np.ndarray, demands: np.ndarray, p_g: float, p_m: float, capacity: float) -> float:
    """Capacitated optimum without ramp limits, computed independently of
    the package: the cost under a grid peak cap m is piecewise linear in m
    with breakpoints at demand values, so scanning them is exact."""
    floor = max(0.0, float(demands.max()) - capacity)
    caps = np.unique(np.concatenate(([0.0, floor], demands)))
    caps = caps[caps >= floor]
    grid = np.minimum(demands[None, :], caps[:, None])
    totals = grid @ prices + p_m * caps + p_g * (demands[None, :] - grid).sum(axis=1)
    return float(totals.min())


class Workload:
    name = ""

    def make_inputs(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def run_pass(self, inputs: dict, out: Path) -> PassResult:
        raise NotImplementedError

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        """Seed-independent invariants; returns the violations found."""
        return []


class _ExperimentWorkload(Workload):
    """Shared input writing and report reading of ``compare`` and ``sweep``."""

    days, peak_level, depth = 0, 0.0, 0
    report_file = manifest_file = ""

    def make_inputs(self, seed: int, work: Path) -> dict:
        trace = pinned_depth_trace(self.days, seed, self.peak_level, self.depth)
        work.mkdir(parents=True, exist_ok=True)
        price_csv, demand_csv = work / "prices.csv", work / "demands.csv"
        write_trace_csv(trace, price_csv, demand_csv)
        return {"seed": seed, "price_csv": str(price_csv), "demand_csv": str(demand_csv)}

    def _argv(self, inputs: dict, out: Path) -> list[str]:
        raise NotImplementedError

    def _cells(self, manifest: dict) -> list[dict]:
        raise NotImplementedError

    def run_pass(self, inputs: dict, out: Path) -> PassResult:
        seconds, code, _ = _run_cli(self._argv(inputs, out))
        report = out / self.report_file
        manifest = json.loads((out / self.manifest_file).read_text())
        cells = self._cells(manifest)
        errors = sum(len(cell["errors"]) for cell in cells)
        rows = report.read_text().count("\n") - 1
        fingerprint = {
            "report_sha256": _sha256(report),
            "oracle_totals": [cell["oracle"]["total"] for cell in cells],
            "peak_caps": [cell["oracle"]["peak_level"] for cell in cells],
        }
        problems = [f"{cell_key}: {msg}" for cell in cells for cell_key, msg in cell["errors"].items()]
        if code != 0:
            problems.append(f"exit code {code}")
        return PassResult(
            seconds=seconds,
            fingerprint=fingerprint,
            attempted=rows + errors + 1,
            failed=errors + (code != 0),
            problems=problems,
            detail={"report": report, "cells": cells},
        )

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        problems = []
        with Path(result.detail["report"]).open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.expected_rows:
            problems.append(f"report has {len(rows)} rows, expected {self.expected_rows}")
        for row in rows:
            if float(row["total_cost"]) < float(row["opt_cost"]) * (1 - 1e-12):
                problems.append(f"online cost below the oracle in row {row}")
        prices = np.loadtxt(inputs["price_csv"], delimiter=",", skiprows=1, usecols=1)
        demands = np.loadtxt(inputs["demand_csv"], delimiter=",", skiprows=1, usecols=1)
        for cell in result.detail["cells"]:
            params = cell["params"]
            free = _reference_general_optimum(prices, demands, params["p_g"], params["p_m"], params["capacity"])
            problems.extend(self._check_oracle(cell["oracle"]["total"], free))
        return problems


class CompareYear(_ExperimentWorkload):
    """``compare`` on a 365-day CSV trace (max demand 77, capacity 47): 51
    cells, no ramp limit.  CSV ingestion, the per-layer predictor hats,
    ~2.4k layer runs and costing do the work; the oracle is the cheap
    peak-cap scan."""

    name = "compare-year"
    days, peak_level, depth = 365, 60.0, 77
    report_file, manifest_file = "report.csv", "manifest.json"
    expected_rows = 51

    def _argv(self, inputs: dict, out: Path) -> list[str]:
        return [
            "compare", "--price-csv", inputs["price_csv"], "--demand-csv", inputs["demand_csv"],
            "--algorithms", COMPARE_ALGORITHMS, "--lambdas", COMPARE_LAMBDAS,
            "--predictors", COMPARE_PREDICTORS, "--seed", str(inputs["seed"]), "--out-dir", str(out),
        ]

    def _cells(self, manifest: dict) -> list[dict]:
        return [manifest]

    def _check_oracle(self, total: float, free: float) -> list[str]:
        if not math.isclose(total, free, rel_tol=1e-9):
            return [f"oracle total {total!r} differs from the reference optimum {free!r}"]
        return []


class SweepRamp(_ExperimentWorkload):
    """``sweep --axis ramp`` on a 15-day CSV trace (max demand 45, capacity
    27), so R = 3, 7, 14, 27.  The ramp DP oracle is almost all the time,
    and its cost grows with the window width; ``project_ramp`` runs on
    every cell."""

    name = "sweep-ramp"
    days, peak_level, depth = 15, 36.0, 45
    report_file, manifest_file = "sweep_ramp.csv", "sweep_ramp_manifest.json"
    expected_rows = 4 * 2 * (2 + 2 * 1)  # 4 ramps x 2 predictors x (bed, red + 2 lambda variants)

    def _argv(self, inputs: dict, out: Path) -> list[str]:
        return [
            "sweep", "--axis", "ramp", "--values", SWEEP_RAMPS,
            "--price-csv", inputs["price_csv"], "--demand-csv", inputs["demand_csv"],
            "--algorithms", SWEEP_ALGORITHMS, "--predictors", SWEEP_PREDICTORS,
            "--seed", str(inputs["seed"]), "--out-dir", str(out),
        ]

    def _cells(self, manifest: dict) -> list[dict]:
        return manifest["cells"]

    def _check_oracle(self, total: float, free: float) -> list[str]:
        # the ramp limit only removes schedules, so the free optimum bounds it below
        if total < free * (1 - 1e-12):
            return [f"ramp oracle total {total!r} is below the unconstrained optimum {free!r}"]
        return []


class VerifyFull(Workload):
    """``verify --full``: ~143k ``expected_ratio`` quadratures plus the
    worst-case ``run_threshold`` runs, and no experiment, layering or ramp
    work."""

    name = "verify-full"

    def make_inputs(self, seed: int, work: Path) -> dict:
        # The verification grids are fixed by the paper's acceptance scale;
        # the seed has nothing to vary here.
        return {"seed": seed}

    def run_pass(self, inputs: dict, out: Path) -> PassResult:
        seconds, code, text = _run_cli(["verify", "--full", "--out-dir", str(out)])
        lines = [line for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
        names = [line.split(" ", 1)[1].split(":", 1)[0] for line in lines]
        failed = [name for line, name in zip(lines, names) if line.startswith("FAIL ")]
        problems = [f"check failed: {name}" for name in failed]
        if code != 0:
            problems.append(f"exit code {code}")
        return PassResult(
            seconds=seconds,
            fingerprint={"checks": names, "all_pass": not failed and code == 0},
            attempted=len(lines) + 1,
            failed=len(failed) + (code != 0),
            problems=problems,
        )

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        if len(result.fingerprint["checks"]) != VERIFY_CHECKS:
            return [f"expected {VERIFY_CHECKS} checks, saw {len(result.fingerprint['checks'])}"]
        return []


class MonteCarlo(Workload):
    """C07's agreement check as many tiny calls: seeded ``lambda-red`` runs
    plus ``cost_of`` on a 2000-slot 0/1 instance, so per-call overhead (RNG
    construction, sampling, validation) dominates, not O(T) array work."""

    name = "montecarlo"

    def make_inputs(self, seed: int, work: Path) -> dict:
        trace, params = ps.worst_case_instance(MC_MASS, MC_BETA, p_m=100.0, slots=MC_SLOTS)
        sigma = ps.sigma(trace, params)
        spec = ps.lambda_red_distribution(MC_MASS, MC_LAM, MC_BETA)
        return {
            "seed": seed,
            "trace": trace,
            "params": params,
            "opt": ps.optimal_basic(trace, params).total,
            "expected": ps.expected_ratio(spec, sigma, MC_BETA),
            # disjoint blocks of per-run seeds, one block per workload seed
            "first_run_seed": seed * MC_RUNS,
        }

    def run_pass(self, inputs: dict, out: Path) -> PassResult:
        trace, params, opt = inputs["trace"], inputs["params"], inputs["opt"]
        first = inputs["first_run_seed"]
        ratios = np.empty(MC_RUNS)
        errors = 0
        started = time.perf_counter()
        for i in range(MC_RUNS):
            try:
                record = ps.run_algorithm(trace, params, "lambda-red", lam=MC_LAM, sigma_hat=MC_MASS, seed=first + i)
                ratios[i] = ps.cost_of(record.schedule, trace, params).total / opt
            except ps.PeakSchedError:
                errors += 1
                ratios[i] = math.nan
        seconds = time.perf_counter() - started
        mean = float(ratios.mean())
        three_se = 3 * float(ratios.std(ddof=1)) / math.sqrt(MC_RUNS)
        gate = abs(mean - inputs["expected"]) <= three_se
        problems = [] if gate else [f"Monte Carlo mean {mean!r} is {abs(mean - inputs['expected']):.3e} "
                                    f"from the quadrature value, beyond 3 SE = {three_se:.3e}"]
        return PassResult(
            seconds=seconds,
            fingerprint={"mean": mean, "gate": gate},
            attempted=MC_RUNS + 1,
            failed=errors + (not gate),
            problems=problems,
        )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (CompareYear(), SweepRamp(), VerifyFull(), MonteCarlo())}


def fingerprint_key(workload: Workload, seed: int) -> str:
    """Key of a pinned fingerprint; verify-full's answers do not depend on the seed."""
    return "any" if isinstance(workload, VerifyFull) else str(seed)
