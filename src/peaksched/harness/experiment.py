"""Experiment orchestration: one cell per (algorithm, lambda, predictor).

Each cell runs the layered algorithm on the configured trace, projects onto
the ramp-feasible set when a ramp limit is configured, and reports total
cost, empirical ratio against the exact offline oracle, and cost reduction
against the no-generator baseline.  Outputs are a CSV table plus a JSON
manifest; identical configurations and seeds produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import numbers
import typing
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ..errors import DomainError, PeakSchedError, StructuralError, ValidationError
from ..layering import (
    flipped_layer_sigma_hats,
    predicted_layer_sigma_hats,
    project_ramp,  # noqa: F401  looked up here by the benchmark's tracer
    project_ramp_block,
    run_layered,
    true_layer_sigma_hats,
)
from ..model import BillingParams, Schedule, Trace, beta as beta_of, cost_of, cost_reduction, sigma as sigma_of
from ..offline import OracleResult, optimal_general, optimal_with_ramp
from ..online import Algorithm
from ..analysis import empirical_ratio
from ..prediction import gaussian_predictor, sigma_hat as sigma_hat_of
from ..validators import NAIVE_LAMBDA_FLOOR, is_real
from .traces import parse_trace_csv, synth_trace, write_text

REPORT_COLUMNS = (
    "algorithm",
    "lambda",
    "predictor",
    "sigma",
    "sigma_hat",
    "beta",
    "total_cost",
    "opt_cost",
    "empirical_cr",
    "cost_reduction",
)

_PREDICTORS = ("perfect", "gaussian", "adversarial", "scalar")


def _with_help(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass
class ExperimentConfig:
    """Flat experiment description and the only config schema: every field is
    a kebab-case config key and CLI flag (``capacity_ratio`` <-> ``capacity-ratio``)."""

    price_csv: str | None = None
    demand_csv: str | None = None
    days: int = _with_help(30, "synthetic trace length in days")
    peak_level: float = 12.0
    base_level: float = 2.0
    noise: float = 1.0
    algorithms: tuple[str, ...] = _with_help(("bed", "lambda-bed"), "comma-separated algorithm names")
    lambdas: tuple[float, ...] = _with_help((0.5,), "comma-separated trust values in (0, 1]")
    predictors: tuple[str, ...] = _with_help(("perfect",), "comma-separated predictor names")
    sigma_hat: float | None = _with_help(None, "scalar predicted premium mass")
    sigma1: float | None = _with_help(None, "price noise std-dev for the gaussian predictor")
    sigma2: float | None = _with_help(None, "demand noise std-dev for the gaussian predictor")
    peak_multiplier: float = 100.0
    capacity_ratio: float = 0.6
    ramp_ratio: float | None = None
    seed: int | None = None
    out_dir: str = "out"

    def validate(self) -> None:
        for name, (kind, many) in _SCHEMA.items():
            key, value = name.replace("_", "-"), getattr(self, name)
            if value is None and name in _OPTIONAL:
                continue
            if many and not isinstance(value, (tuple, list)):
                raise ValidationError(f"{key}: expected {kind.__name__}s, got {value!r}")
            for item in value if many else (value,):
                if isinstance(item, bool) or not isinstance(item, _KINDS[kind]):
                    raise ValidationError(f"{key}: expected {kind.__name__}, got {item!r}")
                if kind is float and not math.isfinite(item):
                    raise ValidationError(f"{key} must be finite, got {value}")
        if not self.algorithms:
            raise ValidationError("algorithms must name at least one algorithm")
        if not self.predictors:
            raise ValidationError("predictors must name at least one predictor")
        for name in self.algorithms:
            try:
                Algorithm(name)
            except ValueError as exc:
                raise ValidationError(f"unknown algorithm {name!r}") from exc
        if not self.lambdas and any(Algorithm(name).uses_prediction for name in self.algorithms):
            raise ValidationError("lambdas must hold at least one value for prediction-assisted algorithms")
        for lam in self.lambdas:
            if not 0 < lam <= 1:
                raise ValidationError(f"lambda values must lie in (0, 1], got {lam}")
            if Algorithm.NAIVE_LAMBDA_RED.value in self.algorithms and lam < NAIVE_LAMBDA_FLOOR:
                raise ValidationError(
                    f"lambdas: naive-lambda-red needs values of at least {NAIVE_LAMBDA_FLOOR!r} "
                    f"(below it e^(1/lambda) overflows), got {lam}"
                )
        for pred in self.predictors:
            if pred not in _PREDICTORS:
                raise ValidationError(f"unknown predictor {pred!r}; pick from {_PREDICTORS}")
        if "scalar" in self.predictors and self.sigma_hat is None:
            raise ValidationError("the scalar predictor needs sigma-hat")
        if not 0 < self.capacity_ratio <= 1:
            raise ValidationError(f"capacity-ratio must lie in (0, 1], got {self.capacity_ratio}")
        if self.ramp_ratio is not None and not 0 < self.ramp_ratio <= 1:
            raise ValidationError(f"ramp-ratio must lie in (0, 1], got {self.ramp_ratio}")
        if self.peak_multiplier <= 0:
            raise ValidationError(f"peak-multiplier must be > 0, got {self.peak_multiplier}")
        needs_seed = "gaussian" in self.predictors or any(
            Algorithm(name).is_randomized for name in self.algorithms
        )
        if needs_seed and self.seed is None:
            raise ValidationError("a seed is required for randomized algorithms or noisy predictors")
        if self.seed is not None and self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if (self.price_csv is None) != (self.demand_csv is None):
            raise ValidationError("price-csv and demand-csv must be given together")


# field name -> (element type X, whether the field is a comma-separated tuple);
# the annotations are X, X | None and tuple[X, ...]
_HINTS = typing.get_type_hints(ExperimentConfig)
_SCHEMA = {
    name: ((typing.get_args(hint) or (hint,))[0], typing.get_origin(hint) is tuple)
    for name, hint in _HINTS.items()
}
_OPTIONAL = frozenset(name for name, hint in _HINTS.items() if type(None) in typing.get_args(hint))
# the typed values each element type admits; bools are rejected separately
_KINDS = {int: numbers.Integral, float: numbers.Real, str: str}


def parse_text(text: str, kind: type, key: str, many: bool = False):
    """One ``kind`` value, or with ``many`` a tuple of comma-separated ones
    (blank items skipped); a bad value raises ``ValidationError`` naming ``key``."""
    try:
        if many:
            return tuple(kind(part.strip()) for part in text.split(",") if part.strip())
        return kind(text)
    except ValueError:
        raise ValidationError(f"{key}: expected {kind.__name__}{'s' if many else ''}, got {text!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment and a leading
    BOM is ignored, as the trace reader ignores one."""
    values: dict = {}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def config_from_sources(file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from parsed file values and CLI overrides (which win);
    text values are parsed by their field's annotation, typed values kept."""
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            merged[key.replace("-", "_")] = value
    unknown = set(merged) - set(_SCHEMA)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in merged.items():
        kind, many = _SCHEMA[key]
        if isinstance(value, str):
            value = parse_text(value, kind, key.replace("_", "-"), many)
        elif many:
            value = tuple(value)
        kwargs[key] = value
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[dict, ...]
    manifest: dict
    report_path: Path | None
    manifest_path: Path | None


def synth_config_trace(config: ExperimentConfig) -> Trace:
    """The synthetic trace a configuration describes (seed 0 when unset)."""
    return synth_trace(
        days=config.days,
        seed=config.seed or 0,
        peak_level=config.peak_level,
        base_level=config.base_level,
        noise=config.noise,
    )


def _build_trace(config: ExperimentConfig) -> tuple[Trace, dict]:
    provenance: dict = {}
    if config.price_csv is not None:
        loaded = parse_trace_csv(config.price_csv, config.demand_csv)
        trace = loaded.trace
        provenance["source"] = "csv"
        provenance["dropped_price_rows"] = loaded.dropped_price_rows
        provenance["dropped_demand_rows"] = loaded.dropped_demand_rows
    else:
        trace = synth_config_trace(config)
        provenance["source"] = "synthetic"
    if not trace.has_integer_demands():
        # layering needs integer demand; record that we rounded
        trace = Trace(prices=trace.prices, demands=np.rint(trace.demands))
        provenance["demands_rounded"] = True
    else:
        provenance["demands_rounded"] = False
    return trace, provenance


def _build_params(trace: Trace, config: ExperimentConfig) -> BillingParams:
    capacity = max(1.0, math.ceil(config.capacity_ratio * trace.max_demand))
    ramp = None
    if config.ramp_ratio is not None:
        ramp = max(1.0, math.ceil(config.ramp_ratio * capacity))
    return BillingParams(
        p_g=trace.max_price,
        p_m=config.peak_multiplier * trace.max_price,
        capacity=capacity,
        ramp=ramp,
    )


def _gaussian_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 7919]).generate_state(1)[0])


def _predictor_hats(
    name: str, trace: Trace, params: BillingParams, config: ExperimentConfig
) -> tuple[list[float] | float | None, float]:
    """Per-layer predicted premium masses and the global predicted mass."""
    if name == "perfect":
        hats = true_layer_sigma_hats(trace, params)
        return hats, sigma_of(trace, params)
    if name == "adversarial":
        hats = flipped_layer_sigma_hats(trace, params)
        return hats, (0.0 if sigma_of(trace, params) > 1 else 2.0)
    if name == "scalar":
        return config.sigma_hat, config.sigma_hat
    if name == "gaussian":
        prediction = gaussian_predictor(
            trace, sigma1=config.sigma1, sigma2=config.sigma2, seed=_gaussian_seed(config.seed)
        )
        depth = int(trace.max_demand)
        hats = predicted_layer_sigma_hats(prediction, params, depth)
        return hats, sigma_hat_of(prediction, params)
    raise DomainError(f"unknown predictor {name!r}")


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class _Cell:
    """One (algorithm, lambda, predictor) cell of one configuration, with its
    outcome: the layered schedule while it waits for the ramp projection,
    then the total cost, or the message of the error that stopped it."""

    algorithm: str
    lam: float | None
    predictor: str
    global_hat: float | None
    outcome: Schedule | float | str


@dataclass
class _Run:
    """One configuration of a shared run: its parameters, oracle and cells."""

    config: ExperimentConfig
    params: BillingParams
    oracle: OracleResult
    instance: dict
    entries: list = field(default_factory=list)  # (cell key, _Cell or a failed predictor's message)
    global_hats: dict = field(default_factory=dict)


def _total(schedule: Schedule, trace: Trace, params: BillingParams) -> float | str:
    try:
        return cost_of(schedule, trace, params).total
    except PeakSchedError as exc:
        return str(exc)


def _run_configs(configs: list[ExperimentConfig]) -> list[tuple[list[dict], dict]]:
    """The rows and manifest of each configuration, for configurations that
    differ only in fields no trace is built from (the sweep axes).

    Every configuration is validated before any work.  The trace is built
    once, and each predictor's hats are computed once per ``(p_g, p_m)``.
    Configurations with the same ``(capacity, p_g, p_m)``, all that
    ``run_layered`` reads, share each cell's layered run: a cell without a
    ramp is costed at once, and every ramped cell of every configuration is
    projected in one block at the end.
    """
    for config in configs:
        config.validate()
    trace, provenance = _build_trace(configs[0])
    runs = []
    for config in configs:
        params = _build_params(trace, config)
        oracle = optimal_with_ramp(trace, params) if params.ramp is not None else optimal_general(trace, params)
        runs.append(_Run(config, params, oracle, {"sigma": sigma_of(trace, params), "beta": beta_of(trace, params)}))
    groups: dict[tuple, list[_Run]] = {}
    for run in runs:
        groups.setdefault((run.params.capacity, run.params.p_g, run.params.p_m), []).append(run)

    hats: dict = {}
    ramped: list[tuple[_Cell, BillingParams]] = []
    for group in groups.values():
        config, params = group[0].config, group[0].params
        for predictor in config.predictors:
            hat_key = (predictor, params.p_g, params.p_m)
            if hat_key not in hats:
                try:
                    hats[hat_key] = _predictor_hats(predictor, trace, params, config)
                except PeakSchedError as exc:
                    hats[hat_key] = str(exc)
            if isinstance(hats[hat_key], str):
                for run in group:
                    run.entries.append((f"predictor:{predictor}", hats[hat_key]))
                continue
            layer_hats, global_hat = hats[hat_key]
            for run in group:
                run.global_hats[predictor] = global_hat
            for name in config.algorithms:
                algorithm = Algorithm(name)
                lambda_grid: tuple[float | None, ...] = (
                    tuple(config.lambdas) if algorithm.uses_prediction else (None,)
                )
                for lam in lambda_grid:
                    key = f"{algorithm.value}|{'' if lam is None else lam}|{predictor}"
                    try:
                        schedule = run_layered(
                            trace,
                            params,
                            algorithm,
                            lam=lam,
                            sigma_hats=layer_hats if algorithm.uses_prediction else None,
                            seed=config.seed,
                        )
                    except PeakSchedError as exc:
                        schedule = str(exc)
                    for run in group:
                        cell = _Cell(algorithm.value, lam, predictor, global_hat, schedule)
                        run.entries.append((key, cell))
                        if isinstance(schedule, Schedule):
                            if run.params.ramp is None:
                                cell.outcome = _total(schedule, trace, run.params)
                            else:
                                ramped.append((cell, run.params))

    if ramped:
        projected = project_ramp_block(
            [cell.outcome.u for cell, _ in ramped],
            [cell.outcome.v for cell, _ in ramped],
            trace.demands,
            [params.capacity for _, params in ramped],
            [params.ramp for _, params in ramped],
        )
        for (cell, params), (u, v) in zip(ramped, projected):
            cell.outcome = _total(Schedule(u=u, v=v), trace, params)

    results = []
    for run in runs:
        rows: list[dict] = []
        errors: dict[str, str] = {}
        for key, cell in run.entries:
            total = cell if isinstance(cell, str) else cell.outcome
            if isinstance(total, str):
                errors[key] = total
                continue
            try:
                rows.append(
                    {
                        "algorithm": cell.algorithm,
                        "lambda": cell.lam,
                        "predictor": cell.predictor,
                        "sigma": run.instance["sigma"],
                        "sigma_hat": cell.global_hat,
                        "beta": run.instance["beta"],
                        "total_cost": total,
                        "opt_cost": run.oracle.total,
                        "empirical_cr": empirical_ratio(total, run.oracle.total),
                        "cost_reduction": cost_reduction(total, trace, run.params),
                    }
                )
            except PeakSchedError as exc:
                errors[key] = str(exc)
        rows.sort(key=lambda r: (r["algorithm"], r["lambda"] if r["lambda"] is not None else -1.0, r["predictor"]))
        params = run.params
        manifest = {
            "config": asdict(run.config),
            "seed": run.config.seed,
            "trace": {
                "horizon": len(trace),
                "max_demand": trace.max_demand,
                "max_price": trace.max_price,
                **provenance,
            },
            "params": {
                "p_g": params.p_g,
                "p_m": params.p_m,
                "capacity": params.capacity,
                "ramp": params.ramp,
            },
            "instance": run.instance,
            "predictor_sigma_hat": run.global_hats,
            "oracle": {"total": run.oracle.total, "peak_level": run.oracle.peak_level},
            "errors": errors,
        }
        results.append((rows, manifest))
    return results


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentResult:
    """Run every (algorithm, lambda, predictor) cell of a configuration.

    Cell failures are recorded in the manifest and do not abort the other
    cells.  Rows come out sorted by cell key; with ``write`` the report CSV
    and manifest JSON land in ``config.out_dir``.  This is the one-value
    case of a sweep.
    """
    [(rows, manifest)] = _run_configs([config])
    report_path = manifest_path = None
    if write:
        out_dir = make_out_dir(config.out_dir)
        report_path = out_dir / "report.csv"
        manifest_path = out_dir / "manifest.json"
        write_report(rows, report_path)
        write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return ExperimentResult(
        rows=tuple(rows), manifest=manifest, report_path=report_path, manifest_path=manifest_path
    )


def make_out_dir(out_dir: str | Path) -> Path:
    """Create an output directory and its parents where missing; a path that
    names a file, or cannot be created, raises ``StructuralError`` naming it."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise StructuralError(f"out-dir {out_dir}: exists and is not a directory") from None
    except OSError as exc:
        raise StructuralError(f"out-dir {out_dir}: cannot create it: {exc.strerror or exc}") from None
    return out_dir


def write_report(rows: list[dict], path: Path, extra_columns: tuple[str, ...] = ()) -> None:
    columns = REPORT_COLUMNS + extra_columns
    lines = [",".join(columns)]
    lines += (",".join(_format_value(row.get(col)) for col in columns) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


_TENTHS = tuple(round(0.1 * i, 1) for i in range(1, 11))

# axis -> (the config field it sets, its default values); the peak axis
# scales the configured multiplier instead of replacing it
SWEEP_AXES = {
    "lambda": ("lambdas", _TENTHS),
    "peak": ("peak_multiplier", tuple(float(i) for i in range(1, 21))),
    "ramp": ("ramp_ratio", _TENTHS),
    "capacity": ("capacity_ratio", _TENTHS),
}


def _sweep_tags(axis: str, values) -> list:
    # the lambda axis is one experiment over the whole grid (tag None, rows
    # carry their own lambda); the others run one experiment per value
    return [None] if axis == "lambda" else list(values)


def _sweep_values(axis: str, values) -> tuple[float, ...]:
    """A sweep's values as Python floats: a non-empty sequence (a 1-D array
    included) of real numbers that are not bools."""
    if isinstance(values, (str, bytes)) or not (
        isinstance(values, Sequence) or (isinstance(values, np.ndarray) and values.ndim == 1)
    ):
        raise ValidationError(f"sweep axis {axis!r}: values must be a sequence of numbers, got {values!r}")
    if len(values) == 0:
        raise ValidationError(f"sweep axis {axis!r} needs at least one value")
    for value in values:
        if not is_real(value):
            raise ValidationError(f"sweep axis {axis!r}: expected numbers, got {value!r}")
    return tuple(float(value) for value in values)


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    values: tuple[float, ...] | None = None,
    write: bool = True,
) -> ExperimentResult:
    """Repeat an experiment along one axis and tag rows with the axis value.

    ``lambda`` replaces the lambda grid wholesale; the other axes derive a
    configuration per value.  Values are checked and every derived
    configuration validated before any cell runs; the values then share
    one trace, and their cells share each predictor's hats and each
    layered run wherever ``(capacity, p_m)`` agree (see ``_run_configs``).
    """
    if axis not in SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r}; pick from {sorted(SWEEP_AXES)}")
    field_name, defaults = SWEEP_AXES[axis]
    values = _sweep_values(axis, defaults if values is None else values)

    tags = _sweep_tags(axis, values)
    configs = []
    for tag in tags:
        if tag is None:
            value = values
        else:
            value = config.peak_multiplier * tag if axis == "peak" else tag
        configs.append(replace(config, **{field_name: value}))
    results = _run_configs(configs)

    rows = [
        {**row, "axis": axis, "axis_value": tag if tag is not None else row["lambda"]}
        for tag, (value_rows, _) in zip(tags, results)
        for row in value_rows
    ]
    manifest = {"axis": axis, "values": list(values), "cells": [manifest for _, manifest in results]}
    report_path = manifest_path = None
    if write:
        out_dir = make_out_dir(config.out_dir)
        report_path = out_dir / f"sweep_{axis}.csv"
        manifest_path = out_dir / f"sweep_{axis}_manifest.json"
        write_report(rows, report_path, extra_columns=("axis", "axis_value"))
        write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return ExperimentResult(
        rows=tuple(rows), manifest=manifest, report_path=report_path, manifest_path=manifest_path
    )


def sweep_errors(manifest: dict) -> dict[str, str]:
    """A sweep manifest's failed cells, keyed ``axis=value cell`` (``cell`` on the lambda axis)."""
    axis = manifest["axis"]
    prefixes = ("" if tag is None else f"{axis}={tag} " for tag in _sweep_tags(axis, manifest["values"]))
    return {pre + key: msg for pre, cell in zip(prefixes, manifest["cells"]) for key, msg in cell["errors"].items()}
