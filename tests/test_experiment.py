"""Experiment orchestration: cells, reports, manifests, sweeps, determinism."""
import json
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

import peaksched as ps
from peaksched.harness import experiment
from peaksched.harness.experiment import (
    ExperimentConfig,
    config_from_sources,
    parse_config_text,
    run_experiment,
    run_sweep,
)
from peaksched.harness.traces import synth_trace, write_trace_csv


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        days=4,
        seed=17,
        algorithms="bed,lambda-bed",
        lambdas="0.3,1.0",
        predictors="perfect",
        out_dir="unused",
    )
    base.update(overrides)
    return config_from_sources(overrides=base)


class TestConfig:
    def test_file_parse_and_override(self):
        text = "days = 7\nlambdas = 0.2, 0.4  # trust grid\npeak-multiplier = 50\n"
        file_values = parse_config_text(text)
        config = config_from_sources(file_values, {"days": 9})
        assert config.days == 9
        assert config.lambdas == (0.2, 0.4)
        assert config.peak_multiplier == 50.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ps.ValidationError, match="unknown config"):
            config_from_sources({"dayz": "3"})

    def test_lambda_range_enforced(self):
        with pytest.raises(ps.ValidationError):
            small_config(lambdas="1.5").validate()

    def test_seed_required_for_randomized(self):
        config = small_config(algorithms="red", seed=None)
        with pytest.raises(ps.ValidationError, match="seed"):
            config.validate()

    @pytest.mark.parametrize("algorithms", ["bed", "red"])
    def test_negative_seed_rejected(self, algorithms):
        with pytest.raises(ps.ValidationError, match="seed must be >= 0, got -1"):
            small_config(algorithms=algorithms, seed=-1).validate()

    def test_scalar_predictor_needs_value(self):
        config = small_config(predictors="scalar")
        with pytest.raises(ps.ValidationError, match="sigma-hat"):
            config.validate()

    @pytest.mark.parametrize(
        "key", ["sigma-hat", "sigma1", "sigma2", "peak-level", "noise", "peak-multiplier", "lambdas"]
    )
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_by_key(self, key, bad):
        config = small_config(**{key.replace("-", "_"): bad})
        with pytest.raises(ps.ValidationError, match=f"{key} must be finite"):
            config.validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"lambdas": ","}, "lambdas must hold at least one value"),
            ({"algorithms": ","}, "algorithms must name at least one"),
            ({"predictors": ""}, "predictors must name at least one"),
        ],
    )
    def test_empty_lists_rejected(self, overrides, message):
        config = config_from_sources(parse_config_text("days = 2\n"), overrides)
        with pytest.raises(ps.ValidationError, match=message):
            config.validate()

    def test_empty_lambdas_allowed_without_assisted_algorithms(self):
        config = small_config(algorithms="bed", lambdas=",")
        config.validate()
        assert config.lambdas == ()

    def test_typed_values_kept(self):
        config = config_from_sources(overrides={"days": 3, "lambdas": [0.25], "seed": 4, "peak_multiplier": 50.0})
        assert (config.days, config.lambdas, config.seed, config.peak_multiplier) == (3, (0.25,), 4, 50.0)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"days": 2.5}, "days"),
            ({"days": True}, "days"),
            ({"seed": 1.0}, "seed"),
            ({"seed": False}, "seed"),
            ({"peak_level": True}, "peak-level"),
            ({"peak_multiplier": "50"}, "peak-multiplier"),
            ({"sigma_hat": False}, "sigma-hat"),
            ({"lambdas": (0.5, True)}, "lambdas"),
            ({"algorithms": ("bed", 1)}, "algorithms"),
            ({"algorithms": "bed"}, "algorithms"),
            ({"out_dir": 3}, "out-dir"),
            ({"days": None}, "days"),
        ],
    )
    def test_typed_values_checked_by_key(self, overrides, key):
        config = ExperimentConfig(**{"seed": 1, **overrides})
        with pytest.raises(ps.ValidationError, match=f"^{key}: expected "):
            config.validate()

    def test_typed_float_fields_take_ints(self):
        ExperimentConfig(peak_level=12, noise=0, lambdas=(1,), sigma_hat=2, seed=1).validate()

    def test_typed_float_day_count_is_not_run(self):
        config = config_from_sources(overrides={"days": 2.5, "seed": 1})
        with pytest.raises(ps.ValidationError, match="days: expected int, got 2.5"):
            run_experiment(config, write=False)


class TestRunExperiment:
    def test_rows_and_columns(self, tmp_path):
        result = run_experiment(small_config(out_dir=str(tmp_path)))
        assert len(result.rows) == 3  # bed + two lambda values
        header = result.report_path.read_text().splitlines()[0]
        assert header == (
            "algorithm,lambda,predictor,sigma,sigma_hat,beta,total_cost,"
            "opt_cost,empirical_cr,cost_reduction"
        )

    def test_ratios_dominate_oracle(self, tmp_path):
        result = run_experiment(small_config(out_dir=str(tmp_path), predictors="perfect,adversarial"))
        for row in result.rows:
            assert row["empirical_cr"] >= 1 - 1e-9

    def test_full_trust_row_equals_plain_rule(self):
        result = run_experiment(small_config(), write=False)
        bed = next(r for r in result.rows if r["algorithm"] == "bed")
        assisted = next(
            r for r in result.rows if r["algorithm"] == "lambda-bed" and r["lambda"] == 1.0
        )
        assert assisted["total_cost"] == bed["total_cost"]

    def test_manifest_records_instance_stats(self):
        result = run_experiment(small_config(), write=False)
        manifest = result.manifest
        assert {"sigma", "beta"} <= manifest["instance"].keys()
        assert "perfect" in manifest["predictor_sigma_hat"]
        assert manifest["oracle"]["total"] > 0
        assert manifest["errors"] == {}

    def test_byte_identical_reruns(self, tmp_path):
        config_a = small_config(out_dir=str(tmp_path / "a"), predictors="perfect,gaussian")
        config_b = small_config(out_dir=str(tmp_path / "b"), predictors="perfect,gaussian")
        ra = run_experiment(config_a)
        rb = run_experiment(config_b)
        assert ra.report_path.read_bytes() == rb.report_path.read_bytes()
        ma = json.loads(ra.manifest_path.read_text())
        mb = json.loads(rb.manifest_path.read_text())
        ma["config"]["out_dir"] = mb["config"]["out_dir"] = ""
        assert ma == mb

    def test_every_algorithm_and_predictor_reruns_byte_identical_in_one_process(self, tmp_path):
        # the second run builds its own trace, so it decomposes and seeds its layers anew
        overrides = dict(
            algorithms=",".join(a.value for a in ps.Algorithm),
            predictors="perfect,gaussian,adversarial,scalar",
            sigma_hat="1.5",
            capacity_ratio="0.6",
        )
        first = run_experiment(small_config(out_dir=str(tmp_path / "a"), **overrides))
        second = run_experiment(small_config(out_dir=str(tmp_path / "b"), **overrides))
        assert first.manifest["errors"] == {} and len(first.rows) == 32
        assert first.report_path.read_bytes() == second.report_path.read_bytes()

    def test_memoised_draws_do_not_leak_across_experiments(self, tmp_path):
        # seed 4 in between refills the per-seed memos; seed 3 must read as it did
        overrides = dict(
            algorithms=",".join(a.value for a in ps.Algorithm),
            predictors="perfect,gaussian,adversarial",
        )
        reports = [
            run_experiment(small_config(out_dir=str(tmp_path / f"{run}"), seed=seed, **overrides)).report_path
            for run, seed in enumerate((3, 4, 3))
        ]
        assert reports[0].read_bytes() == reports[2].read_bytes()
        assert reports[0].read_bytes() != reports[1].read_bytes()

    def test_ramp_configuration_uses_ramp_oracle(self):
        result = run_experiment(small_config(ramp_ratio=0.4), write=False)
        assert result.manifest["params"]["ramp"] is not None
        for row in result.rows:
            assert row["empirical_cr"] >= 1 - 1e-9

    def test_cell_errors_recorded_without_aborting(self):
        # a zero-demand cycle has no oracle cost and no savings baseline;
        # every cell fails individually and the run still completes
        config = small_config(peak_level=0.0, base_level=0.0, noise=0.0)
        result = run_experiment(config, write=False)
        assert result.rows == ()
        assert len(result.manifest["errors"]) == 3
        assert all("optimum" in msg or "baseline" in msg for msg in result.manifest["errors"].values())

    def test_csv_source(self, tmp_path):
        trace = synth_trace(days=2, seed=4)
        write_trace_csv(trace, tmp_path / "p.csv", tmp_path / "d.csv")
        config = small_config(
            price_csv=str(tmp_path / "p.csv"), demand_csv=str(tmp_path / "d.csv")
        )
        result = run_experiment(config, write=False)
        assert result.manifest["trace"]["source"] == "csv"
        assert result.manifest["trace"]["horizon"] == 48


class TestRunSweep:
    def test_capacity_sweep_tags_rows(self):
        result = run_sweep(small_config(), "capacity", values=(0.5, 1.0), write=False)
        values = {row["axis_value"] for row in result.rows}
        assert values == {0.5, 1.0}
        assert all(row["axis"] == "capacity" for row in result.rows)

    def test_lambda_sweep_uses_lambda_column(self):
        result = run_sweep(small_config(), "lambda", values=(0.2, 0.9), write=False)
        assisted = [r for r in result.rows if r["algorithm"] == "lambda-bed"]
        assert {r["lambda"] for r in assisted} == {0.2, 0.9}

    def test_peak_sweep_scales_peak_price(self):
        result = run_sweep(small_config(), "peak", values=(1.0, 2.0), write=False)
        sigmas = sorted({row["sigma"] for row in result.rows})
        assert sigmas[0] == pytest.approx(sigmas[1] / 2)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ps.DomainError):
            run_sweep(small_config(), "voltage", write=False)

    def test_empty_values_rejected(self):
        with pytest.raises(ps.ValidationError, match="at least one value"):
            run_sweep(small_config(), "ramp", values=(), write=False)

    @pytest.mark.parametrize(
        "axis, defaults, field, expected",
        [
            ("lambda", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "lambdas", None),
            ("peak", [float(i) for i in range(1, 21)], "peak_multiplier", lambda v: 40.0 * v),
            ("ramp", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "ramp_ratio", lambda v: v),
            ("capacity", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "capacity_ratio", lambda v: v),
        ],
    )
    def test_axis_variants_and_defaults(self, axis, defaults, field, expected):
        config = small_config(days=1, algorithms="bed,lambda-bed", peak_multiplier=40.0)
        result = run_sweep(config, axis, write=False)
        manifest = result.manifest
        assert manifest["values"] == defaults
        echoed = [cell["config"] for cell in manifest["cells"]]
        if expected is None:
            # one experiment over the whole grid, rows tagged by their own lambda
            assert len(echoed) == 1 and list(echoed[0]["lambdas"]) == defaults
            assert {r["axis_value"] for r in result.rows if r["algorithm"] == "lambda-bed"} == set(defaults)
        else:
            assert [c[field] for c in echoed] == [expected(v) for v in defaults]
            assert {r["axis_value"] for r in result.rows} <= set(defaults)
        for cell in echoed:
            others = {k: v for k, v in cell.items() if k != field}
            assert others == {k: v for k, v in asdict(config).items() if k != field}


class TestSweepValues:
    """A sweep checks its values once, before any cell runs."""

    @pytest.fixture
    def layered_calls(self, monkeypatch):
        calls = []
        original = experiment.run_layered

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_layered", counting)
        return calls

    @pytest.mark.parametrize(
        "values",
        [np.array([0.5, 1.0], dtype=np.float32), (1, 2), np.array([1, 2]), [np.float64(0.5), 1]],
    )
    def test_numpy_and_int_values_are_written_as_floats(self, tmp_path, values):
        result = run_sweep(small_config(out_dir=str(tmp_path)), "peak", values=values)
        floats = [float(v) for v in values]
        assert result.manifest["values"] == floats
        assert all(type(v) is float for v in json.loads(result.manifest_path.read_text())["values"])
        tags = [line.rsplit(",", 1)[1] for line in result.report_path.read_text().splitlines()[1:]]
        assert sorted(set(tags)) == sorted({repr(v) for v in floats})

    @pytest.mark.parametrize(
        "values, message",
        [
            ((v for v in (0.5, 1.0)), "values must be a sequence of numbers"),
            ((0.5, True), "expected numbers, got True"),
            ("0.5", "values must be a sequence of numbers"),
            (("0.5",), "expected numbers, got '0.5'"),
            ((), "needs at least one value"),
            (np.array([]), "needs at least one value"),
            (np.array(0.5), "values must be a sequence of numbers"),
        ],
    )
    def test_bad_values_are_rejected_naming_the_axis_before_any_cell(self, layered_calls, values, message):
        with pytest.raises(ps.ValidationError, match=f"^sweep axis 'capacity'.*{message}"):
            run_sweep(small_config(), "capacity", values=values, write=False)
        assert layered_calls == []

    def test_every_derived_config_is_validated_before_any_cell(self, layered_calls):
        with pytest.raises(ps.ValidationError, match="ramp-ratio must lie in"):
            run_sweep(small_config(), "ramp", values=(0.5, 1.5), write=False)
        assert layered_calls == []


class TestSharedSweep:
    """A sweep shares its trace, hats and layered runs across values, and
    writes what per-value experiments write, byte for byte."""

    AXES = [
        ("ramp", "ramp_ratio", (0.1, 0.25, 1.0)),
        ("capacity", "capacity_ratio", (0.25, 0.3, 1.0)),  # capacities 4, 4 and 13
        ("peak", "peak_multiplier", (0.5, 2.0)),
    ]

    @pytest.fixture
    def counters(self, monkeypatch):
        calls = {"parse": 0, "layered": []}
        parse, layered = experiment.parse_trace_csv, experiment.run_layered

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return parse(*args, **kwargs)

        def failing_layered(trace, params, algorithm, **kwargs):
            calls["layered"].append((algorithm.value, kwargs["lam"], params.capacity, params.p_m))
            if algorithm is ps.Algorithm.RED:
                raise ps.DomainError("red cells fail here")
            return layered(trace, params, algorithm, **kwargs)

        monkeypatch.setattr(experiment, "parse_trace_csv", counting_parse)
        monkeypatch.setattr(experiment, "run_layered", failing_layered)
        return calls

    def _config(self, tmp_path, **overrides):
        trace = synth_trace(days=3, seed=5)
        write_trace_csv(trace, tmp_path / "p.csv", tmp_path / "d.csv")
        return small_config(
            price_csv=str(tmp_path / "p.csv"),
            demand_csv=str(tmp_path / "d.csv"),
            algorithms="bed,lambda-bed,red,lambda-red",
            predictors="perfect,gaussian,adversarial",
            sigma1="-1",  # the gaussian predictor fails under every value
            **overrides,
        )

    @pytest.mark.parametrize("axis, field, values", AXES)
    def test_sweep_equals_per_value_experiments_byte_for_byte(self, tmp_path, counters, axis, field, values):
        config = self._config(tmp_path, ramp_ratio="0.5", out_dir=str(tmp_path / "out"))
        sweep = run_sweep(config, axis, values=values)
        assert counters["parse"] == 1
        header, *sweep_rows = sweep.report_path.read_text().splitlines()
        assert header.endswith(",axis,axis_value")
        expected_rows = []
        for i, value in enumerate(values):
            setting = config.peak_multiplier * value if axis == "peak" else value
            # into the sweep's out-dir, so the manifests echo the same config
            single = run_experiment(replace(config, **{field: setting}))
            expected_rows += [f"{row},{axis},{value!r}" for row in single.report_path.read_text().splitlines()[1:]]
            cell = json.dumps(sweep.manifest["cells"][i], sort_keys=True, indent=2) + "\n"
            assert cell == single.manifest_path.read_text()
            errors = single.manifest["errors"]
            assert errors["predictor:gaussian"] == "noise standard deviations must be >= 0"
            assert errors["red||perfect"] == errors["red||adversarial"] == "red cells fail here"
            assert len(single.rows) == 2 * 5  # bed, and lambda-bed and lambda-red at two lambdas, per predictor
        assert sweep_rows == expected_rows

    @pytest.mark.parametrize("axis, field, values", AXES)
    def test_each_layered_run_happens_once_per_capacity_and_peak_price(self, tmp_path, counters, axis, field, values):
        sweep = run_sweep(self._config(tmp_path, ramp_ratio="0.5"), axis, values=values, write=False)
        keys = {(cell["params"]["capacity"], cell["params"]["p_m"]) for cell in sweep.manifest["cells"]}
        # bed, red and two lambdas of lambda-bed and lambda-red, each run once
        # for perfect and once for adversarial at every (capacity, p_m)
        runs = Counter(counters["layered"])
        assert set(runs.values()) == {2}
        assert len(runs) == 6 * len(keys)
        assert len(keys) == {"ramp": 1, "capacity": 2, "peak": 2}[axis]
