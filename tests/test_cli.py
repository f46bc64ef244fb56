"""Command-line interface and the verification report."""
import argparse
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

import peaksched as ps
from peaksched.harness import cli, synth_trace, traces, write_trace_csv
from peaksched.harness.cli import _config_from_args, build_parser, main
from peaksched.harness.experiment import ExperimentConfig
from peaksched.harness.verify import verify_theorems


def test_synth_then_run(tmp_path, capsys):
    out = tmp_path / "traces"
    assert main(["synth", "--days", "3", "--seed", "5", "--out-dir", str(out)]) == 0
    assert (out / "prices.csv").exists() and (out / "demands.csv").exists()

    code = main(
        [
            "run",
            "--algorithm", "lambda-bed",
            "--lambda", "0.4",
            "--predictor", "perfect",
            "--price-csv", str(out / "prices.csv"),
            "--demand-csv", str(out / "demands.csv"),
            "--seed", "5",
            "--out-dir", str(tmp_path / "run"),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "lambda-bed" in captured and "ratio=" in captured
    assert (tmp_path / "run" / "report.csv").exists()


def test_compare_table(tmp_path, capsys):
    code = main(
        [
            "compare",
            "--days", "3",
            "--seed", "2",
            "--algorithms", "bed,lambda-bed,red",
            "--lambdas", "0.5",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bed" in out and "red" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["errors"] == {}


def test_a_compare_on_fractional_csv_demands_reports_as_on_the_rounded_csvs(tmp_path, capsys):
    # layering needs integer demand: the CSV path rounds it and says so
    trace = synth_trace(days=3, seed=5)
    fractional = np.maximum(0.0, trace.demands + np.random.default_rng(5).uniform(-0.45, 0.45, len(trace)))
    seen = {}
    for name, demands in (("fractional", fractional), ("rounded", np.rint(fractional))):
        prices_csv, demands_csv = tmp_path / f"{name}-prices.csv", tmp_path / f"{name}-demands.csv"
        write_trace_csv(ps.Trace(prices=trace.prices, demands=demands), prices_csv, demands_csv)
        out = tmp_path / name
        argv = ["compare", "--price-csv", str(prices_csv), "--demand-csv", str(demands_csv), "--seed", "5"]
        argv += ["--algorithms", "bed,lambda-bed,red,lambda-red", "--lambdas", "0.3,1.0"]
        assert main([*argv, "--predictors", "perfect,gaussian,adversarial", "--out-dir", str(out)]) == 0
        rounded = json.loads((out / "manifest.json").read_text())["trace"]["demands_rounded"]
        seen[name] = (rounded, (out / "report.csv").read_bytes())
    assert seen["fractional"][0] is True and seen["rounded"][0] is False
    assert seen["fractional"][1] == seen["rounded"][1]
    # the header, then bed and red per predictor, then 2 assisted algorithms x 2 lambdas per predictor
    assert len(seen["rounded"][1].splitlines()) == 1 + 2 * 3 + 2 * 2 * 3


def test_sweep_writes_axis_column(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--axis", "capacity",
            "--values", "0.5,1.0",
            "--days", "3",
            "--seed", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    header = (tmp_path / "sweep_capacity.csv").read_text().splitlines()[0]
    assert header.endswith("axis,axis_value")


def test_sweep_exits_nonzero_when_cells_fail(tmp_path, capsys):
    # all-zero demand: every cell's offline optimum is 0, so no ratio exists
    stamps = ["2018-04-01T00:00", "2018-04-01T01:00", "2018-04-01T02:00"]
    (tmp_path / "p.csv").write_text("timestamp,value\n" + "".join(f"{t},{20 + i}\n" for i, t in enumerate(stamps)))
    (tmp_path / "d.csv").write_text("timestamp,value\n" + "".join(f"{t},0\n" for t in stamps))
    inputs = ["--price-csv", str(tmp_path / "p.csv"), "--demand-csv", str(tmp_path / "d.csv"), "--seed", "1"]
    code = main(["sweep", "--axis", "capacity", "--values", "0.5,1.0", *inputs, "--out-dir", str(tmp_path / "sweep")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error [capacity=0.5 bed||perfect]: offline optimum must be > 0" in err
    assert "error [capacity=1.0 bed||perfect]" in err
    # compare on the same files agrees
    assert main(["compare", *inputs, "--out-dir", str(tmp_path / "compare")]) == 1


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text("days = 2\nseed = 3\nalgorithms = bed\nlambdas = 0.5\n")
    code = main(
        ["compare", "--config", str(config), "--days", "3", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["days"] == 3  # flag wins


def test_a_config_file_with_a_bom_writes_the_plain_files_report(tmp_path, capsys):
    text = b"days = 2\nseed = 3\nalgorithms = bed,lambda-bed\nlambdas = 0.5\n"
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    for name in ("plain", "bom"):
        assert main(["compare", "--config", str(tmp_path / f"{name}.cfg"), "--out-dir", str(tmp_path / name)]) == 0
    report = (tmp_path / "plain" / "report.csv").read_bytes()
    assert report.count(b"\n") > 1
    assert (tmp_path / "bom" / "report.csv").read_bytes() == report


def test_run_rejects_bad_algorithm(tmp_path, capsys):
    code = main(["run", "--algorithm", "nope", "--days", "2", "--seed", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_exits_1_naming_a_failed_cell(tmp_path, capsys):
    # all-zero demand: the single cell's offline optimum is 0, so no ratio exists
    argv = ["run", "--algorithm", "bed", "--days", "1", "--peak-level", "0", "--base-level", "0", "--noise", "0"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "offline optimum must be > 0" in captured.err and captured.out == ""


def _run_lines(capsys, argv, config_text=None, tmp_path=None):
    if config_text is not None:
        (tmp_path / "run.conf").write_text(config_text)
        argv = [*argv, "--config", str(tmp_path / "run.conf")]
    assert main(["run", "--days", "2", "--seed", "1", *argv]) == 0
    return [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]


def test_run_honours_the_plural_flags(capsys):
    # an unset --lambda and --predictor used to erase --lambdas and --predictors
    argv = ["--algorithm", "lambda-bed", "--lambdas", "0.3,0.6", "--predictors", "adversarial"]
    assert _run_lines(capsys, argv) == [
        "lambda-bed lambda=0.3 predictor=adversarial",
        "lambda-bed lambda=0.6 predictor=adversarial",
    ]


def test_run_takes_the_file_values_unless_a_singular_flag_is_given(tmp_path, capsys):
    config_text = "lambdas = 0.3\npredictors = adversarial\n"
    lines = _run_lines(capsys, ["--algorithm", "lambda-bed"], config_text, tmp_path)
    assert lines == ["lambda-bed lambda=0.3 predictor=adversarial"]
    lines = _run_lines(capsys, ["--algorithm", "lambda-bed", "--lambda", "0.7"], config_text, tmp_path)
    assert lines == ["lambda-bed lambda=0.7 predictor=adversarial"]


@pytest.mark.parametrize(
    "argv, flags",
    [
        ("--algorithm bed --algorithms red", "--algorithm and --algorithms"),
        ("--algorithm lambda-bed --lambda 0.3 --lambdas 0.4", "--lambda and --lambdas"),
        ("--algorithm bed --predictor perfect --predictors gaussian", "--predictor and --predictors"),
    ],
)
def test_run_with_a_singular_and_its_plural_flag_exits_2_naming_both(capsys, argv, flags):
    assert main(["run", "--days", "2", *argv.split()]) == 2
    assert capsys.readouterr().err == f"error: {flags} both given; pass one of them\n"


def test_verify_small_grid(capsys):
    code = main(["verify", "--grid-resolution", "5", "--slots", "600"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert "expected-ratio-closed-forms" in out


def test_verify_rejects_tiny_grid(capsys):
    assert main(["verify", "--grid-resolution", "3"]) == 2


def test_verify_report_structure():
    report = verify_theorems(
        lambdas=(0.1, 0.3, 0.5, 0.7, 0.9),
        betas=(0.1, 0.3, 0.5, 0.7, 0.9),
        sigmas=(0.2, 0.5, 0.8, 1.5, 3.0, 6.0),
        empirical_slots=500,
    )
    names = {check.name for check in report.checks}
    assert "expected-ratio-closed-forms" in names
    assert "randomized-robustness-envelope" in names
    assert "ratio-curve-tightness" in names
    assert report.passed
    assert "PASS" in report.format()


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", ["run", "compare", "sweep", "synth"])
def test_one_flag_per_config_field(command):
    sub = _subparsers(build_parser())[command]
    dests = [a.dest for a in sub._actions]
    for f in fields(ExperimentConfig):
        flags = [a for a in sub._actions if a.dest == f.name]
        assert len(flags) == 1 and flags[0].option_strings == ["--" + f.name.replace("_", "-")]
        assert flags[0].type is None and flags[0].default is None
    own = {"run": {"algorithm", "lam", "predictor"}, "sweep": {"axis", "values"}, "synth": {"start"}}
    assert set(dests) == {"help", "config"} | {f.name for f in fields(ExperimentConfig)} | own.get(command, set())


COMMANDS = ["run", "compare", "sweep", "synth", "verify"]


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as stopped:
        parse(argv)
    return stopped.value.code, *capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["--help"], ["bogus"], ["--bogus"], ["--", "bogus"],
        *[[command, "--help"] for command in COMMANDS],
        # one bad flag per subcommand: missing, unknown, out of choices, missing its value, not an int
        ["run", "--lambda", "0.5"], ["compare", "--algorithm-list", "bed"], ["sweep", "--axis", "depth"],
        ["synth", "--start"], ["verify", "--slots", "many"],
    ],
)
def test_main_exits_as_the_parser_of_every_subcommand(argv, capsys, monkeypatch):
    # main builds only the named subcommand's flags: its help, usage and
    # errors must be the full parser's byte for byte
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = _exit_of(main, argv, capsys)
    assert (code, out, err) == _exit_of(build_parser().parse_args, argv, capsys)
    assert code == (0 if {"-h", "--help"} & set(argv) else 2) and (out if code == 0 else err)


@pytest.mark.parametrize("command", COMMANDS)
def test_main_builds_no_other_subcommands_flags(command, capsys, monkeypatch):
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *args: built.append(full(*args)) or built[-1])
    _exit_of(main, [command, "--help"], capsys)
    (parser,) = built
    every = _subparsers(full())
    assert list(_subparsers(parser)) == COMMANDS == list(every)
    for name, sub in _subparsers(parser).items():
        own = [a.option_strings for a in sub._actions]
        assert own == ([a.option_strings for a in every[name]._actions] if name == command else [["-h", "--help"]])


def test_file_and_flags_build_equal_configs(tmp_path):
    values = {
        "price-csv": "p.csv", "demand-csv": "d.csv", "days": "5", "peak-level": "10.5",
        "base-level": "1.5", "noise": "0.25", "algorithms": "bed,red", "lambdas": "0.3, 0.7",
        "predictors": "perfect,scalar", "sigma-hat": "0.8", "sigma1": "2", "sigma2": "0.5",
        "peak-multiplier": "80", "capacity-ratio": "0.9", "ramp-ratio": "0.4", "seed": "11",
        "out-dir": "somewhere",
    }
    assert set(values) == {f.name.replace("_", "-") for f in fields(ExperimentConfig)}
    conf = tmp_path / "exp.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    parser = build_parser()
    from_file = _config_from_args(parser.parse_args(["compare", "--config", str(conf)]))
    from_flags = _config_from_args(
        parser.parse_args(["compare", *[x for key, value in values.items() for x in ("--" + key, value)]])
    )
    assert from_file == from_flags
    assert from_file.lambdas == (0.3, 0.7) and from_file.seed == 11 and from_file.sigma1 == 2.0


def test_synth_reads_config(tmp_path, capsys):
    conf = tmp_path / "synth.conf"
    conf.write_text(f"days = 2\nseed = 4\nout-dir = {tmp_path / 'traces'}\n")
    assert main(["synth", "--config", str(conf)]) == 0
    assert capsys.readouterr().out.startswith("48 slots -> ")
    assert len((tmp_path / "traces" / "prices.csv").read_text().splitlines()) == 49


@pytest.mark.parametrize(
    "config_text, argv, message",
    [
        ("days = abc", "compare", "days: expected int, got 'abc'"),
        ("seed = 1.5", "compare --days 2", "seed: expected int, got '1.5'"),
        (None, "compare --days 2.5", "days: expected int, got '2.5'"),
        (None, "compare --days 2 --lambdas 0.5,x", "lambdas: expected floats, got '0.5,x'"),
        ("ramp-ratio = half", "compare --days 2", "ramp-ratio: expected float, got 'half'"),
        (None, "sweep --axis capacity --days 2 --values 0.5,abc", "--values: expected floats, got '0.5,abc'"),
        (
            None,
            "compare --days 2 --seed 1 --predictors scalar --algorithms lambda-bed --sigma-hat nan",
            "sigma-hat must be finite, got nan",
        ),
        (None, "compare --days 2 --seed 1 --predictors gaussian --sigma1 nan", "sigma1 must be finite, got nan"),
        (None, "compare --days 2 --lambdas ,", "lambdas must hold at least one value"),
        (None, "compare --days 2 --seed -1", "seed must be >= 0, got -1"),
        ("seed = -3", "sweep --axis ramp --days 2 --values 0.5", "seed must be >= 0, got -3"),
        (None, "synth --days 2 --seed -1", "seed must be a non-negative integer, got -1"),
        (None, "synth --days 1 --start garbage", "--start: bad timestamp 'garbage'"),
        (None, "synth --days 1 --start 9999-12-31T01:00", "--start: 24 hourly stamps from '9999-12-31T01:00' run past"),
        (None, "sweep --axis ramp --days 2 --values ,", "needs at least one value"),
        (
            None,
            "compare --days 2 --seed 1 --algorithms naive-lambda-red --lambdas 0.001 --predictors perfect",
            "lambdas: naive-lambda-red needs values of at least 0.0014088818758681283",
        ),
        (None, "compare --days 2 --seed 1 --predictors perfect,oracle", "unknown predictor 'oracle'"),
        (None, "compare --days 2 --seed 1 --capacity-ratio 1.5", "capacity-ratio must lie in (0, 1], got 1.5"),
        ("capacity-ratio = 0", "compare --days 2 --seed 1", "capacity-ratio must lie in (0, 1], got 0.0"),
        (None, "compare --days 2 --seed 1 --peak-multiplier -2", "peak-multiplier must be > 0, got -2.0"),
        (None, "compare --seed 1 --price-csv prices.csv", "price-csv and demand-csv must be given together"),
        ("demand-csv = demands.csv", "run --algorithm bed", "price-csv and demand-csv must be given together"),
        ("days 2", "compare", "config line 1: expected 'key = value', got 'days 2'"),
        (None, "verify --slots 0", "need at least one slot, got 0"),
    ],
)
def test_bad_values_exit_2_naming_the_key(tmp_path, capsys, config_text, argv, message):
    args = [*argv.split(), "--out-dir", str(tmp_path / "out")]
    if config_text is not None:
        (tmp_path / "exp.conf").write_text(config_text + "\n")
        args += ["--config", str(tmp_path / "exp.conf")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_sweep_with_empty_values_exits_2_like_a_lone_comma(tmp_path, capsys):
    messages = []
    for values in ("", ","):
        out = tmp_path / f"out{len(messages)}"
        argv = ["sweep", "--axis", "ramp", "--values", values, "--days", "2", "--seed", "1", "--out-dir", str(out)]
        assert main(argv) == 2
        messages.append(capsys.readouterr().err)
        assert not out.exists()
    assert messages[0] == messages[1] == "error: sweep axis 'ramp' needs at least one value\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("compare --price-csv {tmp}/nope.csv --demand-csv {tmp}/good/demands.csv", "nope.csv: cannot read"),
        ("compare --price-csv {tmp}/folder.csv --demand-csv {tmp}/good/demands.csv", "folder.csv: cannot read"),
        ("compare --price-csv {tmp}/latin1.csv --demand-csv {tmp}/good/demands.csv", "latin1.csv line 5: not UTF-8"),
        ("compare --days 2 --config {tmp}/none.cfg", "none.cfg: cannot read"),
        ("compare --days 2 --seed 1 --out-dir {tmp}/a-file", "a-file: exists and is not a directory"),
        ("synth --days 2 --out-dir {tmp}/a-file", "a-file: exists and is not a directory"),
    ],
)
def test_unreadable_files_exit_2_naming_the_path(tmp_path, capsys, argv, message):
    good = tmp_path / "good"
    assert main(["synth", "--days", "2", "--seed", "1", "--out-dir", str(good)]) == 0
    (tmp_path / "folder.csv").mkdir()
    lines = (good / "prices.csv").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b",", b",\xff")  # a Latin-1 byte on line 5
    (tmp_path / "latin1.csv").write_bytes(b"\n".join(lines))
    (tmp_path / "a-file").write_text("not a directory\n")
    args = argv.format(tmp=tmp_path).split()
    if "--out-dir" not in args:
        args += ["--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "price_text, message",
    [
        # no header: the first row used to be skipped as one
        ("2018-04-01T00:00,20\n2018-04-01T01:00,21\n", "p.csv line 1: header missing"),
        ('timestamp,value\n2018-04-01T00:00,20\n2018-04-01T01:00,"2,1"\n', "p.csv line 3: a quote must enclose"),
    ],
)
def test_a_headerless_or_oddly_quoted_trace_csv_exits_2_naming_the_line(tmp_path, capsys, price_text, message):
    (tmp_path / "p.csv").write_text(price_text)
    (tmp_path / "d.csv").write_text("timestamp,value\n2018-04-01T00:00,1\n2018-04-01T01:00,2\n")
    inputs = ["--price-csv", str(tmp_path / "p.csv"), "--demand-csv", str(tmp_path / "d.csv")]
    assert main(["compare", *inputs, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{tmp_path}/{message}" in err
    assert not (tmp_path / "out").exists()


def test_trace_csvs_mixing_offset_and_naive_stamps_exit_2_naming_the_line(tmp_path, capsys):
    rows = "timestamp,value\n2018-04-01T00:00,20\n2018-04-01T01:00+00:00,21\n"
    for name in ("p.csv", "d.csv"):
        (tmp_path / name).write_text(rows)
    inputs = ["--price-csv", str(tmp_path / "p.csv"), "--demand-csv", str(tmp_path / "d.csv")]
    assert main(["compare", *inputs, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{tmp_path / 'p.csv'} line 3: timestamp" in err
    assert not (tmp_path / "out").exists()


# each writing command, and the files it writes into its --out-dir
WRITERS = {
    "compare": ("compare --days 2 --seed 1 --algorithms bed,red", ("report.csv", "manifest.json")),
    "sweep": (
        "sweep --axis capacity --values 0.5,1.0 --days 2 --seed 1",
        ("sweep_capacity.csv", "sweep_capacity_manifest.json"),
    ),
    "synth": ("synth --days 2 --seed 1", ("prices.csv", "demands.csv")),
    "verify": ("verify --grid-resolution 5 --slots 600", ("verification.txt",)),
}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_a_rerun_into_the_same_out_dir_writes_new_identical_files(tmp_path, capsys, command):
    argv, names = WRITERS[command]
    args = [*argv.split(), "--out-dir", str(tmp_path / "out")]
    assert main(args) == 0
    first = {name: (tmp_path / "out" / name).read_bytes() for name in names}
    for name in names:  # a second name for each old file: it must stay as it was
        os.link(tmp_path / "out" / name, tmp_path / f"old-{name}")
    assert main(args) == 0
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == first[name]
        # the old file was unlinked, not truncated and rewritten in place
        assert not os.path.samefile(tmp_path / "out" / name, tmp_path / f"old-{name}")
        assert (tmp_path / f"old-{name}").read_bytes() == first[name]


@pytest.mark.parametrize("command, name", [(c, n) for c, (_, names) in sorted(WRITERS.items()) for n in names])
def test_an_unwritable_output_exits_2_naming_it(tmp_path, capsys, command, name):
    (tmp_path / "out" / name).mkdir(parents=True)
    assert main([*WRITERS[command][0].split(), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{tmp_path / 'out' / name}: cannot write" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("compare --days 1 --peak-level 1e308 --base-level 0", "peak-level must be at most 1000.0, got 1e+308"),
        ("compare --days 1 --seed 1 --noise 1e300", "noise must be at most 100.0, got 1e+300"),
        ("sweep --axis ramp --values 0.5 --days 100000", "days must be at most 366, got 100000"),
        ("run --algorithm bed --days 1 --peak-level 1000.5", "peak-level must be at most 1000.0, got 1000.5"),
        ("synth --days 1 --peak-level 1e308 --base-level 0", "peak_level must be at most 1000.0, got 1e+308"),
        ("synth --days 1 --noise 1e300", "noise must be at most 100.0, got 1e+300"),
        ("synth --days 367", "days must be at most 366, got 367"),
    ],
)
def test_a_synthetic_trace_past_its_limits_exits_2_before_it_is_built(tmp_path, capsys, monkeypatch, argv, message):
    # a huge level or noise rounds to ~1e308 units of demand, and decompose
    # builds one layer per unit: no trace may be built on the way to exit 2
    def built(*args):
        raise AssertionError("a synthetic trace was built")

    monkeypatch.setattr(traces, "_diurnal", built)
    assert main([*argv.split(), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_a_synthetic_trace_at_its_limits_validates():
    config = ExperimentConfig(days=366, peak_level=1000.0, noise=100.0)
    config.validate()
    for key, value in (("days", 367), ("peak_level", 1000.0000000000001), ("noise", 100.00000000000001)):
        with pytest.raises(ps.ValidationError, match=f"^{key.replace('_', '-')} must be at most "):
            replace(config, **{key: value}).validate()
