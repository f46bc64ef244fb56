"""Command-line interface and the verification report."""
import json

from peaksched.harness.cli import main
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


def test_run_rejects_bad_algorithm(tmp_path, capsys):
    code = main(["run", "--algorithm", "nope", "--days", "2", "--seed", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


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
