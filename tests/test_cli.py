import json

import numpy as np
import pytest

from surface_io import read_surface

from eivmix import (
    GAUSS_LINE,
    GAUSS_PLANE,
    GENERAL,
    INTERVAL_LINE,
    SCENARIO_NAMES,
    ParametricModel,
    scenario_model,
    scenario_spec,
)
from eivmix.cli import _resolve_objective, main
from eivmix.data_io import (
    RunManifest,
    TabularSchema,
    read_fit_report,
    worldbank_analog_path,
    worldbank_analog_schema,
)
from eivmix.simulate import GAUSSIAN_NOISE


@pytest.fixture()
def line_csv(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, 80)
    y = 0.3 + 0.7 * x + 0.1 * rng.standard_normal(80)
    xo = x + 0.1 * rng.standard_normal(80)
    p = tmp_path / "line.csv"
    p.write_text("x,y\n" + "".join(f"{a:.6f},{b:.6f}\n" for a, b in zip(xo, y)))
    s = tmp_path / "schema.json"
    TabularSchema(input_columns=("x",), output_column="y").to_json(s)
    return p, s


def manifest_core(path):
    raw = json.loads(path.read_text())
    raw.pop("started_utc", None)
    raw.pop("wall_seconds", None)
    return raw


def test_fit_runs_and_is_reproducible(tmp_path, line_csv, capsys):
    data, schema = line_csv
    # same --out basename under different parents, so manifests compare equal
    out1 = tmp_path / "p1" / "run"
    out2 = tmp_path / "p2" / "run"
    args = ["fit", "--data", str(data), "--schema", str(schema), "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--out", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "alpha_hat:" in first and "r2_delta_train:" in first
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    # manifests agree once the timing fields are dropped
    m1 = manifest_core(out1 / "manifest.json")
    m2 = manifest_core(out2 / "manifest.json")
    assert m1 == m2
    table = read_fit_report(out1 / "report.txt")
    assert table["converged"] is True
    assert table["alpha_hat_2"] == pytest.approx(0.7, abs=0.1)
    assert "r2_delta_test" in table


def test_fit_exit_codes(tmp_path, line_csv, capsys):
    data, schema = line_csv
    missing = main(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--schema", str(schema), "--out", str(tmp_path / "o1")])
    assert missing == 3
    assert "error:" in capsys.readouterr().err
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text("{not json")
    assert main(["fit", "--data", str(data), "--schema", str(bad_schema),
                 "--out", str(tmp_path / "o2")]) == 3
    capsys.readouterr()
    # starved optimizer reports non-convergence
    rc = main(["fit", "--data", str(data), "--schema", str(schema),
               "--out", str(tmp_path / "o3"), "--max-iters", "1"])
    assert rc == 4
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value",
    [("--group-size", "0"), ("--group-size", "-3"), ("--test-size", "1"), ("--test-size", "-2")],
)
def test_fit_rejects_bad_sizes_before_reading(tmp_path, line_csv, capsys, flag, value):
    data, schema = line_csv
    out = tmp_path / "run"
    # a missing data file shows the flag is checked before any reading
    for data in (data, tmp_path / "nope.csv"):
        rc = main(["fit", "--data", str(data), "--schema", str(schema),
                   "--out", str(out), flag, value])
        assert rc == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_usage_errors_exit_two(capsys, tmp_path):
    out = str(tmp_path / "surface.csv")
    for argv in (
        ["frobnicate"],
        # surface never runs the optimizer, so it takes no optimizer flags
        ["surface", "--scenario", "A", "--out", out, "--max-iters", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_fit_grouped_with_key(tmp_path, capsys):
    analog = worldbank_analog_path()
    s = tmp_path / "schema.json"
    worldbank_analog_schema().to_json(s)
    out = tmp_path / "run"
    rc = main(["fit", "--data", str(analog), "--schema", str(s),
               "--objective", "gauss-plane", "--group-size", "8",
               "--test-size", "40", "--out", str(out), "--seed", "1"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "r2_delta_test:" in stdout
    table = read_fit_report(out / "report.txt")
    assert 0.0 <= table["r2_delta_train"] <= 1.0
    assert table["n_groups"] == 19  # 152 train rows in chunks of 8


def test_simulate_outputs(tmp_path, capsys):
    out1 = tmp_path / "p1" / "sim"
    out2 = tmp_path / "p2" / "sim"
    args = ["simulate", "--scenario", "A", "--groups", "3", "--pairs", "30",
            "--reps", "3", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    d1 = (out1 / "deltas.csv").read_bytes()
    assert d1 == (out2 / "deltas.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    header = d1.decode().splitlines()[0]
    assert header.startswith("rep,")
    assert "delta_1" in header
    assert manifest_core(out1 / "manifest.json") == manifest_core(out2 / "manifest.json")
    m = RunManifest.load(out1 / "manifest.json")
    assert set(m.outputs) == {"deltas.csv", "summary.txt"}
    text = (out1 / "summary.txt").read_text()
    assert "median_delta" in text and "reps: 3" in text


def test_surface_subcommand(tmp_path, capsys):
    out = tmp_path / "surface.txt"
    rc = main(["surface", "--scenario", "A", "--groups", "2",
               "--axes", "1,2", "--range1=-1:1:5", "--range2=-0.5:1.5:4",
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "argmin:" in stdout
    grid = read_surface(out)
    assert grid.values.shape == (5, 4)
    assert np.isfinite(grid.values).all()
    assert (tmp_path / "surface.txt.manifest.json").exists()


def test_surface_bad_range(tmp_path, capsys):
    rc = main(["surface", "--scenario", "A", "--range1=-1:1",
               "--out", str(tmp_path / "s.txt")])
    assert rc == 3
    assert "lo:hi:n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ranges, flag, message",
    [
        (["--range1=nan:1:5", "--range2=0:1:3"], "--range1", "finite"),
        (["--range1=0:inf:5", "--range2=0:1:3"], "--range1", "finite"),
        (["--range1=0:1:5", "--range2=-inf:1:3"], "--range2", "finite"),
        (["--range1=0:1:2.5", "--range2=0:1:3"], "--range1", "integer n"),
    ],
)
def test_surface_rejects_non_finite_or_fractional_range(tmp_path, capsys, ranges, flag, message):
    # a non-finite bound used to give an all-NaN surface and exit 0
    out = tmp_path / "s.txt"
    rc = main(["surface", "--scenario", "A", "--groups", "3", *ranges, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert flag in err and message in err
    assert not out.exists()


def test_eval_subcommand(tmp_path, line_csv, capsys):
    data, schema = line_csv
    fit_out = tmp_path / "run"
    assert main(["fit", "--data", str(data), "--schema", str(schema),
                 "--out", str(fit_out), "--seed", "2", "--test-size", "0"]) == 0
    capsys.readouterr()
    report = fit_out / "report.txt"
    rc = main(["eval", "--report", str(report), "--data", str(data),
               "--schema", str(schema)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "r_squared_delta:" in out and "n_rows: 80" in out
    # with --out the numbers land in a file plus manifest
    dest = tmp_path / "evaldir"
    assert main(["eval", "--report", str(report), "--data", str(data),
                 "--schema", str(schema), "--out", str(dest)]) == 0
    capsys.readouterr()
    assert "r_squared_delta" in (dest / "eval.txt").read_text()
    assert (dest / "manifest.json").exists()


def test_eval_parameter_mismatch(tmp_path, line_csv, capsys):
    data, schema = line_csv
    report = tmp_path / "report.txt"
    report.write_text(
        "[table]\nname,value\nalpha_hat_1,0\nalpha_hat_2,1\nalpha_hat_3,2\n"
    )
    rc = main(["eval", "--report", str(report), "--data", str(data),
               "--schema", str(schema)])
    assert rc == 3
    assert "parameters" in capsys.readouterr().err


def test_auto_objective_follows_model_and_noise():
    expected = {
        "A": GAUSS_LINE,
        "B": GAUSS_LINE,
        "C": GAUSS_LINE,
        "D": INTERVAL_LINE,
        "plane": GAUSS_PLANE,
        "plane-switched": GAUSS_PLANE,
        "cubic": GENERAL,
    }
    assert set(expected) == set(SCENARIO_NAMES)
    for name in SCENARIO_NAMES:
        spec = scenario_spec(name)
        chosen = _resolve_objective("auto", scenario_model(spec), spec.noise_kind)
        assert chosen == expected[name], name
    # fit: an affine model on CSV data, whose error densities are Gaussian
    line, plane = ParametricModel.affine_1d(), ParametricModel.affine_kd(4)
    assert _resolve_objective("auto", line, GAUSSIAN_NOISE) == GAUSS_LINE
    assert _resolve_objective("auto", plane, GAUSSIAN_NOISE) == GAUSS_PLANE
    # an explicit choice passes through
    assert _resolve_objective(GENERAL, line, GAUSSIAN_NOISE) == GENERAL
