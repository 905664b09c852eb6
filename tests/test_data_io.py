import json
import math

import numpy as np
import pytest

from analog import make_worldbank_analog, write_worldbank_analog
from surface_io import read_surface

from eivmix.data_io import (
    AUTO15,
    IngestResult,
    RunManifest,
    TabularSchema,
    file_sha256,
    paired_subset,
    read_csv,
    read_fit_report,
    report_alpha,
    split_indices,
    worldbank_analog_path,
    worldbank_analog_schema,
    write_fit_report,
    write_surface,
)
from eivmix.densities import GAUSSIAN, DensityParams
from eivmix.models import ParametricModel
from eivmix.objective import IntegrationConfig
from eivmix.optimize import GAUSS_LINE, FitResult, objective_surface
from eivmix.simulate import generate_scenario, scenario_spec


def basic_schema(**kw):
    return TabularSchema(
        input_columns=("x",), output_column="y", **kw
    )


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- schema

def test_schema_validation(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        TabularSchema(input_columns=("x", "x"), output_column="y")
    with pytest.raises(ValueError, match="duplicate"):
        TabularSchema(input_columns=("x",), output_column="x")
    with pytest.raises(ValueError, match="positive"):
        TabularSchema(input_columns=("x",), output_column="y",
                      error_std={"x": -1.0})
    with pytest.raises(ValueError, match="unknown column"):
        TabularSchema(input_columns=("x",), output_column="y",
                      error_std={"z": 1.0})
    # schema files: a JSON true is not a scale of 1.0, Infinity is not a
    # scale, and a string is not split into one-character column names
    for raw, field in (
        ('"input_columns": ["x"], "error_std": {"x": true}', "error_std for 'x'"),
        ('"input_columns": ["x"], "error_std": {"x": Infinity}', "error_std for 'x'"),
        ('"input_columns": "birth_rate"', "input_columns"),
    ):
        p = tmp_path / "schema.json"
        p.write_text('{"output_column": "y", ' + raw + "}")
        with pytest.raises(ValueError, match=field):
            TabularSchema.from_json(p)


def test_schema_scale_policy_default():
    s = basic_schema()
    assert s.scale_policy("x") == AUTO15
    assert s.scale_policy("y") == AUTO15
    s2 = basic_schema(error_std={"x": 0.7})
    assert s2.scale_policy("x") == 0.7
    assert s2.scale_policy("y") == AUTO15


def test_schema_json_round_trip(tmp_path):
    s = TabularSchema(
        input_columns=("a", "b"),
        output_column="y",
        key_column="k",
        id_column="id",
        error_std={"a": 0.5, "y": AUTO15},
    )
    p = tmp_path / "schema.json"
    s.to_json(p)
    back = TabularSchema.from_json(p)
    assert back == s
    raw = json.loads(p.read_text())
    assert raw["input_columns"] == ["a", "b"]


def test_schema_json_bytes(tmp_path):
    # key order, two-space indent and the trailing newline are part of the format
    s = TabularSchema(input_columns=("b", "a"), output_column="y", key_column="k",
                      error_std={"y": AUTO15, "a": 0.5})
    p = tmp_path / "schema.json"
    s.to_json(p)
    assert p.read_text() == (
        '{\n'
        '  "error_std": {\n'
        '    "a": 0.5,\n'
        '    "y": "auto15"\n'
        '  },\n'
        '  "id_column": null,\n'
        '  "input_columns": [\n'
        '    "b",\n'
        '    "a"\n'
        '  ],\n'
        '  "key_column": "k",\n'
        '  "output_column": "y"\n'
        '}\n'
    )


def test_schema_from_json_rejects_junk(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text(json.dumps({"output_column": "y"}))
    with pytest.raises(ValueError):
        TabularSchema.from_json(p)


# ---------------------------------------------------------------- read_csv

def test_read_csv_basic(tmp_path):
    p = write(tmp_path, "x,y\n1,2\n2,3\n3,5\n4,6\n")
    res = read_csv(p, basic_schema())
    assert isinstance(res, IngestResult)
    assert res.n_dropped == 0
    ds = res.dataset
    assert ds.n_pairs == 4
    np.testing.assert_allclose(ds.xs[:, 0], [1, 2, 3, 4])
    np.testing.assert_allclose(ds.ys[:, 0], [2, 3, 5, 6])
    assert ds.input_densities[0].kind == GAUSSIAN


def test_auto15_scale_frozen(tmp_path):
    # std([1,2,3,4], ddof=1) = sqrt(5/3); 0.15 * that
    p = write(tmp_path, "x,y\n1,10\n2,20\n3,30\n4,40\n")
    res = read_csv(p, basic_schema())
    assert math.sqrt(5.0 / 3.0) == pytest.approx(1.2909944487358056, rel=0, abs=0)
    assert res.column_scales["x"] == pytest.approx(0.19364916731037085, rel=1e-15)
    assert res.column_scales["y"] == pytest.approx(1.9364916731037085, rel=1e-15)


def test_explicit_scale_override(tmp_path):
    p = write(tmp_path, "x,y\n1,10\n2,20\n3,30\n")
    res = read_csv(p, basic_schema(error_std={"x": 0.25}))
    assert res.column_scales["x"] == 0.25
    np.testing.assert_allclose(res.dataset.input_densities[0].scale, [0.25])


def test_read_csv_drop_diagnostics(tmp_path):
    p = write(tmp_path, "x,y\n1,2\n,3\nbad,4\n5,inf\n6,7\n")
    res = read_csv(p, basic_schema())
    assert res.n_dropped == 3
    assert res.dataset.n_pairs == 2
    joined = "\n".join(res.diagnostics)
    assert "line 3: missing value in column 'x'" in joined
    assert "line 4: unparseable number 'bad'" in joined
    assert "line 5: non-finite value" in joined


def test_read_csv_missing_column(tmp_path):
    p = write(tmp_path, "x,z\n1,2\n")
    with pytest.raises(ValueError, match="missing column"):
        read_csv(p, basic_schema())


def test_read_csv_all_rows_dropped(tmp_path):
    p = write(tmp_path, "x,y\nbad,1\nbad,2\n")
    with pytest.raises(ValueError, match="no usable rows"):
        read_csv(p, basic_schema())


def test_read_csv_zero_spread_auto_scale(tmp_path):
    p = write(tmp_path, "x,y\n1,1\n1,2\n1,3\n")
    with pytest.raises(ValueError, match="zero spread"):
        read_csv(p, basic_schema())


def test_read_csv_keys_and_ids(tmp_path):
    # the key column is numeric; ids are carried through verbatim
    p = write(tmp_path, "id,k,x,y\nr1,20,1,2\nr2,10,2,3\nr3,30,3,4\n")
    schema = TabularSchema(input_columns=("x",), output_column="y",
                           key_column="k", id_column="id")
    res = read_csv(p, schema)
    np.testing.assert_allclose(res.keys, [20.0, 10.0, 30.0])
    assert list(res.ids) == ["r1", "r2", "r3"]


# ---------------------------------------------------------------- splits

def test_split_indices_deterministic_partition():
    tr1, te1 = split_indices(10, 3, seed=5)
    tr2, te2 = split_indices(10, 3, seed=5)
    np.testing.assert_array_equal(tr1, tr2)
    np.testing.assert_array_equal(te1, te2)
    assert len(te1) == 3 and len(tr1) == 7
    assert sorted(np.concatenate([tr1, te1]).tolist()) == list(range(10))
    assert np.all(np.diff(tr1) > 0) and np.all(np.diff(te1) > 0)
    tr3, _ = split_indices(10, 3, seed=6)
    assert not np.array_equal(tr1, tr3)


def test_split_indices_validation():
    with pytest.raises(ValueError):
        split_indices(5, 5, seed=0)
    with pytest.raises(ValueError):
        split_indices(5, -1, seed=0)


def test_paired_subset_keeps_densities(tmp_path):
    p = write(tmp_path, "x,y\n1,2\n2,3\n3,4\n4,5\n")
    ds = read_csv(p, basic_schema(error_std={"x": 0.3, "y": 0.4})).dataset
    sub = paired_subset(ds, np.array([0, 2]))
    np.testing.assert_allclose(sub.xs[:, 0], [1, 3])
    np.testing.assert_allclose(sub.input_densities[0].scale, [0.3])
    np.testing.assert_allclose(sub.output_densities[0].scale, [0.4])


# ---------------------------------------------------------------- reports

def fit_result():
    return FitResult(
        alpha_hat=np.array([1.0 / 3.0, 1e-17, -0.1]),
        objective_at_min=12.345678901234567,
        iterations=321,
        converged=True,
        warm_start=np.array([0.0, 0.0, 0.0]),
        density_params_hat=None,
    )


def test_report_round_trip_exact(tmp_path):
    p = tmp_path / "report.txt"
    write_fit_report(p, fit_result(), metrics={"r_squared_delta": 0.875},
                     config={"objective": "gauss-line", "seed": 3})
    table = read_fit_report(p)
    alpha = report_alpha(table)
    # 17 significant digits survive the round trip bit for bit
    assert alpha.tolist() == [1.0 / 3.0, 1e-17, -0.1]
    assert table["objective_at_min"] == 12.345678901234567
    assert table["iterations"] == 321
    assert table["converged"] is True
    assert table["r_squared_delta"] == 0.875
    text = p.read_text()
    assert "[fit]" in text and "[metrics]" in text and "[config]" in text
    assert "objective: gauss-line" in text


def test_report_density_params(tmp_path):
    fit = FitResult(
        alpha_hat=np.array([0.5]),
        objective_at_min=1.0,
        iterations=10,
        converged=True,
        warm_start=np.array([0.0]),
        density_params_hat=DensityParams(np.array([0.2]), np.array([0.35])),
    )
    p = tmp_path / "report.txt"
    write_fit_report(p, fit)
    table = read_fit_report(p)
    assert table["input_scale_1"] == 0.2
    assert table["output_scale_1"] == 0.35


def test_report_alpha_requires_coefficients():
    with pytest.raises(ValueError):
        report_alpha({"objective_at_min": 1.0})


# ---------------------------------------------------------------- surfaces

def test_surface_round_trip(tmp_path):
    ds = generate_scenario(scenario_spec("A", L=40, R=4), np.random.default_rng(0))
    surf = objective_surface(
        ds, ParametricModel.affine_1d(), GAUSS_LINE, IntegrationConfig(),
        axis1=(0, -1.0, 1.0, 5), axis2=(1, -0.5, 1.5, 7), fixed=[0.0, 0.5],
    )
    p = tmp_path / "surface.txt"
    write_surface(p, surf)
    back = read_surface(p)
    np.testing.assert_array_equal(back.values, surf.values)
    assert back.axis1 == surf.axis1
    assert back.axis2 == surf.axis2
    assert back.argmin == surf.argmin
    np.testing.assert_array_equal(back.alpha_at_min, surf.alpha_at_min)


def test_surface_round_trip_with_extremes(tmp_path):
    ds = generate_scenario(scenario_spec("A", L=20, R=2), np.random.default_rng(1))
    surf = objective_surface(
        ds, ParametricModel.affine_1d(), GAUSS_LINE, IntegrationConfig(),
        axis1=(0, 0.0, 1e6, 2), axis2=(1, 0.5, 1e6, 2), fixed=[0.0, 0.5],
    )
    p = tmp_path / "surface.txt"
    write_surface(p, surf)
    back = read_surface(p)
    np.testing.assert_array_equal(back.values, surf.values)


def test_read_surface_shape_mismatch(tmp_path):
    p = tmp_path / "surface.txt"
    p.write_text(
        "# objective surface\naxis1: 0 -1 1 3\naxis2: 1 -1 1 2\n"
        "alpha_at_min: 0 0\nvalues:\n1 2\n"
    )
    with pytest.raises(ValueError, match="shape"):
        read_surface(p)


# ---------------------------------------------------------------- manifests

def test_manifest_round_trip(tmp_path):
    f = tmp_path / "out.txt"
    f.write_text("hello")
    m = RunManifest(command="fit", arguments={"seed": 3, "out": "out.txt"},
                    seed=3, package_version="0.1.0",
                    started_utc="2026-01-01T00:00:00Z", wall_seconds=0.25)
    m.add_output(f)
    p = tmp_path / "manifest.json"
    m.write(p)
    back = RunManifest.load(p)
    assert back.command == "fit"
    assert back.arguments == {"seed": 3, "out": "out.txt"}
    assert back.outputs["out.txt"] == file_sha256(f)


def test_manifest_bytes(tmp_path):
    m = RunManifest(command="fit", arguments={"seed": 3, "out": "run", "method": None},
                    seed=3, package_version="0.1.0",
                    started_utc="2026-01-01T00:00:00Z", wall_seconds=0.25,
                    outputs={"report.txt": "ab", "eval.txt": "cd"})
    p = tmp_path / "manifest.json"
    m.write(p)
    assert p.read_text() == (
        '{\n'
        '  "arguments": {\n'
        '    "method": null,\n'
        '    "out": "run",\n'
        '    "seed": 3\n'
        '  },\n'
        '  "command": "fit",\n'
        '  "outputs": {\n'
        '    "eval.txt": "cd",\n'
        '    "report.txt": "ab"\n'
        '  },\n'
        '  "package_version": "0.1.0",\n'
        '  "seed": 3,\n'
        '  "started_utc": "2026-01-01T00:00:00Z",\n'
        '  "wall_seconds": 0.25\n'
        '}\n'
    )


def test_file_sha256_known_value(tmp_path):
    p = tmp_path / "h.txt"
    p.write_text("hello")
    assert file_sha256(p) == (
        "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
    )


# ---------------------------------------------------------------- analog data

def test_analog_regenerates_shipped_file(tmp_path):
    p = tmp_path / "analog.csv"
    write_worldbank_analog(p)
    assert p.read_bytes() == worldbank_analog_path().read_bytes()


def test_analog_contents():
    rows = make_worldbank_analog()
    assert len(rows) == 192
    assert rows[0][0] == "C001"
    schema = worldbank_analog_schema()
    assert schema.output_column == "life_expectancy"
    assert schema.key_column == "gdp_per_capita"
    res = read_csv(worldbank_analog_path(), schema)
    assert res.dataset.n_pairs == 192
    assert res.n_dropped == 0
