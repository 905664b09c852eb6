"""Tabular ingestion, result files, and run manifests.

CSV files are read with a small schema naming the input columns, the output
column, and optionally a sort-key column (for grouping) and an id column.
Each numeric column carries an error standard deviation: either an absolute
value or the string ``auto15``, meaning 15% of the column's sample standard
deviation. Ingested error densities are Gaussian.

Report and surface files are plain text with a machine-readable core:
numbers are written with 17 significant digits so a re-read reproduces them
exactly. Every CLI run that writes files also writes a RunManifest (JSON)
echoing the configuration, seeds, package version, timing, and SHA-256
digests of the outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field as dataclass_field
from importlib import resources
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dataset import PairedDataset
from .densities import ErrorDensity
from .optimize import FitResult, SurfaceGrid

AUTO15 = "auto15"
_AUTO15_FRACTION = 0.15


def _write_json(raw, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass(frozen=True)
class TabularSchema:
    """Column layout and per-column error scales for a CSV file."""

    input_columns: Tuple[str, ...]
    output_column: str
    key_column: Optional[str] = None
    id_column: Optional[str] = None
    error_std: Dict[str, object] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.input_columns, str):
            raise ValueError("input_columns must be a list of column names, not a string")
        cols = tuple(self.input_columns)
        if not cols:
            raise ValueError("at least one input column required")
        names = list(cols) + [self.output_column]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        object.__setattr__(self, "input_columns", cols)
        for col, v in self.error_std.items():
            if col not in names:
                raise ValueError(f"error_std names unknown column {col!r}")
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if v != AUTO15 and not (number and math.isfinite(v) and v > 0):
                raise ValueError(
                    f"error_std for {col!r} must be a positive finite number or {AUTO15!r}, "
                    f"got {v!r}"
                )

    def scale_policy(self, column: str):
        return self.error_std.get(column, AUTO15)

    @staticmethod
    def from_json(path) -> "TabularSchema":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            return TabularSchema(
                input_columns=raw["input_columns"],
                output_column=raw["output_column"],
                key_column=raw.get("key_column"),
                id_column=raw.get("id_column"),
                error_std=dict(raw.get("error_std", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed schema file {path}: {exc}") from exc

    def to_json(self, path) -> None:
        _write_json(asdict(self), path)


@dataclass(frozen=True, eq=False)
class IngestResult:
    """Parsed CSV: paired dataset plus row metadata and the scales used."""

    dataset: PairedDataset
    keys: Optional[np.ndarray]
    ids: Optional[List[str]]
    column_scales: Dict[str, float]
    n_dropped: int
    diagnostics: List[str]


def read_csv(path, schema: TabularSchema) -> IngestResult:
    """Read a CSV file into a paired dataset with Gaussian error densities.

    Rows with missing or unparseable numeric cells are dropped with a
    row-level diagnostic; an empty result is an error. Numbers must use
    plain decimal notation (locale-independent; no thousands separators).
    """
    numeric_cols = list(schema.input_columns) + [schema.output_column]
    if schema.key_column:
        numeric_cols.append(schema.key_column)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in numeric_cols if c not in header]
        if schema.id_column and schema.id_column not in header:
            missing.append(schema.id_column)
        if missing:
            raise ValueError(f"missing columns in {path}: {missing}")
        rows, keys, ids, diagnostics = [], [], [], []
        n_dropped = 0
        for line_no, row in enumerate(reader, start=2):
            values = {}
            bad = None
            for col in numeric_cols:
                cell = (row.get(col) or "").strip()
                if not cell:
                    bad = f"line {line_no}: missing value in column {col!r}"
                    break
                try:
                    values[col] = float(cell)
                except ValueError:
                    bad = f"line {line_no}: unparseable number {cell!r} in column {col!r}"
                    break
                if not math.isfinite(values[col]):
                    bad = f"line {line_no}: non-finite value in column {col!r}"
                    break
            if bad:
                diagnostics.append(bad)
                n_dropped += 1
                continue
            rows.append([values[c] for c in numeric_cols])
            if schema.id_column:
                ids.append(row.get(schema.id_column, ""))
    if not rows:
        raise ValueError(f"no usable rows in {path}; {n_dropped} dropped")
    data = np.asarray(rows, dtype=float)
    k = len(schema.input_columns)
    xs = data[:, :k]
    ys = data[:, k : k + 1]
    key_values = data[:, k + 1] if schema.key_column else None

    column_scales = {}
    for j, col in enumerate(list(schema.input_columns) + [schema.output_column]):
        policy = schema.scale_policy(col)
        if policy == AUTO15:
            std = float(np.std(data[:, j], ddof=1)) if data.shape[0] > 1 else 0.0
            scale = _AUTO15_FRACTION * std
            if scale <= 0:
                raise ValueError(
                    f"column {col!r} has zero spread; cannot derive an error scale"
                )
        else:
            scale = float(policy)
        column_scales[col] = scale
    in_scale = np.array([column_scales[c] for c in schema.input_columns])
    out_scale = np.array([column_scales[schema.output_column]])
    ds = PairedDataset.from_arrays(
        xs, ys, ErrorDensity.gaussian(in_scale), ErrorDensity.gaussian(out_scale)
    )
    return IngestResult(
        dataset=ds,
        keys=key_values,
        ids=ids if schema.id_column else None,
        column_scales=column_scales,
        n_dropped=n_dropped,
        diagnostics=diagnostics,
    )


def split_indices(n: int, n_test: int, seed: int) -> tuple:
    """Deterministic disjoint (train, test) index arrays, each sorted."""
    if not 0 <= n_test < n:
        raise ValueError("n_test must be in [0, n)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return train, test


def paired_subset(ds: PairedDataset, idx) -> PairedDataset:
    idx = np.asarray(idx, dtype=int)
    return PairedDataset(
        ds.xs[idx],
        ds.ys[idx],
        tuple(ds.input_densities[i] for i in idx),
        tuple(ds.output_densities[i] for i in idx),
    )


# -- fit reports --------------------------------------------------------------


def write_fit_report(path, fit: FitResult, metrics=None, config=None) -> None:
    """Human-readable fit report with a machine-readable flat table.

    The [table] section at the end holds name,value rows; floats carry 17
    significant digits, so read_fit_report reproduces them exactly.
    """
    table = {}
    for i, a in enumerate(fit.alpha_hat, start=1):
        table[f"alpha_hat_{i}"] = float(a)
    table["objective_at_min"] = float(fit.objective_at_min)
    table["iterations"] = int(fit.iterations)
    table["converged"] = bool(fit.converged)
    for i, a in enumerate(fit.warm_start, start=1):
        table[f"warm_start_{i}"] = float(a)
    if fit.density_params_hat is not None:
        for i, s in enumerate(fit.density_params_hat.input_scales, start=1):
            table[f"input_scale_{i}"] = float(s)
        for i, s in enumerate(fit.density_params_hat.output_scales, start=1):
            table[f"output_scale_{i}"] = float(s)
    for name, value in (metrics or {}).items():
        table[name] = value
    lines = ["# fit report", "", "[fit]"]
    lines.append("alpha_hat: " + " ".join(_fmt(float(a)) for a in fit.alpha_hat))
    lines.append(f"objective_at_min: {_fmt(float(fit.objective_at_min))}")
    lines.append(f"iterations: {fit.iterations}")
    lines.append(f"converged: {fit.converged}")
    lines.append("warm_start: " + " ".join(_fmt(float(a)) for a in fit.warm_start))
    if fit.note:
        lines.append(f"note: {fit.note}")
    if metrics:
        lines.append("")
        lines.append("[metrics]")
        for name, value in metrics.items():
            lines.append(f"{name}: {_fmt(value)}")
    if config:
        lines.append("")
        lines.append("[config]")
        for name, value in sorted(config.items()):
            lines.append(f"{name}: {_fmt(value)}")
    lines.append("")
    lines.append("[table]")
    lines.append("name,value")
    for name, value in table.items():
        lines.append(f"{name},{_fmt(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_fit_report(path) -> dict:
    """Parse the [table] section of a fit report back into a dict."""
    values = {}
    in_table = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line == "[table]":
                in_table = True
                continue
            if not in_table or not line or line == "name,value":
                continue
            name, _, raw = line.partition(",")
            if raw in ("True", "False"):
                values[name] = raw == "True"
                continue
            try:
                values[name] = float(raw)
            except ValueError:
                values[name] = raw
    if not values:
        raise ValueError(f"no [table] section found in {path}")
    return values


def report_alpha(table: dict) -> np.ndarray:
    """Extract the fitted parameter vector from a parsed report table."""
    coords = []
    i = 1
    while f"alpha_hat_{i}" in table:
        coords.append(float(table[f"alpha_hat_{i}"]))
        i += 1
    if not coords:
        raise ValueError("report table holds no alpha_hat entries")
    return np.asarray(coords)


# -- surface files -------------------------------------------------------------


def write_surface(path, grid: SurfaceGrid) -> None:
    """Write a 2-d objective surface: axes, argmin and the value grid, one row
    per line, every number with 17 significant digits so it reads back exactly."""
    lines = ["# objective surface"]
    for name, axis in (("axis1", grid.axis1), ("axis2", grid.axis2)):
        i, lo, hi, n = axis
        lines.append(f"{name}: {i} {_fmt(float(lo))} {_fmt(float(hi))} {n}")
    lines.append(f"argmin: {grid.argmin[0]} {grid.argmin[1]}")
    lines.append(
        "alpha_at_min: " + " ".join(_fmt(float(a)) for a in grid.alpha_at_min)
    )
    lines.append("values:")
    for row in grid.values:
        lines.append(" ".join(_fmt(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- run manifests --------------------------------------------------------------


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record of one CLI run.

    ``started_utc`` and ``wall_seconds`` are informational; all other
    fields (and the files whose digests appear in ``outputs``) are exact
    functions of the inputs and seeds.
    """

    command: str
    arguments: Dict[str, object]
    seed: Optional[int]
    package_version: str
    started_utc: str
    wall_seconds: float
    outputs: Dict[str, str] = dataclass_field(default_factory=dict)

    def add_output(self, path) -> None:
        self.outputs[os.path.basename(str(path))] = file_sha256(path)

    def write(self, path) -> None:
        _write_json(asdict(self), path)

    @staticmethod
    def load(path) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return RunManifest(**raw)


# -- bundled synthetic analog ---------------------------------------------------

def worldbank_analog_schema() -> TabularSchema:
    """Schema of the bundled analog CSV, read from its bundled JSON file."""
    return TabularSchema.from_json(
        resources.files("eivmix").joinpath("data/worldbank_analog_schema.json")
    )


def worldbank_analog_path():
    """Filesystem path of the bundled analog CSV."""
    return resources.files("eivmix").joinpath("data/worldbank_analog.csv")
