"""Command line interface.

Four subcommands: ``fit`` (model fitting on a CSV file), ``simulate``
(replicated scenario studies), ``surface`` (2-d objective slices), and
``eval`` (apply a saved fit to another file). Every run that writes files
also writes a JSON run manifest. With identical arguments and seeds, all
outputs are bit-identical except for the timestamp and timing fields.

Exit codes: 0 success, 2 usage error, 3 data or configuration error,
4 optimizer did not converge.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .data_io import (
    RunManifest,
    TabularSchema,
    _fmt,
    paired_subset,
    read_csv,
    read_fit_report,
    report_alpha,
    split_indices,
    write_fit_report,
    write_surface,
)
from .dataset import as_grouped, partition_by_key
from .metrics import r_squared_delta
from .models import AFFINE_1D, AFFINE_KD, ParametricModel
from .objective import MONTE_CARLO, QUADRATURE, IntegrationConfig
from .optimize import (
    GAUSS_LINE,
    GAUSS_PLANE,
    GENERAL,
    INTERVAL_LINE,
    OBJECTIVE_CHOICES,
    OptimizerConfig,
    fit as fit_dataset,
    objective_surface,
)
from .simulate import (
    GAUSSIAN_NOISE,
    SCENARIO_NAMES,
    UNIFORM_NOISE,
    generate_scenario,
    replicate,
    scenario_model,
    scenario_spec,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _manifest_args(args) -> dict:
    # paths under --out vary between runs; record only the basename
    raw = {k: v for k, v in vars(args).items() if k != "func"}
    if raw.get("out"):
        raw["out"] = os.path.basename(os.path.normpath(str(raw["out"])))
    return raw


def _new_manifest(command: str, args) -> RunManifest:
    return RunManifest(
        command=command,
        arguments=_manifest_args(args),
        seed=getattr(args, "seed", None),
        package_version=__version__,
        started_utc=_utc_now(),
        wall_seconds=0.0,
    )


def _integration_config(args) -> IntegrationConfig:
    return IntegrationConfig(
        method=args.method,
        mc_samples=args.mc_samples,
        grid_points_per_dim=args.grid_points,
        seed=args.seed,
    )


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        max_iters=args.max_iters, restarts=args.restarts, seed=args.seed
    )


def _resolve_objective(choice: str, model: ParametricModel, noise_kind: str) -> str:
    """The --objective choice; "auto" takes the closed form that matches the
    model and the noise, or the general objective where none does."""
    if choice != "auto":
        return choice
    if model.family not in (AFFINE_1D, AFFINE_KD):
        return GENERAL
    if noise_kind == UNIFORM_NOISE:
        return INTERVAL_LINE
    return GAUSS_LINE if model.input_dim == 1 else GAUSS_PLANE


def _finish(manifest: RunManifest, t0: float, outputs, path) -> None:
    """Record the output digests and the run time, then write the manifest."""
    for out in outputs:
        manifest.add_output(out)
    manifest.wall_seconds = time.perf_counter() - t0
    manifest.write(path)


def _add_common_numeric(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--objective",
        choices=["auto"] + list(OBJECTIVE_CHOICES),
        default="auto",
        help="objective variant (default: the one matching the data or scenario)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument(
        "--method",
        choices=[QUADRATURE, MONTE_CARLO],
        default=QUADRATURE,
        help="integration method for the general objective",
    )
    p.add_argument(
        "--mc-samples", type=int, default=2000, help="Monte Carlo draws per group"
    )
    p.add_argument(
        "--grid-points",
        type=int,
        default=None,
        help="quadrature points per input dimension (odd, default 201 or 61); "
        "every group keeps its own grid of points^k nodes, and the grid budget "
        "covers the whole dataset, so with 4 or more inputs use --method monte-carlo",
    )


def _add_optimizer(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-iters", type=int, default=2000, help="optimizer iteration cap"
    )
    p.add_argument(
        "--restarts", type=int, default=0, help="extra perturbed optimizer starts"
    )


def _cmd_fit(args) -> int:
    if args.group_size < 1:
        raise ValueError(f"--group-size must be >= 1, got {args.group_size}")
    if args.test_size != 0 and args.test_size < 2:
        raise ValueError("--test-size must be 0 or >= 2: the test R-squared needs two rows")
    t0 = time.perf_counter()
    manifest = _new_manifest("fit", args)
    schema = TabularSchema.from_json(args.schema)
    ingest = read_csv(args.data, schema)
    n = ingest.dataset.n_pairs
    train_idx, test_idx = split_indices(n, args.test_size, args.seed)
    train = paired_subset(ingest.dataset, train_idx)
    test = paired_subset(ingest.dataset, test_idx) if args.test_size else None

    if args.group_size > 1:
        if ingest.keys is None:
            raise ValueError("--group-size > 1 needs a key column in the schema")
        grouped = partition_by_key(train, ingest.keys[train_idx], args.group_size)
    else:
        grouped = as_grouped(train)

    k = ingest.dataset.input_dim
    model = ParametricModel.affine_1d() if k == 1 else ParametricModel.affine_kd(k)
    # read_csv attaches Gaussian error densities
    objective = _resolve_objective(args.objective, model, GAUSSIAN_NOISE)

    result = fit_dataset(
        grouped, model, objective, _integration_config(args), _optimizer_config(args)
    )

    scales = np.array([ingest.column_scales[c] for c in schema.input_columns])
    error_cov = scales**2
    slopes = result.alpha_hat[1:]
    metrics = {
        "r2_delta_train": r_squared_delta(
            train.xs, train.ys[:, 0], slopes, error_cov
        ),
        "n_train": train.n_pairs,
        "n_groups": grouped.n_groups,
        "n_dropped": ingest.n_dropped,
    }
    if test is not None:
        metrics["r2_delta_test"] = r_squared_delta(
            test.xs, test.ys[:, 0], slopes, error_cov
        )
        metrics["n_test"] = test.n_pairs
    config = {
        "objective": objective,
        "method": args.method,
        "group_size": args.group_size,
        "seed": args.seed,
        "data": os.path.basename(args.data),
    }
    for col, s in ingest.column_scales.items():
        config[f"scale[{col}]"] = s

    # the report stays byte-deterministic; the run time lives in the manifest
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.txt")
    write_fit_report(report_path, result, metrics=metrics, config=config)
    _finish(manifest, t0, [report_path], os.path.join(args.out, "manifest.json"))

    print("alpha_hat: " + " ".join(_fmt(a) for a in result.alpha_hat))
    print(f"objective_at_min: {_fmt(result.objective_at_min)}")
    print(f"r2_delta_train: {_fmt(metrics['r2_delta_train'])}")
    if test is not None:
        print(f"r2_delta_test: {_fmt(metrics['r2_delta_test'])}")
    print(f"converged: {result.converged}")
    if not result.converged:
        print("warning: optimizer did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    manifest = _new_manifest("simulate", args)
    overrides = {}
    if args.pairs is not None:
        overrides["L"] = args.pairs
    spec = scenario_spec(args.scenario, R=args.groups, **overrides)
    objective = _resolve_objective(args.objective, scenario_model(spec), spec.noise_kind)
    report = replicate(
        spec,
        args.reps,
        objective,
        _integration_config(args),
        _optimizer_config(args),
        master_seed=args.seed,
    )
    summary = report.summary

    os.makedirs(args.out, exist_ok=True)
    deltas_path = os.path.join(args.out, "deltas.csv")
    p = len(spec.alpha)
    with open(deltas_path, "w", encoding="utf-8") as fh:
        cols = ["rep"]
        cols += [f"alpha_hat_{i + 1}" for i in range(p)]
        cols += [f"delta_{i + 1}" for i in range(p)]
        cols += ["iterations", "converged"]
        fh.write(",".join(cols) + "\n")
        for r, f in enumerate(report.fits):
            row = [str(r)]
            row += [_fmt(a) for a in f.alpha_hat]
            row += [_fmt(d) for d in summary.deltas[r]]
            row += [str(f.iterations), str(f.converged)]
            fh.write(",".join(row) + "\n")

    summary_path = os.path.join(args.out, "summary.txt")
    lines = [
        "# replication summary",
        f"scenario: {spec.name}",
        f"groups: {spec.n_groups}",
        f"pairs: {spec.L}",
        f"reps: {report.n_reps}",
        f"failures: {len(report.failures)}",
    ]
    for i in range(p):
        lines.append(f"[coordinate {i + 1}]")
        lines.append(f"median_delta: {_fmt(summary.median[i])}")
        lines.append(f"q1: {_fmt(summary.q1[i])}")
        lines.append(f"q3: {_fmt(summary.q3[i])}")
        lines.append(f"iqr: {_fmt(summary.iqr[i])}")
        lines.append(f"whisker_lo: {_fmt(summary.whisker_lo[i])}")
        lines.append(f"whisker_hi: {_fmt(summary.whisker_hi[i])}")
        lines.append(f"n_outliers: {len(summary.outliers[i])}")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    _finish(
        manifest, t0, [deltas_path, summary_path], os.path.join(args.out, "manifest.json")
    )

    for i in range(p):
        print(
            f"coordinate {i + 1}: median_delta {_fmt(summary.median[i])} "
            f"iqr {_fmt(summary.iqr[i])}"
        )
    print(f"failures: {len(report.failures)}")
    return EXIT_OK


def _parse_range(text: str, name: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"{name} must look like lo:hi:n with an integer n, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} bounds must be finite, got {text!r}")
    return lo, hi, n


def _cmd_surface(args) -> int:
    t0 = time.perf_counter()
    manifest = _new_manifest("surface", args)
    spec = scenario_spec(args.scenario, R=args.groups)
    model = scenario_model(spec)
    objective = _resolve_objective(args.objective, model, spec.noise_kind)

    axes = [int(v) for v in args.axes.split(",")]
    if len(axes) != 2 or len(set(axes)) != 2:
        raise ValueError("--axes needs two distinct 1-based indices, e.g. 1,2")
    if not all(1 <= a <= model.param_dim for a in axes):
        raise ValueError(f"--axes indices must be in 1..{model.param_dim}")
    lo1, hi1, n1 = _parse_range(args.range1, "--range1")
    lo2, hi2, n2 = _parse_range(args.range2, "--range2")
    fixed = (
        np.array([float(v) for v in args.fixed.split(",")])
        if args.fixed
        else np.asarray(spec.alpha, dtype=float)
    )
    if fixed.shape != (model.param_dim,):
        raise ValueError(f"--fixed needs {model.param_dim} comma-separated values")

    rng = np.random.default_rng(args.seed)
    ds = generate_scenario(spec, rng)
    grid = objective_surface(
        ds,
        model,
        objective,
        _integration_config(args),
        axis1=(axes[0] - 1, lo1, hi1, n1),
        axis2=(axes[1] - 1, lo2, hi2, n2),
        fixed=fixed,
    )
    write_surface(args.out, grid)
    _finish(manifest, t0, [args.out], args.out + ".manifest.json")

    print(f"argmin: {grid.argmin[0]} {grid.argmin[1]}")
    print("alpha_at_min: " + " ".join(_fmt(a) for a in grid.alpha_at_min))
    print(f"value_at_min: {_fmt(grid.values[grid.argmin])}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    t0 = time.perf_counter()
    table = read_fit_report(args.report)
    alpha = report_alpha(table)
    schema = TabularSchema.from_json(args.schema)
    ingest = read_csv(args.data, schema)
    k = ingest.dataset.input_dim
    if alpha.shape[0] != k + 1:
        raise ValueError(
            f"report has {alpha.shape[0]} parameters; data needs {k + 1}"
        )
    scales = np.array([ingest.column_scales[c] for c in schema.input_columns])
    r2 = r_squared_delta(
        ingest.dataset.xs, ingest.dataset.ys[:, 0], alpha[1:], scales**2
    )
    lines = [
        f"n_rows: {ingest.dataset.n_pairs}",
        "alpha: " + " ".join(_fmt(a) for a in alpha),
        f"r_squared_delta: {_fmt(r2)}",
    ]
    print("\n".join(lines))
    if args.out:
        manifest = _new_manifest("eval", args)
        os.makedirs(args.out, exist_ok=True)
        eval_path = os.path.join(args.out, "eval.txt")
        with open(eval_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        _finish(manifest, t0, [eval_path], os.path.join(args.out, "manifest.json"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eivmix",
        description="Errors-in-variables model fitting for grouped, partially "
        "unpaired data.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV file")
    p_fit.add_argument("--data", required=True, help="CSV file")
    p_fit.add_argument("--schema", required=True, help="schema JSON file")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument(
        "--group-size",
        type=int,
        default=1,
        help="rows per group when sorting by the key column (default 1: paired)",
    )
    p_fit.add_argument(
        "--test-size",
        type=int,
        default=20,
        help="rows held out for evaluation (default 20)",
    )
    _add_common_numeric(p_fit)
    _add_optimizer(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="replicated synthetic study")
    p_sim.add_argument("--scenario", choices=SCENARIO_NAMES, required=True)
    p_sim.add_argument(
        "--groups", type=int, default=None, help="number of groups (default: paired)"
    )
    p_sim.add_argument("--reps", type=int, default=20, help="replications")
    p_sim.add_argument("--pairs", type=int, default=None, help="override sample size")
    p_sim.add_argument("--out", required=True, help="output directory")
    _add_common_numeric(p_sim)
    _add_optimizer(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_surf = sub.add_parser("surface", help="objective values on a parameter grid")
    p_surf.add_argument("--scenario", choices=SCENARIO_NAMES, required=True)
    p_surf.add_argument("--groups", type=int, default=None)
    p_surf.add_argument("--axes", default="1,2", help="two 1-based parameter indices")
    p_surf.add_argument(
        "--range1",
        default="-1:1:41",
        help="lo:hi:n for the first axis (write --range1=-1:1:41 when lo < 0)",
    )
    p_surf.add_argument(
        "--range2",
        default="-0.5:1.5:41",
        help="lo:hi:n for the second axis",
    )
    p_surf.add_argument(
        "--fixed", default=None, help="comma-separated values for the other parameters"
    )
    p_surf.add_argument("--out", required=True, help="output file")
    _add_common_numeric(p_surf)
    p_surf.set_defaults(func=_cmd_surface)

    p_eval = sub.add_parser("eval", help="apply a saved fit to a CSV file")
    p_eval.add_argument("--report", required=True, help="fit report file")
    p_eval.add_argument("--data", required=True, help="CSV file")
    p_eval.add_argument("--schema", required=True, help="schema JSON file")
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
