"""Span tracing of eivmix's public layer boundaries, installed from outside.

The benchmark does not edit the package. Instead, ``Tracer.install`` wraps
the public functions and methods listed in ``LAYERS`` and rebinds every
reference to them in the loaded ``eivmix`` modules, so calls made from inside
the package (``cli.generate_scenario``, ``objective.model_eval_batch``, ...)
are recorded too. Only public names are wrapped, so refactors of private
helpers cannot break the trace; a public name that no longer exists is
listed in ``Tracer.missing`` and the metrics that need it are left out.

Each call records a span (name, start, end, parent, op id, info) in memory.
A span's self time is its duration minus the durations of its child spans;
spans nest strictly because the workload runs on one thread.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc

GENERAL_EVAL = "objective.general.evaluate"
PLANE_EVAL = "objective.gauss_plane.evaluate"
INTERVAL_EVAL = "objective.interval_line.evaluate"
EVALUATES = (GENERAL_EVAL, PLANE_EVAL, INTERVAL_EVAL)
COMPILE = "objective.compile"
NELDER_MEAD = "optimize.nelder_mead"
FIT = "optimize.fit"
WRITE = "data_io.write"
METRICS = "metrics"


def _rows(result):
    return {"rows": int(result.shape[0])}


def _cross_rows(result):
    return {"rows": int(result[0].shape[0])}


def _nonfinite(result):
    return {"nonfinite": not math.isfinite(result.value)}


def _descent(result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _grid_nodes(args):
    """Quadrature nodes a CompiledObjective will integrate over, computed from
    the dataset shape and IntegrationConfig: continuous-input groups times
    points_for_dim(k) ** k."""
    from eivmix.densities import POINT_MASS
    from eivmix.objective import QUADRATURE

    ds, cfg = args[1], args[3]
    if cfg.method != QUADRATURE:
        return {"grid_nodes": 0}
    k = ds.input_dim
    continuous = sum(
        1 for g in ds.groups if any(d.kind != POINT_MASS for d in g.input_densities)
    )
    return {"grid_nodes": continuous * cfg.points_for_dim(k) ** k}


# (module, public attribute path, span name, result hook, argument hook).
# Spans that feed no metric of their own (data_io.split, dataset.grouping,
# data_io.read_fit_report) keep their time out of their caller's self time.
LAYERS = (
    ("eivmix.cli", "main", "cli.main", None, None),
    ("eivmix.data_io", "read_csv", "data_io.read_csv", None, None),
    ("eivmix.data_io", "read_fit_report", "data_io.read_fit_report", None, None),
    ("eivmix.data_io", "split_indices", "data_io.split", None, None),
    ("eivmix.data_io", "paired_subset", "data_io.split", None, None),
    ("eivmix.data_io", "write_fit_report", WRITE, None, None),
    ("eivmix.data_io", "write_surface", WRITE, None, None),
    ("eivmix.data_io", "RunManifest.write", WRITE, None, None),
    ("eivmix.simulate", "generate_scenario", "simulate.generate_scenario", None, None),
    ("eivmix.simulate", "replicate", "simulate.replicate", None, None),
    ("eivmix.dataset", "as_grouped", "dataset.grouping", None, None),
    ("eivmix.dataset", "partition_by_key", "dataset.grouping", None, None),
    ("eivmix.dataset", "cross_pair_expansion", "dataset.cross_pair_expansion", _cross_rows, None),
    ("eivmix.baselines", "ols_general", "baselines.ols_general", None, None),
    ("eivmix.optimize", "fit", FIT, None, None),
    ("eivmix.optimize", "nelder_mead", NELDER_MEAD, _descent, None),
    ("eivmix.optimize", "objective_surface", "optimize.objective_surface", None, None),
    ("eivmix.objective", "CompiledObjective.__init__", COMPILE, None, _grid_nodes),
    ("eivmix.objective", "CompiledGaussianPlane.__init__", COMPILE, None, None),
    ("eivmix.objective", "CompiledIntervalLine.__init__", COMPILE, None, None),
    ("eivmix.objective", "CompiledObjective.evaluate", GENERAL_EVAL, _nonfinite, None),
    ("eivmix.objective", "CompiledGaussianPlane.evaluate", PLANE_EVAL, None, None),
    ("eivmix.objective", "CompiledIntervalLine.evaluate", INTERVAL_EVAL, None, None),
    ("eivmix.models", "model_eval_batch", "models.model_eval_batch", _rows, None),
    ("eivmix.metrics", "residual_summary", METRICS, None, None),
    ("eivmix.metrics", "r_squared_delta", METRICS, None, None),
)

# span fields
NAME, START, END, PARENT, OP, INFO = range(6)


def resolve(module_name, path):
    """Return (owner, attribute, original) for a dotted public name."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, getattr(owner, attr)


def rebind(owner, attr, original, replacement):
    """Point every reference to ``original`` at ``replacement``.

    A module-level function is rebound in every loaded eivmix module that
    imported it, under whatever alias; a method is replaced on its class.
    Returns the (owner, attribute, original) triples needed to undo it.
    """
    undo = []
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return [(owner, attr, original)]
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "eivmix" or name.startswith("eivmix.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans for the calls listed in LAYERS while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []
        self._stack = []
        self._undo = []
        self._sample_alloc = False

    def begin_op(self, op_id):
        self.op = op_id
        # the first general-objective evaluation of each op runs under
        # tracemalloc; that span is left out of the self-time figures
        self._sample_alloc = True

    def install(self):
        for module_name, path, span_name, on_result, on_args in LAYERS:
            try:
                owner, attr, original = resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(span_name, original, on_result, on_args)
            self._undo += rebind(owner, attr, original, wrapper)

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def missing_spans(self):
        names = set()
        for module_name, path, span_name, _, _ in LAYERS:
            if f"{module_name}.{path}" in self.missing:
                names.add(span_name)
        return names

    def _wrap(self, span_name, fn, on_result, on_args):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        sampled = span_name == GENERAL_EVAL

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [span_name, 0.0, 0.0, parent, self.op, None]
            spans.append(span)
            stack.append(index)
            alloc = sampled and self._sample_alloc
            if alloc:
                self._sample_alloc = False
                tracemalloc.start()
            span[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            info = {}
            if alloc:
                info["peak_alloc"] = peak
            if on_result is not None:
                info.update(on_result(result))
            if on_args is not None:
                info.update(on_args(args))
            span[INFO] = info or None
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _durations(spans):
    """(duration, self time) of every span."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans, n_ops, count_ops, missing):
    """Per-layer metrics from the spans of ``n_ops`` traced ops.

    Times are means over every traced op. Counts ("exact") use only the
    first ``count_ops`` ops, whose inputs are fixed by the seed, so they
    repeat exactly from run to run. Metrics whose spans are missing at this
    commit are left out; layers that did not run report 0.
    """
    dur, self_t = _durations(spans)

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def ids(name, counted=False):
        out = by_name.get(name, [])
        return [i for i in out if spans[i][OP] < count_ops] if counted else out

    def info(i, key, default=0):
        return (spans[i][INFO] or {}).get(key, default)

    def per_call_ms(names, self_time=False):
        calls = [i for n in names for i in ids(n)]
        src = self_t if self_time else dur
        return 1e3 * _mean([src[i] for i in calls])

    gen = ids(GENERAL_EVAL)
    fits = ids(FIT)
    nm = ids(NELDER_MEAD)
    nm_counted = ids(NELDER_MEAD, counted=True)
    nm_set = set(nm)
    under_nm = [i for n in EVALUATES for i in ids(n) if spans[i][PARENT] in nm_set]
    under_nm_counted = [i for i in under_nm if spans[i][OP] < count_ops]
    sampled = [i for i in gen if "peak_alloc" in (spans[i][INFO] or {})]
    peaks = [info(i, "peak_alloc") for i in sampled]
    unsampled = sorted(set(gen) - set(sampled))

    table = [
        ("objective.general.eval_ms", "ms", [GENERAL_EVAL],
         lambda: 1e3 * _mean([self_t[i] for i in unsampled])),
        ("objective.general.evals", "count", [GENERAL_EVAL],
         lambda: len(ids(GENERAL_EVAL, True)) / count_ops),
        ("objective.general.nonfinite_evals", "ratio", [GENERAL_EVAL],
         lambda: sum(info(i, "nonfinite") for i in gen) / len(gen) if gen else 0.0),
        ("objective.general.peak_alloc_mb", "MB", [GENERAL_EVAL],
         lambda: statistics.median(peaks) / 1e6 if peaks else 0.0),
        ("objective.general.grid_nodes", "count", [COMPILE],
         lambda: sum(info(i, "grid_nodes") for i in ids(COMPILE, True)) / count_ops),
        ("objective.gauss_plane.eval_ms", "ms", [PLANE_EVAL],
         lambda: per_call_ms([PLANE_EVAL], self_time=True)),
        ("objective.interval_line.eval_ms", "ms", [INTERVAL_EVAL],
         lambda: per_call_ms([INTERVAL_EVAL], self_time=True)),
        ("objective.compile_ms", "ms", [COMPILE],
         lambda: 1e3 * sum(dur[i] for i in ids(COMPILE)) / n_ops),
        ("models.eval_batch_ms", "ms", ["models.model_eval_batch"],
         lambda: per_call_ms(["models.model_eval_batch"], self_time=True)),
        ("models.rows", "count", ["models.model_eval_batch"],
         lambda: sum(info(i, "rows") for i in ids("models.model_eval_batch", True)) / count_ops),
        ("optimize.iterations", "count", [NELDER_MEAD],
         lambda: _mean([info(i, "iterations") for i in nm_counted])),
        ("optimize.evals_per_fit", "count", [NELDER_MEAD, *EVALUATES],
         lambda: len(under_nm_counted) / len(nm_counted) if nm_counted else 0.0),
        ("optimize.self_us_per_eval", "us", [NELDER_MEAD, *EVALUATES],
         lambda: 1e6 * sum(self_t[i] for i in nm) / len(under_nm) if under_nm else 0.0),
        ("optimize.converged_fraction", "ratio", [NELDER_MEAD],
         lambda: _mean([float(info(i, "converged")) for i in nm])),
        ("baselines.warm_start_ms", "ms", ["baselines.ols_general", FIT],
         lambda: 1e3 * sum(self_t[i] for i in ids("baselines.ols_general")) / len(fits)
         if fits else 0.0),
        ("dataset.cross_pair_ms", "ms", ["dataset.cross_pair_expansion"],
         lambda: per_call_ms(["dataset.cross_pair_expansion"])),
        ("dataset.cross_pairs", "count", ["dataset.cross_pair_expansion"],
         lambda: sum(info(i, "rows") for i in ids("dataset.cross_pair_expansion", True))
         / count_ops),
        ("simulate.generate_ms", "ms", ["simulate.generate_scenario"],
         lambda: per_call_ms(["simulate.generate_scenario"])),
        ("simulate.replicate_self_ms", "ms", ["simulate.replicate"],
         lambda: per_call_ms(["simulate.replicate"], self_time=True)),
        ("data_io.read_csv_ms", "ms", ["data_io.read_csv"],
         lambda: per_call_ms(["data_io.read_csv"])),
        ("data_io.write_ms", "ms", [WRITE], lambda: per_call_ms([WRITE])),
        ("metrics.ms", "ms", [METRICS], lambda: per_call_ms([METRICS])),
        ("cli.self_ms", "ms", ["cli.main"], lambda: per_call_ms(["cli.main"], self_time=True)),
    ]
    out = {}
    for name, unit, needs, compute in table:
        if not missing.intersection(needs):
            out[name] = {"value": float(compute()), "unit": unit}
    return out


def layer_shares(spans, op_seconds):
    """Self time per span name, and inclusive time of each objective's
    evaluate, as shares of ``op_seconds``, the traced ops' measured time."""
    dur, self_t = _durations(spans)
    self_share, inclusive = {}, {}
    for i, s in enumerate(spans):
        self_share[s[NAME]] = self_share.get(s[NAME], 0.0) + self_t[i] / op_seconds
        if s[NAME] in EVALUATES:
            inclusive[s[NAME]] = inclusive.get(s[NAME], 0.0) + dur[i] / op_seconds
    return self_share, inclusive
