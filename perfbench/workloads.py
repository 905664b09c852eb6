"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``build``), runs one op at a
time (``op``), and checks an op's output against an oracle after the timed
loop (``check``, which returns None or the reason the op failed). eivmix and
numpy are imported inside functions so that set-up time includes the import.

The oracles below are written here, independently of eivmix's objective
code, so that a defect in the shared quadrature or closed-form code cannot
also hide in the value it is checked against.

Op inputs come from a fixed cycle drawn from the seed, so the same seed
replays the same ops in the same order, and op i is the same input in the
timed and the traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

# relative tolerance |a - b| / (1 + |b|), as in the acceptance suite
FINE_GRID_TOL = 1e-6  # criterion 1, line
PLANE_TOL = 1e-4  # criterion 1, plane
CLOSED_FORM_TOL = 1e-9  # two implementations of one formula: rounding only
# a converged fit's estimate is a minimum: no step of MIN_STEP from it along
# one coordinate, and not the truth, gives a value lower by more than
# MIN_TOL (relative, as rel_err). Nelder-Mead stops up to about 3e-8 above
# the minimum of the non-smooth interval objective; an estimate shifted by
# 1e-2 sits about 5e-5 above it.
MIN_STEP = 1e-4
MIN_TOL = 1e-6

SQRT_2PI = math.sqrt(2.0 * math.pi)
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def rel_err(a, b):
    return abs(a - b) / (1.0 + abs(b))


def reference_nll_polynomial(groups, coeffs, points=801, width=10.0):
    """General objective for scalar data, Gaussian errors and a polynomial
    model: each input component's integral by composite Simpson over
    x +- width * sigma, in place of eivmix's shared per-group grid.

    ``groups`` holds (x, sigma_x, y, sigma_y) arrays per group.
    """
    import numpy as np

    t = np.linspace(-width, width, points)
    w = np.ones(points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (t[1] - t[0]) / 3.0 * np.exp(-0.5 * t * t) / SQRT_2PI
    total = 0.0
    for x, sx, y, sy in groups:
        s = x[:, None] + sx[:, None] * t  # (H, points)
        z = (y - np.polynomial.polynomial.polyval(s, coeffs)[:, :, None]) / sy
        f_out = np.mean(np.exp(-0.5 * z * z) / (sy * SQRT_2PI), axis=2)
        total -= math.log(np.mean(f_out @ w))
    return total


def reference_nll_gauss_affine(groups, eta, eps, alpha):
    """Closed-form Gaussian affine objective, without the 1/2 log(2 pi) per
    group that eivmix's closed forms also omit. ``groups`` holds (x, y)
    arrays per group, x of shape (H, k)."""
    import numpy as np

    alpha = np.asarray(alpha, dtype=float)
    slopes = alpha[1:]
    v = eps**2 + float(np.sum((slopes * np.asarray(eta)) ** 2))
    total = 0.0
    for x, y in groups:
        e = -(((alpha[0] + x @ slopes)[:, None] - y[None, :]) ** 2) / (2.0 * v)
        top = e.max()
        total -= top + math.log(np.mean(np.exp(e - top))) - 0.5 * math.log(v)
    return total


def reference_nll_interval_line(groups, alpha):
    """Closed-form objective for the line under uniform-box errors.

    ``groups`` holds (x, v, y, w) arrays per group: input centres and
    half-widths, output centres and half-widths. A pair's likelihood is the
    length of the input interval whose image under the line lands in the
    output interval, divided by (2v)(2w); a group's is the mean over its
    pairs. Needs a nonzero slope.
    """
    import numpy as np

    a0, a1 = float(alpha[0]), float(alpha[1])
    total = 0.0
    for x, v, y, w in groups:
        # preimage of each output interval under s -> a0 + a1 s
        p, q = (y - w - a0) / a1, (y + w - a0) / a1
        lo = np.maximum((x - v)[:, None], np.minimum(p, q)[None, :])
        hi = np.minimum((x + v)[:, None], np.maximum(p, q)[None, :])
        lik = np.maximum(hi - lo, 0.0) / (4.0 * v[:, None] * w[None, :])
        total -= math.log(np.mean(lik))
    return total


def reference_r_squared(x, y, slopes, variances):
    """Errors-in-variables R-squared with a diagonal input-error covariance."""
    import numpy as np

    xc = x - x.mean(axis=0)
    explained = slopes @ (xc.T @ xc / x.shape[0]) @ slopes
    return min(explained / (np.var(y) + np.sum(slopes**2 * variances)), 1.0)


def _scales(densities):
    import numpy as np

    return np.array([d.scale[0] for d in densities])


class FitCubicGeneral:
    """One general-objective fit of the cubic scenario at R=200."""

    name = "fit-cubic-general"
    # ops whose counts are reported as exact per-op figures
    count_ops = 6
    pool_size = 32
    # (module, method, labels the check's reason must name per defect kind)
    perturb = (("eivmix.objective", "CompiledObjective.evaluate",
                {"value": (), "argmin": ()}),)

    def build(self, seed, workdir):
        import numpy as np
        from eivmix import optimize
        from eivmix.objective import IntegrationConfig
        from eivmix.optimize import OptimizerConfig
        from eivmix.simulate import generate_scenario, scenario_model, scenario_spec

        self.optimize = optimize
        self.spec = scenario_spec("cubic", R=200)
        self.model = scenario_model(self.spec)
        self.int_cfg = IntegrationConfig()
        self.opt_cfg = OptimizerConfig()
        self.pool = [
            generate_scenario(self.spec, np.random.default_rng((seed, j)))
            for j in range(self.pool_size)
        ]

    def op(self, i):
        ds = self.pool[i % self.pool_size]
        return self.optimize.fit(ds, self.model, self.optimize.GENERAL, self.int_cfg, self.opt_cfg)

    def check(self, i, result):
        from eivmix.objective import nll_general

        if not result.converged:
            return "fit did not converge"
        ds = self.pool[i % self.pool_size]
        groups = [
            (g.inputs[:, 0], _scales(g.input_densities), g.outputs[:, 0],
             _scales(g.output_densities))
            for g in ds.groups
        ]
        oracle = reference_nll_polynomial(groups, result.alpha_hat)
        err = rel_err(result.objective_at_min, oracle)
        if not err <= FINE_GRID_TOL:
            return f"objective_at_min off the fine-grid value by {err:.2e}"
        at_truth = nll_general(ds, self.model, self.int_cfg, self.spec.alpha).value
        if not result.objective_at_min <= at_truth:
            return f"objective_at_min {result.objective_at_min} above the truth's {at_truth}"
        return None


class SurfacePlaneGeneral:
    """One 2x2 general-objective surface of the plane scenario at R=4.

    2x2 is the smallest surface ``objective_surface`` accepts, so an op is
    four evaluations, about 1.7 s, and a 30 s run holds about 20 ops.
    """

    name = "surface-plane-general"
    count_ops = 4
    pool_size = 4
    # a box near the truth (0, 0.2, 0.4): every value finite, grid not truncated
    axis1 = (1, 0.1, 0.3, 2)
    axis2 = (2, 0.3, 0.5, 2)
    perturb = FitCubicGeneral.perturb

    def build(self, seed, workdir):
        import numpy as np
        from eivmix import optimize
        from eivmix.objective import IntegrationConfig
        from eivmix.simulate import generate_scenario, scenario_model, scenario_spec

        self.optimize = optimize
        self.spec = scenario_spec("plane", R=4)
        self.model = scenario_model(self.spec)
        self.int_cfg = IntegrationConfig()
        self.fixed = np.asarray(self.spec.alpha, dtype=float)
        self.pool = [
            generate_scenario(self.spec, np.random.default_rng((seed, j)))
            for j in range(self.pool_size)
        ]

    def op(self, i):
        return self.optimize.objective_surface(
            self.pool[i % self.pool_size],
            self.model,
            self.optimize.GENERAL,
            self.int_cfg,
            self.axis1,
            self.axis2,
            self.fixed,
        )

    def check(self, i, grid):
        import numpy as np

        ds = self.pool[i % self.pool_size]
        groups = [(g.inputs, g.outputs[:, 0]) for g in ds.groups]
        v1 = np.linspace(*self.axis1[1:])
        v2 = np.linspace(*self.axis2[1:])
        alpha = self.fixed.copy()
        worst = 0.0
        for r, a in enumerate(v1):
            for c, b in enumerate(v2):
                alpha[self.axis1[0]], alpha[self.axis2[0]] = a, b
                closed = reference_nll_gauss_affine(
                    groups, self.spec.sigma_eta, self.spec.sigma_eps, alpha
                )
                closed += len(groups) * HALF_LOG_2PI
                worst = max(worst, rel_err(grid.values[r, c], closed))
        if not worst <= PLANE_TOL:
            return f"surface off the closed form by {worst:.2e}"
        return None


# points per axis of the interval-line surface
SURFACE_D_POINTS = 11


def _parse(stdout):
    """'key: value' lines of a CLI command's standard output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


class CliClosedForm:
    """One cycle of seven in-process ``eivmix`` commands.

    The op is the whole cycle, not one command: the commands' latencies
    differ by up to 40x, and the median of such a mix sits in the gap between
    two commands, where it jumps when the host slows down.
    """

    name = "cli-closed-form"
    count_ops = 4
    n_cycles = 128
    test_size = 20
    group_size = 4
    groups = 3
    labels = ("fit", "fit-grouped", "eval", "simulate-A", "simulate-D", "surface-A",
              "surface-D")
    perturb = (
        ("eivmix.objective", "CompiledGaussianPlane.evaluate",
         {"value": ("fit:", "fit-grouped:", "surface-A:"),
          "argmin": ("fit:", "fit-grouped:", "simulate-A:", "surface-A:")}),
        ("eivmix.objective", "CompiledIntervalLine.evaluate",
         {"value": ("surface-D:",), "argmin": ("simulate-D:", "surface-D:")}),
    )

    def build(self, seed, workdir):
        import numpy as np
        from eivmix import cli
        from eivmix.data_io import worldbank_analog_path, worldbank_analog_schema

        self.cli = cli
        self.csv = str(worldbank_analog_path())
        self.schema = worldbank_analog_schema()
        self.schema_path = os.path.join(workdir, "schema.json")
        self.schema.to_json(self.schema_path)
        # each cycle passes its own --seed, so cycles differ in split and draws
        draws = np.random.default_rng(seed).integers(0, 2**31 - 1, self.n_cycles)
        self.seeds = [int(s) for s in draws]
        self.dirs = []
        for c in range(self.n_cycles):
            d = os.path.join(workdir, f"cycle{c:03d}")
            os.makedirs(d, exist_ok=True)
            self.dirs.append(d)
        self.argv = [self._cycle(c) for c in range(self.n_cycles)]
        self.checks = (self._check_fit, self._check_fit_grouped, self._check_eval,
                       self._check_simulate_a, self._check_simulate_d,
                       self._check_surface_a, self._check_surface_d)
        self._ingest = None

    def _cycle(self, c):
        d, s = self.dirs[c], str(self.seeds[c])
        data = ["--data", self.csv, "--schema", self.schema_path]
        fit = ["fit", *data, "--test-size", str(self.test_size), "--seed", s]
        sim = ["--groups", str(self.groups), "--seed", s]
        box = ["--range1=-1:1:{n}", "--range2=-0.5:1.5:{n}"]
        return [
            fit + ["--out", os.path.join(d, "fit")],
            fit + ["--group-size", str(self.group_size), "--out", os.path.join(d, "fit-grouped")],
            ["eval", "--report", os.path.join(d, "fit", "report.txt"), *data,
             "--out", os.path.join(d, "eval")],
            ["simulate", "--scenario", "A", "--reps", "5", *sim,
             "--out", os.path.join(d, "sim-A")],
            ["simulate", "--scenario", "D", "--reps", "2", *sim,
             "--out", os.path.join(d, "sim-D")],
            ["surface", "--scenario", "A", *[b.format(n=31) for b in box], *sim,
             "--out", os.path.join(d, "surface-A.csv")],
            ["surface", "--scenario", "D", *[b.format(n=SURFACE_D_POINTS) for b in box], *sim,
             "--out", os.path.join(d, "surface-D.csv")],
        ]

    def op(self, i):
        outputs = []
        for argv in self.argv[i % self.n_cycles]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, i, outputs):
        """None, or every failing command's reason, each after its label."""
        c = i % self.n_cycles
        reasons = []
        for label, check, (code, stdout, stderr) in zip(self.labels, self.checks, outputs):
            reason = f"exit code {code}: {stderr.strip()}" if code else check(c, _parse(stdout))
            if reason is not None:
                reasons.append(f"{label}: {reason}")
        return "; ".join(reasons) or None

    def _data(self):
        from eivmix.data_io import read_csv

        if self._ingest is None:
            self._ingest = read_csv(self.csv, self.schema)
        return self._ingest

    def _check_fit(self, c, lines, group_size=1):
        import numpy as np
        from eivmix.data_io import paired_subset, split_indices
        from eivmix.dataset import as_grouped, partition_by_key

        if lines.get("converged") != "True":
            return "fit did not report converged: True"
        alpha = np.array([float(v) for v in lines["alpha_hat"].split()])
        printed = float(lines["objective_at_min"])
        ingest = self._data()
        train_idx, _ = split_indices(ingest.dataset.n_pairs, self.test_size, self.seeds[c])
        train = paired_subset(ingest.dataset, train_idx)
        if group_size > 1:
            grouped = partition_by_key(train, ingest.keys[train_idx], group_size)
        else:
            grouped = as_grouped(train)
        eta = [ingest.column_scales[col] for col in self.schema.input_columns]
        eps = ingest.column_scales[self.schema.output_column]
        groups = [(g.inputs, g.outputs[:, 0]) for g in grouped.groups]
        value = reference_nll_gauss_affine(groups, eta, eps, alpha)
        if not rel_err(printed, value) <= CLOSED_FORM_TOL:
            return f"printed objective {printed} != closed form {value}"
        return None

    def _check_fit_grouped(self, c, lines):
        return self._check_fit(c, lines, self.group_size)

    def _check_eval(self, c, lines):
        import numpy as np
        from eivmix.data_io import read_fit_report, report_alpha

        alpha = report_alpha(read_fit_report(os.path.join(self.dirs[c], "fit", "report.txt")))
        printed = np.array([float(v) for v in lines["alpha"].split()])
        if not np.array_equal(printed, alpha):
            return "eval printed another alpha than the report holds"
        ingest = self._data()
        scales = np.array([ingest.column_scales[col] for col in self.schema.input_columns])
        r2 = reference_r_squared(ingest.dataset.xs, ingest.dataset.ys[:, 0], alpha[1:], scales**2)
        if not rel_err(float(lines["r_squared_delta"]), r2) <= CLOSED_FORM_TOL:
            return f"printed r_squared_delta != reference value {r2}"
        return None

    def _oracle(self, scenario, rng_seed):
        """The scenario's spec, and its closed-form objective on the dataset
        that ``eivmix`` draws from ``rng_seed``, as a function of alpha."""
        import numpy as np
        from eivmix.simulate import generate_scenario, scenario_spec

        spec = scenario_spec(scenario, R=self.groups)
        ds = generate_scenario(spec, np.random.default_rng(rng_seed))
        if scenario == "A":
            groups = [(g.inputs, g.outputs[:, 0]) for g in ds.groups]
            return spec, lambda a: reference_nll_gauss_affine(
                groups, spec.sigma_eta, spec.sigma_eps, a)
        groups = [(g.inputs[:, 0], _scales(g.input_densities), g.outputs[:, 0],
                   _scales(g.output_densities)) for g in ds.groups]
        return spec, lambda a: reference_nll_interval_line(groups, a)

    def _check_simulate(self, c, lines, scenario):
        import numpy as np

        if lines.get("failures") != "0":
            return f"simulate reported failures: {lines.get('failures')}"
        path = os.path.join(self.dirs[c], f"sim-{scenario}", "deltas.csv")
        with open(path, encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        if not rows:
            return "deltas.csv has no replications"
        estimate = [j for j, col in enumerate(header) if col.startswith("alpha_hat_")]
        for row in rows:
            rep = int(row[0])
            if row[header.index("converged")] != "True":
                return f"replication {rep} did not converge"
            spec, nll = self._oracle(scenario, (self.seeds[c], rep))
            alpha = np.array([float(row[j]) for j in estimate])
            value = nll(alpha)
            others = [np.asarray(spec.alpha, dtype=float)]
            for j in range(alpha.size):
                for step in (-MIN_STEP, MIN_STEP):
                    others.append(alpha.copy())
                    others[-1][j] += step
            lowest = min(nll(a) for a in others)
            if not lowest >= value - MIN_TOL * (1.0 + abs(value)):
                return (f"replication {rep}: closed form is {value - lowest:.3g} "
                        f"lower near alpha_hat than at it")
        return None

    def _check_simulate_a(self, c, lines):
        return self._check_simulate(c, lines, "A")

    def _check_simulate_d(self, c, lines):
        return self._check_simulate(c, lines, "D")

    def _check_surface(self, c, lines, scenario):
        import numpy as np

        _, nll = self._oracle(scenario, self.seeds[c])
        value = nll(np.array([float(v) for v in lines["alpha_at_min"].split()]))
        printed = float(lines["value_at_min"])
        if not rel_err(printed, value) <= CLOSED_FORM_TOL:
            return f"printed value_at_min {printed} != closed form {value}"
        return None

    def _check_surface_a(self, c, lines):
        return self._check_surface(c, lines, "A")

    def _check_surface_d(self, c, lines):
        return self._check_surface(c, lines, "D")


WORKLOADS = {w.name: w for w in (FitCubicGeneral, SurfacePlaneGeneral, CliClosedForm)}
