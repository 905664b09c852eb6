"""Acceptance suite: one test per shipping criterion.

Every test computes its own evidence, appends one pass/fail line to the
terminal summary via record_criterion, and asserts. Statistical criteria use
fixed master seeds; the thresholds below are the contract, not measurements.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
from scipy.integrate import quad

from conftest import record_criterion
from oracles import density_eval, integrated_deming_penalty, quad_oracle_value, single_group

from eivmix import (
    ALL_PAIRS,
    GAUSS_LINE,
    GAUSS_LOG_NORM_PER_GROUP,
    GENERAL,
    GROUP_MEAN,
    INTERVAL_LINE,
    MONTE_CARLO,
    ErrorDensity,
    Group,
    GroupedDataset,
    IntegrationConfig,
    OptimizerConfig,
    PairedDataset,
    ParametricModel,
    as_grouped,
    deming_line,
    fit,
    generate_scenario,
    imputation_fit,
    likelihood_interval_line,
    nll_gaussian_hyperplane,
    nll_general,
    objective_surface,
    ols_general,
    r_squared_delta,
    replicate,
    scenario_model,
    scenario_spec,
)
from eivmix.cli import main as cli_main
from eivmix.data_io import worldbank_analog_path

LINE = ParametricModel.affine_1d()
MASTER = 20260816


def random_grouped_instance(rng, k, sigma_lo, sigma_hi, spread=0.3):
    """Random grouped dataset drawn from an affine truth with Gaussian errors.

    Model-consistent data keeps every group likelihood well inside double
    range, so exact and numeric evaluations can be compared at tight
    tolerances. Group members share a narrow band of hidden inputs, matching
    the exchangeability the mixture objective assumes.
    """
    n_groups = int(rng.integers(1, 5))
    sigma_eta = rng.uniform(sigma_lo, sigma_hi, k)
    sigma_eps = float(rng.uniform(sigma_lo, sigma_hi))
    alpha_true = rng.uniform(-1.0, 1.0, k + 1)
    din = ErrorDensity.gaussian(sigma_eta)
    dout = ErrorDensity.gaussian([sigma_eps])
    groups = []
    for _ in range(n_groups):
        h = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        center = rng.uniform(-1.5, 1.5, k)
        s_in = center + rng.uniform(-spread, spread, (h, k))
        s_out = center + rng.uniform(-spread, spread, (l, k))
        x = s_in + sigma_eta * rng.standard_normal((h, k))
        y = (
            alpha_true[0]
            + s_out @ alpha_true[1:]
            + sigma_eps * rng.standard_normal(l)
        )[:, None]
        groups.append(Group(x, y, (din,) * h, (dout,) * l))
    ds = GroupedDataset(tuple(groups), k, 1)
    return ds, alpha_true


def test_criterion_01_closed_form_matches_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER)
    # the wide window keeps the grid exact even when alpha sits off-truth
    fine = IntegrationConfig(grid_points_per_dim=2001, grid_halfwidth_sigmas=25.0)
    worst_line = 0.0
    for _ in range(20):
        ds, alpha_true = random_grouped_instance(rng, 1, 0.1, 0.5)
        alpha = alpha_true + rng.uniform(-0.5, 0.5, 2)
        closed = nll_gaussian_hyperplane(ds, alpha).value
        closed += ds.n_groups * GAUSS_LOG_NORM_PER_GROUP
        general = nll_general(ds, LINE, fine, alpha).value
        worst_line = max(worst_line, abs(closed - general) / (1.0 + abs(general)))
    plane = ParametricModel.affine_kd(2)
    grid61 = IntegrationConfig(grid_points_per_dim=61, grid_halfwidth_sigmas=10.0)
    worst_plane = 0.0
    for _ in range(20):
        ds, alpha_true = random_grouped_instance(rng, 2, 0.3, 0.4)
        alpha = alpha_true + rng.uniform(-0.05, 0.05, 3)
        closed = nll_gaussian_hyperplane(ds, alpha).value
        closed += ds.n_groups * GAUSS_LOG_NORM_PER_GROUP
        general = nll_general(ds, plane, grid61, alpha).value
        worst_plane = max(worst_plane, abs(closed - general) / (1.0 + abs(general)))
    dt = time.perf_counter() - t0
    ok = worst_line <= 1e-6 and worst_plane <= 1e-4 and dt < 30.0
    record_criterion(
        1,
        ok,
        f"closed vs numeric: line rel err {worst_line:.2e} (tol 1e-6), "
        f"plane rel err {worst_plane:.2e} (tol 1e-4), {dt:.1f}s (cap 30s)",
    )


def test_criterion_02_per_pair_and_mixture_forms_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER + 2)
    fine = IntegrationConfig(grid_points_per_dim=2001)
    worst = 0.0
    for _ in range(6):
        # per-point scales, so the two forms cannot share a shortcut
        alpha_true = rng.uniform(-1.0, 1.0, 2)
        n_groups = int(rng.integers(1, 4))
        groups = []
        for _ in range(n_groups):
            h = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            center = float(rng.uniform(-1.5, 1.5))
            scales_in = rng.uniform(0.15, 0.6, h)
            scales_out = rng.uniform(0.15, 0.6, l)
            s_in = center + rng.uniform(-0.3, 0.3, h)
            s_out = center + rng.uniform(-0.3, 0.3, l)
            x = (s_in + scales_in * rng.standard_normal(h))[:, None]
            y = (
                alpha_true[0]
                + alpha_true[1] * s_out
                + scales_out * rng.standard_normal(l)
            )[:, None]
            din = tuple(ErrorDensity.gaussian([s]) for s in scales_in)
            dout = tuple(ErrorDensity.gaussian([s]) for s in scales_out)
            groups.append(Group(x, y, din, dout))
        ds = GroupedDataset(tuple(groups), 1, 1)
        alpha = alpha_true + rng.uniform(-0.3, 0.3, 2)
        pair_sum = quad_oracle_value(ds, LINE, alpha)
        mixture = nll_general(ds, LINE, fine, alpha).value
        worst = max(worst, abs(pair_sum - mixture) / (1.0 + abs(mixture)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 10.0
    record_criterion(
        2,
        ok,
        f"per-pair double sum vs mixture integral: rel err {worst:.2e} "
        f"(tol 1e-8), {dt:.1f}s (cap 10s)",
    )


def test_criterion_03_point_mass_inputs_reduce_to_ols():
    t0 = time.perf_counter()
    icfg = IntegrationConfig()
    ocfg = OptimizerConfig()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng((MASTER, 3, seed))
        n = 25
        x = rng.uniform(-2.0, 2.0, n)
        y = 0.4 - 0.8 * x + 0.15 * rng.standard_normal(n)
        ds = as_grouped(
            PairedDataset.from_arrays(
                x[:, None],
                y[:, None],
                ErrorDensity.point_mass(1),
                ErrorDensity.gaussian([0.15]),
            )
        )
        fitted = fit(ds, LINE, GENERAL, icfg, ocfg).alpha_hat
        ls = ols_general(x[:, None], y[:, None], LINE).alpha_hat
        worst = max(worst, float(np.max(np.abs(fitted - ls))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 10.0
    record_criterion(
        3,
        ok,
        f"point-mass inputs vs ordinary least squares: max coef diff "
        f"{worst:.2e} (tol 1e-5), {dt:.1f}s (cap 10s)",
    )


def _deming_profile_oracle(x, y, sigma_eta, sigma_eps):
    """Global minimum of the weighted sum of squares by 1-d grid refinement.

    The intercept is profiled out exactly (it enters the numerator only),
    leaving a one-dimensional search over the slope.
    """
    dx = x - x.mean()
    dy = y - y.mean()

    def q(a2):
        a2 = np.asarray(a2)
        num = np.sum((dy - a2[..., None] * dx) ** 2, axis=-1)
        return num / (2.0 * (a2**2 * sigma_eta**2 + sigma_eps**2))

    lo, hi = -30.0, 30.0
    for _ in range(30):
        grid = np.linspace(lo, hi, 81)
        i = int(np.argmin(q(grid)))
        step = grid[1] - grid[0]
        lo, hi = grid[i] - 1.5 * step, grid[i] + 1.5 * step
    a2 = 0.5 * (lo + hi)
    return float(y.mean() - a2 * x.mean()), float(a2)


def test_criterion_04_deming_oracle_and_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER + 4)
    worst_fit = 0.0
    worst_ident = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 26))
        slope = rng.uniform(-2.0, 2.0)
        x = rng.uniform(-2.0, 2.0, n)
        y = rng.uniform(-0.5, 0.5) + slope * x + 0.3 * rng.standard_normal(n)
        sigma_eta = float(rng.uniform(0.1, 0.8))
        sigma_eps = float(rng.uniform(0.1, 0.8))
        a1, a2 = deming_line(x, y, sigma_eta, sigma_eps)
        o1, o2 = _deming_profile_oracle(x, y, sigma_eta, sigma_eps)
        worst_fit = max(
            worst_fit,
            abs(a1 - o1) / (1.0 + abs(o1)),
            abs(a2 - o2) / (1.0 + abs(o2)),
        )
        # closed-form objective = weighted sum of squares + volume penalty
        ds = as_grouped(
            PairedDataset.from_arrays(
                x[:, None],
                y[:, None],
                ErrorDensity.gaussian(sigma_eta),
                ErrorDensity.gaussian([sigma_eps]),
            )
        )
        for _ in range(10):
            alpha = rng.uniform(-1.5, 1.5, 2)
            v = alpha[1] ** 2 * sigma_eta**2 + sigma_eps**2
            ss = float(np.sum((alpha[0] + alpha[1] * x - y) ** 2) / (2.0 * v))
            pen = integrated_deming_penalty(alpha[1], sigma_eta, sigma_eps, n)
            nll = nll_gaussian_hyperplane(ds, alpha).value
            worst_ident = max(worst_ident, abs(nll - ss - pen))
    dt = time.perf_counter() - t0
    ok = worst_fit <= 1e-6 and worst_ident <= 1e-12 and dt < 20.0
    record_criterion(
        4,
        ok,
        f"closed-form slope vs grid-refined oracle: rel err {worst_fit:.2e} "
        f"(tol 1e-6); sum-of-squares + penalty identity {worst_ident:.2e} "
        f"(tol 1e-12), {dt:.1f}s (cap 20s)",
    )


def _interval_quad_value(xb, yb, v, w, alpha):
    """Single-pair uniform-box likelihood by adaptive quadrature on the kinks."""
    din = ErrorDensity.uniform(v)
    dout = ErrorDensity.uniform([w])

    def integrand(s):
        return density_eval(dout, [yb - alpha[0] - alpha[1] * s]) * density_eval(
            din, [xb - s]
        )

    pts = [xb - v, xb + v]
    if alpha[1] != 0.0:
        pts += [
            (yb - w - alpha[0]) / alpha[1],
            (yb + w - alpha[0]) / alpha[1],
        ]
    lo, hi = xb - v - 1.0, xb + v + 1.0
    pts = sorted(p for p in pts if lo < p < hi)
    val, _ = quad(integrand, lo, hi, points=pts, limit=400, epsabs=1e-14, epsrel=1e-12)
    if val <= 0.0:
        return math.inf
    return -math.log(val)


def test_criterion_05_interval_closed_form_is_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER + 5)
    worst = 0.0
    n_done = 0
    n_zero_overlap = 0
    n_flat = 0
    while n_done < 50:
        xb = float(rng.uniform(-2.0, 2.0))
        v = float(rng.uniform(0.1, 1.0))
        w = float(rng.uniform(0.1, 1.0))
        kind = n_done % 5
        if kind == 4:  # exact flat-line branch
            alpha = np.array([float(rng.uniform(-1.0, 1.0)), 0.0])
        else:
            alpha = np.array(
                [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-2.0, 2.0))]
            )
            if abs(alpha[1]) < 0.05:
                continue
        if kind == 3:  # zero overlap: push the output box far away
            yb = alpha[0] + alpha[1] * xb + (abs(alpha[1]) * v + w) + 3.0
        else:
            yb = float(alpha[0] + alpha[1] * xb + rng.uniform(-0.5, 0.5))
        ds = single_group([xb], [yb], ErrorDensity.uniform(v), ErrorDensity.uniform([w]))
        got = likelihood_interval_line(ds, alpha).value
        want = _interval_quad_value(xb, yb, v, w, alpha)
        if math.isinf(want) or math.isinf(got):
            if not (math.isinf(want) and math.isinf(got)):
                worst = math.inf
            n_zero_overlap += 1
        else:
            if abs(want) < 1e-3:  # avoid 0/0 in the relative error
                continue
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
        n_flat += int(alpha[1] == 0.0)
        n_done += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and n_zero_overlap >= 5 and n_flat >= 5 and dt < 10.0
    record_criterion(
        5,
        ok,
        f"interval closed form vs kink-aware quadrature: rel err {worst:.2e} "
        f"(tol 1e-9) over 50 pairs ({n_flat} flat, {n_zero_overlap} disjoint), "
        f"{dt:.1f}s (cap 10s)",
    )


def test_criterion_06_scenario_trends():
    t0 = time.perf_counter()
    icfg = IntegrationConfig()
    ocfg = OptimizerConfig()

    def slope_deltas(name, R, objective):
        spec = scenario_spec(name, R=R)
        rep = replicate(spec, 200, objective, icfg, ocfg, master_seed=MASTER)
        assert not rep.failures
        return rep.summary.deltas[:, 1]

    d_a300 = slope_deltas("A", 300, GAUSS_LINE)
    d_a3 = slope_deltas("A", 3, GAUSS_LINE)
    d_b300 = slope_deltas("B", 300, GAUSS_LINE)
    d_d300 = slope_deltas("D", 300, INTERVAL_LINE)

    iqr = lambda d: float(np.percentile(d, 75) - np.percentile(d, 25))  # noqa: E731
    med_abs_a300 = float(np.median(np.abs(d_a300)))
    bias_a3 = abs(float(np.median(d_a3)))
    bias_a300 = abs(float(np.median(d_a300)))
    ratio_b = iqr(d_b300) / iqr(d_a300)
    ratio_d = iqr(d_d300) / iqr(d_a300)
    dt = time.perf_counter() - t0
    ok = (
        med_abs_a300 <= 0.05
        and bias_a3 > bias_a300
        and ratio_b >= 1.5
        and 0.5 <= ratio_d <= 2.0
        and dt < 300.0
    )
    record_criterion(
        6,
        ok,
        f"trends over 200 reps: paired median |slope delta| {med_abs_a300:.4f} "
        f"(tol 0.05); bias {bias_a3:.4f} at 3 groups > {bias_a300:.4f} paired; "
        f"noisy/base spread ratio {ratio_b:.2f} (needs >= 1.5); interval/base "
        f"{ratio_d:.2f} (needs 0.5..2), {dt:.0f}s (cap 300s)",
    )


def test_criterion_07_unpaired_surface_plateau():
    t0 = time.perf_counter()
    icfg = IntegrationConfig()
    fractions = {}
    for R in (1, 300):
        spec = scenario_spec("A", R=R)
        ds = generate_scenario(spec, np.random.default_rng(MASTER))
        grid = objective_surface(
            ds,
            LINE,
            GAUSS_LINE,
            icfg,
            axis1=(0, -1.0, 1.0, 41),
            axis2=(1, -0.5, 1.5, 41),
            fixed=[0.0, 0.5],
        )
        # near-optimal: likelihood at least 1% of the maximum likelihood
        fractions[R] = float(np.mean(grid.values - grid.values.min() <= math.log(100.0)))
    dt = time.perf_counter() - t0
    ok = fractions[1] >= 0.05 and fractions[300] < 0.005 and dt < 120.0
    record_criterion(
        7,
        ok,
        f"surface cells with likelihood >= 1% of max: {fractions[1]:.1%} "
        f"unpaired (needs >= 5%) vs {fractions[300]:.2%} paired "
        f"(needs < 0.5%), {dt:.0f}s (cap 120s)",
    )


def test_criterion_08_cubic_beats_imputation():
    t0 = time.perf_counter()
    spec = scenario_spec("cubic", R=200)
    model = scenario_model(spec)
    truth = np.asarray(spec.alpha)
    icfg = IntegrationConfig()
    ocfg = OptimizerConfig()

    def rmse(a):
        return float(np.sqrt(np.mean((np.asarray(a) - truth) ** 2)))

    wins = 0
    for seed in range(20):
        ds = generate_scenario(spec, np.random.default_rng((777, seed)))
        mix = rmse(fit(ds, model, GENERAL, icfg, ocfg).alpha_hat)
        mean_imp = rmse(imputation_fit(ds, model, GROUP_MEAN).alpha_hat)
        pairs_imp = rmse(imputation_fit(ds, model, ALL_PAIRS).alpha_hat)
        wins += int(mix < mean_imp and mix < pairs_imp)
    dt = time.perf_counter() - t0
    ok = wins >= 16 and dt < 300.0
    record_criterion(
        8,
        ok,
        f"cubic mixture fit beats both imputations on {wins}/20 seeds "
        f"(needs >= 16), {dt:.0f}s (cap 300s)",
    )


def test_criterion_09_monte_carlo_estimator():
    t0 = time.perf_counter()
    spec = scenario_spec("C", R=6)
    model = scenario_model(spec)
    ds = generate_scenario(spec, np.random.default_rng(314159))
    alpha = np.asarray(spec.alpha)
    closed = (
        nll_gaussian_hyperplane(ds, alpha).value
        + ds.n_groups * GAUSS_LOG_NORM_PER_GROUP
    )
    draws = {}
    for p in (10_000, 40_000):
        draws[p] = np.array(
            [
                nll_general(
                    ds,
                    model,
                    IntegrationConfig(method=MONTE_CARLO, mc_samples=p, seed=s),
                    alpha,
                ).value
                for s in range(50)
            ]
        )
    se_small = float(draws[10_000].std(ddof=1))
    se_big = float(draws[40_000].std(ddof=1))
    hits = int(np.sum(np.abs(draws[10_000] - closed) <= 3.0 * se_small))
    shrink = se_small / se_big
    dt = time.perf_counter() - t0
    ok = hits >= 45 and 1.4 <= shrink <= 2.8 and dt < 120.0
    record_criterion(
        9,
        ok,
        f"Monte Carlo vs closed form: {hits}/50 within 3 SE (needs >= 45); "
        f"4x samples shrink SE by {shrink:.2f} (needs 1.4..2.8), "
        f"{dt:.0f}s (cap 120s)",
    )


def test_criterion_10_error_aware_r_squared(tmp_path):
    t0 = time.perf_counter()
    # zero error covariance reduces to classical R^2
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng((MASTER, 10, seed))
        n, k = 120, 3
        x = rng.uniform(-2.0, 2.0, (n, k))
        beta = rng.uniform(-1.0, 1.0, k)
        y = 0.3 + x @ beta + 0.4 * rng.standard_normal(n)
        design = np.column_stack([np.ones(n), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        classical = 1.0 - resid.var() / y.var()
        got = r_squared_delta(x, y, coef[1:], np.zeros(k))
        worst = max(worst, abs(got - classical))

    # grouped pipeline on the bundled analog table: more grouping, less fit
    schema_path = worldbank_analog_path().parent / "worldbank_analog_schema.json"
    r2_by_size = []
    for size in (1, 4, 8, 16):
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli_main(
                [
                    "fit",
                    "--data", str(worldbank_analog_path()),
                    "--schema", str(schema_path),
                    "--group-size", str(size),
                    "--test-size", "20",
                    "--seed", "0",
                    "--out", str(tmp_path / f"size{size}"),
                ]
            )
        assert rc == 0
        line = next(
            ln for ln in out.getvalue().splitlines() if ln.startswith("r2_delta_train:")
        )
        r2_by_size.append(float(line.split(":")[1]))
    decreasing = all(a > b for a, b in zip(r2_by_size, r2_by_size[1:]))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and decreasing and dt < 180.0
    chain = " > ".join(f"{r:.3f}" for r in r2_by_size)
    record_criterion(
        10,
        ok,
        f"classical equality diff {worst:.2e} (tol 1e-10); train fit quality "
        f"decreases with group size: {chain}, {dt:.0f}s (cap 180s)",
    )


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def run(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli_main(argv)
        assert rc == 0, f"{argv} -> {rc}"
        return out.getvalue()

    def manifest_core(path):
        raw = json.loads(path.read_text())
        raw.pop("started_utc", None)
        raw.pop("wall_seconds", None)
        return raw

    analog = str(worldbank_analog_path())
    schema = str(worldbank_analog_path().parent / "worldbank_analog_schema.json")
    mismatches = []
    for sub, argv, files in [
        (
            "fit",
            ["fit", "--data", analog, "--schema", schema, "--group-size", "4",
             "--seed", "3"],
            ["report.txt"],
        ),
        (
            "simulate",
            ["simulate", "--scenario", "C", "--groups", "6", "--reps", "3",
             "--seed", "3"],
            ["deltas.csv", "summary.txt"],
        ),
        (
            "eval",
            None,  # filled below, needs the fit report
            ["eval.txt"],
        ),
    ]:
        if sub == "eval":
            report = str(tmp_path / "fit1" / "run" / "report.txt")
            argv = ["eval", "--report", report, "--data", analog,
                    "--schema", schema, "--seed", "3"]
        d1 = tmp_path / f"{sub}1" / "run"
        d2 = tmp_path / f"{sub}2" / "run"
        out1 = run(argv + ["--out", str(d1)])
        out2 = run(argv + ["--out", str(d2)])
        if out1 != out2:
            mismatches.append(f"{sub}: stdout differs")
        for f in files:
            if (d1 / f).read_bytes() != (d2 / f).read_bytes():
                mismatches.append(f"{sub}: {f} differs")
        if manifest_core(d1 / "manifest.json") != manifest_core(d2 / "manifest.json"):
            mismatches.append(f"{sub}: manifest differs")

    s1 = tmp_path / "surf1" / "grid.txt"
    s2 = tmp_path / "surf2" / "grid.txt"
    s1.parent.mkdir(), s2.parent.mkdir()
    surf_args = ["surface", "--scenario", "C", "--groups", "6",
                 "--range1=-1:1:7", "--range2=-0.5:1.5:7", "--seed", "3"]
    o1 = run(surf_args + ["--out", str(s1)])
    o2 = run(surf_args + ["--out", str(s2)])
    if o1 != o2:
        mismatches.append("surface: stdout differs")
    if s1.read_bytes() != s2.read_bytes():
        mismatches.append("surface: grid differs")
    m1 = manifest_core(s1.parent / "grid.txt.manifest.json")
    m2 = manifest_core(s2.parent / "grid.txt.manifest.json")
    if m1 != m2:
        mismatches.append("surface: manifest differs")

    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 60.0
    record_criterion(
        11,
        ok,
        "all four subcommands byte-identical across reruns (timestamps "
        f"excluded), {dt:.0f}s (cap 60s)"
        + ("" if not mismatches else f"; mismatches: {mismatches}"),
    )
