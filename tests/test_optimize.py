import math

import numpy as np
import pytest

from eivmix import (
    GAUSS_LINE,
    GAUSS_PLANE,
    GENERAL,
    INTERVAL_LINE,
    DensityParams,
    ErrorDensity,
    IntegrationConfig,
    OptimizerConfig,
    ParametricModel,
    PairedDataset,
    as_grouped,
    fit,
    fit_extended,
    generate_scenario,
    objective_surface,
    scenario_spec,
)
from eivmix.optimize import nelder_mead

LINE = ParametricModel.affine_1d()


def line_dataset(n=60, a1=0.5, a2=-1.2, seed=0, sigma=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = a1 + a2 * x + rng.standard_normal(n) * sigma
    x_obs = x + rng.standard_normal(n) * sigma
    d = ErrorDensity.gaussian(sigma)
    return as_grouped(PairedDataset.from_arrays(x_obs[:, None], y[:, None], d, d))


def test_nelder_mead_quadratic():
    f = lambda z: float((z[0] - 2.0) ** 2 + (z[1] + 1.0) ** 2)  # noqa: E731
    res = nelder_mead(f, [0.0, 0.0], OptimizerConfig())
    assert res.converged
    np.testing.assert_allclose(res.alpha_hat, [2.0, -1.0], atol=1e-4)
    assert res.objective_at_min < 1e-9
    np.testing.assert_array_equal(res.warm_start, [0.0, 0.0])


def test_nelder_mead_rosenbrock():
    f = lambda z: float((1 - z[0]) ** 2 + 100 * (z[1] - z[0] ** 2) ** 2)  # noqa: E731
    res = nelder_mead(f, [-1.2, 1.0], OptimizerConfig(max_iters=5000))
    assert res.converged
    np.testing.assert_allclose(res.alpha_hat, [1.0, 1.0], atol=1e-4)


def test_nelder_mead_nonfinite_plateau_not_converged():
    res = nelder_mead(lambda x: math.inf, [0.0, 0.0], OptimizerConfig(max_iters=50))
    assert not res.converged
    assert res.objective_at_min == math.inf
    assert res.iterations == 24  # the simplex still collapses and stops


def test_nelder_mead_deterministic():
    f = lambda z: float(np.sum(z**2) + math.sin(3 * z[0]))  # noqa: E731
    cfg = OptimizerConfig(restarts=3, seed=11)
    a = nelder_mead(f, [1.0, -1.0], cfg)
    b = nelder_mead(f, [1.0, -1.0], cfg)
    np.testing.assert_array_equal(a.alpha_hat, b.alpha_hat)
    assert a.iterations == b.iterations


def test_nelder_mead_max_iters():
    f = lambda z: float(np.sum(z**2))  # noqa: E731
    res = nelder_mead(f, np.full(4, 10.0), OptimizerConfig(max_iters=3))
    assert not res.converged
    assert res.iterations == 3


def test_nelder_mead_restarts_escape_local_minimum():
    # two basins separated by a barrier; plain descent from x0 stays local
    def f(z):
        x = z[0]
        return float(min((x + 1.0) ** 2 + 0.3, (x - 1.0) ** 2))

    base = nelder_mead(f, [-1.0], OptimizerConfig())
    assert base.objective_at_min == pytest.approx(0.3, abs=1e-8)
    multi = nelder_mead(
        f, [-1.0], OptimizerConfig(restarts=30, initial_simplex_scale=1.0, seed=2)
    )
    assert multi.objective_at_min == pytest.approx(0.0, abs=1e-8)
    assert multi.alpha_hat[0] == pytest.approx(1.0, abs=1e-3)


def test_nelder_mead_handles_inf_wall():
    def f(z):
        if z[0] < 0:
            return math.inf
        return float((z[0] - 1.0) ** 2)

    res = nelder_mead(f, [0.5], OptimizerConfig())
    assert res.converged
    assert res.alpha_hat[0] == pytest.approx(1.0, abs=1e-6)


def test_fit_warm_start_and_improvement():
    ds = line_dataset()
    icfg = IntegrationConfig()
    res = fit(ds, LINE, GAUSS_LINE, icfg, OptimizerConfig())
    assert res.converged
    np.testing.assert_allclose(res.alpha_hat, [0.5, -1.2], atol=0.06)
    assert res.warm_start.shape == (2,)
    # the descent never ends above its warm start
    from eivmix.objective import CompiledGaussianPlane

    start_val = CompiledGaussianPlane(ds, [0.1], 0.1)(res.warm_start)
    assert res.objective_at_min <= start_val + 1e-12


def test_fit_general_matches_closed_form_argmin():
    ds = line_dataset(n=40, seed=3)
    icfg = IntegrationConfig()
    a = fit(ds, LINE, GAUSS_LINE, icfg, OptimizerConfig())
    b = fit(ds, LINE, GENERAL, icfg, OptimizerConfig())
    # same likelihood up to an additive constant: same minimizer
    np.testing.assert_allclose(a.alpha_hat, b.alpha_hat, atol=5e-4)


def test_fit_objective_validation():
    ds = line_dataset(n=10)
    icfg = IntegrationConfig()
    with pytest.raises(ValueError, match="uniform"):
        fit(ds, LINE, INTERVAL_LINE, icfg, OptimizerConfig())
    with pytest.raises(ValueError, match="affine"):
        fit(ds, ParametricModel.polynomial_1d(2), GAUSS_LINE, icfg, OptimizerConfig())
    with pytest.raises(ValueError, match="unknown objective"):
        fit(ds, LINE, "steepest", icfg, OptimizerConfig())
    rng = np.random.default_rng(0)
    d2 = ErrorDensity.gaussian([1.0, 1.0])
    ds2 = as_grouped(
        PairedDataset.from_arrays(
            rng.standard_normal((5, 2)),
            rng.standard_normal((5, 1)),
            d2,
            ErrorDensity.gaussian(1.0),
        )
    )
    with pytest.raises(ValueError, match="scalar inputs"):
        fit(ds2, ParametricModel.affine_kd(2), GAUSS_LINE, IntegrationConfig(), OptimizerConfig())


@pytest.mark.parametrize("choice", [GENERAL, GAUSS_LINE, GAUSS_PLANE, INTERVAL_LINE])
def test_every_objective_checks_model_dimensions_at_compile(choice):
    # a line on two-input data used to compile under the Gaussian closed
    # forms and fail only at the first evaluation, on the length of alpha
    ds = generate_scenario(scenario_spec("plane", R=4), np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"model maps R\^1 -> R\^1, dataset has input_dim=2"):
        objective_surface(ds, LINE, choice, IntegrationConfig(), (0, -1.0, 1.0, 2), (1, -1.0, 1.0, 2), [0.0, 0.0])


def test_interval_line_fits_any_one_input_affine_model():
    spec = scenario_spec("D", R=3)
    ds = generate_scenario(spec, np.random.default_rng(5))
    got = fit(ds, ParametricModel.affine_kd(1), INTERVAL_LINE, IntegrationConfig(), OptimizerConfig())
    want = fit(ds, LINE, INTERVAL_LINE, IntegrationConfig(), OptimizerConfig())
    assert got.alpha_hat.tobytes() == want.alpha_hat.tobytes()
    assert (got.objective_at_min, got.iterations, got.converged) == (
        want.objective_at_min, want.iterations, want.converged)
    with pytest.raises(ValueError, match="scalar inputs"):
        fit(ds, ParametricModel.affine_kd(2), INTERVAL_LINE, IntegrationConfig(), OptimizerConfig())


def test_fit_extended_recovers_output_scale():
    # data generated with sigma_eps = 0.3; input scale pinned at truth
    rng = np.random.default_rng(17)
    n = 300
    x = rng.uniform(-3, 3, n)
    y = 0.2 + 0.8 * x + rng.standard_normal(n) * 0.3
    x_obs = x + rng.standard_normal(n) * 0.2
    d = ErrorDensity.gaussian(0.2)
    e = ErrorDensity.gaussian(1.0)  # deliberately wrong stored scale
    ds = as_grouped(PairedDataset.from_arrays(x_obs[:, None], y[:, None], d, e))
    lo = DensityParams(np.array([0.2]), np.array([0.05]))
    hi = DensityParams(np.array([0.2]), np.array([5.0]))
    res = fit_extended(ds, LINE, IntegrationConfig(), OptimizerConfig(), (lo, hi))
    assert res.converged
    assert res.density_params_hat.input_scales[0] == 0.2  # pinned
    assert res.density_params_hat.output_scales[0] == pytest.approx(0.3, abs=0.08)
    np.testing.assert_allclose(res.alpha_hat, [0.2, 0.8], atol=0.08)


def test_fit_extended_flags_scale_at_bound():
    rng = np.random.default_rng(19)
    n = 80
    x = rng.uniform(-2, 2, n)
    y = 0.5 * x + rng.standard_normal(n) * 0.1
    d = ErrorDensity.gaussian(0.1)
    ds = as_grouped(PairedDataset.from_arrays((x + rng.standard_normal(n) * 0.1)[:, None], y[:, None], d, d))
    # the likelihood wants a small output scale; the box forbids it
    lo = DensityParams(np.array([0.1]), np.array([1.5]))
    hi = DensityParams(np.array([0.1]), np.array([3.0]))
    res = fit_extended(ds, LINE, IntegrationConfig(), OptimizerConfig(), (lo, hi))
    assert not res.converged
    assert "scale at bound" in res.note


def test_fit_extended_bound_validation():
    ds = line_dataset(n=10)
    lo = DensityParams(np.array([0.1]), np.array([0.1]))
    hi = DensityParams(np.array([0.05]), np.array([1.0]))
    with pytest.raises(ValueError, match="bounds"):
        fit_extended(ds, LINE, IntegrationConfig(), OptimizerConfig(), (lo, hi))


def test_objective_surface_grid():
    ds = line_dataset(n=30, seed=5)
    icfg = IntegrationConfig()
    grid = objective_surface(
        ds, LINE, GAUSS_LINE, icfg, axis1=(0, -1.0, 1.0, 3), axis2=(1, -2.0, 0.0, 5), fixed=[0.0, 0.0]
    )
    assert grid.values.shape == (3, 5)
    # spot-check one cell against a direct evaluation
    from eivmix.objective import CompiledGaussianPlane

    direct = CompiledGaussianPlane(ds, [0.1], 0.1)([0.0, -1.0])
    assert grid.values[1, 2] == pytest.approx(direct, rel=1e-12)
    i, j = grid.argmin
    assert grid.values[i, j] == grid.values.min()
    np.testing.assert_allclose(
        grid.alpha_at_min,
        [np.linspace(-1, 1, 3)[i], np.linspace(-2, 0, 5)[j]],
    )


def test_objective_surface_validation():
    ds = line_dataset(n=10)
    icfg = IntegrationConfig()
    with pytest.raises(ValueError, match="axis"):
        objective_surface(ds, LINE, GAUSS_LINE, icfg, (0, 0, 1, 3), (0, 0, 1, 3), [0.0, 0.0])
    with pytest.raises(ValueError, match="at least 2"):
        objective_surface(ds, LINE, GAUSS_LINE, icfg, (0, 0, 1, 1), (1, 0, 1, 3), [0.0, 0.0])
    with pytest.raises(ValueError, match="template"):
        objective_surface(ds, LINE, GAUSS_LINE, icfg, (0, 0, 1, 3), (1, 0, 1, 3), [0.0])


@pytest.mark.parametrize(
    "axis1, axis2, fixed, message",
    [
        ((0, math.nan, 1, 3), (1, 0, 1, 3), [0.0, 0.0], "axis1"),
        ((0, 0, 1, 3), (1, 0, math.inf, 3), [0.0, 0.0], "axis2"),
        ((0, -math.inf, 1, 3), (1, 0, 1, 3), [0.0, 0.0], "axis1"),
        ((0, 0, 1, 3), (1, 0, 1, 3), [0.0, math.nan], "fixed"),
    ],
)
def test_objective_surface_rejects_non_finite_values(axis1, axis2, fixed, message):
    # a non-finite bound or template value used to tabulate an all-NaN grid
    ds = line_dataset(n=10)
    with pytest.raises(ValueError, match=f"{message}.*finite"):
        objective_surface(ds, LINE, GAUSS_LINE, IntegrationConfig(), axis1, axis2, fixed)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(initial_simplex_scale=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="initial_simplex_scale"):
            OptimizerConfig(initial_simplex_scale=bad)
