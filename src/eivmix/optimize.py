"""Simplex optimization and the high-level fitting entry points.

The optimizer is a deterministic Nelder-Mead with the standard coefficient
set (reflection 1, expansion 2, contraction 0.5, shrink 0.5). It is written
out here rather than delegated because the fitting contracts need exact
control: bit-reproducible trajectories given (start, config), restart
perturbations drawn from the config seed, +inf objective values treated as
ordinary comparisons, and a monotone best-value guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .baselines import ALL_PAIRS, imputation_fit
from .dataset import GroupedDataset
from .densities import GAUSSIAN, KINDS, DensityParams
from .models import AFFINE_KD, ParametricModel
from .objective import (
    CompiledGaussianPlane,
    CompiledIntervalLine,
    CompiledObjective,
    IntegrationConfig,
    _check_model_dims,
    shared_gaussian_scales,
)

GENERAL = "general"
GAUSS_LINE = "gauss-line"
GAUSS_PLANE = "gauss-plane"
INTERVAL_LINE = "interval-line"

OBJECTIVE_CHOICES = (GENERAL, GAUSS_LINE, GAUSS_PLANE, INTERVAL_LINE)

# a descent stops once the simplex diameter or its spread of values is this small
_X_TOL = 1e-8
_F_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 2000
    initial_simplex_scale: float = 0.1
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.initial_simplex_scale < math.inf:
            raise ValueError("initial_simplex_scale must be finite and > 0")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass
class FitResult:
    alpha_hat: np.ndarray
    objective_at_min: float
    iterations: int
    converged: bool
    warm_start: np.ndarray
    density_params_hat: Optional[DensityParams] = None
    note: Optional[str] = None


def _simplex_descent(f, x0: np.ndarray, cfg: OptimizerConfig):
    """One Nelder-Mead run; returns (x_best, f_best, iterations, converged)."""
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += cfg.initial_simplex_scale
    fvals = np.array([f(x) for x in simplex])
    iterations = 0
    converged = False
    while True:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        diameter = np.max(np.abs(simplex[1:] - simplex[0]))
        spread = fvals[-1] - fvals[0] if math.isfinite(fvals[0]) else math.inf
        if diameter <= _X_TOL or spread <= _F_TOL:
            # a simplex collapsed on a non-finite plateau has found nothing
            converged = math.isfinite(fvals[0])
            break
        if iterations >= cfg.max_iters:
            break
        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        xr = centroid + (centroid - worst)
        fr = f(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - worst)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            # outside contraction when xr beats the worst vertex, else inside
            outside = fr < fvals[-1]
            xc = centroid + 0.5 * ((xr if outside else worst) - centroid)
            fc = f(xc)
            if (fc <= fr) if outside else (fc < fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [f(x) for x in simplex[1:]]
    best = int(np.argmin(fvals))
    return simplex[best].copy(), float(fvals[best]), iterations, converged


def nelder_mead(f: Callable[[np.ndarray], float], x0, cfg: OptimizerConfig) -> FitResult:
    """Minimize f from x0; deterministic given (x0, cfg).

    ``restarts`` additional runs start from x0 perturbed by
    initial_simplex_scale * standard-normal draws seeded by cfg.seed; the
    best run wins (ties: earliest run). The running best value never
    increases within a run. Hitting max_iters, or stopping with a
    non-finite best value, leaves converged False but still returns the
    best point seen.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    starts = [x0]
    if cfg.restarts:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.restarts):
            starts.append(x0 + cfg.initial_simplex_scale * rng.standard_normal(x0.size))
    best = None
    total_iterations = 0
    for start in starts:
        x, fx, iters, conv = _simplex_descent(f, start, cfg)
        total_iterations += iters
        if best is None or fx < best[1]:
            best = (x, fx, conv)
    return FitResult(
        alpha_hat=best[0],
        objective_at_min=best[1],
        iterations=total_iterations,
        converged=best[2],
        warm_start=x0.copy(),
    )


def _build_objective(
    ds: GroupedDataset,
    model: ParametricModel,
    objective_choice: str,
    int_cfg: IntegrationConfig,
):
    """Compile the chosen objective, validating dataset/model compatibility."""
    if objective_choice not in OBJECTIVE_CHOICES:
        raise ValueError(
            f"unknown objective choice {objective_choice!r}; "
            f"expected one of {OBJECTIVE_CHOICES}"
        )
    if objective_choice == GENERAL:
        return CompiledObjective(ds, model, int_cfg)
    if model.family != AFFINE_KD:
        raise ValueError(
            f"{objective_choice} objective requires an affine model, got {model.family}"
        )
    if objective_choice != GAUSS_PLANE and model.input_dim != 1:
        raise ValueError(f"{objective_choice} objective requires scalar inputs")
    _check_model_dims(ds, model)
    if objective_choice == INTERVAL_LINE:
        return CompiledIntervalLine(ds)
    eta, eps = shared_gaussian_scales(ds)
    return CompiledGaussianPlane(ds, eta, float(eps[0]))


def fit(
    ds: GroupedDataset,
    model: ParametricModel,
    objective_choice: str,
    int_cfg: IntegrationConfig,
    opt_cfg: OptimizerConfig,
) -> FitResult:
    """Maximum-likelihood fit of the model parameters on grouped data.

    Warm-starts from OLS on the within-group all-combinations expansion,
    then descends the chosen objective with Nelder-Mead. The result value
    never exceeds the warm start's objective value.
    """
    objective = _build_objective(ds, model, objective_choice, int_cfg)
    warm = imputation_fit(ds, model, ALL_PAIRS, opt_cfg).alpha_hat
    return nelder_mead(objective, warm, opt_cfg)


def fit_extended(
    ds: GroupedDataset,
    model: ParametricModel,
    int_cfg: IntegrationConfig,
    opt_cfg: OptimizerConfig,
    scale_bounds,
) -> FitResult:
    """Joint fit of model parameters and global Gaussian error scales.

    ``scale_bounds`` is a (lower, upper) pair of DensityParams boxing the
    per-coordinate scales. Coordinates with equal bounds are held fixed;
    the rest are optimized jointly with alpha through a log
    reparameterization (scales stay positive by construction). A fitted
    scale ending up at its bound marks the result as not converged.
    """
    lo, hi = scale_bounds
    k, m = ds.input_dim, ds.output_dim
    if any(b.input_scales.shape != (k,) or b.output_scales.shape != (m,) for b in (lo, hi)):
        raise ValueError("scale bounds must match dataset dimensions")
    lo_all = np.concatenate([lo.input_scales, lo.output_scales])
    hi_all = np.concatenate([hi.input_scales, hi.output_scales])
    if np.any(lo_all > hi_all):
        raise ValueError("lower scale bounds must not exceed upper bounds")

    compiled = CompiledObjective(ds, model, int_cfg)
    start_all = _initial_scales(ds, lo_all, hi_all)
    free = lo_all < hi_all
    fixed_all = np.where(free, np.nan, lo_all)

    p = model.param_dim
    warm = imputation_fit(ds, model, ALL_PAIRS, opt_cfg).alpha_hat
    z0 = np.concatenate([warm, np.log(start_all[free])])

    def unpack(z):
        scales = fixed_all.copy()
        scales[free] = np.exp(z[p:])
        return z[:p], scales[:k], scales[k:]

    def objective(z):
        alpha, s_in, s_out = unpack(z)
        scales = np.concatenate([s_in, s_out])[free]
        if not np.all((scales > lo_all[free]) & (scales < hi_all[free])):
            return math.inf
        return compiled.evaluate(alpha, input_scales=s_in, output_scales=s_out).value

    result = nelder_mead(objective, z0, opt_cfg)
    alpha_hat, s_in, s_out = unpack(result.alpha_hat)
    result.alpha_hat = alpha_hat
    result.warm_start = warm
    result.density_params_hat = DensityParams(s_in, s_out)
    scales_all = np.concatenate([s_in, s_out])
    margin = np.minimum(scales_all - lo_all, hi_all - scales_all)
    at_bound = free & (margin < 1e-6 * (hi_all - lo_all))
    if np.any(at_bound):
        result.converged = False
        result.note = "scale at bound: coordinates " + str(
            np.flatnonzero(at_bound).tolist()
        )
    return result


def _initial_scales(ds: GroupedDataset, lo_all: np.ndarray, hi_all: np.ndarray) -> np.ndarray:
    """Start scales: per-coordinate mean of the stored Gaussian scales,
    pushed strictly inside the bounds; geometric bound midpoint where the
    dataset has no Gaussian density on that side."""
    sums, counts = [], []
    for kinds, scales in ((ds.input_kinds, ds.input_scales), (ds.output_kinds, ds.output_scales)):
        gauss = scales[kinds == KINDS.index(GAUSSIAN)]
        # summed in row order: a pairwise sum can move the start, and with it
        # fit_extended's whole path, by the last bit
        sums.append(np.cumsum(np.vstack([np.zeros(scales.shape[1]), gauss]), axis=0)[-1])
        counts.append(np.full(scales.shape[1], float(len(gauss))))
    sums, counts = np.concatenate(sums), np.concatenate(counts)
    mid = np.sqrt(lo_all * hi_all)
    start = np.where(counts > 0, sums / np.maximum(counts, 1), mid)
    eps = 1e-9 * (hi_all - lo_all)
    return np.clip(start, lo_all + eps, hi_all - eps)


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Objective values on a 2-d parameter grid (row-major: axis1 is rows)."""

    axis1: tuple
    axis2: tuple
    values: np.ndarray
    argmin: tuple
    alpha_at_min: np.ndarray


def objective_surface(
    ds: GroupedDataset,
    model: ParametricModel,
    objective_choice: str,
    int_cfg: IntegrationConfig,
    axis1,
    axis2,
    fixed,
) -> SurfaceGrid:
    """Tabulate the objective over two parameter coordinates.

    ``axis1`` and ``axis2`` are (param index, lo, hi, n) tuples with finite
    bounds; all other coordinates come from the ``fixed`` template vector,
    whose values must be finite too. The grid argmin is the first minimizing
    cell in row-major order.
    """
    i1, lo1, hi1, n1 = axis1
    i2, lo2, hi2, n2 = axis2
    fixed = np.atleast_1d(np.asarray(fixed, dtype=float))
    if fixed.shape != (model.param_dim,):
        raise ValueError(
            f"fixed template has shape {fixed.shape}, expected ({model.param_dim},)"
        )
    for i in (i1, i2):
        if not 0 <= i < model.param_dim:
            raise ValueError(f"axis index {i} outside parameter vector")
    if i1 == i2:
        raise ValueError("axis indices must differ")
    for name, lo, hi in (("axis1", lo1, hi1), ("axis2", lo2, hi2)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} bounds must be finite, got {lo}:{hi}")
    if not np.all(np.isfinite(fixed)):
        raise ValueError(f"fixed template values must be finite, got {fixed.tolist()}")
    if n1 < 2 or n2 < 2:
        raise ValueError("grid axes need at least 2 points")
    objective = _build_objective(ds, model, objective_choice, int_cfg)
    v1 = np.linspace(lo1, hi1, n1)
    v2 = np.linspace(lo2, hi2, n2)
    values = np.empty((n1, n2))
    alpha = fixed.copy()
    for i, a in enumerate(v1):
        alpha[i1] = a
        for j, b in enumerate(v2):
            alpha[i2] = b
            values[i, j] = objective(alpha)
    flat = int(np.argmin(values))
    argmin = (flat // n2, flat % n2)
    alpha_min = fixed.copy()
    alpha_min[i1] = v1[argmin[0]]
    alpha_min[i2] = v2[argmin[1]]
    return SurfaceGrid(
        axis1=(i1, float(lo1), float(hi1), int(n1)),
        axis2=(i2, float(lo2), float(hi2), int(n2)),
        values=values,
        argmin=argmin,
        alpha_at_min=alpha_min,
    )
