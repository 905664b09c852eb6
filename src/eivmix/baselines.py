"""Classical reference estimators: ordinary least squares and Deming lines.

These ignore the grouped mixture structure entirely; they exist as warm
starts and as comparison baselines. The two imputation strategies turn a
grouped dataset back into pairs first (wrongly, on purpose) and then run
ordinary least squares.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import GroupedDataset, cross_pair_expansion, group_mean_pairs
from .models import GENERIC, ParametricModel, model_eval_batch

GROUP_MEAN = "group-mean"
ALL_PAIRS = "all-pairs"


def ols_line(xs, ys) -> tuple:
    """Closed-form least-squares line through scalar pairs: (intercept, slope)."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError("xs and ys must have equal length")
    if xs.size < 2:
        raise ValueError("need at least 2 pairs")
    mx, my = xs.mean(), ys.mean()
    mxx = np.mean(xs * xs)
    mxy = np.mean(xs * ys)
    denom = mxx - mx * mx
    if denom <= 0:
        raise ValueError("inputs have zero variance; slope undefined")
    a2 = (mxy - mx * my) / denom
    a1 = (mxx * my - mx * mxy) / denom
    return float(a1), float(a2)


def ols_general(xs, ys, model: ParametricModel, opt_cfg=None):
    """Least-squares fit of any model family on paired arrays.

    Families linear in alpha are solved directly, on the design whose column
    j is the model at the j-th unit parameter vector; the generic family is
    minimized numerically from a zero start. ``objective_at_min`` is the
    residual sum of squares.
    """
    from .optimize import OptimizerConfig, FitResult, nelder_mead

    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must hold the same number of points")
    if xs.shape[1] != model.input_dim or ys.shape[1] != model.output_dim:
        raise ValueError(
            f"data dims ({xs.shape[1]}, {ys.shape[1]}) do not match model "
            f"({model.input_dim}, {model.output_dim})"
        )
    if model.family == GENERIC:
        cfg = opt_cfg if opt_cfg is not None else OptimizerConfig()

        def ssr(alpha):
            r = ys - model_eval_batch(model, alpha, xs)
            return float(np.sum(r * r))

        return nelder_mead(ssr, np.zeros(model.param_dim), cfg)
    design = np.column_stack([model_eval_batch(model, e, xs) for e in np.eye(model.param_dim)])
    # lstsq's rank uses matrix_rank's threshold, eps * max(m, n) * s_max
    alpha, _, rank, _ = np.linalg.lstsq(design, ys[:, 0], rcond=None)
    if rank < design.shape[1]:
        raise ValueError(
            f"rank-deficient design matrix (rank {rank} < {design.shape[1]}); "
            "inputs do not identify the parameters"
        )
    resid = ys[:, 0] - design @ alpha
    return FitResult(
        alpha_hat=alpha,
        objective_at_min=float(resid @ resid),
        iterations=0,
        converged=True,
        warm_start=alpha.copy(),
    )


def deming_line(xs, ys, sigma_eta: float, sigma_eps: float) -> tuple:
    """Classical errors-in-variables line for paired scalar data.

    Minimizes sum_l (a1 + a2 x_l - y_l)^2 / (a2^2 sigma_eta^2 + sigma_eps^2)
    in closed form via the variance ratio delta = sigma_eps^2 / sigma_eta^2.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError("xs and ys must have equal length")
    if xs.size < 2:
        raise ValueError("need at least 2 pairs")
    if not (sigma_eta > 0 and sigma_eps > 0):
        raise ValueError("sigmas must be > 0")
    delta = (sigma_eps / sigma_eta) ** 2
    mx, my = xs.mean(), ys.mean()
    dx, dy = xs - mx, ys - my
    sxx = np.mean(dx * dx)
    syy = np.mean(dy * dy)
    sxy = np.mean(dx * dy)
    if sxy == 0.0:
        raise ValueError("zero input/output covariance; slope undefined")
    s = syy - delta * sxx
    b = 2.0 * math.sqrt(delta) * sxy
    # larger root of  sxy a^2 - s a - delta sxy = 0, written without
    # cancellation on either sign of s
    if s >= 0.0:
        a2 = (s + math.hypot(s, b)) / (2.0 * sxy)
    else:
        a2 = (b * b) / (2.0 * sxy * (math.hypot(s, b) - s))
    a1 = my - a2 * mx
    return float(a1), float(a2)


def imputation_fit(ds: GroupedDataset, model: ParametricModel, strategy: str, opt_cfg=None):
    """Fit after collapsing groups back to fake pairs.

    ``group-mean`` replaces every group by the single pair of componentwise
    means (singleton groups keep their actual pair); ``all-pairs`` uses every
    within-group input/output combination. Both then run ols_general. On
    fully paired data the two strategies coincide with plain least squares.
    """
    if strategy == GROUP_MEAN:
        xs, ys = group_mean_pairs(ds)
    elif strategy == ALL_PAIRS:
        xs, ys = cross_pair_expansion(ds)
    else:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    return ols_general(xs, ys, model, opt_cfg)
