"""Goodness-of-fit and replication summaries.

The headline metric is an errors-in-variables R-squared: the classical
explained-variance ratio with the denominator inflated by the variance the
fitted slopes push through the input-error covariance. With error-free
inputs it reduces exactly to classical R-squared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


def r_squared_delta(x_matrix, y, slopes, error_cov) -> float:
    """Errors-in-variables R-squared in [0, 1].

    value = min( b' S b / ( var(y) + b' Sigma b ), 1 )

    where S is the (1/L)-normalized centered second-moment matrix of the
    inputs, var(y) the (1/L)-normalized output variance, b the fitted slope
    vector (intercept excluded), and Sigma the diagonal input error
    covariance (``error_cov``: one variance for every input, or k of them).
    No BLAS call, so no BLAS kernel, touches the value: b' S b is
    mean(t * t) with t = sum_j xc_j b_j summed left to right over the
    centered inputs, and b' Sigma b is sum(b * b * variances).
    """
    x = np.asarray(x_matrix, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float).ravel()
    b = np.atleast_1d(np.asarray(slopes, dtype=float))
    k = x.shape[1]
    if x.shape[0] != y.size:
        raise ValueError("x and y must hold the same number of rows")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if b.shape != (k,):
        raise ValueError(f"slopes have shape {b.shape}, expected ({k},)")
    var = np.asarray(error_cov, dtype=float)
    if var.ndim > 1 or var.size not in (1, k):
        raise ValueError(f"error variances have shape {var.shape}, expected () or ({k},)")
    xc = x - x.mean(axis=0)
    t = xc[:, 0] * b[0]
    for j in range(1, k):
        t += xc[:, j] * b[j]
    explained = float(np.mean(t * t))
    total = float(np.mean((y - y.mean()) ** 2))
    denom = total + float(np.sum(b * b * var))
    if denom <= 0:
        raise ValueError("zero total variance; ratio undefined")
    return min(explained / denom, 1.0)


@dataclass(frozen=True, eq=False)
class ResidualSummary:
    """Box-plot statistics of parameter estimation errors, per coordinate.

    ``deltas`` holds one row per replication, alpha_hat - alpha_truth.
    Quartiles use linear interpolation; whiskers are the most extreme
    deltas within 1.5 IQR of the quartiles; everything beyond is listed in
    ``outliers``.
    """

    deltas: np.ndarray
    q1: np.ndarray
    median: np.ndarray
    q3: np.ndarray
    iqr: np.ndarray
    whisker_lo: np.ndarray
    whisker_hi: np.ndarray
    outliers: List[np.ndarray]


def residual_summary(fits: Sequence, truth) -> ResidualSummary:
    """Summarize replicated fits against the known truth.

    ``fits`` may hold FitResult objects or plain parameter vectors.
    """
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    rows = []
    for f in fits:
        alpha = getattr(f, "alpha_hat", f)
        rows.append(np.atleast_1d(np.asarray(alpha, dtype=float)))
    if not rows:
        raise ValueError("need at least one fit")
    deltas = np.stack(rows) - truth
    q1, median, q3 = np.percentile(deltas, [25.0, 50.0, 75.0], axis=0)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    p = deltas.shape[1]
    whisker_lo = np.empty(p)
    whisker_hi = np.empty(p)
    outliers = []
    for j in range(p):
        col = deltas[:, j]
        inside = col[(col >= lo_fence[j]) & (col <= hi_fence[j])]
        whisker_lo[j] = inside.min()
        whisker_hi[j] = inside.max()
        outliers.append(np.sort(col[(col < lo_fence[j]) | (col > hi_fence[j])]))
    return ResidualSummary(
        deltas=deltas,
        q1=q1,
        median=median,
        q3=q3,
        iqr=iqr,
        whisker_lo=whisker_lo,
        whisker_hi=whisker_hi,
        outliers=outliers,
    )
