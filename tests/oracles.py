"""Slow independent reference implementations shared by the test files.

These deliberately avoid the library's vectorized evaluation paths: the
per-pair defects are integrated one at a time with adaptive quadrature, so
any bucketing or broadcasting bug in the production code cannot hide here.
"""

import math

import numpy as np
from scipy.integrate import quad

from eivmix import Group, GroupedDataset
from eivmix.densities import GAUSSIAN, POINT_MASS
from eivmix.models import model_eval


def single_group(x, y, din, dout):
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    g = Group(x, y, (din,) * x.shape[0], (dout,) * y.shape[0])
    return GroupedDataset((g,), x.shape[1], y.shape[1])


def density_eval(density, s) -> float:
    """Evaluate an ErrorDensity at a point ``s`` of matching dimension.

    Point masses have no numeric density; asking for one is a usage error
    (callers must take the sifting path instead).
    """
    if density.kind == POINT_MASS:
        raise ValueError(
            "point-mass density has no numeric value; "
            "use the sifting reduction instead"
        )
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (density.dim,):
        raise ValueError(f"point has shape {s.shape}, expected ({density.dim},)")
    if density.kind == GAUSSIAN:
        z = s / density.scale
        return float(
            np.exp(-0.5 * np.dot(z, z)) / np.prod(density.scale * math.sqrt(2.0 * math.pi))
        )
    inside = np.all(np.abs(s) <= density.scale)
    if not inside:
        return 0.0
    return float(1.0 / np.prod(2.0 * density.scale))


def model_eval_scalar(model, alpha, s):
    return model_eval(model, alpha, [s])[0]


def horner(a, xs):
    """The polynomial family as a generic batch hook: Horner's steps, in its order."""
    y = np.full(xs.shape[0], a[-1])
    for c in a[-2::-1]:
        y = y * xs[:, 0] + c
    return y[:, None]


def quad_oracle_value(ds, model, alpha, points=None):
    """Per-pair double-sum likelihood via scalar adaptive quadrature.

    Expands each group into all (input, output) combinations and integrates
    f_out(y_l - M(s)) f_in(x_h - s) over s for each combination separately,
    averaging with weights 1/(H L). This is the slow textbook form of the
    same grouped likelihood the library evaluates as one mixture integral.
    """
    alpha = np.asarray(alpha, dtype=float)
    total = 0.0
    for g in ds.groups:
        h_n, l_n = g.n_inputs, g.n_outputs
        lik = 0.0
        for h in range(h_n):
            din = g.input_densities[h]
            for l in range(l_n):
                dout = g.output_densities[l]

                def integrand(s):
                    ms = float(model_eval_scalar(model, alpha, s))
                    return density_eval(dout, [g.outputs[l, 0] - ms]) * density_eval(
                        din, [g.inputs[h, 0] - s]
                    )

                lo = g.inputs[h, 0] - 10.0
                hi = g.inputs[h, 0] + 10.0
                val, _ = quad(
                    integrand, lo, hi, limit=400, points=points,
                    epsabs=1e-13, epsrel=1e-12,
                )
                lik += val
        total -= math.log(lik / (h_n * l_n))
    return total


def integrated_deming_penalty(alpha2: float, sigma_eta: float, sigma_eps: float, n_pairs: int) -> float:
    """Slope-dependent volume term (L/2) log(alpha2^2 sigma_eta^2 + sigma_eps^2).

    Adding this to the Deming weighted sum of squares gives exactly the
    closed-form Gaussian line objective on paired data, which is what makes
    the maximum-likelihood slope differ from the classical Deming slope.
    """
    if not (sigma_eta > 0 and sigma_eps > 0):
        raise ValueError("sigmas must be > 0")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    v = alpha2 * alpha2 * sigma_eta * sigma_eta + sigma_eps * sigma_eps
    return 0.5 * n_pairs * math.log(v)
