"""Parametric model families mapping latent inputs to noise-free outputs.

A model is a pure function M(x; alpha) from R^k to R^m together with its
parameter dimension. Three families: the k-d affine hyperplane (whose k = 1
case, ``affine_kd(1)``, is the line), the 1-d polynomial, and a generic
family wrapping a user-supplied batch hook (the only way to get m > 1).
Every family but the generic one is linear in alpha.

A generic hook ``eval_hook(alpha, xs)`` maps the whole (n, k) input block
to the (n, m) output block, and gets read-only views of both arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

AFFINE_KD = "affine-kd"
POLYNOMIAL_1D = "polynomial-1d"
GENERIC = "generic"


@dataclass(frozen=True, eq=False)
class ParametricModel:
    family: str
    input_dim: int
    output_dim: int
    param_dim: int
    eval_hook: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or self.param_dim < 1:
            raise ValueError("model dimensions must be >= 1")
        if self.family not in (AFFINE_KD, POLYNOMIAL_1D, GENERIC):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.family == GENERIC:
            if not callable(self.eval_hook):
                raise ValueError("generic family requires a callable eval hook")
        elif self.eval_hook is not None:
            raise ValueError(f"{self.family} family takes no eval hook")
        elif self.output_dim != 1:
            raise ValueError(f"{self.family} family has a single output")
        elif self.family == AFFINE_KD and self.param_dim != self.input_dim + 1:
            raise ValueError("affine-kd family has input_dim + 1 parameters")
        elif self.family == POLYNOMIAL_1D and self.input_dim != 1:
            raise ValueError("polynomial-1d family has scalar inputs")

    @staticmethod
    def affine_1d() -> "ParametricModel":
        """M(x) = alpha_1 + alpha_2 * x on scalar inputs: ``affine_kd(1)``."""
        return ParametricModel.affine_kd(1)

    @staticmethod
    def affine_kd(k: int) -> "ParametricModel":
        """M(x) = alpha_1 + sum_n alpha_{n+1} x_n on k-dimensional inputs."""
        if k < 1:
            raise ValueError("input dimension must be >= 1")
        return ParametricModel(AFFINE_KD, k, 1, k + 1)

    @staticmethod
    def polynomial_1d(degree: int) -> "ParametricModel":
        """M(x) = sum_{i=0}^{degree} alpha_{i+1} x^i on scalar inputs."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return ParametricModel(POLYNOMIAL_1D, 1, 1, degree + 1)

    @staticmethod
    def generic(
        input_dim: int,
        output_dim: int,
        param_dim: int,
        eval_hook: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> "ParametricModel":
        """Wrap a pure batch hook (alpha, xs) -> ys, (n, k) inputs to (n, m) outputs."""
        return ParametricModel(
            GENERIC, input_dim, output_dim, param_dim, eval_hook=eval_hook
        )


def _check_alpha(param_dim: int, alpha) -> np.ndarray:
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (param_dim,):
        raise ValueError(f"alpha has shape {alpha.shape}, expected ({param_dim},)")
    return alpha


def model_eval(model: ParametricModel, alpha, x) -> np.ndarray:
    """Evaluate M(x; alpha) at a single input; returns shape (m,)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({model.input_dim},)")
    return model_eval_batch(model, alpha, x[None, :])[0]


def model_eval_batch(model: ParametricModel, alpha, xs: np.ndarray, out=None) -> np.ndarray:
    """Evaluate the model on a batch of inputs, shape (n, k) -> (n, m).

    Affine and polynomial families are vectorized; the generic family calls
    its hook once on read-only views of ``alpha`` and the whole block
    ``xs``, and checks that it returned (n, m). ``out``, an (n, m) float array,
    receives the values when given and is returned, so a caller evaluating
    many times can reuse one buffer.
    """
    alpha = _check_alpha(model.param_dim, alpha)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.input_dim:
        raise ValueError(f"batch has shape {xs.shape}, expected (n, {model.input_dim})")
    if out is None:
        out = np.empty((xs.shape[0], model.output_dim))
    elif out.shape != (xs.shape[0], model.output_dim):
        raise ValueError(f"out has shape {out.shape}, expected ({xs.shape[0]}, {model.output_dim})")
    y = out[:, 0]
    if model.family == AFFINE_KD:
        np.add(np.matmul(xs, alpha[1:], out=y), alpha[0], out=y)
    elif model.family == POLYNOMIAL_1D:
        # Horner's rule in place: polyval's products and sums, in its order
        y.fill(alpha[-1])
        for c in alpha[-2::-1]:
            np.add(np.multiply(y, xs[:, 0], out=y), c, out=y)
    else:
        alpha, xs = alpha.view(), xs.view()
        alpha.flags.writeable = xs.flags.writeable = False
        ys = np.asarray(model.eval_hook(alpha, xs), dtype=float)
        if ys.shape != out.shape:
            raise ValueError(
                f"eval hook returned shape {ys.shape}, expected {out.shape}: "
                "eval_hook(alpha, xs) maps the (n, k) input block to (n, m)"
            )
        out[...] = ys
    return out
