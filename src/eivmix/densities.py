"""Observational error densities attached to individual data points.

Every data point carries its own zero-centered error law. Three kinds are
supported: a diagonal Gaussian (per-coordinate standard deviations), a
centered uniform box (per-coordinate half-widths), and a point mass at the
origin. The point mass is a distinct kind rather than a zero-scale limit:
objectives treat it analytically (the integral against it collapses to a
function evaluation), so it must never reach a numeric density evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAUSSIAN = "gaussian-diagonal"
UNIFORM = "uniform-box"
POINT_MASS = "point-mass"

#: Every density kind; a kind's position here is its code in GroupedDataset.
KINDS = (GAUSSIAN, UNIFORM, POINT_MASS)


@dataclass(frozen=True, eq=False)
class ErrorDensity:
    """Zero-centered error law for one observed point.

    ``scale`` holds per-coordinate standard deviations (Gaussian) or
    half-widths (uniform box); it is empty for a point mass. Instances are
    immutable and shared freely across points.
    """

    kind: str
    scale: np.ndarray
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("density dimension must be >= 1")
        scale = np.asarray(self.scale, dtype=float)
        if self.kind == POINT_MASS:
            if scale.size != 0:
                raise ValueError("point-mass density takes no scale vector")
            scale = np.empty(0)
        else:
            scale = np.atleast_1d(scale)
            if scale.shape != (self.dim,):
                raise ValueError(
                    f"scale has shape {scale.shape}, expected ({self.dim},)"
                )
            if not np.all(np.isfinite(scale)) or np.any(scale <= 0.0):
                raise ValueError("density scales must be finite and > 0")
        scale.flags.writeable = False
        object.__setattr__(self, "scale", scale)

    @staticmethod
    def gaussian(scale) -> "ErrorDensity":
        scale = np.atleast_1d(np.asarray(scale, dtype=float))
        return ErrorDensity(GAUSSIAN, scale, scale.size)

    @staticmethod
    def uniform(halfwidth) -> "ErrorDensity":
        halfwidth = np.atleast_1d(np.asarray(halfwidth, dtype=float))
        return ErrorDensity(UNIFORM, halfwidth, halfwidth.size)

    @staticmethod
    def point_mass(dim: int) -> "ErrorDensity":
        return ErrorDensity(POINT_MASS, np.empty(0), dim)


def density_sample(density: ErrorDensity, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` vectors from the density; returns shape (n, dim)."""
    if n < 0:
        raise ValueError("sample count must be >= 0")
    if density.kind == GAUSSIAN:
        return rng.standard_normal((n, density.dim)) * density.scale
    if density.kind == UNIFORM:
        return rng.uniform(-1.0, 1.0, (n, density.dim)) * density.scale
    return np.zeros((n, density.dim))


@dataclass(frozen=True, eq=False)
class DensityParams:
    """Global per-coordinate Gaussian scales, as fitted by ``fit_extended``.

    ``input_scales`` has one entry per input coordinate, ``output_scales``
    one per output coordinate. ``fit_extended`` takes its scale bounds and
    reports its fitted scales in this form; passed as the scale overrides
    of ``nll_general`` they overwrite the scales of every Gaussian density
    in a dataset, while uniform and point-mass densities are untouched.
    """

    input_scales: np.ndarray
    output_scales: np.ndarray

    def __post_init__(self):
        for name in ("input_scales", "output_scales"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if v.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
                raise ValueError(f"{name} must be finite and > 0")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
