"""Synthetic data scenarios and the replication harness.

Latent inputs are drawn uniformly on a fixed range (a modeling choice; the
studies this reproduces only show inputs spanning roughly [-3, 3] and never
state the law). Observed values add zero-centered noise on both sides.
Grouping happens on the latent (noise-free) inputs so that membership does
not depend on the noise draw: scalar scenarios sort by the input and chunk
contiguously; the plane scenario tiles the input rectangle.

Named presets:

====== === ======= ==================== ======================== =========
name    k   L=H     truth alpha          noise                    grouping
====== === ======= ==================== ======================== =========
A        1   300    (0, 0.5)             gaussian 0.2 / 0.2       chunks
B        1   300    (0, 0.5)             gaussian 0.6 / 0.6       chunks
C        1    36    (0, 0.5)             gaussian 0.2 / 0.2       chunks
D        1   300    (0, 0.5)             uniform, sigma-equiv 0.2 chunks
plane    2  1600    (0, 0.2, 0.4)        gaussian 0.2 / 0.2       tiles
plane-switched: plane plus ~30% of points relabeled to random other groups
cubic    1   300    (0, 0.5, 0, -0.1)    gaussian 0.2 / 0.1       two areas
====== === ======= ==================== ======================== =========

Uniform noise uses half-width sqrt(3) * sigma so its standard deviation
matches the quoted sigma. The cubic grouping keeps most points paired and
erases pairing inside two contiguous areas (sizes derived from R, centered
at the 1/6 and 5/6 positions of the sorted inputs, on the steep flanks of
the curve rather than its flat extrema); the cubic truth coefficients are
this package's choice of an S-shaped curve on the input range.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .dataset import build_grouped
from .densities import ErrorDensity, density_sample
from .metrics import ResidualSummary, residual_summary
from .models import ParametricModel, model_eval_batch
from .objective import IntegrationConfig
from .optimize import FitResult, OptimizerConfig, fit

GAUSSIAN_NOISE = "gaussian"
UNIFORM_NOISE = "uniform"

SCENARIO_NAMES = ("A", "B", "C", "D", "plane", "plane-switched", "cubic")

_X_RANGE = (-3.0, 3.0)


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete recipe for one synthetic dataset."""

    name: str
    L: int
    R: Union[int, Tuple[int, ...]]
    alpha: Tuple[float, ...]
    sigma_eta: Tuple[float, ...]
    sigma_eps: float
    noise_kind: str = GAUSSIAN_NOISE
    label_switch_fraction: float = 0.0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.noise_kind not in (GAUSSIAN_NOISE, UNIFORM_NOISE):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if isinstance(self.R, int):
            if not 1 <= self.R <= self.L:
                raise ValueError("R must be between 1 and L")
        else:
            sizes = tuple(int(s) for s in self.R)
            if any(s < 1 for s in sizes) or sum(sizes) != self.L:
                raise ValueError("group sizes must be >= 1 and sum to L")
            object.__setattr__(self, "R", sizes)
        if any(s <= 0 for s in self.sigma_eta) or self.sigma_eps <= 0:
            raise ValueError("noise scales must be > 0")
        if not 0.0 <= self.label_switch_fraction < 1.0:
            raise ValueError("label_switch_fraction must be in [0, 1)")

    @property
    def input_dim(self) -> int:
        return len(self.sigma_eta)

    @property
    def n_groups(self) -> int:
        return self.R if isinstance(self.R, int) else len(self.R)


_PRESETS = {
    "A": dict(L=300, alpha=(0.0, 0.5), sigma_eta=(0.2,), sigma_eps=0.2),
    "B": dict(L=300, alpha=(0.0, 0.5), sigma_eta=(0.6,), sigma_eps=0.6),
    "C": dict(L=36, alpha=(0.0, 0.5), sigma_eta=(0.2,), sigma_eps=0.2),
    "D": dict(
        L=300,
        alpha=(0.0, 0.5),
        sigma_eta=(0.2,),
        sigma_eps=0.2,
        noise_kind=UNIFORM_NOISE,
    ),
    "plane": dict(L=1600, alpha=(0.0, 0.2, 0.4), sigma_eta=(0.2, 0.2), sigma_eps=0.2),
    "plane-switched": dict(
        L=1600,
        alpha=(0.0, 0.2, 0.4),
        sigma_eta=(0.2, 0.2),
        sigma_eps=0.2,
        label_switch_fraction=0.3,
    ),
    "cubic": dict(L=300, alpha=(0.0, 0.5, 0.0, -0.1), sigma_eta=(0.2,), sigma_eps=0.1),
}


def scenario_spec(name: str, R=None, **overrides) -> ScenarioSpec:
    """Build a preset ScenarioSpec; R defaults to L (fully paired)."""
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    params = dict(_PRESETS[name])
    params.update(overrides)
    if R is None:
        R = params["L"]
    return ScenarioSpec(name=name, R=R, **params)


def scenario_model(spec: ScenarioSpec) -> ParametricModel:
    """The model family a scenario's truth lives in."""
    if spec.name == "cubic":
        return ParametricModel.polynomial_1d(3)
    if spec.input_dim == 1:
        return ParametricModel.affine_1d()
    return ParametricModel.affine_kd(spec.input_dim)


def _chunk_sizes(spec: ScenarioSpec) -> list:
    """Sizes of the consecutive chunks of sorted scalar inputs, one per group."""
    L, R = spec.L, spec.R
    if not isinstance(R, int):
        return list(R)
    if spec.name == "cubic" and R < L:
        lost = L - R + 2
        s1 = lost // 2
        s2 = lost - s1
        start1 = max(L // 6 - s1 // 2, 0)
        start2 = min(5 * L // 6 - s2 // 2, L - s2)
        if start1 + s1 > start2:
            raise ValueError("cubic unpaired areas overlap; R too small for L")
        return [1] * start1 + [s1] + [1] * (start2 - start1 - s1) + [s2] + [1] * (L - start2 - s2)
    # np.array_split's sizes
    return [L // R + (g < L % R) for g in range(R)]


def _chunk_labels(order: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    """Group labels for sorted scalar inputs."""
    labels = np.empty(spec.L, dtype=int)
    start = 0
    for g, size in enumerate(_chunk_sizes(spec)):
        labels[order[start : start + size]] = g
        start += size
    return labels


def _tile_labels(x_true: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    """Spatial tiling of the input rectangle into R near-equal groups."""
    R = spec.R
    if not isinstance(R, int):
        raise ValueError("plane scenarios take an integer group count")
    a = 1
    for cand in range(int(math.isqrt(R)), 0, -1):
        if R % cand == 0:
            a = cand
            break
    b = R // a
    labels = np.empty(spec.L, dtype=int)
    band_order = np.argsort(x_true[:, 0], kind="stable")
    for i, band in enumerate(np.array_split(band_order, a)):
        tile_order = band[np.argsort(x_true[band, 1], kind="stable")]
        for j, tile in enumerate(np.array_split(tile_order, b)):
            labels[tile] = i * b + j
    return labels


def _switch_labels(labels: np.ndarray, spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Relabel ~fraction of points to uniformly random other groups."""
    R = spec.n_groups
    if R < 2:
        return labels
    labels = labels.copy()
    n_switch = int(round(spec.label_switch_fraction * labels.size))
    counts = np.bincount(labels, minlength=R)
    idx = rng.choice(labels.size, size=n_switch, replace=False)
    for i in idx:
        old = labels[i]
        if counts[old] <= 1:
            continue  # never empty a group
        new = int(rng.integers(0, R - 1))
        if new >= old:
            new += 1
        labels[i] = new
        counts[old] -= 1
        counts[new] += 1
    return labels


@dataclass(frozen=True, eq=False)
class ScenarioLatent:
    """Generation internals, exposed for diagnostics and tests."""

    x_true: np.ndarray
    y_true: np.ndarray
    input_noise: np.ndarray
    output_noise: np.ndarray
    labels: np.ndarray


def generate_scenario(spec: ScenarioSpec, rng: np.random.Generator, return_latent: bool = False):
    """Draw one grouped dataset; the truth parameters live in ``spec.alpha``.

    Draw order is fixed (inputs, input noise, output noise, relabeling), so
    the same spec and generator state reproduce the dataset exactly. With
    ``return_latent`` the noise-free internals come back alongside.
    """
    model = scenario_model(spec)
    alpha = np.asarray(spec.alpha, dtype=float)
    k = spec.input_dim
    x_true = rng.uniform(*_X_RANGE, (spec.L, k))
    y_true = model_eval_batch(model, alpha, x_true)
    sigma_eta = np.asarray(spec.sigma_eta, dtype=float)
    if spec.noise_kind == GAUSSIAN_NOISE:
        in_density = ErrorDensity.gaussian(sigma_eta)
        out_density = ErrorDensity.gaussian([spec.sigma_eps])
    else:
        in_density = ErrorDensity.uniform(math.sqrt(3.0) * sigma_eta)
        out_density = ErrorDensity.uniform([math.sqrt(3.0) * spec.sigma_eps])
    eta = density_sample(in_density, rng, spec.L)
    eps = density_sample(out_density, rng, spec.L)
    x_obs = x_true + eta
    y_obs = y_true + eps

    if k == 1:
        order = np.argsort(x_true[:, 0], kind="stable")
        labels = _chunk_labels(order, spec)
    else:
        labels = _tile_labels(x_true, spec)
    if spec.label_switch_fraction > 0.0:
        labels = _switch_labels(labels, spec, rng)

    ds = build_grouped(
        x_obs, y_obs, labels, labels, (in_density,) * spec.L, (out_density,) * spec.L
    )
    if return_latent:
        latent = ScenarioLatent(x_true, y_true, eta, eps, labels)
        return ds, latent
    return ds


@dataclass(frozen=True, eq=False)
class ReplicationReport:
    """Outcome of repeated generate-and-fit runs of one scenario."""

    spec: ScenarioSpec
    n_reps: int
    fits: List[FitResult]
    summary: ResidualSummary
    total_seconds: float
    failures: List[Tuple[int, str]]


def replicate(
    spec: ScenarioSpec,
    n_reps: int,
    objective_choice: str,
    int_cfg: IntegrationConfig,
    opt_cfg: OptimizerConfig,
    master_seed: int,
) -> ReplicationReport:
    """Generate and fit ``n_reps`` independent datasets of one scenario.

    Replication i draws its data from a child generator seeded by
    (master_seed, i); fits that raise are recorded as failures and skipped
    in the summary.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    model = scenario_model(spec)
    fits: List[FitResult] = []
    failures: List[Tuple[int, str]] = []
    t_start = time.perf_counter()
    truth = np.asarray(spec.alpha, dtype=float)
    for i in range(n_reps):
        rng = np.random.default_rng((master_seed, i))
        ds = generate_scenario(spec, rng)
        try:
            fits.append(fit(ds, model, objective_choice, int_cfg, opt_cfg))
        except Exception as exc:  # noqa: BLE001 - failures are data, not bugs
            failures.append((i, str(exc)))
    total = time.perf_counter() - t_start
    if not fits:
        raise ValueError(f"all {n_reps} replications failed; first: {failures[0][1]}")
    summary = residual_summary(fits, truth)
    return ReplicationReport(
        spec=spec,
        n_reps=n_reps,
        fits=fits,
        summary=summary,
        total_seconds=total,
        failures=failures,
    )
