"""Negative log-likelihood objectives for grouped errors-in-variables data.

The general objective treats each group as a pair of mixture densities, one
built from the observed inputs and one from the observed outputs, and scores
a parameter vector by a single integral per group:

    value = - sum_r log  integral  f_out_r(M(s; alpha)) * f_in_r(s) ds

where f_in_r is the equal-weight mixture of the group's input error
densities centered at its observed inputs (and f_out_r likewise on the
output side). Fully paired data (all groups singleton) recovers the
classical errors-in-variables likelihood; a single group is the completely
unpaired case where only the marginal distributions matter.

Every integration method is one contraction of per-group nodes s_i and
weights w_i, likelihood = sum_i w_i f_out_r(M(s_i; alpha)): a trapezoidal
tensor grid over the continuous input components (weights f_in_r times the
trapezoid weights), the centers of point-mass inputs (weights 1/H_r) or P
Monte Carlo draws from the input mixture (weights 1/P). Point-mass inputs
thus never reach numeric evaluation: their integral collapses to a function
evaluation (sifting), which is also how exact classical regression
objectives are recovered.

``nll_general`` and ``CompiledObjective.evaluate`` can override every
Gaussian scale with one global scale per coordinate; ``fit_extended`` fits them.

Closed forms for the Gaussian line/hyperplane and the uniform-interval line
avoid numeric integration entirely. The Gaussian closed forms omit one
additive constant, ``GAUSS_LOG_NORM_PER_GROUP`` per group, relative to
``nll_general`` (which keeps fully normalized densities); the interval
closed form keeps full normalization and matches ``nll_general`` exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import GroupedDataset
from .densities import GAUSSIAN, KINDS, POINT_MASS, UNIFORM
from .densities import _SQRT_2PI
from .models import ParametricModel, _check_alpha, model_eval_batch

QUADRATURE = "quadrature-grid"
MONTE_CARLO = "monte-carlo"

#: Additive constant, per group, by which the Gaussian closed forms differ
#: from nll_general: closed_form.value + R * GAUSS_LOG_NORM_PER_GROUP
#: equals the fully normalized objective.
GAUSS_LOG_NORM_PER_GROUP = 0.5 * math.log(2.0 * math.pi)

#: Grid nodes the compiled objective may cache over all groups together.
_MAX_DATASET_GRID_POINTS = 1 << 23

#: Doubles per temporary in _mixture_sum and _grid_mixture (a block of
#: (groups, components, nodes) terms, or a group batch's per-axis tables);
#: keeps one block of the mixture in cache instead of materializing it over
#: every node at once. Results do not depend on it.
_BLOCK = 1 << 16

#: Groups an underflow note names before it counts the rest.
_NOTE_GROUPS = 10


@dataclass(frozen=True)
class IntegrationConfig:
    """How to evaluate the per-group integrals of the general objective.

    ``grid_points_per_dim`` of None picks 201 for one-dimensional inputs and
    61 otherwise. ``grid_halfwidth_sigmas`` controls how far the grid
    extends beyond the mixture component centers, in units of the largest
    component scale per coordinate. Monte Carlo draws are seeded per group
    from (seed, group index), so results do not depend on evaluation order.
    """

    method: str = QUADRATURE
    mc_samples: int = 2000
    grid_points_per_dim: Optional[int] = None
    grid_halfwidth_sigmas: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in (QUADRATURE, MONTE_CARLO):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.mc_samples < 100:
            raise ValueError("mc_samples must be >= 100")
        g = self.grid_points_per_dim
        if g is not None and (g < 11 or g % 2 == 0):
            raise ValueError("grid_points_per_dim must be >= 11 and odd")
        h = self.grid_halfwidth_sigmas
        if not (math.isfinite(h) and h > 0):
            raise ValueError("grid_halfwidth_sigmas must be finite and > 0")

    def points_for_dim(self, input_dim: int) -> int:
        if self.grid_points_per_dim is not None:
            return self.grid_points_per_dim
        return 201 if input_dim == 1 else 61


@dataclass(frozen=True, eq=False)
class ObjectiveValue:
    """Objective total plus the per-group log-likelihood decomposition.

    ``value`` is exactly minus the sum of ``per_group_log``. A group whose
    likelihood underflows to zero contributes -inf and pushes the value to
    +inf (never NaN); ``note`` then names the offending groups: the first
    ten of them and a count of the rest.
    """

    value: float
    per_group_log: np.ndarray
    note: Optional[str] = None

    @staticmethod
    def from_group_logs(per_group_log: np.ndarray) -> "ObjectiveValue":
        per_group_log = np.asarray(per_group_log, dtype=float)
        value = float(-per_group_log.sum())
        note = None
        if not math.isfinite(value):
            bad = np.flatnonzero(np.isneginf(per_group_log))
            if bad.size:
                note = "likelihood underflow in groups " + str(bad[:_NOTE_GROUPS].tolist())
                if bad.size > _NOTE_GROUPS:
                    note += f" and {bad.size - _NOTE_GROUPS} more"
                value = math.inf
        per_group_log.flags.writeable = False
        return ObjectiveValue(value, per_group_log, note)


def _kind_constants(kind: str, centers: np.ndarray, scales: np.ndarray) -> tuple:
    """The alpha-invariant constants of one kind's component densities.

    centers and scales have shape (B, C, d). Returns (planes, inv_norm):
    planes holds one (origin, scale, center) triple per coordinate, and
    inv_norm (B, C) is one over each component's normaliser, the product
    over coordinates of sqrt(2 pi) sigma (Gaussian) or of twice the
    half-width (uniform). The origin is each group's first center, (B, 1, 1).
    A Gaussian plane holds 1/(sqrt(2) sigma) and the center measured from
    the origin and pre-scaled by it: measured from the origin, the scaled
    difference rounds at the size of the group's spread, not of the data's
    distance from zero. A uniform plane holds the half-width and the center.
    Scales and centers have shape (B, C, 1), but where every component of a
    group shares a coordinate's scale, that scale collapses to (B, 1, 1), so
    ``_kernel`` scales each node once instead of once per component.
    """
    gaussian = kind == GAUSSIAN
    inv_norm = 1.0 / np.prod(scales * (_SQRT_2PI if gaussian else 2.0), axis=-1)
    planes = []
    for j in range(centers.shape[2]):
        s, c = scales[:, :, j, None], centers[:, :, j, None]
        o = c[:, :1]
        if gaussian:
            s = 1.0 / (math.sqrt(2.0) * s)
            c = (c - o) * s
        if np.all(s == s[:, :1]):
            s = s[:, :1]
        planes.append((np.ascontiguousarray(o), np.ascontiguousarray(s), np.ascontiguousarray(c)))
    return planes, inv_norm


def _kernel(kind: str, planes: list, coords: list, out, tmp, node) -> np.ndarray:
    """Every component's density times its normaliser at every node, in out.

    planes comes from _kind_constants and coords holds one (B, 1, m) array of
    node coordinates per plane. out and tmp are (B, C, m) buffers (tmp is
    used only from the second coordinate on) and node a (B, 1, m) buffer. A
    Gaussian term is exp(-sum_j (center_j - scale_j (p_j - origin_j))^2), a
    uniform term 1.0 where every |center_j - p_j| <= h_j and 0.0 elsewhere.
    Coordinates are combined plane by plane, so no temporary has a
    coordinate axis.
    """
    gaussian = kind == GAUSSIAN
    for j, ((o, s, c), p) in enumerate(zip(planes, coords)):
        z = tmp if j else out
        if gaussian:
            # a collapsed scale scales each node once, not once per component
            sp = np.multiply(np.subtract(p, o, out=node), s, out=node if s.shape[1] == 1 else z)
            np.square(np.subtract(c, sp, out=z), out=z)
        else:
            np.less_equal(np.abs(np.subtract(c, p, out=z), out=z), s, out=z)
        if j:
            (np.add if gaussian else np.multiply)(out, z, out=out)
    if gaussian:
        np.exp(np.negative(out, out=out), out=out)
    return out


def _kind_columns(kinds) -> list:
    """(kind, component columns) for each Gaussian or uniform kind code in kinds."""
    parts = []
    for kind in (GAUSSIAN, UNIFORM):
        cols = np.flatnonzero(kinds == KINDS.index(kind)).tolist()
        if cols:
            parts.append((kind, cols))
    return parts


def _mixture_sum(centers, scales, parts, pts, ws=None) -> np.ndarray:
    """sum_c f_c(centers_c - pts) over the components listed in parts.

    centers and scales have shape (B, C, d), parts comes from _kind_columns
    and pts has shape (B, n, d); returns (B, n). All components of one kind
    are evaluated together by ``_kernel`` from the constants of
    ``_kind_constants``, whose scale has one entry per group where the
    group's components share it, and one einsum per kind applies the
    normalisers, adding each node's components in order. Point-mass
    components are never listed: they enter through the sifting nodes, not
    as a numeric density.

    The node axis is processed in blocks of about _BLOCK doubles per
    (B, C, nb) temporary. A block is never one node wide unless n is 1:
    einsum can sum a lone node's components in another order, so this
    keeps every node's sum bit-identical to the unblocked one.

    ``ws``, a dict, keeps the output, the block temporaries and each kind's
    compiled constants from one call to the next, so that calls with the
    same centers, parts and shapes allocate nothing. Its buffers are made
    on the first call and its constants again whenever ``scales`` is
    another array. The result is ws's own buffer, which the next call
    overwrites. Without ws every call allocates afresh. A caller may keep
    its own entries in ws under other keys, as ``CompiledObjective.evaluate``
    keeps the model values under "vals".
    """
    B, C, d = centers.shape
    n = pts.shape[1]
    nb = max(2, _BLOCK // (B * C))
    if ws is None:
        ws = {}
    if "out" not in ws:
        w = min(n, nb + 1)  # the widest block
        ws.update(
            out=np.empty((B, n)), acc=np.empty(B * C * w), tmp=np.empty(B * C * w * (d > 1)),
            node=np.empty(B * w), term=np.empty(B * w),
        )
    if ws.get("scales") is not scales:
        ws["scales"] = scales
        ws["kinds"] = [(kind, *_kind_constants(kind, centers[:, cols], scales[:, cols])) for kind, cols in parts]
    out = ws["out"]
    lo = 0
    while lo < n:
        hi = min(n, lo + nb)
        if n - hi == 1:
            hi = n
        m = hi - lo
        coords = [pts[:, None, lo:hi, j] for j in range(d)]
        node = ws["node"][: B * m].reshape(B, 1, m)
        for i, (kind, planes, inv_norm) in enumerate(ws["kinds"]):
            # contiguous (B, Cc, m) views of the buffers
            size = B * inv_norm.shape[1] * m
            acc = ws["acc"][:size].reshape(B, -1, m)
            tmp = ws["tmp"][:size].reshape(B, -1, m) if d > 1 else None
            terms = _kernel(kind, planes, coords, acc, tmp, node)
            if i:
                out[:, lo:hi] += np.einsum("bcn,bc->bn", terms, inv_norm, out=ws["term"][: B * m].reshape(B, m))
            else:
                np.einsum("bcn,bc->bn", terms, inv_norm, out=out[:, lo:hi])
        lo = hi
    return out


def _grid_mixture(centers, scales, parts, lin, grid_index) -> np.ndarray:
    """_mixture_sum at every node of each group's tensor grid, factored per axis.

    centers and scales have shape (B, C, k), parts comes from _kind_columns,
    lin (B, g, k) holds each group's grid coordinates along every axis and
    grid_index (g**k, k) gives the node order; returns (B, g**k), equal to
    _mixture_sum on the materialized nodes up to rounding.

    A product density on a tensor grid factors into per-axis tables
    f_cd(lin[:, :, d]) of shape (C, g) (Wand, JCGS 3, 1994), so the sum is
    sum_c prod_d f_cd: g*k densities per component instead of g**k. Each
    table comes from the same ``_kernel`` and compiled constants as
    ``_mixture_sum``, one coordinate at a time; the whole normaliser goes on
    the last axis's table. Groups are batched so that their k tables fit in
    about _BLOCK doubles.
    """
    B, g, k = lin.shape
    lines = grid_index[::g, :-1]  # leading-axis indices of each grid line
    out = np.zeros((B, len(lines), g))
    for kind, cols in parts:
        nb = max(1, _BLOCK // (len(cols) * g * k))
        for b0 in range(0, B, nb):
            grp = slice(b0, b0 + nb)
            _add_grid_products(centers[grp, cols], scales[grp, cols], kind, lin[grp], lines, out[grp])
    return out.reshape(B, -1)


def _add_grid_products(centers, scales, kind, lin, lines, out) -> None:
    """Add sum_c prod_d f_cd(node_d) over components of one kind to out.

    centers and scales have shape (B, C, k), lin (B, g, k), lines (L, k - 1)
    holds the leading-axis indices of the grid lines and out has shape
    (B, L, g). The leading axes' tables are multiplied along a block of lines
    (their Khatri-Rao product), then contracted over c with the last axis's
    table; blocks are sized so that each holds about _BLOCK doubles. The
    contraction is an einsum, not a BLAS call: every node adds its
    components in order, so the result depends neither on _BLOCK nor on the
    BLAS thread count.
    """
    planes, inv_norm = _kind_constants(kind, centers, scales)
    B, C, k = centers.shape
    g = lin.shape[1]
    node = np.empty((B, 1, g))
    tables = [
        _kernel(kind, [plane], [lin[:, None, :, d]], np.empty((B, C, g)), None, node)
        for d, plane in enumerate(planes)
    ]
    tables[-1] *= inv_norm[:, :, None]
    m = max(1, _BLOCK // (B * max(C, g)))
    for lo in range(0, len(lines), m):
        block = lines[lo : lo + m]
        lead = tables[0][:, :, block[:, 0]] if len(tables) > 1 else np.ones((B, C, 1))
        for d in range(1, len(tables) - 1):
            lead *= tables[d][:, :, block[:, d]]
        out[:, lo : lo + m] += np.einsum("bcl,bcj->blj", lead, tables[-1])


def _gather(points, scales, kinds, offsets, rows) -> tuple:
    """(B, n, dim) points and scales of the n-point groups ``rows``, and their n kind codes."""
    start = offsets[rows]
    n = offsets[rows[0] + 1] - start[0]
    idx = start[:, None] + np.arange(n)
    return points[idx], scales[idx], kinds[start[0] : start[0] + n]


def _buckets(ds: GroupedDataset) -> list:
    """Groups sharing per-point density kinds on both sides (hence H and L),
    as (rows, inputs, outputs) in first-seen order; each side is gathered."""
    in_kinds, out_kinds = ds.input_kinds.tobytes(), ds.output_kinds.tobytes()
    io, oo = ds.input_offsets.tolist(), ds.output_offsets.tolist()
    keyed = {}
    for r in range(ds.n_groups):
        key = (in_kinds[io[r] : io[r + 1]], out_kinds[oo[r] : oo[r + 1]])
        keyed.setdefault(key, []).append(r)
    return [
        (rows, _gather(ds.inputs, ds.input_scales, ds.input_kinds, ds.input_offsets, rows),
         _gather(ds.outputs, ds.output_scales, ds.output_kinds, ds.output_offsets, rows))
        for rows in map(np.asarray, keyed.values())
    ]


def _check_model_dims(ds: GroupedDataset, model: ParametricModel) -> None:
    """Raise unless the model maps the dataset's input space to its output space."""
    if model.input_dim != ds.input_dim or model.output_dim != ds.output_dim:
        raise ValueError(
            f"model maps R^{model.input_dim} -> R^{model.output_dim}, "
            f"dataset has input_dim={ds.input_dim}, output_dim={ds.output_dim}"
        )


def _group_of(offsets, row) -> int:
    """The group holding flat row ``row``."""
    return int(np.searchsorted(offsets, row, side="right")) - 1


class _Bucket:
    """One bucket of groups from _buckets, stacked for array math."""

    def __init__(self, rows, inputs, outputs):
        self.idx = rows
        # (B, H, k) and (B, L, m); point-mass columns get scale 0
        self.x, self.xscale, self.in_kinds = inputs
        self.y, self.yscale, self.out_kinds = outputs
        point_mass = self.in_kinds == KINDS.index(POINT_MASS)
        self.cont_cols = np.flatnonzero(~point_mass).tolist()
        self.pm_cols = np.flatnonzero(point_mass).tolist()
        self.in_parts = _kind_columns(self.in_kinds)
        self.out_parts = _kind_columns(self.out_kinds)


class CompiledObjective:
    """Reusable evaluator of the general grouped objective.

    Every integration method reduces to nodes s_i with weights w_i per
    group: the grid (weights f_in times the trapezoid weights), point-mass
    centers (weights 1/H, sifting) or Monte Carlo draws from the input
    mixture (weights 1/P). ``evaluate`` contracts them the same way for all
    three, likelihood = sum_i w_i f_out(M(s_i; alpha)).

    Compiling once and evaluating many times is what the optimizer does;
    ``nll_general`` is the one-shot convenience wrapper. Evaluation is a
    pure function of (dataset, alpha, config): Monte Carlo draws are fixed
    at compile time from (config seed, group index).

    The nodes and their weights, including the input mixture f_in at every
    grid node, do not depend on alpha, so compiling computes them once; an
    evaluation costs only the model at the nodes and the output mixture.
    ``_nodes`` builds each bucket's grid, and only under quadrature: a Monte
    Carlo compile computes no grid size, budget or node table. f_in is a
    sum of product densities and the grid is a tensor grid, so f_in at the
    g^k nodes of a group comes from g*k densities per component
    (``_grid_mixture``) and compiling is cheap next to one evaluation.

    ``evaluate``'s ``input_scales`` / ``output_scales`` overrides replace
    the scales of every Gaussian density (one finite scale > 0 per
    coordinate, globally); other density kinds are unaffected. An
    ``input_scales`` override changes f_in, so it rebuilds the nodes on
    every call; that adds the cost of one compile to each evaluation of
    ``fit_extended``. Monte Carlo keeps only its nodes and redraws them from
    the same seeds for such an override.

    The output mixture's alpha-invariant constants are compiled once per
    density kind (``_kind_constants``), so a Gaussian term costs a subtract,
    a square, a negate and an exp. Where a group's output components share
    one scale, as in every simulated scenario and the bundled table, that
    scale is stored once per group and each node is scaled once, not once
    per component. ``_grid_mixture``'s input tables use the same kernel.

    Evaluations reuse per-bucket buffers: the model values, the output
    mixture's block temporaries, its result and its constants. The first
    ``evaluate`` makes them, sized from each bucket's shapes (the constants
    again for each ``output_scales`` override), and they live as long as
    the compiled objective, so repeated evaluations neither allocate nor
    page-fault. Results never alias them: each ``ObjectiveValue`` owns its
    ``per_group_log``. Because the buffers are shared, one compiled
    objective must not be evaluated from two threads at once.
    """

    def __init__(self, ds: GroupedDataset, model: ParametricModel, cfg: IntegrationConfig):
        _check_model_dims(ds, model)
        pm_rows = np.flatnonzero(ds.output_kinds == KINDS.index(POINT_MASS))
        if pm_rows.size:
            raise ValueError(
                f"group {_group_of(ds.output_offsets, pm_rows[0])} has a point-mass "
                "output density; the output mixture cannot be evaluated (sifting "
                "applies to inputs only)"
            )
        self.ds = ds
        self.model = model
        self.cfg = cfg
        self.n_groups = ds.n_groups
        self.buckets = [_Bucket(*bucket) for bucket in _buckets(ds)]
        if cfg.method == QUADRATURE:
            k = ds.input_dim
            g = cfg.points_for_dim(k)
            # every group with a continuous input caches a grid of g^k nodes
            gridded = sum(b.x.shape[0] for b in self.buckets if b.cont_cols)
            if gridded * g**k > _MAX_DATASET_GRID_POINTS:
                raise ValueError(
                    f"{g} points per dim in {k} dims for {gridded} groups exceeds the "
                    "grid budget; reduce grid_points_per_dim or use the monte-carlo method"
                )
        # the nodes and input-mixture weights do not depend on alpha; each
        # node set's evaluation buffers are made by the first evaluate
        for b in self.buckets:
            b.nodes = self._nodes(b, b.xscale)
            b.ws = [{} for _ in b.nodes]

    # -- scale overrides ---------------------------------------------------

    @staticmethod
    def _checked_override(override, dim: int, side: str):
        """The override as a float vector of shape (dim,); None passes through."""
        if override is None:
            return None
        v = np.asarray(override, dtype=float)
        if v.shape != (dim,) or not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError(
                f"{side}_scales must hold {dim} finite scales > 0, got {v.tolist()}"
            )
        return v

    @staticmethod
    def _effective_scales(scales, kinds, override):
        if override is None:
            return scales
        return np.where((kinds == KINDS.index(GAUSSIAN))[:, None], override, scales)

    # -- evaluation --------------------------------------------------------

    def _nodes(self, b: _Bucket, xscale) -> list:
        """(points (B, n, k), weights) pairs integrating against f_in.

        The weights are arrays that broadcast against (B, n). Point-mass
        inputs never reach numeric evaluation: they are nodes at their
        centers (sifting).
        """
        B, H, k = b.x.shape
        if self.cfg.method == MONTE_CARLO:
            # the mixture is sampled whole, from component choices and unit
            # draws seeded by (config seed, group index): point-mass
            # components simply land exactly on their centers (zero scale)
            P = self.cfg.mc_samples
            gaussian = b.in_kinds == KINDS.index(GAUSSIAN)
            pts = np.empty((B, P, k))
            for j, r in enumerate(b.idx):
                rng = np.random.default_rng((self.cfg.seed, int(r)))
                comp = rng.integers(0, H, P)
                zn = rng.standard_normal((P, k))
                zu = rng.uniform(-1.0, 1.0, (P, k))
                pts[j] = b.x[j, comp] - xscale[j, comp] * np.where(gaussian[comp][:, None], zn, zu)
            return [(pts, np.full((1, 1), 1.0 / P))]
        nodes = []
        if b.cont_cols:
            g = self.cfg.points_for_dim(k)
            pad = self.cfg.grid_halfwidth_sigmas * xscale[:, b.cont_cols, :].max(axis=1)
            c = b.x[:, b.cont_cols, :]
            lo = c.min(axis=1) - pad  # (B, k)
            hi = c.max(axis=1) + pad
            t = np.linspace(0.0, 1.0, g)
            lin = lo[:, None, :] + (hi - lo)[:, None, :] * t[None, :, None]
            gi = np.indices((g,) * k).reshape(k, -1).T  # node order, (g^k, k)
            fx = _grid_mixture(b.x, xscale, b.in_parts, lin, gi)
            fx /= H
            trap = np.ones(g)
            trap[0] = trap[-1] = 0.5
            step = (hi - lo) / (g - 1)
            w = step.prod(axis=1)[:, None] * np.prod(trap[gi], axis=1)[None, :]
            w *= fx
            nodes.append((lin[:, gi, np.arange(k)], w))  # points (B, g^k, k)
        if b.pm_cols:
            nodes.append((b.x[:, b.pm_cols, :], np.full((1, 1), 1.0 / H)))
        return nodes

    def evaluate(self, alpha, input_scales=None, output_scales=None) -> ObjectiveValue:
        input_scales = self._checked_override(input_scales, self.ds.input_dim, "input")
        output_scales = self._checked_override(output_scales, self.ds.output_dim, "output")
        per_group = np.empty(self.n_groups)
        for b in self.buckets:
            nodes = b.nodes
            if input_scales is not None:
                xscale = self._effective_scales(b.xscale, b.in_kinds, input_scales)
                nodes = self._nodes(b, xscale)
            yscale = self._effective_scales(b.yscale, b.out_kinds, output_scales)
            lik = 0.0
            for (pts, w), ws in zip(nodes, b.ws):
                B, n, k = pts.shape
                ws["vals"] = vals = model_eval_batch(self.model, alpha, pts.reshape(B * n, k), ws.get("vals"))
                fy = _mixture_sum(b.y, yscale, b.out_parts, vals.reshape(B, n, -1), ws)
                # sum_i w_i f_out(s_i) per group, off BLAS; the mixture's
                # 1/L is applied once per group, not once per node
                lik = lik + np.einsum("bn,bn->b", fy, w)
            with np.errstate(divide="ignore"):
                per_group[b.idx] = np.log(lik / b.y.shape[1])
        return ObjectiveValue.from_group_logs(per_group)

    def __call__(self, alpha) -> float:
        return self.evaluate(alpha).value


def nll_general(
    ds: GroupedDataset, model: ParametricModel, cfg: IntegrationConfig, alpha,
    input_scales=None, output_scales=None,
) -> ObjectiveValue:
    """General grouped mixture objective (one-shot; see CompiledObjective).

    ``input_scales`` / ``output_scales`` optionally replace the scales of
    every Gaussian density, as in ``CompiledObjective.evaluate``.
    """
    return CompiledObjective(ds, model, cfg).evaluate(alpha, input_scales, output_scales)


# -- shared-scale extraction ------------------------------------------------


def shared_gaussian_scales(ds: GroupedDataset) -> tuple:
    """Shared per-coordinate Gaussian scales (input vector, output vector).

    Raises if any density is not Gaussian or scales differ across points;
    the closed-form Gaussian objectives require this homogeneity.
    """
    def shared(kinds, scales, side):
        other = kinds[kinds != KINDS.index(GAUSSIAN)]
        if other.size:
            raise ValueError(
                f"{side} densities must all be gaussian-diagonal, found {KINDS[other[0]]}"
            )
        if not np.all(scales == scales[0]):
            raise ValueError(f"{side} densities must share one scale vector")
        return scales[0].copy()

    eta = shared(ds.input_kinds, ds.input_scales, "input")
    eps = shared(ds.output_kinds, ds.output_scales, "output")
    return eta, eps


# -- Gaussian closed forms ----------------------------------------------------


class CompiledGaussianPlane:
    """Closed-form grouped objective for an affine model with Gaussian errors.

    Exploits the Gaussian convolution identity: each input/output
    combination contributes a Gaussian in the combined residual with
    variance V = sum_n alpha_{n+1}^2 sigma_eta_n^2 + sigma_eps^2. Values
    omit GAUSS_LOG_NORM_PER_GROUP per group (see module docstring). Where V
    overflows, every group's likelihood is zero and the value is +inf.

    Each bucket keeps one (B, H, L) buffer that every evaluation overwrites,
    so repeated evaluations neither allocate it nor page-fault. Results
    never alias it: each ``ObjectiveValue`` owns its ``per_group_log``.
    Because the buffer is shared, one compiled objective must not be
    evaluated from two threads at once.
    """

    def __init__(self, ds: GroupedDataset, sigma_eta, sigma_eps: float):
        if ds.output_dim != 1:
            raise ValueError("closed form requires a single output coordinate")
        sigma_eta = np.atleast_1d(np.asarray(sigma_eta, dtype=float))
        if sigma_eta.shape != (ds.input_dim,):
            raise ValueError(
                f"sigma_eta has shape {sigma_eta.shape}, expected ({ds.input_dim},)"
            )
        if not (np.all((sigma_eta > 0) & (sigma_eta < math.inf)) and 0 < sigma_eps < math.inf):
            raise ValueError("sigmas must be finite and > 0")
        self.sigma_eta = sigma_eta
        self.sigma_eps = np.float64(sigma_eps)  # its square overflows to inf, not OverflowError
        self.n_groups = ds.n_groups
        self.buckets = []
        for rows, (x, _, _), (y, _, _) in _buckets(ds):
            B, H, L = len(rows), x.shape[1], y.shape[1]
            self.buckets.append((rows, x, y[:, :, 0], math.log(H * L), np.empty((B, H, L))))

    def evaluate(self, alpha) -> ObjectiveValue:
        alpha = _check_alpha(self.sigma_eta.size + 1, alpha)
        slopes = alpha[1:]
        per_group = np.empty(self.n_groups)
        # V and the squared residuals may overflow to inf, and a likelihood
        # of zero gives log 0 = -inf
        with np.errstate(over="ignore", divide="ignore"):
            v = float(np.sum(slopes**2 * self.sigma_eta**2) + self.sigma_eps**2)
            if v == math.inf:
                # a density of infinite variance is zero everywhere
                per_group.fill(-math.inf)
                return ObjectiveValue.from_group_logs(per_group)
            for rows, x, y, log_hl, u in self.buckets:
                pred = alpha[0] + x @ slopes  # (B, H)
                # u = d^2 / (2V) is minus each combination's exponent; IEEE
                # negation and division commute exactly, so umin - u is bit
                # for bit the e - max(e) of e = -d^2 / (2V). log - umin rather
                # than -umin + log keeps the sign bit of a NaN result as well
                np.subtract(pred[:, :, None], y[:, None, :], out=u)
                np.divide(np.square(u, out=u), 2.0 * v, out=u)
                umin = u.min(axis=(1, 2))
                # where every u of a group is inf its likelihood is zero: a
                # shift by the largest double, not by inf, makes each term
                # exp(-inf) = 0 instead of exp(inf - inf) = NaN
                shift = np.minimum(umin, sys.float_info.max)
                total = np.exp(np.subtract(shift[:, None, None], u, out=u), out=u).sum(axis=(1, 2))
                lse = np.log(total) - umin
                per_group[rows] = lse - log_hl - 0.5 * math.log(v)
        return ObjectiveValue.from_group_logs(per_group)

    def __call__(self, alpha) -> float:
        return self.evaluate(alpha).value


def nll_gaussian_line(
    ds: GroupedDataset, sigma_eta: float, sigma_eps: float, alpha
) -> ObjectiveValue:
    """Closed-form objective for the 1-d line with shared Gaussian errors.

    For fully paired data the value is exactly
    (L/2) log(alpha_2^2 sigma_eta^2 + sigma_eps^2) + sum_l d_l^2 / (2 V)
    with d_l the line residuals; no hidden constants beyond the omitted
    GAUSS_LOG_NORM_PER_GROUP per group.
    """
    if ds.input_dim != 1:
        raise ValueError("line closed form requires scalar inputs")
    return CompiledGaussianPlane(ds, [sigma_eta], sigma_eps).evaluate(alpha)


def nll_gaussian_hyperplane(
    ds: GroupedDataset, sigma_eta, sigma_eps: float, alpha
) -> ObjectiveValue:
    """Closed-form objective for the affine hyperplane with Gaussian errors."""
    return CompiledGaussianPlane(ds, sigma_eta, sigma_eps).evaluate(alpha)


# -- interval (uniform) closed form -------------------------------------------


class CompiledIntervalLine:
    """Closed-form objective for the 1-d line with uniform-box errors.

    Each input is an interval [x - v, x + v], each output an interval
    [y - w, y + w]. A combination's likelihood is the length of the input
    slab mapped through the line that lands inside the output interval,
    normalized by (2v)(2w), i.e. (1 / (4 v w)) * overlap. Values keep full
    normalization and equal nll_general exactly (up to quadrature error).

    Compiling computes the alpha-invariant factors once: -v and the
    normalizer 4 v w of every combination. Each bucket keeps two (B, H, L)
    buffers that every evaluation overwrites, so repeated evaluations
    neither allocate them nor page-fault. Results never alias them: each
    ``ObjectiveValue`` owns its ``per_group_log``. Because the buffers are
    shared, one compiled objective must not be evaluated from two threads at
    once.
    """

    A2_TOL = 1e-12

    def __init__(self, ds: GroupedDataset):
        if ds.input_dim != 1 or ds.output_dim != 1:
            raise ValueError("interval closed form requires scalar inputs and outputs")
        for kinds, offsets in ((ds.input_kinds, ds.input_offsets), (ds.output_kinds, ds.output_offsets)):
            rows = np.flatnonzero(kinds != KINDS.index(UNIFORM))
            if rows.size:
                raise ValueError(
                    f"group {_group_of(offsets, rows[0])} has a {KINDS[kinds[rows[0]]]} "
                    "density; interval closed form requires uniform-box errors on both sides"
                )
        self.n_groups = ds.n_groups
        self.buckets = []
        for rows, (x, v, _), (y, w, _) in _buckets(ds):
            w = w[:, :, 0]  # (B, L); x and v are (B, H, 1)
            norm = 4.0 * v * w[:, None, :]  # (B, H, L)
            self.buckets.append((rows, x, v, -v, y[:, :, 0], w, norm, np.empty_like(norm), np.empty_like(norm)))

    def evaluate(self, alpha) -> ObjectiveValue:
        a1, a2 = _check_alpha(2, alpha).tolist()
        per_group = np.empty(self.n_groups)
        for rows, x, v, neg_v, yb, w, norm, hi, lo in self.buckets:
            if abs(a2) < self.A2_TOL * (1.0 + abs(a1)):
                # constant model: input interval is irrelevant
                terms = (np.abs(yb - a1) <= w) / (2.0 * w)  # (B, L)
                lik = terms.mean(axis=1)
            else:
                shift = (a1 - yb[:, None, :]) / a2  # (B, 1, L)
                half = w[:, None, :] / abs(a2)
                center = np.add(x, shift, out=hi)  # (B, H, L)
                np.subtract(center, half, out=lo)
                np.add(center, half, out=hi)
                overlap = np.subtract(np.minimum(v, hi, out=hi), np.maximum(neg_v, lo, out=lo), out=hi)
                np.maximum(overlap, 0.0, out=overlap)
                lik = np.divide(overlap, norm, out=overlap).mean(axis=(1, 2))
            with np.errstate(divide="ignore"):
                per_group[rows] = np.log(lik)
        return ObjectiveValue.from_group_logs(per_group)

    def __call__(self, alpha) -> float:
        return self.evaluate(alpha).value


def likelihood_interval_line(ds: GroupedDataset, alpha) -> ObjectiveValue:
    """Exact negative log-likelihood for the line under uniform-box errors."""
    return CompiledIntervalLine(ds).evaluate(alpha)
