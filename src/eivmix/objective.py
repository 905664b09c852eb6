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

Closed forms for the affine model with Gaussian errors and for the line
with uniform-box errors avoid numeric integration entirely. The Gaussian
closed form omits ``GAUSS_LOG_NORM_PER_GROUP`` = 1/2 log(2 pi) ~ 0.9189 per
group relative to ``nll_general`` (which keeps fully normalized densities);
the interval closed form keeps full normalization and matches it exactly.

The three compiled objectives (``CompiledObjective``,
``CompiledGaussianPlane``, ``CompiledIntervalLine``) share one contract,
kept in their base ``_Compiled``: compile once, bucketing the groups that
share per-point density kinds; ``evaluate(alpha)`` returns an
``ObjectiveValue`` and a call returns its value. Compiling runs one gate,
``_check_kinds``, on the density kinds each class declares in ``_kinds``:
it rejects the kinds an objective cannot take, naming the first offending
group, its side and its kind.
"""

from __future__ import annotations

import math
import os
import queue
import sys
import threading
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .dataset import GroupedDataset
from .densities import GAUSSIAN, KINDS, POINT_MASS, UNIFORM
from .models import ParametricModel, _check_alpha, model_eval_batch

QUADRATURE = "quadrature-grid"
MONTE_CARLO = "monte-carlo"

#: Additive constant, per group, by which the Gaussian closed forms differ
#: from nll_general: closed_form.value + R * GAUSS_LOG_NORM_PER_GROUP
#: equals the fully normalized objective.
GAUSS_LOG_NORM_PER_GROUP = 0.5 * math.log(2.0 * math.pi)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

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


def _pairwise(left, right, out) -> np.ndarray:
    """a + s b at every (i, j) pair, into out (B, I, J), as one batched matmul.

    left is [a, s] (B, I, 2) with s = 1 or -1, and right is [1; b] (B, 2, J).
    Each element is a*1 + s*b: both products are exact and one IEEE addition
    rounds, so whatever the BLAS kernel's order, FMA use or thread count, the
    result equals ``np.add(a, s * b)`` bit for bit, except perhaps the sign
    of an exact zero. A GEMM writes its output from operands that stay in
    cache (Goto and van de Geijn, ACM TOMS 34, 2008), which numpy's
    broadcast iterator over (B, I, J) does not: on a (4, 400, 40) block the
    product takes a quarter of the time of the broadcast subtraction. Where
    I or J is 1, numpy coalesces the broadcast into one loop, which the
    product does not beat, so callers keep the ufunc there: a bucket with
    one component, one input or one output. OpenBLAS may raise a spurious
    invalid-value flag where an operand holds +-inf, though every value is
    right; hence the errstate.
    """
    with np.errstate(invalid="ignore"):
        return np.matmul(left, right, out=out)


def _kind_constants(kind: str, centers: np.ndarray, scales: np.ndarray) -> tuple:
    """The alpha-invariant constants of one kind's component densities.

    centers and scales have shape (B, C, d). Returns (planes, inv_norm):
    planes holds one (origin, scale, center, pair) tuple per coordinate, and
    inv_norm (B, C) is one over each component's normaliser, the product
    over coordinates of sqrt(2 pi) sigma (Gaussian) or of twice the
    half-width (uniform). The origin is each group's first center, (B, 1, 1).
    A Gaussian plane holds 1/(sqrt(2) sigma) and the center measured from
    the origin and pre-scaled by it: measured from the origin, the scaled
    difference rounds at the size of the group's spread, not of the data's
    distance from zero. A uniform plane holds the half-width and the center.
    Scales and centers have shape (B, C, 1), but where every component of a
    group shares a coordinate's scale, that scale collapses to (B, 1, 1), so
    ``_kernel`` scales each node once instead of once per component, and to
    (1, 1, 1) where every group of the bucket shares it too. Where C is 1,
    an inv_norm that every group shares is one float instead. A per-group
    operand costs a numpy loop per group, a bucket-wide one a single loop
    over the block; the values are the same.
    pair is ``_pairwise``'s left operand [center, -1] (B, C, 2) where
    ``_kernel`` forms center - node as a product: a uniform plane, or a
    Gaussian one with a collapsed scale, of more than one component.
    Otherwise it is None.
    """
    gaussian = kind == GAUSSIAN
    inv_norm = 1.0 / np.prod(scales * (_SQRT_2PI if gaussian else 2.0), axis=-1)
    if inv_norm.shape[1] == 1 and np.all(inv_norm == inv_norm[0]):
        inv_norm = float(inv_norm[0, 0])
    planes = []
    for j in range(centers.shape[2]):
        s, c = scales[:, :, j, None], centers[:, :, j, None]
        o = c[:, :1]
        if gaussian:
            s = 1.0 / (math.sqrt(2.0) * s)
            c = (c - o) * s
        if np.all(s == s[:1, :1]):
            s = s[:1, :1]
        elif np.all(s == s[:, :1]):
            s = s[:, :1]
        pair = None
        if c.shape[1] > 1 and (s.shape[1] == 1 or not gaussian):
            pair = np.concatenate([c, np.full_like(c, -1.0)], axis=2)
        planes.append((np.ascontiguousarray(o), np.ascontiguousarray(s), np.ascontiguousarray(c), pair))
    return planes, inv_norm


def _kernel(kind: str, planes: list, coords: list, out, tmp, node) -> np.ndarray:
    """Every component's density times its normaliser at every node, in out.

    planes comes from _kind_constants and coords holds one (B, 1, m) array of
    node coordinates per plane. out and tmp are (B, C, m) buffers (tmp is
    used only from the second coordinate on). node is a (B, 1, m) buffer, or
    (B, 2, m) with a first row of ones where a plane has a pair: its last row
    takes each node's (scaled) coordinate, and the whole of it is then
    ``_pairwise``'s right operand [1; node]. A Gaussian term is
    exp(-sum_j (center_j - scale_j (p_j - origin_j))^2), a uniform term 1.0
    where every |center_j - p_j| <= h_j and 0.0 elsewhere. Coordinates are
    combined plane by plane, so no temporary has a coordinate axis. Each
    Gaussian coordinate costs a difference, a square and, with the exp, a
    negation; the difference is a two-column product wherever both the
    component and the node axis are longer than 1. A one-component Gaussian
    plane's center is its own origin, so center_j is exactly 0 and its
    difference is -scale_j (p_j - origin_j): that product is written straight
    into the term buffer and squared in place, the same square, NaN
    included, without the node row and the subtraction.
    """
    gaussian = kind == GAUSSIAN
    row = node[:, -1:]
    for j, ((o, s, c, pair), p) in enumerate(zip(planes, coords)):
        z = tmp if j else out
        product = pair is not None and row.shape[2] > 1
        lone = gaussian and c.shape[1] == 1
        if lone:
            # the one center is the origin: c - (p - o) s = -(p - o) s, of equal square
            np.multiply(np.subtract(p, o, out=z), s, out=z)
        elif gaussian:
            # a collapsed scale scales each node once, not once per component
            p = np.multiply(np.subtract(p, o, out=row), s, out=row if s.shape[1] == 1 else z)
        elif product:
            row[...] = p
        if product:
            _pairwise(pair, node, z)
        elif not lone:
            np.subtract(c, p, out=z)
        if gaussian:
            np.square(z, out=z)
        else:
            np.less_equal(np.abs(z, out=z), s, out=z)
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
    normalisers, adding each node's components in order. Where a kind's
    normaliser is one float (one component, every group's the same), a
    multiply applies it: the einsum would add t n to 0, which is exactly
    t n. Point-mass components are never listed: they enter through the
    sifting nodes, not as a numeric density.

    The node axis is processed in blocks of about _BLOCK doubles per
    (B, C, nb) temporary. A block is never one node wide unless n is 1:
    einsum can sum a lone node's components in another order, so this
    keeps every node's sum bit-identical to the unblocked one.

    ``ws``, a dict, keeps the output, the block temporaries and each kind's
    compiled constants from one call to the next, so that calls with the
    same centers, parts and shapes allocate nothing. Its buffers are made
    on the first call and its constants again whenever ``scales`` is
    another array. Where C > 1 the node buffer carries ``_kernel``'s row of
    ones, written once with the buffer. The result is ws's own buffer, which the next call
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
            node=np.ones((B, 1 + (C > 1), w)), term=np.empty(B * w),
        )
    if ws.get("scales") is not scales:
        ws["scales"] = scales
        ws["kinds"] = [_kind_constants(kind, centers[:, cols], scales[:, cols]) for kind, cols in parts]
    out = ws["out"]
    lo = 0
    while lo < n:
        hi = min(n, lo + nb)
        if n - hi == 1:
            hi = n
        m = hi - lo
        coords = [pts[:, None, lo:hi, j] for j in range(d)]
        node = ws["node"][:, :, :m]
        for i, ((kind, cols), (planes, inv_norm)) in enumerate(zip(parts, ws["kinds"])):
            # contiguous (B, Cc, m) views of the buffers
            size = B * len(cols) * m
            acc = ws["acc"][:size].reshape(B, -1, m)
            tmp = ws["tmp"][:size].reshape(B, -1, m) if d > 1 else None
            terms = _kernel(kind, planes, coords, acc, tmp, node)
            dst = ws["term"][: B * m].reshape(B, m) if i else out[:, lo:hi]
            if np.ndim(inv_norm) == 0:
                np.multiply(terms[:, 0], inv_norm, out=dst)
            else:
                np.einsum("bcn,bc->bn", terms, inv_norm, out=dst)
            if i:
                out[:, lo:hi] += dst
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
    node = np.ones((B, 1 + (C > 1), g))
    tables = [
        _kernel(kind, [plane], [lin[:, None, :, d]], np.empty((B, C, g)), None, node)
        for d, plane in enumerate(planes)
    ]
    tables[-1] *= np.expand_dims(inv_norm, -1)
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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS: every CPU
        return os.cpu_count() or 1


def _settle(i, task, claim, out, wake) -> None:
    """Run job i unless another thread has claimed it: out[i] becomes
    (result, exception), then wake gets i."""
    if claim.acquire(False):
        try:
            out[i] = (task(), None)
        except BaseException as error:  # the caller re-raises it
            out[i] = (None, error)
        wake.put(i)


def _serve(todo) -> None:
    """A worker's loop: settle each job from todo until a None, which it passes on."""
    for job in iter(todo.get, None):
        _settle(*job)
    todo.put(None)


class _Workers:
    """Daemon threads that run one evaluation's tasks beside the caller.

    ``run(tasks)`` returns the results of the zero-argument tasks, in order.
    The workers take every task but the first from one shared queue, in
    order. The caller runs the first, then any that no worker has started,
    then waits for the rest. Whichever thread starts a job first claims it
    with a non-blocking lock. Each ``run`` has its own result list and
    wake-up queue, so no call reads another's result.

    ``run`` returns or raises only once every job has finished. The caller
    waits until the result list is full, not for a count of wake-ups, so a
    wake-up lost to an interrupt can neither end the wait early nor make it
    endless. An interrupt that arrives while the caller runs or waits is
    raised after that; otherwise the first exception in task order is
    re-raised on the caller's thread.

    The threads hold the job queue, not the owner: once the owner drops this
    object, a None on the queue stops them one after another. Threads do not
    survive a fork, so the owner makes new ones where ``pid`` is not its own.
    """

    def __init__(self, n: int):
        self.pid = os.getpid()
        self.todo = queue.SimpleQueue()
        for _ in range(n):
            threading.Thread(target=_serve, args=(self.todo,), name="eivmix-worker", daemon=True).start()
        weakref.finalize(self, self.todo.put, None)

    def run(self, tasks) -> list:
        out, wake = [None] * len(tasks), queue.SimpleQueue()
        jobs = [(i, task, threading.Lock(), out, wake) for i, task in enumerate(tasks)]
        interrupt = None
        try:
            for job in jobs[1:]:
                self.todo.put(job)
        except BaseException as error:  # the caller runs what it did not hand out
            interrupt = error
        while None in out:
            try:
                for job in jobs:
                    _settle(*job)
                if None in out:
                    wake.get()
            except BaseException as error:
                interrupt = interrupt or error
        if interrupt is not None:
            raise interrupt
        for _, error in out:
            if error is not None:
                raise error
        return [result for result, _ in out]


def _check_model_dims(ds: GroupedDataset, model: ParametricModel) -> None:
    """Raise unless the model maps the dataset's input space to its output space."""
    if model.input_dim != ds.input_dim or model.output_dim != ds.output_dim:
        raise ValueError(
            f"model maps R^{model.input_dim} -> R^{model.output_dim}, "
            f"dataset has input_dim={ds.input_dim}, output_dim={ds.output_dim}"
        )


def _check_kinds(ds: GroupedDataset, inputs, outputs, why: str) -> None:
    """The density-kind gate: raise unless every input density's kind is in
    ``inputs`` and every output density's in ``outputs``, naming the first
    offending group (inputs first), its side and its kind, then ``why``."""
    for side, kinds, offsets, allowed in (
        ("input", ds.input_kinds, ds.input_offsets, inputs),
        ("output", ds.output_kinds, ds.output_offsets, outputs),
    ):
        bad = np.flatnonzero(~np.isin(kinds, [KINDS.index(kind) for kind in allowed]))
        if bad.size:
            group = int(np.searchsorted(offsets, bad[0], side="right")) - 1
            raise ValueError(f"group {group} has a {KINDS[kinds[bad[0]]]} {side} density; {why}")


class _Compiled:
    """The contract every compiled objective shares (see the module docstring).

    A subclass declares ``_kinds = (input kinds, output kinds, why)``; its
    ``__init__`` calls ``_compile``, which passes them to ``_check_kinds``,
    then builds one bucket per ``_buckets`` entry with the subclass's
    ``_bucket(rows, inputs, outputs)``.
    Its ``evaluate`` checks the arguments and returns ``_value(*args)``,
    which writes the per-group logs that ``_group_logs(*args)`` gives as
    (rows, logs), bucket by bucket, under one ``np.errstate``: overflow to
    inf and log 0 = -inf are expected there. The closed forms' generators
    compute each bucket as it is asked for; ``CompiledObjective`` computes
    every bucket, some on its worker threads, before it gives the first.

    Evaluations write into buffers each bucket keeps for the objective's
    lifetime, so repeated evaluations neither allocate them nor page-fault.
    Results never alias them: each ``ObjectiveValue`` owns its
    ``per_group_log``. Because the buffers are shared, one compiled
    objective must not be evaluated from two threads at once; its own
    workers each write one bucket's buffers, which no other thread touches
    until the evaluation has joined them.
    """

    def _compile(self, ds: GroupedDataset) -> None:
        _check_kinds(ds, *self._kinds)
        self.n_groups = ds.n_groups
        self.buckets = [self._bucket(*bucket) for bucket in _buckets(ds)]

    def _value(self, *args) -> ObjectiveValue:
        per_group = np.empty(self.n_groups)
        with np.errstate(over="ignore", divide="ignore"):
            for rows, logs in self._group_logs(*args):
                per_group[rows] = logs
        return ObjectiveValue.from_group_logs(per_group)

    def __call__(self, alpha) -> float:
        return self.evaluate(alpha).value


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
        self.draws = None  # Monte Carlo draws, once an input_scales override needs them


class CompiledObjective(_Compiled):
    """Reusable evaluator of the general grouped objective.

    Compiling once and evaluating many times is what the optimizer does;
    ``nll_general`` is the one-shot convenience wrapper. Evaluation is a
    pure function of (dataset, alpha, config): Monte Carlo draws are fixed
    at compile time from (config seed, group index).

    The nodes and their weights, including the input mixture f_in at every
    grid node, do not depend on alpha, so compiling computes them once; an
    evaluation costs only the model at the nodes and the output mixture.
    ``_nodes`` builds each bucket's grid, and only under quadrature: a Monte
    Carlo compile computes no grid size, budget or node table. Every node
    array is C-contiguous, so the (B n, k) block that the model sees is a
    view of it, not a copy per evaluation. f_in is a sum of product
    densities and the grid is a tensor grid, so f_in at the g^k nodes of a
    group comes from g*k densities per component (``_grid_mixture``) and
    compiling is cheap next to one evaluation.

    ``evaluate``'s ``input_scales`` / ``output_scales`` overrides replace
    the scales of every Gaussian density (one finite scale > 0 per
    coordinate, globally); other density kinds are unaffected. An
    ``input_scales`` override changes f_in, so it rebuilds the nodes on
    every call; that adds the cost of one compile to each evaluation of
    ``fit_extended``. A Monte Carlo compile keeps only its nodes; the first
    such override keeps each group's component choices and unit draws too,
    and every override moves those same draws to the new scales.

    The output mixture's alpha-invariant constants are compiled once per
    density kind (``_kind_constants``). Each bucket's buffers hold the model
    values, the output mixture's block temporaries, its result and those
    constants; the first ``evaluate`` makes them (the constants again for
    each ``output_scales`` override).

    An evaluation has two stages. Stage one runs on the caller's thread:
    the model at every bucket's nodes (``_model_at_nodes``), so a generic
    model's hook never leaves the caller. Stage two is one task per bucket
    (``_bucket_logs``): its output mixture, the weighted sum over nodes and
    the log. Tasks run costliest first, by B n L output terms; the caller
    runs the first and ``_helpers`` daemon threads (``_Workers``, started
    by the first evaluation that uses them, and again in a forked child)
    run the rest. ``_helpers`` is one fewer than the CPUs the process may
    run on or than the buckets, whichever is less; where it is 0 every task
    runs on the caller. No two buckets share a buffer, and each bucket's
    arithmetic is the same on any thread, so the values do not depend on
    the workers.
    """

    _bucket = _Bucket
    _kinds = (KINDS, (GAUSSIAN, UNIFORM),
              "the output mixture cannot be evaluated (sifting applies to inputs only)")

    def __init__(self, ds: GroupedDataset, model: ParametricModel, cfg: IntegrationConfig):
        _check_model_dims(ds, model)
        self.ds = ds
        self.model = model
        self.cfg = cfg
        self._compile(ds)
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
        # stage two's tasks, costliest first: B n L output terms per bucket
        self._order = sorted(
            self.buckets, key=lambda b: sum(pts.shape[0] * pts.shape[1] for pts, _ in b.nodes) * b.y.shape[1],
            reverse=True,
        )
        self._helpers = min(len(self.buckets), _cpus()) - 1
        self._workers = None  # started by the first evaluation that uses them

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
            # the mixture is sampled whole: point-mass components simply
            # land exactly on their centers (zero scale)
            P = self.cfg.mc_samples
            pts = np.empty((B, P, k))
            for j, (comp, z) in enumerate(b.draws or self._draws(b)):
                pts[j] = np.take(b.x[j], comp, axis=0) - np.take(xscale[j], comp, axis=0) * z
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
            nodes.append((np.ascontiguousarray(lin[:, gi, np.arange(k)]), w))  # points (B, g^k, k)
        if b.pm_cols:
            nodes.append((np.ascontiguousarray(b.x[:, b.pm_cols, :]), np.full((1, 1), 1.0 / H)))
        return nodes

    def _draws(self, b: _Bucket):
        """Yield each group's Monte Carlo component choices (P,) and unit
        draws (P, k), seeded by (config seed, group index): standard normal
        for a Gaussian component, uniform on [-1, 1] otherwise."""
        H, k = b.x.shape[1:]
        P = self.cfg.mc_samples
        gaussian = b.in_kinds == KINDS.index(GAUSSIAN)
        for r in b.idx:
            rng = np.random.default_rng((self.cfg.seed, int(r)))
            comp = rng.integers(0, H, P)
            zn = rng.standard_normal((P, k))
            zu = rng.uniform(-1.0, 1.0, (P, k))
            yield comp, np.where(gaussian[comp][:, None], zn, zu)

    def evaluate(self, alpha, input_scales=None, output_scales=None) -> ObjectiveValue:
        input_scales = self._checked_override(input_scales, self.ds.input_dim, "input")
        output_scales = self._checked_override(output_scales, self.ds.output_dim, "output")
        return self._value(alpha, input_scales, output_scales)

    def _group_logs(self, alpha, input_scales, output_scales):
        tasks = [self._model_at_nodes(b, alpha, input_scales, output_scales) for b in self._order]
        if self._helpers:
            if self._workers is None or self._workers.pid != os.getpid():
                self._workers = _Workers(self._helpers)
            logs = self._workers.run(tasks)
        else:
            logs = [task() for task in tasks]
        return zip([b.idx for b in self._order], logs)

    def _model_at_nodes(self, b: _Bucket, alpha, input_scales, output_scales):
        """Stage one, on the caller's thread: the model at every node of b,
        rebuilding the nodes under an ``input_scales`` override. Returns
        stage two, the task that turns those values into b's group logs."""
        nodes = b.nodes
        if input_scales is not None:
            if self.cfg.method == MONTE_CARLO and b.draws is None:
                b.draws = list(self._draws(b))  # kept from the first override on
            xscale = self._effective_scales(b.xscale, b.in_kinds, input_scales)
            nodes = self._nodes(b, xscale)
        yscale = self._effective_scales(b.yscale, b.out_kinds, output_scales)
        sets = []
        for (pts, w), ws in zip(nodes, b.ws):
            B, n, k = pts.shape
            ws["vals"] = vals = model_eval_batch(self.model, alpha, pts.reshape(B * n, k), ws.get("vals"))
            sets.append((vals.reshape(B, n, -1), w, ws))
        return partial(_bucket_logs, b.y, yscale, b.out_parts, sets)


def _bucket_logs(y, yscale, parts, sets) -> np.ndarray:
    """Stage two of ``CompiledObjective``'s evaluation: one bucket's group logs.

    sets holds (model values (B, n, m), weights, buffers) per node set of
    the bucket, whose outputs y have scales yscale. It may run on any
    thread, so it sets its own errstate: numpy's is per thread.
    """
    with np.errstate(over="ignore", divide="ignore"):
        lik = 0.0
        for vals, w, ws in sets:
            fy = _mixture_sum(y, yscale, parts, vals, ws)
            # sum_i w_i f_out(s_i) per group, off BLAS; the mixture's
            # 1/L is applied once per group, not once per node
            lik = lik + np.einsum("bn,bn->b", fy, w)
        return np.log(lik / y.shape[1])


def nll_general(
    ds: GroupedDataset, model: ParametricModel, cfg: IntegrationConfig, alpha,
    input_scales=None, output_scales=None,
) -> ObjectiveValue:
    """General grouped mixture objective (one-shot; see CompiledObjective).

    ``input_scales`` / ``output_scales`` optionally replace the scales of
    every Gaussian density, as in ``CompiledObjective.evaluate``.
    """
    return CompiledObjective(ds, model, cfg).evaluate(alpha, input_scales, output_scales)


# -- Gaussian closed form -----------------------------------------------------


class CompiledGaussianPlane(_Compiled):
    """Closed-form grouped objective for an affine model with Gaussian errors.

    Exploits the Gaussian convolution identity: each input/output
    combination contributes a Gaussian in the combined residual with
    variance V = sum_n alpha_{n+1}^2 sigma_eta_n^2 + sigma_eps^2. Values
    omit GAUSS_LOG_NORM_PER_GROUP per group (see module docstring). Where V
    overflows, every group's likelihood is zero and the value is +inf; a
    sigma_eps whose square underflows is rejected, so V is never 0. Where
    sigma_eta^2 or 2V overflows but V does not, V is formed from
    (alpha sigma_eta)^2 and each exponent from (d / sqrt(2V))^2, so a
    finite likelihood stays finite.

    The scales are the dataset's: every density on both sides must be
    Gaussian, and each side's must share one scale vector, sigma_eta (one
    per input) and sigma_eps. Each bucket keeps one (B, H, L) buffer, and
    where both H and L exceed 1 the residuals d = pred - y are written into
    it as a two-column product (``_pairwise``) from the constant [1; y] and
    a kept [pred, -1] whose first column takes each evaluation's predictions.
    """

    _kinds = ((GAUSSIAN,), (GAUSSIAN,),
              "the Gaussian closed form requires gaussian-diagonal errors on both sides")

    def __init__(self, ds: GroupedDataset):
        if ds.output_dim != 1:
            raise ValueError("closed form requires a single output coordinate")
        self._compile(ds)
        for side, scales in (("input", ds.input_scales), ("output", ds.output_scales)):
            if not np.all(scales == scales[0]):
                raise ValueError(f"{side} densities must share one scale vector")
        self.sigma_eta = sigma_eta = ds.input_scales[0]
        sigma_eps = float(ds.output_scales[0, 0])
        # the squares of huge scales overflow to inf; inf times a zero slope
        # would be NaN, so such a sigma_eta always takes the rescaled V
        with np.errstate(over="ignore"):
            self.var_eta, self.var_eps = sigma_eta**2, np.float64(sigma_eps) ** 2
        self.huge_eta = not np.all(self.var_eta < math.inf)
        if self.var_eps == 0.0:
            raise ValueError(f"sigma_eps = {sigma_eps!r} is too small: its square underflows to 0")

    @staticmethod
    def _bucket(rows, inputs, outputs):
        x, y = inputs[0], outputs[0][:, :, 0]
        B, H, L = len(rows), x.shape[1], y.shape[1]
        left = right = None
        if H > 1 and L > 1:
            left, right = np.full((B, H, 2), -1.0), np.stack([np.ones_like(y), y], axis=1)
        return rows, x, y, math.log(H * L), np.empty((B, H, L)), left, right

    def evaluate(self, alpha) -> ObjectiveValue:
        return self._value(_check_alpha(self.sigma_eta.size + 1, alpha))

    def _group_logs(self, alpha):
        slopes = alpha[1:]
        # slopes**2 and sigma_eta**2 overflow before V does, and d^2 or 2V
        # before u does: where sigma_eta**2 or 2V is not finite, V comes from
        # (slope sigma_eta)^2 and u from (d / sqrt(2V))^2, so no intermediate
        # overflows where u does not
        v = math.inf if self.huge_eta else float(np.sum(slopes**2 * self.var_eta) + self.var_eps)
        huge = 2.0 * v == math.inf
        if huge:
            v = float(np.sum(np.square(slopes * self.sigma_eta)) + self.var_eps)
        if v == math.inf:
            # a density of infinite variance is zero everywhere
            yield slice(None), -math.inf
            return
        two_v, half_log_v = 2.0 * v, 0.5 * math.log(v)
        for rows, x, y, log_hl, u, left, right in self.buckets:
            pred = x @ slopes  # (B, H)
            # u = d^2 / (2V) is minus each combination's exponent; IEEE
            # negation and division commute exactly, so umin - u is bit
            # for bit the e - max(e) of e = -d^2 / (2V). log - umin rather
            # than -umin + log keeps the sign bit of a NaN result as well
            if left is None:
                np.subtract((alpha[0] + pred)[:, :, None], y[:, None, :], out=u)
            else:
                np.add(alpha[0], pred, out=left[:, :, 0])
                _pairwise(left, right, u)
            if huge:
                np.square(np.divide(u, math.sqrt(2.0) * math.sqrt(v), out=u), out=u)
            else:
                np.divide(np.square(u, out=u), two_v, out=u)
            umin = u.min(axis=(1, 2))
            # where every u of a group is inf its likelihood is zero: a
            # shift by the largest double, not by inf, makes each term
            # exp(-inf) = 0 instead of exp(inf - inf) = NaN
            shift = np.minimum(umin, sys.float_info.max)
            total = np.exp(np.subtract(shift[:, None, None], u, out=u), out=u).sum(axis=(1, 2))
            yield rows, np.log(total) - umin - log_hl - half_log_v


def nll_gaussian_hyperplane(ds: GroupedDataset, alpha) -> ObjectiveValue:
    """Closed-form objective for the affine model with Gaussian errors.

    The scales are the dataset's (see CompiledGaussianPlane). For fully
    paired data on the line the value is exactly
    (L/2) log(alpha_2^2 sigma_eta^2 + sigma_eps^2) + sum_l d_l^2 / (2 V)
    with d_l the line residuals.
    """
    return CompiledGaussianPlane(ds).evaluate(alpha)


# -- interval (uniform) closed form -------------------------------------------


class CompiledIntervalLine(_Compiled):
    """Closed-form objective for the 1-d line with uniform-box errors.

    Each input is an interval [x - v, x + v], each output an interval
    [y - w, y + w]. A combination's likelihood is the length of the input
    slab mapped through the line that lands inside the output interval,
    normalized by (2v)(2w), i.e. (1 / (4 v w)) * overlap. Values keep full
    normalization and equal nll_general exactly (up to quadrature error).

    Compiling computes the alpha-invariant factors once: -v and the
    normalizer 4 v w of every combination. Each bucket keeps two (B, H, L)
    buffers. Where both H and L exceed 1, the slab centers x + (a1 - y) / a2
    are a two-column product (``_pairwise``) from the constant [x, 1] and a
    kept [1; shift] whose second row takes each evaluation's shifts.
    """

    A2_TOL = 1e-12
    _kinds = ((UNIFORM,), (UNIFORM,),
              "the interval closed form requires uniform-box errors on both sides")

    def __init__(self, ds: GroupedDataset):
        if ds.input_dim != 1 or ds.output_dim != 1:
            raise ValueError("interval closed form requires scalar inputs and outputs")
        self._compile(ds)

    @staticmethod
    def _bucket(rows, inputs, outputs):
        (x, v, _), (y, w, _) = inputs, outputs
        w = w[:, :, 0]  # (B, L); x and v are (B, H, 1)
        norm = 4.0 * v * w[:, None, :]  # (B, H, L)
        B, H, L = norm.shape
        left = right = None
        if H > 1 and L > 1:
            left, right = np.concatenate([x, np.ones_like(x)], axis=2), np.ones((B, 2, L))
        return rows, x, v, -v, y[:, :, 0], w, norm, np.empty_like(norm), np.empty_like(norm), left, right

    def evaluate(self, alpha) -> ObjectiveValue:
        return self._value(*_check_alpha(2, alpha).tolist())

    def _group_logs(self, a1, a2):
        # a flat enough slope is the constant model: the input interval is irrelevant
        flat = abs(a2) < self.A2_TOL * (1.0 + abs(a1))
        for rows, x, v, neg_v, yb, w, norm, hi, lo, left, right in self.buckets:
            if flat:
                terms = (np.abs(yb - a1) <= w) / (2.0 * w)  # (B, L)
                lik = terms.mean(axis=1)
            else:
                half = w[:, None, :] / abs(a2)
                if left is None:
                    center = np.add(x, (a1 - yb[:, None, :]) / a2, out=hi)  # (B, H, L)
                else:
                    np.divide(np.subtract(a1, yb, out=right[:, 1]), a2, out=right[:, 1])
                    center = _pairwise(left, right, hi)
                np.subtract(center, half, out=lo)
                np.add(center, half, out=hi)
                overlap = np.subtract(np.minimum(v, hi, out=hi), np.maximum(neg_v, lo, out=lo), out=hi)
                np.maximum(overlap, 0.0, out=overlap)
                lik = np.divide(overlap, norm, out=overlap).mean(axis=(1, 2))
            yield rows, np.log(lik)


def likelihood_interval_line(ds: GroupedDataset, alpha) -> ObjectiveValue:
    """Exact negative log-likelihood for the line under uniform-box errors."""
    return CompiledIntervalLine(ds).evaluate(alpha)
