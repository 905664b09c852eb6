"""Grouped and paired data containers.

The central structure is a dataset of R disjoint groups. Group r holds H_r
observed inputs and L_r observed outputs that are known to belong together,
but with no pairing between individual inputs and outputs inside the group.
Fully paired data is the special case of L singleton groups; a single group
holding everything is the completely unpaired case.

``GroupedDataset`` stores all groups' inputs and outputs as flat arrays,
group after group, with a density kind code and a scale row per point and,
per side, R + 1 offsets that delimit the groups (like ``indptr`` in a CSR
sparse matrix). Objectives and baselines index these arrays directly; its
``groups`` are read-only ``Group`` views, and hand-built ``Group`` objects
are concatenated into the same arrays.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .densities import KINDS, POINT_MASS, ErrorDensity


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"{name} has shape {a.shape}, expected (n, dim)")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")
    a = a.copy()
    a.flags.writeable = False
    return a


def _density_rows(densities, shape, name: str) -> tuple:
    """Kind codes (n,) and scale rows (n, dim), 0 for point masses, of n
    per-point densities; each distinct density object is checked once."""
    n, dim = shape
    distinct = {}
    index = [distinct.setdefault(d, len(distinct)) for d in densities]
    if len(index) != n:
        raise ValueError(f"{name}: {len(index)} densities for {n} points")
    for d in distinct:
        if not isinstance(d, ErrorDensity):
            raise TypeError(f"{name}: expected ErrorDensity, got {type(d).__name__}")
        if d.dim != dim:
            raise ValueError(f"{name}: density dimension {d.dim} != {dim}")
    codes = np.array([KINDS.index(d.kind) for d in distinct], dtype=np.int8)
    scales = [d.scale if d.kind != POINT_MASS else np.zeros(dim) for d in distinct]
    scales = np.array(scales).reshape(-1, dim)
    return codes[index], scales[index]


def _checked_side(points, densities, name: str) -> tuple:
    """Points as a read-only (n, dim) matrix and their n densities as a tuple."""
    points, densities = _as_matrix(points, name), tuple(densities)
    _density_rows(densities, points.shape, name)
    return points, densities


def _set_fields(obj, values):
    """obj, a frozen dataclass, with its fields set to values in order."""
    for f, v in zip(fields(obj), values):
        object.__setattr__(obj, f.name, v)
    return obj


@dataclass(frozen=True, eq=False)
class Group:
    """One block of inputs and outputs with within-group pairing unknown."""

    inputs: np.ndarray
    outputs: np.ndarray
    input_densities: tuple
    output_densities: tuple

    def __post_init__(self):
        inputs, din = _checked_side(self.inputs, self.input_densities, "inputs")
        outputs, dout = _checked_side(self.outputs, self.output_densities, "outputs")
        if inputs.shape[0] < 1 or outputs.shape[0] < 1:
            raise ValueError("a group needs at least one input and one output")
        _set_fields(self, (inputs, outputs, din, dout))

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.outputs.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class GroupedDataset:
    """R groups as flat arrays with group offsets (see the module docstring);
    ``GroupedDataset(groups, input_dim, output_dim)`` concatenates ``Group``s."""

    inputs: np.ndarray  # (N, k)
    outputs: np.ndarray  # (M, m)
    input_kinds: np.ndarray  # (N,) int8
    input_scales: np.ndarray  # (N, k)
    output_kinds: np.ndarray  # (M,) int8
    output_scales: np.ndarray  # (M, m)
    input_offsets: np.ndarray  # (R + 1,)
    output_offsets: np.ndarray  # (R + 1,)
    input_dim: int
    output_dim: int
    n_groups: int

    def __init__(self, groups, input_dim: int, output_dim: int):
        groups = tuple(groups)
        if any(g.inputs.shape[1] != input_dim or g.outputs.shape[1] != output_dim for g in groups):
            raise ValueError(f"group dimensions differ from ({input_dim}, {output_dim})")
        self._store(
            np.concatenate([g.inputs for g in groups] or [np.empty((0, input_dim))]),
            np.concatenate([g.outputs for g in groups] or [np.empty((0, output_dim))]),
            [d for g in groups for d in g.input_densities],
            [d for g in groups for d in g.output_densities],
            slice(None), np.cumsum([0] + [g.n_inputs for g in groups]),
            slice(None), np.cumsum([0] + [g.n_outputs for g in groups]),
        )

    def _store(self, xs, ys, input_densities, output_densities,
               in_rows, in_offsets, out_rows, out_offsets) -> "GroupedDataset":
        """Check, freeze and return the layout in which group r takes the rows
        in_rows[in_offsets[r]:in_offsets[r + 1]] of xs, and the like of ys."""
        if len(in_offsets) < 2:
            raise ValueError("dataset needs at least one group")
        xs, ys = _as_matrix(xs, "inputs"), _as_matrix(ys, "outputs")
        in_kinds, in_scales = _density_rows(input_densities, xs.shape, "inputs")
        out_kinds, out_scales = _density_rows(output_densities, ys.shape, "outputs")
        arrays = (
            xs[in_rows], ys[out_rows], in_kinds[in_rows], in_scales[in_rows],
            out_kinds[out_rows], out_scales[out_rows],
            np.asarray(in_offsets, dtype=np.intp), np.asarray(out_offsets, dtype=np.intp),
        )
        for a in arrays:
            a.flags.writeable = False
        return _set_fields(self, (*arrays, xs.shape[1], ys.shape[1], len(in_offsets) - 1))

    @cached_property
    def groups(self) -> tuple:
        """Read-only ``Group`` views of the flat arrays, in group order."""
        din = _densities(self.input_kinds, self.input_scales)
        dout = _densities(self.output_kinds, self.output_scales)
        io, oo = self.input_offsets.tolist(), self.output_offsets.tolist()
        views = []
        for a, b, c, d in zip(io[:-1], io[1:], oo[:-1], oo[1:]):
            parts = (self.inputs[a:b], self.outputs[c:d], tuple(din[a:b]), tuple(dout[c:d]))
            # a view skips Group's checks: the arrays are checked already
            views.append(_set_fields(object.__new__(Group), parts))
        return tuple(views)


def _densities(codes, scales) -> list:
    dim = scales.shape[1]
    return [
        ErrorDensity.point_mass(dim) if KINDS[c] == POINT_MASS else ErrorDensity(KINDS[c], s, dim)
        for c, s in zip(codes.tolist(), scales)
    ]


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """Classical fully paired observations (x_l, y_l)."""

    xs: np.ndarray
    ys: np.ndarray
    input_densities: tuple
    output_densities: tuple

    def __post_init__(self):
        xs, din = _checked_side(self.xs, self.input_densities, "xs")
        ys, dout = _checked_side(self.ys, self.output_densities, "ys")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys must hold the same number of points")
        if xs.shape[0] < 1:
            raise ValueError("dataset needs at least one pair")
        _set_fields(self, (xs, ys, din, dout))

    @staticmethod
    def from_arrays(xs, ys, input_density: ErrorDensity, output_density: ErrorDensity) -> "PairedDataset":
        """Build a paired dataset sharing one error law per side."""
        xs = np.asarray(xs, dtype=float)
        n = xs.shape[0]
        return PairedDataset(xs, ys, (input_density,) * n, (output_density,) * n)

    @property
    def n_pairs(self) -> int:
        return self.xs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.xs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.ys.shape[1]


def _rows_by_label(labels) -> dict:
    rows = defaultdict(list)
    # Python scalars hash several times faster than numpy ones
    for i, v in enumerate(labels.tolist() if isinstance(labels, np.ndarray) else labels):
        rows[v].append(i)
    return rows


def build_grouped(
    inputs,
    outputs,
    input_labels: Sequence,
    output_labels: Sequence,
    input_densities: Sequence[ErrorDensity],
    output_densities: Sequence[ErrorDensity],
) -> GroupedDataset:
    """Assemble a grouped dataset from flat arrays and per-point group labels.

    The label alphabets of the two sides must coincide: every group needs at
    least one input and one output. Groups are ordered by sorted label.
    """
    if len(input_labels) != len(inputs):
        raise ValueError("one label per input required")
    if len(output_labels) != len(outputs):
        raise ValueError("one label per output required")
    in_rows = _rows_by_label(input_labels)
    out_rows = _rows_by_label(output_labels)
    if in_rows.keys() != out_rows.keys():
        only_in = sorted(str(v) for v in (in_rows.keys() - out_rows.keys()))
        only_out = sorted(str(v) for v in (out_rows.keys() - in_rows.keys()))
        raise ValueError(
            "label alphabets differ between sides "
            f"(inputs only: {only_in}, outputs only: {only_out})"
        )
    order = sorted(in_rows, key=lambda v: (str(type(v)), v))
    return object.__new__(GroupedDataset)._store(
        inputs, outputs, input_densities, output_densities,
        np.array([i for v in order for i in in_rows[v]], dtype=np.intp),
        np.cumsum([0] + [len(in_rows[v]) for v in order]),
        np.array([i for v in order for i in out_rows[v]], dtype=np.intp),
        np.cumsum([0] + [len(out_rows[v]) for v in order]),
    )


def as_grouped(ds: PairedDataset) -> GroupedDataset:
    """View paired data as L singleton groups (pairing kept intact)."""
    return partition_by_key(ds, np.arange(ds.n_pairs), 1)


def partition_by_key(ds: PairedDataset, key, group_size: int) -> GroupedDataset:
    """Group pairs into consecutive chunks of a sort key, erasing pairing.

    Pairs are sorted ascending by ``key`` (stable) and chunked into
    consecutive groups of ``group_size``; a final shorter group holds any
    remainder. group_size=1 reproduces the paired view.
    """
    key = np.asarray(key)
    if key.shape != (ds.n_pairs,):
        raise ValueError("one key value per pair required")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if group_size > ds.n_pairs:
        warnings.warn(
            "group_size exceeds the number of pairs; "
            "result is a single completely unpaired group"
        )
        group_size = ds.n_pairs
    # groups keep key order, not row order: it fixes the order of each group's sums
    order = np.argsort(key, kind="stable")
    offsets = np.append(np.arange(0, ds.n_pairs, group_size), ds.n_pairs)
    return object.__new__(GroupedDataset)._store(
        ds.xs, ds.ys, ds.input_densities, ds.output_densities, order, offsets, order, offsets
    )


def cross_pair_expansion(ds: GroupedDataset) -> tuple:
    """All within-group input/output combinations as flat paired arrays.

    Group r contributes H_r * L_r rows, input-major; used for warm starts
    and the all-pairs imputation baseline.
    """
    H = np.diff(ds.input_offsets)
    reps = np.repeat(np.diff(ds.output_offsets), H)  # pairs per input row
    xs = np.repeat(ds.inputs, reps, axis=0)
    # input row i pairs with its group's outputs, first to last
    first = np.repeat(ds.output_offsets[:-1], H) - (np.cumsum(reps) - reps)
    ys = ds.outputs[np.arange(xs.shape[0]) + np.repeat(first, reps)]
    return xs, ys


def group_mean_pairs(ds: GroupedDataset) -> tuple:
    """One pair per group: componentwise means of its inputs and outputs."""
    def means(a, offsets):
        return np.stack([a[lo:hi].mean(axis=0) for lo, hi in zip(offsets[:-1], offsets[1:])])

    return means(ds.inputs, ds.input_offsets), means(ds.outputs, ds.output_offsets)
