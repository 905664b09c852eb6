"""Grouped and paired data containers.

The central structure is a dataset of R disjoint groups. Group r holds H_r
observed inputs and L_r observed outputs that are known to belong together,
but with no pairing between individual inputs and outputs inside the group.
Fully paired data is the special case of L singleton groups; a single group
holding everything is the completely unpaired case.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import ErrorDensity


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


def _check_densities(densities, n: int, dim: int, name: str) -> tuple:
    densities = tuple(densities)
    if len(densities) != n:
        raise ValueError(f"{name}: {len(densities)} densities for {n} points")
    for d in densities:
        if not isinstance(d, ErrorDensity):
            raise TypeError(f"{name}: expected ErrorDensity, got {type(d).__name__}")
        if d.dim != dim:
            raise ValueError(f"{name}: density dimension {d.dim} != {dim}")
    return densities


@dataclass(frozen=True, eq=False)
class Group:
    """One block of inputs and outputs with within-group pairing unknown."""

    inputs: np.ndarray
    outputs: np.ndarray
    input_densities: tuple
    output_densities: tuple

    def __post_init__(self):
        inputs = _as_matrix(self.inputs, "inputs")
        outputs = _as_matrix(self.outputs, "outputs")
        if inputs.shape[0] < 1 or outputs.shape[0] < 1:
            raise ValueError("a group needs at least one input and one output")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(
            self,
            "input_densities",
            _check_densities(self.input_densities, inputs.shape[0], inputs.shape[1], "inputs"),
        )
        object.__setattr__(
            self,
            "output_densities",
            _check_densities(self.output_densities, outputs.shape[0], outputs.shape[1], "outputs"),
        )

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.outputs.shape[0]


@dataclass(frozen=True, eq=False)
class GroupedDataset:
    groups: tuple
    input_dim: int
    output_dim: int

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise ValueError("dataset needs at least one group")
        for g in groups:
            if g.inputs.shape[1] != self.input_dim:
                raise ValueError("group input dimension mismatch")
            if g.outputs.shape[1] != self.output_dim:
                raise ValueError("group output dimension mismatch")
        object.__setattr__(self, "groups", groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """Classical fully paired observations (x_l, y_l)."""

    xs: np.ndarray
    ys: np.ndarray
    input_densities: tuple
    output_densities: tuple

    def __post_init__(self):
        xs = _as_matrix(self.xs, "xs")
        ys = _as_matrix(self.ys, "ys")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys must hold the same number of points")
        if xs.shape[0] < 1:
            raise ValueError("dataset needs at least one pair")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(
            self,
            "input_densities",
            _check_densities(self.input_densities, xs.shape[0], xs.shape[1], "xs"),
        )
        object.__setattr__(
            self,
            "output_densities",
            _check_densities(self.output_densities, ys.shape[0], ys.shape[1], "ys"),
        )

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


def _grouped(xs, ys, input_densities, output_densities, members) -> GroupedDataset:
    """One group per (input rows, output rows) pair of ``members``, in order."""
    groups = tuple(
        Group(
            xs[ii],
            ys[oo],
            [input_densities[i] for i in ii],
            [output_densities[i] for i in oo],
        )
        for ii, oo in members
    )
    return GroupedDataset(groups, xs.shape[1], ys.shape[1])


def _label_list(labels) -> list:
    # Python scalars hash several times faster than numpy ones
    return labels.tolist() if isinstance(labels, np.ndarray) else list(labels)


def _rows_by_label(labels: list) -> dict:
    rows = defaultdict(list)
    for i, v in enumerate(labels):
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
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    input_labels = _label_list(input_labels)
    output_labels = _label_list(output_labels)
    if len(input_labels) != inputs.shape[0]:
        raise ValueError("one label per input required")
    if len(output_labels) != outputs.shape[0]:
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
    members = [(in_rows[v], out_rows[v]) for v in order]
    return _grouped(inputs, outputs, list(input_densities), list(output_densities), members)


def as_grouped(ds: PairedDataset) -> GroupedDataset:
    """View paired data as L singleton groups (pairing kept intact)."""
    members = [([l], [l]) for l in range(ds.n_pairs)]
    return _grouped(ds.xs, ds.ys, ds.input_densities, ds.output_densities, members)


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
    order = np.argsort(key, kind="stable")
    chunks = [order[i : i + group_size] for i in range(0, ds.n_pairs, group_size)]
    # members keep key order, not row order: it fixes the order of each group's sums
    members = [(c, c) for c in chunks]
    return _grouped(ds.xs, ds.ys, ds.input_densities, ds.output_densities, members)


def cross_pair_expansion(ds: GroupedDataset) -> tuple:
    """All within-group input/output combinations as flat paired arrays.

    Group r contributes H_r * L_r rows; used for warm starts and the
    all-pairs imputation baseline.
    """
    xs, ys = [], []
    for g in ds.groups:
        h, l = g.n_inputs, g.n_outputs
        xs.append(np.repeat(g.inputs, l, axis=0))
        ys.append(np.tile(g.outputs, (h, 1)))
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)


def group_mean_pairs(ds: GroupedDataset) -> tuple:
    """One pair per group: componentwise means of its inputs and outputs."""
    xs = np.stack([g.inputs.mean(axis=0) for g in ds.groups])
    ys = np.stack([g.outputs.mean(axis=0) for g in ds.groups])
    return xs, ys


def group_overlap_diagnostic(ds: GroupedDataset) -> np.ndarray:
    """Heuristic interleaving score per group, in [0, 1].

    For every input point, checks whether its nearest neighbour among the
    inputs of OTHER groups is closer than its nearest neighbour within its
    own group; the score is the per-group fraction of such points. Spatially
    disjoint groups score 0, heavily interleaved groups score high. This is
    a data diagnostic only; no formal dissimilarity measure is defined for
    the grouped likelihood, so treat it as a screening heuristic.
    """
    if ds.n_groups == 1:
        warnings.warn("overlap diagnostic undefined for a single group")
        return np.zeros(1)
    points = np.concatenate([g.inputs for g in ds.groups], axis=0)
    labels = np.concatenate(
        [np.full(g.n_inputs, r) for r, g in enumerate(ds.groups)]
    )
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    same = labels[:, None] == labels[None, :]
    d2_same = np.where(same, d2, np.inf).min(axis=1)
    d2_other = np.where(same, np.inf, d2).min(axis=1)
    crossed = d2_other < d2_same
    return np.array(
        [crossed[labels == r].mean() for r in range(ds.n_groups)]
    )
