"""The factored tensor-grid input mixture against the materialized grid.

``_grid_mixture`` evaluates the input mixture at every grid node from one
table per axis; ``_mixture_sum`` evaluates it node by node. Both sum the same
component densities, so they agree to rounding. Agreement is measured
relative to each group's largest value: deep in the tails both are rounding
noise near underflow, and such a node weighs nothing in the integral.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivmix import ErrorDensity, Group, GroupedDataset, IntegrationConfig, ParametricModel
from eivmix import objective
from eivmix.densities import GAUSSIAN, KINDS, POINT_MASS
from eivmix.objective import CompiledObjective, _grid_mixture, _kind_columns, _mixture_sum

G, U, PM = ErrorDensity.gaussian, ErrorDensity.uniform, ErrorDensity.point_mass
RTOL = 1e-13
#: grid points per coordinate by input dimension, small enough for many draws
POINTS = {1: 41, 2: 21, 3: 11}


def materialized_mixture(centers, scales, parts, lin, grid_index):
    """_grid_mixture's reference: _mixture_sum at every node of the grid."""
    return _mixture_sum(centers, scales, parts, lin[:, grid_index, np.arange(lin.shape[2])])


def assert_close_per_group(got, want):
    """got equals want within RTOL of each group's (row's) largest value."""
    assert got.shape == want.shape
    top = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= RTOL * top)


def grid_lines(centers, scales, cont, g):
    """Grid coordinates (B, g, k) over the continuous components, as _nodes lays them."""
    pad = 8.0 * scales[:, cont, :].max(axis=1)
    lo = centers[:, cont, :].min(axis=1) - pad
    hi = centers[:, cont, :].max(axis=1) + pad
    return lo[:, None, :] + (hi - lo)[:, None, :] * np.linspace(0.0, 1.0, g)[None, :, None]


@st.composite
def mixtures(draw):
    """(centers, scales, kind codes) of B groups of C components in k dims;
    at least one component is Gaussian or uniform."""
    k = draw(st.integers(1, 3))
    B = draw(st.integers(1, 3))
    codes = draw(st.lists(st.sampled_from(range(len(KINDS))), min_size=1, max_size=5))
    if all(KINDS[c] == POINT_MASS for c in codes):
        codes[0] = KINDS.index(GAUSSIAN)
    C = len(codes)
    floats = st.floats(-3.0, 3.0, allow_nan=False)
    centers = np.array(draw(st.lists(floats, min_size=B * C * k, max_size=B * C * k)))
    scales = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=B * C * k, max_size=B * C * k)))
    return centers.reshape(B, C, k), scales.reshape(B, C, k), np.array(codes, dtype=np.int8)


@settings(max_examples=80, deadline=None)
@given(mixtures())
def test_grid_mixture_matches_materialized_grid(case):
    centers, scales, codes = case
    k = centers.shape[2]
    g = POINTS[k]
    cont = np.flatnonzero(codes != KINDS.index(POINT_MASS)).tolist()
    lin = grid_lines(centers, scales, cont, g)
    grid_index = np.indices((g,) * k).reshape(k, -1).T
    parts = _kind_columns(codes)
    got = _grid_mixture(centers, scales, parts, lin, grid_index)
    assert_close_per_group(got, materialized_mixture(centers, scales, parts, lin, grid_index))


@pytest.mark.parametrize("block", [1, 2 * 11 * 3, 5000])
def test_grid_mixture_blocks_are_exact(monkeypatch, block):
    # group batches and grid-line blocks of any size give bit-identical
    # sums, in 1 to 3 dimensions and with both kinds in one group
    rng = np.random.default_rng(8)
    cases = []
    for k, B, C in ((1, 5, 7), (2, 3, 4), (3, 2, 6)):
        centers = rng.normal(size=(B, C, k))
        scales = rng.uniform(0.2, 1.5, size=(B, C, k))
        codes = rng.integers(0, 2, C).astype(np.int8)
        lin = grid_lines(centers, scales, list(range(C)), POINTS[k])
        grid_index = np.indices((POINTS[k],) * k).reshape(k, -1).T
        cases.append((centers, scales, _kind_columns(codes), lin, grid_index))
    wants = [_grid_mixture(*case) for case in cases]
    monkeypatch.setattr(objective, "_BLOCK", block)
    for case, want in zip(cases, wants):
        np.testing.assert_array_equal(_grid_mixture(*case), want)


@st.composite
def datasets(draw):
    """One bucket of 1-3 groups in k dims whose inputs mix Gaussian, uniform
    and point-mass densities, and an input-scale override."""
    k = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from("gup"), min_size=1, max_size=4))
    if "g" not in kinds and "u" not in kinds:
        kinds[0] = "g"
    scale = st.floats(0.1, 1.5)
    laws = []
    for kind in kinds:
        if kind == "p":
            laws.append(PM(k))
        else:
            law = G if kind == "g" else U
            laws.append(law([draw(scale) for _ in range(k)]))
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        x = np.array(draw(st.lists(floats, min_size=len(kinds) * k, max_size=len(kinds) * k)))
        y = np.array(draw(st.lists(floats, min_size=2, max_size=2)))
        groups.append(
            Group(x.reshape(len(kinds), k), y.reshape(2, 1), tuple(laws), (G(0.5), U(0.8)))
        )
    override = [draw(scale) for _ in range(k)]
    return GroupedDataset(tuple(groups), k, 1), override


@settings(max_examples=40, deadline=None)
@given(datasets(), st.data())
def test_compiled_nodes_match_materialized_mixture(case, data):
    # the cached grid weights and an input-scale override (rebuilt on every
    # call) both agree with a compile that materializes the grid
    ds, override = case
    k = ds.input_dim
    model = ParametricModel.affine_kd(k) if k > 1 else ParametricModel.affine_1d()
    cfg = IntegrationConfig(grid_points_per_dim=POINTS[k])
    alpha = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=k + 1, max_size=k + 1))
    factored = CompiledObjective(ds, model, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objective, "_grid_mixture", materialized_mixture)
        reference = CompiledObjective(ds, model, cfg)
        want = [reference.evaluate(alpha, scales).per_group_log for scales in (None, override)]
    (bucket,), (ref_bucket,) = factored.buckets, reference.buckets
    (pts, w), (ref_pts, ref_w) = bucket.nodes[0], ref_bucket.nodes[0]
    np.testing.assert_array_equal(pts, ref_pts)
    assert_close_per_group(w, ref_w)
    for scales, ref_log in zip((None, override), want):
        log = factored.evaluate(alpha, scales).per_group_log
        np.testing.assert_array_equal(np.isneginf(log), np.isneginf(ref_log))
        finite = np.isfinite(ref_log)
        # a likelihood within RTOL relative is a log-likelihood within RTOL absolute
        assert np.all(np.abs(log[finite] - ref_log[finite]) <= RTOL)
