"""Property tests of the flat grouped layout against per-label references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivmix import MONTE_CARLO, ErrorDensity, GroupedDataset, IntegrationConfig, build_grouped
from eivmix.dataset import cross_pair_expansion
from eivmix.models import ParametricModel
from eivmix.objective import (
    CompiledGaussianPlane,
    CompiledIntervalLine,
    CompiledObjective,
    shared_gaussian_scales,
)

G = ErrorDensity.gaussian(0.3)
G2 = ErrorDensity.gaussian(0.5)
U = ErrorDensity.uniform(0.4)
PM = ErrorDensity.point_mass(1)
# (input, output) density pools a draw picks each point's law from; the
# one-law pools let the Gaussian and the interval closed forms apply
POOLS = (([G], [G]), ([U], [U]), ([G, U, PM], [G, U]), ([G, G2, PM], [G, G2]), ([PM, U], [U, G]))
LINE = ParametricModel.affine_1d()


@st.composite
def labelled(draw):
    """Points with group labels: each of R labels gets 1-3 inputs and 1-3
    outputs, in shuffled order, with densities drawn per point."""
    sizes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=5))
    names = draw(st.lists(st.integers(-50, 50), min_size=len(sizes), max_size=len(sizes), unique=True))
    in_labels = draw(st.permutations([v for v, (h, _) in zip(names, sizes) for _ in range(h)]))
    out_labels = draw(st.permutations([v for v, (_, l) in zip(names, sizes) for _ in range(l)]))
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    xs = np.array(draw(st.lists(floats, min_size=len(in_labels), max_size=len(in_labels))))
    ys = np.array(draw(st.lists(floats, min_size=len(out_labels), max_size=len(out_labels))))
    in_pool, out_pool = draw(st.sampled_from(POOLS))
    din = [draw(st.sampled_from(in_pool)) for _ in in_labels]
    dout = [draw(st.sampled_from(out_pool)) for _ in out_labels]
    return xs, ys, np.array(in_labels), np.array(out_labels), din, dout


def _same_density(a, b):
    return a.kind == b.kind and a.dim == b.dim and np.array_equal(a.scale, b.scale)


@settings(max_examples=60, deadline=None)
@given(labelled())
def test_group_views_select_labelled_rows(case):
    xs, ys, in_labels, out_labels, din, dout = case
    ds = build_grouped(xs, ys, in_labels, out_labels, din, dout)
    assert ds.n_groups == len(set(in_labels.tolist()))
    for g, v in zip(ds.groups, sorted(set(in_labels.tolist()))):
        rows_in = np.flatnonzero(in_labels == v)
        rows_out = np.flatnonzero(out_labels == v)
        np.testing.assert_array_equal(g.inputs[:, 0], xs[rows_in])
        np.testing.assert_array_equal(g.outputs[:, 0], ys[rows_out])
        assert all(_same_density(a, din[i]) for a, i in zip(g.input_densities, rows_in))
        assert all(_same_density(a, dout[i]) for a, i in zip(g.output_densities, rows_out))
        assert len(g.input_densities) == rows_in.size
        assert len(g.output_densities) == rows_out.size
        assert not g.inputs.flags.writeable and not g.outputs.flags.writeable


def _per_group_logs(ds, alpha):
    logs = [
        CompiledObjective(ds, LINE, IntegrationConfig(grid_points_per_dim=21)).evaluate(alpha),
        CompiledObjective(
            ds, LINE, IntegrationConfig(method=MONTE_CARLO, mc_samples=100, seed=3)
        ).evaluate(alpha),
    ]
    try:
        eta, eps = shared_gaussian_scales(ds)
    except ValueError:
        pass
    else:
        logs.append(CompiledGaussianPlane(ds, eta, float(eps[0])).evaluate(alpha))
    try:
        logs.append(CompiledIntervalLine(ds).evaluate(alpha))
    except ValueError:
        pass
    return [v.per_group_log for v in logs]


@settings(max_examples=60, deadline=None)
@given(labelled(), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0))
def test_hand_built_groups_give_identical_objectives(case, a0, a1):
    xs, ys, in_labels, out_labels, din, dout = case
    ds = build_grouped(xs, ys, in_labels, out_labels, din, dout)
    rebuilt = GroupedDataset(ds.groups, 1, 1)
    for name in ("inputs", "outputs", "input_kinds", "input_scales", "output_kinds",
                 "output_scales", "input_offsets", "output_offsets"):
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(ds, name))
    want = _per_group_logs(ds, [a0, a1])
    got = _per_group_logs(rebuilt, [a0, a1])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(labelled())
def test_cross_pairs_match_per_group_reference(case):
    xs, ys, in_labels, out_labels, din, dout = case
    ds = build_grouped(xs, ys, in_labels, out_labels, din, dout)
    want_x, want_y = [], []
    for v in sorted(set(in_labels.tolist())):
        x, y = xs[in_labels == v][:, None], ys[out_labels == v][:, None]
        want_x.append(np.repeat(x, y.shape[0], axis=0))
        want_y.append(np.tile(y, (x.shape[0], 1)))
    got_x, got_y = cross_pair_expansion(ds)
    np.testing.assert_array_equal(got_x, np.concatenate(want_x))
    np.testing.assert_array_equal(got_y, np.concatenate(want_y))


def test_build_grouped_needs_one_density_per_point():
    xs = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="inputs: 3 densities for 2 points"):
        build_grouped(xs, xs, [0, 1], [0, 1], [G] * 3, [G] * 2)
    with pytest.raises(ValueError, match="outputs: 1 densities for 2 points"):
        build_grouped(xs, xs, [0, 1], [0, 1], [G] * 2, [G])
