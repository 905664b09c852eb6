"""The output-mixture kernel against the densities written out in full.

``_mixture_sum`` evaluates each density kind from constants compiled once
per scale array (the centers pre-scaled by 1/(sqrt(2) sigma), that scale and
one over each normaliser), and a scale that all components of a group share
collapses to one entry per group, or to one for the bucket where every group
shares it. The references here evaluate every component's density from its
definition, node by node and component by component, so they share no code
with the kernel. The byte test at the end is the exception: it writes out
the kernel's former pass sequence, which its one-component path must match
bit for bit.

Agreement is measured relative to each group's largest value, as in
``test_grid_mixture.py``. Every group has one node inside its first
component's support, so that largest value is never rounding noise.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eivmix import ErrorDensity, Group, GroupedDataset, IntegrationConfig, ParametricModel
from eivmix.densities import GAUSSIAN, KINDS, UNIFORM
from eivmix.objective import CompiledObjective, _kind_columns, _mixture_sum

RTOL = 1e-13
CODES = (KINDS.index(GAUSSIAN), KINDS.index(UNIFORM))


def density(code, scale, z) -> float:
    """One component's density at offset z, from its definition."""
    if KINDS[code] == GAUSSIAN:
        q = sum((zj / sj) ** 2 for zj, sj in zip(z, scale))
        return math.exp(-0.5 * q) / math.prod(math.sqrt(2.0 * math.pi) * sj for sj in scale)
    inside = all(abs(zj) <= sj for zj, sj in zip(z, scale))
    return inside / math.prod(2.0 * sj for sj in scale)


def reference(centers, scales, codes, pts) -> np.ndarray:
    """sum_c f_c(centers_c - p) at every node p of every group."""
    B, C, _ = centers.shape
    out = np.zeros(pts.shape[:2])
    for b in range(B):
        for i, p in enumerate(pts[b]):
            out[b, i] = sum(density(codes[c], scales[b, c], centers[b, c] - p) for c in range(C))
    return out


def assert_close_per_group(got, want):
    """got equals want within RTOL of each group's (row's) largest value."""
    assert got.shape == want.shape
    top = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= RTOL * top)


@st.composite
def mixtures(draw):
    """(centers, scales, kind codes) of B groups of 1-6 Gaussian or uniform
    components in d = 1 or 2 coordinates. In half the draws every component
    of a group has the same scale vector, which the kernel collapses."""
    d = draw(st.integers(1, 2))
    B = draw(st.integers(1, 3))
    codes = np.array(draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=6)), dtype=np.int8)
    C = len(codes)
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    scale = st.floats(0.1, 2.0)
    centers = np.array(draw(st.lists(floats, min_size=B * C * d, max_size=B * C * d))).reshape(B, C, d)
    if draw(st.booleans()):
        per_group = np.array(draw(st.lists(scale, min_size=B * d, max_size=B * d))).reshape(B, 1, d)
        scales = np.repeat(per_group, C, axis=1)
    else:
        scales = np.array(draw(st.lists(scale, min_size=B * C * d, max_size=B * C * d))).reshape(B, C, d)
    return centers, scales, codes


def near_first_component(draw, centers, scales):
    """One node per group strictly inside its first component's support."""
    B, _, d = centers.shape
    t = np.array(draw(st.lists(st.floats(-0.9, 0.9), min_size=B * d, max_size=B * d))).reshape(B, d)
    return centers[:, 0] + t * scales[:, 0]


@settings(max_examples=120, deadline=None)
@given(mixtures(), st.data())
def test_mixture_sum_matches_densities(case, data):
    # far from zero relative to the scales, the scaled centers must not
    # round at the size of the offset
    centers, scales, codes = case
    offset = data.draw(st.sampled_from([0.0, 1e4, -1e6]))
    centers = centers + offset
    B, _, d = centers.shape
    n = data.draw(st.integers(0, 8))
    floats = st.floats(-3.0, 3.0, allow_nan=False)
    rest = offset + np.array(data.draw(st.lists(floats, min_size=B * n * d, max_size=B * n * d))).reshape(B, n, d)
    pts = np.concatenate([near_first_component(data.draw, centers, scales)[:, None], rest], axis=1)
    want = reference(centers, scales, codes, pts)
    ws = {}
    for _ in range(2):  # constants compiled by this call, then kept in ws
        assert_close_per_group(_mixture_sum(centers, scales, _kind_columns(codes), pts, ws), want)


def two_output_model(d):
    """A generic R^1 -> R^d model; only the generic family has two outputs."""
    if d == 1:
        return ParametricModel.generic(1, 1, 3, lambda a, xs: a[0] + a[1] * xs + a[2] * xs ** 2)
    return ParametricModel.generic(1, 2, 3, lambda a, xs: np.hstack([a[0] + a[1] * xs, a[2] * xs - a[0]]))


@settings(max_examples=40, deadline=None)
@given(mixtures(), st.data())
def test_objective_matches_densities_at_model_values(case, data):
    # point-mass inputs make the nodes the model's values at the inputs
    # (sifting), so each group's likelihood is the mean over its H inputs of
    # the output mixture, (1/L) sum_l f_l(y_l - M(x_h))
    centers, scales, codes = case
    B, L, d = centers.shape
    model = two_output_model(d)
    H = data.draw(st.integers(1, 3))
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    alpha = np.array(data.draw(st.lists(floats, min_size=3, max_size=3)))
    x = np.array(data.draw(st.lists(floats, min_size=B * H, max_size=B * H))).reshape(B, H, 1)
    vals = model.eval_hook(alpha, x.reshape(B * H, 1)).reshape(B, H, d)
    # move each group's first output so that its first node lies inside it
    centers[:, 0] = vals[:, 0] - near_first_component(data.draw, np.zeros_like(centers), scales)
    groups = tuple(
        Group(x[b], centers[b], (ErrorDensity.point_mass(1),) * H,
              tuple(ErrorDensity(KINDS[c], scales[b, i], d) for i, c in enumerate(codes)))
        for b in range(B)
    )
    ds = GroupedDataset(groups, 1, d)
    got = CompiledObjective(ds, model, IntegrationConfig()).evaluate(alpha).per_group_log
    nodes = reference(centers, scales, codes, vals) / L  # (B, H)
    assert_close_per_group(np.exp(got)[:, None], nodes.mean(axis=1, keepdims=True))


def passes_before(centers, scales, codes, pts) -> np.ndarray:
    """_mixture_sum as the pass sequence it ran before one-component planes
    took their own path: per coordinate, the origin subtracted from the node
    and the difference scaled, then c - row with c = (center - origin) scale,
    squared and summed over coordinates; then negated, exp'd and contracted
    with the normalisers by einsum. A uniform coordinate is |c - p| <= h,
    multiplied over coordinates."""
    out = 0.0
    for code in CODES:
        cols = np.flatnonzero(codes == code)
        if not cols.size:
            continue
        gaussian = KINDS[code] == GAUSSIAN
        inv_norm = 1.0 / np.prod(scales[:, cols] * (math.sqrt(2.0 * math.pi) if gaussian else 2.0), axis=-1)
        acc = None
        for j in range(centers.shape[2]):
            s, c, p = scales[:, cols, j, None], centers[:, cols, j, None], pts[:, None, :, j]
            if gaussian:
                o = c[:, :1]
                s = 1.0 / (math.sqrt(2.0) * s)
                z = np.square((c - o) * s - (p - o) * s)
                acc = z if acc is None else acc + z
            else:
                z = (np.abs(c - p) <= s).astype(float)
                acc = z if acc is None else acc * z
        terms = np.exp(-acc) if gaussian else acc
        out = out + np.einsum("bcn,bc->bn", terms, inv_norm)
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_one_component_planes_keep_their_bytes(data):
    # one component per kind (a Gaussian, a uniform or one of each) in each
    # of B groups, whose scales are the group's own or shared by the whole
    # bucket. Nodes lie up to 60 scales out, and every group also gets nodes
    # 37.8 and 40 scales out along its first coordinate, where a Gaussian
    # term is denormal and zero
    d = data.draw(st.integers(1, 2))
    B = data.draw(st.integers(1, 4))
    codes = np.array(data.draw(st.sampled_from([CODES[:1], CODES[1:], CODES, CODES[::-1]])), dtype=np.int8)
    C = len(codes)
    offset = data.draw(st.sampled_from([0.0, 1e4, -1e6]))
    centers = offset + np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=B * C * d, max_size=B * C * d)))
    centers = centers.reshape(B, C, d)
    scale = st.floats(0.05, 2.0)
    if data.draw(st.booleans()):
        shared = np.array(data.draw(st.lists(scale, min_size=C * d, max_size=C * d))).reshape(1, C, d)
        scales = np.repeat(shared, B, axis=0)
    else:
        scales = np.array(data.draw(st.lists(scale, min_size=B * C * d, max_size=B * C * d))).reshape(B, C, d)
    n = data.draw(st.integers(0, 6))
    t = st.one_of(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0))
    far = np.array(data.draw(st.lists(t, min_size=B * n * d, max_size=B * n * d))).reshape(B, n, d)
    edge = np.zeros((B, 2, d))
    edge[:, :, 0] = [37.8, -40.0]
    pts = centers[:, :1] + np.concatenate([edge, far], axis=1) * scales[:, :1]
    want = passes_before(centers, scales, codes, pts)
    if codes.tolist() == [CODES[0]]:
        assert np.all(want[:, 1] == 0.0) and np.all((want[:, 0] > 0.0) & (want[:, 0] < np.finfo(float).tiny))
    ws = {}
    for _ in range(2):  # constants compiled by this call, then kept in ws
        assert np.array_equal(_mixture_sum(centers, scales, _kind_columns(codes), pts, ws), want)
