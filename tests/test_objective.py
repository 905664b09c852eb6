import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gaussian_twin, horner, quad_oracle_value, single_group

from eivmix import (
    GAUSS_LINE,
    GENERAL,
    INTERVAL_LINE,
    MONTE_CARLO,
    ErrorDensity,
    Group,
    GroupedDataset,
    IntegrationConfig,
    OptimizerConfig,
    ParametricModel,
    as_grouped,
    fit,
    likelihood_interval_line,
    nll_gaussian_hyperplane,
    nll_general,
)
from eivmix import objective
from eivmix.densities import GAUSSIAN
from eivmix.objective import (
    GAUSS_LOG_NORM_PER_GROUP,
    CompiledGaussianPlane,
    CompiledIntervalLine,
    CompiledObjective,
)
from eivmix import PairedDataset, generate_scenario, scenario_spec
from eivmix.optimize import _build_objective
from eivmix.simulate import scenario_model

LINE = ParametricModel.affine_1d()
G1 = ErrorDensity.gaussian(1.0)
FINE = IntegrationConfig(grid_points_per_dim=2001)


# -- frozen micro-cases --------------------------------------------------------


def test_single_pair_gaussian_frozen():
    # x = y = 0, sigma = 1 both sides, identity line: likelihood is the
    # convolution of two standard normals at 0, i.e. N(0; 0, 2) = 1/(2 sqrt(pi))
    ds = single_group([0.0], [0.0], G1, G1)
    v = nll_general(ds, LINE, FINE, [0.0, 1.0])
    assert v.value == pytest.approx(1.2655121234846454, abs=1e-10)
    # shifted output: N(1; 0, 2) adds exactly 1/4 to the log
    ds2 = single_group([0.0], [1.0], G1, G1)
    v2 = nll_general(ds2, LINE, FINE, [0.0, 1.0])
    assert v2.value - v.value == pytest.approx(0.25, abs=1e-10)


def test_closed_form_constant_identity():
    # closed form + R * 0.5 log(2 pi) = fully normalized objective
    ds = single_group([0.0], [0.0], G1, G1)
    closed = nll_gaussian_hyperplane(ds, [0.0, 1.0])
    assert closed.value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    general = nll_general(ds, LINE, FINE, [0.0, 1.0])
    assert general.value == pytest.approx(
        closed.value + GAUSS_LOG_NORM_PER_GROUP, abs=1e-10
    )


def test_two_inputs_one_output_mixture():
    # analytic: (1/2) [N(0; 0, 2) + N(2; 0, 2)]
    ds = single_group([0.0, 2.0], [0.0], G1, G1)
    want = 0.5 * (
        math.exp(0.0) + math.exp(-4.0 / 4.0)
    ) / (2.0 * math.sqrt(math.pi))
    got = nll_general(ds, LINE, FINE, [0.0, 1.0])
    assert got.value == pytest.approx(-math.log(want), abs=1e-10)
    assert got.per_group_log[0] == pytest.approx(math.log(want), abs=1e-10)


def test_point_mass_input_sifting():
    # Dirac input at x: likelihood is exactly f_eps(y - M(x))
    pm = ErrorDensity.point_mass(1)
    ds = single_group([1.5], [2.0], pm, G1)
    got = nll_general(ds, LINE, IntegrationConfig(), [0.0, 1.0])
    # -log phi(0.5) = 0.125 + log sqrt(2 pi)
    assert got.value == pytest.approx(1.0439385332046727, abs=1e-12)


def test_point_mass_output_rejected():
    pm = ErrorDensity.point_mass(1)
    ds = single_group([0.0], [0.0], G1, pm)
    with pytest.raises(ValueError, match="point-mass output"):
        nll_general(ds, LINE, IntegrationConfig(), [0.0, 1.0])


def mixed_point_mass_group():
    pm = ErrorDensity.point_mass(1)
    return Group(np.array([[0.0], [1.0]]), np.array([[0.5]]), (G1, pm), (G1,))


def test_mixed_point_mass_and_gaussian_inputs():
    # half the mixture is a Dirac: value = -log( (f_cont + f_sift) / 2 )
    ds = GroupedDataset((mixed_point_mass_group(),), 1, 1)
    got = nll_general(ds, LINE, FINE, [0.0, 1.0])
    f_cont = math.exp(-(0.5**2) / 4.0) / (2.0 * math.sqrt(math.pi))  # N(0.5;0,2)
    f_sift = math.exp(-0.125) / math.sqrt(2.0 * math.pi)  # phi(0.5-1)
    want = -math.log(0.5 * (f_cont + f_sift))
    assert got.value == pytest.approx(want, abs=1e-10)


def test_interval_line_frozen():
    u1 = ErrorDensity.uniform(1.0)
    ds = single_group([0.0], [0.0], u1, u1)
    # overlap 2 out of mass (2v)(2w) = 4: likelihood 1/2
    got = likelihood_interval_line(ds, [0.0, 1.0])
    assert got.value == pytest.approx(math.log(2.0), abs=1e-14)
    # constant line through the interval: f = 1/(2w) = 1/2
    got0 = likelihood_interval_line(ds, [0.5, 0.0])
    assert got0.value == pytest.approx(math.log(2.0), abs=1e-14)
    # constant line missing the interval: zero likelihood, +inf objective
    miss = likelihood_interval_line(ds, [5.0, 0.0])
    assert miss.value == math.inf
    assert "underflow" in miss.note


def test_interval_line_negative_slope_symmetry():
    u = ErrorDensity.uniform(0.7)
    w = ErrorDensity.uniform(0.3)
    xs, ys = [0.4, -0.2, 1.0], [0.1, 0.6, -0.4]
    ds = single_group(xs, ys, u, w)
    a = likelihood_interval_line(ds, [0.2, 0.9]).value
    # mirroring inputs and slope leaves every overlap unchanged
    ds_m = single_group([-x for x in xs], ys, u, w)
    b = likelihood_interval_line(ds_m, [0.2, -0.9]).value
    assert a == pytest.approx(b, rel=1e-14)


# -- oracle cross-checks -------------------------------------------------------


def test_general_matches_quad_oracle_gaussian():
    rng = np.random.default_rng(42)
    for trial in range(5):
        sizes = rng.integers(1, 4, size=(3, 2))
        groups = []
        for h_n, l_n in sizes:
            din = ErrorDensity.gaussian(float(rng.uniform(0.3, 1.2)))
            dout = ErrorDensity.gaussian(float(rng.uniform(0.3, 1.2)))
            groups.append(
                Group(
                    rng.uniform(-2, 2, (h_n, 1)),
                    rng.uniform(-2, 2, (l_n, 1)),
                    (din,) * h_n,
                    (dout,) * l_n,
                )
            )
        ds = GroupedDataset(tuple(groups), 1, 1)
        alpha = rng.uniform(-1, 1, 2)
        mine = nll_general(ds, LINE, FINE, alpha).value
        oracle = quad_oracle_value(ds, LINE, alpha)
        assert mine == pytest.approx(oracle, rel=1e-9), f"trial {trial}"


def test_general_matches_quad_oracle_polynomial():
    rng = np.random.default_rng(7)
    model = ParametricModel.polynomial_1d(2)
    din = ErrorDensity.gaussian(0.5)
    dout = ErrorDensity.gaussian(0.4)
    ds = single_group(rng.uniform(-1.5, 1.5, 4), rng.uniform(-1, 1, 2), din, dout)
    alpha = np.array([0.3, -0.5, 0.2])
    mine = nll_general(ds, model, FINE, alpha).value
    oracle = quad_oracle_value(ds, model, alpha)
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_interval_closed_form_matches_quad_with_breakpoints():
    rng = np.random.default_rng(11)
    u = ErrorDensity.uniform(0.8)
    w = ErrorDensity.uniform(0.5)
    ds = single_group(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2), u, w)
    alpha = np.array([0.1, 0.7])
    closed = likelihood_interval_line(ds, alpha).value
    # breakpoints at all interval edges seen from the s axis
    pts = []
    for x in ds.groups[0].inputs[:, 0]:
        pts += [x - 0.8, x + 0.8]
    for y in ds.groups[0].outputs[:, 0]:
        pts += [(y - alpha[0] - 0.5) / alpha[1], (y - alpha[0] + 0.5) / alpha[1]]
    oracle = quad_oracle_value(ds, LINE, alpha, points=sorted(pts))
    assert closed == pytest.approx(oracle, rel=1e-10)


def mixed_kind_group():
    # Gaussian and uniform components on both sides of one group
    return Group(
        np.array([[-0.3], [0.6]]),
        np.array([[0.2], [0.5]]),
        (ErrorDensity.gaussian(0.5), ErrorDensity.uniform(0.4)),
        (ErrorDensity.uniform(0.4), ErrorDensity.gaussian(0.5)),
    )


def test_general_matches_quad_oracle_mixed_kinds():
    ds = GroupedDataset((mixed_kind_group(),), 1, 1)
    alpha = np.array([0.1, 0.7])
    # the uniform edges, mapped to s, are the integrand's kinks
    pts = [0.6 - 0.4, 0.6 + 0.4]
    pts += [(0.2 - alpha[0] + e) / alpha[1] for e in (-0.4, 0.4)]
    mine = nll_general(ds, LINE, FINE, alpha).value
    oracle = quad_oracle_value(ds, LINE, alpha, points=sorted(pts))
    # trapezoid error is O(h) across the uniform kinks
    assert mine == pytest.approx(oracle, rel=5e-3)


# -- closed forms ---------------------------------------------------------------


def test_gaussian_line_paired_formula():
    # paired data: value must equal (L/2) log V + sum d^2 / (2 V) exactly
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3, 3, 40)
    ys = 0.3 - 0.7 * xs + rng.standard_normal(40) * 0.5
    sigma_eta, sigma_eps = 0.4, 0.3
    d = ErrorDensity.gaussian(sigma_eta)
    e = ErrorDensity.gaussian(sigma_eps)
    ds = as_grouped(PairedDataset.from_arrays(xs[:, None], ys[:, None], d, e))
    alpha = np.array([0.2, -0.6])
    v = alpha[1] ** 2 * sigma_eta**2 + sigma_eps**2
    resid = alpha[0] + alpha[1] * xs - ys
    want = 0.5 * len(xs) * math.log(v) + float(np.sum(resid**2)) / (2.0 * v)
    got = nll_gaussian_hyperplane(ds, alpha)
    assert got.value == pytest.approx(want, rel=1e-13)


def test_gaussian_plane_matches_general():
    rng = np.random.default_rng(9)
    k = 2
    d = ErrorDensity.gaussian([0.5, 0.8])
    e = ErrorDensity.gaussian(0.6)
    groups = []
    for _ in range(4):
        h_n = int(rng.integers(1, 4))
        groups.append(
            Group(
                rng.uniform(-2, 2, (h_n, k)),
                rng.uniform(-2, 2, (h_n, 1)),
                (d,) * h_n,
                (e,) * h_n,
            )
        )
    ds = GroupedDataset(tuple(groups), k, 1)
    alpha = np.array([0.1, -0.4, 0.3])
    closed = nll_gaussian_hyperplane(ds, alpha)
    cfg = IntegrationConfig(grid_points_per_dim=201)
    general = nll_general(ds, ParametricModel.affine_kd(k), cfg, alpha)
    want = closed.value + ds.n_groups * GAUSS_LOG_NORM_PER_GROUP
    assert general.value == pytest.approx(want, rel=1e-8)


def test_shared_scale_extractors():
    # the Gaussian closed form reads its scales from the dataset's densities
    ds = single_group([0.0], [0.0], ErrorDensity.gaussian(0.3), ErrorDensity.gaussian(0.7))
    compiled = CompiledGaussianPlane(ds)
    np.testing.assert_allclose(compiled.sigma_eta, [0.3])
    assert compiled.var_eps == 0.7**2
    with pytest.raises(ValueError, match="gaussian"):
        CompiledGaussianPlane(
            single_group([0.0], [0.0], ErrorDensity.uniform(1.0), ErrorDensity.gaussian(1.0))
        )
    # differing scales across points are rejected
    g = Group(
        np.array([[0.0], [1.0]]),
        np.array([[0.0], [1.0]]),
        (ErrorDensity.gaussian(0.3), ErrorDensity.gaussian(0.4)),
        (ErrorDensity.gaussian(1.0), ErrorDensity.gaussian(1.0)),
    )
    with pytest.raises(ValueError, match="share"):
        CompiledGaussianPlane(GroupedDataset((g,), 1, 1))


def test_interval_requires_uniform():
    ds = single_group([0.0], [0.0], G1, G1)
    with pytest.raises(ValueError, match="uniform"):
        likelihood_interval_line(ds, [0.0, 1.0])


def _gauss_plane_reference(ds, sigma_eta, sigma_eps, alpha):
    # CompiledGaussianPlane's pairwise formula as first written, on fresh
    # temporaries
    sigma_eta = np.atleast_1d(np.asarray(sigma_eta, dtype=float))
    alpha = np.asarray(alpha, dtype=float)
    slopes = alpha[1:]
    v = float(np.sum(slopes**2 * sigma_eta**2) + sigma_eps**2)
    per_group = np.empty(ds.n_groups)
    for rows, (x, _, _), (y, _, _) in objective._buckets(ds):
        y = y[:, :, 0]
        log_hl = math.log(x.shape[1] * y.shape[1])
        pred = alpha[0] + x @ slopes  # (B, H)
        e = -((pred[:, :, None] - y[:, None, :]) ** 2) / (2.0 * v)  # (B, H, L)
        emax = e.max(axis=(1, 2))
        lse = emax + np.log(np.exp(e - emax[:, None, None]).sum(axis=(1, 2)))
        per_group[rows] = lse - log_hl - 0.5 * math.log(v)
    return per_group


def _interval_line_reference(ds, alpha):
    # CompiledIntervalLine's pairwise formula as first written, on fresh
    # temporaries
    a1, a2 = np.asarray(alpha, dtype=float).tolist()
    per_group = np.empty(ds.n_groups)
    for rows, (x, v, _), (y, w, _) in objective._buckets(ds):
        xb, v, yb, w = x[:, :, 0], v[:, :, 0], y[:, :, 0], w[:, :, 0]
        if abs(a2) < CompiledIntervalLine.A2_TOL * (1.0 + abs(a1)):
            terms = (np.abs(yb - a1) <= w) / (2.0 * w)  # (B, L)
            lik = terms.mean(axis=1)
        else:
            shift = (a1 - yb[:, None, :]) / a2  # (B, 1, L)
            half = w[:, None, :] / abs(a2)
            center = xb[:, :, None] + shift  # (B, H, L)
            cmin = center - half
            cmax = center + half
            vv = v[:, :, None]
            overlap = np.minimum(vv, cmax) - np.maximum(-vv, cmin)
            overlap = np.maximum(overlap, 0.0)
            terms = overlap / (4.0 * vv * w[:, None, :])
            lik = terms.mean(axis=(1, 2))
        with np.errstate(divide="ignore"):
            per_group[rows] = np.log(lik)
    return per_group


# (H, L) per group: paired, three equal groups, one group, and mixed sizes
# that give several buckets, some holding more than one group
_CLOSED_FORM_LAYOUTS = (
    [(1, 1)] * 12,
    [(30, 30)] * 3,
    [(25, 17)],
    [(1, 1), (2, 3), (1, 1), (4, 2), (2, 3), (5, 5), (1, 1)],
)
_CLOSED_FORM_COORDS = st.one_of(
    st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-13, -1e-13, 1e-3, 30.0, -30.0])
)


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 2]),
    sizes=st.one_of(
        st.sampled_from(_CLOSED_FORM_LAYOUTS),
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=8),
    ),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(st.lists(_CLOSED_FORM_COORDS, min_size=3, max_size=3), max_size=4),
)
def test_buffered_closed_forms_are_exact(k, sizes, seed, drawn):
    # both closed forms evaluate into buffers each bucket keeps: every call
    # on one compiled object, interleaved with calls at other alpha, gives
    # per_group_log bit for bit equal to the formulas on fresh temporaries,
    # and an earlier result is unchanged by later calls
    rng = np.random.default_rng(seed)
    groups = []
    for h_n, l_n in sizes:
        ins = tuple(ErrorDensity.uniform([rng.uniform(0.1, 1.0)] * k) for _ in range(h_n))
        outs = tuple(ErrorDensity.uniform(rng.uniform(0.1, 1.0)) for _ in range(l_n))
        groups.append(Group(rng.uniform(-2, 2, (h_n, k)), rng.uniform(-2, 2, (l_n, 1)), ins, outs))
    ds = GroupedDataset(tuple(groups), k, 1)
    # both slope signs, the flat-slope branch (exactly flat and within
    # A2_TOL) and a line missing every output interval (-inf), then the
    # drawn points, then the first point again
    fixed = [[0.2, 0.7, -0.4], [0.2, -0.7, 0.4], [0.5, 0.0, 0.0], [0.5, 1e-13, 0.0], [30.0, 1e-3, 1e-3]]
    calls = [a[: k + 1] for a in fixed + drawn + fixed[:1]]
    # the Gaussian form takes Gaussian densities at the same points
    sigma_eta = [0.3] * k
    gauss_ds = gaussian_twin(ds, sigma_eta, 0.5)
    objectives = [(CompiledGaussianPlane(gauss_ds), lambda a: _gauss_plane_reference(gauss_ds, sigma_eta, 0.5, a))]
    if k == 1:
        objectives.append((CompiledIntervalLine(ds), lambda a: _interval_line_reference(ds, a)))
    kept = []
    for alpha in calls:
        for compiled, reference in objectives:
            got = compiled.evaluate(alpha).per_group_log
            assert got.tobytes() == reference(alpha).tobytes()
            kept.append((got, got.copy()))
    if k == 1:
        # kept[9] is the interval line's fifth call, the line missing every output
        assert np.isneginf(kept[9][0]).all()
    for got, copy in kept:
        assert got.tobytes() == copy.tobytes()


# -- Monte Carlo ----------------------------------------------------------------


def test_monte_carlo_approximates_quadrature():
    rng = np.random.default_rng(5)
    d = ErrorDensity.gaussian(0.5)
    e = ErrorDensity.gaussian(0.5)
    gaussian = single_group(rng.uniform(-2, 2, 6), rng.uniform(-1, 1, 6), d, e)
    mixed = GroupedDataset((mixed_kind_group(),), 1, 1)
    alpha = [0.1, 0.6]
    cfg = IntegrationConfig(method=MONTE_CARLO, mc_samples=200000, seed=1)
    for ds in (gaussian, mixed):
        exact = nll_general(ds, LINE, FINE, alpha).value
        mc = nll_general(ds, LINE, cfg, alpha).value
        assert mc == pytest.approx(exact, rel=2e-2)


def test_monte_carlo_is_deterministic_and_order_free():
    rng = np.random.default_rng(6)
    d = ErrorDensity.gaussian(0.5)
    groups = [
        Group(rng.uniform(-1, 1, (2, 1)), rng.uniform(-1, 1, (2, 1)), (d, d), (d, d))
        for _ in range(3)
    ]
    ds = GroupedDataset(tuple(groups), 1, 1)
    cfg = IntegrationConfig(method=MONTE_CARLO, mc_samples=500, seed=9)
    a = nll_general(ds, LINE, cfg, [0.0, 1.0])
    b = nll_general(ds, LINE, cfg, [0.0, 1.0])
    np.testing.assert_array_equal(a.per_group_log, b.per_group_log)
    # reversing group order permutes per-group logs but keeps each value
    ds_rev = GroupedDataset(tuple(reversed(groups)), 1, 1)
    c = nll_general(ds_rev, LINE, cfg, [0.0, 1.0])
    # group r of ds is group (2 - r) of ds_rev but seeded by its NEW index,
    # so only the multiset of seeds matches; check the value is finite and
    # close rather than identical
    assert math.isfinite(c.value)
    # same-seed evaluations at different alpha share the same draws
    v1 = nll_general(ds, LINE, cfg, [0.0, 1.0]).value
    v2 = nll_general(ds, LINE, cfg, [0.0, 1.0000001]).value
    assert abs(v1 - v2) < 1e-4  # common draws make the objective smooth


def test_monte_carlo_point_mass_exact():
    # with a Dirac input the MC samples sit exactly on the center
    pm = ErrorDensity.point_mass(1)
    ds = single_group([1.5], [2.0], pm, G1)
    cfg = IntegrationConfig(method=MONTE_CARLO, mc_samples=100, seed=0)
    got = nll_general(ds, LINE, cfg, [0.0, 1.0])
    assert got.value == pytest.approx(1.0439385332046727, abs=1e-12)


def test_monte_carlo_override_keeps_the_same_draws():
    # an input_scales override moves the same draws as the compile: it
    # equals, bit for bit, a dataset built with those Gaussian scales, on its
    # first call, after another override and after a plain evaluation
    rng = np.random.default_rng(21)

    def dataset(sigma):
        return GroupedDataset(tuple(
            Group(rng_x, rng_y, (ErrorDensity.gaussian(sigma), ErrorDensity.uniform(0.4)), (G1, G1))
            for rng_x, rng_y in draws
        ), 1, 1)

    draws = [(rng.uniform(-1, 1, (2, 1)), rng.uniform(-1, 1, (2, 1))) for _ in range(3)]
    cfg = IntegrationConfig(method=MONTE_CARLO, mc_samples=300, seed=4)
    alpha = [0.1, 0.6]
    want = CompiledObjective(dataset(0.5), LINE, cfg).evaluate(alpha).per_group_log
    compiled = CompiledObjective(dataset(0.3), LINE, cfg)
    got = [compiled.evaluate(alpha, input_scales=[0.5]).per_group_log]
    compiled.evaluate(alpha, input_scales=[0.7])
    compiled.evaluate(alpha)
    got.append(compiled.evaluate(alpha, input_scales=[0.5]).per_group_log)
    for logs in got:
        assert logs.tobytes() == want.tobytes()


# -- extended objective ----------------------------------------------------------


def test_extended_scale_override():
    # overriding the Gaussian scales must reproduce a dataset built with them
    rng = np.random.default_rng(13)
    xs = rng.uniform(-2, 2, 8)
    ys = rng.uniform(-1, 1, 8)
    ds_03 = single_group(xs, ys, ErrorDensity.gaussian(0.3), ErrorDensity.gaussian(0.6))
    ds_05 = single_group(xs, ys, ErrorDensity.gaussian(0.5), ErrorDensity.gaussian(0.2))
    alpha = [0.2, 0.4]
    got = nll_general(ds_03, LINE, FINE, alpha, input_scales=[0.5], output_scales=[0.2])
    want = nll_general(ds_05, LINE, FINE, alpha)
    assert got.value == pytest.approx(want.value, rel=1e-9)


def test_extended_leaves_uniform_untouched():
    xs, ys = [0.0], [0.0]
    u = ErrorDensity.uniform(1.0)
    ds = single_group(xs, ys, u, u)
    got = nll_general(ds, LINE, FINE, [0.0, 1.0], input_scales=[5.0], output_scales=[5.0])
    want = nll_general(ds, LINE, FINE, [0.0, 1.0])
    assert got.value == pytest.approx(want.value, rel=1e-12)


def test_extended_bounds_contract():
    # overrides must be finite, > 0 and one per coordinate, on both entry points
    ds = single_group([0.0], [0.0], G1, G1)
    rng = np.random.default_rng(5)
    g2 = ErrorDensity.gaussian([0.5, 0.5])
    ds2 = GroupedDataset(
        (Group(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)), (g2,) * 4, (G1,) * 4),),
        2,
        1,
    )
    plane = ParametricModel.affine_kd(2)
    cfg = IntegrationConfig()
    cases = [
        (ds, LINE, [0.0, 1.0], {"input_scales": [0.0]}),
        (ds, LINE, [0.0, 1.0], {"input_scales": [-0.5]}),
        (ds, LINE, [0.0, 1.0], {"output_scales": [math.nan]}),
        (ds2, plane, [0.0, 1.0, 1.0], {"input_scales": [0.3]}),
    ]
    for data, model, alpha, override in cases:
        with pytest.raises(ValueError, match="scale"):
            nll_general(data, model, cfg, alpha, **override)
        with pytest.raises(ValueError, match="scale"):
            CompiledObjective(data, model, cfg).evaluate(alpha, **override)


def test_extended_dimension_check():
    ds = single_group([0.0], [0.0], G1, G1)
    with pytest.raises(ValueError, match="scales"):
        nll_general(ds, LINE, FINE, [0.0, 1.0], input_scales=[1.0, 1.0], output_scales=[1.0])


# -- compiled nodes and blocking ---------------------------------------------------


def plane_r4():
    spec = scenario_spec("plane", R=4)
    return generate_scenario(spec, np.random.default_rng(0)), scenario_model(spec)


def test_generic_batch_hook_keeps_the_built_in_cubic():
    # a whole-block hook doing the polynomial family's Horner steps in its
    # order gives the built-in's bits, and its fit, warm-started by
    # Nelder-Mead from zero rather than by least squares, reaches the same
    # optimum
    spec = scenario_spec("cubic", R=200)
    ds = generate_scenario(spec, np.random.default_rng(0))
    poly = ParametricModel.polynomial_1d(3)
    twin = ParametricModel.generic(1, 1, 4, horner)
    cfg = IntegrationConfig()
    built_in, generic = CompiledObjective(ds, poly, cfg), CompiledObjective(ds, twin, cfg)
    for alpha in (spec.alpha, [0.1, 0.4, 0.05, -0.12]):
        want = built_in.evaluate(alpha).per_group_log
        assert generic.evaluate(alpha).per_group_log.tobytes() == want.tobytes()
    want = fit(ds, poly, GENERAL, cfg, OptimizerConfig()).alpha_hat
    got = fit(ds, twin, GENERAL, cfg, OptimizerConfig()).alpha_hat
    np.testing.assert_allclose(got, want, atol=1e-4)


def test_cached_nodes_match_rebuilt_nodes():
    # the nodes cached at compile time are the ones an input-scale override
    # rebuilds on every call; an override must neither see nor change them
    rng = np.random.default_rng(17)
    d = ErrorDensity.gaussian(0.4)
    gaussian = GroupedDataset(
        tuple(
            Group(rng.uniform(-1, 1, (h, 1)), rng.uniform(-1, 1, (2, 1)), (d,) * h, (G1,) * 2)
            for h in (1, 3, 3)
        ),
        1,
        1,
    )
    mc = IntegrationConfig(method=MONTE_CARLO, mc_samples=500, seed=3)
    cases = [
        (gaussian, IntegrationConfig(), 0.4),
        (gaussian, mc, 0.4),
        (GroupedDataset((mixed_point_mass_group(),), 1, 1), FINE, 1.0),
    ]
    other = 0.7
    alpha = [0.1, 0.8]
    for ds, cfg, scale in cases:
        compiled = CompiledObjective(ds, LINE, cfg)
        plain = compiled.evaluate(alpha).per_group_log
        rebuilt = compiled.evaluate(alpha, input_scales=[scale]).per_group_log
        np.testing.assert_array_equal(plain, rebuilt)
        override = compiled.evaluate(alpha, input_scales=[other]).per_group_log
        assert not np.array_equal(override, plain)
        np.testing.assert_array_equal(compiled.evaluate(alpha).per_group_log, plain)
        # the override equals a dataset rebuilt with that scale
        g_other = ErrorDensity.gaussian(other)
        rescaled = GroupedDataset(
            tuple(
                Group(
                    g.inputs,
                    g.outputs,
                    tuple(g_other if di.kind == GAUSSIAN else di for di in g.input_densities),
                    g.output_densities,
                )
                for g in ds.groups
            ),
            1,
            1,
        )
        fresh = CompiledObjective(rescaled, LINE, cfg).evaluate(alpha).per_group_log
        np.testing.assert_array_equal(override, fresh)


@pytest.mark.parametrize("k", [1, 2])
def test_nodes_are_contiguous(k):
    # every node set, also one rebuilt by an input_scales override, is one
    # C-contiguous block, so evaluate's (B * n, k) reshape is a view, not a
    # copy per evaluation; groups mix Gaussian and point-mass inputs, so a
    # quadrature bucket has grid and point-mass nodes
    rng = np.random.default_rng(5)
    gk, pm = ErrorDensity.gaussian(np.full(k, 0.3)), ErrorDensity.point_mass(k)
    ds = GroupedDataset(tuple(
        Group(rng.normal(size=(3, k)), rng.normal(size=(1, 1)), (gk, pm, gk), (G1,)) for _ in range(2)
    ), k, 1)
    cfgs = [IntegrationConfig(grid_points_per_dim=11), IntegrationConfig(method=MONTE_CARLO, mc_samples=100)]
    sizes = set()
    for cfg in cfgs:
        compiled = CompiledObjective(ds, ParametricModel.affine_kd(k), cfg)
        for b in compiled.buckets:
            xscale = compiled._effective_scales(b.xscale, b.in_kinds, np.full(k, 0.5))
            for pts, _ in b.nodes + compiled._nodes(b, xscale):
                sizes.add(pts.shape[1])
                assert pts.flags.c_contiguous
                assert np.shares_memory(pts.reshape(-1, k), pts)
    assert sizes == {11**k, 1, 100}  # grid, point-mass and Monte Carlo nodes


@pytest.mark.parametrize("block", [1, 7 * 1600])
def test_node_blocks_are_exact(monkeypatch, block):
    # blocks that do not divide the node count give bit-identical sums: a
    # block of 1 gives two-node blocks and, on the odd node counts here, a
    # one-node remainder; 7 * 1600 gives 7-node blocks on the plane output
    # mixture (B * L = 4 * 400)
    plane, plane_model = plane_r4()
    cases = [
        (plane, plane_model, IntegrationConfig(), [0.0, 0.2, 0.4]),
        (GroupedDataset((mixed_kind_group(),), 1, 1), LINE, FINE, [0.1, 0.7]),
    ]
    # one group with many comparable components at every node, where the
    # order of the component sum shows in the last bits
    rng = np.random.default_rng(4)
    centers = rng.normal(size=(1, 50, 2))
    scales = np.full_like(centers, 2.0)
    pts = rng.normal(size=(1, 9, 2))
    parts = [(GAUSSIAN, list(range(50)))]
    want_sum = objective._mixture_sum(centers, scales, parts, pts)
    wants = [CompiledObjective(*case[:3]).evaluate(case[3]).per_group_log for case in cases]
    monkeypatch.setattr(objective, "_BLOCK", block)
    np.testing.assert_array_equal(objective._mixture_sum(centers, scales, parts, pts), want_sum)
    for (ds, model, cfg, alpha), want in zip(cases, wants):
        got = CompiledObjective(ds, model, cfg).evaluate(alpha).per_group_log
        np.testing.assert_array_equal(got, want)


def test_evaluate_memory_is_bounded():
    # one evaluation on four 400-point 2-d groups (61^2 nodes each) used to
    # allocate about 240 MB; node blocks keep it near 3 MB
    ds, model = plane_r4()
    compiled = CompiledObjective(ds, model, IntegrationConfig())
    tracemalloc.start()
    try:
        compiled.evaluate([0.0, 0.2, 0.4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


_FAULT_PROBE = """
import resource
import numpy as np
from eivmix import IntegrationConfig, generate_scenario, scenario_spec
from eivmix.objective import CompiledObjective
from eivmix.simulate import scenario_model

spec = scenario_spec("cubic", R=200)
ds = generate_scenario(spec, np.random.default_rng(0))
compiled = CompiledObjective(ds, scenario_model(spec), IntegrationConfig())
alpha = np.asarray(spec.alpha, dtype=float)
for _ in range(2):
    compiled.evaluate(alpha)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(20):
    compiled.evaluate(alpha + 1e-3 * i)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


_BLAS_PROBE = """
import numpy as np
from eivmix import IntegrationConfig, generate_scenario, scenario_spec
from eivmix.objective import CompiledObjective
from eivmix.simulate import scenario_model

logs = []
for name, R in (("cubic", 200), ("plane", 4)):
    spec = scenario_spec(name, R=R)
    ds = generate_scenario(spec, np.random.default_rng(0))
    compiled = CompiledObjective(ds, scenario_model(spec), IntegrationConfig())
    logs.append(compiled.evaluate(np.asarray(spec.alpha, dtype=float) + 0.05).per_group_log)
print(np.concatenate(logs).tobytes().hex())
"""


def test_evaluate_does_not_depend_on_blas_threads():
    # every contraction of the general objective is an einsum, and its one
    # BLAS call, the pairwise difference, adds one exact product to another
    # (objective._pairwise), so its values are the same bytes at one and at
    # two BLAS threads. The thread count is read when numpy loads: one fresh
    # interpreter each
    root = os.path.dirname(os.path.dirname(objective.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": root, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        probe = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, check=True)
        outputs.append(probe.stdout)
    assert len(outputs[0]) == 2 * 8 * 204 + 1
    assert outputs[0] == outputs[1]


_CLOSED_FORM_BLAS_PROBE = """
import math
import numpy as np
from eivmix import generate_scenario, scenario_spec
from eivmix.objective import CompiledGaussianPlane, CompiledIntervalLine

logs = []
spec = scenario_spec("A", R=3)
ds = generate_scenario(spec, np.random.default_rng(0))
gauss = CompiledGaussianPlane(ds)
for alpha in ([0.0, 0.5], [1.0, 2.0], [math.inf, 1.0]):
    logs.append(gauss.evaluate(alpha).per_group_log)
interval = CompiledIntervalLine(generate_scenario(scenario_spec("D", R=3), np.random.default_rng(0)))
for alpha in ([0.0, 0.5], [0.1, -0.7], [0.02, 0.0], [0.3, 1e-13], [50.0, 1.0]):
    logs.append(interval.evaluate(alpha).per_group_log)
print(np.concatenate(logs).tobytes().hex())
"""


def test_closed_forms_do_not_depend_on_blas_threads():
    # the closed forms' one BLAS call beside x @ slopes is the pairwise
    # difference, exact whatever the thread count; the interval points
    # include a flat slope, a nearly flat one and a disjoint one
    root = os.path.dirname(os.path.dirname(objective.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": root, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        probe = subprocess.run(
            [sys.executable, "-c", _CLOSED_FORM_BLAS_PROBE], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(probe.stdout)
    assert len(outputs[0]) == 2 * 8 * 3 * 8 + 1
    assert outputs[0] == outputs[1]


def test_evaluate_does_not_fault_pages():
    # evaluations reuse each bucket's buffers; fresh temporaries of about
    # 320 KB per bucket were returned to the OS and faulted in again on every
    # call, 124 to 279 minor faults per evaluation on this dataset. The probe runs in
    # a fresh interpreter: the large arrays other tests free raise glibc's
    # mmap threshold, which would hide that churn in this process.
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(objective.__file__))}
    probe = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, check=True)
    assert int(probe.stdout) < 40


_CLOSED_FORM_FAULT_PROBE = """
import resource
import numpy as np
from eivmix import generate_scenario, scenario_spec
from eivmix.objective import CompiledGaussianPlane, CompiledIntervalLine

for name in ("D", "A"):
    spec = scenario_spec(name, R=3)
    ds = generate_scenario(spec, np.random.default_rng(0))
    if name == "D":
        compiled = CompiledIntervalLine(ds)
    else:
        compiled = CompiledGaussianPlane(ds)
    alpha = np.asarray(spec.alpha, dtype=float)
    for _ in range(2):
        compiled.evaluate(alpha)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(20):
        compiled.evaluate(alpha + 1e-3 * i)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_closed_forms_do_not_fault_pages():
    # the closed forms evaluate into (B, H, L) buffers each bucket keeps;
    # fresh temporaries of 240 KB each cost about 400 (interval line, D R=3)
    # and 140 (Gaussian, A R=3) minor faults per evaluation. A fresh
    # interpreter, as in test_evaluate_does_not_fault_pages.
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(objective.__file__))}
    probe = subprocess.run(
        [sys.executable, "-c", _CLOSED_FORM_FAULT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    interval_faults, gauss_faults = map(int, probe.stdout.split())
    assert interval_faults < 40
    assert gauss_faults < 40


def test_reused_buffers_leak_nothing_between_calls():
    # every call overwrites the same buffers: an earlier result keeps its
    # values, and each call equals the same call on a fresh compile, across
    # grid and point-mass nodes, Monte Carlo and both scale overrides
    rng = np.random.default_rng(8)
    G, U, P = ErrorDensity.gaussian(0.5), ErrorDensity.uniform(0.4), ErrorDensity.point_mass(1)
    ds = GroupedDataset(
        tuple(
            Group(rng.normal(size=(len(ins), 1)), rng.normal(size=(len(outs), 1)), ins, outs)
            for ins, outs in [((G,), (G,)), ((G,), (U,)), ((G, U, P), (G, U)), ((G, U, P), (G, U))]
        ),
        1,
        1,
    )
    calls = [
        ([0.1, 0.5], {}),
        ([0.2, 0.4], {"output_scales": [0.8]}),
        ([0.2, 0.4], {"input_scales": [0.3]}),
        ([0.0, 0.6], {}),
        ([0.1, 0.5], {"input_scales": [0.6], "output_scales": [1.2]}),
        ([0.1, 0.5], {}),
    ]
    for cfg in (IntegrationConfig(), IntegrationConfig(method=MONTE_CARLO, mc_samples=300, seed=2)):
        compiled = CompiledObjective(ds, LINE, cfg)
        first = compiled.evaluate([0.1, 0.5]).per_group_log
        kept = first.copy()
        for alpha, overrides in calls:
            got = compiled.evaluate(alpha, **overrides).per_group_log
            want = CompiledObjective(ds, LINE, cfg).evaluate(alpha, **overrides).per_group_log
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(first, kept)


def _compile_peak(ds, model, cfg=IntegrationConfig()):
    tracemalloc.start()
    try:
        CompiledObjective(ds, model, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compile_memory_is_bounded():
    # the input mixture at every grid node comes from per-axis tables in
    # blocks: compiling four 400-point 2-d groups used to peak at 1.76 MB
    # and one 400-point 3-d group at 22.6 MB; building that group's
    # Khatri-Rao product over all 61^2 grid lines at once peaks at 32 MB
    ds, model = plane_r4()
    assert _compile_peak(ds, model) < 1.5 * 2**20
    rng = np.random.default_rng(5)
    d3 = ErrorDensity.gaussian([0.3, 0.3, 0.3])
    group = Group(rng.normal(size=(400, 3)), rng.normal(size=(400, 1)), (d3,) * 400, (G1,) * 400)
    ds3 = GroupedDataset((group,), 3, 1)
    assert _compile_peak(ds3, ParametricModel.affine_kd(3)) < 20 * 2**20


def test_monte_carlo_compile_builds_no_grid():
    # Monte Carlo never reads a grid, so its compile memory must not grow
    # with grid_points_per_dim (a 31^4-node table alone is 28 MB)
    d4 = ErrorDensity.gaussian([0.5] * 4)
    rng = np.random.default_rng(9)
    ds = GroupedDataset(
        [Group(rng.normal(size=(1, 4)), rng.normal(size=(1, 1)), (d4,), (G1,)) for _ in range(20)],
        4, 1,
    )
    peaks = [
        _compile_peak(ds, ParametricModel.affine_kd(4),
                      IntegrationConfig(method=MONTE_CARLO, grid_points_per_dim=g))
        for g in (11, 31)
    ]
    assert abs(peaks[1] - peaks[0]) < 2**20
    assert max(peaks) < 10 * 2**20


# -- concurrent buckets ------------------------------------------------------------

_IN_DENSITIES = (ErrorDensity.gaussian(0.5), ErrorDensity.uniform(0.4), ErrorDensity.point_mass(1))
_OUT_DENSITIES = (ErrorDensity.gaussian(0.3), ErrorDensity.uniform(0.6))
# on the line: a fit, outputs missing the uniform boxes (some groups -inf)
# and outputs missing everything (every group -inf)
_UNDERFLOW_ALPHAS = ([0.1, 0.5], [3.0, 0.5], [40.0, 0.5])
_OVERRIDES = ({}, {"input_scales": [0.3]}, {"output_scales": [0.8]}, {"input_scales": [0.6], "output_scales": [1.2]})


def _grouped(layout, rng) -> GroupedDataset:
    """One scalar group per (input densities, output densities) of layout."""
    return GroupedDataset(tuple(
        Group(rng.normal(size=(len(ins), 1)), rng.normal(size=(len(outs), 1)), tuple(ins), tuple(outs))
        for ins, outs in layout
    ), 1, 1)


def _value_bytes(got) -> tuple:
    return got.per_group_log.tobytes(), np.float64(got.value).tobytes(), got.note


def _four_buckets() -> GroupedDataset:
    (g, u, p), (og, ou) = _IN_DENSITIES, _OUT_DENSITIES
    layout = [((g,), (og,)), ((g,), (ou,)), ((g, u, p), (og, ou)), ((u, u), (og, og)), ((g,), (og,)), ((g, u, p), (og, ou))]
    return _grouped(layout, np.random.default_rng(12))


def _serial_twin(compiled):
    twin = CompiledObjective(compiled.ds, compiled.model, compiled.cfg)
    twin._helpers = 0
    return twin


def _worker_threads() -> int:
    return sum(thread.name == "eivmix-worker" for thread in threading.enumerate())


def _stage_two_threads(compiled, alpha, **overrides) -> set:
    """The ids of the threads that ran stage two of compiled.evaluate(alpha, **overrides)."""
    real, threads = objective._bucket_logs, set()

    def spy(*args):
        threads.add(threading.get_ident())
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objective, "_bucket_logs", spy)
        compiled.evaluate(alpha, **overrides)
    return threads


@settings(max_examples=40, deadline=None)
@given(
    layout=st.lists(
        st.tuples(st.lists(st.sampled_from(_IN_DENSITIES), min_size=1, max_size=3),
                  st.lists(st.sampled_from(_OUT_DENSITIES), min_size=1, max_size=3)),
        min_size=2, max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
    monte_carlo=st.booleans(),
)
def test_workers_give_the_serial_bytes(layout, seed, monte_carlo):
    # stage two runs bucket by bucket on worker threads, each bucket into
    # its own buffers: every call equals, byte for byte, the same call with
    # no workers, over mixed group sizes and kinds, both methods, both
    # overrides and alphas where some or all groups underflow
    cfg = (IntegrationConfig(method=MONTE_CARLO, mc_samples=100, seed=seed % 5) if monte_carlo
           else IntegrationConfig(grid_points_per_dim=21))
    threaded = CompiledObjective(_grouped(layout, np.random.default_rng(seed)), LINE, cfg)
    serial = _serial_twin(threaded)
    for alpha in _UNDERFLOW_ALPHAS:
        for overrides in _OVERRIDES:
            assert _value_bytes(threaded.evaluate(alpha, **overrides)) == _value_bytes(serial.evaluate(alpha, **overrides))
    assert _stage_two_threads(serial, _UNDERFLOW_ALPHAS[0]) == {threading.get_ident()}


def test_more_workers_than_cpus_under_fast_thread_switching():
    # four workers, more than the CPUs here and than the three tasks each
    # call hands out, switching every microsecond: a result read from
    # another call, or a buffer written by two threads at once, would
    # change the bytes
    ds = _four_buckets()
    threaded = CompiledObjective(ds, LINE, IntegrationConfig(grid_points_per_dim=51))
    threaded._helpers = 4
    serial = _serial_twin(threaded)
    calls = [(alpha, overrides) for alpha in _UNDERFLOW_ALPHAS for overrides in _OVERRIDES]
    want = [_value_bytes(serial.evaluate(alpha, **overrides)) for alpha, overrides in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert [_value_bytes(threaded.evaluate(alpha, **o)) for alpha, o in calls] == want
    finally:
        sys.setswitchinterval(interval)
    assert objective._WORKERS.threads >= 4 and _worker_threads() == objective._WORKERS.threads


def _evaluate_side_by_side(compiled, calls, got):
    got.append([_value_bytes(compiled.evaluate(alpha)) for alpha in calls])


def test_two_callers_share_the_workers():
    # two user threads, each with its own objective, hand their tasks to
    # the one worker set at once, switching every microsecond: each gets
    # its serial bytes
    spec = scenario_spec("cubic", R=200)
    cubic = CompiledObjective(generate_scenario(spec, np.random.default_rng(0)), scenario_model(spec), IntegrationConfig())
    four = CompiledObjective(_four_buckets(), LINE, IntegrationConfig(grid_points_per_dim=51))
    runs = []
    for compiled, calls in ((cubic, [np.asarray(spec.alpha, dtype=float) + 0.05 * i for i in range(20)]),
                            (four, [_UNDERFLOW_ALPHAS[i % 3] for i in range(20)])):
        compiled._helpers = 2
        runs.append((compiled, calls, [], [_value_bytes(_serial_twin(compiled).evaluate(alpha)) for alpha in calls]))
    threads = [threading.Thread(target=_evaluate_side_by_side, args=run[:3], daemon=True) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for _, _, got, want in runs:
        assert got == [want]


_THREAD_PROBE = """
import threading
import numpy as np
from eivmix import IntegrationConfig, OptimizerConfig, fit, generate_scenario, scenario_spec
from eivmix.objective import CompiledObjective, _cpus
from eivmix.simulate import scenario_model

def workers():
    return sum(thread.name == "eivmix-worker" for thread in threading.enumerate())

counts = [threading.active_count()]
spec = scenario_spec("A", R=3)
fit(generate_scenario(spec, np.random.default_rng(0)), scenario_model(spec), "gauss-line", IntegrationConfig(), OptimizerConfig())
counts.append(threading.active_count())
spec = scenario_spec("cubic", R=200)
ds, model = generate_scenario(spec, np.random.default_rng(0)), scenario_model(spec)
live = [CompiledObjective(ds, model, IntegrationConfig()) for _ in range(20)]
for compiled in live:
    compiled.evaluate(np.asarray(spec.alpha, dtype=float) + 0.05)
counts.append(workers())
print(_cpus(), *counts)
"""


def test_the_process_shares_one_bounded_worker_set():
    # importing eivmix and a closed-form fit start no thread, and 20 live
    # multi-bucket objectives run on one worker set of at most one thread
    # fewer than the CPUs, not on a set each
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(objective.__file__))}
    probe = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120)
    cpus, imported, fitted, workers = map(int, probe.stdout.split())
    assert (imported, fitted) == (1, 1)
    assert workers == min(2, cpus) - 1


def _caller_waits_for_a_worker(monkeypatch, on_worker):
    """Patch stage two's _mixture_sum: the calling thread waits until a
    worker has entered it, so each evaluation runs a task on a worker;
    a worker runs on_worker(real, args). Returns the worker thread ids."""
    real, caller, started, workers = objective._mixture_sum, threading.get_ident(), threading.Event(), set()

    def patched(*args):
        if threading.get_ident() == caller:
            assert started.wait(30)
            return real(*args)
        workers.add(threading.get_ident())
        started.set()
        return on_worker(real, args)

    monkeypatch.setattr(objective, "_mixture_sum", patched)
    return workers


def test_model_hooks_run_on_the_calling_thread(monkeypatch):
    # stage one, the model at the nodes, never leaves the caller: a generic
    # hook, also under an input_scales override, which rebuilds the nodes
    hook_threads = set()

    def hook(alpha, xs):
        hook_threads.add(threading.get_ident())
        return alpha[0] + alpha[1] * xs

    compiled = CompiledObjective(_four_buckets(), ParametricModel.generic(1, 1, 2, hook), IntegrationConfig())
    compiled._helpers = 2
    workers = _caller_waits_for_a_worker(monkeypatch, lambda real, args: real(*args))
    for overrides in _OVERRIDES:
        compiled.evaluate([0.1, 0.5], **overrides)
    assert hook_threads == {threading.get_ident()}
    assert workers and threading.get_ident() not in workers


def test_an_idle_worker_keeps_no_buffers_alive(monkeypatch):
    # a worker waiting for its next job holds no finished task: once its
    # objective is gone, no bucket's buffers outlive it, even while the
    # worker itself lives on
    compiled = CompiledObjective(_four_buckets(), LINE, IntegrationConfig())
    compiled._helpers = 1
    _caller_waits_for_a_worker(monkeypatch, lambda real, args: real(*args))
    compiled.evaluate([0.1, 0.5])
    buffers = [weakref.ref(ws["out"]) for b in compiled.buckets for ws in b.ws]
    del compiled
    deadline = time.monotonic() + 30
    while any(ref() is not None for ref in buffers) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(ref() is None for ref in buffers)
    assert _worker_threads() >= 1


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    compiled = CompiledObjective(_four_buckets(), LINE, IntegrationConfig())
    compiled._helpers = 1
    want = _value_bytes(compiled.evaluate([0.1, 0.5]))

    def fail(real, args):
        raise FloatingPointError("from a worker")

    _caller_waits_for_a_worker(monkeypatch, fail)
    with pytest.raises(FloatingPointError, match="from a worker"):
        compiled.evaluate([0.1, 0.5])
    monkeypatch.undo()
    assert _value_bytes(compiled.evaluate([0.1, 0.5])) == want


def test_an_interrupt_waits_for_every_task(monkeypatch):
    # an interrupt in the caller's own task is raised only once the task a
    # worker is running has finished: no later call can meet that task
    # still writing into its bucket's buffers
    compiled = CompiledObjective(_four_buckets(), LINE, IntegrationConfig())
    compiled._helpers = 1
    want = _value_bytes(compiled.evaluate([0.1, 0.5]))
    real, caller, started, finished = objective._mixture_sum, threading.get_ident(), threading.Event(), threading.Event()

    def patched(*args):
        if threading.get_ident() == caller:
            assert started.wait(30)
            raise KeyboardInterrupt
        started.set()
        time.sleep(0.2)
        out = real(*args)
        finished.set()
        return out

    monkeypatch.setattr(objective, "_mixture_sum", patched)
    with pytest.raises(KeyboardInterrupt):
        compiled.evaluate([0.1, 0.5])
    assert finished.is_set()
    monkeypatch.undo()
    assert _value_bytes(compiled.evaluate([0.1, 0.5])) == want


def _evaluate_in_child(compiled, alpha, conn):
    got = compiled.evaluate(alpha)
    conn.send((_value_bytes(got), _worker_threads()))
    conn.close()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_starts_its_own_workers():
    # threads do not survive a fork: a child whose parent has started its
    # workers starts its own one, and gets the parent's bytes
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    ctx = multiprocessing.get_context("fork")
    compiled = CompiledObjective(_four_buckets(), LINE, IntegrationConfig())
    compiled._helpers = 1
    alpha = [0.1, 0.5]
    want = _value_bytes(compiled.evaluate(alpha))
    assert _worker_threads() >= 1
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_evaluate_in_child, args=(compiled, alpha, theirs))
    child.start()
    theirs.close()
    try:
        assert ours.poll(60)
        assert ours.recv() == (want, 1)
    finally:
        ours.close()
        child.join(60)
    assert not child.is_alive() and child.exitcode == 0


_ONE_CPU_PROBE = """
import os, sys, threading
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from eivmix import IntegrationConfig, generate_scenario, scenario_spec
from eivmix.objective import CompiledObjective
from eivmix.simulate import scenario_model

spec = scenario_spec("cubic", R=200)
compiled = CompiledObjective(generate_scenario(spec, np.random.default_rng(0)), scenario_model(spec), IntegrationConfig())
logs = compiled.evaluate(np.asarray(spec.alpha, dtype=float) + 0.05).per_group_log
print(len(compiled.buckets), compiled._helpers, threading.active_count(), logs.tobytes().hex())
"""


def test_one_cpu_takes_the_serial_path():
    # the CPU rule: one worker fewer than the CPUs this process may run on,
    # and none on one CPU, where no thread starts; the bytes are the same
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity call on this platform")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(objective.__file__))}
    runs = {}
    for how in ("pinned", "free"):
        probe = subprocess.run([sys.executable, "-c", _ONE_CPU_PROBE, how], env=env, capture_output=True, text=True, check=True)
        runs[how] = probe.stdout.split()
    buckets, helpers, threads, logs = runs["pinned"]
    assert (buckets, helpers, threads) == ("2", "0", "1")
    free_helpers = min(2, len(os.sched_getaffinity(0))) - 1
    assert runs["free"] == [buckets, str(free_helpers), str(1 + free_helpers), logs]


# -- sliced buckets ------------------------------------------------------------------


def _compiled_on(cpus, slice_terms, *args):
    """A CompiledObjective compiled as if on ``cpus`` CPUs, with ``_SLICE`` at slice_terms."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objective, "_cpus", lambda: cpus)
        patch.setattr(objective, "_SLICE", slice_terms)
        return CompiledObjective(*args)


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(
        st.tuples(st.lists(st.sampled_from(_IN_DENSITIES), min_size=1, max_size=3),
                  st.lists(st.sampled_from(_OUT_DENSITIES), min_size=1, max_size=3)),
        min_size=1, max_size=3,
    ),
    picks=st.lists(st.integers(0, 2), min_size=2, max_size=10),
    seed=st.integers(0, 2**32 - 1),
    monte_carlo=st.booleans(),
)
def test_slices_give_the_whole_bucket_bytes(kinds, picks, seed, monte_carlo):
    # a slice of one term cuts every bucket into min(3, B) slices of whole
    # groups: every call equals, byte for byte, the same call on whole
    # buckets, over groups of repeated and interleaved kinds, both methods,
    # both overrides and alphas where some or all groups underflow
    layout = [kinds[i % len(kinds)] for i in picks]
    cfg = (IntegrationConfig(method=MONTE_CARLO, mc_samples=100, seed=seed % 5) if monte_carlo
           else IntegrationConfig(grid_points_per_dim=21))
    args = (_grouped(layout, np.random.default_rng(seed)), LINE, cfg)
    whole, sliced = _compiled_on(1, 1, *args), _compiled_on(3, 1, *args)
    assert len(sliced.buckets) == sum(min(3, len(b.idx)) for b in whole.buckets)
    covered = np.sort(np.concatenate([b.idx for b in sliced.buckets]))
    assert covered.tolist() == list(range(len(layout)))
    for alpha in _UNDERFLOW_ALPHAS:
        for overrides in _OVERRIDES:
            assert _value_bytes(sliced.evaluate(alpha, **overrides)) == _value_bytes(whole.evaluate(alpha, **overrides))
    assert _stage_two_threads(whole, _UNDERFLOW_ALPHAS[0]) == {threading.get_ident()}


def test_small_buckets_stay_whole():
    # the cubic study's buckets, 40k and 20k output terms, are each below
    # one slice's worth, so they stay whole on any number of CPUs
    spec = scenario_spec("cubic", R=200)
    args = (generate_scenario(spec, np.random.default_rng(0)), scenario_model(spec), IntegrationConfig())
    for cpus in (1, 2, 3, 64):
        compiled = _compiled_on(cpus, objective._SLICE, *args)
        assert [len(b.idx) for b in compiled.buckets] == [198, 2]
        assert compiled._helpers == min(2, cpus) - 1


def test_one_large_bucket_is_sliced_per_cpu():
    # four 400-point groups, 5.95M output terms in one bucket: two CPUs
    # give two slices of two groups and one worker, one CPU the whole
    # bucket and no thread
    ds, model = plane_r4()
    alpha = [0.0, 0.2, 0.4]
    two = _compiled_on(2, objective._SLICE, ds, model, IntegrationConfig())
    assert [b.idx.tolist() for b in two.buckets] == [[0, 1], [2, 3]]
    assert two._helpers == 1
    one = _compiled_on(1, objective._SLICE, ds, model, IntegrationConfig())
    assert [b.idx.tolist() for b in one.buckets] == [[0, 1, 2, 3]]
    assert one._helpers == 0
    before = threading.active_count()
    want = _value_bytes(one.evaluate(alpha))
    assert threading.active_count() == before
    assert _stage_two_threads(one, alpha) == {threading.get_ident()}
    assert _value_bytes(two.evaluate(alpha)) == want


# -- infrastructure ---------------------------------------------------------------


def test_underflow_gives_inf_not_nan():
    d = ErrorDensity.gaussian(0.01)
    ds = single_group([0.0], [1000.0], d, d)
    got = nll_general(ds, LINE, IntegrationConfig(), [0.0, 1.0])
    assert got.value == math.inf
    assert not np.isnan(got.per_group_log).any()
    assert "underflow in groups [0]" in got.note


def test_gaussian_variance_overflow_gives_inf_not_nan():
    # V = alpha_2^2 sigma_eta^2 + sigma_eps^2 overflows at the slope 1e200;
    # at the other points V is finite but every squared residual is inf,
    # which used to give inf - inf = NaN. The interval form is +inf there too
    ds = generate_scenario(scenario_spec("A", R=3), np.random.default_rng(0))
    for alpha in ([0.0, 1e200], [1e300, 1.0], [math.inf, 1.0], [-math.inf, 1.0]):
        got = nll_gaussian_hyperplane(gaussian_twin(ds, 0.3, 0.3), alpha)
        assert got.value == math.inf and got.note == "likelihood underflow in groups [0, 1, 2]"
        assert np.all(got.per_group_log == -math.inf)
    for eta, eps in ((1e200, 1.0), (1.0, 1e200)):
        assert nll_gaussian_hyperplane(gaussian_twin(ds, eta, eps), [0.0, 1.0]).value == math.inf


def _rescaled_gaussian_nll(ds, sigma_eta, sigma_eps, alpha) -> float:
    # the line's Gaussian closed form with t = |a| sigma_eta factored out of
    # the residual d and of V, so nothing overflows where a or sigma_eta is
    # near 1e154 or beyond: u = (d/t)^2 / (2 V/t^2), log V = 2 log t + log(V/t^2)
    a0, a = alpha
    t = abs(a) * sigma_eta
    v_t = 1.0 + (sigma_eps / t) ** 2
    total = 0.0
    for g in ds.groups:
        d = (a0 / t + g.inputs[:, 0] * (a / t))[:, None] - g.outputs[:, 0][None, :] / t
        e = -(d**2) / (2.0 * v_t)
        log_sum = e.max() + math.log(np.exp(e - e.max()).sum())
        total -= log_sum - math.log(d.size) - math.log(t) - 0.5 * math.log(v_t)
    return total


def test_gaussian_variance_near_overflow_is_finite():
    # slopes**2 overflows at the first point and 2V at the second, though V
    # and every u are finite: the first used to give +inf with an underflow
    # note, the second 1064.3413, dropping every residual (u = d^2 / inf)
    ds = generate_scenario(scenario_spec("A", R=3), np.random.default_rng(0))
    for sigma_eta, alpha, want in ((0.3, [0.0, 2e154], 1079.4945665901), (10.0, [0.0, 1.2e153], 1064.3900384270)):
        got = nll_gaussian_hyperplane(gaussian_twin(ds, sigma_eta, 0.3), alpha)
        assert got.note is None
        assert got.value == pytest.approx(_rescaled_gaussian_nll(ds, sigma_eta, 0.3, alpha), rel=1e-12)
        assert got.value == pytest.approx(want, rel=1e-12)
    # sigma_eta^2 overflows here: times slope^2 = 1e-200 it used to give
    # V = inf and +inf, times a slope^2 that underflows to 0 NaN, and a zero
    # slope makes sigma_eta irrelevant
    for slope in (1e-100, 1e-170):
        got = nll_gaussian_hyperplane(gaussian_twin(ds, 1e200, 0.3), [0.0, slope])
        assert got.value == pytest.approx(_rescaled_gaussian_nll(ds, 1e200, 0.3, [0.0, slope]), rel=1e-12)
    flat = nll_gaussian_hyperplane(gaussian_twin(ds, 1.0, 0.3), [0.0, 0.0]).value
    assert nll_gaussian_hyperplane(gaussian_twin(ds, 1e200, 0.3), [0.0, 0.0]).value == pytest.approx(flat, rel=1e-12)


def _from_group_logs_reference(per_group_log):
    # the decomposition as first written: scan for -inf, then sum; the note
    # names the first ten such groups and counts the rest
    if np.any(np.isneginf(per_group_log)):
        bad = np.flatnonzero(np.isneginf(per_group_log)).tolist()
        note = "likelihood underflow in groups " + str(bad[:10])
        if len(bad) > 10:
            note += f" and {len(bad) - 10} more"
        return math.inf, note
    return float(-per_group_log.sum()), None


def test_underflow_note_is_bounded():
    # every one of 300 groups underflows here; the note used to list all of
    # them, 1421 characters
    ds = generate_scenario(scenario_spec("A", R=300), np.random.default_rng(0))
    got = nll_general(ds, LINE, IntegrationConfig(), [10.0, 0.5])
    assert got.value == math.inf
    assert got.note == "likelihood underflow in groups [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] and 290 more"


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([-math.inf, math.inf, math.nan])),
    max_size=40,
))
def test_from_group_logs_matches_reference(logs):
    logs = np.array(logs, dtype=float)
    # sums of huge finite values overflow, and +inf meeting -inf is invalid
    with np.errstate(over="ignore", invalid="ignore"):
        want_value, want_note = _from_group_logs_reference(logs)
        got = objective.ObjectiveValue.from_group_logs(logs.copy())
    assert np.array_equal(got.per_group_log, logs, equal_nan=True)
    assert got.note == want_note
    if math.isnan(want_value):
        assert math.isnan(got.value)
    else:
        assert np.float64(got.value).tobytes() == np.float64(want_value).tobytes()


@pytest.mark.parametrize("bad", [[0.0, 0.5, 99.0], [0.5]])
def test_every_objective_checks_alpha_length(bad):
    d_ds = generate_scenario(scenario_spec("D", R=3), np.random.default_rng(0))
    a_ds = generate_scenario(scenario_spec("A", R=3), np.random.default_rng(0))
    message = rf"alpha has shape \({len(bad)},\), expected \(2,\)"
    for evaluate in (
        lambda a: nll_general(d_ds, LINE, IntegrationConfig(), a),
        lambda a: likelihood_interval_line(d_ds, a),
        lambda a: nll_gaussian_hyperplane(a_ds, a),
    ):
        with pytest.raises(ValueError, match=message):
            evaluate(bad)


def test_every_objective_names_the_group_side_and_kind_it_rejects():
    # one gate checks the density kinds of all three objectives, whether
    # built for a fit or constructed directly: group 1's second member has a
    # wrong kind on one side, and the error names that group, the side and
    # the kind. The general objective takes every input kind, so only its
    # output side can be wrong
    gauss, unif, pm = ErrorDensity.gaussian(0.3), ErrorDensity.uniform(0.3), ErrorDensity.point_mass(1)
    direct = {
        GENERAL: lambda ds: CompiledObjective(ds, LINE, IntegrationConfig()),
        GAUSS_LINE: CompiledGaussianPlane,
        INTERVAL_LINE: CompiledIntervalLine,
    }
    for choice, good, bad, side in (
        (GENERAL, gauss, pm, "output"),
        (GAUSS_LINE, gauss, unif, "input"),
        (GAUSS_LINE, gauss, pm, "output"),
        (INTERVAL_LINE, unif, gauss, "input"),
        (INTERVAL_LINE, unif, pm, "output"),
    ):
        groups = []
        for r in range(3):
            members = (good, bad if r == 1 else good)
            ins, outs = (members, (good, good)) if side == "input" else ((good, good), members)
            groups.append(Group(np.array([[0.0], [1.0]]), np.array([[0.5], [1.5]]), ins, outs))
        ds = GroupedDataset(tuple(groups), 1, 1)
        for build in (lambda ds: _build_objective(ds, LINE, choice, IntegrationConfig()), direct[choice]):
            with pytest.raises(ValueError, match=rf"^group 1 has a {bad.kind} {side} density; "):
                build(ds)
    d_ds = generate_scenario(scenario_spec("D", R=3), np.random.default_rng(0))
    message = (
        "group 0 has a uniform-box input density; "
        "the Gaussian closed form requires gaussian-diagonal errors on both sides"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        nll_gaussian_hyperplane(d_ds, [0.0, 0.5])


def test_gaussian_rejects_sigma_eps_whose_square_underflows():
    # sigma_eps^2 = 0 let V = 0 at a zero slope, and log V raised a bare
    # "math domain error"; V >= sigma_eps^2 > 0 once such a scale is rejected
    ds = generate_scenario(scenario_spec("A", R=3), np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"sigma_eps = 1e-200 is too small: its square underflows to 0"):
        CompiledGaussianPlane(gaussian_twin(ds, 1e-200, 1e-200))
    tiny = ErrorDensity.gaussian(1e-200)
    paired = as_grouped(PairedDataset.from_arrays(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), tiny, tiny))
    with pytest.raises(ValueError, match="sigma_eps"):
        fit(paired, LINE, GAUSS_LINE, IntegrationConfig(), OptimizerConfig())
    # a subnormal square is still > 0: every residual's exponent overflows,
    # and the value is +inf with a note, without NaN or a warning
    got = CompiledGaussianPlane(gaussian_twin(ds, 1e-200, 1e-160)).evaluate([0.0, 1.0])
    assert got.value == math.inf and got.note == "likelihood underflow in groups [0, 1, 2]"


def test_objective_value_decomposition():
    rng = np.random.default_rng(21)
    d = ErrorDensity.gaussian(0.5)
    groups = [
        Group(rng.uniform(-1, 1, (2, 1)), rng.uniform(-1, 1, (2, 1)), (d, d), (d, d))
        for _ in range(4)
    ]
    ds = GroupedDataset(tuple(groups), 1, 1)
    got = nll_general(ds, LINE, IntegrationConfig(), [0.1, 0.5])
    assert got.value == pytest.approx(-float(got.per_group_log.sum()), rel=1e-15)
    assert got.per_group_log.shape == (4,)


def test_compiled_objective_reuse_and_call():
    ds = single_group([0.0, 1.0], [0.5], G1, G1)
    compiled = CompiledObjective(ds, LINE, IntegrationConfig())
    a = compiled.evaluate([0.0, 1.0]).value
    b = compiled([0.0, 1.0])
    assert a == b
    c = compiled.evaluate([0.5, -0.3]).value
    assert c != a


def test_model_dataset_dimension_mismatch():
    ds = single_group([0.0], [0.0], G1, G1)
    with pytest.raises(ValueError, match="input_dim"):
        CompiledObjective(ds, ParametricModel.affine_kd(2), IntegrationConfig())


def test_grid_budget_guard():
    d3 = ErrorDensity.gaussian([1.0, 1.0, 1.0])
    g = Group(np.zeros((1, 3)), np.zeros((1, 1)), (d3,), (G1,))
    ds = GroupedDataset((g,), 3, 1)
    model = ParametricModel.generic(3, 1, 1, lambda a, xs: np.full((len(xs), 1), a[0]))
    with pytest.raises(ValueError, match="grid budget"):
        CompiledObjective(ds, model, IntegrationConfig(grid_points_per_dim=205))


def test_lone_group_may_use_the_whole_grid_budget(monkeypatch):
    # one budget covers all groups together, so a lone group may cache up to
    # _MAX_DATASET_GRID_POINTS nodes: 2^22 < 201^3 <= 2^23
    d3 = ErrorDensity.gaussian([1.0, 1.0, 1.0])
    g = Group(np.zeros((1, 3)), np.zeros((1, 1)), (d3,), (G1,))
    model = ParametricModel.affine_kd(3)
    monkeypatch.setattr(CompiledObjective, "_nodes", lambda self, b, xscale: [])
    CompiledObjective(GroupedDataset((g,), 3, 1), model, IntegrationConfig(grid_points_per_dim=201))


def test_dataset_grid_budget_guard(monkeypatch):
    # every group's nodes are cached, so the budget covers all groups together
    d2 = ErrorDensity.gaussian([1.0, 1.0])
    pm = ErrorDensity.point_mass(2)
    model = ParametricModel.affine_kd(2)
    cfg = IntegrationConfig(grid_points_per_dim=11)

    def plane(in_densities):
        return GroupedDataset(
            [Group(np.full((1, 2), r), np.zeros((1, 1)), (d,), (G1,))
             for r, d in enumerate(in_densities)],
            2, 1,
        )

    def no_nodes(self, b, xscale):
        raise AssertionError("nodes built before the budget check")

    monkeypatch.setattr(objective, "_MAX_DATASET_GRID_POINTS", 2 * 11**2)
    monkeypatch.setattr(CompiledObjective, "_nodes", no_nodes)
    with pytest.raises(ValueError, match="grid budget"):
        CompiledObjective(plane([d2, d2, d2]), model, cfg)
    monkeypatch.undo()
    monkeypatch.setattr(objective, "_MAX_DATASET_GRID_POINTS", 2 * 11**2)
    # a point-mass group has no grid; Monte Carlo has no grid at all
    CompiledObjective(plane([d2, pm, d2]), model, cfg)
    CompiledObjective(plane([d2, d2, d2]), model, IntegrationConfig(method=MONTE_CARLO))


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(method="simpson")
    with pytest.raises(ValueError):
        IntegrationConfig(mc_samples=10)
    with pytest.raises(ValueError):
        IntegrationConfig(grid_points_per_dim=100)  # even
    with pytest.raises(ValueError):
        IntegrationConfig(grid_halfwidth_sigmas=0.0)
    with pytest.raises(ValueError, match="finite"):
        IntegrationConfig(grid_halfwidth_sigmas=math.inf)
    assert IntegrationConfig().points_for_dim(1) == 201
    assert IntegrationConfig().points_for_dim(2) == 61
    assert IntegrationConfig(grid_points_per_dim=301).points_for_dim(2) == 301
