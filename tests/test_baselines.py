import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrated_deming_penalty

from eivmix import (
    ALL_PAIRS,
    GROUP_MEAN,
    ErrorDensity,
    Group,
    GroupedDataset,
    ParametricModel,
    PairedDataset,
    as_grouped,
    deming_line,
    imputation_fit,
    ols_general,
    ols_line,
)
from eivmix.models import AFFINE_KD, model_eval_batch

G1 = ErrorDensity.gaussian(1.0)
LINE = ParametricModel.affine_1d()


def test_ols_line_exact():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = 1.0 + 2.0 * x
    a1, a2 = ols_line(x, y)
    assert a1 == pytest.approx(1.0, abs=1e-12)
    assert a2 == pytest.approx(2.0, abs=1e-12)


def test_ols_line_known_residuals():
    # hand case: x = 0,1,2; y = 0,1,1  ->  slope 1/2, intercept 1/6
    a1, a2 = ols_line([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert a2 == pytest.approx(0.5, abs=1e-14)
    assert a1 == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_ols_line_errors():
    with pytest.raises(ValueError, match="zero variance"):
        ols_line([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        ols_line([1.0], [1.0])
    with pytest.raises(ValueError):
        ols_line([1.0, 2.0], [1.0])


def test_ols_general_polynomial():
    x = np.linspace(-2, 2, 9)
    alpha = np.array([0.5, -1.0, 0.25])
    y = alpha[0] + alpha[1] * x + alpha[2] * x**2
    res = ols_general(x[:, None], y[:, None], ParametricModel.polynomial_1d(2))
    np.testing.assert_allclose(res.alpha_hat, alpha, atol=1e-12)
    assert res.objective_at_min == pytest.approx(0.0, abs=1e-20)
    assert res.converged and res.iterations == 0


def test_ols_general_plane():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, (20, 3))
    alpha = np.array([1.0, -0.5, 2.0, 0.25])
    ys = alpha[0] + xs @ alpha[1:]
    res = ols_general(xs, ys[:, None], ParametricModel.affine_kd(3))
    np.testing.assert_allclose(res.alpha_hat, alpha, atol=1e-12)


def _reference_design(model, xs):
    # the least-squares designs as first written, one formula per family
    if model.family == AFFINE_KD:
        return np.column_stack([np.ones(xs.shape[0]), xs])
    return np.vander(xs[:, 0], model.param_dim, increasing=True)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ols_design_is_the_model_at_unit_vectors(data):
    # ols_general solves on the design whose column j is the model at the
    # j-th unit parameter vector; for every family linear in alpha that is
    # the family's textbook design, bit for bit up to the sign of zero
    model = data.draw(st.one_of(
        st.builds(ParametricModel.affine_kd, st.integers(1, 4)),
        st.builds(ParametricModel.polynomial_1d, st.integers(0, 5)),
    ))
    n = data.draw(st.integers(1, 30))
    finite = st.floats(-1e3, 1e3)
    xs = np.array(data.draw(st.lists(finite, min_size=n * model.input_dim,
                                     max_size=n * model.input_dim))).reshape(n, model.input_dim)
    design = np.column_stack([model_eval_batch(model, e, xs) for e in np.eye(model.param_dim)])
    want = _reference_design(model, xs)
    # adding +0.0 turns -0.0 into +0.0 and leaves every other value's bits
    assert (design + 0.0).tobytes() == (want + 0.0).tobytes()
    ys = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    want_alpha, _, rank, _ = np.linalg.lstsq(want, ys, rcond=None)
    if rank == model.param_dim:
        got = ols_general(xs, ys, model).alpha_hat
        assert got.tobytes() == want_alpha.tobytes()


def test_ols_general_rank_deficient():
    xs = np.ones((5, 1))
    ys = np.arange(5.0)[:, None]
    with pytest.raises(ValueError, match="rank-deficient"):
        ols_general(xs, ys, LINE)


def test_ols_general_generic_family():
    # nonlinear-in-alpha model solved numerically: y = exp(a x)
    model = ParametricModel.generic(1, 1, 1, lambda a, xs: np.exp(a[0] * xs))
    x = np.linspace(0.1, 1.0, 12)
    y = np.exp(0.7 * x)
    res = ols_general(x[:, None], y[:, None], model)
    assert res.alpha_hat[0] == pytest.approx(0.7, abs=1e-5)


def test_deming_quadratic_root_property():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, 50)
    y = 0.3 + 0.9 * x + rng.standard_normal(50) * 0.3
    x = x + rng.standard_normal(50) * 0.2
    sigma_eta, sigma_eps = 0.2, 0.3
    a1, a2 = deming_line(x, y, sigma_eta, sigma_eps)
    delta = (sigma_eps / sigma_eta) ** 2
    dx, dy = x - x.mean(), y - y.mean()
    sxx, syy, sxy = np.mean(dx * dx), np.mean(dy * dy), np.mean(dx * dy)
    # the slope solves s_xy a^2 + (delta s_xx - s_yy) a - delta s_xy = 0
    resid = sxy * a2**2 + (delta * sxx - syy) * a2 - delta * sxy
    assert resid == pytest.approx(0.0, abs=1e-12)
    assert a1 == pytest.approx(y.mean() - a2 * x.mean(), abs=1e-12)
    assert math.copysign(1.0, a2) == math.copysign(1.0, sxy)


def test_deming_limits():
    rng = np.random.default_rng(8)
    x = rng.uniform(-2, 2, 200)
    y = -0.4 + 1.3 * x + rng.standard_normal(200) * 0.4
    dx, dy = x - x.mean(), y - y.mean()
    sxx, syy, sxy = np.mean(dx * dx), np.mean(dy * dy), np.mean(dx * dy)
    # output noise dominant: OLS of y on x
    _, a2_big = deming_line(x, y, sigma_eta=1e-6, sigma_eps=1.0)
    assert a2_big == pytest.approx(sxy / sxx, rel=1e-6)
    # input noise dominant: inverse regression
    _, a2_small = deming_line(x, y, sigma_eta=1.0, sigma_eps=1e-6)
    assert a2_small == pytest.approx(syy / sxy, rel=1e-6)
    # orthogonal case sits between the two
    _, a2_mid = deming_line(x, y, 1.0, 1.0)
    lo, hi = sorted([sxy / sxx, syy / sxy])
    assert lo <= a2_mid <= hi


def test_deming_negative_slope():
    rng = np.random.default_rng(12)
    x = rng.uniform(-2, 2, 100)
    y = 0.2 - 0.8 * x + rng.standard_normal(100) * 0.2
    a1, a2 = deming_line(x + rng.standard_normal(100) * 0.2, y, 0.2, 0.2)
    assert a2 == pytest.approx(-0.8, abs=0.1)


def test_deming_errors():
    with pytest.raises(ValueError, match="covariance"):
        deming_line([0.0, 1.0], [1.0, 1.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        deming_line([0.0, 1.0], [0.0, 1.0], 0.0, 1.0)


def test_integrated_deming_penalty():
    # (L/2) log(a2^2 s_eta^2 + s_eps^2) with L=10, a2=2, s=0.5,0.5: 5 log(1.25)
    got = integrated_deming_penalty(2.0, 0.5, 0.5, 10)
    assert got == pytest.approx(5.0 * math.log(1.25), rel=1e-14)
    with pytest.raises(ValueError):
        integrated_deming_penalty(1.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        integrated_deming_penalty(1.0, 1.0, 1.0, 0)


def test_imputation_on_paired_data_is_ols():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, 30)
    y = 0.5 + 1.5 * x + rng.standard_normal(30) * 0.2
    ds = as_grouped(PairedDataset.from_arrays(x[:, None], y[:, None], G1, G1))
    want = np.array(ols_line(x, y))
    for strategy in (GROUP_MEAN, ALL_PAIRS):
        res = imputation_fit(ds, LINE, strategy)
        np.testing.assert_allclose(res.alpha_hat, want, atol=1e-12)


def test_imputation_strategies_differ_on_groups():
    g = Group(
        np.array([[0.0], [2.0]]),
        np.array([[0.0], [4.0]]),
        (G1, G1),
        (G1, G1),
    )
    g2 = Group(np.array([[3.0]]), np.array([[1.0]]), (G1,), (G1,))
    ds = GroupedDataset((g, g2), 1, 1)
    # means: (1, 2) and (3, 1) -> the exact line through them
    mean_fit = imputation_fit(ds, LINE, GROUP_MEAN)
    np.testing.assert_allclose(mean_fit.alpha_hat, [2.5, -0.5], atol=1e-12)
    # all-pairs: (0,0),(0,4),(2,0),(2,4),(3,1)
    pairs_fit = imputation_fit(ds, LINE, ALL_PAIRS)
    a1, a2 = ols_line([0.0, 0.0, 2.0, 2.0, 3.0], [0.0, 4.0, 0.0, 4.0, 1.0])
    np.testing.assert_allclose(pairs_fit.alpha_hat, [a1, a2], atol=1e-12)
    assert not np.allclose(mean_fit.alpha_hat, pairs_fit.alpha_hat)


def test_imputation_unknown_strategy():
    ds = as_grouped(
        PairedDataset.from_arrays(np.zeros((2, 1)), np.zeros((2, 1)), G1, G1)
    )
    with pytest.raises(ValueError, match="strategy"):
        imputation_fit(ds, LINE, "nearest")
