import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivmix import ParametricModel
from eivmix.models import AFFINE_KD, POLYNOMIAL_1D, model_eval, model_eval_batch


def test_affine_1d():
    m = ParametricModel.affine_1d()
    assert (m.family, m.input_dim, m.output_dim, m.param_dim) == (AFFINE_KD, 1, 1, 2)
    assert model_eval(m, [1.0, 2.0], [3.0]) == pytest.approx(7.0)
    out = model_eval_batch(m, [1.0, 2.0], np.array([[0.0], [1.0], [-2.0]]))
    np.testing.assert_allclose(out, [[1.0], [3.0], [-3.0]])


def test_affine_kd():
    m = ParametricModel.affine_kd(2)
    assert m.param_dim == 3
    assert model_eval(m, [1.0, 2.0, 3.0], [4.0, 5.0]) == pytest.approx(24.0)
    xs = np.array([[0.0, 0.0], [1.0, -1.0]])
    np.testing.assert_allclose(
        model_eval_batch(m, [1.0, 2.0, 3.0], xs), [[1.0], [0.0]]
    )


def test_polynomial_1d():
    m = ParametricModel.polynomial_1d(3)
    assert m.param_dim == 4
    # 1 - x + 0.5 x^2 + 2 x^3 at x = 2: 1 - 2 + 2 + 16 = 17
    assert model_eval(m, [1.0, -1.0, 0.5, 2.0], [2.0]) == pytest.approx(17.0)
    # degree 0 is the constant model
    c = ParametricModel.polynomial_1d(0)
    np.testing.assert_allclose(
        model_eval_batch(c, [4.2], np.array([[1.0], [9.0]])), [[4.2], [4.2]]
    )


def test_generic_hook():
    def hook(alpha, x):
        return np.array([alpha[0] * np.sin(x[0]), alpha[1] + x[1]])

    m = ParametricModel.generic(2, 2, 2, hook)
    xs = np.array([[0.5, 1.0], [1.5, -1.0]])
    got = model_eval_batch(m, [2.0, 3.0], xs)
    want = np.array([[2.0 * np.sin(0.5), 4.0], [2.0 * np.sin(1.5), 2.0]])
    np.testing.assert_allclose(got, want)


def test_generic_hook_shape_check():
    m = ParametricModel.generic(1, 2, 1, lambda a, x: np.array([1.0]))
    with pytest.raises(ValueError, match="hook returned"):
        model_eval_batch(m, [0.0], np.array([[1.0]]))


def test_validation():
    m = ParametricModel.affine_1d()
    with pytest.raises(ValueError):
        model_eval(m, [1.0], [0.0])  # wrong alpha length
    with pytest.raises(ValueError):
        model_eval(m, [1.0, 2.0], [0.0, 0.0])  # wrong input dim
    with pytest.raises(ValueError):
        model_eval_batch(m, [1.0, 2.0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ParametricModel.affine_kd(0)
    with pytest.raises(ValueError):
        ParametricModel.polynomial_1d(-1)
    with pytest.raises(ValueError):
        ParametricModel(AFFINE_KD, 1, 2, 2)  # multi-output without hook


@pytest.mark.parametrize("family, k, p, message", [
    ("bogus", 1, 2, "unknown model family"),
    (AFFINE_KD, 2, 2, "input_dim \\+ 1 parameters"),
    (POLYNOMIAL_1D, 2, 3, "scalar inputs"),
])
def test_rejects_models_its_evaluator_cannot_honour(family, k, p, message):
    with pytest.raises(ValueError, match=message):
        ParametricModel(family, k, 1, p)


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_batch_into_out_is_exact(data):
    # writing into a reused buffer gives the bits of a fresh evaluation,
    # whatever the buffer held, and the polynomial's Horner steps in place
    # are polyval's, in its order
    model = data.draw(st.one_of(
        st.builds(ParametricModel.polynomial_1d, st.integers(0, 5)),
        st.just(ParametricModel.affine_1d()),
        st.builds(ParametricModel.affine_kd, st.integers(1, 4)),
    ))
    n = data.draw(st.integers(1, 40))
    xs = np.array(data.draw(st.lists(finite, min_size=n * model.input_dim, max_size=n * model.input_dim)))
    xs = xs.reshape(n, model.input_dim)
    alpha = np.array(data.draw(st.lists(finite, min_size=model.param_dim, max_size=model.param_dim)))
    want = model_eval_batch(model, alpha, xs)
    buf = np.full((n, 1), data.draw(st.sampled_from([np.nan, np.inf, -0.0, 7.0])))
    got = model_eval_batch(model, alpha, xs, out=buf)
    assert got is buf and got.tobytes() == want.tobytes()
    if model.family == POLYNOMIAL_1D:
        np.testing.assert_array_equal(got[:, 0], np.polynomial.polynomial.polyval(xs[:, 0], alpha))
