import numpy as np
import pytest

from eivmix import ParametricModel
from eivmix.models import model_eval, model_eval_batch


def test_affine_1d():
    m = ParametricModel.affine_1d()
    assert (m.input_dim, m.output_dim, m.param_dim) == (1, 1, 2)
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
        ParametricModel("affine-1d", 1, 2, 2)  # multi-output without hook
