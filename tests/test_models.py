import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import horner

from eivmix import ParametricModel
from eivmix.models import AFFINE_KD, GENERIC, POLYNOMIAL_1D, model_eval, model_eval_batch


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
    def hook(alpha, xs):
        return np.column_stack([alpha[0] * np.sin(xs[:, 0]), alpha[1] + xs[:, 1]])

    m = ParametricModel.generic(2, 2, 2, hook)
    xs = np.array([[0.5, 1.0], [1.5, -1.0]])
    got = model_eval_batch(m, [2.0, 3.0], xs)
    want = np.array([[2.0 * np.sin(0.5), 4.0], [2.0 * np.sin(1.5), 2.0]])
    np.testing.assert_allclose(got, want)


def test_generic_hook_shape_check():
    # one output row, as a hook of a single point would return it, is not
    # the (n, m) block the batch contract asks for
    m = ParametricModel.generic(1, 2, 1, lambda a, x: np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"hook returned shape \(2,\), expected \(3, 2\).*\(n, k\)"):
        model_eval_batch(m, [0.0], np.ones((3, 1)))


def test_generic_hook_gets_read_only_arguments():
    # a hook writing into alpha would move the caller's parameters (in fit, a
    # simplex vertex); one writing into xs would move compiled nodes
    def bump_alpha(a, xs):
        a[1] += 1
        return xs

    def scale_xs(a, xs):
        xs *= 2
        return xs

    alpha, xs = np.array([0.0, 0.5]), np.ones((3, 1))
    for hook in (bump_alpha, scale_xs):
        with pytest.raises(ValueError, match="read-only"):
            model_eval_batch(ParametricModel.generic(1, 1, 2, hook), alpha, xs)
    assert alpha.tolist() == [0.0, 0.5] and xs.tolist() == [[1.0]] * 3


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


@pytest.mark.parametrize("family, k, p, message, hook", [
    pytest.param("bogus", 1, 2, "unknown model family", None, id="bogus-1-2-unknown model family"),
    pytest.param(AFFINE_KD, 2, 2, "input_dim \\+ 1 parameters", None,
                 id="affine-kd-2-2-input_dim \\+ 1 parameters"),
    pytest.param(POLYNOMIAL_1D, 2, 3, "scalar inputs", None, id="polynomial-1d-2-3-scalar inputs"),
    # a hook the family would never call, and one that cannot be called
    pytest.param(AFFINE_KD, 1, 2, "takes no eval hook", lambda a, xs: xs, id="affine-kd-with-hook"),
    pytest.param(GENERIC, 1, 2, "callable eval hook", 1.0, id="generic-hook-not-callable"),
])
def test_rejects_models_its_evaluator_cannot_honour(family, k, p, message, hook):
    with pytest.raises(ValueError, match=message):
        ParametricModel(family, k, 1, p, eval_hook=hook)


finite = st.floats(-1e3, 1e3, allow_nan=False)


def affine(a, xs):
    """The affine family's batch expression."""
    return (np.matmul(xs, a[1:]) + a[0])[:, None]


def generic_twin(model):
    """A generic model whose batch hook computes the built-in family's expression."""
    hook = horner if model.family == POLYNOMIAL_1D else affine
    return ParametricModel.generic(model.input_dim, 1, model.param_dim, hook)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_batch_into_out_is_exact(data):
    # writing into a reused buffer gives the bits of a fresh evaluation,
    # whatever the buffer held, and the polynomial's Horner steps in place
    # are polyval's, in its order; a generic batch hook computing a built-in
    # family's expression in the same order gives that family's bits
    builtin = data.draw(st.one_of(
        st.builds(ParametricModel.polynomial_1d, st.integers(0, 5)),
        st.just(ParametricModel.affine_1d()),
        st.builds(ParametricModel.affine_kd, st.integers(1, 4)),
    ))
    model = data.draw(st.sampled_from([builtin, generic_twin(builtin)]))
    n = data.draw(st.integers(1, 40))
    xs = np.array(data.draw(st.lists(finite, min_size=n * model.input_dim, max_size=n * model.input_dim)))
    xs = xs.reshape(n, model.input_dim)
    alpha = np.array(data.draw(st.lists(finite, min_size=model.param_dim, max_size=model.param_dim)))
    want = model_eval_batch(model, alpha, xs)
    buf = np.full((n, 1), data.draw(st.sampled_from([np.nan, np.inf, -0.0, 7.0])))
    got = model_eval_batch(model, alpha, xs, out=buf)
    assert got is buf and got.tobytes() == want.tobytes()
    assert got.tobytes() == model_eval_batch(builtin, alpha, xs).tobytes()
    if builtin.family == POLYNOMIAL_1D:
        np.testing.assert_array_equal(got[:, 0], np.polynomial.polynomial.polyval(xs[:, 0], alpha))
