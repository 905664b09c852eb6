import numpy as np
import pytest

from oracles import density_eval

from eivmix import (
    GAUSSIAN,
    POINT_MASS,
    UNIFORM,
    DensityParams,
    ErrorDensity,
)
from eivmix.densities import density_sample

# standard normal pdf at 1 and at 0, to 17 digits
PHI_1 = 0.24197072451914337
PHI_0 = 0.3989422804014327


def test_gaussian_frozen_values():
    d = ErrorDensity.gaussian(1.0)
    assert d.kind == GAUSSIAN and d.dim == 1
    assert density_eval(d, [0.0]) == pytest.approx(PHI_0, rel=1e-15)
    assert density_eval(d, [1.0]) == pytest.approx(PHI_1, rel=1e-15)
    assert density_eval(d, [-1.0]) == pytest.approx(PHI_1, rel=1e-15)


def test_gaussian_scaling():
    d = ErrorDensity.gaussian(2.0)
    # f(s) = phi(s/2)/2
    assert density_eval(d, [2.0]) == pytest.approx(PHI_1 / 2.0, rel=1e-15)


def test_gaussian_diagonal_2d():
    d = ErrorDensity.gaussian([1.0, 2.0])
    # at the origin: 1 / (2 pi * 1 * 2) = 1 / (4 pi)
    assert density_eval(d, [0.0, 0.0]) == pytest.approx(
        0.07957747154594767, rel=1e-15
    )
    # separability
    got = density_eval(d, [0.5, -1.0])
    want = density_eval(ErrorDensity.gaussian(1.0), [0.5]) * density_eval(
        ErrorDensity.gaussian(2.0), [-1.0]
    )
    assert got == pytest.approx(want, rel=1e-14)


def test_uniform_box():
    d = ErrorDensity.uniform(0.5)
    assert d.kind == UNIFORM
    assert density_eval(d, [0.3]) == 1.0
    assert density_eval(d, [0.5]) == 1.0  # boundary included
    assert density_eval(d, [0.6]) == 0.0


def test_uniform_box_2d():
    d = ErrorDensity.uniform([1.0, 2.0])
    assert density_eval(d, [0.5, -1.5]) == pytest.approx(0.125, rel=1e-15)
    assert density_eval(d, [1.5, 0.0]) == 0.0


def test_point_mass_has_no_numeric_value():
    d = ErrorDensity.point_mass(1)
    assert d.kind == POINT_MASS
    assert d.scale.size == 0
    with pytest.raises(ValueError, match="sifting"):
        density_eval(d, [0.0])


def test_validation_errors():
    with pytest.raises(ValueError):
        ErrorDensity.gaussian(0.0)
    with pytest.raises(ValueError):
        ErrorDensity.gaussian(-1.0)
    with pytest.raises(ValueError):
        ErrorDensity.uniform([1.0, np.inf])
    # the Gaussian closed form relies on this guard for its finite scales
    for scale in (np.inf, np.nan, [1.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ErrorDensity.gaussian(scale)
    with pytest.raises(ValueError):
        ErrorDensity(GAUSSIAN, np.array([1.0, 1.0]), 3)
    with pytest.raises(ValueError):
        ErrorDensity(POINT_MASS, np.array([1.0]), 1)
    with pytest.raises(ValueError):
        ErrorDensity("triangular", np.array([1.0]), 1)
    with pytest.raises(ValueError):
        density_eval(ErrorDensity.gaussian(1.0), [0.0, 0.0])


def test_scale_is_immutable():
    d = ErrorDensity.gaussian([1.0, 2.0])
    with pytest.raises(ValueError):
        d.scale[0] = 5.0


def test_sampling_shapes_and_determinism():
    for d in (
        ErrorDensity.gaussian([0.5, 2.0]),
        ErrorDensity.uniform([1.0, 3.0]),
        ErrorDensity.point_mass(2),
    ):
        a = density_sample(d, np.random.default_rng(7), 11)
        b = density_sample(d, np.random.default_rng(7), 11)
        assert a.shape == (11, 2)
        np.testing.assert_array_equal(a, b)
    assert density_sample(ErrorDensity.gaussian(1.0), np.random.default_rng(0), 0).shape == (0, 1)


def test_sampling_moments():
    rng = np.random.default_rng(123)
    n = 200000
    g = density_sample(ErrorDensity.gaussian([0.5, 2.0]), rng, n)
    np.testing.assert_allclose(g.mean(axis=0), [0.0, 0.0], atol=0.02)
    np.testing.assert_allclose(g.std(axis=0), [0.5, 2.0], rtol=0.02)
    u = density_sample(ErrorDensity.uniform([1.0, 3.0]), rng, n)
    assert np.all(np.abs(u) <= np.array([1.0, 3.0]))
    # uniform std is halfwidth / sqrt(3)
    np.testing.assert_allclose(
        u.std(axis=0), np.array([1.0, 3.0]) / np.sqrt(3.0), rtol=0.02
    )
    p = density_sample(ErrorDensity.point_mass(2), rng, 5)
    np.testing.assert_array_equal(p, np.zeros((5, 2)))


def test_gaussian_sample_distribution_chi_square():
    # goodness of fit of the sampler against the normal CDF, 20 bins
    from math import erf, sqrt

    from scipy.stats import chi2

    rng = np.random.default_rng(2024)
    n = 100000
    s = density_sample(ErrorDensity.gaussian(1.0), rng, n)[:, 0]
    edges = np.linspace(-3.0, 3.0, 19)  # 18 inner edges -> 20 bins with tails
    edges = np.concatenate([[-np.inf], edges, [np.inf]])
    counts, _ = np.histogram(s, bins=edges)

    def cdf(t):
        if t == -np.inf:
            return 0.0
        if t == np.inf:
            return 1.0
        return 0.5 * (1.0 + erf(t / sqrt(2.0)))

    probs = np.array(
        [cdf(edges[i + 1]) - cdf(edges[i]) for i in range(len(edges) - 1)]
    )
    expected = n * probs
    stat = float(np.sum((counts - expected) ** 2 / expected))
    crit = chi2.ppf(0.999, df=len(counts) - 1)
    assert stat < crit, f"chi-square {stat:.1f} exceeds {crit:.1f}"


def test_density_params_validation():
    p = DensityParams(np.array([0.1, 0.2]), np.array([0.3]))
    assert p.input_scales.shape == (2,)
    with pytest.raises(ValueError):
        DensityParams(np.array([-0.1]), np.array([0.3]))
    with pytest.raises(ValueError):
        DensityParams(np.array([0.1]), np.array([0.0]))
    with pytest.raises(ValueError):
        DensityParams(np.array([[0.1]]), np.array([0.3]))
