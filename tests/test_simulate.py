import numpy as np
import pytest

from eivmix import (
    GAUSS_LINE,
    INTERVAL_LINE,
    ErrorDensity,
    IntegrationConfig,
    OptimizerConfig,
    generate_scenario,
    replicate,
    scenario_model,
    scenario_spec,
)
from eivmix.densities import GAUSSIAN, UNIFORM

SQRT3_02 = 0.34641016151377546  # sqrt(3) * 0.2


def test_preset_table():
    a = scenario_spec("A")
    assert (a.input_dim, a.L) == (1, 300)
    assert a.alpha == (0.0, 0.5)
    assert a.sigma_eta == (0.2,) and a.sigma_eps == 0.2
    assert a.n_groups == 300  # paired by default
    b = scenario_spec("B")
    assert b.sigma_eta == (0.6,) and b.sigma_eps == 0.6
    c = scenario_spec("C")
    assert c.L == 36
    d = scenario_spec("D")
    assert d.noise_kind == "uniform"
    p = scenario_spec("plane")
    assert (p.input_dim, p.L) == (2, 1600)
    assert p.alpha == (0.0, 0.2, 0.4)
    ps = scenario_spec("plane-switched")
    assert ps.label_switch_fraction == pytest.approx(0.3)
    cu = scenario_spec("cubic")
    assert cu.alpha == (0.0, 0.5, 0.0, -0.1)
    assert cu.sigma_eps == 0.1
    assert scenario_model(cu).param_dim == 4
    assert scenario_model(p).param_dim == 3
    assert scenario_model(a).param_dim == 2


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_spec("Z")
    with pytest.raises(ValueError, match="between 1 and L"):
        scenario_spec("A", R=301)
    with pytest.raises(ValueError, match="sum to L"):
        scenario_spec("A", R=(100, 100))
    with pytest.raises(ValueError):
        scenario_spec("A", sigma_eps=0.0)
    spec = scenario_spec("A", R=(100, 150, 50))
    assert spec.n_groups == 3


def test_generation_is_deterministic():
    spec = scenario_spec("A", R=5)
    a = generate_scenario(spec, np.random.default_rng(77))
    b = generate_scenario(spec, np.random.default_rng(77))
    assert a.n_groups == b.n_groups == 5
    for ga, gb in zip(a.groups, b.groups):
        np.testing.assert_array_equal(ga.inputs, gb.inputs)
        np.testing.assert_array_equal(ga.outputs, gb.outputs)


def test_chunk_grouping_on_latent_inputs():
    # grouping must follow the noise-free inputs, not the observed ones
    spec = scenario_spec("A", R=3, L=30)
    ds, latent = generate_scenario(spec, np.random.default_rng(5), return_latent=True)
    order = np.argsort(latent.x_true[:, 0], kind="stable")
    want = np.empty(30, dtype=int)
    for g, chunk in enumerate(np.array_split(order, 3)):
        want[chunk] = g
    np.testing.assert_array_equal(latent.labels, want)
    assert [g.n_inputs for g in ds.groups] == [10, 10, 10]
    # observed = latent + noise, reassembled per group
    np.testing.assert_allclose(
        np.sort(np.concatenate([g.inputs[:, 0] for g in ds.groups])),
        np.sort((latent.x_true + latent.input_noise)[:, 0]),
    )


def test_explicit_group_sizes():
    spec = scenario_spec("A", R=(5, 10, 15), L=30)
    ds = generate_scenario(spec, np.random.default_rng(1))
    assert [g.n_inputs for g in ds.groups] == [5, 10, 15]
    assert [g.n_outputs for g in ds.groups] == [5, 10, 15]


def test_noise_densities_attached():
    ds = generate_scenario(scenario_spec("A", R=2, L=20), np.random.default_rng(0))
    d = ds.groups[0].input_densities[0]
    assert d.kind == GAUSSIAN
    np.testing.assert_allclose(d.scale, [0.2])
    dsd = generate_scenario(scenario_spec("D", R=2, L=20), np.random.default_rng(0))
    du = dsd.groups[0].input_densities[0]
    assert du.kind == UNIFORM
    np.testing.assert_allclose(du.scale, [SQRT3_02], rtol=1e-15)
    # uniform noise actually respects the box
    for g in dsd.groups:
        assert g.inputs.shape[1] == 1


def test_uniform_noise_bounds():
    spec = scenario_spec("D")
    ds, latent = generate_scenario(spec, np.random.default_rng(3), return_latent=True)
    assert np.max(np.abs(latent.input_noise)) <= SQRT3_02
    assert np.max(np.abs(latent.output_noise)) <= SQRT3_02
    assert np.std(latent.input_noise) == pytest.approx(0.2, rel=0.15)


def test_cubic_two_unpaired_areas():
    spec = scenario_spec("cubic", R=200)
    ds, latent = generate_scenario(spec, np.random.default_rng(9), return_latent=True)
    sizes = sorted(g.n_inputs for g in ds.groups)
    assert ds.n_groups == 200
    # L - R + 2 = 102 points spread over two areas of 51
    assert sizes[:198] == [1] * 198
    assert sizes[198:] == [51, 51]
    # areas are contiguous runs of the sorted latent inputs around L/6, 5L/6
    order = np.argsort(latent.x_true[:, 0], kind="stable")
    sorted_labels = latent.labels[order]
    big = [lab for lab in np.unique(sorted_labels) if (sorted_labels == lab).sum() > 1]
    for lab in big:
        pos = np.flatnonzero(sorted_labels == lab)
        assert pos.max() - pos.min() == pos.size - 1  # contiguous
    starts = sorted(int(np.flatnonzero(sorted_labels == lab).min()) for lab in big)
    assert abs(starts[0] - (50 - 25)) <= 1
    assert abs(starts[1] - (250 - 25)) <= 1


def test_cubic_r_too_small():
    with pytest.raises(ValueError, match="overlap"):
        generate_scenario(scenario_spec("cubic", R=1), np.random.default_rng(0))
    # R=2 tiles the axis with the two areas exactly and is fine
    ds = generate_scenario(scenario_spec("cubic", R=2), np.random.default_rng(0))
    assert [g.n_inputs for g in ds.groups] == [150, 150]


def test_plane_tiling():
    spec = scenario_spec("plane", R=100)
    ds, latent = generate_scenario(spec, np.random.default_rng(2), return_latent=True)
    assert ds.n_groups == 100
    assert all(g.n_inputs == 16 for g in ds.groups)
    # tiles split on the latent first coordinate into 10 bands
    order = np.argsort(latent.x_true[:, 0], kind="stable")
    bands = np.array_split(order, 10)
    for i, band in enumerate(bands):
        got = np.unique(latent.labels[band])
        assert set(got) == set(range(i * 10, (i + 1) * 10))


def test_plane_switched_relabeling():
    base = scenario_spec("plane", R=64)
    sw = scenario_spec("plane-switched", R=64)
    rng1 = np.random.default_rng(4)
    rng2 = np.random.default_rng(4)
    _, lat_a = generate_scenario(base, rng1, return_latent=True)
    ds_b, lat_b = generate_scenario(sw, rng2, return_latent=True)
    np.testing.assert_array_equal(lat_a.x_true, lat_b.x_true)
    frac = np.mean(lat_a.labels != lat_b.labels)
    assert 0.25 <= frac <= 0.3
    assert ds_b.n_groups == 64  # nothing emptied
    assert min(g.n_inputs for g in ds_b.groups) >= 1


def test_replicate_summary_and_seeding():
    spec = scenario_spec("C", R=6)
    icfg = IntegrationConfig()
    ocfg = OptimizerConfig()
    rep = replicate(spec, 5, GAUSS_LINE, icfg, ocfg, master_seed=42)
    assert rep.n_reps == 5 and len(rep.fits) == 5
    assert not rep.failures
    assert rep.summary.deltas.shape == (5, 2)
    assert rep.total_seconds > 0
    rep2 = replicate(spec, 5, GAUSS_LINE, icfg, ocfg, master_seed=42)
    np.testing.assert_array_equal(rep.summary.deltas, rep2.summary.deltas)
    rep3 = replicate(spec, 5, GAUSS_LINE, icfg, ocfg, master_seed=43)
    assert not np.array_equal(rep.summary.deltas, rep3.summary.deltas)


def test_replicate_all_failures_raise():
    spec = scenario_spec("A", R=4, L=20)
    # interval-line objective rejects gaussian data in every replication
    with pytest.raises(ValueError, match="replications failed"):
        replicate(spec, 3, INTERVAL_LINE, IntegrationConfig(), OptimizerConfig(), 0)


def test_replicate_rejects_zero_reps():
    with pytest.raises(ValueError):
        replicate(scenario_spec("C"), 0, GAUSS_LINE, IntegrationConfig(), OptimizerConfig(), 0)
