import numpy as np
import pytest

from eivmix import (
    ErrorDensity,
    Group,
    GroupedDataset,
    PairedDataset,
    as_grouped,
    build_grouped,
    partition_by_key,
)
from eivmix.dataset import cross_pair_expansion, group_mean_pairs

G1 = ErrorDensity.gaussian(1.0)


def paired(n, k=1, seed=0):
    rng = np.random.default_rng(seed)
    gk = ErrorDensity.gaussian(np.ones(k))
    return PairedDataset.from_arrays(
        rng.standard_normal((n, k)), rng.standard_normal((n, 1)), gk, G1
    )


def test_group_basics():
    g = Group(np.array([[1.0], [2.0]]), np.array([[3.0]]), (G1, G1), (G1,))
    assert g.n_inputs == 2 and g.n_outputs == 1
    # 1-d arrays are accepted as column vectors
    g2 = Group(np.array([1.0, 2.0]), np.array([3.0]), (G1, G1), (G1,))
    np.testing.assert_array_equal(g2.inputs, [[1.0], [2.0]])
    with pytest.raises(ValueError):
        Group(np.array([[1.0]]), np.array([[np.nan]]), (G1,), (G1,))
    with pytest.raises(ValueError):
        Group(np.array([[1.0]]), np.array([[1.0]]), (G1, G1), (G1,))
    with pytest.raises(ValueError):
        Group(np.array([[1.0, 2.0]]), np.array([[1.0]]), (G1,), (G1,))


def test_grouped_dataset_validation():
    g = Group(np.array([[1.0]]), np.array([[1.0]]), (G1,), (G1,))
    ds = GroupedDataset((g, g), 1, 1)
    assert ds.n_groups == 2
    with pytest.raises(ValueError):
        GroupedDataset((), 1, 1)
    with pytest.raises(ValueError):
        GroupedDataset((g,), 2, 1)


def test_paired_dataset():
    ds = paired(5)
    assert ds.n_pairs == 5 and ds.input_dim == 1 and ds.output_dim == 1
    with pytest.raises(ValueError):
        PairedDataset.from_arrays(np.zeros((3, 1)), np.zeros((2, 1)), G1, G1)


def test_as_grouped_keeps_pairing():
    ds = paired(4)
    grouped = as_grouped(ds)
    assert grouped.n_groups == 4
    for l, g in enumerate(grouped.groups):
        assert g.n_inputs == g.n_outputs == 1
        np.testing.assert_array_equal(g.inputs[0], ds.xs[l])
        np.testing.assert_array_equal(g.outputs[0], ds.ys[l])


def test_build_grouped_sorts_and_validates():
    xs = np.array([[1.0], [2.0], [3.0]])
    ys = np.array([[10.0], [20.0], [30.0]])
    ds = build_grouped(xs, ys, ["b", "a", "b"], ["a", "b", "b"], (G1,) * 3, (G1,) * 3)
    assert ds.n_groups == 2
    # groups ordered by sorted label: "a" first
    np.testing.assert_array_equal(ds.groups[0].inputs, [[2.0]])
    np.testing.assert_array_equal(ds.groups[0].outputs, [[10.0]])
    np.testing.assert_array_equal(ds.groups[1].inputs, [[1.0], [3.0]])
    np.testing.assert_array_equal(ds.groups[1].outputs, [[20.0], [30.0]])
    with pytest.raises(ValueError, match="alphabets"):
        build_grouped(xs, ys, ["a", "a", "b"], ["a", "a", "c"], (G1,) * 3, (G1,) * 3)
    with pytest.raises(ValueError):
        build_grouped(xs, ys, ["a", "a"], ["a", "a", "a"], (G1,) * 3, (G1,) * 3)


class _CountingLabel:
    """A group label that counts its equality comparisons."""

    eq_calls = 0

    def __init__(self, v):
        self.v = v

    def __hash__(self):
        return hash(self.v)

    def __eq__(self, other):
        _CountingLabel.eq_calls += 1
        return self.v == other.v

    def __lt__(self, other):
        return self.v < other.v


def test_build_grouped_linear_in_labels():
    n = 400
    labels = [_CountingLabel(i) for i in range(n)]
    xs = np.arange(float(n))
    _CountingLabel.eq_calls = 0
    ds = build_grouped(xs, xs + 0.5, labels, labels, (G1,) * n, (G1,) * n)
    assert ds.n_groups == n
    np.testing.assert_array_equal(ds.groups[7].outputs, [[7.5]])
    # one scan per side and a sort of already ordered labels, not a scan per group
    assert _CountingLabel.eq_calls <= 2 * n


def test_partition_by_key_chunks():
    ds = paired(6)
    key = np.array([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])
    grouped = partition_by_key(ds, key, 2)
    assert grouped.n_groups == 3
    # sorted keys: 1,2 | 3,4 | 5,6 -> original indices (1,2), (0,4), (3,5)
    np.testing.assert_array_equal(grouped.groups[0].inputs, ds.xs[[1, 2]])
    np.testing.assert_array_equal(grouped.groups[1].inputs, ds.xs[[0, 4]])
    np.testing.assert_array_equal(grouped.groups[2].inputs, ds.xs[[3, 5]])


def test_partition_remainder_and_limits():
    ds = paired(7)
    key = np.arange(7.0)
    grouped = partition_by_key(ds, key, 3)
    assert [g.n_inputs for g in grouped.groups] == [3, 3, 1]
    assert partition_by_key(ds, key, 1).n_groups == 7
    with pytest.raises(ValueError):
        partition_by_key(ds, key, 0)
    with pytest.raises(ValueError):
        partition_by_key(ds, key[:3], 2)
    with pytest.warns(UserWarning, match="single"):
        grouped = partition_by_key(ds, key, 100)
    assert grouped.n_groups == 1


def test_partition_stable_for_ties():
    ds = paired(4)
    grouped = partition_by_key(ds, np.zeros(4), 2)
    # all keys equal: stable sort keeps original order
    np.testing.assert_array_equal(grouped.groups[0].inputs, ds.xs[[0, 1]])
    np.testing.assert_array_equal(grouped.groups[1].inputs, ds.xs[[2, 3]])


def test_cross_pair_expansion():
    g1 = Group(np.array([[1.0], [2.0]]), np.array([[10.0]]), (G1, G1), (G1,))
    g2 = Group(np.array([[3.0]]), np.array([[20.0], [30.0]]), (G1,), (G1, G1))
    ds = GroupedDataset((g1, g2), 1, 1)
    xs, ys = cross_pair_expansion(ds)
    np.testing.assert_array_equal(xs, [[1.0], [2.0], [3.0], [3.0]])
    np.testing.assert_array_equal(ys, [[10.0], [10.0], [20.0], [30.0]])


def test_group_mean_pairs():
    g1 = Group(np.array([[1.0], [3.0]]), np.array([[10.0], [20.0]]), (G1,) * 2, (G1,) * 2)
    ds = GroupedDataset((g1,), 1, 1)
    xs, ys = group_mean_pairs(ds)
    np.testing.assert_allclose(xs, [[2.0]])
    np.testing.assert_allclose(ys, [[15.0]])


def test_arrays_read_only():
    ds = paired(3)
    with pytest.raises(ValueError):
        ds.xs[0, 0] = 99.0
    grouped = as_grouped(ds)
    with pytest.raises(ValueError):
        grouped.groups[0].inputs[0, 0] = 99.0
