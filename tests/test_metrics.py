import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import eivmix
from eivmix import FitResult, r_squared_delta
from eivmix.metrics import residual_summary


def classical_r2(x, y):
    """OLS R-squared with intercept, computed the textbook way."""
    design = np.column_stack([np.ones(len(y)), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ beta
    ss_res = np.sum((y - fitted) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    return 1.0 - ss_res / ss_tot, beta[1:]


def test_reduces_to_classical_r2_for_ols_slopes():
    rng = np.random.default_rng(0)
    for k in (1, 3):
        x = rng.uniform(-2, 2, (60, k))
        truth = rng.uniform(-1, 1, k)
        y = 1.0 + x @ truth + rng.standard_normal(60) * 0.4
        want, slopes = classical_r2(x, y)
        got = r_squared_delta(x, y, slopes, np.zeros(k))
        assert got == pytest.approx(want, abs=1e-12)


def test_error_covariance_shrinks_the_ratio():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (50, 2))
    y = x @ np.array([1.0, -0.5]) + rng.standard_normal(50) * 0.1
    b = np.array([1.0, -0.5])
    r0 = r_squared_delta(x, y, b, np.zeros(2))
    r1 = r_squared_delta(x, y, b, np.array([0.5, 0.5]))
    r2 = r_squared_delta(x, y, b, np.array([2.0, 2.0]))
    assert r0 > r1 > r2


def test_clipped_at_one():
    x = np.linspace(-1, 1, 20)
    y = 0.1 * x  # almost no output variance
    got = r_squared_delta(x, y, [5.0], 0.0)  # inflated slope
    assert got == 1.0


def test_hand_computed_value():
    # x = -1, 0, 1 ; y = -1, 0, 1 ; b = 1 ; error var 1/3:
    # S = 2/3, var(y) = 2/3 -> ratio = (2/3) / (2/3 + 1/3) = 2/3
    got = r_squared_delta([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [1.0], [1.0 / 3.0])
    assert got == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_r2_validation():
    with pytest.raises(ValueError):
        r_squared_delta([1.0], [1.0], [1.0], [0.0])  # one row
    with pytest.raises(ValueError):
        r_squared_delta([1.0, 2.0], [1.0, 2.0], [1.0, 1.0], [0.0])  # slope shape
    with pytest.raises(ValueError, match="zero total variance"):
        r_squared_delta([1.0, 2.0], [3.0, 3.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        r_squared_delta([1.0, 2.0], [1.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="error variances"):
        r_squared_delta([[1.0, 0.0], [2.0, 1.0]], [1.0, 2.0], [1.0, 1.0], np.eye(2))  # a matrix


_KERNEL_PROBE = """
import hashlib
import numpy as np
from eivmix import r_squared_delta
from eivmix.data_io import read_csv, worldbank_analog_path, worldbank_analog_schema

schema = worldbank_analog_schema()
ingest = read_csv(worldbank_analog_path(), schema)
x, y = ingest.dataset.xs, ingest.dataset.ys[:, 0]
var = np.array([ingest.column_scales[c] for c in schema.input_columns]) ** 2
rng = np.random.default_rng(0)
slopes = np.array([-0.42, 0.034, 0.88, -1.37])
r2 = [r_squared_delta(x, y, slopes * rng.uniform(0.3, 1.1, 4), var * rng.uniform(0.0, 2.0)) for _ in range(200)]
print(sum(v < 1.0 for v in r2), hashlib.sha256(np.array(r2).tobytes()).hexdigest())
"""


def test_r2_has_the_same_bits_under_another_blas_kernel():
    # on the bundled 4-input table, 200 values under the default OpenBLAS
    # kernels and under the Nehalem ones (no FMA), which a DYNAMIC_ARCH
    # build picks from OPENBLAS_CORETYPE as it would on another CPU
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS kernel sets are compared on x86-64 only")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS ({blas.get('name')}) is not an OpenBLAS DYNAMIC_ARCH build")
    root = os.path.dirname(os.path.dirname(eivmix.__file__))
    runs = []
    for core in ({}, {"OPENBLAS_CORETYPE": "Nehalem"}):
        env = {**os.environ, "PYTHONPATH": root, "OPENBLAS_NUM_THREADS": "1", **core}
        probe = subprocess.run([sys.executable, "-c", _KERNEL_PROBE], env=env, capture_output=True, text=True, check=True)
        runs.append(probe.stdout)
    assert int(runs[0].split()[0]) >= 190  # values below the clip at 1
    assert runs[0] == runs[1]


def test_residual_summary_frozen_quartiles():
    deltas = np.arange(1.0, 10.0)[:, None]  # 1..9
    s = residual_summary(list(deltas), np.zeros(1))
    assert s.q1[0] == pytest.approx(3.0)
    assert s.median[0] == pytest.approx(5.0)
    assert s.q3[0] == pytest.approx(7.0)
    assert s.iqr[0] == pytest.approx(4.0)
    assert s.whisker_lo[0] == 1.0 and s.whisker_hi[0] == 9.0
    assert s.outliers[0].size == 0


def test_residual_summary_outliers():
    vals = list(np.arange(1.0, 10.0)) + [100.0]
    s = residual_summary([np.array([v]) for v in vals], np.zeros(1))
    # quartiles of 1..9,100: q1 3.25, q3 7.75, fence 7.75 + 1.5*4.5 = 14.5
    assert s.q1[0] == pytest.approx(3.25)
    assert s.q3[0] == pytest.approx(7.75)
    np.testing.assert_array_equal(s.outliers[0], [100.0])
    assert s.whisker_hi[0] == 9.0


def test_residual_summary_accepts_fit_results():
    fits = [
        FitResult(np.array([1.0, 2.0]), 0.0, 1, True, np.zeros(2)),
        FitResult(np.array([3.0, 4.0]), 0.0, 1, True, np.zeros(2)),
    ]
    s = residual_summary(fits, np.array([1.0, 2.0]))
    np.testing.assert_allclose(s.deltas, [[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_allclose(s.median, [1.0, 1.0])


def test_residual_summary_empty():
    with pytest.raises(ValueError):
        residual_summary([], np.zeros(1))
