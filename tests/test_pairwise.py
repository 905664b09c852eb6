"""Pairwise differences as two-column products against numpy's broadcast.

``objective._pairwise`` forms a + s b at every (i, j) pair, s = +-1, as the
batched product of [a, s] (B, I, 2) and [1; b] (B, 2, J). Each element is
a*1 + s*b, one rounded addition of two exact products, so it must equal
``np.add`` / ``np.subtract`` bit for bit on every double, infinities and
NaN included (``equal_nan`` lets +0 and -0 compare equal, the one place the
two may differ). Under tier-1's warnings-as-errors no spurious warning from
the BLAS kernel may escape either.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eivmix.objective import _pairwise

SPECIAL = (1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
           math.inf, -math.inf, math.nan)
VALUES = st.one_of(st.floats(), st.sampled_from(SPECIAL))


@st.composite
def operands(draw):
    B, I, J = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    a = np.array(draw(st.lists(VALUES, min_size=B * I, max_size=B * I))).reshape(B, I, 1)
    b = np.array(draw(st.lists(VALUES, min_size=B * J, max_size=B * J))).reshape(B, 1, J)
    return a, b, draw(st.sampled_from((1.0, -1.0)))


@settings(max_examples=300, deadline=None)
@given(operands())
def test_pairwise_equals_the_broadcast(case):
    a, b, s = case
    left = np.concatenate([a, np.full_like(a, s)], axis=2)
    right = np.concatenate([np.ones_like(b), b], axis=1)
    # overflow is genuine on both paths; inf - inf is invalid only in the ufunc
    with np.errstate(over="ignore"):
        got = _pairwise(left, right, np.empty((a.shape[0], a.shape[1], b.shape[2])))
    with np.errstate(over="ignore", invalid="ignore"):
        want = (np.add if s > 0 else np.subtract)(a, b)
    assert np.array_equal(got, want, equal_nan=True)
