import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hamattn.errors import DimensionError, DomainError
from hamattn.tensor import l2_norm, softmax_vec

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_softmax_symmetric():
    np.testing.assert_allclose(softmax_vec([0.0, 0.0, 0.0]), np.full(3, 1 / 3), atol=1e-15)


def test_softmax_log_ratio():
    out = softmax_vec([math.log(1.0), math.log(2.0)])
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_large_inputs_do_not_overflow():
    out = softmax_vec([1000.0, 1000.0])
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_empty_and_bad_rank():
    with pytest.raises(DomainError):
        softmax_vec(np.array([]))
    with pytest.raises(DimensionError):
        softmax_vec(np.zeros((2, 2)))


def test_l2_norm_cases():
    assert l2_norm([3.0, 4.0]) == 5.0
    assert l2_norm(np.zeros(7)) == 0.0
    assert l2_norm(np.ones(4)) == 2.0


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(1, 12), elements=finite))
def test_softmax_is_probability_vector(x):
    p = softmax_vec(x)
    assert p.min() > 0.0
    assert abs(p.sum() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(1, 12), elements=finite), st.floats(-100, 100))
def test_softmax_shift_invariance(x, c):
    np.testing.assert_allclose(softmax_vec(x), softmax_vec(x + c), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, st.shared(st.integers(1, 12), key="n"), elements=finite),
    arrays(np.float64, st.shared(st.integers(1, 12), key="n"), elements=finite),
)
def test_triangle_inequality(a, b):
    assert l2_norm(a + b) <= l2_norm(a) + l2_norm(b) + 1e-12
