"""Numerical properties of the numpy kernels."""

import numpy as np

from hamattn import kernels


def test_cross_entropy_matches_direct_formula():
    gen = np.random.default_rng(9)
    logits = gen.uniform(-400, 400, size=(5, 4))  # stabilization must hold
    targets = gen.integers(0, 4, size=5)
    loss, probs = kernels.cross_entropy_rows(logits, targets)
    expected = 0.0
    for i in range(5):
        row = logits[i] - logits[i].max()
        lse = logits[i].max() + np.log(np.exp(row).sum())
        expected += lse - logits[i, targets[i]]
    assert abs(loss - expected) < 1e-9
    assert np.all(np.isfinite(probs))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rows_is_row_stochastic():
    x = np.random.default_rng(3).uniform(-1000, 1000, size=(6, 9))
    p = kernels.softmax_rows(x)
    assert p.min() >= 0.0
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def _two_branch_sigmoid(x):
    """The masked formula: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_is_bitwise_the_two_branch_formula():
    gen = np.random.default_rng(12)
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 5e-324, -5e-324, tiny / 3, -tiny / 3,
               tiny, -tiny, 36.7, -36.7, 745.2, -745.2]
    x = np.concatenate([gen.normal(0.0, 8.0, 20_000), gen.uniform(-900, 900, 2_000), special])
    # the stacked gate operand of the benchmark's bidirectional encoder: [directions, gates, B, H]
    stacked = x[: 2 * 2 * 32 * 16].reshape(2, 2, 32, 16)
    x_before = x.copy()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = kernels.sigmoid(x)
        got_2d = kernels.sigmoid(x[:32 * 16].reshape(32, 16))
        got_4d = kernels.sigmoid(stacked)
    np.testing.assert_array_equal(x.view(np.uint64), x_before.view(np.uint64))  # the input is not written
    want = _two_branch_sigmoid(x)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(got_2d, want[:32 * 16].reshape(32, 16))
    np.testing.assert_array_equal(got_4d.view(np.uint64), want[: stacked.size].reshape(stacked.shape).view(np.uint64))
    assert got.min() >= 0.0 and got.max() <= 1.0


def test_sigmoid_keeps_nan():
    x = np.array([np.nan, -np.nan, 0.5, -0.5, np.nan])
    got = kernels.sigmoid(x)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(x))
    np.testing.assert_array_equal(got[2:4], _two_branch_sigmoid(x[2:4]))
