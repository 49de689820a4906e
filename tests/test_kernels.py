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
