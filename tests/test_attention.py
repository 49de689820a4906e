import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamattn.attention import (
    MultiHeadParams,
    attention_distribution,
    attention_levels,
    level_forward,
    multi_head,
    multi_level_attention,
    scaled_dot_score,
    sdp_attention,
    self_attention_layer,
    self_attention_levels,
    vanilla_attention,
)
from hamattn.errors import DimensionError, DomainError
from hamattn.tensor import l2_norm, softmax_vec


def test_scaled_dot_score_examples():
    e1 = np.eye(4)[0]
    assert scaled_dot_score(e1, e1) == 0.5
    assert scaled_dot_score(np.eye(3)[0], np.eye(3)[1]) == 0.0
    assert scaled_dot_score(np.array([1.0, 1.0]), np.array([2.0, 0.0])) == pytest.approx(
        np.sqrt(2.0), abs=1e-15
    )


def test_scaled_dot_score_rejects_empty_vectors():
    with pytest.raises(DomainError):
        scaled_dot_score([], [])


def test_scaled_dot_score_dimension_mismatch():
    with pytest.raises(DimensionError):
        scaled_dot_score(np.ones(3), np.ones(4))


def test_distribution_identical_keys_is_uniform():
    K = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    np.testing.assert_allclose(attention_distribution(K, np.array([3.0, -1.0])), np.full(5, 0.2), atol=1e-15)


def test_distribution_singleton():
    np.testing.assert_array_equal(attention_distribution(np.array([[2.0]]), np.array([5.0])), [1.0])


def test_distribution_against_direct_softmax_oracle():
    # K columns e1, e2 in R^2, q = (10, 0): scores (10/sqrt(2), 0)
    K = np.eye(2)
    q = np.array([10.0, 0.0])
    p = attention_distribution(K, q)
    scores = np.array([10.0 / np.sqrt(2.0), 0.0])
    expected = np.exp(scores - scores.max())
    expected /= expected.sum()
    np.testing.assert_allclose(p, expected, atol=1e-15)
    assert p[0] == pytest.approx(0.99916, abs=5e-5)
    assert p[1] == pytest.approx(0.00084, abs=5e-5)


def test_distribution_empty_keys():
    with pytest.raises(DomainError):
        attention_distribution(np.zeros((2, 0)), np.zeros(2))


def test_vanilla_singleton_returns_the_key():
    K = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(vanilla_attention(np.array([9.0, -9.0, 0.0]), K), K[:, 0])


def test_vanilla_identical_keys_fixed_point():
    v = np.array([1.0, -2.0])
    K = np.tile(v[:, None], (1, 4))
    np.testing.assert_allclose(vanilla_attention(np.array([0.3, 0.7]), K), v, atol=1e-15)


def test_vanilla_cancellation_counterexample():
    # brute force: both scores are 0, weights 1/2 each, keys cancel
    K = np.array([[1.0, -1.0], [0.0, 0.0]])
    out = vanilla_attention(np.array([0.0, 1.0]), K)
    np.testing.assert_array_equal(out, np.zeros(2))
    assert l2_norm(out) < np.linalg.norm(K, axis=0).min()


def test_sdp_single_row_equals_vanilla():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dk, n = rng.integers(1, 8, size=2)
        K = rng.uniform(-3, 3, (dk, n))
        q = rng.uniform(-3, 3, dk)
        np.testing.assert_allclose(
            sdp_attention(q.reshape(1, -1), K.T, K.T)[0], vanilla_attention(q, K), atol=1e-12
        )


def test_sdp_zero_queries_average_values():
    rng = np.random.default_rng(1)
    V = rng.uniform(-2, 2, (5, 3))
    K = rng.uniform(-2, 2, (5, 4))
    out = sdp_attention(np.zeros((2, 4)), K, V)
    np.testing.assert_allclose(out, np.tile(V.mean(axis=0), (2, 1)), atol=1e-12)


def test_sdp_matches_per_row_loop_oracle():
    rng = np.random.default_rng(2)
    Q = rng.uniform(-2, 2, (2, 3))
    K = rng.uniform(-2, 2, (4, 3))
    V = rng.uniform(-2, 2, (4, 2))
    expected = np.empty((2, 2))
    for i in range(2):
        p = softmax_vec(K @ Q[i] / np.sqrt(3))
        expected[i] = p @ V
    np.testing.assert_allclose(sdp_attention(Q, K, V), expected, atol=1e-12)


def test_sdp_shape_errors():
    with pytest.raises(DimensionError):
        sdp_attention(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        sdp_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 2)))


def test_sdp_batch_shape_errors():
    for Q, K, V in (
        (np.zeros(3), np.zeros(3), np.zeros(3)),
        (np.zeros((2, 4, 3)), np.zeros((5, 3)), np.zeros((5, 2))),
        (np.zeros((2, 4, 3)), np.zeros((3, 5, 3)), np.zeros((3, 5, 2))),
        (np.zeros((2, 4, 3)), np.zeros((2, 5, 3)), np.zeros((1, 5, 2))),
    ):
        with pytest.raises(DimensionError):
            sdp_attention(Q, K, V)
    with pytest.raises(DomainError):
        sdp_attention(np.zeros((2, 4, 3)), np.zeros((2, 0, 3)), np.zeros((2, 0, 2)))


def test_batched_sdp_and_self_attention_levels_match_per_item_calls_bitwise():
    rng = np.random.default_rng(21)
    for n in range(1, 17):
        for dk in range(1, 17):
            X = rng.uniform(-2, 2, (3, n, dk))
            levels = self_attention_levels(X, 6)  # Q is K is V at every level
            for i in range(3):
                for got, want in zip(levels, self_attention_levels(X[i], 6), strict=True):
                    np.testing.assert_array_equal(got[i], want)
            Q, V = rng.uniform(-2, 2, (2, 3, 4, dk)), rng.uniform(-2, 2, (2, 3, n, 5))
            K = X.reshape(1, 3, n, dk).repeat(2, axis=0)
            got = sdp_attention(Q, K, V)
            for i in np.ndindex(2, 3):
                np.testing.assert_array_equal(got[i], sdp_attention(Q[i], K[i], V[i]))


def test_multi_head_identity_single_head_equals_sdp():
    rng = np.random.default_rng(3)
    Q, K, V = (rng.uniform(-2, 2, (3, 4)) for _ in range(3))
    out = multi_head(Q, K, V, MultiHeadParams.identity(4, h=1))
    np.testing.assert_allclose(out, sdp_attention(Q, K, V), atol=1e-12)


def test_multi_head_duplicated_heads_concat_structure():
    rng = np.random.default_rng(4)
    Q, K, V = (rng.uniform(-2, 2, (3, 4)) for _ in range(3))
    proj = rng.uniform(-1, 1, (4, 4))
    wo = rng.uniform(-1, 1, (8, 4))
    params = MultiHeadParams(wq=(proj, proj), wk=(proj, proj), wv=(proj, proj), wo=wo)
    s = sdp_attention(Q @ proj, K @ proj, V @ proj)
    np.testing.assert_allclose(multi_head(Q, K, V, params), np.hstack([s, s]) @ wo, atol=1e-12)


def test_multi_head_matches_loop_and_concat_oracle():
    rng = np.random.default_rng(5)
    d, dk, h = 4, 3, 2
    Q, K, V = (rng.uniform(-2, 2, (3, d)) for _ in range(3))
    wq = tuple(rng.uniform(-1, 1, (d, dk)) for _ in range(h))
    wk = tuple(rng.uniform(-1, 1, (d, dk)) for _ in range(h))
    wv = tuple(rng.uniform(-1, 1, (d, dk)) for _ in range(h))
    wo = rng.uniform(-1, 1, (h * dk, d))
    params = MultiHeadParams(wq, wk, wv, wo)
    heads = [sdp_attention(Q @ wq[i], K @ wk[i], V @ wv[i]) for i in range(h)]
    np.testing.assert_allclose(multi_head(Q, K, V, params), np.concatenate(heads, axis=1) @ wo, atol=1e-12)


def test_multi_head_params_validation():
    with pytest.raises(DimensionError):
        MultiHeadParams((np.ones((3, 2)),), (np.ones((3, 3)),), (np.ones((3, 2)),), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        MultiHeadParams((np.ones((3, 2)),), (np.ones((3, 2)),), (np.ones((3, 2)),), np.ones((3, 3)))


def test_multi_level_base_and_composition():
    rng = np.random.default_rng(6)
    K = rng.uniform(-2, 2, (3, 5))
    q = rng.uniform(-2, 2, 3)
    np.testing.assert_array_equal(multi_level_attention(q, K, 1), vanilla_attention(q, K))
    np.testing.assert_allclose(
        multi_level_attention(q, K, 2),
        vanilla_attention(vanilla_attention(q, K), K),
        atol=1e-15,
    )


def test_multi_level_batched_matches_per_instance():
    rng = np.random.default_rng(8)
    q = rng.uniform(-2, 2, (4, 3))
    K = rng.uniform(-2, 2, (4, 3, 5))
    got = multi_level_attention(q, K, 2)
    assert got.shape == (4, 3)
    for i in range(4):
        np.testing.assert_array_equal(got[i], multi_level_attention(q[i], K[i], 2))


def test_vanilla_and_distribution_batched_shapes_match_per_instance():
    rng = np.random.default_rng(9)
    q = rng.uniform(-3, 3, (3, 4, 5))
    K = rng.uniform(-3, 3, (3, 4, 5, 7))
    out, p = vanilla_attention(q, K), attention_distribution(K, q)
    assert out.shape == (3, 4, 5) and p.shape == (3, 4, 7)
    for idx in np.ndindex(3, 4):
        np.testing.assert_array_equal(out[idx], vanilla_attention(q[idx], K[idx]))
        np.testing.assert_array_equal(p[idx], attention_distribution(K[idx], q[idx]))
    with pytest.raises(DimensionError):
        vanilla_attention(q[0], K)
    with pytest.raises(DimensionError):
        attention_distribution(K, q[..., :4])


def test_multi_level_fixed_point_and_depth_validation():
    v = np.array([0.5, -1.0])
    K = np.tile(v[:, None], (1, 3))
    for depth in (1, 2, 7):
        np.testing.assert_allclose(multi_level_attention(np.array([1.0, 1.0]), K, depth), v, atol=1e-12)
    with pytest.raises(DomainError):
        multi_level_attention(v, K, 0)


def _levels_loop(q, K, depth):
    """One instance with the connector's arithmetic: the keys as C-contiguous
    rows, einsum scores times 1/sqrt(dk), softmax, einsum combine."""
    keys = np.ascontiguousarray(K.T)
    inv = float(1.0 / np.sqrt(K.shape[0]))
    out = np.empty((depth, K.shape[0]))
    cur = q
    for t in range(depth):
        cur = np.einsum("th,t->h", keys, softmax_vec(np.einsum("th,h->t", keys, cur) * inv))
        out[t] = cur
    return out


def _levels_matmul(q, K, depth):
    """The textbook form: one K @ softmax(K^T q / sqrt(dk)) per level."""
    out = np.empty((depth, K.shape[0]))
    cur = q
    for t in range(depth):
        cur = K @ softmax_vec(K.T @ cur / np.sqrt(K.shape[0]))
        out[t] = cur
    return out


def _random_levels_case(rng, batch, dk=None, n=None, depth=None):
    dk = dk or int(rng.integers(1, 17))
    n = n or int(rng.integers(1, 33))
    depth = depth or int(rng.integers(1, 11))
    K = rng.uniform(-3, 3, (*batch, dk, n))
    q = rng.uniform(-3, 3, (*batch, dk))
    return q, K, depth


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
def test_attention_levels_batch_matches_single_instance_loop_bitwise(batch):
    rng = np.random.default_rng(len(batch))
    cases = [_random_levels_case(rng, batch) for _ in range(40)]
    cases += [_random_levels_case(rng, batch, **edge) for edge in ({"dk": 1}, {"n": 1}, {"depth": 1})]
    for q, K, depth in cases:
        got = attention_levels(q, K, depth)
        assert got.shape == (*batch, depth, K.shape[-2])
        for idx in np.ndindex(*batch):
            np.testing.assert_array_equal(got[idx], _levels_loop(q[idx], K[idx], depth))
            np.testing.assert_allclose(got[idx], _levels_matmul(q[idx], K[idx], depth), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_masked_level_forward_on_padded_keys_matches_the_unpadded_levels(seed):
    rng = np.random.default_rng(seed)
    dk, width, depth = int(rng.integers(1, 17)), int(rng.integers(1, 33)), 10
    ns = rng.integers(1, width + 1, size=12)
    ns[0] = 1
    keys = np.zeros((ns.size, width, dk))
    for i, n in enumerate(ns):
        keys[i, :n] = rng.uniform(-3, 3, (n, dk))
    q0 = rng.uniform(-3, 3, (ns.size, dk))
    mask = np.where(np.arange(width) < ns[:, None], 0.0, -np.inf)
    queries, probs = level_forward(keys, q0, depth, mask)
    for i, n in enumerate(ns):
        for p in probs:
            assert np.all(p[i, n:] == 0.0)
        want = attention_levels(q0[i], keys[i, :n].T, depth)
        np.testing.assert_allclose(np.array(queries[1:])[:, i], want, rtol=0, atol=1e-12)
    # one real key: every level is that key, bit for bit
    for level in queries[1:]:
        np.testing.assert_array_equal(level[0], keys[0, 0])


def test_attention_levels_shape_errors():
    K = np.ones((4, 3, 5))
    with pytest.raises(DimensionError):
        attention_levels(np.ones((4, 2)), K, 2)
    with pytest.raises(DimensionError):
        attention_levels(np.ones((3, 3)), K, 2)
    with pytest.raises(DimensionError):
        attention_levels(np.ones(3), np.ones(3), 2)
    for empty in (np.ones((3, 0)), np.ones((0, 3, 5))):
        with pytest.raises(DomainError):
            attention_levels(np.ones(empty.shape[:-1]), empty, 2)
    with pytest.raises(DomainError):
        attention_levels(np.ones((4, 3)), K, 0)


def test_self_attention_singleton_and_identical_rows():
    x = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(self_attention_layer(x), x, atol=1e-15)
    rows = np.tile(np.array([0.5, -0.5]), (4, 1))
    np.testing.assert_allclose(self_attention_layer(rows), rows, atol=1e-15)


def test_self_attention_matches_per_row_vanilla_oracle():
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, (3, 4))
    out = self_attention_layer(X)
    assert out.shape == X.shape
    for i in range(3):
        np.testing.assert_allclose(out[i], vanilla_attention(X[i], X.T), atol=1e-12)


def test_self_attention_empty():
    with pytest.raises(DomainError):
        self_attention_layer(np.zeros((0, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    dk = int(rng.integers(1, 6))
    n = int(rng.integers(2, 8))
    K = rng.uniform(-3, 3, (dk, n))
    q = rng.uniform(-3, 3, dk)
    perm = rng.permutation(n)
    np.testing.assert_allclose(
        attention_distribution(K, q)[perm], attention_distribution(K[:, perm], q), atol=1e-12
    )
    np.testing.assert_allclose(
        vanilla_attention(q, K), vanilla_attention(q, K[:, perm]), atol=1e-12
    )
    X = rng.uniform(-3, 3, (n, dk))
    np.testing.assert_allclose(
        self_attention_layer(X)[perm], self_attention_layer(X[perm]), atol=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_upper_bound_at_every_level(seed):
    rng = np.random.default_rng(seed)
    dk = int(rng.integers(2, 9))
    n = int(rng.integers(1, 12))
    K = rng.uniform(-3, 3, (dk, n))
    q = rng.uniform(-3, 3, dk)
    hi = np.linalg.norm(K, axis=0).max()
    for level in attention_levels(q, K, 6):
        assert np.linalg.norm(level) <= hi + 1e-9


def test_vanilla_attention_key_validation():
    # keys must be a non-empty dk x n matrix
    np.testing.assert_array_equal(vanilla_attention(np.ones(3), np.ones((3, 2))), np.ones(3))
    with pytest.raises(DimensionError):
        vanilla_attention(np.ones(3), np.ones(3))
    with pytest.raises(DomainError):
        vanilla_attention(np.ones(3), np.ones((3, 0)))
