"""Baseline attention mechanisms: vanilla, scaled dot-product, multi-head,
multi-level and self-attention.

Two layout conventions meet here and the boundary is a transpose: the
query-vector form stores keys as columns of a ``dk x n`` matrix, while the
matrix form (``sdp_attention``, ``self_attention_layer``) stores one token
per row, [..., n, dk] with any leading batch axes. Values coincide with keys except in ``sdp_attention``, which keeps
a separate V so multi-head projections can use it. The compatibility
function is the scaled dot product <k,q>/sqrt(dk) throughout.

``level_forward`` is the one level recursion. The training connector
(``ham.ham_v_levels``) runs it, and so do ``attention_levels``,
``vanilla_attention`` and ``attention_distribution`` once ``_rows`` has
checked their shapes and copied the keys to its row layout. Its additive
score mask, for keys padded to a common count, is passed only by the
norm-bound suite. ``self_attention_levels`` is the one self-attention recursion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, check_int
from . import kernels


@dataclass(frozen=True)
class MultiHeadParams:
    """Per-head projections plus the output projection.

    ``wq[i]``, ``wk[i]``, ``wv[i]`` are [d_model, dk]; ``wo`` is [h*dk, d_model].
    """

    wq: tuple
    wk: tuple
    wv: tuple
    wo: np.ndarray

    def __post_init__(self):
        wq = tuple(np.asarray(m, dtype=np.float64) for m in self.wq)
        wk = tuple(np.asarray(m, dtype=np.float64) for m in self.wk)
        wv = tuple(np.asarray(m, dtype=np.float64) for m in self.wv)
        wo = np.asarray(self.wo, dtype=np.float64)
        if not (len(wq) == len(wk) == len(wv)) or len(wq) < 1:
            raise DomainError("need the same (>=1) number of Q/K/V projections per head")
        shape = wq[0].shape
        for m in (*wq, *wk, *wv):
            if m.shape != shape:
                raise DimensionError(f"head projection shapes differ: {m.shape} vs {shape}")
        h, dk = len(wq), shape[1]
        if wo.shape != (h * dk, shape[0]):
            raise DimensionError(
                f"output projection must be [{h * dk}, {shape[0]}], got {wo.shape}"
            )
        object.__setattr__(self, "wq", wq)
        object.__setattr__(self, "wk", wk)
        object.__setattr__(self, "wv", wv)
        object.__setattr__(self, "wo", wo)

    @property
    def h(self) -> int:
        return len(self.wq)

    @classmethod
    def identity(cls, d: int, h: int = 1) -> "MultiHeadParams":
        """h heads of identity projections with a stacked-identity output map."""
        d, h = check_int("d", d, 1), check_int("h", h, 1)
        eye = np.eye(d)
        wo = np.concatenate([eye] * h, axis=0) / h
        return cls(wq=(eye,) * h, wk=(eye,) * h, wv=(eye,) * h, wo=wo)


def scaled_dot_score(k, q) -> float:
    """Compatibility score <k,q>/sqrt(dk) between one key and one query of length dk >= 1."""
    k = np.asarray(k, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if k.shape != q.shape or k.ndim != 1:
        raise DimensionError(f"key and query must be same-length vectors: {k.shape} vs {q.shape}")
    if k.size == 0:
        raise DomainError("key and query must be non-empty vectors")
    return float(k @ q / np.sqrt(k.size))


def level_forward(keys, q0, depth: int, mask=None):
    """The level recursion of every ham_v path: ``keys`` [..., B, n, dk] (C-contiguous), ``q0`` [..., B, dk].

    Returns ``(queries, probs)``; ``queries[1:]`` are the level outputs and ``probs[t]`` level
    t+1's weights. Each instance of a batch, and each index of the leading axes, gets the bits
    of its own call.

    ``mask`` [..., B, n], if given, is added to the scaled scores: 0.0 on a real key and -inf on
    a padding key, which then gets probability exactly 0.0. Every row needs one real key, and
    nothing checks it: an all -inf row, a NaN or a +inf gives NaN levels. Keys zero-padded to a
    common n so give each instance its unpadded levels but for the order of the softmax's and
    the combination's sums, within about 2e-12 at depth 10; an instance with one real key still
    gets that key, bit for bit."""
    inv = float(1.0 / np.sqrt(keys.shape[-1]))
    queries, probs = [q0], []
    for _ in range(depth):
        scores = np.einsum("...th,...h->...t", keys, queries[-1])
        scores *= inv
        if mask is not None:
            scores += mask
        probs.append(kernels.softmax_rows(scores))
        queries.append(np.einsum("...th,...t->...h", keys, probs[-1]))
    return queries, probs


def _rows(q, K):
    """Check q [..., dk] against K [..., dk, n]; return ``level_forward``'s ``(keys, q0)``,
    the keys copied to C-contiguous rows (a strided view would round differently)."""
    K = np.asarray(K, dtype=np.float64)
    if K.ndim < 2:
        raise DimensionError(f"keys must form a [..., dk, n] array, got shape {K.shape}")
    if K.size == 0:
        raise DomainError(f"empty key sequence, shape {K.shape}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != K.shape[:-1]:
        raise DimensionError(f"query shape {q.shape} does not match keys {K.shape}")
    dk, n = K.shape[-2:]
    return np.ascontiguousarray(np.swapaxes(K, -1, -2)).reshape(-1, n, dk), q.reshape(-1, dk)


def attention_distribution(K, q) -> np.ndarray:
    """Softmax over the n scaled-dot scores of q [..., dk] against the key columns of K."""
    keys, q0 = _rows(q, K)
    return level_forward(keys, q0, 1)[1][0].reshape(*np.shape(q)[:-1], keys.shape[1])


def vanilla_attention(q, K) -> np.ndarray:
    """Convex combination of key columns weighted by the attention distribution."""
    keys, q0 = _rows(q, K)
    return level_forward(keys, q0, 1)[0][1].reshape(np.shape(q))


def attention_levels(q, K, depth: int) -> np.ndarray:
    """Iterated attention outputs q_1..q_depth, each the next level's query.

    ``q`` is [..., dk] and ``K`` [..., dk, n], with or without batch axes;
    returns [..., depth, dk], row t-1 being the level-t output.
    """
    depth = check_int("depth", depth, 1)
    keys, q0 = _rows(q, K)
    levels = np.stack(level_forward(keys, q0, depth)[0][1:], axis=1)
    return levels.reshape(*np.shape(q)[:-1], depth, keys.shape[2])


def multi_level_attention(q, K, depth: int) -> np.ndarray:
    """Feed each attention output back as the next query; return level ``depth``."""
    return attention_levels(q, K, depth)[..., -1, :]


def sdp_attention(Q, K, V) -> np.ndarray:
    """softmax(Q K^T / sqrt(dk)) V with row-per-token operands: Q [..., m, dk], K [..., n, dk]
    and V [..., n, dv], with the same leading axes; returns [..., m, dv]. Each index of the
    leading axes gets the bits of its own 2-D call."""
    Q = np.asarray(Q, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if (
        min(Q.ndim, K.ndim, V.ndim) < 2
        or not Q.shape[:-2] == K.shape[:-2] == V.shape[:-2]
        or Q.shape[-1] != K.shape[-1]
        or K.shape[-2] != V.shape[-2]
    ):
        raise DimensionError(
            f"sdp_attention expects Q [..., m, dk], K [..., n, dk], V [..., n, dv], "
            f"got {Q.shape}, {K.shape}, {V.shape}"
        )
    if K.shape[-2] == 0:
        raise DomainError("empty key sequence")
    p = kernels.softmax_rows(Q @ K.swapaxes(-1, -2) / np.sqrt(Q.shape[-1]))
    return p @ V


def multi_head(Q, K, V, params: MultiHeadParams) -> np.ndarray:
    """Concatenate per-head sdp attentions of projected inputs, then project."""
    Q = np.asarray(Q, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    d_model = params.wq[0].shape[0]
    for name, m in (("Q", Q), ("K", K), ("V", V)):
        if m.ndim != 2 or m.shape[1] != d_model:
            raise DimensionError(f"{name} must be [tokens, {d_model}], got {m.shape}")
    heads = [
        sdp_attention(Q @ wq, K @ wk, V @ wv)
        for wq, wk, wv in zip(params.wq, params.wk, params.wv)
    ]
    return np.concatenate(heads, axis=1) @ params.wo


def self_attention_layer(X) -> np.ndarray:
    """Every token attends over the whole sequence: sdp_attention(X, X, X) for X [..., n, dk]."""
    return sdp_attention(X, X, X)


def self_attention_levels(X, depth: int) -> list:
    """The ``depth`` consecutive self-attention results of the sequences X [..., n, dk]: a list
    of ``depth`` arrays shaped like X, each sequence of a batch with the bits of its own call."""
    levels = [X]
    for _ in range(check_int("depth", depth, 1)):
        levels.append(self_attention_layer(levels[-1]))
    return levels[1:]
