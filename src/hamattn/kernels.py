"""Hot numeric kernels in plain numpy.

Shape contracts: ``softmax_rows`` / ``softmax_rows_vjp`` /
``cross_entropy_rows`` take float64 arrays of at least two axes and apply
along the last one; any leading axes before the [N, V] rows are a batch of
independent row sets (a stack of parameter sets, say). A row reduction runs
over one contiguous row at a time whatever the leading axes, so each set
gets the bits of its own 2-D call. The elementwise kernels accept any
shape. All kernels are pure functions.
"""

import numpy as np

# stamped into every benchmark result; results with different backends are
# never compared
BACKEND = "numpy"


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Stabilized softmax along the last axis of a [..., N, V] array."""
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def softmax_rows_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pull an upstream gradient back through ``softmax_rows`` output ``p``."""
    # action of the Jacobian diag(p) - p p^T on g, row-wise: p * (g - sum(p * g))
    out = p * g
    np.subtract(g, np.add.reduce(out, axis=-1, keepdims=True), out=out)
    return np.multiply(out, p, out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below.

    The numerator exp(min(x, 0)) is 1 or e^x and the denominator 1 + exp(-|x|), so no
    mask or scatter is needed and ``x`` is not written; the result equals the two-branch
    formula bit for bit on every input, -0.0, infinities and subnormals included.
    """
    e = np.exp(-np.abs(x))
    e += 1.0
    out = np.exp(np.minimum(x, 0.0))
    return np.divide(out, e, out=out)


def sigmoid_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * s * (1.0 - s)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_vjp(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (1.0 - t * t)


def cross_entropy_rows(logits: np.ndarray, targets: np.ndarray):
    """Summed cross-entropy of the [N] integer ``targets`` under [..., N, V] logits.

    Returns ``(loss_sum, probs)`` where ``probs`` is the row-wise softmax,
    cached for the backward pass, and ``loss_sum`` one sum per leading index:
    a float for 2-D logits.
    """
    n = logits.shape[-2]
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=-1, keepdims=True)
    probs = e / s
    lse = m[..., 0] + np.log(s[..., 0])
    loss = lse - logits[..., np.arange(n), targets]
    return loss.sum(axis=-1), probs
