"""Dense float64 array arithmetic shared by every other module.

A "tensor" here is simply a C-contiguous float64 ``numpy.ndarray``; this
module pins that convention and provides the shape-checked primitives the
rest of the package builds on. No broadcasting, views or sparse storage --
shapes are validated at call time and all public operations keep finite
inputs finite. ``token_ids`` is the one check of an integer id array.
"""

import numpy as np

from .errors import DimensionError, DomainError
from . import kernels


def softmax_vec(x) -> np.ndarray:
    """Softmax of a 1-D tensor, stabilized by max subtraction.

    The result is a probability vector: strictly positive entries summing
    to 1 within 1e-12, invariant under a shared shift of the input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"softmax_vec expects a 1-D tensor, got shape {x.shape}")
    if x.size == 0:
        raise DomainError("softmax_vec of an empty vector is undefined")
    return kernels.softmax_rows(x.reshape(1, -1))[0]


def l2_norm(x) -> float:
    """Euclidean norm sqrt(sum x_i^2) of a tensor of any shape."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.sum(x * x)))


def level_sum(levels, weights) -> np.ndarray:
    """sum_i weights[i] * levels[i], added one level at a time in level order; every
    weighted level sum in the package is this loop, so they all round alike."""
    acc = np.zeros_like(levels[0])
    for wi, x in zip(weights, levels):
        acc += wi * x
    return acc


def token_ids(ids, bound: int, ndim: int, name: str) -> np.ndarray:
    """``ids`` as int64 if it has ``ndim`` axes, an integer dtype and every id in [0, bound): a
    float id is refused, never truncated, and so is a bool; an empty array passes whatever its dtype."""
    arr = np.asarray(ids)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise DomainError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise DomainError(f"{name} out of range [0, {bound})")
    return arr.astype(np.int64, copy=False)
