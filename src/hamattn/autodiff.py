"""Tape-based reverse-mode automatic differentiation over tensor ops.

A :class:`Variable` wraps a float64 array together with an accumulated
gradient of the same shape. While a :class:`Tape` is active (as a context
manager), every primitive op appends one entry -- ``(inputs, output, vjp)``
-- in execution order, so the entry list is already topologically sorted.
``Tape.backward`` zeroes every touched gradient, seeds the scalar loss with 1 and
replays the tape in reverse, accumulating input gradients additively (fan-out
sums). With no tape active the same ops just compute values, which is how
inference-mode code runs at full speed.

A tape lives for one forward/backward pass and is then discarded; it must
stay on a single thread. The tape points at its entries and nothing points
back at the tape, so reference counting frees a finished tape, and the arrays
its vjps saved, as soon as its last name goes.
"""

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError
from .tensor import level_sum, token_ids


class Variable:
    """A tensor leaf or intermediate with an accumulated gradient.

    The gradient is stored lazily: ``None`` stands for an all-zero gradient
    until backward accumulates into it or someone reads ``.grad``.
    """

    __slots__ = ("value", "_grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: Optional[np.ndarray] = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Variable(shape={self.value.shape})"


def as_variable(x) -> Variable:
    return x if isinstance(x, Variable) else Variable(x)


class TapeEntry(NamedTuple):
    inputs: tuple
    output: Variable
    vjp: Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of the primitive ops of one forward pass."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def backward(self, loss: Variable) -> None:
        """Propagate d(loss)/d(node) to every variable this tape touched.

        ``loss`` must be a scalar that one of this tape's entries output.
        """
        if loss.value.shape != ():
            raise DomainError(
                f"backward needs a scalar loss, got shape {loss.value.shape}"
            )
        if not any(entry.output is loss for entry in reversed(self.entries)):
            raise DomainError("loss was not produced through this tape's ops")
        # zero-init: None stands for an all-zero gradient
        for entry in self.entries:
            for v in (*entry.inputs, entry.output):
                v._grad = None
        loss._grad = np.ones(())
        for inputs, output, vjp in reversed(self.entries):
            g = output._grad
            if g is None:
                continue
            for v, dv in zip(inputs, vjp(g)):
                if dv is None:
                    continue
                if v._grad is None:
                    # adopt fresh arrays; copy anything aliasing g or a view
                    v._grad = dv.copy() if (dv is g or dv.base is not None) else dv
                else:
                    v._grad += dv


_TAPE_STACK: list[Tape] = []


def _current_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(inputs: tuple, out: Variable, vjp) -> Variable:
    tape = _current_tape()
    if tape is not None:
        tape.entries.append(TapeEntry(inputs, out, vjp))
    return out


def _same_shape(a: Variable, b: Variable, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{op} shape mismatch: {a.value.shape} vs {b.value.shape}")


# ---------------------------------------------------------------------------
# elementwise and linear primitives


def add(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    _same_shape(a, b, "add")
    out = Variable(a.value + b.value)
    return _record((a, b), out, lambda g: (g, g))


def sub(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    _same_shape(a, b, "sub")
    out = Variable(a.value - b.value)
    return _record((a, b), out, lambda g: (g, -g))


def mul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    _same_shape(a, b, "mul")
    out = Variable(a.value * b.value)
    return _record((a, b), out, lambda g: (g * b.value, g * a.value))


def scale(x, c: float) -> Variable:
    x = as_variable(x)
    c = float(c)
    out = Variable(x.value * c)
    return _record((x,), out, lambda g: (g * c,))


def affine(x, a: float, b: float) -> Variable:
    """Elementwise a*x + b with python-float coefficients."""
    x = as_variable(x)
    a, b = float(a), float(b)
    out = Variable(a * x.value + b)
    return _record((x,), out, lambda g: (a * g,))


def add_bias(x, b) -> Variable:
    """Add a 1-D bias to every row of a 2-D tensor."""
    x, b = as_variable(x), as_variable(b)
    if x.value.ndim != 2 or b.value.ndim != 1 or x.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"add_bias expects [n,k] plus [k], got {x.value.shape} and {b.value.shape}"
        )
    out = Variable(x.value + b.value)
    return _record((x, b), out, lambda g: (g, g.sum(axis=0)))


def matmul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")
    out = Variable(a.value @ b.value)
    return _record((a, b), out, lambda g: (g @ b.value.T, a.value.T @ g))


def dot(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    if a.value.ndim != 1 or b.value.ndim != 1:
        raise DimensionError(f"dot expects 1-D tensors, got {a.value.shape}, {b.value.shape}")
    _same_shape(a, b, "dot")
    out = Variable(a.value @ b.value)
    return _record((a, b), out, lambda g: (g * b.value, g * a.value))


def transpose(x) -> Variable:
    x = as_variable(x)
    if x.value.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {x.value.shape}")
    out = Variable(x.value.T)
    return _record((x,), out, lambda g: (g.T,))


def reshape(x, shape) -> Variable:
    x = as_variable(x)
    out = Variable(x.value.reshape(shape))
    return _record((x,), out, lambda g: (g.reshape(x.value.shape),))


def slice_1d(x, start: int, stop: int) -> Variable:
    """Contiguous slice of a 1-D tensor (used to unpack packed parameter vectors)."""
    x = as_variable(x)
    if x.value.ndim != 1:
        raise DimensionError(f"slice_1d expects a 1-D tensor, got {x.value.shape}")
    out = Variable(x.value[start:stop].copy())

    def vjp(g):
        gx = np.zeros_like(x.value)
        gx[start:stop] = g
        return (gx,)

    return _record((x,), out, vjp)


def concat(xs: Sequence, axis: int = 0) -> Variable:
    xs = tuple(as_variable(x) for x in xs)
    if not xs:
        raise DomainError("concat of an empty sequence")
    out = Variable(np.concatenate([x.value for x in xs], axis=axis))
    offsets = np.cumsum([x.value.shape[axis] for x in xs])[:-1]
    return _record(xs, out, lambda g: tuple(np.split(g, offsets, axis=axis)))


def stack(xs: Sequence, axis: int = 0) -> Variable:
    xs = tuple(as_variable(x) for x in xs)
    if not xs:
        raise DomainError("stack of an empty sequence")
    out = Variable(np.stack([x.value for x in xs], axis=axis))
    return _record(
        xs, out, lambda g: tuple(np.take(g, i, axis=axis) for i in range(len(xs)))
    )


# ---------------------------------------------------------------------------
# nonlinear primitives


def softmax(x) -> Variable:
    """Stabilized softmax along the last axis of a 1-D or 2-D tensor."""
    x = as_variable(x)
    if x.value.ndim not in (1, 2):
        raise DimensionError(f"softmax expects a 1-D or 2-D tensor, got {x.value.shape}")
    if x.value.size == 0:
        raise DomainError("softmax of an empty tensor is undefined")
    rows = x.value.reshape(-1, x.value.shape[-1])
    p = kernels.softmax_rows(rows)
    out = Variable(p.reshape(x.value.shape))

    def vjp(g):
        grows = g.reshape(-1, g.shape[-1])
        return (kernels.softmax_rows_vjp(p, grows).reshape(x.value.shape),)

    return _record((x,), out, vjp)


def tanh(x) -> Variable:
    x = as_variable(x)
    t = kernels.tanh(x.value)
    out = Variable(t)
    return _record((x,), out, lambda g: (kernels.tanh_vjp(t, g),))


def sigmoid(x) -> Variable:
    x = as_variable(x)
    s = kernels.sigmoid(x.value)
    out = Variable(s)
    return _record((x,), out, lambda g: (kernels.sigmoid_vjp(s, g),))


# ---------------------------------------------------------------------------
# reductions and model-specific fused ops


def sum_all(x) -> Variable:
    x = as_variable(x)
    out = Variable(np.sum(x.value))
    return _record((x,), out, lambda g: (np.full(x.value.shape, float(g)),))


def mean_all(x) -> Variable:
    x = as_variable(x)
    n = x.value.size
    out = Variable(np.sum(x.value) / n)
    return _record((x,), out, lambda g: (np.full(x.value.shape, float(g) / n),))


def gather_rows(table, ids) -> Variable:
    """Select rows of a 2-D table by 1-D integer ids (embedding lookup); ``token_ids`` checks them."""
    table = as_variable(table)
    if table.value.ndim != 2:
        raise DimensionError(f"gather_rows expects a 2-D table, got {table.value.shape}")
    ids = token_ids(ids, table.value.shape[0], 1, "gather_rows ids")
    out = Variable(table.value[ids])

    def vjp(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record((table,), out, vjp)


def attend_scores(enc, q) -> Variable:
    """Per-example inner products between a query and each timestep.

    ``enc`` is [B,T,H], ``q`` is [B,H]; the result is [B,T] with
    out[b,t] = <enc[b,t], q[b]>.
    """
    enc, q = as_variable(enc), as_variable(q)
    if enc.value.ndim != 3 or q.value.ndim != 2 or enc.value.shape[::2] != q.value.shape:
        raise DimensionError(
            f"attend_scores expects [B,T,H] and [B,H], got {enc.value.shape}, {q.value.shape}"
        )
    out = Variable(np.einsum("bth,bh->bt", enc.value, q.value))

    def vjp(g):
        return (
            np.einsum("bt,bh->bth", g, q.value),
            np.einsum("bt,bth->bh", g, enc.value),
        )

    return _record((enc, q), out, vjp)


def attend_combine(enc, p) -> Variable:
    """Per-example weighted sum of timesteps: out[b] = sum_t p[b,t] enc[b,t]."""
    enc, p = as_variable(enc), as_variable(p)
    if enc.value.ndim != 3 or p.value.ndim != 2 or enc.value.shape[:2] != p.value.shape:
        raise DimensionError(
            f"attend_combine expects [B,T,H] and [B,T], got {enc.value.shape}, {p.value.shape}"
        )
    out = Variable(np.einsum("bth,bt->bh", enc.value, p.value))

    def vjp(g):
        return (
            np.einsum("bt,bh->bth", p.value, g),
            np.einsum("bh,bth->bt", g, enc.value),
        )

    return _record((enc, p), out, vjp)


def weighted_sum(xs: Sequence, w) -> Variable:
    """sum_i w[i] * xs[i] over same-shape tensors, with w a 1-D tensor."""
    xs = tuple(as_variable(x) for x in xs)
    w = as_variable(w)
    if w.value.ndim != 1 or len(xs) != w.value.shape[0]:
        raise DimensionError(
            f"weighted_sum needs one weight per tensor: {len(xs)} tensors, w {w.value.shape}"
        )
    if not xs:
        raise DomainError("weighted_sum of an empty sequence")
    for x in xs[1:]:
        _same_shape(xs[0], x, "weighted_sum")
    out = Variable(level_sum([x.value for x in xs], w.value))

    def vjp(g):
        gw = np.array([np.sum(g * x.value) for x in xs])
        return (*(wi * g for wi in w.value), gw)

    return _record((*xs, w), out, vjp)


def cross_entropy_logits(logits, targets) -> Variable:
    """Mean cross-entropy of integer targets (checked by ``token_ids``) under rows of logits.

    Fused log-softmax + negative log-likelihood; strictly positive for
    finite logits whenever the vocabulary has at least two entries. Logits
    [R, N, V] hold R stacked sets scored against the same targets: the result
    is [R], each set's loss with the bits of its own [N, V] call. Stacked
    logits are forward-only, so a tape refuses them.
    """
    logits = as_variable(logits)
    if logits.value.ndim not in (2, 3):
        raise DimensionError(f"cross_entropy_logits expects [N,V] or [R,N,V], got {logits.value.shape}")
    if logits.value.ndim == 3 and _current_tape() is not None:
        raise DimensionError(f"stacked logits {logits.value.shape} are forward-only; a tape takes [N,V]")
    n, v = logits.value.shape[-2:]
    targets = token_ids(targets, v, 1, "targets")
    if targets.shape[0] != n:
        raise DimensionError(f"cross_entropy_logits expects {n} targets, got {targets.shape[0]}")
    loss_sum, probs = kernels.cross_entropy_rows(logits.value, targets)
    out = Variable(loss_sum / n)

    def vjp(g):
        gl = probs.copy()
        gl[np.arange(n), targets] -= 1.0
        gl *= float(g) / n
        return (gl,)

    return _record((logits,), out, vjp)


# ---------------------------------------------------------------------------
# finite-difference checking


# central-difference step: truncation error ~h^2 and float64 rounding ~1e-16/h
# both stay near 1e-10
FD_STEP = 1e-5
# most perturbed points one chunk of ``check_gradients`` holds, so a chunk is at
# most this many copies of the variables; the gradcheck table's seq2seq rows have
# 520 ("tiny") and 860 ("small") points: 3 and 4 stacked forwards
FD_CHUNK = 256


class GradCheckResult(NamedTuple):
    max_rel_error: float
    worst_variable: int
    worst_coord: tuple


def _fd_losses(build_loss, variables, stacked: bool) -> list:
    """The loss at every central-difference point, ``FD_CHUNK`` points at a time.

    Points run variable by variable and coordinate by coordinate in C order,
    ``+FD_STEP`` before ``-FD_STEP``. For a chunk of R points every variable's
    value is swapped for a fresh C-contiguous stack [R, ...] of copies of it,
    with set r's one coordinate moved to ``orig ± FD_STEP``. A stacked build
    scores the chunk in one call and returns the R losses; any other build is
    called once per set, with every variable bound to ``stack[r, ...]``. The
    original arrays are put back afterwards, also when a build raises.
    """
    originals = [v.value for v in variables]
    points = [(vi, i, step) for vi, v in enumerate(originals) for i in range(v.size)
              for step in (FD_STEP, -FD_STEP)]
    losses = []
    try:
        for start in range(0, len(points), FD_CHUNK):
            chunk = points[start:start + FD_CHUNK]
            stacks = [np.repeat(v[None], len(chunk), axis=0) for v in originals]
            for r, (vi, i, step) in enumerate(chunk):
                stacks[vi].reshape(len(chunk), -1)[r, i] = originals[vi].flat[i] + step
            if stacked:
                for v, stack in zip(variables, stacks):
                    v.value = stack
                out = build_loss().value
                if out.shape != (len(chunk),):
                    raise DimensionError(f"a stacked build of {len(chunk)} sets returned shape {out.shape}")
                losses.extend(out.tolist())
            else:
                for r in range(len(chunk)):
                    for v, stack in zip(variables, stacks):
                        v.value = stack[r, ...]
                    losses.append(float(build_loss().value))
    finally:
        for v, orig in zip(variables, originals):
            v.value = orig
    return losses


def check_gradients(build_loss, variables, stacked: bool = False) -> GradCheckResult:
    """Compare reverse-mode against central finite differences of step ``FD_STEP``.

    ``build_loss`` recomputes the scalar loss from the current values of
    ``variables`` (leaf Variables whose values ``_fd_losses`` swaps for
    perturbed copies), so one call checks the gradient of every coordinate of
    every listed variable. The result carries the max over coordinates of
    |analytic - numeric| / max(1, |analytic|), plus which variable/coordinate
    attained it (the first one, in variable and C order, on a tie). A NaN
    error, from the analytic gradient or from a finite-difference loss, counts
    as infinite, so a NaN fails every check.

    ``stacked=True`` declares a build that also takes every variable as a
    stack [R, ...] of R values and then returns R losses, each with the bits
    of its own unstacked build: each chunk of points is then scored in one
    call instead of one call per point, with the same result.
    """
    variables = list(variables)
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    # every coordinate of every variable, in variable and C order
    analytic = np.concatenate([np.zeros(0), *(v.grad.ravel() for v in variables)])
    fp, fm = np.reshape(_fd_losses(build_loss, variables, stacked), (-1, 2)).T
    numeric = (fp - fm) / (2.0 * FD_STEP)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    rel[np.isnan(rel)] = np.inf
    if not rel.any():
        return GradCheckResult(0.0, 0, ())
    worst = int(np.argmax(rel))  # the first maximum
    sizes = [v.value.size for v in variables]
    vi = int(np.searchsorted(np.cumsum(sizes), worst, side="right"))
    coord = np.unravel_index(worst - sum(sizes[:vi]), variables[vi].value.shape)
    return GradCheckResult(rel[worst], vi, coord)
