"""Hierarchical attention: weighted sums over all d attention levels.

``ham_v`` iterates vanilla attention d times from a query vector and returns
the weighted sum of the d level outputs (the raw query at level 0 is not a
summand); ``ham_s`` does the same with self-attention over a whole sequence.
Both take the d trainable level logits ``c`` as a plain length-d array, as
the model holds them in ``var_c``, and weight the levels by softmax(c)
(``softmax_vec`` checks c), so the one-hot limits recover plain vanilla
attention (weight on level 1) and plain multi-level attention (weight on
level d).

The levels come from ``attention.level_forward`` (ham_v) and
``attention.self_attention_levels`` (ham_s); every weighted sum of them is
``tensor.level_sum``, so training, generate and the verify suites share one
arithmetic. The batched seq2seq connector is the pair ``ham_v_levels`` and
``ham_v_levels_vjp``, which replays the levels in reverse with the
primitives' exact arithmetic; ``ham_v_context`` wraps it as one tape op and
the model's fused decoder calls it once per step. The vjp returns the 2d
contributions to the keys' gradient separately, in the unfused chain's
order: ``ham_v_context`` lists ``enc`` 2d times among its inputs so that
Tape.backward adds them one at a time, which gives the same bits as the
chain of 4d+2 entries. ham_s has no taped form and no gradcheck row, as
nothing trains it; the ops a taped ham_s would record (autodiff's
``softmax``, ``scale``, ``transpose``, ``weighted_sum``) keep their rows only
because the benchmark's trace names them.
"""

import numpy as np

from . import autodiff as ad
from . import kernels
from .attention import attention_levels, level_forward, self_attention_levels, vanilla_attention
from .errors import DimensionError, DomainError, check_int
from .tensor import l2_norm, level_sum, softmax_vec

BOUND_TOL = 1e-9
# Largest depth (a model's, verify --max-depth) and trial count a user may ask for;
# defaults use depth 5 and 10 x 10,000, and far beyond numpy would refuse the arrays.
MAX_DEPTH = 64
MAX_TRIALS = 1_000_000
# Largest verify --reduction-instances: about 6-10 s at 0.06-0.1 ms an instance (2 cores).
MAX_REDUCTION_INSTANCES = 100_000
# norm_bound_suite's inclusive ranges of key dimension and key count, and of K and q entries
NORM_BOUND_DK, NORM_BOUND_N, NORM_BOUND_ENTRY = (2, 16), (1, 32), 3.0
REDUCTION_HOT = 20.0  # reduction_report's scalar on the hot level; the rest are zero
# reduction_report's drawn instances held at a time, about 1 MB of them
REDUCTION_CHUNK = 1024


def ham_v(q, K, c) -> np.ndarray:
    """Weighted sum of the d iterated vanilla-attention outputs of q against K, d = len(c)."""
    alpha = softmax_vec(c)
    levels = attention_levels(q, K, len(alpha))
    return level_sum(np.moveaxis(levels, -2, 0), alpha)


def ham_s(X, c) -> np.ndarray:
    """Weighted sum of the d consecutive self-attention results of the sequences X [..., n, dk], d = len(c)."""
    alpha = softmax_vec(c)
    return level_sum(self_attention_levels(X, len(alpha)), alpha)


# ---------------------------------------------------------------------------
# taped (differentiable) forms


def ham_v_levels(keys, q0, pc):
    """Plain-numpy forward of the batched ham_v connector: ``keys`` [..., B,T,H]
    (C-contiguous), ``q0`` [..., B,H] and the [..., 1, d] level-weight rows ``pc``,
    one row per index of the leading axes (a stack of parameter sets).

    Returns ``(context, queries, probs)`` with the arithmetic of the primitive
    chain attend_scores -> scale -> softmax -> attend_combine, then weighted_sum.
    """
    queries, probs = level_forward(keys, q0, pc.shape[-1])
    # level i's weight: a scalar for one set (numpy's cheaper scalar product),
    # [R, 1, 1] against the [R, B, H] levels of R stacked sets; either way each
    # set's level is scaled by the same product, so it keeps its bits
    weights = pc[0] if pc.ndim == 2 else np.moveaxis(pc, -1, 0)[..., None]
    return level_sum(queries[1:], weights), queries, probs


def ham_v_levels_vjp(g, keys, queries, probs, pc):
    """Backward of ``ham_v_levels`` for a [B,H] context gradient ``g``.

    Returns ``(d_keys, d_q0, d_c)``. ``d_keys`` is the list of the 2d
    contributions to the keys' gradient in the primitive chain's tape order
    (combine_d, scores_d, ..., combine_1, scores_1); adding them one at a
    time, in that order, reproduces the chain's gradient bit for bit.
    """
    inv = float(1.0 / np.sqrt(keys.shape[2]))
    w = pc[0]
    gw = np.array([np.sum(g * x) for x in queries[1:]])
    d_c = kernels.softmax_rows_vjp(pc, gw.reshape(1, -1))[0]
    d_keys = []
    carry = None  # gradient reaching queries[i] through level i+1's scores
    for i in reversed(range(len(probs))):
        g_level = w[i] * g
        if carry is not None:
            g_level += carry
        p = probs[i]
        d_keys.append(np.einsum("bt,bh->bth", p, g_level))
        g_scores = kernels.softmax_rows_vjp(p, np.einsum("bh,bth->bt", g_level, keys)) * inv
        d_keys.append(np.einsum("bt,bh->bth", g_scores, queries[i]))
        carry = np.einsum("bt,bth->bh", g_scores, keys)
    return d_keys, carry, d_c


def ham_v_context(enc, query, c) -> ad.Variable:
    """Batched taped ham_v used as the encoder-decoder connector.

    ``enc`` is [B,T,H] (each example brings its own keys), ``query`` is
    [B,H] and ``c`` is [d]; returns the [B,H] context as one tape entry
    whose forward and backward are ``ham_v_levels`` and ``ham_v_levels_vjp``.
    """
    enc, query, c = ad.as_variable(enc), ad.as_variable(query), ad.as_variable(c)
    keys, q0, cv = enc.value, query.value, c.value
    if keys.ndim != 3 or q0.ndim != 2 or keys.shape[::2] != q0.shape or cv.ndim != 1:
        raise DimensionError(
            f"ham_v_context expects [B,T,H], [B,H], [d], got {keys.shape}, {q0.shape}, {cv.shape}"
        )
    if keys.shape[0] * keys.shape[1] == 0 or cv.size == 0:
        raise DomainError(f"ham_v_context needs B, T and d >= 1, got {keys.shape[:2]}, d={cv.size}")
    pc = kernels.softmax_rows(cv.reshape(1, -1))
    context, queries, probs = ham_v_levels(keys, q0, pc)

    def vjp(g):
        d_keys, d_query, d_c = ham_v_levels_vjp(g, keys, queries, probs, pc)
        return (*d_keys, d_query, d_c)

    # enc is listed once per contribution so that Tape.backward adds them to
    # enc's gradient one at a time, in the primitive chain's order
    return ad._record((enc,) * (2 * cv.size) + (query, c), ad.Variable(context), vjp)


# ---------------------------------------------------------------------------
# norm-bound suite

# Fixed instance where the claimed lower bound min ||k_i|| <= ||output|| fails:
# two opposite keys cancel under a query orthogonal to both.
LOWER_BOUND_COUNTEREXAMPLE = {
    "K_columns": [[1.0, 0.0], [-1.0, 0.0]],
    "q": [0.0, 1.0],
}


def _counterexample_record() -> dict:
    K = np.array(LOWER_BOUND_COUNTEREXAMPLE["K_columns"]).T
    q = np.array(LOWER_BOUND_COUNTEREXAMPLE["q"])
    out = vanilla_attention(q, K)
    key_norms = np.linalg.norm(K, axis=0)
    return {
        "K_columns": K.T.tolist(),
        "q": q.tolist(),
        "output_norm": l2_norm(out),
        "min_key_norm": float(key_norms.min()),
        "lower_bound_violated": bool(l2_norm(out) < key_norms.min() - BOUND_TOL),
    }


def norm_bound_suite(trials: int, seed: int = 0, max_depth: int = 10) -> dict:
    """Randomized check that every attention level keeps the norm upper bound.

    Samples (q, K) instances as the ``NORM_BOUND_*`` constants say, iterates
    attention to ``max_depth`` and asserts ||output||_2 <= max_i ||k_i||_2 +
    1e-9 at every level and for a random ham_v combination of the levels. Lower-bound failures are counted, not
    asserted: the suite also records the fixed cancellation counterexample.

    Sampling is shape first: all ``trials`` key dimensions, then all key
    counts; then, for each distinct (dk, n) in sorted order, that group's
    keys [g, dk, n], queries [g, dk] and level logits [g, max_depth], each
    drawn as one batch and run through one ``attention_levels`` call. Only
    one group's instances are held at a time, and "first" violation means
    first in this order. Returns a plain dict, ``verify --out``'s
    ``norm_bounds``; the suite passes when its ``upper_violations`` is 0.
    """
    trials = check_int("trials", trials, 1, MAX_TRIALS)
    max_depth = check_int("max_depth", max_depth, 1, MAX_DEPTH)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    dks = rng.integers(NORM_BOUND_DK[0], NORM_BOUND_DK[1] + 1, size=trials)
    ns = rng.integers(NORM_BOUND_N[0], NORM_BOUND_N[1] + 1, size=trials)
    # one integer per shape, ordered as (dk, n) pairs are: n is at most NORM_BOUND_N[1]
    keys, counts = np.unique(dks * (NORM_BOUND_N[1] + 1) + ns, return_counts=True)
    upper_violations = 0
    lower_violations = 0
    first_upper = None
    for key, g in zip(keys.tolist(), counts.tolist()):
        dk, n = divmod(key, NORM_BOUND_N[1] + 1)
        K = rng.uniform(-NORM_BOUND_ENTRY, NORM_BOUND_ENTRY, size=(g, dk, n))
        q = rng.uniform(-NORM_BOUND_ENTRY, NORM_BOUND_ENTRY, size=(g, dk))
        # random level weighting: a convex combination must obey the same bound
        alpha = kernels.softmax_rows(rng.uniform(-2.0, 2.0, size=(g, max_depth)))
        key_norms = np.linalg.norm(K, axis=1)
        hi, lo = key_norms.max(axis=1), key_norms.min(axis=1)
        levels = attention_levels(q, K, max_depth)
        norms = np.linalg.norm(levels, axis=2)
        ham_norms = np.linalg.norm(level_sum(np.moveaxis(levels, 1, 0), alpha.T[..., None]), axis=1)
        lower_violations += int(np.sum(norms < lo[:, None] - BOUND_TOL))
        bad = norms > hi[:, None] + BOUND_TOL
        upper_violations += int(np.sum(bad)) + int(np.sum(ham_norms > hi + BOUND_TOL))
        if first_upper is None and bad.any():
            i, level = np.argwhere(bad)[0]
            first_upper = {
                "K_columns": K[i].T.tolist(),
                "q": q[i].tolist(),
                "level": int(level + 1),
                "output_norm": float(norms[i, level]),
                "max_key_norm": float(hi[i]),
            }
    return {
        "trials": trials,
        "max_depth": max_depth,
        "seed": seed,
        "levels_checked": trials * (max_depth + 1),
        "upper_violations": upper_violations,
        "lower_violations": lower_violations,
        "first_upper_violation": first_upper,
        "lower_bound_counterexample": _counterexample_record(),
    }


def reduction_report(instances: int, seed: int = 0) -> dict:
    """Numerically verify the two one-hot reductions of ham_v and ham_s.

    With the level-t scalar at ``REDUCTION_HOT`` and the rest at zero the
    output must match the plain level-t attention result; with d=1 the match
    is exact up to float rounding. Depths are capped at 6 and entries at 2 so
    the softmax tail (d-1)*e^-20 stays well under the 1e-7 check threshold.

    Each instance is drawn in turn (dk, n, d, t, K, q, X) from one stream, at
    most ``REDUCTION_CHUNK`` of them held at a time. A chunk's instances run in
    (dk, n) shape groups (``_reduction_group``); every instance gets the bits of
    its own per-instance ham_v and ham_s calls, so the maxima are those of a
    one-at-a-time loop.
    """
    instances = check_int("instances", instances, 1, MAX_REDUCTION_INSTANCES)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    worst = dict.fromkeys(
        ("ham_v_onehot_max_err", "ham_v_d1_max_err", "ham_s_onehot_max_err", "ham_s_d1_max_err"), 0.0
    )  # in report order
    for start in range(0, instances, REDUCTION_CHUNK):
        groups = {}
        for _ in range(min(REDUCTION_CHUNK, instances - start)):
            dk = int(rng.integers(2, 9))
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 7))
            t = int(rng.integers(0, d))
            K = rng.uniform(-2.0, 2.0, size=(dk, n))
            q = rng.uniform(-2.0, 2.0, size=dk)
            X = rng.uniform(-2.0, 2.0, size=(n, dk))
            groups.setdefault((dk, n), []).append((d, t, K, q, X))
        for group in groups.values():
            for key, err in _reduction_group(group):
                worst[key] = max(worst[key], err)
    return {"instances": instances, "seed": seed, "hot": REDUCTION_HOT, **worst}


def _reduction_group(group):
    """Yield ``(error name, max error)`` over one shape group's (d, t, K, q, X) instances.

    The recursions run once, at the group's largest depth (level t does not
    depend on the depth asked for); each depth's one-hot level weights are one
    ``softmax_rows`` of its [g_d, d] logit rows, and each sum one ``level_sum``.
    """
    ds, ts, K, q, X = (np.array(column) for column in zip(*group))
    depth = int(ds.max())
    v = np.moveaxis(attention_levels(q, K, depth), 1, 0)  # [depth, g, dk]
    s = np.stack(self_attention_levels(X, depth))  # [depth, g, n, dk]
    one = softmax_vec(np.zeros(1))
    yield "ham_v_d1_max_err", _max_err(level_sum(v[:1], one), v[0])
    yield "ham_s_d1_max_err", _max_err(level_sum(s[:1], one), s[0])
    for d in sorted(set(ds.tolist())):
        rows = np.flatnonzero(ds == d)
        logits = np.zeros((rows.size, d))
        logits[np.arange(rows.size), ts[rows]] = REDUCTION_HOT
        weights = kernels.softmax_rows(logits).T[..., None]  # [d, g_d, 1]
        yield "ham_v_onehot_max_err", _max_err(level_sum(v[:d, rows], weights), v[ts[rows], rows])
        yield "ham_s_onehot_max_err", _max_err(level_sum(s[:d, rows], weights[..., None]), s[ts[rows], rows])


def _max_err(out, want) -> float:
    return float(np.max(np.abs(out - want)))
