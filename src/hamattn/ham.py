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
``tensor.level_sum``, so training, generate and the reduction report share one
arithmetic; the norm-bound suite calls ``level_forward`` itself, on zero-padded
keys under a score mask. The batched seq2seq connector's forward is
``ham_v_levels``, and ``ham_v`` is that forward on its keys' rows; its
backward replays the levels in reverse with the primitives' exact arithmetic,
split at the recurrence: ``ham_v_query_vjp`` pulls the gradient down to the
query (all the decoder's previous step waits for) and ``ham_v_keys_vjp`` gives
the 2d contributions to the keys' gradient, in the unfused chain's order, and
the level-weight sums. ``ham_v_context`` composes them as one tape op listing
``enc`` 2d times, so that Tape.backward adds the contributions one at a time;
the fused decoder adds them itself. Either way the bits are the chain's (4d+2
entries). ham_s has no taped form and no gradcheck row, as
nothing trains it; the ops a taped ham_s would record (autodiff's
``softmax``, ``scale``, ``transpose``, ``weighted_sum``) keep their rows only
because the benchmark's trace names them.
"""

import numpy as np

from . import autodiff as ad
from . import kernels
from .attention import _rows, attention_levels, level_forward, self_attention_levels, vanilla_attention
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
# norm_bound_suite pads the key counts of one dk to the top of their range of this width
# (1-8, 9-16, ...) and runs each range as one masked batch
NORM_BOUND_BUCKET = 8
REDUCTION_HOT = 20.0  # reduction_report's scalar on the hot level; the rest are zero
# reduction_report's drawn instances held at a time, about 1 MB of them; also the most
# instances in one of norm_bound_suite's masked batches
REDUCTION_CHUNK = 1024


def ham_v(q, K, c) -> np.ndarray:
    """Weighted sum of the d iterated vanilla-attention outputs of q against K, d = len(c)."""
    pc = softmax_vec(c)[None]
    keys, q0 = _rows(q, K)
    return ham_v_levels(keys, q0, pc)[0].reshape(np.shape(q))


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


def ham_v_query_vjp(g, keys, probs, pc):
    """The recurrent half of ``ham_v_levels``' backward for a [B,H] context gradient ``g``, all
    that the previous decoder step waits for: ``(g_levels, g_scores, d_q0)``, each level's
    output and score gradients in level order, and the gradient reaching the query ``q0``."""
    inv = float(1.0 / np.sqrt(keys.shape[2]))
    w = pc[0]
    g_levels, g_scores = [None] * len(probs), [None] * len(probs)
    carry = None  # gradient reaching queries[i] through level i+1's scores
    for i in reversed(range(len(probs))):
        g_levels[i] = g_level = w[i] * g
        if carry is not None:
            g_level += carry
        g_scores[i] = kernels.softmax_rows_vjp(probs[i], np.einsum("bh,bth->bt", g_level, keys))
        g_scores[i] *= inv
        carry = np.einsum("bt,bth->bh", g_scores[i], keys)
    return g_levels, g_scores, carry


def ham_v_keys_vjp(g, queries, probs, g_levels, g_scores):
    """The rest of ``ham_v_levels``' backward, off the recurrence: ``(parts, gw)``. ``parts``
    yields the 2d contributions to the keys' gradient as outer products in the primitive chain's
    tape order (combine_d, scores_d, ..., combine_1, scores_1); added one at a time to a sum that
    starts from zeros (the chain's einsum computes 0.0 + product) they give the chain's bits.
    ``gw`` [d] is sum(g * level i), one reduction over [d, B*H] rows."""
    parts = (
        a[..., None] * b[..., None, :]
        for i in reversed(range(len(probs)))
        for a, b in ((probs[i], g_levels[i]), (g_scores[i], queries[i]))
    )
    return parts, np.add.reduce((np.array(queries[1:]) * g).reshape(len(probs), -1), axis=1)


def ham_v_context(enc, query, c) -> ad.Variable:
    """Batched taped ham_v used as the encoder-decoder connector.

    ``enc`` is [B,T,H] (each example brings its own keys), ``query`` is
    [B,H] and ``c`` is [d]; returns the [B,H] context as one tape entry
    whose forward is ``ham_v_levels`` and whose backward is its two halves,
    ``ham_v_query_vjp`` and ``ham_v_keys_vjp``.
    Untaped, all three may carry one leading set axis [R, ...]; the result
    is then [R,B,H], each set with the bits of its own call.
    """
    enc, query, c = ad.as_variable(enc), ad.as_variable(query), ad.as_variable(c)
    keys, q0, cv = enc.value, query.value, c.value
    if (
        cv.ndim not in (1, 2)
        or keys.ndim != cv.ndim + 2
        or keys.shape[:-2] + keys.shape[-1:] != q0.shape
        or keys.shape[:-3] != cv.shape[:-1]
    ):
        raise DimensionError(
            f"ham_v_context expects [B,T,H], [B,H], [d], each with or without one leading set axis, "
            f"got {keys.shape}, {q0.shape}, {cv.shape}"
        )
    if cv.ndim == 2 and ad._current_tape() is not None:
        raise DimensionError("stacked parameters are forward-only; a tape takes one parameter set")
    if keys.shape[-3] * keys.shape[-2] == 0 or cv.shape[-1] == 0:
        raise DomainError(f"ham_v_context needs B, T and d >= 1, got {keys.shape[-3:-1]}, d={cv.shape[-1]}")
    pc = kernels.softmax_rows(cv[..., None, :])
    context, queries, probs = ham_v_levels(keys, q0, pc)

    def vjp(g):
        g_levels, g_scores, d_query = ham_v_query_vjp(g, keys, probs, pc)
        parts, gw = ham_v_keys_vjp(g, queries, probs, g_levels, g_scores)
        # + 0.0: the einsum's arithmetic, so a -0.0 product reaches the tape as +0.0
        return (*(part + 0.0 for part in parts), d_query, kernels.softmax_rows_vjp(pc, gw[None])[0])

    # enc is listed once per contribution so that Tape.backward adds them to
    # enc's gradient one at a time, in the primitive chain's order
    return ad._record((enc,) * (2 * cv.shape[-1]) + (query, c), ad.Variable(context), vjp)


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
    drawn as one batch. The instances run in masked batches
    (``_norm_bound_batches``), one ``level_forward`` call each, and each
    instance's key-norm bounds come from its real keys alone; "first"
    violation means first in the draw order, and its record comes from the
    instance's own unpadded call, so it replays exactly. The padding moves a
    level by up to about 2e-12, far under ``BOUND_TOL``, and the tests check that the
    report is the one-instance-at-a-time loop's. Returns a plain dict,
    ``verify --out``'s ``norm_bounds``; the suite passes when its
    ``upper_violations`` is 0.
    """
    trials = check_int("trials", trials, 1, MAX_TRIALS)
    max_depth = check_int("max_depth", max_depth, 1, MAX_DEPTH)
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    upper_violations = 0
    lower_violations = 0
    first_upper = None
    for keys, mask, q, logits, hi, lo in _norm_bound_batches(rng, trials, max_depth):
        # random level weighting: a convex combination must obey the same bound
        alpha = kernels.softmax_rows(logits)
        levels = level_forward(keys, q, max_depth, mask)[0][1:]
        # [b, max_depth], instance-major: argwhere's first row is the first violation in draw order
        norms = np.linalg.norm(np.stack(levels, axis=1), axis=2)
        ham_norms = np.linalg.norm(level_sum(levels, alpha.T[..., None]), axis=1)
        lower_violations += int(np.sum(norms < lo[:, None] - BOUND_TOL))
        bad = norms > hi[:, None] + BOUND_TOL
        upper_violations += int(np.sum(bad)) + int(np.sum(ham_norms > hi + BOUND_TOL))
        if first_upper is None and bad.any():
            i, level = np.argwhere(bad)[0]
            K, q = np.ascontiguousarray(keys[i][mask[i] == 0.0].T), q[i]
            first_upper = {
                "K_columns": K.T.tolist(),
                "q": q.tolist(),
                "level": int(level + 1),
                "output_norm": float(np.linalg.norm(attention_levels(q, K, level + 1), axis=1)[-1]),
                "max_key_norm": float(np.linalg.norm(K, axis=0).max()),
            }
        # free this batch before the generator fills the next one
        del keys, mask, q, logits, hi, lo, alpha, levels, norms, ham_norms, bad
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


def _norm_bound_batches(rng, trials, max_depth):
    """Draw ``norm_bound_suite``'s instances; yield ``(keys, mask, q, logits, hi, lo)`` batches.

    The groups of one dk whose n share a ``NORM_BOUND_BUCKET``-wide range form a bucket: its
    keys are stored as rows, zero-padded to the range's top, [b, width, dk], and ``mask``
    [b, width] is 0.0 on a real key and -inf on padding. ``hi`` and ``lo`` [b] are each
    instance's largest and smallest key norm, over its real keys only. A batch holds at most
    ``REDUCTION_CHUNK`` instances of one bucket, in draw order, and is filled in place as the
    groups are drawn: at most one group's draws and one batch are held while the caller checks it.
    """
    dks = rng.integers(NORM_BOUND_DK[0], NORM_BOUND_DK[1] + 1, size=trials)
    ns = rng.integers(NORM_BOUND_N[0], NORM_BOUND_N[1] + 1, size=trials)
    # one integer per shape, ordered as (dk, n) pairs are: n is at most NORM_BOUND_N[1]
    shapes, counts = np.unique(dks * (NORM_BOUND_N[1] + 1) + ns, return_counts=True)
    buckets = {}  # (dk, range index) -> [(n, g)], in sorted shape order
    for shape, g in zip(shapes.tolist(), counts.tolist()):
        dk, n = divmod(shape, NORM_BOUND_N[1] + 1)
        buckets.setdefault((dk, (n - 1) // NORM_BOUND_BUCKET), []).append((n, g))
    for (dk, index), groups in buckets.items():
        width = (index + 1) * NORM_BOUND_BUCKET
        left, at = sum(g for _, g in groups), 0  # instances left to batch, rows filled in this batch
        for n, g in groups:
            keys_g = rng.uniform(-NORM_BOUND_ENTRY, NORM_BOUND_ENTRY, size=(g, dk, n)).swapaxes(1, 2)
            q_g = rng.uniform(-NORM_BOUND_ENTRY, NORM_BOUND_ENTRY, size=(g, dk))
            logits_g = rng.uniform(-2.0, 2.0, size=(g, max_depth))
            done = 0
            while done < g:
                if at == 0:
                    size = min(REDUCTION_CHUNK, left)
                    keys, mask = np.zeros((size, width, dk)), np.full((size, width), -np.inf)
                    q, logits, (hi, lo) = np.empty((size, dk)), np.empty((size, max_depth)), np.empty((2, size))
                take = min(g - done, size - at)
                rows, drawn = slice(at, at + take), slice(done, done + take)
                keys[rows, :n], mask[rows, :n] = keys_g[drawn], 0.0
                q[rows], logits[rows] = q_g[drawn], logits_g[drawn]
                norms = np.linalg.norm(keys[rows, :n], axis=2)
                hi[rows], lo[rows] = norms.max(axis=1), norms.min(axis=1)
                at, done, left = at + take, done + take, left - take
                if at == size:
                    at = 0
                    yield keys, mask, q, logits, hi, lo


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
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
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
            K, q, X = np.split(rng.uniform(-2.0, 2.0, size=2 * dk * n + dk), [dk * n, dk * n + dk])
            groups.setdefault((dk, n), []).append((d, t, K.reshape(dk, n), q, X.reshape(n, dk)))
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
