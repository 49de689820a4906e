"""Desk-scale GRU encoder-decoder joined by a hierarchical attention connector.

The encoder embeds token ids and runs a GRU over them (optionally
bidirectional, directions combined by elementwise sum so the state width
stays equal to the attention key width). Each decoder step queries the
encoder states through the batched ham_v connector, consumes
``concat(token embedding, context)`` as GRU input and projects the new state
to vocabulary logits. A :class:`~hamattn.autodiff.Tape` around a loss gives
exact gradients for every parameter. Every id array passes ``tensor.token_ids``:
integer-typed, in the vocabulary, a float id refused rather than truncated.

``sequence_loss`` records three tape entries at any length and depth: one op
for the whole encoder (the source embeddings gathered and both directions
stepped together), one for the whole teacher-forced decoder and the
cross-entropy. Their hand-written vjps run BPTT with every product that does
not feed the recurrence (input projections, the output projection, d_x
where possible, weight gradients) moved out of the time loop, following
Appleyard, Kocisky & Blunsom 2016 (arXiv:1604.01946); the level weights' vjp
runs once after the decoder's loop. The GRU cell accumulates into fresh
temporaries with ``out=`` and ``+=``, in its operation order. Each number is
computed with the arithmetic of the per-step chain of ``gru_step``,
``decode_step_batch`` and the primitives, which stay as the public per-step
forms, and gradients that several steps feed are added in that chain's tape
order, so the fused ops reproduce its loss and gradients bit for bit.
The forward halves also take every parameter stacked on a leading set axis
``[R, ...]``: untaped, ``sequence_loss`` (and likewise ``gru_step``) then
scores R parameter sets in one pass, each with the bits of its own call,
which is how the gradient checks evaluate their finite-difference points.

Checkpoints are versioned JSON containers of named parameter tensors; see
``save_checkpoint``.
"""

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Variable
from .data import BOS, EOS, MAX_VOCAB, NUM_RESERVED, read_json, write_text
from .errors import DimensionError, DomainError, check_int
from .ham import MAX_DEPTH, ham_v_context, ham_v_keys_vjp, ham_v_levels, ham_v_query_vjp
from .tensor import token_ids

INIT_SCALE = 0.1

CHECKPOINT_FORMAT = "hamattn-checkpoint"
CHECKPOINT_VERSION = 1


# Largest state width. The testbed trains widths of tens; at 512 the model
# already holds about 21 * 512^2 parameters (44 MB, three times that with
# adam's moments), and a mistyped width far beyond would make numpy refuse
# a terabyte-sized array instead of failing with a message.
MAX_HIDDEN = 512


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int = 16
    ham_depth: int = 1
    bidirectional: bool = True

    def __post_init__(self):
        # exact types: the fields go to checkpoint JSON, which holds no numpy int
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not f.type:
                raise DomainError(f"model config {f.name!r} must be {f.type.__name__}, got {value!r}")
        check_int("vocab_size", self.vocab_size, NUM_RESERVED + 1, MAX_VOCAB)
        check_int("hidden", self.hidden, 1, MAX_HIDDEN)
        check_int("ham_depth", self.ham_depth, 1, MAX_DEPTH)


class GRUParams:
    """Update/reset/candidate weights of one GRU cell.

    Input weights are [d_in, hidden], recurrent weights [hidden, hidden],
    biases [hidden]; the cell computes
    z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br),
    hc = tanh(x Wh + (r*h) Uh + bh), h' = (1-z)*h + z*hc.
    """

    FIELDS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")

    def __init__(self, rng: np.random.Generator, d_in: int, hidden: int):
        self.wz = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (d_in, hidden)))
        self.uz = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (hidden, hidden)))
        self.bz = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, hidden))
        self.wr = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (d_in, hidden)))
        self.ur = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (hidden, hidden)))
        self.br = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, hidden))
        self.wh = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (d_in, hidden)))
        self.uh = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (hidden, hidden)))
        self.bh = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, hidden))

    def variables(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def _stack_at(parts, axis: int) -> np.ndarray:
    """``np.stack(parts, axis=axis)`` for ``axis`` >= 0, C-contiguous, at a fraction of its call cost."""
    stacked = np.array(parts)
    return np.ascontiguousarray(np.moveaxis(stacked, 0, axis)) if axis else stacked


def _stack_gates(p: GRUParams):
    """The cell's weights stacked per gate in z, r, h order: [3, d_in, H], [3, H, H], [3, H],
    after the leading set axis the values carry, if any (see ``_stacked``)."""
    kinds = [p.FIELDS[k::3] for k in range(3)]  # (wz, wr, wh), (uz, ur, uh), (bz, br, bh)
    try:
        return tuple(_stack_at([getattr(p, name).value for name in kind], p.wz.value.ndim - 2) for kind in kinds)
    except ValueError as e:  # name the weights that disagree with their sibling gates
        shapes = {name: getattr(p, name).value.shape for name in p.FIELDS}
        odd = [f"{name} {shapes[name]}" for kind in kinds for name in kind
               if [shapes[other] for other in kind].count(shapes[name]) == 1]
        raise DimensionError(f"GRU weights {', '.join(odd)} disagree in shape with their sibling gates") from e


def _per_field(dw, du, db) -> tuple:
    """Stacked-gate gradients in ``GRUParams.FIELDS`` order."""
    return tuple(grad for g in range(3) for grad in (dw[g], du[g], db[g]))


class _CellCache(NamedTuple):
    hv: np.ndarray
    z: np.ndarray
    r: np.ndarray
    s: np.ndarray  # r * hv, the input of the candidate's recurrent product
    hc: np.ndarray


# The four helpers below hold the GRU arithmetic once. Every array may carry
# extra leading axes (directions, steps): ``xw`` is the input projection
# x @ W as [..., 3, B, H], ``hv`` the state [..., B, H], ``U`` and ``b`` the
# stacked weights [..., 3, H, H] and [..., 3, H]. numpy runs a stacked
# matmul item by item with each item's own BLAS call, so every number equals
# the one a per-gate, per-step product gives, provided each item is laid out
# like the per-step array: C-contiguous [B, H] blocks. A strided operand can
# reach a different BLAS kernel and move the last bit.


def _gru_forward(xw, hv, U, b):
    """h' = (1-z)*h + z*hc; returns (h', cache for ``_gru_backward``)."""
    a = np.matmul(hv[..., None, :, :], U[..., :2, :, :])
    a += xw[..., :2, :, :]
    a += b[..., :2, None, :]
    zr = kernels.sigmoid(a)
    z, r = zr[..., 0, :, :], zr[..., 1, :, :]
    s = r * hv
    a = s @ U[..., 2, :, :]
    a += xw[..., 2, :, :]
    a += b[..., 2, None, :]
    hc = kernels.tanh(a)
    h = 1.0 - z
    h *= hv
    h += np.multiply(z, hc, out=a)
    return h, _CellCache(hv, z, r, s, hc)


def _gru_backward(go, cache, U, d_a):
    """Pull ``go`` back through one cell: fills the pre-activation gradients
    ``d_a`` [..., 3, B, H] and returns d_h."""
    hv, z, r, s, hc = cache
    t = go * z  # one temporary for the three gates' upstream gradients
    d_a[..., 2, :, :] = kernels.tanh_vjp(hc, t)
    d_s = d_a[..., 2, :, :] @ U[..., 2, :, :].swapaxes(-1, -2)
    d_a[..., 1, :, :] = kernels.sigmoid_vjp(r, np.multiply(d_s, hv, out=t))
    d_a[..., 0, :, :] = kernels.sigmoid_vjp(z, np.multiply(go, np.subtract(hc, hv, out=t), out=t))
    d_u = d_a[..., :2, :, :] @ U[..., :2, :, :].swapaxes(-1, -2)
    d_h = go * (1.0 - z)
    d_h += np.multiply(d_s, r, out=d_s)
    d_h += d_u[..., 1, :, :]
    d_h += d_u[..., 0, :, :]
    return d_h


def _gru_input_grad(d_a, W):
    """d_x from the pre-activation gradients, summed over gates in h, r, z order."""
    p = d_a @ W.swapaxes(-1, -2)
    d_x = p[..., 2, :, :] + p[..., 1, :, :]
    return np.add(d_x, p[..., 0, :, :], out=d_x)


def _gru_param_grads(x, hv, s, d_a):
    """Per-item weight gradients of the stacked gates: x.T @ d_a, [h, h, r*h].T @ d_a, batch sums."""
    dw = np.matmul(x[..., None, :, :].swapaxes(-1, -2), d_a)
    du = np.empty(d_a.shape[:-2] + d_a.shape[-1:] * 2)
    np.matmul(hv[..., None, :, :].swapaxes(-1, -2), d_a[..., :2, :, :], out=du[..., :2, :, :])
    np.matmul(s.swapaxes(-1, -2), d_a[..., 2, :, :], out=du[..., 2, :, :])
    return dw, du, d_a.sum(axis=-2)


def _sum_steps(parts):
    """Sum per-step gradients over the leading step axis in tape order, last step first.

    The loop adds one step at a time, as Tape.backward would; np.sum may
    switch to pairwise summation and round differently.
    """
    total = parts[-1].copy()
    for part in parts[-2::-1]:
        total += part
    return total


def _gru_cell(x: Variable, h: Variable, p: GRUParams) -> Variable:
    """Fused GRU transition recorded as a single tape entry.

    Folding the whole cell into one op with a hand-written vjp keeps the tape
    short; the gradcheck suite pins its correctness against central
    differences like any other primitive. The forward also takes every
    value stacked on one leading set axis (x [R, B, d_in], h [R, B, H], each
    weight [R, ...]) and returns [R, B, H], each set with the bits of its own
    call; stacks are forward-only, so a tape refuses them.
    """
    xv, hv = x.value, h.value
    if xv.ndim not in (2, 3) or hv.ndim != xv.ndim or xv.shape[:-1] != hv.shape[:-1]:
        raise DimensionError(f"gru_step expects matching batches, got x {xv.shape}, h {hv.shape}")
    sets = xv.shape[:-2]
    lead = [v.value.shape[: v.value.ndim - (1 if name[0] == "b" else 2)] for name, v in p.variables().items()]
    if any(shape != sets for shape in lead):
        raise DimensionError(f"gru_step weights must carry the inputs' set axes {sets}, got {lead}")
    if sets and ad._current_tape() is not None:
        raise DimensionError("stacked parameters are forward-only; a tape takes one parameter set")
    if xv.shape[-1] != p.wz.value.shape[-2] or hv.shape[-1] != p.uz.value.shape[-2]:
        raise DimensionError(
            f"gru_step shapes {xv.shape}, {hv.shape} do not match weights "
            f"{p.wz.value.shape}, {p.uz.value.shape}"
        )
    W, U, b = _stack_gates(p)
    out, cache = _gru_forward(xv[..., None, :, :] @ W, hv, U, b)

    def vjp(go):
        d_a = np.empty((3, *go.shape))
        d_h = _gru_backward(go, cache, U, d_a)
        grads = _gru_param_grads(xv, hv, cache.s, d_a)
        return (_gru_input_grad(d_a, W), d_h, *_per_field(*grads))

    return ad._record((x, h, *p.variables().values()), Variable(out), vjp)


def gru_step(x, h_prev, params: GRUParams) -> Variable:
    """One GRU transition of a [batch, d_in] input and a [batch, hidden] state
    (untaped, also of R stacked sets: [R, batch, ...] and every weight [R, ...])."""
    return _gru_cell(ad.as_variable(x), ad.as_variable(h_prev), params)


class Seq2SeqModel:
    """Embedding + (bi)GRU encoder + ham_v connector + GRU decoder bundle."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        v, h = config.vocab_size, config.hidden
        self.embedding = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (v, h)))
        self.enc_fwd = GRUParams(rng, h, h)
        self.enc_bwd = GRUParams(rng, h, h) if config.bidirectional else None
        # decoder input is concat(embedding, attention context)
        self.dec = GRUParams(rng, 2 * h, h)
        self.w_out = Variable(rng.uniform(-INIT_SCALE, INIT_SCALE, (h, v)))
        self.var_c = Variable(np.zeros(config.ham_depth))  # uniform level weights 1/d

    def parameters(self) -> dict:
        params = {"embedding": self.embedding}
        for prefix, cell in (("enc_fwd", self.enc_fwd), ("enc_bwd", self.enc_bwd), ("dec", self.dec)):
            if cell is None:
                continue
            for name, var in cell.variables().items():
                params[f"{prefix}.{name}"] = var
        params["w_out"] = self.w_out
        params["ham_c"] = self.var_c
        return params


def _stacked(model: Seq2SeqModel) -> bool:
    """Whether the model's values are stacks [R, ...] of R parameter sets.

    ``sequence_loss`` scores R stacked sets in one untaped forward, each with
    the bits of its own unstacked call; every value must then be [R, ...]
    over its unstacked shape, or DimensionError names the ones that are not.
    """
    lead = model.embedding.value.shape[:-2]
    if not lead and model.w_out.value.ndim == 2 and model.var_c.value.ndim == 1:
        return False
    one_set = Seq2SeqModel(model.config, np.random.default_rng(0)).parameters()
    bad = [name for name, var in model.parameters().items() if var.value.shape != lead[:1] + one_set[name].shape]
    if len(lead) != 1 or bad:
        raise DimensionError(f"stacked parameters must share one leading set axis; {bad or ['embedding']} do not")
    return True


def _embed_steps(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The rows of a [V, H] (or stacked [R, V, H]) table for a [B, n] id matrix,
    step-major: [n, B, H] (or [n, R, B, H]).

    The gather runs in C order of ``ids.T``, as per-step gathers lay the rows out.
    """
    return np.ascontiguousarray(table[..., ids.T, :].swapaxes(-3, 0))


def _token_matrix(tokens, vocab_size: int) -> np.ndarray:
    """A non-empty [batch, steps] id matrix; ``tensor.token_ids`` checks its dtype and range."""
    arr = np.asarray(tokens)
    if arr.ndim != 2 or arr.size == 0:
        raise DomainError(f"expected a non-empty [batch, steps] id matrix, got shape {arr.shape}")
    return token_ids(arr, vocab_size, 2, "token ids")


def _step_tables(table: np.ndarray, ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-step gather gradients [n, V, H]: step t's rows g[t] added at ids[:, t].

    The fused encoder and decoder list the table once per step and return
    these last step first, so Tape.backward adds them as n gathers would.
    """
    out = np.zeros((ids.shape[1], *table.shape))
    np.add.at(out, (np.arange(ids.shape[1])[:, None], ids.T), g)
    return out


def _encode(tokens: np.ndarray, model: Seq2SeqModel) -> Variable:
    """Per-token encoder states [B, n, H] of a checked id matrix as one tape entry.

    The embedding rows are gathered step-major. Both directions step
    together as a [2, B, H] batch: direction j's k-th step reads token k
    forward and token n-1-k backward, and the states of one token are
    summed. The input projections of every step run before the time loop;
    d_x, the weight gradients and the embedding tables run after the BPTT
    loop. The forward also takes stacked parameters [R, ...] (see
    ``_stacked``) and returns [R, B, n, H]; the vjp serves one set.
    """
    cells = [cell for cell in (model.enc_fwd, model.enc_bwd) if cell is not None]
    nd = len(cells)
    embs = _embed_steps(model.embedding.value, tokens)
    sets = embs.ndim - 3
    W, U, b = (_stack_at(parts, sets) for parts in zip(*map(_stack_gates, cells)))
    xs = _stack_at([embs, embs[::-1]][:nd], sets + 1)  # [n, ..., nd, B, H]
    xw = np.matmul(xs[..., None, :, :], W)
    hs = [np.zeros(xs.shape[1:-1] + U.shape[-1:])]
    caches = []
    for k in range(len(xs)):
        h, cache = _gru_forward(xw[k], hs[-1], U, b)
        hs.append(h)
        caches.append(cache)
    f = _stack_at(hs[1:], sets)  # [..., n, nd, B, H]
    states = f[..., 0, :, :] if nd == 1 else f[..., 0, :, :] + f[..., ::-1, 1, :, :]

    def vjp(g):
        gt = np.ascontiguousarray(g.transpose(1, 0, 2))
        gs = _stack_at([gt, gt[::-1]][:nd], 1)
        d_a = np.empty(xw.shape)
        carry = None
        for k in reversed(range(len(xs))):
            carry = _gru_backward(gs[k] if carry is None else gs[k] + carry, caches[k], U, d_a[k])
        d_xs = _gru_input_grad(d_a, W)
        s = np.array([cache.s for cache in caches])
        dw, du, db = map(_sum_steps, _gru_param_grads(xs, np.array(hs[:-1]), s, d_a))
        d_embs = d_xs[:, 0] if nd == 1 else d_xs[::-1, 1] + d_xs[:, 0]
        d_tables = _step_tables(model.embedding.value, tokens, d_embs)[::-1]
        return (*d_tables, *(grad for j in range(nd) for grad in _per_field(dw[j], du[j], db[j])))

    params = (var for cell in cells for var in cell.variables().values())
    out = Variable(np.ascontiguousarray(states.swapaxes(-3, -2)))
    return ad._record((*[model.embedding] * len(embs), *params), out, vjp)


def encode_batch(tokens, model: Seq2SeqModel):
    """Encode a [B, n] id matrix to per-token states [B, n, H] plus the last state."""
    if _stacked(model):
        raise DimensionError("encode_batch takes one parameter set")
    enc = _encode(_token_matrix(tokens, model.config.vocab_size), model)
    b, n, h = enc.value.shape
    return enc, ad.gather_rows(ad.reshape(enc, (b * n, h)), np.arange(n - 1, b * n, n))


def decode_step_batch(h_dec, enc_states, prev_tokens, model: Seq2SeqModel):
    """One teacher-forced decoder step over [B] ids ``prev_tokens``: returns (logits, new state)."""
    h_dec = ad.as_variable(h_dec)
    enc_states = ad.as_variable(enc_states)
    context = ham_v_context(enc_states, h_dec, model.var_c)
    emb = ad.gather_rows(model.embedding, prev_tokens)
    x = ad.concat([emb, context], axis=1)
    h_new = gru_step(x, h_dec, model.dec)
    return ad.matmul(h_new, model.w_out), h_new


def _decoder_weights(model: Seq2SeqModel):
    """The decoder cell's stacked gates plus the level-weight row softmax(c), [..., 1, d]."""
    return (*_stack_gates(model.dec), kernels.softmax_rows(model.var_c.value[..., None, :]))


def _decoder_step(keys, h, emb, weights):
    """One decoder transition in plain numpy: (new state, (input, connector levels, cell cache))."""
    W, U, b, pc = weights
    context, queries, probs = ham_v_levels(keys, h, pc)
    x = np.concatenate([emb, context], axis=-1)
    h_new, cache = _gru_forward(x[..., None, :, :] @ W, h, U, b)
    return h_new, (x, (queries, probs), cache)


def _decode(enc: Variable, inputs: np.ndarray, model: Seq2SeqModel) -> Variable:
    """Teacher-forced decoder over a [B, T] input matrix as one tape entry: [T*B, V] logits.

    Step t attends from h_t (h_0 is the last encoder state), feeds
    concat(embedding of inputs[:, t], context) to the GRU and projects
    h_{t+1}; rows are step-major. The context depends on h, so d_x stays in
    the BPTT loop, while the output projection, its gradient and the weight
    gradients run once over all steps. Gradients that several steps feed are
    summed one step at a time, last step first, as Tape.backward adds them.
    The forward also takes stacked parameters [R, ...] and keys [R, B, n, H]
    and returns [R, T*B, V]; the vjp serves one set.
    """
    keys = enc.value
    sets, hidden = keys.ndim - 3, keys.shape[-1]
    weights = _decoder_weights(model)
    W, U, _, pc = weights
    w_out = model.w_out.value
    embs = _embed_steps(model.embedding.value, inputs)
    hs = [np.ascontiguousarray(keys[..., -1, :])]
    records = []
    for emb in embs:
        h, record = _decoder_step(keys, hs[-1], emb, weights)
        hs.append(h)
        records.append(record)
    h_new = _stack_at(hs[1:], sets)  # [..., T, B, H]
    logits = np.matmul(h_new, w_out[..., None, :, :])

    def vjp(g):
        g = g.reshape(logits.shape)
        d_h_out = np.matmul(g, w_out.T)
        d_a = np.empty((len(records), 3, *d_h_out.shape[1:]))
        d_embs = np.empty_like(embs)
        gw = np.empty((len(records), pc.shape[1]))
        d_keys = np.zeros(keys.shape)  # see ham_v_keys_vjp
        go = d_h_out[-1]
        for t in reversed(range(len(records))):
            _, (queries, probs), cache = records[t]
            d_h = _gru_backward(go, cache, U, d_a[t])
            d_x = _gru_input_grad(d_a[t], W)
            d_embs[t] = d_x[:, :hidden]
            g_levels, g_scores, d_query = ham_v_query_vjp(d_x[:, hidden:], keys, probs, pc)
            parts, gw[t] = ham_v_keys_vjp(d_x[:, hidden:], queries, probs, g_levels, g_scores)
            for part in parts:
                d_keys += part
            d_h += d_query
            go = d_h + d_h_out[t - 1] if t else d_h
        d_keys[:, -1] += go
        xs = np.array([x for x, _, _ in records])
        s = np.array([cache.s for _, _, cache in records])
        grads = map(_sum_steps, _gru_param_grads(xs, np.array(hs[:-1]), s, d_a))
        d_tables = _step_tables(model.embedding.value, inputs, d_embs)[::-1]
        d_w_out = _sum_steps(np.matmul(h_new.swapaxes(-1, -2), g))
        d_c = kernels.softmax_rows_vjp(pc, gw)  # each step's row has the bits of its own call
        return (d_keys, *d_tables, *_per_field(*grads), d_w_out, _sum_steps(d_c))

    params = (*model.dec.variables().values(), model.w_out, model.var_c)
    out = Variable(logits.reshape(*logits.shape[:-3], -1, logits.shape[-1]))
    return ad._record((enc, *[model.embedding] * len(embs), *params), out, vjp)


def sequence_loss(model: Seq2SeqModel, src_batch, tgt_batch) -> Variable:
    """Mean teacher-forced cross-entropy of a same-length batch of pairs.

    The decoder consumes BOS followed by the gold target tokens and is scored
    against the target shifted left with EOS appended. The tape holds three
    entries whatever the lengths and depth: the encoder (with its embedding
    gather), the decoder (with its own) and the cross-entropy.

    On stacked parameters (every value [R, ...], see ``_stacked``) the result
    holds R losses, set r's with the bits of its own unstacked call. Stacks
    run forward only: under an active tape they raise DimensionError.
    """
    if _stacked(model) and ad._current_tape() is not None:
        raise DimensionError("stacked parameters are forward-only; a tape takes one parameter set")
    src = _token_matrix(src_batch, model.config.vocab_size)
    tgt = _token_matrix(tgt_batch, model.config.vocab_size)
    if src.shape[0] != tgt.shape[0]:
        raise DimensionError(f"batch mismatch: {src.shape[0]} sources, {tgt.shape[0]} targets")
    b = tgt.shape[0]
    inputs = np.concatenate([np.full((b, 1), BOS, dtype=np.int64), tgt], axis=1)
    targets = np.concatenate([tgt, np.full((b, 1), EOS, dtype=np.int64)], axis=1)
    logits = _decode(_encode(src, model), inputs, model)
    return ad.cross_entropy_logits(logits, targets.T.ravel())


def generate(src, model: Seq2SeqModel, max_len: int = 50) -> list:
    """Greedy decode of one source sequence, stopping at EOS or ``max_len``.

    Ties break toward the smallest token id (first argmax). Deterministic for
    a fixed model and source.
    """
    max_len = check_int("max_len", max_len, 1)
    if _stacked(model):
        raise DimensionError("generate takes one parameter set")
    # a batch of one: a source that is not 1-D fails the matrix check
    src = _token_matrix(np.asarray(src)[None], model.config.vocab_size)
    keys = _encode(src, model).value
    h = np.ascontiguousarray(keys[:, -1])
    weights = _decoder_weights(model)
    out = []
    prev = BOS
    for _ in range(max_len):
        h, _ = _decoder_step(keys, h, model.embedding.value[[prev]], weights)
        tok = int(np.argmax((h @ model.w_out.value)[0]))
        if tok == EOS:
            break
        out.append(tok)
        prev = tok
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Seq2SeqModel, path) -> None:
    """Write a versioned JSON checkpoint of config plus named parameter tensors."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {
            name: {"shape": list(var.value.shape), "data": var.value.ravel().tolist()}
            for name, var in model.parameters().items()
        },
    }
    write_text(path, [json.dumps(payload, sort_keys=True) + "\n"])


def _stored_tensor(name: str, entry) -> np.ndarray:
    """One checkpoint tensor as a finite array of its stored shape.

    Anything else raises :class:`DomainError` (:class:`DimensionError` when
    the data does not fill the shape) naming the tensor.
    """
    if not isinstance(entry, dict) or set(entry) != {"shape", "data"}:
        raise DomainError(f"checkpoint tensor {name} must be an object with 'shape' and 'data'")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise DomainError(f"checkpoint tensor {name} shape must be a list of sizes, got {shape!r}")
    if not isinstance(data, list) or not all(type(x) in (int, float) for x in data):
        raise DomainError(f"checkpoint tensor {name} data must be a flat list of numbers")
    if len(data) != math.prod(shape):
        raise DimensionError(f"checkpoint tensor {name} holds {len(data)} numbers for shape {shape}")
    try:
        arr = np.array(data, dtype=np.float64).reshape(shape)
    except (OverflowError, ValueError) as e:
        raise DomainError(f"checkpoint tensor {name} is not a float64 array of shape {shape}: {e}") from e
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"checkpoint tensor {name} holds non-finite values")
    return arr


def load_checkpoint(path) -> Seq2SeqModel:
    """Rebuild a model from ``save_checkpoint`` output.

    Config keys (``ModelConfig`` checks their values), each tensor's form (a
    shape list and a flat list of numbers that fills it), tensor names and
    shapes, and finiteness are checked, and the config's sizes are compared
    with the stored tensors before the model is allocated; a bad file raises
    :class:`DomainError` (:class:`DimensionError` for a shape) naming what is
    wrong.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DomainError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    version = payload.get("version")
    # an int, not a bool or a float: in Python True == 1 == 1.0
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {version!r}")
    stored_config = payload.get("config")
    if not isinstance(stored_config, dict):
        raise DomainError(f"checkpoint config must be an object, got {stored_config!r}")
    odd = sorted(set(stored_config) ^ {f.name for f in fields(ModelConfig)})
    if odd:
        raise DomainError(f"checkpoint config keys do not match the model config: {odd}")
    config = ModelConfig(**stored_config)
    stored = payload.get("params")
    if not isinstance(stored, dict):
        raise DomainError(f"checkpoint params must be an object, got {type(stored).__name__}")
    tensors = {name: _stored_tensor(name, entry) for name, entry in stored.items()}
    # the config sets the model's size: pin it to stored data before allocating
    for name, shape in (("embedding", (config.vocab_size, config.hidden)), ("ham_c", (config.ham_depth,))):
        if name not in tensors or tensors[name].shape != shape:
            raise DimensionError(f"checkpoint tensor {name} is missing or not of shape {list(shape)}")
    model = Seq2SeqModel(config, np.random.default_rng(0))
    params = model.parameters()
    if set(tensors) != set(params):
        missing = set(params) ^ set(tensors)
        raise DomainError(f"checkpoint parameter names do not match the model: {sorted(missing)}")
    for name, var in params.items():
        if tensors[name].shape != var.value.shape:
            raise DimensionError(
                f"checkpoint tensor {name} has shape {tensors[name].shape}, expected {var.value.shape}"
            )
        var.value[...] = tensors[name]
    return model
