"""Desk-scale GRU encoder-decoder joined by a hierarchical attention connector.

The encoder embeds token ids and runs a GRU over them (optionally
bidirectional, directions combined by elementwise sum so the state width
stays equal to the attention key width). Each decoder step queries the
encoder states through the batched ham_v connector, consumes
``concat(token embedding, context)`` as GRU input and projects the new state
to vocabulary logits. Everything is built from taped autodiff primitives, so
a :class:`~hamattn.autodiff.Tape` around a loss gives exact gradients for
every parameter.

Checkpoints are versioned JSON containers of named parameter tensors; see
``save_checkpoint``.
"""

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Variable
from .data import BOS, EOS, NUM_RESERVED, read_text
from .errors import DimensionError, DomainError
from .ham import ham_v_context

INIT_SCALE = 0.1

CHECKPOINT_FORMAT = "hamattn-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int = 16
    ham_depth: int = 1
    bidirectional: bool = True

    def __post_init__(self):
        if self.vocab_size <= NUM_RESERVED:
            raise DomainError(
                f"vocab size must exceed the {NUM_RESERVED} reserved ids, got {self.vocab_size}"
            )
        if self.hidden < 1:
            raise DomainError(f"hidden size must be >= 1, got {self.hidden}")
        if self.ham_depth < 1:
            raise DomainError(f"attention depth must be >= 1, got {self.ham_depth}")


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


def _gru_cell(x: Variable, h: Variable, p: GRUParams) -> Variable:
    """Fused GRU transition recorded as a single tape entry.

    Folding the whole cell into one op with a hand-written vjp keeps the tape
    short on the hot training path; the gradcheck suite pins its correctness
    against central differences like any other primitive.
    """
    xv, hv = x.value, h.value
    if xv.shape[1] != p.wz.value.shape[0] or hv.shape[1] != p.uz.value.shape[0]:
        raise DimensionError(
            f"gru_step shapes {xv.shape}, {hv.shape} do not match weights "
            f"{p.wz.value.shape}, {p.uz.value.shape}"
        )
    z = kernels.sigmoid(xv @ p.wz.value + hv @ p.uz.value + p.bz.value)
    r = kernels.sigmoid(xv @ p.wr.value + hv @ p.ur.value + p.br.value)
    s = r * hv
    hc = kernels.tanh(xv @ p.wh.value + s @ p.uh.value + p.bh.value)
    out = Variable((1.0 - z) * hv + z * hc)

    def vjp(go):
        d_z = go * (hc - hv)
        d_h = go * (1.0 - z)
        d_ac = kernels.tanh_vjp(hc, go * z)
        d_x = d_ac @ p.wh.value.T
        d_s = d_ac @ p.uh.value.T
        d_wh = xv.T @ d_ac
        d_uh = s.T @ d_ac
        d_bh = d_ac.sum(axis=0)
        d_h += d_s * r
        d_ar = kernels.sigmoid_vjp(r, d_s * hv)
        d_x += d_ar @ p.wr.value.T
        d_h += d_ar @ p.ur.value.T
        d_wr = xv.T @ d_ar
        d_ur = hv.T @ d_ar
        d_br = d_ar.sum(axis=0)
        d_az = kernels.sigmoid_vjp(z, d_z)
        d_x += d_az @ p.wz.value.T
        d_h += d_az @ p.uz.value.T
        d_wz = xv.T @ d_az
        d_uz = hv.T @ d_az
        d_bz = d_az.sum(axis=0)
        return (d_x, d_h, d_wz, d_uz, d_bz, d_wr, d_ur, d_br, d_wh, d_uh, d_bh)

    return ad._record(
        (x, h, p.wz, p.uz, p.bz, p.wr, p.ur, p.br, p.wh, p.uh, p.bh), out, vjp
    )


def gru_step(x, h_prev, params: GRUParams) -> Variable:
    """One GRU transition of a [batch, d_in] input and a [batch, hidden] state."""
    x = ad.as_variable(x)
    h = ad.as_variable(h_prev)
    if x.value.ndim != 2 or h.value.ndim != 2 or x.value.shape[0] != h.value.shape[0]:
        raise DimensionError(
            f"gru_step expects matching batches, got x {x.value.shape}, h {h.value.shape}"
        )
    return _gru_cell(x, h, params)


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


def _token_matrix(tokens, vocab_size: int) -> np.ndarray:
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DomainError(f"expected a non-empty [batch, steps] id matrix, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= vocab_size:
        raise DomainError(f"token id outside vocab [0, {vocab_size})")
    return arr


def encode_batch(tokens, model: Seq2SeqModel):
    """Encode a [B, n] id matrix to per-token states [B, n, H] plus the last state."""
    tokens = _token_matrix(tokens, model.config.vocab_size)
    b, n = tokens.shape
    h0 = Variable(np.zeros((b, model.config.hidden)))
    embs = [ad.gather_rows(model.embedding, tokens[:, t]) for t in range(n)]

    h = h0
    states = []
    for t in range(n):
        h = gru_step(embs[t], h, model.enc_fwd)
        states.append(h)
    if model.enc_bwd is not None:
        hb = h0
        back = [None] * n
        for t in reversed(range(n)):
            hb = gru_step(embs[t], hb, model.enc_bwd)
            back[t] = hb
        states = [ad.add(f, bwd) for f, bwd in zip(states, back)]
    return ad.stack(states, axis=1), states[-1]


def decode_step_batch(h_dec, enc_states, prev_tokens, model: Seq2SeqModel):
    """One teacher-forced decoder step over a batch: returns (logits, new state)."""
    h_dec = ad.as_variable(h_dec)
    enc_states = ad.as_variable(enc_states)
    context = ham_v_context(enc_states, h_dec, model.var_c)
    emb = ad.gather_rows(model.embedding, np.asarray(prev_tokens, dtype=np.int64))
    x = ad.concat([emb, context], axis=1)
    h_new = gru_step(x, h_dec, model.dec)
    return ad.matmul(h_new, model.w_out), h_new


def sequence_loss(model: Seq2SeqModel, src_batch, tgt_batch) -> Variable:
    """Mean teacher-forced cross-entropy of a same-length batch of pairs.

    The decoder consumes BOS followed by the gold target tokens and is scored
    against the target shifted left with EOS appended.
    """
    src = _token_matrix(src_batch, model.config.vocab_size)
    tgt = _token_matrix(tgt_batch, model.config.vocab_size)
    if src.shape[0] != tgt.shape[0]:
        raise DimensionError(f"batch mismatch: {src.shape[0]} sources, {tgt.shape[0]} targets")
    b = tgt.shape[0]
    enc, h = encode_batch(src, model)
    inputs = np.concatenate([np.full((b, 1), BOS, dtype=np.int64), tgt], axis=1)
    targets = np.concatenate([tgt, np.full((b, 1), EOS, dtype=np.int64)], axis=1)
    step_logits = []
    for t in range(inputs.shape[1]):
        logits, h = decode_step_batch(h, enc, inputs[:, t], model)
        step_logits.append(logits)
    all_logits = ad.concat(step_logits, axis=0)
    return ad.cross_entropy_logits(all_logits, targets.T.ravel())


def generate(src, model: Seq2SeqModel, max_len: int = 50) -> list:
    """Greedy decode of one source sequence, stopping at EOS or ``max_len``.

    Ties break toward the smallest token id (first argmax). Deterministic for
    a fixed model and source.
    """
    if max_len < 1:
        raise DomainError(f"max_len must be >= 1, got {max_len}")
    src = np.asarray(src, dtype=np.int64)
    enc, h = encode_batch(src.reshape(1, -1), model)
    out = []
    prev = BOS
    for _ in range(max_len):
        logits, h = decode_step_batch(h, enc, np.array([prev]), model)
        tok = int(np.argmax(logits.value[0]))
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> Seq2SeqModel:
    """Rebuild a model from ``save_checkpoint`` output.

    Config keys and value types, tensor names and shapes, and finiteness are
    checked; a bad file raises :class:`DomainError` (:class:`DimensionError`
    for a shape) naming what is wrong.
    """
    payload = json.loads(read_text(path))
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise DomainError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {payload.get('version')}")
    stored_config = payload.get("config")
    if not isinstance(stored_config, dict):
        raise DomainError(f"checkpoint config must be an object, got {stored_config!r}")
    config_fields = {f.name: f.type for f in fields(ModelConfig)}
    odd = sorted(set(stored_config) ^ set(config_fields))
    if odd:
        raise DomainError(f"checkpoint config keys do not match the model config: {odd}")
    for name, kind in config_fields.items():
        if type(stored_config[name]) is not kind:
            raise DomainError(f"checkpoint config {name!r} must be {kind.__name__}")
    model = Seq2SeqModel(ModelConfig(**stored_config), np.random.default_rng(0))
    params = model.parameters()
    stored = payload["params"]
    if set(stored) != set(params):
        missing = set(params) ^ set(stored)
        raise DomainError(f"checkpoint parameter names do not match the model: {sorted(missing)}")
    for name, var in params.items():
        entry = stored[name]
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if arr.shape != var.value.shape:
            raise DimensionError(
                f"checkpoint tensor {name} has shape {arr.shape}, expected {var.value.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"checkpoint tensor {name} holds non-finite values")
        var.value[...] = arr
    return model
