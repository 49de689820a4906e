import functools
import importlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamattn import autodiff as ad
from hamattn.autodiff import Variable, check_gradients
from hamattn.data import BOS, EOS, MAX_VOCAB, gen_task
from hamattn.ham import MAX_DEPTH
from hamattn.errors import DimensionError, DomainError
from hamattn.kernels import sigmoid, sigmoid_vjp, tanh_vjp
from hamattn.model import (
    MAX_HIDDEN,
    GRUParams,
    ModelConfig,
    Seq2SeqModel,
    decode_step_batch,
    encode_batch,
    generate,
    gru_step,
    load_checkpoint,
    save_checkpoint,
    sequence_loss,
)
from json_fragments import JSON_FRAGMENTS, RAW

# the package re-exports the train() function under the module's name
training = importlib.import_module("hamattn.train")
model_module = importlib.import_module("hamattn.model")


def _stack_values(variables, rng, sets):
    """Swap every value for a C-contiguous stack of ``sets`` perturbed copies;
    returns the stacks."""
    stacks = []
    for var in variables:
        stack = np.ascontiguousarray(var.value + rng.normal(0.0, 0.05, (sets, *var.value.shape)))
        var.value = stack
        stacks.append(stack)
    return stacks


def _zero_gru(d_in, hidden):
    cell = GRUParams(np.random.default_rng(0), d_in, hidden)
    for var in cell.variables().values():
        var.value[...] = 0.0
    return cell


def _model(vocab=8, hidden=4, depth=2, bidirectional=True, seed=0):
    return Seq2SeqModel(
        ModelConfig(vocab, hidden, depth, bidirectional), np.random.default_rng(seed)
    )


def test_gru_step_zero_params_zero_state():
    cell = _zero_gru(3, 3)
    out = gru_step(np.zeros((1, 3)), np.zeros((1, 3)), cell)
    np.testing.assert_array_equal(out.value, np.zeros((1, 3)))


def test_gru_step_zero_params_halves_state():
    # z = r = 0.5, candidate tanh(0) = 0, so h' = 0.5 h
    cell = _zero_gru(3, 3)
    v = np.array([[1.0, -2.0, 0.5]])
    out = gru_step(np.zeros((1, 3)), v, cell)
    np.testing.assert_allclose(out.value, 0.5 * v, atol=1e-15)


def test_gru_step_batched_matches_single():
    rng = np.random.default_rng(1)
    cell = GRUParams(rng, 3, 4)
    xs = rng.uniform(-1, 1, (5, 3))
    hs = rng.uniform(-1, 1, (5, 4))
    batched = gru_step(xs, hs, cell).value
    for i in range(5):
        single = gru_step(xs[i : i + 1], hs[i : i + 1], cell).value
        np.testing.assert_allclose(single[0], batched[i], atol=1e-14)


def test_gru_step_shape_error():
    cell = GRUParams(np.random.default_rng(0), 3, 4)
    with pytest.raises(DimensionError):
        gru_step(np.zeros((1, 5)), np.zeros((1, 4)), cell)
    with pytest.raises(DimensionError):
        gru_step(np.zeros((2, 3)), np.zeros((1, 4)), cell)
    with pytest.raises(DimensionError):
        gru_step(np.zeros(3), np.zeros(4), cell)
    # stacked inputs need every weight stacked over the same sets, and the reverse
    x, h = np.zeros((2, 1, 3)), np.zeros((2, 1, 4))
    with pytest.raises(DimensionError, match="set axes"):
        gru_step(x, h, cell)
    _stack_values(cell.variables().values(), np.random.default_rng(0), 2)
    for bad_x, bad_h in ((x[0], h[0]), (np.zeros((3, 1, 3)), np.zeros((3, 1, 4))), (x, h[0]), (x[None], h[None])):
        with pytest.raises(DimensionError):
            gru_step(bad_x, bad_h, cell)
    cell.uh.value = cell.uh.value[0]
    with pytest.raises(DimensionError, match="set axes"):
        gru_step(x, h, cell)


def test_gru_weights_that_disagree_with_their_sibling_gates_are_named():
    # a 5 x 5 uh in a 3 -> 4 cell used to escape as numpy's "inhomogeneous shape" ValueError
    cell = GRUParams(np.random.default_rng(0), 3, 4)
    cell.uh.value = np.zeros((5, 5))
    message = r"^GRU weights uh \(5, 5\) disagree in shape with their sibling gates$"
    with pytest.raises(DimensionError, match=message):
        gru_step(np.zeros((2, 3)), np.zeros((2, 4)), cell)
    cell.wz.value = np.zeros((3, 5))
    with pytest.raises(DimensionError, match=r"weights wz \(3, 5\), uh \(5, 5\) disagree"):
        gru_step(np.zeros((2, 3)), np.zeros((2, 4)), cell)
    for name in ("enc_fwd", "enc_bwd", "dec"):
        model = _model(hidden=4)
        getattr(model, name).br.value = np.zeros(5)
        with pytest.raises(DimensionError, match=r"weights br \(5,\) disagree"):
            sequence_loss(model, [[3, 4]], [[4, 3]])


@pytest.mark.parametrize("lead", [(), (2,), (6, 2)])
def test_gru_cell_helpers_leave_their_inputs_unchanged(lead):
    # leading axes as the cell meets them: none, directions, steps x directions
    rng = np.random.default_rng(len(lead))
    W, U, b = (np.broadcast_to(a, lead + a.shape).copy() for a in model_module._stack_gates(GRUParams(rng, 5, 16)))
    xw = rng.normal(size=lead + (32, 5))[..., None, :, :] @ W
    hv, go = rng.normal(size=(2, *lead, 32, 16))
    inputs = (xw, hv, U, b, go)
    before = [a.copy() for a in inputs]
    h, cache = model_module._gru_forward(xw, hv, U, b)
    saved = [a.copy() for a in cache]
    d_a = np.empty(xw.shape)
    d_h = model_module._gru_backward(go, cache, U, d_a)
    for a, want in zip((*inputs, *cache), (*before, *saved)):
        np.testing.assert_array_equal(a, want)
    # the outputs are fresh arrays, not views of an input or of the cache
    for out in (h, d_h):
        assert not any(np.shares_memory(out, a) for a in (*inputs, *cache))


@pytest.mark.parametrize("d_in, hidden", [(1, 1), (3, 4), (32, 16)])
def test_stacked_gru_step_is_bit_identical_per_set(d_in, hidden):
    rng = np.random.default_rng(d_in + hidden)
    for batch, sets in ((1, 1), (1, 6), (5, 3)):
        cell = GRUParams(rng, d_in, hidden)
        stacks = _stack_values(cell.variables().values(), rng, sets)
        xs = rng.uniform(-1, 1, (sets, batch, d_in))
        hs = rng.uniform(-1, 1, (sets, batch, hidden))
        out = gru_step(xs, hs, cell).value
        assert out.shape == (sets, batch, hidden)
        for r in range(sets):
            for var, stack in zip(cell.variables().values(), stacks):
                var.value = stack[r].copy()
            np.testing.assert_array_equal(out[r], gru_step(xs[r].copy(), hs[r].copy(), cell).value)


def test_gru_chain_gradients():
    rng = np.random.default_rng(2)
    cell = GRUParams(rng, 3, 3)
    xs = [Variable(rng.uniform(-1, 1, (1, 3))) for _ in range(3)]
    h0 = Variable(rng.uniform(-1, 1, (1, 3)))
    r = Variable(rng.uniform(-1, 1, (1, 3)))

    def forward():
        h = h0
        for x in xs:
            h = gru_step(x, h, cell)
        return ad.sum_all(ad.mul(h, r))

    res = check_gradients(forward, [*cell.variables().values(), *xs, h0])
    assert res.max_rel_error < 1e-5


def test_encode_length_one_is_single_gru_step():
    model = _model(bidirectional=False)
    states, last = encode_batch(np.array([[5]]), model)
    emb = model.embedding.value[5:6]
    expected = gru_step(emb, np.zeros((1, 4)), model.enc_fwd).value
    np.testing.assert_allclose(states.value[0], expected, atol=1e-15)
    np.testing.assert_array_equal(last.value, expected)


def test_encode_zero_params_gives_zero_states():
    model = _model(bidirectional=False)
    for var in model.parameters().values():
        var.value[...] = 0.0
    states, _ = encode_batch(np.array([[3, 4, 5]]), model)
    np.testing.assert_array_equal(states.value, np.zeros((1, 3, 4)))


def test_bidirectional_palindrome_symmetry():
    model = _model(bidirectional=True, seed=3)
    # share forward and backward params
    for name, var in model.enc_fwd.variables().items():
        getattr(model.enc_bwd, name).value[...] = var.value
    states = encode_batch(np.array([[3, 5, 3]]), model)[0].value[0]
    np.testing.assert_allclose(states, states[::-1], atol=1e-14)


def test_encode_validation():
    model = _model()
    with pytest.raises(DomainError):
        encode_batch(np.zeros((1, 0), dtype=int), model)
    with pytest.raises(DomainError):
        encode_batch(np.array([[99]]), model)
    with pytest.raises(DomainError):
        encode_batch(np.array([3, 4]), model)


def test_single_encoder_state_context_is_depth_independent():
    # with one encoder state every attention level returns that state, so
    # models differing only in depth produce identical logits
    shallow = _model(depth=1, seed=4)
    deep = _model(depth=3, seed=4)
    for name, var in shallow.parameters().items():
        if name != "ham_c":
            deep.parameters()[name].value[...] = var.value
    src = np.array([[6]])
    enc_a, h_a = encode_batch(src, shallow)
    enc_b, h_b = encode_batch(src, deep)
    logits_a, _ = decode_step_batch(h_a, enc_a, np.array([BOS]), shallow)
    logits_b, _ = decode_step_batch(h_b, enc_b, np.array([BOS]), deep)
    np.testing.assert_allclose(logits_a.value, logits_b.value, atol=1e-13)


def test_depth_one_connector_matches_manual_vanilla_attention():
    model = _model(depth=1, seed=5, bidirectional=False)
    src = np.array([3, 4, 5, 6])
    enc, h = encode_batch(src.reshape(1, -1), model)
    logits, h2 = decode_step_batch(h, enc, np.array([BOS]), model)

    # independent numpy re-derivation of one decoder step
    states = enc.value[0]
    hv = h.value[0]
    scores = states @ hv / np.sqrt(model.config.hidden)
    p = np.exp(scores - scores.max())
    p /= p.sum()
    context = p @ states
    x = np.concatenate([model.embedding.value[BOS], context])
    cell = model.dec

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    z = sig(x @ cell.wz.value + hv @ cell.uz.value + cell.bz.value)
    r = sig(x @ cell.wr.value + hv @ cell.ur.value + cell.br.value)
    hc = np.tanh(x @ cell.wh.value + (r * hv) @ cell.uh.value + cell.bh.value)
    h_new = (1 - z) * hv + z * hc
    np.testing.assert_allclose(h2.value[0], h_new, atol=1e-12)
    np.testing.assert_allclose(logits.value[0], h_new @ model.w_out.value, atol=1e-12)


def test_decode_step_single_example_form():
    # one example is a batch of 1, as in generate
    model = _model(seed=6)
    enc, h = encode_batch(np.array([[3, 4]]), model)
    logits, h_new = decode_step_batch(h, enc, np.array([BOS]), model)
    assert logits.value.shape == (1, 8)
    assert h_new.value.shape == (1, 4)
    with pytest.raises(DimensionError):
        decode_step_batch(np.zeros((2, 4)), enc, np.array([BOS, BOS]), model)


def test_decode_step_gradients():
    model = _model(vocab=6, hidden=3, depth=2, seed=7)
    src = np.array([[3, 4]])
    r = Variable(np.random.default_rng(7).uniform(-1, 1, (1, 6)))

    def forward():
        enc, h = encode_batch(src, model)
        logits, _ = decode_step_batch(h, enc, np.array([4]), model)
        return ad.sum_all(ad.mul(logits, r))

    res = check_gradients(forward, model.parameters().values())
    assert res.max_rel_error < 1e-5


def test_sequence_loss_positive_and_finite():
    model = _model(seed=8)
    src = np.array([[3, 4, 5], [6, 7, 3]])
    tgt = np.array([[3, 4, 5], [6, 7, 3]])
    loss = sequence_loss(model, src, tgt)
    assert loss.value.shape == ()
    assert 0.0 < float(loss.value) < 50.0


def test_generate_eos_forcing_model_returns_empty():
    # w_out affects logits but not the state dynamics, so capture the first
    # decoder state and point every logit column away from it except EOS
    model = _model(seed=9)
    src = np.array([3, 4])
    enc, h = encode_batch(src.reshape(1, -1), model)
    _, h1 = decode_step_batch(h, enc, np.array([BOS]), model)
    direction = h1.value[0]
    assert np.linalg.norm(direction) > 0
    model.w_out.value[...] = -direction[:, None]
    model.w_out.value[:, EOS] = direction
    assert generate(src, model, max_len=8) == []


def test_generate_tie_breaks_to_smallest_id_and_truncates():
    model = _model(seed=10)
    for var in model.parameters().values():
        var.value[...] = 0.0
    # all logits equal: argmax returns PAD=0 forever; max_len bounds the output
    out = generate(np.array([3]), model, max_len=5)
    assert out == [0, 0, 0, 0, 0]
    with pytest.raises(DomainError):
        generate(np.array([3]), model, max_len=0)


def test_generate_deterministic():
    model = _model(seed=11)
    src = np.array([3, 5, 7])
    assert generate(src, model, max_len=6) == generate(src, model, max_len=6)


@pytest.mark.parametrize("depth", [1, 5])
def test_sequence_loss_tape_length_is_depth_independent(depth):
    # one op for the bidirectional encoder (with its gather of all 6 source
    # tokens), one op for all 7 decoder steps (gather, connector, cell and
    # output projection) and the cross-entropy
    model = _model(vocab=8, hidden=4, depth=depth, seed=14)
    batch = np.random.default_rng(14).integers(3, 8, (3, 6))
    with ad.Tape() as tape:
        sequence_loss(model, batch, batch)
    assert len(tape.entries) == 3


def test_token_ids_must_be_integers():
    # a float id used to be cast, so 3.7 trained as id 3
    model = _model()
    for bad in ([[3.7, 4]], [[3.0, 4.0]], [[True, False]]):
        with pytest.raises(DomainError, match="integers"):
            sequence_loss(model, bad, [[3, 4]])
        with pytest.raises(DomainError, match="integers"):
            sequence_loss(model, [[3, 4]], bad)
        with pytest.raises(DomainError, match="integers"):
            encode_batch(bad, model)
        with pytest.raises(DomainError, match="integers"):
            generate(bad[0], model)
    # an empty batch is an empty matrix, not a reduction error
    with pytest.raises(DomainError, match="non-empty"):
        sequence_loss(model, np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int))
    # narrower integer dtypes are ids like any other
    src = np.array([[3, 4], [5, 3]])
    narrow = sequence_loss(model, src.astype(np.uint8), src.astype(np.int32))
    assert narrow.value == sequence_loss(model, src, src).value


def test_float_ids_are_refused_not_truncated():
    # each used to cast its ids to int64, so 3.7 read as id 3
    model = _model()
    enc, h = encode_batch([[3, 4]], model)
    table = Variable(np.eye(3))
    for call in (
        lambda: decode_step_batch(h, enc, np.array([3.7]), model),
        lambda: ad.gather_rows(table, np.array([1.7])),
        lambda: ad.cross_entropy_logits(Variable(np.zeros((1, 3))), [2.9]),
        lambda: ad.gather_rows(table, [True]),
    ):
        with pytest.raises(DomainError, match="integers"):
            call()
    # an empty id list holds no id and stays legal
    assert ad.gather_rows(table, []).value.shape == (0, 3)


def test_generate_rejects_a_source_that_is_not_one_sequence():
    # a 2-D source used to be flattened and decoded as [3, 4, 5, 6]
    model = _model()
    for bad in ([[3, 4], [5, 6]], 3, []):
        with pytest.raises(DomainError, match="id matrix"):
            generate(bad, model)


def _per_step_sequence_loss(model, src, tgt):
    # the per-step chain sequence_loss recorded before its encoder and decoder
    # became one tape entry each: gathers, gru_step, ad.add, ad.stack,
    # decode_step_batch, ad.concat and the cross-entropy
    b, n = src.shape
    h0 = Variable(np.zeros((b, model.config.hidden)))
    embs = [ad.gather_rows(model.embedding, src[:, t]) for t in range(n)]
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
    enc, h = ad.stack(states, axis=1), states[-1]
    inputs = np.concatenate([np.full((b, 1), BOS), tgt], axis=1)
    targets = np.concatenate([tgt, np.full((b, 1), EOS)], axis=1)
    step_logits = []
    for t in range(inputs.shape[1]):
        logits, h = decode_step_batch(h, enc, inputs[:, t], model)
        step_logits.append(logits)
    return ad.cross_entropy_logits(ad.concat(step_logits, axis=0), targets.T.ravel())


def _loss_and_grads(loss_fn, model, src, tgt):
    with ad.Tape() as tape:
        loss = loss_fn(model, src, tgt)
    tape.backward(loss)
    return loss.value, {name: var.grad.copy() for name, var in model.parameters().items()}


def _assert_sequence_loss_matches_chain(depth, bidirectional, batch, src_len, tgt_len, hidden):
    """``sequence_loss``'s loss and every parameter gradient equal the per-step
    chain's bit for bit."""
    vocab = 11
    model = _model(vocab, hidden, depth, bidirectional, seed=20 + depth)
    model.var_c.value[...] = np.linspace(-1.0, 1.0, depth)
    rng = np.random.default_rng(batch)
    src = rng.integers(0, vocab, (batch, src_len))
    tgt = rng.integers(0, vocab, (batch, tgt_len))
    loss, grads = _loss_and_grads(sequence_loss, model, src, tgt)
    ref_loss, ref_grads = _loss_and_grads(_per_step_sequence_loss, model, src, tgt)
    np.testing.assert_array_equal(loss, ref_loss)
    for name, grad in ref_grads.items():
        np.testing.assert_array_equal(grads[name], grad, err_msg=name)


@pytest.mark.parametrize(
    "depth, bidirectional, batch, src_len, tgt_len, hidden",
    [
        (1, True, 1, 12, 12, 5),
        (1, False, 32, 6, 6, 16),
        (2, True, 3, 4, 7, 3),
        (2, False, 1, 12, 2, 7),
        (5, True, 7, 5, 12, 1),
        (5, False, 64, 3, 5, 4),
        # the depth-5 benchmark cell's shapes: BLAS picks its kernel by shape
        (5, True, 32, 6, 6, 16),
    ],
)
def test_sequence_loss_is_bit_identical_to_per_step_chain(
    depth, bidirectional, batch, src_len, tgt_len, hidden
):
    _assert_sequence_loss_matches_chain(depth, bidirectional, batch, src_len, tgt_len, hidden)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    depth=st.integers(1, 6),
    bidirectional=st.booleans(),
    batch=st.integers(1, 9),
    src_len=st.integers(1, 8),
    tgt_len=st.integers(1, 8),
    hidden=st.integers(1, 9),
)
def test_sequence_loss_is_bit_identical_to_per_step_chain_at_drawn_shapes(
    depth, bidirectional, batch, src_len, tgt_len, hidden
):
    _assert_sequence_loss_matches_chain(depth, bidirectional, batch, src_len, tgt_len, hidden)


@pytest.mark.parametrize("bidirectional", [True, False])
@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("hidden", [1, 3, 16])
def test_stacked_sequence_loss_is_bit_identical_per_set(hidden, depth, bidirectional):
    vocab = 9
    rng = np.random.default_rng(hidden * 10 + depth)
    for batch, sets in ((1, 1), (2, 5), (32, 3), (1, 7), (32, 1)):
        model = _model(vocab, hidden, depth, bidirectional, seed=batch)
        src = rng.integers(0, vocab, (batch, 4))
        tgt = rng.integers(0, vocab, (batch, 3))
        stacks = _stack_values(model.parameters().values(), rng, sets)
        losses = sequence_loss(model, src, tgt).value
        assert losses.shape == (sets,)
        for r in range(sets):
            for var, stack in zip(model.parameters().values(), stacks):
                var.value = stack[r].copy()
            np.testing.assert_array_equal(losses[r], sequence_loss(model, src, tgt).value)


def test_stacked_parameters_are_forward_only():
    model = _model(seed=3)
    src = np.array([[3, 4, 5]])
    _stack_values(model.parameters().values(), np.random.default_rng(3), 2)
    with ad.Tape():
        with pytest.raises(DimensionError, match="forward-only"):
            sequence_loss(model, src, src)
        with pytest.raises(DimensionError, match="forward-only"):
            ad.cross_entropy_logits(Variable(np.zeros((2, 3, 4))), [0, 1, 2])
        with pytest.raises(DimensionError, match="forward-only"):
            gru_step(np.zeros((2, 1, 4)), np.zeros((2, 1, 4)), model.enc_fwd)
    for one_set in (lambda: encode_batch(src, model), lambda: generate(src[0], model)):
        with pytest.raises(DimensionError, match="one parameter set"):
            one_set()
    model.w_out.value = model.w_out.value[0]
    with pytest.raises(DimensionError, match="one leading set axis"):
        sequence_loss(model, src, src)
    # a stack that the embedding does not carry is refused too, not broadcast
    for name in ("w_out", "ham_c"):
        one_set = _model(seed=3)
        var = one_set.parameters()[name]
        var.value = np.stack([var.value] * 2)
        with pytest.raises(DimensionError, match=f"one leading set axis; \\['{name}'"):
            sequence_loss(one_set, src, src)
    # and so is one value left unstacked when its first size happens to be R
    model = _model(hidden=4, seed=3)
    _stack_values(model.parameters().values(), np.random.default_rng(3), 4)
    model.w_out.value = model.w_out.value[0]
    with pytest.raises(DimensionError, match="\\['w_out'\\]"):
        sequence_loss(model, src, src)


def _per_array_adam_state(shapes):
    return {"t": 0, "m": [np.zeros(shape) for shape in shapes],
            "v": [np.zeros(shape) for shape in shapes]}


def _per_array_adam_step(params, grad, state, config):
    # adam as it stood with one moment array per parameter; the flat vectors
    # are cut into per-parameter arrays by the moments' shapes
    state["t"] += 1
    t = state["t"]
    b1, b2 = training.ADAM_BETAS
    start = 0
    for m, v in zip(state["m"], state["v"]):
        p = params[start : start + m.size].reshape(m.shape)
        g = grad[start : start + m.size].reshape(m.shape)
        start += m.size
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
    assert start == params.size == grad.size
    return params, state


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    sizes=st.lists(st.integers(0, 20), max_size=4),
    steps=st.integers(1, 4),
    lr=st.sampled_from([0.0, 1e-3, 0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_optimizers_match_per_array_reference(sizes, steps, lr, seed):
    # the flat adam_step and sgd_step against one array (and one pair of
    # moments) per parameter, bit for bit, over a few steps of random gradients
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) for n in sizes]
    grads = [[rng.normal(size=n) * 10.0 ** rng.uniform(-6, 4) for n in sizes] for _ in range(steps)]
    config = training.TrainConfig(learning_rate=lr)
    flat_start = np.concatenate([np.empty(0), *arrays])
    adam, sgd = flat_start.copy(), flat_start.copy()
    state = training.init_adam_state(adam)
    ref_adam, ref_sgd = flat_start.copy(), [a.copy() for a in arrays]
    ref_state = _per_array_adam_state([a.shape for a in arrays])
    for step_grads in grads:
        grad = np.concatenate([np.empty(0), *step_grads])
        assert training.adam_step(adam, grad, state, config)[0] is adam
        assert training.sgd_step(sgd, grad, None, config)[0] is sgd
        _per_array_adam_step(ref_adam, grad, ref_state, config)
        for p, g in zip(ref_sgd, step_grads):
            p -= lr * g
    assert state["t"] == ref_state["t"] == steps
    np.testing.assert_array_equal(adam, ref_adam)
    np.testing.assert_array_equal(state["m"], np.concatenate([np.empty(0), *ref_state["m"]]))
    np.testing.assert_array_equal(state["v"], np.concatenate([np.empty(0), *ref_state["v"]]))
    np.testing.assert_array_equal(sgd, np.concatenate([np.empty(0), *ref_sgd]))


@pytest.mark.parametrize("depth", [1, 5])
def test_training_is_bit_identical_to_per_step_chain(depth, monkeypatch):
    corpus = gen_task("copy", 24, 4, 5, seed=depth)
    config = training.TrainConfig(learning_rate=0.05, epochs=2, batch_size=5, seed=depth)
    fused = _model(corpus.vocab_size, 5, depth, seed=depth)
    _, losses = training.train(fused, corpus, config)
    chain = _model(corpus.vocab_size, 5, depth, seed=depth)
    shapes = [var.value.shape for var in chain.parameters().values()]
    monkeypatch.setattr(training, "sequence_loss", _per_step_sequence_loss)
    monkeypatch.setattr(training, "init_adam_state", lambda params: _per_array_adam_state(shapes))
    monkeypatch.setattr(training, "adam_step", _per_array_adam_step)
    _, ref_losses = training.train(chain, corpus, config)
    assert losses == ref_losses
    for name, var in chain.parameters().items():
        np.testing.assert_array_equal(fused.parameters()[name].value, var.value, err_msg=name)


def test_gru_step_is_bit_identical_to_per_gate_cell():
    # the cell as it stood with one product per gate
    rng = np.random.default_rng(16)
    cell = GRUParams(rng, 5, 3)
    x = Variable(rng.uniform(-1, 1, (4, 5)))
    h = Variable(rng.uniform(-1, 1, (4, 3)))
    go = rng.uniform(-1, 1, (4, 3))
    with ad.Tape() as tape:
        out = gru_step(x, h, cell)
        loss = ad.sum_all(ad.mul(out, Variable(go)))
    tape.backward(loss)

    p = {name: var.value for name, var in cell.variables().items()}
    xv, hv = x.value, h.value
    z = sigmoid(xv @ p["wz"] + hv @ p["uz"] + p["bz"])
    r = sigmoid(xv @ p["wr"] + hv @ p["ur"] + p["br"])
    s = r * hv
    hc = np.tanh(xv @ p["wh"] + s @ p["uh"] + p["bh"])
    np.testing.assert_array_equal(out.value, (1.0 - z) * hv + z * hc)
    d_h = go * (1.0 - z)
    d_ac = tanh_vjp(hc, go * z)
    d_x = d_ac @ p["wh"].T
    d_s = d_ac @ p["uh"].T
    d_h += d_s * r
    d_ar = sigmoid_vjp(r, d_s * hv)
    d_x += d_ar @ p["wr"].T
    d_h += d_ar @ p["ur"].T
    d_az = sigmoid_vjp(z, go * (hc - hv))
    d_x += d_az @ p["wz"].T
    d_h += d_az @ p["uz"].T
    np.testing.assert_array_equal(x.grad, d_x)
    np.testing.assert_array_equal(h.grad, d_h)
    for gate, d_a in (("z", d_az), ("r", d_ar), ("h", d_ac)):
        np.testing.assert_array_equal(getattr(cell, "w" + gate).grad, xv.T @ d_a)
        np.testing.assert_array_equal(getattr(cell, "u" + gate).grad, (s if gate == "h" else hv).T @ d_a)
        np.testing.assert_array_equal(getattr(cell, "b" + gate).grad, d_a.sum(axis=0))


def test_end_to_end_batch_gradient():
    model = _model(vocab=6, hidden=3, depth=2, seed=12)
    src = np.array([[3, 4], [5, 3]])
    tgt = np.array([[4, 3], [5, 5]])
    res = check_gradients(lambda: sequence_loss(model, src, tgt), model.parameters().values())
    assert res.max_rel_error < 1e-4


def test_config_caps_hidden_before_allocating():
    ModelConfig(8, hidden=MAX_HIDDEN)
    for hidden in (0, MAX_HIDDEN + 1, 99999999999):
        with pytest.raises(DomainError, match="hidden"):
            ModelConfig(8, hidden=hidden)


def test_config_checks_field_types():
    # a bool used to pass as the int 1 (a depth-1 model) and a float to reach
    # numpy; a numpy int could not be written to a checkpoint
    for kwargs, name in (
        ({"ham_depth": True}, "ham_depth"),
        ({"hidden": 2.5}, "hidden"),
        ({"hidden": np.int64(4)}, "hidden"),
        ({"bidirectional": 1}, "bidirectional"),
        ({"vocab_size": 8.0}, "vocab_size"),
    ):
        with pytest.raises(DomainError, match=name):
            ModelConfig(**{"vocab_size": 8, **kwargs})


def test_config_caps_vocab_and_depth_before_allocating():
    ModelConfig(MAX_VOCAB, hidden=4, ham_depth=MAX_DEPTH)
    for vocab in (3, MAX_VOCAB + 1, 10**30):
        with pytest.raises(DomainError, match="vocab"):
            ModelConfig(vocab)
    for depth in (0, MAX_DEPTH + 1, 10**30):
        with pytest.raises(DomainError, match="depth"):
            ModelConfig(8, ham_depth=depth)


def test_checkpoint_roundtrip(tmp_path):
    model = _model(seed=13)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for name, var in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name].value, var.value)
    # loaded model behaves identically
    src = np.array([3, 4, 5])
    assert generate(src, loaded, 8) == generate(src, model, 8)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(DomainError):
        load_checkpoint(path)
    path.write_text('{"format": ')
    with pytest.raises(DomainError, match=re.escape(f"{path}: line 1 column 12: malformed JSON")):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_config_and_nonfinite_tensors(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_model(seed=15), path)
    good = json.loads(path.read_text())

    def corrupt(edit):
        payload = json.loads(json.dumps(good))
        edit(payload)
        path.write_text(json.dumps(payload))

    cases = [
        ("extra_key", lambda p: p["config"].update(extra_key=1)),
        ("hidden", lambda p: p["config"].pop("hidden")),
        ("bidirectional", lambda p: p["config"].update(bidirectional=1)),
        ("w_out", lambda p: p["params"]["w_out"]["data"].__setitem__(0, float("nan"))),
        ("embedding", lambda p: p["params"]["embedding"]["data"].__setitem__(3, float("inf"))),
        # equal to 1 in Python, but not the integer version
        ("version True", lambda p: p.update(version=True)),
        ("version 1.0", lambda p: p.update(version=1.0)),
    ]
    for name, edit in cases:
        corrupt(edit)
        with pytest.raises(DomainError, match=name):
            load_checkpoint(path)


def test_checkpoint_rejects_malformed_params(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_model(seed=16), path)
    good = json.loads(path.read_text())

    def write(edit):
        payload = json.loads(json.dumps(good))
        edit(payload)
        path.write_text(json.dumps(payload))

    cases = [
        (DomainError, "params", lambda p: p.pop("params")),
        (DomainError, "w_out", lambda p: p["params"]["w_out"].pop("data")),
        (DomainError, "dec.bz", lambda p: p["params"].update({"dec.bz": [0.0] * 4})),
        (DimensionError, "embedding", lambda p: p["params"]["embedding"].update(shape=[8, 5])),
        (DimensionError, "enc_fwd.uz", lambda p: p["params"]["enc_fwd.uz"]["data"].pop()),
        (DomainError, "ham_c", lambda p: p["params"]["ham_c"].update(data="0.0 0.0")),
        (DomainError, "enc_bwd.wr", lambda p: p["params"]["enc_bwd.wr"].update(data=[[0.0] * 4] * 4)),
        (DomainError, "dec.uh", lambda p: p["params"]["dec.uh"]["data"].__setitem__(1, "0.5")),
        (DomainError, "dec.bh", lambda p: p["params"]["dec.bh"]["data"].__setitem__(0, 10**400)),
    ]
    for error, name, edit in cases:
        write(edit)
        with pytest.raises(error, match=name):
            load_checkpoint(path)
    path.write_text(json.dumps([good]))
    with pytest.raises(DomainError, match="hamattn-checkpoint"):
        load_checkpoint(path)


def _mutations():
    """One edit of a checkpoint's JSON tree: a path into it, then an action there."""
    values = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 40),
        st.sampled_from([10**400, -(10**400), 2**63]),
        st.floats(),
        st.text(max_size=3),
        st.lists(st.floats(-1, 1), max_size=4),
        st.dictionaries(st.sampled_from(["shape", "data", "x"]), st.integers(0, 4), max_size=2),
        st.just(RAW),
    )
    # most edits land under params, where the tensors are
    start = st.sampled_from([[], ["config"], ["params"], ["params"], ["params"]])
    steps = st.lists(st.integers(0, 2**16), min_size=1, max_size=3)
    return st.tuples(
        st.tuples(start, steps).map(lambda t: t[0] + t[1]),
        st.sampled_from(["replace", "delete", "add", "truncate", "append"]),
        values,
    )


def _mutate(node, path, action, value):
    """Walk ``path`` from the payload object and apply the edit there.

    Integer steps pick an entry modulo the container's size, string steps a
    dict key that is still there; the first step always finds a top-level key.
    """
    parent, key = None, None
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        if isinstance(step, str):
            if not isinstance(node, dict) or step not in node:
                continue
            parent, key = node, step
        else:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, keys[step % len(keys)]
        node = node[key]
    if action == "delete" and isinstance(parent, dict):
        del parent[key]
    elif action == "add" and isinstance(parent, dict):
        parent[f"extra_{len(path)}"] = value
    elif action == "truncate" and isinstance(node, list):
        del node[len(node) // 2:]
    elif action == "append" and isinstance(node, list):
        node.append(value)
    else:
        parent[key] = value


@functools.cache
def _fuzz_checkpoint() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(_model(vocab=5, hidden=2, depth=2, seed=17), path)
        return path.read_text()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(_mutations(), min_size=1, max_size=3), fragment=st.sampled_from(JSON_FRAGMENTS))
def test_fuzzed_checkpoint_raises_only_domain_errors(edits, fragment):
    """Any edit of a checkpoint's keys, types, shapes or data, JSON past the
    parser's limits included, loads or names the fault."""
    payload = json.loads(_fuzz_checkpoint())
    for path, action, value in edits:
        _mutate(payload, path, action, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload).replace(json.dumps(RAW), fragment))
        try:
            load_checkpoint(path)
        except (DomainError, DimensionError):
            pass
