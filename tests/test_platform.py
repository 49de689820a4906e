"""Platform canaries: the numpy/BLAS behaviours the bit-identity contract rests on.

Every golden digest, the sweep bytes and criterion 5's pinned numbers hold only
while these hold. A numpy or BLAS upgrade that breaks one fails many goldens at
once; these tests name the cause. Shapes are the pinned ones: batch 32, hidden
16, 5 stacked parameter sets, the copy task's 6 source tokens, and the
parameter shapes of the depth-5 benchmark cell.
"""

import numpy as np

from hamattn import data, model

R, B, H, T = 5, 32, 16, 6
TRAINING_GOLDENS = (
    "tests/golden/train_bench.sha256, train_checkpoint.sha256, gradcheck_bench.sha256, "
    "sweep_tiny.csv and criterion 5's pinned losses"
)


def _cell_d5_shapes():
    corpus = data.gen_task("copy", 512, 6, 8, 0)
    config = model.ModelConfig(corpus.vocab_size, H, 5, True)
    params = model.Seq2SeqModel(config, np.random.default_rng(0)).parameters()
    return [p.value.shape for p in params.values()]


def test_stacked_matmul_keeps_each_items_bits():
    rng = np.random.default_rng(0)
    hv, U = rng.standard_normal((R, B, H)), rng.standard_normal((R, 3, H, H))
    stacked = np.matmul(hv[:, None], U)  # the GRU's recurrent product over R parameter sets
    for r in range(R):
        for gate in range(3):
            assert np.array_equal(stacked[r, gate], hv[r] @ U[r, gate]), (
                "a stacked np.matmul no longer equals its per-item products: the fused GRU "
                "(model._gru_forward, _gru_backward) and the stacked finite differences lose the "
                f"per-step chain's bits, and with them {TRAINING_GOLDENS} "
                "(ROADMAP rule: a stacked np.matmul runs one BLAS call per item)"
            )


def _flat_squares():
    """Squared gradients of the depth-5 cell's parameters: each on its own, and laid end to end."""
    rng = np.random.default_rng(1)
    own = [rng.standard_normal(shape) ** 2 for shape in _cell_d5_shapes()]
    ends = np.cumsum([0] + [g.size for g in own])
    flat = np.concatenate([g.ravel() for g in own])
    return own, flat, ends


def test_reduce_over_a_slice_of_a_flat_buffer_keeps_the_arrays_bits():
    own, flat, ends = _flat_squares()
    for g, a, b in zip(own, ends, ends[1:]):
        assert np.add.reduce(flat[a:b].reshape(g.shape), axis=None) == np.add.reduce(g, axis=None), (
            "np.add.reduce over a slice of one flat buffer differs from the call over the array: "
            "train.clip_gradients' norm over the flat gradient vector's views moves, and clipping "
            f"fires on 397 of the pinned sweep's 48,000 steps, so {TRAINING_GOLDENS} move "
            "(ROADMAP rule: np.add.reduce over a contiguous slice of one flat buffer)"
        )


def test_reduceat_does_not_keep_the_per_array_bits():
    own, flat, ends = _flat_squares()
    per_array = np.array([np.add.reduce(g, axis=None) for g in own])
    assert not np.array_equal(np.add.reduceat(flat, ends[:-1]), per_array), (
        "np.add.reduceat now equals one np.add.reduce per parameter; the ROADMAP rule that keeps "
        "train.clip_gradients on per-parameter reduces (for "
        f"{TRAINING_GOLDENS}) may be relaxed, after a check against them"
    )


def test_einsum_and_matmul_scores_differ():
    rng = np.random.default_rng(2)
    keys, q = rng.uniform(-2, 2, (B, T, H)), rng.uniform(-2, 2, (B, H))
    einsum = np.einsum("...th,...h->...t", keys, q)  # attention.level_forward's scores
    matmul = np.matmul(keys, q[..., None])[..., 0]
    assert not np.array_equal(einsum, matmul), (
        "the einsum and matmul forms of the connector's scores now agree bit for bit: the "
        "connector's bits no longer pin the einsum form, so a switch to matmul would pass "
        f"unnoticed; re-check {TRAINING_GOLDENS}, verify_small.json and verify_bench.sha256 "
        "against each form (ROADMAP rule: einsum and matmul scores differ)"
    )
    assert np.max(np.abs(einsum - matmul)) < 1e-13
