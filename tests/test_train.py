import gc
import hashlib
import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from hamattn import autodiff as ad
from hamattn.autodiff import Tape
from hamattn.data import BOS, EOS, gen_task
from hamattn.errors import DomainError, TrainingDiverged
from hamattn.model import ModelConfig, Seq2SeqModel, encode_batch, generate, gru_step, sequence_loss
from hamattn.train import (
    MAX_GRAD_NORM,
    NULL_LEVEL_LOGIT,
    OPTIMIZERS,
    SWEEP_CSV_HEADER,
    TrainConfig,
    adam_step,
    cell_seed,
    clip_gradients,
    depth_sweep,
    init_adam_state,
    sgd_step,
    sweep_plan,
    train,
    write_sweep_csv,
)

# the package re-exports the train() function under the module's name
training_module = importlib.import_module("hamattn.train")
GOLDEN = Path(__file__).parent / "golden"


def test_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(DomainError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError, match="learning rate"):
            TrainConfig(learning_rate=bad)
    with pytest.raises(DomainError, match="seed"):
        TrainConfig(seed=-1)
    # a string or bool rate used to fail in math.isfinite or train as 1.0
    for kwargs, name in (
        ({"learning_rate": "0.1"}, "learning rate"),
        ({"learning_rate": True}, "learning rate"),
        ({"optimizer": np.array("adam")}, "optimizer"),
    ):
        with pytest.raises(DomainError, match=name):
            TrainConfig(**kwargs)
    # an int stands for a rate, as in a JSON config
    assert TrainConfig(learning_rate=1, optimizer="sgd").learning_rate == 1
    # only the field at fault is named
    with pytest.raises(DomainError, match=r"^batch_size must be an integer >= 1, got 0$"):
        TrainConfig(batch_size=0)


def test_sgd_on_half_square():
    # f(x) = x^2/2, grad = x; lr 0.1 from x0 = 1 lands on 0.9
    x = np.array([1.0])
    sgd_step(x, np.array([1.0]), None, TrainConfig(learning_rate=0.1, optimizer="sgd"))
    assert float(x[0]) == pytest.approx(0.9, abs=1e-15)


def test_zero_gradient_leaves_parameters_unchanged():
    cfg = TrainConfig(learning_rate=0.5)
    x = np.array([1.0, -2.0])
    sgd_step(x, np.zeros(2), None, TrainConfig(learning_rate=0.5, optimizer="sgd"))
    np.testing.assert_array_equal(x, [1.0, -2.0])
    adam_step(x, np.zeros(2), init_adam_state(x), cfg)
    np.testing.assert_array_equal(x, [1.0, -2.0])


@pytest.mark.parametrize("g", [1e-6, 0.3, 7.0, 1e4])
def test_adam_first_step_magnitude_is_about_lr(g):
    # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
    cfg = TrainConfig(learning_rate=0.01)
    x = np.zeros(1)
    adam_step(x, np.array([g]), init_adam_state(x), cfg)
    assert abs(float(x[0])) == pytest.approx(0.01, rel=1e-2)
    assert float(x[0]) < 0  # moves against the gradient


def test_clip_gradients():
    grads = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]
    total = clip_gradients(grads, 2.5)
    assert total == pytest.approx(5.0)
    clipped = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert clipped == pytest.approx(2.5, abs=1e-12)
    small = [np.array([0.1])]
    clip_gradients(small, 5.0)
    np.testing.assert_array_equal(small[0], [0.1])


def _tiny_setup(depth=2, seed=0, pairs=6):
    corpus = gen_task("copy", pairs, 3, 5, seed=seed)
    model = Seq2SeqModel(
        ModelConfig(corpus.vocab_size, 6, depth, True), np.random.default_rng(seed)
    )
    return corpus, model


def test_zero_learning_rate_keeps_loss_constant():
    corpus, model = _tiny_setup()
    cfg = TrainConfig(learning_rate=0.0, epochs=4, batch_size=3, seed=1)
    _, losses = train(model, corpus, cfg)
    # parameters never move; epoch means differ only by the float summation
    # order of the reshuffled batches
    np.testing.assert_allclose(losses, losses[0], rtol=1e-12)


def test_identical_seeds_give_bitwise_identical_trajectories():
    runs = []
    for _ in range(2):
        corpus, model = _tiny_setup(seed=5)
        cfg = TrainConfig(epochs=5, batch_size=3, seed=9)
        _, losses = train(model, corpus, cfg)
        runs.append((losses, {k: v.value.copy() for k, v in model.parameters().items()}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])


def _bench_cell_digest(monkeypatch, max_grad_norm: float) -> str:
    """sha256 of the epoch losses, every step's gradient norm before clipping and the
    final parameters of 2 epochs at the benchmark's depth-5 cell shapes (512 copy pairs
    of length 6, hidden 16, bidirectional, batch 32, adam at 1e-2, seed 0), with
    ``max_grad_norm`` in place of MAX_GRAD_NORM."""
    norms = []
    clip = training_module.clip_gradients

    def recording_clip(grads, max_norm):
        norms.append(clip(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(training_module, "clip_gradients", recording_clip)
    monkeypatch.setattr(training_module, "MAX_GRAD_NORM", max_grad_norm)
    corpus = gen_task("copy", 512, 6, 8, seed=0)
    model = Seq2SeqModel(ModelConfig(corpus.vocab_size, 16, 5, True), np.random.default_rng(0))
    _, losses = train(model, corpus, TrainConfig(learning_rate=1e-2, optimizer="adam", epochs=2, batch_size=32))
    digest = hashlib.sha256(json.dumps([losses, norms]).encode())
    for name, var in model.parameters().items():
        digest.update(name.encode())
        digest.update(var.value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("max_grad_norm", [MAX_GRAD_NORM, 0.25])
def test_bench_cell_training_matches_committed_digest(monkeypatch, max_grad_norm):
    """Two epochs at the benchmark's depth-5 shapes, bit for bit. This pins
    ``clip_gradients`` and adam, which the per-step-chain oracle shares with the
    fused path and so cannot check. The norms stay under MAX_GRAD_NORM there
    (at most 0.63), so a second run at 0.25 makes clipping fire. Regenerate
    the file with ``_bench_cell_digest`` only for a deliberate numeric change,
    and record the move in CHANGES.md."""
    pinned = dict(line.split()[::-1] for line in (GOLDEN / "train_bench.sha256").read_text().splitlines())
    assert _bench_cell_digest(monkeypatch, max_grad_norm) == pinned[f"max_grad_norm={max_grad_norm}"]


def test_training_leaves_no_tape_to_the_cyclic_collector():
    # a tape kept alive by its own reference cycle would hold a step's saved
    # arrays until the collector runs, so peak memory would follow its timing
    corpus, model = _tiny_setup()
    gc.collect()
    gc.disable()
    try:
        train(model, corpus, TrainConfig(epochs=2, batch_size=3, seed=2))
        tapes = [obj for obj in gc.get_objects() if isinstance(obj, Tape)]
    finally:
        gc.enable()
    assert tapes == []


def test_losses_stay_positive():
    corpus, model = _tiny_setup()
    _, losses = train(model, corpus, TrainConfig(epochs=6, batch_size=3, seed=2))
    assert all(l > 0.0 for l in losses)


def test_non_finite_loss_aborts_with_location():
    corpus, model = _tiny_setup()
    model.w_out.value[...] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
        train(model, corpus, TrainConfig(epochs=1, batch_size=3, seed=0))


def test_train_rejects_empty_corpus():
    corpus, model = _tiny_setup()
    corpus.pairs.clear()
    with pytest.raises(DomainError):
        train(model, corpus, TrainConfig(epochs=1))


def test_single_pair_memorization_and_reproduction():
    # calibrated once against the pinned protocol: 500 epochs, adam lr 1e-2, d=2
    corpus = gen_task("copy", 1, 4, 8, seed=3)
    model = Seq2SeqModel(
        ModelConfig(corpus.vocab_size, 16, 2, True), np.random.default_rng(7)
    )
    cfg = TrainConfig(epochs=500, batch_size=1, seed=7)
    model, losses = train(model, corpus, cfg)
    assert losses[-1] < 0.05
    src, tgt = corpus.pairs[0]
    assert generate(src, model, max_len=10) == tgt


def test_depth_sweep_single_depth_trivially_monotone():
    corpus = gen_task("copy", 8, 3, 5, seed=0)
    eval_corpus = gen_task("copy", 4, 3, 5, seed=1)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, restarts=2)
    records, summary = depth_sweep([(corpus, eval_corpus, sweep_plan(corpus.vocab_size, [1], cfg, hidden=5))])[0]
    assert summary["monotone_within_tolerance"] is True
    assert len(records) == 2
    assert all(r.final_loss > 0 for r in records)
    assert [r.seed for r in records] == [cell_seed(0, 1, r) for r in range(2)]

    # paired: restart r of every depth trains from cell_seed(root, 1, r), and
    # the depth-1 records are those of the depth-1 sweep alone
    paired, _ = depth_sweep([(corpus, eval_corpus, sweep_plan(corpus.vocab_size, [1, 2], cfg, hidden=5))])[0]
    for restart in range(2):
        cells = [r for r in paired if r.seed == cell_seed(0, 1, restart)]
        assert [r.depth for r in cells] == [1, 2]
    d1 = [(r.seed, r.final_loss, r.metric) for r in paired if r.depth == 1]
    assert d1 == [(r.seed, r.final_loss, r.metric) for r in records]


def test_depth_sweep_repeated_depth_is_deterministic():
    corpus = gen_task("copy", 8, 3, 5, seed=0)
    eval_corpus = gen_task("copy", 4, 3, 5, seed=1)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, restarts=1)
    plan = sweep_plan(corpus.vocab_size, [2, 2], cfg, hidden=5)
    records, summary = depth_sweep([(corpus, eval_corpus, plan)])[0]
    assert records[0].final_loss == records[1].final_loss
    assert records[0].metric == records[1].metric


def test_null_sweep_tracks_depth_one():
    corpus = gen_task("copy", 8, 3, 5, seed=0)
    eval_corpus = gen_task("copy", 4, 3, 5, seed=1)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=0, restarts=2)
    plan = sweep_plan(corpus.vocab_size, [1, 2, 5], cfg, hidden=5, null=True)
    records, _ = depth_sweep([(corpus, eval_corpus, plan)])[0]
    d1 = [r.final_loss for r in records if r.depth == 1]
    for depth in (2, 5):
        deeper = [r.final_loss for r in records if r.depth == depth]
        np.testing.assert_allclose(deeper, d1, rtol=1e-12)
    with pytest.raises(DomainError, match="starts at depth 1"):
        sweep_plan(corpus.vocab_size, [2, 5], cfg, null=True)


def test_one_cell_of_a_plan_reproduces_alone():
    # any cell, plain or null, trained on its own from its plan entry gives the sweep's bits
    corpus = gen_task("copy", 8, 3, 5, seed=0)
    eval_corpus = gen_task("copy", 4, 3, 5, seed=1)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=1, restarts=2)
    for null in (False, True):
        plan = sweep_plan(corpus.vocab_size, [1, 2], cfg, hidden=5, null=null)
        records, _ = depth_sweep([(corpus, eval_corpus, plan)])[0]
        cell, record = plan.cells[3], records[3]  # depth 2, restart 1
        assert (cell.model.ham_depth, cell.frozen) == (2, ("ham_c",) if null else ())
        model = Seq2SeqModel(cell.model, np.random.default_rng(cell.train.seed))
        if cell.frozen:
            model.var_c.value[1:] = NULL_LEVEL_LOGIT
        _, losses = train(model, corpus, cell.train, cell.frozen)
        assert (cell.train.seed, losses[-1]) == (record.seed, record.final_loss)


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(training_module.os, "sched_getaffinity", lambda pid: set(range(count)))


def _train_in_workers_only(monkeypatch, fail):
    """Patch ``train`` so that a depth-2 cell calls ``fail()`` and the others train;
    any cell trained in the calling process fails the test."""
    caller, real_train = os.getpid(), training_module.train

    def fake_train(model, corpus, config, frozen=()):
        assert os.getpid() != caller, "a cell trained in the calling process"
        if model.config.ham_depth == 2:
            fail()
        return real_train(model, corpus, config, frozen)

    monkeypatch.setattr(training_module, "train", fake_train)


@pytest.mark.parametrize("error", [TrainingDiverged("non-finite loss at epoch 1, batch 0"),
                                   DomainError("depths[1] must be an integer in [1, 64], got 0")])
def test_a_cell_error_in_a_worker_reaches_the_caller_and_no_worker_outlives_it(error, monkeypatch):
    def fail():
        raise error

    _usable_cpus(monkeypatch, 2)
    _train_in_workers_only(monkeypatch, fail)
    corpus = gen_task("copy", 8, 3, 5, seed=0)
    plan = sweep_plan(corpus.vocab_size, [1, 2], TrainConfig(epochs=1, batch_size=4, restarts=2), hidden=5)
    with pytest.raises(type(error)) as raised:
        depth_sweep([(corpus, corpus, plan)])
    assert (type(raised.value), str(raised.value)) == (type(error), str(error))
    assert multiprocessing.active_children() == []


def test_a_killed_worker_raises_instead_of_hanging(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    _train_in_workers_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    corpus = gen_task("copy", 8, 3, 5, seed=0)
    plan = sweep_plan(corpus.vocab_size, [1, 2], TrainConfig(epochs=1, batch_size=4), hidden=5)

    def hung(signum, frame):
        raise TimeoutError("the sweep still waits on a killed worker after 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            depth_sweep([(corpus, corpus, plan)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_one_usable_cpu_or_one_cell_starts_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was built")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    corpus = gen_task("copy", 8, 3, 5, seed=0)
    for cpus, depths, restarts in ((1, [1, 2, 5], 2), (4, [2], 1)):
        _usable_cpus(monkeypatch, cpus)
        cfg = TrainConfig(epochs=1, batch_size=4, restarts=restarts)
        records, _ = depth_sweep([(corpus, corpus, sweep_plan(corpus.vocab_size, depths, cfg, hidden=5))])[0]
        assert len(records) == len(depths) * restarts
    # no sweep at all maps over no job
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        assert depth_sweep([]) == []


def test_importing_the_package_leaves_out_multiprocessing():
    # depth_sweep imports them only when it starts workers: they take 15-30 ms to import
    code = "import sys, hamattn; print(sorted(m for m in ('multiprocessing', 'concurrent') if m in sys.modules))"
    src = str(Path(training_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_frozen_parameters_keep_their_values():
    corpus, model = _tiny_setup()
    c = model.var_c.value.copy()
    embedding = model.embedding.value.copy()
    train(model, corpus, TrainConfig(epochs=2, batch_size=3, seed=0), frozen=("ham_c",))
    np.testing.assert_array_equal(model.var_c.value, c)
    assert not np.array_equal(model.embedding.value, embedding)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_every_parameter_frozen_trains_an_empty_vector(optimizer):
    # nothing to lay end to end: both optimizers run on an empty vector
    corpus, model = _tiny_setup()
    before = {name: var.value.copy() for name, var in model.parameters().items()}
    cfg = TrainConfig(optimizer=optimizer, epochs=2, batch_size=3, seed=0)
    _, losses = train(model, corpus, cfg, frozen=tuple(model.parameters()))
    for name, var in model.parameters().items():
        np.testing.assert_array_equal(var.value, before[name], err_msg=name)
    # epoch means differ only by the summation order of the reshuffled batches
    np.testing.assert_allclose(losses, losses[0], rtol=1e-12)


def test_unknown_frozen_names_raise_before_the_first_batch(monkeypatch):
    corpus, model = _tiny_setup()
    batches = []
    monkeypatch.setattr(training_module, "sequence_loss", lambda *args: batches.append(args))
    with pytest.raises(DomainError, match=r"\['hamc', 'dec\.zz'\]"):
        train(model, corpus, TrainConfig(epochs=1, batch_size=3, seed=0), frozen=("hamc", "ham_c", "dec.zz"))
    assert batches == []


def test_depth_sweep_rejects_unsorted_depths():
    corpus = gen_task("copy", 4, 3, 5, seed=0)
    cfg = TrainConfig(epochs=1, restarts=1)
    with pytest.raises(DomainError):
        sweep_plan(corpus.vocab_size, [5, 1], cfg)
    with pytest.raises(DomainError):
        sweep_plan(corpus.vocab_size, [], cfg)


def test_depth_sweep_caps_depths_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(training_module, "train", no_training)
    corpus = gen_task("copy", 4, 3, 5, seed=0)
    with pytest.raises(DomainError, match="depths"):
        sweep_plan(corpus.vocab_size, [1, 10**30], TrainConfig(epochs=1, restarts=1))


def test_depth_sweep_refuses_a_train_corpus_of_another_vocab(monkeypatch):
    # a wider plan would train silently on different numbers, a narrower one fail mid-cell
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(training_module, "train", no_training)
    corpus = gen_task("copy", 4, 3, 5, seed=0)
    for vocab in (corpus.vocab_size - 1, corpus.vocab_size + 1):
        with pytest.raises(DomainError, match="vocab_size"):
            depth_sweep([(corpus, corpus, sweep_plan(vocab, [1], TrainConfig()))])


def test_depth_sweep_refuses_an_eval_corpus_of_another_vocab(monkeypatch):
    # a wider eval corpus would fail in generate only after the first cell has trained
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(training_module, "train", no_training)
    corpus = gen_task("copy", 4, 3, 5, seed=0)
    plan = sweep_plan(corpus.vocab_size, [1, 2], TrainConfig())
    for payload in (4, 6):
        eval_corpus = gen_task("copy", 4, 3, payload, seed=1)
        with pytest.raises(DomainError, match="vocab_size: the eval corpus"):
            depth_sweep([(corpus, eval_corpus, plan)])


def test_cell_seed_fanout_rule():
    assert cell_seed(3, 2, 4) == 3_002_004
    assert cell_seed(0, 10, 0) == 10_000


def test_sweep_csv_schema_and_determinism(tmp_path):
    from hamattn.train import SweepRecord

    records = [
        SweepRecord(1, 1000, 0.5, 0.25, 12.0),
        SweepRecord(2, 2000, 0.25, 0.5, 13.5),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(records, a)
    write_sweep_csv(records, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER == "depth,seed,final_loss,metric,wall_time_s"
    assert lines[1] == "1,1000,0.5,0.25,"


def test_onehot_frozen_ham_trains_like_multilevel_connector(monkeypatch):
    """Reduction at the training level.

    Model A: standard ham connector with c frozen one-hot on the deepest
    level. Model B: identical weights driven through an independent,
    test-local multi-level connector (last level only, no mixing). Both train
    through ``train`` with ``ham_c`` frozen; their per-step losses under the
    same optimizer and batches must agree up to the one-hot softmax tail.
    """
    depth = 3
    corpus = gen_task("copy", 12, 3, 5, seed=4)
    cfg = TrainConfig(epochs=12, batch_size=4, seed=11)

    def multilevel_loss(model, src, tgt):
        # mirrors sequence_loss but takes only the deepest attention level
        src = np.asarray(src)
        tgt = np.asarray(tgt)
        b = tgt.shape[0]
        enc, h = encode_batch(src, model)
        inv = 1.0 / np.sqrt(model.config.hidden)
        inputs = np.concatenate([np.full((b, 1), BOS, dtype=np.int64), tgt], axis=1)
        targets = np.concatenate([tgt, np.full((b, 1), EOS, dtype=np.int64)], axis=1)
        step_logits = []
        for t in range(inputs.shape[1]):
            cur = h
            for _ in range(depth):
                scores = ad.scale(ad.attend_scores(enc, cur), inv)
                cur = ad.attend_combine(enc, ad.softmax(scores))
            emb = ad.gather_rows(model.embedding, inputs[:, t])
            x = ad.concat([emb, cur], axis=1)
            h = gru_step(x, h, model.dec)
            step_logits.append(ad.matmul(h, model.w_out))
        return ad.cross_entropy_logits(ad.concat(step_logits, axis=0), targets.T.ravel())

    losses = {}
    for variant, loss_fn in (("ham_frozen", sequence_loss), ("multilevel", multilevel_loss)):
        model = Seq2SeqModel(
            ModelConfig(corpus.vocab_size, 6, depth, True), np.random.default_rng(11)
        )
        model.var_c.value[...] = 0.0
        model.var_c.value[depth - 1] = 40.0  # effectively one-hot
        track = losses[variant] = []

        def recording_loss(model, src, tgt, loss_fn=loss_fn, track=track):
            loss = loss_fn(model, src, tgt)
            track.append(float(loss.value))
            return loss

        monkeypatch.setattr(training_module, "sequence_loss", recording_loss)
        train(model, corpus, cfg, frozen=("ham_c",))
    assert len(losses["ham_frozen"]) == cfg.epochs * len(corpus) // cfg.batch_size
    np.testing.assert_allclose(losses["ham_frozen"], losses["multilevel"], atol=1e-6)
