import json
from dataclasses import asdict

import numpy as np

import hamattn
from hamattn.attention import MultiHeadParams, attention_levels, self_attention_levels
from hamattn.checks import MAX_GRADCHECK_INSTANCES, gradcheck_table, property_report, verify_report
from hamattn.data import MAX_PAIRS, MAX_SEQ_LEN, MAX_VOCAB, NUM_RESERVED, Corpus, check_corpus_size, gen_task
from hamattn.errors import DomainError
from hamattn.ham import MAX_DEPTH, MAX_REDUCTION_INSTANCES, MAX_TRIALS, norm_bound_suite, reduction_report
from hamattn.model import MAX_HIDDEN, ModelConfig, Seq2SeqModel, generate
from hamattn.train import MAX_EPOCHS, MAX_RESTARTS, TrainConfig, depth_sweep, sweep_plan


def test_every_public_name_resolves_once():
    assert len(hamattn.__all__) == len(set(hamattn.__all__))
    missing = [name for name in hamattn.__all__ if not hasattr(hamattn, name)]
    assert missing == []


Q, K = np.ones(2), np.eye(2)
CORPUS = gen_task("copy", 2, 2, 2, 0)
MODEL = Seq2SeqModel(ModelConfig(8, hidden=4, ham_depth=2), np.random.default_rng(0))

# (parameter the message names, lowest value, highest value or None, call with the value)
INTEGER_INPUTS = [
    ("reduction_instances", 1, MAX_REDUCTION_INSTANCES, lambda x: verify_report(reduction_instances=x)),
    ("instances", 1, MAX_GRADCHECK_INSTANCES, lambda x: gradcheck_table("tiny", 0, x)),
    ("epochs", 1, MAX_EPOCHS, lambda x: TrainConfig(epochs=x)),
    ("batch_size", 1, None, lambda x: TrainConfig(batch_size=x)),
    ("restarts", 1, MAX_RESTARTS, lambda x: TrainConfig(restarts=x)),
    ("seed", 0, None, lambda x: TrainConfig(seed=x)),
    ("depths", 1, MAX_DEPTH, lambda x: sweep_plan(8, [x], TrainConfig())),
    ("depth", 1, None, lambda x: attention_levels(Q, K, x)),
    ("depth", 1, None, lambda x: self_attention_levels(K, x)),
    ("d", 1, None, lambda x: MultiHeadParams.identity(x)),
    ("h", 1, None, lambda x: MultiHeadParams.identity(2, h=x)),
    ("vocab_size", NUM_RESERVED, MAX_VOCAB, lambda x: Corpus(vocab_size=x)),
    ("seq_len", 1, MAX_SEQ_LEN, lambda x: check_corpus_size(2, x)),
    ("pairs", 1, MAX_PAIRS, lambda x: check_corpus_size(x, 2)),
    ("payload_vocab", 2, MAX_VOCAB - NUM_RESERVED, lambda x: gen_task("copy", 4, 2, x, 0)),
    ("vocab_size", NUM_RESERVED + 1, MAX_VOCAB, lambda x: ModelConfig(x)),
    ("hidden", 1, MAX_HIDDEN, lambda x: ModelConfig(8, hidden=x)),
    ("ham_depth", 1, MAX_DEPTH, lambda x: ModelConfig(8, ham_depth=x)),
    ("trials", 1, MAX_TRIALS, lambda x: norm_bound_suite(x)),
    ("max_depth", 1, MAX_DEPTH, lambda x: norm_bound_suite(2, max_depth=x)),
    ("instances", 1, MAX_REDUCTION_INSTANCES, lambda x: reduction_report(x)),
    ("max_len", 1, None, lambda x: generate([3, 4], MODEL, max_len=x)),
    ("seed", 0, None, lambda x: gen_task("copy", 2, 2, 2, x)),
    ("seed", 0, None, lambda x: norm_bound_suite(2, seed=x)),
    ("seed", 0, None, lambda x: reduction_report(1, seed=x)),
    ("seed", 0, None, lambda x: property_report(seed=x)),
    ("seed", 0, None, lambda x: gradcheck_table("tiny", x, 1)),
]


def test_integer_inputs_refuse_bools_floats_strings_and_values_out_of_range():
    # True used to pass as 1 and 2.5 to reach range() or numpy; a message names the parameter
    problems = []
    for name, lo, hi, call in INTEGER_INPUTS:
        for value in (True, 2.5, "3", lo - 1, *(() if hi is None else (hi + 1,))):
            try:
                call(value)
                problems.append((name, value, "accepted"))
            except DomainError as e:
                if name not in str(e):
                    problems.append((name, value, str(e)))
            except Exception as e:  # any other error is a hole in the check
                problems.append((name, value, repr(e)))
    assert problems == []
    # numpy integers stay integers
    assert attention_levels(Q, K, np.int64(2)).shape == (2, 2)
    assert TrainConfig(epochs=np.int64(2), seed=np.uint8(3)).epochs == 2
    check_corpus_size(np.int64(2), np.int32(3))
    assert reduction_report(np.int64(1))["instances"] == 1
    assert len(generate([3, 4], MODEL, max_len=np.int64(2))) <= 2


def test_numpy_integer_inputs_give_plain_json_outputs():
    # a numpy seed used to reach the reports and the sweep summary as itself, which json refuses
    report = verify_report(trials=10, seed=np.int64(0), reduction_instances=np.int64(5))[0]
    assert json.dumps(report) == json.dumps(verify_report(trials=10, seed=0, reduction_instances=5)[0])
    numpy_cfg = TrainConfig(epochs=np.int64(1), batch_size=np.int32(4), seed=np.int64(3), restarts=np.uint8(2))
    plain_cfg = TrainConfig(epochs=1, batch_size=4, seed=3, restarts=2)
    assert all(type(getattr(numpy_cfg, f)) is int for f in ("epochs", "batch_size", "seed", "restarts"))
    corpus, eval_corpus = gen_task("copy", 4, 2, 3, seed=0), gen_task("copy", 2, 2, 3, seed=1)
    sweeps = depth_sweep([
        (corpus, eval_corpus, sweep_plan(corpus.vocab_size, [np.int64(1), 2], cfg, hidden=4))
        for cfg in (numpy_cfg, plain_cfg)
    ])
    dumps = [
        json.dumps({**summary, "records": [{**asdict(r), "wall_time_s": 0.0} for r in records]})
        for records, summary in sweeps
    ]
    assert dumps[0] == dumps[1]
