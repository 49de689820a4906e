"""Hierarchical attention mechanisms with a from-scratch autodiff engine.

The package implements vanilla, scaled dot-product, multi-head, multi-level
and self-attention, their hierarchical generalizations ham_v and ham_s
(weighted sums over all attention levels with trainable softmax weights), a
tape-based reverse-mode autodiff engine with finite-difference checking, a
GRU encoder-decoder testbed, BLEU-2 evaluation, and seeded experiment
tooling behind the ``hamattn`` CLI.
"""

from .attention import (
    MultiHeadParams,
    attention_distribution,
    multi_head,
    multi_level_attention,
    scaled_dot_score,
    sdp_attention,
    self_attention_layer,
    vanilla_attention,
)
from .autodiff import Tape, Variable, check_gradients
from .data import BOS, EOS, PAD, Corpus, gen_task, load_corpus, save_corpus
from .errors import CorpusError, DimensionError, DomainError, TrainingDiverged
from .evaluate import EvalReport, averaged_bleu, bleu2, exact_match_rate
from .ham import ham_s, ham_v, norm_bound_suite
from .model import (
    ModelConfig,
    Seq2SeqModel,
    generate,
    gru_step,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import l2_norm, softmax_vec
from .train import TrainConfig, adam_step, depth_sweep, sgd_step, sweep_plan, train

__version__ = "0.1.0"

__all__ = [
    "BOS",
    "Corpus",
    "CorpusError",
    "DimensionError",
    "DomainError",
    "EOS",
    "EvalReport",
    "ModelConfig",
    "MultiHeadParams",
    "PAD",
    "Seq2SeqModel",
    "Tape",
    "TrainConfig",
    "TrainingDiverged",
    "Variable",
    "adam_step",
    "attention_distribution",
    "averaged_bleu",
    "bleu2",
    "check_gradients",
    "depth_sweep",
    "exact_match_rate",
    "gen_task",
    "generate",
    "gru_step",
    "ham_s",
    "ham_v",
    "l2_norm",
    "load_checkpoint",
    "load_corpus",
    "multi_head",
    "multi_level_attention",
    "save_checkpoint",
    "save_corpus",
    "scaled_dot_score",
    "sdp_attention",
    "self_attention_layer",
    "sgd_step",
    "softmax_vec",
    "sweep_plan",
    "norm_bound_suite",
    "train",
    "vanilla_attention",
]
