"""Optimizers, the teacher-forced training loop and the depth-sweep experiment.

Every number a run records is determined by (seed, config, corpus): model
init, batch shuffling and the optimizer are all driven by numpy Generators
seeded from one root. ``sweep_plan`` builds and checks every cell of a sweep
before ``depth_sweep`` runs it; one ``depth_sweep`` call maps the cells of
several sweeps, say one per root, deepest first over one pool of forked
workers, each cell's job pickled. The plan fans the root seed out with
cell_seed(root, depth, restart) = root*1_000_000 + depth*1_000 + restart and
pairs its cells: restart r of every depth trains from cell_seed(root,
depths[0], r), so the depths of one restart share their init draws and batch
order, and any cell can be reproduced alone from its plan entry.

The depth sweep reports best-over-restarts final losses per depth and
asserts that they do not increase by more than SWEEP_TOLERANCE from one depth
to the next. Global minima are not computable, and at desk scale a few-ulp
difference between two runs grows over 200 epochs into a loss spread as wide
as a new seed's. The tolerance is therefore measured, not chosen: it comes
from the paired null sweep (``sweep_plan(..., null=True)``), in which every
depth computes the depth-1 function, so only that spread separates the depths.
"""

import math
import numbers
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape
from .data import Corpus, write_text
from .errors import DomainError, TrainingDiverged, check_int
from .evaluate import exact_match_rate
from .ham import MAX_DEPTH
from .model import ModelConfig, Seq2SeqModel, generate, sequence_loss

SWEEP_CSV_HEADER = "depth,seed,final_loss,metric,wall_time_s"
# A deeper depth's best loss may be at most (1 + SWEEP_TOLERANCE) times the
# previous depth's. The band is the largest consecutive-depth ratio of the
# paired null sweep over root seeds 0-4 (1.6955, root 2), rounded up to two
# decimals; README "Depth-sweep behavior at desk scale" has the table.
SWEEP_TOLERANCE = 0.70
# level-weight logits of depths 2.. in a null sweep: softmax gives level 1 a
# weight of 1 - 4e-18 at depth 2
NULL_LEVEL_LOGIT = -40.0

OPTIMIZERS = ("sgd", "adam")
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
MAX_GRAD_NORM = 5.0  # single fixed safeguard, not a tunable schedule
# Loop counts of one run: an epoch of the pinned protocol (512 pairs, batch 32,
# hidden 16) takes about 0.1 s at depth 5 on a 2-core host, so MAX_EPOCHS is
# about 17 minutes per cell, and a pinned sweep (3 depths x 200 epochs, about
# 50 s per restart) at MAX_RESTARTS about 1.4 hours on one CPU.
MAX_EPOCHS = 10_000
MAX_RESTARTS = 100


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    optimizer: str = "adam"
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not (math.isfinite(lr) and lr >= 0):
            raise DomainError(f"learning_rate: the learning rate must be a finite real number >= 0, got {lr!r}")
        if not isinstance(self.optimizer, str) or self.optimizer not in OPTIMIZERS:
            raise DomainError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        # ints, not numpy ints: the seed and restarts reach the sweep's JSON summary
        self.epochs = check_int("epochs", self.epochs, 1, MAX_EPOCHS)
        self.batch_size = check_int("batch_size", self.batch_size, 1)
        self.restarts = check_int("restarts", self.restarts, 1, MAX_RESTARTS)
        self.seed = check_int("seed", self.seed, 0)


@dataclass
class SweepRecord:
    depth: int
    seed: int
    final_loss: float
    metric: float
    wall_time_s: float


# ---------------------------------------------------------------------------
# optimizers: each updates a flat parameter vector in place, in one operation


def sgd_step(params, grad, state, config: TrainConfig):
    params -= config.learning_rate * grad
    return params, state


def init_adam_state(params) -> dict:
    """Adam moments laid out like the flat parameter vector."""
    return {"t": 0, "m": np.zeros_like(params), "v": np.zeros_like(params)}


def adam_step(params, grad, state, config: TrainConfig):
    state["t"] = t = state["t"] + 1
    b1, b2 = ADAM_BETAS
    m, v = state["m"], state["v"]
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def clip_gradients(grads, max_norm: float) -> float:
    """Scale all gradients in place so their global norm is at most max_norm."""
    total = float(np.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads)))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads:
            g *= factor
    return total


# ---------------------------------------------------------------------------
# training loop


def _batches(corpus: Corpus, order, batch_size: int):
    """Group a permutation of pair indices into same-shape batches."""
    buckets: dict = {}
    for i in order:
        src, tgt = corpus.pairs[i]
        buckets.setdefault((len(src), len(tgt)), []).append(i)
    out = []
    for key in sorted(buckets):
        idxs = buckets[key]
        for start in range(0, len(idxs), batch_size):
            out.append(idxs[start : start + batch_size])
    return out


def train(model: Seq2SeqModel, corpus: Corpus, config: TrainConfig, frozen=()):
    """Teacher-forced training; returns (model, per-epoch mean token losses).

    Each trained parameter's value becomes a view of one flat vector, which
    the optimizer updates in one operation; parameters named in ``frozen``
    stay out of it and keep their values. An unknown name raises DomainError.
    """
    if len(corpus) == 0:
        raise DomainError("cannot train on an empty corpus")
    named = model.parameters()
    unknown = [name for name in frozen if name not in named]
    if unknown:
        raise DomainError(f"frozen names that are not parameters of the model: {unknown}")
    rng = np.random.default_rng(config.seed)
    params = [p for name, p in named.items() if name not in frozen]
    ends = np.cumsum([0] + [p.value.size for p in params])
    flat, grad = np.empty(ends[-1]), np.empty(ends[-1])
    for p, a, b in zip(params, ends, ends[1:]):
        flat[a:b] = p.value.ravel()
        p.value = flat[a:b].reshape(p.shape)
    grads = [grad[a:b].reshape(p.shape) for p, a, b in zip(params, ends, ends[1:])]
    state = init_adam_state(flat) if config.optimizer == "adam" else None
    step = adam_step if config.optimizer == "adam" else sgd_step

    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(corpus))
        loss_sum = 0.0
        token_count = 0
        for batch_no, idxs in enumerate(_batches(corpus, order, config.batch_size)):
            src = np.array([corpus.pairs[i][0] for i in idxs], dtype=np.int64)
            tgt = np.array([corpus.pairs[i][1] for i in idxs], dtype=np.int64)
            with Tape() as tape:
                loss = sequence_loss(model, src, tgt)
            loss_value = float(loss.value)
            if not np.isfinite(loss_value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            tape.backward(loss)
            if params:  # numpy concatenates no empty list
                np.concatenate([p.grad for p in params], axis=None, out=grad)
            clip_gradients(grads, MAX_GRAD_NORM)
            step(flat, grad, state, config)
            tokens = src.shape[0] * (tgt.shape[1] + 1)
            loss_sum += loss_value * tokens
            token_count += tokens
        losses.append(loss_sum / token_count)
    return model, losses


# ---------------------------------------------------------------------------
# depth sweep


def cell_seed(root_seed: int, depth: int, restart: int) -> int:
    """Documented fan-out of the root seed to one (depth, restart) cell."""
    return root_seed * 1_000_000 + depth * 1_000 + restart


def _exact_match(model: Seq2SeqModel, eval_corpus: Corpus) -> float:
    max_len = max(len(tgt) for _, tgt in eval_corpus.pairs) + 2
    pairs = [(generate(src, model, max_len=max_len), tgt) for src, tgt in eval_corpus.pairs]
    return exact_match_rate(pairs)


def check_depths(depths) -> list:
    """A sweep's depths as a list of ints: non-empty, ascending, each in [1, MAX_DEPTH]."""
    if not isinstance(depths, (list, tuple)) or not depths:
        raise DomainError(f"depths must be a non-empty list, got {depths!r}")
    depths = [check_int(f"depths[{i}]", d, 1, MAX_DEPTH) for i, d in enumerate(depths)]
    if depths != sorted(depths):
        raise DomainError(f"depths must be ascending, got {depths}")
    return depths


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell (its depth is ``model.ham_depth``); a null cell has ``frozen`` set."""

    model: ModelConfig
    train: TrainConfig
    frozen: tuple


@dataclass(frozen=True)
class SweepPlan:
    depths: list
    restarts: int
    seed: int  # the root seed
    cells: list  # SweepCell, in run order: depth-major, restarts inner


def sweep_plan(
    vocab_size: int,
    depths,
    config: TrainConfig,
    hidden: int = ModelConfig.hidden,
    bidirectional: bool = ModelConfig.bidirectional,
    null: bool = False,
) -> SweepPlan:
    """Every cell of a depth sweep in run order, each config built and checked once.

    ``null=True`` plans the null sweep: depths above 1 freeze their level weights
    ``ham_c``, which ``depth_sweep`` pins to level 1 (c = [0, NULL_LEVEL_LOGIT,
    ...]), so each cell computes its depth-1 partner's function up to round-off.
    """
    depths = check_depths(depths)
    if null and depths[0] != 1:
        raise DomainError(f"a null sweep starts at depth 1, got {depths}")
    models = {d: ModelConfig(vocab_size, hidden, d, bidirectional) for d in depths}
    seeds = [cell_seed(config.seed, depths[0], r) for r in range(config.restarts)]
    cells = [
        SweepCell(models[d], replace(config, seed=s), ("ham_c",) if null and d > 1 else ())
        for d in depths
        for s in seeds
    ]
    return SweepPlan(depths, config.restarts, config.seed, cells)


def _train_cell(job) -> SweepRecord:
    """Train and score one (train corpus, eval corpus, cell) job, timed where it trains."""
    train_corpus, eval_corpus, cell = job
    start = time.perf_counter()
    model = Seq2SeqModel(cell.model, np.random.default_rng(cell.train.seed))
    if cell.frozen:  # a null cell
        model.var_c.value[1:] = NULL_LEVEL_LOGIT
    _, losses = train(model, train_corpus, cell.train, cell.frozen)
    metric = _exact_match(model, eval_corpus) if len(eval_corpus) else 0.0
    wall = time.perf_counter() - start
    return SweepRecord(cell.model.ham_depth, cell.train.seed, losses[-1], metric, wall)


def _summary(plan: SweepPlan, records) -> dict:
    best = {d: min(r.final_loss for r in records if r.depth == d) for d in plan.depths}
    monotone = all(
        best[b] <= best[a] * (1.0 + SWEEP_TOLERANCE) for a, b in zip(plan.depths, plan.depths[1:])
    )
    return {
        "depths": plan.depths,
        "restarts": plan.restarts,
        "seed": plan.seed,
        "best_loss": {str(d): best[d] for d in plan.depths},
        "tolerance": SWEEP_TOLERANCE,
        "monotone_within_tolerance": monotone,
    }


def depth_sweep(sweeps):
    """Train the cells of several ``sweep_plan``s; return one (records, summary)
    per (train corpus, eval corpus, plan) in ``sweeps``. A summary maps each
    depth to its best-over-restarts final loss and states whether the sequence
    is non-increasing within SWEEP_TOLERANCE.

    Every sweep's corpora are checked against its plan before any cell trains.
    Each cell is then one (train corpus, eval corpus, cell) job, and the jobs,
    deepest first across the sweeps, are mapped over ``_train_cell``: pickled
    to a pool of forked workers, one per usable CPU (``os.sched_getaffinity``;
    ``taskset`` narrows it) and at most one per cell, or by the builtin ``map``
    in this process, where no process starts, with one usable CPU, at most one
    cell, or no ``fork`` or ``sched_getaffinity`` (not Linux). A cell seeds
    itself, so each sweep's records, returned in plan order, are the same bytes
    as when it runs alone, for any worker count. Forking is safe only in a
    process that runs no other threads; hamattn starts none. An exception a
    cell raises reaches the caller with its type and message, and no worker
    outlives the call.
    """
    jobs = []
    for train_corpus, eval_corpus, plan in sweeps:
        vocab = plan.cells[0].model.vocab_size  # every cell's
        for name, corpus in (("train", train_corpus), ("eval", eval_corpus)):
            if corpus.vocab_size != vocab:
                raise DomainError(f"vocab_size: the {name} corpus has {corpus.vocab_size}, the plan {vocab}")
        jobs += [(train_corpus, eval_corpus, cell) for cell in plan.cells]
    # The deepest cells, the slowest, start first, so the sweeps do not end waiting on one long cell.
    order = sorted(range(len(jobs)), key=lambda i: -jobs[i][2].model.ham_depth)
    deepest_first = [jobs[i] for i in order]
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(jobs), len(os.sched_getaffinity(0))) if can_fork else 1
    if workers <= 1:
        done = list(map(_train_cell, deepest_first))
    else:
        # imported here: they take 15-30 ms to import, which ``import hamattn`` need not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Unlike multiprocessing.Pool, the executor raises BrokenProcessPool when a worker
        # is killed instead of waiting for its cell forever.
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            done = list(pool.map(_train_cell, deepest_first))
    records = (record for _, record in sorted(zip(order, done)))  # back in plan order
    per_sweep = [[next(records) for _ in plan.cells] for _, _, plan in sweeps]
    return [(part, _summary(plan, part)) for part, (_, _, plan) in zip(per_sweep, sweeps)]


def write_sweep_csv(records, path) -> None:
    """Write sweep records as CSV.

    The wall_time_s column stays empty so that reruns are byte-identical;
    each cell's wall time is in the JSON summary the CLI writes next to it.
    """
    rows = (f"{r.depth},{r.seed},{r.final_loss!r},{r.metric!r},\n" for r in records)
    write_text(path, [SWEEP_CSV_HEADER + "\n", *rows])
