#!/usr/bin/env python3
"""hamattn benchmark: depth-sweep cells plus the check suites.

Run from the repository root:

    python3 perfbench/run.py --workload cell_d1 --seed 0 --seconds 48 --trace 0

Each workload is a closed loop with one client in one process: the loop calls
the library, waits for it to return and then makes the next call. One round
is one depth-sweep cell -- ``train()``, ``generate()`` once per held-out
source, ``exact_match_rate`` -- followed by ``verify_report`` and
``gradcheck_table``. Before each round fresh interpreters set up and exit,
one at a time, which gives the ``setup_s`` samples. The number of rounds
depends only on ``--seconds`` (see ``round_count``), so two commits measured
with the same settings take the same number of samples. Every round does
the same, deterministic work; see ``end_to_end_metrics`` for how the rounds
are summarised. Every input comes from ``--seed``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates an untraced round with the same round under the
outside-in span recorder (``spans.py``), checks that every round computed
bit-identical results, and prints the per-layer metrics per traced round.

The last stdout line is the result object; the line before it is the
environment stamp with the quality records (``final_loss``, ``exact_match``)
and sample counts. Both, plus the per-round samples, are appended
to ``.bench_out/results.jsonl``; traced runs also write their spans there.
"""

import argparse
import functools
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Tiny [32 x 16] operands never profit from BLAS threads; one thread keeps
# runs steady and stays within nproc on any host.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread setting)


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on the import path, or exit."""
    if not (SRC / "hamattn" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no hamattn sources under {SRC}")
    sys.path.insert(0, str(SRC))


use_checkout_sources()
import hamattn  # noqa: E402
from hamattn import checks, data, evaluate, kernels, model  # noqa: E402

# the package re-exports the train() function under the module's name
training = importlib.import_module("hamattn.train")
if Path(hamattn.__file__).resolve().parent != SRC / "hamattn":
    raise SystemExit(f"run.py: imported hamattn from {hamattn.__file__}, not {SRC}")

DEPTHS = {"cell_d1": 1, "cell_d5": 5}
# the pinned shapes of the depth sweep (acceptance criterion 5)
TASK, PAIRS, SEQ_LEN, PAYLOAD_VOCAB = "copy", 512, 6, 8
HELD_OUT_PAIRS = 128
HIDDEN, BIDIRECTIONAL = 16, True
BATCH_SIZE, OPTIMIZER, LEARNING_RATE = 32, "adam", 1e-2
# a shortened cell: every epoch does the same work, and 20 epochs leave room
# for several rounds per run, which the per-round summaries need
EPOCHS = 20
VERIFY_TRIALS = 10_000
GRADCHECK_SCALE, GRADCHECK_INSTANCES = "tiny", 1
# nominal length of one round, set-ups included, on a 2-vCPU Xeon at 2.1 GHz
ROUND_S = 8.0
SETUPS_PER_ROUND = 2
# inside a long call the reference piece runs at the first stamp point after
# this much of the call's own time (see ReferenceClock)
BLOCK_S = 0.02
# timings are reported at the speed at which one reference piece takes this long
REFERENCE_NOMINAL_S = 1e-3
# a block is scaled by the median of this many reference pieces up to its end
REFERENCE_WINDOW = 5
MIN_ROUNDS = 2  # the second round re-checks the first bit for bit
# Claims are made on the default seed 0 and confirmed on seed 1.
DEFAULT_SEED = 0


class Cell:
    """Inputs of one workload, all derived from the workload seed."""

    def __init__(self, workload: str, seed: int):
        self.seed, self.depth = seed, DEPTHS[workload]
        self.corpus = data.gen_task(TASK, PAIRS, SEQ_LEN, PAYLOAD_VOCAB, seed)
        self.held_out = data.gen_task(TASK, HELD_OUT_PAIRS, SEQ_LEN, PAYLOAD_VOCAB, seed + 1)
        self.max_len = max(len(tgt) for _, tgt in self.held_out.pairs) + 2
        self.train_config = training.TrainConfig(
            learning_rate=LEARNING_RATE,
            optimizer=OPTIMIZER,
            epochs=EPOCHS,
            batch_size=BATCH_SIZE,
            seed=seed,
        )
        self.tokens = sum(len(tgt) + 1 for _, tgt in self.corpus.pairs) * EPOCHS

    def new_model(self):
        config = model.ModelConfig(self.corpus.vocab_size, HIDDEN, self.depth, BIDIRECTIONAL)
        return model.Seq2SeqModel(config, np.random.default_rng(self.seed))


def setup_in_process(workload: str, seed: int) -> Cell:
    """Inputs and a model: with the import of this module, what setup_s times."""
    cell = Cell(workload, seed)
    cell.new_model()
    return cell


def set_up_fresh(workload: str, seed: int) -> None:
    """Start a fresh interpreter that sets up and exits; wait for it."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "run.setup_in_process(sys.argv[2], int(sys.argv[3]))"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(HERE), workload, str(seed)],
        check=True,
        cwd=ROOT,
    )


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            print(f"run.py: check failed: {what}", file=sys.stderr)
            self.failed += 1


# Library functions called at regular, short intervals inside the long timed
# calls, given as (module, name) where the caller looks the name up: one
# training step, one trial of the norm-bound and reduction suites, one
# property sample, one gradcheck case or finite-difference forward.
STAMP_POINTS = (
    ("train", "sequence_loss"),
    ("ham", "attention_levels"),
    ("checks", "softmax_vec"),
    ("checks", "attention_distribution"),
    ("checks", "check_gradients"),
    ("checks", "sequence_loss"),
)


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


class ReferenceClock:
    """Times library calls against a fixed reference piece of work.

    The speed of a shared host's CPU changes over milliseconds to minutes,
    by up to 1.8x, as neighbours come and go, so a wall time says as much
    about the host as about the program. The reference piece -- interpreter
    work on small Python objects, no hamattn code -- runs right before
    and after every timed call and, inside a long call, every ``BLOCK_S`` of
    the call's own time: wrappers on the ``STAMP_POINTS`` check the clock
    and run it there. Each stretch of the call up to a piece (a block) is
    divided by the median time of the last ``REFERENCE_WINDOW`` pieces, that
    one included, so it is measured at the speed the host had just then;
    ``timed`` returns the sum over the blocks, scaled to the speed at which
    a piece takes ``REFERENCE_NOMINAL_S``. The pieces' own time is not
    counted.

    With ``enabled=False`` (the traced run) ``timed`` returns plain wall
    times and runs no reference pieces.
    """

    def __init__(self, enabled: bool = True):
        self.records = [{"id": i, "pair": [i, i + 1], "name": str(i)} for i in range(3000)]
        self.enabled = enabled
        self.pieces: list[float] = []  # every piece's time, for the records
        self._patched: list[tuple] = []
        self._timing = False
        self._blocks: list[tuple] = []  # (duration, pieces run by its end)
        self._block_start = 0.0

    def piece(self) -> None:
        """Run the reference piece once and record its wall time.

        It reads 3000 small dicts and builds 3000 small objects. The host's
        slow periods slow this kind of work down about as much as they slow
        the library; a loop of numpy operations on small arrays slowed down
        less and followed the host's speed about half as closely.
        """
        start = time.perf_counter()
        total = 0
        for record in self.records:
            total += record["id"] + len(record["pair"])
        nodes = [_Node(i, record) for i, record in enumerate(self.records)]
        total += sum(node.key for node in nodes)
        self.pieces.append(time.perf_counter() - start)

    def install(self) -> None:
        for mod_name, attr in STAMP_POINTS:
            module = sys.modules[f"hamattn.{mod_name}"]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._stamped(original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _stamped(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._timing and clock() - self._block_start >= BLOCK_S:
                self._end_block()
            return fn(*args, **kwargs)

        return wrapper

    def _end_block(self) -> None:
        now = time.perf_counter()
        self.piece()
        self._blocks.append((now - self._block_start, len(self.pieces)))
        self._block_start = time.perf_counter()

    def timed(self, fn):
        """``fn()``, with its time at the reference speed and its wall time
        (excluding reference pieces)."""
        if not self.enabled:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            return result, elapsed, elapsed
        self.piece()
        self._blocks = []
        self._timing = True
        self._block_start = time.perf_counter()
        try:
            result = fn()
        finally:
            self._end_block()
            self._timing = False
        pieces = self.pieces
        scaled = REFERENCE_NOMINAL_S * sum(
            dur / statistics.median(pieces[max(0, end - REFERENCE_WINDOW) : end])
            for dur, end in self._blocks
        )
        return result, scaled, sum(dur for dur, _ in self._blocks)


def run_round(cell: Cell, tally: Tally, ref: ReferenceClock) -> dict:
    """One sweep cell, then the check suites; returns timings and outputs.

    Timings are at the reference speed (see ``ReferenceClock``); the wall
    times go to ``out["wall_s"]`` for the records.
    """
    out = {"generate_s": [], "wall_s": {"generate_s": []}}

    def timed(name, fn):
        result, out[name], out["wall_s"][name] = ref.timed(lambda: tally.attempt(fn))
        return result

    net = cell.new_model()
    trained = timed("train_s", lambda: training.train(net, cell.corpus, cell.train_config))
    losses = trained[1] if trained is not None else None
    if losses is not None:
        finite = all(math.isfinite(x) for x in losses)
        tally.check(finite and losses[-1] < losses[0], f"training losses {losses[0]} -> {losses[-1]}")
    out["losses"] = losses

    generated = []
    for src, _ in cell.held_out.pairs:
        tokens, scaled, wall = ref.timed(
            lambda: tally.attempt(lambda: model.generate(src, net, max_len=cell.max_len))
        )
        out["generate_s"].append(scaled)
        out["wall_s"]["generate_s"].append(wall)
        if tokens is not None:
            vocab = cell.corpus.vocab_size
            tally.check(
                len(tokens) <= cell.max_len and all(0 <= t < vocab for t in tokens),
                f"generate returned {tokens}",
            )
        generated.append(tokens)
    out["generated"] = generated
    gold = [tgt for _, tgt in cell.held_out.pairs]
    out["exact_match"] = tally.attempt(
        lambda: evaluate.exact_match_rate(list(zip(generated, gold)))
    )

    verified = timed(
        "verify_s", lambda: checks.verify_report(trials=VERIFY_TRIALS, seed=cell.seed)
    )
    if verified is not None:
        tally.check(verified[1], "verify_report did not pass")
    out["verify"] = verified[0] if verified is not None else None

    rows = timed(
        "gradcheck_s",
        lambda: checks.gradcheck_table(
            GRADCHECK_SCALE, seed=cell.seed, instances=GRADCHECK_INSTANCES
        ),
    )
    if rows is not None:
        failing = [row["name"] for row in rows if not row["passed"]]
        tally.check(not failing, f"gradcheck rows failed: {failing}")
    out["gradcheck"] = rows
    return out


def round_count(seconds: float) -> int:
    """Rounds in a run of about ``seconds`` at the nominal round length.

    The count depends on the setting alone, not on how fast the program
    runs, so a faster change is summarised over as many rounds as its
    parent; its run simply ends sooner.
    """
    return max(MIN_ROUNDS, round(seconds / ROUND_S))


OUTPUT_KEYS = ("losses", "generated", "exact_match", "verify", "gradcheck")


TIMED_CALLS = ("train_s", "verify_s", "gradcheck_s")


def check_same_outputs(first: dict, other: dict, tally: Tally, what: str) -> None:
    for key in OUTPUT_KEYS:
        tally.check(first[key] == other[key], f"{key} differs between {what}")


def end_to_end_metrics(rounds: list, setup_times: list, tokens: int) -> dict:
    """Medians over a run's rounds (per held-out sequence for ``generate()``)
    and over its set-ups, all at the reference speed (``ReferenceClock``).
    Every run has ``round_count`` rounds, whatever the program's speed."""
    generate_ms = np.median([r["generate_s"] for r in rounds], axis=0) * 1e3
    return {
        "setup_s": statistics.median(setup_times),
        "train_tokens_per_s": tokens / statistics.median(r["train_s"] for r in rounds),
        "generate_ms_p50": float(np.percentile(generate_ms, 50)),
        "generate_ms_p90": float(np.percentile(generate_ms, 90)),
        "verify_s": statistics.median(r["verify_s"] for r in rounds),
        "gradcheck_s": statistics.median(r["gradcheck_s"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(rec, first: dict, pairs: list, tally: Tally) -> dict:
    """Span statistics per traced round: times are means over the rounds,
    and counts must divide evenly, because every round does the same work."""
    from spans import KERNELS, REPORTED_OPS

    spans = rec.aggregate()
    rounds = len(pairs)

    def count(total, what):
        tally.check(total % rounds == 0, f"{what}: {total} is uneven over {rounds} traced rounds")
        return total // rounds

    def span(name, stat):
        value = spans.get(name, {}).get(stat, 0)
        return count(value, name) if stat == "calls" else value / rounds

    metrics = {}
    for name in ("model.encode_batch", "model.decode_step_batch", "model.gru_step"):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.self_s"] = span(name, "self_s")
    metrics["model.sequence_loss.total_s"] = span("model.sequence_loss", "total_s")
    metrics["model.generate.calls"] = span("model.generate", "calls")
    metrics["model.generate.total_s"] = span("model.generate", "total_s")
    metrics["model.generate.tokens"] = count(rec.generate_tokens, "generated tokens")
    metrics["ham.ham_v_context.calls"] = span("ham.ham_v_context", "calls")
    metrics["ham.ham_v_context.self_s"] = span("ham.ham_v_context", "self_s")
    metrics["ham.norm_bound_suite.self_s"] = span("ham.norm_bound_suite", "self_s")
    metrics["ham.reduction_report.self_s"] = span("ham.reduction_report", "self_s")
    for name in ("attention.attention_levels", "attention.self_attention_layer"):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.self_s"] = span(name, "self_s")
    metrics["autodiff.tape_entries_per_step"] = rec.train_tape_entries / max(rec.train_steps, 1)
    metrics["autodiff.Tape.backward.calls"] = span("autodiff.Tape.backward", "calls")
    metrics["autodiff.Tape.backward.total_s"] = span("autodiff.Tape.backward", "total_s")
    metrics["autodiff.check_gradients.calls"] = span("autodiff.check_gradients", "calls")
    metrics["autodiff.check_gradients.self_s"] = span("autodiff.check_gradients", "self_s")
    for op in REPORTED_OPS:
        metrics[f"autodiff.op.{op}.count"] = span(f"autodiff.op.{op}.fwd", "calls")
        metrics[f"autodiff.op.{op}.fwd_s"] = span(f"autodiff.op.{op}.fwd", "total_s")
        metrics[f"autodiff.op.{op}.bwd_s"] = span(f"autodiff.op.{op}.bwd", "total_s")
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}.calls"] = span(f"kernels.{kernel}", "calls")
        metrics[f"kernels.{kernel}.self_s"] = span(f"kernels.{kernel}", "self_s")
        metrics[f"kernels.{kernel}.bytes"] = count(rec.kernel_bytes[kernel], f"{kernel} bytes")
    metrics["train.adam_step.calls"] = span("train.adam_step", "calls")
    metrics["train.adam_step.self_s"] = span("train.adam_step", "self_s")
    metrics["train.clip_gradients.self_s"] = span("train.clip_gradients", "self_s")
    metrics["train.clip_fired_ratio"] = rec.clip_fired / max(rec.clip_calls, 1)
    metrics["train.final_loss"] = first["losses"][-1]
    metrics["data.gen_task.self_s"] = span("data.gen_task", "self_s")
    metrics["checks.verify_report.total_s"] = span("checks.verify_report", "total_s")
    metrics["checks.property_report.self_s"] = span("checks.property_report", "self_s")
    metrics["checks.gradcheck_table.total_s"] = span("checks.gradcheck_table", "total_s")
    metrics["trace.overhead_ratio"] = sum(p[2] for p in pairs) / sum(p[1] for p in pairs)
    return metrics


def environment() -> dict:
    """Versions, thread settings and kernel backend that produced a result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "backend": kernels.BACKEND,
    }


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(values: dict, declared: list, tally: Tally) -> dict:
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise SystemExit(
            f"run.py: computed metrics {sorted(set(values) ^ set(names))} "
            "do not match BENCHMARK.json"
        )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEPTHS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics(bool(args.trace))

    cell = setup_in_process(args.workload, args.seed)
    env = environment()
    rounds = round_count(args.seconds)
    tally = Tally()
    detail = {}
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        from spans import SpanRecorder

        rec = SpanRecorder()
        wall_clock = ReferenceClock(enabled=False)  # the recorder's spans time the calls

        def untraced_then_traced():
            start = time.perf_counter()
            untraced = run_round(cell, tally, wall_clock)
            untraced_s = time.perf_counter() - start
            rec.install()
            try:
                traced_cell = Cell(args.workload, args.seed)
                start = time.perf_counter()
                traced = run_round(traced_cell, tally, wall_clock)
                traced_s = time.perf_counter() - start
            finally:
                rec.uninstall()
            check_same_outputs(untraced, traced, tally, "an untraced and a traced round")
            return untraced, untraced_s, traced_s

        # a traced round takes about 1.2 untraced ones
        pairs = [untraced_then_traced() for _ in range(max(1, rounds // 2))]
        first = pairs[0][0]
        for untraced, _, _ in pairs[1:]:
            check_same_outputs(first, untraced, tally, "rounds of one seed")
        values = per_layer_metrics(rec, first, pairs, tally)
        rec.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        detail = {"rounds": len(pairs)}
    else:
        ref = ReferenceClock()

        def setups_then_round():
            # set-ups between the rounds spread their samples over the run
            setups = [
                ref.timed(lambda: set_up_fresh(args.workload, args.seed))[1:]
                for _ in range(SETUPS_PER_ROUND)
            ]
            ref.install()
            try:
                return setups, run_round(cell, tally, ref)
            finally:
                ref.uninstall()

        samples = [setups_then_round() for _ in range(rounds)]
        setup_times = [scaled for setups, _ in samples for scaled, _ in setups]
        outputs = [r for _, r in samples]
        first = outputs[0]
        for other in outputs[1:]:
            check_same_outputs(first, other, tally, "rounds of one seed")
        values = end_to_end_metrics(outputs, setup_times, cell.tokens)
        detail = {
            "rounds": rounds,
            "generate_samples": len(first["generate_s"]),
            "setup_samples": setup_times,
            "round_samples": {
                key: [r[key] for r in outputs] for key in (*TIMED_CALLS, "generate_s")
            },
            "wall_samples": {
                "setup_s": [wall for setups, _ in samples for _, wall in setups],
                **{key: [r["wall_s"][key] for r in outputs] for key in (*TIMED_CALLS, "generate_s")},
            },
            "reference_pieces": len(ref.pieces),
            "reference_piece_ms": [float(np.percentile(ref.pieces, q)) * 1e3 for q in (10, 50, 90)],
        }

    result = result_line(values, declared, tally)
    stamp = {
        "env": env,
        "final_loss": first["losses"][-1] if first["losses"] else None,
        "exact_match": first["exact_match"],
        **{k: detail[k] for k in ("rounds", "generate_samples") if k in detail},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **stamp,
        **detail,
        "result": result,
    }
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
