import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamattn import cli, kernels
from hamattn.checks import MAX_GRADCHECK_INSTANCES
from hamattn.cli import SWEEP_DEFAULTS, TRAIN_DEFAULTS, _merge_config, build_parser, main
from hamattn.data import (
    MAX_PAIRS, MAX_SEQ_LEN, MAX_VOCAB, NUM_RESERVED, TASKS, gen_task, load_corpus, save_corpus,
)
from hamattn.errors import DomainError
from hamattn.ham import MAX_DEPTH, MAX_REDUCTION_INSTANCES, MAX_TRIALS
from hamattn.model import MAX_HIDDEN
from hamattn.train import MAX_EPOCHS, MAX_RESTARTS, OPTIMIZERS


def run(argv):
    return main(argv)


def test_gendata_writes_header_plus_pairs(tmp_path, capsys):
    out = tmp_path / "copy.jsonl"
    code = run(["gendata", "--task", "copy", "--pairs", "100", "--seq-len", "6",
                "--payload-vocab", "8", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 101
    corpus = load_corpus(out)
    assert len(corpus) == 100
    assert "101 lines" in capsys.readouterr().out


def test_gendata_rejects_bad_task(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gendata", "--task", "shuffle", "--pairs", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_verify_small_run_passes_and_is_deterministic(tmp_path, capsys):
    args = ["verify", "--trials", "300", "--max-depth", "6",
            "--reduction-instances", "60", "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    out_a = capsys.readouterr().out
    assert run(args + ["--out", str(b)]) == 0
    out_b = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert out_a == out_b
    report = json.loads(a.read_text())
    assert report["passed"] is True
    assert report["norm_bounds"]["upper_violations"] == 0
    ce = report["norm_bounds"]["lower_bound_counterexample"]
    assert ce["lower_bound_violated"] is True
    assert "lower bound fails" in out_a


def test_verify_rejects_zero_trials(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--trials", "0", "--out", str(out)]) == 2
    _one_line_error(capsys, "trials", "got 0")
    assert not out.exists()


def test_gradcheck_small_run(capsys):
    assert run(["gradcheck", "--scale", "tiny", "--seed", "1", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "seq2seq_loss" in out
    assert "FAIL" not in out


def test_gradcheck_deterministic_per_seed():
    from hamattn.checks import gradcheck_table

    a = gradcheck_table(scale="tiny", seed=6, instances=1)
    b = gradcheck_table(scale="tiny", seed=6, instances=1)
    assert a == b


def test_gradcheck_small_scale(capsys):
    assert run(["gradcheck", "--scale", "small", "--seed", "2", "--instances", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_gradcheck_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--scales", "tiny"])
    assert exc.value.code == 2


def test_gradcheck_with_a_nan_vjp_fails(capsys, monkeypatch):
    """A NaN gradient is an infinite error: the row fails and the command exits 1."""
    monkeypatch.setattr(kernels, "tanh_vjp", lambda t, g: np.full_like(g, np.nan))
    assert run(["gradcheck", "--instances", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("tanh ") and line.endswith("[FAIL]") for line in lines), lines
    assert "gradcheck failure: op tanh at variable 0, coordinate [0, 0]" in lines


def test_train_missing_corpus_is_config_error(tmp_path, capsys):
    code = run(["train", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "run")])
    assert code == 2


def test_train_and_eval_loop(tmp_path, capsys):
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 6, 3, 5, seed=0), corpus_path)
    out_dir = tmp_path / "run"
    code = run(["train", "--corpus", str(corpus_path), "--out", str(out_dir),
                "--epochs", "3", "--depth", "2", "--hidden", "6", "--batch-size", "3",
                "--seed", "4", "--emit-generations"])
    assert code == 0
    assert (out_dir / "checkpoint.json").exists()
    losses = (out_dir / "losses.csv").read_text().splitlines()
    assert losses[0] == "epoch,loss"
    assert len(losses) == 4
    gen_path = out_dir / "generations.jsonl"
    assert gen_path.exists()

    report_path = tmp_path / "report.json"
    code = run(["eval", "--generated", str(gen_path), "--gold", str(corpus_path),
                "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"bleu_1", "bleu_2", "bleu_3", "bleu_avg", "exact_match", "n"}
    assert report["n"] == 6


def test_train_config_file_with_flag_override(tmp_path):
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "hidden": 5, "depth": 1, "batch_size": 2}))
    out_dir = tmp_path / "run"
    code = run(["train", "--corpus", str(corpus_path), "--out", str(out_dir),
                "--config", str(cfg), "--epochs", "2"])
    assert code == 0
    assert len((out_dir / "losses.csv").read_text().splitlines()) == 3  # flag wins


def test_train_unknown_config_key(tmp_path):
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epoch": 1}))
    out_dir = tmp_path / "run"
    code = run(["train", "--corpus", str(corpus_path), "--out", str(out_dir), "--config", str(cfg)])
    assert code == 2
    assert not out_dir.exists()


def test_eval_perfect_generation_scores_one(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    save_corpus(gen_task("copy", 8, 4, 6, seed=2), gold)
    code = run(["eval", "--generated", str(gold), "--gold", str(gold)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact_match"] == 1.0
    assert report["bleu_avg"] == 1.0


def test_eval_quatrains_perfect(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    save_corpus(gen_task("copy", 8, 4, 6, seed=3), gold)
    code = run(["eval", "--generated", str(gold), "--gold", str(gold), "--quatrains"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu_1"] == report["bleu_2"] == report["bleu_3"] == 1.0
    assert report["n"] == 2


def test_eval_length_mismatch(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), a)
    save_corpus(gen_task("copy", 5, 3, 5, seed=0), b)
    assert run(["eval", "--generated", str(a), "--gold", str(b)]) == 2


TINY_SWEEP = {
    "pairs": 8, "seq_len": 3, "payload_vocab": 5, "eval_pairs": 4,
    "depths": [1, 2], "restarts": 1, "epochs": 2, "batch_size": 4, "seed": 3,
    "hidden": 5,
}
GOLDEN = Path(__file__).parent / "golden"


def test_sweep_tiny_and_rerun_is_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(TINY_SWEEP))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = run(["sweep", "--config", str(cfg), "--out", str(out_a)])
    code_b = run(["sweep", "--config", str(cfg), "--out", str(out_b)])
    assert code_a in (0, 1) and code_a == code_b
    csv_a = (out_a / "sweep.csv").read_bytes()
    assert csv_a == (out_b / "sweep.csv").read_bytes()
    assert csv_a.splitlines()[0] == b"depth,seed,final_loss,metric,wall_time_s"
    summary = json.loads((out_a / "sweep_summary.json").read_text())
    assert summary["depths"] == [1, 2]
    assert len(summary["records"]) == 2


def test_outputs_match_committed_golden(tmp_path, capsys):
    """The tiny sweep's CSV and a tiny train run's checkpoint, byte for byte.

    Both golden files were written by this code on numpy's float64 kernels.
    A change that moves the numbers on purpose regenerates them with the
    commands this test runs and records the change in CHANGES.md.
    """
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(TINY_SWEEP))
    run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")])
    golden_csv = (GOLDEN / "sweep_tiny.csv").read_bytes()
    assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == golden_csv

    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 6, 3, 5, seed=0), corpus_path)
    assert run(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "run"),
                "--epochs", "3", "--depth", "2", "--hidden", "6", "--batch-size", "3",
                "--seed", "4"]) == 0
    digest = hashlib.sha256((tmp_path / "run" / "checkpoint.json").read_bytes()).hexdigest()
    assert digest == (GOLDEN / "train_checkpoint.sha256").read_text().strip()


def test_sweep_rejects_bad_config_before_writing_outputs(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "out"
    small = {"epochs": 1, "pairs": 4, "restarts": 1, "depths": [1]}
    for field, config in (
        ("depths", {**small, "depths": [5, 1]}),
        ("bogus_key", {"bogus_key": 1}),
        ("depths", {**small, "depths": [1.7, 2]}),
        ("depths", {**small, "depths": [True, 2]}),
        ("epochs", {**small, "epochs": "3"}),
        ("hidden", {**small, "hidden": 2.5}),
        ("bidirectional", {**small, "bidirectional": "no"}),
        ("restarts", {**small, "restarts": True}),
        ("learning rate", {**small, "learning_rate": float("nan")}),
        ("learning rate", {**small, "learning_rate": float("inf")}),
        ("seed", {**small, "seed": -1}),
        ("eval_pairs", {**small, "eval_pairs": 0}),
        ("pairs", {**small, "pairs": 0}),
        ("seq_len", {**small, "seq_len": 0}),
        ("payload_vocab", {**small, "payload_vocab": 1}),
        ("batch_size", {**small, "batch_size": 0}),
        ("restarts", {**small, "restarts": 0}),
        ("depths", {**small, "depths": [0, 1]}),
    ):
        cfg.write_text(json.dumps(config))
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2, config
        assert not out.exists()
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err, err


def test_sweep_checks_every_model_config_before_any_corpus(tmp_path, capsys, monkeypatch):
    def no_corpus(*args, **kwargs):
        raise AssertionError("gen_task ran before the config was checked")

    monkeypatch.setattr(cli, "gen_task", no_corpus)
    out = tmp_path / "out"
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"bidirectional": 1}))
    for flags, field in (
        (["--hidden", "0"], "hidden"),
        (["--hidden", str(MAX_HIDDEN + 1)], "hidden"),
        (["--pairs", str(MAX_PAIRS), "--hidden", "0"], "hidden"),
        (["--depths", f"1,{MAX_DEPTH + 1}"], "depths[1]"),
        (["--depths", "2,1"], "depths"),
        (["--payload-vocab", "1"], "payload_vocab"),
        (["--config", str(cfg)], "bidirectional"),
    ):
        assert run(["sweep", *flags, "--out", str(out)]) == 2, flags
        _one_line_error(capsys, field)
        assert not out.exists()
    with pytest.raises(DomainError, match="null sweep starts at depth 1"):
        cli.run_sweep({**SWEEP_DEFAULTS, "depths": [2, 5]}, null=True)


def test_train_checks_every_model_value_before_reading_the_corpus(tmp_path, capsys, monkeypatch):
    def no_corpus(*args, **kwargs):
        raise AssertionError("load_corpus ran before the model config was checked")

    monkeypatch.setattr(cli, "load_corpus", no_corpus)
    out = tmp_path / "run"
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"bidirectional": 1}))
    for flags, field in (
        (["--hidden", "0"], "hidden"),
        (["--hidden", str(MAX_HIDDEN + 1)], "hidden"),
        (["--depth", "0"], "depth"),
        (["--depth", str(MAX_DEPTH + 1)], "depth"),
        (["--config", str(cfg)], "bidirectional"),
    ):
        assert run(["train", "--corpus", "c.jsonl", *flags, "--out", str(out)]) == 2, flags
        _one_line_error(capsys, field)
        assert not out.exists()


def test_train_rejects_bad_config_before_writing_outputs(tmp_path, capsys):
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    for field, config in (
        ("epochs", {"epochs": "3"}),
        ("depth", {"depth": 2.0}),
        ("learning rate", {"learning_rate": float("nan")}),
        ("hidden", {"hidden": 99999999999}),
    ):
        cfg.write_text(json.dumps(config))
        code = run(["train", "--corpus", str(corpus_path), "--out", str(out), "--config", str(cfg)])
        assert code == 2, config
        assert not out.exists()
        assert field in capsys.readouterr().err


def _one_line_error(capsys, *names):
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1, err
    assert err.startswith("error: ") and all(str(n) in err for n in names), err


def test_unreadable_inputs_exit_cleanly(tmp_path, capsys):
    """Non-UTF-8 configs and corpora, and a directory as config, exit 2 naming the path."""
    out = tmp_path / "out"
    bad_config = tmp_path / "bad.json"
    bad_config.write_bytes(bytes([0xFF, 0xFE, 0x7B, 0x7D]))
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    lines = corpus_path.read_bytes().splitlines(keepends=True)
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_bytes(lines[0] + b"\xff" + lines[1] + b"".join(lines[2:]))
    for argv, name in (
        (["sweep", "--config", str(bad_config), "--out", str(out)], bad_config),
        (["sweep", "--config", str(tmp_path), "--out", str(out)], tmp_path),
        (["train", "--corpus", str(corpus_path), "--config", str(bad_config), "--out", str(out)],
         bad_config),
        (["train", "--corpus", str(bad_corpus), "--out", str(out)], bad_corpus),
        (["eval", "--generated", str(bad_corpus), "--gold", str(corpus_path)], bad_corpus),
        (["eval", "--generated", str(corpus_path), "--gold", str(bad_corpus)], bad_corpus),
    ):
        assert run(argv) == 2, argv
        _one_line_error(capsys, name)
        assert not out.exists()


def test_oversized_sizes_exit_2_naming_the_field(tmp_path, capsys, monkeypatch):
    """Sizes and loop counts past their caps exit 2 before numpy sees them: no
    random draw, so no loop, starts."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    out = tmp_path / "out"
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    big_vocab = tmp_path / "big_vocab.jsonl"
    lines = corpus_path.read_text().splitlines(keepends=True)
    big_vocab.write_text(json.dumps({"vocab": 10**30, "task": "copy"}) + "\n" + "".join(lines[1:]))
    gendata = ["gendata", "--task", "copy", "--pairs", "2", "--out", str(out)]
    monkeypatch.setattr(np.random, "default_rng", no_work)
    for argv, name in (
        (["train", "--corpus", str(big_vocab), "--out", str(out)], "vocab"),
        (["train", "--corpus", str(corpus_path), "--out", str(out), "--depth", str(10**30)], "depth"),
        ([*gendata, "--seq-len", str(10**30)], "seq_len"),
        ([*gendata, "--payload-vocab", str(10**29)], "payload_vocab"),
        (["verify", "--max-depth", str(10**30)], "max_depth"),
        (["verify", "--trials", str(10**30)], "trials"),
        (["verify", "--reduction-instances", str(MAX_REDUCTION_INSTANCES + 1)],
         "reduction_instances"),
        (["gradcheck", "--instances", str(MAX_GRADCHECK_INSTANCES + 1)], "instances"),
        ([*gendata, "--pairs", str(MAX_PAIRS + 1)], "error: pairs"),
        (["sweep", "--pairs", str(MAX_PAIRS + 1), "--out", str(out)], "error: pairs"),
        (["sweep", "--eval-pairs", str(MAX_PAIRS + 1), "--out", str(out)], "error: eval_pairs"),
        # each size is under its own cap, their product is not; the eval corpus is refused
        # before the train corpus is made
        ([*gendata, "--pairs", str(MAX_PAIRS), "--seq-len", str(MAX_SEQ_LEN)], "error: pairs x seq_len"),
        (["sweep", "--pairs", "2", "--eval-pairs", str(MAX_PAIRS), "--seq-len", str(MAX_SEQ_LEN),
          "--out", str(out)], "error: eval_pairs x seq_len"),
    ):
        assert run(argv) == 2, argv
        _one_line_error(capsys, name)
        assert not out.exists()


def test_verify_report_matches_committed_golden(tmp_path, capsys):
    """A small verify report, byte for byte: it moves with any change to the
    attention arithmetic. Regenerate it with the command this test runs and
    record the move in CHANGES.md."""
    out = tmp_path / "verify.json"
    assert run(["verify", "--trials", "500", "--reduction-instances", "100", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify_small.json").read_bytes()


def test_verify_bench_report_matches_committed_digest(tmp_path, capsys):
    """The benchmark's verify report (10,000 trials, 1,000 reduction instances, seed 0),
    pinned by its sha256: shape groups and chunks of this size do not occur in
    verify_small.json. Regenerate it with the command this test runs and record the move
    in CHANGES.md."""
    out = tmp_path / "verify.json"
    assert run(["verify", "--trials", "10000", "--seed", "0", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == (GOLDEN / "verify_bench.sha256").read_text().strip()


def test_out_that_is_a_file_is_rejected_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(cli, "depth_sweep", no_training)
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "sub"):
        for argv in (["train", "--corpus", str(corpus_path), "--out", str(out)],
                     ["sweep", "--out", str(out)]):
            assert run(argv) == 2, argv
            _one_line_error(capsys, out)
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("command", ["verify", "gendata", "eval"])
def test_out_file_is_checked_before_any_work(command, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 2, 3, 5, seed=0), corpus_path)
    work, argv = {
        "verify": ("verify_report", ["verify", "--trials", "1", "--reduction-instances", "1"]),
        "gendata": ("gen_task", ["gendata", "--task", "copy", "--pairs", "2"]),
        "eval": ("load_corpus", ["eval", "--generated", str(corpus_path), "--gold", str(corpus_path)]),
    }[command]
    monkeypatch.setattr(cli, work, no_work)
    for out in (tmp_path, tmp_path / "missing" / "out.json"):
        assert run(argv + ["--out", str(out)]) == 2, out
        _one_line_error(capsys, out)
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["verify", "gendata"])
def test_a_failed_write_exits_2_with_one_line(command, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.json"
    writer, argv, carried = {
        "verify": ("_write_json", ["verify", "--trials", "1", "--reduction-instances", "1"], None),
        "gendata": ("save_corpus", ["gendata", "--task", "copy", "--pairs", "2"], str(out)),
    }[command]

    def full_disk(payload, path):
        raise OSError(errno.ENOSPC, "No space left on device", carried)

    monkeypatch.setattr(cli, writer, full_disk)
    assert run(argv + ["--out", str(out)]) == 2
    # the line names the path when the error carries one
    _one_line_error(capsys, "No space left on device", *([carried] if carried else []))


def test_oversized_hidden_exits_2_without_allocating(tmp_path, capsys, monkeypatch):
    corpus_path = tmp_path / "task.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    out = tmp_path / "run"
    assert run(["train", "--corpus", str(corpus_path), "--out", str(out),
                "--hidden", "99999999999"]) == 2
    _one_line_error(capsys, "hidden")
    assert not out.exists()

    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "gen_task", refused)
    assert run(["gendata", "--task", "copy", "--pairs", "2", "--out", str(tmp_path / "c")]) == 2
    _one_line_error(capsys, "out of memory", "8.00 TiB")


def _flag_override(key, default):
    """A flag spelling of a value other than ``default``, and that value."""
    if isinstance(default, bool):
        return [f"--{'no-' if default else ''}{key.replace('_', '-')}"], not default
    if isinstance(default, list):
        value = default + [default[-1] + 1]
        text = ",".join(map(str, value))
    elif isinstance(default, str):
        value = next(c for c in cli._CHOICES[key] if c != default)
        text = value
    else:
        value = default * 2 if isinstance(default, float) else default + 1
        text = str(value)
    return [f"--{key.replace('_', '-')}", text], value


# command -> (default table, required flags, its flags that set no table key)
FLAG_COMMANDS = {
    "verify": (cli._VERIFY_DEFAULTS, [], {"help", "out"}),
    "gradcheck": (cli._GRADCHECK_DEFAULTS, [], {"help"}),
    "gendata": (
        cli._GENDATA_DEFAULTS,
        ["--task", "copy", "--pairs", "1", "--out", "o"],
        {"help", "task", "pairs", "out"},
    ),
    "train": (
        TRAIN_DEFAULTS,
        ["--corpus", "c.jsonl", "--out", "o"],
        {"help", "corpus", "out", "config", "emit_generations"},
    ),
    "sweep": (SWEEP_DEFAULTS, ["--out", "o"], {"help", "out", "config", "record_timing"}),
}
# the commands that read a JSON config file
CONFIG_COMMANDS = {command: FLAG_COMMANDS[command] for command in ("train", "sweep")}


@pytest.mark.parametrize("command", sorted(FLAG_COMMANDS))
def test_config_flags_are_the_default_table(command, tmp_path):
    """Each default-table key has one flag, which overrides the default and the file's value."""
    defaults, required, other = FLAG_COMMANDS[command]
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions if a.option_strings}
    assert dests == set(defaults) | other
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(defaults))
    config_path = str(cfg) if command in CONFIG_COMMANDS else None
    assert _merge_config(defaults, None, parser.parse_args([command, *required])) == defaults
    for key, default in defaults.items():
        flag, value = _flag_override(key, default)
        args = parser.parse_args([command, *required, *flag])
        assert getattr(args, key) == value != default, key
        assert _merge_config(defaults, config_path, args)[key] == value, key


def test_flag_tables_keep_their_defaults():
    """The tables of the commands without a config file, key order included, as
    they were when each flag was written out by hand; the scales in their order."""
    assert list(cli._VERIFY_DEFAULTS.items()) == [
        ("trials", 10_000), ("seed", 0), ("max_depth", 10), ("reduction_instances", 1_000),
    ]
    assert list(cli._GRADCHECK_DEFAULTS.items()) == [("scale", "tiny"), ("seed", 0), ("instances", 30)]
    assert list(cli._GENDATA_DEFAULTS.items()) == [("seq_len", 6), ("payload_vocab", 8), ("seed", 0)]
    assert cli._CHOICES["scale"] == ("tiny", "small")
    tables = (cli._VERIFY_DEFAULTS, cli._GRADCHECK_DEFAULTS, cli._GENDATA_DEFAULTS)
    assert all(type(v) in (int, str) for table in tables for v in table.values())  # no float 1e4


FUZZ_BASE = {"pairs": 4, "eval_pairs": 2, "epochs": 1, "restarts": 1, "depths": [1], "hidden": 3}
VALUES_BY_TYPE = {
    int: st.integers(-2, 6),
    float: st.floats(),
    bool: st.booleans(),
    str: st.sampled_from([*TASKS, *OPTIMIZERS]) | st.text(max_size=4),
    list: st.lists(st.integers(-2, 6), max_size=3),
}
CONFIG_VALUES = st.one_of(*VALUES_BY_TYPE.values(), st.none())


def _fuzz_configs(defaults):
    """Three values in four have their key's type, so range checks and runs are reached too."""

    def entry(key):
        typed = VALUES_BY_TYPE.get(type(defaults.get(key)), st.none())
        value = st.integers(0, 3).flatmap(lambda i: typed if i else CONFIG_VALUES)
        return st.tuples(st.just(key), value)

    keys = st.sampled_from([*defaults, "not_a_key"])
    return st.lists(keys.flatmap(entry), max_size=3).map(dict)


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_config_exits_cleanly(command, data):
    """Any config file ends in exit 0, 1 or 2, never a traceback; exit 2 writes nothing."""
    defaults = CONFIG_COMMANDS[command][0]
    drawn = data.draw(_fuzz_configs(defaults), label="config")
    base = {k: v for k, v in FUZZ_BASE.items() if k in defaults}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps({**base, **drawn}))
        out = tmp / "out"
        argv = [command, "--config", str(tmp / "cfg.json"), "--out", str(out)]
        if command == "train":
            save_corpus(gen_task("copy", 4, 3, 5, seed=0), tmp / "c.jsonl")
            argv += ["--corpus", str(tmp / "c.jsonl")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out.exists(), err.getvalue()


# JSON values of another type than a default of this type
WRONG_TYPES = {
    int: ["3", 2.5, None, True],
    float: ["0.1", None, True],
    bool: [1, "yes", None],
    str: [1, None, ["copy"]],
    list: [1, None, [1.5]],
}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_every_config_key_checks_its_value(command, tmp_path, capsys):
    """A value of the wrong JSON type for any default-table key, or a number
    below its range, exits 2 with one line naming the key and its value
    before anything is written."""
    defaults = CONFIG_COMMANDS[command][0]
    base = {k: v for k, v in FUZZ_BASE.items() if k in defaults}
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "train":
        save_corpus(gen_task("copy", 4, 3, 5, seed=0), tmp_path / "c.jsonl")
        argv += ["--corpus", str(tmp_path / "c.jsonl")]
    for key, default in defaults.items():
        below = [-1] if type(default) in (int, float) else []
        for value in WRONG_TYPES[type(default)] + below:
            cfg.write_text(json.dumps({**base, key: value}))
            assert run(argv) == 2, (key, value)
            # a list's message names the element it refuses
            _one_line_error(capsys, key, *([] if isinstance(value, list) else [repr(value)]))
            assert not out.exists()


def _flag_argv(command, tmp_path):
    """A command line of ``command`` that passes its required flags and writes to tmp_path / "out"."""
    out = str(tmp_path / "out")
    corpus_path = tmp_path / "c.jsonl"
    save_corpus(gen_task("copy", 4, 3, 5, seed=0), corpus_path)
    return {
        "verify": ["verify", "--out", out],
        "gradcheck": ["gradcheck"],
        "gendata": ["gendata", "--task", "copy", "--pairs", "1", "--out", out],
        "train": ["train", "--corpus", str(corpus_path), "--out", out],
        "sweep": ["sweep", "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["verify", "gradcheck", "gendata", "train", "sweep"])
def test_negative_seed_flag_is_a_usage_error(command, tmp_path, capsys):
    """The library's seed check, not argparse, refuses it: one line, as from a config file."""
    assert run([*_flag_argv(command, tmp_path), "--seed", "-1"]) == 2
    _one_line_error(capsys, "error: seed ", "got -1")
    assert not (tmp_path / "out").exists()


# command -> {integer flag key: (the name its message starts with, lowest value, cap or None)}
INTEGER_FLAGS = {
    "verify": {
        "trials": ("trials", 1, MAX_TRIALS),
        "seed": ("seed", 0, None),
        "max_depth": ("max_depth", 1, MAX_DEPTH),
        "reduction_instances": ("reduction_instances", 1, MAX_REDUCTION_INSTANCES),
    },
    "gradcheck": {"seed": ("seed", 0, None), "instances": ("instances", 1, MAX_GRADCHECK_INSTANCES)},
    "gendata": {
        "pairs": ("pairs", 1, MAX_PAIRS),
        "seq_len": ("seq_len", 1, MAX_SEQ_LEN),
        "payload_vocab": ("payload_vocab", 2, MAX_VOCAB - NUM_RESERVED),
        "seed": ("seed", 0, None),
    },
    "train": {
        "depth": ("ham_depth", 1, MAX_DEPTH),
        "epochs": ("epochs", 1, MAX_EPOCHS),
        "batch_size": ("batch_size", 1, None),
        "seed": ("seed", 0, None),
        "hidden": ("hidden", 1, MAX_HIDDEN),
    },
    "sweep": {
        "pairs": ("pairs", 1, MAX_PAIRS),
        "seq_len": ("seq_len", 1, MAX_SEQ_LEN),
        "payload_vocab": ("payload_vocab", 2, MAX_VOCAB - NUM_RESERVED),
        "eval_pairs": ("eval_pairs", 1, MAX_PAIRS),
        "depths": ("depths[0]", 1, MAX_DEPTH),
        "restarts": ("restarts", 1, MAX_RESTARTS),
        "epochs": ("epochs", 1, MAX_EPOCHS),
        "batch_size": ("batch_size", 1, None),
        "seed": ("seed", 0, None),
        "hidden": ("hidden", 1, MAX_HIDDEN),
    },
}


@pytest.mark.parametrize("command", sorted(INTEGER_FLAGS))
def test_integer_flag_out_of_range_exits_2_naming_the_field(command, tmp_path, capsys, monkeypatch):
    """Every integer flag is range-checked once, by the library: a value below
    its range or above its cap exits 2 with the one line a config file's value
    gets, before any training or output."""

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(importlib.import_module("hamattn.train"), "train", no_training)
    defaults = FLAG_COMMANDS[command][0]
    int_keys = {k for k, v in defaults.items() if type(v) is int or type(v) is list}
    assert set(INTEGER_FLAGS[command]) == int_keys | ({"pairs"} if command == "gendata" else set())
    argv = _flag_argv(command, tmp_path)
    for key, (name, lo, hi) in INTEGER_FLAGS[command].items():
        for value in (lo - 1, *(() if hi is None else (hi + 1,))):
            assert run([*argv, "--" + key.replace("_", "-"), str(value)]) == 2, (key, value)
            _one_line_error(capsys, f"error: {name} ", f"got {value}")
            assert not (tmp_path / "out").exists()


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hamattn", "verify", "--trials", "50",
         "--max-depth", "3", "--reduction-instances", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verify: PASS" in proc.stdout
