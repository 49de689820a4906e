"""Command-line entry point: one binary, subcommand per workflow.

Subcommands: verify, gradcheck, train, sweep, eval, gendata. Exit codes are
uniform: 0 success, 1 check failure, 2 usage or config error or a failed read
or write (one ``error:`` line; for a file error it names the file). The value
flags of each command come from one defaults table, whose values are the
library's (verify_report's and gradcheck_table's keywords, TrainConfig and
ModelConfig; gendata takes SWEEP_DEFAULTS'). Train and sweep also read an
optional JSON config whose every key a flag can override. The CLI only
parses: argparse types each flag, and a config file must hold an object of
known keys. Each value is checked once, by the library code that uses it,
before anything is written, and train's model config and the sweep's plan
before any corpus is read or made. So a bad flag or config value exits 2
with one line naming it and produces no partial outputs.

All randomness flows from one root seed: a sweep's train corpus uses it, the
held-out corpus root+1, and the cells the fan-out of ``train.sweep_plan``.
"""

import argparse
import inspect
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .checks import _SCALES, gradcheck_table, verify_report
from .data import Corpus, NUM_RESERVED, TASKS, check_corpus_size, gen_task, load_corpus, read_json
from .data import save_corpus, task_vocab, write_text
from .errors import CorpusError, DomainError, TrainingDiverged
from .evaluate import evaluate_pairs, evaluate_quatrains
from .model import ModelConfig, Seq2SeqModel, generate, save_checkpoint
from .train import OPTIMIZERS, TrainConfig, depth_sweep, sweep_plan, train, write_sweep_csv

# The defaults train and sweep share with the library: TrainConfig's and ModelConfig's.
_SHARED_DEFAULTS = {
    "learning_rate": TrainConfig.learning_rate,
    "batch_size": TrainConfig.batch_size,
    "optimizer": TrainConfig.optimizer,
    "seed": TrainConfig.seed,
    "hidden": ModelConfig.hidden,
    "bidirectional": ModelConfig.bidirectional,
}

TRAIN_DEFAULTS = {"depth": ModelConfig.ham_depth, "epochs": 100, **_SHARED_DEFAULTS}

SWEEP_DEFAULTS = {
    "task": "copy",
    "pairs": 512,
    "seq_len": 6,
    "payload_vocab": 8,
    "eval_pairs": 64,
    "depths": [1, 2, 5],
    "restarts": 5,
    "epochs": 200,
    **_SHARED_DEFAULTS,
}


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from e


# The tables of the commands without a config file: the library's own defaults.
_VERIFY_DEFAULTS, _GRADCHECK_DEFAULTS = (
    {key: p.default for key, p in inspect.signature(fn).parameters.items()}
    for fn in (verify_report, gradcheck_table)
)
_GENDATA_DEFAULTS = {key: SWEEP_DEFAULTS[key] for key in ("seq_len", "payload_vocab", "seed")}
_CHOICES = {"task": TASKS, "optimizer": OPTIMIZERS, "scale": tuple(_SCALES)}


def _flag_options(key: str, default) -> dict:
    """argparse keywords of a table key's ``--key-name`` flag: its type, not its range."""
    if key in _CHOICES:
        return {"choices": _CHOICES[key]}
    if isinstance(default, bool):
        return {"action": argparse.BooleanOptionalAction}
    if isinstance(default, list):
        return {"type": _int_list}
    return {"type": type(default)}


def _add_config_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    for key, default in defaults.items():
        parser.add_argument("--" + key.replace("_", "-"), **_flag_options(key, default))


def _merge_config(defaults: dict, config_path, args) -> dict:
    """defaults < JSON config file (if any) < explicitly passed flags.

    The file must hold a JSON object of known keys. Values from the file and
    the flags alike are checked where they are used -- by verify_report,
    gradcheck_table, TrainConfig, ModelConfig, gen_task and sweep_plan --
    all before a command writes anything.
    """
    cfg = dict(defaults)
    if config_path:
        loaded = read_json(config_path)
        if not isinstance(loaded, dict):
            raise DomainError(f"config file must hold a JSON object: {config_path}")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise DomainError(f"unknown config keys {unknown}; known: {sorted(defaults)}")
        cfg.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig a merged config describes; keys it lacks keep their defaults."""
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name in cfg})


def _out_dir(path) -> Path:
    """``--out`` as a Path, checked before any training.

    It must be a directory, or not exist yet below one. Nothing is made
    here, so a run rejected later still writes nothing.
    """
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise DomainError(f"--out {out}: {existing} exists and is not a directory")
    return out


def _out_file(path):
    """A file ``--out`` as a Path (None if not given), checked before any work.

    It must not be a directory, and its parent must be one.
    """
    if path is None:
        return None
    out = Path(path)
    if out.is_dir():
        raise DomainError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise DomainError(f"--out {out}: {out.parent} is not an existing directory")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    out = _out_file(args.out)
    report, passed = verify_report(**_merge_config(_VERIFY_DEFAULTS, None, args))
    if out:
        write_text(out, [json.dumps(report, indent=2) + "\n"])
    nb = report["norm_bounds"]
    print(
        f"norm bounds: {nb['upper_violations']} upper-bound violations over "
        f"{nb['trials']} trials x {nb['max_depth']} levels "
        f"({nb['lower_violations']} lower-bound violations observed, as expected)"
    )
    ce = nb["lower_bound_counterexample"]
    print(
        "note: the lower bound fails in general; with key columns "
        f"{ce['K_columns']} and query {ce['q']} the output norm is "
        f"{ce['output_norm']:g} < min key norm {ce['min_key_norm']:g}"
    )
    red = report["reductions"]
    print(
        f"reductions: one-hot max err {red['ham_v_onehot_max_err']:.3e} (ham_v) / "
        f"{red['ham_s_onehot_max_err']:.3e} (ham_s), d=1 max err "
        f"{red['ham_v_d1_max_err']:.3e} / {red['ham_s_d1_max_err']:.3e}"
    )
    for name, entry in report["properties"].items():
        status = "ok" if entry["passed"] else "FAIL"
        print(f"property {name}: max err {entry['max_err']:.3e} [{status}]")
    print("verify: PASS" if passed else "verify: FAIL")
    return 0 if passed else 1


def cmd_gradcheck(args) -> int:
    rows = gradcheck_table(**_merge_config(_GRADCHECK_DEFAULTS, None, args))
    width = max(len(r["name"]) for r in rows)
    failures = []
    for r in rows:
        status = "ok" if r["passed"] else "FAIL"
        print(f"{r['name']:<{width}}  max rel err {r['max_err']:.3e}  (< {r['threshold']:.0e})  [{status}]")
        if not r["passed"]:
            failures.append(r)
    for r in failures:
        print(f"gradcheck failure: op {r['name']} at variable {r['worst'][0]}, coordinate {r['worst'][1]}")
    return 0 if not failures else 1


def cmd_gendata(args) -> int:
    out = _out_file(args.out)
    cfg = _merge_config(_GENDATA_DEFAULTS, None, args)
    corpus = gen_task(args.task, args.pairs, cfg["seq_len"], cfg["payload_vocab"], cfg["seed"])
    save_corpus(corpus, out)
    print(f"wrote {len(corpus) + 1} lines (header + {len(corpus)} pairs) to {out}")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args.out)
    cfg = _merge_config(TRAIN_DEFAULTS, args.config, args)
    train_config = _train_config(cfg)
    # checked before the corpus is read, at the smallest vocab ModelConfig takes
    model_config = ModelConfig(NUM_RESERVED + 1, cfg["hidden"], cfg["depth"], cfg["bidirectional"])
    corpus = load_corpus(args.corpus)
    if len(corpus) == 0:
        raise DomainError(f"corpus {args.corpus} holds no pairs")
    model_config = replace(model_config, vocab_size=corpus.vocab_size)  # checks the vocab
    model = Seq2SeqModel(model_config, np.random.default_rng(cfg["seed"]))
    model, losses = train(model, corpus, train_config)

    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.json")
    rows = (f"{epoch},{loss!r}\n" for epoch, loss in enumerate(losses))
    write_text(out / "losses.csv", ["epoch,loss\n", *rows])
    if args.emit_generations:
        gen_pairs = [
            (src, generate(src, model, max_len=len(tgt) + 2)) for src, tgt in corpus.pairs
        ]
        save_corpus(
            Corpus(corpus.vocab_size, gen_pairs, task=corpus.task, strict=False),
            out / "generations.jsonl",
        )
    print(f"trained {cfg['epochs']} epochs, final loss {losses[-1]:.6f}; outputs in {out}")
    return 0


def run_sweep(cfgs, null: bool = False):
    """Run the sweeps a list of ``SWEEP_DEFAULTS``-shaped dicts describes and
    return one (records, summary) per dict. Every dict's eval corpus size is
    checked and its ``sweep_plan`` built before any corpus is made; then each
    sweep's train corpus is made from its root seed and its held-out corpus
    from root+1, and one ``depth_sweep`` call trains every cell in one pool.
    ``hamattn sweep`` and acceptance criterion 5 pass one dict, the null sweep
    one per root, so the band and the criterion are measured on one protocol."""
    plans = []
    for cfg in cfgs:
        check_corpus_size(cfg["eval_pairs"], cfg["seq_len"], "eval_pairs")  # before the train corpus
        train_config = _train_config(cfg)
        vocab = task_vocab(cfg["payload_vocab"])
        plans.append(sweep_plan(vocab, cfg["depths"], train_config, cfg["hidden"], cfg["bidirectional"], null))
    sweeps = [
        (
            gen_task(cfg["task"], cfg["pairs"], cfg["seq_len"], cfg["payload_vocab"], cfg["seed"]),
            gen_task(cfg["task"], cfg["eval_pairs"], cfg["seq_len"], cfg["payload_vocab"], cfg["seed"] + 1),
            plan,
        )
        for cfg, plan in zip(cfgs, plans)
    ]
    return depth_sweep(sweeps)


def cmd_sweep(args) -> int:
    out = _out_dir(args.out)
    cfg = _merge_config(SWEEP_DEFAULTS, args.config, args)
    [(records, summary)] = run_sweep([cfg])

    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(records, out / "sweep.csv")
    payload = {**summary, "config": cfg, "records": [asdict(r) for r in records]}
    write_text(out / "sweep_summary.json", [json.dumps(payload, indent=2) + "\n"])
    for depth in summary["depths"]:
        print(f"depth {depth}: best final loss {summary['best_loss'][str(depth)]:.6f}")
    verdict = summary["monotone_within_tolerance"]
    print(f"monotone within {summary['tolerance']:.0%} tolerance: {verdict}")
    return 0 if verdict else 1


def cmd_eval(args) -> int:
    out = _out_file(args.out)
    gold = load_corpus(args.gold)
    generated = load_corpus(args.generated, strict=False)
    gen_targets = [tgt for _, tgt in generated.pairs]
    gold_targets = [tgt for _, tgt in gold.pairs]
    if args.quatrains:
        report = evaluate_quatrains(gen_targets, gold_targets)
    else:
        report = evaluate_pairs(gen_targets, gold_targets)
    text = report.to_json()
    if out:
        write_text(out, [text])
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamattn",
        description="hierarchical attention library: verification suites, training and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run norm-bound, reduction and distribution suites")
    _add_config_flags(p, _VERIFY_DEFAULTS)
    p.add_argument("--out", help="write the full JSON report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op the library differentiates")
    _add_config_flags(p, _GRADCHECK_DEFAULTS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gendata", help="generate a synthetic task corpus")
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--pairs", type=int, required=True)
    _add_config_flags(p, _GENDATA_DEFAULTS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gendata)

    p = sub.add_parser("train", help="train one model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config; flags override its keys")
    _add_config_flags(p, TRAIN_DEFAULTS)
    p.add_argument("--emit-generations", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="depth sweep with restarts under one budget")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config; flags override its keys")
    _add_config_flags(p, SWEEP_DEFAULTS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="score a generated corpus against a gold corpus")
    p.add_argument("--generated", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--quatrains", action="store_true", help="use the 4-line continuation protocol")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DomainError, CorpusError, OSError) as e:  # OSError: mkdir's and stat's, which name the file
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # backstop: sizes are capped where they are read, but numpy may still
        # refuse an allocation on a small host
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
