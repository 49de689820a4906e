"""Synthetic sequence tasks, vocabulary conventions and corpus file I/O.

Token ids 0..2 are reserved in every vocabulary (PAD, BOS, EOS) and never
appear inside payloads. Corpora are stored as JSONL: a header line
``{"vocab": V, "task": tag}`` followed by one ``{"src": [...], "tgt": [...]}``
object per pair, so files stay line-oriented and diff-able.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusError, DomainError, check_int

PAD, BOS, EOS = 0, 1, 2
NUM_RESERVED = 3

TASKS = ("copy", "reverse", "sort")

# Largest vocabulary and sequence length a user may give (corpus header,
# gendata, sweep). The model's two vocab x hidden matrices take 512 MiB at
# MAX_VOCAB and MAX_HIDDEN; far beyond, numpy would refuse with a traceback.
MAX_VOCAB = 65_536
MAX_SEQ_LEN = 4_096
# Largest gendata --pairs, and a sweep's pairs and eval_pairs: about 15 s and
# 0.3 GB at the default seq_len 6.
MAX_PAIRS = 1_000_000
# Largest pairs x seq_len of one corpus: about 3 s and 150 MB. It admits
# MAX_PAIRS at seq_len 6, not MAX_PAIRS at MAX_SEQ_LEN (about 61 GB).
MAX_TOKENS = 10_000_000


def read_text(path) -> str:
    """The UTF-8 text of a file a user named.

    Any failure to read it (missing, a directory, not UTF-8, ...) raises a
    :class:`DomainError` whose one-line message names the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise DomainError(
            f"{path} is not UTF-8 text (byte 0x{e.object[e.start]:02x} at offset {e.start})"
        ) from e
    except OSError as e:
        raise DomainError(f"cannot read {path}: {e.strerror or e}") from e


def read_json(path):
    """The JSON value in a file a user named, read by :func:`read_text`; malformed
    JSON raises a :class:`DomainError` naming the path and the parser's position."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise DomainError(f"{path}: line {e.lineno} column {e.colno}: malformed JSON ({e.msg})") from e


def write_text(path, parts) -> None:
    """Write the strings ``parts`` to a file a user named, as UTF-8. A failure (a full
    disk, no permission, ...) raises a :class:`DomainError` naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(parts)
    except OSError as e:
        raise DomainError(f"cannot write {path}: {e.strerror or e}") from e


def _pair_problem(src, tgt, vocab_size: int, strict: bool):
    """What is wrong with one (src, tgt) token pair, or None if nothing is.

    Sources are never empty and every id lies in [0, vocab_size). A strict
    pair (a training corpus) also has a non-empty target and no reserved ids.
    """
    for name, seq in (("src", src), ("tgt", tgt)):
        if not seq and (strict or name == "src"):
            return f"empty {name} sequence"
        for tok in seq:
            if not 0 <= tok < vocab_size:
                return f"{name} id {tok} outside vocab [0, {vocab_size})"
            if strict and tok < NUM_RESERVED:
                return f"reserved id {tok} inside a {name} payload"
    return None


@dataclass
class Corpus:
    vocab_size: int
    pairs: list = field(default_factory=list)
    task: str = "file"
    # model outputs written for evaluation may contain reserved ids; training
    # corpora never do
    strict: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_int("vocab_size", self.vocab_size, NUM_RESERVED)
        for i, (src, tgt) in enumerate(self.pairs):
            problem = _pair_problem(src, tgt, self.vocab_size, self.strict)
            if problem:
                raise DomainError(f"pair {i}: {problem}")

    def __len__(self) -> int:
        return len(self.pairs)


def check_corpus_size(n_pairs: int, seq_len: int, name: str = "pairs") -> None:
    """Reject a corpus of ``n_pairs`` pairs of length ``seq_len`` past the caps
    before any of it is made; ``name`` names the pair count in the message."""
    check_int("seq_len", seq_len, 1, MAX_SEQ_LEN)
    check_int(name, n_pairs, 1, MAX_PAIRS)
    if n_pairs * seq_len > MAX_TOKENS:
        raise DomainError(f"{name} x seq_len must be at most {MAX_TOKENS} tokens, got {n_pairs} x {seq_len}")


def task_vocab(payload_vocab: int) -> int:
    """The vocabulary size of a generated corpus with ``payload_vocab`` payload ids."""
    return NUM_RESERVED + check_int("payload_vocab", payload_vocab, 2, MAX_VOCAB - NUM_RESERVED)


def gen_task(task: str, n_pairs: int, seq_len: int, payload_vocab: int, seed: int) -> Corpus:
    """Generate a deterministic copy / reverse / sort corpus.

    Payload ids are drawn uniformly from the ``payload_vocab`` ids following
    the reserved range; the target is the source transformed per task.
    """
    if task not in TASKS:
        raise DomainError(f"unknown task {task!r}, expected one of {TASKS}")
    vocab = task_vocab(payload_vocab)
    check_corpus_size(n_pairs, seq_len)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    pairs = []
    for _ in range(n_pairs):
        src = [int(t) for t in rng.integers(NUM_RESERVED, vocab, seq_len)]
        if task == "copy":
            tgt = list(src)
        elif task == "reverse":
            tgt = src[::-1]
        else:
            tgt = sorted(src)
        pairs.append((src, tgt))
    return Corpus(vocab_size=vocab, pairs=pairs, task=task)


def save_corpus(corpus: Corpus, path) -> None:
    header = {"vocab": corpus.vocab_size, "task": corpus.task}
    pairs = ({"src": src, "tgt": tgt} for src, tgt in corpus.pairs)
    write_text(path, (json.dumps(obj) + "\n" for obj in itertools.chain([header], pairs)))


def _int_list(value, line_no: int, key: str) -> list:
    if not isinstance(value, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in value
    ):
        raise CorpusError(f"line {line_no}: {key!r} must be a list of integer token ids")
    return list(value)


def load_corpus(path, strict: bool = True) -> Corpus:
    """Parse a JSONL corpus, validating every line; errors read ``<path>: line N: ...``.

    Each pair is checked once, as its line is read, so the first bad line in
    file order is the one reported. ``strict=False`` permits reserved ids
    inside payloads, for files holding raw model generations.
    """
    lines = read_text(path).splitlines()
    if not lines or all(not ln.strip() for ln in lines):
        return Corpus(vocab_size=NUM_RESERVED, pairs=[], task="file")
    try:
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as e:
            raise CorpusError(f"line 1: malformed JSON header ({e.msg})") from e
        if not isinstance(header, dict) or "vocab" not in header:
            raise CorpusError("line 1: header must be an object with a 'vocab' key")
        try:
            vocab = check_int("vocab", header["vocab"], NUM_RESERVED, MAX_VOCAB)
        except DomainError as e:
            raise CorpusError(f"line 1: {e}") from e
        task = header.get("task", "file")
        pairs = []
        for line_no, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as e:
                raise CorpusError(f"line {line_no}: malformed JSON ({e.msg})") from e
            if not isinstance(obj, dict) or "src" not in obj or "tgt" not in obj:
                raise CorpusError(f"line {line_no}: expected an object with 'src' and 'tgt'")
            src = _int_list(obj["src"], line_no, "src")
            tgt = _int_list(obj["tgt"], line_no, "tgt")
            problem = _pair_problem(src, tgt, vocab, strict)
            if problem:
                raise CorpusError(f"line {line_no}: {problem}")
            pairs.append((src, tgt))
    except CorpusError as e:
        raise CorpusError(f"{path}: {e}") from e
    corpus = Corpus(vocab_size=vocab, task=task, strict=strict)
    corpus.pairs = pairs  # checked line by line above; Corpus() would check them again
    return corpus
