"""Synthetic sequence tasks, vocabulary conventions and corpus file I/O.

Token ids 0..2 are reserved in every vocabulary (PAD, BOS, EOS) and never
appear inside payloads. Corpora are stored as JSONL: a header line
``{"vocab": V, "task": tag}`` followed by one ``{"src": [...], "tgt": [...]}``
object per pair, each line ended by a line feed alone; token ids are JSON
integers and the task a string. Each input format has one check: JSON text
goes through ``parse_json``, and every corpus, built in code or read from a
file, through ``Corpus.validate``'s.
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


def parse_json(text: str, where, error=DomainError, line=None):
    """The JSON value in ``text`` from file ``where`` (its line ``line``, for JSONL).

    Malformed text, an integer past Python's digit limit and nesting past its
    recursion limit all raise ``error``: ``<where>: line N: malformed JSON
    (<reason>)``, with the parser's ``line L column C`` for a whole file.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        decode = isinstance(e, json.JSONDecodeError)
        if line is not None:
            where = f"{where}: line {line}"
        elif decode:
            where = f"{where}: line {e.lineno} column {e.colno}"
        raise error(f"{where}: malformed JSON ({e.msg if decode else e})") from e


def read_json(path):
    """The JSON value in a file a user named: :func:`read_text`, then :func:`parse_json`."""
    return parse_json(read_text(path), path)


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

    Each is a list of Python ints (no bool, float or numpy int) in [0, vocab_size), the source
    non-empty. A strict pair (a training corpus) also has a target and no reserved ids.
    """
    for name, seq in (("src", src), ("tgt", tgt)):
        if not isinstance(seq, list):
            return f"{name} has type {type(seq).__name__}, not list"
        if not seq and (strict or name == "src"):
            return f"empty {name} sequence"
        for j, tok in enumerate(seq):
            if type(tok) is not int:
                return f"{name}[{j}] has type {type(tok).__name__}, not int"
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
        self.vocab_size = check_int("vocab_size", self.vocab_size, NUM_RESERVED, MAX_VOCAB)  # an int for JSON
        if not isinstance(self.task, str):
            raise DomainError(f"task must be a string, got {type(self.task).__name__}")
        if not isinstance(self.pairs, list):
            raise DomainError(f"pairs must be a list, got {type(self.pairs).__name__}")
        for i, pair in enumerate(self.pairs):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                got = type(pair).__name__ + (f" of length {len(pair)}" if isinstance(pair, (tuple, list)) else "")
                raise DomainError(f"pair {i}: expected a (src, tgt) tuple or list, got {got}")
            problem = _pair_problem(*pair, self.vocab_size, self.strict)
            if problem:
                raise DomainError(f"pair {i}: {problem}")
        self.pairs = [tuple(pair) for pair in self.pairs]  # as a file reads back: (src, tgt)

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


def load_corpus(path, strict: bool = True) -> Corpus:
    """Parse a JSONL corpus, validating every line; errors read ``<path>: line N: ...``.

    The header is checked by ``Corpus``, each pair once as its line is read, so
    the first bad line in file order is the one reported. ``strict=False``
    permits reserved ids inside payloads, for files of raw model generations.
    """
    # not splitlines: it also breaks at U+2028, U+2029 and U+0085, which JSON strings may hold raw
    lines = read_text(path).split("\n")
    if all(not ln.strip() for ln in lines):
        return Corpus(vocab_size=NUM_RESERVED, pairs=[], task="file")
    header = parse_json(lines[0], path, CorpusError, line=1)
    if not isinstance(header, dict) or "vocab" not in header:
        raise CorpusError(f"{path}: line 1: header must be an object with a 'vocab' key")
    try:
        corpus = Corpus(vocab_size=header["vocab"], task=header.get("task", "file"), strict=strict)
    except DomainError as e:
        raise CorpusError(f"{path}: line 1: {e}") from e
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        obj = parse_json(raw, path, CorpusError, line=line_no)
        if not isinstance(obj, dict) or "src" not in obj or "tgt" not in obj:
            raise CorpusError(f"{path}: line {line_no}: expected an object with 'src' and 'tgt'")
        problem = _pair_problem(obj["src"], obj["tgt"], corpus.vocab_size, strict)
        if problem:
            raise CorpusError(f"{path}: line {line_no}: {problem}")
        corpus.pairs.append((obj["src"], obj["tgt"]))
    return corpus
