import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamattn import data
from hamattn.data import (
    BOS,
    EOS,
    MAX_PAIRS,
    MAX_SEQ_LEN,
    MAX_TOKENS,
    MAX_VOCAB,
    NUM_RESERVED,
    PAD,
    Corpus,
    check_corpus_size,
    gen_task,
    load_corpus,
    save_corpus,
)
from hamattn.errors import CorpusError, DomainError
from json_fragments import JSON_FRAGMENTS


def test_reserved_ids():
    assert (PAD, BOS, EOS) == (0, 1, 2)
    assert NUM_RESERVED == 3


@pytest.mark.parametrize("task", ["copy", "reverse", "sort"])
def test_task_transformations(task):
    corpus = gen_task(task, 50, 7, 8, seed=0)
    assert corpus.vocab_size == 11
    assert len(corpus) == 50
    for src, tgt in corpus.pairs:
        assert len(src) == 7
        assert all(NUM_RESERVED <= t < corpus.vocab_size for t in src + tgt)
        if task == "copy":
            assert tgt == src
        elif task == "reverse":
            assert tgt == src[::-1]
        else:
            assert tgt == sorted(src)


def test_generation_determinism():
    a = gen_task("copy", 30, 5, 6, seed=7)
    b = gen_task("copy", 30, 5, 6, seed=7)
    c = gen_task("copy", 30, 5, 6, seed=8)
    assert a == b
    assert a != c


def test_gen_task_validation():
    with pytest.raises(DomainError):
        gen_task("shuffle", 10, 5, 8, 0)
    with pytest.raises(DomainError):
        gen_task("copy", 10, 0, 8, 0)
    with pytest.raises(DomainError):
        gen_task("copy", 10, 5, 1, 0)
    with pytest.raises(DomainError):
        gen_task("copy", 0, 5, 8, 0)


def test_sizes_capped_before_allocating(tmp_path):
    corpus = gen_task("copy", 1, MAX_SEQ_LEN, MAX_VOCAB - NUM_RESERVED, 0)
    assert corpus.vocab_size == MAX_VOCAB and len(corpus.pairs[0][0]) == MAX_SEQ_LEN
    for seq_len in (MAX_SEQ_LEN + 1, 10**30):
        with pytest.raises(DomainError, match="seq_len"):
            gen_task("copy", 2, seq_len, 8, 0)
    for payload_vocab in (MAX_VOCAB - NUM_RESERVED + 1, 10**29):
        with pytest.raises(DomainError, match="payload_vocab"):
            gen_task("copy", 2, 6, payload_vocab, 0)
    path = tmp_path / "big.jsonl"
    for vocab in (MAX_VOCAB + 1, 10**30):
        path.write_text(json.dumps({"vocab": vocab}) + '\n{"src": [3], "tgt": [3]}\n')
        with pytest.raises(CorpusError, match="vocab"):
            load_corpus(path)


def test_token_count_capped_before_generating(monkeypatch):
    """pairs x seq_len is capped as a product, checked before any draw."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    assert MAX_PAIRS * 6 <= MAX_TOKENS  # the default seq_len still admits MAX_PAIRS
    check_corpus_size(MAX_TOKENS // MAX_SEQ_LEN, MAX_SEQ_LEN)
    monkeypatch.setattr(np.random, "default_rng", no_work)
    for pairs, seq_len in ((MAX_PAIRS, MAX_SEQ_LEN), (MAX_TOKENS // 16 + 1, 16)):
        with pytest.raises(DomainError, match=r"^pairs x seq_len must be at most"):
            gen_task("copy", pairs, seq_len, 8, 0)
    with pytest.raises(DomainError, match=r"^eval_pairs x seq_len"):
        check_corpus_size(MAX_TOKENS // MAX_SEQ_LEN + 1, MAX_SEQ_LEN, "eval_pairs")


def test_roundtrip_identity(tmp_path):
    corpus = gen_task("sort", 100, 6, 9, seed=3)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus
    # header + one line per pair
    assert len(path.read_text().splitlines()) == 101


def test_a_list_pair_is_stored_as_a_tuple_and_round_trips(tmp_path):
    # a [src, tgt] list pair used to read back as a tuple, unequal to the corpus saved
    pairs = [[[3], [4]]]
    corpus = Corpus(8, pairs)
    assert corpus.pairs == [([3], [4])] and pairs == [[[3], [4]]]  # the caller's list is not rewritten
    save_corpus(corpus, tmp_path / "c.jsonl")
    assert load_corpus(tmp_path / "c.jsonl") == corpus


def test_header_line(tmp_path):
    corpus = gen_task("reverse", 4, 3, 5, seed=1)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"vocab": 8, "task": "reverse"}


def test_empty_file_is_an_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    corpus = load_corpus(path)
    assert len(corpus) == 0
    assert corpus.vocab_size == NUM_RESERVED


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"vocab": 10, "task": "copy"}\n{"src": [3], "tgt": [4]}\n{"src": [3, "x"], "tgt": [4]}\n')
    with pytest.raises(CorpusError, match="line 3"):
        load_corpus(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
def test_a_raw_line_separator_inside_a_string_ends_no_record(separator, newline, tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 unescaped in a string; only "\n" ends a record
    task = f"copy{separator}v2"
    header = json.dumps({"vocab": 10, "task": task}, ensure_ascii=False)
    path = tmp_path / "c.jsonl"
    path.write_text(f'{header}\n{{"src": [3], "tgt": [4]}}\n', encoding="utf-8", newline=newline)
    assert load_corpus(path) == Corpus(10, [([3], [4])], task)
    path.write_text(f'{header}\n{{"src": [3], "tgt": [4]}}\n{{"src": [3]}}\n', encoding="utf-8", newline=newline)
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 3: expected an object")):
        load_corpus(path)


def test_non_integer_token_rejected(tmp_path):
    path = tmp_path / "bad2.jsonl"
    path.write_text('{"vocab": 10}\n{"src": [3.5], "tgt": [4]}\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_out_of_vocab_id_rejected(tmp_path):
    path = tmp_path / "bad3.jsonl"
    path.write_text('{"vocab": 5, "task": "copy"}\n{"src": [3], "tgt": [7]}\n')
    with pytest.raises(CorpusError, match="line 2.*outside vocab"):
        load_corpus(path)


def test_reserved_id_in_payload_rejected_unless_lenient(tmp_path):
    path = tmp_path / "gen.jsonl"
    path.write_text('{"vocab": 5, "task": "copy"}\n{"src": [3], "tgt": [0, 4]}\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)
    corpus = load_corpus(path, strict=False)
    assert corpus.pairs == [([3], [0, 4])]


def test_each_corpus_pair_is_checked_once(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    save_corpus(gen_task("copy", 7, 3, 5, seed=0), path)
    calls = []
    check = data._pair_problem

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(data, "_pair_problem", counted)
    assert len(load_corpus(path)) == 7 and len(calls) == 7
    calls.clear()
    assert len(gen_task("copy", 5, 3, 5, seed=0)) == 5 and len(calls) == 5


def test_first_bad_line_in_file_order_is_reported(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"vocab": 5}\n{"src": [3], "tgt": [4]}\n{"src": [3], "tgt": [9]}\nnot json\n')
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 3: tgt id 9 outside vocab")):
        load_corpus(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text("not json\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 1: malformed JSON (Expecting value)")):
        load_corpus(path)
    path.write_text('{"task": "copy"}\n')
    with pytest.raises(CorpusError, match="vocab"):
        load_corpus(path)
    path.write_text('{"vocab": 8, "task": [1]}\n{"src": [3], "tgt": [3]}\n')
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 1: task must be a string, got list")):
        load_corpus(path)


def test_corpus_validation():
    with pytest.raises(DomainError):
        Corpus(vocab_size=2)
    with pytest.raises(DomainError):
        Corpus(vocab_size=8, pairs=[([3], [])])
    with pytest.raises(DomainError):
        Corpus(vocab_size=8, pairs=[([3], [9])])
    with pytest.raises(DomainError):
        Corpus(vocab_size=8, pairs=[([1], [3])])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"pairs": [([3, 4], [5, 6.2])]}, "pair 0: tgt[1] has type float, not int"),
        ({"pairs": [([3], [4]), ([3.7, 4], [5])]}, "pair 1: src[0] has type float, not int"),
        ({"pairs": [([True], [4])]}, "pair 0: src[0] has type bool, not int"),
        ({"pairs": [(["ab"], [4])]}, "pair 0: src[0] has type str, not int"),
        ({"pairs": [([np.int64(3)], [4])]}, "pair 0: src[0] has type int64, not int"),
        ({"pairs": [((3, 4), [4])]}, "pair 0: src has type tuple, not list"),
        ({"pairs": [([3], "45")]}, "pair 0: tgt has type str, not list"),
        ({"pairs": [([3], np.array([4]))]}, "pair 0: tgt has type ndarray, not list"),
        ({"task": [1]}, "task must be a string, got list"),
        ({"task": None}, "task must be a string, got NoneType"),
        ({"vocab_size": MAX_VOCAB + 1}, f"vocab_size must be an integer in [{NUM_RESERVED}, {MAX_VOCAB}]"),
        ({"vocab_size": 10**9}, "vocab_size must be an integer"),
        ({"pairs": [([3],)]}, "pair 0: expected a (src, tgt) tuple or list, got tuple of length 1"),
        ({"pairs": [([3], [4]), [[3], [4], [5]]]}, "pair 1: expected a (src, tgt) tuple or list, got list of length 3"),
        ({"pairs": [3]}, "pair 0: expected a (src, tgt) tuple or list, got int"),
        ({"pairs": None}, "pairs must be a list, got NoneType"),
        ({"pairs": (([3], [4]),)}, "pairs must be a list, got tuple"),
    ],
)
def test_corpus_checks_types_and_ranges(kwargs, message):
    """Corpus is the one corpus check: token ids are Python ints in lists, the
    task a string and the vocabulary capped, or a DomainError names the fault."""
    with pytest.raises(DomainError, match=re.escape(message)):
        Corpus(**{"vocab_size": 11, **kwargs})


def _mostly(good, odd):
    """``good`` seven times in eight, else ``odd``."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 0 else good)


_ODD_TOKENS = st.one_of(st.integers(-1, 12), st.booleans(), st.floats(0, 12), st.sampled_from(["3", np.int64(4)]))
_SEQS = _mostly(
    st.lists(st.integers(3, 9), min_size=1, max_size=4),
    st.one_of(st.lists(_ODD_TOKENS, max_size=3), st.tuples(st.integers(3, 9)), st.just("34")),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    vocab_size=_mostly(st.integers(10, 12), st.sampled_from([np.int64(9), 4, MAX_VOCAB, MAX_VOCAB + 1, 2, 10.0, True])),
    # a pair may be a (src, tgt) tuple or a [src, tgt] list
    pairs=st.lists(st.one_of(st.tuples(_SEQS, _SEQS), st.lists(_SEQS, min_size=2, max_size=2)), max_size=4),
    task=_mostly(st.text(max_size=4), st.one_of(st.none(), st.integers(0, 2), st.just(["copy"]))),
    strict=st.booleans(),
)
def test_every_corpus_that_constructs_round_trips(vocab_size, pairs, task, strict):
    """Whatever Corpus accepts, save_corpus writes and load_corpus reads back equal."""
    try:
        corpus = Corpus(vocab_size, pairs, task, strict=strict)
    except DomainError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path, strict=strict) == corpus


_FUZZ_CORPUS = (
    b'{"task": "sort", "vocab": 9}\n{"src": [5, 3, 8], "tgt": [3, 5, 8]}\n'
    b'{"src": [4], "tgt": [4]}\n{"src": [7, 6], "tgt": [6, 7]}\n'
)
_FUZZ_BYTES = st.one_of(
    st.sampled_from(
        [b"[", b"]", b"{", b"}", b'"', b",", b":", b"-", b"0", b"9", b"e", b".", b"\n", b" ",
         b"\xff", b"\x00", b"NaN", b"true", b"null", b"1e999", b"99999999999999999999",
         *(fragment.encode() for fragment in JSON_FRAGMENTS)]
    ),
    st.binary(min_size=1, max_size=3),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, len(_FUZZ_CORPUS)), st.sampled_from(["put", "insert", "delete"]), _FUZZ_BYTES),
        min_size=1,
        max_size=4,
    ),
    strict=st.booleans(),
)
def test_fuzzed_corpus_bytes_raise_only_corpus_errors(edits, strict):
    """Any byte edit of a corpus file loads, or raises CorpusError or DomainError."""
    data = bytearray(_FUZZ_CORPUS)
    for pos, action, chunk in edits:
        pos = min(pos, len(data))
        if action == "put":
            data[pos:pos + len(chunk)] = chunk
        elif action == "insert":
            data[pos:pos] = chunk
        else:
            del data[pos:pos + len(chunk)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(bytes(data))
        try:
            load_corpus(path, strict=strict)
        except (CorpusError, DomainError):
            pass
