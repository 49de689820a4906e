"""BLEU-2 scoring, the averaged continuation BLEU, and exact sequence match.

Scores operate on token-id sequences; tokenization is identity over integer
ids. ``bleu2`` is the geometric mean of unigram and bigram modified
precisions times a brevity penalty. Add-one smoothing applies to the bigram
precision only when its raw match count is zero, so zero-overlap candidates
still score 0 through the unigram factor.
"""

import json
import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .errors import DomainError


def _clipped_matches(cand_counts: Counter, ref_counts: Counter) -> int:
    return sum(min(c, ref_counts[g]) for g, c in cand_counts.items())


def bleu2(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """BLEU-2 of a candidate against a single reference, in [0, 1]."""
    candidate = list(candidate)
    reference = list(reference)
    if not reference:
        raise DomainError("reference sequence must be non-empty")
    if not candidate:
        warnings.warn("empty candidate sequence scores 0", stacklevel=2)
        return 0.0

    p1 = _clipped_matches(Counter(candidate), Counter(reference)) / len(candidate)
    if p1 == 0.0:
        return 0.0

    cand_bi = Counter(zip(candidate, candidate[1:]))
    ref_bi = Counter(zip(reference, reference[1:]))
    total_bi = max(len(candidate) - 1, 0)
    matches_bi = _clipped_matches(cand_bi, ref_bi)
    if matches_bi > 0:
        p2 = matches_bi / total_bi
    else:
        p2 = (matches_bi + 1) / (total_bi + 1)

    c, r = len(candidate), len(reference)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.sqrt(p1 * p2)


def _continuation_scores(generated: Sequence, gold: Sequence, start: int) -> list:
    """BLEU-2 of lines 2..4 of the four-line group that begins at ``start``."""
    return [bleu2(generated[start + i], gold[start + i]) for i in (1, 2, 3)]


def averaged_bleu(generated_lines: Sequence, gold_lines: Sequence) -> float:
    """Mean BLEU-2 of the three continuation lines of a four-line group.

    Line 1 is the given opening and is not scored; lines 2..4 of the
    generation are scored against the corresponding gold lines. Generating
    line i+1 conditioned on the gold lines 1..i is the generation harness's
    job; this only scores the results.
    """
    if len(generated_lines) != 4 or len(gold_lines) != 4:
        raise DomainError(
            f"expected 4 generated and 4 gold lines, got {len(generated_lines)} and {len(gold_lines)}"
        )
    return sum(_continuation_scores(generated_lines, gold_lines, 0)) / 3.0


def exact_match_rate(pairs: Sequence) -> float:
    """Fraction of (generated, target) pairs equal token for token."""
    if not pairs:
        raise DomainError("exact_match_rate of an empty pair list")
    hits = sum(1 for gen, tgt in pairs if list(gen) == list(tgt))
    return hits / len(pairs)


@dataclass
class EvalReport:
    """Fixed-schema evaluation summary; bleu_1..3 stay null outside quatrain mode."""

    bleu_1: Optional[float]
    bleu_2: Optional[float]
    bleu_3: Optional[float]
    bleu_avg: Optional[float]
    exact_match: float
    n: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _check_lengths(generated: Sequence, gold: Sequence) -> None:
    if len(generated) != len(gold):
        raise DomainError(f"length mismatch: {len(generated)} generated vs {len(gold)} gold")
    if not gold:
        raise DomainError("nothing to evaluate")


def evaluate_pairs(generated: Sequence, gold: Sequence) -> EvalReport:
    """Score parallel lists of sequences: mean BLEU-2 plus exact match."""
    _check_lengths(generated, gold)
    scores = [bleu2(g, t) for g, t in zip(generated, gold)]
    return EvalReport(
        bleu_1=None,
        bleu_2=None,
        bleu_3=None,
        bleu_avg=sum(scores) / len(scores),
        exact_match=exact_match_rate(list(zip(generated, gold))),
        n=len(gold),
    )


def evaluate_quatrains(generated: Sequence, gold: Sequence) -> EvalReport:
    """Score four-line groups with the continuation-BLEU protocol.

    ``generated`` and ``gold`` are flat line lists whose length is a multiple
    of four; consecutive runs of four form one group. bleu_i averages the
    per-group score of continuation line i+1; bleu_avg is their mean. Exact
    match counts all lines.
    """
    _check_lengths(generated, gold)
    if len(gold) % 4 != 0:
        raise DomainError(f"quatrain evaluation needs a multiple of 4 lines, got {len(gold)}")
    groups = len(gold) // 4
    per_group = [_continuation_scores(generated, gold, 4 * g) for g in range(groups)]
    bleu_i = [sum(line) / groups for line in zip(*per_group)]
    return EvalReport(
        bleu_1=bleu_i[0],
        bleu_2=bleu_i[1],
        bleu_3=bleu_i[2],
        bleu_avg=sum(bleu_i) / 3.0,
        exact_match=exact_match_rate(list(zip(generated, gold))),
        n=groups,
    )
