"""ROUGE-1/2/L scoring with corpus-level aggregation.

Scoring is character-level by default (both sides are re-tokenized to
characters with whitespace removed); pass unit="word" to score
whitespace-separated tokens instead. F1 uses beta=1 throughout,
including ROUGE-L.
"""

from collections import Counter
from dataclasses import asdict, dataclass

from .tokenizer import char_tokenize


@dataclass
class RougeScores:
    precision: float
    recall: float
    f1: float


def _scores(hits: int, n_cand: int, n_ref: int) -> RougeScores:
    """Precision, recall and F1 (beta=1) of hits matched units; 0.0 over an empty side."""
    p = hits / n_cand if n_cand else 0.0
    r = hits / n_ref if n_ref else 0.0
    return RougeScores(p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0)


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when n exceeds the length."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScores:
    cand = ngram_counts(candidate, n)
    ref = ngram_counts(reference, n)
    return _scores(sum((cand & ref).values()), sum(cand.values()), sum(ref.values()))


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the bit-vector recurrence of
    Allison and Dix (1986): v holds a bit per position of b, and after each
    symbol of a its zero bits count the LCS of b and the prefix of a read."""
    masks = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    v = full = (1 << len(b)) - 1
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: list[str], reference: list[str]) -> RougeScores:
    return _scores(lcs_length(candidate, reference), len(candidate), len(reference))


METRICS = ("rouge_1", "rouge_2", "rouge_l")


def score_pair(candidate: str, reference: str, unit: str = "char") -> dict[str, RougeScores]:
    cand = _tokenize(candidate, unit)
    ref = _tokenize(reference, unit)
    return {
        "rouge_1": rouge_n(cand, ref, 1),
        "rouge_2": rouge_n(cand, ref, 2),
        "rouge_l": rouge_l(cand, ref),
    }


def _tokenize(text: str, unit: str) -> list[str]:
    if unit == "char":
        return char_tokenize(text)
    if unit == "word":
        return text.split()
    raise ValueError(f"unit must be 'char' or 'word', got {unit!r}")


def scores_dict(scores: dict) -> dict:
    """A metric -> RougeScores map as plain dicts, the row format of every
    scores ledger."""
    return {m: asdict(scores[m]) for m in METRICS}


def mean_scores(scores: list[dict]) -> dict[str, RougeScores]:
    """The arithmetic mean, field by field, of metric -> RougeScores maps,
    summed in list order."""
    return {m: RougeScores(*(sum(getattr(s[m], f) for s in scores) / len(scores)
                             for f in ("precision", "recall", "f1")))
            for m in METRICS}


def evaluate_corpus(candidates: list[str], references: list[str], unit: str = "char"):
    """Mean ROUGE-1/2/L over aligned candidate/reference lists.

    Returns (means, per_pair) where means maps metric name to the
    arithmetic mean RougeScores and per_pair holds each pair's scores.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"candidates ({len(candidates)}) and references ({len(references)}) differ in length")
    if not candidates:
        raise ValueError("nothing to evaluate")
    per_pair = [score_pair(c, r, unit) for c, r in zip(candidates, references)]
    return mean_scores(per_pair), per_pair
