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


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when n exceeds the length."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScores:
    cand = ngram_counts(candidate, n)
    ref = ngram_counts(reference, n)
    overlap = sum(min(count, ref[g]) for g, count in cand.items())
    n_cand = sum(cand.values())
    n_ref = sum(ref.values())
    p = overlap / n_cand if n_cand else 0.0
    r = overlap / n_ref if n_ref else 0.0
    return RougeScores(p, r, _f1(p, r))


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = curr[j - 1] if curr[j - 1] >= prev[j] else prev[j]
        prev = curr
    return prev[-1]


def rouge_l(candidate: list[str], reference: list[str]) -> RougeScores:
    if not candidate or not reference:
        return RougeScores(0.0, 0.0, 0.0)
    lcs = lcs_length(candidate, reference)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return RougeScores(p, r, _f1(p, r))


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
    means = {}
    for metric in METRICS:
        n = len(per_pair)
        means[metric] = RougeScores(
            sum(s[metric].precision for s in per_pair) / n,
            sum(s[metric].recall for s in per_pair) / n,
            sum(s[metric].f1 for s in per_pair) / n,
        )
    return means, per_pair
