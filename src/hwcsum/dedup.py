"""Overlap cleaning: drop Part I items that near-duplicate Part III items.

An item is considered overlapping when its summary is exactly equal
(after normalization) to a Part III summary and its article is either
identical or differs only by a short suffix, e.g. a trailing newspaper
name. Matching is exact-summary indexed, so the pass is linear in the
corpus sizes.
"""

import unicodedata
from dataclasses import dataclass, field

from .corpus import DocumentPair


@dataclass
class RemovedItem:
    part1_id: int
    part3_id: int
    reason: str


@dataclass
class CleanResult:
    kept: list[DocumentPair]
    removed: list[RemovedItem] = field(default_factory=list)


def normalize_for_match(text: str) -> str:
    """NFC normalization with every Unicode whitespace character removed."""
    return "".join(ch for ch in unicodedata.normalize("NFC", text) if not ch.isspace())


def _articles_overlap(a: str, b: str, max_delta: int):
    """Equal articles, or the shorter a prefix of the longer within max_delta chars."""
    if a == b:
        return True, "article_equal"
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    delta = len(long) - len(short)
    if delta <= max_delta and long.startswith(short):
        return True, f"article_prefix_delta={delta}"
    return False, ""


def is_overlapping(a: DocumentPair, b: DocumentPair, max_suffix_delta: int = 15) -> bool:
    """True iff the two pairs count as the same item: equal summaries, and
    articles equal or one a prefix of the other within max_suffix_delta chars."""
    return bool(clean_part1([a], [b], max_suffix_delta).removed)


def clean_part1(part1: list[DocumentPair], part3: list[DocumentPair],
                max_suffix_delta: int = 15) -> CleanResult:
    """Remove every Part I pair that overlaps any Part III pair.

    Part III is indexed by normalized summary, so each Part I record
    only gets article-compared against the (few) candidates sharing its
    summary. The first matching witness, in Part III file order, is
    recorded.
    """
    if max_suffix_delta < 0:
        raise ValueError("max_suffix_delta must be >= 0")
    index: dict[str, list[tuple[int, str]]] = {}
    for p3 in part3:
        index.setdefault(normalize_for_match(p3.summary), []).append(
            (p3.id, normalize_for_match(p3.short_text)))

    kept: list[DocumentPair] = []
    removed: list[RemovedItem] = []
    for p1 in part1:
        candidates = index.get(normalize_for_match(p1.summary), ())
        article = normalize_for_match(p1.short_text) if candidates else ""
        witness = None
        for p3_id, p3_article in candidates:
            hit, reason = _articles_overlap(article, p3_article, max_suffix_delta)
            if hit:
                witness = RemovedItem(p1.id, p3_id, reason)
                break
        if witness is None:
            kept.append(p1)
        else:
            removed.append(witness)

    return CleanResult(kept, removed)
