"""Tokenization and vocabularies.

Two token units exist side by side: characters (one token per Unicode
scalar value) for the decoder side, and lexicon-driven words for the
encoder side. Word segmentation is unigram maximum-likelihood over a
DAG of dictionary matches; characters missing from the lexicon fall
back to singleton words with count 1, so segmentation never fails.
"""

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .corpus import DocumentPair

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")


def char_tokenize(text: str) -> list[str]:
    """One token per Unicode scalar value, whitespace dropped."""
    return [ch for ch in text if not ch.isspace()]


def _invalid_word(entries) -> str | None:
    """A word whose entry is invalid (empty, or a count <= 0), else None."""
    if "" in entries:
        return ""
    if entries and min(entries.values()) <= 0:
        return next(w for w, c in entries.items() if c <= 0)
    return None


@dataclass(frozen=True)
class Lexicon:
    """Read-only word -> count table driving the segmenter.

    ``entries`` is a read-only view of the dict passed in, not a copy, so
    the caller must not change that dict afterwards. ``total`` (the sum of
    the counts) and ``max_word_len`` (1 when empty) are fixed at
    construction.
    """

    entries: Mapping[str, int] = field(default_factory=dict)
    total: int = field(init=False)
    max_word_len: int = field(init=False)

    def __post_init__(self):
        entries = self.entries
        bad = _invalid_word(entries)
        if bad == "":
            raise ValueError("lexicon contains an empty word")
        if bad is not None:
            raise ValueError(f"lexicon count for {bad!r} must be positive, got {entries[bad]}")
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "total", sum(entries.values()))
        object.__setattr__(self, "max_word_len", max(map(len, entries), default=1))

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        """Load ``word<TAB>count`` lines in one pass.

        Blank lines are skipped and a repeated word keeps its last count.
        Every error names the file and the line.
        """
        entries = {}
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                try:
                    word, count = line.split("\t")
                    entries[word] = int(count)
                except ValueError:
                    if line.isspace():
                        continue
                    raise ValueError(f"{path}: line {line_no}: expected 'word<TAB>count'") from None
        try:
            return cls(entries)
        except ValueError as e:
            line_no = _last_line_of(path, _invalid_word(entries))
            raise ValueError(f"{path}: line {line_no}: {e}") from None

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for word, count in self.entries.items():
                f.write(f"{word}\t{count}\n")


def _last_line_of(path, word: str) -> int:
    """Number of the last line of a lexicon file that sets ``word``."""
    last = 0
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.isspace() and line.split("\t")[0] == word:
                last = line_no
    return last


def word_segment(text: str, lex: Lexicon) -> list[str]:
    """Best unigram segmentation of text under the lexicon.

    Builds the DAG of all lexicon matches over the whitespace-stripped
    character sequence plus single-character fallback edges (count 1),
    scores each edge log(count / lexicon total), and returns the path
    with maximal total log-probability. Equal-score ties prefer the
    longer word at each position. Concatenating the returned tokens
    reproduces the whitespace-stripped input.
    """
    if not lex.entries:
        raise ValueError("lexicon is empty")
    s = "".join(char_tokenize(text))
    n = len(s)
    if n == 0:
        return []

    log_total = math.log(lex.total)
    max_len = lex.max_word_len
    get = lex.entries.get

    # best[i] = (score, end) of the best path for s[i:], computed back to front
    best: list[tuple[float, int]] = [(0.0, n)] * (n + 1)
    for i in range(n - 1, -1, -1):
        top = None
        for j in range(i + 1, min(i + max_len, n) + 1):
            count = get(s[i:j])
            if count is None:
                if j - i > 1:
                    continue
                count = 1  # singleton fallback
            cand = (math.log(count) - log_total + best[j][0], j)
            if top is None or cand > top:
                top = cand
        best[i] = top

    tokens = []
    i = 0
    while i < n:
        j = best[i][1]
        tokens.append(s[i:j])
        i = j
    return tokens


class Vocabulary:
    """Bijective token<->id map with counts and four reserved specials.

    Ids 0..3 are <pad>, <unk>, <s>, </s> with count 0; content tokens
    follow sorted by descending count, ties broken by first occurrence
    in the building stream.
    """

    def __init__(self, tokens: list[str], counts: list[int], unit: str):
        if unit not in ("word", "char"):
            raise ValueError(f"unit must be 'word' or 'char', got {unit!r}")
        if tokens[:4] != list(SPECIAL_TOKENS):
            raise ValueError("vocabulary must start with the four special tokens")
        if len(tokens) != len(counts):
            raise ValueError("tokens and counts length mismatch")
        self.tokens = tokens
        self.counts = counts
        self.unit = unit
        self.ids = {tok: i for i, tok in enumerate(tokens)}
        if len(self.ids) != len(tokens):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.tokens)

    @property
    def n_content(self) -> int:
        """Token count excluding the four specials."""
        return len(self.tokens) - 4

    def encode(self, tokens: list[str]) -> list[int]:
        """Map tokens to ids; out-of-vocabulary tokens become <unk>."""
        return [self.ids.get(t, UNK) for t in tokens]

    def decode(self, ids: list[int], strip_special: bool = False) -> list[str]:
        out = []
        for i in ids:
            if not (0 <= i < len(self.tokens)):
                raise ValueError(f"id {i} out of range for vocabulary of size {len(self.tokens)}")
            if strip_special and i in (PAD, UNK, BOS, EOS):
                continue
            out.append(self.tokens[i])
        return out

    def save(self, path):
        """One 'token<TAB>count' line per id; byte-identical for equal inputs."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for tok, count in zip(self.tokens, self.counts):
                f.write(f"{tok}\t{count}\n")

    @classmethod
    def load(cls, path, unit: str) -> "Vocabulary":
        tokens, counts = [], []
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    tok, count = line.split("\t")
                except ValueError:
                    raise ValueError(f"{path}: line {line_no}: expected 'token<TAB>count'") from None
                tokens.append(tok)
                counts.append(int(count))
        return cls(tokens, counts, unit)


def build_vocab(token_stream, unit: str, min_count: int = 1, max_size: int | None = None) -> Vocabulary:
    """Count tokens and assemble a Vocabulary.

    Keeps tokens with count >= min_count, sorted by descending count
    with ties in first-occurrence order, truncated to max_size content
    tokens when given, then prepends the specials.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counter: Counter[str] = Counter()
    for tok in token_stream:
        counter[tok] += 1
    if not counter:
        raise ValueError("token stream is empty")
    # dict order of a streamed Counter is first-occurrence order
    occurrence = {tok: i for i, tok in enumerate(counter)}
    ranked = sorted(counter.items(), key=lambda tc: (-tc[1], occurrence[tc[0]]))
    kept = [(t, c) for t, c in ranked if c >= min_count]
    if max_size is not None:
        kept = kept[:max_size]
    tokens = list(SPECIAL_TOKENS) + [t for t, _ in kept]
    counts = [0, 0, 0, 0] + [c for _, c in kept]
    return Vocabulary(tokens, counts, unit)


@dataclass
class EncodedPair:
    """Model-ready id sequences; tgt is bracketed by <s> ... </s>."""

    src_ids: list[int]
    tgt_ids: list[int]

    def __post_init__(self):
        if len(self.tgt_ids) < 2 or self.tgt_ids[0] != BOS or self.tgt_ids[-1] != EOS:
            raise ValueError("tgt_ids must start with <s> and end with </s>")


def encode_tokens(src_tokens: list[str], tgt_chars: list[str], src_vocab: Vocabulary,
                  tgt_vocab: Vocabulary, pair_id=None) -> EncodedPair:
    """Ids of a tokenized pair: the source tokens as they are, the summary
    characters bracketed by <s> ... </s>."""
    if not src_tokens:
        raise ValueError(f"pair id={pair_id}: source text is empty after whitespace removal")
    if not tgt_chars:
        raise ValueError("summary is empty after whitespace removal")
    return EncodedPair(src_vocab.encode(src_tokens), [BOS] + tgt_vocab.encode(tgt_chars) + [EOS])


def encode_pair_hwc(pair: DocumentPair, lex: Lexicon, word_vocab: Vocabulary,
                    char_vocab: Vocabulary) -> EncodedPair:
    """Hybrid encoding: word ids on the source side, char ids on the target."""
    if word_vocab.unit != "word" or char_vocab.unit != "char":
        raise ValueError("encode_pair_hwc needs a word source vocabulary and a char target vocabulary")
    return encode_tokens(word_segment(pair.short_text, lex), char_tokenize(pair.summary),
                         word_vocab, char_vocab, pair.id)


def encode_pair_chars(pair: DocumentPair, src_vocab: Vocabulary,
                      char_vocab: Vocabulary) -> EncodedPair:
    """Character encoding on both sides (the char/char baseline)."""
    if src_vocab.unit != "char" or char_vocab.unit != "char":
        raise ValueError("encode_pair_chars needs char vocabularies on both sides")
    return encode_tokens(char_tokenize(pair.short_text), char_tokenize(pair.summary),
                         src_vocab, char_vocab, pair.id)
