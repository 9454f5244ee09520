"""Tokenization and vocabularies.

Two token units exist side by side: characters (one token per Unicode
scalar value) for the decoder side, and lexicon-driven words for the
encoder side. Word segmentation is unigram maximum-likelihood over a
DAG of dictionary matches; characters missing from the lexicon fall
back to singleton words with count 1, so segmentation never fails.
"""

import codecs
import hashlib
import io
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import DocumentPair, atomic_write, keep_heap, naming

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")


def char_tokenize(text: str) -> list[str]:
    """One token per Unicode scalar value, whitespace dropped."""
    return [ch for ch in text if not ch.isspace()]


_COUNT_LIMIT = 2**63  # counts are held as int64
_DIGITS_MAX = 19  # longest count parsed in bulk: 10**19 - 1 fits a uint64
STREAM_CHUNK = 1 << 15  # ids in each array a token stream is ranked from


def _codes(s: str) -> np.ndarray:
    """The code points of s: a uint16 array when each fits one UTF-16
    unit, which halves the memory of the usual text, else a uint32 one."""
    units = s.encode("utf-16-le", "surrogatepass")
    if len(units) == 2 * len(s):
        return np.frombuffer(units, dtype=np.uint16)
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _exact_sum(a: np.ndarray) -> int:
    """Sum of an int64 array as a Python int, with no wraparound: the high
    and low 32 bits of each value are summed apart."""
    return (int((a >> 32).sum()) << 32) + int((a & 0xFFFFFFFF).sum())


def _invalid_word(entries: dict[str, int]) -> str | None:
    """The word of a word -> count table whose entry is invalid, else None:
    the empty word, else the first word whose count is not positive or not
    below 2**63."""
    if "" in entries:
        return ""
    return next((w for w, c in entries.items() if not 0 < c < _COUNT_LIMIT), None)


def _invalid_entry(word: str, count: int) -> str:
    """Why the entry word -> count is invalid, when it is."""
    if count >= _COUNT_LIMIT:
        return f"lexicon count for {word!r} must be below 2**63, got {count}"
    if word == "":
        return "lexicon contains an empty word"
    return f"lexicon count for {word!r} must be positive, got {count}"


def _digit_counts(codes: np.ndarray, tabs: np.ndarray, ends: np.ndarray, one: np.ndarray):
    """The counts in the fields codes[tabs[i] + 1:ends[i]], parsed in bulk
    one place at a time from the last digit, and whether each field is 1 to
    _DIGITS_MAX ASCII digits on a line with one tab (else it means nothing)."""
    width = ends - tabs - 1
    counts = codes.take(ends - 1).astype(np.uint64) - np.uint64(48)  # below '0' wraps high
    ok = one & (counts < 10) & (width <= _DIGITS_MAX)
    at = np.flatnonzero(ok & (width > 1))
    for place in range(1, _DIGITS_MAX):
        digit = codes.take(ends[at] - (place + 1)) - 48
        counts[at] += digit * np.uint64(10**place)
        ok[at[digit >= 10]] = False
        at = at[width[at] > place + 1]
        if not at.size:
            break
    return counts, ok


def _lines(codes: np.ndarray):
    """The lines of text whose every line ends in a newline, found with one
    compare over the text: the offset of each line's end, after a -1 for
    the start, and for each line the offset of the separator before its
    end and whether that is the line's one tab (with no character below a
    tab on the line)."""
    sep = np.flatnonzero(codes <= 10)  # tabs, line ends and the rare characters 0-8
    kind, sep = codes[sep], sep.astype(np.int32 if len(codes) < 2**31 else np.int64)  # narrow offsets
    end = kind == 10
    one = end & np.concatenate(([False], kind[:-1] == 9))  # a line end after a tab...
    one[2:] &= end[:-2]  # ...after a line end, or the start
    end_at = np.flatnonzero(end)  # indices into sep
    return np.concatenate(([-1], sep[end_at]), dtype=sep.dtype), sep[end_at - 1], one[end_at]


def _plain_entries(raw: bytes):
    """The code points of lexicon bytes, and the start, word length and
    count of each entry, when the bytes are plain: valid UTF-8 whose every
    line is empty or ``word<TAB>count``, with a non-empty word and a count
    of 1 to _DIGITS_MAX ASCII digits below 2**63. Else None."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    codes = _codes(text if text.endswith("\n") else text + "\n")
    bounds, tabs, one = _lines(codes)
    counts, ok = _digit_counts(codes, tabs, bounds[1:], one)
    starts = bounds[:-1] + 1
    ok &= (tabs > starts) & (counts > 0) & (counts < np.uint64(_COUNT_LIMIT))
    if not (ok | (bounds[1:] == starts)).all():  # an entry or an empty line
        return None
    starts = starts[ok]
    return codes, starts, tabs[ok] - starts, counts[ok].view(np.int64)


def _read_entries(raw: bytes) -> dict[str, int]:
    """The word -> count table of lexicon bytes whose line ends are all
    newlines, read one line at a time: the rules of the load, stated once.

    Whitespace-only lines are skipped, a count is what ``int()`` takes and a
    repeated word keeps its last count. The first line in file order that is
    not UTF-8 raises a UnicodeDecodeError, and one that is not ``word<TAB>count``
    or has a count of 2**63 or more a ValueError naming the line; after those,
    an invalid entry (``_invalid_word``) raises one naming the line its count is from.
    """
    entries, line_of = {}, {}
    for line_no, line in enumerate(io.BytesIO(raw), start=1):
        text = line.decode("utf-8")
        try:
            word, count = text.split("\t")
            count = int(count)
        except ValueError:
            if text.isspace():
                continue
            raise ValueError(f"line {line_no}: expected 'word<TAB>count'") from None
        if count >= _COUNT_LIMIT:
            raise ValueError(f"line {line_no}: {_invalid_entry(word, count)}")
        entries[word], line_of[word] = count, line_no
    bad = _invalid_word(entries)
    if bad is not None:
        raise ValueError(f"line {line_of[bad]}: {_invalid_entry(bad, entries[bad])}")
    return entries


class Lexicon:
    """Read-only word -> count table driving the segmenter, held in numpy arrays.

    Words are grouped by length. Within a group each word is an exact
    sort key: its code points packed into one uint64 when the group's
    words fit (``bits`` per code point, from the largest code point of
    the text the words come from, so 64 // bits characters), else its
    big-endian UTF-32 bytes. The keys are sorted with the counts aligned,
    so a lookup is a ``searchsorted`` and an equality test; nothing is
    hashed. ``count(word)`` looks one word up. ``total`` (the exact sum of
    the counts) and ``max_word_len`` (1 when empty) are fixed at
    construction. Counts must be below 2**63. ``sha256`` is the hash of
    the bytes a lexicon was loaded from (None when built from a mapping).
    """

    total = property(lambda self: self._total)
    max_word_len = property(lambda self: self._max_word_len)
    sha256 = property(lambda self: self._sha256)

    def __init__(self, entries: dict[str, int]):
        """The table of a word -> count mapping (not kept); raises ValueError if invalid."""
        bad = _invalid_word(entries)
        if bad is not None:
            raise ValueError(_invalid_entry(bad, entries[bad]))
        lens = np.fromiter(map(len, entries), dtype=np.int64, count=len(entries))
        self._build(_codes("".join(entries)), np.cumsum(lens) - lens, lens,
                    np.fromiter(entries.values(), dtype=np.int64, count=len(entries)))
        self._sha256 = None

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        """Load ``word<TAB>count`` lines from one read of the file.

        One leading UTF-8 byte-order mark is skipped, blank lines are
        skipped and a repeated word keeps its last count. Every error
        names the file and the line (``corpus.naming``). A plain file
        (``_plain_entries``) is parsed in bulk; any other goes whole to the
        line reader ``_read_entries``. ``sha256`` is the hash of the bytes
        read, so it names exactly the table that was parsed. The process
        keeps its freed heap from here on (``corpus.keep_heap``), so a later
        load reuses what this one frees.
        """
        keep_heap()
        with open(path, "rb") as f:
            raw = f.read()
        sha256 = hashlib.sha256(raw).hexdigest()
        raw = raw.removeprefix(codecs.BOM_UTF8)
        if b"\r" in raw:  # line ends as text mode gives them; a CR is part of no multibyte character
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        plain = _plain_entries(raw)
        if plain is None:
            with naming(path):
                lex = cls(_read_entries(raw))
        else:
            lex = cls.__new__(cls)
            lex._build(*plain)
        lex._sha256 = sha256
        return lex

    def _build(self, chars, starts, lens, counts):
        """Hold the words chars[starts[i]:starts[i] + lens[i]] with counts[i];
        a repeated word keeps its last count."""
        bits = (int(chars.max(initial=0)) + 1).bit_length()  # so limit - 1 is no word's code
        self._shift, self._limit, self._per_key = np.uint64(bits), 1 << bits, 64 // bits
        self._groups = {}  # length -> (sorted keys, counts)
        for length in np.flatnonzero(np.bincount(lens)).tolist():
            at = np.flatnonzero(lens == length)
            begin = starts[at].astype(np.intp)
            keys = self._pack([chars[c:][begin] for c in range(length)], len(at))
            order = np.argsort(keys)
            keys, last = keys[order], at[order]
            # a word's occurrences sort together, in no set order, so only the
            # repeated words need their last occurrence looked for
            again = np.flatnonzero(keys[1:] == keys[:-1]) + 1  # sorted places repeating the one before
            if again.size:
                word = again - np.arange(1, len(again) + 1)  # the distinct word each repeat belongs to
                keys, rest, last = np.delete(keys, again), last[again], np.delete(last, again)
                np.maximum.at(last, word, rest)
            self._groups[length] = (keys, counts[last])
        self._total = sum(_exact_sum(c) for _, c in self._groups.values())
        self._max_word_len = max(self._groups, default=1)

    def __len__(self):
        return sum(len(keys) for keys, _ in self._groups.values())

    def count(self, word: str) -> int:
        """The count of word, 0 when it is not in the lexicon: the count of
        the match at its start that ends where it ends."""
        return dict(self._matches(word)[0]).get(len(word), 0) if word else 0

    def _pack(self, columns, m: int) -> np.ndarray:
        """Sort keys of m words of L code points, given as L columns:
        column c holds the c-th code point of every word."""
        if len(columns) > self._per_key:
            rows = np.ascontiguousarray(np.transpose(columns), dtype=">u4")
            return rows.view(f"S{4 * len(columns)}").ravel()
        key = np.zeros(m, dtype=np.uint64)
        for column in columns:
            key <<= self._shift
            key |= column
        return key

    def _lookup(self, length: int, key: np.ndarray) -> np.ndarray:
        """Counts of the words of this length with the given sort keys, 0
        where a key is no word's."""
        keys, counts = self._groups[length]
        pos = keys.searchsorted(key)
        return counts.take(pos, mode="clip") * (keys.take(pos, mode="clip") == key)

    def _matches(self, s: str) -> list[list[tuple[int, int]]]:
        """Every word of the lexicon inside s, looked up one length at a time:
        at each position, the (end, count) of every word starting there,
        shorter words first. A code point wider than the packing is read as
        ``limit - 1``, which no word holds, so it never aliases a word.
        """
        codes = np.minimum(_codes(s).astype(np.uint64), self._limit - 1)
        n = len(codes)
        key = codes  # packed windows of the current length
        matches = [[] for _ in range(n)]
        for length in range(1, min(self._max_word_len, n) + 1):
            m = n - length + 1
            if 1 < length <= self._per_key:
                key = (key[:m] << self._shift) | codes[length - 1:]
            if length not in self._groups:
                continue
            count = self._lookup(length, key if length <= self._per_key
                                 else self._pack(sliding_window_view(codes, length).T, m))
            at = np.flatnonzero(count)
            for i, c in zip(at.tolist(), count[at].tolist()):
                matches[i].append((i + length, c))
        return matches


def word_segment(text: str, lex: Lexicon) -> list[str]:
    """Best unigram segmentation of text under the lexicon.

    Builds the DAG of all lexicon matches over the whitespace-stripped
    character sequence (found by the lexicon one word length at a time)
    plus single-character fallback edges (count 1),
    scores each edge log(count / lexicon total), and returns the path
    with maximal total log-probability. Equal-score ties prefer the
    longer word at each position. Concatenating the returned tokens
    reproduces the whitespace-stripped input.
    """
    if not len(lex):
        raise ValueError("lexicon is empty")
    s = "".join(char_tokenize(text))
    n = len(s)
    if n == 0:
        return []

    log_total = math.log(lex.total)
    matches = lex._matches(s)

    # best[i] = (score, end) of the best path for s[i:], computed back to front
    best: list[tuple[float, int]] = [(0.0, n)] * (n + 1)
    for i in range(n - 1, -1, -1):
        top = (best[i + 1][0] - log_total, i + 1)  # singleton fallback, count 1
        for j, count in matches[i]:
            cand = (math.log(count) - log_total + best[j][0], j)
            if cand > top:
                top = cand
        best[i] = top

    tokens = []
    i = 0
    while i < n:
        j = best[i][1]
        tokens.append(s[i:j])
        i = j
    return tokens


REPRESENTATIONS = ("char_char", "word_char")


class Representation:
    """How the source side of a pair is tokenized: lexicon words for the
    hybrid ``word_char``, characters for the ``char_char`` baseline (the
    summary side is characters in both). Only ``word_char`` loads the
    lexicon, unless given it already loaded as ``lexicon``, and refuses one
    with no entries; ``lexicon_path`` is kept as given, whichever the name.
    """

    def __init__(self, name: str, lexicon_path=None, lexicon: Lexicon | None = None):
        self.check(name, lexicon_path)
        self.name = name
        self.lexicon_path = lexicon_path
        self.lexicon = None
        if name == "word_char":
            self.lexicon = Lexicon.from_file(lexicon_path) if lexicon is None else lexicon
            if not len(self.lexicon):
                raise ValueError(f"{lexicon_path}: the lexicon is empty; "
                                 "word_char needs at least one word")

    @staticmethod
    def check(name: str, lexicon_path=None, lexicon_from: str = "--lexicon"):
        """Raise ValueError unless a Representation can be built from these;
        ``lexicon_from`` says where the caller takes a lexicon from."""
        if name not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {name!r}; expected one of {REPRESENTATIONS}")
        if name == "word_char" and not lexicon_path:
            raise ValueError(f"the word_char representation needs {lexicon_from}")

    @property
    def lexicon_sha256(self) -> str | None:
        return self.lexicon.sha256 if self.lexicon else None

    def tokens(self, text: str, segment=None) -> list[str]:
        """Source-side tokens of text. ``segment`` stands in for
        ``word_segment`` (same signature) when the caller segments through
        its own binding of it."""
        if self.lexicon is None:
            return char_tokenize(text)
        return (segment or word_segment)(text, self.lexicon)

    def source_rows(self, pairs) -> "TokenRows":
        """The source TokenRows of pairs."""
        return TokenRows(self.tokens(p.short_text) for p in pairs)


def load_representations(names, lexicon_path=None) -> tuple[list[Representation], str | None]:
    """One Representation per name, sharing one load of the lexicon, and its
    sha256 (None without a path); a given lexicon is loaded even if unused."""
    lexicon = Lexicon.from_file(lexicon_path) if lexicon_path else None
    reps = [Representation(name, lexicon_path, lexicon) for name in names]
    return reps, None if lexicon is None else lexicon.sha256


class Vocabulary:
    """Bijective token<->id map with counts and four reserved specials.

    Ids 0..3 are <pad>, <unk>, <s>, </s> with count 0; content tokens
    follow sorted by descending count, ties broken by first occurrence
    in the building stream.
    """

    def __init__(self, tokens: list[str], counts: list[int]):
        if tokens[:4] != list(SPECIAL_TOKENS):
            raise ValueError("vocabulary must start with the four special tokens")
        if len(tokens) != len(counts):
            raise ValueError("tokens and counts length mismatch")
        self.tokens = tokens
        self.counts = counts
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

    def id_map(self, tokens: list[str]) -> np.ndarray:
        """The token-id -> vocabulary-id map of a TokenRows' ``tokens`` as an
        int32 array, <unk> where it has none."""
        return np.array(self.encode(tokens), dtype=np.int32)

    def decode(self, ids: list[int]) -> list[str]:
        """The content tokens of ids: the four specials are dropped."""
        out = []
        for i in ids:
            if not (0 <= i < len(self.tokens)):
                raise ValueError(f"id {i} out of range for vocabulary of size {len(self.tokens)}")
            if i not in (PAD, UNK, BOS, EOS):
                out.append(self.tokens[i])
        return out

    def save(self, path):
        """One 'token<TAB>count' line per id; byte-identical for equal inputs.
        Written through atomic_write, so a failed save leaves no file."""
        with atomic_write(path, "wb") as f:
            for tok, count in zip(self.tokens, self.counts):
                f.write(f"{tok}\t{count}\n".encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a file save wrote; every error names the file (and line, if any)."""
        tokens, counts, line_of = [], [], {}
        with naming(path), open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    tok, count = line.split("\t")
                    count = int(count)
                except ValueError:
                    raise ValueError(f"line {line_no}: expected 'token<TAB>count'") from None
                if line_of.setdefault(tok, line_no) != line_no:
                    raise ValueError(f"line {line_no}: duplicate token in vocabulary "
                                     f"(first on line {line_of[tok]})")
                tokens.append(tok)
                counts.append(count)
            return cls(tokens, counts)


class _TokenTable(dict):
    """Token -> id, where looking up a token new to the table adds it with
    the next id, so the keys stay in first-occurrence order."""

    def __missing__(self, token: str) -> int:
        self[token] = new = len(self)
        return new


class TokenRows:
    """Token lists held as rows of int32 ids, with no string per token: row
    i is ``ids[at[i]:at[i + 1]]``, and id k stands for ``tokens[k]``, the
    distinct tokens in first-occurrence order. The ids are read straight
    into the array, so no token string or Python int outlives its list, and
    the table that numbers the tokens is dropped once they are read.
    """

    def __init__(self, token_lists):
        lens, table = [], _TokenTable()

        def rows():
            for tokens in token_lists:
                lens.append(len(tokens))
                yield tokens

        self.ids = np.fromiter(map(table.__getitem__, chain.from_iterable(rows())), dtype=np.int32)
        self.at = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
        self.tokens = list(table)

    def __len__(self):
        return len(self.at) - 1

    def __getitem__(self, i) -> np.ndarray:
        return self.ids[self.at[i]:self.at[i + 1]]

    def stream(self, rows):
        """The ids of the given rows in their order, as arrays cut between
        rows every STREAM_CHUNK ids (an array ends with the row that
        crosses the cut)."""
        picked = np.asarray(rows, dtype=np.intp)
        gap = self.at[picked]  # where each row starts in ids, less where it starts in the stream
        lens = self.at[picked + 1] - gap
        pos = np.concatenate(([0], np.cumsum(lens)))  # where each row starts in the stream
        gap -= pos[:-1]
        cuts = np.searchsorted(pos, np.arange(0, pos[-1], STREAM_CHUNK))
        for a, b in zip(cuts, chain(cuts[1:], [len(picked)])):
            yield self.ids[np.repeat(gap[a:b], lens[a:b]) + np.arange(pos[a], pos[b])]


def summary_rows(pairs) -> TokenRows:
    """The character TokenRows of the pairs' summaries."""
    return TokenRows(char_tokenize(p.summary) for p in pairs)


class EncodedRows:
    """The EncodedPairs of some rows under two vocabularies, built when indexed."""

    def __init__(self, src: TokenRows, tgt: TokenRows, rows, src_vocab: Vocabulary,
                 tgt_vocab: Vocabulary):
        self.src, self.tgt, self.rows = src, tgt, rows
        self.src_map, self.tgt_map = src_vocab.id_map(src.tokens), tgt_vocab.id_map(tgt.tokens)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, k):
        row = self.rows[k]
        return EncodedPair(self.src_map[self.src[row]].tolist(),
                           [BOS, *self.tgt_map[self.tgt[row]].tolist(), EOS])


def rank_vocab(rows: TokenRows, picked, min_count: int = 1,
               max_size: int | None = None) -> Vocabulary:
    """The Vocabulary of the picked rows' tokens, read in the order picked.

    Keeps tokens with count >= min_count, sorted by descending count with
    ties in order of first occurrence, truncated to max_size content tokens
    when given, then prepends the specials. Counts and first occurrences add
    up one ``rows.stream`` array at a time, so the picked ids are never
    gathered whole; only the ids not seen before an array are sorted for
    their first occurrence.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = np.zeros(len(rows.tokens), dtype=np.int64)
    first = np.full(len(counts), -1, dtype=np.int64)  # stream position of each first occurrence
    seen = 0
    for ids in rows.stream(picked):
        counts += np.bincount(ids, minlength=len(counts))
        fresh = np.flatnonzero(first[ids] < 0)  # positions of ids not seen before this array
        distinct, at = np.unique(ids[fresh], return_index=True)
        first[distinct] = seen + fresh[at]
        seen += len(ids)
    if not seen:
        raise ValueError("token stream is empty")
    kept = np.flatnonzero(counts >= min_count)
    kept = kept[np.lexsort((first[kept], -counts[kept]))][:max_size]
    return Vocabulary(list(SPECIAL_TOKENS) + [rows.tokens[i] for i in kept.tolist()],
                      [0] * len(SPECIAL_TOKENS) + counts[kept].tolist())


@dataclass
class EncodedPair:
    """Model-ready id sequences; tgt is bracketed by <s> ... </s>."""

    src_ids: list[int]
    tgt_ids: list[int]

    def __post_init__(self):
        if len(self.tgt_ids) < 2 or self.tgt_ids[0] != BOS or self.tgt_ids[-1] != EOS:
            raise ValueError("tgt_ids must start with <s> and end with </s>")


def encode_pair_chars(pair: DocumentPair, src_vocab: Vocabulary,
                      char_vocab: Vocabulary) -> EncodedPair:
    """Character encoding on both sides (the char/char baseline): the source
    characters as they are, the summary characters bracketed by <s> ... </s>."""
    src_chars, tgt_chars = char_tokenize(pair.short_text), char_tokenize(pair.summary)
    if not src_chars:
        raise ValueError(f"pair id={pair.id}: source text is empty after whitespace removal")
    if not tgt_chars:
        raise ValueError("summary is empty after whitespace removal")
    return EncodedPair(src_vocab.encode(src_chars), [BOS] + char_vocab.encode(tgt_chars) + [EOS])
