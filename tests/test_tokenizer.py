import hashlib
import math
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from hwcsum import tokenizer
from hwcsum.corpus import DocumentPair
from hwcsum.rng import MT19937
from hwcsum.tokenizer import (
    BOS,
    EOS,
    PAD,
    UNK,
    REPRESENTATIONS,
    EncodedPair,
    Lexicon,
    Representation,
    TokenRows,
    Vocabulary,
    char_tokenize,
    load_representations,
    encode_pair_chars,
    rank_vocab,
    word_segment,
)
from oracles import (
    best_segmentation_score,
    reference_lexicon_load,
    reference_word_segment,
    segmentation_log_prob,
)


def test_char_tokenize_cjk():
    assert char_tokenize("奥委会") == ["奥", "委", "会"]


def test_char_tokenize_digits():
    assert char_tokenize("10块钱") == ["1", "0", "块", "钱"]


def test_char_tokenize_empty_and_whitespace():
    assert char_tokenize("") == []
    assert char_tokenize(" \t　\n") == []
    assert char_tokenize("a b") == ["a", "b"]


def test_segment_prefers_lexicon_words():
    entries = {"奥委会": 10, "成立": 5}
    lex = Lexicon(entries)
    tokens = word_segment("奥委会成立", lex)
    assert tokens == ["奥委会", "成立"]
    # and the score really is the global optimum
    assert math.isclose(
        segmentation_log_prob(tokens, entries, lex.total),
        best_segmentation_score(list("奥委会成立"), entries, lex.total),
        abs_tol=1e-9,
    )


def test_segment_all_fallback():
    lex = Lexicon({"毫无关系": 3})
    assert word_segment("某个文本", lex) == ["某", "个", "文", "本"]


def test_segment_empty():
    lex = Lexicon({"词": 1})
    assert word_segment("", lex) == []


def test_segment_empty_lexicon_rejected():
    with pytest.raises(ValueError):
        word_segment("文本", Lexicon({}))


def _random_lexicon(gen, alphabet):
    entries = {}
    for _ in range(1 + gen.bounded(6)):
        length = 1 + gen.bounded(3)
        word = "".join(alphabet[gen.bounded(len(alphabet))] for _ in range(length))
        entries[word] = 1 + gen.bounded(50)
    return entries


def test_segment_optimality_random_cases():
    gen = MT19937(13)
    alphabet = "甲乙丙"
    for _ in range(1000):
        entries = _random_lexicon(gen, alphabet)
        lex = Lexicon(entries)
        n = gen.bounded(7)
        text = "".join(alphabet[gen.bounded(3)] for _ in range(n))
        tokens = word_segment(text, lex)
        assert "".join(tokens) == text
        if n == 0:
            assert tokens == []
            continue
        got = segmentation_log_prob(tokens, entries, lex.total)
        best = best_segmentation_score(list(text), entries, lex.total)
        assert math.isclose(got, best, abs_tol=1e-9)


def test_segment_soundness_fuzz():
    gen = MT19937(21)
    alphabet = "甲乙丙丁 ab1　\t"
    lex = Lexicon({"甲乙": 9, "乙丙丁": 4, "ab": 2, "丁": 7})
    for _ in range(2000):
        s = "".join(alphabet[gen.bounded(len(alphabet))] for _ in range(gen.bounded(24)))
        tokens = word_segment(s, lex)
        stripped = "".join(ch for ch in s if not ch.isspace())
        assert "".join(tokens) == stripped
        assert len(tokens) <= len(char_tokenize(s))


def _scale_lexicon(gen, inventory, n_entries):
    """Distinct 2-4 char words over the inventory; counts fall as 10^6 / rank."""
    entries = {}
    while len(entries) < n_entries:
        word = "".join(inventory[gen.bounded(len(inventory))] for _ in range(2 + gen.bounded(3)))
        if word not in entries:
            entries[word] = max(1, 1_000_000 // (len(entries) + 1))
    return entries


def test_segment_matches_reference_at_scale(tmp_path):
    gen = MT19937(2024)
    inventory = [chr(0x4E00 + 7 * k) for k in range(500)]
    missing = ["A", "7", "。", chr(0x9F00), chr(0x9F01)]  # no lexicon word uses these
    spaces = [" ", "\t", "\u3000", "\n"]
    entries = _scale_lexicon(gen, inventory, 20_000)
    words = list(entries)
    path = tmp_path / "lexicon.tsv"
    path.write_text("".join(f"{w}\t{c}\n" for w, c in entries.items()), encoding="utf-8")
    lex, ref = Lexicon.from_file(path), reference_lexicon_load(path)
    assert type(ref.entries) is dict
    seen = set()
    for _ in range(200):
        pieces, length = [], 0
        while length < 110:
            kind = gen.bounded(10)
            if kind < 6:  # frequent words more often than rare ones
                piece = words[gen.bounded(1 + gen.bounded(len(words)))]
            elif kind < 8:
                piece = inventory[gen.bounded(len(inventory))]
            elif kind < 9:
                piece = missing[gen.bounded(len(missing))]
            else:
                piece = spaces[gen.bounded(len(spaces))]
            pieces.append(piece)
            length += len(piece)
        text = "".join(pieces)
        seen.update(text)
        assert word_segment(text, lex) == reference_word_segment(text, ref)
    assert set(missing) <= seen and set(spaces) <= seen


def test_wide_code_points_never_alias_a_word():
    # ASCII words pack 7 bits a character, so (ord('a') << 7) | 0xE2 is the
    # key of "ab"; the wider 'â' (0xE2) must miss, not match "ab"
    lex = Lexicon({"ab": 5, "a": 3})
    assert (lex._per_key, lex._limit) == (9, 128)
    assert word_segment("aâ", lex) == ["a", "â"]
    assert lex.count("aâ") == 0 and lex.count(chr((97 << 7) | 98)) == 0
    assert word_segment("âab", lex) == ["â", "ab"]
    # a wide code point is read as limit - 1, which the packing keeps above
    # every word's: 'ÿ' (0xFF) packs 9 bits, so 'Ā' (0x100) is not read as 'ÿ'
    lex = Lexicon({"ÿ": 4, "ÿÿ": 9})
    assert lex._limit == 512
    assert word_segment("ÿĀÿ", lex) == ["ÿ", "Ā", "ÿ"] and lex.count("Ā") == lex.count("ÿĀ") == 0


def test_segment_matches_reference_packed_and_byte_keys():
    # words of 1-12 ASCII letters: up to 9 pack into a uint64 key, longer
    # ones are byte keys; texts mix in characters wider than 7 bits
    gen = MT19937(77)
    alphabet = "ab"
    wide = ["â", "ã", chr((97 << 7) | 98), "中", "😀"]
    for _ in range(300):
        entries = {}
        for _ in range(1 + gen.bounded(12)):
            word = "".join(alphabet[gen.bounded(2)] for _ in range(1 + gen.bounded(12)))
            entries[word] = 1 + gen.bounded(40)
        lex, ref = Lexicon(entries), SimpleNamespace(entries=entries)
        chars = alphabet * 4 + "".join(wide) + " "
        text = "".join(chars[gen.bounded(len(chars))] for _ in range(gen.bounded(40)))
        assert word_segment(text, lex) == reference_word_segment(text, ref)


def _holds(lex, entries) -> bool:
    """Whether lex holds exactly the words of entries, with their counts."""
    return len(lex) == len(entries) and {w: lex.count(w) for w in entries} == entries


def test_lexicon_is_frozen():
    entries = {"奥委会": 10, "成立": 5, "今": 1}
    lex = Lexicon(entries)
    with pytest.raises(AttributeError):
        lex.total = 1
    with pytest.raises(AttributeError):
        lex.max_word_len = 9
    with pytest.raises(AttributeError):
        lex.sha256 = "0" * 64
    assert _holds(lex, {"奥委会": 10, "成立": 5, "今": 1})
    assert lex.total == sum(entries.values()) == 16
    assert lex.max_word_len == max(map(len, entries)) == 3


def test_empty_lexicon_still_rejected_by_segmenter():
    lex = Lexicon({})
    assert (lex.total, lex.max_word_len) == (0, 1)
    with pytest.raises(ValueError, match="lexicon is empty"):
        word_segment("文本", lex)


@pytest.mark.parametrize("entries, message", [
    ({"词": 2, "": 1}, "empty word"),
    ({"词": 2, "字": 0}, "'字' must be positive, got 0"),
    ({"词": -3}, "'词' must be positive, got -3"),
])
def test_lexicon_rejects_bad_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        Lexicon(entries)


@pytest.mark.parametrize("bad_line, message", [
    ("字5", "expected 'word<TAB>count'"),
    ("字\t5\t6", "expected 'word<TAB>count'"),
    ("字\tfive", "expected 'word<TAB>count'"),
    ("字\t0", "lexicon count for '字' must be positive, got 0"),
    ("字\t-2", "lexicon count for '字' must be positive, got -2"),
    ("\t4", "lexicon contains an empty word"),
])
def test_lexicon_file_errors_name_the_line(tmp_path, bad_line, message):
    path = tmp_path / "lexicon.tsv"
    path.write_text(f"奥委会\t10\n\n成立\t5\n{bad_line}\n今天\t8\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        Lexicon.from_file(path)
    assert str(err.value) == f"{path}: line 4: {message}"


def test_lexicon_file_accepted_input(tmp_path):
    path = tmp_path / "lexicon.tsv"
    # blank and whitespace-only lines, CRLF endings, a repeated word, no final newline
    path.write_bytes("奥委会\t10\r\n\r\n \t \n成立\t5\n奥委会\t3\n\n今天\t8".encode("utf-8"))
    lex = Lexicon.from_file(path)
    assert _holds(lex, {"奥委会": 3, "成立": 5, "今天": 8})
    assert (lex.total, lex.max_word_len) == (16, 3)


def test_lexicon_file_repeated_word_keeps_last_count(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("词\t0\n字\t2\n词\t4\n", encoding="utf-8")
    assert _holds(Lexicon.from_file(path), {"词": 4, "字": 2})
    # the error names the line whose count stands
    path.write_text("词\t4\n字\t2\n词\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r": line 3: lexicon count for '词'"):
        Lexicon.from_file(path)


# count fields int() accepts that are not plain ASCII digits, and plain
# ones at the edges of the bulk parse
_COUNT_FORMS = [" {}", "+{}", "{} ", "0{}", "\u3000{}", "{}\x0c"]
_ODD_COUNTS = ["1_000", "\uff15", "\u0663", "9223372036854775807", "00000000000000000000012"]
_ALPHABETS = ["abc", "甲乙丙丁", "\U00020000\U00020001", "a甲\U00020000", " x\x1c\u2028\x85"]
_BLANKS = ["", " ", "\t", " \t ", "\u3000\t", "\x1c"]
_ENDS = ["\n", "\r\n", "\r"]


def _lexicon_text(gen, n_lines):
    """A valid lexicon file: words of 1-7 characters from one alphabet (so
    words repeat), counts in the forms int() accepts, blank lines, and
    LF, CRLF and lone CR line ends, with or without a final one."""
    alphabet = _ALPHABETS[gen.bounded(len(_ALPHABETS))]
    lines = []
    for _ in range(n_lines):
        kind = gen.bounded(10)
        if kind == 0:
            lines.append(_BLANKS[gen.bounded(len(_BLANKS))])
            continue
        word = "".join(alphabet[gen.bounded(len(alphabet))] for _ in range(1 + gen.bounded(7)))
        if not word.strip():
            word = "w" + word  # a whitespace-only line is skipped, not a word
        count = str(1 + gen.bounded(10**6))
        if kind == 1:
            count = _COUNT_FORMS[gen.bounded(len(_COUNT_FORMS))].format(count)
        elif kind == 2:
            count = _ODD_COUNTS[gen.bounded(len(_ODD_COUNTS))]
        lines.append(f"{word}\t{count}")
    text = "".join(line + _ENDS[gen.bounded(3)] for line in lines)
    return text if gen.bounded(2) else text.rstrip("\r\n")


def _assert_same_load(path):
    try:
        ref = reference_lexicon_load(path)
    except ValueError as e:
        with pytest.raises(ValueError) as err:
            Lexicon.from_file(path)
        assert str(err.value) == str(e)
        return str(e)
    lex = Lexicon.from_file(path)
    assert len(lex) == len(ref.entries)
    for word, count in ref.entries.items():
        assert lex.count(word) == count, word
    assert (lex.total, lex.max_word_len) == (ref.total, ref.max_word_len)
    return None


def test_lexicon_load_matches_reference_on_generated_files(tmp_path):
    gen = MT19937(5)
    path = tmp_path / "lexicon.tsv"
    for _ in range(300):
        path.write_bytes(_lexicon_text(gen, gen.bounded(40)).encode("utf-8"))
        assert _assert_same_load(path) is None


def test_lexicon_from_a_mapping_matches_the_file_load_on_generated_files(tmp_path):
    """Both constructors build through one table builder: a lexicon built
    from the loaded words holds what the file load holds, word for word."""
    gen = MT19937(6)
    path = tmp_path / "lexicon.tsv"
    for _ in range(300):
        path.write_bytes(_lexicon_text(gen, gen.bounded(40)).encode("utf-8"))
        entries = reference_lexicon_load(path).entries
        loaded, built = Lexicon.from_file(path), Lexicon(entries)
        assert len(loaded) == len(built) == len(entries)
        assert [loaded.count(w) for w in entries] == [built.count(w) for w in entries]
        assert (loaded.total, loaded.max_word_len) == (built.total, built.max_word_len)
        assert built.sha256 is None


@pytest.mark.parametrize("content", [
    "",
    "\n\n",
    "奥委会\t10\r\n\r\n \t \n成立\t5\n奥委会\t3\n\n今天\t8",
    "词\t0\n字\t2\n词\t4\n",
    "词\t-99999999999999999999\n词\t4\n",
    "a\t5\rb\t6\r\rc\t7",
    "\ufeff词\t5\n",
    " 词 \t 5 \n",
    "词\t9223372036854775807\n字\t9223372036854775807\n",
])
def test_lexicon_load_matches_reference_on_accepted_edge_cases(tmp_path, content):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(content.encode("utf-8"))
    assert _assert_same_load(path) is None


@pytest.mark.parametrize("bad_line", [
    "字5", "字\t5\t6", "字\tfive", "字\t", "字\t0x10", "字\t1__0", "字\t5.0", "字\t1:", "字\t/1",
    "字\t0", "字\t-2",
    "字\t-0", "\t4", "字\t-99999999999999999999",
])
def test_lexicon_load_matches_reference_on_malformed_files(tmp_path, bad_line):
    gen = MT19937(len(bad_line))
    path = tmp_path / "lexicon.tsv"
    for _ in range(20):
        lines = _lexicon_text(gen, 12).replace("\r", "\n").split("\n")
        at = gen.bounded(len(lines) + 1)
        lines.insert(at, bad_line)
        path.write_text("\n".join(lines), encoding="utf-8")
        message = _assert_same_load(path)
        assert message is not None and message.startswith(f"{path}: line ")


_WIDE_ALPHABETS = {
    "cjk": "".join(map(chr, range(0x4E00, 0x4E00 + 60))),
    "astral": "".join(map(chr, range(0x20000, 0x20000 + 30))) + "甲乙丙",
}


def _distinct_lexicon_lines(alphabet, n_lines):
    """Well-formed lines of distinct words of 1-4 characters with counts of
    1 to 7 ASCII digits, as in the benchmark's generated lexicon."""
    gen = MT19937(n_lines)
    seen, lines = set(), []
    while len(lines) < n_lines:
        word = "".join(alphabet[gen.bounded(len(alphabet))] for _ in range(1 + gen.bounded(4)))
        if word not in seen:
            seen.add(word)
            lines.append(f"{word}\t{1 + gen.bounded(10**gen.bounded(7))}")
    return lines


@pytest.mark.parametrize("alphabet", _WIDE_ALPHABETS)
@pytest.mark.parametrize("odd_line, at", [(None, None)] + [
    (kind, at) for kind in ("repeated word", "two tabs") for at in ("first", "middle", "last")])
def test_lexicon_load_matches_reference_on_distinct_words(tmp_path, alphabet, odd_line, at):
    """Thousands of distinct words, as is, or with one repeated word or one
    line with two tabs first, in the middle or last."""
    lines = _distinct_lexicon_lines(_WIDE_ALPHABETS[alphabet], 3000)
    if odd_line:
        word = lines[len(lines) // 3].split("\t")[0]
        line = f"{word}\t77" if odd_line == "repeated word" else f"{word}\t5\t6"
        lines.insert({"first": 0, "middle": len(lines) // 2, "last": len(lines)}[at], line)
    path = tmp_path / "lexicon.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = _assert_same_load(path)
    if odd_line == "two tabs":
        assert message.endswith(f": line {lines.index(line) + 1}: expected 'word<TAB>count'")
    else:
        assert message is None and len(Lexicon.from_file(path)) == 3000


def test_lexicon_load_parses_plain_files_in_bulk(tmp_path, monkeypatch):
    """Plain files load without the line reader; a file with a
    whitespace-only line or a count only int() reads goes to it."""
    lines = _distinct_lexicon_lines(_WIDE_ALPHABETS["cjk"], 3000)
    word = lines[7].split("\t")[0]
    plain = ["\n".join(lines) + "\n",  # as generated
             "\n".join(lines + [f"{word}\t77"]) + "\n",  # a repeated word
             "\r\n".join(lines + ["", ""])]  # CRLF line ends, an empty last line
    odd = ["\n".join(lines[:5] + [" \t "] + lines[5:]),
           "\n".join(lines[:5] + [f"{word}\t+5"] + lines[5:])]
    path = tmp_path / "lexicon.tsv"

    def no_line_reader(raw):
        raise AssertionError(f"{path} went to the line reader")

    monkeypatch.setattr(tokenizer, "_read_entries", no_line_reader)
    for text in plain:
        path.write_bytes(text.encode("utf-8"))
        assert _assert_same_load(path) is None
        assert len(Lexicon.from_file(path)) == 3000
    for text in odd:
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(AssertionError, match="went to the line reader"):
            Lexicon.from_file(path)


def test_lexicon_count_of_2_63_or_more_names_its_line(tmp_path):
    path = tmp_path / "lexicon.tsv"
    for count in ("9223372036854775808", "+9223372036854775808", "10000000000000000000000"):
        path.write_text(f"词\t5\n\n字\t{count}\n字\t4\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            Lexicon.from_file(path)
        assert str(err.value) == (
            f"{path}: line 3: lexicon count for '字' must be below 2**63, got {int(count)}")
    # the first malformed line in file order is the one reported
    path.write_text("词\t9223372036854775808\n字\tfive\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r": line 1: lexicon count for '词' must be below"):
        Lexicon.from_file(path)
    path.write_text("词\tfive\n字\t9223372036854775808\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r": line 1: expected 'word<TAB>count'"):
        Lexicon.from_file(path)
    with pytest.raises(ValueError, match=r"lexicon count for '字' must be below 2\*\*63"):
        Lexicon({"词": 1, "字": 2**63})


def test_lexicon_total_is_exact_past_int64(tmp_path):
    top = 2**63 - 1
    path = tmp_path / "lexicon.tsv"
    path.write_text(f"词\t{top}\n字\t{top}\n句\t{top}\n", encoding="utf-8")
    assert Lexicon.from_file(path).total == 3 * top
    assert Lexicon({"词": top, "字": top}).total == 2 * top


def test_lexicon_invalid_utf8_names_its_line(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes("词\t5\r\n字\t3\r".encode("utf-8") + b"\xff\t2\n")
    with pytest.raises(ValueError) as err:
        Lexicon.from_file(path)
    assert str(err.value) == f"{path}: line 3: invalid UTF-8 (invalid start byte)"
    path.write_bytes("词\t5\n".encode("utf-8") + "字".encode("utf-8")[:2])
    with pytest.raises(ValueError, match=r": line 2: invalid UTF-8 \(unexpected end of data\)"):
        Lexicon.from_file(path)
    # a malformed line before the bad bytes is reported first
    path.write_bytes("词5\n".encode("utf-8") + b"\xff\t2\n")
    with pytest.raises(ValueError, match=r": line 1: expected 'word<TAB>count'"):
        Lexicon.from_file(path)


def test_lexicon_count_looks_up_one_word():
    source = {"奥委会": 10, "成立": 5, "今": 1, "abcdefghijkl": 3}
    lex = Lexicon(source)
    source["成立"] = 99  # the table is a copy
    assert _holds(lex, {"奥委会": 10, "成立": 5, "今": 1, "abcdefghijkl": 3})  # packed and byte keys
    assert (len(lex), lex.total, lex.max_word_len) == (4, 19, 12)
    # absent: a prefix, a word of a held length, the empty word, a word past max_word_len
    for word in ("成", "今天", "abcdefghijkm", "", "abcdefghijklm"):
        assert lex.count(word) == 0, word


def vocab_of(stream, min_count=1, max_size=None):
    """rank_vocab over rows of one token each, the stream's tokens in order."""
    rows = TokenRows([tok] for tok in stream)
    return rank_vocab(rows, range(len(rows)), min_count, max_size)


def test_build_vocab_min_count():
    vocab = vocab_of(["a", "a", "b"], min_count=2)
    assert vocab.tokens == ["<pad>", "<unk>", "<s>", "</s>", "a"]
    assert vocab.counts == [0, 0, 0, 0, 2]


def test_build_vocab_order_count_then_first_occurrence():
    stream = ["b", "c", "c", "a", "b", "d"]
    vocab = vocab_of(stream)
    # b and c both occur twice; b appeared first
    assert vocab.tokens[4:] == ["b", "c", "a", "d"]


def test_build_vocab_max_size():
    stream = ["a"] * 5 + ["b"] * 4 + ["c"] * 3 + ["d"]
    vocab = vocab_of(stream, max_size=2)
    assert vocab.tokens == ["<pad>", "<unk>", "<s>", "</s>", "a", "b"]
    assert vocab.n_content == 2


def test_build_vocab_empty_stream_errors():
    with pytest.raises(ValueError):
        vocab_of([])


def counter_ranking(stream, min_count, max_size):
    """The (token, count) ranking a Counter makes of a stream: count
    descending, ties in first-occurrence order, min_count, then max_size."""
    counter = Counter()
    for tok in stream:
        counter[tok] += 1
    occurrence = {tok: i for i, tok in enumerate(counter)}
    ranked = sorted(counter.items(), key=lambda tc: (-tc[1], occurrence[tc[0]]))
    kept = [(t, c) for t, c in ranked if c >= min_count]
    return kept if max_size is None else kept[:max_size]


@pytest.mark.parametrize("seed", range(12))
def test_rank_vocab_matches_the_counter_ranking(seed, monkeypatch):
    """rank_vocab over rows of one token each and over the rows as drawn,
    both streamed in small chunks, ranks as a Counter does, on streams where
    many tokens tie on count; gathering ids through the id map of a rows'
    tokens encodes as Vocabulary.encode, <unk> included."""
    monkeypatch.setattr(tokenizer, "STREAM_CHUNK", 4)  # rows of up to 6 tokens cross the cuts
    rnd = random.Random(seed)
    alphabet = [chr(0x4E00 + i) for i in range(rnd.randint(1, 12))] + ["ab", "a", "词语"]
    rows = [[rnd.choice(alphabet) for _ in range(rnd.randint(0, 6))] for _ in range(rnd.randint(1, 30))]
    held = [[rnd.choice(alphabet + ["新", "外"]) for _ in range(5)] for _ in range(4)]
    stream = [tok for row in rows for tok in row]
    if not stream:
        rows[0], stream = ["a"], ["a"]
    train, other = TokenRows(rows), TokenRows(held)
    assert train.tokens == list(dict.fromkeys(stream))
    for min_count in (1, 2, 3):
        for max_size in (None, 1, 2, 5):
            expected = counter_ranking(stream, min_count, max_size)
            vocab = vocab_of(stream, min_count=min_count, max_size=max_size)
            ranked = rank_vocab(train, range(len(rows)), min_count, max_size)
            maps = ranked.id_map(train.tokens), ranked.id_map(other.tokens)
            for v in (vocab, ranked):
                assert list(zip(v.tokens[4:], v.counts[4:])) == expected
            for k, tokens in enumerate(rows + held):
                ids, to_vocab = ((train[k], maps[0]) if k < len(rows)
                                 else (other[k - len(rows)], maps[1]))
                assert to_vocab[ids].tolist() == vocab.encode(tokens)


def test_build_vocab_ranks_a_stream_longer_than_one_chunk():
    """rank_vocab reads STREAM_CHUNK ids at a time; tokens first seen in a
    later array still rank as a Counter ranks them."""
    rnd = random.Random(7)
    stream = [str(rnd.randrange(50)) for _ in range(70_000)]
    stream += [str(rnd.randrange(40, 300)) for _ in range(70_000)]
    assert 70_000 > tokenizer.STREAM_CHUNK
    for min_count, max_size in ((1, None), (2, 100), (3, 7)):
        vocab = vocab_of(stream, min_count=min_count, max_size=max_size)
        assert list(zip(vocab.tokens[4:], vocab.counts[4:])) == counter_ranking(
            stream, min_count, max_size)


def test_rank_vocab_refuses_an_empty_stream_and_a_min_count_below_one():
    rows = TokenRows([["a"], []])
    with pytest.raises(ValueError, match="token stream is empty"):
        rank_vocab(rows, [1])
    with pytest.raises(ValueError, match="min_count must be >= 1"):
        rank_vocab(rows, [0], min_count=0)


def test_special_ids_are_fixed():
    vocab = vocab_of(["x"])
    assert (vocab.ids["<pad>"], vocab.ids["<unk>"], vocab.ids["<s>"], vocab.ids["</s>"]) == (
        PAD, UNK, BOS, EOS)


def test_vocab_load_bad_count_names_its_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\t0\n<unk>\t0\n<s>\t0\n</s>\t0\n词\tmany\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        Vocabulary.load(path)
    assert str(err.value) == f"{path}: line 5: expected 'token<TAB>count'"


def test_vocab_load_structure_errors_name_the_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\t0\n<unk>\t0\n<s>\t0\n</s>\t0\n词\t5\n\n字\t3\n词\t2\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        Vocabulary.load(path)
    assert str(err.value) == f"{path}: line 8: duplicate token in vocabulary (first on line 5)"
    path.write_text("<pad>\t0\n<unk>\t0\n<s>\t0\n词\t5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        Vocabulary.load(path)
    assert str(err.value) == f"{path}: vocabulary must start with the four special tokens"
    # built directly, with no file, the errors read as before
    with pytest.raises(ValueError, match="^duplicate token in vocabulary$"):
        Vocabulary(list(tokenizer.SPECIAL_TOKENS) + ["词", "词"], [0] * 6)
    with pytest.raises(ValueError, match="^tokens and counts length mismatch$"):
        Vocabulary(list(tokenizer.SPECIAL_TOKENS) + ["词"], [0] * 4)


def test_vocab_file_round_trip_and_determinism(tmp_path):
    stream = ["词", "词", "字", "b", "词", "字"]
    vocab = vocab_of(stream)
    p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    vocab.save(p1)
    vocab_of(stream).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = Vocabulary.load(p1)
    assert loaded.tokens == vocab.tokens and loaded.counts == vocab.counts


def test_vocab_save_failing_mid_write_leaves_no_file(tmp_path):
    vocab = vocab_of(["词", "字", "\ud800"])  # a lone surrogate is not UTF-8
    with pytest.raises(UnicodeEncodeError):
        vocab.save(tmp_path / "vocab.txt")
    assert list(tmp_path.iterdir()) == []


def test_encode_decode_round_trip():
    vocab = vocab_of(["a", "b", "c"])
    tokens = ["a", "c", "b", "a"]
    assert vocab.decode(vocab.encode(tokens)) == tokens
    assert vocab.encode([]) == []
    assert vocab.decode([]) == []


def test_encode_oov_maps_to_unk():
    vocab = vocab_of(["a"])
    assert vocab.encode(["zzz"]) == [UNK]


def test_decode_out_of_range_errors():
    vocab = vocab_of(["a"])
    with pytest.raises(ValueError):
        vocab.decode([99])
    with pytest.raises(ValueError):
        vocab.decode([-1])


def test_decode_strip_special():
    vocab = vocab_of(["a"])
    assert vocab.decode([BOS, 4, EOS, PAD, UNK]) == ["a"]


def test_single_char_lexicon_segments_into_chars():
    lex = Lexicon({"次": 2})  # nothing matches, so every word is one char
    assert word_segment("文本内容", lex) == char_tokenize("文本内容")


def test_encode_pair_chars_shapes():
    vocab = vocab_of(char_tokenize("奥委会今天成立"))
    enc = encode_pair_chars(DocumentPair(1, "奥委会 今天成立", "奥委会成立"), vocab, vocab)
    assert enc.src_ids == vocab.encode(char_tokenize("奥委会今天成立"))
    assert enc.tgt_ids == [BOS, *vocab.encode(char_tokenize("奥委会成立")), EOS]


def test_encode_pair_empty_summary_errors():
    vocab = vocab_of(char_tokenize("奥委会"))
    with pytest.raises(ValueError, match="^summary is empty after whitespace removal$"):
        encode_pair_chars(DocumentPair(1, "奥委会", " "), vocab, vocab)
    with pytest.raises(ValueError, match="^pair id=7: source text is empty after whitespace removal$"):
        encode_pair_chars(DocumentPair(7, " ", "奥委会"), vocab, vocab)


def test_encoded_pair_invariant():
    with pytest.raises(ValueError):
        EncodedPair([1], [BOS])
    with pytest.raises(ValueError):
        EncodedPair([1], [4, EOS])


def test_compression_property_fuzz():
    # word segmentation never yields more tokens than characters, with
    # equality exactly when every chosen word is a single character
    gen = MT19937(31)
    alphabet = "甲乙丙丁戊 x7"
    for _ in range(2000):
        lex = Lexicon(_random_lexicon(gen, "甲乙丙丁戊"))
        s = "".join(alphabet[gen.bounded(len(alphabet))] for _ in range(gen.bounded(30)))
        words = word_segment(s, lex)
        chars = char_tokenize(s)
        assert len(words) <= len(chars)
        if len(words) == len(chars):
            assert all(len(w) == 1 for w in words)
        else:
            assert any(len(w) > 1 for w in words)


def _lexicon_file(tmp_path, text="城市\t5\n交通\t3\n"):
    path = tmp_path / "lexicon.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def test_lexicon_records_the_sha256_of_the_bytes_it_read(tmp_path):
    path = _lexicon_file(tmp_path)
    lex = Lexicon.from_file(path)
    assert lex.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert Lexicon({"城市": 5}).sha256 is None
    assert _holds(lex, {"城市": 5, "交通": 3})


def test_representation_tokens_by_name(tmp_path):
    path = _lexicon_file(tmp_path)
    hybrid, baseline = Representation("word_char", path), Representation("char_char", path)
    assert hybrid.tokens("城市 交通好") == word_segment("城市交通好", Lexicon.from_file(path))
    assert hybrid.tokens("城市 交通好") == ["城市", "交通", "好"]
    assert baseline.tokens("城市 交通好") == char_tokenize("城市交通好")
    assert hybrid.lexicon_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    # the baseline keeps a lexicon path as given but never reads the file
    missing = Representation("char_char", tmp_path / "missing.tsv")
    assert missing.lexicon_path == tmp_path / "missing.tsv"
    assert (missing.lexicon, missing.lexicon_sha256, baseline.lexicon) == (None, None, None)


def test_representations_share_one_lexicon_load(tmp_path, monkeypatch):
    path = _lexicon_file(tmp_path)
    loads = []

    def counting_load(p):
        loads.append(p)
        return load(p)

    load = Lexicon.from_file
    monkeypatch.setattr(Lexicon, "from_file", counting_load)
    reps, sha256 = load_representations(["char_char", "word_char"], path)
    assert loads == [path]
    assert [r.name for r in reps] == ["char_char", "word_char"]
    assert reps[0].lexicon is None and reps[1].lexicon_sha256 == sha256
    assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    # a given lexicon is loaded, and hashed, even when no name segments with it
    reps, sha256 = load_representations(["char_char"], path)
    assert len(loads) == 2 and sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_representations(["char_char"])[1] is None


def test_representation_refuses_unknown_names_and_a_missing_lexicon():
    assert REPRESENTATIONS == ("char_char", "word_char")
    for name in ("word-char", "wordchar", "char", ""):
        with pytest.raises(ValueError, match="unknown representation"):
            Representation(name)
        with pytest.raises(ValueError, match="unknown representation"):
            Representation.check(name, "lexicon.tsv")
    with pytest.raises(ValueError, match="needs --lexicon"):
        Representation("word_char")
    Representation.check("word_char", "lexicon.tsv")  # checks names, reads no file
    with pytest.raises(ValueError, match="needs a lexicon entry in the config"):
        Representation.check("word_char", None, "a lexicon entry in the config")


def test_word_char_refuses_an_empty_lexicon_when_built(tmp_path):
    """A lexicon with no entries fails where the word_char representation is
    built, naming the file, not at the first text it segments; a char_char
    run given the same unused file keeps working and records its hash."""
    empty = tmp_path / "empty.tsv"
    for content in ("", "\n \n"):
        empty.write_text(content, encoding="utf-8")
        message = f"^{re.escape(str(empty))}: the lexicon is empty; word_char needs at least one word$"
        with pytest.raises(ValueError, match=message):
            Representation("word_char", empty)
        with pytest.raises(ValueError, match=message):
            load_representations(["char_char", "word_char"], empty)
        (baseline,), sha256 = load_representations(["char_char"], empty)
        assert baseline.tokens("城市") == ["城", "市"]
        assert sha256 == hashlib.sha256(content.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("content", ["\ufeffab\t3\n", "\ufeffab\t+3\n"], ids=["bulk", "line-reader"])
def test_lexicon_skips_one_leading_byte_order_mark(tmp_path, content):
    """A UTF-8 byte-order mark is not part of the first word, on either load
    path; sha256 is still the hash of the bytes read."""
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(content.encode("utf-8"))
    lex = Lexicon.from_file(path)
    assert (len(lex), lex.count("ab"), lex.count("\ufeffab")) == (1, 3, 0)
    assert word_segment("abc", lex) == ["ab", "c"]
    assert lex.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    # only one mark is skipped: a second is part of the word
    path.write_bytes(("\ufeff" + content).encode("utf-8"))
    assert Lexicon.from_file(path).count("\ufeffab") == 3
