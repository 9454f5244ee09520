import io
import os
import re

import pytest

from hwcsum.corpus import (
    DocumentPair,
    ParseError,
    atomic_write,
    filter_by_score,
    parse_lcsts,
    read_jsonl,
    split_indices,
    split_train_validation,
    write_jsonl,
    write_lcsts,
)
from hwcsum.rng import MT19937

SINGLE_BLOCK = """<doc id=0>
<human_label>5</human_label>
<summary>s</summary>
<short_text>t</short_text>
</doc>
"""


def make_pairs(n, labels=None):
    return [DocumentPair(i, f"text{i}", f"sum{i}", labels[i] if labels else None) for i in range(n)]


def test_single_block():
    part, issues = parse_lcsts(io.StringIO(SINGLE_BLOCK), "III")
    assert issues == []
    assert part == [DocumentPair(0, "t", "s", 5)]


def test_block_content_on_own_lines():
    text = "<doc id=3>\n<summary>\n  headline here\n</summary>\n<short_text>\nbody\nmore body\n</short_text>\n</doc>\n"
    part, issues = parse_lcsts(io.StringIO(text), "I")
    assert issues == []
    assert part[0].summary == "headline here"
    assert part[0].short_text == "body more body"


def test_serialize_reparse_identity():
    original = make_pairs(7, labels=[1, 2, 3, 4, 5, 3, 2])
    buf = io.StringIO()
    write_lcsts(original, buf)
    buf.seek(0)
    reparsed, issues = parse_lcsts(buf, "II")
    assert issues == []
    assert reparsed == original


def test_serialize_reparse_identity_unlabeled():
    original = make_pairs(4)
    buf = io.StringIO()
    write_lcsts(original, buf)
    buf.seek(0)
    reparsed, issues = parse_lcsts(buf, "I")
    assert reparsed == original and issues == []


def test_jsonl_round_trip():
    original = make_pairs(5, labels=[5, 4, 3, 2, 1])
    buf = io.StringIO()
    write_jsonl(original, buf)
    buf.seek(0)
    assert read_jsonl(buf) == original


@pytest.mark.parametrize("line,message", [
    ('{"text": "a", "summary": "b"}', "missing field(s) id"),
    ('{"id": 1, "summary": "b"}', "missing field(s) text"),
    ('{"id": 1, "text": "a"}', "missing field(s) summary"),
    ('{"id": "x1", "text": "a", "summary": "b"}', "id 'x1' is not an integer"),
    ('{"id": 1.5, "text": "a", "summary": "b"}', "id 1.5 is not an integer"),
    ('{"id": 1, "text": "a", "summary": "b", "label": "3"}', "label '3' is not an integer"),
    ('{"id": 1, "text": "a", "summary": "b", "label": true}', "label True is not an integer"),
    ('{"id": 1, "text": "a", "summary": "b", "label": 9}', "pair id=1: human_label 9 not in 1..5"),
    ('{"id": 1, "text": "a",', "invalid JSON (Expecting property name enclosed in double quotes"),
    ('[1, "a", "b"]', "expected a JSON object"),
    ('{"id": 1, "text": ["a"], "summary": "b"}', "text and summary must be strings"),
    # json.loads refuses an integer of over 4,300 digits with a plain ValueError
    pytest.param(f'{{"id": {"1" * 5000}, "text": "a", "summary": "b"}}', "Exceeds the limit",
                 id="id-too-long"),
    pytest.param(f'{{"id": 1, "text": "a", "summary": "b", "label": {"1" * 5000}}}',
                 "Exceeds the limit", id="label-too-long"),
    # json.loads raises a RecursionError past its nesting depth
    pytest.param("[" * 100_000, "JSON nested too deeply to read", id="nested-too-deep"),
])
def test_jsonl_bad_record_names_its_line(line, message):
    good = '{"id": 0, "text": "t", "summary": "s"}\n'
    with pytest.raises(ParseError, match=r"^line 3: " + re.escape(message)):
        read_jsonl(io.StringIO(good + "\n" + line + "\n"))


def test_malformed_block_is_reported_not_fatal():
    text = "<doc id=0>\n<summary>a</summary>\n</doc>\n" + SINGLE_BLOCK.replace("id=0", "id=1")
    part, issues = parse_lcsts(io.StringIO(text), "I")
    assert len(part) == 1 and part[0].id == 1
    assert len(issues) == 1 and "missing <short_text>" in issues[0].message
    assert issues[0].line == 1


GOOD_BLOCK = "<doc id={}>\n<summary>\ns{}\n</summary>\n<short_text>\nt{}\n</short_text>\n</doc>\n"


def _good(*ids):
    return "".join(GOOD_BLOCK.format(i, i, i) for i in ids)


@pytest.mark.parametrize("doc_close", ["", "</doc>\n"], ids=["next-doc", "doc-close"])
def test_an_open_field_tag_ends_at_the_next_record_boundary(doc_close):
    """A field tag left open swallows no later document: a <doc> or </doc>
    line ends the record as unterminated, and the next blocks parse."""
    text = "<doc id=0>\n<summary>\nabc\n" + doc_close + _good(1, 2)  # no </summary>
    pairs, issues = parse_lcsts(io.StringIO(text), "I")
    assert [(p.id, p.summary, p.short_text) for p in pairs] == [(1, "s1", "t1"), (2, "s2", "t2")]
    assert [(i.line, i.message) for i in issues] == [(1, "doc id=0: unterminated <summary>")]
    with pytest.raises(ParseError, match=r"^line 1: doc id=0: unterminated <summary>$"):
        parse_lcsts(io.StringIO(text), "I", strict=True)


@pytest.mark.parametrize("bad, line, message", [
    ("<doc id=7>\n<summary>s</summary>\n", 1, "doc id=7: unterminated block"),
    ("stray words\n", 1, "content outside <doc> block: 'stray words'"),
    ("<doc id=7>\n<summary>s</summary>\n<title>x</title>\n", 3,
     "doc id=7: unrecognized line '<title>x</title>'"),
    # the rest of the record, through its </doc>, is part of the one defect
    ("<doc id=7>\n<summary>s</summary>\n<title>x</title>\n<short_text>t</short_text>\n</doc>\n",
     3, "doc id=7: unrecognized line '<title>x</title>'"),
    ("<doc id=7>\n<summary></summary>\n<short_text>t</short_text>\n</doc>\n", 1,
     "pair id=7: empty text or summary"),
    # an id too long for int() is the record's first defect; the rest is skipped
    (f"<doc id={'1' * 5000}>\n<summary>s</summary>\n<title>x</title>\n</doc>\n", 1,
     "doc id of 5000 digits is too long to read"),
], ids=["unterminated-before-doc", "outside-doc", "unrecognized-then-resync",
        "unrecognized-then-skip-to-end", "empty-summary", "id-too-long"])
def test_a_defect_is_reported_at_its_line_and_the_next_block_parses(bad, line, message):
    pairs, issues = parse_lcsts(io.StringIO(bad + _good(1)), "I")
    assert [(p.id, p.summary, p.short_text) for p in pairs] == [(1, "s1", "t1")]
    assert [(i.line, i.message) for i in issues] == [(line, message)]
    with pytest.raises(ParseError, match=rf"^line {line}: {re.escape(message)}$"):
        parse_lcsts(io.StringIO(bad + _good(1)), "I", strict=True)


def test_an_unterminated_block_at_the_end_of_input_is_reported():
    pairs, issues = parse_lcsts(io.StringIO(_good(1) + "<doc id=7>\n<summary>s</summary>\n"), "I")
    assert [p.id for p in pairs] == [1]
    assert [(i.line, i.message) for i in issues] == [(9, "doc id=7: unterminated block at end of input")]


def _labeled(i):
    return [f"<doc id={i}>", f"<human_label>{i % 5 + 1}</human_label>", f"<summary>s{i}</summary>",
            f"<short_text>t{i}</short_text>", "</doc>"]


def _labeled_on_own_lines(i):
    return [f"<doc id={i}>", "<human_label>", str(i % 5 + 1), "</human_label>", "<summary>", "",
            f"s{i}", "</summary>", "", "<short_text>", f"t{i}", "</short_text>", "</doc>"]


def _fields(i, drop=None):
    """The label, summary and short_text lines of _labeled(i), but drop's."""
    return [x for x in _labeled(i)[1:4] if not x.startswith(f"<{drop}>")]


# One planted defect each: (lines of the unit for its first id i, (line offset
# in the unit, message) of its one issue). A record that no </doc> ends is
# followed in its unit by a good record, whose <doc> line ends it.
RECORD_DEFECTS = [
    (lambda i: [f"<doc id={i}>", f"<summary>s{i}</summary>", "<title>x</title>",
                f"<short_text>t{i}</short_text>", "</doc>"],
     (2, "doc id={i}: unrecognized line '<title>x</title>'")),
    (lambda i: [f"<doc id={i}>", "<title>x</title>", *_fields(i), *_labeled(i + 1)],
     (1, "doc id={i}: unrecognized line '<title>x</title>'")),
    (lambda i: [f"<doc id={i}>", "<summary>", "abc", "</doc>"], (0, "doc id={i}: unterminated <summary>")),
    (lambda i: [f"<doc id={i}>", "<summary>", "abc", *_labeled(i + 1)],
     (0, "doc id={i}: unterminated <summary>")),
    (lambda i: [f"<doc id={i}>", *_fields(i), *_labeled(i + 1)], (0, "doc id={i}: unterminated block")),
    (lambda i: [f"<doc id={i}>", *_fields(i, "summary"), "</doc>"], (0, "doc id={i}: missing <summary>")),
    (lambda i: [f"<doc id={i}>", *_fields(i, "short_text"), "</doc>"],
     (0, "doc id={i}: missing <short_text>")),
    (lambda i: [f"<doc id={i}>", "<human_label>7</human_label>", *_fields(i, "human_label"), "</doc>"],
     (0, "doc id={i}: bad human_label '7'")),
    (lambda i: [f"<doc id={i}>", *_fields(i, "human_label"), "</doc>"],
     (0, "doc id={i}: part III record has no <human_label>")),
    (lambda i: [f"<doc id={i}>", *_fields(i, "summary"), "<summary> </summary>", "</doc>"],
     (0, "pair id={i}: empty text or summary")),
    (lambda i: ["stray words"], (0, "content outside <doc> block: 'stray words'")),
    (lambda i: ["</doc>"], (0, "content outside <doc> block: '</doc>'")),
]
# what may end the input: a good record, or one that the end of input leaves open
LAST_RECORDS = [
    (_labeled, None),
    (lambda i: [f"<doc id={i}>", *_fields(i)], (0, "doc id={i}: unterminated block at end of input")),
    (lambda i: [f"<doc id={i}>", *_fields(i, "summary"), "<summary>", "abc"],
     (0, "doc id={i}: unterminated block at end of input")),
    (lambda i: [f"<doc id={i}>", "<title>x</title>", *_fields(i)],
     (1, "doc id={i}: unrecognized line '<title>x</title>'")),
]


def test_each_bad_record_is_one_issue_in_a_shuffled_corpus():
    """Good records and records with one planted defect each, in an MT19937
    shuffle, then each kind of last record in turn: every good record parses,
    every bad one is exactly one issue at its expected line, and strict raises
    the first of them."""
    for last in range(len(LAST_RECORDS)):
        _check_shuffled_corpus(last)


def _check_shuffled_corpus(last):
    units = [(_labeled, None), (_labeled_on_own_lines, None)] * 8 + RECORD_DEFECTS * 3
    MT19937(last).shuffle(units)
    lines, pairs, issues = [], [], []
    for make, issue in units + [LAST_RECORDS[last]]:
        i = len(lines)  # ids differ by unit, and the good record after a bad one is i + 1
        unit = make(i)
        good = [int(m[1]) for m in map(re.compile(r"<doc id=(\d+)>$").match, unit) if m]
        if issue is not None:
            issues.append((len(lines) + 1 + issue[0], issue[1].format(i=i)))
            good = [n for n in good if n != i]
        pairs += [DocumentPair(n, f"t{n}", f"s{n}", n % 5 + 1) for n in good]
        lines += unit
    text = "\n".join(lines) + "\n"
    got_pairs, got_issues = parse_lcsts(io.StringIO(text), "III")
    assert got_pairs == pairs
    assert [(x.line, x.message) for x in got_issues] == issues
    assert len(issues) == 3 * len(RECORD_DEFECTS) + (last > 0)
    with pytest.raises(ParseError, match=f"^line {issues[0][0]}: {re.escape(issues[0][1])}$"):
        parse_lcsts(io.StringIO(text), "III", strict=True)


def test_strict_mode_raises():
    text = "<doc id=0>\n<summary>a</summary>\n</doc>\n"
    with pytest.raises(ParseError):
        parse_lcsts(io.StringIO(text), "I", strict=True)


def test_parse_lcsts_refuses_an_unknown_part():
    with pytest.raises(ValueError) as err:
        parse_lcsts(io.StringIO(SINGLE_BLOCK), "IV")
    assert str(err.value) == "part must be one of ('I', 'II', 'III'), got 'IV'"


def test_labeled_part_requires_label():
    text = "<doc id=0>\n<summary>a</summary>\n<short_text>b</short_text>\n</doc>\n"
    part, issues = parse_lcsts(io.StringIO(text), "III")
    assert len(part) == 0
    assert any("no <human_label>" in i.message for i in issues)
    # same block is fine for Part I
    part, issues = parse_lcsts(io.StringIO(text), "I")
    assert len(part) == 1 and issues == []


def test_label_out_of_range_rejected():
    # "²" is a digit to str.isdigit but not a number int() reads
    # a label of 5000 digits is too long for int() to read
    for label in ("9", "²", "1" * 5000):
        text = SINGLE_BLOCK.replace(">5<", f">{label}<")
        part, issues = parse_lcsts(io.StringIO(text), "III")
        assert part == [] and issues[0].message == f"doc id=0: bad human_label {label!r}"


def test_text_is_nfc_normalized_and_stripped():
    # U+0041 U+030A composes to U+00C5
    text = "<doc id=0>\n<summary>  Å  </summary>\n<short_text> t </short_text>\n</doc>\n"
    part, _ = parse_lcsts(io.StringIO(text), "I")
    assert part[0].summary == "Å"
    assert part[0].short_text == "t"


def test_filter_by_score_counts():
    part = make_pairs(6, labels=[1, 2, 3, 4, 5, 3])
    kept = filter_by_score(part, 3)
    assert [p.id for p in kept] == [2, 3, 4, 5]


def test_filter_min_score_1_is_identity():
    part = make_pairs(5, labels=[1, 5, 2, 3, 4])
    assert filter_by_score(part, 1) == part


def test_filter_monotone_in_score():
    gen = MT19937(5)
    part = make_pairs(50, labels=[1 + gen.bounded(5) for _ in range(50)])
    previous = {p.id for p in filter_by_score(part, 1)}
    for s in (2, 3, 4, 5):
        current = {p.id for p in filter_by_score(part, s)}
        assert current <= previous
        previous = current


def test_filter_requires_labels():
    part = make_pairs(3)
    with pytest.raises(ValueError, match="id=0"):
        filter_by_score(part, 3)


def test_split_golden_seed0():
    # frozen oracle: the seed-0 reference shuffle of range(5) is [1, 0, 2, 3, 4],
    # so the validation picks are original indices {0, 1}
    part = make_pairs(5)
    train, valid = split_train_validation(part, 2, 0)
    assert [p.id for p in valid] == [0, 1]
    assert [p.id for p in train] == [2, 3, 4]


def test_split_partitions_input():
    part = make_pairs(237)
    train, valid = split_train_validation(part, 41, 3)
    assert len(valid) == 41 and len(train) == 237 - 41
    train_ids = {p.id for p in train}
    valid_ids = {p.id for p in valid}
    assert train_ids.isdisjoint(valid_ids)
    assert train_ids | valid_ids == {p.id for p in part}


def test_split_zero_validation():
    part = make_pairs(5)
    train, valid = split_train_validation(part, 0, 0)
    assert valid == [] and train == part


def test_split_negative_validation_errors():
    part = make_pairs(10)
    with pytest.raises(ValueError, match="n_validation must be >= 0"):
        split_train_validation(part, -3, 0)


def test_split_too_large_errors():
    part = make_pairs(5)
    with pytest.raises(ValueError):
        split_train_validation(part, 5, 0)


def test_split_deterministic():
    part = make_pairs(100)
    a = split_train_validation(part, 10, 4)
    b = split_train_validation(part, 10, 4)
    assert a == b


@pytest.mark.parametrize("name,part", [("part1.txt", "I"), ("part3.txt", "III")])
def test_serialize_reparse_identity_bundled_fixtures(synthetic_dir, name, part):
    with open(synthetic_dir / name, encoding="utf-8") as f:
        original, issues = parse_lcsts(f, part)
    assert issues == []
    buf = io.StringIO()
    write_lcsts(original, buf)
    buf.seek(0)
    reparsed, _ = parse_lcsts(buf, part)
    assert reparsed == original


# -- conditional checks against the real dataset, when present ---------------

LCSTS_DIR = os.environ.get("LCSTS_DIR")
needs_lcsts = pytest.mark.skipif(
    not LCSTS_DIR, reason="set LCSTS_DIR to the directory holding PART_II.txt / PART_III.txt")


def _load_real_part(name, part):
    path = os.path.join(LCSTS_DIR, name)
    if not os.path.exists(path):
        pytest.skip(f"{path} not found")
    with open(path, encoding="utf-8") as f:
        corpus, _ = parse_lcsts(f, part)
    return corpus


@needs_lcsts
def test_real_part3_counts():
    part3 = _load_real_part("PART_III.txt", "III")
    assert len(part3) == 1106
    assert len(filter_by_score(part3, 3)) == 725


@needs_lcsts
def test_real_part2_counts():
    part2 = _load_real_part("PART_II.txt", "II")
    assert len(part2) == 10666
    assert len(filter_by_score(part2, 3)) == 8685


def test_split_indices_match_split_train_validation():
    part = [DocumentPair(i, f"t{i}", f"s{i}") for i in range(30)]
    train_idx, valid_idx = split_indices(30, 7, 11)
    train, valid = split_train_validation(part, 7, 11)
    assert [part[i] for i in train_idx] == train
    assert [part[i] for i in valid_idx] == valid
    assert sorted(train_idx + valid_idx) == list(range(30))


# ---- crash-safe writes -------------------------------------------------------


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old", encoding="utf-8")
    with atomic_write(path) as f:
        f.write("new")
        assert path.read_text(encoding="utf-8") == "old"  # not visible mid-write
    assert path.read_text(encoding="utf-8") == "new"
    assert os.listdir(tmp_path) == ["report.json"]


def test_atomic_write_failing_writer_leaves_no_partial_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_write(path) as f:
            f.write("half a rep")
            raise RuntimeError("disk full")
    assert os.listdir(tmp_path) == []
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path, "wb") as f:
            f.write(b"half")
            raise RuntimeError("disk full")
    assert os.listdir(tmp_path) == ["report.json"]
    assert path.read_bytes() == b"old"
