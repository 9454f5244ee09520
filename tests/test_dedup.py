import pytest

from hwcsum.corpus import DocumentPair
from hwcsum.dedup import clean_part1, is_overlapping, normalize_for_match
from hwcsum.rng import MT19937

ARTICLE = "明天是第8个国际癫痫关爱日最新数据显示上海癫痫疾病发病率已达千分之八"
SUMMARY = "长时间用电子产品可能会诱发癫痫病"


def pair(pid, text, summary, label=None):
    return DocumentPair(pid, text, summary, label)


def test_normalize_removes_all_whitespace():
    assert normalize_for_match("a b　c") == "abc"
    assert normalize_for_match(" \t\nx y ") == "xy"


def test_normalize_idempotent():
    gen = MT19937(1)
    alphabet = "ab 字　\t词"
    for _ in range(200):
        s = "".join(alphabet[gen.bounded(len(alphabet))] for _ in range(gen.bounded(20)))
        once = normalize_for_match(s)
        assert normalize_for_match(once) == once


def test_overlap_trailing_newspaper_name():
    # the classic case: same summary, article B is article A plus a 4-char source name
    a = pair(1, ARTICLE, SUMMARY)
    b = pair(2, ARTICLE + "新闻晨报", SUMMARY)
    assert is_overlapping(a, b)
    assert is_overlapping(b, a)
    assert not is_overlapping(a, b, 3)


def test_overlap_identical_pairs():
    a = pair(1, ARTICLE, SUMMARY)
    assert is_overlapping(a, a)


def test_overlap_requires_equal_summary():
    a = pair(1, ARTICLE, SUMMARY)
    b = pair(2, ARTICLE, "另一个标题")
    assert not is_overlapping(a, b)


def test_overlap_ignores_whitespace_differences():
    a = pair(1, "文本 内容", "标 题")
    b = pair(2, "文本内容", "标题")
    assert is_overlapping(a, b)


def test_prefix_must_be_at_the_end():
    a = pair(1, ARTICLE, SUMMARY)
    b = pair(2, "头部" + ARTICLE, SUMMARY)  # extra chars at the start, not a suffix
    assert not is_overlapping(a, b, 2)


def _planted_fixture():
    """100 Part I pairs, exactly 3 overlapping a 10-pair Part III."""
    gen = MT19937(7)
    chars = "甲乙丙丁戊己庚辛壬癸"

    def text(n):
        return "".join(chars[gen.bounded(len(chars))] for _ in range(n))

    part3 = [pair(300 + i, text(30), text(8), label=5) for i in range(10)]
    part1_pairs = [pair(i, text(30), text(8)) for i in range(97)]
    # planted overlaps against part3 items 0, 3, 7
    part1_pairs.insert(10, pair(900, part3[0].short_text, part3[0].summary))
    part1_pairs.insert(40, pair(901, part3[3].short_text + "某报社", part3[3].summary))
    part1_pairs.insert(70, pair(902, part3[7].short_text[:-2] + "  ", part3[7].summary))
    return part1_pairs, part3


def test_clean_removes_exactly_the_planted_overlaps():
    part1, part3 = _planted_fixture()
    result = clean_part1(part1, part3)
    removed_ids = {r.part1_id for r in part1_pairs_removed(result)}
    assert removed_ids == {900, 901, 902}
    assert len(result.kept) + len(result.removed) == len(part1)
    assert {r.part1_id: r.part3_id for r in result.removed} == {900: 300, 901: 303, 902: 307}
    # kept order is input order
    kept_ids = [p.id for p in result.kept]
    assert kept_ids == [p.id for p in part1 if p.id not in removed_ids]


def part1_pairs_removed(result):
    assert len({r.part1_id for r in result.removed}) == len(result.removed)
    return result.removed


def test_every_removal_has_a_valid_witness():
    part1, part3 = _planted_fixture()
    result = clean_part1(part1, part3)
    by_id = {p.id: p for p in part3}
    originals = {p.id: p for p in part1}
    for item in result.removed:
        assert is_overlapping(originals[item.part1_id], by_id[item.part3_id])


def test_clean_is_idempotent():
    part1, part3 = _planted_fixture()
    once = clean_part1(part1, part3)
    twice = clean_part1(once.kept, part3)
    assert twice.removed == []
    assert twice.kept == once.kept


def test_empty_part3_removes_nothing():
    part1, _ = _planted_fixture()
    result = clean_part1(part1, [])
    assert result.kept == part1 and result.removed == []


def test_raising_delta_never_shrinks_removals():
    part1, part3 = _planted_fixture()
    # extra near-miss: differs by 20 chars at the end, beyond the default 15
    part1.append(pair(903, part3[1].short_text + "字" * 20, part3[1].summary))
    previous: set[int] = set()
    for delta in (0, 5, 15, 20, 40):
        removed = {r.part1_id for r in clean_part1(part1, part3, delta).removed}
        assert previous <= removed
        previous = removed
    assert 903 in previous


def test_negative_delta_rejected():
    a = pair(1, ARTICLE, SUMMARY)
    with pytest.raises(ValueError, match="max_suffix_delta must be >= 0"):
        clean_part1([a], [a], -1)
    with pytest.raises(ValueError, match="max_suffix_delta must be >= 0"):
        clean_part1([], [], -1)
    with pytest.raises(ValueError, match="max_suffix_delta must be >= 0"):
        is_overlapping(a, pair(2, ARTICLE, "另一个标题"), -1)
