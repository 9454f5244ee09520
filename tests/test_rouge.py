import itertools
import math

import pytest

from hwcsum.rng import MT19937
from hwcsum.rouge import (METRICS, evaluate_corpus, lcs_length, ngram_counts, rouge_l, rouge_n,
                          score_pair)
from oracles import brute_force_lcs, dp_lcs_length


def test_ngram_counts_unigrams():
    assert ngram_counts(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}


def test_ngram_counts_bigrams():
    assert ngram_counts(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}


def test_ngram_counts_n_exceeds_length():
    assert ngram_counts(["a", "b"], 3) == {}
    assert ngram_counts([], 1) == {}


def test_ngram_counts_invalid_n():
    with pytest.raises(ValueError):
        ngram_counts(["a"], 0)


def test_rouge_n_identical():
    s = list("abcabc")
    for n in (1, 2, 3):
        scores = rouge_n(s, s, n)
        assert scores.precision == scores.recall == scores.f1 == 1.0


def test_rouge_n_hand_case():
    scores = rouge_n(list("abc"), list("acd"), 1)
    assert math.isclose(scores.precision, 2 / 3)
    assert math.isclose(scores.recall, 2 / 3)
    assert math.isclose(scores.f1, 2 / 3)


def test_rouge_n_disjoint():
    scores = rouge_n(list("abc"), list("xyz"), 1)
    assert scores.precision == scores.recall == scores.f1 == 0.0


def test_rouge_n_multiset_clipping():
    # candidate has three a's, reference two: overlap clips at 2
    scores = rouge_n(list("aaa"), list("aab"), 1)
    assert math.isclose(scores.precision, 2 / 3)
    assert math.isclose(scores.recall, 2 / 3)


def test_lcs_identity_and_empty():
    assert lcs_length(list("abc"), list("abc")) == 3
    assert lcs_length(list("abc"), []) == 0
    assert lcs_length([], []) == 0


def test_lcs_classic_case():
    assert lcs_length(list("ABCBDAB"), list("BDCABA")) == 4


def test_lcs_matches_brute_force_exhaustive_small():
    alphabet = "abc"
    strings = [""]
    for length in range(1, 5):
        strings += ["".join(t) for t in itertools.product(alphabet, repeat=length)]
    for a in strings:
        for b in strings:
            assert lcs_length(list(a), list(b)) == brute_force_lcs(a, b)


def test_lcs_matches_the_dp_on_long_inputs():
    # lengths on both sides of CPython's 30-bit int digits and of 64-bit
    # words, where the bit vector's carries cross, and empty sides; a
    # 2-symbol alphabet gives long common subsequences, 300 CJK characters
    # short ones
    gen = MT19937(64)
    lengths = (0, 1, 30, 31, 63, 64, 65, 127, 128, 129, 200)
    for alphabet in ("ab", "abcde", [chr(0x4E00 + i) for i in range(300)]):
        def draw(n):
            return [alphabet[gen.bounded(len(alphabet))] for _ in range(n)]

        sizes = [(la, lb) for la in lengths for lb in lengths]
        sizes += [(gen.bounded(201), gen.bounded(201)) for _ in range(50)]
        for la, lb in sizes:
            a, b = draw(la), draw(lb)
            assert lcs_length(a, b) == dp_lcs_length(a, b), (a, b)


def test_rouge_l_identical():
    scores = rouge_l(list("abcd"), list("abcd"))
    assert scores.precision == scores.recall == scores.f1 == 1.0


def test_rouge_l_hand_case():
    scores = rouge_l(list("abc"), list("acd"))
    assert math.isclose(scores.precision, 2 / 3)
    assert math.isclose(scores.recall, 2 / 3)
    assert math.isclose(scores.f1, 2 / 3)


def test_rouge_l_empty_candidate():
    scores = rouge_l([], list("abc"))
    assert scores.precision == scores.recall == scores.f1 == 0.0


def test_rouge1_f1_symmetric_for_equal_lengths():
    gen = MT19937(40)
    alphabet = "abcd"
    for _ in range(300):
        n = 1 + gen.bounded(9)
        a = [alphabet[gen.bounded(4)] for _ in range(n)]
        b = [alphabet[gen.bounded(4)] for _ in range(n)]
        assert math.isclose(rouge_n(a, b, 1).f1, rouge_n(b, a, 1).f1, abs_tol=1e-15)
        assert rouge_n(a, a, 1).f1 == 1.0


def test_scores_bounded_random():
    gen = MT19937(6)
    alphabet = "abcde"
    for _ in range(300):
        a = [alphabet[gen.bounded(5)] for _ in range(gen.bounded(10))]
        b = [alphabet[gen.bounded(5)] for _ in range(gen.bounded(10))]
        for scores in (rouge_n(a, b, 1), rouge_n(a, b, 2), rouge_l(a, b)):
            assert 0.0 <= scores.precision <= 1.0
            assert 0.0 <= scores.recall <= 1.0
            assert 0.0 <= scores.f1 <= 1.0


def test_evaluate_corpus_all_perfect():
    means, per_pair = evaluate_corpus(["摘要一", "摘要二"], ["摘要一", "摘要二"])
    assert len(per_pair) == 2
    for m in METRICS:
        assert means[m].f1 == 1.0


def test_evaluate_corpus_single_pair():
    means, per_pair = evaluate_corpus(["abc"], ["acd"])
    assert means["rouge_1"].f1 == per_pair[0]["rouge_1"].f1


def test_evaluate_corpus_mean_arithmetic():
    # pair 1 scores 2/3, pair 2 scores 1 -> mean 5/6 on ROUGE-1 F1
    means, _ = evaluate_corpus(["abc", "xy"], ["acd", "xy"])
    assert math.isclose(means["rouge_1"].f1, 5 / 6)
    assert math.isclose(means["rouge_l"].f1, 5 / 6)


def test_evaluate_corpus_char_unit_strips_whitespace():
    means, _ = evaluate_corpus(["摘 要"], ["摘要"])
    assert means["rouge_1"].f1 == 1.0


def test_evaluate_corpus_word_unit():
    means, _ = evaluate_corpus(["the cat sat"], ["the cat ran"], unit="word")
    assert math.isclose(means["rouge_1"].f1, 2 / 3)


def test_evaluate_corpus_length_mismatch():
    with pytest.raises(ValueError):
        evaluate_corpus(["a"], ["a", "b"])


@pytest.mark.parametrize("call, message", [
    (lambda: score_pair("ab", "ab", unit="byte"), "unit must be 'char' or 'word', got 'byte'"),
    (lambda: evaluate_corpus([], []), "nothing to evaluate"),
], ids=["unknown-unit", "no-pairs"])
def test_scoring_refuses_what_it_cannot_score(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
