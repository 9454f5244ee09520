"""Seeded input generators for the benchmark workloads.

Every generator draws from ``numpy.random.RandomState(seed)``, numpy's
frozen legacy MT19937 stream, so the inputs are the same for the same
seed on any numpy version and never depend on the program under test.
The generators return plain Python data plus the ground truth the
output checks compare against; writing files is left to the caller.
"""

import numpy as np

SPECIALS = 4  # ids 0..3 are <pad> <unk> <s> </s>

# CJK unified ideographs: a 3000-character inventory drawn from this block
_CJK_FIRST, _CJK_SIZE = 0x4E00, 20992


def paper_pairs(seed: int, n_pairs: int, n_held: int, *, vocab: int = 4000,
                src_len: int = 60, tgt_len: int = 21):
    """Paper-shape id sequences: (train pairs, held-out source articles).

    A train pair is (src_ids, tgt_ids) with ``src_len`` content ids and a
    target of ``tgt_len`` content ids bracketed by <s>=2 ... </s>=3. Held-out
    articles are source id lists only. Content ids lie in [4, vocab).
    """
    rs = np.random.RandomState(seed)
    src = rs.randint(SPECIALS, vocab, size=(n_pairs + n_held, src_len))
    tgt = rs.randint(SPECIALS, vocab, size=(n_pairs, tgt_len))
    pairs = [(src[i].tolist(), [2] + tgt[i].tolist() + [3]) for i in range(n_pairs)]
    held = [src[n_pairs + i].tolist() for i in range(n_held)]
    return pairs, held


def lexicon(seed: int, n_entries: int):
    """(words, counts): distinct 2-4 character words with Zipf-like counts.

    Counts fall as 10^6 / rank, floored at 1, so the first entries are
    the frequent words articles are mostly made of.
    """
    rs = np.random.RandomState(seed)
    inventory = [chr(_CJK_FIRST + int(c)) for c in rs.choice(_CJK_SIZE, 3000, replace=False)]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_entries:
        need = n_entries - len(words)
        lengths = rs.randint(2, 5, size=need)
        chars = rs.randint(0, len(inventory), size=(need, 4))
        for length, row in zip(lengths, chars):
            word = "".join(inventory[c] for c in row[:length])
            if word not in seen:
                seen.add(word)
                words.append(word)
    counts = [max(1, 1_000_000 // rank) for rank in range(1, n_entries + 1)]
    return words, counts


def _text(rs, words, zipf, n_chars):
    """Concatenate Zipf-sampled lexicon words until n_chars is reached."""
    out: list[str] = []
    length = 0
    while length < n_chars:
        rank = min(int(rs.zipf(zipf)), len(words)) - 1
        out.append(words[rank])
        length += len(words[rank])
    return out


def lcsts_corpus(seed: int, words: list[str], *, n_part1: int, n_part3: int,
                 n_dup: int, n_decoy: int, n_bad1: int, n_bad3: int):
    """LCSTS-shape Part I / Part III pseudo-XML with planted ground truth.

    Articles are about 110 characters, summaries about 20, both made of
    lexicon words. Part I gets ``n_dup`` planted near-duplicates of Part
    III items, alternating exact copies and copies with a trailing suffix
    of at most 15 characters, plus ``n_decoy`` copies whose suffix is
    longer than 15 characters (to be kept). Each file also gets malformed
    blocks that the parser reports as exactly one issue each.
    """
    rs = np.random.RandomState(seed)
    zipf = 1.3

    def article_summary():
        art = _text(rs, words, zipf, 100 + int(rs.randint(0, 21)))
        start = int(rs.randint(0, max(1, len(art) - 8)))
        summ, length = [], 0
        for w in art[start:]:
            summ.append(w)
            length += len(w)
            if length >= 18:
                break
        return "".join(art), "".join(summ)

    def suffix(lo, hi):
        n = int(rs.randint(lo, hi + 1))
        return "".join(chr(_CJK_FIRST + int(c)) for c in rs.randint(0, _CJK_SIZE, size=n))

    summaries: set[str] = set()

    def fresh():
        while True:
            art, summ = article_summary()
            if summ not in summaries:
                summaries.add(summ)
                return art, summ

    part3 = []  # (id, label, article, summary)
    for i in range(n_part3):
        art, summ = fresh()
        part3.append((i, int(rs.randint(1, 6)), art, summ))

    part1 = []  # (id, article, summary)
    for i in range(n_part1 - n_dup - n_decoy):
        art, summ = fresh()
        part1.append((i, art, summ))
    next_id = len(part1)
    targets = rs.choice(n_part3, n_dup + n_decoy, replace=False)
    removed, decoys = [], []
    for k, t in enumerate(targets):
        _, _, art, summ = part3[int(t)]
        if k < n_dup:
            art = art if k % 2 == 0 else art + suffix(1, 15)
            removed.append(next_id)
        else:
            art = art + suffix(16, 30)
            decoys.append(next_id)
        pos = int(rs.randint(0, len(part1) + 1))
        part1.insert(pos, (next_id, art, summ))
        next_id += 1

    # malformed blocks: Part I without <short_text> or with an empty summary,
    # Part III with label 7 or without a label
    lines1 = [_block(i, None, art, summ) for i, art, summ in part1]
    bad1 = [f"<doc id={next_id + k}>\n<summary>{part1[k][2]}</summary>\n</doc>\n"
            if k % 2 == 0 else _block(next_id + k, None, part1[k][1], "")
            for k in range(n_bad1)]
    lines3 = [_block(i, label, art, summ) for i, label, art, summ in part3]
    bad3 = [_block(n_part3 + k, 7, part3[k][2], part3[k][3]) if k % 2 == 0
            else _block(n_part3 + k, None, part3[k][2], part3[k][3]) for k in range(n_bad3)]
    for bad, lines in ((bad1, lines1), (bad3, lines3)):
        for block in bad:
            lines.insert(int(rs.randint(0, len(lines) + 1)), block)

    test = [(i, art, summ) for i, label, art, summ in part3 if label >= 3]
    return {
        "part1": "".join(lines1),
        "part3": "".join(lines3),
        "n_part1": len(part1),
        "n_part3": len(part3),
        "removed_ids": sorted(removed),
        "decoy_ids": sorted(decoys),
        "issues_part1": n_bad1,
        "issues_part3": n_bad3,
        "test_ids": [i for i, _, _ in test],
        "lead": lead_candidates([(i, art) for i, art, _ in test]),
    }


def _block(doc_id, label, article, summary):
    head = f"<doc id={doc_id}>\n"
    if label is not None:
        head += f"<human_label>{label}</human_label>\n"
    return head + f"<summary>{summary}</summary>\n<short_text>{article}</short_text>\n</doc>\n"


def lead_candidates(articles, n_chars: int = 21):
    """Lead baseline: the first n_chars characters of each (id, article)."""
    return [{"id": i, "candidate": art[:n_chars]} for i, art in articles]


def experiment_seeds(seed: int, n: int = 2):
    """Distinct 32-bit experiment seeds chosen by the workload seed."""
    rs = np.random.RandomState(seed)
    seeds: list[int] = []
    while len(seeds) < n:
        s = int(rs.randint(0, 2**31))
        if s not in seeds:
            seeds.append(s)
    return seeds
