#!/usr/bin/env python3
"""Regenerate the bundled synthetic corpus under tests/data/synthetic/.

The corpus is a deterministic miniature of the real dataset shape: a
200-pair unlabeled training pool, a 30-pair human-labeled test part,
and a word lexicon. Texts are composed from a small inventory of
multi-character words so that word segmentation has something to do,
and each summary reuses words from its article so that attention and
ROUGE have signal.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hwcsum.corpus import DocumentPair, write_lcsts
from hwcsum.rng import MT19937

WORDS = [
    "奥委会", "总投资", "亿元", "项目", "建设", "城市", "交通", "发展", "经济", "市场",
    "公司", "银行", "增长", "改革", "政策", "教育", "医疗", "环境", "能源", "科技",
    "创新", "合作", "国际", "地区", "人口", "就业", "产业", "投资", "消费", "出口",
    "旅游", "文化", "体育", "健康", "安全", "管理", "服务", "质量", "标准", "监督",
]
SINGLES = ["年", "月", "日", "新", "大", "小", "高", "低", "上", "下"]
INVENTORY = WORDS + SINGLES


def make_text(rng, n_words):
    return [INVENTORY[rng.bounded(len(INVENTORY))] for _ in range(n_words)]


def make_pair(rng, pair_id):
    words = make_text(rng, 6 + rng.bounded(7))
    n_sum = 2 + rng.bounded(3)
    start = rng.bounded(max(1, len(words) - n_sum))
    summary = words[start:start + n_sum]
    return pair_id, "".join(words), "".join(summary)


def write_part(path, pairs, labels=None):
    labels = labels or [None] * len(pairs)
    with open(path, "w", encoding="utf-8") as f:
        write_lcsts([DocumentPair(*pair, label) for pair, label in zip(pairs, labels)], f)


def main():
    out_dir = Path(__file__).resolve().parent.parent / "tests" / "data" / "synthetic"
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = MT19937(12345)

    part1 = [make_pair(rng, i) for i in range(200)]
    write_part(out_dir / "part1.txt", part1)

    part3 = [make_pair(rng, i) for i in range(30)]
    labels = [1 + rng.bounded(5) for _ in part3]
    write_part(out_dir / "part3.txt", part3, labels)

    with open(out_dir / "lexicon.tsv", "w", encoding="utf-8") as f:
        for i, word in enumerate(WORDS):
            f.write(f"{word}\t{100 - i}\n")

    n_test = sum(1 for k in labels if k >= 3)
    print(f"wrote {len(part1)} training pairs, {len(part3)} labeled pairs "
          f"({n_test} with score >= 3), {len(WORDS)} lexicon words to {out_dir}")


if __name__ == "__main__":
    main()
