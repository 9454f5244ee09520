#!/usr/bin/env python3
"""Memory and time of the tokenized pool and of the CLI's inputs at scale.

Generates a deterministic LCSTS-shape corpus in a temporary directory
with the benchmark's generators (``perfbench/gen.py``, imported
read-only): articles of about 110 characters, summaries of about 20, a
300k-entry lexicon, N pool pairs and N/20 scored test pairs (about 60%
of which pass the test filter). Generation runs in a child process, so
the peak RSS below is the harness's alone. Then, for the ``word_char``
representation:

1. ``harness._prepare`` reads both parts, loads the lexicon and, through
   ``harness._tokenize``, segments every pool and test text once:
   ``tokenize_s`` is the time of ``_tokenize``, ``pool_mb`` what its result
   holds, every object it reaches counted once and the parsed records
   left out (1 MB = 10**6 bytes), and ``pool_kb_per_pair`` that over the
   pool and test pairs (``pool_entries``);
2. ``harness._run_seed`` builds one seed's vocabularies and encodes its
   pairs, with ``train`` stubbed to take each train and validation pair
   once, as an epoch does, and stop the seed: ``seed_vocab_encode_s`` is
   its time, and ``seed_vocab_encode_mb`` the most it held above what was
   held before it, from tracemalloc in a second run of the seed;
3. ``peak_rss_mb`` is the process's peak RSS after steps 1-2;
4. ``harness._prepare`` again, for both representations:
   ``pool_both_kb_per_pair`` is what their tokenized pools hold together,
   per pool and test pair, counted as in step 1 (one set of summary rows
   serves both);
5. ``hwcsum train`` reads the pool's Part I file as its training corpus
   (no ``--valid``), with vocabularies ranked from the whole pool, and
   trains through ``harness.train_model_dir``, with ``harness.train``
   stubbed to stop it: ``train_input_kb_per_pair`` is what it holds when
   it calls ``train``, per pool pair, from tracemalloc started at its
   first corpus read (vocabularies and lexicon already loaded);
6. ``hwcsum summarize`` decodes the same file with a model over those
   vocabularies, ``beam_search_batch`` stubbed to stop it:
   ``summarize_input_kb_per_pair`` is what it holds at its first
   ``beam_search_batch`` call, per article, traced as in step 5.

Prints one JSON line. Run from the repo root:

    python3 scripts/pool_memory.py --pairs 20000
"""

import argparse
import dataclasses
import json
import multiprocessing
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hwcsum import cli, harness, model  # noqa: E402
from hwcsum.corpus import DocumentPair, filter_by_score  # noqa: E402
from hwcsum.tokenizer import rank_vocab  # noqa: E402

LEXICON_ENTRIES = 300_000
SEED = 0


def generate(work: str, n_pairs: int):
    """Write lexicon.tsv, part1.txt and part3.txt into work."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    words, counts = gen.lexicon(SEED, LEXICON_ENTRIES)
    with open(Path(work) / "lexicon.tsv", "w", encoding="utf-8") as f:
        f.writelines(f"{w}\t{c}\n" for w, c in zip(words, counts))
    corpus = gen.lcsts_corpus(SEED, words, n_part1=n_pairs, n_part3=max(n_pairs // 20, 20),
                              n_dup=0, n_decoy=0, n_bad1=0, n_bad3=0)
    for part in ("part1", "part3"):
        (Path(work) / f"{part}.txt").write_text(corpus[part], encoding="utf-8")


class _Stop(Exception):
    pass


def walk_pairs(pairs, config, *, valid_pairs=None, **settings):
    """Stands in for model.train: take each pair once, then stop the seed."""
    for part in (pairs, valid_pairs or ()):
        for i in range(len(part)):
            part[i]
    raise _Stop


def deep_size(obj, seen=None) -> int:
    """Bytes held by obj and everything it references, each object counted
    once. Parsed corpus records are skipped: the parsed parts hold them,
    not the tokenized pool."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (DocumentPair, type)):
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        return size + (deep_size(obj.base, seen) if obj.base is not None else 0)
    if isinstance(obj, memoryview):
        return size + deep_size(obj.obj, seen)
    if isinstance(obj, dict):
        return size + sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return size + sum(deep_size(item, seen) for item in obj)
    if hasattr(obj, "__dict__"):
        return size + deep_size(vars(obj), seen)
    return size


def run_seed(cfg, rep, tokenized, seed_dir: Path):
    try:
        harness._run_seed(cfg, rep, SEED, tokenized, seed_dir)
    except _Stop:
        pass


def held_at(argv, module, name) -> int:
    """Bytes the CLI command argv holds when it calls module.name, traced from
    its first corpus read; that call stops the command."""
    read, call, held = cli.load_corpus_file, getattr(module, name), []

    def traced_read(*args):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return read(*args)

    def held_at_call(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        raise _Stop

    cli.load_corpus_file = traced_read
    setattr(module, name, held_at_call)
    try:
        cli.main(argv)
    except _Stop:
        pass
    finally:
        cli.load_corpus_file = read
        setattr(module, name, call)
    return held[0]


def cli_input_bytes(work: Path, rep, tokenized) -> tuple[int, int]:
    """Bytes `hwcsum train` holds when it calls train on the pool's Part I,
    and bytes `hwcsum summarize` holds when it first decodes that file."""
    pool_src, pool_tgt, _, _ = tokenized
    every = range(len(pool_src))
    vocabs = rank_vocab(pool_src, every), rank_vocab(pool_tgt, every)
    for vocab, name in zip(vocabs, ("src_vocab.txt", "tgt_vocab.txt")):
        vocab.save(work / name)
    (work / "train.json").write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    train_bytes = held_at(
        ["train", "--config", str(work / "train.json"), "--train", str(work / "part1.txt"),
         "--src-vocab", str(work / "src_vocab.txt"), "--tgt-vocab", str(work / "tgt_vocab.txt"),
         "--representation", rep.name, "--lexicon", rep.lexicon_path, "--out", str(work / "model")],
        harness, "train")
    params = model.init_params(model.ModelConfig(*map(len, vocabs), embed_dim=2, hidden_dim=2))
    harness.save_model_dir(work / "summarizer", params, rep, *vocabs, [])
    summarize_bytes = held_at(
        ["summarize", "--model", str(work / "summarizer"), "--in", str(work / "part1.txt"),
         "--out", str(work / "candidates.jsonl")], harness, "beam_search_batch")
    return train_bytes, summarize_bytes


def measure(work: Path, n_pairs: int) -> dict:
    cfg = harness.ExperimentConfig(
        name="pool", part1=str(work / "part1.txt"), part3=str(work / "part3.txt"),
        lexicon=str(work / "lexicon.tsv"), representations=["word_char"], seeds=[SEED],
        n_validation=min(1000, n_pairs // 10))
    tokenize, tokenize_s = harness._tokenize, []

    def timed_tokenize(*args):
        t0 = time.perf_counter()
        result = tokenize(*args)
        tokenize_s.append(time.perf_counter() - t0)
        return result

    harness._tokenize = timed_tokenize
    _, _, [(rep, tokenized)] = harness._prepare(cfg)
    harness._tokenize = tokenize

    harness.train = walk_pairs
    t0 = time.perf_counter()
    run_seed(cfg, rep, tokenized, work / "seed")
    seed_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pool_bytes = deep_size(tokenized)
    n_pool = len(harness.load_corpus_file(cfg.part1, "I")[0])
    test = harness.load_corpus_file(cfg.part3, "III")[0]
    n_entries = n_pool + len(filter_by_score(test, cfg.min_score))  # pairs the pool tokenizes
    del test

    tracemalloc.start()  # the same seed again, for what it holds
    start = tracemalloc.get_traced_memory()[0]
    run_seed(cfg, rep, tokenized, work / "seed")
    seed_bytes = tracemalloc.get_traced_memory()[1] - start
    tracemalloc.stop()
    both = harness._prepare(dataclasses.replace(cfg, representations=["char_char", "word_char"]))
    both_bytes = deep_size([tokenized for _, tokenized in both[2]])
    del both
    train_bytes, summarize_bytes = cli_input_bytes(work, rep, tokenized)

    return {
        "pairs": n_pairs,
        "pool_entries": n_entries,
        "pool_mb": round(pool_bytes / 1e6, 2),
        "pool_kb_per_pair": round(pool_bytes / n_entries / 1e3, 3),
        "tokenize_s": round(tokenize_s[0], 3),
        "seed_vocab_encode_s": round(seed_s, 3),
        "seed_vocab_encode_mb": round(seed_bytes / 1e6, 2),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "pool_both_kb_per_pair": round(both_bytes / n_entries / 1e3, 3),
        "train_input_kb_per_pair": round(train_bytes / n_pool / 1e3, 3),
        "summarize_input_kb_per_pair": round(summarize_bytes / n_pool / 1e3, 3),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=20_000, help="pool pairs to generate")
    args = parser.parse_args()
    if args.pairs < 20:
        parser.error("--pairs must be at least 20")
    with tempfile.TemporaryDirectory() as work:
        child = multiprocessing.get_context("spawn").Process(target=generate,
                                                             args=(work, args.pairs))
        child.start()
        child.join()
        if child.exitcode != 0:
            sys.exit(f"corpus generation failed with exit code {child.exitcode}")
        print(json.dumps(measure(Path(work), args.pairs)))


if __name__ == "__main__":
    main()
