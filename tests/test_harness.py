import builtins
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hwcsum import harness, model, tokenizer
from hwcsum.corpus import filter_by_score
from hwcsum.harness import (ExperimentConfig, load_corpus_file, load_model_dir, run_experiment,
                            sweep_vocab)
from hwcsum.model import beam_search_full
from hwcsum.rouge import METRICS
from workloads import mask_timings

REPO_ROOT = Path(__file__).resolve().parent.parent


def small_config(synthetic_dir, **overrides):
    cfg = dict(
        name="t",
        part1=str(synthetic_dir / "part1.txt"),
        part3=str(synthetic_dir / "part3.txt"),
        lexicon=str(synthetic_dir / "lexicon.tsv"),
        representations=["char_char", "word_char"],
        seeds=[0],
        n_validation=20,
        epochs=1,
        batch_size=32,
        beam_width=3,
        model={"embed_dim": 12, "hidden_dim": 12, "dropout": 0.0, "max_decode_len": 12},
    )
    cfg.update(overrides)
    return ExperimentConfig(**cfg)


def planted_part1(tmp_path, synthetic_dir, n=3) -> str:
    """The fixture's Part I plus copies of its first n Part III items
    (ids 900 on), which dedup removes."""
    part3 = load_corpus_file(synthetic_dir / "part3.txt", "III")[0]
    path = tmp_path / "part1_planted.txt"
    path.write_text((synthetic_dir / "part1.txt").read_text(encoding="utf-8") + "".join(
        f"<doc id={900 + i}>\n<summary>{p.summary}</summary>\n<short_text>{p.short_text}</short_text>\n"
        "</doc>\n" for i, p in enumerate(part3[:n])), encoding="utf-8")
    return str(path)


def test_load_corpus_file_pseudo_xml(synthetic_dir):
    part1, issues1, sha1 = load_corpus_file(synthetic_dir / "part1.txt", "I")
    assert len(part1) == 200
    part3, issues3, sha3 = load_corpus_file(synthetic_dir / "part3.txt", "III")
    assert len(part3) == 30
    assert all(p.human_label is not None for p in part3)
    assert issues1 == issues3 == []
    assert [sha1, sha3] == [hashlib.sha256((synthetic_dir / f"part{k}.txt").read_bytes()).hexdigest()
                            for k in (1, 3)]


def test_config_from_file_single_representation(tmp_path, synthetic_dir):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "name": "single",
        "part1": str(synthetic_dir / "part1.txt"),
        "part3": str(synthetic_dir / "part3.txt"),
        "representation": "char_char",
    }))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.representations == ["char_char"]
    assert cfg.seeds == [0, 1, 2, 3, 4]


def test_run_experiment_both_representations(tmp_path, synthetic_dir):
    cfg = small_config(synthetic_dir)
    report, all_ok = run_experiment(cfg, tmp_path)
    assert all_ok
    assert set(report["runs"]) == {"char_char", "word_char"}
    for representation in report["runs"]:
        run = report["runs"][representation]
        assert run["failed_seeds"] == []
        record = run["seeds"]["0"]
        assert record["status"] == "ok"
        assert record["n_train"] == 180 and record["n_validation"] == 20
        assert record["n_test"] == 17
        # every training pair's summary has at least one token
        timing = record["timing"]
        assert 0 < timing["train_pairs_per_second"] < timing["train_tokens_per_second"]
        for m in METRICS:
            assert 0.0 <= run["mean_scores"][m]["f1"] <= 1.0
    # the hybrid encoder sees words, the baseline sees characters
    assert (report["runs"]["word_char"]["seeds"]["0"]["src_vocab_size"]
            != report["runs"]["char_char"]["seeds"]["0"]["src_vocab_size"])
    # artifacts on disk: each seed directory is a model directory plus its decodes
    base = tmp_path / "t"
    assert (base / "report.json").exists()
    for representation in ("char_char", "word_char"):
        seed_dir = base / representation / "seed0"
        assert sorted(p.name for p in seed_dir.iterdir()) == [
            "candidates.jsonl", "meta.json", "model.npz", "scores.jsonl", "src_vocab.txt",
            "tgt_vocab.txt", "train_log.jsonl"]
        meta = json.loads((seed_dir / "meta.json").read_text(encoding="utf-8"))
        assert meta == {"representation": representation,
                        "lexicon": os.path.relpath(Path(cfg.lexicon).resolve(), seed_dir.resolve()),
                        "lexicon_sha256": report["input_hashes"]["lexicon"]
                        if representation == "word_char" else None,
                        **{f"{name}_sha256": hashlib.sha256(
                            (seed_dir / f"{name}.txt").read_bytes()).hexdigest()
                           for name in ("src_vocab", "tgt_vocab")}}


def test_mean_is_arithmetic_over_seeds(tmp_path, synthetic_dir):
    cfg = small_config(synthetic_dir, seeds=[0, 1], representations=["char_char"])
    report, all_ok = run_experiment(cfg, tmp_path)
    assert all_ok
    run = report["runs"]["char_char"]
    for m in METRICS:
        per_seed = [run["seeds"][s]["scores"][m]["f1"] for s in ("0", "1")]
        assert run["mean_scores"][m]["f1"] == sum(per_seed) / 2


def test_run_experiment_deterministic(tmp_path, synthetic_dir):
    cfg = small_config(synthetic_dir, representations=["word_char"])
    r1, _ = run_experiment(cfg, tmp_path / "a")
    r2, _ = run_experiment(cfg, tmp_path / "b")
    a, b = mask_timings(r1), mask_timings(r2)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_is_self_describing(tmp_path, synthetic_dir):
    # a report's embedded config echo is enough to reproduce its scores
    cfg = small_config(synthetic_dir, representations=["char_char"])
    report, _ = run_experiment(cfg, tmp_path / "orig")
    echo = dict(report["config"])
    rebuilt = ExperimentConfig(**echo)
    replay, _ = run_experiment(rebuilt, tmp_path / "replay")
    assert (replay["runs"]["char_char"]["mean_scores"]
            == report["runs"]["char_char"]["mean_scores"])
    assert replay["input_hashes"] == report["input_hashes"]


def _diverging_train(*args, **kwargs):
    """A seed's training failing as a diverging run does: every config value
    is checked before any input is read, so no config makes a seed fail."""
    raise RuntimeError("training diverged: loss=nan at epoch 1, batch starting at position 0")


def test_failed_seed_is_recorded_not_fatal(tmp_path, synthetic_dir, monkeypatch):
    monkeypatch.setattr(harness, "train", _diverging_train)
    cfg = small_config(synthetic_dir, representations=["char_char"])
    report, all_ok = run_experiment(cfg, tmp_path)
    assert not all_ok
    run = report["runs"]["char_char"]
    assert run["failed_seeds"] == [0]
    assert run["seeds"]["0"]["status"] == "failed"
    assert "error" in run["seeds"]["0"]
    assert run["mean_scores"] is None


def test_failed_seed_writes_its_traceback(tmp_path, synthetic_dir, monkeypatch):
    monkeypatch.setattr(harness, "train", _diverging_train)
    cfg = small_config(synthetic_dir, representations=["char_char"], seeds=[0, 3])
    report, _ = run_experiment(cfg, tmp_path)
    for seed in (0, 3):
        text = (tmp_path / "t" / "char_char" / f"seed{seed}" / "error.txt").read_text(encoding="utf-8")
        assert text.startswith("Traceback")
        assert text.rstrip().endswith(report["runs"]["char_char"]["seeds"][str(seed)]["error"])


@pytest.mark.parametrize("ledger, target", [
    ("candidates.jsonl", "beam_search_batch"),
    ("scores.jsonl", "scores_dict"),
])
def test_seed_ledger_failing_mid_write_leaves_no_file(tmp_path, synthetic_dir, monkeypatch,
                                                      ledger, target):
    calls = []

    def fail_on_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("mid-ledger failure")
        return original(*args, **kwargs)

    original = getattr(harness, target)
    monkeypatch.setattr(harness, target, fail_on_third)
    # two test articles a decode call, so a decode failure lands after rows were written
    monkeypatch.setattr(harness, "DECODE_CHUNK", 2)
    cfg = small_config(synthetic_dir, representations=["char_char"])
    report, all_ok = run_experiment(cfg, tmp_path)
    assert not all_ok and "mid-ledger failure" in report["runs"]["char_char"]["seeds"]["0"]["error"]
    seed_dir = tmp_path / "t" / "char_char" / "seed0"
    assert (seed_dir / "train_log.jsonl").exists()
    assert not (seed_dir / ledger).exists()
    assert not list(seed_dir.rglob("*.tmp"))


def test_report_counts_parse_issues(tmp_path, synthetic_dir):
    part1 = tmp_path / "part1.txt"
    malformed = "<doc id=900>\n<summary>文化</summary>\n</doc>\n"  # no <short_text>
    part1.write_text((synthetic_dir / "part1.txt").read_text(encoding="utf-8") + malformed,
                     encoding="utf-8")
    cfg = small_config(synthetic_dir, part1=str(part1), representations=["char_char"])
    report, all_ok = run_experiment(cfg, tmp_path / "out")
    assert all_ok
    assert report["parse_issues"] == {"part1": 1, "part3": 0}
    on_disk = json.loads((tmp_path / "out" / "t" / "report.json").read_text(encoding="utf-8"))
    assert on_disk["parse_issues"] == {"part1": 1, "part3": 0}


def test_each_part_file_is_read_once_per_run(tmp_path, synthetic_dir, monkeypatch):
    """A run, and a sweep, opens Part I and Part III once each: input_hashes
    is the sha256 of the bytes that one read parsed."""
    cfg = small_config(synthetic_dir, representations=["char_char"])
    parts = [Path(cfg.part1), Path(cfg.part3)]
    opened = []

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) in parts:
            opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    report, all_ok = run_experiment(cfg, tmp_path / "run")
    assert all_ok and opened == parts
    opened.clear()
    _, all_ok = sweep_vocab(cfg, [10, 20], tmp_path / "sweep")
    assert all_ok and opened == parts
    monkeypatch.undo()
    assert report["input_hashes"] == {
        key: hashlib.sha256(Path(getattr(cfg, key)).read_bytes()).hexdigest()
        for key in ("part1", "part3", "lexicon")}


def test_each_text_is_segmented_once_per_run(tmp_path, synthetic_dir, monkeypatch):
    calls = []

    def counting_segment(text, lex):
        calls.append(text)
        return segment(text, lex)

    segment = tokenizer.word_segment
    monkeypatch.setattr(tokenizer, "word_segment", counting_segment)
    cfg = small_config(synthetic_dir, representations=["word_char"], seeds=[0, 1])
    report, all_ok = run_experiment(cfg, tmp_path / "run")
    assert all_ok
    n_pool = len(load_corpus_file(cfg.part1, "I")[0])
    n_test = report["runs"]["word_char"]["seeds"]["0"]["n_test"]
    assert len(calls) == n_pool + n_test

    # a sweep segments each text once, not once per size; with dedup on,
    # the planted overlaps are removed before any segmentation
    calls.clear()
    cfg = dataclasses.replace(cfg, part1=planted_part1(tmp_path, synthetic_dir), dedup=True)
    _, all_ok = sweep_vocab(cfg, [10, 20, 40], tmp_path / "sweep")
    assert all_ok
    assert len(calls) == n_pool + n_test


def test_each_pool_summary_is_char_tokenized_once_per_run(tmp_path, synthetic_dir, monkeypatch):
    """Both representations decode the same characters: their seeds share
    one tokenization of the pool summaries, in a run and in a sweep."""
    calls = []

    def counting_char_tokenize(text):
        calls.append(text)
        return char_tokenize(text)

    char_tokenize = tokenizer.char_tokenize
    monkeypatch.setattr(tokenizer, "char_tokenize", counting_char_tokenize)
    cfg = small_config(synthetic_dir, seeds=[0, 1])
    pool = load_corpus_file(cfg.part1, "I")[0]
    summaries = collections.Counter(p.summary for p in pool)
    assert not set(summaries) & {p.short_text for p in pool}  # a call names its text
    for run in (lambda: run_experiment(cfg, tmp_path / "run"),
                lambda: sweep_vocab(cfg, [10, 20], tmp_path / "sweep")):
        calls.clear()
        assert run()[1]
        assert collections.Counter(t for t in calls if t in summaries) == summaries


def test_each_representation_has_a_source_table_of_its_own(synthetic_dir):
    """A char_char seed counts and maps its characters alone, not the
    hybrid's words too: each representation's source rows carry tokens of
    their own, and both share one set of summary rows and its tokens."""
    cfg = small_config(synthetic_dir)
    reps, _ = tokenizer.load_representations(cfg.representations, cfg.lexicon)
    pool = load_corpus_file(cfg.part1, "I")[0]
    test = filter_by_score(load_corpus_file(cfg.part3, "III")[0], cfg.min_score)
    pools = harness._tokenize(reps, pool, test)
    assert [rep.name for rep, _ in pools] == ["char_char", "word_char"]
    for rep, (pool_src, _, _, test_src) in pools:
        for rows, pairs in ((pool_src, pool), (test_src, test)):
            assert set(rows.tokens) == {t for p in pairs for t in rep.tokens(p.short_text)}
    (_, chars), (_, words) = pools
    assert chars[1] is words[1]  # the summary rows, which carry their tokens


def test_write_decodes_maps_one_chunk_before_each_decode(monkeypatch):
    """write_decodes maps DECODE_CHUNK rows, decodes them, then maps the
    next: the mapped ids of the whole input are never held at once."""
    src = tokenizer.TokenRows([f"w{i % 7}", f"w{i % 5}"] for i in range(70))
    mapped, per_decode = [], []

    class CountingMap:
        def __getitem__(self, ids):
            mapped.append(len(ids))
            return (np.asarray(ids) % 5) + 4

    class CountingVocab:
        def id_map(self, tokens):
            assert tokens == src.tokens
            return CountingMap()

    def decoding(sources, *args):
        per_decode.append(len(mapped))
        mapped.clear()
        return original(sources, *args)

    original = harness.beam_search_batch
    monkeypatch.setattr(harness, "beam_search_batch", decoding)
    params = model.init_params(model.ModelConfig(src_vocab_size=9, tgt_vocab_size=9, embed_dim=4,
                                                 hidden_dim=4, max_decode_len=3))
    tgt_vocab = tokenizer.Vocabulary(list(tokenizer.SPECIAL_TOKENS) + list("abcde"), [0] * 9)
    out = io.StringIO()
    ids = [100 + i for i in range(len(src))]
    candidates = harness.write_decodes(out, ids, src, CountingVocab(), params, tgt_vocab, 2)
    assert per_decode == [32, 32, 6] and harness.DECODE_CHUNK == 32
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["id"] for r in rows] == ids and [r["candidate"] for r in rows] == candidates
    monkeypatch.undo()
    for i in (0, 33, 69):  # a row decodes as its own beam search of its mapped ids
        alone = model.beam_search((src[i] % 5 + 4).tolist(), params, 2)
        assert candidates[i] == "".join(tgt_vocab.decode(alone))


def test_tokenized_pool_holds_ids_not_token_strings(synthetic_dir):
    """The fixture's tokenized pool and test set, both representations, take
    under 0.4 KB a pair: int32 ids and one string per distinct token. Holding
    a string per token took about 1.7 KB a pair here."""
    cfg = small_config(synthetic_dir)
    reps, _ = tokenizer.load_representations(cfg.representations, cfg.lexicon)
    pool = load_corpus_file(cfg.part1, "I")[0]
    test = filter_by_score(load_corpus_file(cfg.part3, "III")[0], cfg.min_score)
    n_pool, n_test = len(pool), len(test)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pools = harness._tokenize(reps, pool, test)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(pools) == 2
    assert held / (len(pools) * (n_pool + n_test)) < 400


def test_lexicon_is_loaded_once_per_run(tmp_path, synthetic_dir, monkeypatch):
    loads = []

    def counting_load(path):
        loads.append(path)
        return load(path)

    load = tokenizer.Lexicon.from_file
    monkeypatch.setattr(tokenizer.Lexicon, "from_file", counting_load)
    cfg = small_config(synthetic_dir)  # char_char and word_char
    report, all_ok = run_experiment(cfg, tmp_path / "run")
    assert all_ok
    assert loads == [cfg.lexicon]
    lexicon_bytes = (synthetic_dir / "lexicon.tsv").read_bytes()
    assert report["input_hashes"]["lexicon"] == hashlib.sha256(lexicon_bytes).hexdigest()

    # a sweep reads its inputs once, not once per size
    cfg = small_config(synthetic_dir, representations=["word_char"], dedup=True,
                       part1=planted_part1(tmp_path, synthetic_dir))
    parses = []

    def counting_parse(f, part, *args, **kwargs):
        parses.append(part)
        return parse(f, part, *args, **kwargs)

    parse = harness.parse_lcsts
    monkeypatch.setattr(harness, "parse_lcsts", counting_parse)
    loads.clear()
    _, all_ok = sweep_vocab(cfg, [10, 20, 40], tmp_path / "sweep")
    assert all_ok
    assert loads == [cfg.lexicon]
    assert parses == ["I", "III"]


def test_sweep_two_sizes(tmp_path, synthetic_dir):
    cfg = small_config(synthetic_dir, representations=["char_char"])
    table, all_ok = sweep_vocab(cfg, [20, 50], tmp_path)
    assert all_ok
    assert [row["requested_size"] for row in table] == [20, 50]
    for row in table:
        cell = row["runs"]["char_char"]
        assert cell["encoder_vocab_used"] <= row["requested_size"]
        assert cell["mean_scores"] is not None
    assert (tmp_path / "t-sweep.json").exists()


def test_sweep_clamps_oversized_request(tmp_path, synthetic_dir):
    cfg = small_config(synthetic_dir, representations=["char_char"])
    with pytest.warns(UserWarning, match="clamped"):
        table, _ = sweep_vocab(cfg, [100000], tmp_path)
    assert table[0]["runs"]["char_char"]["encoder_vocab_used"] < 100000


@pytest.mark.parametrize("sizes, message", [
    ([0, 10], "sweep sizes must be positive"),
    ([20, 20], r"sweep sizes must not repeat, got \[20\]"),
], ids=["nonpositive", "repeated"])
def test_sweep_rejects_bad_sizes(tmp_path, synthetic_dir, monkeypatch, sizes, message):
    def no_reads(*args):
        raise AssertionError("an input was read before the sizes were checked")

    monkeypatch.setattr(harness, "load_corpus_file", no_reads)
    cfg = small_config(synthetic_dir, representations=["char_char"])
    with pytest.raises(ValueError, match=message):
        sweep_vocab(cfg, sizes, tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sizes, taken, message", [
    (None, "t/char_char/seed0/model.npz", "t is not empty; it must be absent or empty"),
    ([20, 50], "t-vocab50/report.json", "t-vocab50 is not empty; it must be absent or empty"),
    ([20], "t-sweep.json/kept.txt", "t-sweep.json is a directory"),
], ids=["experiment-run-dir", "sweep-run-dir", "sweep-table"])
def test_a_library_run_refuses_a_used_output_before_any_input_is_read(
        tmp_path, synthetic_dir, monkeypatch, sizes, taken, message):
    """run_experiment and sweep_vocab (sizes) refuse a run directory that is not
    empty, or a directory at the sweep table, naming it, before any input is
    read: a library caller cannot mix two runs in one directory either."""
    def no_reads(*args):
        raise AssertionError("an input was read before the outputs were checked")

    monkeypatch.setattr(harness, "load_corpus_file", no_reads)
    (tmp_path / taken).parent.mkdir(parents=True)
    (tmp_path / taken).write_text("kept\n", encoding="utf-8")
    cfg = small_config(synthetic_dir, representations=["char_char"])
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path}/{message}")):
        run_experiment(cfg, tmp_path) if sizes is None else sweep_vocab(cfg, sizes, tmp_path)
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()] == [
        taken]
    assert (tmp_path / taken).read_text(encoding="utf-8") == "kept\n"


def _masked_tree(root: Path) -> dict:
    """Every file under root by relative path; JSON and JSONL files parsed,
    masked by mask_timings."""
    tree = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.suffix == ".json":
            content = mask_timings(json.loads(path.read_text(encoding="utf-8")))
        elif path.suffix == ".jsonl":
            content = [mask_timings(json.loads(line)) for line in path.read_text(encoding="utf-8").splitlines()]
        else:
            content = path.read_bytes()
        tree[path.relative_to(root).as_posix()] = content
    return tree


def test_sweep_size_equals_a_run_of_that_size(tmp_path, synthetic_dir):
    cfg = small_config(synthetic_dir, dedup=True, seeds=[0, 1],
                       part1=planted_part1(tmp_path, synthetic_dir))
    sweep_vocab(cfg, [20, 50], tmp_path / "sweep")
    for size in (20, 50):
        run_experiment(dataclasses.replace(cfg, encoder_vocab_size=size), tmp_path / f"run{size}")
        swept = _masked_tree(tmp_path / "sweep" / f"t-vocab{size}")
        assert [r["part1_id"] for r in swept["dedup_removals.jsonl"]] == [900, 901, 902]
        assert swept["report.json"]["config"]["encoder_vocab_size"] == size
        assert "word_char/seed1/model.npz" in swept
        assert swept == _masked_tree(tmp_path / f"run{size}" / "t")


def test_fixture_experiment_is_equal_at_1_and_2_blas_threads(tmp_path, fresh_env):
    """The bundled fixture run in fresh processes at OPENBLAS_NUM_THREADS 1
    and 2: every checkpoint and decode byte for byte, and report.json with
    its timestamp and timings masked. A run's cells train in workers its
    process forks after setting OpenBLAS to one thread, so the run at 2 takes
    the serial path, with the lookup of that setting patched out, to train at
    2 threads."""
    serial = ("import sys; from hwcsum import cli, harness; harness._blas_pin = lambda: None; "
              "sys.exit(cli.main(sys.argv[1:]))")
    trees = []
    for threads, command in (("1", ["-m", "hwcsum.cli"]), ("2", ["-c", serial])):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, *command, "experiment",
                        "--config", "tests/data/synthetic/experiment.json", "--out", str(out)],
                       cwd=REPO_ROOT, env=dict(fresh_env, OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=120)
        run = out / "synthetic-demo"
        files = {p.relative_to(run).as_posix(): p.read_bytes()
                 for p in sorted(run.rglob("*")) if p.name in ("model.npz", "candidates.jsonl")}
        trees.append((files, mask_timings(json.loads((run / "report.json").read_text(encoding="utf-8")))))
    assert len(trees[0][0]) == 8
    assert trees[0] == trees[1]


def _fixture_config(synthetic_dir) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(synthetic_dir / "experiment.json")
    return dataclasses.replace(cfg, **{k: str(REPO_ROOT / getattr(cfg, k))
                                      for k in ("part1", "part3", "lexicon")})


def test_the_pool_equals_the_serial_path_on_the_fixture(tmp_path, synthetic_dir, monkeypatch):
    """The fixture experiment through the pool of forked workers equals the same
    run with the OpenBLAS lookup patched out, which runs its cells one after
    another in this process at its default BLAS threads, timings masked; the
    pool runs its cells in at least two processes where two cores are usable."""
    if harness._blas_pin() is None:
        pytest.skip("no OpenBLAS whose thread count can be set: every run is serial")
    cfg, pids = _fixture_config(synthetic_dir), tmp_path / "pids.txt"

    def recording(*args):
        with open(pids, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return original(*args)

    original = harness._run_seed
    monkeypatch.setattr(harness, "_run_seed", recording)
    runs = {}
    for path in ("pool", "serial"):
        assert run_experiment(cfg, tmp_path / path)[1]
        runs[path] = [int(pid) for pid in pids.read_text(encoding="utf-8").split()]
        pids.unlink()
        monkeypatch.setattr(harness, "_blas_pin", lambda: None)
    assert _masked_tree(tmp_path / "pool") == _masked_tree(tmp_path / "serial")
    assert len(runs["pool"]) == 4 and os.getpid() not in runs["pool"]
    assert runs["serial"] == [os.getpid()] * 4
    assert len(set(runs["pool"])) >= min(2, len(os.sched_getaffinity(0)))


def test_pool_workers_start_no_blas_thread_and_the_parent_keeps_its_count(tmp_path,
                                                                           synthetic_dir,
                                                                           monkeypatch):
    """The parent sets OpenBLAS to one thread before it forks the workers, and no
    worker sets it again, which in a forked process re-creates OpenBLAS's threads:
    each cell reads one thread and, on Linux, runs in a process of one OS thread,
    even after a GEMM large enough to thread. The parent's count after a run equals
    its count before, also after a run whose worker died, as in _POOL_SCRIPT's exit
    mode."""
    blas = harness._blas_pin()
    if blas is None:
        pytest.skip("no OpenBLAS whose thread count can be set: every run is serial")
    get, _ = blas
    threads, seen = get(), tmp_path / "seen.txt"

    def recording(cfg, rep, seed, *args):
        np.ones((400, 400)) @ np.ones((400, 400))
        tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1
        with open(seen, "a", encoding="utf-8") as f:
            f.write(f"{get()} {tasks}\n")
        if cfg.name == "dies" and rep.name == "char_char":
            os._exit(3)
        return original(cfg, rep, seed, *args)

    original = harness._run_seed
    monkeypatch.setattr(harness, "_run_seed", recording)
    assert run_experiment(small_config(synthetic_dir), tmp_path)[1]
    assert seen.read_text(encoding="utf-8").splitlines() == ["1 1"] * 2
    assert get() == threads
    report, all_ok = run_experiment(small_config(synthetic_dir, name="dies"), tmp_path)
    assert not all_ok and report["runs"]["char_char"]["failed_seeds"] == [0]
    assert get() == threads


# runs the fixture experiment into argv[1] through the pool (no-op thread-count
# functions where there is no OpenBLAS), each cell first appending its worker's
# pid to argv[2]; with argv[3] "exit" cell (char_char, 1) ends its worker, with
# "sleep" every cell sleeps for a minute
_POOL_SCRIPT = """
import os, sys, time
from hwcsum import harness
original, blas = harness._run_seed, harness._blas_pin() or (lambda: 1, lambda threads: None)

def cell(cfg, rep, seed, *args):
    with open(sys.argv[2], "a", encoding="utf-8") as f:
        f.write(f"{os.getpid()}\\n")
    if sys.argv[3] == "sleep":
        time.sleep(60)
    if (rep.name, seed) == ("char_char", 1):
        os._exit(3)
    return original(cfg, rep, seed, *args)

harness._run_seed, harness._blas_pin = cell, lambda: blas
report, all_ok = harness.run_experiment(
    harness.ExperimentConfig.from_file("tests/data/synthetic/experiment.json"), sys.argv[1])
print(all_ok, report["runs"]["char_char"]["seeds"]["1"]["error"])
"""


def _gone(pids: Path) -> bool:
    """Whether no process whose pid pids lists is still running."""
    for pid in map(int, pids.read_text(encoding="utf-8").split()):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        return False
    return True


@contextlib.contextmanager
def _pool_run(tmp_path, env, mode: str):
    """_POOL_SCRIPT started in a session of its own, its output in out.txt and err.txt;
    its process group is killed on the way out, so that no hung run outlives the test."""
    with open(tmp_path / "out.txt", "w", encoding="utf-8") as out, \
            open(tmp_path / "err.txt", "w", encoding="utf-8") as err, \
            subprocess.Popen([sys.executable, "-c", _POOL_SCRIPT, str(tmp_path / "runs"),
                              str(tmp_path / "pids.txt"), mode], cwd=REPO_ROOT, env=env,
                             stdout=out, stderr=err, start_new_session=True) as run:
        try:
            yield run
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)


def test_a_dead_worker_fails_the_cells_left_and_the_run_still_reports(tmp_path, fresh_env):
    """A worker that ends mid-cell breaks the pool: the run returns, that seed
    and every cell not finished are failed naming the broken pool, each with
    its error.txt, report.json is written, and no worker is left."""
    with _pool_run(tmp_path, fresh_env, "exit") as run:
        assert run.wait(timeout=60) == 0, (tmp_path / "err.txt").read_text(encoding="utf-8")
        assert _gone(tmp_path / "pids.txt")
    out = (tmp_path / "out.txt").read_text(encoding="utf-8")
    assert out.startswith("False BrokenProcessPool: A process in the process pool was terminated")
    run_dir = tmp_path / "runs" / "synthetic-demo"
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert 1 in report["runs"]["char_char"]["failed_seeds"]
    assert "BrokenProcessPool" in (run_dir / "char_char" / "seed1" / "error.txt").read_text(
        encoding="utf-8")


def test_an_interrupt_ends_the_run_and_every_worker_at_once(tmp_path, fresh_env):
    """An interrupt sent to the process group while each worker is in a cell
    (a terminal's Ctrl-C) ends the run with KeyboardInterrupt within seconds,
    not after the cells: no report.json is written and no worker is left."""
    pids, err = tmp_path / "pids.txt", tmp_path / "err.txt"
    with _pool_run(tmp_path, fresh_env, "sleep") as run:
        workers = min(4, len(os.sched_getaffinity(0)))
        deadline = time.monotonic() + 30
        while not (pids.exists() and len(pids.read_text(encoding="utf-8").split()) == workers):
            assert run.poll() is None and time.monotonic() < deadline, err.read_text(
                encoding="utf-8")
            time.sleep(0.05)
        os.killpg(run.pid, signal.SIGINT)
        assert run.wait(timeout=20) != 0
        assert _gone(pids)
    assert err.read_text(encoding="utf-8").rstrip().endswith("KeyboardInterrupt")
    assert not (tmp_path / "runs" / "synthetic-demo" / "report.json").exists()


def test_batched_decodes_equal_per_article_decodes_on_the_fixture(tmp_path, synthetic_dir):
    """The bundled fixture's four trained models: the harness's chunked,
    batched candidates equal per-article beam search, and batched
    log-probs equal per-article ones."""
    cfg = _fixture_config(synthetic_dir)
    _, all_ok = run_experiment(cfg, tmp_path)
    assert all_ok
    part3 = load_corpus_file(cfg.part3, "III")[0]
    test = filter_by_score(part3, cfg.min_score)
    for name in cfg.representations:
        for seed in cfg.seeds:
            seed_dir = tmp_path / cfg.name / name / f"seed{seed}"
            params, rep, src_vocab, tgt_vocab = load_model_dir(seed_dir)
            assert rep.name == name
            sources = [src_vocab.encode(rep.tokens(p.short_text)) for p in test]
            one = [beam_search_full(s, params, cfg.beam_width) for s in sources]
            rows = [json.loads(line) for line in
                    (seed_dir / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
            assert [r["id"] for r in rows] == [p.id for p in test]
            assert [r["candidate"] for r in rows] == [
                "".join(tgt_vocab.decode(h.token_ids)) for h in one]
            batched = model._search(sources, params, cfg.beam_width, None)
            assert [h.token_ids for h in batched] == [h.token_ids for h in one]
            for b, h in zip(batched, one):
                assert math.isclose(b.log_prob, h.log_prob, rel_tol=0.0, abs_tol=1e-12)


def test_chunk_size_does_not_change_the_decodes(tmp_path, synthetic_dir, monkeypatch):
    cfg = small_config(synthetic_dir, representations=["char_char"], model={
        "embed_dim": 8, "hidden_dim": 8, "dropout": 0.0, "max_decode_len": 10})
    recorded = tmp_path / "sizes.txt"  # a file, since a cell decodes in a worker process

    def counting(sources, *args):
        with open(recorded, "a", encoding="utf-8") as f:
            f.write(f"{len(sources)}\n")
        return original(sources, *args)

    original = harness.beam_search_batch
    monkeypatch.setattr(harness, "beam_search_batch", counting)
    run_experiment(cfg, tmp_path / "whole")
    monkeypatch.setattr(harness, "DECODE_CHUNK", 5)
    run_experiment(cfg, tmp_path / "chunked")
    sizes = [int(line) for line in recorded.read_text(encoding="utf-8").split()]
    assert sizes == [17, 5, 5, 5, 2]
    path = "t/char_char/seed0/candidates.jsonl"
    whole = (tmp_path / "whole" / path).read_bytes()
    assert len(whole.splitlines()) == 17
    assert whole == (tmp_path / "chunked" / path).read_bytes()


def test_a_diverged_run_is_refused_and_saves_no_model_dir(tmp_path):
    """A learning rate whose first step overflows the parameters makes the
    next batch's loss nan: train refuses the run there, naming the epoch and
    the batch, and train_model_dir writes no model directory."""
    src = tokenizer.TokenRows(list("abcd"[i:i + 2]) for i in range(4))
    tgt = tokenizer.TokenRows(list("xyz"[i % 3:]) for i in range(4))
    rows = range(4)
    src_vocab, tgt_vocab = tokenizer.rank_vocab(src, rows), tokenizer.rank_vocab(tgt, rows)
    settings = {"model": {"embed_dim": 4, "hidden_dim": 4, "dropout": 0.0}, "epochs": 2,
                "batch_size": 2, "learning_rate": 1e308}
    out = tmp_path / "model"
    refusal = r"^training diverged: loss=nan at epoch 1, batch starting at position 2$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match=refusal):
        harness.train_model_dir(out, tokenizer.Representation("char_char"), src, tgt, rows, [],
                                src_vocab, tgt_vocab, 3, settings)
    assert not out.exists()


def test_load_model_dir_checks_a_recorded_lexicon_hash(tmp_path):
    """No hash recorded: any lexicon loads; the lexicon it was trained with
    loads; another is refused, naming it and both hashes."""
    lexicon, other = tmp_path / "lexicon.tsv", tmp_path / "other.tsv"
    lexicon.write_text("城市\t5\n交通\t3\n", encoding="utf-8")
    other.write_text("城市\t5\n", encoding="utf-8")
    rows = tokenizer.TokenRows([["城", "市"]])
    vocab = tokenizer.rank_vocab(rows, range(1))
    params = model.init_params(model.ModelConfig(src_vocab_size=len(vocab),
                                                 tgt_vocab_size=len(vocab), embed_dim=2,
                                                 hidden_dim=2))
    out = tmp_path / "model"
    harness.save_model_dir(out, params, tokenizer.Representation("word_char", lexicon), vocab,
                           vocab, [])
    trained = hashlib.sha256(lexicon.read_bytes()).hexdigest()
    assert load_model_dir(out)[1].lexicon_sha256 == trained
    with pytest.raises(ValueError) as err:
        load_model_dir(out, other)
    assert str(err.value) == (f"lexicon {other} has sha256 "
                              f"{hashlib.sha256(other.read_bytes()).hexdigest()}, but the model "
                              f"was trained with a lexicon of sha256 {trained}")
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    (out / "meta.json").write_text(json.dumps({**meta, "lexicon_sha256": None}), encoding="utf-8")
    assert load_model_dir(out, other)[1].lexicon_path == other
