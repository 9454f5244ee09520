import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from hwcsum import cli, harness
from hwcsum.cli import main
from hwcsum.corpus import ParseError, split_train_validation, write_jsonl
from hwcsum.harness import (ExperimentConfig, load_corpus_file, load_model_dir, run_experiment,
                            save_model_dir)
from hwcsum.model import ModelConfig, beam_search, train
from hwcsum.tokenizer import BOS, EOS, EncodedPair, Representation, Vocabulary, char_tokenize
from workloads import mask_timings

WORDS = ["城市", "交通", "建设", "项目", "投资", "发展"]


def _block(pid, text, summary, label=None):
    lines = [f"<doc id={pid}>"]
    if label is not None:
        lines.append(f"<human_label>{label}</human_label>")
    lines += [f"<summary>{summary}</summary>", f"<short_text>{text}</short_text>", "</doc>"]
    return "\n".join(lines) + "\n"


@pytest.fixture
def tiny_dataset(tmp_path):
    part1 = tmp_path / "part1.txt"
    part3 = tmp_path / "part3.txt"
    lexicon = tmp_path / "lexicon.tsv"

    blocks = []
    for i in range(20):
        words = [WORDS[(i + j) % len(WORDS)] for j in range(4)]
        blocks.append(_block(i, "".join(words), "".join(words[:2])))
    # one duplicate of a part3 record, plus a suffix variant; the word
    # orders below never occur in the rotation above
    blocks.append(_block(900, "投资建设城市项目交通", "投资建设"))
    blocks.append(_block(901, "投资建设城市项目交通某报", "投资建设"))
    part1.write_text("".join(blocks), encoding="utf-8")

    blocks3 = [_block(100, "投资建设城市项目交通", "投资建设", label=5),
               _block(101, "发展项目投资交通", "发展项目", label=4),
               _block(102, "交通城市发展建设", "交通城市", label=2)]
    part3.write_text("".join(blocks3), encoding="utf-8")

    lexicon.write_text("".join(f"{w}\t{10 + i}\n" for i, w in enumerate(WORDS)), encoding="utf-8")
    return tmp_path


def test_full_cli_pipeline(tiny_dataset, capsys):
    d = tiny_dataset

    # parse both parts to canonical records
    assert main(["parse", "--in", str(d / "part1.txt"), "--part", "I",
                 "--out", str(d / "part1.jsonl"),
                 "--report", str(d / "parse_report.jsonl")]) == 0
    assert main(["parse", "--in", str(d / "part3.txt"), "--part", "III",
                 "--out", str(d / "part3.jsonl")]) == 0
    records = [json.loads(line) for line in (d / "part1.jsonl").read_text().splitlines()]
    assert len(records) == 22
    assert set(records[0]) == {"id", "text", "summary"}

    # dedup against part3
    assert main(["clean", "--part1", str(d / "part1.jsonl"), "--part3", str(d / "part3.jsonl"),
                 "--max-suffix-delta", "15", "--out", str(d / "part1_clean.jsonl"),
                 "--report", str(d / "removals.jsonl")]) == 0
    removals = [json.loads(line) for line in (d / "removals.jsonl").read_text().splitlines()]
    assert {r["part1_id"] for r in removals} == {900, 901}
    cleaned = (d / "part1_clean.jsonl").read_text().splitlines()
    assert len(cleaned) == 20

    # label filter
    assert main(["filter", "--in", str(d / "part3.jsonl"), "--min-score", "3",
                 "--out", str(d / "test.jsonl")]) == 0
    assert len((d / "test.jsonl").read_text().splitlines()) == 2

    # split
    assert main(["split", "--in", str(d / "part1_clean.jsonl"), "--n-validation", "4",
                 "--seed", "0", "--train-out", str(d / "train.jsonl"),
                 "--valid-out", str(d / "valid.jsonl")]) == 0
    assert len((d / "train.jsonl").read_text().splitlines()) == 16
    assert len((d / "valid.jsonl").read_text().splitlines()) == 4

    # vocabularies
    assert main(["vocab", "--unit", "word", "--lexicon", str(d / "lexicon.tsv"),
                 "--in", str(d / "train.jsonl"), "--out", str(d / "src_vocab.txt")]) == 0
    assert main(["vocab", "--unit", "char", "--in", str(d / "train.jsonl"),
                 "--out", str(d / "tgt_vocab.txt")]) == 0
    src_lines = (d / "src_vocab.txt").read_text().splitlines()
    assert src_lines[0] == "<pad>\t0" and src_lines[3] == "</s>\t0"

    # train
    (d / "train_cfg.json").write_text(json.dumps({
        "model": {"embed_dim": 10, "hidden_dim": 10, "dropout": 0.0, "max_decode_len": 8},
        "epochs": 2, "batch_size": 8, "representation": "word_char",
        "lexicon": str(d / "lexicon.tsv"),
    }))
    assert main(["train", "--config", str(d / "train_cfg.json"),
                 "--train", str(d / "train.jsonl"), "--valid", str(d / "valid.jsonl"),
                 "--src-vocab", str(d / "src_vocab.txt"), "--tgt-vocab", str(d / "tgt_vocab.txt"),
                 "--out", str(d / "model")]) == 0
    assert (d / "model" / "model.npz").exists()
    assert (d / "model" / "meta.json").exists()
    assert len((d / "model" / "train_log.jsonl").read_text().splitlines()) == 2

    # summarize the test set
    assert main(["summarize", "--model", str(d / "model"), "--in", str(d / "test.jsonl"),
                 "--beam", "3", "--max-len", "8", "--out", str(d / "candidates.jsonl")]) == 0
    cands = [json.loads(line) for line in (d / "candidates.jsonl").read_text().splitlines()]
    assert [c["id"] for c in cands] == [100, 101]
    assert all("candidate" in c for c in cands)

    # score against references
    assert main(["eval", "--candidates", str(d / "candidates.jsonl"),
                 "--references", str(d / "test.jsonl"),
                 "--report", str(d / "eval.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "rouge_1" in out and "rouge_l" in out
    lines = (d / "eval.jsonl").read_text().splitlines()
    assert len(lines) == 3  # two pairs + the mean row
    assert "mean" in json.loads(lines[-1])
    assert not list(d.rglob("*.tmp"))


def test_cli_experiment_and_exit_codes(tiny_dataset, tmp_path, capsys):
    d = tiny_dataset
    cfg = {
        "name": "cli-exp",
        "part1": str(d / "part1.txt"),
        "part3": str(d / "part3.txt"),
        "lexicon": str(d / "lexicon.tsv"),
        "representation": "char_char",
        "seeds": [0],
        "n_validation": 3,
        "epochs": 1,
        "batch_size": 8,
        "beam_width": 2,
        "model": {"embed_dim": 8, "hidden_dim": 8, "dropout": 0.0, "max_decode_len": 6},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 0
    report = json.loads((tmp_path / "runs" / "cli-exp" / "report.json").read_text())
    assert report["runs"]["char_char"]["failed_seeds"] == []
    assert "char_char" in capsys.readouterr().out

    # a config that cannot split (n_validation too big) is a data error, raised
    # once before any seed trains
    cfg["n_validation"] = 999
    cfg["name"] = "cli-exp-bad"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="n_validation=999 must be smaller than the training pool"):
        main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
    assert not (tmp_path / "runs" / "cli-exp-bad").exists()


def test_cli_seed_override(tiny_dataset, tmp_path):
    d = tiny_dataset
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "name": "seeds",
        "part1": str(d / "part1.txt"),
        "part3": str(d / "part3.txt"),
        "representation": "char_char",
        "n_validation": 3,
        "epochs": 1,
        "batch_size": 8,
        "beam_width": 2,
        "model": {"embed_dim": 8, "hidden_dim": 8, "dropout": 0.0, "max_decode_len": 6},
    }))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "runs"),
                 "--seeds", "1"]) == 0
    report = json.loads((tmp_path / "runs" / "seeds" / "report.json").read_text())
    assert list(report["runs"]["char_char"]["seeds"]) == ["1"]


def _assert_usage_error(capsys, argv, message):
    """main refuses argv as argparse refuses an argument: exit status 2 and
    the usage, then one 'hwcsum <command>: error:' line, on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hwcsum {argv[0]} ") and "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"hwcsum {argv[0]}: error: {message}"]


NAME_REFUSED = "name must be one directory name inside the output directory, got "
# what Python says of an integer of 5,000 digits
TOO_LONG = ("Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
            "use sys.set_int_max_str_digits() to increase the limit")
# how JSON nested deeper than the decoder's recursion reaches is refused
NESTED = "JSON nested too deeply to read"


def _in_tmp(text: str, tmp_path) -> str:
    """text with each {tmp} replaced by the test's tmp_path, so that a refused
    name can point into it."""
    return text.replace("{tmp}", tmp_path.as_posix())


def _record_corpus_reads(monkeypatch):
    """Wrap the readers of inputs where the harness and the CLI call them:
    load_corpus_file, parse's parse_lcsts, eval's _read_rows and summarize's
    load_model_dir; returns what each is asked to read."""
    opened = []

    def record(module, name):
        original = getattr(module, name)

        def recording(source, *args, **kwargs):
            opened.append(source)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    for module, name in [(harness, "load_corpus_file"), (cli, "load_corpus_file"),
                         (cli, "parse_lcsts"), (cli, "_read_rows"), (cli, "load_model_dir")]:
        record(module, name)
    return opened


@pytest.mark.parametrize("change, flags, message", [
    ({"epochs": "2"}, [], "epochs must be an integer >= 1, got '2'"),
    ({"batch_size": 0}, [], "batch_size must be an integer >= 1, got 0"),
    ({"beam_width": 0}, [], "beam_width must be an integer >= 1, got 0"),
    ({"min_score": 9}, [], "min_score must be an integer in [1, 5], got 9"),
    ({"n_validation": -1}, [], "n_validation must be an integer >= 0, got -1"),
    ({"learning_rate": 0}, [], "learning_rate must be a positive finite number, got 0"),
    ({"max_suffix_delta": 1.5}, [], "max_suffix_delta must be an integer >= 0, got 1.5"),
    ({"vocab_min_count": 0}, [], "vocab_min_count must be an integer >= 1, got 0"),
    ({"dedup": "yes"}, [], "dedup must be true or false, got 'yes'"),
    ({"seeds": ["1"]}, [], "seeds must be in [0, 2**32), got ['1']"),
    ({"seeds": [0, -1, 2**32]}, [], "seeds must be in [0, 2**32), got [-1, 4294967296]"),
    ({}, ["--seeds", "-1"], "seeds must be in [0, 2**32), got [-1]"),
    ({"seeds": [0, 1, 0]}, [], "seeds must not repeat, got [0] more than once"),
    ({}, ["--seeds", "7,7"], "seeds must not repeat, got [7] more than once"),
    ({"seeds": []}, [], "seeds must be non-empty"),
    ({"encoder_vocab_size": True}, [], "encoder_vocab_size must be an integer >= 1, got True"),
    ({"model": {"hidden_dim": 0}}, [], "embed_dim and hidden_dim must be positive"),
    ({"model": {"dropout": 1.0}}, [], "dropout must be in [0, 1), got 1.0"),
    ({"model": {"embed_dim": "8"}}, [], "model embed_dim must be an integer, got '8'"),
    ({"model": {"seed": 3, "embde_dim": 3}}, [],
     "unknown model config keys: ['embde_dim', 'seed']"),
    ({"lexicon": 3}, [], "lexicon must be a string, got 3"),
    ({"name": 5}, [], "name must be a string, got 5"),
    ({"part3": ["part3.txt"]}, [], "part3 must be a string, got ['part3.txt']"),
    ({"seeds": 5}, [], "seeds must be a list, got 5"),
    ({"model": [4]}, [], "model must be a JSON object, got [4]"),
    ({"representation": 5}, [],
     "unknown representation 5; expected one of ('char_char', 'word_char')"),
    ({"representation": "wordchar"}, [],
     "unknown representation 'wordchar'; expected one of ('char_char', 'word_char')"),
    ({"representation": []}, [], "representations must be non-empty"),
    # a repeat would run the same seed<k>/ directory twice and echo both in report.json
    ({"representation": ["char_char", "char_char"]}, [],
     "representations must not repeat, got ['char_char'] more than once"),
    ({"representation": "word_char", "lexicon": None}, [],
     "the word_char representation needs a lexicon entry in the config"),
    ({"vocab_size": 5}, [], "unknown experiment config keys: ['vocab_size']"),
    ({"nonsense": 1}, [], "unknown experiment config keys: ['nonsense']"),
    ({"representations": ["char_char"]}, [], "unknown experiment config keys: ['representations']"),
    (lambda cfg: 5, [], "experiment config must be a JSON object, got 5"),
    (lambda cfg: "ab", [], "experiment config must be a JSON object, got 'ab'"),
    (lambda cfg: {k: v for k, v in cfg.items() if k != "name"}, [],
     "missing experiment config keys: ['name']"),
    ({}, ["--sizes", "5,3,5"], "sweep sizes must not repeat, got [5] more than once"),
    ({}, ["--sizes", "5,0"], "sweep sizes must be positive"),
    ({"name": ""}, [], NAME_REFUSED + "''"),
    ({"name": "."}, [], NAME_REFUSED + "'.'"),
    ({"name": ".."}, [], NAME_REFUSED + "'..'"),
    ({"name": "../beside"}, [], NAME_REFUSED + "'../beside'"),
    ({"name": "{tmp}/elsewhere"}, [], NAME_REFUSED + "'{tmp}/elsewhere'"),
    ({"name": "runs/nested"}, [], NAME_REFUSED + "'runs/nested'"),
    ({"name": "run\0x"}, [], NAME_REFUSED + "'run\\x00x'"),
], ids=["epochs", "batch-size", "beam-width", "min-score", "n-validation", "learning-rate",
        "max-suffix-delta", "vocab-min-count", "dedup", "seed-type", "seed-out-of-range",
        "seeds-flag-negative", "seed-repeated", "seeds-flag-repeated", "seeds-empty",
        "encoder-vocab-size", "hidden-dim", "dropout", "embed-dim-type", "model-seed",
        "lexicon-type", "name-type", "part-type", "seeds-type", "model-type",
        "representation-type", "representation-unknown", "representations-empty",
        "representation-repeated", "word-char-without-lexicon", "unknown-key",
        "unknown-key-nonsense", "representations-plural", "number", "string", "no-name",
        "repeated-size", "size-zero", "name-empty", "name-dot", "name-dot-dot", "name-parent",
        "name-absolute", "name-nested", "name-nul"])
def test_config_value_is_refused_before_any_input_is_read(tiny_dataset, tmp_path, capsys,
                                                          monkeypatch, change, flags, message):
    """experiment and sweep, each given the config and the flags, refuse it as a
    usage error before any input is read, and write nothing; a row that sets
    --sizes runs sweep alone."""
    opened = _record_corpus_reads(monkeypatch)
    cfg = {"name": "refused", "part1": str(tiny_dataset / "part1.txt"),
           "part3": str(tiny_dataset / "part3.txt"), "lexicon": str(tiny_dataset / "lexicon.tsv")}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(_in_tmp(json.dumps(change(cfg) if callable(change) else {**cfg, **change}),
                                tmp_path))
    before = sorted(tmp_path.iterdir())
    runs = ([("sweep", flags)] if "--sizes" in flags else
            [("experiment", flags), ("sweep", ["--sizes", "5", *flags])])
    for command, extra in runs:
        _assert_usage_error(capsys, [command, "--config", str(cfg_path),
                                     "--out", str(tmp_path / "runs"), *extra],
                            _in_tmp(message, tmp_path))
    assert opened == [] and sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("change, message", [
    ({"epochs": 0}, "epochs must be an integer >= 1, got 0"),
    ({"batch_size": "8"}, "batch_size must be an integer >= 1, got '8'"),
    ({"learning_rate": -0.1}, "learning_rate must be a positive finite number, got -0.1"),
    ({"model": {"hidden_dim": 0}}, "embed_dim and hidden_dim must be positive"),
    ({"lexicon": 7}, "lexicon must be a string, got 7"),
    ({"epoch": 2}, "unknown train config keys: ['epoch']"),
    ({"model": {"hiden_dim": 4}}, "unknown model config keys: ['hiden_dim']"),
    ({"representation": "word-char"},
     "unknown representation 'word-char'; expected one of ('char_char', 'word_char')"),
], ids=["epochs", "batch-size", "learning-rate", "hidden-dim", "lexicon-type", "unknown-key",
        "unknown-model-key", "representation-unknown"])
def test_train_config_value_is_refused_before_any_input_is_read(word_char_model, capsys,
                                                                monkeypatch, change, message):
    d = word_char_model
    opened = _record_corpus_reads(monkeypatch)
    cfg = json.loads((d / "train_cfg.json").read_text())
    (d / "train_cfg.json").write_text(json.dumps({**cfg, **change}))
    capsys.readouterr()
    _assert_usage_error(capsys, [
        "train", "--config", str(d / "train_cfg.json"), "--train", str(d / "train.jsonl"),
        "--src-vocab", str(d / "src_vocab.txt"), "--tgt-vocab", str(d / "tgt_vocab.txt"),
        "--lexicon", str(d / "lexicon.tsv"), "--out", str(d / "model2")], message)
    assert opened == [] and not (d / "model2").exists()


@pytest.mark.parametrize("argv, message", [
    (["vocab", "--unit", "char", "--max-size", "0", "--in", "{d}/part1.txt"],
     "--max-size: encoder_vocab_size must be an integer >= 1, got 0"),
    (["vocab", "--unit", "char", "--max-size", "x", "--in", "{d}/part1.txt"],
     "--max-size: invalid int value: 'x'"),
    (["vocab", "--unit", "char", "--min-count", "0", "--in", "{d}/part1.txt"],
     "--min-count: vocab_min_count must be an integer >= 1, got 0"),
    (["filter", "--min-score", "9", "--in", "{d}/part3.txt"],
     "--min-score: min_score must be an integer in [1, 5], got 9"),
    (["split", "--n-validation", "-1", "--in", "{d}/part1.txt", "--train-out", "{d}/out_train"],
     "--n-validation: n_validation must be an integer >= 0, got -1"),
    (["split", "--seed", "-1", "--in", "{d}/part1.txt", "--train-out", "{d}/out_train"],
     "--seed: seeds must be in [0, 2**32), got [-1]"),
    (["split", "--seed", "4294967296", "--in", "{d}/part1.txt", "--train-out", "{d}/out_train"],
     "--seed: seeds must be in [0, 2**32), got [4294967296]"),
    (["clean", "--max-suffix-delta", "-1", "--part1", "{d}/part1.txt", "--part3", "{d}/part3.txt"],
     "--max-suffix-delta: max_suffix_delta must be an integer >= 0, got -1"),
    (["summarize", "--beam", "0", "--model", "{d}", "--in", "{d}/part3.txt"],
     "--beam: beam_width must be an integer >= 1, got 0"),
    (["train", "--seed", "4294967296", "--config", "{d}/train.json", "--train", "{d}/part1.txt",
      "--src-vocab", "{d}/v", "--tgt-vocab", "{d}/v", "--representation", "char_char"],
     "--seed: seeds must be in [0, 2**32), got [4294967296]"),
], ids=["vocab-max-size", "vocab-max-size-not-an-integer", "vocab-min-count",
        "filter-min-score", "split-n-validation", "split-seed-negative", "split-seed-too-large",
        "clean-max-suffix-delta", "summarize-beam", "train-seed"])
def test_numeric_flag_out_of_range_is_refused_before_any_input_is_read(
        tiny_dataset, capsys, monkeypatch, argv, message):
    # summarize --max-len: test_summarize_refuses_a_negative_max_len
    d = tiny_dataset
    (d / "train.json").write_text(json.dumps({"epochs": 1}))
    opened = _record_corpus_reads(monkeypatch)
    out = ["--valid-out", "{d}/out_valid"] if argv[0] == "split" else ["--out", "{d}/out"]
    _assert_usage_error(capsys, [a.format(d=d) for a in argv + out], f"argument {message}")
    assert opened == [] and not list(d.glob("out*"))


@pytest.fixture
def every_input(tiny_dataset):
    """tiny_dataset plus what train, experiment, sweep and eval read: a character
    vocabulary, a train config, an experiment config named x and eval rows."""
    d = tiny_dataset
    assert main(["vocab", "--unit", "char", "--in", str(d / "part1.txt"),
                 "--out", str(d / "vocab.txt")]) == 0
    (d / "train.json").write_text(json.dumps({"epochs": 1, "model": {"embed_dim": 4,
                                                                     "hidden_dim": 4}}))
    (d / "exp.json").write_text(json.dumps({
        "name": "x", "part1": str(d / "part1.txt"), "part3": str(d / "part3.txt"),
        "representation": "char_char", "seeds": [0], "n_validation": 3, "epochs": 1,
        "beam_width": 1, "model": {"embed_dim": 4, "hidden_dim": 4, "max_decode_len": 4}}))
    (d / "rows.jsonl").write_text('{"id": 1, "summary": "ab"}\n', encoding="utf-8")
    return d


TRAIN = ["train", "--config", "{d}/train.json", "--train", "{d}/part1.txt",
         "--src-vocab", "{d}/vocab.txt", "--tgt-vocab", "{d}/vocab.txt",
         "--representation", "char_char"]
EXPERIMENT = ["experiment", "--config", "{d}/exp.json"]
SWEEP = ["sweep", "--config", "{d}/exp.json", "--sizes", "5,6"]
RUNS = ["--out", "{d}/runs"]
PARSE = ["parse", "--in", "{d}/part1.txt", "--part", "I"]
SPLIT = ["split", "--in", "{d}/part1.txt", "--n-validation", "3"]
CLEAN = ["clean", "--part1", "{d}/part1.txt", "--part3", "{d}/part3.txt"]
VOCAB = ["vocab", "--unit", "char", "--in", "{d}/part1.txt"]
NOT_EMPTY = " is not empty; it must be absent or empty"
TWICE = " is named as more than one output file"


def test_an_out_that_is_a_file_is_refused_before_any_input_is_read(every_input, capsys,
                                                                   monkeypatch):
    """train, experiment and sweep refuse an output directory that a file
    keeps from being made (--out itself, a path above it, or a run directory
    <out>/<name> or <out>/<name>-vocab<size>) as a usage error naming the
    file, and leave the file as it was."""
    d = every_input
    runs = d / "runs"
    runs.mkdir()
    taken = [d / "taken.txt", runs / "x", runs / "x-vocab6"]
    for path in taken:
        path.write_text("kept\n", encoding="utf-8")
    opened = _record_corpus_reads(monkeypatch)
    capsys.readouterr()
    for argv, out, blocker in ((TRAIN, taken[0], taken[0]), (EXPERIMENT, taken[0], taken[0]),
                               (SWEEP, taken[0], taken[0]), (TRAIN, taken[0] / "m", taken[0]),
                               (EXPERIMENT, taken[0] / "m", taken[0]),
                               (EXPERIMENT, runs, taken[1]), (SWEEP, runs, taken[2])):
        _assert_usage_error(capsys, [a.format(d=d) for a in argv] + ["--out", str(out)],
                            f"{blocker} exists and is not a directory")
    assert opened == [] and [p.read_text(encoding="utf-8") for p in taken] == ["kept\n"] * 3


def _tree(d):
    """{path: bytes, or None for a directory} of everything under d."""
    return {p: None if p.is_dir() else p.read_bytes() for p in d.rglob("*")}


@pytest.mark.parametrize("argv, blocker, message", [
    (PARSE + ["--out", "{d}/out"], "out/kept.txt", "{d}/out is a directory"),
    (PARSE + ["--out", "{d}/p.jsonl", "--report", "{d}/out"], "out/kept.txt",
     "{d}/out is a directory"),
    (["filter", "--in", "{d}/part3.txt", "--out", "{d}/out"], "out/kept.txt",
     "{d}/out is a directory"),
    (SPLIT + ["--train-out", "{d}/out", "--valid-out", "{d}/v.jsonl"], "out/kept.txt",
     "{d}/out is a directory"),
    (SPLIT + ["--train-out", "{d}/t.jsonl", "--valid-out", "{d}/out"], "out/kept.txt",
     "{d}/out is a directory"),
    (CLEAN + ["--out", "{d}/out"], "out/kept.txt", "{d}/out is a directory"),
    (CLEAN + ["--out", "{d}/c.jsonl", "--report", "{d}/out"], "out/kept.txt",
     "{d}/out is a directory"),
    (VOCAB + ["--out", "{d}/out"], "out/kept.txt", "{d}/out is a directory"),
    (["summarize", "--model", "{d}/model", "--in", "{d}/part3.txt", "--out", "{d}/out"],
     "out/kept.txt", "{d}/out is a directory"),
    (["eval", "--candidates", "{d}/rows.jsonl", "--references", "{d}/rows.jsonl",
      "--report", "{d}/out"], "out/kept.txt", "{d}/out is a directory"),
    (SWEEP + RUNS, "runs/x-sweep.json/kept.txt", "{d}/runs/x-sweep.json is a directory"),
    (PARSE + ["--out", "{d}/missing/p.jsonl"], None,
     "{d}/missing/p.jsonl: its directory {d}/missing does not exist"),
    (VOCAB + ["--out", "{d}/missing/v.txt"], None,
     "{d}/missing/v.txt: its directory {d}/missing does not exist"),
    (EXPERIMENT + RUNS, "runs/x/char_char", "{d}/runs/x" + NOT_EMPTY),
    (EXPERIMENT + RUNS, "runs/x/report.json", "{d}/runs/x" + NOT_EMPTY),
    (SWEEP + RUNS, "runs/x-vocab6/report.json", "{d}/runs/x-vocab6" + NOT_EMPTY),
    (TRAIN + ["--out", "{d}/model"], "model/model.npz", "{d}/model" + NOT_EMPTY),
    (PARSE + ["--out", "{d}/p.jsonl", "--report", "{d}/p.jsonl"], None,
     "{d}/p.jsonl" + TWICE),
    (SPLIT + ["--train-out", "{d}/s", "--valid-out", "{d}/./s"], None, "{d}/s" + TWICE),
    (SPLIT + ["--train-out", "{d}/s", "--valid-out", "{d}/out/../s"], "out/kept.txt",
     "{d}/out/../s" + TWICE),
    (CLEAN + ["--out", "{d}/c.jsonl", "--report", "{d}/c.jsonl"], None, "{d}/c.jsonl" + TWICE),
], ids=["parse-out", "parse-report", "filter-out", "split-train-out", "split-valid-out",
        "clean-out", "clean-report", "vocab-out", "summarize-out", "eval-report", "sweep-table",
        "parse-out-parent-missing", "vocab-out-parent-missing", "experiment-rep-dir-a-file",
        "experiment-run-dir-not-empty", "sweep-run-dir-not-empty", "train-out-not-empty",
        "parse-out-is-report", "split-train-out-is-valid-out",
        "split-train-out-is-valid-out-through-a-parent", "clean-out-is-report"])
def test_an_output_path_in_the_way_is_refused_before_any_input_is_read(
        every_input, capsys, monkeypatch, argv, blocker, message):
    """A directory at an output file, a missing directory of one, and a run or
    model directory that is not empty are each refused as a usage error naming
    the path, before any input is read; nothing is written and the path in the
    way is left as it was."""
    d = every_input
    if blocker:
        (d / blocker).parent.mkdir(parents=True, exist_ok=True)
        (d / blocker).write_text("kept\n", encoding="utf-8")
    before = _tree(d)
    opened = _record_corpus_reads(monkeypatch)
    capsys.readouterr()
    _assert_usage_error(capsys, [a.format(d=d) for a in argv], message.format(d=d))
    assert opened == [] and _tree(d) == before


def test_an_output_that_may_be_replaced_or_is_empty_is_accepted(every_input, capsys):
    """An existing output file is replaced, an existing empty train --out is
    written into, and an experiment --out may already hold another run."""
    d = every_input
    (d / "model").mkdir()
    (d / "runs" / "other").mkdir(parents=True)
    (d / "runs" / "other" / "report.json").write_text("kept\n", encoding="utf-8")
    (d / "v.txt").write_text("old\n", encoding="utf-8")
    for argv in (VOCAB + ["--out", "{d}/v.txt"], TRAIN + ["--out", "{d}/model"],
                 EXPERIMENT + RUNS):
        assert main([a.format(d=d) for a in argv]) == 0
    assert (d / "v.txt").read_bytes() == (d / "vocab.txt").read_bytes()
    assert (d / "model" / "model.npz").exists() and (d / "runs" / "x" / "report.json").exists()
    assert (d / "runs" / "other" / "report.json").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("labels, change, message", [
    ((5, 4, 2), {"n_validation": 22}, "n_validation=22 must be smaller than the training pool "
                                      "of 22 pairs"),
    ((2, 2, 1), {"min_score": 3}, "part3.txt: no test pair has a label >= 3"),
], ids=["n-validation-at-pool-size", "empty-test-set"])
def test_data_check_fails_once_before_any_seed_trains(tiny_dataset, tmp_path, monkeypatch,
                                                      labels, change, message):
    part3 = tiny_dataset / "part3.txt"
    part3.write_text("".join(_block(100 + i, "发展项目投资交通", "发展项目", label=label)
                             for i, label in enumerate(labels)), encoding="utf-8")
    trained = []
    monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(1))
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"name": "data", "part1": str(tiny_dataset / "part1.txt"),
                                    "part3": str(part3), "representation": "char_char",
                                    "seeds": [0, 1], **change}))
    for command, extra in (("experiment", []), ("sweep", ["--sizes", "5,6"])):
        with pytest.raises(ValueError, match=re.escape(message)):
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "runs"), *extra])
    assert trained == [] and not (tmp_path / "runs").exists()


def test_untokenizable_text_fails_once_before_any_seed_trains(tiny_dataset, tmp_path,
                                                              monkeypatch):
    """word_char cannot segment a text with an empty lexicon: an experiment
    and a sweep each fail once, naming the lexicon, before any seed trains
    and before any run directory is made."""
    (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
    trained = []
    monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(1))
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"name": "data", "part1": str(tiny_dataset / "part1.txt"),
                                    "part3": str(tiny_dataset / "part3.txt"),
                                    "representation": "word_char",
                                    "lexicon": str(tmp_path / "empty.tsv"), "n_validation": 4,
                                    "seeds": [0, 1]}))
    for command, extra in (("experiment", []), ("sweep", ["--sizes", "5,6"])):
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'empty.tsv'))}: "
                                             "the lexicon is empty; word_char needs at least one word$"):
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "runs"), *extra])
    assert trained == [] and not (tmp_path / "runs").exists()


def test_word_vocab_refuses_an_empty_lexicon_naming_it(tiny_dataset, tmp_path):
    """The refusal comes when the lexicon is loaded, before the corpus is
    read, and writes no vocabulary; a BOM lexicon's first word is a word."""
    d = tiny_dataset
    empty, out = tmp_path / "empty.tsv", tmp_path / "vocab.txt"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match=f"^{re.escape(str(empty))}: the lexicon is empty"):
        main(["vocab", "--unit", "word", "--lexicon", str(empty), "--in", str(d / "part1.txt"),
              "--out", str(out)])
    assert not out.exists()
    bom = tmp_path / "bom.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + (d / "lexicon.tsv").read_bytes())
    first = (d / "lexicon.tsv").read_text(encoding="utf-8").split("\t")[0]
    assert main(["vocab", "--unit", "word", "--lexicon", str(bom), "--in", str(d / "part1.txt"),
                 "--out", str(out)]) == 0
    assert first in Vocabulary.load(out).ids


def test_jsonl_integer_too_long_to_read_names_its_file_and_line(tmp_path):
    big = tmp_path / "big.jsonl"
    big.write_text('{"id": 0, "text": "t", "summary": "s"}\n'
                   f'{{"id": {"9" * 5000}, "text": "t", "summary": "s"}}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(big))}: line 2: Exceeds the limit"):
        main(["split", "--in", str(big), "--n-validation", "1", "--train-out",
              str(tmp_path / "train.jsonl"), "--valid-out", str(tmp_path / "valid.jsonl")])
    assert not (tmp_path / "train.jsonl").exists()


def test_cli_data_errors_still_raise(tiny_dataset, tmp_path):
    """Only config checks become usage errors: a ValueError from a data file
    still raises, and so does a config file that is not JSON."""
    (tmp_path / "bad.tsv").write_text("城市5\n", encoding="utf-8")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"name": "data", "part1": str(tiny_dataset / "part1.txt"),
                                    "part3": str(tiny_dataset / "part3.txt"),
                                    "lexicon": str(tmp_path / "bad.tsv")}))
    with pytest.raises(ValueError, match="bad.tsv: line 1: expected 'word<TAB>count'"):
        main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
    cfg_path.write_text("{")
    with pytest.raises(ParseError, match=f"^{re.escape(str(cfg_path))}: invalid JSON \\("):
        main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])


@pytest.mark.parametrize("text, message", [
    ('{"name": "data",\n"part1": "\udcff"}', "line 2: invalid UTF-8 (invalid start byte)"),
    (f'{{"name": "data", "seeds": [{"9" * 5000}]}}', TOO_LONG),
    ("[" * 100_000, NESTED),
], ids=["not-utf8", "integer-too-long", "nested-too-deep"])
def test_a_config_that_cannot_be_read_is_a_data_error(tmp_path, capsys, text, message):
    """Not a usage error: it raises a ParseError naming the config, prints no
    usage, and nothing is written."""
    cfg_path, out = tmp_path / "exp.json", str(tmp_path / "runs")
    cfg_path.write_text(text, encoding="utf-8", errors="surrogateescape")  # "\udcff": byte 0xff
    for argv in (["experiment", "--out", out], ["sweep", "--sizes", "5", "--out", out],
                 ["train", "--train", "t.jsonl", "--src-vocab", "s.txt", "--tgt-vocab", "t.txt",
                  "--out", out]):
        with pytest.raises(ParseError) as err:
            main([*argv, "--config", str(cfg_path)])
        assert str(err.value) == f"{cfg_path}: {message}"
        assert "error:" not in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg_path]


_LCSTS_NOT_UTF8 = ["<doc id=1>", "<summary>s</summary>", "<short_text>\udcff</short_text>", "</doc>"]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name, lines, read", [
    ("corpus.jsonl", ['{"id": 1, "text": "t", "summary": "s"}', "",
                      '{"id": 2, "text": "\udcff", "summary": "s"}'],
     lambda path, out: main(["split", "--in", str(path), "--n-validation", "1", "--train-out",
                             str(out / "train.jsonl"), "--valid-out", str(out / "valid.jsonl")])),
    ("part1.txt", _LCSTS_NOT_UTF8,
     lambda path, out: main(["parse", "--in", str(path), "--part", "I", "--out", str(out / "p.jsonl")])),
    ("part1.txt", _LCSTS_NOT_UTF8, lambda path, out: load_corpus_file(path, "I")),
    ("vocab.txt", ["<pad>\t0", "<unk>\t0", "\udcff\t1", "<s>\t0", "</s>\t0"],
     lambda path, out: Vocabulary.load(path)),
], ids=["split-jsonl", "parse", "load-corpus-file", "vocabulary"])
def test_text_that_is_not_utf8_is_refused_at_its_line(tmp_path, name, lines, read, newline):
    """A byte that is not UTF-8 raises a ParseError naming the file and its
    line, with lines counted as a text-mode reader counts them; nothing is
    written."""
    path, out = tmp_path / name, tmp_path / "out"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8", "surrogateescape"))
    out.mkdir()
    with pytest.raises(ParseError) as err:
        read(path, out)
    assert str(err.value) == f"{path}: line 3: invalid UTF-8 (invalid start byte)"
    assert list(out.iterdir()) == []


def test_commands_report_the_malformed_records_they_skip(tmp_path, capsys):
    """A command reading a pseudo-XML corpus says on stderr how many records
    it skipped, as `parse` does; a corpus with none gets no such line."""
    mixed, train, valid = tmp_path / "mixed.txt", tmp_path / "train.jsonl", tmp_path / "valid.jsonl"
    mixed.write_text("<doc id=1>\n<summary>一</summary>\n<short_text>甲</short_text>\n</doc>\n"
                     "<doc id=2>\n<summary>二</summary>\n</doc>\n"
                     "<doc id=3>\n<summary>三</summary>\n<short_text>丙</short_text>\n</doc>\n",
                     encoding="utf-8")
    split = ["split", "--n-validation", "1", "--train-out", str(train), "--valid-out", str(valid)]
    assert main([*split, "--in", str(mixed)]) == 0
    assert capsys.readouterr().err == (f"{mixed}: skipped 1 malformed records\n"
                                       "split 2 pairs into 1 train / 1 validation (seed 0)\n")
    assert main(["vocab", "--unit", "char", "--in", str(mixed), "--out", str(tmp_path / "v.txt")]) == 0
    assert capsys.readouterr().err.startswith(f"{mixed}: skipped 1 malformed records\nwrote ")
    whole = tmp_path / "whole.jsonl"
    whole.write_bytes(train.read_bytes() + valid.read_bytes())
    assert main([*split, "--in", str(whole)]) == 0
    assert capsys.readouterr().err == "split 2 pairs into 1 train / 1 validation (seed 0)\n"


def test_bad_corpus_record_names_its_file(tiny_dataset):
    """A bad JSONL record raises a data-file error naming the file and line,
    whichever input of `clean` holds it, and in `filter`."""
    d = tiny_dataset
    for name, part in (("part1", "I"), ("part3", "III")):
        assert main(["parse", "--in", str(d / f"{name}.txt"), "--part", part,
                     "--out", str(d / f"{name}.jsonl")]) == 0
    bad = d / "bad.jsonl"
    bad.write_text('{"id": 0, "text": "t", "summary": "s", "label": 3}\n{"id": "x"}\n',
                   encoding="utf-8")
    message = f"^{re.escape(str(bad))}: line 2: missing field\\(s\\) text, summary$"
    for part1, part3 in ((d / "part1.jsonl", bad), (bad, d / "part3.jsonl")):
        with pytest.raises(ParseError, match=message):
            main(["clean", "--part1", str(part1), "--part3", str(part3), "--out", str(d / "c.jsonl")])
    with pytest.raises(ParseError, match=message):
        main(["filter", "--in", str(bad), "--out", str(d / "f.jsonl")])
    assert not (d / "c.jsonl").exists() and not (d / "f.jsonl").exists()


def test_strict_parse_error_names_its_file(tmp_path):
    """`parse --strict` names its input file before the line, as every command
    that reads a corpus does, and writes no output."""
    bad = tmp_path / "bad.txt"
    bad.write_text("<doc id=1>\n<summary>s</summary>\n<title>x</title>\n</doc>\n", encoding="utf-8")
    message = f"^{re.escape(str(bad))}: line 3: doc id=1: unrecognized line '<title>x</title>'$"
    with pytest.raises(ParseError, match=message):
        main(["parse", "--in", str(bad), "--part", "I", "--out", str(tmp_path / "p.jsonl"), "--strict"])
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_cli_malformed_seed_list_is_a_usage_error(tmp_path, capsys, command):
    argv = [command, "--config", "exp.json", "--out", str(tmp_path), "--seeds", "1,,2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--sizes", "10"] if command == "sweep" else []))
    assert exc.value.code == 2
    assert "argument --seeds: expected comma-separated integers, got '1,,2'" in capsys.readouterr().err


def test_cli_sweep(tiny_dataset, tmp_path, capsys):
    d = tiny_dataset
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "name": "sw",
        "part1": str(d / "part1.txt"),
        "part3": str(d / "part3.txt"),
        "lexicon": str(d / "lexicon.tsv"),
        "n_validation": 3,
        "epochs": 1,
        "batch_size": 8,
        "beam_width": 2,
        "model": {"embed_dim": 8, "hidden_dim": 8, "dropout": 0.0, "max_decode_len": 6},
    }))
    assert main(["sweep", "--config", str(cfg_path), "--sizes", "5,3", "--seeds", "0",
                 "--out", str(tmp_path / "runs")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "size 5 char_char", "size 5 word_char", "size 3 char_char", "size 3 word_char"]
    table = json.loads((tmp_path / "runs" / "sw-sweep.json").read_text(encoding="utf-8"))
    assert table["sizes"] == [5, 3]
    assert [row["requested_size"] for row in table["rows"]] == [5, 3]
    for row in table["rows"]:
        assert set(row["runs"]) == {"char_char", "word_char"}
        for cell in row["runs"].values():
            assert cell["encoder_vocab_used"] == row["requested_size"]
            assert cell["mean_scores"] is not None
    for size in (5, 3):
        report = json.loads((tmp_path / "runs" / f"sw-vocab{size}" / "report.json").read_text())
        assert report["config"]["encoder_vocab_size"] == size
        assert report["config"]["seeds"] == [0]
    assert not list(d.rglob("*.tmp"))


def test_cli_sweep_reports_failed_cells_on_stderr(tiny_dataset, tmp_path, capsys, monkeypatch):
    """A cell whose seeds all failed is one line on stderr, as `experiment`
    reports a failed representation; stdout carries score lines only."""
    d = tiny_dataset
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "name": "sw", "part1": str(d / "part1.txt"), "part3": str(d / "part3.txt"),
        "lexicon": str(d / "lexicon.tsv"), "n_validation": 3, "epochs": 1,
        "model": {"embed_dim": 8, "hidden_dim": 8},
    }))

    def fail(*args, **kwargs):
        raise RuntimeError("training failed")

    monkeypatch.setattr(harness, "train", fail)
    assert main(["sweep", "--config", str(cfg_path), "--sizes", "5,3", "--seeds", "0",
                 "--out", str(tmp_path / "runs")]) == 1
    captured = capsys.readouterr()
    assert "failed" not in captured.out
    assert [line for line in captured.err.splitlines() if "failed" in line] == [
        "size 5 char_char: failed", "size 5 word_char: failed",
        "size 3 char_char: failed", "size 3 word_char: failed"]


def test_cli_experiment_reports_failed_representations_on_stderr(tiny_dataset, tmp_path, capsys,
                                                                 monkeypatch):
    """A representation whose seeds all failed is one line on stderr and the
    exit status is 1; an existing empty run directory is written into, not refused."""
    d = tiny_dataset
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "name": "ex", "part1": str(d / "part1.txt"), "part3": str(d / "part3.txt"),
        "lexicon": str(d / "lexicon.tsv"), "n_validation": 3, "epochs": 1,
        "model": {"embed_dim": 8, "hidden_dim": 8},
    }))
    (tmp_path / "runs" / "ex").mkdir(parents=True)

    def fail(*args, **kwargs):
        raise RuntimeError("training failed")

    monkeypatch.setattr(harness, "train", fail)
    assert main(["experiment", "--config", str(cfg_path), "--seeds", "0",
                 "--out", str(tmp_path / "runs")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["char_char: all seeds failed",
                                         "word_char: all seeds failed"]
    assert (tmp_path / "runs" / "ex" / "report.json").exists()


@pytest.fixture
def word_char_model(tiny_dataset):
    """A small word_char model trained through the CLI, plus its inputs."""
    d = tiny_dataset
    assert main(["parse", "--in", str(d / "part1.txt"), "--part", "I",
                 "--out", str(d / "train.jsonl")]) == 0
    assert main(["vocab", "--unit", "word", "--lexicon", str(d / "lexicon.tsv"),
                 "--in", str(d / "train.jsonl"), "--out", str(d / "src_vocab.txt")]) == 0
    assert main(["vocab", "--unit", "char", "--in", str(d / "train.jsonl"),
                 "--out", str(d / "tgt_vocab.txt")]) == 0
    (d / "train_cfg.json").write_text(json.dumps({
        "model": {"embed_dim": 6, "hidden_dim": 6, "dropout": 0.0, "max_decode_len": 4},
        "epochs": 1, "batch_size": 8, "representation": "word_char",
    }))
    assert main(["train", "--config", str(d / "train_cfg.json"), "--train", str(d / "train.jsonl"),
                 "--src-vocab", str(d / "src_vocab.txt"), "--tgt-vocab", str(d / "tgt_vocab.txt"),
                 "--lexicon", str(d / "lexicon.tsv"), "--out", str(d / "model")]) == 0
    return d


def _summarize(d, *extra, model=None):
    return main(["summarize", "--model", str(model or d / "model"), "--in", str(d / "train.jsonl"),
                 "--beam", "2", "--max-len", "4", "--out", str(d / "candidates.jsonl"), *extra])


def _vocab_hashes(model_dir):
    return {f"{name}_sha256": hashlib.sha256((model_dir / f"{name}.txt").read_bytes()).hexdigest()
            for name in ("src_vocab", "tgt_vocab")}


def _harness_model(d):
    """A small word_char model of the experiment harness: its seed directory."""
    cfg = ExperimentConfig(
        name="x", part1=str(d / "part1.txt"), part3=str(d / "part3.txt"),
        lexicon=str(d / "lexicon.tsv"), representations=["word_char"], seeds=[0], n_validation=3,
        epochs=1, batch_size=8, beam_width=2,
        model={"embed_dim": 6, "hidden_dim": 6, "dropout": 0.0, "max_decode_len": 4})
    _, all_ok = run_experiment(cfg, d / "runs")
    assert all_ok
    return d / "runs" / "x" / "word_char" / "seed0"


def test_train_records_lexicon_hash(word_char_model):
    d = word_char_model
    meta = json.loads((d / "model" / "meta.json").read_text())
    assert meta["lexicon_sha256"] == hashlib.sha256((d / "lexicon.tsv").read_bytes()).hexdigest()


def test_summarize_accepts_same_lexicon_at_another_path(word_char_model):
    d = word_char_model
    (d / "lexicon.tsv").rename(d / "moved.tsv")
    assert _summarize(d, "--lexicon", str(d / "moved.tsv")) == 0
    assert len((d / "candidates.jsonl").read_text().splitlines()) == 22


@pytest.mark.parametrize("writer", ["train", "harness"])
def test_summarize_refuses_a_different_lexicon(word_char_model, writer):
    d = word_char_model
    model = d / "model" if writer == "train" else _harness_model(d)
    trained = hashlib.sha256((d / "lexicon.tsv").read_bytes()).hexdigest()
    (d / "other.tsv").write_text("城市\t99\n交通\t1\n", encoding="utf-8")
    other = hashlib.sha256((d / "other.tsv").read_bytes()).hexdigest()
    with pytest.raises(ValueError) as err:
        _summarize(d, "--lexicon", str(d / "other.tsv"), model=model)
    assert trained in str(err.value) and other in str(err.value)
    # the lexicon named in meta.json is checked as well
    (d / "other.tsv").replace(d / "lexicon.tsv")
    with pytest.raises(ValueError, match=trained):
        _summarize(d, model=model)
    assert not (d / "candidates.jsonl").exists()


@pytest.mark.parametrize("writer", ["train", "harness"])
def test_summarize_refuses_a_vocabulary_of_another_size(word_char_model, writer):
    d = word_char_model
    model = d / "model" if writer == "train" else _harness_model(d)
    config = load_model_dir(model)[0].config
    src, tgt = model / "src_vocab.txt", model / "tgt_vocab.txt"
    trained = src.read_text(encoding="utf-8")
    # a source vocabulary cut short, then a target vocabulary with one more entry
    src.write_text("".join(trained.splitlines(keepends=True)[:5]), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        _summarize(d, model=model)
    assert str(err.value) == (f"{src} has 5 entries, but the checkpoint was trained with a "
                              f"vocabulary of {config.src_vocab_size}")
    src.write_text(trained, encoding="utf-8")
    with open(tgt, "a", encoding="utf-8") as f:
        f.write("新\t1\n")
    with pytest.raises(ValueError) as err:
        _summarize(d, model=model)
    assert str(err.value) == (f"{tgt} has {config.tgt_vocab_size + 1} entries, but the checkpoint "
                              f"was trained with a vocabulary of {config.tgt_vocab_size}")
    assert not (d / "candidates.jsonl").exists()


@pytest.mark.parametrize("writer", ["train", "harness"])
def test_summarize_refuses_a_vocabulary_of_other_content(word_char_model, writer):
    d = word_char_model
    model = d / "model" if writer == "train" else _harness_model(d)
    meta = json.loads((model / "meta.json").read_text())
    assert {k: meta[k] for k in ("src_vocab_sha256", "tgt_vocab_sha256")} == _vocab_hashes(model)
    for name in ("src_vocab", "tgt_vocab"):
        path = model / f"{name}.txt"
        trained = path.read_text(encoding="utf-8")
        lines = trained.splitlines(keepends=True)  # the 4 specials, then the content entries
        path.write_text("".join(lines[:4] + lines[:3:-1]), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            _summarize(d, model=model)
        assert str(err.value) == (f"{path} has sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}"
                                  f", but the model was trained with a vocabulary of sha256 "
                                  f"{meta[f'{name}_sha256']}")
        path.write_text(trained, encoding="utf-8")
    assert not (d / "candidates.jsonl").exists()


@pytest.mark.parametrize("hashes", [("src_vocab_sha256", "tgt_vocab_sha256"), ("lexicon_sha256",)],
                         ids=["vocabulary", "lexicon"])
def test_summarize_loads_meta_without_hashes(word_char_model, hashes):
    d = word_char_model
    meta_path = d / "model" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({k: v for k, v in meta.items() if k not in hashes}))
    assert _summarize(d) == 0
    assert len((d / "candidates.jsonl").read_text().splitlines()) == 22


def test_train_word_char_without_lexicon_is_refused(word_char_model, capsys, monkeypatch):
    """So is `vocab --unit word`: both refuse before reading any input."""
    d = word_char_model
    opened = _record_corpus_reads(monkeypatch)
    capsys.readouterr()
    _assert_usage_error(capsys, [
        "train", "--config", str(d / "train_cfg.json"), "--train", str(d / "train.jsonl"),
        "--src-vocab", str(d / "src_vocab.txt"), "--tgt-vocab", str(d / "tgt_vocab.txt"),
        "--out", str(d / "model2")], "the word_char representation needs --lexicon")
    assert not (d / "model2").exists()
    _assert_usage_error(capsys, ["vocab", "--unit", "word", "--in", str(d / "train.jsonl"),
                                 "--out", str(d / "word_vocab.txt")],
                        "the word_char representation needs --lexicon")
    assert opened == [] and not (d / "word_vocab.txt").exists()


def test_train_refuses_an_unknown_representation(word_char_model):
    # one in the config: test_train_config_value_is_refused_before_any_input_is_read
    d = word_char_model
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(d / "train_cfg.json"), "--train", str(d / "train.jsonl"),
              "--src-vocab", str(d / "src_vocab.txt"), "--tgt-vocab", str(d / "tgt_vocab.txt"),
              "--lexicon", str(d / "lexicon.tsv"), "--out", str(d / "model2"),
              "--representation", "word-char"])
    assert exc.value.code == 2 and not (d / "model2").exists()


NO_PAIRS_TRAIN = ["train", "--config", "{d}/train_cfg.json", "--src-vocab", "{d}/src_vocab.txt",
                  "--tgt-vocab", "{d}/tgt_vocab.txt", "--lexicon", "{d}/lexicon.tsv",
                  "--out", "{d}/model2"]


@pytest.mark.parametrize("argv, use", [
    ([*NO_PAIRS_TRAIN, "--train", "{d}/empty.jsonl", "--valid", "{d}/train.jsonl"], "train on"),
    ([*NO_PAIRS_TRAIN, "--train", "{d}/train.jsonl", "--valid", "{d}/empty.jsonl"], "validate on"),
    (["vocab", "--unit", "char", "--in", "{d}/empty.jsonl", "--out", "{d}/vocab.txt"],
     "build a vocabulary from"),
    (["summarize", "--model", "{d}/model", "--in", "{d}/empty.jsonl",
      "--out", "{d}/candidates.jsonl"], "summarize"),
], ids=["train", "valid", "vocab", "summarize"])
def test_a_file_with_no_pairs_is_refused_naming_it(word_char_model, monkeypatch, argv, use):
    """train (its --train or --valid), vocab and summarize refuse a file with
    no pairs, naming it, before any text is tokenized and before anything is
    written: an empty --valid does not train without validation."""
    d = word_char_model
    (d / "empty.jsonl").write_text("\n", encoding="utf-8")
    monkeypatch.setattr(Representation, "source_rows", lambda *args: pytest.fail("tokenized"))
    monkeypatch.setattr(cli, "summary_rows", lambda *args: pytest.fail("tokenized"))
    before = _tree(d)
    with pytest.raises(ValueError) as err:
        main([a.format(d=d) for a in argv])
    assert str(err.value) == f"{d / 'empty.jsonl'}: no pairs to {use}"
    assert _tree(d) == before


@pytest.mark.parametrize("command", ["filter", "experiment"])
def test_a_part3_without_labels_is_refused_naming_it(tiny_dataset, command):
    """JSONL records need no label when read, so a Part III written as JSONL
    without labels is refused where the test set is filtered by score."""
    d = tiny_dataset
    p1 = d / "p1.jsonl"
    assert main(["parse", "--in", str(d / "part1.txt"), "--part", "I", "--out", str(p1)]) == 0
    (d / "exp.json").write_text(json.dumps({"name": "x", "part1": str(d / "part1.txt"),
                                            "part3": str(p1), "lexicon": str(d / "lexicon.tsv")}))
    argv = {"filter": ["filter", "--in", str(p1), "--out", str(d / "test.jsonl")],
            "experiment": ["experiment", "--config", str(d / "exp.json"), "--out", str(d / "runs")]}
    with pytest.raises(ValueError) as err:
        main(argv[command])
    assert str(err.value) == f"{p1}: pair id=0 has no human_label; cannot filter by score"
    assert not (d / "test.jsonl").exists() and not (d / "runs").exists()


def test_split_larger_than_the_corpus_names_the_file(tiny_dataset):
    d = tiny_dataset
    with pytest.raises(ValueError) as err:
        main(["split", "--in", str(d / "part1.txt"), "--n-validation", "500",
              "--train-out", str(d / "train.jsonl"), "--valid-out", str(d / "valid.jsonl")])
    assert str(err.value) == (f"{d / 'part1.txt'}: n_validation=500 must be smaller than the "
                              f"corpus size 22")
    assert not (d / "train.jsonl").exists()


def test_char_char_model_needs_no_lexicon_file(tiny_dataset):
    """A char_char model records the lexicon path it was given but never
    reads the file: summarizing works after the file is gone."""
    d = tiny_dataset
    assert main(["parse", "--in", str(d / "part1.txt"), "--part", "I",
                 "--out", str(d / "train.jsonl")]) == 0
    assert main(["vocab", "--unit", "char", "--field", "text", "--in", str(d / "train.jsonl"),
                 "--out", str(d / "src_vocab.txt")]) == 0
    assert main(["vocab", "--unit", "char", "--in", str(d / "train.jsonl"),
                 "--out", str(d / "tgt_vocab.txt")]) == 0
    (d / "train_cfg.json").write_text(json.dumps({
        "model": {"embed_dim": 6, "hidden_dim": 6, "dropout": 0.0, "max_decode_len": 4},
        "epochs": 1, "batch_size": 8, "representation": "char_char",
        "lexicon": str(d / "lexicon.tsv"),
    }))
    assert main(["train", "--config", str(d / "train_cfg.json"), "--train", str(d / "train.jsonl"),
                 "--src-vocab", str(d / "src_vocab.txt"), "--tgt-vocab", str(d / "tgt_vocab.txt"),
                 "--out", str(d / "model")]) == 0
    meta = json.loads((d / "model" / "meta.json").read_text())
    assert meta == {"representation": "char_char", "lexicon": os.path.join("..", "lexicon.tsv"),
                    "lexicon_sha256": None, **_vocab_hashes(d / "model")}
    (d / "lexicon.tsv").unlink()
    assert _summarize(d) == 0
    assert len((d / "candidates.jsonl").read_text().splitlines()) == 22


@pytest.mark.parametrize("case", ["lexicon-null", "lexicon-missing"])
def test_summarize_names_meta_json_when_its_lexicon_is_unusable(word_char_model, case):
    """A word_char meta.json that records no lexicon, or one that is not
    where it records it, is refused naming meta.json, with no --lexicon."""
    d = word_char_model
    meta_path = d / "model" / "meta.json"
    if case == "lexicon-null":
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps(dict(meta, lexicon=None)))
        with pytest.raises(ValueError) as err:
            _summarize(d)
        message = "the word_char representation needs --lexicon, as it records none"
    else:
        (d / "lexicon.tsv").rename(d / "moved.tsv")
        with pytest.raises(FileNotFoundError) as err:
            _summarize(d)
        message = (f"the lexicon it records is not at {d / 'model' / '..' / 'lexicon.tsv'}; "
                   "pass --lexicon")
    assert str(err.value) == f"{meta_path}: {message}"
    assert not (d / "candidates.jsonl").exists()


@pytest.mark.parametrize("text, message", [
    ("{'representation': 'char_char'}",
     "invalid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    ("[]", "expected a JSON object with a representation, got []"),
    ('{"lexicon": null}', "expected a JSON object with a representation, got {'lexicon': None}"),
    (f'{{"representation": {"9" * 5000}}}', TOO_LONG),
    ('{\n"representation": "\udcff"}', "line 2: invalid UTF-8 (invalid start byte)"),
    ("[" * 100_000, NESTED),
], ids=["invalid-json", "not-an-object", "no-representation", "integer-too-long", "not-utf8",
        "nested-too-deep"])
def test_summarize_refuses_a_broken_meta_json_naming_it(tmp_path, text, message):
    # surrogateescape writes each lone surrogate \udcXX as the byte 0xXX, which is not UTF-8
    (tmp_path / "meta.json").write_text(text, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValueError) as err:
        main(["summarize", "--model", str(tmp_path), "--in", str(tmp_path / "test.jsonl"),
              "--out", str(tmp_path / "candidates.jsonl")])
    assert str(err.value) == f"{tmp_path / 'meta.json'}: {message}"
    assert not (tmp_path / "candidates.jsonl").exists()


@pytest.mark.parametrize("field, message", [
    ({"representation": 5}, "unknown representation 5; expected one of ('char_char', 'word_char')"),
    ({"representation": ["word_char"]},
     "unknown representation ['word_char']; expected one of ('char_char', 'word_char')"),
    ({"representation": "word-char"},
     "unknown representation 'word-char'; expected one of ('char_char', 'word_char')"),
    ({"lexicon": 3}, "lexicon must be a string or null, got 3"),
    ({"src_vocab_sha256": 7}, "src_vocab_sha256 must be a string or null, got 7"),
    ({"lexicon_sha256": 5}, "lexicon_sha256 must be a string or null, got 5"),
], ids=["representation-int", "representation-list", "representation-unknown", "lexicon",
        "vocab-hash", "lexicon-hash"])
def test_summarize_refuses_a_meta_json_field_of_the_wrong_type(word_char_model, field, message):
    """Checked before anything the field names is read; a char_char directory
    reads no lexicon, yet a lexicon hash of the wrong type is still refused."""
    meta_path = word_char_model / "model" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "representation": "char_char", **field}))
    with pytest.raises(ValueError) as err:
        _summarize(word_char_model)
    assert str(err.value) == f"{meta_path}: {message}"
    assert not (word_char_model / "candidates.jsonl").exists()


def test_summarize_failing_mid_write_leaves_no_file(word_char_model, monkeypatch):
    d = word_char_model
    calls = []

    def fail_on_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("mid-summarize failure")
        return original(*args, **kwargs)

    original = harness.beam_search_batch
    monkeypatch.setattr(harness, "beam_search_batch", fail_on_third)
    # two articles a call, so the failure lands after four rows were written
    monkeypatch.setattr(harness, "DECODE_CHUNK", 2)
    with pytest.raises(RuntimeError, match="mid-summarize failure"):
        _summarize(d)
    assert len(calls) == 3
    assert not (d / "candidates.jsonl").exists()
    assert not list(d.rglob("*.tmp"))


def test_summarize_refuses_a_negative_max_len(word_char_model, capsys, monkeypatch):
    d = word_char_model
    opened = _record_corpus_reads(monkeypatch)
    monkeypatch.setattr(cli, "load_model_dir", lambda *args: pytest.fail("model loaded"))
    capsys.readouterr()
    _assert_usage_error(capsys, [
        "summarize", "--model", str(d / "model"), "--in", str(d / "train.jsonl"),
        "--max-len", "-1", "--out", str(d / "candidates.jsonl")],
        "argument --max-len: max_decode_len must be >= 0, got -1")
    assert opened == [] and not (d / "candidates.jsonl").exists()
    assert not list(d.rglob("*.tmp"))


def test_summarize_in_chunks_equals_per_article_decoding(word_char_model, synthetic_dir):
    """200 articles, several chunks of DECODE_CHUNK: each candidate is the
    article's own beam search."""
    d = word_char_model
    assert main(["parse", "--in", str(synthetic_dir / "part1.txt"), "--part", "I",
                 "--out", str(d / "many.jsonl")]) == 0
    assert main(["summarize", "--model", str(d / "model"), "--in", str(d / "many.jsonl"),
                 "--beam", "3", "--max-len", "6", "--out", str(d / "candidates.jsonl")]) == 0
    rows = [json.loads(line) for line in (d / "candidates.jsonl").read_text().splitlines()]
    articles = load_corpus_file(d / "many.jsonl")[0]
    assert len(articles) == 200 > 2 * harness.DECODE_CHUNK
    params, rep, src_vocab, tgt_vocab = load_model_dir(d / "model")
    assert rep.name == "word_char"
    assert Path(rep.lexicon_path).resolve() == (d / "lexicon.tsv").resolve()
    assert [r["id"] for r in rows] == [a.id for a in articles]
    for row, article in zip(rows, articles):
        ids = beam_search(src_vocab.encode(rep.tokens(article.short_text)), params, 3, 6)
        assert row["candidate"] == "".join(tgt_vocab.decode(ids))


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_and_harness_vocabularies_are_identical(tmp_path, synthetic_dir, seed):
    """`hwcsum vocab` on seed k's own train part, as `hwcsum split` gives
    it, writes seed k's vocabulary files byte for byte, for both
    representations: the CLI and the harness tokenize and rank through one
    path."""
    lexicon = str(synthetic_dir / "lexicon.tsv")
    assert main(["parse", "--in", str(synthetic_dir / "part1.txt"), "--part", "I",
                 "--out", str(tmp_path / "part1.jsonl")]) == 0
    assert main(["split", "--in", str(tmp_path / "part1.jsonl"), "--n-validation", "20",
                 "--seed", str(seed), "--train-out", str(tmp_path / "train.jsonl"),
                 "--valid-out", str(tmp_path / "valid.jsonl")]) == 0
    vocabs = {("word_char", "src_vocab.txt"): ["--unit", "word", "--lexicon", lexicon],
              ("char_char", "src_vocab.txt"): ["--unit", "char", "--field", "text"],
              ("tgt", "tgt_vocab.txt"): ["--unit", "char"]}
    for (rep, name), argv in vocabs.items():
        assert main(["vocab", *argv, "--in", str(tmp_path / "train.jsonl"),
                     "--out", str(tmp_path / f"{rep}_{name}")]) == 0
    cfg = ExperimentConfig(
        name="x", part1=str(synthetic_dir / "part1.txt"), part3=str(synthetic_dir / "part3.txt"),
        lexicon=lexicon, representations=["char_char", "word_char"], seeds=[seed],
        n_validation=20, epochs=1, beam_width=1,
        model={"embed_dim": 4, "hidden_dim": 4, "dropout": 0.0, "max_decode_len": 2})
    _, all_ok = run_experiment(cfg, tmp_path / "runs")
    assert all_ok
    for rep in cfg.representations:
        seed_dir = tmp_path / "runs" / "x" / rep / f"seed{seed}"
        for cli_rep, name in ((rep, "src_vocab.txt"), ("tgt", "tgt_vocab.txt")):
            assert (tmp_path / f"{cli_rep}_{name}").read_bytes() == (seed_dir / name).read_bytes()


def _reference_train(d, cfg, out, valid):
    """What `hwcsum train` on d's walk did with one EncodedPair per record,
    encoded by the vocabularies themselves: model.train on those lists, saved
    through save_model_dir."""
    rep = Representation(cfg["representation"], cfg["lexicon"])
    src_vocab = Vocabulary.load(d / "src_vocab.txt")
    tgt_vocab = Vocabulary.load(d / "tgt_vocab.txt")

    def encode_corpus(path):
        return [EncodedPair(src_vocab.encode(rep.tokens(p.short_text)),
                            [BOS, *tgt_vocab.encode(char_tokenize(p.summary)), EOS])
                for p in load_corpus_file(path)[0]]

    model_cfg = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), seed=0,
                            **cfg["model"])
    params, history = train(encode_corpus(d / "train.jsonl"), model_cfg, epochs=cfg["epochs"],
                            batch_size=cfg["batch_size"], learning_rate=cfg["learning_rate"],
                            valid_pairs=encode_corpus(d / "valid.jsonl") if valid else None)
    save_model_dir(out, params, rep, src_vocab, tgt_vocab, history)


@pytest.mark.parametrize("representation, valid", [
    ("word_char", True), ("word_char", False), ("char_char", True)])
def test_train_equals_training_on_encoded_pair_lists(tmp_path, synthetic_dir, representation,
                                                     valid):
    """`hwcsum train` on the fixture walk, which reads its corpora as token
    rows, writes the model directory that training on per-record EncodedPair
    lists writes: the same bytes, and the same log once seconds are masked."""
    d, syn = tmp_path, synthetic_dir
    for name, part in (("part1", "I"), ("part3", "III")):
        assert main(["parse", "--in", str(syn / f"{name}.txt"), "--part", part,
                     "--out", str(d / f"{name}.jsonl")]) == 0
    assert main(["clean", "--part1", str(d / "part1.jsonl"), "--part3", str(d / "part3.jsonl"),
                 "--out", str(d / "clean.jsonl")]) == 0
    assert main(["split", "--in", str(d / "clean.jsonl"), "--n-validation", "20",
                 "--train-out", str(d / "train.jsonl"), "--valid-out", str(d / "valid.jsonl")]) == 0
    unit = representation.split("_")[0]
    assert main(["vocab", "--unit", unit, "--field", "text", "--lexicon", str(syn / "lexicon.tsv"),
                 "--in", str(d / "train.jsonl"), "--out", str(d / "src_vocab.txt")]) == 0
    assert main(["vocab", "--unit", "char", "--in", str(d / "train.jsonl"),
                 "--out", str(d / "tgt_vocab.txt")]) == 0
    cfg = {"model": {"embed_dim": 16, "hidden_dim": 16, "dropout": 0.1, "max_decode_len": 12},
           "epochs": 2, "batch_size": 16, "learning_rate": 0.15, "representation": representation,
           "lexicon": str(syn / "lexicon.tsv")}
    (d / "train_cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(d / "train_cfg.json"), "--train", str(d / "train.jsonl"),
                 *(["--valid", str(d / "valid.jsonl")] if valid else []),
                 "--src-vocab", str(d / "src_vocab.txt"), "--tgt-vocab", str(d / "tgt_vocab.txt"),
                 "--out", str(d / "model")]) == 0
    _reference_train(d, cfg, d / "reference", valid)

    for name in ("model.npz", "src_vocab.txt", "tgt_vocab.txt", "meta.json"):
        assert (d / "model" / name).read_bytes() == (d / "reference" / name).read_bytes(), name
    logs = [[{k: v for k, v in json.loads(line).items() if k != "seconds"}
             for line in (d / out / "train_log.jsonl").read_text().splitlines()]
            for out in ("model", "reference")]
    assert logs[0] == logs[1] and len(logs[0]) == 2 and ("valid_loss" in logs[0][0]) == valid


def test_summarize_reproduces_a_harness_seed(tmp_path, synthetic_dir):
    """`summarize` on an experiment's seed directory, on the score-filtered
    test set with the config's beam width, writes that seed's
    candidates.jsonl byte for byte."""
    cfg = ExperimentConfig(
        name="x", part1=str(synthetic_dir / "part1.txt"), part3=str(synthetic_dir / "part3.txt"),
        lexicon=str(synthetic_dir / "lexicon.tsv"), representations=["char_char", "word_char"],
        seeds=[0], n_validation=20, epochs=1, beam_width=3,
        model={"embed_dim": 8, "hidden_dim": 8, "dropout": 0.0, "max_decode_len": 8})
    _, all_ok = run_experiment(cfg, tmp_path / "runs")
    assert all_ok
    assert main(["parse", "--in", cfg.part3, "--part", "III", "--out", str(tmp_path / "p3.jsonl")]) == 0
    assert main(["filter", "--in", str(tmp_path / "p3.jsonl"), "--min-score", str(cfg.min_score),
                 "--out", str(tmp_path / "test.jsonl")]) == 0
    for name in cfg.representations:
        seed_dir = tmp_path / "runs" / "x" / name / "seed0"
        out = tmp_path / f"{name}.jsonl"
        assert main(["summarize", "--model", str(seed_dir), "--in", str(tmp_path / "test.jsonl"),
                     "--beam", str(cfg.beam_width), "--out", str(out)]) == 0
        assert out.read_bytes() == (seed_dir / "candidates.jsonl").read_bytes()


def test_eval_reproduces_a_harness_seeds_scores(tmp_path, synthetic_dir, monkeypatch):
    """`eval` of a fixture experiment seed's candidates against the
    score-filtered test set gives that seed's scores.jsonl rows and, as its
    mean row, the seed's scores in report.json, for both representations."""
    monkeypatch.chdir(synthetic_dir.parents[2])
    assert main(["experiment", "--config", "tests/data/synthetic/experiment.json",
                 "--out", str(tmp_path / "runs")]) == 0
    run = tmp_path / "runs" / "synthetic-demo"
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert main(["parse", "--in", report["config"]["part3"], "--part", "III",
                 "--out", str(tmp_path / "p3.jsonl")]) == 0
    assert main(["filter", "--in", str(tmp_path / "p3.jsonl"),
                 "--min-score", str(report["config"]["min_score"]),
                 "--out", str(tmp_path / "test.jsonl")]) == 0
    for name in ("char_char", "word_char"):
        seed_dir = run / name / "seed0"
        out = tmp_path / f"{name}.jsonl"
        assert main(["eval", "--candidates", str(seed_dir / "candidates.jsonl"),
                     "--references", str(tmp_path / "test.jsonl"), "--report", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        seed_rows = [json.loads(line) for line in
                     (seed_dir / "scores.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [{k: v for k, v in r.items() if k != "index"} for r in rows[:-1]] == \
            [{k: v for k, v in r.items() if k != "id"} for r in seed_rows]
        assert rows[-1] == {"mean": report["runs"][name]["seeds"]["0"]["scores"]}


def test_train_writes_the_model_directory_of_a_harness_seed(tmp_path, synthetic_dir):
    """`hwcsum train` on an experiment seed's own split, with that seed's
    vocabulary files, the config's settings and its seed, writes the seed's
    model directory, for both representations: the same checkpoint and
    vocabulary bytes, and the same log once seconds are masked."""
    seed = 7
    cfg = ExperimentConfig(
        name="x", part1=str(synthetic_dir / "part1.txt"), part3=str(synthetic_dir / "part3.txt"),
        lexicon=str(synthetic_dir / "lexicon.tsv"), representations=["char_char", "word_char"],
        seeds=[seed], n_validation=20, epochs=2, batch_size=16, beam_width=1,
        model={"embed_dim": 8, "hidden_dim": 8, "dropout": 0.1, "max_decode_len": 2})
    _, all_ok = run_experiment(cfg, tmp_path / "runs")
    assert all_ok
    parts = split_train_validation(load_corpus_file(cfg.part1)[0], cfg.n_validation, seed)
    for name, pairs in zip(("train", "valid"), parts):
        with open(tmp_path / f"{name}.jsonl", "w", encoding="utf-8") as f:
            write_jsonl(pairs, f)
    settings = {k: getattr(cfg, k) for k in ("model", "epochs", "batch_size", "learning_rate")}
    (tmp_path / "train_cfg.json").write_text(json.dumps(settings))
    for name in cfg.representations:
        seed_dir, out = tmp_path / "runs" / "x" / name / f"seed{seed}", tmp_path / name
        assert main(["train", "--config", str(tmp_path / "train_cfg.json"),
                     "--train", str(tmp_path / "train.jsonl"), "--valid", str(tmp_path / "valid.jsonl"),
                     "--src-vocab", str(seed_dir / "src_vocab.txt"),
                     "--tgt-vocab", str(seed_dir / "tgt_vocab.txt"), "--representation", name,
                     "--lexicon", cfg.lexicon, "--seed", str(seed), "--out", str(out)]) == 0
        for file in ("model.npz", "src_vocab.txt", "tgt_vocab.txt"):
            assert (out / file).read_bytes() == (seed_dir / file).read_bytes(), (name, file)
        log, seed_log = (mask_timings([json.loads(line) for line in
                                       (m / "train_log.jsonl").read_text().splitlines()])
                         for m in (out, seed_dir))
        assert log == seed_log and len(log) == 2 and "valid_loss" in log[0]


def test_train_takes_the_step_settings_a_config_omits_from_experiment_config(tmp_path,
                                                                            synthetic_dir):
    """ExperimentConfig holds the only defaults of epochs, batch_size and
    learning_rate: a config that omits them trains the model that one
    setting them to ExperimentConfig's values trains."""
    d, syn = tmp_path, synthetic_dir
    assert main(["vocab", "--unit", "char", "--field", "text", "--in", str(syn / "part1.txt"),
                 "--out", str(d / "src_vocab.txt")]) == 0
    assert main(["vocab", "--unit", "char", "--in", str(syn / "part1.txt"),
                 "--out", str(d / "tgt_vocab.txt")]) == 0
    base = {"model": {"embed_dim": 8, "hidden_dim": 8, "dropout": 0.1, "max_decode_len": 4},
            "representation": "char_char"}
    steps = {k: getattr(ExperimentConfig, k) for k in ("epochs", "batch_size", "learning_rate")}
    for name, cfg in (("omitted", base), ("explicit", dict(base, **steps))):
        (d / f"{name}.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(d / f"{name}.json"),
                     "--train", str(syn / "part1.txt"), "--src-vocab", str(d / "src_vocab.txt"),
                     "--tgt-vocab", str(d / "tgt_vocab.txt"), "--out", str(d / name)]) == 0
    assert (d / "omitted" / "model.npz").read_bytes() == (d / "explicit" / "model.npz").read_bytes()
    logs = [mask_timings([json.loads(line) for line in
                          (d / name / "train_log.jsonl").read_text().splitlines()])
            for name in ("omitted", "explicit")]
    assert logs[0] == logs[1] and len(logs[0]) == ExperimentConfig.epochs


def test_summarize_a_sweep_seed_from_another_directory(tmp_path, synthetic_dir, monkeypatch):
    """meta.json names the lexicon relative to the model directory, so a
    seed of a sweep run with a relative lexicon path decodes, with no
    --lexicon, from any working directory."""
    run_dir, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    (run_dir / "data").mkdir(parents=True)
    elsewhere.mkdir()
    for name in ("part1.txt", "part3.txt", "lexicon.tsv"):
        (run_dir / "data" / name).write_bytes((synthetic_dir / name).read_bytes())
    (run_dir / "exp.json").write_text(json.dumps({
        "name": "x", "part1": "data/part1.txt", "part3": "data/part3.txt",
        "lexicon": "data/lexicon.tsv", "representation": "word_char", "seeds": [0],
        "n_validation": 20, "epochs": 1, "beam_width": 3,
        "model": {"embed_dim": 8, "hidden_dim": 8, "dropout": 0.0, "max_decode_len": 8}}))
    monkeypatch.chdir(run_dir)
    assert main(["sweep", "--config", "exp.json", "--sizes", "20", "--out", "runs"]) == 0
    assert main(["parse", "--in", "data/part3.txt", "--part", "III", "--out", "p3.jsonl"]) == 0
    assert main(["filter", "--in", "p3.jsonl", "--min-score", "3", "--out", "test.jsonl"]) == 0
    seed_dir = run_dir / "runs" / "x-vocab20" / "word_char" / "seed0"
    meta = json.loads((seed_dir / "meta.json").read_text())
    assert meta["lexicon"] == os.path.join("..", "..", "..", "..", "data", "lexicon.tsv")
    monkeypatch.chdir(elsewhere)
    assert main(["summarize", "--model", str(seed_dir), "--in", str(run_dir / "test.jsonl"),
                 "--beam", "3", "--out", "candidates.jsonl"]) == 0
    assert (elsewhere / "candidates.jsonl").read_bytes() == (seed_dir / "candidates.jsonl").read_bytes()


@pytest.mark.parametrize("line, message", [
    ('{"candidate": 城市}', "invalid JSON (Expecting value: line 1 column 15 (char 14))"),
    ('["candidate"]', "expected a JSON object"),
    ('{"candidate": 5}', "candidate must be a string"),
    ('{"id": 3, "text": "城市"}', "none of ('candidate', 'summary') present"),
    (f'{{"id": {"9" * 5000}, "candidate": "城市"}}', TOO_LONG),
    ('{"candidate": "城\udcff"}', "invalid UTF-8 (invalid start byte)"),
    ("[" * 100_000, NESTED),
], ids=["invalid-json", "not-an-object", "not-a-string", "no-field", "id-too-long", "not-utf8",
        "nested-too-deep"])
def test_eval_bad_line_names_file_and_line(tmp_path, line, message):
    candidates, references = tmp_path / "candidates.jsonl", tmp_path / "references.jsonl"
    candidates.write_text('{"candidate": "城市交通"}\n\n' + line + "\n", encoding="utf-8",
                          errors="surrogateescape")  # "\udcff" is written as the byte 0xff
    references.write_text('{"summary": "城市"}\n{"summary": "交通"}\n', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        main(["eval", "--candidates", str(candidates), "--references", str(references)])
    assert str(err.value) == f"{candidates}: line 3: {message}"


def test_eval_refuses_rows_whose_ids_differ(tmp_path):
    candidates, references = tmp_path / "candidates.jsonl", tmp_path / "references.jsonl"
    candidates.write_text('{"id": 1, "candidate": "城市"}\n{"id": 2, "candidate": "交通"}\n',
                          encoding="utf-8")
    references.write_text('{"id": 2, "summary": "城市"}\n\n{"id": 1, "summary": "交通"}\n',
                          encoding="utf-8")
    with pytest.raises(ValueError) as err:
        main(["eval", "--candidates", str(candidates), "--references", str(references)])
    assert str(err.value) == f"{candidates}: line 1 has id 1, but {references}: line 1 has id 2"
    # rows without an id on either side are still paired by position
    references.write_text('{"summary": "城市"}\n{"id": 2, "summary": "交通"}\n', encoding="utf-8")
    assert main(["eval", "--candidates", str(candidates), "--references", str(references)]) == 0


def test_eval_of_files_with_no_rows_names_both(tmp_path):
    candidates, references = tmp_path / "candidates.jsonl", tmp_path / "references.jsonl"
    candidates.write_text("\n", encoding="utf-8")
    references.write_text("", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        main(["eval", "--candidates", str(candidates), "--references", str(references)])
    assert str(err.value) == f"candidates {candidates} and references {references}: no rows"


def test_eval_refuses_files_whose_row_counts_differ(tmp_path):
    candidates, references = tmp_path / "candidates.jsonl", tmp_path / "references.jsonl"
    candidates.write_text('{"candidate": "城市"}\n{"candidate": "交通"}\n', encoding="utf-8")
    references.write_text('{"summary": "城市"}\n\n', encoding="utf-8")
    for argv, message in (
            ([candidates, references],
             f"candidates {candidates} (2) and references {references} (1) differ in length"),
            ([references, candidates],
             f"candidates {references} (1) and references {candidates} (2) differ in length")):
        with pytest.raises(ValueError) as err:
            main(["eval", "--candidates", str(argv[0]), "--references", str(argv[1])])
        assert str(err.value) == message


# a valid argument list for each command
_SAMPLE_ARGS = {
    "parse": ["--in", "p.txt", "--part", "III", "--out", "p.jsonl", "--strict"],
    "filter": ["--in", "p.jsonl", "--min-score", "4", "--out", "f.jsonl"],
    "split": ["--in", "p.jsonl", "--seed", "3", "--train-out", "t.jsonl", "--valid-out", "v.jsonl"],
    "clean": ["--part1", "p1.jsonl", "--part3", "p3.jsonl", "--out", "c.jsonl", "--report", "r"],
    "vocab": ["--unit", "word", "--lexicon", "l.tsv", "--in", "t.jsonl", "--out", "v.txt",
              "--max-size", "9"],
    "train": ["--config", "c.json", "--train", "t.jsonl", "--src-vocab", "s.txt",
              "--tgt-vocab", "t.txt", "--representation", "char_char", "--out", "m"],
    "summarize": ["--model", "m", "--in", "t.jsonl", "--beam", "3", "--max-len", "7"],
    "eval": ["--candidates", "c.jsonl", "--references", "r.jsonl", "--unit", "word"],
    "experiment": ["--config", "e.json", "--out", "runs", "--seeds", "1,2"],
    "sweep": ["--config", "e.json", "--sizes", "5,3", "--out", "runs"],
}


def _help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_each_command_parser_equals_the_full_parsers(capsys, monkeypatch):
    """main builds only the invoked command's parser, and that parser
    formats the same help and parses the same namespace as the full
    parser's subparser for the command."""
    assert list(_SAMPLE_ARGS) == list(cli.COMMANDS)
    full = cli.build_parser()
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build_parser(command))
    for command, args in _SAMPLE_ARGS.items():
        built.clear()
        help_text = _help_text(capsys, main, [command, "--help"])
        assert built == [command]
        assert help_text == _help_text(capsys, full.parse_args, [command, "--help"])
        assert help_text == build_parser(command).format_help()
        assert cli._parse_args([command, *args])[1] == full.parse_args([command, *args])
    top = _help_text(capsys, main, ["--help"])
    assert "{" + ",".join(cli.COMMANDS) + "}" in top
    for command, (help_line, _) in cli.COMMANDS.items():
        assert f"    {command}" in top and help_line in top
