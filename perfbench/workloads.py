"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: the next call into the
program starts only after the previous one returned. The program is
driven only through public entry points (``model.train``,
``model.beam_search``, ``model.greedy_decode`` and ``cli.main``), so an
optimisation behind them shows up without editing the benchmark.

Each unit of work (a CLI walk, an experiment, a decode) is timed by
``ctx.reference`` (perfbench/reference.py), which gives its cost in
reference units as well as its wall time. A workload returns its
end-to-end metrics; output checks go to ``ctx.ops``, and values only the
traced run reports go to ``ctx.layer``.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import gen

clock = time.perf_counter

# paper shape (Luong et al. 2015 "general" attention at E = H = 500)
PAPER_VOCAB = 4000
PAPER_DIM = 500
PAPER_BEAM, PAPER_MAX_LEN = 5, 30
PAPER_SETUPS = 2  # each set-up is one train() call, which runs init_params
# pairs per train() call: at 1.2 s a pair, the two calls fill about two
# thirds of a 10 s run; beam decoding fills the rest
PAPER_PAIRS_PER_CALL = 3
# Training costs the same at any learning rate. A small one keeps the model
# near its uniform init, so no hypothesis favours </s> and every beam runs
# all max_len steps: decode work then does not depend on the seed.
PAPER_LEARNING_RATE = 1e-4

CLI_SETUPS = 7

# prep-lcsts corpus: Part I docs, Part III docs, planted duplicates/decoys.
# Small enough that a walk takes about 1.5 s, so a run takes the median of
# several walks.
LEXICON_ENTRIES = 300_000
PREP_PART1, PREP_PART3 = 48, 32
PREP_DUP, PREP_DECOY = 4, 2
PREP_BAD1, PREP_BAD3 = 2, 2
PREP_N_VALID = 6

EXPERIMENT_CONFIG = "tests/data/synthetic/experiment.json"
MIN_ITERATIONS = 2


@contextlib.contextmanager
def timed_attr(owner, attr, sink: list):
    """Replace owner.attr by a wrapper appending each call's seconds to sink."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - t0)

    setattr(owner, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def quiet():
    """Swallow what the CLI prints; the last stdout line is the result."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def task_ref(ctx, name: str, units) -> float:
    """Record the units' wall times and reference speed in ctx.info and
    return their median cost in reference units."""
    ctx.info[name] = {
        "wall_s": [u.wall_s for u in units],
        "ref_ms": [u.ref_s * 1000 for u in units],
        "refs": [u.refs for u in units],
    }
    return statistics.median(u.refs for u in units)


def cli_setup(ctx, lexicon, experiment_config=None):
    """CLI set-up, CLI_SETUPS times: a fresh import, the argument parser, the
    lexicon and the experiment config if given. Returns (modules, median s)."""
    times = []
    for _ in range(CLI_SETUPS):
        mods, import_s = ctx.fresh_import()
        t0 = clock()
        mods.cli.build_parser()
        mods.tokenizer.Lexicon.from_file(lexicon)
        if experiment_config:
            mods.harness.ExperimentConfig.from_file(experiment_config)
        times.append(import_s + clock() - t0)
    return mods, statistics.median(times)


# ---- paper-shape -----------------------------------------------------------


def paper_shape(ctx) -> dict:
    pool, held = gen.paper_pairs(ctx.seed, n_pairs=PAPER_SETUPS * PAPER_PAIRS_PER_CALL,
                                  n_held=256, vocab=PAPER_VOCAB)
    setups, train_s, n_trained, params = [], 0.0, 0, None
    for k in range(PAPER_SETUPS):
        params = None  # one model in memory at a time
        mods, import_s = ctx.fresh_import()
        n = PAPER_PAIRS_PER_CALL
        pairs = [mods.tokenizer.EncodedPair(s, t) for s, t in pool[n_trained:n_trained + n]]
        cfg = mods.model.ModelConfig(
            src_vocab_size=PAPER_VOCAB, tgt_vocab_size=PAPER_VOCAB, embed_dim=PAPER_DIM,
            hidden_dim=PAPER_DIM, dropout=0.3, max_decode_len=PAPER_MAX_LEN,
            seed=(ctx.seed + k) % 2**32)
        init_s: list[float] = []
        with timed_attr(mods.model, "init_params", init_s), ctx.session(k):
            t0 = clock()
            params, history = mods.model.train(pairs, cfg, epochs=1, batch_size=32,
                                                learning_rate=PAPER_LEARNING_RATE)
            wall = clock() - t0
        ctx.ops.check(len(init_s) == 1, f"train() ran init_params {len(init_s)} times")
        setups.append(import_s + sum(init_s))
        train_s += wall - sum(init_s)
        n_trained += n
        loss = history[-1]["train_loss"]
        ctx.layer["model.train_loss"] = loss
        # measured before the one Adagrad step, from uniform(-0.1, 0.1) init: near ln|V|
        ctx.ops.check(math.isfinite(loss) and abs(loss - math.log(PAPER_VOCAB)) < 1.0,
                      f"train_loss {loss} not finite or far from ln|V|")
    ctx.layer["numerics.pairs_trained"] = n_trained

    decodes, outputs = [], []
    with ctx.session(PAPER_SETUPS):
        for src in held:
            with ctx.reference.measure() as unit:
                ids = mods.model.beam_search(src, params, PAPER_BEAM, PAPER_MAX_LEN)
            decodes.append(unit)
            outputs.append(ids)
            if len(decodes) >= 3 and train_s + sum(u.wall_s for u in decodes) >= ctx.seconds:
                break
    for ids in outputs:
        ctx.ops.check(len(ids) <= PAPER_MAX_LEN and all(4 <= i < PAPER_VOCAB for i in ids),
                      f"decoded ids out of range, special, or too long: {ids}")
    greedy, _ = mods.model.greedy_decode(held[0], params, PAPER_MAX_LEN)
    beam1 = mods.model.beam_search(held[0], params, 1, PAPER_MAX_LEN)
    ctx.ops.check(greedy == beam1, "beam_search(width 1) differs from greedy_decode")
    ctx.info["decode_digest"] = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    ctx.info["train_pairs_per_s"] = n_trained / train_s
    ctx.layer["model.decode_mean_len"] = statistics.fmean(len(o) for o in outputs)
    return {
        "setup_s": statistics.median(setups),
        "task_ref": task_ref(ctx, "decode", decodes),
    }


# ---- prep-lcsts ------------------------------------------------------------


def prep_inputs(seed: int, work: Path, lexicon_entries: int = LEXICON_ENTRIES) -> dict:
    """Write the lexicon, Part I/III and lead candidates; return the ground truth."""
    words, counts = gen.lexicon(seed, lexicon_entries)
    with open(work / "lexicon.tsv", "w", encoding="utf-8") as f:
        f.writelines(f"{w}\t{c}\n" for w, c in zip(words, counts))
    truth = gen.lcsts_corpus(seed, words, n_part1=PREP_PART1, n_part3=PREP_PART3,
                             n_dup=PREP_DUP, n_decoy=PREP_DECOY, n_bad1=PREP_BAD1,
                             n_bad3=PREP_BAD3)
    (work / "part1.txt").write_text(truth["part1"], encoding="utf-8")
    (work / "part3.txt").write_text(truth["part3"], encoding="utf-8")
    with open(work / "lead.jsonl", "w", encoding="utf-8") as f:
        f.writelines(json.dumps(c, ensure_ascii=False) + "\n" for c in truth["lead"])
    return truth


def prep_stages(work: Path, split_seed: int) -> list[list[str]]:
    """The README walk through vocab, then eval of the lead baseline."""
    w = str(work)
    return [
        ["parse", "--in", f"{w}/part1.txt", "--part", "I", "--out", f"{w}/part1.jsonl",
         "--report", f"{w}/issues1.jsonl"],
        ["parse", "--in", f"{w}/part3.txt", "--part", "III", "--out", f"{w}/part3.jsonl",
         "--report", f"{w}/issues3.jsonl"],
        ["clean", "--part1", f"{w}/part1.jsonl", "--part3", f"{w}/part3.jsonl",
         "--max-suffix-delta", "15", "--out", f"{w}/clean.jsonl", "--report", f"{w}/removals.jsonl"],
        ["filter", "--in", f"{w}/part3.jsonl", "--min-score", "3", "--out", f"{w}/test.jsonl"],
        ["split", "--in", f"{w}/clean.jsonl", "--n-validation", str(PREP_N_VALID),
         "--seed", str(split_seed), "--train-out", f"{w}/train.jsonl",
         "--valid-out", f"{w}/valid.jsonl"],
        ["vocab", "--unit", "word", "--lexicon", f"{w}/lexicon.tsv", "--in", f"{w}/train.jsonl",
         "--out", f"{w}/src_vocab.txt"],
        ["vocab", "--unit", "char", "--in", f"{w}/train.jsonl", "--out", f"{w}/tgt_vocab.txt"],
        ["eval", "--candidates", f"{w}/lead.jsonl", "--references", f"{w}/test.jsonl",
         "--report", f"{w}/scores.jsonl"],
    ]


def _read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _read_vocab(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f]


def check_vocab(ops, rows, texts, what):
    """Specials first with count 0, counts descending, and every character
    of the texts accounted for: sum(count * len(token)) == total length."""
    ok = len(rows) > 4 and all(len(r) == 2 for r in rows)
    ok = ok and [r[0] for r in rows[:4]] == ["<pad>", "<unk>", "<s>", "</s>"]
    counts = [int(r[1]) for r in rows] if ok else []
    ok = ok and counts[:4] == [0, 0, 0, 0] and all(c > 0 for c in counts[4:])
    ok = ok and all(a >= b for a, b in zip(counts[4:], counts[5:]))
    ok = ok and sum(int(c) * len(t) for t, c in rows[4:]) == sum(len(t) for t in texts)
    ops.check(ok, f"{what} vocabulary malformed or not covering the text")


def check_prep(ops, work: Path, truth: dict):
    """Compare the walk's output files with the generator's ground truth."""
    ops.check(len(_read_jsonl(work / "issues1.jsonl")) == truth["issues_part1"],
              "Part I parse-issue count differs from the planted malformed blocks")
    ops.check(len(_read_jsonl(work / "issues3.jsonl")) == truth["issues_part3"],
              "Part III parse-issue count differs from the planted malformed blocks")
    removed = sorted(r["part1_id"] for r in _read_jsonl(work / "removals.jsonl"))
    ops.check(removed == truth["removed_ids"], f"removed {removed}, planted {truth['removed_ids']}")
    kept = {r["id"] for r in _read_jsonl(work / "clean.jsonl")}
    ops.check(set(truth["decoy_ids"]) <= kept, "a decoy (suffix over 15 chars) was removed")
    ops.check(len(kept) == truth["n_part1"] - len(truth["removed_ids"]), "clean output size")
    test = _read_jsonl(work / "test.jsonl")
    ops.check([r["id"] for r in test] == truth["test_ids"], "filtered test set differs")
    train, valid = _read_jsonl(work / "train.jsonl"), _read_jsonl(work / "valid.jsonl")
    ops.check(len(valid) == PREP_N_VALID and len(train) == len(kept) - PREP_N_VALID
              and {r["id"] for r in train} | {r["id"] for r in valid} == kept,
              "split sizes or membership wrong")
    check_vocab(ops, _read_vocab(work / "src_vocab.txt"), [r["text"] for r in train], "word")
    check_vocab(ops, _read_vocab(work / "tgt_vocab.txt"), [r["summary"] for r in train], "char")
    rows = _read_jsonl(work / "scores.jsonl")
    values = [v for row in rows for m, s in row.items() if m.startswith("rouge")
              for v in s.values()]
    mean = rows[-1].get("mean", {}) if rows else {}
    ops.check(len(rows) == len(test) + 1 and bool(mean)
              and all(0.0 <= v <= 1.0 for v in values), "ROUGE report malformed or out of [0, 1]")
    return mean


def prep_lcsts(ctx) -> dict:
    work = ctx.workdir
    truth = prep_inputs(ctx.seed, work)
    mods, setup_s = cli_setup(ctx, work / "lexicon.tsv")

    stages = prep_stages(work, ctx.seed)
    walks = []
    while len(walks) < MIN_ITERATIONS or sum(u.wall_s for u in walks) < ctx.seconds:
        codes = []
        with ctx.session(len(walks)), quiet(), ctx.reference.measure() as unit:
            for argv in stages:
                codes.append(mods.cli.main(argv))
        walks.append(unit)
        for argv, code in zip(stages, codes):
            ctx.ops.check(code == 0, f"cli {argv[0]} exited {code}")
        mean = check_prep(ctx.ops, work, truth)
    ctx.layer["rouge.lead_rouge_l_f1"] = mean.get("rouge_l", {}).get("f1", 0.0)
    return {"setup_s": setup_s, "task_ref": task_ref(ctx, "walk", walks)}


# ---- experiment-synthetic --------------------------------------------------


def mask_timings(obj):
    """A report with created_at and every timing field removed."""
    if isinstance(obj, dict):
        return {k: mask_timings(v) for k, v in obj.items()
                if k not in ("created_at", "timing") and "seconds" not in k}
    if isinstance(obj, list):
        return [mask_timings(v) for v in obj]
    return obj


def experiment_synthetic(ctx) -> dict:
    with open(EXPERIMENT_CONFIG, encoding="utf-8") as f:
        config = json.load(f)
    seeds = gen.experiment_seeds(ctx.seed)
    mods, setup_s = cli_setup(ctx, config["lexicon"], EXPERIMENT_CONFIG)

    runs, reports, pairs, valid_losses = [], [], 0, []
    while len(runs) < MIN_ITERATIONS or sum(u.wall_s for u in runs) < ctx.seconds:
        out = ctx.workdir / f"run{len(runs)}"
        argv = ["experiment", "--config", EXPERIMENT_CONFIG, "--out", str(out),
                "--seeds", ",".join(map(str, seeds))]
        with ctx.session(len(runs)), quiet(), ctx.reference.measure() as unit:
            code = mods.cli.main(argv)
        runs.append(unit)
        ctx.ops.check(code == 0, f"cli experiment exited {code}")
        run_dir = out / config["name"]
        with open(run_dir / "report.json", encoding="utf-8") as f:
            report = json.load(f)
        reports.append(mask_timings(report))
        for rep, run in report["runs"].items():
            for seed, rec in run["seeds"].items():
                ok = rec.get("status") == "ok"
                ctx.ops.check(ok, f"{rep} seed {seed}: {rec}")
                if not ok:
                    continue
                pairs += rec["n_train"] * config["epochs"]
                log = _read_jsonl(run_dir / rep / f"seed{seed}" / "train_log.jsonl")
                best = min(entry["valid_loss"] for entry in log)
                valid_losses.append(best)
                # learning happened: below the loss of a uniform output distribution
                ctx.ops.check(math.isfinite(best) and best < math.log(rec["tgt_vocab_size"] + 4),
                              f"{rep} seed {seed}: best valid_loss {best}")
    ctx.ops.check(all(r == reports[0] for r in reports),
                  "report.json differs between runs after masking created_at and timings")
    ctx.layer["harness.valid_loss"] = statistics.fmean(valid_losses)
    ctx.layer["numerics.pairs_trained"] = pairs
    ctx.info["train_pairs_per_s"] = pairs / sum(u.wall_s for u in runs)
    return {"setup_s": setup_s, "task_ref": task_ref(ctx, "experiment", runs)}


WORKLOADS = {
    "paper-shape": paper_shape,
    "prep-lcsts": prep_lcsts,
    "experiment-synthetic": experiment_synthetic,
}
