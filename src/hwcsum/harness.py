"""End-to-end experiment orchestration.

One experiment = for each representation (char/char baseline or hybrid
word/char) and each seed: split the training pool, build vocabularies
from the training split, train the attentional encoder-decoder,
beam-decode the score-filtered test set, and score with character
ROUGE, into a run directory ``<out>/<name>/`` that is absent or empty:
each ``<representation>/seed<k>/`` is a model directory plus candidates
and scores, and ``report.json`` is written last. A failed seed is recorded,
its traceback in ``seed<k>/error.txt``, and skipped in the means. A run reads,
dedups and tokenizes its inputs once, before any seed trains; a sweep
over encoder vocabulary sizes runs each size as one experiment on them.
The (representation, seed) cells of a run train in forked workers, each on
one OpenBLAS thread, or one after another where the platform cannot do that.
"""

import ctypes
import datetime
import functools
import gc
import hashlib
import io
import json
import math
import os
import re
import time
import traceback
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .corpus import (DocumentPair, ParseIssue, _json_int, atomic_write, filter_by_score,
                     json_loads, naming, parse_lcsts, read_jsonl, split_indices, write_rows)
from .dedup import clean_part1
from .model import ModelConfig, beam_search_batch, load_checkpoint, save_checkpoint, train
from .rouge import METRICS, RougeScores, evaluate_corpus, mean_scores, scores_dict
from .tokenizer import (REPRESENTATIONS, EncodedRows, Representation, TokenRows, Vocabulary,
                        load_representations, rank_vocab, summary_rows)

DECODE_CHUNK = 32  # articles per beam_search_batch call in write_decodes
# integer settings -> (lowest, highest or None) allowed; a vocabulary size may also be None
_INT_RANGES = {"epochs": (1, None), "batch_size": (1, None), "beam_width": (1, None),
               "n_validation": (0, None), "min_score": (1, 5), "max_suffix_delta": (0, None),
               "vocab_min_count": (1, None), "encoder_vocab_size": (1, None),
               "decoder_vocab_size": (1, None)}
_RUN_SET = ("src_vocab_size", "tgt_vocab_size", "seed")  # ModelConfig fields a run fills in
TRAIN_SETTINGS = ("epochs", "batch_size", "learning_rate")  # defaults: ExperimentConfig's


def check_settings(settings: dict):
    """Raise ValueError unless each run setting in settings has a type and a
    range a run accepts (seeds a list, the name, parts and lexicon strings,
    a lexicon also None, the name one directory name that keeps the run
    inside its output directory), so that a config is refused before any
    input is read or a path of the wrong type is opened. The model object
    may name only the ModelConfig settings a config sets, each of its type
    and with a value ModelConfig accepts."""
    for name in ("name", "part1", "part3", "lexicon"):
        value = settings.get(name, "")
        if not (isinstance(value, str) or (name == "lexicon" and value is None)):
            raise ValueError(f"{name} must be a string, got {value!r}")
    run_name = settings.get("name", "run")
    if (run_name in ("", ".", "..") or os.path.isabs(run_name)
            or any(c in run_name for c in ("/", os.sep, "\0"))):
        raise ValueError(f"name must be one directory name inside the output directory, "
                         f"got {run_name!r}")
    if not isinstance(settings.get("seeds", []), list):
        raise ValueError(f"seeds must be a list, got {settings['seeds']!r}")
    out_of_range = [s for s in settings.get("seeds", []) if not (_json_int(s) and 0 <= s < 2**32)]
    if out_of_range:
        raise ValueError(f"seeds must be in [0, 2**32), got {out_of_range}")
    for name, (low, high) in _INT_RANGES.items():
        value = settings.get(name, low)
        if value is None and name.endswith("vocab_size"):
            continue
        if not _json_int(value) or value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    if not isinstance(settings.get("dedup", False), bool):
        raise ValueError(f"dedup must be true or false, got {settings['dedup']!r}")
    rate = settings.get("learning_rate", 1.0)
    if not (_json_int(rate) or isinstance(rate, float)) or not 0 < rate < math.inf:
        raise ValueError(f"learning_rate must be a positive finite number, got {rate!r}")
    model = settings.get("model", {})
    if not isinstance(model, dict):
        raise ValueError(f"model must be a JSON object, got {model!r}")
    kinds = {f.name: f.type for f in fields(ModelConfig) if f.name not in _RUN_SET}
    unknown = set(model) - set(kinds)
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    for name, value in model.items():
        if not (_json_int(value) or (kinds[name] is float and isinstance(value, float))):
            kind = "a number" if kinds[name] is float else "an integer"
            raise ValueError(f"model {name} must be {kind}, got {value!r}")
    ModelConfig(src_vocab_size=5, tgt_vocab_size=5, **model)  # the smallest vocabularies a run builds


def read_config(path, keys, what: str, required=()) -> dict:
    """The JSON object in the config file at path, else a ParseError naming it; a
    ValueError refuses any other JSON value, a key outside keys and a missing required key."""
    with naming(path), open(path, encoding="utf-8") as f:
        raw = json_loads(f.read())
    if not isinstance(raw, dict):
        raise ValueError(f"{what} config must be a JSON object, got {raw!r}")
    unknown, missing = set(raw) - set(keys), set(required) - set(raw)
    if unknown:
        raise ValueError(f"unknown {what} config keys: {sorted(unknown)}")
    if missing:
        raise ValueError(f"missing {what} config keys: {sorted(missing)}")
    return raw


def _refuse_repeats(what: str, values: list):
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{what} must not repeat, got {repeated} more than once")


@dataclass
class ExperimentConfig:
    name: str
    part1: str
    part3: str
    representations: list[str]
    lexicon: str | None = None
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    n_validation: int = 1000
    min_score: int = 3
    dedup: bool = False
    max_suffix_delta: int = 15
    encoder_vocab_size: int | None = None
    decoder_vocab_size: int | None = None
    vocab_min_count: int = 1
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.15
    beam_width: int = 5
    model: dict = field(default_factory=dict)

    def __post_init__(self):
        check_settings(vars(self))
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not self.representations:
            raise ValueError("representations must be non-empty")
        for name in self.representations:
            Representation.check(name, self.lexicon, "a lexicon entry in the config")
        _refuse_repeats("representations", self.representations)
        _refuse_repeats("seeds", self.seeds)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """The config in a JSON file whose keys are the fields, with
        ``representation`` (one name or a list; default all) for ``representations``."""
        keys = {f.name for f in fields(cls)} - {"representations"} | {"representation"}
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING} & keys
        raw = read_config(path, keys, "experiment", required)
        rep = raw.pop("representation", list(REPRESENTATIONS))
        return cls(representations=rep if isinstance(rep, list) else [rep], **raw)


class _HashingReader(io.BufferedReader):
    """A buffered binary reader of a file that hashes each byte it hands out."""

    def __init__(self, path):
        super().__init__(open(path, "rb", buffering=0))
        self.sha256 = hashlib.sha256()

    def read1(self, size=-1):
        data = super().read1(size)
        self.sha256.update(data)
        return data


def load_corpus_file(path, part: str = "I") -> tuple[list[DocumentPair], list[ParseIssue], str]:
    """Read a dataset file: .jsonl is canonical records (no issues; a bad
    record raises a ParseError naming the file and line), anything else
    pseudo-XML, whose malformed blocks are skipped and returned as parse
    issues; part decides whether a label is required. Returns (pairs, parse
    issues, sha256 of the bytes parsed)."""
    path = Path(path)
    with naming(path), io.TextIOWrapper(_HashingReader(path), encoding="utf-8") as f:
        parsed = (read_jsonl(f), []) if path.suffix == ".jsonl" else parse_lcsts(f, part)
        return (*parsed, f.buffer.sha256.hexdigest())


def _tokenize(reps: list[Representation], pool: list[DocumentPair], test: list[DocumentPair]):
    """[(rep, (pool source rows, pool summary rows, test pairs, test source rows))], each
    text tokenized once: the summary rows shared by every rep."""
    pool_tgt = summary_rows(pool)
    return [(rep, (rep.source_rows(pool), pool_tgt, test, rep.source_rows(test))) for rep in reps]


def check_outputs(files=(), dirs=()):
    """Raise ValueError naming the path unless each run or model directory is absent or
    empty, the nearest existing path above it a directory, and each output file (None: not
    written) is no directory, in an existing directory or in the parent of one of dirs,
    and named once."""
    for path in map(Path, dirs):
        existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not existing.is_dir():
            raise ValueError(f"{existing} exists and is not a directory")
        if existing == path and os.listdir(path):
            raise ValueError(f"{path} is not empty; it must be absent or empty")
    named = set()
    for path in (Path(p) for p in files if p is not None):
        if path.resolve() in named:
            raise ValueError(f"{path} is named as more than one output file")
        named.add(path.resolve())
        if path.is_dir():
            raise ValueError(f"{path} is a directory")
        if not (path.parent.is_dir() or path.parent in {Path(d).parent for d in dirs}):
            raise ValueError(f"{path}: its directory {path.parent} does not exist")


def save_model_dir(out: Path, params, rep: Representation, src_vocab, tgt_vocab, history):
    """Write the checkpoint, vocabularies, meta.json and train log into out,
    each atomically. meta.json names the lexicon by its path relative to
    out, so the directory loads from any working directory, and records the
    sha256 of the lexicon and of each vocabulary file."""
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, out / "model.npz")
    src_vocab.save(out / "src_vocab.txt")
    tgt_vocab.save(out / "tgt_vocab.txt")
    lexicon = rep.lexicon_path and os.path.relpath(Path(rep.lexicon_path).resolve(), out.resolve())
    hashes = {f"{name}_sha256": hashlib.sha256((out / f"{name}.txt").read_bytes()).hexdigest()
              for name in ("src_vocab", "tgt_vocab")}
    write_rows(out / "meta.json", [{"representation": rep.name, "lexicon": lexicon,
                                    "lexicon_sha256": rep.lexicon_sha256, **hashes}])
    write_rows(out / "train_log.jsonl", history)


def load_model_dir(model_dir: Path, lexicon_path=None):
    """(params, representation, source vocabulary, target vocabulary) of a model
    directory. meta.json's lexicon is resolved against model_dir (an absolute
    path stays as it is); lexicon_path overrides it, and must hash the same.
    Each vocabulary must have the size the checkpoint was trained with, and
    the sha256 meta.json records for it, if it records one. A refusal of what
    meta.json records, or lacks, names it."""
    path = model_dir / "meta.json"
    with naming(path):
        meta = json_loads(path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict) or "representation" not in meta:
            raise ValueError(f"expected a JSON object with a representation, got {meta!r}")
        for key in ("lexicon", "lexicon_sha256", "src_vocab_sha256", "tgt_vocab_sha256"):
            if not isinstance(meta.get(key), (str, type(None))):
                raise ValueError(f"{key} must be a string or null, got {meta[key]!r}")
        lexicon = lexicon_path or (meta.get("lexicon") and model_dir / meta["lexicon"])
        Representation.check(meta["representation"], lexicon, "--lexicon, as it records none")
    if meta["representation"] == "word_char" and not lexicon_path and not lexicon.exists():
        raise FileNotFoundError(f"{path}: the lexicon it records is not at {lexicon}; "
                                "pass --lexicon")
    rep = Representation(meta["representation"], lexicon)
    trained = meta.get("lexicon_sha256")
    if rep.lexicon and trained and trained != rep.lexicon_sha256:
        raise ValueError(f"lexicon {rep.lexicon_path} has sha256 {rep.lexicon_sha256}, but the "
                         f"model was trained with a lexicon of sha256 {trained}")
    params = load_checkpoint(model_dir / "model.npz")
    vocabs = []
    for name, size in [("src_vocab", params.config.src_vocab_size),
                       ("tgt_vocab", params.config.tgt_vocab_size)]:
        path = model_dir / f"{name}.txt"
        vocabs.append(Vocabulary.load(path))
        if len(vocabs[-1]) != size:
            raise ValueError(f"{path} has {len(vocabs[-1])} entries, but the "
                             f"checkpoint was trained with a vocabulary of {size}")
        trained, found = meta.get(f"{name}_sha256"), hashlib.sha256(path.read_bytes()).hexdigest()
        if trained and trained != found:
            raise ValueError(f"{path} has sha256 {found}, but the model was trained with a "
                             f"vocabulary of sha256 {trained}")
    return (params, rep, *vocabs)


def write_decodes(f, ids, src: TokenRows, src_vocab: Vocabulary, params, tgt_vocab: Vocabulary,
                  beam_width: int, max_len=None):
    """Beam-decode the source rows, mapped to src_vocab ids DECODE_CHUNK rows at a time,
    writing one {"id", "candidate"} JSON line per row, its id from the pair ids, to the
    open file f; returns the candidates."""
    src_map, candidates = src_vocab.id_map(src.tokens), []
    for start in range(0, len(src), DECODE_CHUNK):
        rows = range(start, min(start + DECODE_CHUNK, len(src)))
        decodes = beam_search_batch([src_map[src[i]].tolist() for i in rows], params,
                                    beam_width, max_len)
        for i, out_ids in zip(rows, decodes):
            text = "".join(tgt_vocab.decode(out_ids))
            candidates.append(text)
            f.write(json.dumps({"id": ids[i], "candidate": text}, ensure_ascii=False) + "\n")
    return candidates


def train_model_dir(out: Path, rep: Representation, src: TokenRows, tgt: TokenRows, train_rows,
                    valid_rows, src_vocab: Vocabulary, tgt_vocab: Vocabulary, seed: int,
                    settings: dict, log_fn=None):
    """Train on the train rows of the source and summary rows, validating on the valid
    rows (none: no validation), and save model directory out; returns (params, history).
    settings gives ``model`` and the TRAIN_SETTINGS, ExperimentConfig's defaults
    standing in for any it lacks."""
    train_pairs, valid_pairs = (EncodedRows(src, tgt, rows, src_vocab, tgt_vocab)
                                for rows in (train_rows, valid_rows))
    model_cfg = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                            seed=seed, **settings.get("model", {}))
    params, history = train(train_pairs, model_cfg, valid_pairs=valid_pairs, log_fn=log_fn,
                            **{k: settings.get(k, getattr(ExperimentConfig, k))
                               for k in TRAIN_SETTINGS})
    save_model_dir(out, params, rep, src_vocab, tgt_vocab, history)
    return params, history


def _run_seed(cfg: ExperimentConfig, rep, seed: int, tokenized, seed_dir: Path) -> dict:
    t_start = time.perf_counter()
    pool_src, pool_tgt, test, test_src = tokenized
    train_idx, valid_idx = split_indices(len(pool_src), cfg.n_validation, seed)

    src_vocab = rank_vocab(pool_src, train_idx, cfg.vocab_min_count, cfg.encoder_vocab_size)
    tgt_vocab = rank_vocab(pool_tgt, train_idx, cfg.vocab_min_count, cfg.decoder_vocab_size)
    params, history = train_model_dir(seed_dir, rep, pool_src, pool_tgt, train_idx, valid_idx,
                                      src_vocab, tgt_vocab, seed, vars(cfg))

    with atomic_write(seed_dir / "candidates.jsonl") as f:
        candidates = write_decodes(f, [p.id for p in test], test_src, src_vocab, params,
                                   tgt_vocab, cfg.beam_width)

    means, per_pair = evaluate_corpus(candidates, [p.summary for p in test], unit="char")
    write_rows(seed_dir / "scores.jsonl",
               ({"id": pair.id, **scores_dict(scores)} for pair, scores in zip(test, per_pair)))

    train_seconds = sum(e["seconds"] for e in history)
    train_tokens = int((pool_tgt.at[1:] - pool_tgt.at[:-1])[train_idx].sum())  # summary tokens
    return {
        "status": "ok",
        "n_train": len(train_idx),
        "n_validation": len(valid_idx),
        "n_test": len(test),
        "src_vocab_size": src_vocab.n_content,
        "tgt_vocab_size": tgt_vocab.n_content,
        "scores": scores_dict(means),
        "timing": {
            "seconds_per_epoch": [e["seconds"] for e in history],
            "total_seconds": time.perf_counter() - t_start,
            "train_pairs_per_second": len(history) * len(train_idx) / train_seconds,
            "train_tokens_per_second": len(history) * train_tokens / train_seconds,
        },
    }


def _mean_scores(seed_records: list[dict]) -> dict | None:
    ok = [r["scores"] for r in seed_records if r["status"] == "ok"]
    if not ok:
        return None
    return scores_dict(mean_scores([{m: RougeScores(**s[m]) for m in METRICS} for s in ok]))


def _prepare(cfg: ExperimentConfig):
    """A run's or sweep's size-independent work, done once before any seed trains: read
    and hash both parts, load the lexicon, dedup the pool, filter the test set, tokenize.
    Returns (report fields, dedup removals or None, _tokenize's list)."""
    pool, issues1, part1_sha256 = load_corpus_file(cfg.part1, "I")
    part3, issues3, part3_sha256 = load_corpus_file(cfg.part3, "III")
    reps, lexicon_sha256 = load_representations(cfg.representations, cfg.lexicon)
    removed = None
    if cfg.dedup:
        result = clean_part1(pool, part3, cfg.max_suffix_delta)
        pool, removed = result.kept, result.removed
    with naming(cfg.part3):  # a JSONL record without a label
        test = filter_by_score(part3, cfg.min_score)
    if not test:  # checks that need the data, made once before any seed trains
        raise ValueError(f"{cfg.part3}: no test pair has a label >= {cfg.min_score}")
    if cfg.n_validation >= len(pool):
        raise ValueError(f"n_validation={cfg.n_validation} must be smaller than the training "
                         f"pool of {len(pool)} pairs")
    hashes = {"part1": part1_sha256, "part3": part3_sha256, "lexicon": lexicon_sha256}
    fields = {"input_hashes": {k: h for k, h in hashes.items() if h is not None},
              "parse_issues": {"part1": len(issues1), "part3": len(issues3)}}
    return fields, removed, _tokenize(reps, pool, test)


_cells = []  # a forked worker's cells of its run: (cfg, rep, seed, tokenized, seed_dir)


def _failed(seed_dir: Path, exc: Exception) -> dict:
    """A failed seed's record; the traceback being handled goes to seed<k>/error.txt."""
    with atomic_write(seed_dir / "error.txt") as f:
        f.write(traceback.format_exc())
    return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}


def _run_cell(cfg: ExperimentConfig, rep, seed: int, tokenized, seed_dir: Path) -> dict:
    """_run_seed's record, or a failure recorded (partial results matter)."""
    try:
        return _run_seed(cfg, rep, seed, tokenized, seed_dir)
    except Exception as exc:
        return _failed(seed_dir, exc)


def _run_worker_cell(cell: int) -> dict:
    return _run_cell(*_cells[cell])


@functools.cache
def _blas_pin():
    """OpenBLAS's (get, set) thread-count functions, from a library in this
    process's maps as perfbench/run.py finds it, looked up once per process;
    None where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", f.read())))
        handles = [ctypes.CDLL(lib) for lib in libs]
    except OSError:  # no /proc/self/maps, or a library that does not load
        return None
    for handle in handles:
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, pin = (getattr(handle, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and pin is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                pin.argtypes, pin.restype = (ctypes.c_int,), None
                return get, pin
    return None


def _start_worker(cells):
    """Keep the cells this forked worker shares with its parent, and let an interrupt end
    it at once, not after the cell it has queued. It runs on the one OpenBLAS thread its
    parent set before forking it, and never sets that itself: in a forked process the
    setter re-creates OpenBLAS's thread pool, whose helper thread spins before it sleeps."""
    import signal
    global _cells
    _cells = cells
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, signal.SIG_DFL)


def _run_cells(cells: list[tuple]) -> list[dict]:
    """The cells' records in order, from min(cells, usable cores) forked workers on one
    OpenBLAS thread each, or from this process, one cell after another, where the platform
    cannot fork or set OpenBLAS's threads. A dead worker fails every cell not finished; an
    interrupt cancels the queued cells. No worker outlives the call, and this process gets
    its own OpenBLAS thread count back once they have ended."""
    import multiprocessing  # imported here: the pool's modules are slow to import
    blas = _blas_pin()
    if blas is None or "fork" not in multiprocessing.get_all_start_methods():
        return [_run_cell(*cell) for cell in cells]
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    pool = ProcessPoolExecutor(min(len(cells), len(os.sched_getaffinity(0))),
                               multiprocessing.get_context("fork"), _start_worker, (cells,))
    get, pin = blas
    threads = get()
    pin(1)  # the workers fork on first submit and inherit it
    try:
        futures = [pool.submit(_run_worker_cell, i) for i in range(len(cells))]
        records = []
        for future, cell in zip(futures, cells):
            try:
                records.append(future.result())
            except BrokenProcessPool as exc:
                records.append(_failed(cell[-1], exc))
        return records
    finally:
        pool.shutdown(cancel_futures=True)
        pin(threads)


def _run_size(cfg: ExperimentConfig, prepared, out: Path):
    """Every representation and seed of cfg, at its encoder_vocab_size, on inputs from
    _prepare, into empty run directory out, report.json last; returns (report, all_seeds_ok)."""
    fields, removed, tokenized_reps = prepared
    out.mkdir(parents=True, exist_ok=True)
    if removed is not None:
        write_rows(out / "dedup_removals.jsonl", map(asdict, removed))

    cells = [(cfg, rep, seed, tokenized, out / rep.name / f"seed{seed}")
             for rep, tokenized in tokenized_reps for seed in cfg.seeds]
    for cell in cells:
        cell[-1].mkdir(parents=True, exist_ok=True)  # out started empty: nothing in the way
    records = iter(_run_cells(cells))
    runs = {}
    for rep, _ in tokenized_reps:
        seed_records = {str(seed): next(records) for seed in cfg.seeds}
        failed = [seed for seed in cfg.seeds if seed_records[str(seed)]["status"] == "failed"]
        runs[rep.name] = {"seeds": seed_records, "failed_seeds": failed,
                          "mean_scores": _mean_scores(list(seed_records.values()))}
    all_ok = not any(run["failed_seeds"] for run in runs.values())

    report = {"name": cfg.name, "config": asdict(cfg), **fields, "runs": runs,
              "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    with atomic_write(out / "report.json") as f:
        json.dump(report, f, sort_keys=True, ensure_ascii=False, indent=2)
    # free the run's cyclic garbage (the JSON encoder's closures) and the
    # objects parked on CPython's free lists now: a full collection waits
    # for far more long-lived containers than the array-backed pools make,
    # so a process running many experiments would keep them run after run
    gc.collect()
    return report, all_ok


def check_run_outputs(cfg: ExperimentConfig, out_dir, sizes=None):
    """(run directories, sweep table or None) of an experiment, or given sizes a
    sweep, into out_dir, once check_outputs accepts them."""
    out = Path(out_dir)
    table = out / f"{cfg.name}-sweep.json" if sizes is not None else None
    dirs = [out / cfg.name] if table is None else [out / f"{cfg.name}-vocab{s}" for s in sizes]
    check_outputs([table], dirs)
    return dirs, table


def run_experiment(cfg: ExperimentConfig, out_dir):
    """Execute the full protocol into <out_dir>/<name>, absent or empty; returns (report, all_ok)."""
    (run_dir,), _ = check_run_outputs(cfg, out_dir)
    return _run_size(cfg, _prepare(cfg), run_dir)


def check_sweep_sizes(sizes: list[int]):
    """Raise ValueError unless the sweep sizes are positive and distinct."""
    if any(s <= 0 for s in sizes):
        raise ValueError("sweep sizes must be positive")
    _refuse_repeats("sweep sizes", sizes)


def sweep_vocab(cfg: ExperimentConfig, sizes: list[int], out_dir):
    """Run the experiment once per encoder vocabulary size, on inputs
    prepared once, into <out_dir>/<name>-vocab<size>, each absent or empty.

    Sizes must be positive and distinct and are processed in the requested
    order; a size beyond the available vocabulary is effectively clamped by
    truncation and flagged with a warning. Returns (table, all_ok) where
    table rows mirror the per-size mean scores.
    """
    check_sweep_sizes(sizes)
    run_dirs, table_path = check_run_outputs(cfg, out_dir, sizes)
    prepared = _prepare(cfg)
    table, all_ok = [], True
    for size, run_dir in zip(sizes, run_dirs):
        report, ok = _run_size(replace(cfg, encoder_vocab_size=size), prepared, run_dir)
        all_ok = all_ok and ok
        row = {"requested_size": size, "runs": {}}
        for representation, run in report["runs"].items():
            used = [rec["src_vocab_size"] for rec in run["seeds"].values() if rec["status"] == "ok"]
            if used and max(used) < size:
                warnings.warn(
                    f"requested encoder vocabulary {size} exceeds the available "
                    f"{max(used)} tokens; clamped")
            row["runs"][representation] = {"encoder_vocab_used": max(used) if used else None,
                                           "mean_scores": run["mean_scores"]}
        table.append(row)
    with atomic_write(table_path) as f:
        json.dump({"name": cfg.name, "sizes": sizes, "rows": table}, f,
                  sort_keys=True, ensure_ascii=False, indent=2)
    return table, all_ok
