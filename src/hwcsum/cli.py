"""Command-line entry point; every pipeline stage is a subcommand.

Stages exchange UTF-8 line-delimited JSON records with fields ``id``,
``text``, ``summary`` and optional ``label`` unless noted otherwise.
"""

import argparse
import contextlib
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .corpus import (ParseError, atomic_write, filter_by_score, json_lines, naming, parse_lcsts,
                     split_train_validation, write_jsonl, write_rows)
from .dedup import clean_part1
from .harness import (TRAIN_SETTINGS, ExperimentConfig, check_outputs, check_run_outputs,
                      check_settings, check_sweep_sizes, load_corpus_file, load_model_dir,
                      read_config, run_experiment, sweep_vocab, train_model_dir, write_decodes)
from .rouge import METRICS, evaluate_corpus, scores_dict
from .tokenizer import (REPRESENTATIONS, Representation, TokenRows, Vocabulary, rank_vocab,
                        summary_rows, word_segment)

# Only `vocab` segments through this module's word_segment binding (passed to
# Representation.tokens), so a wrapper set on hwcsum.cli.word_segment reaches it.


class _Refused(Exception):
    """A config check refused the invocation; main reports it as a usage error."""


@contextlib.contextmanager
def _config_checks():
    """Raise a ValueError of the config checks inside as _Refused. A config
    file that cannot be read (a ParseError) fails as a data file does."""
    try:
        yield
    except ParseError:
        raise
    except ValueError as e:
        raise _Refused(str(e)) from None


def _write_corpus(path, pairs):
    with atomic_write(path) as f:
        write_jsonl(pairs, f)


def _pairs(path, part="I", use=None):
    """The pairs of a dataset file (load_corpus_file); a count of the
    malformed records it skipped, if any, goes to stderr. Given what the
    pairs are for (use), a file with no pairs is refused naming it."""
    pairs, issues, _ = load_corpus_file(path, part)
    if issues:
        print(f"{path}: skipped {len(issues)} malformed records", file=sys.stderr)
    if use and not pairs:
        raise ValueError(f"{path}: no pairs to {use}")
    return pairs


def _cmd_parse(args):
    with naming(args.infile), open(args.infile, encoding="utf-8") as f:
        corpus, issues = parse_lcsts(f, args.part, strict=args.strict)
    _write_corpus(args.out, corpus)
    if args.report:
        write_rows(args.report, map(asdict, issues))
    print(f"parsed {len(corpus)} pairs, {len(issues)} skipped", file=sys.stderr)
    return 0


def _cmd_filter(args):
    corpus = _pairs(args.infile, "III")
    with naming(args.infile):  # a JSONL record without a label
        kept = filter_by_score(corpus, args.min_score)
    _write_corpus(args.out, kept)
    print(f"kept {len(kept)} of {len(corpus)} pairs with label >= {args.min_score}", file=sys.stderr)
    return 0


def _cmd_split(args):
    corpus = _pairs(args.infile)
    with naming(args.infile):
        train_part, valid_part = split_train_validation(corpus, args.n_validation, args.seed)
    _write_corpus(args.train_out, train_part)
    _write_corpus(args.valid_out, valid_part)
    print(f"split {len(corpus)} pairs into {len(train_part)} train / {len(valid_part)} validation "
          f"(seed {args.seed})", file=sys.stderr)
    return 0


def _cmd_clean(args):
    part1 = _pairs(args.part1, "I")
    part3 = _pairs(args.part3, "III")
    result = clean_part1(part1, part3, args.max_suffix_delta)
    _write_corpus(args.out, result.kept)
    if args.report:
        write_rows(args.report, map(asdict, result.removed))
    print(f"kept {len(result.kept)} pairs, removed {len(result.removed)} overlapping items",
          file=sys.stderr)
    return 0


def _cmd_vocab(args):
    name = f"{args.unit}_char"  # the representation with this source unit
    with _config_checks():
        Representation.check(name, args.lexicon)
    rep = Representation(name, args.lexicon)
    corpus = _pairs(args.infile, use="build a vocabulary from")
    field = args.field or ("text" if args.unit == "word" else "summary")
    attr = "short_text" if field == "text" else "summary"
    rows = TokenRows(rep.tokens(getattr(p, attr), word_segment) for p in corpus)
    vocab = rank_vocab(rows, range(len(rows)), args.min_count, args.max_size)
    vocab.save(args.out)
    print(f"wrote {vocab.n_content} {args.unit} tokens (plus 4 specials) to {args.out}",
          file=sys.stderr)
    return 0


def _log_epoch(entry):
    line = f"epoch {entry['epoch']}: train_loss={entry['train_loss']:.4f}"
    if "valid_loss" in entry:
        line += f" valid_loss={entry['valid_loss']:.4f}"
    print(line + f" ({entry['seconds']:.1f}s)", file=sys.stderr)


def _cmd_train(args):
    with _config_checks():
        cfg = read_config(args.config, {"model", *TRAIN_SETTINGS, "representation", "lexicon"},
                          "train")
        check_settings(cfg)
        name = args.representation or cfg.get("representation", "word_char")
        lexicon = args.lexicon or cfg.get("lexicon")
        Representation.check(name, lexicon)
    rep = Representation(name, lexicon)
    src_vocab = Vocabulary.load(args.src_vocab)
    tgt_vocab = Vocabulary.load(args.tgt_vocab)

    pairs = _pairs(args.train, use="train on")  # the training pairs, then the validation pairs
    n_train = len(pairs)
    if args.valid:
        pairs += _pairs(args.valid, use="validate on")
    src, tgt, n = rep.source_rows(pairs), summary_rows(pairs), len(pairs)
    del pairs  # training reads the token rows alone
    train_model_dir(Path(args.out), rep, src, tgt, range(n_train), range(n_train, n), src_vocab,
                    tgt_vocab, args.seed, cfg, _log_epoch)
    return 0


def _cmd_summarize(args):
    params, rep, src_vocab, tgt_vocab = load_model_dir(Path(args.model), args.lexicon)
    pairs = _pairs(args.infile, use="summarize")
    ids, src = [p.id for p in pairs], rep.source_rows(pairs)
    del pairs  # the decodes read the ids and token rows alone
    with atomic_write(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
        write_decodes(out, ids, src, src_vocab, params, tgt_vocab, args.beam, args.max_len)
    return 0


def _read_rows(path, fields):
    """(line number, id or None, the first of the fields present) of each JSON
    object line; a bad line raises a ParseError naming path and line."""
    rows = []
    with naming(path), open(path, encoding="utf-8") as f:
        for line_no, obj in json_lines(f):
            field = next((name for name in fields if name in obj), None)
            if field is None:
                raise ValueError(f"line {line_no}: none of {fields} present")
            if not isinstance(obj[field], str):
                raise ValueError(f"line {line_no}: {field} must be a string")
            rows.append((line_no, obj.get("id"), obj[field]))
    return rows


def _cmd_eval(args):
    candidates = _read_rows(args.candidates, ("candidate", "summary"))
    references = _read_rows(args.references, ("summary", "candidate"))
    if len(candidates) != len(references):
        raise ValueError(f"candidates {args.candidates} ({len(candidates)}) and references "
                         f"{args.references} ({len(references)}) differ in length")
    for (line, cand_id, _), (ref_line, ref_id, _) in zip(candidates, references):
        if cand_id is not None and ref_id is not None and cand_id != ref_id:
            raise ValueError(f"{args.candidates}: line {line} has id {cand_id!r}, but "
                             f"{args.references}: line {ref_line} has id {ref_id!r}")
    if not candidates:
        raise ValueError(f"candidates {args.candidates} and references {args.references}: no rows")
    means, per_pair = evaluate_corpus([row[2] for row in candidates],
                                      [row[2] for row in references], unit=args.unit)
    if args.report:
        rows = [{"index": i, **scores_dict(scores)} for i, scores in enumerate(per_pair)]
        write_rows(args.report, rows + [{"mean": scores_dict(means)}])
    for m in METRICS:
        print(f"{m}: P={means[m].precision:.4f} R={means[m].recall:.4f} F1={means[m].f1:.4f}")
    return 0


def _int_list(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _experiment_config(args, sizes=None):
    """The config of experiment, or given sizes of sweep, with --seeds applied. A
    config check refuses it, as does check_outputs one of the run's output paths."""
    with _config_checks():
        cfg = ExperimentConfig.from_file(args.config)
        cfg = replace(cfg, seeds=args.seeds) if args.seeds else cfg
        if sizes is not None:
            check_sweep_sizes(sizes)
        check_run_outputs(cfg, args.out, sizes)
    return cfg


def _mean_f1(label, mean):
    return f"{label}: " + " ".join(f"{m}={mean[m]['f1']:.4f}" for m in METRICS)


def _cmd_experiment(args):
    report, all_ok = run_experiment(_experiment_config(args), args.out)
    for representation, run in report["runs"].items():
        if run["mean_scores"] is None:
            print(f"{representation}: all seeds failed", file=sys.stderr)
        else:
            print(_mean_f1(representation, run["mean_scores"]))
    return 0 if all_ok else 1


def _cmd_sweep(args):
    table, all_ok = sweep_vocab(_experiment_config(args, args.sizes), args.sizes, args.out)
    for row in table:
        for representation, cell in row["runs"].items():
            label = f"size {row['requested_size']} {representation}"
            if cell["mean_scores"] is None:
                print(f"{label}: failed", file=sys.stderr)
            else:
                print(_mean_f1(label, cell["mean_scores"]))
    return 0 if all_ok else 1


def _setting(key, wrap=lambda value: value):
    """An argparse type: an integer that check_settings accepts as config
    key ``key`` (given as ``wrap(value)``), so the flag shares its range."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        try:
            check_settings({key: wrap(value)})
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return value

    return parse


def _parse_arguments(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--part", choices=["I", "II", "III"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write skipped-record report (JSONL)")
    p.add_argument("--strict", action="store_true", help="fail on the first malformed record")
    p.set_defaults(func=_cmd_parse, output_files=("out", "report"))


def _filter_arguments(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--min-score", type=_setting("min_score"), default=ExperimentConfig.min_score)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter, output_files=("out",))


def _split_arguments(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n-validation", type=_setting("n_validation"),
                   default=ExperimentConfig.n_validation)
    p.add_argument("--seed", type=_setting("seeds", lambda seed: [seed]), default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--valid-out", required=True)
    p.set_defaults(func=_cmd_split, output_files=("train_out", "valid_out"))


def _clean_arguments(p):
    p.add_argument("--part1", required=True)
    p.add_argument("--part3", required=True)
    p.add_argument("--max-suffix-delta", type=_setting("max_suffix_delta"),
                   default=ExperimentConfig.max_suffix_delta)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write removal ledger (JSONL)")
    p.set_defaults(func=_cmd_clean, output_files=("out", "report"))


def _vocab_arguments(p):
    p.add_argument("--unit", choices=["word", "char"], required=True,
                   help="picks the representation; vocabulary files carry no unit")
    p.add_argument("--min-count", type=_setting("vocab_min_count"),
                   default=ExperimentConfig.vocab_min_count)
    p.add_argument("--max-size", type=_setting("encoder_vocab_size"))
    p.add_argument("--field", choices=["text", "summary"],
                   help="which record field to tokenize (default: text for word, summary for char)")
    p.add_argument("--lexicon", help="word-count file for the word unit")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_vocab, output_files=("out",))


def _train_arguments(p):
    p.add_argument("--config", required=True,
                   help="JSON: model/epochs/batch_size/learning_rate; an omitted setting "
                        "takes ExperimentConfig's default")
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--representation", choices=REPRESENTATIONS)
    p.add_argument("--lexicon")
    p.add_argument("--seed", type=_setting("seeds", lambda seed: [seed]), default=0)
    p.add_argument("--out", required=True, help="model directory to write, absent or empty")
    p.set_defaults(func=_cmd_train, output_dirs=("out",))


def _summarize_arguments(p):
    p.add_argument("--model", required=True, help="model directory: `train` --out or a seed<k>/")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--beam", type=_setting("beam_width"), default=ExperimentConfig.beam_width)
    p.add_argument("--max-len", type=_setting("model", lambda n: {"max_decode_len": n}))
    p.add_argument("--lexicon")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_summarize, output_files=("out",))


def _eval_arguments(p):
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--unit", choices=["char", "word"], default="char")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_eval, output_files=("report",))


def _experiment_arguments(p):
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="holds the run directory <name>: absent or empty")
    p.add_argument("--seeds", type=_int_list, help="comma-separated override, e.g. 0,1,2,3,4")
    p.set_defaults(func=_cmd_experiment)


def _sweep_arguments(p):
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", type=_int_list, required=True,
                   help="comma-separated distinct sizes, run in the order given")
    p.add_argument("--out", required=True, help="holds <name>-sweep.json and the run "
                   "directories <name>-vocab<size>, each absent or empty")
    p.add_argument("--seeds", type=_int_list, help="comma-separated override")
    p.set_defaults(func=_cmd_sweep)


# command -> (help, the function adding its arguments), in the order --help lists them
COMMANDS = {
    "parse": ("pseudo-XML dataset to canonical JSONL", _parse_arguments),
    "filter": ("keep pairs with label >= min-score", _filter_arguments),
    "split": ("deterministic seeded train/validation split", _split_arguments),
    "clean": ("remove Part I items overlapping Part III", _clean_arguments),
    "vocab": ("build a vocabulary file from a corpus", _vocab_arguments),
    "train": ("train the attentional encoder-decoder", _train_arguments),
    "summarize": ("beam-decode summaries for a corpus", _summarize_arguments),
    "eval": ("ROUGE-1/2/L F1 against references", _eval_arguments),
    "experiment": ("full multi-seed protocol from a config file", _experiment_arguments),
    "sweep": ("encoder vocabulary size sweep", _sweep_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or given a command's name that
    command's parser alone: it formats its help, refuses arguments and
    fills in the namespace as the full parser's subparser for it does."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"hwcsum {command}")
        COMMANDS[command][1](parser)
        parser.set_defaults(command=command)
        return parser
    parser = argparse.ArgumentParser(prog="hwcsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv):
    """The invoked command's parser and the arguments it parsed. Only the
    named command's parser is built. Anything else, and an argument the
    command does not take, goes to the full parser, which reports it."""
    if argv and argv[0] in COMMANDS:
        parser = build_parser(argv[0])
        args, unknown = parser.parse_known_args(argv[1:])
        if not unknown:
            return parser, args
    parser = build_parser()
    return parser, parser.parse_args(argv)


def main(argv=None) -> int:
    parser, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        with _config_checks():  # experiment and sweep check their run paths once the config is read
            check_outputs(*([getattr(args, dest) for dest in getattr(args, kind, ())]
                            for kind in ("output_files", "output_dirs")))
        return args.func(args)
    except _Refused as e:
        parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())
