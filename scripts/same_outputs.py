#!/usr/bin/env python3
"""Whether this tree writes the same outputs as another git revision.

Exports the revision with ``git archive`` into a temporary directory, then
runs the same work on it and on this tree (uncommitted edits included):
each CLI command in a fresh subprocess with ``PYTHONPATH=<tree>/src``, in a
fresh work directory holding a copy of that tree's ``tests/data/synthetic``
at the same relative path:

- the fixture experiment (``tests/data/synthetic/experiment.json``) into
  ``experiment/``;
- a ``--sizes 20,50`` vocabulary sweep of that config with ``"dedup": true``
  into ``sweep/``, on a Part I with 3 Part III records planted in it (one
  exact, two with a trailing suffix), so that its removal ledger is not
  empty;
- the README's CLI walk into ``walk/``, plus a ``char_char`` ``train`` whose
  config omits every step setting, a ``train`` without ``--valid`` and a
  ``vocab --unit word`` into ``walk/src_vocab_odd.txt`` from a lexicon
  derived from the fixture's (CRLF line ends, a whitespace-only line, a
  repeated word with a new count and a ``+N`` count), so that both ways a
  lexicon loads, in bulk and by the line reader, are compared; and a
  ``vocab --unit word`` from that lexicon into ``walk/src_vocab_overlap.txt``
  of texts where the repeated word 城市 overlaps 市场, so that the count it
  keeps decides each split; and a Part III ``parse --report`` of
  ``inputs/malformed.txt``, one record per defect the parser names and a
  stray line, so that the issue ledger ``walk/malformed_issues.jsonl`` is
  compared.

This tree's commands run with ``MALLOC_PERTURB_=165``: glibc fills every
freed block with the byte 165 and every fresh one with its complement, so
an output that reads memory the program never wrote differs from the
revision's, which runs plain. Elsewhere than glibc the variable does
nothing and the comparison is the plain one. Either side's run stops the
script with exit 1 if a command exits non-zero (``experiment`` and
``sweep`` do when a seed fails) or the sweep removes no planted record, so
that the comparison cannot pass on outputs neither side wrote.

Then prints one line per output file: ``identical``, ``equal after the
mask`` (JSON and JSONL parsed and passed through
``perfbench/workloads.mask_timings``, which drops timestamps and timings),
or ``differs`` with the first differing key or byte offset; and one summary
line. Exits 1 if any file differs. Run from the repo root:

    python3 scripts/same_outputs.py --against HEAD
    python3 scripts/same_outputs.py --against HEAD~1 --keep /tmp/outputs
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import mask_timings  # noqa: E402

FIXTURE = "tests/data/synthetic"
OUTPUTS = ("experiment", "sweep", "walk")
POISON = "165"  # MALLOC_PERTURB_ of this tree's run; the revision's is 0, off
PLANTED = ((2, ""), (5, "新闻晨报"), (9, "某某日报社编辑部"))  # Part III record, suffix
MODEL = {"embed_dim": 16, "hidden_dim": 16, "dropout": 0.1, "max_decode_len": 12}
INPUTS = {  # written into the work directory before the commands run
    "inputs/train_cfg.json": {"model": MODEL, "epochs": 1, "batch_size": 16,
                              "representation": "word_char", "lexicon": f"{FIXTURE}/lexicon.tsv"},
    "inputs/char_cfg.json": {"model": MODEL, "representation": "char_char"},
}
# a Part III with a good record on tag lines, one record per kind of parse
# issue, a stray line, a stray </doc> and a good record on its own lines
MALFORMED = """\
<doc id=1>
<human_label>3</human_label>
<summary>城市</summary>
<short_text>城市发展</short_text>
</doc>
stray words
<doc id=2>
<summary>s</summary>
<title>x</title>
<short_text>t</short_text>
</doc>
<doc id=3>
<human_label>3</human_label>
<summary>
abc
</doc>
<doc id=4>
<summary>
abc
<doc id=5>
<human_label>3</human_label>
<summary>s</summary>
<doc id=6>
<human_label>3</human_label>
<short_text>t</short_text>
</doc>
<doc id=7>
<human_label>3</human_label>
<summary>s</summary>
</doc>
<doc id=8>
<human_label>7</human_label>
<summary>s</summary>
<short_text>t</short_text>
</doc>
<doc id=9>
<summary>s</summary>
<short_text>t</short_text>
</doc>
<doc id=10>
<human_label>3</human_label>
<summary> </summary>
<short_text>t</short_text>
</doc>
</doc>
<doc id=11>
<human_label>
5
</human_label>
<summary>
市场
</summary>
<short_text>
市场经济
</short_text>
</doc>
<doc id=12>
<human_label>3</human_label>
<summary>
abc
"""
COMMANDS = [
    ["experiment", "--config", f"{FIXTURE}/experiment.json", "--out", "experiment"],
    ["sweep", "--config", "inputs/sweep.json", "--sizes", "20,50", "--out", "sweep"],
    ["parse", "--in", f"{FIXTURE}/part1.txt", "--part", "I", "--out", "walk/part1.jsonl"],
    ["parse", "--in", f"{FIXTURE}/part3.txt", "--part", "III", "--out", "walk/part3.jsonl"],
    ["parse", "--in", "inputs/malformed.txt", "--part", "III", "--out", "walk/malformed.jsonl",
     "--report", "walk/malformed_issues.jsonl"],
    ["clean", "--part1", "walk/part1.jsonl", "--part3", "walk/part3.jsonl",
     "--max-suffix-delta", "15", "--out", "walk/part1_clean.jsonl",
     "--report", "walk/removals.jsonl"],
    ["filter", "--in", "walk/part3.jsonl", "--min-score", "3", "--out", "walk/test.jsonl"],
    ["split", "--in", "walk/part1_clean.jsonl", "--n-validation", "20", "--seed", "0",
     "--train-out", "walk/train.jsonl", "--valid-out", "walk/valid.jsonl"],
    ["vocab", "--unit", "word", "--lexicon", f"{FIXTURE}/lexicon.tsv", "--in", "walk/train.jsonl",
     "--out", "walk/src_vocab.txt"],
    ["vocab", "--unit", "word", "--lexicon", "inputs/lexicon_odd.tsv", "--in", "walk/train.jsonl",
     "--out", "walk/src_vocab_odd.txt"],
    ["vocab", "--unit", "word", "--lexicon", "inputs/lexicon_odd.tsv",
     "--in", "inputs/overlap.jsonl", "--out", "walk/src_vocab_overlap.txt"],
    ["vocab", "--unit", "char", "--in", "walk/train.jsonl", "--out", "walk/tgt_vocab.txt"],
    ["train", "--config", "inputs/train_cfg.json", "--train", "walk/train.jsonl",
     "--valid", "walk/valid.jsonl", "--src-vocab", "walk/src_vocab.txt",
     "--tgt-vocab", "walk/tgt_vocab.txt", "--out", "walk/model"],
    ["train", "--config", "inputs/char_cfg.json", "--train", "walk/train.jsonl",
     "--valid", "walk/valid.jsonl", "--src-vocab", "walk/tgt_vocab.txt",
     "--tgt-vocab", "walk/tgt_vocab.txt", "--out", "walk/model_char"],
    ["train", "--config", "inputs/train_cfg.json", "--train", "walk/train.jsonl",
     "--src-vocab", "walk/src_vocab.txt", "--tgt-vocab", "walk/tgt_vocab.txt",
     "--out", "walk/model_novalid"],
    ["summarize", "--model", "walk/model", "--in", "walk/test.jsonl", "--beam", "3",
     "--max-len", "12", "--out", "walk/candidates.jsonl"],
    ["eval", "--candidates", "walk/candidates.jsonl", "--references", "walk/test.jsonl",
     "--report", "walk/scores.jsonl"],
    ["summarize", "--model", "walk/model", "--in", "walk/part1_clean.jsonl", "--beam", "3",
     "--max-len", "12", "--out", "walk/pool_candidates.jsonl"],
]


def export(rev: str, dest: Path):
    """The files of rev, from git archive, into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode:
        sys.exit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def write_inputs(tree: Path, work: Path):
    """The fixture copy, the configs, the sweep's planted Part I, the odd
    lexicon and the malformed Part III, in work."""
    shutil.copytree(tree / FIXTURE, work / FIXTURE)
    for name, cfg in INPUTS.items():
        (work / name).parent.mkdir(parents=True, exist_ok=True)
        (work / name).write_text(json.dumps(cfg), encoding="utf-8")
    (work / "inputs/malformed.txt").write_text(MALFORMED, encoding="utf-8")
    part3 = (work / FIXTURE / "part3.txt").read_text(encoding="utf-8")
    docs = re.findall(r"<summary>(.*?)</summary>\s*<short_text>(.*?)</short_text>", part3, re.S)
    planted = "".join(f"<doc id={900 + i}>\n<summary>{docs[i][0]}</summary>\n"
                      f"<short_text>{docs[i][1]}{suffix}</short_text>\n</doc>\n"
                      for i, suffix in PLANTED)
    part1 = (work / FIXTURE / "part1.txt").read_text(encoding="utf-8")
    (work / "inputs/part1_planted.txt").write_text(part1 + planted, encoding="utf-8")
    cfg = json.loads((work / FIXTURE / "experiment.json").read_text(encoding="utf-8"))
    cfg.update(name="synthetic-dedup", part1="inputs/part1_planted.txt", dedup=True)
    (work / "inputs/sweep.json").write_text(json.dumps(cfg), encoding="utf-8")
    # the fixture's lexicon with CRLF line ends, a whitespace-only line, a
    # repeated word with a new count and a +N count: a file the line reader loads
    lines = (work / FIXTURE / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    lines[20] = lines[20].replace("\t", "\t+")
    lines[10:10] = [" \t "]
    lines.append("城市\t7")  # 95 on its first line, above 市场's 91
    (work / "inputs/lexicon_odd.tsv").write_bytes("".join(f"{x}\r\n" for x in lines).encode("utf-8"))
    # 城市场 is 城|市场 when 城市 keeps its last count, 城市|场 when it keeps its first
    overlap = ["城市场经济", "发展城市场", "城市场城市场"]
    (work / "inputs/overlap.jsonl").write_text("".join(
        json.dumps({"id": i, "text": t, "summary": t}) + "\n" for i, t in enumerate(overlap)),
        encoding="utf-8")


def run_all(tree: Path, work: Path, perturb: str):
    """Every command of COMMANDS on tree's program, with MALLOC_PERTURB_=perturb,
    in the fresh work directory work."""
    (work / "walk").mkdir(parents=True)  # the walk's commands write into it
    write_inputs(tree, work)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), MALLOC_PERTURB_=perturb)
    for argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "hwcsum.cli", *argv], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode:
            sys.exit(f"{tree}: hwcsum {' '.join(argv)} exited {done.returncode}\n{done.stderr}")
    if not any(p.stat().st_size for p in work.glob("sweep/*/dedup_removals.jsonl")):
        sys.exit(f"{tree}: the dedup sweep removed no planted record")


def masked(path: Path):
    """A JSON file, or a JSONL file as {"line <n>": record}, with mask_timings applied."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return mask_timings(json.loads(text))
    return {f"line {n}": mask_timings(json.loads(line))
            for n, line in enumerate(text.splitlines(), start=1)}


def first_difference(a, b):
    """The key path (a tuple of keys and list indexes) of the first value
    that differs between a and b, or None."""
    if isinstance(a, list) and isinstance(b, list):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return None if a == b else ()
    for k in [*a, *(k for k in b if k not in a)]:
        if k not in a or k not in b:
            return (k,)
        where = first_difference(a[k], b[k])
        if where is not None:
            return (k, *where)
    return None


def verdict(a: Path, b: Path) -> str:
    if not (a.exists() and b.exists()):
        return f"differs: only in {'the revision' if a.exists() else 'this tree'}"
    x, y = a.read_bytes(), b.read_bytes()
    if x == y:
        return "identical"
    if a.suffix in (".json", ".jsonl"):
        try:
            where = first_difference(masked(a), masked(b))
        except ValueError:  # not JSON on one side: compare the bytes
            pass
        else:
            if where is None:
                return "equal after the mask"
            return f"differs at key {'/'.join(map(str, where)) or '(the whole file)'}"
    offset = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    return f"differs at byte {offset}"


def compare(rev: str, base: Path) -> bool:
    with tempfile.TemporaryDirectory() as exported:
        export(rev, Path(exported))
        run_all(Path(exported), base / "revision", "0")
    run_all(ROOT, base / "tree", POISON)
    files = sorted({p.relative_to(side).as_posix()
                    for side in (base / "revision", base / "tree") for out in OUTPUTS
                    for p in (side / out).rglob("*") if p.is_file()})
    counts = {"identical": 0, "equal after the mask": 0, "differ": 0}
    for rel in files:
        line = verdict(base / "revision" / rel, base / "tree" / rel)
        counts[line if line in counts else "differ"] += 1
        print(f"{rel}: {line}")
    print(f"same_outputs: {len(files)} files: " + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f" ({rev} against this tree, run with MALLOC_PERTURB_={POISON})")
    return counts["differ"] == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="git revision to compare with, e.g. HEAD")
    p.add_argument("--keep", help="directory to keep both trees' outputs in, as revision/ and "
                                  "tree/; neither may exist yet")
    args = p.parse_args(argv)
    if args.keep:
        return 0 if compare(args.against, Path(args.keep).resolve()) else 1
    with tempfile.TemporaryDirectory() as base:
        return 0 if compare(args.against, Path(base)) else 1


if __name__ == "__main__":
    sys.exit(main())
