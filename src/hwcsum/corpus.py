"""Corpus ingestion: pseudo-XML parsing, label filtering, seeded splits.

Datasets arrive as blocks of the form

    <doc id=0>
    <human_label>5</human_label>
    <summary>...</summary>
    <short_text>...</short_text>
    </doc>

where the label line is optional (Part I has none). The canonical
interchange format between pipeline stages is line-delimited JSON with
fields ``id``, ``text``, ``summary`` and optional ``label``.
"""

import contextlib
import ctypes
import json
import os
import re
import unicodedata
from dataclasses import dataclass

from .rng import MT19937

VALID_PARTS = ("I", "II", "III")
LABELED_PARTS = ("II", "III")

_DOC_LINE = re.compile(r"^\s*<(?:doc\s+id=(\d+)\s*|/doc)>\s*$")  # group 1 is None for </doc>
_INLINE_TAG = re.compile(r"^\s*<(human_label|summary|short_text)>(.*?)</\1>\s*$", re.S)
_BLOCK_OPEN = re.compile(r"^\s*<(human_label|summary|short_text)>\s*$")


def normalize_text(text: str) -> str:
    """NFC normalization plus leading/trailing whitespace strip."""
    return unicodedata.normalize("NFC", text).strip()


@dataclass
class DocumentPair:
    """One (article, headline) record, optionally human-scored 1..5."""

    id: int
    short_text: str
    summary: str
    human_label: int | None = None

    def validate(self):
        if not self.short_text or not self.summary:
            raise ValueError(f"pair id={self.id}: empty text or summary")
        if self.human_label is not None and self.human_label not in (1, 2, 3, 4, 5):
            raise ValueError(f"pair id={self.id}: human_label {self.human_label} not in 1..5")


@dataclass
class ParseIssue:
    """One skipped record: where it went wrong and why."""

    line: int
    message: str


class ParseError(ValueError):
    """A data file, or a record in one, that cannot be read."""


_ESCAPED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, read with surrogateescape


@contextlib.contextmanager
def naming(path):
    """Re-raise a ValueError raised inside as a ParseError that starts with ``path: ``.
    Bytes that are not UTF-8 give ``line N: invalid UTF-8 (reason)``, N found by one more
    read that counts lines as text mode does (a decode error carries no line); text that
    is not JSON gives ``invalid JSON (...)``."""
    try:
        yield
    except UnicodeDecodeError as e:
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            line_no = next((n for n, line in enumerate(f, start=1) if _ESCAPED.search(line)), None)
        raise ParseError(f"{path}: line {line_no}: invalid UTF-8 ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from None
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None


def _pair(pid, text, summary, label) -> DocumentPair:
    """A normalized pair; ValueError if it is not a valid one."""
    pair = DocumentPair(pid, normalize_text(text), normalize_text(summary), label)
    pair.validate()
    return pair


def _decimal(digits: str) -> int | None:
    """int(digits), or None where it has too many digits for int() to read."""
    try:
        return int(digits)
    except ValueError:
        return None


def _record(part, fields, line, open_tag, end, defect) -> DocumentPair | ParseIssue:
    """What a record comes to once end ends it ("</doc>", "<doc>", or None at
    the end of input): its pair, or one issue naming its first defect. An
    unrecognized line (defect, at its own line) comes first, then how the
    record ended, then its fields; every other issue is at its <doc> line."""
    if defect is not None:
        return defect
    label = fields.get("human_label")
    try:
        if end is None:
            msg = "unterminated block at end of input"
        elif open_tag is not None:
            msg = f"unterminated <{open_tag}>"
        elif end == "<doc>":
            msg = "unterminated block"
        elif "summary" not in fields:
            msg = "missing <summary>"
        elif "short_text" not in fields:
            msg = "missing <short_text>"
        elif label is None and part in LABELED_PARTS:
            msg = f"part {part} record has no <human_label>"
        elif label is not None and not (label.isdecimal() and _decimal(label) in range(1, 6)):
            msg = f"bad human_label {label!r}"
        else:
            return _pair(fields["id"], fields["short_text"], fields["summary"],
                         None if label is None else int(label))
    except ValueError as exc:  # from _pair
        return ParseIssue(line, str(exc))
    return ParseIssue(line, f"doc id={fields['id']}: {msg}")


def parse_lcsts(stream, part: str, strict: bool = False):
    """Parse a pseudo-XML dataset text stream of the given part.

    Returns (pairs, issues), pairs in file order. A record runs from its
    ``<doc id=N>`` line to the next ``</doc>`` or ``<doc id=M>`` line or the
    end of input, and a bad record is one ParseIssue, for its first defect
    (see _record); a non-blank line outside any record is one issue too.
    strict raises the first issue as a ParseError instead. Content may sit
    on the tag line or on its own lines before the closing tag; multi-line
    content is joined with single spaces. After an unrecognized line the
    rest of its record is not read.
    """
    if part not in VALID_PARTS:
        raise ValueError(f"part must be one of {VALID_PARTS}, got {part!r}")

    pairs: list[DocumentPair] = []
    issues: list[ParseIssue] = []
    fields = None  # the open record's fields, None between records
    rec_line = open_tag = defect = None
    content: list[str] = []

    def add(item):
        if isinstance(item, DocumentPair):
            pairs.append(item)
        elif strict:
            raise ParseError(f"line {item.line}: {item.message}")
        else:
            issues.append(item)

    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        doc = _DOC_LINE.match(line)
        if doc and (fields is not None or doc[1] is not None):  # a record ends or starts
            if fields is not None:
                add(_record(part, fields, rec_line, open_tag, "<doc>" if doc[1] else "</doc>", defect))
            fields = None if doc[1] is None else {"id": _decimal(doc[1])}
            rec_line, open_tag, defect = line_no, None, None
            if fields and fields["id"] is None:  # the record's first defect, at its <doc> line
                defect = ParseIssue(line_no, f"doc id of {len(doc[1])} digits is too long to read")
        elif fields is None:
            if line.strip():
                add(ParseIssue(line_no, f"content outside <doc> block: {line.strip()[:40]!r}"))
        elif defect is not None:
            pass  # the rest of a record already found bad
        elif open_tag is not None:
            if re.match(rf"^\s*</{open_tag}>\s*$", line):
                fields[open_tag] = " ".join(content)
                open_tag = None
            elif line.strip():
                content.append(line.strip())
        elif m := _INLINE_TAG.match(line):
            fields[m[1]] = m[2].strip()
        elif m := _BLOCK_OPEN.match(line):
            open_tag, content = m[1], []
        elif line.strip():
            defect = ParseIssue(line_no, f"doc id={fields['id']}: unrecognized line {line.strip()[:40]!r}")

    if fields is not None:
        add(_record(part, fields, rec_line, open_tag, None, defect))
    return pairs, issues


def write_lcsts(pairs: list[DocumentPair], stream):
    """Serialize back to the pseudo-XML block format, one tag per line."""
    for p in pairs:
        stream.write(f"<doc id={p.id}>\n")
        if p.human_label is not None:
            stream.write(f"<human_label>{p.human_label}</human_label>\n")
        stream.write(f"<summary>{p.summary}</summary>\n")
        stream.write(f"<short_text>{p.short_text}</short_text>\n")
        stream.write("</doc>\n")


def _json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_loads(text: str):
    """json.loads(text); JSON nested too deeply for the decoder's recursion
    raises a ValueError, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def json_lines(stream):
    """(line number, object) of each non-blank line of a JSON-lines text
    stream; a line that is not JSON, holds an integer too long for int() to
    read, is nested too deeply to read or is not a JSON object raises a
    ParseError naming its line."""
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json_loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {line_no}: invalid JSON ({exc})") from None
        except ValueError as exc:  # too many digits for int(), or too deeply nested
            raise ParseError(f"line {line_no}: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError(f"line {line_no}: expected a JSON object")
        yield line_no, obj


def read_jsonl(stream) -> list[DocumentPair]:
    """Read the JSONL interchange format from a text stream; any bad record
    raises ParseError naming its line."""
    pairs = []
    for line_no, obj in json_lines(stream):
        missing = [k for k in ("id", "text", "summary") if k not in obj]
        if missing:
            raise ParseError(f"line {line_no}: missing field(s) {', '.join(missing)}")
        if not _json_int(obj["id"]):
            raise ParseError(f"line {line_no}: id {obj['id']!r} is not an integer")
        label = obj.get("label")
        if label is not None and not _json_int(label):
            raise ParseError(f"line {line_no}: label {label!r} is not an integer")
        if not isinstance(obj["text"], str) or not isinstance(obj["summary"], str):
            raise ParseError(f"line {line_no}: text and summary must be strings")
        try:
            pairs.append(_pair(obj["id"], obj["text"], obj["summary"], label))
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
    return pairs


def write_jsonl(pairs: list[DocumentPair], stream):
    for p in pairs:
        obj = {"id": p.id, "text": p.short_text, "summary": p.summary}
        if p.human_label is not None:
            obj["label"] = p.human_label
        stream.write(json.dumps(obj, ensure_ascii=False) + "\n")


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a file beside path for writing; when the block ends it replaces
    path in one os.replace, and when the block raises it is removed, so
    path is never seen half-written."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def keep_heap():
    """Fix glibc's mmap and trim thresholds for the whole process at the values
    its own dynamic rule reaches after freeing one 32 MiB block (setting one
    alone turns that rule off), so that what a lexicon load or a batch frees
    stays mapped for the next one instead of being faulted in again; a no-op
    where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the most glibc accepts on 64-bit
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def write_rows(path, rows):
    """Write each dict as one line of JSON with sorted keys, through
    atomic_write."""
    with atomic_write(path) as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def filter_by_score(pairs: list[DocumentPair], min_score: int) -> list[DocumentPair]:
    """Keep pairs with human_label >= min_score, order preserved."""
    kept = []
    for p in pairs:
        if p.human_label is None:
            raise ValueError(f"pair id={p.id} has no human_label; cannot filter by score")
        if p.human_label >= min_score:
            kept.append(p)
    return kept


def split_indices(n: int, n_validation: int, seed: int) -> tuple[list[int], list[int]]:
    """Positions (train, validation) of a seeded split of n items.

    The validation set is the first n_validation positions of a
    Fisher-Yates shuffle of range(n) driven by MT19937(seed) with
    rejection-bounded sampling; both lists are ascending. Fully
    determined by (n, n_validation, seed).
    """
    if n_validation < 0:
        raise ValueError(f"n_validation must be >= 0, got {n_validation}")
    if n_validation >= n:
        raise ValueError(f"n_validation={n_validation} must be smaller than the corpus size {n}")
    indices = list(range(n))
    MT19937(seed).shuffle(indices)
    chosen = set(indices[:n_validation])
    return [i for i in range(n) if i not in chosen], sorted(chosen)


def split_train_validation(pairs: list[DocumentPair], n_validation: int, seed: int):
    """The split_indices split as (train, validation) lists, in corpus order."""
    train, valid = split_indices(len(pairs), n_validation, seed)
    return [pairs[i] for i in train], [pairs[i] for i in valid]
