"""Dataset ingestion: tweet records, reply threads, and stratified splits.

Dataset files are UTF-8 JSON-lines: one record per line with the fixed
field names documented in the README (`id`, `text`, `created_at`,
optional `parent_id`, optional `label`, plus user and engagement
metadata). Timestamps are ISO-8601 with an explicit UTC offset.

Lines stream through the C scanner, and one fused test of each line's
values accepts it; only a refused line goes through `json.loads` and the
schema walk, which name its first fault. Records are checked named
tuples, equal to the plain tuples of their values. Assembly remembers
the source of every id it resolves, so it walks no parent link twice.
"""

from __future__ import annotations

import json
import random
import re
from collections import namedtuple
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .config import check_setting
from .errors import ParseError, ValidationError, is_text, read_utf8, split_lines

RUMOUR = "rumour"
NONRUMOUR = "nonrumour"
LABELS = (RUMOUR, NONRUMOUR)

MIN_ACCOUNT_YEAR = 2006

SPLIT_FORMAT_VERSION = "rumourlab-split v1"
SPLIT_PARTS = ("train", "dev", "test")

# The JSON type of every required field, in file order. Types match
# exactly, so `true` is no integer, and integers lie in [0, 2**63).
_SCHEMA = {
    "id": str, "text": str, "created_at": str, "verified": bool,
    "followers": int, "following": int, "tweet_count": int, "listed_count": int,
    "account_created_year": int, "retweet_count": int, "like_count": int,
}
_KIND_NAMES = {str: "a string", bool: "true or false", int: "a non-negative integer"}
# Fields that may be absent or null, else strings.
_OPTIONAL = ("parent_id", "label")
# Run files hold ids one per line and beside tabs.
_has_break = re.compile("[\t\n\r]").search
_scan_once = json.JSONDecoder().scan_once
_schema_values = itemgetter(*_SCHEMA)


class TweetRecord(namedtuple("TweetRecord", [*_SCHEMA, *_OPTIONAL], defaults=(None, None))):
    """One dataset line: the `_SCHEMA` fields in order (`created_at` as a
    UTC datetime), then parent_id and label. Construction, `_replace`,
    copies and unpickling all run the checks; `current_year` is not kept,
    and None reads the clock."""

    __slots__ = ()

    def __new__(cls, *args, current_year: Optional[int] = None, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if current_year is None:
            current_year = datetime.now(timezone.utc).year
        if not MIN_ACCOUNT_YEAR <= self.account_created_year <= current_year:
            raise ValidationError(f"account_created_year {self.account_created_year} outside "
                                  f"[{MIN_ACCOUNT_YEAR}, {current_year}]")
        if not self.id:
            raise ValidationError("tweet id must be non-empty")
        if self.parent_id is not None and self.parent_id == self.id:
            raise ValidationError(f"tweet {self.id} lists itself as parent")
        if self.label is not None and self.label not in LABELS:
            raise ValidationError(f"tweet {self.id} has unknown label {self.label!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> TweetRecord:
        return cls(*iterable)


@dataclass(frozen=True)
class Thread:
    """A source tweet plus its replies in ascending creation order."""

    source: TweetRecord
    replies: tuple[TweetRecord, ...]

    def __post_init__(self):
        if self.source.parent_id is not None:
            raise ValidationError(f"thread source {self.source.id} has a parent")
        previous = self.source.created_at
        for reply in self.replies:
            if reply.created_at < self.source.created_at:
                raise ValidationError(f"reply {reply.id} predates source {self.source.id}")
            if reply.created_at < previous:
                raise ValidationError("replies not sorted by created_at")
            previous = reply.created_at

    @property
    def id(self) -> str:
        return self.source.id

    @property
    def label(self) -> Optional[str]:
        return self.source.label

    def tweets(self) -> tuple[TweetRecord, ...]:
        return (self.source,) + self.replies


@dataclass(frozen=True)
class AssemblyDiagnostics:
    """Bookkeeping from thread assembly."""

    orphan_replies: int
    unlabeled_sources: int


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[Thread, ...]
    dev: tuple[Thread, ...]
    test: tuple[Thread, ...]
    seed: int
    ratios: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0))

    def parts(self) -> dict[str, tuple[Thread, ...]]:
        return {"train": self.train, "dev": self.dev, "test": self.test}


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise ValidationError(f"created_at {raw!r} is not ISO-8601") from None
    if stamp.tzinfo is None:
        raise ValidationError(f"created_at {raw!r} lacks a UTC offset")
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError:
        raise ValidationError(f"created_at {raw!r} is out of range") from None


def _refuse(raw: bytes, current_year: int) -> Optional[TweetRecord]:
    """Raise for the first fault, in file order, of a line the fused test
    refused; a blank line gives None, and any other line its record."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"invalid UTF-8: {exc.reason}") from None
    if not line:
        return None
    try:
        fields = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError has .msg; an over-long integer or a too-deep
        # nesting raises a plain ValueError or RecursionError.
        raise ValidationError(f"invalid record: {getattr(exc, 'msg', exc)}") from None
    if type(fields) is not dict:
        raise ValidationError("record is not a key-value object")
    for name, kind in _SCHEMA.items():
        value = fields.get(name)
        if type(value) is not kind or kind is int and not 0 <= value < 2**63:
            if name not in fields:
                raise ValidationError(f"missing required field {name!r}")
            if kind is int and type(value) is int and value > 0:
                raise ValidationError(f"{name} must be a non-negative integer below 2**63")
            raise ValidationError(f"{name} must be {_KIND_NAMES[kind]}")
    for name in _OPTIONAL:
        value = fields.get(name)
        if value is not None and type(value) is not str:
            raise ValidationError(f"{name} must be a string or null")
    for name in ("id", "text", "parent_id"):
        if not is_text(fields.get(name) or ""):
            raise ValidationError(f"{name} holds an unpaired surrogate escape")
    for name in ("id", "parent_id"):
        if _has_break(fields.get(name) or ""):
            raise ValidationError(f"{name} must not hold a tab or line break")
    values = _schema_values(fields)
    return TweetRecord(*values[:2], _parse_timestamp(values[2]), *values[3:],
                       fields.get("parent_id"), fields.get("label"), current_year=current_year)


def load_tweets(path) -> list[TweetRecord]:
    """Read a JSON-lines dataset file, validating every record.

    Raises FileNotFoundError for a missing file or a path that is not a
    file, and ValidationError for malformed lines or duplicate ids; each
    such message starts with `<path> line N:`.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    records: list[TweetRecord] = []
    seen: set[str] = set()
    current_year = datetime.now(timezone.utc).year
    with path.open("rb") as handle:
        # Lines end at \n, \r or \r\n, as in errors.split_lines; each is decoded
        # on its own so that a bad byte is reported on the line that holds it.
        lines = (piece for chunk in handle for piece in chunk.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            try:
                try:
                    line = raw.decode().strip()
                    fields, end = _scan_once(line, 0)
                    (id_, text, created_at, verified, followers, following, tweets, listed, year,
                     retweets, likes) = _schema_values(fields)
                    parent_id, label = fields.get("parent_id"), fields.get("label")
                    # The counts, OR-ed, lie in [0, 2**63) only if each does.
                    accepted = (
                        end == len(line) and type(id_) is type(text) is type(created_at) is str
                        and type(verified) is bool and type(followers) is type(following)
                        is type(tweets) is type(listed) is type(year) is type(retweets)
                        is type(likes) is int
                        and 0 <= (followers | following | tweets | listed | year | retweets
                                  | likes) < 2**63
                        and MIN_ACCOUNT_YEAR <= year <= current_year
                        and id_ != "" and "\t" not in id_ and "\n" not in id_ and "\r" not in id_
                        and (parent_id is None or type(parent_id) is str and parent_id != id_
                             and "\t" not in parent_id and "\n" not in parent_id
                             and "\r" not in parent_id)
                        and (label is None or type(label) is str and label in LABELS)
                        # Only a \u escape makes a surrogate, so a line without "\\" has none.
                        and ("\\" not in line or is_text(id_ + text + (parent_id or ""))))
                except (ValueError, RecursionError, StopIteration, KeyError, TypeError):
                    accepted = False
                if accepted:
                    record = tuple.__new__(TweetRecord, (
                        id_, text, _parse_timestamp(created_at), verified, followers, following,
                        tweets, listed, year, retweets, likes, parent_id, label))
                else:
                    record = _refuse(raw, current_year)
                    if record is None:
                        continue
                if record.id in seen:
                    raise ValidationError(f"duplicate tweet id {record.id!r}")
            except ValidationError as exc:
                raise ValidationError(f"{path} line {line_no}: {exc}") from None
            seen.add(record.id)
            records.append(record)
    return records


def _timestamp_text(stamp: datetime) -> str:
    text = stamp.astimezone(timezone.utc).isoformat()
    return text.replace("+00:00", "Z")


def record_to_fields(record: TweetRecord) -> dict:
    """The JSON object of a record, with its keys in file order."""
    fields = {"id": record.id, "text": record.text,
              "created_at": _timestamp_text(record.created_at)}
    optional = zip(_OPTIONAL, record[len(_SCHEMA):])
    fields.update((name, value) for name, value in optional if value is not None)
    fields.update(zip(tuple(_SCHEMA)[3:], record[3:len(_SCHEMA)]))
    return fields


def save_tweets(records: Iterable[TweetRecord], path) -> None:
    """Write records as JSON lines; inverse of load_tweets."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_fields(record), ensure_ascii=False))
            handle.write("\n")


def _resolve_root(record: TweetRecord, by_id: dict, roots: dict) -> Optional[str]:
    """The source id `record`'s parent links lead to, None if they dangle; memoized in `roots`."""
    walked: dict[str, int] = {}
    while record is not None and record.id not in roots:
        if record.id in walked:
            cycle = [*walked][walked[record.id]:] + [record.id]
            raise ValidationError("cyclic parent links: " + " -> ".join(cycle))
        walked[record.id] = len(walked)
        record = by_id.get(record.parent_id)
    root = None if record is None else roots[record.id]
    roots.update(dict.fromkeys(walked, root))
    return root


def assemble_threads(
    records: Sequence[TweetRecord], source: Optional[str] = None,
) -> tuple[list[Thread], AssemblyDiagnostics]:
    """Group records into threads rooted at source tweets.

    Replies that point at another reply are re-parented to that reply's
    source, so every assembled thread is one level deep. Replies whose
    chain never reaches a known source are dropped and counted in the
    returned diagnostics. Replies sort by (created_at, id). Ids are unique,
    as `load_tweets` makes them. Errors start with `<source>: ` when the
    file the records came from is given.
    """
    try:
        return _assemble(records)
    except ValidationError as exc:
        if source is None:
            raise
        raise ValidationError(f"{source}: {exc}") from None


def _assemble(records: Sequence[TweetRecord]) -> tuple[list[Thread], AssemblyDiagnostics]:
    by_id = {record.id: record for record in records}
    sources = [record for record in records if record.parent_id is None]
    roots: dict[str, Optional[str]] = {source.id: source.id for source in sources}
    replies_by_root: dict[str, list[TweetRecord]] = {source.id: [] for source in sources}
    orphans = 0
    for record in records:
        if record.parent_id is None:
            continue
        if record.parent_id in roots:
            root = roots[record.id] = roots[record.parent_id]
        else:
            root = _resolve_root(record, by_id, roots)
        if root is None:
            orphans += 1
        else:
            replies_by_root[root].append(record)
    threads: list[Thread] = []
    unlabeled = 0
    by_time = attrgetter("created_at", "id")
    for source in sources:
        replies = replies_by_root[source.id]
        replies.sort(key=by_time)
        if source.label is None:
            unlabeled += 1
        threads.append(Thread(source=source, replies=tuple(replies)))
    return threads, AssemblyDiagnostics(orphan_replies=orphans, unlabeled_sources=unlabeled)


def _allocate(count: int, ratios: Sequence[float]) -> list[int]:
    """Largest-remainder allocation of `count` items across ratios."""
    exact = [count * r for r in ratios]
    counts = [int(x) for x in exact]
    remainder = count - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def split_dataset(
    threads: Sequence[Thread],
    ratios: Sequence[float],
    seed: int,
) -> DatasetSplit:
    """Stratified train/dev/test split, deterministic for a given seed.

    Every input thread must be labeled, and there must be one; each class
    is shuffled and allocated by largest remainder so per-class proportions
    stay within one thread of the global ratios. Invariant to input order.
    """
    ratios = tuple(float(r) for r in ratios)
    check_setting("ratios", ratios)
    if not threads:
        raise ValidationError("no labeled thread to split")
    by_label: dict[str, list[Thread]] = {}
    seen_ids: set[str] = set()
    for thread in threads:
        if thread.label is None:
            raise ValidationError(
                f"thread {thread.id} has no label; unlabeled threads cannot be split"
            )
        if thread.id in seen_ids:
            raise ValidationError(f"duplicate thread id {thread.id!r}")
        seen_ids.add(thread.id)
        by_label.setdefault(thread.label, []).append(thread)
    parts: dict[str, list[Thread]] = {name: [] for name in SPLIT_PARTS}
    rng = random.Random(seed)
    for label in sorted(by_label):
        group = sorted(by_label[label], key=lambda t: t.id)
        if len(group) < len(SPLIT_PARTS):
            raise ValidationError(
                f"class {label!r} has {len(group)} threads, "
                f"fewer than the {len(SPLIT_PARTS)} splits"
            )
        rng.shuffle(group)
        counts = _allocate(len(group), ratios)
        offset = 0
        for name, n in zip(SPLIT_PARTS, counts):
            parts[name].extend(group[offset:offset + n])
            offset += n
    return DatasetSplit(**{name: tuple(sorted(part, key=lambda t: t.id))
                           for name, part in parts.items()}, seed=seed, ratios=ratios)


def save_split(split: DatasetSplit, directory) -> None:
    """Write the split manifest: one id file per part with a shared header."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ratio_text = ",".join(f"{r:g}" for r in split.ratios)
    for name, threads in split.parts().items():
        lines = [
            f"# {SPLIT_FORMAT_VERSION}",
            f"# seed = {split.seed}",
            f"# ratios = {ratio_text}",
            f"# part = {name}",
        ]
        lines.extend(thread.id for thread in threads)
        (directory / f"{name}.ids").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _header_value(line: str, key: str) -> str:
    """The value of a `# <key> = <value>` manifest header line."""
    name, _, value = line.partition(" = ")
    if name != f"# {key}":
        raise ValueError(line)
    return value


def load_split(directory, threads: Sequence[Thread]) -> DatasetSplit:
    """Rebuild a DatasetSplit from a manifest directory and the thread pool;
    each part holds version, seed, ratios and part lines, then ids verbatim.
    Every part repeats the first part's seed and ratios lines, and no id
    is listed twice."""
    directory = Path(directory)
    by_id = {thread.id: thread for thread in threads}
    listed: dict[str, tuple[Path, int]] = {}
    parts: dict[str, tuple[Thread, ...]] = {}
    for name in SPLIT_PARTS:
        path = directory / f"{name}.ids"
        if not path.is_file():
            raise FileNotFoundError(f"split manifest part missing: {path}")
        lines = split_lines(read_utf8(path))
        header = (lines + [""] * 4)[:4]
        line_no = 1
        try:
            if header[0] != f"# {SPLIT_FORMAT_VERSION}":
                raise ValueError
            line_no = 2
            seed = int(_header_value(header[1], "seed"))
            line_no = 3
            ratios = tuple(float(r) for r in _header_value(header[2], "ratios").split(","))
            if len(ratios) != 3:
                raise ValueError
            line_no = 4
            if _header_value(header[3], "part") != name:
                raise ValueError
        except ValueError:
            raise ParseError(f"{path} line {line_no}: bad header {header[line_no - 1]!r}") from None
        if not parts:
            first_path, first_header = path, header
        for line_no in (2, 3):
            if header[line_no - 1] != first_header[line_no - 1]:
                raise ValidationError(f"{path} line {line_no}: {header[line_no - 1]!r} "
                                      f"differs from {first_path} line {line_no}")
        for line_no, thread_id in enumerate(lines[4:], start=5):
            if thread_id not in by_id:
                raise ValidationError(f"{path} line {line_no}: unknown thread id {thread_id!r}")
            if thread_id in listed:
                seen_path, seen_line = listed[thread_id]
                raise ValidationError(f"{path} line {line_no}: thread id {thread_id!r} "
                                      f"already listed in {seen_path} line {seen_line}")
            listed[thread_id] = (path, line_no)
        parts[name] = tuple(by_id[i] for i in lines[4:])
    return DatasetSplit(**parts, seed=seed, ratios=ratios)
