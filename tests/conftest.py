import json
import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from rumourlab.errors import ValidationError
from rumourlab.featurize import SparseVector
from rumourlab.ingest import Thread, TweetRecord, _parse_timestamp

BASE_TIME = datetime(2020, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def make_record(id, text="hello world", minutes=0, **overrides) -> TweetRecord:
    fields = dict(verified=False, followers=10, following=5, tweet_count=100,
                  listed_count=1, account_created_year=2015, retweet_count=0,
                  like_count=0)
    fields.update(overrides)
    return TweetRecord(id=id, text=text,
                       created_at=BASE_TIME + timedelta(minutes=minutes), **fields)


def make_thread(id, label="nonrumour", text="hello world", n_replies=0,
                reply_text="a reply") -> Thread:
    source = make_record(id, text=text, label=label)
    replies = tuple(
        make_record(f"{id}r{i}", text=reply_text, minutes=i + 1, parent_id=id)
        for i in range(n_replies)
    )
    return Thread(source=source, replies=replies)


@pytest.fixture
def tmp_dataset(tmp_path):
    def write(records, name="data.jsonl"):
        from rumourlab.ingest import save_tweets

        path = tmp_path / name
        save_tweets(records, path)
        return path

    return write


def oracle_transform_tfidf(model, doc, use_raw_counts=False):
    """The per-document TF-IDF transform, one Counter and one sorted entry
    list per document: the reference `featurize.tfidf_rows` must match."""
    counts = Counter(token.lower() for token in doc)
    entries = []
    for term, count in counts.items():
        position = model.vocab.content_index(term)
        if position is None:
            continue
        value = float(count) if use_raw_counts else count * model.idf[position]
        entries.append((position, value))
    entries.sort()
    if not use_raw_counts and entries:
        norm = math.sqrt(sum(v * v for _, v in entries))
        entries = [(i, v / norm) for i, v in entries]
    return SparseVector(entries=tuple(entries))


_ORACLE_SCHEMA = {
    "id": str, "text": str, "created_at": str, "verified": bool,
    "followers": int, "following": int, "tweet_count": int, "listed_count": int,
    "account_created_year": int, "retweet_count": int, "like_count": int,
}
_ORACLE_KINDS = {str: "a string", bool: "true or false", int: "a non-negative integer"}


def oracle_record(line, current_year):
    """The record on one stripped, non-blank dataset line, or the message
    refusing it: `json.loads`, then one check per field in file order, then
    a keyword-built record. The combined test in `ingest.load_tweets` must
    accept exactly these lines, with the same messages."""
    try:
        fields = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return f"invalid record: {getattr(exc, 'msg', exc)}"
    if type(fields) is not dict:
        return "record is not a key-value object"
    for name, kind in _ORACLE_SCHEMA.items():
        value = fields.get(name)
        if type(value) is not kind or kind is int and not 0 <= value < 2**63:
            if name not in fields:
                return f"missing required field {name!r}"
            if kind is int and type(value) is int and value > 0:
                return f"{name} must be a non-negative integer below 2**63"
            return f"{name} must be {_ORACLE_KINDS[kind]}"
    for name in ("parent_id", "label"):
        value = fields.get(name)
        if value is not None and type(value) is not str:
            return f"{name} must be a string or null"
    for name in ("id", "parent_id"):
        value = fields.get(name) or ""
        if "\t" in value or "\n" in value or "\r" in value:
            return f"{name} must not hold a tab or line break"
    values = {name: fields[name] for name in _ORACLE_SCHEMA}
    try:
        values.update(created_at=_parse_timestamp(fields["created_at"]),
                      parent_id=fields.get("parent_id"), label=fields.get("label"))
        return TweetRecord(**values, current_year=current_year)
    except ValidationError as exc:
        return str(exc)
