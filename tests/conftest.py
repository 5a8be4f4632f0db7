import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from rumourlab.featurize import SparseVector
from rumourlab.ingest import Thread, TweetRecord

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
