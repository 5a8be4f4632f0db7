from datetime import datetime, timedelta, timezone

import pytest

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
