"""Synthetic thread corpora for tests, the self-test command, and demos.

The planted-signal corpus makes the rumour class perfectly identifiable:
a thread is a rumour exactly when its tweets contain the marker token,
so a working classifier can reach perfect accuracy.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from .ingest import NONRUMOUR, RUMOUR, Thread, TweetRecord, assemble_threads

MARKER = "wombatflux"

_WORDS = (
    "people say the new report shows cases are rising in the city and "
    "officials urge everyone to stay calm wash hands wear masks avoid "
    "crowds while researchers study the outbreak data from hospitals "
    "daily numbers keep changing experts warn against panic buying food "
    "supplies online posts spread quickly today"
).split()


def _user(rng: np.random.Generator) -> dict:
    return dict(
        verified=bool(rng.random() < 0.2),
        followers=int(rng.integers(0, 5000)),
        following=int(rng.integers(0, 2000)),
        tweet_count=int(rng.integers(1, 20000)),
        listed_count=int(rng.integers(0, 50)),
        account_created_year=int(rng.integers(2007, 2021)),
    )


def _text(rng: np.random.Generator, is_rumour: bool) -> str:
    words = list(rng.choice(_WORDS, size=int(rng.integers(5, 12))))
    if is_rumour:
        words.insert(int(rng.integers(0, len(words) + 1)), MARKER)
    return " ".join(words)


def make_planted_records(
    n_threads: int = 200,
    rumour_rate: float = 0.5,
    seed: int = 0,
    max_replies: int = 3,
    labeled: bool = True,
) -> list[TweetRecord]:
    """Flat records for n_threads threads; rumour iff the marker token
    appears in the thread's tweets."""
    rng = np.random.default_rng(seed)
    records: list[TweetRecord] = []
    base = datetime(2020, 1, 1, tzinfo=timezone.utc)
    current_year = datetime.now(timezone.utc).year
    for t in range(n_threads):
        is_rumour = rng.random() < rumour_rate
        label = (RUMOUR if is_rumour else NONRUMOUR) if labeled else None
        source_id = f"t{t:05d}"
        created = base + timedelta(hours=int(rng.integers(0, 24 * 500)))
        records.append(TweetRecord(
            id=source_id,
            text=_text(rng, is_rumour),
            created_at=created,
            **_user(rng),
            retweet_count=int(rng.integers(0, 100)),
            like_count=int(rng.integers(0, 300)),
            label=label,
            current_year=current_year,
        ))
        for r in range(int(rng.integers(0, max_replies + 1))):
            records.append(TweetRecord(
                id=f"{source_id}r{r}",
                text=_text(rng, is_rumour),
                created_at=created + timedelta(minutes=5 * (r + 1)),
                **_user(rng),
                retweet_count=int(rng.integers(0, 20)),
                like_count=int(rng.integers(0, 50)),
                parent_id=source_id,
                current_year=current_year,
            ))
    return records


def make_planted_threads(
    n_threads: int = 200,
    rumour_rate: float = 0.5,
    seed: int = 0,
    max_replies: int = 3,
) -> list[Thread]:
    records = make_planted_records(n_threads, rumour_rate, seed, max_replies)
    threads, _ = assemble_threads(records)
    return threads
