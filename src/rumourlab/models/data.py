"""Builders that turn reply threads into model inputs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..featurize import (HANDCRAFTED_WIDTH, TfidfModel, Vocabulary, extract_handcrafted,
                         stack_rows, transform_tfidf)
from ..ingest import RUMOUR, Thread
from ..textproc import normalize, tokenize


def thread_tokens(thread: Thread) -> list[str]:
    """Each tweet's tokens in time order; no token spans two tweets."""
    return [token for tweet in thread.tweets() for token in tokenize(normalize(tweet.text))]


def tweet_docs(threads: Sequence[Thread]) -> list[list[str]]:
    """One token document per tweet (sources and replies alike)."""
    return [
        tokenize(normalize(tweet.text))
        for thread in threads
        for tweet in thread.tweets()
    ]


def thread_docs(threads: Sequence[Thread]) -> list[list[str]]:
    return [thread_tokens(thread) for thread in threads]


def labels01(threads: Sequence[Thread]) -> np.ndarray:
    """1 for rumour, 0 for nonrumour."""
    return np.array([1 if t.label == RUMOUR else 0 for t in threads], dtype=int)


def lstm_inputs(
    threads: Sequence[Thread], vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Token-id matrix and contiguous-prefix mask, one row per thread."""
    ids = np.full((len(threads), max_len), vocab.pad_id, dtype=int)
    mask = np.zeros((len(threads), max_len))
    for row, thread in enumerate(threads):
        tokens = thread_tokens(thread)[:max_len]
        for col, token in enumerate(tokens):
            found = vocab.id_of(token.lower())
            ids[row, col] = vocab.unk_id if found is None else found
        mask[row, :len(tokens)] = 1.0
    return ids, mask


def handcrafted_matrix(threads: Sequence[Thread]) -> np.ndarray:
    """The eight source-tweet features per thread."""
    rows = [extract_handcrafted(t.source) for t in threads]
    return np.stack(rows) if rows else np.zeros((0, HANDCRAFTED_WIDTH))


def tfidf_matrix(model: TfidfModel, threads: Sequence[Thread]) -> np.ndarray:
    """Dense unit-norm TF-IDF rows over whole-thread documents."""
    rows = [transform_tfidf(model, doc) for doc in thread_docs(threads)]
    return stack_rows(rows, model.vocab.content_size).to_dense()
