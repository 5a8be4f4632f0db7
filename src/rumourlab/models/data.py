"""Builders that turn reply threads into model inputs."""

from __future__ import annotations

from itertools import chain, islice
from typing import Sequence

import numpy as np

from ..featurize import (HANDCRAFTED_WIDTH, TfidfModel, Vocabulary, extract_handcrafted,
                         tfidf_rows)
from ..ingest import RUMOUR, Thread
from ..textproc import normalize, tokenize

TokenTable = dict[str, list[str]]


def token_table(threads: Sequence[Thread]) -> TokenTable:
    """Each tweet's tokens by tweet id (unique in a dataset), lowercased as
    every reader lowercases, with one str object per distinct term."""
    terms: dict[str, str] = {}
    return {tweet.id: [terms.setdefault(token, token)
                       for token in map(str.lower, tokenize(normalize(tweet.text)))]
            for thread in threads for tweet in thread.tweets()}


def thread_tokens(thread: Thread, table: TokenTable | None = None) -> list[str]:
    """Each tweet's lowercased tokens in time order; no token spans two tweets."""
    table = token_table([thread]) if table is None else table
    return [token for tweet in thread.tweets() for token in table[tweet.id]]


def tweet_docs(threads: Sequence[Thread], table: TokenTable | None = None) -> list[list[str]]:
    """One token document per tweet (sources and replies alike)."""
    table = token_table(threads) if table is None else table
    return [table[tweet.id] for thread in threads for tweet in thread.tweets()]


def thread_docs(threads: Sequence[Thread], table: TokenTable | None = None) -> list[list[str]]:
    """One token document per thread, over one token table for all of them."""
    table = token_table(threads) if table is None else table
    return [thread_tokens(thread, table) for thread in threads]


def labels01(threads: Sequence[Thread]) -> np.ndarray:
    """1 for rumour, 0 for nonrumour."""
    return np.array([1 if t.label == RUMOUR else 0 for t in threads], dtype=int)


def lstm_inputs(
    threads: Sequence[Thread], vocab: Vocabulary, max_len: int, table: TokenTable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Token-id matrix and contiguous-prefix mask, one row per thread."""
    table = token_table(threads) if table is None else table
    ids = np.full((len(threads), max_len), vocab.pad_id, dtype=int)
    mask = np.zeros((len(threads), max_len))
    for row, thread in enumerate(threads):
        own = (table[tweet.id] for tweet in thread.tweets())
        tokens = list(islice(chain.from_iterable(own), max_len))
        for col, token in enumerate(tokens):
            found = vocab.id_of(token)
            ids[row, col] = vocab.unk_id if found is None else found
        mask[row, :len(tokens)] = 1.0
    return ids, mask


def handcrafted_matrix(threads: Sequence[Thread]) -> np.ndarray:
    """The eight source-tweet features per thread."""
    rows = [extract_handcrafted(t.source) for t in threads]
    return np.stack(rows) if rows else np.zeros((0, HANDCRAFTED_WIDTH))


def tfidf_matrix(model: TfidfModel, threads: Sequence[Thread],
                 table: TokenTable | None = None) -> np.ndarray:
    """Dense unit-norm TF-IDF rows over whole-thread documents."""
    return tfidf_rows(model, thread_docs(threads, table)).to_dense()
