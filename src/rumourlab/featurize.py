"""Feature construction: vocabulary and TF-IDF models, the eight
handcrafted tweet features, SMOTE oversampling, and class weights.

Vocabularies reserve ids 0/1/2 for padding, unknown, and separator
tokens; content terms start at id 3. TF-IDF uses the smoothed inverse
document frequency ln((1 + N) / (1 + df)) + 1 and unit-norm scaling.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError, read_utf8, split_lines
from .gradengine.sparse import SparseMatrix
from .ingest import TweetRecord

PAD_ID = 0
UNK_ID = 1
SEP_ID = 2
RESERVED = ("<pad>", "<unk>", "<sep>")


@dataclass(frozen=True)
class Vocabulary:
    """Ordered lowercase content terms behind the three reserved ids."""

    terms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {term: i + len(RESERVED) for i, term in enumerate(self.terms)}
        )

    pad_id = PAD_ID
    unk_id = UNK_ID
    sep_id = SEP_ID

    @property
    def size(self) -> int:
        """Total id count including the reserved ids."""
        return len(self.terms) + len(RESERVED)

    @property
    def content_size(self) -> int:
        return len(self.terms)

    def id_of(self, term: str) -> Optional[int]:
        return self._index.get(term)

    def content_index(self, term: str) -> Optional[int]:
        """Position among content terms (id - 3); None when absent."""
        found = self._index.get(term)
        return None if found is None else found - len(RESERVED)


def build_vocabulary(docs: Iterable[Sequence[str]], cap: int) -> Vocabulary:
    """Top `cap` lowercase terms by total corpus frequency, ties broken
    lexicographically."""
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(token.lower() for token in doc)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return Vocabulary(terms=tuple(term for term, _ in ranked[:cap]))


@dataclass(frozen=True)
class SparseVector:
    """Index-value entries in strictly ascending index order."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        last = -1
        for index, value in self.entries:
            if index <= last:
                raise ValidationError("sparse vector indices must strictly ascend")
            if not math.isfinite(value):
                raise ValidationError(f"non-finite value at index {index}")
            last = index


def stack_rows(vectors: Sequence[SparseVector], width: int) -> SparseMatrix:
    """One `len(vectors)` x `width` matrix whose row r lists the entries
    of vectors[r] in their order."""
    entries = [entry for vector in vectors for entry in vector.entries]
    counts = [len(vector.entries) for vector in vectors]
    return SparseMatrix(shape=(len(vectors), width),
                        rows=np.repeat(np.arange(len(vectors)), counts),
                        cols=np.array([index for index, _ in entries], dtype=int),
                        vals=np.array([value for _, value in entries], dtype=float))


@dataclass(frozen=True)
class TfidfModel:
    vocab: Vocabulary
    idf: np.ndarray
    doc_count: int

    def __post_init__(self):
        if len(self.idf) != self.vocab.content_size:
            raise ValidationError("idf length must match vocabulary content size")


def fit_tfidf(train_docs: Sequence[Sequence[str]], top_k: int) -> TfidfModel:
    """Build the top_k vocabulary and smoothed idf weights from documents
    of tokens. Requires at least one non-empty document."""
    docs = [[token.lower() for token in doc] for doc in train_docs]
    if not any(docs):
        raise ValidationError("cannot fit TF-IDF on an empty corpus")
    vocab = build_vocabulary(docs, top_k)
    doc_count = len(docs)
    df = Counter()
    for doc in docs:
        df.update(set(doc))
    idf = np.zeros(vocab.content_size)
    for position, term in enumerate(vocab.terms):
        idf[position] = math.log((1 + doc_count) / (1 + df[term])) + 1.0
    return TfidfModel(vocab=vocab, idf=idf, doc_count=doc_count)


def transform_tfidf(
    model: TfidfModel, doc: Sequence[str], use_raw_counts: bool = False
) -> SparseVector:
    """tf * idf per in-vocabulary term, scaled to unit Euclidean norm.

    Out-of-vocabulary terms are dropped; a document with no in-vocabulary
    terms yields an empty vector. With use_raw_counts the entries are the
    raw term counts instead (no idf, no norm), for ablation runs.
    """
    counts: Counter[str] = Counter(token.lower() for token in doc)
    entries: list[tuple[int, float]] = []
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


HANDCRAFTED_WIDTH = 8


def extract_handcrafted(tweet: TweetRecord) -> np.ndarray:
    """The HANDCRAFTED_WIDTH numeric features, in the fixed documented
    order: retweet count, like count, account creation year, verified
    flag, followers, following, tweet count, listed count."""
    return np.array([
        float(tweet.retweet_count),
        float(tweet.like_count),
        float(tweet.account_created_year),
        1.0 if tweet.verified else 0.0,
        float(tweet.followers),
        float(tweet.following),
        float(tweet.tweet_count),
        float(tweet.listed_count),
    ])


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score statistics fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, matrix: np.ndarray, n_scaled: Optional[int] = None) -> "Standardizer":
        """Fit column statistics; columns at or past n_scaled keep
        identity statistics (already-normalized blocks stay untouched)."""
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        if n_scaled is not None:
            mean[n_scaled:] = 0.0
            std[n_scaled:] = 1.0
        return cls(mean=mean, std=std)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.mean) / self.std

    def inverse(self, matrix: np.ndarray) -> np.ndarray:
        return matrix * self.std + self.mean


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows, one row at a time so that no
    m x m x d difference tensor is made."""
    return np.stack([np.linalg.norm(p - points, axis=1) for p in points])


def smote_oversample(
    minority: Sequence[np.ndarray], k: int, n_new: int, seed: int
) -> list[np.ndarray]:
    """Synthetic minority points by interpolation toward one of the k
    nearest Euclidean neighbours: x + u * (nn - x) with u uniform in
    [0, 1]. Deterministic for a given seed; returns exactly n_new points.
    """
    points = np.asarray(list(minority), dtype=float)
    if points.ndim != 2 or len(points) < 2:
        raise ValidationError("SMOTE needs at least two minority points")
    if k < 1 or k > len(points) - 1:
        raise ValidationError(
            f"k must be in [1, {len(points) - 1}] for {len(points)} points"
        )
    if n_new < 0:
        raise ValidationError("n_new must be non-negative")
    # Neighbour lists are precomputed; ties resolve by point index.
    distances = _pairwise_distances(points)
    np.fill_diagonal(distances, np.inf)
    neighbours = np.argsort(distances, axis=1, kind="stable")[:, :k]
    rng = np.random.default_rng(seed)
    synthetic: list[np.ndarray] = []
    for _ in range(n_new):
        base = rng.integers(len(points))
        partner = neighbours[base][rng.integers(k)]
        u = rng.random()
        synthetic.append(points[base] + u * (points[partner] - points[base]))
    return synthetic


def compute_class_weights(
    labels: Sequence[str], classes: Optional[Sequence[str]] = None
) -> dict[str, float]:
    """Inverse-frequency weights: N / (C * count(c)) per class c.

    When `classes` is given, every listed class must occur in `labels`.
    Balanced data yields weight 1 for every class.
    """
    counts = Counter(labels)
    if classes is None:
        classes = sorted(counts)
    missing = [c for c in classes if counts[c] == 0]
    if missing:
        raise ValidationError(f"no examples of class(es): {missing}")
    total = len(labels)
    n_classes = len(classes)
    return {c: total / (n_classes * counts[c]) for c in classes}


def save_terms(vocab: Vocabulary, path) -> None:
    """Persist terms: the three reserved-id lines, then one term per
    line at position id - 3."""
    lines = list(RESERVED) + list(vocab.terms)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_terms(path) -> Vocabulary:
    lines = split_lines(read_utf8(path))
    if tuple(lines[:3]) != RESERVED:
        raise ValidationError(f"{path} line 1: vocabulary file lacks the reserved-id header")
    return Vocabulary(terms=tuple(lines[3:]))


def save_vocabulary(model: TfidfModel, vocab_path, idf_path) -> None:
    """Persist terms and idf weights (term<TAB>idf, full precision)."""
    save_terms(model.vocab, vocab_path)
    idf_lines = [
        f"{term}\t{repr(float(model.idf[i]))}"
        for i, term in enumerate(model.vocab.terms)
    ]
    header = f"# doc_count = {model.doc_count}"
    Path(idf_path).write_text("\n".join([header] + idf_lines) + "\n", encoding="utf-8")


def load_vocabulary(vocab_path, idf_path) -> TfidfModel:
    vocab = load_terms(vocab_path)
    lines = split_lines(read_utf8(idf_path))
    # Only the first line is the header: later lines may be hashtag terms.
    key, _, count = lines[0].partition(" = ") if lines else ("", "", "")
    try:
        if key != "# doc_count" or not count.isdecimal():
            raise ValueError(count)
        doc_count = int(count)  # over 4,300 digits raise ValueError
    except ValueError:
        raise ParseError(f"{idf_path} line 1: expected the '# doc_count = N' header") from None
    idf = np.zeros(vocab.content_size)
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            term, value = line.split("\t")
            weight = float(value)
            if not math.isfinite(weight):
                raise ValueError(value)
        except ValueError:
            raise ParseError(f"{idf_path} line {line_no}: expected term<TAB>idf") from None
        position = vocab.content_index(term)
        if position is None:
            raise ParseError(f"{idf_path} line {line_no}: idf term {term!r} not in vocabulary")
        idf[position] = weight
    return TfidfModel(vocab=vocab, idf=idf, doc_count=doc_count)
