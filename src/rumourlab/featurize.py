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
from itertools import chain, repeat
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
        counts.update(map(str.lower, doc))
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
    if not any(train_docs):
        raise ValidationError("cannot fit TF-IDF on an empty corpus")
    vocab = build_vocabulary(train_docs, top_k)
    doc_count = len(train_docs)
    df = Counter()
    for doc in train_docs:
        df.update(set(map(str.lower, doc)))
    idf = np.zeros(vocab.content_size)
    for position, term in enumerate(vocab.terms):
        idf[position] = math.log((1 + doc_count) / (1 + df[term])) + 1.0
    return TfidfModel(vocab=vocab, idf=idf, doc_count=doc_count)


def tfidf_rows(model: TfidfModel, docs: Sequence[Sequence[str]],
               use_raw_counts: bool = False) -> SparseMatrix:
    """transform_tfidf of every document as the rows of one matrix. np.unique over
    doc * width + column counts terms in ascending column order, and each norm adds its
    row's squares in that order from 0.0, as the per-document sum did: the bits match."""
    width = model.vocab.content_size
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
    tokens = map(str.lower, chain.from_iterable(docs))
    ids = np.fromiter(map(model.vocab._index.get, tokens, repeat(UNK_ID)), dtype=np.intp)
    known = ids >= len(RESERVED)
    cells = np.repeat(np.arange(len(docs)), lengths)[known] * width + ids[known]
    cells, counts = np.unique(cells - len(RESERVED), return_counts=True)
    rows, cols = np.divmod(cells, width)
    if use_raw_counts:
        vals = counts.astype(float)
    else:
        vals = counts * model.idf[cols]
        vals = vals / np.sqrt(np.bincount(rows, weights=vals * vals))[rows]
    if not np.isfinite(vals).all():
        raise ValidationError(f"non-finite value at index {cols[~np.isfinite(vals)][0]}")
    return SparseMatrix(shape=(len(docs), width), rows=rows, cols=cols, vals=vals)


def row_vectors(matrix: SparseMatrix) -> list[SparseVector]:
    """The rows of a matrix whose entries run in row order, one vector each."""
    ends = np.cumsum(np.bincount(matrix.rows, minlength=matrix.shape[0])).tolist()
    entries = list(zip(matrix.cols.tolist(), matrix.vals.tolist()))
    return [SparseVector(tuple(entries[start:end])) for start, end in zip([0] + ends, ends)]


def transform_tfidf(
    model: TfidfModel, doc: Sequence[str], use_raw_counts: bool = False
) -> SparseVector:
    """tf * idf per in-vocabulary term, scaled to unit Euclidean norm.

    Out-of-vocabulary terms are dropped; a document with no in-vocabulary
    terms yields an empty vector. With use_raw_counts the entries are the
    raw term counts instead (no idf, no norm), for ablation runs.
    """
    return row_vectors(tfidf_rows(model, [doc], use_raw_counts))[0]


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
    """Per-column z-score statistics fitted on training data. The first
    `scaled` columns (all when None) carry fitted statistics; the rest
    keep mean 0 and std 1, and the transforms copy them."""

    mean: np.ndarray
    std: np.ndarray
    scaled: Optional[int] = None

    def __post_init__(self):
        if self.scaled is None:
            object.__setattr__(self, "scaled", len(self.mean))

    @classmethod
    def fit(cls, matrix: np.ndarray, n_scaled: Optional[int] = None) -> "Standardizer":
        """Fit the statistics of the columns before n_scaled (all when None);
        columns at or past it keep identity statistics (already-normalized
        blocks stay untouched). The bytes equal those of a full-width fit."""
        width = matrix.shape[1]
        scaled = matrix[:, :n_scaled].shape[1]
        # numpy sums a lone column pairwise but each column of a wider block
        # row by row, as it does over the full width: take at least two.
        block = matrix[:, :max(scaled, min(width, 2))]
        mean, std = np.zeros(width), np.ones(width)
        mean[:scaled] = block.mean(axis=0)[:scaled]
        spread = block.std(axis=0)[:scaled]
        std[:scaled] = np.where(spread > 0, spread, 1.0)
        return cls(mean=mean, std=std, scaled=scaled)

    def transform(self, matrix: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """(matrix - mean) / std, written into `out` when given."""
        n = self.scaled
        out = np.empty(np.shape(matrix)) if out is None else out
        np.subtract(matrix[..., :n], self.mean[:n], out=out[..., :n])
        out[..., :n] /= self.std[:n]
        out[..., n:] = matrix[..., n:]
        return out

    def inverse(self, matrix: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """matrix * std + mean, written into `out` (which may be `matrix`) when given."""
        n = self.scaled
        out = np.empty(np.shape(matrix)) if out is None else out
        np.multiply(matrix[..., :n], self.std[:n], out=out[..., :n])
        out[..., :n] += self.mean[:n]
        # Adding 0.0 turns -0.0 into 0.0, as x * 1.0 + 0.0 does; a copy would not.
        np.add(matrix[..., n:], 0.0, out=out[..., n:])
        return out


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows, one row against the later rows at
    a time, so that no m x m x d difference tensor is made. Each pair is
    computed once and mirrored: p_i - p_j is exactly -(p_j - p_i)."""
    distances = np.zeros((len(points), len(points)))
    for i in range(len(points) - 1):
        distances[i, i + 1:] = np.linalg.norm(points[i] - points[i + 1:], axis=1)
        distances[i + 1:, i] = distances[i, i + 1:]
    return distances


def smote_neighbours(points: np.ndarray, k: int) -> np.ndarray:
    """The (m, k) table of each point's k nearest other points by
    Euclidean distance, nearest first, ties resolved by point index."""
    distances = _pairwise_distances(points)
    np.fill_diagonal(distances, np.inf)
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


def smote_points(points: np.ndarray, neighbours: np.ndarray, n_new: int, seed: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """n_new synthetic rows x + u * (nn - x), written into `out` when given.
    Each row draws its base point x, then which of x's neighbours is nn,
    then u uniform in [0, 1), from one default_rng(seed) in that order."""
    rng = np.random.default_rng(seed)
    base, slot = np.empty(n_new, dtype=np.intp), np.empty(n_new, dtype=np.intp)
    u = np.empty((n_new, 1))
    for i in range(n_new):
        base[i] = rng.integers(len(points))
        slot[i] = rng.integers(neighbours.shape[1])
        u[i] = rng.random()
    out = np.empty((n_new, points.shape[1])) if out is None else out
    origin = points[base]
    np.subtract(points[neighbours[base, slot]], origin, out=out)
    out *= u
    out += origin
    return out


def smote_oversample(
    minority: Sequence[np.ndarray], k: int, n_new: int, seed: int
) -> list[np.ndarray]:
    """Synthetic minority points by interpolation toward one of the k
    nearest Euclidean neighbours: x + u * (nn - x) with u uniform in
    [0, 1). Deterministic for a given seed; returns exactly n_new points.
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
    return list(smote_points(points, smote_neighbours(points, k), n_new, seed))


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
    seen: set[str] = set()
    for line_no, term in enumerate(lines[3:], start=4):
        if term in seen:
            raise ParseError(f"{path} line {line_no}: vocabulary term {term!r} repeated")
        seen.add(term)
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
    """The TF-IDF model saved by save_vocabulary; the idf file must give
    each vocabulary term exactly once."""
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
    idf = np.full(vocab.content_size, np.nan)
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
        if not np.isnan(idf[position]):
            raise ParseError(f"{idf_path} line {line_no}: idf term {term!r} repeated")
        idf[position] = weight
    missing = np.flatnonzero(np.isnan(idf))
    if len(missing):
        raise ParseError(f"{idf_path} line {len(lines)}: the file ends without an idf for "
                         f"vocabulary term {vocab.terms[missing[0]]!r}")
    return TfidfModel(vocab=vocab, idf=idf, doc_count=doc_count)
