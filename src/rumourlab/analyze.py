"""Analysis suite over labeled tweets: attribute histograms, monthly
top-term tables, lexicon emotion scores, sentiment intensity, and
monthly time series.

Emotion and valence lexicons ship as versioned data files
(``word<TAB>emotion`` and ``word<TAB>valence``); all scoring is defined
over whatever lexicon is loaded. Sentiment scoring follows the usual
intensity-analyzer rules in compact form: a negator within the three
preceding tokens multiplies a word's valence by -0.74, each booster in
that window adds 0.293 toward the valence's sign, up to three
exclamation marks amplify the total away from zero, and the compound
score is S / sqrt(S^2 + 15).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from .errors import ValidationError
from .ingest import LABELS, TweetRecord
from .textproc import count_attributes, data_rows, is_word_token, normalize, stopword_list, tokenize

_DATA_DIR = Path(__file__).parent / "data"

EMOTIONS = ("happy", "angry", "surprise", "sad", "fear")
# Ties between equal top scores resolve in this fixed order.
EMOTION_TIE_ORDER = ("angry", "fear", "happy", "sad", "surprise")
NO_EMOTION = "none"

NEGATION_SCALAR = -0.74
BOOSTER_INCREMENT = 0.293
EXCLAMATION_INCREMENT = 0.292
MAX_EXCLAMATIONS = 3
COMPOUND_ALPHA = 15.0

NEGATORS = frozenset([
    "not", "no", "never", "none", "nobody", "nothing", "neither", "nor",
    "nowhere", "cannot", "cant", "can't", "dont", "don't", "doesnt",
    "doesn't", "didnt", "didn't", "isnt", "isn't", "wasnt", "wasn't",
    "arent", "aren't", "werent", "weren't", "wont", "won't", "wouldnt",
    "wouldn't", "shouldnt", "shouldn't", "couldnt", "couldn't", "aint",
    "ain't", "hardly", "barely", "scarcely", "without", "rarely", "seldom",
])

BOOSTERS = frozenset([
    "very", "really", "extremely", "absolutely", "completely", "totally",
    "utterly", "incredibly", "remarkably", "exceptionally", "especially",
    "particularly", "deeply", "enormously", "entirely", "extraordinarily",
    "highly", "hugely", "intensely", "majorly", "purely", "so", "substantially",
    "thoroughly", "tremendously", "unbelievably", "amazingly", "awfully",
    "decidedly", "frickin", "fricking", "friggin", "frigging", "fully",
])

# Bin edges per attribute; the final right edge is open (infinity).
HISTOGRAM_EDGES: dict[str, tuple[float, ...]] = {
    "words": (0, 10, 20, 30, 40, 50, 75, 100, math.inf),
    "stopwords": (0, 5, 10, 15, 20, 30, 50, math.inf),
    "urls": (0, 1, 2, 3, 5, math.inf),
    "emojis": (0, 1, 2, 3, 5, math.inf),
    "hashtags": (0, 1, 2, 3, 5, 10, math.inf),
    "mentions": (0, 1, 2, 3, 5, 10, math.inf),
}


@lru_cache(maxsize=1)
def load_emotion_lexicon() -> dict[str, str]:
    """The bundled word -> emotion lexicon, words lowercased."""
    lexicon: dict[str, str] = {}
    for word, emotion in data_rows(_DATA_DIR / "emotion_lexicon.tsv"):
        if emotion not in EMOTIONS:
            raise ValidationError(f"lexicon word {word!r} has unknown emotion {emotion!r}")
        lexicon[word.lower()] = emotion
    return lexicon


@lru_cache(maxsize=1)
def load_valence_lexicon() -> dict[str, float]:
    """The bundled word -> valence lexicon, words lowercased."""
    lexicon: dict[str, float] = {}
    for word, value in data_rows(_DATA_DIR / "valence_lexicon.tsv"):
        valence = float(value)
        if not -4.0 <= valence <= 4.0:
            raise ValidationError(f"valence for {word!r} outside [-4, 4]")
        lexicon[word.lower()] = valence
    return lexicon


@dataclass(frozen=True)
class EmotionScores:
    happy: float
    angry: float
    surprise: float
    sad: float
    fear: float
    label: str

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in EMOTIONS}


def score_emotions(text: str, lexicon: Optional[dict[str, str]] = None) -> EmotionScores:
    """Share of matched lexicon tokens per emotion; the label is the
    argmax, ties resolved by the fixed order, `none` when nothing
    matches."""
    lexicon = lexicon if lexicon is not None else load_emotion_lexicon()
    counts = Counter()
    for token in tokenize(normalize(text)):
        emotion = lexicon.get(token.lower())
        if emotion is not None:
            counts[emotion] += 1
    total = sum(counts.values())
    if total == 0:
        return EmotionScores(0.0, 0.0, 0.0, 0.0, 0.0, NO_EMOTION)
    scores = {emotion: counts[emotion] / total for emotion in EMOTIONS}
    label = max(EMOTION_TIE_ORDER, key=lambda e: scores[e])
    return EmotionScores(label=label, **scores)


@dataclass(frozen=True)
class SentimentScores:
    pos: float
    neu: float
    neg: float
    compound: float


def _adjusted_valences(tokens: Sequence[str], lexicon: dict[str, float]) -> list[float]:
    lowered = [t.lower() for t in tokens]
    adjusted = []
    for i, token in enumerate(lowered):
        valence = lexicon.get(token)
        if valence is None:
            adjusted.append(0.0)
            continue
        window = lowered[max(0, i - 3):i]
        if valence != 0.0:
            boosts = sum(1 for w in window if w in BOOSTERS)
            valence += math.copysign(BOOSTER_INCREMENT, valence) * boosts
        if any(w in NEGATORS for w in window):
            valence *= NEGATION_SCALAR
        adjusted.append(valence)
    return adjusted


def score_sentiment(text: str, lexicon: Optional[dict[str, float]] = None) -> SentimentScores:
    """Compound intensity in (-1, 1) plus positive/neutral/negative
    shares that always sum to one."""
    lexicon = lexicon if lexicon is not None else load_valence_lexicon()
    tokens = tokenize(normalize(text))
    adjusted = _adjusted_valences(tokens, lexicon)
    if not adjusted:
        return SentimentScores(pos=0.0, neu=1.0, neg=0.0, compound=0.0)
    total = sum(adjusted)
    amplifier = min(text.count("!"), MAX_EXCLAMATIONS) * EXCLAMATION_INCREMENT
    if total > 0:
        total += amplifier
    elif total < 0:
        total -= amplifier
    compound = total / math.sqrt(total * total + COMPOUND_ALPHA)
    pos_sum = sum(v + 1.0 for v in adjusted if v > 0)
    neg_sum = sum(abs(v) + 1.0 for v in adjusted if v < 0)
    neu_count = float(sum(1 for v in adjusted if v == 0.0))
    mass = pos_sum + neg_sum + neu_count
    return SentimentScores(
        pos=pos_sum / mass, neu=neu_count / mass, neg=neg_sum / mass,
        compound=compound,
    )


@dataclass(frozen=True)
class AttributeHistogram:
    attribute: str
    label: str
    edges: tuple[float, ...]
    counts: tuple[int, ...]


def attribute_histograms(
    labeled: Sequence[tuple[TweetRecord, str]],
) -> list[AttributeHistogram]:
    """Twelve histograms: the six surface attributes for each class,
    binned with the fixed documented edges."""
    word_kinds: dict[str, int] = {}  # one entry per distinct token, for this call only
    tallies: dict[tuple[str, str], list[int]] = {
        (attribute, label): [0] * (len(edges) - 1)
        for attribute, edges in HISTOGRAM_EDGES.items()
        for label in LABELS
    }
    for record, label in labeled:
        if label not in LABELS:
            raise ValidationError(f"tweet {record.id}: unknown label {label!r}")
        counts = count_attributes(record.text, word_kinds)
        for attribute, edges in HISTOGRAM_EDGES.items():
            tallies[(attribute, label)][bisect_right(edges, getattr(counts, attribute)) - 1] += 1
    return [
        AttributeHistogram(attribute=attribute, label=label,
                           edges=HISTOGRAM_EDGES[attribute],
                           counts=tuple(tallies[(attribute, label)]))
        for attribute in HISTOGRAM_EDGES
        for label in LABELS
    ]


def _month_key(record: TweetRecord) -> str:
    stamp = record.created_at
    return f"{stamp.year:04d}-{stamp.month:02d}"


def content_terms(text: str, token_terms: Optional[dict[str, str]] = None) -> list[str]:
    """Lowercase topic-bearing terms: word tokens that are not stopwords,
    plus hashtag bodies. `token_terms`, a caller's table of each distinct
    token's term ("" for a token that gives none) kept across calls, is
    filled with the tokens it has not met yet."""
    token_terms = {} if token_terms is None else token_terms
    stopwords = stopword_list()
    tokens = tokenize(normalize(text))
    for token in set(tokens).difference(token_terms):
        term = (token[1:] if token.startswith("#") and len(token) > 1
                else token if is_word_token(token) else "").lower()
        token_terms[token] = "" if term in stopwords else term
    return list(filter(None, map(token_terms.__getitem__, tokens)))


def _remove_excluded(terms: list[str], phrases: Sequence[tuple[str, ...]],
                     singles: set[str]) -> list[str]:
    """Drop excluded single keywords and multiword phrases matched over
    consecutive terms."""
    kept = []
    i = 0
    while i < len(terms):
        matched = False
        for phrase in phrases:
            if tuple(terms[i:i + len(phrase)]) == phrase:
                i += len(phrase)
                matched = True
                break
        if matched:
            continue
        if terms[i] not in singles:
            kept.append(terms[i])
        i += 1
    return kept


@dataclass(frozen=True)
class MonthlyTermTable:
    month: str
    ranked: dict[str, tuple[tuple[str, int], ...]]  # label -> (term, freq) rows


def monthly_top_terms(
    labeled: Sequence[tuple[TweetRecord, str]],
    exclude: Sequence[str] = (),
    top_n: int = 20,
) -> list[MonthlyTermTable]:
    """Per calendar month (UTC) and class: the top_n content terms by
    frequency, ties broken lexicographically, excluded keywords removed."""
    # A keyword with a space is a phrase; one of only whitespace matches nothing.
    phrases = [tuple(k.lower().split()) for k in exclude if " " in k and k.strip()]
    singles = {k.lower() for k in exclude if " " not in k}
    starts = singles.union(phrase[0] for phrase in phrases)  # every term a match begins with
    token_terms: dict[str, str] = {}  # one entry per distinct token, for this call only
    counters: dict[str, dict[str, Counter]] = defaultdict(
        lambda: {label: Counter() for label in LABELS})
    for record, label in labeled:
        if label not in LABELS:
            raise ValidationError(f"tweet {record.id}: unknown label {label!r}")
        terms = content_terms(record.text, token_terms)
        if not starts.isdisjoint(terms):
            terms = _remove_excluded(terms, phrases, singles)
        counters[_month_key(record)][label].update(terms)
    tables = []
    for month in sorted(counters):
        ranked = {}
        for label in LABELS:
            rows = sorted(counters[month][label].items(),
                          key=lambda item: (-item[1], item[0]))[:top_n]
            ranked[label] = tuple(rows)
        tables.append(MonthlyTermTable(month=month, ranked=ranked))
    return tables


@dataclass(frozen=True)
class MonthlyMean:
    month: str
    label: str
    dimension: str
    mean: Optional[float]  # None marks a month with no tweets (a gap)
    n: int


def _month_range(months: Sequence[str]) -> list[str]:
    first_year, first_month = map(int, min(months).split("-"))
    last_year, last_month = map(int, max(months).split("-"))
    out = []
    year, month = first_year, first_month
    while (year, month) <= (last_year, last_month):
        out.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            year, month = year + 1, 1
    return out


def monthly_average_scores(
    scored: Sequence[tuple[TweetRecord, str, dict[str, float]]],
) -> list[MonthlyMean]:
    """Monthly per-class means of each scored dimension, in the order of
    the first tweet's scores (every tweet scores the same dimensions).
    Months inside the data range with no tweets for a class produce
    explicit gap rows (mean None), not zeros."""
    if not scored:
        return []
    dimensions = tuple(scored[0][2])
    sums: dict[tuple[str, str], dict[str, float]] = defaultdict(
        lambda: dict.fromkeys(dimensions, 0.0))
    counts: Counter = Counter()
    for record, label, scores in scored:
        if label not in LABELS:
            raise ValidationError(f"tweet {record.id}: unknown label {label!r}")
        key = (_month_key(record), label)
        counts[key] += 1
        cell = sums[key]
        for dim in dimensions:
            cell[dim] += scores[dim]
    months = _month_range([month for month, _ in counts])
    rows = []
    for month in months:
        for label in LABELS:
            n = counts[(month, label)]
            for dim in dimensions:
                mean = sums[(month, label)][dim] / n if n else None
                rows.append(MonthlyMean(month=month, label=label,
                                        dimension=dim, mean=mean, n=n))
    return rows


def histograms_to_csv(histograms: Sequence[AttributeHistogram]) -> str:
    lines = ["attribute,class,bin_low,bin_high,count"]
    for hist in histograms:
        for bin_no, count in enumerate(hist.counts):
            low = hist.edges[bin_no]
            high = hist.edges[bin_no + 1]
            high_text = "inf" if math.isinf(high) else f"{high:g}"
            lines.append(f"{hist.attribute},{hist.label},{low:g},{high_text},{count}")
    return "\n".join(lines) + "\n"


def terms_to_csv(tables: Sequence[MonthlyTermTable]) -> str:
    lines = ["month,class,rank,term,freq"]
    for table in tables:
        for label in LABELS:
            for rank, (term, freq) in enumerate(table.ranked[label], start=1):
                lines.append(f"{table.month},{label},{rank},{term},{freq}")
    return "\n".join(lines) + "\n"


def timeseries_to_csv(rows: Sequence[MonthlyMean]) -> str:
    lines = ["month,class,dimension,mean,n"]
    for row in rows:
        mean_text = "" if row.mean is None else repr(row.mean)
        lines.append(f"{row.month},{row.label},{row.dimension},{mean_text},{row.n}")
    return "\n".join(lines) + "\n"
