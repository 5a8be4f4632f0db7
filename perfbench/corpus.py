"""Seeded corpus generator of tweet threads for the benchmark.

The planted corpus in ``rumourlab.synthetic`` draws from 48 words, so
vocabulary-sized costs never show. This generator keeps its planted
marker (a rumour thread carries ``synthetic.MARKER``) but draws text
from a procedural Zipf vocabulary of tens of thousands of types mixed
with stopwords, lexicon words, hashtags, mentions, URLs and emoji. Reply
counts follow a capped heavy tail, replies answer earlier replies to
form chains, and sources spread over many months. Rumour accounts lean
newer, smaller and unverified, so the handcrafted features carry signal.

Where the numbers come from. Three are published figures:

- tweets with at least one hashtag, mention and URL: 5%, 36% and 22% of
  a random sample of 720,000 tweets (boyd, Golder and Lotan, "Tweet,
  Tweet, Retweet: Conversational Aspects of Retweeting on Twitter",
  HICSS 2010);
- word frequencies: Zipf's law with an exponent near 1 (Piantadosi,
  "Zipf's word frequency law in natural language", Psychonomic Bulletin
  & Review, 2014);
- the rumour rate of analyze-corpus: 34%, the share of rumours among the
  5,802 annotated source tweets of PHEME (Zubiaga, Liakata and Procter,
  "Exploiting Context for Rumour Detection in Social Media", SocInfo
  2017).

The rest are assumptions, with no dataset behind them: tweet lengths,
the stopword, content, lexicon and modifier token mix, emoji counts,
the vocabulary size, reply gaps, chain_prob, the account metadata and
its shift for rumour sources, and retweet and like counts. Reply counts
have a heavy tail, as on Twitter15 and Twitter16 (223 and 251 posts per
thread on average, up to 1,768 and 2,765; Bian et al., AAAI 2020), but
their scale, tail and cap are set by what fits the run time, so the
benchmark's threads are smaller than those.

All sampling goes through precomputed cumulative tables and
``np.searchsorted``; drawing each tweet with ``rng.choice(p=...)`` is
over ten times slower at these sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from rumourlab.analyze import BOOSTERS, NEGATORS, load_emotion_lexicon, load_valence_lexicon
from rumourlab.synthetic import MARKER
from rumourlab.textproc import emoji_aliases, stopword_list

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "sh",
           "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "ck", "nd", "st")
_UNKNOWN_PICTOGRAPHS = ("\U0001F9A0", "\U0001FAE0", "\U0001F9EA", "\U0001FA7A")
_BASE_TIME = datetime(2020, 1, 1, tzinfo=timezone.utc)
# Shares of tweets with at least one hashtag, mention or URL (boyd et al.,
# see above). Hashtag and mention counts are Poisson with that share of
# non-zero draws.
HASHTAG_SHARE = 0.05
MENTION_SHARE = 0.36
URL_SHARE = 0.22


@dataclass(frozen=True)
class CorpusShape:
    """Per-workload corpus settings."""

    labeled_threads: int
    unlabeled_threads: int
    rumour_rate: float
    reply_cap: int          # heavy-tail reply counts are clipped here
    reply_tail: float       # Pareto shape; smaller means a heavier tail
    reply_scale: float      # Pareto scale of the reply count
    chain_prob: float       # chance a reply answers an earlier reply
    months: int             # sources spread uniformly over this many months
    vocab_types: int = 40_000
    zipf_exponent: float = 1.0


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights, dtype=float)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), len(cdf) - 1)


def _zipf_cdf(n: int, exponent: float, offset: float = 2.7) -> np.ndarray:
    return _cdf(1.0 / (np.arange(1, n + 1) + offset) ** exponent)


class _Tables:
    """Word lists and their cumulative sampling tables for one seed."""

    def __init__(self, rng: np.random.Generator, shape: CorpusShape):
        reserved = set(stopword_list()) | set(load_emotion_lexicon()) \
            | set(load_valence_lexicon()) | NEGATORS | BOOSTERS | {MARKER}
        # Syllable-built candidates, drawn in bulk; duplicates and reserved
        # words are dropped, so draw a margin over the wanted type count.
        n = int(shape.vocab_types * 1.5)
        onsets = rng.integers(len(_ONSETS), size=(n, 4))
        vowels = rng.integers(len(_VOWELS), size=(n, 4))
        syllables = rng.integers(2, 5, size=n)
        codas = rng.integers(len(_CODAS), size=n)
        candidates = (
            "".join(_ONSETS[o] + _VOWELS[v] for o, v in zip(onset[:k], vowel[:k])) + _CODAS[c]
            for onset, vowel, k, c in zip(onsets.tolist(), vowels.tolist(),
                                          syllables.tolist(), codas.tolist()))
        words = [w for w in dict.fromkeys(candidates) if w not in reserved]
        if len(words) < shape.vocab_types:
            raise ValueError(f"only {len(words)} distinct words for {shape.vocab_types} types")
        words = words[:shape.vocab_types]
        self.content = np.array(words)
        self.content_cdf = _zipf_cdf(len(words), shape.zipf_exponent)
        self.stopwords = np.array(sorted(stopword_list()))
        self.stop_cdf = _zipf_cdf(len(self.stopwords), 1.1)
        lexicon = sorted(set(load_emotion_lexicon()) | set(load_valence_lexicon()))
        self.lexicon = np.array(lexicon)
        self.modifiers = np.array(sorted(NEGATORS | BOOSTERS))
        self.hashtags = np.array(["#" + w for w in rng.permutation(words)[:3000]])
        self.hashtag_cdf = _zipf_cdf(len(self.hashtags), 1.1)
        self.emoji = np.array(sorted(emoji_aliases()) + list(_UNKNOWN_PICTOGRAPHS))
        self.emoji_cdf = _zipf_cdf(len(self.emoji), 1.2)


def _reply_counts(n: int, shape: CorpusShape) -> np.ndarray:
    """Capped Pareto reply counts, taken as the distribution's quantiles
    at evenly spaced levels rather than drawn."""
    levels = (np.arange(n) + 0.5) / n
    counts = np.floor(shape.reply_scale * ((1.0 - levels) ** (-1.0 / shape.reply_tail) - 1.0))
    return np.minimum(counts, shape.reply_cap).astype(int)


def _texts(rng: np.random.Generator, t: _Tables, n: int, marked: np.ndarray) -> list[str]:
    """n tweet texts; the marked ones carry the planted marker."""
    lengths = 5 + rng.poisson(9, size=n)
    kind_p = np.array([0.36, 0.52, 0.07, 0.05])  # stop, content, lexicon, modifier
    total = int(lengths.sum())
    kinds = _draw(rng, _cdf(kind_p), total)
    tokens = np.empty(total, dtype=object)
    for kind, (pool, cdf) in enumerate((
            (t.stopwords, t.stop_cdf), (t.content, t.content_cdf),
            (t.lexicon, None), (t.modifiers, None))):
        where = np.nonzero(kinds == kind)[0]
        if cdf is None:
            picks = rng.integers(len(pool), size=len(where))
        else:
            picks = _draw(rng, cdf, len(where))
        tokens[where] = pool[picks]
    n_tags = rng.poisson(-np.log1p(-HASHTAG_SHARE), size=n)
    n_mentions = rng.poisson(-np.log1p(-MENTION_SHARE), size=n)
    n_emoji = rng.poisson(0.5, size=n)
    tags = iter(t.hashtags[_draw(rng, t.hashtag_cdf, int(n_tags.sum()))])
    emoji = iter(t.emoji[_draw(rng, t.emoji_cdf, int(n_emoji.sum()))])
    has_url = rng.random(n) < URL_SHARE
    exclaim = rng.integers(0, 4, size=n) * (rng.random(n) < 0.25)
    capitalize = rng.random(n) < 0.5
    texts = []
    offset = 0
    for i in range(n):
        words = list(tokens[offset:offset + lengths[i]])
        offset += lengths[i]
        if marked[i]:
            words.insert(int(rng.integers(0, len(words) + 1)), MARKER)
        for _ in range(n_tags[i]):
            words.insert(int(rng.integers(0, len(words) + 1)), next(tags))
        for _ in range(n_emoji[i]):
            words.insert(int(rng.integers(0, len(words) + 1)), next(emoji))
        mentions = [f"@user{int(rng.integers(100_000))}" for _ in range(n_mentions[i])]
        if capitalize[i]:
            words[0] = words[0].capitalize()
        if rng.random() < 0.4:
            words[-1] += "," if rng.random() < 0.3 else "."
        text = " ".join(mentions + words)
        if has_url[i]:
            text += f" https://t.co/{int(rng.integers(1 << 40)):x}"
        texts.append(text + "!" * int(exclaim[i]))
    return texts


def _user_fields(rng: np.random.Generator, rumour: np.ndarray) -> list[dict]:
    """Account metadata; rumour sources lean newer, smaller, unverified."""
    n = len(rumour)
    shift = np.where(rumour, 1.0, 0.0)
    followers = np.exp(rng.normal(6.0 - 1.2 * shift, 1.6)).astype(int)
    following = np.exp(rng.normal(5.5, 1.2, size=n)).astype(int)
    tweets = np.exp(rng.normal(8.0 - 0.6 * shift, 1.3)).astype(int) + 1
    listed = rng.poisson(np.maximum(followers / 400.0, 0.1))
    verified = rng.random(n) < np.where(rumour, 0.04, 0.25)
    year = np.clip(np.round(rng.normal(2014.0 + 3.0 * shift, 3.0)), 2007, 2021).astype(int)
    return [
        {"verified": bool(verified[i]), "followers": int(followers[i]),
         "following": int(following[i]), "tweet_count": int(tweets[i]),
         "listed_count": int(listed[i]), "account_created_year": int(year[i])}
        for i in range(n)
    ]


def _stamp(when: datetime) -> str:
    return when.isoformat().replace("+00:00", "Z")


def generate(shape: CorpusShape, seed: int, labeled_path, unlabeled_path) -> dict:
    """Write the labeled and the unlabeled corpus as JSON lines; return
    counts describing what was written."""
    rng = np.random.default_rng(seed)
    tables = _Tables(rng, shape)
    stats = {}
    for path, n_threads, labeled, prefix in (
            (labeled_path, shape.labeled_threads, True, "t"),
            (unlabeled_path, shape.unlabeled_threads, False, "u")):
        # The layout (which thread is a rumour, how many replies it has) does
        # not depend on the seed. The split is seeded by the run config, so
        # every seed then trains, tunes and tests on threads of the same
        # sizes, and run-to-run spread measures the program, not the draw.
        layout = np.random.default_rng(n_threads)
        n_rumour = int(round(shape.rumour_rate * n_threads))
        rumour = layout.permutation(np.arange(n_threads) < n_rumour)
        replies = layout.permutation(_reply_counts(n_threads, shape))
        # Tweet rows: each thread's source, then its replies.
        thread_of = np.repeat(np.arange(n_threads), replies + 1)
        is_source = np.ones(len(thread_of), dtype=bool)
        is_source[1:] = thread_of[1:] != thread_of[:-1]
        tweet_rumour = rumour[thread_of]
        # As in the planted corpus, every tweet of a rumour thread carries the marker.
        texts = _texts(rng, tables, len(thread_of), tweet_rumour)
        users = _user_fields(rng, tweet_rumour & is_source)
        source_minutes = rng.integers(0, shape.months * 30 * 24 * 60, size=n_threads)
        gaps = rng.exponential(20.0, size=len(thread_of))
        retweets = rng.poisson(np.where(tweet_rumour, 40.0, 15.0) * is_source + 1.0)
        likes = rng.poisson(np.where(is_source, 60.0, 4.0))
        with open(path, "w", encoding="utf-8") as handle:
            row = 0
            for thread in range(n_threads):
                source_id = f"{prefix}{thread:06d}"
                start = _BASE_TIME + timedelta(minutes=int(source_minutes[thread]))
                stamps = [start]
                ids = [source_id]
                for r in range(replies[thread] + 1):
                    fields = {"id": source_id if r == 0 else f"{source_id}r{r}",
                              "text": texts[row]}
                    if r == 0:
                        fields["created_at"] = _stamp(start)
                        if labeled:
                            fields["label"] = "rumour" if rumour[thread] else "nonrumour"
                    else:
                        # Chains: answer one of the three latest tweets, else the source.
                        parent = 0
                        if r > 1 and rng.random() < shape.chain_prob:
                            parent = r - 1 - int(rng.integers(0, min(3, r - 1)))
                        stamp = stamps[-1] + timedelta(seconds=60.0 * gaps[row])
                        stamps.append(stamp)
                        ids.append(fields["id"])
                        fields["parent_id"] = ids[parent]
                        fields["created_at"] = _stamp(stamp)
                    fields.update(users[row])
                    fields["retweet_count"] = int(retweets[row])
                    fields["like_count"] = int(likes[row])
                    handle.write(json.dumps(fields, ensure_ascii=False) + "\n")
                    row += 1
        stats[prefix] = {"threads": n_threads, "tweets": len(thread_of),
                         "rumours": n_rumour, "max_replies": int(replies.max())}
    return {"labeled_threads": stats["t"]["threads"], "labeled_tweets": stats["t"]["tweets"],
            "unlabeled_threads": stats["u"]["threads"],
            "unlabeled_tweets": stats["u"]["tweets"],
            "rumours": stats["t"]["rumours"], "max_replies": stats["t"]["max_replies"]}
