"""Tweet-aware text handling: normalization, tokenization and surface
counts.

Normalization drops the emoji joiners, rewrites user mentions to the
literal token ``@USER``, URLs to ``HTTPURL``, and emoji to colon-delimited
aliases from the bundled table (unknown pictographs become ``:emoji:``) in
one regex pass over the table's code-point ranges, then collapses
whitespace. It is idempotent. Tokenization operates on normalized text:
each whitespace-separated chunk stays whole, except for its trailing
punctuation, which splits off as one-character tokens. A special token
(hashtag, mention, ``HTTPURL``, emoji alias or ASCII emoticon) keeps the
trailing punctuation it ends in, so ``:-)`` and ``D:`` stay whole and
``#tag!!`` gives ``#tag``, ``!``, ``!``.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import read_utf8, split_lines

_DATA_DIR = Path(__file__).parent / "data"

MENTION_TOKEN = "@USER"
URL_TOKEN = "HTTPURL"
UNKNOWN_EMOJI_ALIAS = "emoji"

_URL_RE = re.compile(r"(?:https?://|\bwww\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_ALIAS_TOKEN_RE = re.compile(r":[a-z0-9_]+:")
_SPECIAL_RE = re.compile("|".join(p.pattern for p in (_ALIAS_TOKEN_RE, _HASHTAG_RE, _MENTION_RE)))

# Code-point ranges treated as emoji when absent from the alias table.
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
)
_EMOJI_JOINERS = {"\ufe0f", "\u200d"}

_PUNCT = string.punctuation + "“”‘’…´—–¡¿"

EMOTICONS = frozenset([
    ":)", ":-)", ":(", ":-(", ":D", ":-D", ";)", ";-)", ":P", ":-P", ":p",
    ":-p", ":/", ":-/", ":|", ":-|", ":o", ":O", ":-o", ":-O", "=)", "=(",
    "=D", ":'(", ":')", "<3", "</3", "D:", "xD", "XD", ":*", ":-*",
])


def data_rows(path) -> list[list[str]]:
    """The tab-separated fields of each line of a bundled data file, past
    its blank lines and `#` comments."""
    return [line.split("\t") for line in split_lines(read_utf8(path))
            if line.strip() and not line.startswith("#")]


@lru_cache(maxsize=1)
def stopword_list() -> frozenset[str]:
    """The bundled list of 179 common English stopwords, lowercase."""
    return frozenset(word for (word,) in data_rows(_DATA_DIR / "stopwords.txt"))


@lru_cache(maxsize=1)
def emoji_aliases() -> dict[str, str]:
    """Bundled emoji table: single code point -> alias (without colons)."""
    return dict(data_rows(_DATA_DIR / "emoji_aliases.tsv"))


@lru_cache(maxsize=1)
def _emoji_table() -> dict[int, str]:
    """Emoji code point -> replacement: range code points to ``:emoji:``,
    bundled emoji to their aliases."""
    points = (point for low, high in _EMOJI_RANGES for point in range(low, high + 1))
    table = dict.fromkeys(points, f" :{UNKNOWN_EMOJI_ALIAS}: ")
    table.update((ord(char), f" :{alias}: ") for char, alias in emoji_aliases().items())
    return table


@lru_cache(maxsize=1)
def _emoji_pattern() -> re.Pattern:
    """One character class matching every code point of the emoji table,
    written as runs of consecutive code points."""
    table = _emoji_table()
    lows = sorted(point for point in table if point - 1 not in table)
    highs = sorted(point for point in table if point + 1 not in table)
    ranges = "".join(f"{chr(low)}-{chr(high)}" for low, high in zip(lows, highs))
    return re.compile(f"[{ranges}]")


def _emoji_alias(match: re.Match) -> str:
    return _emoji_table()[ord(match[0])]


def normalize(text: str) -> str:
    """Drop emoji joiners, rewrite URLs, mentions and emoji, then collapse
    whitespace. Each step is skipped on text without what it needs: the
    joiner drop and the emoji pass on ASCII text, the URL pattern on text
    without "://" or "www", the mention pattern on text without "@"."""
    if not text.isascii():
        for joiner in _EMOJI_JOINERS:
            text = text.replace(joiner, "")
    text = _URL_RE.sub(URL_TOKEN, text) if "://" in text or "www" in text.lower() else text
    text = _MENTION_RE.sub(MENTION_TOKEN, text) if "@" in text else text
    text = text if text.isascii() else _emoji_pattern().sub(_emoji_alias, text)
    return " ".join(text.split())


def _is_special_token(chunk: str) -> bool:
    return chunk in EMOTICONS or chunk == URL_TOKEN or _SPECIAL_RE.fullmatch(chunk) is not None


def tokenize(text: str) -> list[str]:
    """Split normalized text into tokens, preserving case."""
    tokens: list[str] = []
    for chunk in text.split():
        if chunk[-1] not in _PUNCT:
            tokens.append(chunk)
            continue
        # The longest prefix that is a special token or ends before the
        # trailing punctuation; the rest are one-character tokens.
        end = len(chunk)
        stem = len(chunk.rstrip(_PUNCT))
        while end > stem and not _is_special_token(chunk[:end]):
            end -= 1
        if end:
            tokens.append(chunk[:end])
        tokens.extend(chunk[end:])
    return tokens


def is_word_token(token: str) -> bool:
    """True for plain content tokens: not mentions, URLs, hashtags,
    emoji aliases, emoticons, or bare punctuation."""
    return not (_is_special_token(token) or token.startswith(("#", "@"))
                or not token.strip(_PUNCT))


@dataclass(frozen=True)
class AttributeCounts:
    words: int
    urls: int
    emojis: int
    hashtags: int
    mentions: int
    stopwords: int


def count_attributes(text: str) -> AttributeCounts:
    """Surface-attribute counts: URLs, emoji, hashtags, and mentions are
    counted on the raw text; words and stopwords on the token stream of
    the normalized text."""
    return tally_attributes(text, {})


def tally_attributes(text: str, word_kinds: dict[str, int]) -> AttributeCounts:
    """count_attributes, with the caller's table of each distinct token's
    kind (0 not a word, 1 a word, 2 a stopword), filled with the tokens it
    has not met yet."""
    tokens = tokenize(normalize(text))
    stopwords = stopword_list()
    for token in set(tokens).difference(word_kinds):
        word_kinds[token] = (1 + (token.lower() in stopwords)) if is_word_token(token) else 0
    kinds = list(map(word_kinds.__getitem__, tokens))
    return AttributeCounts(
        words=len(kinds) - kinds.count(0),
        urls=len(_URL_RE.findall(text)) if "://" in text or "www" in text.lower() else 0,
        emojis=0 if text.isascii() else len(_emoji_pattern().findall(text)),
        hashtags=len(_HASHTAG_RE.findall(text)), mentions=len(_MENTION_RE.findall(text)),
        stopwords=kinds.count(2),
    )
