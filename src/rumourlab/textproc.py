"""Tweet-aware text handling: normalization, tokenization and surface
counts.

Normalization rewrites user mentions to the literal token ``@USER``, URLs
to ``HTTPURL``, and emoji to colon-delimited aliases from the bundled
table (unknown pictographs become ``:emoji:``), then collapses whitespace.
It is idempotent. Tokenization operates on normalized text: each
whitespace-separated chunk stays whole, except for its trailing
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
_EMOJI_JOINERS = {"️", "‍"}

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
def _emoji_table() -> dict[int, str | None]:
    """``str.translate`` table: range code points to ``:emoji:``, bundled
    emoji to their aliases, and joiners (entered last, so they win) to None."""
    points = (point for low, high in _EMOJI_RANGES for point in range(low, high + 1))
    table = dict.fromkeys(points, f" :{UNKNOWN_EMOJI_ALIAS}: ")
    table.update((ord(char), f" :{alias}: ") for char, alias in emoji_aliases().items())
    table.update(dict.fromkeys(map(ord, _EMOJI_JOINERS)))
    return table


def normalize(text: str) -> str:
    """Rewrite mentions, URLs, and emoji, then collapse whitespace; each
    rewrite is skipped on text without what it needs ("://" or "www", "@", non-ASCII)."""
    text = _URL_RE.sub(URL_TOKEN, text) if "://" in text or "www" in text.lower() else text
    text = _MENTION_RE.sub(MENTION_TOKEN, text) if "@" in text else text
    text = text if text.isascii() else text.translate(_emoji_table())
    return " ".join(text.split())


def _is_special_token(chunk: str) -> bool:
    return chunk in EMOTICONS or chunk == URL_TOKEN or _SPECIAL_RE.fullmatch(chunk) is not None


def tokenize(text: str) -> list[str]:
    """Split normalized text into tokens, preserving case."""
    tokens: list[str] = []
    for chunk in text.split():
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
    urls = len(_URL_RE.findall(text))
    hashtags = len(_HASHTAG_RE.findall(text))
    mentions = len(_MENTION_RE.findall(text))
    table = _emoji_table()
    emojis = sum(text.count(char) for char in set(text) if table.get(ord(char)))
    words = [t for t in tokenize(normalize(text)) if is_word_token(t)]
    stopwords = stopword_list()
    stops = sum(word.lower() in stopwords for word in words)
    return AttributeCounts(
        words=len(words), urls=urls, emojis=emojis,
        hashtags=hashtags, mentions=mentions, stopwords=stops,
    )
