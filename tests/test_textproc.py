import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumourlab.textproc import (
    EMOTICONS,
    MENTION_TOKEN,
    URL_TOKEN,
    _ALIAS_TOKEN_RE,
    _EMOJI_JOINERS,
    _EMOJI_RANGES,
    _HASHTAG_RE,
    _MENTION_RE,
    _URL_RE,
    _emoji_table,
    count_attributes,
    emoji_aliases,
    is_word_token,
    normalize,
    stopword_list,
    tokenize,
)

from conftest import oracle_tokenize

# Text with the shapes that matter: mentions, urls, emoji, hashtags,
# punctuation runs, and unicode words.
_FRAGMENTS = (
    list("abc APE.!?#@:/-_0139'\"\t\n")
    + ["\U0001F637", "\U0001F602", "❤", "\U0001F9FF", "\ufe0f", "\u200d",
       "http://x.io/a", " www.ex.com ", "@bob", "#tag", "the", "not", ":-)", "  "]
)
text_strategy = st.lists(st.sampled_from(_FRAGMENTS), max_size=15).map("".join)


# Reference implementations: the per-character loop that the table-driven
# normalize and emoji count must reproduce exactly.
def _oracle_is_emoji_char(char):
    if char in emoji_aliases():
        return True
    point = ord(char)
    return any(low <= point <= high for low, high in _EMOJI_RANGES)


def oracle_normalize(text):
    text = "".join(char for char in text if char not in _EMOJI_JOINERS)
    text = _URL_RE.sub(URL_TOKEN, text)
    text = _MENTION_RE.sub(MENTION_TOKEN, text)
    aliases = emoji_aliases()
    parts = []
    for char in text:
        if char in aliases:
            parts.append(f" :{aliases[char]}: ")
        elif _oracle_is_emoji_char(char):
            parts.append(" :emoji: ")
        else:
            parts.append(char)
    return " ".join("".join(parts).split())


def oracle_emoji_count(text):
    return sum(1 for char in text
               if char not in _EMOJI_JOINERS and _oracle_is_emoji_char(char))


_RANGE_EDGES = [
    chr(point)
    for low, high in _EMOJI_RANGES
    for point in (low - 1, low, low + 1, high - 1, high, high + 1)
]
_ORACLE_ALPHABET = st.one_of(
    st.characters(max_codepoint=0x7F),
    st.sampled_from(sorted(emoji_aliases())),
    st.sampled_from(sorted(_EMOJI_JOINERS)),
    st.sampled_from(_RANGE_EDGES),
    st.sampled_from([chr(low + 0x40) for low, _ in _EMOJI_RANGES]),
)
oracle_strategy = st.lists(
    st.one_of(
        _ORACLE_ALPHABET,
        st.sampled_from(["http://x.io/a", "https://t.co/", "www.ex.com",
                         "@bob", "@", "http://", " ", "\u3000", "\n"]),
    ),
    max_size=30,
).map("".join)


# Reference implementations: the character-at-a-time peel loop and the
# five-check word rule that tokenize, is_word_token and count_attributes
# must reproduce exactly.
_ORACLE_PUNCT = set(string.punctuation) | set("“”‘’…´`—–¡¿")


def _oracle_is_special(chunk):
    return (chunk in EMOTICONS or chunk == URL_TOKEN
            or any(regex.fullmatch(chunk) for regex in (_ALIAS_TOKEN_RE, _HASHTAG_RE,
                                                        _MENTION_RE)))


def oracle_peel_tokenize(text):
    tokens = []
    for chunk in re.findall(r"\S+", text):
        end = len(chunk)
        peeled = []
        while end > 0:
            core = chunk[:end]
            if core[-1] not in _ORACLE_PUNCT or _oracle_is_special(core):
                break
            end -= 1
            peeled.append(end)
        if end > 0:
            tokens.append(chunk[:end])
        tokens.extend(chunk[pos] for pos in reversed(peeled))
    return tokens


def oracle_is_word_token(token):
    if token == URL_TOKEN or token in EMOTICONS:
        return False
    if token.startswith("#") or token.startswith("@"):
        return False
    if _ALIAS_TOKEN_RE.fullmatch(token):
        return False
    if all(char in _ORACLE_PUNCT for char in token):
        return False
    return True


def oracle_word_counts(text):
    words = stops = 0
    for token in oracle_peel_tokenize(normalize(text)):
        if oracle_is_word_token(token):
            words += 1
            stops += token.lower() in stopword_list()
    return words, stops


# Chunks whose trailing punctuation meets a special token: emoticons that
# end in punctuation, hashtags and aliases followed by it, bare runs, and
# separators that str.split treats as whitespace.
_TRAILING_PIECES = st.sampled_from([
    ":))", "#tag_!!", "HTTPURL,", "...", "D:", ":smile:!", "\u3000", "\x1c", ":)", ":-)",
    "<3", "</3", "@USER.", "@bob!", "#", "@", ":", ")", "!", "?", "…", "“", "’", "¿", "word",
    "x", " ",
])
trailing_strategy = st.lists(st.one_of(_TRAILING_PIECES, _ORACLE_ALPHABET),
                             max_size=12).map("".join)

# Chunks that end in punctuation and chunks that do not: emoticons,
# URL and hashtag tokens followed by punctuation, bare punctuation runs,
# alias tokens, raw emoji and non-ASCII words.
_CHUNK_PIECES = st.sampled_from([
    ":-)", "D:", "HTTPURL.", "#tag!!", "really?!", "...", "?!", "!!!", "…", "“”", ",", "-",
    ":smile:", ":red_heart:,", ":face_with_medical_mask:", "\U0001F637", "\u2764\ufe0f",
    "café", "naïve!", "Straße", "日本", "¿qué?", "@bob", "@bob!", "http://x.io/a.", "word",
    "x", " ", " ", "\u3000",
])


class TestNormalize:
    def test_url_and_mention_replaced(self):
        assert normalize("see http://t.co/x @bob") == "see HTTPURL @USER"

    def test_empty(self):
        assert normalize("") == ""

    def test_emoji_alias_from_bundled_table(self):
        assert normalize("\U0001F637 masks work") == ":face_with_medical_mask: masks work"

    def test_unknown_emoji_generic_alias(self):
        # A pictograph outside the bundled table.
        assert normalize("\U0001F9FF") == ":emoji:"

    def test_whitespace_collapsed_and_trimmed(self):
        assert normalize("  a \t b \n c  ") == "a b c"

    def test_www_url(self):
        assert normalize("go to www.example.com now") == "go to HTTPURL now"

    def test_mention_inside_url_not_doubled(self):
        assert normalize("http://ex.com/@bob") == "HTTPURL"

    @given(text_strategy)
    @settings(max_examples=200, deadline=None)
    @example("@\ufe0fbob")
    @example("@bob\u200dsmith")
    @example("http\u200d://t.co/x")
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(oracle_strategy)
    @settings(max_examples=500, deadline=None)
    def test_matches_per_character_oracle(self, text):
        assert normalize(text) == oracle_normalize(text)
        assert count_attributes(text).emojis == oracle_emoji_count(text)

    def test_range_edges_classified(self):
        aliases = emoji_aliases()
        for low, high in _EMOJI_RANGES:
            for char in (chr(low), chr(high)):
                assert normalize(char) == f":{aliases.get(char, 'emoji')}:"
                assert count_attributes(char).emojis == 1
            for char in (chr(low - 1), chr(high + 1)):
                assert normalize(char) == char
                assert count_attributes(char).emojis == 0

    def test_joiner_between_emoji_dropped(self):
        for joiner in sorted(_EMOJI_JOINERS):
            text = f"\U0001F637{joiner}\U0001F9FF"
            assert normalize(text) == ":face_with_medical_mask: :emoji:"
            assert normalize(text) == oracle_normalize(text)
            assert count_attributes(text).emojis == 2 == oracle_emoji_count(text)


def three_step_normalize(text):
    """normalize without its shortcuts: every step on every text."""
    text = "".join(char for char in text if char not in _EMOJI_JOINERS)
    text = _URL_RE.sub(URL_TOKEN, text)
    text = _MENTION_RE.sub(MENTION_TOKEN, text)
    return " ".join(text.translate(_emoji_table()).split())


# Characters near what each shortcut looks for: letters that match a URL
# letter only when case is ignored (long s, Kelvin sign), W in other
# widths, the URL and mention punctuation, emoji and the two joiners.
_SHORTCUT_PIECES = st.sampled_from(
    list("wWhHtTpPsS:/.@_ a1") + ["\u017f", "\u212a", "\uff37", "\uff57", "www.", "WwW.",
                                  "http://", "HTTPS://", "\U0001F637", "\u2764", "\ufe0f",
                                  "\u200d", "\u00e9", "\u0085"])


class TestNormalizeShortcuts:
    @given(st.lists(_SHORTCUT_PIECES, max_size=20).map("".join))
    @settings(max_examples=500, deadline=None)
    @example("\u017fee http\u017f://x.io WWW.ex.com @bob\u200d\U0001F637")
    def test_matches_three_step_normalize(self, text):
        assert normalize(text) == three_step_normalize(text)

    def test_no_ascii_character_is_translated(self):
        assert min(_emoji_table()) > 0x7F


class TestTokenize:
    def test_hashtag_and_url_tokens(self):
        assert list(tokenize("#covid is HTTPURL")) == ["#covid", "is", "HTTPURL"]

    def test_terminal_punctuation_split(self):
        assert list(tokenize("really?!")) == ["really", "?", "!"]

    def test_alias_and_mention_single_tokens(self):
        stream = tokenize(":face_with_medical_mask: @USER")
        assert list(stream) == [":face_with_medical_mask:", "@USER"]

    def test_emoticon_kept_whole(self):
        assert list(tokenize("fine :-) ok")) == ["fine", ":-)", "ok"]

    def test_case_preserved(self):
        assert list(tokenize("Mask UP")) == ["Mask", "UP"]

    def test_pure_punctuation_chunk(self):
        assert list(tokenize("?!")) == ["?", "!"]

    @pytest.mark.parametrize("text, expected", [
        (":)", [":)"]),
        ("D:", ["D:"]),
        (":-(", [":-("]),
        ("HTTPURL.", ["HTTPURL", "."]),
        ("#tag!!", ["#tag", "!", "!"]),
        (":red_heart:,", [":red_heart:", ","]),
        ("ok :) D: :-( HTTPURL. #tag!! :red_heart:,",
         ["ok", ":)", "D:", ":-(", "HTTPURL", ".", "#tag", "!", "!",
          ":red_heart:", ","]),
    ])
    def test_special_tokens_ending_in_punctuation(self, text, expected):
        assert tokenize(text) == expected

    @given(st.one_of(text_strategy, oracle_strategy, trailing_strategy))
    @settings(max_examples=500, deadline=None)
    @example(":)) #tag_!! HTTPURL, ... D: :smile:!")
    @example("a\u3000b! x\x1c:) D:! :-)). @USER!? #! “quoted”")
    def test_matches_peel_oracle(self, text):
        for stream in (text, normalize(text)):
            tokens = tokenize(stream)
            assert tokens == oracle_peel_tokenize(stream)
            assert [is_word_token(t) for t in tokens] == \
                [oracle_is_word_token(t) for t in tokens]
        counts = count_attributes(text)
        assert (counts.words, counts.stopwords) == oracle_word_counts(text)

    @given(st.lists(_CHUNK_PIECES, max_size=12).map("".join))
    @settings(max_examples=500, deadline=None)
    @example(":-) D: HTTPURL. #tag!! really?! ... ?! :smile:, café naïve! \U0001F637.")
    def test_matches_per_chunk_oracle(self, text):
        stream = normalize(text)
        assert tokenize(stream) == oracle_tokenize(stream)

    def test_str_split_breaks_where_regex_whitespace_does(self):
        # tokenize splits chunks with str.split, the oracle with \S+.
        every = "".join(chr(point) for point in range(0x110000)
                        if not 0xD800 <= point <= 0xDFFF)
        assert re.findall(r"\s", every) == [char for char in every if char.isspace()]

    @given(text_strategy)
    @settings(max_examples=200, deadline=None)
    def test_span_contract(self, text):
        # The tokens cut the non-space text into pieces, in order.
        normalized = normalize(text)
        tokens = tokenize(normalized)
        assert all(token and not any(c.isspace() for c in token) for token in tokens)
        assert "".join(tokens) == "".join(normalized.split())


# Pieces of tweet texts that could glue to a neighbour's: URLs, mentions,
# hashtags, emoticons, emoji with their joiners, trailing punctuation, and
# separators that Python counts as whitespace but no line rule does.
_TWEET_PIECES = st.sampled_from([
    "http://x.io/a", "https://t.co/", "http://", "www.ex.com", "www.", "@bob", "@", "#tag",
    "#", ":-)", ":)", "D:", ":", "\U0001F637", "\u2764\ufe0f", "\U0001F468\u200d\U0001F469",
    "\ufe0f", "\u200d", "word", "Word", "x", "!", "?", ".", "...", ",", "'", "\u2026", " ",
    "\u0085", "\u2028", "\u001c",
])
tweet_text_strategy = st.lists(_TWEET_PIECES, max_size=6).map("".join)


@given(st.lists(tweet_text_strategy, max_size=5))
@settings(max_examples=300, deadline=None)
def test_joined_text_tokens_are_each_texts_tokens(texts):
    # A thread's tokens are its tweets' tokens in order, so the joined
    # thread text need never be tokenized.
    joined = tokenize(normalize(" ".join(texts)))
    assert joined == [token for text in texts for token in tokenize(normalize(text))]


class TestCountAttributes:
    def test_mixed_example(self):
        counts = count_attributes("Check http://a.b #x #y @z \U0001F637")
        assert counts.urls == 1
        assert counts.hashtags == 2
        assert counts.mentions == 1
        assert counts.emojis == 1

    def test_all_stopwords(self):
        counts = count_attributes("the and of")
        assert counts.words == 3
        assert counts.stopwords == 3

    def test_empty(self):
        counts = count_attributes("")
        assert counts == type(counts)(0, 0, 0, 0, 0, 0)

    def test_stopword_list_has_179_words(self):
        assert len(stopword_list()) == 179

    def test_word_token_rules(self):
        assert is_word_token("hello")
        assert not is_word_token("#tag")
        assert not is_word_token("@USER")
        assert not is_word_token("HTTPURL")
        assert not is_word_token(":-)")
        assert not is_word_token(":face_with_medical_mask:")
        assert not is_word_token("!")

    @pytest.mark.parametrize("token", [
        "", "!", "...", "“”", "#", "@", "#tag", "@bob", ":smile:", ":)", "D:", "<3",
        "HTTPURL", "HTTPURL.", "word!", "a", "D", ":smile", "can't", "’tis",
    ])
    def test_word_token_matches_oracle(self, token):
        assert is_word_token(token) == oracle_is_word_token(token)

    @given(text_strategy)
    @settings(max_examples=200, deadline=None)
    def test_stopwords_never_exceed_words(self, text):
        counts = count_attributes(text)
        assert counts.stopwords <= counts.words
