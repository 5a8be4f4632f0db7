import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourlab.errors import ValidationError
from rumourlab.featurize import Vocabulary
from rumourlab.textproc import (
    MENTION_TOKEN,
    URL_TOKEN,
    _EMOJI_JOINERS,
    _EMOJI_RANGES,
    _MENTION_RE,
    _URL_RE,
    count_attributes,
    emoji_aliases,
    encode_pair,
    is_word_token,
    normalize,
    stopword_list,
    tokenize,
)

# Text with the shapes that matter: mentions, urls, emoji, hashtags,
# punctuation runs, and unicode words.
_FRAGMENTS = (
    list("abc APE.!?#@:/-_0139'\"\t\n")
    + ["\U0001F637", "\U0001F602", "❤", "\U0001F9FF",
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
    text = _URL_RE.sub(URL_TOKEN, text)
    text = _MENTION_RE.sub(MENTION_TOKEN, text)
    aliases = emoji_aliases()
    parts = []
    for char in text:
        if char in _EMOJI_JOINERS:
            continue
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
        stream = tokenize(text)
        assert list(stream) == list(stream.tokens) == expected
        assert len(stream.spans) == len(expected)
        assert list(stream.spans) == sorted(stream.spans)
        for token, (start, end) in zip(stream.tokens, stream.spans):
            assert text[start:end] == token

    @given(text_strategy)
    @settings(max_examples=200, deadline=None)
    def test_span_contract(self, text):
        normalized = normalize(text)
        stream = tokenize(normalized)
        previous_end = -1
        covered = 0
        for token, (start, end) in zip(stream.tokens, stream.spans):
            assert token, "empty token"
            assert start >= previous_end
            assert normalized[start:end] == token
            previous_end = end
            covered += end - start
        non_space = sum(1 for c in normalized if not c.isspace())
        assert covered == non_space


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

    @given(text_strategy)
    @settings(max_examples=200, deadline=None)
    def test_stopwords_never_exceed_words(self, text):
        counts = count_attributes(text)
        assert counts.stopwords <= counts.words


VOCAB = Vocabulary(terms=("alpha", "beta", "gamma"))


class TestEncodePair:
    def test_short_pair_layout(self):
        enc = encode_pair(["alpha", "beta"], ["gamma", "alpha", "beta"], VOCAB, 10)
        assert sum(enc.attention_mask) == 7
        assert enc.segment_ids[:7] == (0, 0, 0, 1, 1, 1, 1)
        assert enc.input_ids[2] == VOCAB.sep_id
        assert enc.input_ids[6] == VOCAB.sep_id
        assert enc.input_ids[7:] == (VOCAB.pad_id,) * 3
        assert enc.attention_mask == (1,) * 7 + (0,) * 3

    def test_reply_truncated_from_end(self):
        enc = encode_pair(["alpha"] * 5, ["beta"] * 200, VOCAB, 8)
        assert sum(enc.attention_mask) == 8
        # 5 source + sep + 1 reply + sep
        assert enc.input_ids[5] == VOCAB.sep_id
        assert enc.input_ids[7] == VOCAB.sep_id
        assert enc.segment_ids == (0,) * 6 + (1, 1)

    def test_long_source_truncated_and_reply_dropped(self):
        enc = encode_pair(["alpha"] * 20, ["beta"] * 4, VOCAB, 8)
        assert sum(enc.attention_mask) == 8
        assert enc.input_ids[6] == VOCAB.sep_id
        assert enc.input_ids[7] == VOCAB.sep_id
        assert enc.segment_ids[:8] == (0,) * 7 + (1,)

    def test_oov_maps_to_unknown(self):
        enc = encode_pair(["zzz"], ["alpha"], VOCAB, 6)
        assert enc.input_ids[0] == VOCAB.unk_id

    def test_lookup_is_lowercased(self):
        enc = encode_pair(["ALPHA"], [], VOCAB, 5)
        assert enc.input_ids[0] == VOCAB.id_of("alpha")

    def test_max_len_under_three_rejected(self):
        with pytest.raises(ValidationError):
            encode_pair(["alpha"], ["beta"], VOCAB, 2)

    def test_default_128_length(self):
        enc = encode_pair(["alpha"] * 3, ["beta"] * 2, VOCAB, 128)
        assert len(enc.input_ids) == 128
        assert sum(enc.attention_mask) == 7

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(3, 30))
    @settings(max_examples=200, deadline=None)
    def test_mask_sum_and_segment_monotone(self, n_source, n_reply, max_len):
        enc = encode_pair(["alpha"] * n_source, ["beta"] * n_reply, VOCAB, max_len)
        attended = sum(enc.attention_mask)
        assert attended == min(max_len, n_source + n_reply + 2)
        assert enc.attention_mask == (1,) * attended + (0,) * (max_len - attended)
        prefix = enc.segment_ids[:attended]
        assert all(a <= b for a, b in zip(prefix, prefix[1:]))
        for position in range(attended, max_len):
            assert enc.input_ids[position] == VOCAB.pad_id
