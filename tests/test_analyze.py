import math
import re
from bisect import bisect_right
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourlab import analyze
from rumourlab.analyze import (
    EMOTIONS,
    AttributeHistogram,
    attribute_histograms,
    content_terms,
    histograms_to_csv,
    load_emotion_lexicon,
    load_valence_lexicon,
    monthly_average_scores,
    monthly_top_terms,
    score_emotions,
    score_sentiment,
    terms_to_csv,
    timeseries_to_csv,
)
from rumourlab.errors import ValidationError
from rumourlab.ingest import LABELS
from rumourlab.textproc import (
    _HASHTAG_RE,
    _MENTION_RE,
    _URL_RE,
    _emoji_table,
    is_word_token,
    normalize,
    stopword_list,
    tokenize,
)

from conftest import make_record

FEAR_ONLY = {"dread": "fear"}
HAPPY_SAD = {"joyful": "happy", "mournful": "sad"}


@pytest.mark.parametrize("loader, filename, row, message", [
    (load_emotion_lexicon, "emotion_lexicon.tsv", "dread\tjoy",
     "lexicon word 'dread' has unknown emotion 'joy'"),
    (load_valence_lexicon, "valence_lexicon.tsv", "great\t4.5",
     "valence for 'great' outside [-4, 4]"),
])
def test_bundled_lexicon_rows_are_checked(monkeypatch, tmp_path, loader, filename, row,
                                          message):
    (tmp_path / filename).write_text(f"# a damaged copy\n{row}\n", encoding="utf-8")
    monkeypatch.setattr(analyze, "_DATA_DIR", tmp_path)
    loader.cache_clear()
    try:
        with pytest.raises(ValidationError, match=re.escape(message)):
            loader()
    finally:
        loader.cache_clear()


class TestScoreEmotions:
    def test_single_fear_word(self):
        scores = score_emotions("pure dread", FEAR_ONLY)
        assert scores.fear == 1.0
        assert scores.label == "fear"

    def test_no_matches_gives_none(self):
        scores = score_emotions("nothing matches here", {})
        assert scores.label == "none"
        assert all(v == 0.0 for v in scores.as_dict().values())

    def test_happy_sad_tie_resolves_to_happy(self):
        scores = score_emotions("joyful mournful", HAPPY_SAD)
        assert scores.happy == 0.5 and scores.sad == 0.5
        assert scores.label == "happy"

    def test_angry_wins_every_tie(self):
        lexicon = {"furious": "angry", "dread": "fear"}
        scores = score_emotions("furious dread", lexicon)
        assert scores.label == "angry"

    def test_scores_sum_to_one_when_matched(self):
        lexicon = load_emotion_lexicon()
        rng = np.random.default_rng(3)
        words = list(lexicon)[:40] + ["covid", "the", "report"]
        for _ in range(100):
            text = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            scores = score_emotions(text)
            total = sum(scores.as_dict().values())
            if scores.label == "none":
                assert total == 0.0
            else:
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_bundled_lexicon_loads(self):
        lexicon = load_emotion_lexicon()
        assert len(lexicon) >= 300
        assert set(lexicon.values()) == set(EMOTIONS)


class TestScoreSentiment:
    def test_empty_text_convention(self):
        scores = score_sentiment("")
        assert (scores.pos, scores.neu, scores.neg) == (0.0, 1.0, 0.0)
        assert scores.compound == 0.0

    def test_single_word_valence_19(self):
        scores = score_sentiment("good")
        assert scores.compound == pytest.approx(0.440, abs=1e-3)

    def test_negation_rule(self):
        lexicon = {"good": 1.9}
        scores = score_sentiment("not good", lexicon)
        adjusted = 1.9 * -0.74
        assert adjusted == pytest.approx(-1.406, abs=1e-9)
        expected = adjusted / math.sqrt(adjusted ** 2 + 15)
        assert scores.compound == pytest.approx(expected, abs=1e-9)
        assert scores.compound < 0

    def test_negation_window_is_three_tokens(self):
        lexicon = {"good": 1.9}
        near = score_sentiment("not so very good", lexicon)
        assert near.compound < 0
        far = score_sentiment("not a b c good", lexicon)
        assert far.compound > 0

    def test_booster_adds_toward_sign(self):
        lexicon = {"good": 1.9, "bad": -1.9}
        boosted = score_sentiment("very good", lexicon)
        plain = score_sentiment("good", lexicon)
        assert boosted.compound > plain.compound
        negative = score_sentiment("very bad", lexicon)
        assert negative.compound < score_sentiment("bad", lexicon).compound

    def test_exclamations_amplify_up_to_three(self):
        lexicon = {"good": 1.9}
        base = score_sentiment("good", lexicon).compound
        one = score_sentiment("good !", lexicon).compound
        three = score_sentiment("good ! ! !", lexicon).compound
        four = score_sentiment("good ! ! ! !", lexicon).compound
        assert base < one < three
        assert four == pytest.approx(three, abs=1e-12)

    def test_shares_sum_to_one_nonempty(self):
        scores = score_sentiment("good bad neutral words here")
        assert scores.pos + scores.neu + scores.neg == pytest.approx(1.0, abs=1e-6)

    def test_compound_bounds_random_sequences(self):
        lexicon = load_valence_lexicon()
        rng = np.random.default_rng(5)
        vocab = list(lexicon)[:80] + ["the", "and", "!", "not", "very"]
        for _ in range(1000):
            text = " ".join(rng.choice(vocab, size=rng.integers(0, 12)))
            scores = score_sentiment(text)
            assert -1.0 < scores.compound < 1.0
            assert scores.pos + scores.neu + scores.neg == pytest.approx(1.0, abs=1e-6)

    def test_appending_positive_word_increases_compound(self):
        lexicon = load_valence_lexicon()
        rng = np.random.default_rng(7)
        vocab = [w for w in list(lexicon)[:60]] + ["the", "report", "says"]
        positives = [w for w, v in lexicon.items() if v > 0][:20]
        checked = 0
        for _ in range(300):
            tokens = list(rng.choice(vocab, size=rng.integers(0, 8)))
            from rumourlab.analyze import NEGATORS

            if any(t in NEGATORS for t in tokens[-3:]):
                continue
            base = score_sentiment(" ".join(tokens), lexicon).compound
            extended = score_sentiment(
                " ".join(tokens + [positives[checked % len(positives)]]),
                lexicon).compound
            assert extended > base
            checked += 1
        assert checked > 100


class TestAttributeHistograms:
    def test_empty_input_all_zero_bins(self):
        histograms = attribute_histograms([])
        assert len(histograms) == 12
        for hist in histograms:
            assert sum(hist.counts) == 0

    def test_two_urls_land_in_right_bin(self):
        record = make_record("a", text="see http://x.io and http://y.io")
        histograms = attribute_histograms([(record, "rumour")])
        (urls,) = [h for h in histograms
                   if h.attribute == "urls" and h.label == "rumour"]
        bin_no = next(i for i in range(len(urls.edges) - 1)
                      if urls.edges[i] <= 2 < urls.edges[i + 1])
        assert urls.counts[bin_no] == 1
        assert sum(urls.counts) == 1

    @pytest.mark.parametrize("n_words, low, high", [
        (0, 0, 10), (9, 0, 10), (10, 10, 20), (99, 75, 100), (100, 100, math.inf),
    ])
    def test_value_on_a_bin_edge_opens_that_bin(self, n_words, low, high):
        record = make_record("a", text="word " * n_words)
        histograms = attribute_histograms([(record, "nonrumour")])
        (words,) = [h for h in histograms
                    if h.attribute == "words" and h.label == "nonrumour"]
        bin_no = words.edges.index(low)
        assert words.edges[bin_no + 1] == high
        assert words.counts[bin_no] == 1 == sum(words.counts)

    def test_bin_totals_equal_class_population(self):
        rng = np.random.default_rng(9)
        labeled = []
        for i in range(60):
            label = "rumour" if rng.random() < 0.3 else "nonrumour"
            n_words = int(rng.integers(0, 130))
            labeled.append((make_record(f"t{i}", text="word " * n_words), label))
        rumours = sum(1 for _, label in labeled if label == "rumour")
        for hist in attribute_histograms(labeled):
            expected = rumours if hist.label == "rumour" else 60 - rumours
            assert sum(hist.counts) == expected

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            attribute_histograms([(make_record("a"), "maybe")])


class TestMonthlyTopTerms:
    def test_counting_and_rank(self):
        record = make_record("a", text="wuhan lab lab")
        (table,) = monthly_top_terms([(record, "rumour")], top_n=5)
        assert table.month == "2020-03"
        assert table.ranked["rumour"] == (("lab", 2), ("wuhan", 1))

    def test_month_boundary(self):
        import datetime as dt

        early = make_record("a", text="alpha")
        late_time = dt.datetime(2020, 4, 1, 0, 0, tzinfo=dt.timezone.utc)
        late = early._replace(id="b", text="beta", created_at=late_time)
        tables = monthly_top_terms([(early, "rumour"), (late, "rumour")], top_n=5)
        assert [t.month for t in tables] == ["2020-03", "2020-04"]

    def test_excluded_keywords_absent(self):
        record = make_record(
            "a", text="covid lab corona virus conspiracy #covid theory")
        (table,) = monthly_top_terms(
            [(record, "rumour")], exclude=("covid", "corona virus"), top_n=10)
        terms = [term for term, _ in table.ranked["rumour"]]
        assert "covid" not in terms
        assert "corona" not in terms and "virus" not in terms
        assert set(terms) == {"lab", "conspiracy", "theory"}

    def test_multiword_phrase_only_removed_when_adjacent(self):
        record = make_record("a", text="corona beer virus")
        (table,) = monthly_top_terms(
            [(record, "rumour")], exclude=("corona virus",), top_n=10)
        terms = {term for term, _ in table.ranked["rumour"]}
        assert terms == {"corona", "beer", "virus"}

    def test_phrase_first_word_alone_is_kept(self):
        record = make_record("a", text="corona beer")
        (table,) = monthly_top_terms(
            [(record, "rumour")], exclude=("covid", "corona virus"), top_n=10)
        assert table.ranked["rumour"] == (("beer", 1), ("corona", 1))

    def test_wordless_keywords_exclude_nothing(self):
        labeled = [(make_record("a", text="covid lab corona virus #covid"), "rumour"),
                   (make_record("b", text="lab theory covid"), "nonrumour")]
        tables = monthly_top_terms(labeled, exclude=("covid", " ", ""), top_n=10)
        assert tables == monthly_top_terms(labeled, exclude=("covid",), top_n=10)

    def test_stopwords_never_appear(self):
        record = make_record("a", text="the and of lab")
        (table,) = monthly_top_terms([(record, "nonrumour")], top_n=10)
        assert table.ranked["nonrumour"] == (("lab", 1),)

    def test_frequencies_non_increasing_and_tie_lexicographic(self):
        record = make_record("a", text="zeta zeta alpha beta alpha")
        (table,) = monthly_top_terms([(record, "rumour")], top_n=10)
        rows = table.ranked["rumour"]
        freqs = [f for _, f in rows]
        assert freqs == sorted(freqs, reverse=True)
        assert rows[0][0] == "alpha" and rows[1][0] == "zeta"

    def test_hashtag_bodies_counted(self):
        assert content_terms("#wuhan lab") == ["wuhan", "lab"]


# The per-token forms: every token of every tweet classified afresh, with
# the exclusion list parsed again for each tweet.
def oracle_content_terms(text):
    terms = []
    for token in tokenize(normalize(text)):
        if token.startswith("#") and len(token) > 1:
            term = token[1:].lower()
        elif is_word_token(token):
            term = token.lower()
        else:
            continue
        if term not in stopword_list():
            terms.append(term)
    return terms


def oracle_remove_excluded(terms, exclude):
    phrases = [tuple(k.lower().split()) for k in exclude if " " in k]
    singles = {k.lower() for k in exclude if " " not in k}
    kept = []
    i = 0
    while i < len(terms):
        phrase = next((p for p in phrases if tuple(terms[i:i + len(p)]) == p), None)
        if phrase is not None:
            i += len(phrase)
            continue
        if terms[i] not in singles:
            kept.append(terms[i])
        i += 1
    return kept


def oracle_top_terms(labeled, exclude, top_n):
    counters = defaultdict(lambda: {label: Counter() for label in LABELS})
    for record, label in labeled:
        month = f"{record.created_at.year:04d}-{record.created_at.month:02d}"
        counters[month][label].update(
            oracle_remove_excluded(oracle_content_terms(record.text), exclude))
    return [(month, {label: tuple(sorted(counters[month][label].items(),
                                         key=lambda item: (-item[1], item[0]))[:top_n])
                     for label in LABELS})
            for month in sorted(counters)]


def oracle_histogram_counts(labeled):
    tallies = {(attribute, label): [0] * (len(edges) - 1)
               for attribute, edges in analyze.HISTOGRAM_EDGES.items() for label in LABELS}
    for record, label in labeled:
        text = record.text
        words = [token for token in tokenize(normalize(text)) if is_word_token(token)]
        values = {"words": len(words),
                  "stopwords": sum(word.lower() in stopword_list() for word in words),
                  "urls": len(_URL_RE.findall(text)), "hashtags": len(_HASHTAG_RE.findall(text)),
                  "mentions": len(_MENTION_RE.findall(text)),
                  "emojis": sum(ord(char) in _emoji_table() for char in text)}
        for attribute, edges in analyze.HISTOGRAM_EDGES.items():
            tallies[(attribute, label)][bisect_right(edges, values[attribute]) - 1] += 1
    return [(attribute, label, tuple(tallies[(attribute, label)]))
            for attribute in analyze.HISTOGRAM_EDGES for label in LABELS]


# One token in several cases, stopwords, excluded keywords and phrases,
# hashtags, tokens that are no words at all, and tokens whose class
# depends on case (`XD` and `HTTPURL` are special, `xd` and `httpurl` words).
_TEXT_PIECES = st.sampled_from([
    "Lab", "lab", "LAB", "lab!", "The", "the", "THE", "#Covid", "#covid", "covid", "Covid",
    "corona", "Corona", "virus", "VIRUS", "#", "@bob", "http://x.io", "\U0001F637", ":-)",
    "...", "not", "wuhan", "Wuhan?", "XD", "xd", "httpurl", "WWW.ex.com", "\u2764\ufe0f",
])
labeled_strategy = st.lists(
    st.tuples(st.lists(_TEXT_PIECES, max_size=12).map(" ".join), st.sampled_from(LABELS),
              st.sampled_from([0, 60 * 24 * 40, 60 * 24 * 70])),
    max_size=12,
).map(lambda rows: [(make_record(f"t{i}", text=text, minutes=minutes), label)
                    for i, (text, label, minutes) in enumerate(rows)])


@given(labeled_strategy, st.sampled_from([1, 3, 20]))
@settings(max_examples=200, deadline=None)
def test_tables_equal_per_token_forms(labeled, top_n):
    exclude = ("covid", "corona virus")
    tables = monthly_top_terms(labeled, exclude, top_n)
    assert [(t.month, t.ranked) for t in tables] == oracle_top_terms(labeled, exclude, top_n)
    assert [(h.attribute, h.label, h.counts) for h in attribute_histograms(labeled)] == \
        oracle_histogram_counts(labeled)


def test_top_terms_keep_no_token_table_across_calls(monkeypatch):
    labeled = [(make_record("a", text="Lab lab wuhan the"), "rumour")]
    (first,) = monthly_top_terms(labeled, top_n=5)
    assert first.ranked["rumour"] == (("lab", 2), ("wuhan", 1))
    monkeypatch.setattr(analyze, "stopword_list", lambda: frozenset({"lab"}))
    (second,) = monthly_top_terms(labeled, top_n=5)
    assert second.ranked["rumour"] == (("the", 1), ("wuhan", 1))


def _scored(record, label):
    scores = score_emotions(record.text).as_dict()
    scores["compound"] = score_sentiment(record.text).compound
    return (record, label, scores)


class TestMonthlyAverages:
    def test_singleton_mean_is_that_tweet(self):
        record = make_record("a", text="happy dread")
        rows = monthly_average_scores([_scored(record, "rumour")])
        emotions = score_emotions(record.text)
        by_dim = {(r.label, r.dimension): r for r in rows if r.month == "2020-03"}
        assert by_dim[("rumour", "fear")].mean == pytest.approx(emotions.fear)
        assert by_dim[("rumour", "happy")].mean == pytest.approx(emotions.happy)
        assert by_dim[("rumour", "fear")].n == 1

    def test_duplicates_leave_mean_unchanged(self):
        record = make_record("a", text="so much dread and fear")
        once = monthly_average_scores([_scored(record, "rumour")])
        thrice = monthly_average_scores([_scored(record, "rumour")] * 3)
        mean_once = {(r.label, r.dimension): r.mean for r in once}
        mean_thrice = {(r.label, r.dimension): r.mean for r in thrice}
        assert mean_once == pytest.approx(mean_thrice)

    def test_empty_month_emits_gap(self):
        import datetime as dt

        a = make_record("a", text="dread")
        c_time = dt.datetime(2020, 5, 10, tzinfo=dt.timezone.utc)
        c = a._replace(id="c", text="joy", created_at=c_time)
        rows = monthly_average_scores([_scored(a, "rumour"), _scored(c, "rumour")])
        months = {r.month for r in rows}
        assert months == {"2020-03", "2020-04", "2020-05"}
        april = [r for r in rows if r.month == "2020-04" and r.label == "rumour"]
        assert all(r.mean is None and r.n == 0 for r in april)


class TestCsvWriters:
    def test_histograms_csv_header_and_rows(self):
        hist = AttributeHistogram("urls", "rumour", (0, 1, math.inf), (2, 3))
        text = histograms_to_csv([hist])
        lines = text.splitlines()
        assert lines[0] == "attribute,class,bin_low,bin_high,count"
        assert lines[1] == "urls,rumour,0,1,2"
        assert lines[2] == "urls,rumour,1,inf,3"

    def test_terms_csv(self):
        record = make_record("a", text="wuhan lab lab")
        tables = monthly_top_terms([(record, "rumour")], top_n=5)
        lines = terms_to_csv(tables).splitlines()
        assert lines[0] == "month,class,rank,term,freq"
        assert "2020-03,rumour,1,lab,2" in lines

    def test_timeseries_csv_gap_is_empty_field(self):
        from rumourlab.analyze import MonthlyMean

        rows = [MonthlyMean("2020-01", "rumour", "fear", None, 0),
                MonthlyMean("2020-01", "nonrumour", "fear", 0.25, 4)]
        lines = timeseries_to_csv(rows).splitlines()
        assert lines[1] == "2020-01,rumour,fear,,0"
        assert lines[2] == "2020-01,nonrumour,fear,0.25,4"
