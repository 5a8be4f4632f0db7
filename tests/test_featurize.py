import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rumourlab.errors import ParseError, ValidationError
from rumourlab.featurize import (
    Standardizer,
    Vocabulary,
    _pairwise_distances,
    build_vocabulary,
    compute_class_weights,
    extract_handcrafted,
    fit_tfidf,
    load_terms,
    load_vocabulary,
    save_terms,
    save_vocabulary,
    TfidfModel,
    row_vectors,
    smote_oversample,
    tfidf_rows,
    transform_tfidf,
)

from conftest import make_record, oracle_standardizer_stats, oracle_transform_tfidf, stack_rows


def brute_force_tfidf(docs, doc, vocab):
    """Independent double-loop tf/df oracle with smoothed idf and l2 norm."""
    lowered = [[t.lower() for t in d] for d in docs]
    target = [t.lower() for t in doc]
    n = len(lowered)
    raw = {}
    for term in set(target):
        position = vocab.content_index(term)
        if position is None:
            continue
        tf = sum(1 for t in target if t == term)
        df = sum(1 for d in lowered if term in d)
        raw[position] = tf * (math.log((1 + n) / (1 + df)) + 1.0)
    norm = math.sqrt(sum(v * v for v in raw.values()))
    return {i: v / norm for i, v in raw.items()} if raw else {}


TOY_DOCS = [
    ["apple", "banana", "apple"],
    ["banana", "cherry"],
    ["cherry", "cherry", "date"],
]


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary(terms=("x", "y"))
        assert vocab.pad_id == 0 and vocab.unk_id == 1 and vocab.sep_id == 2
        assert vocab.id_of("x") == 3
        assert vocab.content_index("y") == 1
        assert vocab.id_of("zzz") is None

    def test_build_orders_by_frequency_then_term(self):
        vocab = build_vocabulary([["b", "a", "b"], ["c", "a"]], cap=10)
        # b and a both occur twice: tie broken lexicographically.
        assert vocab.terms == ("a", "b", "c")

    def test_cap_respected(self):
        vocab = build_vocabulary([["a", "b", "c", "a", "b", "a"]], cap=2)
        assert vocab.terms == ("a", "b")

    def test_lowercasing(self):
        vocab = build_vocabulary([["Apple", "APPLE"]], cap=5)
        assert vocab.terms == ("apple",)


class TestFitTfidf:
    def test_idf_term_in_every_doc_is_one(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        # No term is in all three docs here; use a corpus where one is.
        model2 = fit_tfidf([["x", "a"], ["x", "b"], ["x", "c"]], top_k=10)
        assert model2.idf[model2.vocab.content_index("x")] == pytest.approx(1.0, abs=1e-12)
        assert model.doc_count == 3

    def test_idf_rare_term(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        assert model.idf[model.vocab.content_index("date")] == pytest.approx(
            1.6931471805599454, abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            fit_tfidf([[], []], top_k=5)

    def test_top_k_keeps_most_frequent(self):
        model = fit_tfidf(TOY_DOCS, top_k=2)
        assert set(model.vocab.terms) == {"apple", "cherry"}


class TestTransformTfidf:
    def test_empty_doc(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        assert transform_tfidf(model, []).entries == ()

    def test_single_term_unit_norm(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        (entry,) = transform_tfidf(model, ["date"]).entries
        assert entry[1] == pytest.approx(1.0, abs=1e-12)

    def test_two_term_doc_hand_computed(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        got = dict(transform_tfidf(model, ["apple", "banana"]).entries)
        expected = {
            model.vocab.content_index("apple"): 0.7959605415681652,
            model.vocab.content_index("banana"): 0.6053485081062916,
        }
        assert set(got) == set(expected)
        for index, value in expected.items():
            assert got[index] == pytest.approx(value, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        for doc in TOY_DOCS + [["apple"], ["banana", "date", "date"]]:
            got = dict(transform_tfidf(model, doc).entries)
            expected = brute_force_tfidf(TOY_DOCS, doc, model.vocab)
            assert set(got) == set(expected)
            for index, value in expected.items():
                assert got[index] == pytest.approx(value, abs=1e-12)

    def test_out_of_vocab_dropped(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        assert transform_tfidf(model, ["unseen", "words"]).entries == ()

    def test_unit_norm_property(self):
        rng = np.random.default_rng(4)
        model = fit_tfidf(TOY_DOCS, top_k=10)
        pool = ["apple", "banana", "cherry", "date", "zzz"]
        for _ in range(50):
            doc = list(rng.choice(pool, size=rng.integers(1, 8)))
            vector = transform_tfidf(model, doc)
            if vector.entries:
                norm = math.sqrt(sum(value * value for _, value in vector.entries))
                assert norm == pytest.approx(1.0, abs=1e-9)

    def test_raw_count_mode(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        got = dict(transform_tfidf(model, ["apple", "apple"], use_raw_counts=True).entries)
        assert got == {model.vocab.content_index("apple"): 2.0}


# Terms in several cases, some that lowercase to another term or to two
# characters, and some that no vocabulary below holds.
_TFIDF_TOKENS = st.sampled_from(["apple", "Apple", "APPLE", "banana", "Banana", "cherry",
                                 "date", "DATE", "zzz", "Zzz", "\u0130", "i\u0307", "\u017f",
                                 "S", "s", "#tag", "#TAG"])
_TFIDF_DOCS = st.lists(st.lists(_TFIDF_TOKENS, max_size=9), max_size=6)


class TestTfidfRows:
    @settings(max_examples=300, deadline=None)
    @given(train=st.lists(st.lists(_TFIDF_TOKENS, min_size=1, max_size=6), min_size=1,
                          max_size=5),
           docs=_TFIDF_DOCS, top_k=st.integers(1, 8), raw=st.booleans(),
           idf=st.none() | st.lists(st.floats(0.01, 1e6), min_size=8, max_size=8))
    @example(train=[["apple"]], docs=[], top_k=1, raw=False, idf=None)
    @example(train=[["apple"]], docs=[[], ["zzz", "ZZZ"], []], top_k=1, raw=False, idf=None)
    @example(train=[["apple"]], docs=[["Apple", "apple", "APPLE"]], top_k=1, raw=True,
             idf=None)
    def test_rows_are_the_per_document_oracle_rows(self, train, docs, top_k, raw, idf):
        """Same rows, columns and value bytes as stacking the per-document
        transform, over fitted and over arbitrary idf weights."""
        model = fit_tfidf(train, top_k)
        if idf is not None:
            model = TfidfModel(vocab=model.vocab, idf=np.array(idf[:model.vocab.content_size]),
                               doc_count=model.doc_count)
        got = tfidf_rows(model, docs, use_raw_counts=raw)
        oracle = [oracle_transform_tfidf(model, doc, raw) for doc in docs]
        want = stack_rows(oracle, model.vocab.content_size)
        assert got.shape == want.shape
        assert got.rows.tolist() == want.rows.tolist()
        assert got.cols.tolist() == want.cols.tolist()
        assert got.vals.tobytes() == want.vals.tobytes()
        assert row_vectors(got) == oracle
        assert [transform_tfidf(model, doc, raw) for doc in docs] == oracle

    def test_zero_idf_row_is_refused(self):
        """A row whose terms all weigh 0 has no norm; the per-document
        transform refused it, and so does the matrix."""
        model = fit_tfidf(TOY_DOCS, top_k=10)
        model = TfidfModel(vocab=model.vocab, idf=np.zeros(model.vocab.content_size),
                           doc_count=model.doc_count)
        with pytest.raises(ValidationError, match="non-finite value at index"), \
                np.errstate(invalid="ignore"):
            tfidf_rows(model, [["apple"]])


class TestStackRows:
    def test_rows_keep_their_entries_in_order(self):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        docs = [["cherry", "apple"], [], ["unseen"], ["banana", "date", "apple"]]
        vectors = [transform_tfidf(model, doc) for doc in docs]
        matrix = stack_rows(vectors, model.vocab.content_size)
        assert matrix.shape == (4, model.vocab.content_size)
        assert matrix.rows.tolist() == [0, 0, 3, 3, 3]
        assert list(zip(matrix.cols.tolist(), matrix.vals.tolist())) == \
            [entry for vector in vectors for entry in vector.entries]
        dense = matrix.to_dense()
        for row, vector in enumerate(vectors):
            assert dict(vector.entries) == {i: v for i, v in enumerate(dense[row]) if v}

    def test_no_rows(self):
        matrix = stack_rows([], 5)
        assert matrix.shape == (0, 5) and matrix.to_dense().shape == (0, 5)


class TestHandcrafted:
    def test_zero_metadata_unverified(self):
        record = make_record("x", followers=0, following=0, tweet_count=0,
                             listed_count=0, account_created_year=2020)
        vector = extract_handcrafted(record)
        assert vector.tolist() == [0, 0, 2020, 0, 0, 0, 0, 0]

    def test_verified_slot(self):
        record = make_record("x", verified=True)
        assert extract_handcrafted(record)[3] == 1.0

    def test_exactly_eight_components(self):
        vector = extract_handcrafted(make_record("x", retweet_count=7, like_count=9))
        assert vector.shape == (8,)
        assert vector[0] == 7 and vector[1] == 9
        assert np.isfinite(vector).all()


class TestSmote:
    def test_identical_points_degenerate(self):
        points = [np.array([2.0, 3.0]), np.array([2.0, 3.0])]
        for synth in smote_oversample(points, k=1, n_new=5, seed=0):
            assert np.allclose(synth, [2.0, 3.0])

    def test_zero_new_points(self):
        points = [np.zeros(2), np.ones(2)]
        assert smote_oversample(points, k=1, n_new=0, seed=0) == []

    def test_segment_membership(self):
        points = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        for synth in smote_oversample(points, k=1, n_new=25, seed=3):
            assert synth[0] == pytest.approx(synth[1], abs=1e-12)
            assert -1e-12 <= synth[0] <= 1 + 1e-12

    def test_exactly_n_new_and_deterministic(self):
        rng = np.random.default_rng(0)
        points = list(rng.normal(size=(9, 3)))
        a = smote_oversample(points, k=3, n_new=17, seed=5)
        b = smote_oversample(points, k=3, n_new=17, seed=5)
        assert len(a) == 17
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_convex_combination_with_consistent_u(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(10, 4))
        for synth in smote_oversample(points, k=4, n_new=30, seed=2):
            found = False
            for i in range(len(points)):
                for j in range(len(points)):
                    if i == j:
                        continue
                    diff = points[j] - points[i]
                    offset = synth - points[i]
                    live = np.abs(diff) > 1e-12
                    u = offset[live] / diff[live]
                    if len(u) and np.all(np.abs(u - u[0]) < 1e-9) \
                            and -1e-9 <= u[0] <= 1 + 1e-9 \
                            and np.all(np.abs(offset[~live]) < 1e-9):
                        found = True
                        break
                if found:
                    break
            assert found

    @pytest.mark.parametrize("m,d,scale,zeros", [
        (2, 1, 1.0, 0.0), (9, 3, 1.0, 0.0), (20, 50, 1e-3, 0.5), (12, 40, 1e6, 0.0),
        (30, 800, 1.0, 0.95), (25, 2000, 0.1, 0.7),
    ])
    def test_distances_match_difference_tensor(self, m, d, scale, zeros):
        # The m x m x d difference tensor is the oracle, byte for byte;
        # lattice values and a duplicate point give tied distances.
        rng = np.random.default_rng(m * d)
        points = rng.integers(-2, 3, size=(m, d)) * scale
        points[:, ::2] += rng.normal(size=(m, (d + 1) // 2)) * scale
        points[rng.random((m, d)) < zeros] = 0.0
        points[-1] = points[0]
        expected = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        assert _pairwise_distances(points).tobytes() == expected.tobytes()
        assert expected[0, -1] == 0.0 and expected[0, 1] == expected[-1, 1]

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            smote_oversample([np.zeros(2)], k=1, n_new=1, seed=0)
        points = [np.zeros(2), np.ones(2), np.full(2, 2.0)]
        with pytest.raises(ValidationError):
            smote_oversample(points, k=3, n_new=1, seed=0)
        with pytest.raises(ValidationError):
            smote_oversample(points, k=0, n_new=1, seed=0)


class TestClassWeights:
    def test_balanced(self):
        weights = compute_class_weights(["rumour"] * 5 + ["nonrumour"] * 5)
        assert weights == {"nonrumour": 1.0, "rumour": 1.0}

    def test_imbalanced_75_25(self):
        labels = ["nonrumour"] * 75 + ["rumour"] * 25
        weights = compute_class_weights(labels)
        assert weights["nonrumour"] == pytest.approx(2 / 3, abs=1e-9)
        assert weights["rumour"] == pytest.approx(2.0, abs=1e-9)

    def test_single_class_with_expected_pair_rejected(self):
        with pytest.raises(ValidationError):
            compute_class_weights(["rumour"] * 4, classes=("rumour", "nonrumour"))

    def test_weighted_counts_sum_to_total(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            labels = list(rng.choice(["rumour", "nonrumour", "other"],
                                     size=rng.integers(3, 60)))
            if len(set(labels)) < 2:
                continue
            weights = compute_class_weights(labels)
            total = sum(weights[c] * labels.count(c) for c in weights)
            assert total == pytest.approx(len(labels), abs=1e-9)


class TestStandardizer:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(loc=5, scale=3, size=(20, 4))
        scaler = Standardizer.fit(matrix)
        transformed = scaler.transform(matrix)
        assert np.allclose(transformed.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(scaler.inverse(transformed), matrix, atol=1e-10)

    def test_partial_scaling_leaves_tail_columns(self):
        matrix = np.array([[1.0, 10.0], [3.0, 30.0]])
        scaler = Standardizer.fit(matrix, n_scaled=1)
        out = scaler.transform(matrix)
        assert out[:, 1].tolist() == [10.0, 30.0]
        assert out[:, 0].tolist() == [-1.0, 1.0]

    def test_constant_column_untouched(self):
        matrix = np.array([[2.0], [2.0]])
        scaler = Standardizer.fit(matrix)
        assert np.allclose(scaler.transform(matrix), 0.0)

    @pytest.mark.parametrize("rows,width", [(1, 1), (2, 3), (9, 1), (40, 12), (168, 300),
                                            (3000, 20), (10000, 9)])
    @pytest.mark.parametrize("n_scaled", [None, 0, 1, 2, 8, -3, 50])
    def test_sliced_fit_and_transforms_match_full_width(self, rows, width, n_scaled):
        # The full-width statistics and (x - mean) / std, x * std + mean
        # are the oracle, byte for byte; constant columns, zeros and
        # negative zeros included.
        rng = np.random.default_rng(rows * width)
        matrix = rng.normal(size=(rows, width)) * rng.choice([1e-3, 1.0, 1e6], size=width)
        matrix[:, rng.random(width) < 0.3] = 2.5
        matrix[rng.random((rows, width)) < 0.3] = 0.0
        matrix[rng.random((rows, width)) < 0.1] = -0.0
        scaler = Standardizer.fit(matrix, n_scaled)
        mean, std = oracle_standardizer_stats(matrix, n_scaled)
        assert scaler.mean.tobytes() == mean.tobytes() and scaler.std.tobytes() == std.tobytes()
        assert scaler.transform(matrix).tobytes() == ((matrix - mean) / std).tobytes()
        assert scaler.inverse(matrix).tobytes() == (matrix * std + mean).tobytes()
        loaded = Standardizer(mean=mean, std=std)  # as a checkpoint gives it back
        assert loaded.transform(matrix).tobytes() == scaler.transform(matrix).tobytes()
        out = np.empty_like(matrix)  # the in-place forms train_classic uses
        assert scaler.transform(matrix, out=out) is out
        expected = (out * std + mean).tobytes()
        assert scaler.inverse(out, out=out) is out and out.tobytes() == expected


class TestPersistence:
    def test_terms_round_trip(self, tmp_path):
        vocab = Vocabulary(terms=("alpha", "beta"))
        save_terms(vocab, tmp_path / "vocab.txt")
        loaded = load_terms(tmp_path / "vocab.txt")
        assert loaded.terms == vocab.terms
        header = (tmp_path / "vocab.txt").read_text().splitlines()[:3]
        assert header == ["<pad>", "<unk>", "<sep>"]

    def test_tfidf_round_trip(self, tmp_path):
        model = fit_tfidf(TOY_DOCS, top_k=10)
        save_vocabulary(model, tmp_path / "vocab.txt", tmp_path / "idf.txt")
        loaded = load_vocabulary(tmp_path / "vocab.txt", tmp_path / "idf.txt")
        assert loaded.vocab.terms == model.vocab.terms
        assert loaded.doc_count == model.doc_count
        assert np.array_equal(loaded.idf, model.idf)

    def test_tfidf_round_trip_with_hashtag_terms(self, tmp_path):
        docs = [["#tag", "alpha"], ["#tag", "#doc_count"], ["beta"]]
        model = fit_tfidf(docs, top_k=10)
        assert "#tag" in model.vocab.terms
        save_vocabulary(model, tmp_path / "vocab.txt", tmp_path / "idf.txt")
        loaded = load_vocabulary(tmp_path / "vocab.txt", tmp_path / "idf.txt")
        assert loaded.vocab.terms == model.vocab.terms
        assert loaded.doc_count == 3
        assert np.array_equal(loaded.idf, model.idf)

    @pytest.mark.parametrize("idf_text", ["", "alpha\t1.0\n", "# doc_count = x\n",
                                          pytest.param("# doc_count = " + "9" * 5000 + "\n",
                                                       id="long-count")])
    def test_idf_header_malformed(self, tmp_path, idf_text):
        save_terms(Vocabulary(terms=("alpha",)), tmp_path / "vocab.txt")
        (tmp_path / "idf.txt").write_text(idf_text)
        with pytest.raises(ParseError, match="idf.txt line 1: expected the"):
            load_vocabulary(tmp_path / "vocab.txt", tmp_path / "idf.txt")

    @pytest.mark.parametrize("term_line", ["alpha 1.0", "alpha\tmany", "alpha\tnan",
                                           "alpha\tinf"])
    def test_idf_term_line_damaged(self, tmp_path, term_line):
        save_terms(Vocabulary(terms=("alpha",)), tmp_path / "vocab.txt")
        (tmp_path / "idf.txt").write_text(f"# doc_count = 3\n{term_line}\n")
        with pytest.raises(ParseError, match=r"idf.txt line 2: expected term<TAB>idf"):
            load_vocabulary(tmp_path / "vocab.txt", tmp_path / "idf.txt")

    def test_header_required(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("just\nterms\n")
        with pytest.raises(ValidationError):
            load_terms(tmp_path / "vocab.txt")


@st.composite
def _fuzz_lines(draw, headers, good):
    """Bytes of a vocabulary or idf file: one of `headers` or none, then
    good lines, damaged ones and noise, joined by any line end, perhaps
    with a bad byte."""
    line = st.one_of(st.sampled_from(good), st.text(max_size=8),
                     st.builds(lambda term, value: f"{term}\t{value}",
                               st.sampled_from(["alpha", "#tag", "zeta", ""]),
                               st.sampled_from(["1.5", "nan", "1e999", "x", "", "1\t2"])))
    lines = draw(st.sampled_from(headers + [[]])) + draw(st.lists(line, max_size=5))
    data = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")
    cut = draw(st.one_of(st.none(), st.integers(0, len(data))))
    return data if cut is None else data[:cut] + b"\xff" + data[cut:]


class TestFuzzedVocabulary:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(vocab=_fuzz_lines([["<pad>", "<unk>", "<sep>"], ["<pad>", "<unk>"]],
                             ["alpha", "#tag", "a\u2028b"]),
           idf=_fuzz_lines([["# doc_count = 3"], ["# doc_count = " + "9" * 5000],
                            ["# doc_count = -1"], ["# doc_count = \u0663"]],
                           ["alpha\t1.5", "#tag\t2.0", "a\u2028b\t0.5"]))
    def test_load_raises_only_documented_errors(self, tmp_path, vocab, idf):
        vocab_path, idf_path = tmp_path / "vocab.txt", tmp_path / "idf.txt"
        vocab_path.write_bytes(vocab)
        idf_path.write_bytes(idf)
        for load in (lambda: load_terms(vocab_path),
                     lambda: load_vocabulary(vocab_path, idf_path)):
            try:
                load()
            except (ParseError, ValidationError) as exc:
                match = re.match(r"(.*) line (\d+): ", str(exc))
                assert match and match.group(1) in (str(vocab_path), str(idf_path))
                data = vocab if match.group(1) == str(vocab_path) else idf
                assert 1 <= int(match.group(2)) <= len(re.split(rb"\r\n|\r|\n", data))
