import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourlab import config as config_module
from rumourlab.config import RunConfig
from rumourlab.errors import ParseError, ValidationError
from rumourlab.featurize import Standardizer, build_vocabulary, fit_tfidf
from rumourlab.gradengine import Tensor, parameter
from rumourlab.models import (
    BiGcnModel,
    ClassicModel,
    LstmModel,
    fit,
    forest_from_text,
    forest_to_text,
    predict_classic,
    predict_threads,
    train_classic,
)
from rumourlab.models.data import thread_docs, tweet_docs
from rumourlab.proptree import to_graph_batch
from rumourlab.synthetic import make_planted_threads

from conftest import make_thread


@pytest.fixture(scope="module")
def toy_threads():
    return make_planted_threads(n_threads=12, seed=3, max_replies=2)


@pytest.fixture(scope="module")
def lstm_setup(toy_threads):
    vocab = build_vocabulary(thread_docs(toy_threads), cap=80)
    model = LstmModel(
        RunConfig(vocab_cap=100, embed_dim=6, hidden_dim=8,
                  perceptron_dim=5, max_len=16),
        vocab,
    )
    params = model.init_params(np.random.default_rng(0))
    return model, params


class TestLstm:
    def test_fully_padded_row_gives_bias_constant(self, lstm_setup):
        model, params = lstm_setup
        ids = np.zeros((3, 6), dtype=int)
        mask = np.zeros((3, 6))
        out = model.forward(params, ids, mask).values
        assert out[0, 0] == out[1, 0] == out[2, 0]

    def test_padding_extension_invariance(self, lstm_setup, toy_threads):
        model, params = lstm_setup
        data = model.prepare(toy_threads[:4])
        base = model.forward(params, data.ids, data.mask).values
        extended_ids = np.hstack([data.ids, np.zeros((4, 7), dtype=int)])
        extended_mask = np.hstack([data.mask, np.zeros((4, 7))])
        extended = model.forward(params, extended_ids, extended_mask).values
        assert np.abs(extended - base).max() <= 1e-12

    def test_output_in_open_unit_interval(self, lstm_setup, toy_threads):
        model, params = lstm_setup
        data = model.prepare(toy_threads)
        out = model.forward(params, data.ids, data.mask).values
        assert ((out > 0) & (out < 1)).all()

    def test_out_of_range_id_rejected(self, lstm_setup):
        model, params = lstm_setup
        bad = np.full((1, 4), params["embed"].shape[0], dtype=int)
        with pytest.raises(ValidationError, match="out of range"):
            model.forward(params, bad, np.ones((1, 4)))

    def test_forget_gate_bias_initialized_to_one(self, lstm_setup):
        _, params = lstm_setup
        assert (params["b_f"].values == 1.0).all()
        assert (params["b_i"].values == 0.0).all()

    def test_vocab_saturating_cap_still_addressable(self, toy_threads):
        # Reserved ids live inside the cap: a vocabulary built with
        # cap - 3 content terms must embed without range errors.
        vocab = build_vocabulary(thread_docs(toy_threads), cap=17)
        model = LstmModel(RunConfig(vocab_cap=20, embed_dim=4, hidden_dim=4,
                                    perceptron_dim=3, max_len=8), vocab)
        params = model.init_params(np.random.default_rng(0))
        assert params["embed"].shape[0] == vocab.size
        data = model.prepare(toy_threads[:3])
        assert model.forward(params, data.ids, data.mask).shape == (3, 1)

    def test_vocab_exceeding_cap_rejected(self, toy_threads):
        vocab = build_vocabulary(thread_docs(toy_threads), cap=30)
        model = LstmModel(RunConfig(vocab_cap=20, embed_dim=4, hidden_dim=4,
                                    perceptron_dim=3, max_len=8), vocab)
        with pytest.raises(ValidationError, match="vocab_cap"):
            model.init_params(np.random.default_rng(0))


@pytest.fixture(scope="module")
def bigcn_setup(toy_threads):
    tfidf = fit_tfidf(tweet_docs(toy_threads), top_k=50)
    model = BiGcnModel(
        RunConfig(bigcn_hidden_dim=6, bigcn_out_dim=5, drop_edge_rate=0.0),
        tfidf,
    )
    params = model.init_params(np.random.default_rng(1))
    return model, params


class TestBiGcn:
    def test_probabilities_sum_to_one(self, bigcn_setup, toy_threads):
        model, params = bigcn_setup
        data = model.prepare(toy_threads)
        batch = to_graph_batch(data.trees, model.input_dim)
        probs = model.forward(params, batch).values
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_non_root_permutation_invariance(self, bigcn_setup, toy_threads):
        model, params = bigcn_setup
        data = model.prepare([t for t in toy_threads if len(t.replies) >= 2][:3])
        batch = to_graph_batch(data.trees, model.input_dim)
        base = model.forward(params, batch).values
        permuted_trees = []
        for tree in data.trees:
            nodes = list(tree.nodes)
            if len(nodes) >= 3:
                reordered = [nodes[0]] + list(reversed(nodes[1:]))
                renumbered = [
                    type(node)(index=i + 1, parent=node.parent, features=node.features)
                    for i, node in enumerate(reordered)
                ]
                tree = type(tree)(thread_id=tree.thread_id, label=tree.label,
                                  nodes=tuple(renumbered))
            permuted_trees.append(tree)
        permuted = model.forward(
            params, to_graph_batch(permuted_trees, model.input_dim)).values
        assert np.abs(permuted - base).max() <= 1e-9

    def test_single_node_directions_agree_with_tied_weights(self, bigcn_setup):
        model, params = bigcn_setup
        tied = dict(params)
        tied["bu_w1"] = parameter(params["td_w1"].values.copy(), "bu_w1")
        tied["bu_w2"] = parameter(params["td_w2"].values.copy(), "bu_w2")
        thread = make_thread("solo", label="rumour", text="people say report")
        data = model.prepare([thread])
        batch = to_graph_batch(data.trees, model.input_dim)
        features = Tensor(batch.features)
        from rumourlab.gradengine import concat, gather_rows, matmul, relu, segment_mean, spmm

        halves = []
        for direction in ("td", "bu"):
            root = batch.root_index[batch.graph_membership]
            h1 = relu(spmm(batch.adjacency, matmul(features, tied[f"{direction}_w1"])))
            h1 = concat([h1, gather_rows(h1, root)])
            h2 = relu(spmm(batch.adjacency, matmul(h1, tied[f"{direction}_w2"])))
            h2 = concat([h2, gather_rows(h2, root)])
            halves.append(segment_mean(h2, batch.graph_membership, 1).values)
        assert np.allclose(halves[0], halves[1], atol=1e-12)

    def test_dimension_mismatch_rejected(self, bigcn_setup, toy_threads):
        model, params = bigcn_setup
        data = model.prepare(toy_threads[:2])
        batch = to_graph_batch(data.trees, model.input_dim + 3)
        with pytest.raises(ValidationError, match="columns"):
            model.forward(params, batch)


class _StubBatch:
    def __init__(self, n):
        self.targets = np.zeros(n, dtype=int)

    def __len__(self):
        return len(self.targets)


class _ScriptedModel:
    """Trainer-protocol stub with scripted dev losses, for pinning the
    early-stopping contract."""

    def __init__(self, dev_losses):
        self.dev_losses = dev_losses
        self.epoch = 0

    def init_params(self, rng):
        return {"theta": parameter(np.array([0.0]), "theta")}

    def prepare(self, threads):
        return _StubBatch(max(1, len(threads)))

    def slice(self, data, index):
        return _StubBatch(len(index))

    def loss_and_predictions(self, params, batch, train, rng=None):
        if train:
            # One training batch per epoch; bump theta so snapshots differ.
            params["theta"].values = params["theta"].values + 1.0
            self.epoch += 1
            value = 1.0
        else:
            value = self.dev_losses[self.epoch - 1]
        loss = Tensor(np.array(float(value)))
        labels = ["nonrumour"] * len(batch)
        return loss, labels, np.zeros(len(batch))


class TestFitContracts:
    def _threads(self):
        return [make_thread(f"t{i}", label="nonrumour") for i in range(1)]

    def test_patience_one_stops_after_second_epoch(self):
        model = _ScriptedModel(dev_losses=[1.0, 2.0, 3.0, 4.0, 5.0])
        config = RunConfig(lr=1.0, batch_size=1, max_epochs=10, patience=1)
        result = fit(model, self._threads(), self._threads(), config, 0)
        assert len(result.history) == 2
        assert result.best_epoch == 1
        # Epoch-1 parameters restored: theta was 1.0 after the first epoch.
        assert result.params["theta"].values.tolist() == [1.0]

    def test_patience_tolerates_plateau_then_recovers(self):
        model = _ScriptedModel(dev_losses=[3.0, 3.0, 2.0, 2.5, 2.4, 2.6, 2.7])
        config = RunConfig(lr=1.0, batch_size=1, max_epochs=7, patience=2)
        result = fit(model, self._threads(), self._threads(), config, 0)
        assert result.best_epoch == 3
        assert len(result.history) == 5
        assert result.params["theta"].values.tolist() == [3.0]

    def test_non_finite_loss_reports_epoch_and_batch(self, toy_threads):
        class ExplodingModel(_ScriptedModel):
            def loss_and_predictions(self, params, batch, train, rng=None):
                if train:
                    return Tensor(np.array(np.nan)), ["nonrumour"], np.zeros(1)
                return Tensor(np.array(1.0)), ["nonrumour"], np.zeros(len(batch))

        config = RunConfig(lr=1.0, batch_size=1, max_epochs=3, patience=1)
        with pytest.raises(ValidationError, match="epoch 1, batch 1"):
            fit(ExplodingModel([1.0]), self._threads(), self._threads(), config, 0)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValidationError):
            fit(_ScriptedModel([1.0]), [], self._threads(), RunConfig(), 0)


class TestFitDeterminism:
    def test_same_seed_bitwise_identical(self, toy_threads):
        vocab = build_vocabulary(thread_docs(toy_threads), cap=60)
        config = RunConfig(vocab_cap=80, embed_dim=4, hidden_dim=5, perceptron_dim=4,
                           max_len=10, dropout=0.2, lr=0.05, batch_size=4, max_epochs=3,
                           patience=3)
        model = LstmModel(config, vocab)
        train, dev = model.prepare(toy_threads[:8]), model.prepare(toy_threads[8:])
        first = fit(model, train, dev, config, 11)
        second = fit(model, train, dev, config, 11)
        assert first.history == second.history
        for name in first.params:
            assert np.array_equal(first.params[name].values,
                                  second.params[name].values)


class TestLearningSanity:
    def test_lstm_learns_planted_signal(self):
        threads = make_planted_threads(n_threads=40, seed=21, max_replies=1)
        vocab = build_vocabulary(thread_docs(threads), cap=200)
        config = RunConfig(vocab_cap=250, embed_dim=12, hidden_dim=12, perceptron_dim=8,
                           max_len=24, lr=0.05, batch_size=8, max_epochs=15, patience=15)
        model = LstmModel(config, vocab)
        train = model.prepare(threads[:32])
        result = fit(model, train, model.prepare(threads[32:]), config, 2)
        labels, _ = predict_threads(model, result.params, train)
        truth = [t.label for t in threads[:32]]
        accuracy = np.mean([p == t for p, t in zip(labels, truth)])
        assert accuracy >= 0.95


def _classic(**settings):
    """Classic-model settings without class weights."""
    return RunConfig(class_weights=False, **settings)


# At least one out-of-range value for every ranged RunConfig setting.
RANGE_CASES = [
    ("rf_trees", 0), ("smote_k", 0), ("classic_iters", 0), ("svm_iters", 0),
    ("lr", 0.0), ("lr", float("nan")), ("logreg_l2", -1e-3), ("svm_l2", -1.0),
    ("rf_max_depth", -1), ("rf_feature_subsample", "half"),
    ("model", "mlp"), ("features", "words"), ("epsilon", 0.0),
    ("ratios", (0.5, 0.5)), ("ratios", (0.5, 0.5, 0.5)), ("ratios", (-0.2, 0.6, 0.6)),
    ("seeds", ()), ("seeds", (-1,)), ("seeds", (1, 1)),
    ("weight_decay", float("inf")), ("batch_size", 0),
    ("max_epochs", 0), ("patience", 0), ("dropout", 1.0), ("dropout", -0.1),
    ("drop_edge_rate", 1.0), ("vocab_cap", 3), ("embed_dim", 0), ("hidden_dim", 0),
    ("perceptron_dim", 0), ("max_len", 0), ("tfidf_top_k", 0), ("bigcn_hidden_dim", 0),
    ("bigcn_out_dim", 0), ("classic_lr", float("inf")),
    ("dataset", "d#1.jsonl"), ("dataset", "a\nb.jsonl"), ("dataset", "a\rb.jsonl"),
    ("dataset", " d.jsonl"),
]


class TestTrainClassic:
    def _separable(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        pos = rng.normal(loc=(3, 3), scale=0.4, size=(n // 2, 2))
        neg = rng.normal(loc=(-3, -3), scale=0.4, size=(n // 2, 2))
        x = np.vstack([pos, neg])
        y = ["rumour"] * (n // 2) + ["nonrumour"] * (n // 2)
        return x, y

    def test_logreg_separates(self):
        x, y = self._separable()
        model = train_classic("logreg", x, y, _classic(classic_iters=300), 1)
        labels, scores = predict_classic(model, x)
        assert labels == y
        assert ((scores > 0) & (scores < 1)).all()

    def test_logreg_zero_weights_score_half(self):
        x, y = self._separable()
        model = train_classic("logreg", x, y, _classic(classic_iters=300), 1)
        model.weights[:] = 0.0
        model = type(model)(kind="logreg", weights=model.weights * 0, bias=0.0,
                            standardizer=model.standardizer)
        _, scores = predict_classic(model, x)
        assert np.allclose(scores, 0.5)

    def test_logreg_extreme_margin_scores_without_overflow(self):
        # A margin of -2000 once overflowed exp(-z) (a RuntimeWarning).
        model = ClassicModel(kind="logreg", weights=np.array([2.0]), bias=0.0,
                             standardizer=Standardizer(mean=np.zeros(1), std=np.ones(1)))
        labels, scores = predict_classic(model, np.array([[-1000.0], [0.0], [1000.0]]))
        assert labels == ["nonrumour", "rumour", "rumour"]
        assert scores.tolist() == [0.0, 0.5, 1.0]

    def test_svm_converges_on_margin_data(self):
        # Ten points at fixed distance from the separating plane.
        x = np.array([[2.0], [2.2], [2.4], [2.6], [2.8],
                      [-2.0], [-2.2], [-2.4], [-2.6], [-2.8]])
        y = ["rumour"] * 5 + ["nonrumour"] * 5
        model = train_classic("svm", x, y, _classic(svm_iters=2000, classic_lr=0.1), 0)
        z = model.standardizer.transform(x) @ model.weights + model.bias
        signs = np.where(np.array(y) == "rumour", 1.0, -1.0)
        hinge = np.maximum(0.0, 1.0 - signs * z).mean()
        assert hinge < 0.01
        labels, _ = predict_classic(model, x)
        assert labels == y

    def test_rf_depth_zero_predicts_majority(self):
        x = np.arange(12.0).reshape(-1, 1)
        y = ["rumour"] * 8 + ["nonrumour"] * 4
        model = train_classic("rf", x, y, _classic(rf_trees=1, rf_max_depth=0), 5)
        labels, _ = predict_classic(model, np.array([[0.0], [100.0]]))
        assert labels == ["rumour", "rumour"]

    def test_rf_unanimous_scores_one(self):
        x, y = self._separable()
        model = train_classic("rf", x, y, _classic(rf_trees=15), 2)
        _, scores = predict_classic(model, np.array([[3.0, 3.0], [-3.0, -3.0]]))
        assert scores[0] == 1.0 and scores[1] == 0.0

    def test_smote_requested_balances_training(self):
        x, y = self._separable(n=20)
        x = np.vstack([x, x[:4] + 0.1])
        y = y + ["rumour"] * 4
        model = train_classic("logreg", x, y,
                              _classic(smote=True, classic_iters=100), 3)
        assert model.weights is not None  # smoke: fit succeeded on balanced data

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            train_classic("logreg", x, ["rumour"] * 4, _classic(), 0)

    @pytest.mark.parametrize("field,value", RANGE_CASES)
    def test_out_of_range_options_rejected(self, field, value):
        # Every ranged setting is checked on RunConfig, whichever model runs.
        with pytest.raises(ValidationError, match=f"^{field} must be "):
            RunConfig(**{field: value})

    def test_range_cases_cover_every_ranged_setting(self):
        assert {field for field, _ in RANGE_CASES} == set(config_module._RANGES)

    @pytest.mark.parametrize("field,value", [
        ("seeds", (0, 7)), ("vocab_cap", 4), ("dropout", 0.0), ("rf_max_depth", 0),
        ("rf_max_depth", None), ("weight_decay", 0.0), ("ratios", (0.8, 0.1, 0.1)),
    ])
    def test_range_boundaries_accepted(self, field, value):
        assert getattr(RunConfig(**{field: value}), field) == value

    def test_deterministic_given_seed(self):
        x, y = self._separable()
        a = train_classic("rf", x, y, _classic(rf_trees=10), 9)
        b = train_classic("rf", x, y, _classic(rf_trees=10), 9)
        assert forest_to_text(a) == forest_to_text(b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            train_classic("mlp", np.zeros((2, 2)), ["rumour", "nonrumour"], _classic(), 0)

    def test_dimension_mismatch_on_predict(self):
        x, y = self._separable()
        model = train_classic("logreg", x, y, _classic(classic_iters=50), 0)
        with pytest.raises(ValidationError, match="features"):
            predict_classic(model, np.zeros((2, 5)))


FOREST_TEXT = """# rumourlab-forest v1
n_trees = 2
feature_dim = 2
tree 0
0 0.5 1 2 1.0 1.0
-1 0.0 -1 -1 1.0 0.0
-1 0.0 -1 -1 0.0 1.0
tree 1
-1 0.0 -1 -1 1.0 1.0
"""


class TestForestPersistence:
    def test_round_trip_predictions_identical(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 3))
        y = ["rumour" if v > 0 else "nonrumour" for v in x[:, 0]]
        model = train_classic("rf", x, y, _classic(rf_trees=12), 4)
        text = forest_to_text(model)
        reloaded = forest_from_text(text)
        labels_a, scores_a = predict_classic(model, x)
        labels_b, scores_b = predict_classic(reloaded, x)
        assert labels_a == labels_b
        assert np.array_equal(scores_a, scores_b)

    def test_version_required(self):
        with pytest.raises(ValidationError):
            forest_from_text("not a forest\n")

    @pytest.mark.parametrize("body,message", [
        ("n_trees = 1\ntree 0\n-1 0.0 -1 -1 1.0 0.0\n", "feature_dim line is missing"),
        # A child that points back at its own node would loop at predict.
        ("n_trees = 1\nfeature_dim = 2\ntree 0\n0 0.5 0 2 1.0 1.0\n"
         "-1 0.0 -1 -1 1.0 0.0\n-1 0.0 -1 -1 0.0 1.0\n", "forest line 5: split feature"),
        ("n_trees = 1\nfeature_dim = 2\ntree 0\n2 0.5 1 2 1.0 1.0\n", "forest line 5: split"),
        ("n_trees = 1\nfeature_dim = 2\ntree 0\n", "forest line 4: tree has no nodes"),
        ("n_trees = 1\nfeature_dim = 2\ntree 0\n-1 x -1 -1 1.0 0.0\n", "forest line 5: malformed"),
        ("n_trees = 1\nfeature_dim = -1\ntree 0\n-1 0.0 -1 -1 1.0 0.0\n",
         "forest line 3: feature_dim = -1 is negative"),
    ], ids=["no-feature-dim", "child-loops-back", "feature-outside", "empty-tree", "bad-float",
            "negative-feature-dim"])
    def test_damaged_forest_names_line(self, body, message):
        with pytest.raises(ParseError, match=message):
            forest_from_text("# rumourlab-forest v1\n" + body)

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(
        st.sampled_from(["delete", "insert", "replace"]), st.integers(0, 9), st.one_of(
            st.builds("n_trees = {}".format, st.integers(-1, 3)),
            st.builds("feature_dim = {}".format, st.integers(-1, 3)),
            st.builds("tree {}".format, st.integers(0, 3)),
            st.builds("{} {} {} {} 1.0 0.0".format, st.integers(-2, 2),
                      st.sampled_from(["0.5", "nan", "x"]),
                      st.integers(-1, 4), st.integers(-1, 4)),
            st.text(max_size=8))), max_size=3),
        cut=st.one_of(st.just(0), st.integers(1, 80)))
    def test_fuzzed_forest_raises_only_documented_errors(self, edits, cut):
        lines = FOREST_TEXT.splitlines()
        for op, at, line in edits:
            at %= len(lines) + 1
            if op == "insert":
                lines.insert(at, line)
            elif at < len(lines):
                lines[at:at + 1] = [] if op == "delete" else [line]
        text = "\n".join(lines) + "\n"
        try:
            model = forest_from_text(text[:len(text) - cut])
        except (ParseError, ValidationError, FileNotFoundError):
            return
        # Whatever loads also predicts.
        _, scores = predict_classic(model, np.zeros((3, model.forest_dim)))
        assert scores.shape == (3,)


class TestBiGcnPredictMatchesArgmax(object):
    def test_predict_equals_argmax(self, bigcn_setup, toy_threads):
        model, params = bigcn_setup
        data = model.prepare(toy_threads)
        batch = to_graph_batch(data.trees, model.input_dim)
        probs = model.forward(params, batch).values
        _, labels, _ = model.loss_and_predictions(params, data, train=False)
        expected = ["rumour" if row[0] >= row[1] else "nonrumour" for row in probs]
        assert labels == expected
