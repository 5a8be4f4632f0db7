import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourlab import config as config_module
from rumourlab.config import RunConfig
from rumourlab.errors import ParseError, ValidationError
from rumourlab.featurize import Standardizer, build_vocabulary, fit_tfidf, smote_oversample
from rumourlab.gradengine import (
    OptimizerState,
    Tensor,
    backward,
    bce_loss,
    gather_rows,
    hinge_loss,
    mask_mul,
    matmul,
    optimizer_step,
    parameter,
    relu,
    sigmoid,
    sum_all,
    tanh,
)
from rumourlab.gradengine.tensor import _topological_order
from rumourlab.models import (
    BiGcnModel,
    ClassicLearner,
    ClassicModel,
    LstmModel,
    classic,
    fit,
    forest_from_text,
    forest_to_text,
    predict_classic,
    predict_threads,
    train_classic,
    trainer,
)
from rumourlab.models.classic import (
    LEAF,
    _gini_best_split,
    _gradient_fit,
    _grow_tree,
    _tree_votes,
)
from rumourlab.models.data import lstm_inputs, thread_docs, token_table, tweet_docs
from rumourlab.models.lstm import GATES
from rumourlab.proptree import to_graph_batch
from rumourlab.synthetic import make_planted_threads
from rumourlab.textproc import normalize, tokenize

from conftest import (
    make_thread,
    oracle_backward,
    oracle_init_params,
    oracle_standardizer_stats,
    oracle_train_classic,
)


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


class TestTokenTable:
    def test_each_tweets_lowercased_tokens_with_one_str_per_term(self, toy_threads):
        table = token_table(toy_threads)
        assert table == {tweet.id: [token.lower() for token in tokenize(normalize(tweet.text))]
                         for thread in toy_threads for tweet in thread.tweets()}
        first = {}
        for tokens in table.values():
            for token in tokens:
                assert first.setdefault(token, token) is token

    @pytest.mark.parametrize("docs", [thread_docs, tweet_docs])
    def test_docs_without_a_table_hold_one_str_per_term(self, toy_threads, docs):
        """Each builder makes one table over its threads; `thread_docs` once
        made one per thread, so a term shared by threads was held once per thread."""
        first = {}
        for doc in docs(toy_threads):
            for token in doc:
                assert first.setdefault(token, token) is token
        assert len(first) < sum(map(len, thread_docs(toy_threads)))

    @pytest.mark.parametrize("max_len", [1, 5, 200])
    def test_lstm_inputs_keep_the_first_tokens_of_the_joined_thread(self, toy_threads,
                                                                   max_len):
        vocab = build_vocabulary(thread_docs(toy_threads[:6]), cap=30)
        ids, mask = lstm_inputs(toy_threads, vocab, max_len)
        for row, thread in enumerate(toy_threads):
            joined = " ".join(tweet.text for tweet in thread.tweets())
            tokens = [token.lower() for token in tokenize(normalize(joined))][:max_len]
            found = [vocab.id_of(token) for token in tokens]
            assert ids[row].tolist() == [vocab.unk_id if i is None else i for i in found] \
                + [vocab.pad_id] * (max_len - len(tokens))
            assert mask[row].tolist() == [1.0] * len(tokens) + [0.0] * (max_len - len(tokens))


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


def per_step_forward(model, params, ids, mask):
    """The LSTM as a graph of engine primitives, about 30 nodes per step:
    the reference the one-node recurrence is checked against."""
    batch = len(ids)
    hidden = Tensor(np.zeros((batch, model.config.hidden_dim)))
    cell = Tensor(np.zeros((batch, model.config.hidden_dim)))
    for t in range(int(mask.sum(axis=1).max()) if batch else 0):
        x = gather_rows(params["embed"], ids[:, t])
        gates = {}
        for gate in GATES:
            pre = matmul(x, params[f"w_x{gate}"]) \
                + matmul(hidden, params[f"w_h{gate}"]) + params[f"b_{gate}"]
            gates[gate] = tanh(pre) if gate == "c" else sigmoid(pre)
        new_cell = gates["f"] * cell + gates["i"] * gates["c"]
        new_hidden = gates["o"] * tanh(new_cell)
        step_mask = mask[:, t:t + 1]
        cell = mask_mul(new_cell, step_mask) + mask_mul(cell, 1.0 - step_mask)
        hidden = mask_mul(new_hidden, step_mask) + mask_mul(hidden, 1.0 - step_mask)
    z = relu(matmul(hidden, params["w_perc"]) + params["b_perc"])
    return sigmoid(matmul(z, params["w_out"]) + params["b_out"])


@pytest.fixture(scope="module")
def default_lstm(toy_threads):
    """Default sizes, every parameter moved off its initial value."""
    vocab = build_vocabulary(thread_docs(toy_threads), cap=80)
    model = LstmModel(RunConfig(), vocab)
    rng = np.random.default_rng(5)
    params = model.init_params(rng)
    for p in params.values():
        p.values += rng.normal(scale=0.1, size=p.shape)
    return model, params


def _batch(model, lengths, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, model.vocab.size, size=(len(lengths), model.config.max_len))
    mask = (np.arange(model.config.max_len) < np.array(lengths)[:, None]).astype(float)
    return ids, mask


def _grads(params):
    """Each parameter's `.grad`, zeros where the loss never reached it."""
    return {name: np.zeros_like(p.values) if p.grad is None else p.grad
            for name, p in params.items()}


def _probs_and_grads(forward, params, weights):
    for p in params.values():
        p.grad = None
    probs = forward()
    backward(sum_all(probs * Tensor(weights)))
    return probs.values, _grads(params)


class TestLstmMatchesPerStepGraph:
    @pytest.mark.parametrize("lengths", [
        [128, 1, 0, 77, 5, 128, 30, 64],
        [40, 3, 0, 17],
        [0, 0, 0],
    ], ids=["ragged", "prefix-shorter-than-max-len", "no-active-step"])
    def test_probabilities_and_gradients_agree(self, default_lstm, lengths):
        model, params = default_lstm
        ids, mask = _batch(model, lengths)
        weights = np.random.default_rng(1).normal(size=(len(lengths), 1))
        probs, grads = _probs_and_grads(
            lambda: model.forward(params, ids, mask), params, weights)
        want_probs, want_grads = _probs_and_grads(
            lambda: per_step_forward(model, params, ids, mask), params, weights)
        assert np.abs(probs - want_probs).max() <= 1e-10 * np.abs(want_probs).max()
        assert grads.keys() == want_grads.keys() == params.keys()
        for name, want in want_grads.items():
            assert np.abs(grads[name] - want).max() <= 1e-10 * np.abs(want).max(), name

    def test_no_active_step_gives_bias_constant(self, default_lstm):
        model, params = default_lstm
        ids, mask = _batch(model, [0, 0, 0])
        z = np.maximum(params["b_perc"].values, 0.0) @ params["w_out"].values \
            + params["b_out"].values
        out = model.forward(params, ids, mask).values
        np.testing.assert_allclose(out, np.repeat(1.0 / (1.0 + np.exp(-z)), 3, axis=0),
                                   rtol=1e-12)

    def test_constant_parameters_track_nothing(self, default_lstm):
        model, params = default_lstm
        ids, mask = _batch(model, [128, 1, 0, 40])
        constants = {name: Tensor(p.values) for name, p in params.items()}
        out = model.forward(constants, ids, mask)
        assert not out.requires_grad and out._parents == ()
        assert np.array_equal(out.values, model.forward(params, ids, mask).values)


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
        from rumourlab.gradengine import concat, gather_rows, matmul, relu, segment_mean, spmm

        halves = []
        for direction in ("td", "bu"):
            root = batch.root_index[batch.graph_membership]
            h1 = relu(spmm(batch.adjacency, spmm(batch.features, tied[f"{direction}_w1"])))
            h1 = concat([h1, gather_rows(h1, root)])
            h2 = relu(spmm(batch.adjacency, matmul(h1, tied[f"{direction}_w2"])))
            h2 = concat([h2, gather_rows(h2, root)])
            halves.append(segment_mean(h2, batch.graph_membership, 1).values)
        assert np.allclose(halves[0], halves[1], atol=1e-12)

    def test_dimension_mismatch_rejected(self, bigcn_setup, toy_threads):
        model, params = bigcn_setup
        data = model.prepare(toy_threads[:2])
        batch = to_graph_batch(data.trees, model.input_dim + 3)
        with pytest.raises(ValidationError, match="incompatible"):
            model.forward(params, batch)


def _gradient_model(kind, threads, **sizes):
    if kind == "lstm":
        return LstmModel(RunConfig(**sizes), build_vocabulary(thread_docs(threads), cap=80))
    return BiGcnModel(RunConfig(**sizes), fit_tfidf(tweet_docs(threads), top_k=50))


class _Declared(trainer.GradientModel):
    def __init__(self, layout):
        self.layout = layout

    def param_layout(self):
        return self.layout


class TestParamLayout:
    @pytest.mark.parametrize("kind,sizes", [
        ("lstm", {}), ("lstm", {"embed_dim": 1}), ("lstm", {"hidden_dim": 1}),
        ("lstm", {"embed_dim": 3, "hidden_dim": 2, "perceptron_dim": 1}),
        ("bigcn", {}), ("bigcn", {"bigcn_hidden_dim": 1}), ("bigcn", {"bigcn_out_dim": 1}),
    ])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_init_params_are_the_hand_written_draws(self, toy_threads, kind, sizes, seed):
        model = _gradient_model(kind, toy_threads, **sizes)
        drawn = model.init_params(np.random.default_rng(seed))
        expected = oracle_init_params(model, np.random.default_rng(seed))
        assert list(drawn) == list(expected) == list(model.param_layout())
        for name, param in drawn.items():
            assert (param.name, param.requires_grad) == (name, True)
            assert param.values.dtype == expected[name].values.dtype
            assert param.shape == expected[name].shape == model.param_layout()[name][0]
            assert param.values.tobytes() == expected[name].values.tobytes()

    def test_size_bound_counts_every_value(self):
        _Declared({"w": ((2 ** 14, 2 ** 14), None)}).check_size()
        over = _Declared({"w": ((2 ** 14, 2 ** 14), None), "b": ((1, 1), 0.0)})
        with pytest.raises(ValidationError, match=r"^268435457 parameter values exceed the "
                                                  r"bound of 2\*\*28 = 268435456; the largest "
                                                  r"is w of shape \(16384, 16384\)$"):
            over.check_size()


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

    def test_non_finite_first_dev_loss_is_divergence(self):
        config = RunConfig(lr=1.0, batch_size=1, max_epochs=3, patience=1)
        with pytest.raises(ValidationError, match="non-finite dev loss at epoch 1$"):
            fit(_ScriptedModel(dev_losses=[np.nan]), self._threads(), self._threads(),
                config, 0)

    def test_non_finite_dev_loss_after_a_finite_one_keeps_the_best_epoch(self):
        model = _ScriptedModel(dev_losses=[1.0, np.nan])
        config = RunConfig(lr=1.0, batch_size=1, max_epochs=2, patience=5)
        result = fit(model, self._threads(), self._threads(), config, 0)
        assert len(result.history) == 2
        assert result.best_epoch == 1
        assert result.params["theta"].values.tolist() == [1.0]

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


class TestConsumedGraph:
    """backward frees the training graph as it goes and leaves the
    parameter gradients of the walk that keeps it; each Adam step in fit
    consumes those gradients."""

    @pytest.fixture(params=["lstm", "bigcn"])
    def dropout_model(self, request, toy_threads):
        # Dropout (and DropEdge for Bi-GCN) on, so the batch's graph holds
        # every kind of node training builds.
        if request.param == "lstm":
            vocab = build_vocabulary(thread_docs(toy_threads), cap=80)
            model = LstmModel(RunConfig(dropout=0.3), vocab)
        else:
            tfidf = fit_tfidf(tweet_docs(toy_threads), top_k=50)
            model = BiGcnModel(RunConfig(bigcn_hidden_dim=6, bigcn_out_dim=5, dropout=0.3,
                                         drop_edge_rate=0.3), tfidf)
        return model, model.prepare(toy_threads)

    def test_parameter_grads_match_the_graph_keeping_walk(self, dropout_model):
        model, data = dropout_model
        params = model.init_params(np.random.default_rng(2))

        def grads(walk):
            for p in params.values():
                p.grad = None
            loss, _, _ = model.loss_and_predictions(params, model.slice(data, np.arange(8)),
                                                    train=True, rng=np.random.default_rng(3))
            walk(loss)
            return {name: grad.tobytes() for name, grad in _grads(params).items()}

        assert grads(backward) == grads(oracle_backward)

    def test_no_graph_tensor_outlives_backward_in_fit(self, dropout_model, monkeypatch):
        model, data = dropout_model
        calls, alive = [], []

        def watched(loss):
            graph = [weakref.ref(node) for node in _topological_order(loss)
                     if node is not loss and not (node.requires_grad and node._backward is None)]
            backward(loss)
            calls.append(len(graph))
            alive.extend(ref() for ref in graph if ref() is not None)

        monkeypatch.setattr(trainer, "backward", watched)
        fit(model, data, data, dataclasses.replace(model.config, max_epochs=1, batch_size=4), 0)
        assert len(calls) == 3 and min(calls) > 10
        assert alive == []

    def test_no_gradient_outlives_its_step(self, dropout_model, monkeypatch):
        model, data = dropout_model
        held = []

        def watched(model, params, data, batch_size, _evaluate=trainer._evaluate):
            held.append([name for name, p in params.items() if p.grad is not None])
            return _evaluate(model, params, data, batch_size)

        monkeypatch.setattr(trainer, "_evaluate", watched)
        result = fit(model, data, data, dataclasses.replace(model.config, max_epochs=2,
                                                             batch_size=4), 0)
        assert held == [[]] * 4
        assert [name for name, p in result.params.items() if p.grad is not None] == []


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

    def test_forest_training_arrays_die_on_return(self, no_cycle_collector, monkeypatch):
        refs = []

        def watched(x, rows, y, weights, *args, _grow_tree=classic._grow_tree):
            refs.extend(weakref.ref(array) for array in (x, y, weights))
            return _grow_tree(x, rows, y, weights, *args)

        monkeypatch.setattr(classic, "_grow_tree", watched)
        x, y = self._separable()
        train_classic("rf", x, y, _classic(rf_trees=2), 1)
        assert len(refs) == 6 and [ref() for ref in refs] == [None] * 6

    def test_forest_thresholds_are_raw_midpoints(self):
        # Wide-ranged counts, several of which come back changed from a
        # z-score round trip; without SMOTE every row is a raw row.
        rng = np.random.default_rng(2)
        x = np.round(rng.lognormal(5, 3, size=(40, 8)))
        y = ["rumour" if v else "nonrumour" for v in rng.random(40) < 0.5]
        model = train_classic("rf", x, y, RunConfig(rf_trees=4, rf_feature_subsample="all"), 1)
        for tree in model.forest:
            for node in tree[tree["feature"] != LEAF]:
                column = x[:, node["feature"]]
                assert node["threshold"] in 0.5 * (column[:, None] + column[None, :])

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
                             standardizer=Standardizer(mean=np.zeros(1), std=np.ones(1),
                                                       scaled=1))
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

    @pytest.mark.parametrize("rows,labels,message", [
        (4, ["rumour"] * 4, "training data must contain both classes, found ['rumour']"),
        (3, ["rumour", "nonrumour"], "need matching features/labels with at least 2 rows"),
        (1, ["rumour"], "need matching features/labels with at least 2 rows"),
    ], ids=["one-class", "mismatched", "one-row"])
    def test_fit_run_checks_the_training_rows(self, rows, labels, message):
        """The rows are checked once per run, in `fit_run`; `train_classic`
        without `fitted` fits through it and gives the same refusals."""
        x = np.zeros((rows, 2))
        for fit in (lambda: classic.fit_run(x, labels, _classic()),
                    lambda: train_classic("logreg", x, labels, _classic(), 0)):
            with pytest.raises(ValidationError) as caught:
                fit()
            assert str(caught.value) == message

    def test_smote_refuses_one_minority_row_in_one_message(self):
        x, y = self._separable()
        y = ["rumour"] + ["nonrumour"] * (len(y) - 1)
        with pytest.raises(ValidationError) as by_run:
            classic.fit_run(x, y, _classic(smote=True))
        with pytest.raises(ValidationError) as by_points:
            smote_oversample([x[0]], k=1, n_new=1, seed=0)
        assert str(by_run.value) == str(by_points.value) == \
            "SMOTE needs at least two minority examples"

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


def graph_gradient_fit(kind, x, labels, config, row_weights):
    """logreg and svm trained through an engine graph rebuilt at every
    step: the reference the direct loop in classic._gradient_fit is
    checked against, byte for byte."""
    w = parameter(np.zeros((x.shape[1], 1)), "w")
    b = parameter(np.zeros((1, 1)), "b")
    params = {"w": w, "b": b}
    xt = Tensor(x)
    sample_weights = None if row_weights is None else row_weights[:, None]
    y01 = np.array([1.0 if c == "rumour" else 0.0 for c in labels])[:, None]
    ypm = 2.0 * y01 - 1.0
    state = OptimizerState(lr=config.classic_lr)
    for _ in range(config.classic_iters if kind == "logreg" else config.svm_iters):
        for p in params.values():
            p.grad = None
        scores = matmul(xt, w) + b
        if kind == "logreg":
            loss = bce_loss(sigmoid(scores), y01, sample_weights)
            if config.logreg_l2 > 0.0:
                loss = loss + config.logreg_l2 * sum_all(w * w)
        else:
            loss = hinge_loss(scores, ypm, weight_param=w, l2=config.svm_l2,
                              sample_weights=sample_weights)
        backward(loss)
        if kind == "logreg":
            optimizer_step(state, params)
        else:
            w.values -= config.classic_lr * w.grad
            b.values -= config.classic_lr * b.grad
    return w.values[:, 0].copy(), float(b.values[0, 0])


def _linear_case(shape, seed=4):
    """A dense handcrafted-like matrix or a sparse, row-normalized
    TF-IDF-like one (with all-zero columns), labels of both classes and
    positive row weights."""
    rng = np.random.default_rng(seed)
    if shape == "dense":
        x = rng.normal(size=(64, 8))
    else:
        x = rng.random((48, 400)) * (rng.random((48, 400)) < 0.05)
        x[:, :10] = 0.0
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.where(norms > 0.0, norms, 1.0)
    labels = ["rumour" if v else "nonrumour" for v in rng.random(len(x)) < 0.35]
    return x, labels, rng.uniform(0.5, 3.0, size=len(x))


class TestLinearFitMatchesGraph:
    @pytest.mark.parametrize("shape", ["dense", "sparse"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind,l2", [("logreg", 0.0), ("logreg", 1e-3),
                                         ("svm", 0.0), ("svm", 1e-4)])
    def test_weights_byte_equal(self, kind, l2, weighted, shape):
        x, labels, weights = _linear_case(shape)
        config = RunConfig(logreg_l2=l2, svm_l2=l2, classic_iters=80, svm_iters=80)
        row_weights = weights if weighted else None
        w, b = _gradient_fit(kind, x, labels, config, row_weights)
        want_w, want_b = graph_gradient_fit(kind, x, labels, config, row_weights)
        assert w.tobytes() == want_w.tobytes() and b == want_b
        assert np.abs(w).max() > 0.0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_svm_rows_on_the_margin(self, weighted):
        # Symmetric rows with exact arithmetic: one step of lr 1 sets w to 1
        # and b to 0, so the next puts the +-1 rows exactly on the margin
        # (relu subgradient 0 there), the +-0.5 rows inside it and the +-2
        # rows beyond it.
        x = np.array([[1.0], [0.5], [2.0], [0.5], [-1.0], [-0.5], [-2.0], [-0.5]])
        labels = ["rumour"] * 4 + ["nonrumour"] * 4
        row_weights = np.full(8, 2.0) if weighted else None
        config = RunConfig(svm_l2=0.0, classic_lr=1.0, svm_iters=1)
        w, b = _gradient_fit("svm", x, labels, config, row_weights)
        assert w.tolist() == [1.0] and b == 0.0
        margins = 1.0 - np.where(np.arange(8) < 4, 1.0, -1.0) * (x[:, 0] * w[0] + b)
        assert (margins == 0.0).sum() == 2 and (margins > 0.0).sum() == 4
        for iters in (2, 5):
            config = RunConfig(svm_l2=0.0, classic_lr=1.0, svm_iters=iters)
            w, b = _gradient_fit("svm", x, labels, config, row_weights)
            want_w, want_b = graph_gradient_fit("svm", x, labels, config, row_weights)
            assert w.tobytes() == want_w.tobytes() and b == want_b


@pytest.fixture(scope="module")
def uneven_threads():
    """Labeled threads with fewer rumours than nonrumours, so SMOTE adds points."""
    threads = make_planted_threads(n_threads=30, rumour_rate=0.3, seed=5, max_replies=2)
    assert 2 <= sum(t.label == "rumour" for t in threads) < len(threads) / 2
    return threads


def _learner_and_data(threads, **settings):
    """A ClassicLearner over TF-IDF fitted on `threads` (none for handcrafted
    features) and its prepared `threads` (no `fit_run` state)."""
    config = RunConfig(classic_iters=60, svm_iters=60, rf_trees=3, tfidf_top_k=40, **settings)
    tfidf = None
    if config.features != "handcrafted":
        tfidf = fit_tfidf(thread_docs(threads, token_table(threads)), config.tfidf_top_k)
    learner = ClassicLearner(config, tfidf)
    return learner, learner.prepare(threads)


class TestSeedUse:
    """A learner whose `reads_seed` is False fits the same model for every
    seed, so a run may train it once and save that fit once per seed."""

    @pytest.mark.parametrize("features", ["handcrafted", "tfidf", "both"])
    @pytest.mark.parametrize("model,settings", [
        ("logreg", {}), ("logreg", {"logreg_l2": 1e-3}), ("logreg", {"class_weights": False}),
        ("svm", {}), ("svm", {"svm_l2": 0.0}), ("svm", {"svm_l2": 1e-2}),
    ])
    def test_linear_fits_without_smote_ignore_the_seed(self, uneven_threads, features,
                                                       model, settings):
        learner, data = _learner_and_data(uneven_threads, model=model, features=features,
                                          **settings)
        assert learner.reads_seed is False
        first, second = (train_classic(model, data.features, data.labels, learner.config, seed)
                         for seed in (1, 2))
        assert np.abs(first.weights).max() > 0.0
        assert first.weights.tobytes() == second.weights.tobytes()
        assert np.float64(first.bias).tobytes() == np.float64(second.bias).tobytes()

    @pytest.mark.parametrize("model,settings", [
        ("rf", {}), ("rf", {"smote": True}), ("logreg", {"smote": True}),
        ("svm", {"smote": True}),
    ])
    def test_forest_and_smote_fits_read_the_seed(self, uneven_threads, model, settings):
        learner, data = _learner_and_data(uneven_threads, model=model, features="both",
                                          **settings)
        assert learner.reads_seed is True
        first, second = (learner.train(data, data, seed)[0] for seed in (1, 2))
        if model == "rf":
            assert forest_to_text(first) != forest_to_text(second)
        else:
            assert first.weights.tobytes() != second.weights.tobytes()

    def test_gradient_models_read_the_seed(self, lstm_setup, bigcn_setup):
        assert lstm_setup[0].reads_seed is True and bigcn_setup[0].reads_seed is True



class TestRunFitMatchesPerSeedPath:
    """Statistics and SMOTE neighbours fitted once per run, and one training
    matrix per seed, give the bytes of redoing every step for each seed."""

    @pytest.mark.parametrize("class_weights", [False, True])
    @pytest.mark.parametrize("features", ["handcrafted", "tfidf", "both"])
    @pytest.mark.parametrize("smote", [False, True])
    @pytest.mark.parametrize("model", ["logreg", "svm", "rf"])
    def test_seeds_match_oracle(self, uneven_threads, model, smote, features, class_weights):
        learner, data = _learner_and_data(uneven_threads, model=model, smote=smote,
                                          features=features, class_weights=class_weights)
        train = learner.prepare(uneven_threads, fit=True)
        assert (train.fitted.smote is not None) == smote
        for seed in (1, 2, 3):
            got = learner.train(train, data, seed)[0]
            want = oracle_train_classic(model, data.features, data.labels, learner.config,
                                        seed)
            if model == "rf":
                assert forest_to_text(got) == forest_to_text(want)
                continue
            assert got.weights.tobytes() == want.weights.tobytes()
            assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
            scaled = 0 if features == "tfidf" else 8
            mean, std = oracle_standardizer_stats(data.features, scaled)
            assert got.standardizer.mean.tobytes() == mean.tobytes()
            assert got.standardizer.std.tobytes() == std.tobytes()

    @pytest.mark.parametrize("features", ["handcrafted", "tfidf", "both"])
    def test_loaded_scaler_is_the_fitted_one(self, uneven_threads, features, tmp_path):
        """A loaded model once scaled every column, TF-IDF ones by 1.0."""
        learner, data = _learner_and_data(uneven_threads, model="logreg", features=features)
        fitted = learner.train(learner.prepare(uneven_threads, fit=True), data, 1)[0]
        learner.save(fitted, tmp_path, 1)
        loaded = learner.load(tmp_path, 1)
        got, want = loaded.standardizer, fitted.standardizer
        assert got.scaled == want.scaled == (0 if features == "tfidf" else 8)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.std.tobytes() == want.std.tobytes()
        assert predict_classic(loaded, data.features)[1].tobytes() == \
            predict_classic(fitted, data.features)[1].tobytes()

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
        # Node tables hold 64-bit indices.
        ("n_trees = 1\nfeature_dim = 2\ntree 0\n-1 0.0 99999999999999999999 -1 1.0 0.0\n",
         "forest line 5: malformed"),
        ("n_trees = 1\nfeature_dim = 2\nfeature_dim = 2\ntree 0\n-1 0.0 -1 -1 1.0 0.0\n",
         "forest line 4: feature_dim repeated"),
    ], ids=["no-feature-dim", "child-loops-back", "feature-outside", "empty-tree", "bad-float",
            "negative-feature-dim", "index-beyond-64-bits", "repeated-feature-dim"])
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


def reference_votes(tree, x):
    """One row at a time down the node table: the walk the table votes
    must match."""
    votes = np.zeros(len(x), dtype=int)
    for row in range(len(x)):
        at = 0
        while tree["feature"][at] != -1:
            feat = tree["feature"][at]
            at = tree["left"][at] if x[row, feat] <= tree["threshold"][at] else tree["right"][at]
        votes[row] = 1 if tree["counts"][at][1] > tree["counts"][at][0] else 0
    return votes


class TestForestTables:
    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 5))
        y = ["rumour" if a + b > 0 else "nonrumour" for a, b in zip(x[:, 0], x[:, 1] ** 2 - 1)]
        return train_classic("rf", x, y, _classic(rf_trees=6, rf_max_depth=None), 2)

    def test_tables_hold_one_row_per_node(self, trained):
        for tree in trained.forest:
            assert tree.dtype.names == ("feature", "threshold", "left", "right", "counts")
            inner = tree["feature"] != -1
            assert len(tree) > 1 and inner.any()
            assert (tree["left"][inner] > np.flatnonzero(inner)).all()

    def test_trained_votes_match_row_walk(self, trained):
        x = np.vstack([np.random.default_rng(9).normal(size=(40, 5)), np.zeros((1, 5))])
        for tree in trained.forest:
            # Rows that sit on a split's threshold must go left.
            inner = np.flatnonzero(tree["feature"] != -1)
            edge = np.zeros((len(inner), x.shape[1]))
            edge[np.arange(len(inner)), tree["feature"][inner]] = tree["threshold"][inner]
            x = np.vstack([x, edge])
        for tree in trained.forest:
            assert np.array_equal(_tree_votes(tree, x), reference_votes(tree, x))

    def test_parsed_votes_match_row_walk_with_nan(self):
        text = FOREST_TEXT.replace("0 0.5 1 2", "0 nan 1 2").replace("n_trees = 2", "n_trees = 3")
        text += ("tree 2\n1 0.25 1 4 1.0 2.0\n0 -0.5 2 3 1.0 1.0\n-1 0.0 -1 -1 1.0 0.0\n"
                 "-1 0.0 -1 -1 0.0 1.0\n-1 0.0 -1 -1 nan 1.0\n")
        model = forest_from_text(text)
        x = np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, np.nan], [-1.0, 0.2], [1.0, 1.0],
                      [np.nan, np.nan], [-0.5, 0.25], [0.5, 0.25], [-0.5, -1.0]])
        for tree in model.forest:
            assert np.array_equal(_tree_votes(tree, x), reference_votes(tree, x))
        _, scores = predict_classic(model, x)
        assert np.array_equal(scores, np.mean([reference_votes(t, x) for t in model.forest], 0))

    def test_trained_text_round_trips_byte_for_byte(self, trained):
        text = forest_to_text(trained)
        assert "np." not in text
        assert forest_to_text(forest_from_text(text)) == text


def reference_best_split(x, y, weights, features):
    """One candidate feature at a time, each with its own sort and
    cumsums: the search the 2-D pass must match."""
    best = None
    total_w = weights.sum()
    for feat in features:
        order = np.argsort(x[:, feat], kind="stable")
        values = x[order, feat]
        w = weights[order]
        cum_w = np.cumsum(w)
        cum_pos = np.cumsum(w * y[order])
        boundary = np.nonzero(values[1:] > values[:-1])[0]
        if len(boundary) == 0:
            continue
        left_w = cum_w[boundary]
        left_pos = cum_pos[boundary]
        right_w = total_w - left_w
        right_pos = cum_pos[-1] - left_pos
        p_left = left_pos / left_w
        p_right = right_pos / right_w
        gini_left = 1.0 - p_left ** 2 - (1.0 - p_left) ** 2
        gini_right = 1.0 - p_right ** 2 - (1.0 - p_right) ** 2
        scores = (left_w * gini_left + right_w * gini_right) / total_w
        at = int(np.argmin(scores))
        score = float(scores[at])
        if best is None or score < best[0] - 1e-12:
            threshold = 0.5 * (values[boundary[at]] + values[boundary[at] + 1])
            best = (score, int(feat), float(threshold))
    return best


def _reference_split(x, rows, y, weights, features):
    return reference_best_split(x[rows], y, weights, features)


def _split_case(seed, n, d, levels):
    """A matrix with few distinct values (ties, constant columns, columns
    that are monotone copies of others), bootstrap rows with repeats,
    weights that differ by 1e-13 steps, and ascending candidates."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, d)) * rng.choice([0.5, 1.0, 3.0], size=d)
    x[:, rng.random(d) < 0.2] = 1.5
    copies = rng.random(d) < 0.3
    x[:, copies] = 2.0 * x[:, rng.integers(0, d, copies.sum())] + 1.0
    y = rng.integers(0, 2, size=n)
    weights = rng.choice([0.7, 1.0, 2.5], size=n) + rng.integers(0, 3, size=n) * 1e-13
    rows = rng.integers(0, n, size=n)
    features = np.sort(rng.choice(d, size=rng.integers(1, d + 1), replace=False))
    return x, rows, y[rows], weights[rows], features


class TestGiniSplit:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 25), d=st.integers(1, 14),
           levels=st.integers(1, 4), block=st.sampled_from([1, 7, 40, classic.SPLIT_BLOCK]))
    def test_matches_per_feature_loop(self, seed, n, d, levels, block):
        x, rows, y, weights, features = _split_case(seed, n, d, levels)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classic, "SPLIT_BLOCK", block)
            fast = _gini_best_split(x, rows, y, weights, features)
        assert fast == reference_best_split(x[rows], y, weights, features)

    def test_constant_node_has_no_split(self):
        x = np.tile([1.0, -2.0, 0.0], (6, 1))
        rows = np.array([0, 0, 3, 5, 2, 2])
        y, weights = np.array([0, 1, 0, 1, 1, 0]), np.linspace(0.5, 2.0, 6)
        assert _gini_best_split(x, rows, y, weights, np.arange(3)) is None
        assert reference_best_split(x[rows], y, weights, np.arange(3)) is None

    def test_near_equal_minima_keep_the_earlier_feature(self):
        # Seeded cases whose column minima lie within 1e-12 of each other,
        # so the tie rule decides which feature wins, across block
        # boundaries too.
        near = 0
        for seed in range(300):
            x, rows, y, weights, features = _split_case(seed, 12, 8, 3)
            minima = [reference_best_split(x[rows], y, weights, [f]) for f in features]
            scores = sorted(m[0] for m in minima if m is not None)
            near += any(0.0 < b - a < 1e-12 for a, b in zip(scores, scores[1:]))
            for block in (12, 36, classic.SPLIT_BLOCK):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(classic, "SPLIT_BLOCK", block)
                    fast = _gini_best_split(x, rows, y, weights, features)
                assert fast == reference_best_split(x[rows], y, weights, features)
        assert near >= 5

    @pytest.fixture(scope="class")
    def weighted(self):
        rng = np.random.default_rng(21)
        x = np.round(rng.normal(size=(70, 30)), 1)
        x[:, 5] = 0.0
        y = ["rumour" if a > 0.6 else "nonrumour" for a in x[:, 0] + rng.normal(size=70)]
        return x, y

    @pytest.mark.parametrize("subsample", ["sqrt", "all"])
    def test_forest_bytes_match_reference_split(self, weighted, subsample, monkeypatch):
        x, y = weighted
        config = RunConfig(rf_trees=4, smote=True, rf_feature_subsample=subsample)
        fast = train_classic("rf", x, y, config, 6)
        monkeypatch.setattr(classic, "_gini_best_split", _reference_split)
        assert forest_to_text(train_classic("rf", x, y, config, 6)) == forest_to_text(fast)

    def test_all_candidates_in_several_blocks(self, weighted, monkeypatch):
        x, y = weighted
        config = RunConfig(rf_trees=3, rf_feature_subsample="all")
        monkeypatch.setattr(classic, "SPLIT_BLOCK", 500)
        assert len(x) * x.shape[1] > 4 * classic.SPLIT_BLOCK
        blocked = train_classic("rf", x, y, config, 8)
        monkeypatch.setattr(classic, "_gini_best_split", _reference_split)
        reference = train_classic("rf", x, y, config, 8)
        text = forest_to_text(blocked)
        assert text == forest_to_text(reference)
        probe = np.vstack([x, np.random.default_rng(2).normal(size=(20, x.shape[1]))])
        labels, scores = predict_classic(forest_from_text(text), probe)
        expected_labels, expected_scores = predict_classic(reference, probe)
        assert labels == expected_labels and np.array_equal(scores, expected_scores)


class TestSplitMemory:
    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 4000))
        y = (x[:, 0] + rng.normal(size=300) > 0).astype(int)
        return x, y, rng.integers(0, 300, size=300)

    def _peak_bytes(self, wide, n_candidates, max_depth):
        x, y, rows = wide
        tracemalloc.start()
        try:
            tree = _grow_tree(x, rows, y, np.ones(len(x)), np.random.default_rng(1),
                              max_depth, n_candidates)
            return tracemalloc.get_traced_memory()[1], tree
        finally:
            tracemalloc.stop()

    def test_sqrt_candidates_never_copy_full_rows(self, wide):
        # The full-width x[rows] copy at the root alone would be x.nbytes.
        peak, tree = self._peak_bytes(wide, 63, None)
        assert len(tree) > 20
        assert peak < wide[0].nbytes / 4

    def test_all_candidates_stay_under_the_block_cap(self, wide):
        peak, tree = self._peak_bytes(wide, 4000, 2)
        assert len(tree) > 1
        assert peak < 20 * 8 * classic.SPLIT_BLOCK


class TestBiGcnPredictMatchesArgmax(object):
    def test_predict_equals_argmax(self, bigcn_setup, toy_threads):
        model, params = bigcn_setup
        data = model.prepare(toy_threads)
        batch = to_graph_batch(data.trees, model.input_dim)
        probs = model.forward(params, batch).values
        _, labels, _ = model.loss_and_predictions(params, data, train=False)
        expected = ["rumour" if row[0] >= row[1] else "nonrumour" for row in probs]
        assert labels == expected
