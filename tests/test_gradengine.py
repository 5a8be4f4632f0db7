import base64
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumourlab.errors import ParseError, ValidationError
from rumourlab.gradengine import (
    OptimizerState,
    SparseMatrix,
    Tensor,
    backward,
    bce_loss,
    collect_grads,
    concat,
    gather_rows,
    grad_check,
    hinge_loss,
    load_checkpoint,
    lstm_layer,
    mask_mul,
    matmul,
    optimizer_step,
    parameter,
    relu,
    save_checkpoint,
    segment_mean,
    sigmoid,
    softmax_rows,
    spmm,
    sum_all,
    tanh,
    weighted_ce_loss,
    zero_grads,
)
from rumourlab.gradengine.sparse import scatter_rows
from rumourlab.gradengine.tensor import _sigmoid_values
from rumourlab.selftest import check_primitive_gradients

from conftest import oracle_lstm_sequence, oracle_optimizer_step, oracle_sigmoid_values


class TestForward:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).values[0] == pytest.approx(0.5, abs=1e-15)

    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                         745.2, -745.2, 746.0, -746.0, 1e308, -1e308])), max_size=40))
    def test_sigmoid_values_match_where_form(self, values):
        v = np.array(values, dtype=np.float64)
        want = oracle_sigmoid_values(v).tobytes()
        assert _sigmoid_values(v).tobytes() == want
        out = np.empty_like(v)
        assert _sigmoid_values(v, out=out) is out
        assert out.tobytes() == want

    def test_matmul_identity(self):
        x = np.arange(9.0).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(x))
        assert np.array_equal(out.values, x)

    def test_softmax_symmetry_and_row_sums(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert out.values[0].tolist() == [0.5, 0.5]
        rng = np.random.default_rng(0)
        out = softmax_rows(Tensor(rng.normal(size=(10, 5)) * 10))
        assert np.allclose(out.values.sum(axis=1), 1.0, atol=1e-9)

    def test_relu_non_negative(self):
        rng = np.random.default_rng(1)
        out = relu(Tensor(rng.normal(size=(4, 4))))
        assert (out.values >= 0).all()

    def test_segment_mean_of_constant_rows(self):
        x = Tensor(np.full((5, 3), 7.0))
        out = segment_mean(x, np.array([0, 0, 1, 1, 1]), 2)
        assert np.allclose(out.values, 7.0)

    def test_tanh_and_concat(self):
        out = concat([tanh(Tensor([[0.0]])), Tensor([[2.0]])])
        assert out.values.tolist() == [[0.0, 2.0]]

    def test_gather_rows(self):
        table = Tensor(np.arange(6.0).reshape(3, 2))
        out = gather_rows(table, np.array([2, 0]))
        assert out.values.tolist() == [[4.0, 5.0], [0.0, 1.0]]

    def test_shape_errors_name_the_primitive(self):
        with pytest.raises(ValidationError, match="matmul"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ValidationError, match="add"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))
        with pytest.raises(ValidationError, match="gather_rows"):
            gather_rows(Tensor(np.zeros((2, 2))), np.array([5]))
        with pytest.raises(ValidationError, match="segment_mean"):
            segment_mean(Tensor(np.zeros((3, 2))), np.array([0, 0]), 1)

    @pytest.mark.parametrize("ids", [[0, 1, 2], [0, -1, 1]], ids=["too-large", "negative"])
    def test_segment_mean_refuses_ids_outside_range(self, ids):
        with pytest.raises(ValidationError, match=r"segment_mean: segment id outside \[0, 2\)"):
            segment_mean(Tensor(np.zeros((3, 2))), np.array(ids), 2)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter(np.array([1.0, 2.0, 3.0]), "x")
        backward(sum_all(x))
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_relu_subgradient(self):
        x = parameter(np.array([-1.0, 2.0]), "x")
        backward(sum_all(relu(x)))
        assert x.grad.tolist() == [0.0, 1.0]

    def test_relu_zero_input_gets_zero_gradient(self):
        x = parameter(np.array([0.0]), "x")
        backward(sum_all(relu(x)))
        assert x.grad.tolist() == [0.0]

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones((2, 2)), "x")
        with pytest.raises(ValidationError, match="scalar"):
            backward(relu(x))

    def test_non_participating_parameter_gets_zeros(self):
        x = parameter(np.ones(3), "x")
        unused = parameter(np.ones(2), "unused")
        backward(sum_all(x * x))
        grads = collect_grads({"x": x, "unused": unused})
        assert grads["x"].tolist() == [2.0, 2.0, 2.0]
        assert grads["unused"].tolist() == [0.0, 0.0]

    def test_reused_node_accumulates(self):
        x = parameter(np.array([3.0]), "x")
        y = x * x
        backward(sum_all(y + y))
        assert x.grad.tolist() == [12.0]

    def test_values_from_constants_are_not_tracked(self):
        out = relu(sigmoid(Tensor([[0.5, -1.0]])))
        assert out.requires_grad is False
        assert out._parents == ()

    def test_constant_chain_gets_no_gradient(self):
        x = parameter(np.array([[1.0, 2.0]]), "x")
        constant = relu(sigmoid(Tensor([[0.5, -1.0]])))
        backward(sum_all(x * constant))
        assert constant.grad is None
        assert np.array_equal(x.grad, constant.values)

    def test_deep_chain_iterative_topo(self):
        x = parameter(np.array([[1.0]]), "x")
        node = x
        for _ in range(3000):
            node = node + 1.0
        backward(sum_all(node))
        assert x.grad.tolist() == [[1.0]]

    @pytest.mark.parametrize("ids_shape", [(16,), (4, 6), (0,)])
    def test_gather_rows_backward_matches_dense_scatter(self, ids_shape):
        rng = np.random.default_rng(3)
        table = parameter(rng.normal(size=(40, 5)), "table")
        expected = np.zeros_like(table.values)
        for _ in range(3):
            # Few distinct ids, so most rows repeat within a call.
            ids = rng.integers(0, 7, size=ids_shape) * 5
            upstream = rng.normal(size=ids_shape + (5,))
            backward(sum_all(gather_rows(table, ids) * Tensor(upstream)))
            full = np.zeros_like(table.values)
            np.add.at(full, ids, upstream)
            expected += full
            assert table.grad.tobytes() == expected.tobytes()

    def test_zero_grads(self):
        x = parameter(np.ones(2), "x")
        backward(sum_all(x))
        zero_grads([x])
        assert x.grad is None

    def test_backward_frees_intermediates(self):
        x = parameter(np.array([1.0, -2.0]), "x")
        hidden = sigmoid(x * x)
        loss = sum_all(hidden)
        ref = weakref.ref(hidden)
        del hidden
        assert ref() is not None
        backward(loss)
        assert ref() is None
        assert loss._parents == () and loss.grad is None
        assert x.grad is not None

    def test_second_backward_raises(self):
        x = parameter(np.array([3.0]), "x")
        loss = sum_all(x * x)
        backward(loss)
        with pytest.raises(ValidationError, match="already consumed"):
            backward(loss)
        assert x.grad.tolist() == [6.0]

    def test_consumed_node_in_a_new_graph_raises(self):
        x = parameter(np.array([3.0]), "x")
        y = x * x
        backward(sum_all(y))
        with pytest.raises(ValidationError, match="already consumed"):
            backward(sum_all(y + 1.0))


class TestLosses:
    def test_bce_at_half(self):
        loss = bce_loss(Tensor([[0.5]]), np.array([[1.0]]))
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_clamps_extremes(self):
        loss = bce_loss(Tensor([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert np.isfinite(loss.item())

    def test_weighted_ce_unit_weights_match_plain_mean(self):
        rng = np.random.default_rng(3)
        probs = softmax_rows(Tensor(rng.normal(size=(6, 3))))
        targets = rng.integers(0, 3, size=6)
        weighted = weighted_ce_loss(probs, targets, np.ones(3))
        plain = -np.mean(np.log(probs.values[np.arange(6), targets]))
        assert weighted.item() == pytest.approx(plain, abs=1e-12)

    def test_hinge_zero_when_margin_met(self):
        loss = hinge_loss(Tensor([[2.0]]), np.array([[1.0]]))
        assert loss.item() == 0.0

    def test_hinge_l2_term(self):
        w = parameter(np.array([[2.0]]), "w")
        loss = hinge_loss(Tensor([[5.0]]), np.array([[1.0]]), weight_param=w, l2=0.5)
        assert loss.item() == pytest.approx(2.0, abs=1e-12)

    def test_hinge_rejects_bad_targets(self):
        with pytest.raises(ValidationError):
            hinge_loss(Tensor([[1.0]]), np.array([[0.5]]))


class TestOptimizer:
    def test_zero_gradients_leave_adam_parameters(self):
        p = parameter(np.array([1.0, -2.0]), "p")
        state = OptimizerState(lr=0.1)
        optimizer_step(state, {"p": p}, {"p": np.zeros(2)})
        assert p.values.tolist() == [1.0, -2.0]
        assert state.t == 1

    def test_adamw_decoupled_decay(self):
        p = parameter(np.array([1.0, -2.0]), "p")
        state = OptimizerState(lr=0.1, weight_decay=0.01)
        optimizer_step(state, {"p": p}, {"p": np.zeros(2)})
        assert p.values == pytest.approx(np.array([0.999, -1.998]), abs=1e-15)

    def test_non_finite_gradient_names_parameter(self):
        p = parameter(np.ones(2), "offender")
        state = OptimizerState(lr=0.1)
        with pytest.raises(ValidationError, match="offender"):
            optimizer_step(state, {"offender": p}, {"offender": np.array([1.0, np.nan])})

    def test_shape_mismatch_rejected(self):
        p = parameter(np.ones(2), "p")
        state = OptimizerState(lr=0.1)
        with pytest.raises(ValidationError, match="shape"):
            optimizer_step(state, {"p": p}, {"p": np.ones(3)})

    def test_deterministic_from_identical_snapshots(self):
        rng = np.random.default_rng(5)
        grads = {"p": rng.normal(size=4)}

        def run():
            p = parameter(np.ones(4), "p")
            state = OptimizerState(lr=0.05, weight_decay=0.1)
            for _ in range(10):
                optimizer_step(state, {"p": p}, grads)
            return p.values

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_step_matches_expression_form(self, weight_decay):
        rng = np.random.default_rng(7)
        start = {"w": rng.normal(size=(30, 7)), "b": rng.normal(size=(1, 7)),
                 "s": rng.normal(size=())}
        runs = []
        for step in (optimizer_step, oracle_optimizer_step):
            params = {name: parameter(values.copy(), name) for name, values in start.items()}
            state = OptimizerState(lr=0.05, weight_decay=weight_decay)
            grad_rng = np.random.default_rng(8)
            for _ in range(5):
                step(state, params, {name: grad_rng.normal(size=values.shape)
                                     for name, values in start.items()})
            runs.append([a.tobytes() for name in start
                         for a in (params[name].values, state.m[name], state.v[name])])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_step_peak_memory_is_two_parameter_sizes(self, weight_decay):
        # The traced peak of a step above its starting level, in parameter
        # sizes: two scratch arrays plus the finiteness mask (1/8), freed
        # before the next parameter's update, against one array per live
        # temporary in the expression form.
        size = 1_000_000
        rng = np.random.default_rng(0)
        grads = {"p": rng.normal(size=size), "q": rng.normal(size=size)}

        def peak_sizes(step):
            params = {name: parameter(np.ones(size), name) for name in grads}
            state = OptimizerState(lr=0.01, weight_decay=weight_decay)
            step(state, params, grads)  # the moments exist from here on
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                step(state, params, grads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return (peak - start) / (size * 8)

        assert peak_sizes(optimizer_step) <= 2.5
        assert peak_sizes(oracle_optimizer_step) > 3.5

    def test_adam_matches_reference_formula(self):
        p = parameter(np.array([1.0]), "p")
        state = OptimizerState(lr=0.1, beta1=0.9, beta2=0.999,
                               epsilon=1e-8)
        grad = np.array([0.5])
        optimizer_step(state, {"p": p}, {"p": grad})
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p.values[0] == pytest.approx(expected, abs=1e-15)


class TestLstmSequence:
    """lstm_layer against the composition it replaced, the projection as
    two graph nodes feeding the recurrence oracle."""

    @staticmethod
    def _operands(batch, steps, size, seed):
        rng = np.random.default_rng(seed)
        return {"x": rng.normal(size=(batch * steps, 5)),
                "w_x": rng.normal(scale=0.5, size=(5, 4 * size)),
                "bias": rng.normal(size=(1, 4 * size)),
                "w_h": rng.normal(scale=0.5, size=(size, 4 * size))}

    @staticmethod
    def _composition(x, w_x, bias, w_h, mask):
        return oracle_lstm_sequence(matmul(x, w_x) + bias, w_h, mask)

    @pytest.mark.parametrize("mask", [
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [1, 1, 1, 0, 0], [1, 0, 1, 1, 0]],
        [[1], [0], [1]],
    ], ids=["ragged-with-all-padding-row", "one-step"])
    @pytest.mark.parametrize("tracked", ["x", "w_x", "bias", "w_h"])
    def test_untracked_output_matches_tracked(self, mask, tracked):
        mask = np.array(mask, dtype=float)
        operands = self._operands(*mask.shape, 6, seed=4)
        out = lstm_layer(*map(Tensor, operands.values()), mask)
        want = lstm_layer(*(parameter(v, name) if name == tracked else Tensor(v)
                            for name, v in operands.items()), mask)
        assert want.requires_grad and not out.requires_grad
        assert out.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("lengths", [[9, 0, 4, 9, 1], [1, 0, 1], [0, 0]],
                             ids=["ragged", "one-step", "no-active-step"])
    def test_output_and_gradients_match_allocating_form(self, lengths):
        mask = (np.arange(max(lengths)) < np.array(lengths)[:, None]).astype(float)
        operands = self._operands(*mask.shape, 7, seed=6)
        upstream = Tensor(np.random.default_rng(6).normal(size=(len(lengths), 7)))
        runs = []
        for layer in (lstm_layer, self._composition):
            params = {name: parameter(v, name) for name, v in operands.items()}
            out = layer(*params.values(), mask)
            runs.append(out.values.tobytes())
            backward(sum_all(out * upstream))
            runs.append([p.grad.tobytes() for p in params.values()])
        assert runs[:2] == runs[2:]

    def test_tracked_memory_holds_no_dead_array(self):
        # Tracked, the composition keeps the matmul output and its bias sum
        # alive until backward; the layer keeps neither. The layer's
        # backward holds its forward buffers and d_pre together, but frees
        # the buffers before it copies d_pre step-major for w_h.
        mask = np.ones((8, 64))
        operands = self._operands(*mask.shape, 32, seed=2)
        projection = 8 * 64 * 4 * 32 * 8

        def live_and_backward_peak(layer):
            params = {name: parameter(v, name) for name, v in operands.items()}
            upstream = Tensor(np.ones((8, 32)))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                loss = sum_all(layer(*params.values(), mask) * upstream)
                live = tracemalloc.get_traced_memory()[0] - start
                tracemalloc.reset_peak()
                backward(loss)
                return live, tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        live, peak = live_and_backward_peak(lstm_layer)
        assert live <= live_and_backward_peak(self._composition)[0] - projection
        assert peak <= live + 1.25 * projection

    def test_incompatible_shapes_rejected(self):
        operands = self._operands(2, 3, 4, seed=1)
        operands["bias"] = operands["bias"][:, :-1]
        with pytest.raises(ValidationError, match="lstm_layer"):
            lstm_layer(*map(Tensor, operands.values()), np.ones((2, 3)))


class TestGradCheck:
    def test_quadratic(self):
        theta = parameter(np.array([3.0]), "theta")
        error = grad_check(lambda p: sum_all(p["theta"] * p["theta"]),
                           {"theta": theta}, eps=1e-5)
        assert error < 1e-8

    def test_linear_is_exact_to_rounding(self):
        theta = parameter(np.array([2.0, -1.0]), "theta")
        slope = np.array([4.0, 5.0])
        error = grad_check(lambda p: sum_all(mask_mul(p["theta"], slope)),
                           {"theta": theta}, eps=1e-3)
        assert error < 1e-10

    def test_every_primitive_under_tolerance(self):
        assert check_primitive_gradients(seed=7) < 1e-4

    def test_every_differentiable_export_is_checked(self, monkeypatch):
        """Each differentiable name the engine exports is reached while the
        primitive check runs, wrapped wherever it is looked up."""
        from rumourlab import gradengine, selftest
        from rumourlab.gradengine import losses, tensor

        plumbing = {"CKPT_FORMAT_VERSION", "OptimizerState", "SparseMatrix", "Tensor",
                    "backward", "collect_grads", "grad_check", "load_checkpoint",
                    "optimizer_step", "parameter", "save_checkpoint", "zero_grads"}
        differentiable = set(gradengine.__all__) - plumbing
        reached = set()
        for name in differentiable:
            original = getattr(gradengine, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                reached.add(_name)
                return _original(*args, **kwargs)

            for module in (selftest, tensor, losses):
                if module.__dict__.get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        check_primitive_gradients(seed=7)
        assert sorted(differentiable - reached) == []

    def test_gradient_wrong_at_one_coordinate_fails(self, monkeypatch):
        """Every coordinate is checked: a relu whose gradient is off only at
        flat input coordinate 8 of its 3x4 case fails, although a sample of
        8 of the 12 coordinates at seed 7 would skip it."""
        from rumourlab import selftest
        from rumourlab.gradengine.tensor import _accumulate, _node

        def wrong_relu(x):
            def _back(grad):
                g = grad * (x.values > 0.0)
                g.reshape(-1)[8] += 1.0
                _accumulate(x, g)
            return _node(np.maximum(x.values, 0.0), (x,), _back)

        assert 8 not in np.random.default_rng(7).choice(12, size=8, replace=False)
        monkeypatch.setattr(selftest, "relu", wrong_relu)
        with pytest.raises(AssertionError, match="primitive relu"):
            check_primitive_gradients(seed=7)

    def test_two_layer_network(self):
        rng = np.random.default_rng(9)
        params = {
            "w1": parameter(rng.normal(size=(4, 6)), "w1"),
            "b1": parameter(rng.normal(size=(1, 6)), "b1"),
            "w2": parameter(rng.normal(size=(6, 1)), "w2"),
        }
        x = rng.normal(size=(5, 4))
        y = (rng.random((5, 1)) > 0.5).astype(float)

        def fn(p):
            hidden = tanh(matmul(Tensor(x), p["w1"]) + p["b1"])
            return bce_loss(sigmoid(matmul(hidden, p["w2"])), y)

        assert grad_check(fn, params, eps=1e-5, seed=1) < 1e-4


# Scatter-add inputs: any finite value, with signed zeros drawn often.
_SCATTER_VALUE = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6))


def _add_at(n, index, values, tail=None):
    """The reference scatter-add: np.add.at into zeros."""
    out = np.zeros((n,) + (values.shape[1:] if tail is None else tail))
    np.add.at(out, index, values)
    return out


class TestSparseMatrix:
    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(11)
        dense = np.zeros((4, 4))
        rows, cols = np.array([0, 1, 2, 3, 0]), np.array([1, 2, 3, 0, 0])
        vals = rng.normal(size=5)
        for r, c, v in zip(rows, cols, vals):
            dense[r, c] += v
        sparse = SparseMatrix(shape=(4, 4), rows=rows, cols=cols, vals=vals)
        other = rng.normal(size=(4, 3))
        assert np.allclose(sparse.matmul_dense(other), dense @ other, atol=1e-12)
        assert np.allclose(sparse.transpose().to_dense(), dense.T, atol=1e-12)

    def test_spmm_gradient_flows_to_dense(self):
        sparse = SparseMatrix(shape=(2, 2), rows=np.array([0, 1]),
                              cols=np.array([1, 0]), vals=np.array([2.0, 3.0]))
        x = parameter(np.ones((2, 2)), "x")
        backward(sum_all(spmm(sparse, x)))
        assert x.grad.tolist() == [[3.0, 3.0], [2.0, 2.0]]

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            SparseMatrix(shape=(2, 2), rows=np.array([5]), cols=np.array([0]),
                         vals=np.array([1.0]))

    @pytest.mark.parametrize("rows, cols", [([0, -1], [0, 1]), ([0, 1], [-1, 0])],
                             ids=["row", "col"])
    def test_negative_coordinates_rejected(self, rows, cols):
        with pytest.raises(ValidationError, match="outside declared shape"):
            SparseMatrix(shape=(2, 2), rows=np.array(rows), cols=np.array(cols),
                         vals=np.array([1.0, 2.0]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_products_match_add_at_bytes(self, data):
        shape = (data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5)))
        coord = st.tuples(st.integers(0, max(shape[0] - 1, 0)),
                          st.integers(0, max(shape[1] - 1, 0)))
        coords = data.draw(st.lists(coord, max_size=12 if min(shape) else 0))
        rows = np.array([r for r, _ in coords], dtype=int)
        cols = np.array([c for _, c in coords], dtype=int)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = data.draw(st.lists(_SCATTER_VALUE, min_size=1, max_size=6))
        vals = rng.choice(pool, size=len(coords))
        dense = rng.choice(pool, size=(shape[1], data.draw(st.sampled_from([1, 3]))))
        upstream = rng.choice(pool, size=(shape[0], dense.shape[1]))
        sparse = SparseMatrix(shape=shape, rows=rows, cols=cols, vals=vals)
        checks = [
            (sparse.matmul_dense(dense),
             _add_at(shape[0], rows, vals[:, None] * dense[cols])),
            (sparse.transpose().matmul_dense(upstream),
             _add_at(shape[1], cols, vals[:, None] * upstream[rows])),
            (sparse.to_dense(), _add_at(shape[0], (rows, cols), vals, shape[1:])),
        ]
        for got, expected in checks:
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestScatterRows:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_add_at_bytes(self, data):
        n = data.draw(st.integers(0, 6))
        index = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                            max_size=16 if n else 0)), dtype=int)
        tail = data.draw(st.sampled_from([(), (1,), (3,), (128,), (2, 3)]))
        pool = data.draw(st.lists(_SCATTER_VALUE, min_size=1, max_size=6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.choice(pool, size=(len(index),) + tail)
        got = scatter_rows(n, index, values)
        assert got.dtype == np.float64
        assert got.tobytes() == _add_at(n, index, values).tobytes()
        assert got.shape == (n,) + tail

    @pytest.mark.parametrize("n, index, values", [
        (3, [], np.zeros(0)),
        (3, [], np.zeros((0, 1))),
        (3, [], np.zeros((0, 128))),
        (0, [], np.zeros((0, 128))),
        (2, [1, 1, 1], np.array([-0.0, -0.0, -0.0])),
        (2, [0, 0], np.array([[-0.0, 1.0], [-0.0, -1.0]])),
        (4, [3, 0, 3, 3], np.array([0.1, 0.2, 0.3, 1e16])),
    ], ids=["empty-1d", "empty-w1", "empty-w128", "empty-no-rows", "negzero-1d",
            "negzero-2d", "repeated"])
    def test_edge_cases_match_add_at_bytes(self, n, index, values):
        index = np.array(index, dtype=int)
        got = scatter_rows(n, index, values)
        expected = _add_at(n, index, values)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_segment_mean_matches_add_at_bytes(self, data):
        num_segments = data.draw(st.integers(1, 4))
        extra = data.draw(st.lists(st.integers(0, num_segments - 1), max_size=8))
        ids = np.array(data.draw(st.permutations(list(range(num_segments)) + extra)))
        pool = data.draw(st.lists(_SCATTER_VALUE, min_size=1, max_size=6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.choice(pool, size=(len(ids), data.draw(st.sampled_from([1, 3]))))
        counts = np.bincount(ids, minlength=num_segments)
        expected = _add_at(num_segments, ids, x) / counts[:, None]
        assert segment_mean(Tensor(x), ids, num_segments).values.tobytes() == expected.tobytes()

    def test_source_has_no_other_scatter_add(self):
        src = Path(__file__).resolve().parents[1] / "src" / "rumourlab"
        callers = [str(path.relative_to(src)) for path in sorted(src.rglob("*.py"))
                   if re.search(r"\badd\.at\(", path.read_text(encoding="utf-8"))]
        assert callers == []


# Checkpoint-like lines: shapes with negative or zero dims, v1 float lists,
# v2 base64 payloads of any length, and free text in each field.
_FUZZ_LINE = st.tuples(
    st.text(alphabet="wb", max_size=2),
    st.one_of(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
              .map(lambda dims: "x".join(map(str, dims))), st.text(max_size=4)),
    st.one_of(st.lists(st.floats(), max_size=5).map(lambda vs: " ".join(map(repr, vs))),
              st.binary(max_size=40).map(lambda b: base64.b64encode(b).decode("ascii")),
              st.text(max_size=12)),
).map(" ".join)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        params = {
            "w": rng.normal(size=(3, 4)) * 1e-7,
            "bias_vector": rng.normal(size=5) * 1e9,
            "scalar_ish": np.array([math.pi]),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].shape == params[name].shape

    def test_tensor_values_accepted(self, tmp_path):
        save_checkpoint({"p": parameter(np.ones((2, 2)), "p")}, tmp_path / "c.txt")
        assert load_checkpoint(tmp_path / "c.txt")["p"].shape == (2, 2)

    def test_version_line_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("w 2 1.0 2.0\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_malformed_line_cites_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# rumourlab-ckpt v2\nw 2xoops AAAAAAAAAAA=\n")
        with pytest.raises(ParseError, match="line 2"):
            load_checkpoint(path)

    def test_value_count_must_match_shape(self, tmp_path):
        path = tmp_path / "bad.txt"
        payload = base64.b64encode(np.zeros(2).tobytes()).decode("ascii")
        path.write_text(f"# rumourlab-ckpt v2\nw 2x2 {payload}\n")
        with pytest.raises(ParseError, match="2 values for shape 2x2"):
            load_checkpoint(path)

    def test_byte_identical_rewrites(self, tmp_path):
        rng = np.random.default_rng(17)
        params = {"a": rng.normal(size=(4, 2)), "b": rng.normal(size=3)}
        save_checkpoint(params, tmp_path / "one.txt")
        save_checkpoint(params, tmp_path / "two.txt")
        assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "two.txt").read_bytes()

    def test_v2_payload_is_little_endian_float64_base64(self, tmp_path):
        values = np.array([[1.5, -0.0], [1e-300, math.pi]])
        save_checkpoint({"w": values}, tmp_path / "c.txt")
        header, line = (tmp_path / "c.txt").read_text(encoding="utf-8").splitlines()
        assert header == "# rumourlab-ckpt v2"
        name, shape, payload = line.split(" ")
        assert (name, shape) == ("w", "2x2")
        assert base64.b64decode(payload) == values.astype("<f8").tobytes()

    def test_v1_checkpoint_is_refused_naming_file(self, tmp_path):
        path = tmp_path / "v1.txt"
        path.write_text("# rumourlab-ckpt v1\nw 2 0.5 1.5\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: not a rumourlab-ckpt v2 checkpoint"

    @pytest.mark.parametrize("line,message", [
        (b"w 2 \xff\xfe", "invalid UTF-8"),
        (b"w 2 AAAAAAAAAAA", "payload is not base64"),  # truncated: 11 of 24 characters
        (b"w 2 AAAA!AAAAAAA", "payload is not base64"),
        (b"w 2 AAAAAAAAAAAA", "payload of 9 bytes is not whole"),
        (b"w 2 AAAAAAAAAAA=", "1 values for shape 2"),
        (b"w 2 AAAAAAAAAAA= extra", "malformed parameter line"),
        (b"w -2x-2 AAAAAAAAAAA=", "malformed parameter line"),
        (b"w 2 " + base64.b64encode(np.array([np.nan, 0.0]).astype("<f8").tobytes()),
         "non-finite value in parameter 'w'"),
        (b"w 2 " + base64.b64encode(np.array([0.0, -np.inf]).astype("<f8").tobytes()),
         "non-finite value in parameter 'w'"),
        (b"ok 2 " + base64.b64encode(np.zeros(2).tobytes()), "parameter 'ok' repeated"),
    ])
    def test_damaged_v2_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        good = base64.b64encode(np.zeros(2).tobytes())
        path.write_bytes(b"# rumourlab-ckpt v2\nok 2 " + good + b"\n" + line + b"\n")
        with pytest.raises(ParseError, match=f"bad.txt line 3: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shapes,message", [
        ({"ok": (2,), "w": (2,)}, None),
        ({"ok": (2,), "w": (1, 2)}, "bad.txt line 3: parameter 'w' has shape 2, expected 1x2"),
        ({"ok": (2,)}, "bad.txt line 3: unexpected parameter 'w'"),
        ({"ok": (2,), "w": (2,), "v": (3,)}, "bad.txt: parameter 'v' is missing"),
    ])
    def test_expected_shapes_are_checked(self, tmp_path, shapes, message):
        path = tmp_path / "bad.txt"
        save_checkpoint({"ok": np.zeros(2), "w": np.ones(2)}, path)
        if message is None:
            assert set(load_checkpoint(path, shapes)) == {"ok", "w"}
        else:
            with pytest.raises(ParseError, match=re.escape(message)):
                load_checkpoint(path, shapes)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.sampled_from(["# rumourlab-ckpt v1", "# rumourlab-ckpt v2", "# x"]),
           lines=st.lists(_FUZZ_LINE, max_size=4), raw_tail=st.binary(max_size=6))
    def test_fuzzed_text_raises_only_documented_errors(self, tmp_path, header, lines,
                                                       raw_tail):
        path = tmp_path / "fuzz.txt"
        path.write_bytes("\n".join([header] + lines).encode("utf-8") + raw_tail)
        try:
            load_checkpoint(path)
        except (ParseError, ValidationError, FileNotFoundError):
            pass
