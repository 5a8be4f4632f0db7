import base64
import math

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
from rumourlab.selftest import check_primitive_gradients


class TestForward:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).values[0] == pytest.approx(0.5, abs=1e-15)

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

    @pytest.mark.parametrize("ids_shape", [(16,), (4, 6)])
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
    ])
    def test_damaged_v2_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        good = base64.b64encode(np.zeros(2).tobytes())
        path.write_bytes(b"# rumourlab-ckpt v2\nok 2 " + good + b"\n" + line + b"\n")
        with pytest.raises(ParseError, match=f"bad.txt line 3: {message}"):
            load_checkpoint(path)

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
