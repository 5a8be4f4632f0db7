"""Dense tensors with reverse-mode automatic differentiation.

Every primitive builds its output through _node: it is tracked (requires
grad, keeps its parents and backward closure) when some input is, so
constants and values computed from constants alone are never tracked.
backward() walks the tracked graph once in reverse topological order,
accumulates gradients into every parameter (tracked leaf) and consumes
the graph as it goes: each node drops its gradient, closure and parents
once its backward has run, so intermediates are freed as soon as nothing
downstream needs them. An untracked lstm_layer (evaluation,
prediction) keeps one step of state, not the per-step history. All
arithmetic is float64.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from .sparse import SparseMatrix, scatter_rows


class Tensor:
    """A numpy array plus the bookkeeping reverse mode needs."""

    __slots__ = ("values", "requires_grad", "grad", "name", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, values, requires_grad=False, name=None, parents=(), backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._parents: tuple[Tensor, ...] = tuple(parents)
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # Arithmetic sugar; constants wrap into non-grad tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(_wrap(other), -self)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(values, name: str) -> Tensor:
    return Tensor(values, requires_grad=True, name=name)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.values)
    tensor.grad += grad


def _node(values, parents: tuple[Tensor, ...], backward) -> Tensor:
    """A primitive's output: tracked only when some parent requires grad,
    otherwise a plain constant that backward() never visits."""
    for parent in parents:
        if parent.requires_grad:
            return Tensor(values, requires_grad=True, parents=parents, backward=backward)
    return Tensor(values)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        values = a.values + b.values
    except ValueError:
        raise ValidationError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def _back(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad, b.shape))
    return _node(values, (a, b), _back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        values = a.values * b.values
    except ValueError:
        raise ValidationError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def _back(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad * b.values, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad * a.values, b.shape))
    return _node(values, (a, b), _back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValidationError(f"matmul: shapes {a.shape} and {b.shape} incompatible")

    def _back(grad):
        if a.requires_grad:
            _accumulate(a, grad @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.values.T @ grad)
    return _node(a.values @ b.values, (a, b), _back)


def spmm(matrix: SparseMatrix, dense: Tensor) -> Tensor:
    """Sparse-constant times dense-tensor product; gradients flow to the
    dense operand only."""
    if dense.values.ndim != 2 or matrix.shape[1] != dense.shape[0]:
        raise ValidationError(
            f"spmm: shapes {matrix.shape} and {dense.shape} incompatible"
        )

    def _back(grad):
        _accumulate(dense, matrix.transpose().matmul_dense(grad))
    return _node(matrix.matmul_dense(dense.values), (dense,), _back)


def relu(x: Tensor) -> Tensor:
    def _back(grad):
        # Subgradient at exactly zero is zero.
        _accumulate(x, grad * (x.values > 0.0))
    return _node(np.maximum(x.values, 0.0), (x,), _back)


def _sigmoid_values(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The logistic function; exp only ever sees -|v|, so it cannot overflow.
    As 0 <= e <= 1, max(e, v >= 0) is 1 where v >= 0 and e elsewhere."""
    e = np.exp(-np.abs(v))
    return np.divide(np.maximum(e, v >= 0), 1.0 + e, out=out)


def sigmoid(x: Tensor) -> Tensor:
    values = _sigmoid_values(x.values)

    def _back(grad):
        _accumulate(x, grad * values * (1.0 - values))
    return _node(values, (x,), _back)


def tanh(x: Tensor) -> Tensor:
    values = np.tanh(x.values)

    def _back(grad):
        _accumulate(x, grad * (1.0 - values * values))
    return _node(values, (x,), _back)


def lstm_layer(x: Tensor, w_x: Tensor, bias: Tensor, w_h: Tensor, mask: np.ndarray) -> Tensor:
    """Final hidden state (batch, H) of a masked LSTM layer, as one node.

    x holds every step's input, one row per (example, step) in row-major
    order; w_x is (E, 4H), bias (1, 4H) and w_h (H, 4H), gate columns in
    the order i, f, o, c. Every step's input projection x·w_x + bias is one
    product (Appleyard et al., arXiv:1604.01946) that lives only while the
    steps run: no backward reads it. A masked step carries both states
    unchanged. Every step runs in preallocated buffers; a tracked call
    keeps each step's states and activations for the backward pass, an
    untracked one only the current step's.
    """
    mask = np.asarray(mask, dtype=np.float64)
    keep = 1.0 - mask
    batch, steps = mask.shape
    size = w_h.shape[0]
    if (w_h.shape != (size, 4 * size) or bias.shape != (1, 4 * size)
            or x.values.ndim != 2 or w_x.shape != (x.shape[1], 4 * size)
            or x.shape[0] != batch * steps):
        raise ValidationError(f"lstm_layer: x {x.shape}, w_x {w_x.shape}, bias {bias.shape}, "
                              f"w_h {w_h.shape} and mask {mask.shape} incompatible")
    projected = x.values @ w_x.values
    xs = np.add(projected, bias.values, out=projected).reshape(batch, steps, 4 * size)
    w = w_h.values
    tracked = x.requires_grad or w_x.requires_grad or bias.requires_grad or w_h.requires_grad
    # hs[t] and cs[t] are the states entering step t (hs[steps] is the
    # output); acts[t] holds its gate activations, tanh_c[t] tanh(new cell).
    # Untracked, slot 0 of each is the current step, updated in place.
    slots = steps if tracked else 1
    hs, cs = np.zeros((2, steps + 1 if tracked else 1, batch, size))
    acts = np.empty((slots, batch, 4 * size))
    tanh_c = np.empty((slots, batch, size))
    gates = acts.reshape(slots, batch, 4, size).transpose(0, 2, 1, 3)
    pre = np.empty((batch, 4 * size))
    new_c, tmp = np.empty((2, batch, size))
    for t in range(steps):
        now, after = (t, t + 1) if tracked else (0, 0)
        i, f, o, g = gates[now]
        m, k = mask[:, t:t + 1], keep[:, t:t + 1]
        np.add(np.matmul(hs[now], w, out=pre), xs[:, t], out=pre)
        _sigmoid_values(pre[:, :3 * size], out=acts[now, :, :3 * size])
        np.tanh(pre[:, 3 * size:], out=g)
        np.add(np.multiply(f, cs[now], out=new_c), np.multiply(i, g, out=tmp), out=new_c)
        np.tanh(new_c, out=tanh_c[now])
        # new·m + old·(1 − m), summed as old·(1 − m) + new·m so that
        # untracked the old state may share the new one's buffer.
        np.add(np.multiply(cs[now], k, out=cs[after]), np.multiply(new_c, m, out=new_c),
               out=cs[after])
        np.add(np.multiply(hs[now], k, out=hs[after]),
               np.multiply(np.multiply(o, tanh_c[now], out=tmp), m, out=tmp), out=hs[after])

    def _back(grad):
        nonlocal acts, tanh_c, cs, gates
        # One row per (example, step), like x, so the projection's
        # gradient is a view.
        d_pre = np.empty((batch, steps, 4 * size))
        d_gates = d_pre.reshape(batch, steps, 4, size).transpose(1, 2, 0, 3)
        slope = np.empty((batch, 4 * size))
        dh, dc = np.array(grad), np.zeros((batch, size))
        dh_new, dc_new = np.empty((2, batch, size))
        for t in reversed(range(steps)):
            m, k = mask[:, t:t + 1], keep[:, t:t + 1]
            a, tc, d = acts[t], tanh_c[t], d_pre[:, t]
            i, f, o, g = gates[t]
            # Gate slopes: a(1 - a) for sigmoid, 1 - a² for tanh.
            np.multiply(np.subtract(1.0, a, out=slope), a, out=slope)
            np.subtract(1.0, np.multiply(g, g, out=slope[:, 3 * size:]), out=slope[:, 3 * size:])
            np.multiply(dh, m, out=dh_new)
            # dc_new = dc·m + dh_new·o·(1 − tanh_c²)
            np.multiply(np.multiply(dh_new, o, out=dc_new),
                        np.subtract(1.0, np.multiply(tc, tc, out=tmp), out=tmp), out=dc_new)
            dc_new += np.multiply(dc, m, out=tmp)
            d_i, d_f, d_o, d_g = d_gates[t]
            np.multiply(dc_new, g, out=d_i)
            np.multiply(dc_new, cs[t], out=d_f)
            np.multiply(dh_new, tc, out=d_o)
            np.multiply(dc_new, i, out=d_g)
            d *= slope
            # dc = dc_new·f + dc·k and dh = d·w_hᵀ + dh·k
            np.add(np.multiply(dc, k, out=dc), np.multiply(dc_new, f, out=tmp), out=dc)
            np.add(np.multiply(dh, k, out=dh), np.matmul(d, w.T, out=tmp), out=dh)
        # Free the forward buffers (and the loop's views of them) before
        # w_h's step-major copy of d_pre is made; rebinding, not del, as a
        # run of zero steps never binds the loop names.
        acts = tanh_c = cs = gates = a = tc = i = f = o = g = None
        if w_h.requires_grad:
            _accumulate(w_h, hs[:-1].reshape(-1, size).T
                        @ d_pre.transpose(1, 0, 2).reshape(-1, 4 * size))
        # The projection's add and matmul rules. The graph form passed
        # them d_pre plus zeros, which differs from d_pre only in -0.0
        # entries; those reach each gradient as zeros that _accumulate's
        # own zeros-plus-add turns into 0.0, so the bytes agree.
        d_proj = d_pre.reshape(-1, 4 * size)
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(d_proj, bias.shape))
        if x.requires_grad:
            _accumulate(x, d_proj @ w_x.values.T)
        if w_x.requires_grad:
            _accumulate(w_x, x.values.T @ d_proj)
    return _node(hs[-1], (x, w_x, bias, w_h), _back)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ValidationError("concat: no inputs")
    tensors = tuple(tensors)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def _back(grad):
        pieces = np.split(grad, offsets[1:-1], axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                _accumulate(tensor, piece)
    return _node(np.concatenate([t.values for t in tensors], axis=axis), tensors, _back)


def softmax_rows(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ValidationError(f"softmax_rows: expected a 2-D tensor, got {x.shape}")
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    values = exp / exp.sum(axis=1, keepdims=True)

    def _back(grad):
        dot = (grad * values).sum(axis=1, keepdims=True)
        _accumulate(x, values * (grad - dot))
    return _node(values, (x,), _back)


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of the rows of x per segment (e.g. per graph in a batch)."""
    segment_ids = np.asarray(segment_ids, dtype=int)
    if x.values.ndim != 2 or len(segment_ids) != x.shape[0]:
        raise ValidationError(
            f"segment_mean: {len(segment_ids)} ids for tensor of shape {x.shape}"
        )
    if len(segment_ids) and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
        raise ValidationError(f"segment_mean: segment id outside [0, {num_segments})")
    counts = np.bincount(segment_ids, minlength=num_segments)
    if (counts == 0).any():
        raise ValidationError("segment_mean: every segment needs at least one row")
    sums = scatter_rows(num_segments, segment_ids, x.values)

    def _back(grad):
        _accumulate(x, grad[segment_ids] / counts[segment_ids][:, None])
    return _node(sums / counts[:, None], (x,), _back)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup (embedding); gradients scatter-add into the table."""
    ids = np.asarray(ids, dtype=int)
    if table.values.ndim != 2:
        raise ValidationError(f"gather_rows: table must be 2-D, got {table.shape}")
    if len(ids) and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValidationError(
            f"gather_rows: id out of range for table with {table.shape[0]} rows"
        )

    def _back(grad):
        # Sum per distinct id, then add into those rows only: the same
        # additions in the same order as a dense scatter, without a
        # table-sized temporary per call.
        unique, inverse = np.unique(ids, return_inverse=True)
        rows = scatter_rows(len(unique), inverse.ravel(),
                            grad.reshape((ids.size,) + table.shape[1:]))
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        table.grad[unique] += rows
    return _node(table.values[ids], (table,), _back)


def mask_mul(x: Tensor, mask: np.ndarray) -> Tensor:
    """Multiply by a constant mask (zeroing or scaling positions)."""
    mask = np.asarray(mask, dtype=np.float64)
    try:
        values = x.values * mask
    except ValueError:
        raise ValidationError(f"mask_mul: mask {mask.shape} does not fit {x.shape}") from None

    def _back(grad):
        _accumulate(x, _unbroadcast(grad * mask, x.shape))
    return _node(values, (x,), _back)


def sum_all(x: Tensor) -> Tensor:
    def _back(grad):
        _accumulate(x, np.full_like(x.values, float(grad)))
    return _node(x.values.sum(), (x,), _back)


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size

    def _back(grad):
        _accumulate(x, np.full_like(x.values, float(grad) / n))
    return _node(x.values.mean(), (x,), _back)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Children-first ordering, iterative so deep graphs cannot hit the recursion limit."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _consumed(grad):
    raise ValidationError("backward: this graph was already consumed by an earlier backward")


def backward(loss: Tensor) -> None:
    """Populate .grad on every parameter reachable from loss, consuming
    the graph: each node drops its gradient, closure and parents once its
    backward has run, and a second backward through it raises."""
    if loss.values.size != 1:
        raise ValidationError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.values)
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._parents, node._backward = None, (), _consumed
