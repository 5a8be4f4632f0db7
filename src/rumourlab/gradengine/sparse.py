"""Minimal immutable sparse matrix in coordinate form.

Holds normalized adjacency operators and stacked TF-IDF rows. A product
with a dense matrix sums each output row ("bin") over its entries in
entry order, starting from 0.0, exactly as numpy's add.at does, so the
bits match it. It runs in passes: the bins sort by entry count, largest
first, and pass s adds the s-th entry of every bin that has one into a
prefix of the permuted output, as one vectorized step. Once a pass
would touch fewer than PASS_MIN_BINS bins, the few heavy bins left
finish in one `scatter_rows` call, each with its partial sum as its
first entry: 0.0 + partial is partial, and a sum that starts at +0.0 is
never -0.0, so the tail changes no bit. The plan is built once per
matrix, and `transpose()` is cached, so every product with the same
operator, in either direction, shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ValidationError

# A pass costs a few microseconds of fixed overhead, a tail entry about
# 8-10 ns per output column: below this many bins the tail is cheaper.
PASS_MIN_BINS = 16


def scatter_rows(n: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum values[i] into row index[i] of an (n,) + values.shape[1:] zero
    array with one bincount over flat bins. Each bin adds its entries in
    entry order, starting from 0.0, as numpy's add.at does, so the bits
    match it. (bincount gives integer zeros when it has no entries.)"""
    width = int(np.prod(values.shape[1:]))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=n * width)
    return sums.astype(np.float64, copy=False).reshape((n,) + values.shape[1:])


@dataclass(frozen=True)
class _PassPlan:
    """Entries in pass order: pass p adds cols/vals[bounds[p]:bounds[p+1]]
    into the first bounds[p+1] - bounds[p] permuted bins; the entries from
    bounds[-1] on are the tail, into the first `tail_bins` bins, whose
    permuted bin numbers `tail_bins_of` lists. Permuted bin p is row
    `position.argsort()[p]`, so output row r sits at permuted row position[r]."""

    position: np.ndarray
    bounds: list[int]
    cols: np.ndarray
    vals: np.ndarray
    tail_bins: int
    tail_bins_of: np.ndarray


@dataclass(frozen=True)
class SparseMatrix:
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValidationError("sparse matrix coordinate arrays differ in length")
        if len(self.rows) and (
            self.rows.min() < 0 or self.cols.min() < 0
            or self.rows.max() >= self.shape[0] or self.cols.max() >= self.shape[1]
        ):
            raise ValidationError("sparse matrix entry outside declared shape")

    @cached_property
    def _plan(self) -> _PassPlan:
        n = self.shape[0]
        counts = np.bincount(self.rows, minlength=n)
        position = np.empty(n, dtype=np.intp)
        position[np.argsort(-counts, kind="stable")] = np.arange(n)
        # widths[s]: the bins with more than s entries, the ones pass s touches.
        widths = n - np.cumsum(np.bincount(counts))[:-1]
        starts = np.concatenate([[0], np.cumsum(widths)])
        # Entries grouped by bin in entry order (a 16-bit key sorts by radix),
        # then each placed at its pass's start plus its bin's position.
        by_bin = np.argsort(self.rows.astype(np.uint16) if n <= 2 ** 16 else self.rows,
                            kind="stable")
        rank = np.arange(len(by_bin)) - np.repeat(np.cumsum(counts) - counts, counts)
        order = np.empty_like(by_bin)
        order[starts[rank] + position[self.rows[by_bin]]] = by_bin
        passes = int(np.count_nonzero(widths >= PASS_MIN_BINS))
        bounds = starts[:passes + 1].tolist()
        return _PassPlan(position=position, bounds=bounds,
                         cols=self.cols[order], vals=self.vals[order],
                         tail_bins=int(widths[passes]) if passes < len(widths) else 0,
                         tail_bins_of=position[self.rows[order[bounds[-1]:]]])

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        if dense.shape[0] != self.shape[1]:
            raise ValidationError(
                f"sparse-dense matmul: {self.shape} does not match {dense.shape}"
            )
        dense = np.asarray(dense, dtype=np.float64)
        plan, width = self._plan, dense.shape[1:]
        out = np.zeros((self.shape[0],) + width)
        # One buffer for every pass's products; the first pass is the widest.
        # The columns are in range (checked at construction), so "clip" never
        # clips: it only spares `take` the copy it makes to check them.
        products = np.empty((plan.bounds[1] if len(plan.bounds) > 1 else 0,) + width)
        for start, end in zip(plan.bounds, plan.bounds[1:]):
            part = products[:end - start]
            np.take(dense, plan.cols[start:end], axis=0, out=part, mode="clip")
            part *= plan.vals[start:end, None]
            out[:end - start] += part
        k, tail = plan.tail_bins, plan.bounds[-1]
        if k:
            out[:k] = scatter_rows(
                k, np.concatenate([np.arange(k), plan.tail_bins_of]),
                np.concatenate([out[:k], plan.vals[tail:, None] * dense[plan.cols[tail:]]]))
        return np.take(out, plan.position, axis=0)

    @cached_property
    def _transposed(self) -> "SparseMatrix":
        return SparseMatrix(
            shape=(self.shape[1], self.shape[0]),
            rows=self.cols, cols=self.rows, vals=self.vals,
        )

    def transpose(self) -> "SparseMatrix":
        return self._transposed

    def to_dense(self) -> np.ndarray:
        flat = scatter_rows(self.shape[0] * self.shape[1],
                            self.rows * self.shape[1] + self.cols, self.vals)
        return flat.reshape(self.shape)
