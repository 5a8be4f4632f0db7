"""Minimal immutable sparse matrix in coordinate form.

Holds normalized adjacency operators and stacked TF-IDF rows; kept
small, since batches at desk scale hold thousands of nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


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

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        if dense.shape[0] != self.shape[1]:
            raise ValidationError(
                f"sparse-dense matmul: {self.shape} does not match {dense.shape}"
            )
        return scatter_rows(self.shape[0], self.rows, self.vals[:, None] * dense[self.cols])

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            shape=(self.shape[1], self.shape[0]),
            rows=self.cols, cols=self.rows, vals=self.vals,
        )

    def to_dense(self) -> np.ndarray:
        flat = scatter_rows(self.shape[0] * self.shape[1],
                            self.rows * self.shape[1] + self.cols, self.vals)
        return flat.reshape(self.shape)
