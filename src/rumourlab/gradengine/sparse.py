"""Minimal immutable sparse matrix in coordinate form.

Holds normalized adjacency operators and stacked TF-IDF rows; kept
small, since batches at desk scale hold thousands of nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


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
            self.rows.max() >= self.shape[0] or self.cols.max() >= self.shape[1]
        ):
            raise ValidationError("sparse matrix entry outside declared shape")

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        if dense.shape[0] != self.shape[1]:
            raise ValidationError(
                f"sparse-dense matmul: {self.shape} does not match {dense.shape}"
            )
        out = np.zeros((self.shape[0], dense.shape[1]))
        np.add.at(out, self.rows, self.vals[:, None] * dense[self.cols])
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            shape=(self.shape[1], self.shape[0]),
            rows=self.cols, cols=self.rows, vals=self.vals,
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense
