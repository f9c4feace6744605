"""Low-rank symmetric estimates kept in factored form.

A `Factored` estimate stands for the n x n matrix

    X = s * (V C V^T + alpha (I - V V^T)),

with V an n x r matrix of orthonormal columns, C a symmetric r x r matrix,
alpha and s scalars.  Spectral truncations and membership matrices are the
case alpha = 0, C diagonal; the subspace projection solver produces the
general form.  Every quantity the pipeline needs (single entries, the
diagonal, the entry sum, inner products and Frobenius norms) costs O(n r^2)
or less, so no n x n array is built unless `dense()` is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two equally shaped matrices."""
    return np.einsum("ij,ij->i", a, b)


@dataclass(frozen=True, eq=False)
class Factored:
    """s * (V C V^T + alpha (I - V V^T)), V with orthonormal columns."""

    v: np.ndarray
    c: np.ndarray
    alpha: float = 0.0
    scale: float = 1.0

    @classmethod
    def from_eig(cls, vals: np.ndarray, vecs: np.ndarray) -> "Factored":
        """The matrix sum_l vals[l] vecs[:, l] vecs[:, l]^T."""
        return cls(vecs, np.diag(vals))

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def r(self) -> int:
        return self.v.shape[1]

    def scaled(self, factor: float) -> "Factored":
        return replace(self, scale=self.scale * factor)

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """X[i, j] for index arrays i and j of equal length."""
        vi, vj = self.v[i], self.v[j]
        out = _rowdot(vi @ self.c, vj)
        if self.alpha != 0.0:
            out = out + self.alpha * ((i == j) - _rowdot(vi, vj))
        return self.scale * out

    def diagonal(self) -> np.ndarray:
        out = _rowdot(self.v @ self.c, self.v)
        if self.alpha != 0.0:
            out = out + self.alpha * (1.0 - _rowdot(self.v, self.v))
        return self.scale * out

    def offdiag_sum(self) -> float:
        """Sum of the off-diagonal entries: 1^T X 1 from w = V^T 1, minus the trace."""
        w = self.v.sum(axis=0)
        total = self.scale * float(w @ self.c @ w + self.alpha * (self.n - w @ w))
        return total - float(self.diagonal().sum())

    def norm(self) -> float:
        """Frobenius norm."""
        return abs(self.scale) * math.sqrt(
            float(np.sum(self.c * self.c)) + self.alpha**2 * (self.n - self.r)
        )

    def inner(self, other: "Factored") -> float:
        """Frobenius inner product <X, Y>, through P = V_x^T V_y."""
        p = self.v.T @ other.v
        val = float(np.sum((p.T @ self.c @ p) * other.c))
        if other.alpha != 0.0:
            val += other.alpha * float(np.trace(self.c) - np.sum(self.c * (p @ p.T)))
        if self.alpha != 0.0:
            val += self.alpha * float(np.trace(other.c) - np.sum(other.c * (p.T @ p)))
            if other.alpha != 0.0:
                val += self.alpha * other.alpha * (
                    self.n - self.r - other.r + float(np.sum(p * p))
                )
        return self.scale * other.scale * val

    def offdiag_inner(self, other: "Factored") -> float:
        """<X, Y> with diagonal terms excluded."""
        return self.inner(other) - float(self.diagonal() @ other.diagonal())

    def offdiag_norm(self) -> float:
        d = self.diagonal()
        return math.sqrt(max(self.norm() ** 2 - float(d @ d), 0.0))

    def dense(self) -> np.ndarray:
        """The n x n matrix, symmetrized."""
        x = self.v @ self.c @ self.v.T
        if self.alpha != 0.0:
            x = x + self.alpha * (np.eye(self.n) - self.v @ self.v.T)
        x = (x + x.T) / 2.0
        return self.scale * x
