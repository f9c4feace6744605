"""Low-rank symmetric estimates kept in factored form.

A `Factored` estimate stands for the n x n matrix

    X = V C V^T,

with V an n x r matrix of orthonormal columns and C a symmetric r x r
matrix.  Spectral truncations and membership matrices have C diagonal (their
eigenpairs); the subspace projection solver returns a general symmetric C.
`from_dense` is the one conversion of an n x n array, by one `eigh`, and
`spanned` builds W core W^T for any column set W by one QR, the one place the
package orthonormalizes, and `eigenpairs` diagonalizes C.  Every quantity the
pipeline needs (single entries, the diagonal, the entry sum, inner products
and Frobenius norms) costs O(n r^2) or less, so no n x n array is built
unless `dense()` is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two equally shaped matrices."""
    return np.einsum("ij,ij->i", a, b)


@dataclass(frozen=True, eq=False)
class Factored:
    """V C V^T, V with orthonormal columns."""

    v: np.ndarray
    c: np.ndarray

    @classmethod
    def from_eig(cls, vals: np.ndarray, vecs: np.ndarray) -> "Factored":
        """The matrix sum_l vals[l] vecs[:, l] vecs[:, l]^T."""
        return cls(vecs, np.diag(vals))

    @classmethod
    def from_eig_truncated(cls, vals: np.ndarray, vecs: np.ndarray) -> "Factored":
        """`from_eig` with |vals| <= n eps max|vals| dropped (the rule of matrix_rank), n = len(vecs)."""
        keep = np.abs(vals) > len(vecs) * np.finfo(float).eps * np.abs(vals).max(initial=0.0)
        return cls.from_eig(vals[keep], vecs[:, keep])

    @classmethod
    def from_dense(cls, m: np.ndarray) -> "Factored":
        """A symmetric n x n array as eigenpairs: one eigh, then the drop rule of `from_eig_truncated`."""
        m = np.asarray(m, dtype=float)
        if not np.array_equal(m, m.T):
            raise ValueError("a dense matrix must be symmetric")
        return cls.from_eig_truncated(*np.linalg.eigh(m))

    @classmethod
    def spanned(cls, w: np.ndarray, core: np.ndarray) -> "Factored":
        """W core W^T for any n x r column set W, rank-deficient included.

        One QR, W = Q R, gives the factors Q and R core R^T.
        """
        q, r = np.linalg.qr(w)
        return cls(q, r @ core @ r.T)

    def eigenpairs(self) -> "Factored":
        """The same matrix as eigenpairs: one eigh of C, then the drop rule of `from_eig_truncated`."""
        w, u = np.linalg.eigh((self.c + self.c.T) / 2.0)
        return Factored.from_eig_truncated(w, self.v @ u)

    def scaled(self, factor: float) -> "Factored":
        return Factored(self.v, factor * self.c)

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """X[i, j] for index arrays i and j of equal length."""
        return _rowdot(self.v[i] @ self.c, self.v[j])

    def diagonal(self) -> np.ndarray:
        return _rowdot(self.v @ self.c, self.v)

    def offdiag_sum(self) -> float:
        """Sum of the off-diagonal entries: 1^T X 1 from w = V^T 1, minus the trace."""
        w = self.v.sum(axis=0)
        return float(w @ self.c @ w) - float(self.diagonal().sum())

    def norm(self) -> float:
        """Frobenius norm."""
        return math.sqrt(float(np.sum(self.c * self.c)))

    def inner(self, other: "Factored") -> float:
        """Frobenius inner product <X, Y>, through P = V_x^T V_y."""
        p = self.v.T @ other.v
        return float(np.sum((p.T @ self.c @ p) * other.c))

    def offdiag_inner(self, other: "Factored") -> float:
        """<X, Y> with diagonal terms excluded."""
        return self.inner(other) - float(self.diagonal() @ other.diagonal())

    def offdiag_norm(self) -> float:
        d = self.diagonal()
        return math.sqrt(max(self.norm() ** 2 - float(d @ d), 0.0))

    def dense(self) -> np.ndarray:
        """The n x n matrix, symmetrized."""
        x = self.v @ self.c @ self.v.T
        return (x + x.T) / 2.0
