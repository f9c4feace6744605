"""Weak-recovery baselines and the normalized-correlation recovery metric.

The spectral baseline is a rank-k truncation of the degree-centered
adjacency A - (d_hat/n) J, a stand-in for any estimator achieving some
recovery rate; it is reliable for d at least around log n.  Its solver,
`spectral_factors`, is one Lanczos run on the sparse adjacency, and it also
serves `learn.svd_theta` (`harness.centered_operator_norm` runs its own).  The
random baseline produces a membership matrix from uniformly random labels
and carries no signal by construction.  `run_recovery` returns the estimate
alone, as eigenpairs; a caller holding the true labels scores it with
`recovery_rate(estimate, membership_factors(labels))`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .factored import Factored
from .model import Graph, Labels, SbmParams, sample_labels
from .seeds import unit_vector

METHODS = ("spectral", "random", "oracle")


class RecoveryFailed(ValueError):
    """The graph admits no estimate: it has no edges to center the adjacency with."""


def estimate_degree(y: Graph) -> float:
    """Average degree 2|E|/n."""
    if y.n < 2:
        raise ValueError("need at least 2 vertices")
    return 2.0 * y.edge_count / y.n


def recovery_rate(m: Factored, m_true: Factored) -> float:
    """Normalized correlation <M, M*> / (|M|_F |M*|_F), diagonal excluded.

    Evaluated from the factors, without n x n arrays.
    """
    if m.v.shape[0] != m_true.v.shape[0]:
        raise ValueError("matrices must have equal shape")
    nm, nt = m.offdiag_norm(), m_true.offdiag_norm()
    if nm == 0.0 or nt == 0.0:
        raise ValueError("recovery rate undefined for a zero matrix")
    return m.offdiag_inner(m_true) / (nm * nt)


def spectral_factors(y1: Graph, k: int, d_hat: float) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs by magnitude of A - (d_hat/n) J.

    One Lanczos run on the sparse adjacency from a fixed deterministic start
    vector, at every n.  d_hat = 0 leaves A uncentered; an edgeless graph
    uncentered is the zero operator, whose k eigenvalues are 0 on the first k
    coordinate axes (ARPACK rejects it).
    """
    if d_hat < 0:
        raise ValueError("centering degree must be nonnegative")
    n = y1.n
    if k >= n:
        raise ValueError("truncation rank must be below n")
    c = d_hat / n
    if y1.edge_count == 0 and c == 0:
        return np.zeros(k), np.eye(n, k)
    a = y1.sparse()

    def matvec(x):
        # bit-identical to subtracting c * x.sum() * ones(n): the same IEEE operations
        y = a @ x
        y -= c * x.sum()
        return y

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    return spla.eigsh(op, k=k, which="LM", v0=unit_vector(n, "spectral-start"), tol=1e-10)


def membership_factors(labels: Labels) -> Factored:
    """The membership matrix of the labels as eigenpairs.

    With the n x k indicator matrix W, W 1 = 1, so the matrix is W (I - J/k) W^T.
    """
    n, k = labels.n, labels.k
    ind = np.zeros((n, k))
    ind[np.arange(n), labels.assignment] = 1.0
    return Factored.spanned(ind, np.eye(k) - 1.0 / k).eigenpairs()


def run_recovery(
    y1: Graph,
    params: SbmParams,
    method: str = "spectral",
    seed: int = 0,
    labels: Labels | None = None,
) -> Factored:
    """The estimate of the membership matrix by a recovery baseline of METHODS.

    The estimate is eigenpairs, a `Factored` with diagonal C, so no n x n
    array is built; `labels` is read by the oracle alone.  A graph with no
    edges raises RecoveryFailed, a caller error plain ValueError.  On a graph
    with an edge (u, v), x = (e_u - e_v)/sqrt(2) has x^T (A - c J) x = -1,
    so the spectral truncation keeps an eigenvalue of magnitude at least 1.
    """
    if method == "spectral":
        d_used = estimate_degree(y1)
        if d_used <= 0:
            raise RecoveryFailed("empty graph: cannot center the adjacency")
        return Factored.from_eig(*spectral_factors(y1, params.k, d_used))
    if method == "random":
        return membership_factors(sample_labels(params, seed))
    if method == "oracle":
        if labels is None:
            raise ValueError("oracle recovery needs the true labels")
        return membership_factors(labels)
    raise ValueError(f"unknown recovery method {method!r}")
