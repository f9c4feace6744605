"""Weak-recovery baselines and the normalized-correlation recovery metric.

The spectral baseline is a rank-k truncation of the degree-centered
adjacency A - (d_hat/n) J, a stand-in for any estimator achieving some
recovery rate; it is reliable for d at least around log n.  Its solver,
`spectral_factors`, computes every spectrum of a graph in the package.  The
random baseline produces a membership matrix from uniformly random labels
and carries no signal by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .factored import Factored
from .model import Graph, Labels, SbmParams, sample_labels
from .seeds import unit_vector

METHODS = ("spectral", "random", "oracle")


class RecoveryFailed(ValueError):
    """The graph admits no estimate: it has no edges, or its truncation vanished."""


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Estimate of the membership matrix as eigenpairs, and its rate when labels are given."""

    estimate: Factored  # eigenpairs: C diagonal
    rate: float | None = None


def estimate_degree(y: Graph) -> float:
    """Average degree 2|E|/n."""
    if y.n < 2:
        raise ValueError("need at least 2 vertices")
    return 2.0 * y.edge_count / y.n


def offdiag_inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> with diagonal terms excluded (the package-wide convention)."""
    return float(np.sum(a * b) - np.sum(np.diag(a) * np.diag(b)))


def offdiag_norm(a: np.ndarray) -> float:
    return float(np.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0)))


def recovery_rate(m: np.ndarray | Factored, m_true: np.ndarray | Factored) -> float:
    """Normalized correlation <M, M*> / (|M|_F |M*|_F), diagonal excluded.

    Two `Factored` arguments are evaluated in factored form, without n x n
    arrays; a lone `Factored` beside a dense argument is densified.
    """
    if isinstance(m, Factored) and isinstance(m_true, Factored):
        inner, nm, nt = m.offdiag_inner(m_true), m.offdiag_norm(), m_true.offdiag_norm()
    else:
        m = m.dense() if isinstance(m, Factored) else np.asarray(m, dtype=float)
        m_true = m_true.dense() if isinstance(m_true, Factored) else np.asarray(m_true, dtype=float)
        if m.shape != m_true.shape:
            raise ValueError("matrices must have equal shape")
        inner, nm, nt = offdiag_inner(m, m_true), offdiag_norm(m), offdiag_norm(m_true)
    if nm == 0.0 or nt == 0.0:
        raise ValueError("recovery rate undefined for a zero matrix")
    return inner / (nm * nt)


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


def random_labels(n: int, k: int, seed: int) -> Labels:
    """Uniformly random labels (the signal-free baseline)."""
    return sample_labels(SbmParams(n, 1.0, k=k), seed)


def run_recovery(
    y1: Graph,
    params: SbmParams,
    method: str = "spectral",
    seed: int = 0,
    labels: Labels | None = None,
) -> RecoveryResult:
    """Dispatch a recovery baseline of METHODS; attaches rate when true labels are given.

    The estimate stays in eigenpair form, a `Factored`, and the rate is
    computed from the factors, so no n x n array is built.  A graph with no
    estimate raises RecoveryFailed, a caller error plain ValueError.
    """
    if method == "spectral":
        d_used = estimate_degree(y1)
        if d_used <= 0:
            raise RecoveryFailed("empty graph: cannot center the adjacency")
        vals, vecs = spectral_factors(y1, params.k, d_used)
        if np.all(np.abs(vals) < 1e-12):
            raise RecoveryFailed("spectral truncation vanished; no usable estimate")
        estimate = Factored.from_eig(vals, vecs)
    elif method == "random":
        estimate = membership_factors(random_labels(y1.n, params.k, seed))
    elif method == "oracle":
        if labels is None:
            raise ValueError("oracle recovery needs the true labels")
        estimate = membership_factors(labels)
    else:
        raise ValueError(f"unknown recovery method {method!r}")
    rate = None if labels is None else recovery_rate(estimate, membership_factors(labels))
    return RecoveryResult(estimate=estimate, rate=rate)
