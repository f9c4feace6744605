"""Parameter learning: rank-k SVD estimator and block-graphon distances.

The estimator takes a `Graph` and keeps the eigenpairs that
`recover.spectral_factors` reads, as a `Factored`, so no n x n array is
built.  Every pipeline reads it through `centered` (theta_hat - c J as
eigenpairs), and `frob_error_sq` scores it against the planted theta from
theta's blocks.  Graphon distance for equal-mass step functions reduces to a
quadratic assignment over block permutations after refining both step
functions to a common grid, solved by exact enumeration for small
refinements.  Against a constant target the distance is permutation-free
and has a closed form.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .factored import Factored
from .model import BlockGraphon, Graph, Labels, SbmParams
from .recover import membership_factors, spectral_factors

_EXACT_GW_LIMIT = 8


def svd_theta(y: Graph, k: int) -> Factored:
    """Best rank-k approximation of the adjacency matrix, as its eigenpairs.

    The top-k eigenpairs come from `spectral_factors`, uncentered.  The
    estimate is not clipped to [0, 1]: a clip would only lower the error, and
    it would make theta_hat - c J dense.
    """
    return Factored.from_eig(*spectral_factors(y, k, 0.0))


def centered(theta_hat: Factored, c: float) -> Factored:
    """theta_hat - c J as eigenpairs, |w| <= n eps max|w| dropped.

    theta_hat - c J = [V | 1] diag(C, -c) [V | 1]^T, so one QR of [V | 1] and
    one (r + 1) x (r + 1) eigh give its eigenpairs, in O(n r^2).
    """
    n, r = theta_hat.v.shape
    core = np.zeros((r + 1, r + 1))
    core[:r, :r] = theta_hat.c
    core[r, r] = -c
    return Factored.spanned(np.column_stack([theta_hat.v, np.ones(n)]), core).eigenpairs()


def frob_error_sq(theta_hat: Factored, params: SbmParams, labels: Labels) -> float:
    """|theta_hat - theta|_F^2 against the planted edge probabilities, diagonal included.

    theta - (d/n) J = (p_in - p_out) M for the membership matrix M of the
    labels, so with A = theta_hat - (d/n) J and B = (p_in - p_out) M, both
    factored, the error is |A|^2 - 2 <A, B> + |B|^2, in O(n k^2).
    """
    a = centered(theta_hat, params.d / params.n)
    b = membership_factors(labels).scaled(params.p_in - params.p_out)
    return a.norm() ** 2 - 2.0 * a.inner(b) + b.norm() ** 2


def refine(w: BlockGraphon, m: int) -> BlockGraphon:
    """Refine an equal-mass step function to m blocks (w.m must divide m)."""
    if m % w.m != 0:
        raise ValueError(f"cannot refine {w.m} blocks to {m}")
    r = m // w.m
    idx = np.repeat(np.arange(w.m), r)
    return BlockGraphon(w.b[np.ix_(idx, idx)])


def gw_constant(w: BlockGraphon, c: float) -> float:
    """Distance to the constant-c graphon: sqrt of the mean squared gap."""
    if not 0.0 <= c <= 1.0:
        raise ValueError("constant target must lie in [0, 1]")
    return float(np.sqrt(np.mean((w.b - c) ** 2)))


def _perm_cost(b1: np.ndarray, b2: np.ndarray, perm: np.ndarray) -> float:
    d = b1[np.ix_(perm, perm)] - b2
    return float(np.sum(d * d))


def gw_distance(w1: BlockGraphon, w2: BlockGraphon) -> float:
    """Graphon distance minimized over block permutations of a common refinement.

    Enumerates all permutations, so the refined size is at most _EXACT_GW_LIMIT.
    """
    m = math.lcm(w1.m, w2.m)
    if m > _EXACT_GW_LIMIT:
        raise ValueError(f"refined block count {m} too large for exact enumeration")
    b1 = refine(w1, m).b
    b2 = refine(w2, m).b
    best = min(_perm_cost(b1, b2, np.array(perm)) for perm in itertools.permutations(range(m)))
    return float(np.sqrt(best / m**2))


def write_graphon(w: BlockGraphon, path) -> None:
    """Text format: first line m, then m rows of m values (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(f"{w.m}\n")
        for row in w.b:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")

