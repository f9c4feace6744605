"""Parameter learning: rank-k SVD estimator and block-graphon distances.

The estimator takes a `Graph` and reads its eigenpairs from
`recover.spectral_factors`.  Graphon distance for equal-mass step functions
reduces to a quadratic assignment over block permutations after refining
both step functions to a common grid, solved by exact enumeration for small
refinements.  Against a constant target the distance is permutation-free
and has a closed form.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import BlockGraphon, Graph
from .recover import spectral_factors

_EXACT_GW_LIMIT = 8
_SYM_BLOCK = 64  # rows per slab when svd_theta symmetrizes


def svd_theta(y: Graph, k: int) -> np.ndarray:
    """Best rank-k approximation of the adjacency matrix, clipped to [0, 1].

    The top-k eigenpairs come from `spectral_factors`, uncentered.  Clipping
    is the entrywise projection onto [0,1]^{n x n}, which contains the true
    edge probability matrix, so it never increases the error.
    """
    vals, vecs = spectral_factors(y, k, 0.0)
    theta = (vecs * vals) @ vecs.T
    for i in range(0, len(theta), _SYM_BLOCK):  # theta + theta^T in place, by row slabs
        slab = theta[i : i + _SYM_BLOCK, i:] + theta[i:, i : i + _SYM_BLOCK].T
        theta[i : i + _SYM_BLOCK, i:] = slab
        theta[i:, i : i + _SYM_BLOCK] = slab.T
    theta *= 0.5
    return np.clip(theta, 0.0, 1.0, out=theta)


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


def read_graphon(path) -> BlockGraphon:
    with open(path) as fh:
        m = int(fh.readline())
        b = np.loadtxt(fh, ndmin=2)
    if b.shape != (m, m):
        raise ValueError("graphon file shape mismatch")
    return BlockGraphon(b)
