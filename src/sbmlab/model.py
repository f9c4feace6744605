"""Symmetric stochastic block model: parameters, samplers, ground-truth matrices.

The model SSBM(n, d/n, eps, k), 2 <= k < n, assigns each vertex a uniform
label in {0, ..., k-1} and connects pairs independently with probability

    p_in  = (1 + (k-1)*eps/k) * d/n   (same label)
    p_out = (1 - eps/k) * d/n         (different labels)

eps = 0 degenerates to the Erdos-Renyi law G(n, d/n).  Ground-truth objects:
the membership matrix M  (entries 1{x_i = x_j} - 1/k), the edge probability
matrix theta (entries p_in / p_out), and the k-block graphon.

The samplers never enumerate the n(n-1)/2 pairs.  Pairs inside one block
pair share a Bernoulli parameter, so each of the k(k+1)/2 block pairs draws
a binomial edge count and then that many distinct pair indices, decoded to
vertex pairs (a triangular decode within a block, a rectangular one across)
and sorted once on the flat key u*n + v.  A draw with m edges costs
O(n k + m log m) time and O(n + m) memory while every block's p is at most
1/20; at constant average degree d, m is about d n / 2.  Above that, numpy's
`Generator.choice(replace=False, shuffle=False)` permutes an arange over a
block's whole pair range (once the range exceeds 10^4 pairs), so that block
costs memory in its pair count, not its edge count (`_sample_block_pairs`).
G(n, d/n) is the one-block case.  A `Graph`'s sparse adjacency, built from
the sorted edge list, feeds every eigensolver at every n.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .seeds import derive_seed, stream_rng

@dataclass(frozen=True)
class SbmParams:
    """Experiment parameter tuple (n, d, eps, k, eta, delta).

    n: vertex count; d: target average degree; eps: bias in [0, 1];
    k: community count, 2 <= k < n; eta: holdout rate for edge subsampling
    in (0, 1); delta: target recovery rate in (0, 1].
    """

    n: int
    d: float
    eps: float = 0.0
    k: int = 2
    eta: float = 0.1
    delta: float = 0.1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        if not 0 < self.d < self.n:
            raise ValueError(f"average degree must be in (0, n), got d={self.d}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"bias must be in [0, 1], got eps={self.eps}")
        if not 2 <= self.k < self.n:
            raise ValueError(f"need 2 <= k < n communities, got k={self.k}, n={self.n}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"holdout rate must be in (0, 1), got eta={self.eta}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"recovery rate must be in (0, 1], got delta={self.delta}")
        if self.p_in > 1.0:
            raise ValueError(f"p_in={self.p_in} exceeds 1; parameters out of range")

    @property
    def p_in(self) -> float:
        return (1.0 + (self.k - 1) * self.eps / self.k) * self.d / self.n

    @property
    def p_out(self) -> float:
        return (1.0 - self.eps / self.k) * self.d / self.n


@dataclass(frozen=True, eq=False)
class Labels:
    """Community assignment: entries in {0, ..., k-1}, one per vertex."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1:
            raise ValueError("assignment must be a flat vector")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ValueError("labels must lie in [0, k)")

    @property
    def n(self) -> int:
        return self.assignment.size


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph stored as a sorted edge list (u < v)."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", e)
        if e.size:
            if e.min() < 0 or e.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(e[:, 0] >= e[:, 1]):
                raise ValueError("edges must satisfy u < v")
            # one pass over the flat key u*n + v: a negative step means the
            # list is out of order, a zero step a repeated edge
            step = np.diff(e[:, 0] * self.n + e[:, 1])
            if np.any(step < 0):
                raise ValueError("edge list must be sorted lexicographically")
            if np.any(step == 0):
                raise ValueError("duplicate edge")

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix, zero diagonal, built from `sparse()` on each call.

        Refused above n = 10^4, where the array would take 800 MB; no
        eigensolver reads it.
        """
        if self.n > 10_000:
            raise ValueError(f"a dense adjacency needs n <= 10000, got n={self.n}")
        return self.sparse().toarray()

    def sparse(self) -> sps.csr_matrix:
        """Symmetric 0/1 adjacency in CSR form, zero diagonal, sorted indices.

        The sorted edge list (u < v) is already the upper triangle U in CSR
        order: row pointers from the counts of u, column indices v.  A := U + Uᵀ
        is a per-row merge, since a row's Uᵀ entries (columns < i) all precede
        its U entries (columns > i).  The sorted indices rely on the edge list's
        order, which `__post_init__` checks.
        """
        n, u = self.n, self.edges[:, 0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
        upper = sps.csr_matrix((np.ones(self.edge_count), self.edges[:, 1], indptr), shape=(n, n))
        return (upper + upper.T).tocsr()


@dataclass(frozen=True, eq=False)
class BlockGraphon:
    """Step function on [0,1]^2 with m equal-mass blocks and value matrix b."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("block value matrix must be square")
        if not np.allclose(b, b.T):
            raise ValueError("block value matrix must be symmetric")
        if b.min() < 0.0 or b.max() > 1.0:
            raise ValueError("graphon values must lie in [0, 1]")

    @property
    def m(self) -> int:
        return self.b.shape[0]


def sample_labels(params: SbmParams, seed: int, balanced: bool = False) -> Labels:
    """i.i.d. uniform labels, or a uniformly random exactly-balanced assignment."""
    rng = stream_rng(seed, "labels")
    if balanced:
        if params.n % params.k != 0:
            raise ValueError(f"balanced labels need k | n, got n={params.n}, k={params.k}")
        base = np.repeat(np.arange(params.k), params.n // params.k)
        return Labels(rng.permutation(base), params.k)
    return Labels(rng.integers(0, params.k, size=params.n), params.k)


def membership_matrix(labels: Labels) -> np.ndarray:
    """Ground-truth membership matrix with entries 1{x_i = x_j} - 1/k."""
    a = labels.assignment
    return (a[:, None] == a[None, :]).astype(float) - 1.0 / labels.k


def edge_prob_matrix(params: SbmParams, labels: Labels) -> np.ndarray:
    """Per-pair Bernoulli parameter matrix theta (diagonal set, never sampled)."""
    if labels.n != params.n:
        raise ValueError("labels length must match params.n")
    a = labels.assignment
    same = a[:, None] == a[None, :]
    return np.where(same, params.p_in, params.p_out)


def _triangle_decode(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert idx = j(j-1)/2 + i over pairs 0 <= i < j, exactly in integers.

    The float square root gives j to within one; one integer step either way
    corrects it for every index below 2**53.
    """
    j = ((1.0 + np.sqrt(1.0 + 8.0 * idx)) / 2.0).astype(np.int64)
    j -= j * (j - 1) // 2 > idx
    j += (j + 1) * j // 2 <= idx
    return idx - j * (j - 1) // 2, j


def _sample_block_pairs(n: int, labels: Labels, p_in: float, p_out: float, rng) -> Graph:
    """Independent Bernoulli pairs, p_in within a block and p_out across blocks.

    For each block pair (x <= y) the edge count is Binomial(N_xy, p_xy), with
    N_xy = C(n_x, 2) within a block and n_x n_y across; the edges are then
    that many distinct pair indices drawn uniformly from [0, N_xy).  Given its
    count, a uniform subset of pairs is exactly the conditional law of the
    independent Bernoulli pairs, so the graph has the same law as one coin per
    pair.  Cost is O(n k + m log m) time, and O(n + m) memory while each draw
    takes at most 1/20 of its block's pairs: numpy's Floyd sampler then holds
    only the draw.  A larger draw from more than 10^4 pairs permutes an arange
    over all N_xy of them, O(N_xy) memory: 1.0 MiB against 0.11 MiB for 124,750
    pairs at p = 0.064 against 0.048, and 404 MiB for one block of 5*10^7
    pairs at p = 0.06.
    """
    members = [np.flatnonzero(labels.assignment == x) for x in range(labels.k)]
    keys = []
    for x, mx in enumerate(members):
        for y in range(x, labels.k):
            my = members[y]
            if x == y:
                pairs, p = mx.size * (mx.size - 1) // 2, p_in
            else:
                pairs, p = mx.size * my.size, p_out
            idx = rng.choice(pairs, rng.binomial(pairs, p), replace=False, shuffle=False)
            if x == y:
                i, j = _triangle_decode(idx)
                u, v = mx[i], mx[j]
            else:
                i, j = np.divmod(idx, my.size)
                u, v = np.minimum(mx[i], my[j]), np.maximum(mx[i], my[j])
            keys.append(u * n + v)
    key = np.sort(np.concatenate(keys))
    return Graph(n, np.column_stack(np.divmod(key, n)))


def sample_ssbm(params: SbmParams, seed: int) -> tuple[Graph, Labels]:
    """Draw (graph, labels) from SSBM(n, d/n, eps, k).

    Each unordered pair is an independent Bernoulli with parameter p_in or
    p_out according to the labels; eps = 0 reproduces G(n, d/n) exactly.  The
    pairs are never enumerated: each of the k(k+1)/2 block pairs draws a
    binomial edge count and then that many distinct pairs, so a draw costs
    O(n k + m log m) time for m edges, and O(n + m) memory while p_in is at
    most 1/20 (above it, see `_sample_block_pairs`).
    """
    labels = sample_labels(params, seed)
    rng = stream_rng(seed, "edges")
    return _sample_block_pairs(params.n, labels, params.p_in, params.p_out, rng), labels


def sample_er(n: int, d: float, seed: int) -> Graph:
    """Draw the null graph G(n, d/n): the one-block case of the SSBM sampler.

    One binomial edge count over the C(n, 2) pairs, then that many distinct
    pairs; O(n + m log m) time, and O(n + m) memory while d/n is at most 1/20
    (above it, see `_sample_block_pairs`).
    """
    rng = stream_rng(seed, "edges-null")
    p = d / n
    return _sample_block_pairs(n, Labels(np.zeros(n, dtype=np.int64), 1), p, p, rng)


def map_trials(evaluate, params: SbmParams, arm: str, trials: int, seed: int, stream: str) -> list:
    """evaluate(graph, stat_seed, labels) on `trials` fresh draws of one arm.

    Trial t draws its graph from derive_seed(seed, stream, t): SSBM(params)
    with its labels on arm P, G(n, d/n) with labels None on arm Q.  evaluate
    receives derive_seed(seed, stream + "-stat", t).  The trials run in
    order in the calling thread, and the results come back in trial order.
    """
    if arm not in ("P", "Q"):
        raise ValueError("arm must be 'P' or 'Q'")

    def one(t: int):
        graph_seed = derive_seed(seed, stream, t)
        if arm == "P":
            graph, labels = sample_ssbm(params, graph_seed)
        else:
            graph, labels = sample_er(params.n, params.d, graph_seed), None
        return evaluate(graph, derive_seed(seed, f"{stream}-stat", t), labels)

    return [one(t) for t in range(trials)]


def sbm_graphon(params: SbmParams) -> BlockGraphon:
    """k-block graphon generating the model: p_in on diagonal blocks, p_out off.

    Assortative convention throughout (same-label pairs get the larger
    probability when eps > 0), matching the model's sampling law.
    """
    b = np.full((params.k, params.k), params.p_out)
    np.fill_diagonal(b, params.p_in)
    return BlockGraphon(b)


# ---------------------------------------------------------------------------
# text formats


def write_edge_list(graph: Graph, dest) -> None:
    """Edge-list text format: 'n m' header then 'u v' rows, sorted, 0-based.

    `dest` is a path, or an open text handle that is written to and left open.
    """
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "w") as fh:
        fh.write(f"{graph.n} {graph.edge_count}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def write_labels(labels: Labels, path) -> None:
    """Labels text format: one integer per line."""
    with open(path, "w") as fh:
        for x in labels.assignment:
            fh.write(f"{x}\n")

