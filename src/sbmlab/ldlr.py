"""Exact low-degree likelihood ratio norm at any n.

Works in the p-biased character basis of the null law G(n, p), p = d/n: each
edge variable contributes chi_e(Y) = (Y_e - p) / sqrt(p (1-p)), and chi_S is
the product over an edge subset S.  These are orthonormal under the null, so
the squared norm of the degree-ell projection of the relative density mu is
the sum of squared coefficients

    mu_hat(S) = (eps p)^{|S|} (p (1-p))^{-|S|/2} E_label[ prod_{e in S} M_e ],

where M_e = 1{x_u = x_v} - 1/k and the expectation runs over i.i.d. uniform
labels.  The label expectation factorizes over the vertex support of S, so it
is exact enumeration over k^{|support|} assignments rather than k^n.

A vertex of degree 1 in S makes the moment exactly 0: conditioned on its
neighbour's label, its one factor M_e has mean 0.  So only supports whose
every vertex has degree >= 2 count, which forces v <= t for a t-edge support
on v vertices, and the moment depends on S only up to relabeling.  Grouping
the t-edge subsets of K_n by their v-vertex support gives

    mass_t = base^{2t} sum_{v <= t} C(n, v) B_k(v, t),
    base = eps p / sqrt(p (1-p)),

where B_k(v, t) sums moment^2 over the t-edge subsets of K_v that touch
every vertex with degree >= 2.  The table B_k depends on neither n, d nor
eps; it is built once per entry and cached in the process.  It is empty
below t = 3.  The bipartite statistic below hands its plug-in estimator
the first side of a vertex split as a `Graph`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .factored import Factored
from .learn import centered
from .model import Graph, SbmParams, map_trials
from .reduce import statistic_from_m_hat
from .seeds import stream_rng

_SUPPORT_LIMIT = 16  # k^support enumeration cap
# cap on sum_{t <= ell} C(C(ell, 2), t) k^ell, the subsets-times-labelings
# cost of the support table; admits ell = 7 for k <= 3 and ell = 6 for k <= 6
_TABLE_LIMIT = 5e8

LDLR_CSV_COLUMNS = ("n", "d", "eps", "k", "ell", "degree", "mass", "cumulative_norm")


@dataclass(frozen=True)
class LdlrResult:
    """Degree-ell likelihood ratio norm and its per-degree decomposition."""

    norm: float
    per_degree: tuple
    n: int
    d: float
    eps: float
    k: int
    ell: int


def all_edges(n: int) -> list[tuple[int, int]]:
    """Vertex pairs of K_n in lexicographic order (the edge index space)."""
    return list(itertools.combinations(range(n), 2))


def label_moment(edges: tuple, k: int) -> float:
    """E[prod_e (1{x_u = x_v} - 1/k)] over i.i.d. uniform labels.

    Exact enumeration over the vertex support of the edge set.
    """
    support = sorted({v for e in edges for v in e})
    if len(support) > _SUPPORT_LIMIT:
        raise ValueError(f"edge-set support {len(support)} too large for enumeration")
    pos = {v: i for i, v in enumerate(support)}
    local = [(pos[u], pos[v]) for u, v in edges]
    shift = 1.0 / k
    terms = []
    for assign in itertools.product(range(k), repeat=len(support)):
        prod = 1.0
        for u, v in local:
            prod *= (1.0 if assign[u] == assign[v] else 0.0) - shift
        terms.append(prod)
    return math.fsum(terms) / k ** len(support)


def fourier_coefficient(edges: tuple, params: SbmParams) -> float:
    """Coefficient of chi_S in the planted-vs-null relative density."""
    p = params.d / params.n
    if not 0.0 < p < 1.0:
        raise ValueError("null edge probability must lie strictly in (0, 1)")
    t = len(edges)
    if t == 0:
        return 1.0
    base = (params.eps * p / math.sqrt(p * (1.0 - p))) ** t
    if base == 0.0:
        return 0.0
    return base * label_moment(edges, params.k)


@functools.cache
def support_sum(k: int, v: int, t: int) -> float:
    """B_k(v, t): moment^2 summed over t-edge subsets of K_v with min degree 2."""
    squares = []
    for sub in itertools.combinations(all_edges(v), t):
        degree = [0] * v
        for a, b in sub:
            degree[a] += 1
            degree[b] += 1
        if min(degree, default=0) >= 2:
            squares.append(label_moment(sub, k) ** 2)
    return math.fsum(squares)


def exact_ldlr_norm(params: SbmParams, ell: int) -> LdlrResult:
    """Sum mu_hat(S)^2 over all edge subsets of size at most ell, by the table."""
    if ell < 0:
        raise ValueError("degree bound must be nonnegative")
    k = params.k
    work = sum(math.comb(math.comb(ell, 2), t) for t in range(ell + 1)) * k**ell
    if work > _TABLE_LIMIT:
        raise ValueError(
            f"support table for k={k}, ell={ell} needs ~{work:.2e} operations, "
            f"limit is {_TABLE_LIMIT:.0e}"
        )
    p = params.d / params.n
    if not 0.0 < p < 1.0:
        raise ValueError("null edge probability must lie strictly in (0, 1)")
    base = params.eps * p / math.sqrt(p * (1.0 - p))
    per_degree = [1.0]
    for t in range(1, ell + 1):
        b = base**t
        terms = [math.comb(params.n, v) * support_sum(k, v, t) for v in range(3, t + 1)]
        per_degree.append(b * b * math.fsum(terms))
    norm = math.sqrt(math.fsum(per_degree))
    return LdlrResult(
        norm=norm,
        per_degree=tuple(per_degree),
        n=params.n,
        d=params.d,
        eps=params.eps,
        k=params.k,
        ell=ell,
    )


def write_ldlr_csv(result: LdlrResult, fh) -> None:
    fh.write(",".join(LDLR_CSV_COLUMNS) + "\n")
    cum = 0.0
    for t, mass in enumerate(result.per_degree):
        cum = math.fsum([cum, mass])
        fh.write(
            f"{result.n},{result.d!r},{result.eps!r},{result.k},{result.ell},"
            f"{t},{mass!r},{math.sqrt(cum)!r}\n"
        )


# ---------------------------------------------------------------------------
# the explicit bipartite quadratic statistic and Monte-Carlo moments


def bipartite_partition(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random equal split of the vertices, reproducible from the seed."""
    if n % 2:
        raise ValueError("need an even vertex count")
    perm = stream_rng(seed, "bipartite-partition").permutation(n)
    return np.sort(perm[: n // 2]), np.sort(perm[n // 2 :])


def bipartite_quadratic_statistic(y: Graph, f_plugin, params: SbmParams, seed: int) -> float:
    """g(Y) = <(Y12 - p) X (Y12 - p), Y2 - p> with X = (f(Y1) - p) / p.

    Y1, Y2 are the within-side blocks of a random equal vertex split and Y12
    the cross block; diagonal terms of the Y2 block are excluded.  f_plugin
    maps the first side, a `Graph` on m vertices holding y's edges inside s1
    relabelled in s1's sorted order, to a `Factored` estimate with m rows.
    X = `centered`(f, p) / p = V C V^T stays factored, so Z = W12^T X W12 for
    W12 = Y12 - p J is U C U^T with U = Y12^T V - p 1 (1^T V), read off the
    sparse cross block.  With Z = `Factored.spanned`(U, C), g is scored like
    the testing routes' statistic, from Y2's edge list and Z's off-diagonal
    sum, in O(m r + n r^2) with no n x n array.  g reads n and d but not
    eps, so the null law G(n, d/n) fixes its distribution.
    """
    s1, s2 = bipartite_partition(y.n, seed)
    p = params.d / params.n
    # each side is sorted, so relabelling by rank in it keeps u < v and the edge order
    y1, y2 = (
        Graph(s.size, np.searchsorted(s, np.compress(np.isin(y.edges, s).all(axis=1), y.edges, axis=0)))
        for s in (s1, s2)
    )
    f = f_plugin(y1)
    if not isinstance(f, Factored) or f.v.shape[0] != s1.size:
        raise ValueError("plugin must return a Factored estimate with m rows")
    x = centered(f, p).scaled(1.0 / p)
    u = y.sparse()[s1][:, s2].T @ x.v - p * x.v.sum(axis=0)
    return statistic_from_m_hat(Factored.spanned(u, x.c), y2, p)


@dataclass(frozen=True)
class McMoments:
    mean: float
    var: float
    std_error: float
    trials: int


def mc_moments(statistic_fn, params: SbmParams, arm: str, trials: int, seed: int) -> McMoments:
    """Sample moments of a scalar statistic under the planted or null law."""
    if trials < 30:
        raise ValueError("need at least 30 trials")
    vals = map_trials(lambda g, s, _: statistic_fn(g, s), params, arm, trials, seed, f"mc-{arm}")
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1))
    return McMoments(mean=mean, var=var, std_error=math.sqrt(var / trials), trials=trials)
