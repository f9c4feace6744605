"""Edge subsampling into (Y1, Y2) and the decoupled surrogate for Y2.

Each edge of the source graph goes to Y1 with probability 1 - eta,
independently, and to Y2 otherwise; non-edges appear in neither.  The
decoupled matrix replaces Y2 by

    Ytilde2 = Y2 - E[Y2 | Y1] + eta * p,
    E[Y2 | Y1] = eta * p / (1 - (1 - eta) * p) * (1 - Y1)   (per pair),

which has conditional mean eta * p regardless of Y1 (hence zero correlation
with anything measurable from Y1) and a pointwise gap to Y2 of at most
eta * p / (1 - (1 - eta) * p).  Decoupling needs the true pair probabilities,
so it is a diagnostic tool only; the testing reductions never call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Graph, SbmParams, edge_prob_matrix, map_trials, read_edge_list, write_edge_list
from .seeds import stream_rng


@dataclass(frozen=True, eq=False)
class EdgeSplit:
    """Disjoint partition of a graph's edges into kept (y1) and held-out (y2)."""

    y1: Graph
    y2: Graph
    eta: float


def subsample_edges(y: Graph, eta: float, seed: int) -> EdgeSplit:
    """Place each edge of y in y1 with probability 1 - eta, else in y2."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    rng = stream_rng(seed, "edge-split")
    keep = rng.random(y.edge_count) < 1.0 - eta
    return EdgeSplit(
        Graph(y.n, np.compress(keep, y.edges, axis=0)),
        Graph(y.n, np.compress(~keep, y.edges, axis=0)),
        eta,
    )


def decouple(split: EdgeSplit, p: np.ndarray) -> np.ndarray:
    """Dense decoupled surrogate for Y2 given the true pair probabilities p.

    Off-diagonal entries follow the formula in the module docstring; the
    diagonal is zero (no self-loops anywhere in the pipeline).
    """
    eta = split.eta
    n = split.y1.n
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n):
        raise ValueError("probability matrix shape must match the graph")
    off = ~np.eye(n, dtype=bool)
    if np.any(p[off] >= 1.0):
        raise ValueError("decoupling formula requires p < 1 on every pair")
    y1 = split.y1.adjacency()
    y2 = split.y2.adjacency()
    cond = eta * p / (1.0 - (1.0 - eta) * p) * (1.0 - y1)
    out = y2 - cond + eta * p
    np.fill_diagonal(out, 0.0)
    return out


@dataclass(frozen=True)
class DecouplingReport:
    """Monte-Carlo diagnostics for the decoupled surrogate."""

    mean_gap: float
    var_gap: float
    corr_with_y1: float
    n_entries: int


def decoupling_diagnostics(params: SbmParams, trials: int, seed: int) -> DecouplingReport:
    """Estimate E[Ytilde2 - Y2], E[(Ytilde2 - Y2)^2] and corr(Ytilde2, Y1).

    Pools all off-diagonal pairs over `trials` independent SSBM draws, from
    map_trials on the stream "decoupling"; each trial's split uses its stat seed.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for stable diagnostics")
    iu, ju = np.triu_indices(params.n, 1)

    def sums(g, s, labels):
        # per-trial sums for the pooled moments and corr(Ytilde2, Y1)
        sp = subsample_edges(g, params.eta, s)
        yt = decouple(sp, edge_prob_matrix(params, labels))[iu, ju]
        y1 = sp.y1.adjacency()[iu, ju]
        gap = yt - sp.y2.adjacency()[iu, ju]
        return [x.sum() for x in (gap, gap**2, yt, y1, yt**2, y1**2, yt * y1)]

    gap_sum, gap_sq_sum, sx, sy, sxx, syy, sxy = np.sum(
        map_trials(sums, params, "P", trials, seed, "decoupling"), axis=0
    )
    n_entries = trials * iu.size
    cov = sxy / n_entries - (sx / n_entries) * (sy / n_entries)
    vx = sxx / n_entries - (sx / n_entries) ** 2
    vy = syy / n_entries - (sy / n_entries) ** 2
    corr = cov / np.sqrt(vx * vy) if vx > 0 and vy > 0 else 0.0
    return DecouplingReport(
        mean_gap=gap_sum / n_entries,
        var_gap=gap_sq_sum / n_entries,
        corr_with_y1=float(corr),
        n_entries=n_entries,
    )


def write_edge_split(split: EdgeSplit, y1_path, y2_path, meta_path, seed: int) -> None:
    """Serialize as two edge-list files plus an 'eta=... seed=...' metadata line."""
    write_edge_list(split.y1, y1_path)
    write_edge_list(split.y2, y2_path)
    with open(meta_path, "w") as fh:
        fh.write(f"eta={split.eta!r} seed={seed}\n")


def read_edge_split(y1_path, y2_path, meta_path) -> tuple[EdgeSplit, int]:
    with open(meta_path) as fh:
        parts = dict(tok.split("=", 1) for tok in fh.readline().split())
    split = EdgeSplit(read_edge_list(y1_path), read_edge_list(y2_path), float(parts["eta"]))
    return split, int(parts["seed"])
