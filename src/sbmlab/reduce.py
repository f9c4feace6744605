"""Testing reductions: split, estimate, project, then score the held-out edges.

The recovery route subsamples the graph, runs a recovery baseline on the kept
part Y1, regularizes the estimate with the correlation-preserving projection,
and scores g(Y) = <M_hat, Y2 - (eta d / n) J> on the held-out part (diagonal
excluded).  The learning route replaces the recovery step with an edge
probability learner and projects theta_hat - (d/n) J.  Decisions compare g
against a threshold, by default a null-calibrated quantile.

On the recovery route the estimate stays factored from the eigenpairs of
the recovery step to the score: g is evaluated from the factors in
O((m + n) r^2), with no n x n array.  The learning route's estimate
theta_hat - (d/n) J is dense; the projection eigendecomposes it once and,
when its numerical rank is low, returns a factored estimate scored the same
way.

When the projection degenerates (infeasible correlation constraint, solver
non-convergence, or a zero estimate) the report carries M_hat = 0, hence
g = 0 exactly, with the reason recorded in the side channel.  Every trial
that reaches the projection names its outcome in
side_channel["projection"]["status"]: ok, infeasible (with the certificate's
bound), no_convergence, or invalid (the projection rejected its input).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .factored import Factored
from .learn import gw_constant
from .model import BlockGraphon, Graph, Labels, SbmParams, map_trials
from .project import (
    ProjectionDidNotConverge,
    ProjectionInfeasibleError,
    ProjectionReport,
    ProjectionSpec,
    corr_preserving_projection,
)
from .recover import estimate_degree, run_recovery
from .seeds import derive_seed
from .split import subsample_edges

TRIAL_CSV_COLUMNS = (
    "seed",
    "arm",
    "statistic",
    "threshold",
    "decision",
    "recovery_rate_if_known",
    "wall_time_ms",
)


@dataclass(frozen=True)
class TestReport:
    """One pipeline evaluation: statistic, threshold and the 0/1 decision."""

    __test__ = False  # not a pytest class

    statistic: float
    threshold: float
    decision: int
    side_channel: dict

    def __post_init__(self):
        if self.decision != int(self.statistic >= self.threshold):
            raise ValueError(
                f"decision {self.decision} disagrees with statistic {self.statistic} "
                f"against threshold {self.threshold}"
            )


@dataclass(frozen=True)
class RScore:
    """Le Cam-style separation (E_P f - E_Q f) / sqrt(Var_Q f)."""

    mean_p: float
    mean_q: float
    var_q: float
    r_value: float
    trials: int
    degenerate: bool


def statistic_from_m_hat(m_hat: np.ndarray | Factored, y2: Graph, center: float) -> float:
    """g = <M_hat, Y2 - center * J> with diagonal terms excluded.

    For a dense M_hat the diagonal never enters the arithmetic, so adding any
    diagonal matrix to M_hat leaves g unchanged bit for bit.  A factored
    M_hat is scored in O((m + n) r^2): edge entries from the rows of V, the
    off-diagonal sum from V^T 1 minus the diagonal.
    """
    if isinstance(m_hat, Factored):
        edge_part = 2.0 * float(m_hat.entries(y2.edges[:, 0], y2.edges[:, 1]).sum())
        return edge_part - center * m_hat.offdiag_sum()
    edge_part = 2.0 * float(m_hat[y2.edges[:, 0], y2.edges[:, 1]].sum())
    off = m_hat.copy()
    np.fill_diagonal(off, 0.0)
    return edge_part - center * float(off.sum())


def projection_outcome(outcome: ProjectionReport | Exception) -> dict:
    """The side channel's projection record for a report or a raised exception."""
    if isinstance(outcome, ProjectionReport):
        return {
            "status": "ok",
            "iterations": outcome.iterations,
            "max_violation": outcome.max_violation,
            "n_norm": outcome.n_norm,
            "backend": outcome.backend,
            "width": outcome.width,
        }
    if isinstance(outcome, ProjectionInfeasibleError):
        return {"status": "infeasible", "bound": outcome.bound}
    if isinstance(outcome, ProjectionDidNotConverge):
        return {"status": "no_convergence"}
    return {"status": "invalid"}


def _degenerate_report(threshold: float, side: dict, reason: str) -> TestReport:
    side = dict(side, error=reason)
    return TestReport(
        statistic=0.0, threshold=threshold, decision=int(0.0 >= threshold), side_channel=side
    )


def _default_recovery_spec(params: SbmParams) -> ProjectionSpec:
    return ProjectionSpec(
        delta=params.delta, k=params.k, n=params.n, tol=1e-6, max_iters=2000
    )


def _default_learning_spec(params: SbmParams) -> ProjectionSpec:
    return ProjectionSpec(
        delta=params.delta, k=params.k, n=params.n, tol=1e-6, max_iters=300
    )


def recovery_test_statistic(
    y: Graph,
    params: SbmParams,
    seed: int,
    method: str = "spectral",
    threshold: float = 0.0,
    labels: Labels | None = None,
    proj: ProjectionSpec | None = None,
    use_true_degree: bool = False,
    center_estimated: bool = False,
) -> TestReport:
    """Full testing-from-recovery pipeline on one graph."""
    spec = proj if proj is not None else _default_recovery_spec(params)
    split = subsample_edges(y, params.eta, derive_seed(seed, "pipeline-split"))
    side = {"eta": params.eta, "method": method, "recovery_rate": None, "projection": None}
    d_hat = (1.0 - params.eta) * params.d if use_true_degree else None
    try:
        rec = run_recovery(
            split.y1,
            params,
            method=method,
            seed=derive_seed(seed, "pipeline-recovery"),
            labels=labels,
            d_hat=d_hat,
        )
    except ValueError as exc:
        return _degenerate_report(threshold, side, f"recovery: {exc}")
    side["recovery_rate"] = rec.rate
    center = params.eta * (estimate_degree(y) if center_estimated else params.d) / params.n
    try:
        rep = corr_preserving_projection(rec.estimate, spec)
    except (ProjectionInfeasibleError, ProjectionDidNotConverge, ValueError) as exc:
        side["projection"] = projection_outcome(exc)
        return _degenerate_report(threshold, side, f"projection: {exc}")
    side["projection"] = projection_outcome(rep)
    g = statistic_from_m_hat(rep.estimate, split.y2, center)
    return TestReport(
        statistic=g, threshold=threshold, decision=int(g >= threshold), side_channel=side
    )


def learning_test_statistic(
    y: Graph,
    params: SbmParams,
    learner,
    seed: int,
    threshold: float = 0.0,
    proj: ProjectionSpec | None = None,
) -> TestReport:
    """Testing-from-learning pipeline: project theta_hat - (d/n) J, then score."""
    spec = proj if proj is not None else _default_learning_spec(params)
    split = subsample_edges(y, params.eta, derive_seed(seed, "pipeline-split"))
    side = {"eta": params.eta, "method": "learning", "projection": None}
    theta_hat = np.asarray(learner(split.y1), dtype=float)
    if theta_hat.shape != (params.n, params.n):
        raise ValueError("learner must return an n x n matrix")
    if theta_hat.min() < 0.0 or theta_hat.max() > 1.0:
        raise ValueError("learner output must have entries in [0, 1]")
    if not np.array_equal(theta_hat, theta_hat.T):
        raise ValueError("learner output must be symmetric")
    m0 = theta_hat - params.d / params.n
    center = params.eta * params.d / params.n
    if float(np.linalg.norm(m0)) < 1e-12:
        return _degenerate_report(threshold, side, "learning: centered estimate is zero")
    try:
        rep = corr_preserving_projection(m0, spec)
    except (ProjectionInfeasibleError, ProjectionDidNotConverge) as exc:
        side["projection"] = projection_outcome(exc)
        return _degenerate_report(threshold, side, f"projection: {exc}")
    side["projection"] = projection_outcome(rep)
    g = statistic_from_m_hat(rep.estimate, split.y2, center)
    return TestReport(
        statistic=g, threshold=threshold, decision=int(g >= threshold), side_channel=side
    )


def calibrate_threshold(
    statistic_fn,
    params: SbmParams,
    trials: int,
    quantile: float,
    seed: int,
) -> float:
    """Empirical null quantile of g over fresh G(n, d/n) draws.

    statistic_fn(graph, trial_seed, labels) must return a TestReport (its
    threshold is ignored here; labels is always None under the null).
    """
    if trials < 50:
        raise ValueError("need at least 50 null trials to calibrate")
    if not 0.5 < quantile < 1.0:
        raise ValueError("quantile must lie in (0.5, 1)")

    def statistic(g, s, labels):
        return statistic_fn(g, s, labels).statistic

    values = np.array(map_trials(statistic, params, "Q", trials, seed, "calibrate"))
    if np.all(values == values[0]):
        raise ValueError("degenerate null sample: all statistics equal")
    return float(np.quantile(values, quantile))


def graphon_test(w_hat: BlockGraphon, params: SbmParams) -> int:
    """1 iff the estimate sits within the testing radius of the flat graphon."""
    radius = (params.d / (3.0 * params.n)) * math.sqrt(params.k / params.d)
    return int(gw_constant(w_hat, params.d / params.n) <= radius)


def empirical_r(statistic_fn, params: SbmParams, trials: int, seed: int) -> RScore:
    """Monte-Carlo estimate of R_{P,Q}(f) for a scalar statistic f.

    statistic_fn(graph, trial_seed) -> float; the P arm draws from the
    planted model, the Q arm from G(n, d/n).
    """
    if trials < 50:
        raise ValueError("need at least 50 trials per arm")
    return le_cam_score(
        map_trials(lambda g, s, _: statistic_fn(g, s), params, "P", trials, seed, "r-planted"),
        map_trials(lambda g, s, _: statistic_fn(g, s), params, "Q", trials, seed, "r-null"),
    )


def le_cam_score(p_vals, q_vals) -> RScore:
    """(mean_P - mean_Q) / sqrt(Var_Q) of per-trial values, one list per arm.

    A null arm without spread is flagged degenerate, with R = +-inf, or nan
    when the means agree too.
    """
    mean_p = float(np.mean(p_vals))
    mean_q = float(np.mean(q_vals))
    var_q = float(np.var(q_vals, ddof=1))
    gap = mean_p - mean_q
    if var_q == 0.0:
        r = math.inf if gap > 0 else (-math.inf if gap < 0 else math.nan)
        return RScore(mean_p, mean_q, var_q, r, len(p_vals), degenerate=True)
    return RScore(mean_p, mean_q, var_q, gap / math.sqrt(var_q), len(p_vals), degenerate=False)


# ---------------------------------------------------------------------------
# trial bookkeeping and the per-trial CSV interface


@dataclass(frozen=True)
class TrialRow:
    seed: int
    arm: str
    statistic: float
    threshold: float
    decision: int
    recovery_rate: float | None
    wall_time_ms: float


def run_test_trials(
    statistic_fn, params: SbmParams, arm: str, trials: int, seed: int, workers: int = 1
) -> list[TrialRow]:
    """Evaluate the pipeline on `trials` fresh draws of one arm (P or Q).

    statistic_fn(graph, stat_seed, labels) -> TestReport; labels carries the
    planted ground truth on the P arm (None on the Q arm) so oracle baselines
    and rate bookkeeping can see it.  The draws come from map_trials on the
    stream trial-<arm>; each row's seed is its trial's graph seed, and its
    wall time covers the statistic alone.
    """

    def timed(g, s, labels):
        t0 = time.perf_counter()
        report = statistic_fn(g, s, labels)
        return report, (time.perf_counter() - t0) * 1000.0

    stream = f"trial-{arm}"
    return [
        TrialRow(
            seed=derive_seed(seed, stream, t),
            arm=arm,
            statistic=report.statistic,
            threshold=report.threshold,
            decision=report.decision,
            recovery_rate=report.side_channel.get("recovery_rate"),
            wall_time_ms=wall,
        )
        for t, (report, wall) in enumerate(
            map_trials(timed, params, arm, trials, seed, stream, workers)
        )
    ]


def write_trial_csv(rows, fh, timing: bool = True) -> None:
    """One CSV row per trial; `timing=False` zeroes wall times for byte-stable output."""
    fh.write(",".join(TRIAL_CSV_COLUMNS) + "\n")
    for r in rows:
        rate = "" if r.recovery_rate is None else repr(float(r.recovery_rate))
        wall = repr(round(r.wall_time_ms, 3)) if timing else "0"
        fh.write(
            f"{r.seed},{r.arm},{float(r.statistic)!r},{float(r.threshold)!r},"
            f"{r.decision},{rate},{wall}\n"
        )
