"""Testing reductions: split, estimate, project, then score the held-out edges.

The recovery route subsamples the graph, runs a recovery baseline on the kept
part Y1, regularizes the estimate with the correlation-preserving projection,
and scores g(Y) = <M_hat, Y2 - (eta d / n) J> on the held-out part (diagonal
excluded).  The learning route replaces the recovery step with an edge
probability learner and projects theta_hat - (d/n) J.  Both return g alone;
harness.run_two_arms calibrates the threshold and decides every trial.

Both routes end in one project-and-score step, and both hand the projection
eigenpairs: the recovery route its estimate's, the learning route those of
theta_hat - (d/n) J, which `learn.centered` reads from the learner's
`Factored` output in O(n r^2).  The projected estimate comes back as a
`Factored` and g is evaluated from its factors in O((m + n) r^2), so neither
route builds an n x n array from the estimate to the score while the
subspace backend solves.

A trial whose estimate cannot be projected reports M_hat = 0, hence g = 0
exactly, with the reason in side_channel["error"].  The recovery route
reaches g = 0 in three ways: the kept part Y1 has no edges
(`RecoveryFailed`), the certificate proves the correlation constraint
infeasible, or the projection ends at its sweep cap; the learning route
also when its centered estimate is zero.  Every trial that reaches the
projection names its outcome in side_channel["projection"]["status"]: ok,
infeasible (with the certificate's bound) or no_convergence.  A caller
error, such as a graph whose size differs from params.n, raises.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .factored import Factored
from .learn import centered
from .model import Graph, Labels, SbmParams, map_trials
from .project import (
    ProjectionDidNotConverge,
    ProjectionInfeasibleError,
    ProjectionReport,
    ProjectionSpec,
    corr_preserving_projection,
)
from .recover import RecoveryFailed, membership_factors, recovery_rate, run_recovery
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
    """One pipeline evaluation: the statistic g and its side channel."""

    __test__ = False  # not a pytest class

    statistic: float
    side_channel: dict


@dataclass(frozen=True)
class RScore:
    """Le Cam-style separation (E_P f - E_Q f) / sqrt(Var_Q f)."""

    mean_p: float
    mean_q: float
    r_value: float


def statistic_from_m_hat(m_hat: Factored, y2: Graph, center: float) -> float:
    """g = <M_hat, Y2 - center * J> with diagonal terms excluded.

    Scored in O((m + n) r^2): edge entries from the rows of V, the
    off-diagonal sum from V^T 1 minus the diagonal.
    """
    edge_part = 2.0 * float(m_hat.entries(y2.edges[:, 0], y2.edges[:, 1]).sum())
    return edge_part - center * m_hat.offdiag_sum()


def projection_outcome(
    outcome: ProjectionReport | ProjectionInfeasibleError | ProjectionDidNotConverge,
) -> dict:
    """The side channel's projection record for a report or a degenerate solve's exception."""
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
    return {"status": "no_convergence"}


def projection_spec(params: SbmParams) -> ProjectionSpec:
    """The one projection of both routes and `sbmlab project`: tol 1e-6, at most 2000 sweeps."""
    return ProjectionSpec(
        delta=params.delta, k=params.k, n=params.n, tol=1e-6, max_iters=2000
    )


def _project_and_score(m0: Factored, y2: Graph, params: SbmParams, side: dict) -> TestReport:
    """Both routes' last step: project M0, then score g on the held-out part Y2."""
    if y2.n != params.n:
        raise ValueError(f"the graph has {y2.n} vertices, the params n = {params.n}")
    try:
        rep = corr_preserving_projection(m0, projection_spec(params))
    except (ProjectionInfeasibleError, ProjectionDidNotConverge) as exc:
        side["projection"] = projection_outcome(exc)
        return TestReport(0.0, dict(side, error=f"projection: {exc}"))
    side["projection"] = projection_outcome(rep)
    g = statistic_from_m_hat(rep.estimate, y2, params.eta * params.d / params.n)
    return TestReport(g, side)


def recovery_test_statistic(
    y: Graph,
    params: SbmParams,
    seed: int,
    method: str = "spectral",
    labels: Labels | None = None,
) -> TestReport:
    """Full testing-from-recovery pipeline on one graph."""
    split = subsample_edges(y, params.eta, derive_seed(seed, "pipeline-split"))
    side = {"recovery_rate": None, "projection": None}
    try:
        m0 = run_recovery(
            split.y1, params, method=method, seed=derive_seed(seed, "pipeline-recovery"), labels=labels
        )
    except RecoveryFailed as exc:
        return TestReport(0.0, dict(side, error=f"recovery: {exc}"))
    if labels is not None:
        side["recovery_rate"] = recovery_rate(m0, membership_factors(labels))
    return _project_and_score(m0, split.y2, params, side)


def learning_test_statistic(y: Graph, params: SbmParams, learner, seed: int) -> TestReport:
    """Testing-from-learning pipeline: project theta_hat - (d/n) J, then score.

    The learner maps the kept part Y1 to theta_hat, a `Factored` with n rows.
    """
    split = subsample_edges(y, params.eta, derive_seed(seed, "pipeline-split"))
    side = {"projection": None}
    theta_hat = learner(split.y1)
    if not isinstance(theta_hat, Factored) or theta_hat.v.shape[0] != params.n:
        raise ValueError("learner must return a Factored estimate with n rows")
    m0 = centered(theta_hat, params.d / params.n)
    if m0.norm() < 1e-12:
        return TestReport(0.0, dict(side, error="learning: centered estimate is zero"))
    return _project_and_score(m0, split.y2, params, side)


def le_cam_score(p_vals, q_vals) -> RScore:
    """Both arms' means and R = (mean_P - mean_Q) / sqrt(Var_Q), one list of values per arm.

    A null arm without spread gives R = +-inf by the sign of the gap, or nan
    when the means agree too; a null arm of fewer than two values gives nan.
    """
    mean_p = float(np.mean(p_vals))
    mean_q = float(np.mean(q_vals))
    if len(q_vals) < 2:
        return RScore(mean_p, mean_q, math.nan)
    var_q = float(np.var(q_vals, ddof=1))
    gap = mean_p - mean_q
    if var_q == 0.0:
        r = math.inf if gap > 0 else (-math.inf if gap < 0 else math.nan)
        return RScore(mean_p, mean_q, r)
    return RScore(mean_p, mean_q, gap / math.sqrt(var_q))


# ---------------------------------------------------------------------------
# trial bookkeeping and the per-trial CSV interface


@dataclass(frozen=True)
class TrialRow:
    """One trial's statistic; its decision follows from the threshold it is held to."""

    seed: int
    arm: str
    statistic: float
    recovery_rate: float | None
    wall_time_ms: float
    threshold: float = 0.0

    @property
    def decision(self) -> int:
        return int(self.statistic >= self.threshold)


def run_test_trials(
    statistic_fn, params: SbmParams, arm: str, trials: int, seed: int
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
            recovery_rate=report.side_channel.get("recovery_rate"),
            wall_time_ms=wall,
        )
        for t, (report, wall) in enumerate(map_trials(timed, params, arm, trials, seed, stream))
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
