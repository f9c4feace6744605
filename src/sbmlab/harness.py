"""Experiment configs, phase-diagram sweeps, concentration checks, acceptance.

Configs are flat ``key = value`` text with dotted keys; unknown keys are
rejected so stale files fail loudly.  Every setting is checked when the
config is built (``ExperimentConfig`` and ``SbmParams`` validate
themselves), so a value no trial could run on never reaches one.  All
experiment entry points are pure functions of (config, master seed):
rerunning with the same seed reproduces every emitted CSV byte for byte
(wall-clock columns are zeroed via ``timing=False`` wherever byte-stability
matters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from .learn import centered, svd_theta
from .ldlr import bipartite_quadratic_statistic
from .model import Graph, Labels, SbmParams, map_trials
from .recover import METHODS
from .reduce import (
    TestReport,
    le_cam_score,
    learning_test_statistic,
    recovery_test_statistic,
    run_test_trials,
)
from .seeds import derive_seed, unit_vector

PIPELINES = ("recovery", "learning", "graphon", "bipartite")

SWEEP_CSV_COLUMNS = (
    "snr",
    "eps",
    "power",
    "size",
    "r_value",
    "median_stat_p",
    "median_stat_q",
    "runtime_s",
    "status",
)


@dataclass(frozen=True)
class ExperimentConfig:
    params: SbmParams
    trials: int = 40
    seed: int = 0
    pipeline: str = "recovery"
    threshold_quantile: float = 0.99
    recovery_method: str = "spectral"  # one of recover.METHODS
    ell: int = 3

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        n, k = self.params.n, self.params.k
        if self.pipeline == "bipartite" and (n % 2 or k >= n // 2):
            # the vertex split puts n/2 vertices on a side; the plug-in fits rank k on one side
            raise ValueError(f"pipeline = bipartite needs an even n and k < n/2, got n={n}, k={k}")
        if not 0.5 < self.threshold_quantile < 1.0:
            raise ValueError(f"threshold quantile {self.threshold_quantile} is not in (0.5, 1)")
        if self.recovery_method not in METHODS:
            raise ValueError(f"unknown recovery method {self.recovery_method!r}")


# dotted config key -> (field, type); a "params." key names an SbmParams
# field, any other an ExperimentConfig field
_CONFIG_KEYS = {
    "params.n": ("n", int),
    "params.d": ("d", float),
    "params.eps": ("eps", float),
    "params.k": ("k", int),
    "params.eta": ("eta", float),
    "params.delta": ("delta", float),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "pipeline": ("pipeline", str),
    "threshold.quantile": ("threshold_quantile", float),
    "recovery.method": ("recovery_method", str),
    "ldlr.ell": ("ell", int),
}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse flat 'key = value' lines with dotted keys; unknown keys error.

    `overrides` maps dotted keys to values that win over the text's (the
    CLI's flags); the config is built and checked once, from the merged keys.
    ``parse_config("")`` is the default config.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        kind = _CONFIG_KEYS[key][1]
        try:
            raw[key] = kind(value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} must be {kind.__name__}, got {value!r}") from None
    params, top = {}, {}
    for key, value in {**raw, **(overrides or {})}.items():
        (params if key.startswith("params.") else top)[_CONFIG_KEYS[key][0]] = value
    default = ExperimentConfig(params=SbmParams(400, 16.0, eps=0.5, k=2))
    return replace(default, params=replace(default.params, **params), **top)


# ---------------------------------------------------------------------------
# phase sweep


@dataclass(frozen=True)
class PhasePoint:
    snr: float
    eps: float
    power: float
    size: float
    r_value: float
    median_stat_p: float
    median_stat_q: float
    runtime_s: float
    status: str


def pipeline_statistic(cfg: ExperimentConfig):
    """cfg's per-trial statistic, (graph, stat_seed, labels) -> TestReport.

    Scores with cfg.params; run_two_arms decides.  No pipeline's
    statistic reads eps, only n, d, k, eta and delta.
    """
    params = cfg.params

    def learner(y1):
        return svd_theta(y1, params.k)

    def stat(g, s, labels=None):
        if cfg.pipeline == "recovery":
            # the oracle baseline only exists under the planted law; the null
            # arm degrades it to the signal-free random baseline
            oracle_null = cfg.recovery_method == "oracle" and labels is None
            method = "random" if oracle_null else cfg.recovery_method
            return recovery_test_statistic(g, params, seed=s, method=method, labels=labels)
        if cfg.pipeline == "learning":
            return learning_test_statistic(g, params, learner, s)
        if cfg.pipeline == "graphon":
            # distance |theta_hat - (d/n) J|_F / n of the estimated graphon to
            # the flat one, calibrated on the null arm like every statistic
            val = centered(learner(g), params.d / params.n).norm() / params.n
        else:
            val = bipartite_quadratic_statistic(g, learner, params, s)
        return TestReport(val, {})

    return stat


def run_two_arms(cfg: ExperimentConfig, seed_q: int, arms):
    """cfg's pipeline on cfg.trials draws of the null arm and of each planted arm.

    `arms` lists the planted arms as (eps, seed_p) pairs; no statistic reads
    eps, so one null arm serves them all.  tau is the threshold_quantile of
    the null statistics.
    Returns (tau, rows_p per planted arm, rows_q), each row decided against tau.
    """
    stat = pipeline_statistic(cfg)
    # every planted arm's SbmParams is built, hence checked, before any trial runs
    planted = [(replace(cfg.params, eps=eps), seed_p) for eps, seed_p in arms]
    rows_q = run_test_trials(stat, cfg.params, "Q", cfg.trials, seed_q)
    arms_p = [run_test_trials(stat, params, "P", cfg.trials, seed_p) for params, seed_p in planted]
    tau = float(np.quantile(np.array([r.statistic for r in rows_q]), cfg.threshold_quantile))

    def decide(rows):
        return [replace(r, threshold=tau) for r in rows]

    return tau, [decide(rows) for rows in arms_p], decide(rows_q)


def sweep_seed(seed: int, snr: float) -> int:
    """Seed of the planted arm at one SNR grid value.

    Keyed on the float's exact 64-bit pattern, so two distinct grid values
    never share a stream however close they are.
    """
    return derive_seed(seed, "sweep-p", int(np.float64(snr).view(np.uint64)))


def parse_snr_grid(text: str) -> list[float]:
    """The comma-separated SNR grid of `sbmlab sweep` and the sweep script."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"SNR grid must be comma-separated numbers, got {text!r}") from None


def sweep_phase(cfg: ExperimentConfig, snr_grid) -> list[PhasePoint]:
    """One run_two_arms experiment: a planted arm per SNR grid value, one null arm.

    Points are the distinct SNR values in order, eps set from each; an eps
    above 1 gets no arm.
    The grid must be finite and positive, checked before any trial runs.
    """
    grid = sorted(set(snr_grid))
    for snr in grid:
        if not (math.isfinite(snr) and snr > 0):
            raise ValueError(f"SNR grid values must be finite and positive, got {snr!r}")
    eps = [cfg.params.k * math.sqrt(snr / cfg.params.d) for snr in grid]
    arms = [(e, sweep_seed(cfg.seed, snr)) for snr, e in zip(grid, eps) if e <= 1.0]
    if arms:
        _, arms_p, rows_q = run_two_arms(cfg, derive_seed(cfg.seed, "sweep-q"), arms)
        median_q = float(np.median([r.statistic for r in rows_q]))
    points = []
    for snr, e in zip(grid, eps):
        if e > 1.0:
            points.append(PhasePoint(snr, e, *[math.nan] * 5, 0.0, "eps_gt_1"))
            continue
        rows_p = arms_p.pop(0)
        score = le_cam_score([r.decision for r in rows_p], [r.decision for r in rows_q])
        median_p = float(np.median([r.statistic for r in rows_p]))
        runtime_s = sum(r.wall_time_ms for r in rows_p) / 1000.0
        points.append(PhasePoint(
            snr, e, score.mean_p, score.mean_q, score.r_value, median_p, median_q, runtime_s, "ok"
        ))
    return points


def write_sweep_csv(points, trials_per_arm: int, fh, timing: bool = True) -> None:
    fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
    for pt in points:
        runtime = repr(round(pt.runtime_s, 3)) if timing else "0"
        fh.write(
            f"{pt.snr!r},{pt.eps!r},{pt.power!r},{pt.size!r},{pt.r_value!r},"
            f"{pt.median_stat_p!r},{pt.median_stat_q!r},{runtime},{pt.status}\n"
        )
    ok = sum(1 for pt in points if pt.status == "ok")
    total = trials_per_arm * (ok + 1) if ok else 0  # the planted arms and the one null arm
    fh.write(f"# grid={len(points)} trials_per_arm={trials_per_arm} total_trials={total}\n")


# ---------------------------------------------------------------------------
# spectral concentration


@dataclass(frozen=True)
class ConcentrationReport:
    max_norm: float
    mean_norm: float
    bound: float
    max_ratio: float
    trials: int


def centered_operator_norm(graph: Graph, params: SbmParams, labels: Labels) -> float:
    """Operator norm of A - theta, theta's diagonal zeroed: one Lanczos run on
    the implicitly centered matrix reads both ends of its spectrum ("BE" with
    k = 2).

    theta is applied by its blocks and never built, O(m + n k) per product:
    theta x = p_out (1^T x) 1 + (p_in - p_out) (block sums of x)[label] - p_in x,
    the last term removing theta's diagonal.
    """
    n = graph.n
    a = graph.sparse()
    lab = labels.assignment
    p_in, p_out = params.p_in, params.p_out

    def matvec(x):
        blocks = np.bincount(lab, weights=x, minlength=labels.k)
        return a @ x - (p_out * x.sum() + (p_in - p_out) * blocks[lab] - p_in * x)

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = unit_vector(n, "concentration-start")
    ends = spla.eigsh(op, k=2, which="BE", v0=v0, tol=1e-8, return_eigenvectors=False)
    return float(np.max(np.abs(ends)))


def check_spectral_concentration(params: SbmParams, trials: int, seed: int) -> ConcentrationReport:
    """Max over trials of |A - theta|_op against the sqrt(d log n) scale."""
    if params.d < 1:
        raise ValueError("need average degree at least 1")

    def norm(g, s, labels):
        return centered_operator_norm(g, params, labels)

    norms = map_trials(norm, params, "P", trials, seed, "concentration")
    bound = 3.0 * math.sqrt(params.d * math.log(params.n))
    scale = math.sqrt(params.d * math.log(params.n))
    return ConcentrationReport(
        max_norm=float(np.max(norms)),
        mean_norm=float(np.mean(norms)),
        bound=bound,
        max_ratio=float(np.max(norms) / scale),
        trials=trials,
    )
