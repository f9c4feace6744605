"""Acceptance battery: one seeded, budgeted check per headline guarantee.

Each criterion is a pure function of the master seed; the summary CSV
excludes wall-clock data so reruns with the same seed are byte-identical.
Per-criterion pass/fail lines (with timings) go to the provided stream.
"""

from __future__ import annotations

import io
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .factored import Factored
from .harness import (
    ExperimentConfig,
    check_spectral_concentration,
    pipeline_statistic,
    run_two_arms,
    sweep_phase,
    write_sweep_csv,
)
from .learn import frob_error_sq, gw_constant, gw_distance, svd_theta
from .ldlr import (
    all_edges,
    bipartite_quadratic_statistic,
    exact_ldlr_norm,
    fourier_coefficient,
    mc_moments,
    write_ldlr_csv,
)
from .model import (
    BlockGraphon,
    Graph,
    SbmParams,
    edge_prob_matrix,
    map_trials,
    membership_matrix,
    sample_labels,
    sbm_graphon,
)
from .project import ProjectionSpec, corr_preserving_projection, k_residuals
from .recover import membership_factors, recovery_rate
from .reduce import le_cam_score, run_test_trials, write_trial_csv
from .seeds import derive_seed, stream_rng
from .split import EdgeSplit, decouple, decoupling_diagnostics

BUDGET_S = {
    "C1": 10,
    "C2": 60,
    "C3": 120,
    "C4": 900,
    "C5": 300,
    "C6": 60,
    "C7": 120,
    "C8": 600,
    "C9": 120,
    "C10": math.inf,
}


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    passed: bool
    metrics: dict
    elapsed_s: float

    @property
    def budget_s(self) -> float:
        return BUDGET_S[self.cid]

    @property
    def within_budget(self) -> bool:
        return self.elapsed_s <= self.budget_s


def _c1_er_degeneration(seed, n=2000, d=10.0, draws=20):
    p = SbmParams(n, d, eps=0.0, k=2)
    lab = sample_labels(p, derive_seed(seed, "c1-labels"))
    theta = edge_prob_matrix(p, lab)
    off = ~np.eye(p.n, dtype=bool)
    exact = bool(np.all(theta[off] == p.d / p.n))
    npairs = p.n * (p.n - 1) // 2
    total = sum(map_trials(lambda g, s, labels: g.edge_count, p, "P", draws, seed, "c1-draw"))
    mean = draws * npairs * (d / n)
    sigma = math.sqrt(draws * npairs * (d / n) * (1 - d / n))
    z = (total - mean) / sigma
    return exact and abs(z) <= 4.0, {
        "bernoulli_matrix_exact": float(exact),
        "density_z": z,
    }


def _c2_decoupling(seed, n=400, d=8.0, eta=0.1, trials=100):
    # analytic moment identity over the three reachable (Y1, Y2) outcomes
    worst = 0.0
    edge = np.array([[0, 1]])
    empty = np.empty((0, 2), dtype=np.int64)
    for p_val in (0.005, 0.02, 0.1, 0.4, 0.9):
        for eta_val in (0.05, 0.1, 0.5, 0.9):
            pm = np.array([[0.0, p_val], [p_val, 0.0]])
            outcomes = {
                (1, 0): p_val * (1 - eta_val),
                (0, 1): p_val * eta_val,
                (0, 0): 1 - p_val,
            }
            mean = 0.0
            for (b1, b2), w in outcomes.items():
                sp = EdgeSplit(
                    Graph(2, edge if b1 else empty),
                    Graph(2, edge if b2 else empty),
                    eta_val,
                )
                mean += w * decouple(sp, pm)[0, 1]
            worst = max(worst, abs(mean - eta_val * p_val))
    params = SbmParams(n, d, eps=0.5, k=2, eta=eta)
    rep = decoupling_diagnostics(params, trials=trials, seed=derive_seed(seed, "c2-mc"))
    var_bound = 10.0 * eta**2 * (2 * d / n) ** 3
    corr_bound = 4.0 / math.sqrt(rep.n_entries)
    passed = worst <= 1e-12 and rep.var_gap <= var_bound and abs(rep.corr_with_y1) <= corr_bound
    return passed, {
        "analytic_mean_error": worst,
        "var_gap": rep.var_gap,
        "var_gap_bound": var_bound,
        "corr_with_y1": rep.corr_with_y1,
        "corr_bound": corr_bound,
    }


def _c3_projection_certificate(seed, n=200, instances=20, sigma=26.0):
    p = SbmParams(n, 10.0, k=2)
    min_d0 = math.inf
    worst_residual = 0.0
    min_margin = math.inf
    for t in range(instances):
        lab = sample_labels(p, derive_seed(seed, "c3-labels", t), balanced=True)
        truth = membership_factors(lab)
        rng = stream_rng(derive_seed(seed, "c3-noise", t), "noise")
        g = rng.standard_normal((n, n))
        m0 = Factored.from_dense(membership_matrix(lab) + sigma * (g + g.T) / (2.0 * math.sqrt(n)))
        d0 = recovery_rate(m0, truth)
        min_d0 = min(min_d0, d0)
        spec = ProjectionSpec(delta=d0, k=2, n=n, tol=1e-7, max_iters=4000)
        rep = corr_preserving_projection(m0, spec)
        worst_residual = max(worst_residual, max(k_residuals(rep.estimate.dense(), spec).values()))
        min_margin = min(min_margin, recovery_rate(rep.estimate, truth) - (d0 / 2 - 1e-3))
    passed = min_d0 >= 0.3 and worst_residual <= 1e-6 and min_margin >= 0.0
    return passed, {
        "min_delta0": min_d0,
        "worst_k_residual": worst_residual,
        "min_rate_margin": min_margin,
    }


def _c4_pipeline(seed, n=2000, d=60.0, trials=40):
    p = SbmParams(n, d, eps=math.sqrt(16.0 / d), k=2, eta=0.1, delta=0.1)
    cfg = ExperimentConfig(params=p, trials=trials)
    tau, (rows_p,), rows_q = run_two_arms(
        cfg, derive_seed(seed, "c4-q"), [(p.eps, derive_seed(seed, "c4-p"))]
    )
    score = le_cam_score([r.decision for r in rows_p], [r.decision for r in rows_q])
    passed = score.mean_p >= 0.8 and score.mean_q <= 0.05 and score.r_value >= 3.0
    return passed, {
        "power": score.mean_p,
        "size": score.mean_q,
        "r_value": score.r_value,
        "tau": tau,
        "median_stat_p": float(np.median([r.statistic for r in rows_p])),
        "median_stat_q": float(np.median([r.statistic for r in rows_q])),
    }


def _c5_svd_learner(seed, n=1000, d=50.0, trials=20):
    p = SbmParams(n, d, eps=0.8, k=2)

    def ratio(g, s, lab):
        return frob_error_sq(svd_theta(g, p.k), p, lab) / (p.k * p.d)

    med = float(np.median(map_trials(ratio, p, "P", trials, seed, "c5")))
    return med <= 32.0, {"median_error_over_kd": med, "bound": 32.0}


def _c6_graphon_distances(seed):
    p = SbmParams(100, 4.0, eps=1.0, k=2)
    w = sbm_graphon(p)
    closed = gw_constant(w, 0.04)
    part1 = abs(closed - 0.02) <= 1e-12

    rng = stream_rng(seed, "c6-graphons")
    part2 = True
    for m in (2, 3, 4, 6):
        b = rng.random((m, m))
        wm = BlockGraphon((b + b.T) / 2.0)
        c = float(rng.random())
        target = BlockGraphon(np.full((1, 1), c))
        if abs(gw_distance(wm, target) - gw_constant(wm, c)) > 1e-12:
            part2 = False

    worst_slack = math.inf
    for t in range(100):
        m = int(rng.integers(2, 6))
        ws = []
        for _ in range(3):
            b = rng.random((m, m))
            ws.append(BlockGraphon((b + b.T) / 2.0))
        d12 = gw_distance(ws[0], ws[1])
        d23 = gw_distance(ws[1], ws[2])
        d13 = gw_distance(ws[0], ws[2])
        worst_slack = min(worst_slack, d12 + d23 - d13)
    part3 = worst_slack >= -1e-10
    return part1 and part2 and part3, {
        "closed_form_value": closed,
        "qap_matches_closed_form": float(part2),
        "triangle_worst_slack": worst_slack,
    }


def _c7_ldlr(seed, mc_trials=200_000, subsets=50):
    params0 = SbmParams(8, 4.0, eps=0.0, k=2)
    res0 = exact_ldlr_norm(params0, ell=3)
    part_eps0 = res0.norm == 1.0 and res0.per_degree[0] == 1.0

    norms = [
        exact_ldlr_norm(SbmParams(8, 4.0, eps=e, k=2), ell=3).norm
        for e in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    part_monotone = all(a < b for a, b in zip(norms, norms[1:]))

    # closed form vs planted Monte-Carlo, 4 sigma bands on `subsets` subsets
    params = SbmParams(8, 4.0, eps=0.6, k=2)
    pval = params.d / params.n
    edges = all_edges(8)
    m = len(edges)
    rng = stream_rng(derive_seed(seed, "c7-mc"), "mc")
    labels = rng.integers(0, params.k, size=(mc_trials, 8))
    same = labels[:, [e[0] for e in edges]] == labels[:, [e[1] for e in edges]]
    theta = np.where(same, params.p_in, params.p_out)
    bits = rng.random((mc_trials, m)) < theta
    chi = (bits - pval) / math.sqrt(pval * (1 - pval))
    pick = stream_rng(derive_seed(seed, "c7-pick"), "pick")
    worst_gap_sigmas = 0.0
    for _ in range(subsets):
        t = int(pick.integers(1, 4))
        sub = pick.choice(m, size=t, replace=False)
        prods = np.prod(chi[:, sub], axis=1)
        est = float(np.mean(prods))
        se = float(np.std(prods, ddof=1)) / math.sqrt(mc_trials) + 1e-15
        closed = fourier_coefficient(tuple(edges[i] for i in sub), params)
        worst_gap_sigmas = max(worst_gap_sigmas, abs(est - closed) / se)
    part_mc = worst_gap_sigmas <= 4.0

    # orthonormality of the character basis under the null
    bits0 = rng.random((mc_trials // 2, m)) < pval
    chi0 = (bits0 - pval) / math.sqrt(pval * (1 - pval))
    worst_ortho = 0.0
    for _ in range(12):
        s = tuple(sorted(pick.choice(m, size=int(pick.integers(1, 4)), replace=False)))
        tt = tuple(sorted(pick.choice(m, size=int(pick.integers(1, 4)), replace=False)))
        prods = np.prod(chi0[:, s], axis=1) * np.prod(chi0[:, tt], axis=1)
        est = float(np.mean(prods))
        se = float(np.std(prods, ddof=1)) / math.sqrt(len(prods)) + 1e-15
        worst_ortho = max(worst_ortho, abs(est - (1.0 if s == tt else 0.0)) / se)
    part_ortho = worst_ortho <= 4.0

    passed = part_eps0 and part_monotone and part_mc and part_ortho
    return passed, {
        "norm_at_eps0": res0.norm,
        "per_degree0": res0.per_degree[0],
        "monotone_in_eps": float(part_monotone),
        "worst_mc_gap_sigmas": worst_gap_sigmas,
        "worst_orthonormality_sigmas": worst_ortho,
    }


def _c8_bipartite_statistic(seed, m_side=300, trials=100):
    params = SbmParams(2 * m_side, 0.2 * 2 * m_side, eps=0.9, k=2)

    def stat(g, s):
        return bipartite_quadratic_statistic(g, lambda y1: svd_theta(y1, params.k), params, s)

    null = mc_moments(stat, params, "Q", trials=trials, seed=derive_seed(seed, "c8-null"))
    planted = mc_moments(stat, params, "P", trials=trials, seed=derive_seed(seed, "c8-planted"))
    null_mean_sigmas = abs(null.mean) / null.std_error if null.std_error > 0 else math.inf
    z = (planted.mean - null.mean) / math.sqrt(
        planted.var / planted.trials + null.var / null.trials
    )
    passed = null_mean_sigmas <= 4.0 and z >= 3.0
    return passed, {
        "null_mean": null.mean,
        "null_mean_sigmas": null_mean_sigmas,
        "separation_z": z,
    }


def _c9_concentration(seed, n=2000, d=50.0, trials=20):
    rep = check_spectral_concentration(
        SbmParams(n, d, eps=0.0, k=2), trials=trials, seed=derive_seed(seed, "c9")
    )
    return rep.max_norm <= rep.bound, {
        "max_norm": rep.max_norm,
        "bound": rep.bound,
        "max_ratio": rep.max_ratio,
    }


def _csv_bundle(seed) -> dict:
    """Every CSV-emitting interface exercised once, with timing zeroed."""
    out = {}
    p = SbmParams(600, 40.0, eps=math.sqrt(16.0 / 40.0), k=2, eta=0.1, delta=0.1)
    stat = pipeline_statistic(ExperimentConfig(params=p))
    rows = run_test_trials(stat, p, "P", 3, derive_seed(seed, "c10-p")) + run_test_trials(
        stat, p, "Q", 3, derive_seed(seed, "c10-q")
    )
    buf = io.StringIO()
    write_trial_csv(rows, buf, timing=False)
    out["trial_csv"] = buf.getvalue()

    cfg = ExperimentConfig(
        params=SbmParams(400, 16.0, eps=0.5, k=2, eta=0.1, delta=0.1),
        trials=6,
        seed=derive_seed(seed, "c10-sweep"),
    )
    pts = sweep_phase(cfg, [1.0])
    buf = io.StringIO()
    write_sweep_csv(pts, cfg.trials, buf, timing=False)
    out["sweep_csv"] = buf.getvalue()

    buf = io.StringIO()
    write_ldlr_csv(exact_ldlr_norm(SbmParams(6, 3.0, eps=0.5, k=2), ell=2), buf)
    out["ldlr_csv"] = buf.getvalue()

    for cid, fn in (("C1", _c1_er_degeneration), ("C6", _c6_graphon_distances)):
        passed, metrics = fn(derive_seed(seed, "c10-rerun"))
        out[f"metrics_{cid}"] = acceptance_csv(
            [CriterionResult(cid, passed, metrics, 0.0)]
        )
    return out


def _c10_determinism(seed):
    first = _csv_bundle(seed)
    second = _csv_bundle(seed)
    mismatches = [name for name in first if first[name] != second[name]]
    return not mismatches, {
        "artifacts_compared": float(len(first)),
        "byte_identical": float(len(first) - len(mismatches)),
    }


_FULL = {
    "C1": _c1_er_degeneration,
    "C2": _c2_decoupling,
    "C3": _c3_projection_certificate,
    "C4": _c4_pipeline,
    "C5": _c5_svd_learner,
    "C6": _c6_graphon_distances,
    "C7": _c7_ldlr,
    "C8": _c8_bipartite_statistic,
    "C9": _c9_concentration,
    "C10": _c10_determinism,
}

_FAST = {
    "C1": lambda seed: _c1_er_degeneration(seed, n=500, draws=5),
    "C2": lambda seed: _c2_decoupling(seed, n=150, trials=100),
    "C3": lambda seed: _c3_projection_certificate(seed, instances=4),
    "C5": lambda seed: _c5_svd_learner(seed, n=500, d=30.0, trials=5),
    "C6": _c6_graphon_distances,
    "C7": lambda seed: _c7_ldlr(seed, mc_trials=50_000, subsets=15),
    "C9": lambda seed: _c9_concentration(seed, n=800, trials=5),
}

SUITES = {"full": _FULL, "fast": _FAST}

DEFAULT_SEED = 20260810


def run_acceptance(suite: str, seed: int = DEFAULT_SEED, stream=None) -> list[CriterionResult]:
    """Run the named suite, printing one pass/fail line per criterion."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    stream = sys.stderr if stream is None else stream
    results = []
    for cid, fn in SUITES[suite].items():
        t0 = time.perf_counter()
        passed, metrics = fn(seed)
        elapsed = time.perf_counter() - t0
        result = CriterionResult(cid, passed, metrics, elapsed)
        results.append(result)
        status = "PASS" if passed else "FAIL"
        over = "" if result.within_budget else " OVER BUDGET"
        shown = " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
        print(f"[{status}] {cid} ({elapsed:.1f}s, budget {result.budget_s}s{over}): {shown}", file=stream)
    return results


def acceptance_csv(results) -> str:
    """Summary CSV: criterion,status,metric,value (no wall-clock columns)."""
    lines = ["criterion,status,metric,value"]
    for r in results:
        status = "pass" if r.passed else "fail"
        for k, v in r.metrics.items():
            lines.append(f"{r.cid},{status},{k},{float(v)!r}")
    return "\n".join(lines) + "\n"
