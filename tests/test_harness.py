import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sbmlab.harness
from sbmlab.harness import (
    _CONFIG_KEYS,
    PIPELINES,
    ExperimentConfig,
    centered_operator_norm,
    check_spectral_concentration,
    parse_config,
    pipeline_statistic,
    sweep_phase,
    sweep_seed,
    write_sweep_csv,
)
from sbmlab.learn import centered, frob_error_sq, svd_theta
from sbmlab.model import Graph, SbmParams, edge_prob_matrix, sample_er, sample_ssbm
from sbmlab.reduce import run_test_trials
from sbmlab.seeds import derive_seed


def test_config_roundtrip():
    # a text naming every key of the table parses to the config it spells out
    text = """
        params.n = 600
        params.d = 24.0
        params.eps = 0.35
        params.k = 3
        params.eta = 0.2
        params.delta = 0.05
        trials = 17
        seed = 99
        pipeline = learning
        threshold.quantile = 0.95
        recovery.method = oracle
        ldlr.ell = 4
    """
    named = [line.split("=")[0].strip() for line in text.splitlines() if line.strip()]
    assert sorted(named) == sorted(_CONFIG_KEYS)
    assert parse_config(text) == ExperimentConfig(
        params=SbmParams(600, 24.0, eps=0.35, k=3, eta=0.2, delta=0.05),
        trials=17,
        seed=99,
        pipeline="learning",
        threshold_quantile=0.95,
        recovery_method="oracle",
        ell=4,
    )


def test_config_keys_name_every_field_once():
    # the one key table drives parse_config and the CLI's overrides, so a
    # field it misses could not be set
    def named(cls, prefix):
        return sorted(
            (prefix, f.name, getattr(f.type, "__name__", f.type))
            for f in dataclasses.fields(cls)
            if f.name != "params"
        )

    table = sorted(
        ("params." if key.startswith("params.") else "", field, typ.__name__)
        for key, (field, typ) in _CONFIG_KEYS.items()
    )
    assert table == sorted(named(SbmParams, "params.") + named(ExperimentConfig, ""))


def test_config_rejects_unknown_and_malformed():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("params.n = 100\nbogus.key = 3\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("params.n 100\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("trials = 3\ntrials = 4\n")
    with pytest.raises(ValueError, match="pipeline"):
        parse_config("pipeline = nonsense\n")
    # the threshold is an upper quantile of the null statistics, never nan
    for q in ("0.3", "0.5", "1.0", "1.5", "nan"):
        with pytest.raises(ValueError, match="quantile"):
            parse_config(f"threshold.quantile = {q}\n")
    # tau is always the calibrated quantile and eta is params.eta: the keys
    # that once chose another rule are stale
    for key in ("threshold.policy = fixed", "threshold.value = 12.5", "eta.policy = slack"):
        with pytest.raises(ValueError, match=f"line 2: unknown key '{key.split()[0]}'"):
            parse_config(f"trials = 3\n{key}\n")
    # the bipartite plug-in fits rank k on a side of n/2 vertices: k = n/2 - 1
    # loads, k = n/2 does not (test_cli covers the CLI's exit)
    assert parse_config("params.n = 12\nparams.d = 4.0\nparams.k = 5\npipeline = bipartite\n").params.k == 5
    with pytest.raises(ValueError, match="pipeline = bipartite needs an even n and k < n/2"):
        parse_config("params.n = 12\nparams.d = 4.0\nparams.k = 6\npipeline = bipartite\n")


def test_config_comments_and_defaults():
    cfg = parse_config("# comment\n\nparams.n = 100\nparams.d = 8.0\n")
    assert cfg.params.n == 100
    assert cfg.trials == 40
    assert cfg.pipeline == "recovery"


def test_sweep_empty_grid():
    cfg = ExperimentConfig(params=SbmParams(100, 8.0, eps=0.5, k=2), trials=2, seed=1)
    points = sweep_phase(cfg, [])
    buf = io.StringIO()
    write_sweep_csv(points, cfg.trials, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("snr,eps,power,size")
    assert lines[1] == "# grid=0 trials_per_arm=2 total_trials=0"


def test_sweep_skips_unreachable_snr(monkeypatch):
    # snr = d forces eps = k > 1
    cfg = ExperimentConfig(params=SbmParams(100, 8.0, eps=0.5, k=2), trials=2, seed=1)
    points = sweep_phase(cfg, [8.0])
    assert points[0].status == "eps_gt_1"
    assert math.isnan(points[0].power)
    # a value that is not finite and positive, anywhere in the grid, stops
    # the sweep before any trial runs
    monkeypatch.setattr(sbmlab.harness, "run_test_trials", None)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            sweep_phase(cfg, [1.0, bad, 0.5])


def test_sweep_above_threshold_oracle():
    # snr = 4: far above threshold; oracle recovery separates cleanly
    cfg = ExperimentConfig(
        params=SbmParams(2000, 60.0, eps=0.5, k=2, eta=0.1, delta=0.1),
        trials=40,
        seed=7,
        recovery_method="oracle",
    )
    points = sweep_phase(cfg, [4.0])
    pt = points[0]
    assert pt.status == "ok"
    assert pt.eps == pytest.approx(2 * math.sqrt(4.0 / 60.0), rel=1e-12)
    assert pt.power >= 0.8
    assert pt.size <= 0.05
    assert pt.median_stat_p > pt.median_stat_q


def test_sweep_below_threshold_no_separation():
    # snr = 0.25: far below threshold; no reliable separation at this scale
    cfg = ExperimentConfig(
        params=SbmParams(2000, 60.0, eps=0.5, k=2, eta=0.1, delta=0.1),
        trials=12,
        seed=9,
        recovery_method="spectral",
    )
    points = sweep_phase(cfg, [0.25])
    pt = points[0]
    assert pt.status == "ok"
    assert pt.power - pt.size <= 0.25


def test_sweep_with_one_trial_per_arm_warns_nothing():
    # one null value has no sample variance: R is nan and the score degenerate,
    # without numpy's degrees-of-freedom warnings
    cfg = ExperimentConfig(params=SbmParams(100, 8.0, eps=0.5, k=2), trials=1, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (pt,) = sweep_phase(cfg, [1.0])
    assert pt.status == "ok" and math.isnan(pt.r_value)
    buf = io.StringIO()
    write_sweep_csv([pt], cfg.trials, buf, timing=False)
    assert buf.getvalue().splitlines()[1].split(",")[4] == "nan"


def test_sweep_csv_accounting_and_order():
    cfg = ExperimentConfig(params=SbmParams(300, 12.0, eps=0.5, k=2), trials=6, seed=3)
    points = sweep_phase(cfg, [1.0, 0.25])
    assert [pt.snr for pt in points] == [0.25, 1.0]
    buf = io.StringIO()
    write_sweep_csv(points, cfg.trials, buf, timing=False)
    lines = buf.getvalue().splitlines()
    assert lines[-1] == "# grid=2 trials_per_arm=6 total_trials=18"
    # deterministic given the seed
    buf2 = io.StringIO()
    write_sweep_csv(sweep_phase(cfg, [1.0, 0.25]), cfg.trials, buf2, timing=False)
    assert buf.getvalue() == buf2.getvalue()


def test_centered_operator_norm_matches_dense():
    # theta applied by its blocks against the dense |A - theta|_2, diagonal zeroed
    def dense_norm(g, p, lab):
        theta = edge_prob_matrix(p, lab)
        np.fill_diagonal(theta, 0.0)
        return np.linalg.norm(g.adjacency() - theta, 2)

    for k in (2, 3):
        for eps in (0.0, 0.8):
            p = SbmParams(60, 8.0, eps=eps, k=k)
            g, lab = sample_ssbm(p, 31)
            assert centered_operator_norm(g, p, lab) == pytest.approx(dense_norm(g, p, lab), rel=1e-10)
    p = SbmParams(60, 8.0, eps=0.8, k=3)
    _, lab = sample_ssbm(p, 31)
    edgeless = Graph(60, np.empty((0, 2), dtype=np.int64))
    expected = dense_norm(edgeless, p, lab)
    assert expected > 0.0
    assert centered_operator_norm(edgeless, p, lab) == pytest.approx(expected, rel=1e-10)


def test_concentration_trial_memory_is_linear():
    # one trial at n = 2e4 never builds an n x n array (3.2 GB as float64)
    p = SbmParams(20_000, 10.0, eps=0.5, k=2)
    tracemalloc.start()
    try:
        rep = check_spectral_concentration(p, trials=1, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.max_norm <= rep.bound
    assert peak < 64 * 2**20


def test_graphon_statistic_is_the_flat_graphon_distance():
    # |theta_hat - (d/n) J|_F / n, the L2 distance of theta_hat's n-block step
    # function to the flat graphon, against the dense difference
    cfg = ExperimentConfig(params=SbmParams(150, 10.0, eps=0.6, k=2), pipeline="graphon")
    g, _ = sample_ssbm(cfg.params, 4)
    want = np.linalg.norm(svd_theta(g, 2).dense() - cfg.params.d / cfg.params.n) / cfg.params.n
    assert pipeline_statistic(cfg)(g, 1).statistic == pytest.approx(want, rel=1e-10)


def test_learning_side_memory_is_linear():
    # one null trial of each learning-side pipeline and one learn error at
    # n = 2e4 build no n x n array (3.2 GB as float64)
    p = SbmParams(20_000, 50.0, eps=0.0, k=2, eta=0.1, delta=0.1)
    tracemalloc.start()
    try:
        for pipeline in ("learning", "graphon", "bipartite"):
            cfg = ExperimentConfig(params=p, pipeline=pipeline, trials=1)
            (row,) = run_test_trials(pipeline_statistic(cfg), p, "Q", 1, 7)
            assert math.isfinite(row.statistic)
        g, lab = sample_ssbm(p, 8)
        err = frob_error_sq(svd_theta(g, p.k), p, lab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < err <= 32 * p.k * p.d
    assert peak < 128 * 2**20


def test_concentration_bound_and_scaling():
    rep = check_spectral_concentration(SbmParams(1000, 50.0, eps=0.5, k=2), trials=5, seed=11)
    assert rep.max_norm <= rep.bound
    ratios = []
    for n in (500, 1000, 2000):
        r = check_spectral_concentration(SbmParams(n, 20.0, eps=0.0, k=2), trials=5, seed=13)
        ratios.append(r.max_ratio)
    assert max(ratios) <= 1.5 * min(ratios)
    with pytest.raises(ValueError):
        check_spectral_concentration(SbmParams(100, 0.5, eps=0.0, k=2), trials=2, seed=0)


def test_sweep_seed_distinguishes_close_snrs():
    # int(snr * 1e6) mapped these two grid values to one stream
    assert sweep_seed(7, 1.0) != sweep_seed(7, 1.0 + 1e-9)
    # no planted arm shares the null arm's stream
    assert sweep_seed(7, 1.0) != derive_seed(7, "sweep-q")


def test_sweep_honours_pipeline_and_threshold_quantile():
    cfg = parse_config(
        "params.n = 150\nparams.d = 10.0\nparams.eps = 0.6\npipeline = graphon\n"
        "threshold.quantile = 0.6\ntrials = 4\nseed = 3\n"
    )
    (pt,) = sweep_phase(cfg, [1.0])
    # both arms' statistics are graphon distances, not recovery scores
    p = SbmParams(150, 10.0, eps=pt.eps, k=2)

    def dist(g):
        return centered(svd_theta(g, 2), p.d / p.n).norm() / p.n

    seed_p, seed_q = sweep_seed(cfg.seed, 1.0), derive_seed(cfg.seed, "sweep-q")
    dists_p = [dist(sample_ssbm(p, derive_seed(seed_p, "trial-P", t))[0]) for t in range(4)]
    dists_q = [dist(sample_er(p.n, p.d, derive_seed(seed_q, "trial-Q", t))) for t in range(4)]
    assert pt.median_stat_p == float(np.median(dists_p))
    assert pt.median_stat_q == float(np.median(dists_q))
    # tau is the configured quantile of the null distances, not the default 0.99
    tau = float(np.quantile(dists_q, 0.6))
    assert pt.power == np.mean(np.array(dists_p) >= tau)
    assert pt.size == np.mean(np.array(dists_q) >= tau) == 0.5


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_null_statistics_do_not_read_eps(pipeline):
    # G(n, d/n) has no eps, and neither has any pipeline's statistic: the
    # null arm's statistics at a fixed seed are the same bits at every eps
    stats = []
    for eps in (0.0, 0.25, 0.9):
        cfg = ExperimentConfig(params=SbmParams(120, 12.0, eps=eps, k=2), pipeline=pipeline, trials=3)
        rows = run_test_trials(pipeline_statistic(cfg), cfg.params, "Q", cfg.trials, 61)
        stats.append([r.statistic for r in rows])
    assert stats[0] == stats[1] == stats[2]
    assert any(stats[0])


def test_sweep_draws_one_null_arm(monkeypatch):
    arms = []

    def spy(statistic_fn, params, arm, *args):
        arms.append(arm)
        return run_test_trials(statistic_fn, params, arm, *args)

    monkeypatch.setattr(sbmlab.harness, "run_test_trials", spy)
    cfg = ExperimentConfig(params=SbmParams(100, 8.0, eps=0.5, k=2), trials=2, seed=1)
    points = sweep_phase(cfg, [0.25, 0.5, 1.0, 1.5, 2.0])
    assert arms == ["Q"] + ["P"] * 5
    assert all(pt.status == "ok" for pt in points)
    # every row's size and null median come from the one null sample
    assert len({(pt.size, pt.median_stat_q) for pt in points}) == 1
    arms.clear()
    # a repeated grid value is one point: one planted arm, one row
    assert len(sweep_phase(cfg, [1.0, 1.0])) == 1
    assert arms == ["Q", "P"]
    arms.clear()
    # snr > d / k^2 = 2 forces eps > 1: no reachable point, no arm
    for grid in ([], [8.0, 16.0]):
        sweep_phase(cfg, grid)
    assert arms == []


def test_sweep_rejects_ldlr_and_slack():
    base = "params.n = 150\nparams.d = 10.0\ntrials = 2\n"
    # ldlr has its own verb: the config does not load
    with pytest.raises(ValueError, match="unknown pipeline 'ldlr'"):
        parse_config(base + "pipeline = ldlr\n")
    # eta is always params.eta: a sweep config asking for slack does not load,
    # so no sweep starts at any SNR
    with pytest.raises(ValueError, match="line 4: unknown key 'eta.policy'"):
        parse_config(base + "eta.policy = slack\n")
