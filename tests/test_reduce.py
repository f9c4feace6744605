import ast
import dataclasses
import io
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sbmlab.cli
import sbmlab.learn
import sbmlab.model
import sbmlab.reduce
from sbmlab.factored import Factored
from sbmlab.harness import ExperimentConfig, run_two_arms
from sbmlab.learn import svd_theta
from sbmlab.model import (
    SbmParams,
    edge_prob_matrix,
    membership_matrix,
    sample_er,
    sample_labels,
    sample_ssbm,
)
from sbmlab.project import ProjectionReport, ProjectionSpec, corr_preserving_projection
from sbmlab.recover import RecoveryFailed, recovery_rate
from sbmlab.reduce import (
    TrialRow,
    le_cam_score,
    learning_test_statistic,
    projection_spec,
    recovery_test_statistic,
    run_test_trials,
    statistic_from_m_hat,
    write_trial_csv,
)
from sbmlab.seeds import derive_seed, stream_rng
from sbmlab.split import subsample_edges


def block_factors(p, lab, scale=1.0):
    """scale * theta, the planted edge probabilities, as a Factored over the label blocks.

    With V the normalized block indicators, theta = V ((p_in - p_out) diag(sizes)
    + p_out sqrt(sizes) sqrt(sizes)^T) V^T."""
    sizes = np.bincount(lab.assignment, minlength=lab.k).astype(float)
    v = np.zeros((lab.n, lab.k))
    v[np.arange(lab.n), lab.assignment] = 1.0 / np.sqrt(sizes[lab.assignment])
    root = np.sqrt(sizes)
    return Factored(v, scale * ((p.p_in - p.p_out) * np.diag(sizes) + p.p_out * np.outer(root, root)))


def constant_factors(n, value):
    """value * J as a Factored: one eigenpair, n value on ones / sqrt(n)."""
    return Factored.from_eig(np.array([n * value]), np.full((n, 1), 1.0 / math.sqrt(n)))


def test_statistic_diagonal_exclusion():
    g, _ = sample_ssbm(SbmParams(60, 5.0, eps=0.5, k=2), seed=3)
    rng = stream_rng(1, "m")
    m = rng.standard_normal((60, 60))
    m = m + m.T
    base = statistic_from_m_hat(Factored.from_dense(m), g, center=0.01)
    shifted = statistic_from_m_hat(Factored.from_dense(m + 100.0 * np.eye(60)), g, center=0.01)
    assert shifted == pytest.approx(base, rel=1e-12)  # the diagonal never enters


def test_statistic_matches_dense_formula():
    g, _ = sample_ssbm(SbmParams(50, 6.0, eps=0.3, k=2), seed=5)
    rng = stream_rng(2, "m")
    m = rng.standard_normal((50, 50))
    m = m + m.T
    c = 0.07
    a = g.adjacency()
    off = ~np.eye(50, dtype=bool)
    dense = float(np.sum((m * (a - c))[off]))
    assert statistic_from_m_hat(Factored.from_dense(m), g, c) == pytest.approx(dense, rel=1e-12)


def test_trial_row_decision_follows_threshold():
    row = TrialRow(seed=1, arm="Q", statistic=2.0, recovery_rate=None, wall_time_ms=0.0)
    assert (row.threshold, row.decision) == (0.0, 1)
    assert dataclasses.replace(row, threshold=2.0).decision == 1  # a tie rejects
    assert dataclasses.replace(row, threshold=2.5).decision == 0
    assert dataclasses.replace(row, threshold=-1.0).decision == 1


def test_decision_scale_invariance():
    g, _ = sample_ssbm(SbmParams(80, 6.0, eps=0.5, k=2), seed=7)
    rng = stream_rng(3, "m")
    m = rng.standard_normal((80, 80))
    m = m + m.T
    tau = 1.7
    g_val = statistic_from_m_hat(Factored.from_dense(m), g, 0.005)
    for c in (0.3, 2.0, 17.0):
        g_scaled = statistic_from_m_hat(Factored.from_dense(c * m), g, 0.005)
        # g is linear in M_hat, so rescaling tau by the same c keeps the decision
        assert (g_scaled >= c * tau) == (g_val >= tau)
        assert g_scaled == pytest.approx(c * g_val, rel=1e-12)


def test_random_membership_null_statistic():
    # signal-free M_hat on ER input: mean zero, Bernstein-scale bound per trial
    p = SbmParams(600, 20.0, eps=0.0, k=2, eta=0.1, delta=0.2)
    vals = []
    for t in range(40):
        g = sample_er(p.n, p.d, derive_seed(11, "null", t))
        rep = recovery_test_statistic(g, p, seed=derive_seed(11, "stat", t), method="random")
        vals.append(rep.statistic)
    vals = np.array(vals)
    bound = 4.0 * math.sqrt(p.eta * p.d * p.n) / p.delta
    assert np.all(np.abs(vals) <= bound)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals)) <= 4 * se


def test_null_symmetry_median():
    p = SbmParams(400, 15.0, eps=0.0, k=2, eta=0.1, delta=0.2)
    vals = []
    for t in range(60):
        g = sample_er(p.n, p.d, derive_seed(13, "sym", t))
        rep = recovery_test_statistic(g, p, seed=derive_seed(13, "sym-stat", t), method="random")
        vals.append(rep.statistic)
    sigma = np.std(vals, ddof=1)
    assert abs(np.median(vals)) <= 4 * sigma / math.sqrt(len(vals))


def test_oracle_recovery_separation():
    # above threshold (eps^2 d = 4 k^2) with the oracle baseline: the planted
    # statistic scale is eps * eta * d * n / k, the null scale its square root
    p = SbmParams(2000, 60.0, eps=math.sqrt(16.0 / 60.0), k=2, eta=0.1, delta=0.1)
    planted, null = [], []
    for t in range(20):
        gp, lab = sample_ssbm(p, derive_seed(17, "P", t))
        rp = recovery_test_statistic(gp, p, seed=derive_seed(17, "Ps", t), method="oracle", labels=lab)
        planted.append(rp.statistic)
        gq = sample_er(p.n, p.d, derive_seed(17, "Q", t))
        rq = recovery_test_statistic(gq, p, seed=derive_seed(17, "Qs", t), method="random")
        null.append(rq.statistic)
    med_p = float(np.median(planted))
    med_q = float(np.median(null))
    scale = p.eps * p.eta * p.d * p.n / p.k
    assert med_p >= 0.2 * scale
    assert med_p >= 5.0 * abs(med_q)


def test_pipeline_determinism():
    p = SbmParams(500, 20.0, eps=0.6, k=2, eta=0.15, delta=0.1)
    g, lab = sample_ssbm(p, seed=23)
    r1 = recovery_test_statistic(g, p, seed=99, method="spectral", labels=lab)
    r2 = recovery_test_statistic(g, p, seed=99, method="spectral", labels=lab)
    assert r1 == r2
    assert r1.side_channel["projection"] == r2.side_channel["projection"]
    assert r1.side_channel["projection"]["status"] == "ok"


def test_side_channel_names_the_projection_outcome(monkeypatch):
    # a solved trial records its backend and basis width: a rank-2 learner
    # output runs on the subspace state, a full-rank one on the dense state
    p = SbmParams(120, 20.0, eps=0.8, k=2, eta=0.1, delta=0.1)
    g, lab = sample_ssbm(p, seed=3)
    theta = edge_prob_matrix(p, lab) * (1 - p.eta)
    h = stream_rng(3, "noise").uniform(0.0, 0.05, (p.n, p.n))
    noisy = Factored.from_eig(*np.linalg.eigh(theta + (h + h.T) / 2.0))
    for learner, backend, width in (
        (lambda y1: block_factors(p, lab, 1 - p.eta), "subspace", 2),
        (lambda y1: noisy, "dense", p.n),
    ):
        proj = learning_test_statistic(g, p, learner, seed=5).side_channel["projection"]
        assert proj["status"] == "ok"
        assert (proj["backend"], proj["width"]) == (backend, width)
    # a null trial at the C4 point whose infeasibility is certified records the
    # certificate's bound; other failures record their status alone
    p = SbmParams(2000, 60.0, eps=math.sqrt(16.0 / 60.0), k=2, eta=0.1, delta=0.1)
    g = sample_er(p.n, p.d, derive_seed(12345, "probe", 0))
    rep = recovery_test_statistic(g, p, seed=derive_seed(12345, "probe-stat", 0))
    proj = rep.side_channel["projection"]
    assert rep.statistic == 0.0 and proj["status"] == "infeasible"
    assert proj["bound"] < p.delta * projection_spec(p).target
    def cap(m0, spec):
        raise sbmlab.reduce.ProjectionDidNotConverge("cap")

    def reject(m0, spec):
        raise ValueError("projection input must be nonzero")

    monkeypatch.setattr(sbmlab.reduce, "corr_preserving_projection", cap)
    rep = recovery_test_statistic(g, p, seed=derive_seed(12345, "probe-stat", 0))
    assert rep.statistic == 0.0 and rep.side_channel["projection"] == {"status": "no_convergence"}
    # a rejected input is a caller error: it propagates instead of scoring g = 0
    monkeypatch.setattr(sbmlab.reduce, "corr_preserving_projection", reject)
    with pytest.raises(ValueError, match="projection input must be nonzero"):
        recovery_test_statistic(g, p, seed=derive_seed(12345, "probe-stat", 0))


@pytest.mark.parametrize("method", ["spectral", "random"])
def test_params_for_another_graph_size_raise(method):
    # a graph drawn at n = 400 scored with params for n = 402 is a caller
    # error, not a degenerate trial with g = 0
    g, _ = sample_ssbm(SbmParams(400, 16.0, eps=0.9), seed=3)
    with pytest.raises(ValueError, match="400.*402|402.*400"):
        recovery_test_statistic(g, SbmParams(402, 16.0, eps=0.9), seed=3, method=method)


def test_calibrate_threshold_properties():
    p = SbmParams(300, 12.0, eps=0.0, k=2, eta=0.1, delta=0.2)
    cfg = ExperimentConfig(params=p, trials=50, recovery_method="random")

    def calibrate():
        tau, _, rows_q = run_two_arms(
            cfg, derive_seed(31, "calibrate"), [(p.eps, derive_seed(31, "planted"))]
        )
        return tau, [r.statistic for r in rows_q]

    tau, vals = calibrate()
    assert tau == float(np.quantile(vals, 0.99))
    # reproducible bit-for-bit
    assert tau == calibrate()[0]
    # the null statistics of a symmetric null are centred: their median sits near zero
    se_med = 1.2533 * np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.median(vals)) <= 4 * se_med


def test_null_calibrated_size():
    # at eps = 0 the P arm is the null law drawn from an independent stream,
    # so its decisions against the calibrated threshold reject at most
    # ~1 - 0.99 of the time
    cfg = ExperimentConfig(
        params=SbmParams(400, 16.0, eps=0.0, k=2, eta=0.1, delta=0.15),
        trials=50,
        recovery_method="spectral",
    )
    _, (rows_p,), _ = run_two_arms(
        cfg, derive_seed(37, "calibrate"), [(cfg.params.eps, derive_seed(37, "size"))]
    )
    assert sum(r.decision for r in rows_p) / len(rows_p) <= 0.05


def test_learning_oracle_separation():
    p = SbmParams(1000, 50.0, eps=math.sqrt(16.0 / 50.0), k=2, eta=0.1, delta=0.1)
    planted, null = [], []
    for t in range(8):
        gp, lab = sample_ssbm(p, derive_seed(41, "P", t))
        theta = block_factors(p, lab, 1 - p.eta)
        rp = learning_test_statistic(gp, p, lambda y1: theta, derive_seed(41, "Ps", t))
        planted.append(rp.statistic)
        gq = sample_er(p.n, p.d, derive_seed(41, "Q", t))
        rq = learning_test_statistic(
            gq, p, lambda y1: constant_factors(p.n, (1 - p.eta) * p.d / p.n), derive_seed(41, "Qs", t)
        )
        null.append(rq.statistic)
    assert np.median(planted) > 0
    assert np.median(planted) >= 5 * abs(np.median(null))


def test_learning_constant_learner_degenerates():
    p = SbmParams(200, 10.0, eps=0.5, k=2, eta=0.1, delta=0.1)
    g, _ = sample_ssbm(p, seed=43)
    rep = learning_test_statistic(g, p, lambda y1: constant_factors(p.n, p.d / p.n), seed=1)
    assert rep.statistic == 0.0
    assert "zero" in rep.side_channel["error"]


def test_learning_svd_separation_z(monkeypatch):
    # z-score between arms with the rank-k learner plugged in
    p = SbmParams(1000, 50.0, eps=math.sqrt(16.0 / 50.0), k=2, eta=0.1, delta=0.1)
    proj = ProjectionSpec(delta=p.delta, k=p.k, n=p.n, tol=1e-5, max_iters=300)
    monkeypatch.setattr(sbmlab.reduce, "projection_spec", lambda params: proj)
    planted, null = [], []
    for t in range(40):
        gp, _ = sample_ssbm(p, derive_seed(47, "P", t))
        planted.append(
            learning_test_statistic(gp, p, lambda y1: svd_theta(y1, p.k), derive_seed(47, "Ps", t)).statistic
        )
        gq = sample_er(p.n, p.d, derive_seed(47, "Q", t))
        null.append(
            learning_test_statistic(gq, p, lambda y1: svd_theta(y1, p.k), derive_seed(47, "Qs", t)).statistic
        )
    z = (np.mean(planted) - np.mean(null)) / math.sqrt(
        np.var(planted, ddof=1) / len(planted) + np.var(null, ddof=1) / len(null)
    )
    assert z >= 3.0


@pytest.mark.parametrize("arm, t", [("P", 0), ("P", 1), ("P", 2), ("Q", 0), ("Q", 1), ("Q", 2)])
def test_learning_statistic_matches_dense_eigh_reference(arm, t):
    # the learning route's projection input is theta_hat - (d/n) J as
    # eigenpairs from the learner's factors; scoring the projection of the
    # dense eigh of the same unclipped theta_hat - (d/n) J gives the same g,
    # status, backend, width and sweeps
    p = SbmParams(400, 50.0, eps=math.sqrt(16.0 / 50.0), k=2, eta=0.1, delta=0.1)
    if arm == "P":
        g, _ = sample_ssbm(p, derive_seed(53, "P", t))
    else:
        g = sample_er(p.n, p.d, derive_seed(53, "Q", t))
    seed = derive_seed(53, f"{arm}s", t)
    rep = learning_test_statistic(g, p, lambda y1: svd_theta(y1, p.k), seed)
    split = subsample_edges(g, p.eta, derive_seed(seed, "pipeline-split"))
    m0 = svd_theta(split.y1, p.k).dense() - p.d / p.n
    w, v = np.linalg.eigh(m0)
    keep = np.abs(w) > p.n * np.finfo(float).eps * np.abs(w).max()
    ref = sbmlab.reduce._project_and_score(Factored.from_eig(w[keep], v[:, keep]), split.y2, p, {})
    got, want = rep.side_channel["projection"], ref.side_channel["projection"]
    assert got["status"] == want["status"]
    for key in ("backend", "width", "iterations"):
        assert got.get(key) == want.get(key)
    assert rep.statistic == pytest.approx(ref.statistic, rel=1e-9, abs=0.0)


def test_learning_validates_learner_output():
    # the learner returns a Factored with n rows; anything else is a caller error
    p = SbmParams(50, 5.0, eps=0.5, k=2)
    g, _ = sample_ssbm(p, seed=1)
    for wrong in (np.full((p.n, p.n), p.d / p.n), constant_factors(p.n - 1, p.d / p.n)):
        with pytest.raises(ValueError, match="Factored estimate with n rows"):
            learning_test_statistic(g, p, lambda y1, wrong=wrong: wrong, seed=0)


def test_both_routes_project_with_one_spec(monkeypatch, tmp_path):
    # the recovery route, the learning route and `sbmlab project` solve the
    # one projection that projection_spec names
    p = SbmParams(200, 20.0, eps=0.8, k=2, eta=0.1, delta=0.1)
    specs = []

    def spy(m0, spec):
        specs.append(spec)
        return corr_preserving_projection(m0, spec)

    monkeypatch.setattr(sbmlab.reduce, "corr_preserving_projection", spy)
    monkeypatch.setattr(sbmlab.cli, "corr_preserving_projection", spy)
    g, lab = sample_ssbm(p, seed=59)
    recovery_test_statistic(g, p, seed=1, labels=lab)
    learning_test_statistic(g, p, lambda y1: svd_theta(y1, p.k), seed=1)
    argv = ["--n", "200", "--d", "20", "--eps", "0.8", "--out", str(tmp_path / "p.csv"), "project"]
    assert sbmlab.cli.main(argv) == 0
    assert specs == [projection_spec(p)] * 3


def test_empirical_r_flags_and_null():
    # a null arm without spread: nan when the means agree, else +-inf by the gap
    const = le_cam_score([1.0] * 50, [1.0] * 50)
    assert math.isnan(const.r_value)
    shifted = le_cam_score([2.0] * 50, [1.0] * 50)
    assert shifted.r_value == math.inf
    assert le_cam_score([0.0] * 50, [1.0] * 50).r_value == -math.inf
    assert math.isnan(le_cam_score([1.0, 2.0], [1.0]).r_value)  # one null value

    coins = stream_rng(5, "coin").integers(0, 2, 120).astype(float)
    fair = le_cam_score(coins[:60], coins[60:])
    assert math.isfinite(fair.r_value)
    assert (fair.mean_p, fair.mean_q) == (np.mean(coins[:60]), np.mean(coins[60:]))
    assert abs(fair.r_value) <= 4.0 / math.sqrt(60)  # null correlation scale


def test_empirical_r_pipeline_above_threshold():
    p = SbmParams(600, 40.0, eps=math.sqrt(16.0 / 40.0), k=2, eta=0.1, delta=0.1)
    cfg = ExperimentConfig(params=p, trials=50)
    _, (rows_p,), rows_q = run_two_arms(
        cfg, derive_seed(53, "r-null"), [(p.eps, derive_seed(53, "r-planted"))]
    )
    score = le_cam_score([r.statistic for r in rows_p], [r.statistic for r in rows_q])
    assert score.r_value >= 3.0


def test_run_trials_and_csv(tmp_path):
    p = SbmParams(200, 10.0, eps=0.7, k=2, eta=0.1, delta=0.1)

    def stat(g, s, labels=None):
        return recovery_test_statistic(g, p, seed=s, method="spectral", labels=labels)

    rows = run_test_trials(stat, p, "P", trials=5, seed=59)
    assert len(rows) == 5
    assert all(r.arm == "P" for r in rows)
    buf1 = io.StringIO()
    write_trial_csv(rows, buf1, timing=False)
    lines = buf1.getvalue().splitlines()
    assert lines[0] == "seed,arm,statistic,threshold,decision,recovery_rate_if_known,wall_time_ms"
    assert len(lines) == 6
    assert all(line.endswith(",0") for line in lines[1:])
    # rerun: byte-identical without timing
    rows2 = run_test_trials(stat, p, "P", trials=5, seed=59)
    buf2 = io.StringIO()
    write_trial_csv(rows2, buf2, timing=False)
    assert buf1.getvalue() == buf2.getvalue()
    with pytest.raises(ValueError):
        run_test_trials(stat, p, "X", trials=2, seed=0)


def test_recovery_trial_memory_is_linear():
    # one planted draw and recovery trial at the C4 parameters, n = 2e4: split,
    # Lanczos recovery, subspace projection and score stay O(n + m).  Under
    # tracemalloc this read 64.0 MiB with the adjacency built through a COO
    # round trip and 43.7 MiB with U + U^T from the sorted edge list.
    p = SbmParams(20_000, 60.0, eps=math.sqrt(16.0 / 60.0), k=2, eta=0.1, delta=0.1)
    tracemalloc.start()
    try:
        g, lab = sample_ssbm(p, seed=1)
        rep = recovery_test_statistic(g, p, seed=5, method="spectral", labels=lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.statistic > 0.0
    assert rep.side_channel["recovery_rate"] > 0.3
    assert peak < 52 * 2**20


def test_empty_graph_degenerates():
    p = SbmParams(50, 5.0, eps=0.5, k=2, eta=0.1, delta=0.1)
    empty = __import__("sbmlab.model", fromlist=["Graph"]).Graph(50, np.empty((0, 2), dtype=np.int64))
    rep = recovery_test_statistic(empty, p, seed=1, method="spectral")
    assert rep.statistic == 0.0
    assert "recovery" in rep.side_channel["error"]


def test_recovery_caller_errors_raise():
    # only a graph without an estimate scores g = 0; a caller error propagates
    p = SbmParams(50, 5.0, eps=0.5, k=2, eta=0.1, delta=0.1)
    g, _ = sample_ssbm(p, seed=2)
    for method, message in (("nope", "unknown recovery method 'nope'"), ("oracle", "true labels")):
        with pytest.raises(ValueError, match=message) as exc:
            recovery_test_statistic(g, p, seed=1, method=method)
        assert not isinstance(exc.value, RecoveryFailed)


def test_benchmark_entry_points_exist():
    # perfbench wraps the module globals its REDUCE_HOOKS names and treats a
    # missing one as an absent layer, not a failure, so a rename here would
    # silently drop that layer's metrics; the hooks are read without importing
    # the benchmark
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
    (hooks,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["REDUCE_HOOKS"]
    ]
    assert hooks
    for name, _layer in hooks:
        assert name in vars(sbmlab.reduce), name
    fields = {f.name for f in dataclasses.fields(ProjectionReport)}
    assert {"iterations", "backend"} <= fields
    # make_trial turns any exception into a failed trial, so each call it
    # makes must bind to the callee's signature as written there
    calls = [
        (sbmlab.model, "sample_ssbm", ("p", "seed"), {}),
        (sbmlab.model, "sample_er", ("n", "d", "seed"), {}),
        (sbmlab.learn, "svd_theta", ("y1", "k"), {}),
        (sbmlab.reduce, "recovery_test_statistic", ("g", "p"),
         {"seed": "s", "method": "spectral", "labels": "labels"}),
        (sbmlab.reduce, "learning_test_statistic", ("g", "p", "learner", "s"), {}),
    ]
    for module, name, args, kwargs in calls:
        fn = getattr(module, name, None)
        assert callable(fn), name
        inspect.signature(fn).bind(*args, **kwargs)
