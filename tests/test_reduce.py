import io
import math

import numpy as np
import pytest

import sbmlab.reduce
from sbmlab.learn import svd_theta
from sbmlab.model import (
    BlockGraphon,
    SbmParams,
    edge_prob_matrix,
    membership_matrix,
    sample_er,
    sample_labels,
    sample_ssbm,
    sbm_graphon,
)
from sbmlab.project import ProjectionSpec
from sbmlab.recover import recovery_rate
from sbmlab.reduce import (
    RScore,
    TestReport,
    TrialRow,
    calibrate_threshold,
    empirical_r,
    graphon_test,
    learning_test_statistic,
    recovery_test_statistic,
    run_test_trials,
    statistic_from_m_hat,
    write_trial_csv,
)
from sbmlab.seeds import derive_seed, stream_rng
from sbmlab.split import subsample_edges


def test_statistic_diagonal_exclusion():
    g, _ = sample_ssbm(SbmParams(60, 5.0, eps=0.5, k=2), seed=3)
    rng = stream_rng(1, "m")
    m = rng.standard_normal((60, 60))
    m = m + m.T
    base = statistic_from_m_hat(m, g, center=0.01)
    shifted = statistic_from_m_hat(m + 100.0 * np.eye(60), g, center=0.01)
    assert shifted == base  # exactly: the diagonal never enters


def test_statistic_matches_dense_formula():
    g, _ = sample_ssbm(SbmParams(50, 6.0, eps=0.3, k=2), seed=5)
    rng = stream_rng(2, "m")
    m = rng.standard_normal((50, 50))
    m = m + m.T
    c = 0.07
    a = g.adjacency()
    off = ~np.eye(50, dtype=bool)
    dense = float(np.sum((m * (a - c))[off]))
    assert statistic_from_m_hat(m, g, c) == pytest.approx(dense, rel=1e-12)


def test_report_rejects_inconsistent_decision():
    assert TestReport(2.0, 1.0, 1, {}).decision == 1
    with pytest.raises(ValueError):
        TestReport(2.0, 1.0, 0, {})
    with pytest.raises(ValueError):
        TestReport(0.5, 1.0, 1, {})


def test_decision_scale_invariance():
    g, _ = sample_ssbm(SbmParams(80, 6.0, eps=0.5, k=2), seed=7)
    rng = stream_rng(3, "m")
    m = rng.standard_normal((80, 80))
    m = m + m.T
    tau = 1.7
    g_val = statistic_from_m_hat(m, g, 0.005)
    for c in (0.3, 2.0, 17.0):
        g_scaled = statistic_from_m_hat(c * m, g, 0.005)
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
    r1 = recovery_test_statistic(g, p, seed=99, method="spectral", labels=lab, threshold=1.0)
    r2 = recovery_test_statistic(g, p, seed=99, method="spectral", labels=lab, threshold=1.0)
    assert r1 == r2
    assert r1.side_channel["projection"] == r2.side_channel["projection"]
    assert r1.side_channel["projection"]["status"] == "ok"
    assert r1.decision == int(r1.statistic >= 1.0)


def test_side_channel_names_the_projection_outcome(monkeypatch):
    # a solved trial records its backend and basis width: a rank-2 learner
    # output runs on the subspace state, a full-rank one on the dense state
    p = SbmParams(120, 20.0, eps=0.8, k=2, eta=0.1, delta=0.1)
    g, lab = sample_ssbm(p, seed=3)
    theta = edge_prob_matrix(p, lab) * (1 - p.eta)
    h = stream_rng(3, "noise").uniform(0.0, 0.05, (p.n, p.n))
    for learner, backend, width in (
        (lambda y1: theta, "subspace", 2),
        (lambda y1: np.clip(theta + (h + h.T) / 2.0, 0.0, 1.0), "dense", p.n),
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
    assert proj["bound"] < p.delta * ProjectionSpec(delta=p.delta, k=p.k, n=p.n).target
    for exc, status in (
        (sbmlab.reduce.ProjectionDidNotConverge("cap"), "no_convergence"),
        (ValueError("projection input must be nonzero"), "invalid"),
    ):
        def fail(m0, spec, exc=exc):
            raise exc

        monkeypatch.setattr(sbmlab.reduce, "corr_preserving_projection", fail)
        rep = recovery_test_statistic(g, p, seed=derive_seed(12345, "probe-stat", 0))
        assert rep.statistic == 0.0 and rep.side_channel["projection"] == {"status": status}


def test_calibrate_threshold_properties():
    p = SbmParams(300, 12.0, eps=0.0, k=2, eta=0.1, delta=0.2)

    def stat(g, s, labels=None):
        return recovery_test_statistic(g, p, seed=s, method="random")

    taus = [calibrate_threshold(stat, p, trials=50, quantile=q, seed=31) for q in (0.6, 0.9, 0.99)]
    assert taus[0] <= taus[1] <= taus[2]
    # reproducible bit-for-bit
    assert taus[2] == calibrate_threshold(stat, p, trials=50, quantile=0.99, seed=31)
    # near-median quantile of a symmetric null sits near zero
    vals = []
    for t in range(50):
        g = sample_er(p.n, p.d, derive_seed(31, "calibrate", t))
        vals.append(stat(g, derive_seed(31, "calibrate-stat", t), None).statistic)
    tau_mid = calibrate_threshold(stat, p, trials=50, quantile=0.501, seed=31)
    se_med = 1.2533 * np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(tau_mid) <= 4 * se_med
    with pytest.raises(ValueError):
        calibrate_threshold(stat, p, trials=10, quantile=0.9, seed=0)
    with pytest.raises(ValueError):
        calibrate_threshold(stat, p, trials=50, quantile=0.4, seed=0)


def test_null_calibrated_size():
    # decisions on fresh null draws reject at most ~1 - quantile of the time
    p = SbmParams(400, 16.0, eps=0.0, k=2, eta=0.1, delta=0.15)

    def stat(g, s, threshold=0.0):
        return recovery_test_statistic(g, p, seed=s, method="spectral", threshold=threshold)

    tau = calibrate_threshold(lambda g, s, labels: stat(g, s), p, trials=50, quantile=0.99, seed=37)
    rejections = 0
    for t in range(40):
        g = sample_er(p.n, p.d, derive_seed(37, "size", t))
        rejections += stat(g, derive_seed(37, "size-stat", t), threshold=tau).decision
    assert rejections / 40 <= 0.05


def test_learning_oracle_separation():
    p = SbmParams(1000, 50.0, eps=math.sqrt(16.0 / 50.0), k=2, eta=0.1, delta=0.1)
    planted, null = [], []
    for t in range(8):
        gp, lab = sample_ssbm(p, derive_seed(41, "P", t))
        theta = edge_prob_matrix(p, lab)
        rp = learning_test_statistic(gp, p, lambda y1: theta * (1 - p.eta), derive_seed(41, "Ps", t))
        planted.append(rp.statistic)
        gq = sample_er(p.n, p.d, derive_seed(41, "Q", t))
        rq = learning_test_statistic(
            gq, p, lambda y1: np.full((p.n, p.n), (1 - p.eta) * p.d / p.n), derive_seed(41, "Qs", t)
        )
        null.append(rq.statistic)
    assert np.median(planted) > 0
    assert np.median(planted) >= 5 * abs(np.median(null))


def test_learning_constant_learner_degenerates():
    p = SbmParams(200, 10.0, eps=0.5, k=2, eta=0.1, delta=0.1)
    g, _ = sample_ssbm(p, seed=43)
    rep = learning_test_statistic(g, p, lambda y1: np.full((p.n, p.n), p.d / p.n), seed=1)
    assert rep.statistic == 0.0
    assert "zero" in rep.side_channel["error"]


def test_learning_svd_separation_z():
    # z-score between arms with the rank-k learner plugged in
    p = SbmParams(1000, 50.0, eps=math.sqrt(16.0 / 50.0), k=2, eta=0.1, delta=0.1)
    proj = ProjectionSpec(delta=p.delta, k=p.k, n=p.n, tol=1e-5, max_iters=300)
    planted, null = [], []
    for t in range(40):
        gp, _ = sample_ssbm(p, derive_seed(47, "P", t))
        planted.append(
            learning_test_statistic(gp, p, lambda y1: svd_theta(y1, p.k), derive_seed(47, "Ps", t), proj=proj).statistic
        )
        gq = sample_er(p.n, p.d, derive_seed(47, "Q", t))
        null.append(
            learning_test_statistic(gq, p, lambda y1: svd_theta(y1, p.k), derive_seed(47, "Qs", t), proj=proj).statistic
        )
    z = (np.mean(planted) - np.mean(null)) / math.sqrt(
        np.var(planted, ddof=1) / len(planted) + np.var(null, ddof=1) / len(null)
    )
    assert z >= 3.0


def test_learning_validates_learner_output():
    p = SbmParams(50, 5.0, eps=0.5, k=2)
    g, _ = sample_ssbm(p, seed=1)
    with pytest.raises(ValueError):
        learning_test_statistic(g, p, lambda y1: np.full((p.n, p.n), 1.5), seed=0)
    with pytest.raises(ValueError):
        learning_test_statistic(g, p, lambda y1: np.zeros((3, 3)), seed=0)
    lopsided = np.full((p.n, p.n), p.d / p.n)
    lopsided[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        learning_test_statistic(g, p, lambda y1: lopsided, seed=0)


def test_graphon_test_values():
    p = SbmParams(400, 32.0, eps=math.sqrt(0.99 * 4 / 32.0), k=2)
    # flat estimate: distance zero, always accepted
    assert graphon_test(BlockGraphon(np.full((1, 1), p.d / p.n)), p) == 1
    # true graphon at eps^2 d = 0.99 k^2 sits outside the radius
    assert graphon_test(sbm_graphon(p), p) == 0
    radius = (p.d / (3 * p.n)) * math.sqrt(p.k / p.d)
    c = p.d / p.n
    assert graphon_test(BlockGraphon(np.full((1, 1), c + radius * (1 - 1e-12))), p) == 1
    assert graphon_test(BlockGraphon(np.full((1, 1), c + radius * (1 + 1e-12))), p) == 0


def test_empirical_r_flags_and_null():
    p = SbmParams(100, 8.0, eps=0.5, k=2)
    const = empirical_r(lambda g, s: 1.0, p, trials=50, seed=3)
    assert const.degenerate and math.isnan(const.r_value)

    def coin(g, s):
        return float(stream_rng(s, "coin").integers(0, 2))

    fair = empirical_r(coin, p, trials=60, seed=5)
    assert not fair.degenerate
    assert abs(fair.r_value) <= 4.0 / math.sqrt(60)  # null correlation scale

    with pytest.raises(ValueError):
        empirical_r(coin, p, trials=10, seed=0)


def test_empirical_r_pipeline_above_threshold():
    p = SbmParams(600, 40.0, eps=math.sqrt(16.0 / 40.0), k=2, eta=0.1, delta=0.1)

    def stat(g, s):
        return recovery_test_statistic(g, p, seed=s, method="spectral").statistic

    score = empirical_r(stat, p, trials=50, seed=53)
    assert score.r_value >= 3.0


def test_run_trials_and_csv(tmp_path):
    p = SbmParams(200, 10.0, eps=0.7, k=2, eta=0.1, delta=0.1)

    def stat(g, s, labels=None):
        return recovery_test_statistic(g, p, seed=s, method="spectral", threshold=0.5, labels=labels)

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


def test_worker_pool_matches_sequential():
    p = SbmParams(150, 10.0, eps=0.7, k=2, eta=0.1, delta=0.1)

    def stat(g, s, labels=None):
        return recovery_test_statistic(g, p, seed=s, method="spectral", labels=labels)

    seq = run_test_trials(stat, p, "P", trials=6, seed=61, workers=1)
    par = run_test_trials(stat, p, "P", trials=6, seed=61, workers=3)
    assert [(r.seed, r.statistic, r.decision) for r in seq] == [
        (r.seed, r.statistic, r.decision) for r in par
    ]


def test_empty_graph_degenerates():
    p = SbmParams(50, 5.0, eps=0.5, k=2, eta=0.1, delta=0.1)
    empty = __import__("sbmlab.model", fromlist=["Graph"]).Graph(50, np.empty((0, 2), dtype=np.int64))
    rep = recovery_test_statistic(empty, p, seed=1, method="spectral", threshold=1.0)
    assert rep.statistic == 0.0
    assert rep.decision == 0
    assert "recovery" in rep.side_channel["error"]
