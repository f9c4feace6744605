import math

import numpy as np
import pytest

from sbmlab.factored import Factored
from sbmlab.model import Labels, SbmParams, membership_matrix, sample_labels, sample_ssbm
from sbmlab.project import ProjectionSpec, corr_preserving_projection
from sbmlab.recover import membership_factors, recovery_rate, run_recovery
from sbmlab.reduce import recovery_test_statistic, statistic_from_m_hat
from sbmlab.seeds import derive_seed, stream_rng
from sbmlab.split import subsample_edges

REL = 1e-9


def dense_rate(a, b):
    """<a, b> / (|a|_F |b|_F) over the off-diagonal entries of two n x n arrays."""
    off = ~np.eye(len(a), dtype=bool)
    return float(np.sum((a * b)[off]) / math.sqrt(np.sum((a * a)[off]) * np.sum((b * b)[off])))


def dense_statistic(m, y2, center):
    """g = <m, A(Y2) - center J> over the off-diagonal entries of an n x n array."""
    off = ~np.eye(len(m), dtype=bool)
    return float(np.sum((m * (y2.adjacency() - center))[off]))


def random_factored(n, r, scale, seed, shift=0.0):
    """A general symmetric (not diagonal) C on a random orthonormal V, plus shift * I."""
    rng = stream_rng(seed, "factored")
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    c = rng.standard_normal((r, r))
    return Factored(v, scale * ((c + c.T) / 2.0 + shift * np.eye(r)))


@pytest.mark.parametrize("shift", [0.0, 0.37])
def test_factored_operations_match_dense(shift):
    # shift adds a multiple of the projector V V^T, which weighs on the diagonal
    n = 40
    x = random_factored(n, 4, 1.9, seed=1, shift=shift)
    y = random_factored(n, 3, 0.7, seed=2, shift=-0.6 * shift)
    xd, yd = x.dense(), y.dense()
    off = ~np.eye(n, dtype=bool)
    i = np.array([0, 3, 7, 7, 39])
    j = np.array([5, 3, 2, 30, 1])
    assert np.allclose(x.entries(i, j), xd[i, j], rtol=0, atol=1e-13)
    assert np.allclose(x.diagonal(), np.diag(xd), rtol=0, atol=1e-13)
    assert x.offdiag_sum() == pytest.approx(float(xd[off].sum()), rel=REL, abs=1e-12)
    assert x.norm() == pytest.approx(float(np.linalg.norm(xd)), rel=REL)
    assert x.inner(y) == pytest.approx(float(np.sum(xd * yd)), rel=REL)
    assert y.inner(x) == pytest.approx(float(np.sum(xd * yd)), rel=REL)
    assert x.offdiag_inner(y) == pytest.approx(float(np.sum((xd * yd)[off])), rel=REL)
    assert recovery_rate(x, y) == pytest.approx(dense_rate(xd, yd), rel=REL)


def test_spanned_rank_deficient_column_sets():
    # W core W^T from one QR of a rank-deficient W: the indicators of labels
    # with an empty block (a zero column), and [V | 1] with 1 in span V.
    # eigenpairs() keeps the rank and drops the rounding-level eigenvalue
    n = 30
    lab = Labels(np.arange(n) % 3, 4)  # block 3 has no vertices
    ind = np.zeros((n, 4))
    ind[np.arange(n), lab.assignment] = 1.0
    rng = stream_rng(3, "spanned")
    v = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, 2))]))[0]
    g = rng.standard_normal((3, 3))
    core = np.zeros((4, 4))
    core[:3, :3] = g + g.T
    core[3, 3] = -0.3
    for w, core in ((ind, np.eye(4) - 0.25), (np.column_stack([v, np.ones(n)]), core)):
        want = w @ core @ w.T
        f = Factored.spanned(w, core)
        assert f.v.shape == (n, 4)
        assert np.max(np.abs(f.dense() - want)) <= 1e-12 * np.max(np.abs(want))
        pairs = f.eigenpairs()
        assert pairs.v.shape[1] == 3 == np.linalg.matrix_rank(want)
        assert np.array_equal(pairs.c, np.diag(np.diag(pairs.c)))
        assert np.max(np.abs(pairs.v.T @ pairs.v - np.eye(3))) <= 1e-12
        assert np.max(np.abs(pairs.dense() - want)) <= 1e-12 * np.max(np.abs(want))
    # the membership factors of those labels are the same construction
    assert np.max(np.abs(membership_factors(lab).dense() - membership_matrix(lab))) <= 1e-12


def test_statistic_factored_general_c_matches_dense():
    # a general symmetric C, as the subspace projection returns: its diagonal
    # must drop out of the off-diagonal sum
    p = SbmParams(60, 6.0, eps=0.5, k=2)
    g, _ = sample_ssbm(p, seed=4)
    est = random_factored(p.n, 3, 3.0, seed=5)
    assert len(g.edges) > 0
    dense = dense_statistic(est.dense(), g, 0.03)
    assert statistic_from_m_hat(est, g, 0.03) == pytest.approx(dense, rel=REL)
    # and the diagonal of the dense form is not zero, so the test has teeth
    assert np.max(np.abs(np.diag(est.dense()))) > 0.1


def _check_trial(g, p, seed, method, labels):
    """Factored pipeline figures against the dense formulas on the same trial."""
    split = subsample_edges(g, p.eta, derive_seed(seed, "pipeline-split"))
    est = run_recovery(
        split.y1, p, method=method, seed=derive_seed(seed, "pipeline-recovery"), labels=labels
    )
    spec = ProjectionSpec(delta=p.delta, k=p.k, n=p.n, tol=1e-6, max_iters=2000)
    rep = corr_preserving_projection(est, spec)
    assert rep.backend == "subspace" and isinstance(rep.estimate, Factored)
    center = p.eta * p.d / p.n
    g_fact = statistic_from_m_hat(rep.estimate, split.y2, center)
    # the pipeline scores exactly this factored estimate
    report = recovery_test_statistic(g, p, seed, method=method, labels=labels)
    assert report.statistic == g_fact
    rate = recovery_rate(est, membership_factors(labels))
    assert report.side_channel["recovery_rate"] == rate

    vals, vecs = np.diag(est.c), est.v
    m0 = (vecs * vals) @ vecs.T
    m0 = (m0 + m0.T) / 2.0
    assert rate == pytest.approx(dense_rate(m0, membership_matrix(labels)), rel=REL)
    # the estimate is rescaled to the target norm, in factored and dense form
    m_hat = rep.estimate.dense()
    assert rep.estimate.norm() == pytest.approx(spec.target, rel=REL)
    assert float(np.linalg.norm(m_hat)) == pytest.approx(spec.target, rel=REL)
    assert g_fact == pytest.approx(dense_statistic(m_hat, split.y2, center), rel=REL)
    return rate


def test_factored_pipeline_matches_dense_at_c4():
    p = SbmParams(2000, 60.0, eps=math.sqrt(16.0 / 60.0), k=2, eta=0.1, delta=0.1)
    for t in range(3):
        g, lab = sample_ssbm(p, derive_seed(71, "P", t))
        rate = _check_trial(g, p, derive_seed(71, "Ps", t), "spectral", lab)
        assert rate >= p.delta


@pytest.mark.parametrize("method", ["oracle", "random"])
def test_factored_pipeline_matches_dense_small(method):
    p = SbmParams(200, 12.0, eps=0.9, k=2, eta=0.1, delta=0.1)
    for t in range(3):
        g, lab = sample_ssbm(p, derive_seed(73, method, t))
        rate = _check_trial(g, p, derive_seed(73, method + "-s", t), method, lab)
        if method == "oracle":
            assert rate == pytest.approx(1.0, abs=1e-12)


def test_membership_factored_rate_exact():
    lab = sample_labels(SbmParams(90, 3.0, k=3), seed=8)
    other = sample_labels(SbmParams(90, 3.0, k=3), seed=9)
    mine = membership_factors(lab)
    theirs = membership_factors(other)
    dense = dense_rate(membership_matrix(lab), membership_matrix(other))
    assert recovery_rate(mine, theirs) == pytest.approx(dense, rel=REL)
    assert recovery_rate(mine, mine) == pytest.approx(1.0, abs=1e-12)
