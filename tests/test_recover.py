import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmlab.factored import Factored
from sbmlab.model import (
    Graph,
    Labels,
    SbmParams,
    membership_matrix,
    sample_er,
    sample_labels,
    sample_ssbm,
)
from sbmlab.recover import (
    METHODS,
    RecoveryFailed,
    estimate_degree,
    membership_factors,
    recovery_rate,
    run_recovery,
    spectral_factors,
)


def dense_truncation(y1, k, d_hat):
    """The rank-k spectral truncation as a dense symmetric matrix."""
    vals, vecs = spectral_factors(y1, k, d_hat)
    m = (vecs * vals) @ vecs.T
    return (m + m.T) / 2.0


def truncation(y1, k, d_hat):
    """The rank-k spectral truncation as eigenpairs."""
    return Factored.from_eig(*spectral_factors(y1, k, d_hat))


def two_cliques(half):
    n = 2 * half
    edges = []
    for base in (0, half):
        for i in range(half):
            for j in range(i + 1, half):
                edges.append((base + i, base + j))
    return Graph(n, np.array(sorted(edges))), Labels(np.repeat([0, 1], half), 2)


def test_estimate_degree():
    assert estimate_degree(Graph(5, np.empty((0, 2), np.int64))) == 0.0
    g, _ = two_cliques(4)
    # two disjoint K4s: every vertex has degree 3
    assert estimate_degree(g) == 3.0
    # binomial oracle on G(n, d/n)
    n, d = 2000, 10.0
    g = sample_er(n, d, seed=5)
    sigma = math.sqrt(n * (n - 1) / 2 * (d / n) * (1 - d / n))
    assert abs(estimate_degree(g) - d * (n - 1) / n) <= 4 * (2 * sigma / n)


def test_recovery_rate_extremes():
    lab = sample_labels(SbmParams(30, 2.0, k=3), seed=1, balanced=True)
    m = membership_matrix(lab)
    f = Factored.from_dense(m)
    assert recovery_rate(f, f) == pytest.approx(1.0, abs=1e-12)
    assert recovery_rate(Factored.from_dense(-m), f) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        recovery_rate(Factored.from_dense(np.zeros_like(m)), f)


def test_recovery_rate_null_baseline():
    # null correlation oracle: independent partitions are near-orthogonal
    n = 1000
    lab = sample_labels(SbmParams(n, 2.0, k=2), seed=2, balanced=True)
    m_true = membership_factors(lab)
    for s in range(20):
        m_rand = membership_factors(sample_labels(SbmParams(n, 2.0, k=2), seed=s))
        assert abs(recovery_rate(m_rand, m_true)) <= 4 / math.sqrt(n)


@settings(deadline=None, max_examples=30)
@given(st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-6), st.integers(0, 1000))
def test_recovery_rate_scale_invariance(c, seed):
    lab = sample_labels(SbmParams(24, 2.0, k=2), seed=seed, balanced=True)
    m_true = Factored.from_dense(membership_matrix(lab))
    m_rand = membership_matrix(sample_labels(SbmParams(24, 2.0, k=2), seed=seed + 1))
    base = recovery_rate(Factored.from_dense(m_rand), m_true)
    scaled = recovery_rate(Factored.from_dense(c * m_rand), m_true)
    assert scaled == pytest.approx(math.copysign(1.0, c) * base, abs=1e-12)


def test_recovery_rate_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((15, 15))
        b = rng.standard_normal((15, 15))
        rate = recovery_rate(Factored.from_dense(a + a.T), Factored.from_dense(b + b.T))
        assert -1.0 - 1e-12 <= rate <= 1.0 + 1e-12


def test_spectral_membership_two_cliques():
    # exact eigenvectors of the block matrix recover the planted bipartition
    g, lab = two_cliques(20)
    rate = recovery_rate(truncation(g, 2, d_hat=estimate_degree(g)), membership_factors(lab))
    assert rate >= 0.99


def test_spectral_membership_rank_at_most_k():
    g, _ = sample_ssbm(SbmParams(120, 8.0, eps=0.8, k=2), seed=3)
    m_hat = dense_truncation(g, 2, d_hat=8.0)
    s = np.linalg.svdvals(m_hat)
    assert np.sum(s > 1e-9 * s[0]) <= 2


def test_spectral_membership_null_has_no_signal():
    # no signal at eps = 0: rate stays small against an independent partition
    p = SbmParams(1000, 50.0, eps=0.0, k=2)
    lab = sample_labels(p, seed=99, balanced=True)
    m_true = membership_factors(lab)
    for s in range(20):
        g = sample_er(p.n, p.d, seed=s)
        m_hat = truncation(g, 2, d_hat=estimate_degree(g))
        assert abs(recovery_rate(m_hat, m_true)) <= 0.1


def test_spectral_membership_above_threshold():
    # eps^2 d = 4 k^2: clearly above threshold, spectral signal is strong
    p = SbmParams(2000, 60.0, eps=math.sqrt(16.0 / 60.0), k=2)
    rates = []
    for s in range(20):
        g, lab = sample_ssbm(p, seed=s)
        m_hat = truncation(g, 2, d_hat=estimate_degree(g))
        rates.append(recovery_rate(m_hat, membership_factors(lab)))
    assert np.median(rates) >= 0.1


@pytest.mark.parametrize(
    "n, d, eps",
    [(30, 12.0, 0.7), (150, 12.0, 0.7), (400, 12.0, 0.7), (1000, 50.0, 0.0)],
    ids=["30", "150", "400", "null-1000"],
)
def test_spectral_factors_match_dense_eigh(n, d, eps):
    # the Lanczos truncation against a dense eigh reference, centered or not;
    # the learning statistic reads the uncentered pairs of null draws directly
    g, _ = sample_ssbm(SbmParams(n, d, eps=eps, k=2), seed=11)
    for d_hat in (estimate_degree(g), 0.0):
        vals, vecs = np.linalg.eigh(g.adjacency() - d_hat / n)
        top = np.argsort(np.abs(vals))[::-1][:2]
        ref = (vecs[:, top] * vals[top]) @ vecs[:, top].T
        got = dense_truncation(g, 2, d_hat)
        assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_factors(g, 2, d_hat=-1.0)


@pytest.mark.parametrize("n", [10, 1000])
def test_spectral_factors_edgeless_graph(n):
    # uncentered, an edgeless graph is the zero operator, which ARPACK rejects
    vals, vecs = spectral_factors(Graph(n, []), 2, 0.0)
    assert np.array_equal(vals, np.zeros(2))
    assert np.allclose(vecs.T @ vecs, np.eye(2))


def test_membership_factors_exact():
    lab = sample_labels(SbmParams(90, 3.0, k=3), seed=7)
    m = membership_factors(lab)
    assert m.v.shape[1] <= 4
    assert np.array_equal(m.c, np.diag(np.diag(m.c)))
    assert np.allclose(m.dense(), membership_matrix(lab), atol=1e-10)


def test_run_recovery_dispatch():
    p = SbmParams(200, 12.0, eps=0.9, k=2)
    g, lab = sample_ssbm(p, seed=13)
    truth = membership_factors(lab)
    m0 = run_recovery(g, p, method="oracle", labels=lab)
    assert recovery_rate(m0, truth) == pytest.approx(1.0, abs=1e-12)
    m0 = run_recovery(g, p, method="spectral", labels=lab)
    assert recovery_rate(m0, truth) > 0.3
    m0 = run_recovery(g, p, method="random", seed=5, labels=lab)
    assert abs(recovery_rate(m0, truth)) < 0.2
    with pytest.raises(ValueError):
        run_recovery(g, p, method="nope")
    with pytest.raises(ValueError):
        run_recovery(g, p, method="oracle")


@pytest.mark.parametrize("method", METHODS)
def test_run_recovery_returns_eigenpairs(method):
    # the one hand-off to the projection: a Factored with n rows and diagonal C
    p = SbmParams(200, 12.0, eps=0.9, k=2)
    g, lab = sample_ssbm(p, seed=13)
    m0 = run_recovery(g, p, method=method, seed=5, labels=lab)
    assert isinstance(m0, Factored)
    assert m0.v.shape[0] == p.n
    assert np.array_equal(m0.c, np.diag(np.diag(m0.c)))
    if method == "random":
        want = membership_factors(sample_labels(p, 5))
        assert np.array_equal(m0.v, want.v) and np.array_equal(m0.c, want.c)


def test_run_recovery_rejects_an_edgeless_graph():
    p = SbmParams(50, 4.0, k=2)
    with pytest.raises(RecoveryFailed, match="empty graph: cannot center the adjacency"):
        run_recovery(Graph(p.n, np.empty((0, 2), np.int64)), p)
