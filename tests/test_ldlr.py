import dataclasses
import io
import itertools
import math

import numpy as np
import pytest

from sbmlab.factored import Factored
from sbmlab.learn import svd_theta
from sbmlab.ldlr import (
    LdlrResult,
    all_edges,
    bipartite_quadratic_statistic,
    bipartite_partition,
    exact_ldlr_norm,
    fourier_coefficient,
    label_moment,
    mc_moments,
    support_sum,
    write_ldlr_csv,
)
from sbmlab.model import (
    Graph,
    Labels,
    SbmParams,
    membership_matrix,
    sample_er,
    sample_ssbm,
)
from sbmlab.seeds import derive_seed, stream_rng


def brute_force_per_degree(params, ell):
    """Independent oracle: enumerate all k^n labelings for every subset."""
    n, k, p, eps = params.n, params.k, params.d / params.n, params.eps
    edges = all_edges(n)
    labelings = list(itertools.product(range(k), repeat=n))
    per_degree = []
    for t in range(ell + 1):
        if t == 0:
            per_degree.append(1.0)
            continue
        base = (eps * p / math.sqrt(p * (1 - p))) ** t
        total = 0.0
        for sub in itertools.combinations(range(len(edges)), t):
            moment = 0.0
            for lab in labelings:
                prod = 1.0
                for ei in sub:
                    u, v = edges[ei]
                    prod *= (1.0 if lab[u] == lab[v] else 0.0) - 1.0 / k
                moment += prod
            moment /= k**n
            total += (base * moment) ** 2
        per_degree.append(total)
    return per_degree


def test_label_moment_hand_values():
    # single edge: P(same) = 1/k, so the mean is (1/k)(1-1/k) + (1-1/k)(-1/k) = 0
    assert label_moment(((0, 1),), 2) == 0.0
    assert label_moment(((0, 1),), 5) == pytest.approx(0.0, abs=1e-15)
    # path of two edges: conditioning on the middle label kills the product
    assert label_moment(((0, 1), (1, 2)), 2) == pytest.approx(0.0, abs=1e-15)
    # two disjoint edges factorize into zero means
    assert label_moment(((0, 1), (2, 3)), 2) == pytest.approx(0.0, abs=1e-15)
    # triangle at k=2: every labeling gives product exactly 1/8
    assert label_moment(((0, 1), (0, 2), (1, 2)), 2) == pytest.approx(0.125, abs=1e-15)


def test_fourier_coefficient_basics():
    p = SbmParams(8, 4.0, eps=0.5, k=2)
    assert fourier_coefficient((), p) == 1.0
    p0 = SbmParams(8, 4.0, eps=0.0, k=2)
    assert fourier_coefficient(((0, 1), (2, 3)), p0) == 0.0
    assert fourier_coefficient(((0, 1),), p) == pytest.approx(0.0, abs=1e-15)
    # triangle: base (eps p / sqrt(p(1-p)))^3 = 0.125 at p=1/2, times moment 1/8
    tri = ((0, 1), (0, 2), (1, 2))
    assert fourier_coefficient(tri, p) == pytest.approx(0.125 * 0.125, abs=1e-15)
    assert fourier_coefficient(tri, p) == pytest.approx((0.5 * 0.5 / 0.5) ** 3 / 8, abs=1e-15)


def test_fourier_coefficient_relabeling_invariance():
    p = SbmParams(8, 4.0, eps=0.7, k=3)
    rng = stream_rng(1, "perm")
    edges = all_edges(8)
    for trial in range(10):
        sub = tuple(edges[i] for i in rng.choice(len(edges), size=3, replace=False))
        perm = rng.permutation(8)
        relabeled = tuple(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in sub
        )
        assert fourier_coefficient(relabeled, p) == pytest.approx(
            fourier_coefficient(sub, p), abs=1e-12
        )


def test_exact_norm_eps_zero_is_one():
    res = exact_ldlr_norm(SbmParams(8, 4.0, eps=0.0, k=2), ell=3)
    assert res.norm == 1.0
    assert res.per_degree[0] == 1.0
    assert all(m == 0.0 for m in res.per_degree[1:])


def test_exact_norm_hand_value():
    # k=2, n=8, d=4 (p=1/2), eps=1, ell=3: degrees 1 and 2 vanish, and each of
    # the C(8,3)=56 triangles contributes (1/8)^2, so norm = sqrt(1 + 56/64)
    res = exact_ldlr_norm(SbmParams(8, 4.0, eps=1.0, k=2), ell=3)
    assert res.per_degree[1] == pytest.approx(0.0, abs=1e-15)
    assert res.per_degree[2] == pytest.approx(0.0, abs=1e-15)
    assert res.per_degree[3] == pytest.approx(56 / 64, rel=1e-12)
    assert res.norm == pytest.approx(math.sqrt(1.875), rel=1e-12)


def test_exact_norm_monotone():
    norms_eps = [
        exact_ldlr_norm(SbmParams(8, 4.0, eps=e, k=2), ell=3).norm
        for e in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a < b for a, b in zip(norms_eps, norms_eps[1:]))
    norms_ell = [
        exact_ldlr_norm(SbmParams(7, 3.5, eps=0.8, k=2), ell=ell).norm for ell in (0, 1, 2, 3, 4)
    ]
    assert all(a <= b for a, b in zip(norms_ell, norms_ell[1:]))
    assert all(n >= 1.0 for n in norms_ell)


def test_exact_norm_against_brute_force():
    # independent oracle: full k^n labeling enumeration
    for params, ell in (
        (SbmParams(5, 2.5, eps=0.8, k=2), 3),
        (SbmParams(5, 2.0, eps=0.6, k=3), 3),
        (SbmParams(6, 3.0, eps=0.7, k=2), 4),
    ):
        res = exact_ldlr_norm(params, ell)
        oracle = brute_force_per_degree(params, ell)
        for got, want in zip(res.per_degree, oracle):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_exact_norm_table_guard():
    # the table's size depends on (k, ell) alone, so n no longer limits the norm
    with pytest.raises(ValueError, match="support table"):
        exact_ldlr_norm(SbmParams(12, 5.0, eps=0.5, k=2), ell=8)
    res = exact_ldlr_norm(SbmParams(12, 5.0, eps=0.5, k=2), ell=3)
    assert res.norm > 1.0 and len(res.per_degree) == 4


def test_support_sum_cycle_identity():
    # a 2-regular spanning graph on at most 5 vertices is one v-cycle; K_v has
    # (v-1)!/2 of them, and a t-cycle has moment (k-1)/k^t
    for k in (2, 3):
        for v in (3, 4, 5):
            want = math.factorial(v - 1) / 2 * ((k - 1) / k**v) ** 2
            assert support_sum(k, v, v) == pytest.approx(want, rel=1e-14)
        # below three edges no support has minimum degree 2
        assert support_sum(k, 2, 1) == support_sum(k, 2, 2) == 0.0


def test_exact_norm_pinned_values():
    # norms of the K_n subset enumeration this table replaced
    for (k, n, d, ell, eps), want in (
        ((2, 8, 4.0, 3, 0.25), 1.000106805819696),
        ((2, 8, 4.0, 3, 0.6), 1.0202078219657011),
        ((2, 8, 4.0, 3, 1.0), 1.3693063937629153),
        ((3, 7, 3.5, 3, 0.8), 1.0248625054156575),
        ((2, 6, 3.0, 4, 0.5), 1.0027808624060455),
        ((2, 7, 3.5, 4, 0.8), 1.1009871933860085),
        ((3, 5, 2.0, 3, 0.6), 1.0003791873677295),
        ((2, 6, 3.0, 2, 0.5), 1.0),
    ):
        got = exact_ldlr_norm(SbmParams(n, d, eps=eps, k=k), ell).norm
        assert got == pytest.approx(want, rel=1e-12), (k, n, ell, eps)


def test_exact_norm_shape_at_experiment_scale():
    # n = 2000, d = 60: masses decay in t below the Kesten-Stigum point and
    # grow above it
    def masses(snr):
        eps = math.sqrt(snr * 4 / 60.0)
        return exact_ldlr_norm(SbmParams(2000, 60.0, eps=eps, k=2), ell=6).per_degree[3:]

    assert exact_ldlr_norm(SbmParams(2000, 60.0, eps=0.0, k=2), ell=6).norm == 1.0
    low, high = masses(0.5), masses(2.0)
    assert all(a > b for a, b in zip(low, low[1:]))
    assert all(a < b for a, b in zip(high, high[1:]))


def test_coefficients_match_planted_monte_carlo():
    # vectorized sampler over the full graph, 50 random subsets, 4 sigma bands
    params = SbmParams(8, 4.0, eps=0.6, k=2)
    p = params.d / params.n
    edges = all_edges(8)
    m = len(edges)
    trials = 200_000
    rng = stream_rng(7, "mc-oracle")
    labels = rng.integers(0, params.k, size=(trials, 8))
    same = labels[:, [e[0] for e in edges]] == labels[:, [e[1] for e in edges]]
    theta = np.where(same, params.p_in, params.p_out)
    bits = rng.random((trials, m)) < theta
    chi = (bits - p) / math.sqrt(p * (1 - p))
    pick = stream_rng(8, "mc-pick")
    for _ in range(50):
        t = int(pick.integers(1, 4))
        sub = pick.choice(m, size=t, replace=False)
        est = float(np.mean(np.prod(chi[:, sub], axis=1)))
        se = float(np.std(np.prod(chi[:, sub], axis=1), ddof=1)) / math.sqrt(trials)
        closed = fourier_coefficient(tuple(edges[i] for i in sub), params)
        assert abs(est - closed) <= 4 * se + 1e-12


def test_character_orthonormality_under_null():
    params = SbmParams(8, 4.0, eps=0.0, k=2)
    p = params.d / params.n
    edges = all_edges(8)
    m = len(edges)
    trials = 100_000
    rng = stream_rng(9, "ortho")
    bits = rng.random((trials, m)) < p
    chi = (bits - p) / math.sqrt(p * (1 - p))
    pick = stream_rng(10, "ortho-pick")
    for _ in range(12):
        s = tuple(sorted(pick.choice(m, size=int(pick.integers(1, 4)), replace=False)))
        t = tuple(sorted(pick.choice(m, size=int(pick.integers(1, 4)), replace=False)))
        prod = np.prod(chi[:, s], axis=1) * np.prod(chi[:, t], axis=1)
        est = float(np.mean(prod))
        se = float(np.std(prod, ddof=1)) / math.sqrt(trials) + 1e-12
        want = 1.0 if s == t else 0.0
        assert abs(est - want) <= 4 * se


def block_factors(p, lab):
    """theta, the planted edge probabilities of the labels, as a Factored over their blocks.

    With V the normalized block indicators, theta = V ((p_in - p_out) diag(sizes)
    + p_out sqrt(sizes) sqrt(sizes)^T) V^T."""
    sizes = np.bincount(lab.assignment, minlength=lab.k).astype(float)
    v = np.zeros((lab.n, lab.k))
    v[np.arange(lab.n), lab.assignment] = 1.0 / np.sqrt(sizes[lab.assignment])
    root = np.sqrt(sizes)
    return Factored(v, (p.p_in - p.p_out) * np.diag(sizes) + p.p_out * np.outer(root, root))


def constant_plugin(value):
    """The plug-in value * J on the first side, as a Factored: ones / sqrt(m)."""
    return lambda y1: Factored.from_eig(np.array([y1.n * value]), np.full((y1.n, 1), 1.0 / math.sqrt(y1.n)))


def adjacency_plugin(y1):
    """The first side's adjacency as a full-rank Factored (its eigenpairs)."""
    return Factored.from_eig(*np.linalg.eigh(y1.adjacency()))


def test_bipartite_statistic_zero_plugin():
    # the plug-in p J makes X = 0: g is zero up to the rounding of the centering
    params = SbmParams(80, 16.0, eps=0.9, k=2)
    g, _ = sample_ssbm(params, seed=5)
    p = params.d / params.n
    g_val = bipartite_quadratic_statistic(g, constant_plugin(p), params, seed=1)
    g_adj = bipartite_quadratic_statistic(g, adjacency_plugin, params, seed=1)
    assert abs(g_val) <= 1e-12 * abs(g_adj)


def test_bipartite_statistic_matches_a_dense_reference():
    # the factored statistic against <(Y12 - p) X (Y12 - p), Y2 - p> built dense
    params = SbmParams(120, 16.0, eps=0.9, k=2)
    g, _ = sample_ssbm(params, seed=7)
    p = params.d / params.n
    s1, s2 = bipartite_partition(params.n, 3)
    a = g.adjacency()
    y1 = Graph(s1.size, np.searchsorted(s1, g.edges[np.isin(g.edges, s1).all(axis=1)]))
    w12 = a[np.ix_(s1, s2)] - p
    w2 = a[np.ix_(s2, s2)] - p
    for plugin in (adjacency_plugin, lambda y1: svd_theta(y1, params.k)):
        x = (plugin(y1).dense() - p) / p
        z = w12.T @ x @ w12
        np.fill_diagonal(z, 0.0)
        want = float(np.sum(z * w2))
        got = bipartite_quadratic_statistic(g, plugin, params, seed=3)
        assert got == pytest.approx(want, rel=1e-9)


def test_bipartite_statistic_validation():
    params = SbmParams(80, 16.0, eps=0.0, k=2)
    g, _ = sample_ssbm(params, seed=5)
    # eps does not enter the statistic: it is defined at eps = 0, the same at any eps
    at_zero = bipartite_quadratic_statistic(g, adjacency_plugin, params, seed=1)
    at_09 = bipartite_quadratic_statistic(
        g, adjacency_plugin, dataclasses.replace(params, eps=0.9), seed=1
    )
    assert at_zero == at_09 != 0.0
    for wrong in (lambda y1: y1.adjacency(), lambda y1: constant_plugin(0.1)(Graph(y1.n - 1, []))):
        with pytest.raises(ValueError, match="Factored estimate with m rows"):
            bipartite_quadratic_statistic(g, wrong, params, seed=1)
    odd = SbmParams(81, 16.0, eps=0.9, k=2)
    g2, _ = sample_ssbm(odd, seed=6)
    with pytest.raises(ValueError):
        bipartite_quadratic_statistic(g2, adjacency_plugin, odd, seed=1)


def test_bipartite_plugin_graph_is_the_first_side():
    # the plugin's Graph holds y's edges inside s1, relabelled in s1's order
    params = SbmParams(80, 16.0, eps=0.9, k=2)
    g, _ = sample_ssbm(params, seed=5)
    seen = []
    bipartite_quadratic_statistic(g, lambda y1: seen.append(y1) or adjacency_plugin(y1), params, seed=1)
    s1, _ = bipartite_partition(params.n, 1)
    assert seen[0].n == s1.size
    assert np.array_equal(seen[0].adjacency(), g.adjacency()[np.ix_(s1, s1)])


def test_bipartite_statistic_null_mean_and_planted_z():
    # dense regime: m=150 per side, p = 0.2
    m_side = 150
    params = SbmParams(2 * m_side, 0.2 * 2 * m_side, eps=0.9, k=2)

    def svd_stat(g, s):
        return bipartite_quadratic_statistic(g, lambda y1: svd_theta(y1, params.k), params, s)

    null = mc_moments(svd_stat, params, "Q", trials=100, seed=11)
    assert abs(null.mean) <= 4 * null.std_error

    # oracle plugin: rebuild the partition to hand the true first-side blocks over
    planted_vals = []
    for t in range(100):
        gseed = derive_seed(13, "mc-P", t)
        sseed = derive_seed(13, "mc-P-stat", t)
        g, lab = sample_ssbm(params, gseed)
        s1, _ = bipartite_partition(params.n, sseed)
        block = block_factors(params, Labels(lab.assignment[s1], lab.k))
        planted_vals.append(
            bipartite_quadratic_statistic(g, lambda y1: block, params, sseed)
        )
    null_vals = mc_moments(svd_stat, params, "Q", trials=100, seed=17)
    z = (np.mean(planted_vals) - null_vals.mean) / math.sqrt(
        np.var(planted_vals, ddof=1) / 100 + null_vals.var / 100
    )
    assert np.mean(planted_vals) > 0
    assert z >= 3.0


def test_mc_moments_constant_and_scaling():
    params = SbmParams(60, 6.0, eps=0.5, k=2)
    const = mc_moments(lambda g, s: 2.5, params, "Q", trials=40, seed=1)
    assert const.var == 0.0 and const.std_error == 0.0

    def edge_stat(g, s):
        return float(g.edge_count)

    # 1/sqrt(trials) law: quadrupling the trial count halves the standard error
    se_small = mc_moments(edge_stat, params, "Q", trials=60, seed=3).std_error
    se_large = mc_moments(edge_stat, params, "Q", trials=240, seed=3).std_error
    assert abs(se_large / se_small - 0.5) <= 0.1
    with pytest.raises(ValueError):
        mc_moments(edge_stat, params, "Q", trials=10, seed=0)
    with pytest.raises(ValueError):
        mc_moments(edge_stat, params, "X", trials=40, seed=0)


def test_ldlr_csv_format():
    res = exact_ldlr_norm(SbmParams(6, 3.0, eps=0.5, k=2), ell=2)
    buf = io.StringIO()
    write_ldlr_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,d,eps,k,ell,degree,mass,cumulative_norm"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(res.norm, rel=1e-15)
    buf2 = io.StringIO()
    write_ldlr_csv(exact_ldlr_norm(SbmParams(6, 3.0, eps=0.5, k=2), ell=2), buf2)
    assert buf.getvalue() == buf2.getvalue()
