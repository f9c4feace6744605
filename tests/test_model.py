import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmlab.model import (
    Graph,
    Labels,
    SbmParams,
    edge_prob_matrix,
    map_trials,
    membership_matrix,
    sample_er,
    sample_labels,
    sample_ssbm,
    sbm_graphon,
    write_edge_list,
    write_labels,
)
from sbmlab.model import _sample_block_pairs
from sbmlab.seeds import derive_seed, stream_rng


def test_params_validation():
    with pytest.raises(ValueError):
        SbmParams(100, 0.0)
    with pytest.raises(ValueError):
        SbmParams(100, 4.0, eps=1.5)
    with pytest.raises(ValueError):
        SbmParams(100, 4.0, eta=0.0)
    # p_in > 1: n=10, d=8, eps=1, k=2 gives 1.5 * 0.8 = 1.2
    with pytest.raises(ValueError):
        SbmParams(10, 8.0, eps=1.0, k=2)


def test_sample_labels_single_community():
    # one community is G(n, d/n) for any eps, and k >= n leaves no room for a
    # rank-k truncation: the parameters are rejected before any draw
    for k in (1, 50, 51):
        with pytest.raises(ValueError, match="2 <= k < n"):
            SbmParams(50, 3.0, k=k)


def test_sample_labels_balanced_small():
    lab = sample_labels(SbmParams(4, 1.0, k=2), seed=3, balanced=True)
    assert sorted(lab.assignment.tolist()) == [0, 0, 1, 1]


def test_sample_labels_balanced_requires_divisibility():
    with pytest.raises(ValueError):
        sample_labels(SbmParams(5, 1.0, k=2), seed=0, balanced=True)


def test_sample_labels_frequencies():
    # multinomial oracle: each class frequency within 4 sigma of 1/k
    n, k = 100_000, 4
    lab = sample_labels(SbmParams(n, 5.0, k=k), seed=11)
    counts = np.bincount(lab.assignment, minlength=k)
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    assert np.all(np.abs(counts - n / k) <= 4 * sigma)


def test_edge_prob_matrix_values():
    p = SbmParams(100, 4.0, eps=0.0, k=2)
    lab = sample_labels(p, seed=1)
    assert np.all(edge_prob_matrix(p, lab) == 0.04)

    p = SbmParams(100, 4.0, eps=1.0, k=2)
    lab = sample_labels(p, seed=1, balanced=True)
    theta = edge_prob_matrix(p, lab)
    same = lab.assignment[:, None] == lab.assignment[None, :]
    # hand evaluation: p_in = 1.5 * 0.04 = 0.06, p_out = 0.5 * 0.04 = 0.02
    assert np.all(theta[same] == 0.06)
    assert np.all(theta[~same] == 0.02)


def test_edge_prob_row_sums_balanced():
    # (1/k) p_in + (1 - 1/k) p_out = d/n, so off-diagonal row sums are
    # d(n-1)/n up to the same/diagonal correction of order d/n
    p = SbmParams(100, 4.0, eps=0.7, k=4)
    lab = sample_labels(p, seed=5, balanced=True)
    theta = edge_prob_matrix(p, lab)
    rows = theta.sum(axis=1) - np.diag(theta)
    assert np.allclose(rows, p.d * (p.n - 1) / p.n, atol=p.d / p.n)


def test_membership_matrix_small_block():
    lab = Labels(np.array([0, 0, 1, 1]), 2)
    m = membership_matrix(lab)
    expect = np.array(
        [
            [0.5, 0.5, -0.5, -0.5],
            [0.5, 0.5, -0.5, -0.5],
            [-0.5, -0.5, 0.5, 0.5],
            [-0.5, -0.5, 0.5, 0.5],
        ]
    )
    assert np.array_equal(m, expect)
    # brute-force sum of squares: 16 entries of 1/4 -> Frobenius norm 2
    assert np.linalg.norm(m) == pytest.approx(2.0, abs=1e-14)


def test_membership_matrix_k1_zero():
    lab = Labels(np.zeros(6, dtype=int), 1)
    assert np.all(membership_matrix(lab) == 0.0)


def test_membership_balanced_identities():
    p = SbmParams(60, 3.0, k=3)
    lab = sample_labels(p, seed=2, balanced=True)
    m = membership_matrix(lab)
    # row sums (n/k)(1 - 1/k) - (n - n/k)/k = 0 for exactly balanced labels
    assert abs(m.sum()) < 1e-9
    assert np.linalg.norm(m) ** 2 == pytest.approx(p.n**2 * (1 / p.k) * (1 - 1 / p.k), rel=1e-12)


def test_theta_decomposition_identity():
    # theta = (eps d / n) M + (d/n) J off-diagonal, to 1e-12
    p = SbmParams(80, 6.0, eps=0.6, k=3)
    lab = sample_labels(p, seed=9)
    theta = edge_prob_matrix(p, lab)
    m = membership_matrix(lab)
    recon = (p.eps * p.d / p.n) * m + p.d / p.n
    off = ~np.eye(p.n, dtype=bool)
    assert np.max(np.abs(theta[off] - recon[off])) < 1e-12


def test_sample_ssbm_er_density():
    # binomial oracle over 20 pooled draws at eps = 0
    p = SbmParams(2000, 10.0, eps=0.0, k=2)
    npairs = p.n * (p.n - 1) // 2
    total = sum(sample_ssbm(p, seed=s)[0].edge_count for s in range(20))
    mean = 20 * npairs * (p.d / p.n)
    sigma = math.sqrt(20 * npairs * (p.d / p.n) * (1 - p.d / p.n))
    assert abs(total - mean) <= 4 * sigma


def test_sample_ssbm_within_block_density():
    # p_in formula: eps=1, k=2 gives within-block density 1.5 d/n
    p = SbmParams(1000, 8.0, eps=1.0, k=2)
    hits = 0
    pairs = 0
    for s in range(10):
        g, lab = sample_ssbm(p, seed=s)
        a = lab.assignment
        same = a[g.edges[:, 0]] == a[g.edges[:, 1]]
        hits += int(same.sum())
        counts = np.bincount(a, minlength=p.k)
        pairs += int((counts * (counts - 1) // 2).sum())
    mean = pairs * p.p_in
    sigma = math.sqrt(pairs * p.p_in * (1 - p.p_in))
    assert abs(hits - mean) <= 4 * sigma


def test_sample_ssbm_deterministic():
    p = SbmParams(300, 5.0, eps=0.4, k=3)
    g1, l1 = sample_ssbm(p, seed=123)
    g2, l2 = sample_ssbm(p, seed=123)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(l1.assignment, l2.assignment)
    g3, _ = sample_ssbm(p, seed=124)
    assert not np.array_equal(g1.edges, g3.edges)


def test_sample_er_matches_bernoulli_matrix():
    # with eps = 0 the per-pair parameter matrix equals d/n everywhere off-diagonal
    p = SbmParams(50, 4.0, eps=0.0, k=3)
    lab = sample_labels(p, seed=0)
    theta = edge_prob_matrix(p, lab)
    off = ~np.eye(p.n, dtype=bool)
    assert np.all(theta[off] == p.d / p.n)


def test_graph_invariants():
    g, _ = sample_ssbm(SbmParams(100, 5.0, eps=0.5, k=2), seed=8)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert g.edge_count <= g.n * (g.n - 1) // 2
    with pytest.raises(ValueError):
        Graph(4, np.array([[1, 0]]))
    with pytest.raises(ValueError):
        Graph(4, np.array([[0, 1], [0, 1]]))


def coo_adjacency(g):
    """The adjacency the long way: both orientations as COO, summed into CSR."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return sps.csr_matrix((np.ones(2 * g.edge_count), (rows, cols)), shape=(g.n, g.n))


@pytest.mark.parametrize(
    "graph",
    [
        lambda: sample_ssbm(SbmParams(400, 16.0, eps=0.5, k=2), seed=12)[0],
        lambda: Graph(7, np.empty((0, 2), dtype=np.int64)),
        lambda: Graph(9, np.array([[0, 3], [0, 5], [1, 2], [2, 5]])),  # 6, 7, 8 isolated
        lambda: Graph(2, np.array([[0, 1]])),
        lambda: sample_er(40, 40.0, seed=1),  # p = 1: the complete graph
    ],
    ids=["planted", "edgeless", "isolated-tail", "one-edge", "complete"],
)
def test_sparse_adjacency_is_the_coo_matrix(graph):
    # U + U^T from the sorted edge list is the COO-built matrix array for array
    g = graph()
    got, want = g.sparse(), coo_adjacency(g)
    assert type(got) is type(want) and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.indices.dtype == np.int32
    assert got.has_sorted_indices and want.has_sorted_indices
    assert np.array_equal(g.adjacency(), want.toarray())


def test_dense_adjacency_refused_above_ten_thousand():
    # the n x n array would take 800 MB: the call raises before building anything
    g = Graph(10_001, np.array([[0, 1], [5, 10_000]]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n <= 10000"):
            g.adjacency()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_sbm_graphon_blocks():
    w = sbm_graphon(SbmParams(100, 4.0, eps=0.0, k=3))
    assert np.all(w.b == 0.04)
    w = sbm_graphon(SbmParams(100, 4.0, eps=1.0, k=2))
    assert np.array_equal(w.b, np.array([[0.06, 0.02], [0.02, 0.06]]))


def test_edge_list_roundtrip(tmp_path, parse_edge_list):
    g, lab = sample_ssbm(SbmParams(60, 4.0, eps=0.3, k=2), seed=17)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert path.read_text().startswith(f"60 {g.edge_count}\n")
    g2 = parse_edge_list(path)
    assert g2.n == g.n and np.array_equal(g2.edges, g.edges)
    # writer output is bit-exact reproducible
    path2 = tmp_path / "g2.txt"
    write_edge_list(g, path2)
    assert path.read_bytes() == path2.read_bytes()

    lpath = tmp_path / "labels.txt"
    write_labels(lab, lpath)
    # one integer per line
    assert np.array_equal(np.loadtxt(lpath, dtype=np.int64), lab.assignment)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10_000))
def test_membership_norm_property(k, mult, seed):
    # balanced labels built directly: n = k (mult = 1) is below SbmParams' k < n
    n = k * mult
    lab = Labels(np.random.default_rng(seed).permutation(np.repeat(np.arange(k), mult)), k)
    m = membership_matrix(lab)
    assert np.linalg.norm(m) ** 2 == pytest.approx(n**2 * (1 / k) * (1 - 1 / k), rel=1e-10)
    assert abs(m.sum()) < 1e-8


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_empty_graphon_constant(seed):
    p = SbmParams(100, 4.0, eps=0.0, k=2)
    g = sample_er(p.n, p.d, seed)
    assert g.edge_count >= 0
    w = sbm_graphon(p)
    assert np.all(w.b == 0.04)


def test_empty_edge_list_roundtrip(tmp_path, parse_edge_list):
    g = Graph(7, np.empty((0, 2), dtype=np.int64))
    path = tmp_path / "empty.txt"
    write_edge_list(g, path)
    assert path.read_text() == "7 0\n"
    g2 = parse_edge_list(path)
    assert g2.n == 7 and g2.edge_count == 0


def _pair_keys(g):
    return (g.edges[:, 0] * g.n + g.edges[:, 1]).tolist()


@pytest.mark.parametrize("p_in,p_out", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_block_pair_sampler_exact_coverage(p_in, p_out):
    # unequal blocks of sizes 0, 1 and 7; p = 1 must give every pair of the
    # chosen kind exactly once, through the triangular (within) and the
    # rectangular (across) decode
    a = np.array([2, 1, 2, 2, 2, 2, 2, 2])
    lab = Labels(a, 3)
    g = _sample_block_pairs(a.size, lab, p_in, p_out, stream_rng(5, "edges"))
    expect = [
        u * a.size + v
        for u, v in combinations(range(a.size), 2)
        if (p_in if a[u] == a[v] else p_out) == 1.0
    ]
    assert _pair_keys(g) == expect


def test_sample_er_exact_coverage_large_block():
    # d = n gives p = 1: a valid Graph (in range, u < v, sorted, distinct)
    # with C(n, 2) edges holds every pair exactly once
    n = 3001
    g = sample_er(n, float(n), seed=4)
    assert g.edge_count == n * (n - 1) // 2


def _max_pair_z(draw, n, draws):
    """Largest |z| over pairs of (hits - sum p) / sqrt(sum p (1 - p))."""
    npairs = n * n
    hits = np.zeros(npairs)
    mean = np.zeros(npairs)
    var = np.zeros(npairs)
    for s in range(draws):
        g, probs = draw(s)
        hits += np.bincount(g.edges[:, 0] * n + g.edges[:, 1], minlength=npairs)
        p = probs.ravel()
        mean += p
        var += p * (1 - p)
    iu = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1).ravel())
    return float(np.max(np.abs(hits[iu] - mean[iu]) / np.sqrt(var[iu])))


def test_sample_ssbm_per_pair_frequency():
    # n = 12, k = 3: the i.i.d. labels are unbalanced draw to draw; each pair's
    # hit count must match its summed p_in / p_out.  Under the law the max
    # over 66 pairs exceeds 4.5 with probability about 5e-4.
    p = SbmParams(12, 3.0, eps=0.9, k=3)

    def draw(s):
        g, lab = sample_ssbm(p, seed=1000 + s)
        return g, edge_prob_matrix(p, lab)

    assert _max_pair_z(draw, p.n, 3000) <= 4.5


def test_sample_er_per_pair_frequency():
    n, d = 12, 4.0
    probs = np.full((n, n), d / n)
    assert _max_pair_z(lambda s: (sample_er(n, d, seed=2000 + s), probs), n, 3000) <= 4.5


def test_sample_ssbm_memory_is_linear():
    # one array over the n(n-1)/2 pairs would take 1.6 GB at n = 20000
    p = SbmParams(20_000, 10.0, eps=0.5, k=2)
    tracemalloc.start()
    try:
        g, _ = sample_ssbm(p, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count > 0
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "edges,message",
    [
        ([[0, 2], [0, 1]], "sorted"),
        ([[1, 2], [0, 3]], "sorted"),
        ([[0, 1], [1, 2], [1, 2]], "duplicate"),
        ([[0, 1], [2, 1]], "u < v"),
        ([[0, 1], [2, 2]], "u < v"),
        ([[0, 4]], "out of range"),
        ([[-1, 2]], "out of range"),
    ],
)
def test_graph_rejects_invalid_edge_lists(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(4, np.array(edges))


def test_map_trials_streams_and_laws(monkeypatch):
    import sbmlab.model as model

    p = SbmParams(60, 5.0, eps=0.5, k=2)
    drawn = []
    for name in ("sample_ssbm", "sample_er"):
        real = getattr(model, name)

        def spy(*args, _real=real, _name=name):
            drawn.append((_name, args[-1]))
            return _real(*args)

        monkeypatch.setattr(model, name, spy)

    def record(g, s, labels):
        return g, s, labels

    for arm, sampler in (("P", "sample_ssbm"), ("Q", "sample_er")):
        drawn.clear()
        out = map_trials(record, p, arm, 3, 7, "probe")
        # trial t draws from derive_seed(seed, stream, t), evaluates on stream-stat
        assert drawn == [(sampler, derive_seed(7, "probe", t)) for t in range(3)]
        assert [s for _, s, _ in out] == [derive_seed(7, "probe-stat", t) for t in range(3)]
        for t, (g, _, labels) in enumerate(out):
            if arm == "P":
                ref, ref_labels = sample_ssbm(p, derive_seed(7, "probe", t))
                assert np.array_equal(labels.assignment, ref_labels.assignment)
            else:
                ref = sample_er(p.n, p.d, derive_seed(7, "probe", t))
                assert labels is None
            assert np.array_equal(g.edges, ref.edges)


def test_map_trials_rejects_bad_arm():
    with pytest.raises(ValueError, match="arm"):
        map_trials(lambda g, s, labels: 0, SbmParams(20, 3.0), "X", 2, 0, "probe")
