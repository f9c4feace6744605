import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmlab.factored import Factored
from sbmlab.learn import (
    centered,
    frob_error_sq,
    gw_constant,
    gw_distance,
    refine,
    svd_theta,
    write_graphon,
)
from sbmlab.model import (
    BlockGraphon,
    Graph,
    SbmParams,
    edge_prob_matrix,
    sample_labels,
    sample_ssbm,
    sbm_graphon,
)


def random_graphon(m, rng):
    b = rng.random((m, m))
    return BlockGraphon((b + b.T) / 2.0)


@pytest.mark.parametrize("n", [10, 1000])
def test_svd_theta_edgeless_graph(n):
    # the zero adjacency's truncation is zero, at either size, with no ArpackError
    theta_hat = svd_theta(Graph(n, []), 2)
    assert isinstance(theta_hat, Factored) and theta_hat.v.shape == (n, 2)
    assert theta_hat.norm() == 0.0


def dense_error_sq(theta_hat, p, lab):
    """The n x n reference for frob_error_sq."""
    return float(np.linalg.norm(theta_hat.dense() - edge_prob_matrix(p, lab)) ** 2)


@pytest.mark.parametrize("eps", [0.0, 0.8])
def test_frob_error_matches_a_dense_reference(eps):
    # |theta_hat - theta|_F^2 from the factors and theta's blocks, diagonal included
    p = SbmParams(300, 20.0, eps=eps, k=3)
    g, lab = sample_ssbm(p, seed=6)
    theta_hat = svd_theta(g, p.k)
    assert frob_error_sq(theta_hat, p, lab) == pytest.approx(dense_error_sq(theta_hat, p, lab), rel=1e-10)


@pytest.mark.parametrize("scale", [1.0, -2.5])
def test_centered_matches_the_dense_difference(scale):
    # theta_hat - c J from one QR and one small eigh: eigenpairs (orthonormal
    # V, diagonal C) that rebuild the dense difference, rank at most r + 1
    rng = np.random.default_rng(8)
    n = 120
    v = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    c_mat = rng.standard_normal((3, 3))
    theta_hat = Factored(v, scale * (c_mat + c_mat.T))
    got = centered(theta_hat, 0.07)
    ref = theta_hat.dense() - 0.07
    assert got.v.shape[1] == 4
    assert np.array_equal(got.c, np.diag(np.diag(got.c)))
    assert np.max(np.abs(got.v.T @ got.v - np.eye(4))) <= 1e-12
    assert np.linalg.norm(got.dense() - ref) <= 1e-12 * np.linalg.norm(ref)
    # a constant estimate centered at its own value leaves nothing above rounding
    const = Factored.from_eig(np.array([0.07 * n]), np.full((n, 1), 1.0 / math.sqrt(n)))
    assert centered(const, 0.07).norm() <= 1e-12


def test_svd_theta_error_bound_planted():
    # Monte-Carlo against the rank-k estimation guarantee, constants relaxed
    p = SbmParams(1000, 50.0, eps=0.8, k=2)
    errs = []
    for s in range(20):
        g, lab = sample_ssbm(p, seed=s)
        errs.append(frob_error_sq(svd_theta(g, p.k), p, lab))
    assert np.median(errs) <= 32 * p.k * p.d


def test_svd_theta_error_bound_null():
    p = SbmParams(1000, 50.0, eps=0.0, k=2)
    errs = []
    for s in range(20):
        g, lab = sample_ssbm(p, seed=100 + s)
        errs.append(frob_error_sq(svd_theta(g, p.k), p, lab))
    assert np.median(errs) <= 32 * p.k * p.d


def test_svd_theta_error_monotone_in_signal():
    # regression guard: same noise seed, stronger signal never much worse
    p0 = SbmParams(500, 30.0, eps=0.0, k=2)
    p1 = SbmParams(500, 30.0, eps=0.8, k=2)
    errs0, errs1 = [], []
    for s in range(10):
        for p, errs in ((p0, errs0), (p1, errs1)):
            g, lab = sample_ssbm(p, seed=s)
            errs.append(math.sqrt(frob_error_sq(svd_theta(g, p.k), p, lab)))
    band = 4 * np.std(errs0) / math.sqrt(len(errs0))
    assert np.mean(errs1) <= np.mean(errs0) + max(4 * band, 0.25 * np.mean(errs0))


def test_graphon_from_theta():
    # an n x n theta is the n-block graphon with one block per vertex
    c = BlockGraphon(np.full((5, 5), 0.3))
    assert np.all(c.b == 0.3)
    theta = np.array([[0.2, 0.1], [0.1, 0.2]])
    w = BlockGraphon(theta)
    assert np.array_equal(w.b, theta)
    with pytest.raises(ValueError):
        BlockGraphon(np.full((3, 3), 1.5))


def test_graphon_from_theta_matches_block_model():
    # vertex-blocks of a balanced theta collapse onto the k-block graphon
    p = SbmParams(6, 2.0, eps=1.0, k=2)
    lab = sample_labels(p, seed=4, balanced=True)
    theta = edge_prob_matrix(p, lab)
    w_vertex = BlockGraphon(theta)
    w_true = sbm_graphon(p)
    assert gw_distance(w_vertex, w_true) <= 1e-12


def test_gw_constant_values():
    w = sbm_graphon(SbmParams(100, 4.0, eps=1.0, k=2))
    # blockwise integral: (eps d / n)^2 (k-1)/k^2 = 0.02^2 - hand computed
    assert gw_constant(w, 0.04) == pytest.approx(0.02, abs=1e-15)
    assert gw_constant(w, w.b[0, 1]) > 0
    const = BlockGraphon(np.full((4, 4), 0.25))
    assert gw_constant(const, 0.25) == 0.0
    # invariance under block permutation
    perm = np.array([1, 0])
    w2 = BlockGraphon(w.b[np.ix_(perm, perm)])
    assert gw_constant(w2, 0.04) == gw_constant(w, 0.04)


def test_gw_constant_quadrature_oracle():
    # 10^6-point midpoint quadrature of the L2 integral
    rng = np.random.default_rng(3)
    w = random_graphon(4, rng)
    c = 0.3
    grid = (np.arange(1000) + 0.5) / 1000
    blocks = np.minimum((grid * w.m).astype(int), w.m - 1)
    vals = w.b[np.ix_(blocks, blocks)]
    quad = np.mean((vals - c) ** 2)
    assert gw_constant(w, c) ** 2 == pytest.approx(quad, abs=1e-6)


def test_gw_distance_identity_and_symmetry():
    rng = np.random.default_rng(7)
    w1 = random_graphon(4, rng)
    w2 = random_graphon(4, rng)
    assert gw_distance(w1, w1) == 0.0
    assert gw_distance(w1, w2) == pytest.approx(
        gw_distance(w2, w1), abs=1e-12
    )


def test_gw_distance_constant_target_matches_closed_form():
    rng = np.random.default_rng(11)
    for m in (2, 3, 6):
        w = random_graphon(m, rng)
        const = BlockGraphon(np.full((1, 1), 0.4))
        assert gw_distance(w, const) == pytest.approx(
            gw_constant(w, 0.4), abs=1e-12
        )


def test_gw_distance_triangle_inequality():
    rng = np.random.default_rng(17)
    for trial in range(30):
        m = int(rng.integers(2, 6))
        w1, w2, w3 = (random_graphon(m, rng) for _ in range(3))
        d12 = gw_distance(w1, w2)
        d23 = gw_distance(w2, w3)
        d13 = gw_distance(w1, w3)
        assert d13 <= d12 + d23 + 1e-10


def test_gw_distance_refinement_and_errors():
    w1 = BlockGraphon(np.array([[0.2]]))
    w2 = sbm_graphon(SbmParams(100, 4.0, eps=1.0, k=2))
    # constant refines onto the 2-block grid
    d = gw_distance(w1, w2)
    assert d == pytest.approx(gw_constant(w2, 0.2), abs=1e-15)
    big = BlockGraphon(np.full((9, 9), 0.1))
    with pytest.raises(ValueError):
        gw_distance(big, big)
    with pytest.raises(ValueError):
        refine(sbm_graphon(SbmParams(100, 4.0, eps=0.0, k=3)), 4)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_refine_preserves_values(m, seed):
    rng = np.random.default_rng(seed)
    w = random_graphon(m, rng)
    fine = refine(w, 2 * m)
    assert np.array_equal(fine.b, np.repeat(np.repeat(w.b, 2, axis=0), 2, axis=1))


def test_graphon_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    w = random_graphon(5, rng)
    path = tmp_path / "w.txt"
    write_graphon(w, path)
    # the first line is m, then m rows of m values
    assert path.read_text().startswith("5\n")
    w2 = BlockGraphon(np.loadtxt(path, skiprows=1, ndmin=2))
    assert np.array_equal(w.b, w2.b)
    path2 = tmp_path / "w2.txt"
    write_graphon(w2, path2)
    assert path.read_bytes() == path2.read_bytes()
