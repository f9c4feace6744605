import math
from dataclasses import replace

import numpy as np
import pytest

import sbmlab.project
from sbmlab.factored import Factored
from sbmlab.learn import centered, svd_theta
from sbmlab.model import SbmParams, membership_matrix, sample_labels, sample_ssbm
from sbmlab.project import (
    ProjectionDidNotConverge,
    ProjectionInfeasibleError,
    ProjectionSpec,
    _capped_shift,
    _project_spectraplex,
    corr_preserving_projection,
    k_residuals,
)
from sbmlab.recover import membership_factors, recovery_rate, run_recovery
from sbmlab.reduce import projection_spec
from sbmlab.seeds import stream_rng


def noisy_instance(n, sigma, seed, k=2):
    p = SbmParams(n, 10.0, k=k)
    lab = sample_labels(p, seed=seed, balanced=True)
    m_true = membership_matrix(lab)
    rng = stream_rng(seed, "proj-noise")
    g = rng.standard_normal((n, n))
    m0 = m_true + sigma * (g + g.T) / (2.0 * math.sqrt(n))
    return m_true, m0


def dense_box(n):
    """The dense state's box step, which bounds the unscaled N's entries by 1."""
    spec = ProjectionSpec(delta=0.5, k=2, n=n, tol=1e-8, max_iters=500)
    return sbmlab.project._DenseState(np.eye(n), 1.0, spec).box


def test_project_constraints_identities():
    # K(delta) at delta 0.5, k 2, n 4: shift 1/(k delta), cap n/delta
    inside = np.diag([0.5, 0.5, -0.25, -0.25])
    # the box of K', entries bounded by 1, leaves an interior point alone
    assert np.array_equal(dense_box(4)(inside), inside)
    # the spectraplex step is the identity on a matrix meeting the shift and the cap
    lab = sample_labels(SbmParams(4, 1.0, k=2), seed=0, balanced=True)
    m = membership_matrix(lab)
    assert np.allclose(_project_spectraplex(m, 1.0 / (2 * 0.5), 4 / 0.5), m, atol=1e-12)


def bisect_shift(w, cap):
    """theta with sum max(w - theta, 0) = cap, by bisection on [0, max w]."""
    lo, hi = 0.0, float(w.max())
    for _ in range(200):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if np.sum(np.maximum(w - mid, 0.0)) > cap else (lo, mid)
    return (lo + hi) / 2.0


@pytest.mark.parametrize("seed", range(5))
def test_capped_shift_matches_bisection(seed):
    # where the cap binds, theta solves sum max(w - theta, 0) = cap, tied
    # entries included; where it does not, theta is exactly 0.0
    rng = stream_rng(seed, "capped-shift")
    w = rng.standard_normal(12 + 5 * seed)
    tied = np.r_[w, w[:4], np.full(3, w.max())]
    for vec in (w, tied):
        positive = float(np.sum(np.maximum(vec, 0.0)))
        for cap in (0.05 * positive, 0.5 * positive, 0.99 * positive):
            theta = _capped_shift(vec, cap)
            assert theta > 0.0
            assert theta == pytest.approx(bisect_shift(vec, cap), rel=1e-12, abs=1e-14)
            assert np.sum(np.maximum(vec - theta, 0.0)) == pytest.approx(cap, rel=1e-12)
        for cap in (positive, 1.5 * positive):
            assert _capped_shift(vec, cap) == 0.0
    nonpositive = -np.abs(w)
    assert _capped_shift(nonpositive, 0.0) == 0.0
    assert _capped_shift(nonpositive, 1.0) == 0.0
    exact = np.array([3.0, 1.0, -2.0, 0.0])
    assert _capped_shift(exact, 4.0) == 0.0
    assert _capped_shift(exact, 3.0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectraplex_step_with_binding_cap(seed):
    # the trace cap binds (theta > 0): the output lies in the set, meets the
    # cap with equality, and satisfies the variational inequality of a projection
    n, spec = 30, ProjectionSpec(delta=0.5, k=3, n=30, tol=1e-8, max_iters=500)
    shift, cap = 1.0 / (spec.k * spec.delta), spec.n / spec.delta
    rng = stream_rng(seed, "spectraplex")
    g = rng.standard_normal((n, n))
    y = 2.0 * (g + g.T) + 4.0 * np.eye(n)
    assert np.sum(np.maximum(np.linalg.eigvalsh(y + shift), 0.0)) > 2 * cap
    out = _project_spectraplex(y, shift, cap)
    res = k_residuals(out, spec)
    assert res["psd"] <= 1e-9 and res["trace"] <= 1e-9
    assert np.trace(out) + n * shift == pytest.approx(cap, rel=1e-12)
    for _ in range(20):
        h = rng.standard_normal((n, n))
        z = h @ h.T
        z *= rng.uniform(0.0, 1.0) * cap / np.trace(z)
        assert np.sum((y - out) * (z - shift - out)) <= 1e-9


@pytest.mark.parametrize("size, binds", [(0.5, False), (200.0, True)])
def test_spectraplex_step_in_coordinates_matches_dense(size, binds):
    # one step on a point V C V^T, ones first in V: the subspace state places
    # J/k as n/k at [0, 0] and the dense state as 1/k on every entry, so the
    # step of C mapped back, V step(C) V^T, is the dense step of V C V^T
    n, k = 60, 3
    spec = ProjectionSpec(delta=0.5, k=k, n=n, tol=1e-8, max_iters=500)
    rng = stream_rng(7, "coordinates")
    m0 = Factored.from_eig(np.array([3.0, -2.0]), np.linalg.qr(rng.standard_normal((n, 2)))[0])
    big_v = sbmlab.project._subspace_basis(m0.v, [], n)
    sub = sbmlab.project._SubspaceState(m0, m0.norm(), big_v, [], spec)
    dense = sbmlab.project._DenseState(m0.dense(), m0.norm(), spec)
    g = rng.standard_normal((big_v.shape[1],) * 2)
    c = size * (g + g.T) / 2.0
    x = Factored(big_v, c).dense()
    want = _project_spectraplex(x, dense.shift, n)
    got = Factored(big_v, _project_spectraplex(c, sub.shift, n)).dense()
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.max(np.abs(want - x)) > 0.1  # the step moves the point
    assert (abs(np.trace(want) + n / k - n) <= 1e-9) == binds  # the trace cap binds


@pytest.mark.parametrize("k, n", [(2, 8), (2, 12), (2, 200), (3, 12), (3, 201), (4, 200)])
def test_target_is_the_balanced_membership_norm(k, n):
    # the projection's fixed target n sqrt(k-1)/k is |M_true|_F of balanced labels
    m_true = membership_matrix(sample_labels(SbmParams(n, 2.0, k=k), seed=n, balanced=True))
    target = projection_spec(SbmParams(n, 2.0, k=k)).target
    if k == 2:
        assert target == float(np.linalg.norm(m_true))
    else:
        assert target == pytest.approx(float(np.linalg.norm(m_true)), rel=1e-12)


def test_max_iters_must_be_positive():
    with pytest.raises(ValueError, match="max_iters"):
        ProjectionSpec(delta=0.5, k=2, n=4, tol=1e-8, max_iters=0)


def test_spec_needs_two_communities():
    with pytest.raises(ValueError, match="k >= 2"):
        ProjectionSpec(delta=0.5, k=1, n=4, tol=1e-8, max_iters=500)


def test_project_constraints_box_clamp():
    # the box of K' bounds entries by 1 and clamps each entry on its own
    m = np.array([[0.5, 3.0], [-3.0, 0.0]])
    assert np.array_equal(dense_box(2)(m), [[0.5, 1.0], [-1.0, 0.0]])


def test_oracle_input_fixed_point():
    # input equal to the ground truth: minimum-norm point is delta * M_true,
    # so the rescaled output reproduces M_true and the rate is 1
    p = SbmParams(8, 2.0, k=2, delta=0.5)
    lab = sample_labels(p, seed=1, balanced=True)
    m_true = membership_matrix(lab)
    spec = ProjectionSpec(delta=0.5, k=2, n=8, tol=1e-8, max_iters=500)
    rep = corr_preserving_projection(m_true, spec)
    assert rep.iterations <= 5
    assert recovery_rate(rep.m_hat, m_true) >= 0.25
    assert np.allclose(rep.m_hat, m_true, atol=1e-7)
    assert max(k_residuals(rep.m_hat, spec).values()) <= 1e-6
    # n_norm hits the Cauchy-Schwarz floor delta * target exactly
    assert rep.n_norm == pytest.approx(spec.delta * spec.target, rel=1e-9)


def test_feasible_minimizer_is_fixed_point():
    # feeding the minimum-norm point back in changes nothing
    p = SbmParams(12, 2.0, k=2, delta=0.4)
    lab = sample_labels(p, seed=3, balanced=True)
    m_true = membership_matrix(lab)
    spec = ProjectionSpec(delta=0.4, k=2, n=12, tol=1e-8, max_iters=500)
    first = corr_preserving_projection(m_true, spec)
    again = corr_preserving_projection(0.4 * m_true, spec)
    assert again.iterations <= 5
    assert np.allclose(first.m_hat, again.m_hat, atol=1e-7)


def test_noisy_certificate_and_feasibility():
    m_true, m0 = noisy_instance(200, sigma=26.0, seed=5)
    d0 = recovery_rate(m0, m_true)
    assert d0 >= 0.3
    spec = ProjectionSpec(delta=d0, k=2, n=200, tol=1e-7, max_iters=4000)
    rep = corr_preserving_projection(m0, spec)
    assert recovery_rate(rep.m_hat, m_true) >= d0 / 2 - 1e-3
    assert max(k_residuals(rep.m_hat, spec).values()) <= 1e-6
    assert rep.max_violation <= spec.tol
    # Cauchy-Schwarz floor: the halfspace forces |N| >= delta * target
    assert rep.n_norm >= spec.delta * spec.target * (1 - 1e-6)
    # halfspace achieved: <M0, N> >= delta * target * |M0|_F, N = M_hat |N|_F / target
    n_mat = rep.m_hat * (rep.n_norm / spec.target)
    assert np.sum(m0 * n_mat) >= spec.delta * spec.target * np.linalg.norm(m0) * (1 - 1e-6)


def test_scaling_invariance():
    m_true, m0 = noisy_instance(80, sigma=10.0, seed=7)
    spec = ProjectionSpec(delta=0.4, k=2, n=80, tol=1e-9, max_iters=4000)
    rep1 = corr_preserving_projection(m0, spec)
    rep2 = corr_preserving_projection(3.7 * m0, spec)
    assert np.max(np.abs(rep1.m_hat - rep2.m_hat)) <= 1e-8
    # the symmetric input is full rank, too wide for the subspace state
    assert np.array_equal(m0, m0.T)
    assert rep1.backend == "dense" and rep1.width == spec.n


def test_norm_converges_monotonically_with_tol():
    # Dykstra from zero approaches the minimum-norm point from below, so
    # tightening the tolerance can only grow |N|_F (up to roundoff)
    m_true, m0 = noisy_instance(100, sigma=12.0, seed=9)
    norms = []
    for tol in (1e-4, 1e-6, 1e-8):
        spec = ProjectionSpec(delta=0.4, k=2, n=100, tol=tol, max_iters=6000)
        norms.append(corr_preserving_projection(m0, spec).n_norm)
    assert norms[0] <= norms[1] + 1e-9
    assert norms[1] <= norms[2] + 1e-9
    assert norms[2] - norms[0] <= 1e-3 * norms[2]


@pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
def test_infeasible_halfspace_detected(factored, monkeypatch):
    # anti-correlated input: no psd-shifted matrix can meet the constraint, and
    # the certificate proves it before any sweep runs
    p = SbmParams(60, 2.0, k=2, delta=0.5)
    lab = sample_labels(p, seed=11, balanced=True)
    m_true = membership_matrix(lab)
    spec = ProjectionSpec(delta=0.5, k=2, n=60, tol=1e-8, max_iters=3000)
    sweeps = []
    dykstra = sbmlab.project._dykstra
    monkeypatch.setattr(sbmlab.project, "_dykstra", lambda *a: sweeps.append(1) or dykstra(*a))
    with pytest.raises(ProjectionInfeasibleError) as err:
        corr_preserving_projection(membership_factors(lab).scaled(-1.0) if factored else -m_true, spec)
    assert not sweeps
    assert err.value.b == spec.delta * spec.target
    assert err.value.bound < err.value.b


def test_certificate_bound_agrees_across_input_forms():
    # an anti-correlated input with unequal blocks (so <U, J> != 0 and the
    # bound is off zero) gets one certificate as a dense array and as eigenpairs
    p = SbmParams(60, 2.0, k=3, delta=0.5)
    lab = sample_labels(p, seed=11)
    spec = ProjectionSpec(delta=0.5, k=3, n=60, tol=1e-8, max_iters=500)
    bounds = []
    for m0 in (-membership_matrix(lab), membership_factors(lab).scaled(-1.0)):
        with pytest.raises(ProjectionInfeasibleError) as err:
            corr_preserving_projection(m0, spec)
        bounds.append(err.value.bound)
    assert bounds[1] > 0.0
    assert bounds[0] == pytest.approx(bounds[1], rel=1e-12)


def test_nonsymmetric_dense_input_rejected():
    m0 = np.diag([3.0, 2.0, 1.0, 0.5])
    m0[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        corr_preserving_projection(m0, ProjectionSpec(delta=0.5, k=2, n=4, tol=1e-8, max_iters=500))


class _SweepsReached(Exception):
    pass


@pytest.mark.parametrize("seed", range(4))
def test_planted_and_oracle_inputs_pass_the_certificate(seed, monkeypatch):
    # a planted graph's spectral estimate and the oracle's membership factors
    # are feasible inputs: neither form trips the infeasibility certificate,
    # so both reach the sweeps
    p = SbmParams(400, 30.0, eps=0.6, k=2, eta=0.1, delta=0.1)
    graph, lab = sample_ssbm(p, seed)
    spec = ProjectionSpec(delta=p.delta, k=p.k, n=p.n, tol=1e-8, max_iters=500)
    spectral = run_recovery(graph, p, method="spectral", seed=seed).estimate
    oracle = membership_factors(lab)

    def reached(*args):
        raise _SweepsReached

    monkeypatch.setattr(sbmlab.project, "_dykstra", reached)
    for m0 in (spectral, oracle):
        for form in (m0, m0.dense()):
            with pytest.raises(_SweepsReached):
                corr_preserving_projection(form, spec)


@pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
def test_nonconvergence_raises(factored):
    m_true, m0 = noisy_instance(100, sigma=20.0, seed=13)
    if factored:  # the rank-10 truncation runs on the subspace state without restarts
        vals, vecs = np.linalg.eigh(m0)
        top = np.argsort(-np.abs(vals))[:10]
        m0 = Factored.from_eig(vals[top], vecs[:, top])
    spec = ProjectionSpec(delta=0.35, k=2, n=100, tol=1e-10, max_iters=2)
    with pytest.raises(ProjectionDidNotConverge):
        corr_preserving_projection(m0, spec)


def test_zero_input_rejected():
    spec = ProjectionSpec(delta=0.5, k=2, n=10, tol=1e-8, max_iters=500)
    with pytest.raises(ValueError):
        corr_preserving_projection(np.zeros((10, 10)), spec)
    with pytest.raises(ValueError, match="nonzero"):
        corr_preserving_projection(Factored.from_eig(np.zeros(2), np.eye(10)[:, :2]), spec)


def test_factored_input_must_hold_eigenpairs():
    spec = ProjectionSpec(delta=0.5, k=2, n=10, tol=1e-8, max_iters=500)
    v = np.eye(10)[:, :2]
    with pytest.raises(ValueError, match="eigenpairs"):
        corr_preserving_projection(Factored(v, np.ones((2, 2))), spec)
    # scaled eigenpairs are eigenpairs, and the projection ignores the scale
    oracle = membership_factors(sample_labels(SbmParams(10, 1.0, k=2), seed=0, balanced=True))
    one = corr_preserving_projection(oracle, spec)
    two = corr_preserving_projection(oracle.scaled(2.0), spec)
    assert np.max(np.abs(one.m_hat - two.m_hat)) <= 1e-9


def dense_reference(m0, spec):
    """The dense state reached explicitly, whatever route the input would take."""
    state = sbmlab.project._DenseState(m0, float(np.linalg.norm(m0)), spec)
    return sbmlab.project._dykstra(state, spec)


def assert_in_span(dense, big_v, spec):
    """The dense reference's unscaled solution N equals V V^T N V V^T.

    The subspace state represents N as V C V^T with no complementary term;
    the dense solve, which has no basis, lands in that family too."""
    n_mat = dense.m_hat * dense.n_norm / spec.target
    proj = big_v @ (big_v.T @ n_mat @ big_v) @ big_v.T
    assert np.linalg.norm(n_mat - proj) <= 1e-12 * np.linalg.norm(n_mat)


def membership_instance():
    p = SbmParams(150, 4.0, k=3, delta=0.3)
    lab = sample_labels(p, seed=17, balanced=True)
    m = membership_factors(lab)
    vals, vecs = np.diag(m.c), m.v
    spec = ProjectionSpec(delta=0.3, k=3, n=150, tol=1e-9, max_iters=4000)
    return membership_matrix(lab), vals, vecs, spec


def truncation_instance():
    """Rank-10 truncation of a noisy input; the trace cap binds at the minimizer."""
    _, m0 = noisy_instance(100, sigma=20.0, seed=13)
    vals, vecs = np.linalg.eigh(m0)
    top = np.argsort(-np.abs(vals))[:10]
    vals, vecs = vals[top], vecs[:, top]
    spec = ProjectionSpec(delta=0.5, k=2, n=100, tol=1e-9, max_iters=4000)
    return (vecs * vals) @ vecs.T, vals, vecs, spec


@pytest.mark.parametrize(
    "instance", [membership_instance, truncation_instance], ids=["membership", "truncation"]
)
def test_subspace_matches_dense_low_rank(instance):
    # low-rank input solved both ways gives the same matrix
    m0, vals, vecs, spec = instance()
    dense = dense_reference(m0, spec)
    fast = corr_preserving_projection(Factored.from_eig(vals, vecs), spec)
    assert dense.backend == "dense" and fast.backend == "subspace"
    assert np.max(np.abs(dense.m_hat - fast.m_hat)) <= 1e-7
    assert dense.iterations == fast.iterations
    # the trace cap Tr(N + J/k) <= n binds on the truncation only
    n_mat = fast.m_hat * fast.n_norm / spec.target
    assert (np.trace(n_mat) + spec.n / spec.k > spec.n - 1e-6) == (instance is truncation_instance)
    assert_in_span(dense, fast.estimate.v, spec)


def spike_instance():
    """Rank-2 input whose localized spike makes the entry bound bind (n = 120)."""
    rng = stream_rng(3, "adversarial")
    n = 120
    v1 = rng.standard_normal(n)
    v1 /= np.linalg.norm(v1)
    spike = np.zeros(n)
    spike[7], spike[23] = 0.9, -0.43
    v2 = spike + 0.1 * rng.standard_normal(n)
    v2 -= v1 * (v1 @ v2)
    v2 /= np.linalg.norm(v2)
    vals = np.array([9.0, 6.0])
    vecs = np.column_stack([v1, v2])
    # b = delta * target = 0.35 * (n / 2)
    return vals, vecs, ProjectionSpec(delta=0.35, k=2, n=n, tol=1e-8, max_iters=8000)


def test_subspace_matches_dense_with_active_entry_bound():
    # localized spike forces the entry bound to bind; solvers must agree
    vals, vecs, spec = spike_instance()
    dense = dense_reference((vecs * vals) @ vecs.T, spec)
    fast = corr_preserving_projection(Factored.from_eig(vals, vecs), spec)
    assert dense.backend == "dense" and fast.backend == "subspace"
    # bound is genuinely active on the unscaled solution N
    assert np.abs(dense.m_hat).max() * dense.n_norm / spec.target > 1.0 - 1e-6
    assert np.max(np.abs(dense.m_hat - fast.m_hat)) <= 1e-9
    assert dense.iterations == fast.iterations
    assert_in_span(dense, fast.estimate.v, spec)


def test_subspace_falls_back_to_dense(monkeypatch):
    # rank n/2 - 1 fills the basis to width n/2; the spike then needs vertex
    # axes, the grown basis fails the width rule, and the factored input is
    # solved on the dense state, in step with the dense reference
    vals, vecs, spec = spike_instance()
    n = spec.n
    pad = stream_rng(2, "padding").standard_normal((n, n // 2 - 1 - len(vals)))
    vecs = np.linalg.qr(np.column_stack([vecs, pad]))[0]
    vals = np.r_[vals, 0.5 * np.where(np.arange(pad.shape[1]) % 2, -1.0, 1.0)]
    widths = []
    state = sbmlab.project._SubspaceState

    def recording_state(m0, norm_m0, big_v, *rest):
        widths.append(big_v.shape[1])
        return state(m0, norm_m0, big_v, *rest)

    monkeypatch.setattr(sbmlab.project, "_SubspaceState", recording_state)
    dense = dense_reference((vecs * vals) @ vecs.T, spec)
    fallback = corr_preserving_projection(Factored.from_eig(vals, vecs), spec)
    assert widths == [n // 2]
    assert fallback.backend == "dense"
    assert fallback.iterations == dense.iterations
    assert np.max(np.abs(fallback.m_hat - dense.m_hat)) <= 1e-9


def test_width_does_not_depend_on_the_eigenbasis():
    # M0's eigenvectors span the vertex axes 7 and 23, which the entry bound
    # adjoins.  A second eigenbasis of the same M0, accurate to about 3e-13
    # (a dense eigh's accuracy at n = 1000), leaves those axes that far
    # outside its span; both bases give the same width, sweeps and estimate
    vals, vecs, spec = spike_instance()
    n = spec.n
    exact = np.linalg.qr(np.column_stack([vecs, np.eye(n)[:, [7, 23]]]))[0]
    vals = np.r_[vals, 3.0, 1.0]
    noise = stream_rng(1, "basis-noise").standard_normal(exact.shape)
    rounded = np.linalg.qr(exact + 3e-14 * noise)[0]
    a = corr_preserving_projection(Factored.from_eig(vals, exact), spec)
    b = corr_preserving_projection(Factored.from_eig(vals, rounded), spec)
    assert a.backend == b.backend == "subspace"
    assert a.width == b.width
    assert a.iterations == b.iterations
    assert np.max(np.abs(a.m_hat - b.m_hat)) <= 1e-9


@pytest.mark.parametrize(
    "instance",
    [membership_instance, truncation_instance, spike_instance],
    ids=["membership", "truncation", "spike"],
)
def test_symmetric_low_rank_dense_input_runs_on_subspace(instance):
    # an exactly symmetric dense input of low rank is eigendecomposed and
    # solved on the subspace state (the spike adjoins vertex axes), in step
    # with the dense reference
    *_, vals, vecs, spec = instance()
    m0 = Factored.from_eig(vals, vecs).dense()
    fast = corr_preserving_projection(m0, spec)
    dense = dense_reference(m0, spec)
    assert fast.backend == "subspace" and 1 + len(vals) <= fast.width <= spec.n // 2
    assert np.max(np.abs(fast.m_hat - dense.m_hat)) <= 1e-9
    assert fast.iterations == dense.iterations


def test_extend_basis_adjoins_an_axis_near_the_span():
    # e_3 has residual below 1/2 against the eigenvector's basis; adjoined in
    # the same SVD, the basis stays orthonormal and contains e_3
    n = 50
    rng = stream_rng(5, "near-axis")
    v = 0.05 * rng.standard_normal(n)
    v[3] = 1.0
    big_v = sbmlab.project._subspace_basis(v[:, None], [], n)
    e3 = np.eye(n)[3]
    assert np.linalg.norm(e3 - big_v @ (big_v.T @ e3)) < 0.5
    grown = sbmlab.project._subspace_basis(v[:, None], [3], n)
    assert grown.shape[1] == big_v.shape[1] + 1
    assert np.max(np.abs(grown.T @ grown - np.eye(grown.shape[1]))) <= 1e-12
    assert np.linalg.norm(e3 - grown @ (grown.T @ e3)) <= 1e-12
    # an axis already inside the span adds no column
    inside = sbmlab.project._subspace_basis(grown, [3], n)
    assert inside.shape == grown.shape


def test_subspace_box_clips_axis_pairs_like_the_dense_box():
    # every entry above the bound lies between adjoined axes: the box step in
    # coordinates equals the dense clip; an entry off the axes asks for them
    vals, vecs, spec = spike_instance()
    m0 = Factored.from_eig(vals, vecs)
    n = spec.n
    big_v = sbmlab.project._subspace_basis(vecs, [7, 23], n)
    small = 0.05 * stream_rng(4, "box").standard_normal((big_v.shape[1],) * 2)
    spikes = np.zeros((n, n))
    spikes[7, 7], spikes[7, 23], spikes[23, 7], spikes[23, 23] = -1.5, 2.0, 2.0, 1.2
    y = big_v.T @ spikes @ big_v + small + small.T
    before = Factored(big_v, y).dense()
    assert np.abs(before).max() > 1.5
    state = sbmlab.project._SubspaceState(m0, float(np.linalg.norm(vals)), big_v, [7, 23], spec)
    x = state.box(y)
    assert np.max(np.abs(Factored(big_v, x).dense() - np.clip(before, -1.0, 1.0))) <= 1e-12
    state = sbmlab.project._SubspaceState(m0, float(np.linalg.norm(vals)), big_v, [7], spec)
    with pytest.raises(sbmlab.project._ExtendNeeded) as grow:
        state.box(y)
    assert grow.value.vertices == [23]


def sparse_planted_instance():
    """A sparse-regime planted graph's spectral estimate (n = 400, d = 7) and its spec."""
    p = SbmParams(400, 7.0, eps=0.9, k=2, delta=0.2)
    graph, lab = sample_ssbm(p, 23)
    m0 = run_recovery(graph, p, method="spectral", seed=23, labels=lab).estimate
    return m0, ProjectionSpec(delta=p.delta, k=p.k, n=p.n, tol=1e-6, max_iters=200)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "svd-theta-400", "axis-in-span-400", "sparse-planted-400"])
def test_box_violations_match_a_dense_scan(seed, monkeypatch):
    # the certified pair scan over a basis with adjoined axes finds every
    # entry of V C V^T above 1, on and off the axes, with its value and the
    # largest excess.  The learning route's input at n = 400 is theta_hat -
    # (d/n) J of the rank-2 learner.  An eigenvector along a vertex axis puts
    # a basis row of norm 1 off the adjoined axes, so every row passes the
    # row bound at the larger sizes and the pair bound alone narrows the
    # columns.  The sparse planted input's solve adjoins 75 axes, so more than
    # 64 rows of widely different norms are scanned against one column set
    axes = [4, 31, 77]
    if seed == "sparse-planted-400":
        m0, spec = sparse_planted_instance()
        states = []
        state = sbmlab.project._SubspaceState
        monkeypatch.setattr(sbmlab.project, "_SubspaceState", lambda *a: states.append(state(*a)) or states[-1])
        with pytest.raises(ProjectionDidNotConverge):
            corr_preserving_projection(m0, replace(spec, max_iters=20))
        axes = states[-1].axes.tolist()
        assert len(axes) == 75
        monkeypatch.undo()
        rng = stream_rng(6, "row-scan")
    elif seed == "svd-theta-400":
        p = SbmParams(400, 50.0, eps=0.6, k=2)
        m0 = centered(svd_theta(sample_ssbm(p, 21)[0], p.k), p.d / p.n)
        rng = stream_rng(4, "row-scan")
    elif seed == "axis-in-span-400":
        rng = stream_rng(5, "row-scan")
        vecs = np.linalg.qr(np.column_stack([np.eye(400)[9], rng.standard_normal((400, 2))]))[0]
        m0 = Factored.from_eig(np.array([3.0, -2.0, 1.0]), vecs)
    else:
        rng = stream_rng(seed, "row-scan")
        m0 = Factored.from_eig(np.array([3.0, 2.0, 1.0]), np.linalg.qr(rng.standard_normal((90, 3)))[0])
    n = len(m0.v)
    big_v = sbmlab.project._subspace_basis(m0.v, axes, n)
    spec = ProjectionSpec(delta=0.5, k=2, n=n, tol=1e-8, max_iters=500)
    state = sbmlab.project._SubspaceState(m0, float(np.linalg.norm(np.diag(m0.c))), big_v, axes, spec)
    if seed == "axis-in-span-400":
        assert state.mv_free >= 1.0 - 1e-12
    g = rng.standard_normal((big_v.shape[1],) * 2)
    found = 0
    for size in (0.2, 2.0, 8.0, 30.0):
        c = size * (g + g.T) / 2.0
        dense = Factored(big_v, c).dense()
        viol, pairs, vals_over = state.box_violations(c)
        over = np.abs(dense) > 1.0
        if not over.any():
            assert (viol, pairs, vals_over) == (0.0, None, None)
            continue
        found += 1
        assert viol == pytest.approx(float(np.abs(dense).max()) - 1.0, rel=1e-12, abs=1e-13)
        # a pair (i, j) with j an axis may be reported from row j only
        found_pairs = {(min(i, j), max(i, j)) for i, j in zip(*pairs)}
        assert found_pairs == set(zip(*np.nonzero(np.triu(over))))
        assert np.allclose(vals_over, dense[pairs], rtol=1e-12, atol=0)
    assert found == 3  # sizes 8 and 30 put entries over the bound off the axes too


def test_sparse_planted_input_stays_on_subspace(monkeypatch):
    # a planted graph in the sparse regime whose spectral estimate adjoins 75
    # vertex axes: the solve stays on the subspace state, keeps in step with
    # the dense reference and ends at the sweep cap with the same residual
    m0, spec = sparse_planted_instance()
    with pytest.raises(ProjectionDidNotConverge) as dense:
        dense_reference(m0.dense(), spec)

    def no_dense(*args):
        raise AssertionError("the solve reached the dense state")

    monkeypatch.setattr(sbmlab.project, "_DenseState", no_dense)
    with pytest.raises(ProjectionDidNotConverge) as fast:
        corr_preserving_projection(m0, spec)
    assert str(fast.value) == str(dense.value)
