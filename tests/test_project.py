import math

import numpy as np
import pytest

import sbmlab.project
from sbmlab.factored import Factored
from sbmlab.model import SbmParams, membership_matrix, sample_labels, sample_ssbm
from sbmlab.project import (
    ProjectionDidNotConverge,
    ProjectionInfeasibleError,
    ProjectionSpec,
    corr_preserving_projection,
    k_residuals,
    project_constraints,
)
from sbmlab.recover import membership_factors, recovery_rate, run_recovery
from sbmlab.seeds import stream_rng


def noisy_instance(n, sigma, seed, k=2):
    p = SbmParams(n, 10.0, k=k)
    lab = sample_labels(p, seed=seed, balanced=True)
    m_true = membership_matrix(lab)
    rng = stream_rng(seed, "proj-noise")
    g = rng.standard_normal((n, n))
    m0 = m_true + sigma * (g + g.T) / (2.0 * math.sqrt(n))
    return m_true, m0


def test_project_constraints_identities():
    spec = ProjectionSpec(delta=0.5, k=2, n=4)
    inside = np.diag([0.5, 0.5, -0.25, -0.25])
    # the box leaves an interior point alone
    assert np.array_equal(project_constraints(inside, spec)["box"], inside)
    # the spectraplex step is the identity on a matrix meeting the shift and the cap
    lab = sample_labels(SbmParams(4, 1.0, k=2), seed=0, balanced=True)
    m = membership_matrix(lab)
    assert np.allclose(project_constraints(m, spec)["spectraplex"], m, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectraplex_step_with_binding_cap(seed):
    # the trace cap binds (theta > 0): the output lies in the set, meets the
    # cap with equality, and satisfies the variational inequality of a projection
    n, spec = 30, ProjectionSpec(delta=0.5, k=3, n=30)
    shift, cap = 1.0 / (spec.k * spec.delta), spec.n / spec.delta
    rng = stream_rng(seed, "spectraplex")
    g = rng.standard_normal((n, n))
    y = 2.0 * (g + g.T) + 4.0 * np.eye(n)
    assert np.sum(np.maximum(np.linalg.eigvalsh(y + shift), 0.0)) > 2 * cap
    out = project_constraints(y, spec)["spectraplex"]
    res = k_residuals(out, spec)
    assert res["psd"] <= 1e-9 and res["trace"] <= 1e-9
    assert np.trace(out) + n * shift == pytest.approx(cap, rel=1e-12)
    for _ in range(20):
        h = rng.standard_normal((n, n))
        z = h @ h.T
        z *= rng.uniform(0.0, 1.0) * cap / np.trace(z)
        assert np.sum((y - out) * (z - shift - out)) <= 1e-9


def test_max_iters_must_be_positive():
    with pytest.raises(ValueError, match="max_iters"):
        ProjectionSpec(delta=0.5, k=2, n=4, max_iters=0)


def test_project_constraints_box_clamp():
    spec = ProjectionSpec(delta=0.5, k=2, n=2)
    m = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert project_constraints(m, spec)["box"][0, 1] == 2.0


def test_project_constraints_halfspace():
    spec = ProjectionSpec(delta=1.0, k=2, n=2)
    p = np.eye(2)
    m = np.zeros((2, 2))
    out = project_constraints(m, spec, halfspace=(p, 1.0))["halfspace"]
    # projection adds ((b - <P,m>)/|P|^2) P = 0.5 I
    assert np.allclose(out, 0.5 * np.eye(2), atol=1e-14)


def test_oracle_input_fixed_point():
    # input equal to the ground truth: minimum-norm point is delta * M_true,
    # so the rescaled output reproduces M_true and the rate is 1
    p = SbmParams(8, 2.0, k=2, delta=0.5)
    lab = sample_labels(p, seed=1, balanced=True)
    m_true = membership_matrix(lab)
    spec = ProjectionSpec(delta=0.5, k=2, n=8, norm_target=float(np.linalg.norm(m_true)))
    rep = corr_preserving_projection(m_true, spec)
    assert rep.iterations <= 5
    assert recovery_rate(rep.m_hat, m_true) >= 0.25
    assert np.allclose(rep.m_hat, m_true, atol=1e-7)
    assert max(k_residuals(rep.m_hat, spec).values()) <= 1e-6
    # n_norm hits the Cauchy-Schwarz floor delta * norm_target exactly
    assert rep.n_norm == pytest.approx(spec.delta * spec.target, rel=1e-9)


def test_feasible_minimizer_is_fixed_point():
    # feeding the minimum-norm point back in changes nothing
    p = SbmParams(12, 2.0, k=2, delta=0.4)
    lab = sample_labels(p, seed=3, balanced=True)
    m_true = membership_matrix(lab)
    spec = ProjectionSpec(delta=0.4, k=2, n=12, norm_target=float(np.linalg.norm(m_true)))
    first = corr_preserving_projection(m_true, spec)
    again = corr_preserving_projection(0.4 * m_true, spec)
    assert again.iterations <= 5
    assert np.allclose(first.m_hat, again.m_hat, atol=1e-7)


def test_noisy_certificate_and_feasibility():
    m_true, m0 = noisy_instance(200, sigma=26.0, seed=5)
    d0 = recovery_rate(m0, m_true)
    assert d0 >= 0.3
    spec = ProjectionSpec(
        delta=d0, k=2, n=200, tol=1e-7, max_iters=4000,
        norm_target=float(np.linalg.norm(m_true)),
    )
    rep = corr_preserving_projection(m0, spec)
    assert recovery_rate(rep.m_hat, m_true) >= d0 / 2 - 1e-3
    assert max(k_residuals(rep.m_hat, spec).values()) <= 1e-6
    assert rep.max_violation <= spec.tol
    # Cauchy-Schwarz floor: the halfspace forces |N| >= delta * norm_target
    assert rep.n_norm >= spec.delta * spec.target * (1 - 1e-6)
    # halfspace achieved: <M0, N> >= delta * norm_target * |M0|_F
    assert rep.halfspace_value >= spec.delta * spec.target * np.linalg.norm(m0) * (1 - 1e-6)


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
    vals, vecs = membership_factors(lab)
    spec = ProjectionSpec(delta=0.5, k=2, n=60, max_iters=3000)
    sweeps = []
    dykstra = sbmlab.project._dykstra
    monkeypatch.setattr(sbmlab.project, "_dykstra", lambda *a: sweeps.append(1) or dykstra(*a))
    with pytest.raises(ProjectionInfeasibleError) as err:
        corr_preserving_projection(Factored.from_eig(-vals, vecs) if factored else -m_true, spec)
    assert not sweeps
    assert err.value.b == spec.delta * spec.target
    assert err.value.bound < err.value.b


@pytest.mark.parametrize("seed", range(4))
def test_planted_and_oracle_inputs_pass_the_certificate(seed):
    # a planted graph's spectral estimate and the oracle's membership factors
    # are feasible inputs: neither form trips the infeasibility certificate
    p = SbmParams(400, 30.0, eps=0.6, k=2, eta=0.1, delta=0.1)
    graph, lab = sample_ssbm(p, seed)
    spec = ProjectionSpec(delta=p.delta, k=p.k, n=p.n)
    spectral = run_recovery(graph, p, method="spectral", seed=seed).estimate
    oracle = Factored.from_eig(*membership_factors(lab))
    for m0 in (spectral, oracle):
        for form in (m0, m0.dense()):
            norm = form.norm() if isinstance(form, Factored) else float(np.linalg.norm(form))
            sbmlab.project._certify_infeasible(form, norm, spec)


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
    spec = ProjectionSpec(delta=0.5, k=2, n=10)
    with pytest.raises(ValueError):
        corr_preserving_projection(np.zeros((10, 10)), spec)
    with pytest.raises(ValueError, match="nonzero"):
        corr_preserving_projection(Factored.from_eig(np.zeros(2), np.eye(10)[:, :2]), spec)


def test_factored_input_must_hold_eigenpairs():
    spec = ProjectionSpec(delta=0.5, k=2, n=10)
    v = np.eye(10)[:, :2]
    for m0 in (
        Factored(v, np.ones((2, 2))),
        Factored(v, np.eye(2), alpha=0.1),
        Factored.from_eig(np.ones(2), v).scaled(2.0),
    ):
        with pytest.raises(ValueError, match="eigenpairs"):
            corr_preserving_projection(m0, spec)


def dense_reference(m0, spec):
    """The dense state reached explicitly, whatever route the input would take."""
    state = sbmlab.project._DenseState(m0, float(np.linalg.norm(m0)), spec)
    return sbmlab.project._dykstra(state, spec)


def membership_instance():
    p = SbmParams(150, 4.0, k=3, delta=0.3)
    lab = sample_labels(p, seed=17, balanced=True)
    vals, vecs = membership_factors(lab)
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


def test_subspace_falls_back_to_dense(monkeypatch):
    # once adjoined axes widen the basis past the width rule, the factored
    # input is solved on the dense state
    vals, vecs, spec = spike_instance()
    monkeypatch.setattr(sbmlab.project, "_fits_subspace", lambda width, n: width <= 1 + len(vals))
    dense = dense_reference((vecs * vals) @ vecs.T, spec)
    fallback = corr_preserving_projection(Factored.from_eig(vals, vecs), spec)
    assert fallback.backend == "dense"
    assert fallback.iterations == dense.iterations
    assert np.max(np.abs(fallback.m_hat - dense.m_hat)) <= 1e-9


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
    # e_3 has residual below 1/2 against V, so it takes a second Gram-Schmidt
    # pass; the grown basis stays orthonormal and contains e_3
    n = 50
    rng = stream_rng(5, "near-axis")
    v = 0.05 * rng.standard_normal(n)
    v[3] = 1.0
    big_v = sbmlab.project._subspace_basis(v[:, None], n)
    e3 = np.eye(n)[3]
    assert np.linalg.norm(e3 - big_v @ (big_v.T @ e3)) < 0.5
    grown = sbmlab.project._extend_basis(big_v, [3], n)
    assert grown.shape[1] == big_v.shape[1] + 1
    assert np.max(np.abs(grown.T @ grown - np.eye(grown.shape[1]))) <= 1e-12
    assert np.linalg.norm(e3 - grown @ (grown.T @ e3)) <= 1e-12
    # an axis already inside the span adds no column
    inside = sbmlab.project._extend_basis(grown, [3], n)
    assert inside.shape == grown.shape


def test_sparse_planted_input_stays_on_subspace(monkeypatch):
    # a planted graph in the sparse regime whose spectral estimate adjoins 75
    # vertex axes: the solve stays on the subspace state, keeps in step with
    # the dense reference and ends at the sweep cap with the same residual
    p = SbmParams(400, 7.0, eps=0.9, k=2, delta=0.2)
    graph, lab = sample_ssbm(p, 23)
    m0 = run_recovery(graph, p, method="spectral", seed=23, labels=lab).estimate
    spec = ProjectionSpec(delta=p.delta, k=p.k, n=p.n, tol=1e-6, max_iters=200)
    with pytest.raises(ProjectionDidNotConverge) as dense:
        dense_reference(m0.dense(), spec)

    def no_dense(*args):
        raise AssertionError("the solve reached the dense state")

    monkeypatch.setattr(sbmlab.project, "_DenseState", no_dense)
    with pytest.raises(ProjectionDidNotConverge) as fast:
        corr_preserving_projection(m0, spec)
    assert str(fast.value) == str(dense.value)
