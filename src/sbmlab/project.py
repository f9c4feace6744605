"""Correlation-preserving projection onto a convex set of bounded matrices.

Given a nonzero estimate M0 and a target rate delta, the projector finds the
minimum-Frobenius-norm symmetric matrix N subject to

    N in K' = { |N_ij| <= 1,  N + (1/k) J >= 0 (psd),  Tr(N) <= n - n/k },
    <M0 / |M0|_F, N>  >=  delta * target,

and returns M_hat = (target / |N|_F) N, where target = n sqrt(k-1)/k is the
Frobenius norm of a balanced membership matrix.  When M0 has correlation at
least delta with a member Y of K' scaled to target, the output keeps at
least half that correlation with Y, and |N|_F >= delta * target holds by
Cauchy-Schwarz.  The rescaled output lands in the 1/delta-inflated set K.

The search runs Dykstra's alternating projections over three sets in one
loop, `_dykstra`: the halfspace, the entry box, and the spectraplex
{M = N + J/k psd, Tr M <= n}, projected exactly by one eigendecomposition and
a shift theta of its eigenvalues onto {w >= 0, sum w <= n}.  The loop runs
the halfspace step, y + (b - <U, y>) U when <U, y> < b, and the spectraplex
step, `_project_spectraplex`, the same on both states: each state holds U and
J/k in its own coordinates.  The loop also takes |N|_F = |x|_F and rescales;
the state supplies the box step and maps the rescaled point to its estimate.
A solve ends converged, certified infeasible before any sweep, or at the
sweep cap.

Every input becomes eigenpairs first: the pipelines hand over a `Factored`
that holds them, and a dense M0, which must equal its transpose, goes
through one `eigh` with eigenvalues |w| <= n eps max|w| dropped.
The certificate reads them: every N in K' has
<U, N> <= n max(lambda_max(U), 0) - <U, J>/k for U = M0 / |M0|_F, so a bound
below b = delta * target proves that no point of K' meets the halfspace.

The loop runs over one of two states.  The subspace state holds M0 as a
`Factored` of its eigenpairs: every iterate is V C V^T for the basis V of
span{all-ones, eigenvectors of M0, adjoined vertex axes}, so it holds the
r x r coordinates C, a sweep costs O(n r^2), and its report carries the
rescaled `Factored` estimate V C V^T that the pipeline scores without an
n x n array.  No iterate leaves the span: Dykstra starts at zero, the halfspace
and box steps move only C, and the spectraplex shift theta is never
negative, so the complementary block I - V V^T, at eigenvalue 0, stays at
max(0 - theta, 0) = 0.  One rule builds the basis V (`_subspace_basis`): the
all-ones direction first, then one SVD of the eigenvectors and the adjoined
axes e_v, projected off it, keeping singular values above 1e-12 of the
largest, so an axis already in the span adds no column.  Entry-bound
violations are found by a certified pair scan: |X_ij| <= |t_i| |v_j| for
t = V C and the basis rows v_j, so a row is scanned only when it is an
adjoined axis or its bound against the largest basis row passes 1, and only
against the vertices whose bound with the largest scanned row passes 1, in
one product.  A violation off the adjoined axes raises `_ExtendNeeded`, and
the solve restarts with those axes adjoined.
Once every violation lies in axes x axes, the box clips in one product,
C - V_A^T E V_A, for E the symmetric matrix of excesses over the bound and
V_A the axes' rows of V.  The dense state holds X as an n x n array (one
eigendecomposition per sweep) and remains the reference.  The width rule is
checked once on every basis built: the subspace state runs while its width r
satisfies 2 r <= n, past which an O(n r^2) sweep no longer undercuts an
n x n eigendecomposition; the dense state then solves the matrix rebuilt
from the eigenpairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .factored import Factored


class ProjectionInfeasibleError(RuntimeError):
    """Certificate: <U, N> <= bound < b on all of K', so no point meets the halfspace."""

    def __init__(self, bound: float, b: float):
        super().__init__(f"certified infeasible: <U, N> <= {bound:.6e} < b = {b:.6e} on K'")
        self.bound, self.b = bound, b


class ProjectionDidNotConverge(RuntimeError):
    """Residuals still above tolerance after the sweep cap."""


@dataclass(frozen=True)
class ProjectionSpec:
    """Constraint-set parameters for the projection.

    delta: target rate (entry bound 1/delta, psd shift 1/(k delta), trace cap
    n/delta); k >= 2: community count; `target` is n sqrt(k-1)/k, the Frobenius
    norm of the ground-truth membership matrix for balanced labels.
    A solve runs Dykstra over halfspace, box and spectraplex until residuals
    fall below tol; it raises at max_iters sweeps, or before any when infeasible.
    """

    delta: float
    k: int
    n: int
    tol: float
    max_iters: int

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.k < 2:
            raise ValueError(f"need k >= 2 communities, got k={self.k}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @property
    def target(self) -> float:
        return self.n * math.sqrt(self.k - 1) / self.k


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    """Solver output: the rescaled estimate and how the solve ended.

    `estimate` is factored on the subspace backend and dense on the dense one;
    `width` is the basis width on the subspace backend and n on the dense one.
    """

    estimate: np.ndarray | Factored
    iterations: int
    max_violation: float  # the last sweep's larger residual, box or halfspace
    n_norm: float  # |N|_F of the pre-rescaling solution
    backend: str
    width: int

    @cached_property
    def m_hat(self) -> np.ndarray:
        """The rescaled estimate as a dense n x n matrix (built on first read)."""
        if isinstance(self.estimate, Factored):
            return self.estimate.dense()
        return self.estimate


# ---------------------------------------------------------------------------
# closed-form projections onto the individual constraint sets


def _capped_shift(w: np.ndarray, cap: float) -> float:
    """theta >= 0 with max(w - theta, 0) the projection of w onto {x >= 0, sum x <= cap}.

    theta is 0 unless the cap binds."""
    if float(np.sum(np.maximum(w, 0.0))) <= cap:
        return 0.0
    ws = w[np.argsort(-w)]
    thetas = (np.cumsum(ws) - cap) / np.arange(1, ws.size + 1)
    return float(thetas[np.flatnonzero(ws > thetas)[-1]])


def _project_spectraplex(y: np.ndarray, shift, cap: float) -> np.ndarray:
    """Project onto {Y : Y + S psd, Tr(Y + S) <= cap}, S the state's J/k shift.

    B = Y + S = q diag(w) q^T goes to q diag(max(w - theta, 0)) q^T - S,
    symmetrized.  S is the scalar 1/k on the dense state (added to every
    entry) and the matrix (n/k) e_0 e_0^T on the subspace state.
    """
    w, q = np.linalg.eigh(y + shift)
    theta = _capped_shift(w, cap)
    out = (q * np.maximum(w - theta, 0.0)) @ q.T - shift
    return (out + out.T) / 2.0


def k_residuals(m: np.ndarray, spec: ProjectionSpec) -> dict[str, float]:
    """Absolute violations of m against the certificate set K(delta)."""
    n, k, d = spec.n, spec.k, spec.delta
    box = max(0.0, float(np.max(np.abs(m))) - 1.0 / d)
    w = np.linalg.eigvalsh(m + 1.0 / (k * d))
    psd = max(0.0, -float(w[0]))
    trace = max(0.0, (float(np.trace(m)) + n / (k * d) - n / d) / n)
    return {"box": box, "psd": psd, "trace": trace}


# ---------------------------------------------------------------------------
# Dykstra's alternating projections: one loop over a dense or a subspace state


class _ExtendNeeded(Exception):
    def __init__(self, vertices):
        self.vertices = vertices


def _dykstra(state, spec: ProjectionSpec) -> ProjectionReport:
    """Dykstra from zero over halfspace, box and spectraplex, then the report.

    A point is a width x width array (X itself on the dense state, C on the
    subspace state, where |N|_F = |C|_F), and the state's `u` is U = M0/|M0|_F
    in the same coordinates, |u|_F = 1, so the halfspace step is
    y + (b - <u, y>) u whenever <u, y> < b.  The spectraplex step is
    `_project_spectraplex` with the state's `shift`, J/k in its coordinates.
    The state supplies the box step, the box residual, and the map from the
    rescaled point to its estimate; the residuals are the box's and the
    halfspace's (the exact last step satisfies the spectraplex).
    """
    tol, u, b, shift = spec.tol, state.u, spec.delta * spec.target, state.shift

    def halfspace(y):
        val = float(np.sum(u * y))
        return y + (b - val) * u if val < b else y

    def spectraplex(y):
        return _project_spectraplex(y, shift, spec.n)

    steps = (halfspace, state.box, spectraplex)
    x = np.zeros((state.width,) * 2)
    corr = [np.zeros_like(x) for _ in steps]
    for sweep in range(1, spec.max_iters + 1):
        x_prev = x
        for i, project in enumerate(steps):
            y = x + corr[i]
            x = project(y)
            corr[i] = y - x
        residuals = (state.box_residual(x), max(0.0, (b - float(np.sum(u * x))) / max(b, 1.0)))
        if max(residuals) <= tol and np.linalg.norm(x - x_prev) <= 10 * tol * max(1.0, np.linalg.norm(x)):
            break
    else:
        raise ProjectionDidNotConverge(f"max residual {max(residuals):.3e} after {spec.max_iters} sweeps")
    n_norm = float(np.linalg.norm(x))
    if n_norm <= 0.0:
        raise ProjectionDidNotConverge("solver returned the zero matrix")
    return ProjectionReport(
        estimate=state.estimate((spec.target / n_norm) * x),
        iterations=sweep,
        max_violation=max(residuals),
        n_norm=n_norm,
        backend=state.backend,
        width=state.width,
    )


class _DenseState:
    """The reference state: X as a dense n x n array."""

    backend = "dense"

    def __init__(self, m0: np.ndarray, norm_m0: float, spec: ProjectionSpec):
        self.u = m0 / norm_m0
        self.width = spec.n
        self.shift = 1.0 / spec.k

    def box(self, y):
        return np.clip(y, -1.0, 1.0)

    def box_residual(self, x):
        return max(0.0, float(np.max(np.abs(x))) - 1.0)

    def estimate(self, x):
        return x


def _subspace_basis(vecs, axes, n):
    """Orthonormal [ones/sqrt(n) | range of (vecs | e_axes) off the ones], ones exactly first.

    One SVD with the relative cutoff 1e-12 max(s_0, 1) spans eigenvectors and
    vertex axes alike; an axis already in the span adds no column.
    """
    v0 = np.full(n, 1.0 / math.sqrt(n))
    if len(axes):
        e_axes = np.zeros((n, len(axes)))
        e_axes[axes, np.arange(len(axes))] = 1.0
        vecs = np.column_stack([vecs, e_axes])
    w = vecs - np.outer(v0, v0 @ vecs)
    uu, ss, _ = np.linalg.svd(w, full_matrices=False)
    return np.column_stack([v0, uu[:, ss > 1e-12 * max(ss[0], 1.0)]])


_SCAN_FLOOR = 1.0 - 1e-9  # the scan's column bound, a hair under 1 for rounding in the norms


class _SubspaceState:
    """Points x = V C V^T as their r x r coordinates C, plus box helpers.

    V is orthonormal with the all-ones direction exactly first, so the shift
    J/k is `shift` = (n/k) e_0 e_0^T in coordinates.  The box step clips
    inside the family; an entry above the bound off the adjoined vertex axes
    raises `_ExtendNeeded`, and the caller rebuilds V with those axes and
    restarts.
    """

    backend = "subspace"

    def __init__(self, m0: Factored, norm_m0: float, big_v, axes, spec: ProjectionSpec):
        n = spec.n
        self.big_v = big_v
        self.width = big_v.shape[1]
        self.shift = np.zeros((self.width, self.width))
        self.shift[0, 0] = n / spec.k
        proj = big_v.T @ m0.v
        u = (proj * np.diag(m0.c)) @ proj.T / norm_m0
        self.u = (u + u.T) / 2.0
        self.axes = np.array(sorted(axes), dtype=np.int64)
        self.in_axes = np.zeros(n, dtype=bool)
        self.in_axes[self.axes] = True
        self.row_norms = np.linalg.norm(big_v, axis=1)
        other = ~self.in_axes
        self.mv_free = float(self.row_norms[other].max()) if other.any() else 0.0

    def box_violations(self, c):
        """(largest excess of |V C V^T| over 1, its pairs (i, j) above 1, their values).

        An entry is X_ij = t_i . v_j for t = V C and the basis rows v_j, so
        |X_ij| <= |t_i| |v_j|.  Two filters apply that bound.  The rows are the
        adjoined axes (unit basis rows) and every row with |t_i| mv_free > 1,
        mv_free the largest non-axis basis-row norm; the columns are the
        vertices with |v_j| max_rows |t_i| > 1 - 1e-9.  One product of the
        two sets holds every entry above 1, so the scan finds exactly a dense
        scan's pairs.  A pair between two scanned rows is reported from both.
        (0.0, None, None) when no entry exceeds 1.
        """
        t = self.big_v @ c
        t_norms = np.linalg.norm(t, axis=1)
        rows = np.flatnonzero(t_norms * self.mv_free > 1.0)
        rows = np.union1d(rows[~self.in_axes[rows]], self.axes)
        if rows.size == 0:
            return 0.0, None, None
        cols = np.flatnonzero(self.row_norms * t_norms[rows].max() > _SCAN_FLOOR)
        x = t[rows] @ self.big_v[cols].T
        bi, bj = np.nonzero(np.abs(x) > 1.0)
        if bi.size == 0:
            return 0.0, None, None
        vals = x[bi, bj]
        return float(np.max(np.abs(vals)) - 1.0), (rows[bi], cols[bj]), vals

    def box(self, y):
        viol, pairs, vals_over = self.box_violations(y)
        if viol == 0.0:
            return y
        ii, jj = pairs
        outside = np.unique(np.concatenate([ii[~self.in_axes[ii]], jj[~self.in_axes[jj]]]))
        if outside.size:
            raise _ExtendNeeded(outside.tolist())
        upper = ii <= jj  # both rows of a pair are axis rows: keep each pair once
        pi, pj = np.searchsorted(self.axes, ii[upper]), np.searchsorted(self.axes, jj[upper])
        excess = np.zeros((self.axes.size, self.axes.size))
        excess[pi, pj] = vals_over[upper] - np.sign(vals_over[upper])
        excess += np.triu(excess, 1).T
        v_a = self.big_v[self.axes]
        return y - v_a.T @ excess @ v_a

    def box_residual(self, x):
        return self.box_violations(x)[0]

    def estimate(self, c):
        return Factored(self.big_v, c)


def _certify_infeasible(m0: Factored, norm_m0: float, spec: ProjectionSpec):
    """Raise ProjectionInfeasibleError when n max(lambda_max(U), 0) - <U, J>/k < b.

    U = M0 / norm_m0 is read from M0's eigenpairs: lambda_max from diag C,
    <U, J> from V^T 1."""
    b = spec.delta * spec.target
    vals = np.diag(m0.c) / norm_m0
    u_j = float(vals @ m0.v.sum(axis=0) ** 2)
    bound = spec.n * max(float(vals.max()), 0.0) - u_j / spec.k
    if bound < b:
        raise ProjectionInfeasibleError(bound, b)


def corr_preserving_projection(m0: np.ndarray | Factored, spec: ProjectionSpec) -> ProjectionReport:
    """Minimum-norm point of K' meeting the correlation halfspace, rescaled.

    M0 comes as eigenpairs, a `Factored` with diagonal C as `Factored.from_eig`
    builds them, or as a dense array equal to its transpose,
    eigendecomposed by one `eigh` with the drop rule of
    `Factored.from_eig_truncated`.  The certificate reads the
    eigenpairs.  The solve builds the basis, runs the subspace backend while
    the width rule admits it and restarts with the axes `_ExtendNeeded`
    names; once a basis fails the rule, the dense backend solves the matrix
    rebuilt from the eigenpairs.
    """
    if isinstance(m0, Factored):
        vals = np.diag(m0.c)
        if not np.array_equal(m0.c, np.diag(vals)):
            raise ValueError("a factored projection input must hold eigenpairs (Factored.from_eig)")
        norm_m0 = float(np.linalg.norm(vals))
    else:
        m0 = np.asarray(m0, dtype=float)
        if not np.array_equal(m0, m0.T):
            raise ValueError("a dense projection input must be symmetric")
        norm_m0 = float(np.linalg.norm(m0))
        m0 = Factored.from_eig_truncated(*np.linalg.eigh(m0))
    if norm_m0 <= 0.0:
        raise ValueError("projection input must be nonzero")
    _certify_infeasible(m0, norm_m0, spec)
    axes: list[int] = []
    while True:
        big_v = _subspace_basis(m0.v, axes, spec.n)
        if 2 * big_v.shape[1] > spec.n:  # the width rule
            break
        try:
            return _dykstra(_SubspaceState(m0, norm_m0, big_v, axes, spec), spec)
        except _ExtendNeeded as grow:
            axes.extend(grow.vertices)  # all off the adjoined axes
    return _dykstra(_DenseState((m0.v * np.diag(m0.c)) @ m0.v.T, norm_m0, spec), spec)
