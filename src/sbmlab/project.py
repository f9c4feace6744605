"""Correlation-preserving projection onto a convex set of bounded matrices.

Given a nonzero estimate M0 and a target rate delta, the projector finds the
minimum-Frobenius-norm symmetric matrix N subject to

    N in K' = { |N_ij| <= 1,  N + (1/k) J >= 0 (psd),  Tr(N) <= n - n/k },
    <M0 / |M0|_F, N>  >=  delta * norm_target,

and returns M_hat = (norm_target / |N|_F) N.  When M0 has correlation at
least delta with a member Y of K' scaled to norm_target, the output keeps at
least half that correlation with Y, and |N|_F >= delta * norm_target holds by
Cauchy-Schwarz.  The rescaled output lands in the 1/delta-inflated set K.

The search runs Dykstra's alternating projections over three sets in one
loop, `_dykstra`: the halfspace, the entry box, and the spectraplex
{M = N + J/k psd, Tr M <= n}, projected exactly by one eigendecomposition and
a shift theta of its eigenvalues onto {w >= 0, sum w <= n}.  A solve ends
converged, certified infeasible before any sweep, or at the sweep cap.  The
certificate: every N in K' has <U, N> <= n max(lambda_max(U), 0) - <U, J>/k
for U = M0 / |M0|_F, so a bound below b = delta * norm_target proves that no
point of K' meets the halfspace.

The loop runs over one of two states.  The subspace state holds M0 as a
`Factored` of its eigenpairs (a dense symmetric M0 is eigendecomposed once,
eigenvalues at rounding level dropped): every iterate lives in
span{eigenvectors of M0, all-ones, adjoined vertex axes} plus a multiple of
the complementary identity, so it holds coordinates (C, alpha), a sweep
costs O(n r^2), and its report carries a `Factored` estimate
s (V C V^T + alpha (I - V V^T)) that the pipeline scores without an n x n
array.  Entry-bound violations are found by a certified row scan and
clipped inside the family once the affected vertex axes are adjoined.  The
dense state holds X as an n x n array (one eigendecomposition per sweep) and
remains the reference.  One width rule picks the state, at entry and each
time axes are adjoined: the subspace state runs while its basis width r
(all-ones, eigenvectors, axes) satisfies 2 r <= n, past which an O(n r^2)
sweep no longer undercuts an n x n eigendecomposition; the dense state then
solves the original input.
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
    n/delta); norm_target: proxy for the Frobenius norm of the ground-truth
    membership matrix, default n sqrt(k-1)/k (exact for balanced labels).
    A solve runs Dykstra over halfspace, box and spectraplex until residuals
    fall below tol; it raises at max_iters sweeps, or before any when infeasible.
    """

    delta: float
    k: int
    n: int
    norm_target: float | None = None
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.norm_target is not None and self.norm_target <= 0:
            raise ValueError("norm_target must be positive")

    @property
    def target(self) -> float:
        if self.norm_target is not None:
            return self.norm_target
        return self.n * math.sqrt(self.k - 1) / self.k if self.k > 1 else float(self.n)


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    """Solver output: rescaled estimate plus the feasibility certificate.

    `estimate` is factored on the subspace backend and dense on the dense one;
    `width` is the basis width on the subspace backend and n on the dense one.
    """

    estimate: np.ndarray | Factored
    iterations: int
    max_violation: float
    halfspace_value: float  # achieved <M0, N>
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


def _project_box(m: np.ndarray, bound: float) -> np.ndarray:
    return np.clip(m, -bound, bound)


def _capped_shift(w: np.ndarray, cap: float, mult: np.ndarray | None = None) -> float:
    """theta >= 0 with max(w - theta, 0) the projection of w onto {x >= 0, sum mult x <= cap}.

    theta is 0 unless the cap binds; mult holds multiplicities (default 1)."""
    mult = np.ones_like(w) if mult is None else mult
    if float(np.sum(mult * np.maximum(w, 0.0))) <= cap:
        return 0.0
    order = np.argsort(-w)
    ws, ms = w[order], mult[order]
    thetas = (np.cumsum(ms * ws) - cap) / np.cumsum(ms)
    return float(thetas[np.flatnonzero(ws > thetas)[-1]])


def _project_spectraplex(m: np.ndarray, shift: float, cap: float) -> np.ndarray:
    """Project onto {M : M + shift J psd, Tr(M + shift J) <= cap}.

    B = M + shift J = sum w v v^T goes to B - sum_{w < theta} (w - theta) v v^T - theta I.
    """
    b = m + shift
    w, v = np.linalg.eigh(b)
    theta = _capped_shift(w, cap)
    if theta == 0.0 and w[0] >= 0.0:
        return m
    lo = w < theta
    out = b - (v[:, lo] * (w[lo] - theta)) @ v[:, lo].T
    out[np.diag_indices_from(out)] -= theta
    return out - shift


def _project_halfspace(m: np.ndarray, p: np.ndarray, b: float) -> np.ndarray:
    """Project onto {M : <P, M> >= b}."""
    val = float(np.sum(p * m))
    if val >= b:
        return m
    return m + ((b - val) / float(np.sum(p * p))) * p


def project_constraints(
    m: np.ndarray, spec: ProjectionSpec, halfspace: tuple[np.ndarray, float] | None = None
) -> dict[str, np.ndarray]:
    """Projections of m onto each constraint family of K(delta), separately."""
    out = {
        "box": _project_box(m, 1.0 / spec.delta),
        "spectraplex": _project_spectraplex(m, 1.0 / (spec.k * spec.delta), spec.n / spec.delta),
    }
    if halfspace is not None:
        out["halfspace"] = _project_halfspace(m, *halfspace)
    return out


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
    """Dykstra from zero over the state's three projections, then the report.

    The state fixes the point representation (supporting + and -), the three
    projections, the residuals (box, halfspace: the exact last step satisfies
    the spectraplex), the norm behind the stopping rule, and the unscaled
    solution N with |N|_F and <M0, N>.
    """
    tol = spec.tol
    steps = (state.halfspace, state.box, state.spectraplex)
    x = state.zero()
    corr = [state.zero() for _ in steps]
    for sweep in range(1, spec.max_iters + 1):
        x_prev = x
        for i, project in enumerate(steps):
            y = x + corr[i]
            x = project(y)
            corr[i] = y - x
        residuals = state.residuals(x)
        if max(residuals) <= tol and state.norm(x - x_prev) <= 10 * tol * max(1.0, state.norm(x)):
            break
    else:
        raise ProjectionDidNotConverge(f"max residual {max(residuals):.3e} after {spec.max_iters} sweeps")
    solution, n_norm, halfspace_value = state.solution(x)
    if n_norm <= 0.0:
        raise ProjectionDidNotConverge("solver returned the zero matrix")
    factor = spec.target / n_norm
    return ProjectionReport(
        estimate=solution.scaled(factor) if isinstance(solution, Factored) else factor * solution,
        iterations=sweep,
        max_violation=max(residuals),
        halfspace_value=halfspace_value,
        n_norm=n_norm,
        backend=state.backend,
        width=state.width,
    )


class _DenseState:
    """The reference state: X as a dense n x n array."""

    backend = "dense"

    def __init__(self, m0: np.ndarray, norm_m0: float, spec: ProjectionSpec):
        self.m0 = m0
        self.u = m0 / norm_m0
        self.b = spec.delta * spec.target
        self.n = self.width = spec.n
        self.shift = 1.0 / spec.k

    def zero(self):
        return np.zeros((self.n, self.n))

    def halfspace(self, y):
        return _project_halfspace(y, self.u, self.b)

    def box(self, y):
        return _project_box(y, 1.0)

    def spectraplex(self, y):
        return _project_spectraplex(y, self.shift, self.n)

    def residuals(self, x):
        return (
            max(0.0, float(np.max(np.abs(x))) - 1.0),
            max(0.0, (self.b - float(np.sum(self.u * x))) / max(self.b, 1.0)),
        )

    def norm(self, x):
        return float(np.linalg.norm(x))

    def solution(self, x):
        return x, self.norm(x), float(np.sum(self.m0 * x))


def _subspace_basis(vecs, n):
    """Orthonormal [ones/sqrt(n) | complement of vecs], ones exactly first."""
    v0 = np.full(n, 1.0 / math.sqrt(n))
    w = vecs - np.outer(v0, v0 @ vecs)
    if not w.size:
        return v0[:, None]
    uu, ss, _ = np.linalg.svd(w, full_matrices=False)
    return np.column_stack([v0, uu[:, ss > 1e-12 * max(ss[0], 1.0)]])


def _extend_basis(big_v, vertices, n):
    """Append standard-basis axes e_v (orthonormalized) to the subspace.

    An axis nearly inside the span (residual below 1/2) gets a second
    Gram-Schmidt pass; if its residual is then at rounding level it already
    lies in the span and adds no column.
    """
    cols = [big_v]
    for v in vertices:
        w = np.zeros(n)
        w[v] = 1.0
        for block in cols:
            w -= block @ (block.T @ w)
        nw = float(np.linalg.norm(w))
        if nw < 0.5:
            for block in cols:
                w -= block @ (block.T @ w)
            nw = float(np.linalg.norm(w))
            if nw <= n * np.finfo(float).eps:
                continue
        cols.append((w / nw)[:, None])
    return np.column_stack(cols)


def _fits_subspace(width: int, n: int) -> bool:
    """The width rule: a basis of this width runs on the subspace state."""
    return 2 * width <= n


class _Coords:
    """A subspace point V C V^T + alpha (I - V V^T) by its coordinates."""

    __slots__ = ("c", "alpha")

    def __init__(self, c: np.ndarray, alpha: float):
        self.c, self.alpha = c, alpha

    def __add__(self, other):
        return _Coords(self.c + other.c, self.alpha + other.alpha)

    def __sub__(self, other):
        return _Coords(self.c - other.c, self.alpha - other.alpha)


class _SubspaceState:
    """Points x = V C V^T + alpha (I - V V^T) as `_Coords`, plus box helpers.

    V is orthonormal with the all-ones direction exactly first, so the shift
    (1/k) J is (n/k) e_0 e_0^T in coordinates.  The box step clips inside the
    family; an entry above the bound off the adjoined vertex axes raises
    `_ExtendNeeded`, and the caller grows V and restarts.
    """

    backend = "subspace"

    def __init__(self, m0: Factored, norm_m0: float, big_v, axes, spec: ProjectionSpec):
        n = spec.n
        self.m0 = m0
        self.big_v = big_v
        self.n = n
        self.r = self.width = big_v.shape[1]
        self.b = spec.delta * spec.target
        self.shift_coord = n / spec.k
        self.mult = np.r_[n - self.r, np.ones(self.r)]  # of alpha, then of C's eigenvalues
        proj = big_v.T @ m0.v
        c_u = (proj * np.diag(m0.c)) @ proj.T / norm_m0
        self.c_u = (c_u + c_u.T) / 2.0
        self.axes = np.array(sorted(axes), dtype=np.int64)
        self.in_axes = np.zeros(n, dtype=bool)
        self.in_axes[self.axes] = True
        row_norms = np.linalg.norm(big_v, axis=1)
        other = ~self.in_axes
        self.mv_free = float(row_norms[other].max()) if other.any() else 0.0

    def entry_rows(self, c, alpha, rows):
        """Exact rows of the dense matrix for the given row indices."""
        t = self.big_v[rows] @ c
        out = (t - alpha * self.big_v[rows]) @ self.big_v.T
        out[np.arange(len(rows)), rows] += alpha
        return out

    def box_scan(self, c, alpha):
        """Rows possibly holding entries above 1 in absolute value.

        Candidate rows are the adjoined axis rows (their basis rows have unit
        norm) plus any row whose Cauchy-Schwarz bound against the largest
        non-axis basis row exceeds 1; pairs outside candidate rows are
        certified below the bound.
        """
        t_norms = np.linalg.norm(self.big_v @ c, axis=1)
        slack = abs(alpha) * (1.0 + self.mv_free**2)
        cand = np.flatnonzero(t_norms * self.mv_free + slack > 1.0)
        return np.union1d(cand[~self.in_axes[cand]], self.axes)

    def box_violations(self, c, alpha):
        cand = self.box_scan(c, alpha)
        if cand.size == 0:
            return 0.0, None, None
        rows = self.entry_rows(c, alpha, cand)
        over = np.abs(rows) > 1.0
        if not over.any():
            return 0.0, None, None
        ii, jj = np.nonzero(over)
        return float(np.max(np.abs(rows[ii, jj])) - 1.0), (cand[ii], jj), rows[ii, jj]

    def zero(self):
        return _Coords(np.zeros((self.r, self.r)), 0.0)

    def halfspace(self, y):
        val = float(np.sum(self.c_u * y.c))
        if val < self.b:
            return _Coords(y.c + (self.b - val) * self.c_u, y.alpha)
        return y

    def box(self, y):
        viol, pairs, vals_over = self.box_violations(y.c, y.alpha)
        if viol == 0.0:
            return y
        ii, jj = pairs
        outside = np.unique(np.concatenate([ii[~self.in_axes[ii]], jj[~self.in_axes[jj]]]))
        if outside.size:
            raise _ExtendNeeded(outside.tolist())
        c = y.c.copy()
        seen = set()
        for i, j, v in zip(ii, jj, vals_over):
            a_, b_ = (i, j) if i <= j else (j, i)
            if (a_, b_) in seen:
                continue
            seen.add((a_, b_))
            excess = v - math.copysign(1.0, v)
            wi, wj = self.big_v[a_], self.big_v[b_]
            if a_ == b_:
                c -= excess * np.outer(wi, wi)
            else:
                c -= excess * (np.outer(wi, wj) + np.outer(wj, wi))
        return _Coords(c, y.alpha)

    def spectraplex(self, y):
        bmat = y.c.copy()
        bmat[0, 0] += self.shift_coord
        w, q = np.linalg.eigh(bmat)
        theta = _capped_shift(np.append(y.alpha, w), self.n, self.mult)
        c = (q * np.maximum(w - theta, 0.0)) @ q.T
        c[0, 0] -= self.shift_coord
        return _Coords((c + c.T) / 2.0, max(y.alpha - theta, 0.0))

    def residuals(self, x):
        box_res, _, _ = self.box_violations(x.c, x.alpha)
        half_res = max(0.0, (self.b - float(np.sum(self.c_u * x.c))) / max(self.b, 1.0))
        return box_res, half_res

    def norm(self, x):
        return math.sqrt(float(np.linalg.norm(x.c)) ** 2 + x.alpha**2 * (self.n - self.r))

    def solution(self, x):
        n_mat = Factored(self.big_v, x.c, x.alpha)
        return n_mat, n_mat.norm(), self.m0.inner(n_mat)


def _dykstra_subspace(m0: Factored, norm_m0: float, spec: ProjectionSpec) -> ProjectionReport | None:
    """Solver for M0 given by its eigenpairs, or None when the width rule rejects it.

    Runs Dykstra on the subspace state, V spanning the eigenvectors of M0
    and the all-ones direction.  When the box step needs vertex axes off V,
    they are adjoined and the solve restarts, as long as the grown basis
    passes the width rule.
    """
    if not _fits_subspace(m0.r, spec.n):  # the basis is at least r wide
        return None
    axes: list[int] = []
    while True:
        big_v = _subspace_basis(m0.v, spec.n)
        if axes:
            big_v = _extend_basis(big_v, axes, spec.n)
        if not _fits_subspace(big_v.shape[1], spec.n):
            return None
        state = _SubspaceState(m0, norm_m0, big_v, axes, spec)
        try:
            return _dykstra(state, spec)
        except _ExtendNeeded as grow:
            axes.extend(v for v in grow.vertices if v not in axes)


def _eigenpairs(m0: np.ndarray) -> Factored:
    """A symmetric M0 by its eigenpairs, |w| <= n eps max|w| dropped (as matrix_rank)."""
    w, v = np.linalg.eigh(m0)
    keep = np.abs(w) > m0.shape[0] * np.finfo(float).eps * np.abs(w).max()
    return Factored.from_eig(w[keep], v[:, keep])


def _certify_infeasible(m0: np.ndarray | Factored, norm_m0: float, spec: ProjectionSpec):
    """Raise ProjectionInfeasibleError when n max(lambda_max(U), 0) - <U, J>/k < b.

    A dense U needs mu = (b + <U, J>/k) / n > 0 and a Cholesky factorization of
    (mu - 2 err) I - U, which proves lambda_max(U) <= mu - err (err bounds the
    backward error, as |U|_2 <= 1)."""
    n, b = spec.n, spec.delta * spec.target
    if isinstance(m0, Factored):
        vals = np.diag(m0.c) / norm_m0
        u_j = float(vals @ m0.v.sum(axis=0) ** 2)
        lam = float(vals.max()) if vals.size == n else max(float(vals.max()), 0.0)
    else:
        u_j = float(np.sum(m0)) / norm_m0
        mu = (b + u_j / spec.k) / n
        if mu <= 0.0:
            return
        err = n * (n + 1) * np.finfo(float).eps * (mu + 1.0)
        try:
            np.linalg.cholesky((mu - 2.0 * err) * np.eye(n) - m0 / norm_m0)
        except np.linalg.LinAlgError:
            return
        lam = mu - err
    bound = n * max(lam, 0.0) - u_j / spec.k
    if bound < b:
        raise ProjectionInfeasibleError(bound, b)


def corr_preserving_projection(m0: np.ndarray | Factored, spec: ProjectionSpec) -> ProjectionReport:
    """Minimum-norm point of K' meeting the correlation halfspace, rescaled.

    A `Factored` M0 must hold eigenpairs, as `Factored.from_eig` builds them
    (alpha 0, scale 1, diagonal C).  A dense M0 that equals its transpose is
    eigendecomposed once after the certificate; any other runs on the dense
    backend.  Eigenpairs run on the subspace backend while the width rule
    admits their basis, and the dense backend solves the input otherwise.
    """
    if isinstance(m0, Factored):
        vals = np.diag(m0.c)
        if m0.alpha != 0.0 or m0.scale != 1.0 or not np.array_equal(m0.c, np.diag(vals)):
            raise ValueError("a factored projection input must hold eigenpairs (Factored.from_eig)")
        norm_m0 = float(np.linalg.norm(vals))
    else:
        m0 = np.asarray(m0, dtype=float)
        norm_m0 = float(np.linalg.norm(m0))
    if norm_m0 <= 0.0:
        raise ValueError("projection input must be nonzero")
    _certify_infeasible(m0, norm_m0, spec)
    if isinstance(m0, Factored):
        rep = _dykstra_subspace(m0, norm_m0, spec)
        if rep is not None:
            return rep
        m0 = (m0.v * vals) @ m0.v.T
    elif np.array_equal(m0, m0.T):
        rep = _dykstra_subspace(_eigenpairs(m0), norm_m0, spec)
        if rep is not None:
            return rep
    return _dykstra(_DenseState(m0, norm_m0, spec), spec)
