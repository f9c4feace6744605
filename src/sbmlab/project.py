"""Correlation-preserving projection onto a convex set of bounded matrices.

Given a nonzero estimate M0 and a target rate delta, the projector finds the
minimum-Frobenius-norm symmetric matrix N subject to

    N in K' = { |N_ij| <= 1,  N + (1/k) J >= 0 (psd),  Tr(N) <= n - n/k },
    <M0 / |M0|_F, N>  >=  delta * norm_target,

and returns M_hat = (norm_target / |N|_F) N.  When M0 has correlation at
least delta with a member Y of K' scaled to norm_target, the output keeps at
least half that correlation with Y, and |N|_F >= delta * norm_target holds by
Cauchy-Schwarz.  The rescaled output lands in the 1/delta-inflated set K.

The search runs Dykstra's alternating projections over the four sets (each
projection is closed form given one symmetric eigendecomposition).  A fast
backend handles the common pipeline case where M0 is low rank and given by
its eigenpairs: every Dykstra iterate then lives in span{eigenvectors of M0,
all-ones, adjoined vertex axes} plus a multiple of the complementary
identity, so sweeps cost O(n r^2) instead of an n x n eigendecomposition.
Entry-bound violations are detected by a certified row scan and clipped
inside the family once the affected vertex axes are adjoined.

The subspace backend returns its solution in factored form, a `Factored`
s (V C V^T + alpha (I - V V^T)); |N|_F and <M0, N> are computed from the
coordinates, and the report's `estimate` is that factored matrix.  The
pipeline scores it without ever building an n x n array.  The dense
`m_hat` is materialised only when a caller reads it (tests, the acceptance
certificate, the CLI `project` verb).  The dense solver handles full-rank
inputs, serves as the fallback when too many vertex axes are adjoined, and
remains the reference implementation; its report carries a dense estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .factored import Factored


class ProjectionInfeasibleError(RuntimeError):
    """No point of K' meets the correlation constraint (delta set too high)."""


class ProjectionDidNotConverge(RuntimeError):
    """Residuals still above tolerance after the sweep cap."""


@dataclass(frozen=True)
class ProjectionSpec:
    """Constraint-set parameters for the projection.

    delta: target rate (entry bound 1/delta, psd shift 1/(k delta), trace cap
    n/delta); norm_target: proxy for the Frobenius norm of the ground-truth
    membership matrix, default n sqrt(k-1)/k (exact for balanced labels).
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

    `estimate` is factored on the subspace backend and dense on the dense one.
    """

    estimate: np.ndarray | Factored
    iterations: int
    max_violation: float
    halfspace_value: float  # achieved <M0, N>
    n_norm: float  # |N|_F of the pre-rescaling solution
    backend: str

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


def _project_psd_shift(m: np.ndarray, shift: float) -> tuple[np.ndarray, float]:
    """Project onto {M : M + shift * J psd}; returns (projection, old violation)."""
    b = m + shift
    w, v = np.linalg.eigh(b)
    viol = max(0.0, -float(w[0]))
    if viol == 0.0:
        return m, 0.0
    neg = w < 0
    clipped = b - (v[:, neg] * w[neg]) @ v[:, neg].T
    return clipped - shift, viol


def _project_trace(m: np.ndarray, shift: float, cap: float) -> np.ndarray:
    """Project onto {M : Tr(M + shift * J) <= cap} (uniform diagonal shrink)."""
    n = m.shape[0]
    excess = np.trace(m) + shift * n - cap
    if excess <= 0:
        return m
    return m - (excess / n) * np.eye(n)


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
        "psd_shift": _project_psd_shift(m, 1.0 / (spec.k * spec.delta))[0],
        "trace": _project_trace(m, 1.0 / (spec.k * spec.delta), spec.n / spec.delta),
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
# Dykstra solvers


_STALL_WINDOW = 50


class _BoxFallback(Exception):
    pass


def _check_stop(residuals, tol, move, scale):
    return max(residuals) <= tol and move <= 10 * tol * max(1.0, scale)


def _dykstra_dense(u, b, n, k, tol, max_iters):
    """Reference solver on dense n x n state."""
    shift = 1.0 / k
    cap = n - n / k
    x = np.zeros((n, n))
    corr = [np.zeros((n, n)) for _ in range(4)]
    half_hist = []
    iters = 0
    for sweep in range(1, max_iters + 1):
        iters = sweep
        x_prev = x

        y = x + corr[0]
        x = _project_halfspace(y, u, b)
        corr[0] = y - x

        y = x + corr[1]
        x = _project_box(y, 1.0)
        corr[1] = y - x

        y = x + corr[2]
        x = _project_trace(y, shift, n)
        corr[2] = y - x

        y = x + corr[3]
        x, _ = _project_psd_shift(y, shift)
        corr[3] = y - x

        box_res = max(0.0, float(np.max(np.abs(x))) - 1.0)
        trace_res = max(0.0, (float(np.trace(x)) - cap) / n)
        half_res = max(0.0, (b - float(np.sum(u * x))) / max(b, 1.0))
        residuals = (box_res, 0.0, trace_res, half_res)
        move = float(np.linalg.norm(x - x_prev))
        scale = float(np.linalg.norm(x))
        half_hist.append(half_res)
        _raise_if_stalled(half_hist, residuals, tol)
        if _check_stop(residuals, tol, move, scale):
            return x, iters, max(residuals)
    raise ProjectionDidNotConverge(
        f"max residual {max(residuals):.3e} after {max_iters} sweeps"
    )


def _raise_if_stalled(half_hist, residuals, tol):
    """Infeasibility: K' satisfied but the halfspace residual stalls high.

    Requires a residual that is both large in absolute terms and essentially
    flat over the window, so slow-but-feasible solves are never misdeclared
    (those run into the sweep cap instead).
    """
    if len(half_hist) < _STALL_WINDOW:
        return
    box_res, _, trace_res, half_res = residuals
    if box_res > tol or trace_res > tol or half_res <= tol:
        half_hist.clear()
        return
    window = half_hist[-_STALL_WINDOW:]
    if window[-1] > max(1e-3, tol) and window[-1] >= 0.999 * window[0]:
        raise ProjectionInfeasibleError(
            f"halfspace residual stalled at {window[-1]:.3e}; "
            "no point of K' meets the correlation constraint"
        )


def _subspace_basis(vals, vecs, n):
    """Orthonormal [ones/sqrt(n) | complement of vecs], ones exactly first."""
    v0 = np.full(n, 1.0 / math.sqrt(n))
    w = vecs - np.outer(v0, v0 @ vecs)
    if w.size:
        uu, ss, _ = np.linalg.svd(w, full_matrices=False)
        keep = ss > 1e-12 * max(ss[0], 1.0)
        basis = np.column_stack([v0, uu[:, keep]])
    else:
        basis = v0[:, None]
    return basis


def _extend_basis(big_v, vertices, n):
    """Append standard-basis axes e_v (orthonormalized) to the subspace."""
    cols = [big_v]
    for v in vertices:
        w = np.zeros(n)
        w[v] = 1.0
        for block in cols:
            w -= block @ (block.T @ w)
        nw = float(np.linalg.norm(w))
        if nw < 0.5:  # axis nearly inside the span already; give up on the fast path
            raise _BoxFallback
        cols.append((w / nw)[:, None])
    return np.column_stack(cols)


class _ExtendNeeded(Exception):
    def __init__(self, vertices):
        self.vertices = vertices


class _SubspaceState:
    """Coordinates (C, alpha) of x = V C V^T + alpha (I - V V^T) plus box helpers."""

    def __init__(self, big_v, axes, n):
        self.big_v = big_v
        self.n = n
        self.r = big_v.shape[1]
        self.axes = np.array(sorted(axes), dtype=np.int64)
        self.in_axes = np.zeros(n, dtype=bool)
        self.in_axes[self.axes] = True
        row_norms = np.linalg.norm(big_v, axis=1)
        other = ~self.in_axes
        self.mv_free = float(row_norms[other].max()) if other.any() else 0.0
        self.row_norms = row_norms

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
        cand = np.union1d(cand[~self.in_axes[cand]], self.axes)
        return cand

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


def _subspace_sweeps(state, c_u, b, n, k, tol, max_iters):
    r = state.r
    shift_coord = n / k  # (1/k) J = (n/k) v0 v0^T in coordinates
    cap = n - n / k
    big_v = state.big_v

    c = np.zeros((r, r))
    alpha = 0.0
    corr_c = [np.zeros((r, r)) for _ in range(4)]
    corr_a = [0.0] * 4
    half_hist = []

    iters = 0
    for sweep in range(1, max_iters + 1):
        iters = sweep
        c_prev, a_prev = c, alpha

        # halfspace
        y_c, y_a = c + corr_c[0], alpha + corr_a[0]
        val = float(np.sum(c_u * y_c))
        c = y_c + (b - val) * c_u if val < b else y_c
        alpha = y_a
        corr_c[0], corr_a[0] = y_c - c, y_a - alpha

        # box: clip within the family; pairs outside the axis set force a restart
        y_c, y_a = c + corr_c[1], alpha + corr_a[1]
        viol, pairs, vals_over = state.box_violations(y_c, y_a)
        if viol > 0.0:
            ii, jj = pairs
            outside = np.unique(np.concatenate([ii[~state.in_axes[ii]], jj[~state.in_axes[jj]]]))
            if outside.size:
                raise _ExtendNeeded(outside.tolist())
            c = y_c.copy()
            seen = set()
            for i, j, v in zip(ii, jj, vals_over):
                a_, b_ = (i, j) if i <= j else (j, i)
                if (a_, b_) in seen:
                    continue
                seen.add((a_, b_))
                excess = v - math.copysign(1.0, v)
                wi, wj = big_v[a_], big_v[b_]
                if a_ == b_:
                    c -= excess * np.outer(wi, wi)
                else:
                    c -= excess * (np.outer(wi, wj) + np.outer(wj, wi))
        else:
            c = y_c
        alpha = y_a
        corr_c[1], corr_a[1] = y_c - c, y_a - alpha

        # trace
        y_c, y_a = c + corr_c[2], alpha + corr_a[2]
        excess = float(np.trace(y_c)) + y_a * (n - r) - cap
        if excess > 0:
            beta = excess / n
            c = y_c - beta * np.eye(r)
            alpha = y_a - beta
        else:
            c, alpha = y_c, y_a
        corr_c[2], corr_a[2] = y_c - c, y_a - alpha

        # psd shift
        y_c, y_a = c + corr_c[3], alpha + corr_a[3]
        bmat = y_c.copy()
        bmat[0, 0] += shift_coord
        w, q = np.linalg.eigh(bmat)
        c = (q * np.maximum(w, 0.0)) @ q.T
        c[0, 0] -= shift_coord
        c = (c + c.T) / 2.0
        alpha = max(y_a, 0.0)
        corr_c[3], corr_a[3] = y_c - c, y_a - alpha

        box_res, _, _ = state.box_violations(c, alpha)
        trace_res = max(0.0, (float(np.trace(c)) + alpha * (n - r) - cap) / n)
        half_res = max(0.0, (b - float(np.sum(c_u * c))) / max(b, 1.0))
        residuals = (box_res, trace_res, half_res)
        move = math.sqrt(
            float(np.linalg.norm(c - c_prev)) ** 2 + (alpha - a_prev) ** 2 * (n - r)
        )
        scale = math.sqrt(float(np.linalg.norm(c)) ** 2 + alpha**2 * (n - r))
        half_hist.append(half_res)
        _raise_if_stalled(half_hist, (box_res, 0.0, trace_res, half_res), tol)
        if _check_stop(residuals, tol, move, scale):
            break
    else:
        raise ProjectionDidNotConverge(
            f"max residual {max(residuals):.3e} after {max_iters} sweeps"
        )

    return Factored(big_v, c, alpha), iters, max(residuals)


_MAX_AXES = 64


def _dykstra_subspace(vals, vecs, b, n, k, tol, max_iters):
    """Fast solver for low-rank M0.

    Runs Dykstra in the invariant family x = V C V^T + alpha (I - V V^T)
    where V spans the eigenvectors of M0 and the all-ones direction.  Entry
    bound violations are clipped inside the family once the affected vertex
    axes are adjoined to V; the subspace is grown on demand and the solve
    restarts.  Falls back to the dense solver if the axis set gets large.
    """
    norm_m0 = float(np.linalg.norm(vals))
    axes: list[int] = []
    while True:
        big_v = _subspace_basis(vals, vecs, n)
        if axes:
            big_v = _extend_basis(big_v, axes, n)
        state = _SubspaceState(big_v, axes, n)
        proj = big_v.T @ vecs
        c_u = (proj * vals) @ proj.T / norm_m0
        c_u = (c_u + c_u.T) / 2.0
        try:
            return _subspace_sweeps(state, c_u, b, n, k, tol, max_iters)
        except _ExtendNeeded as grow:
            axes.extend(v for v in grow.vertices if v not in axes)
            if len(axes) > _MAX_AXES:
                raise _BoxFallback from None


def corr_preserving_projection(
    m_hat0: np.ndarray | None,
    spec: ProjectionSpec,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> ProjectionReport:
    """Minimum-norm point of K' meeting the correlation halfspace, rescaled.

    `factors` may carry an exact eigenpair factorization (vals, vecs) of
    m_hat0, enabling the low-rank backend; m_hat0 itself may then be None.
    """
    n, k = spec.n, spec.k
    if factors is not None:
        vals, vecs = factors
        norm_m0 = float(np.linalg.norm(vals))
    else:
        if m_hat0 is None:
            raise ValueError("need m_hat0 or its factorization")
        m_hat0 = np.asarray(m_hat0, dtype=float)
        norm_m0 = float(np.linalg.norm(m_hat0))
    if norm_m0 <= 0.0:
        raise ValueError("projection input must be nonzero")
    b = spec.delta * spec.target

    if factors is not None:
        try:
            x, iters, max_res = _dykstra_subspace(
                vals, vecs, b, n, k, spec.tol, spec.max_iters
            )
        except _BoxFallback:
            m_hat0 = (vecs * vals) @ vecs.T
        else:
            n_norm = x.norm()
            if n_norm <= 0.0:
                raise ProjectionDidNotConverge("solver returned the zero matrix")
            return ProjectionReport(
                estimate=x.scaled(spec.target / n_norm),
                iterations=iters,
                max_violation=max_res,
                halfspace_value=Factored.from_eig(vals, vecs).inner(x),
                n_norm=n_norm,
                backend="subspace",
            )

    x, iters, max_res = _dykstra_dense(m_hat0 / norm_m0, b, n, k, spec.tol, spec.max_iters)
    n_norm = float(np.linalg.norm(x))
    if n_norm <= 0.0:
        raise ProjectionDidNotConverge("solver returned the zero matrix")
    return ProjectionReport(
        estimate=(spec.target / n_norm) * x,
        iterations=iters,
        max_violation=max_res,
        halfspace_value=float(np.sum(m_hat0 * x)),
        n_norm=n_norm,
        backend="dense",
    )
