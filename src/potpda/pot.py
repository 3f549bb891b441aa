"""Exact, entropic, and brute-force solvers for fixed-mass partial transport.

The problem: minimize sum(C * P) over nonnegative plans P with row sums
dominated by ``a``, column sums dominated by ``b``, and total mass exactly
``alpha``.  The exact path reduces to a balanced transportation problem by
appending one dummy row and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .measures import CostMatrix

__all__ = [
    "TransportPlan",
    "SolverConfig",
    "exact_partial_ot",
    "entropic_partial_ot",
    "brute_force_partial_ot",
    "pw_distance",
]

EXACT_FEAS_TOL = 1e-9
ENTROPIC_FEAS_TOL = 1e-6
BRUTE_FORCE_MAX_VARS = 6

# linprog stacks a sparse constraint matrix with scipy.sparse, about 0.5-1 ms
# per call, which pays for itself only on larger LPs.  Per call on a 2-core
# x86 VM (scipy 1.17), dense vs sparse: 4 variables 3.2 vs 3.9 ms, 480
# variables 5.3 vs 6.0 ms, 600 variables 6.8 vs 6.3 ms, 961 variables 8.6 vs
# 7.6 ms.  Smaller LPs get the dense matrix; HiGHS receives the same CSC
# matrix either way.
_SPARSE_LP_MIN_VARS = 600

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class TransportPlan:
    """A coupling matrix together with the caps and mass it must respect.

    ``n_iter`` is the solver's iteration count: entropic sweeps, or HiGHS
    simplex iterations for exact plans.
    """

    matrix: np.ndarray
    row_caps: np.ndarray
    col_caps: np.ndarray
    mass: float
    converged: bool = True
    epsilon: float | None = None
    n_iter: int = 0

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "row_caps", np.asarray(self.row_caps, dtype=float))
        object.__setattr__(self, "col_caps", np.asarray(self.col_caps, dtype=float))

    def max_violation(self) -> float:
        """Largest constraint violation: negativity, cap excess, or mass error."""
        p = self.matrix
        neg = max(0.0, float(-p.min())) if p.size else 0.0
        row_excess = float(np.max(p.sum(axis=1) - self.row_caps, initial=0.0))
        col_excess = float(np.max(p.sum(axis=0) - self.col_caps, initial=0.0))
        mass_err = abs(float(p.sum()) - self.mass)
        return max(neg, row_excess, col_excess, mass_err)

    def validate(self, tol: float = EXACT_FEAS_TOL) -> None:
        v = self.max_violation()
        if v > tol:
            raise ValueError(f"infeasible transport plan: violation {v:.3e} > {tol:.0e}")

    def cost(self, C) -> float:
        return float(np.sum(_cost_entries(C) * self.matrix))


@dataclass(frozen=True)
class SolverConfig:
    """Entropic solver knobs; defaults follow the standard preset."""

    eps: float = 7.0
    max_iter: int = 5000
    tol: float = 1e-9

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("solver max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("solver tol must be positive")


def _cost_entries(C) -> np.ndarray:
    if isinstance(C, CostMatrix):
        return C.entries
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")
    return C


def _check_masses(a, b, alpha: float):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("marginal masses must be nonnegative")
    if not alpha > 0:
        raise ValueError("transported mass alpha must be positive")
    limit = min(a.sum(), b.sum())
    if alpha > limit + 1e-12:
        raise ValueError(f"infeasible: alpha={alpha} exceeds min marginal mass {limit}")
    return a, b, min(alpha, limit)


def _transport_lp(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Balanced transportation LP with equality marginals; returns the plan,
    carrying HiGHS's iteration count, and the row and column duals."""
    m, n = C.shape
    n_var = m * n
    # column k = i*n + j of the (m+n) x mn constraint matrix has ones in rows
    # i and m+j, which is the CSC form linprog would build from the dense matrix
    rows = np.empty(2 * n_var, dtype=int)
    rows[0::2] = np.repeat(np.arange(m), n)
    rows[1::2] = np.tile(np.arange(m, m + n), m)
    if n_var < _SPARSE_LP_MIN_VARS:
        A_eq = np.zeros((m + n, n_var))
        A_eq[rows, np.repeat(np.arange(n_var), 2)] = 1.0
    else:
        A_eq = csc_array((np.ones(2 * n_var), rows, np.arange(0, 2 * n_var + 1, 2)),
                         shape=(m + n, n_var))
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs", options=_LP_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    plan = TransportPlan(np.clip(res.x, 0.0, None).reshape(m, n), a, b, float(a.sum()),
                         n_iter=int(res.nit))
    duals = res.eqlin.marginals
    return plan, duals[:m], duals[m:]


def exact_partial_ot(a, b, C, alpha: float):
    """Optimal plan and cost of the fixed-mass partial transport problem.

    Appends a dummy row of mass total(b) - alpha and a dummy column of mass
    total(a) - alpha, with zero cost to the dummies and a prohibitive cost at
    the dummy-dummy cell, then solves the balanced problem exactly.
    """
    C = _cost_entries(C)
    a, b, alpha = _check_masses(a, b, alpha)
    m, n = C.shape
    if a.shape[0] != m or b.shape[0] != n:
        raise ValueError("marginal lengths do not match the cost matrix")

    big = 2.0 * (m + n) * float(C.max()) + 1.0
    a_ext = np.append(a, b.sum() - alpha)
    b_ext = np.append(b, a.sum() - alpha)
    C_ext = np.zeros((m + 1, n + 1))
    C_ext[:m, :n] = C
    C_ext[m, n] = big

    full, _, _ = _transport_lp(a_ext, b_ext, C_ext)
    plan = TransportPlan(full.matrix[:m, :n], a, b, alpha, n_iter=full.n_iter)
    plan.validate(EXACT_FEAS_TOL)
    return plan, plan.cost(C)


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """Lean log-sum-exp; slices that are entirely -inf map to -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - safe), axis=axis, keepdims=True)) + safe
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def _log_scaling_change(new: np.ndarray, prev: np.ndarray) -> float:
    """Max-norm difference treating matching infinities (zero-cap rows) as zero."""
    with np.errstate(invalid="ignore"):  # inf - inf, masked by the equality
        diff = np.where(new == prev, 0.0, np.abs(new - prev))
    return float(np.max(diff, initial=0.0))


def entropic_partial_ot(a, b, C, alpha: float, cfg: SolverConfig | None = None) -> TransportPlan:
    """Approximate plan via Dykstra-corrected multiplicative scaling of exp(-C/eps).

    The plan is exp(L0 + log_u + log_v + log_s) for the normalised log kernel
    L0 = -C/eps - logsumexp(-C/eps) + log(alpha).  Each sweep undoes the
    previous cycle's scaling for a constraint block, then re-projects: rows
    are damped onto their caps, then columns, then the total mass is rescaled
    to alpha.  A sweep costs two matrix-vector products with the kernel
    K = exp(L0) and one dot product; the scalings themselves stay in logs.
    When the kernel sums a positive-cap row, a positive-cap column or the
    total reads below float range (tiny/eps), the solve continues with the
    same updates as log-sum-exps over L0 for the rest of the sweep budget.
    Stops when successive scalings are stationary; non-convergence within
    max_iter is flagged on the plan, not raised.  ``n_iter`` counts sweeps.
    """
    cfg = cfg or SolverConfig()
    C = _cost_entries(C)
    a, b, alpha = _check_masses(a, b, alpha)
    m, n = C.shape
    if a.shape[0] != m or b.shape[0] != n:
        raise ValueError("marginal lengths do not match the cost matrix")

    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)
    log_alpha = np.log(alpha)
    L0 = -C / cfg.eps
    L0 = L0 + (log_alpha - _logsumexp(L0))

    state = _kernel_sweeps(L0, log_a, log_b, log_alpha, cfg)
    if state.n_iter < cfg.max_iter and not state.converged:
        state = _log_sweeps(L0, log_a, log_b, log_alpha, cfg, state)

    log_plan = L0 + state.log_u[:, None] + state.log_v[None, :] + state.log_s
    plan = TransportPlan(np.exp(log_plan), a, b, alpha, converged=state.converged,
                         epsilon=cfg.eps, n_iter=state.n_iter)
    if state.converged:
        plan.validate(ENTROPIC_FEAS_TOL)
    return plan


@dataclass(frozen=True)
class _Scalings:
    """Log scalings of the rows, columns and total after ``n_iter`` sweeps."""

    log_u: np.ndarray
    log_v: np.ndarray
    log_s: float
    n_iter: int
    converged: bool


# kernel sums below this have lost the precision of a double
_KERNEL_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _kernel_sweeps(L0, log_a, log_b, log_alpha, cfg: SolverConfig) -> _Scalings:
    """Sweeps as matrix-vector products with exp(L0).

    Returns before the first sweep whose kernel sums leave float range, with
    the scalings that sweep started from.  Zero-cap rows and columns keep a
    log scaling of -inf.
    """
    K = np.exp(L0)
    rows, cols = log_a > -np.inf, log_b > -np.inf
    log_u = np.where(rows, 0.0, -np.inf)
    log_v = np.where(cols, 0.0, -np.inf)
    log_s = 0.0
    for it in range(cfg.max_iter):
        row_sums = K @ np.exp(log_v)
        if np.min(row_sums[rows], initial=np.inf) < _KERNEL_FLOOR:
            return _Scalings(log_u, log_v, log_s, it, False)
        new_u = log_u.copy()
        new_u[rows] = np.minimum(log_a[rows] - log_s - np.log(row_sums[rows]), 0.0)
        col_sums = np.exp(new_u) @ K
        if np.min(col_sums[cols], initial=np.inf) < _KERNEL_FLOOR:
            return _Scalings(log_u, log_v, log_s, it, False)
        new_v = log_v.copy()
        new_v[cols] = np.minimum(log_b[cols] - log_s - np.log(col_sums[cols]), 0.0)
        total = float(col_sums @ np.exp(new_v))
        if total < _KERNEL_FLOOR:
            return _Scalings(log_u, log_v, log_s, it, False)
        new_s = log_alpha - np.log(total)
        change = max(_log_scaling_change(new_u, log_u),
                     _log_scaling_change(new_v, log_v),
                     abs(new_s - log_s))
        log_u, log_v, log_s = new_u, new_v, new_s
        if change < cfg.tol:
            return _Scalings(log_u, log_v, log_s, it + 1, True)
    return _Scalings(log_u, log_v, log_s, cfg.max_iter, False)


def _log_sweeps(L0, log_a, log_b, log_alpha, cfg: SolverConfig, start: _Scalings) -> _Scalings:
    """The same sweeps as log-sum-exps over L0, from ``start`` to the end of
    the max_iter budget; for inputs whose kernel sums underflow."""
    log_u, log_v, log_s = start.log_u, start.log_v, start.log_s
    for it in range(start.n_iter, cfg.max_iter):
        u_prev, v_prev, s_prev = log_u, log_v, log_s
        log_u = np.minimum(log_a - log_s - _logsumexp(L0 + log_v[None, :], axis=1), 0.0)
        log_u = np.where(np.isnan(log_u), 0.0, log_u)
        log_v = np.minimum(log_b - log_s - _logsumexp(L0 + log_u[:, None], axis=0), 0.0)
        log_v = np.where(np.isnan(log_v), 0.0, log_v)
        log_s = log_alpha - _logsumexp(L0 + log_u[:, None] + log_v[None, :])
        change = max(_log_scaling_change(log_u, u_prev),
                     _log_scaling_change(log_v, v_prev),
                     abs(log_s - s_prev))
        if change < cfg.tol:
            return _Scalings(log_u, log_v, log_s, it + 1, True)
    return _Scalings(log_u, log_v, log_s, cfg.max_iter, False)


def brute_force_partial_ot(a, b, C, alpha: float):
    """Test oracle: enumerate feasibility-polytope vertices of tiny instances.

    Every vertex activates the mass equality plus a choice of m*n - 1 further
    constraints among nonnegativity and the marginal caps; the cheapest
    feasible vertex is optimal for this linear objective.
    """
    C = _cost_entries(C)
    a, b, alpha = _check_masses(a, b, alpha)
    m, n = C.shape
    n_var = m * n
    if n_var > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"instance too large for brute force: {n_var} > {BRUTE_FORCE_MAX_VARS} variables")

    # Constraint rows: x_k = 0, row sums = a_i, column sums = b_j.
    rows = []
    rhs = []
    for k in range(n_var):
        e = np.zeros(n_var)
        e[k] = 1.0
        rows.append(e)
        rhs.append(0.0)
    for i in range(m):
        e = np.zeros(n_var)
        e[i * n:(i + 1) * n] = 1.0
        rows.append(e)
        rhs.append(a[i])
    for j in range(n):
        e = np.zeros(n_var)
        e[j::n] = 1.0
        rows.append(e)
        rhs.append(b[j])
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    total_row = np.ones(n_var)

    subsets = list(combinations(range(len(rows)), n_var - 1))
    systems = np.empty((len(subsets), n_var, n_var))
    targets = np.empty((len(subsets), n_var))
    for k, idx in enumerate(subsets):
        systems[k, 0] = total_row
        targets[k, 0] = alpha
        if idx:
            systems[k, 1:] = rows[list(idx)]
            targets[k, 1:] = rhs[list(idx)]

    keep = np.abs(np.linalg.det(systems)) > 1e-9
    if not np.any(keep):
        raise RuntimeError("no nondegenerate active set found")
    sols = np.linalg.solve(systems[keep], targets[keep][:, :, None])[:, :, 0]

    tol = 1e-10
    feas = np.all(sols >= -tol, axis=1)
    grids = sols.reshape(-1, m, n)
    feas &= np.all(grids.sum(axis=2) <= a[None, :] + tol, axis=1)
    feas &= np.all(grids.sum(axis=1) <= b[None, :] + tol, axis=1)
    if not np.any(feas):
        raise RuntimeError("no feasible vertex found")
    costs = sols @ C.ravel()
    costs[~feas] = np.inf
    best = int(np.argmin(costs))
    plan = TransportPlan(np.clip(grids[best], 0.0, None), a, b, alpha)
    return plan, float(costs[best])


def pw_distance(a, b, C, alpha: float, method: str = "exact",
                cfg: SolverConfig | None = None) -> float:
    """Value sum(C * P) of the chosen solver's plan."""
    if method == "exact":
        _, cost = exact_partial_ot(a, b, C, alpha)
        return cost
    if method == "entropic":
        plan = entropic_partial_ot(a, b, C, alpha, cfg)
        return plan.cost(C)
    raise ValueError(f"unknown method {method!r}")
