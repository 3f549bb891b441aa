"""Slow reference solvers for fixed-mass partial transport, kept as test oracles.

``brute_force_partial_ot`` enumerates the vertices of the feasibility polytope
of tiny instances; ``pw_distance`` is the transport value of either production
solver's plan; ``log_scaling_change`` is the stopping measure of a log-domain
loop whose zero caps keep a log scaling of -inf; ``three_block_entropic`` is
the entropic plan by the three-block Bregman loop, whose fixed point the
two-block production sweeps must reach.
"""

from itertools import combinations

import numpy as np

from potpda.pot import (
    SolverConfig,
    TransportPlan,
    _check_inputs,
    entropic_partial_ot,
    exact_partial_ot,
)

BRUTE_FORCE_MAX_VARS = 6


def logsumexp(a: np.ndarray, axis: int | None = None):
    """Log-sum-exp; slices that are entirely -inf map to -inf."""
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return out.item() if axis is None else np.squeeze(out, axis=axis)


def log_scaling_change(new: np.ndarray, prev: np.ndarray) -> float:
    """Max-norm difference treating matching infinities (zero-cap rows) as zero."""
    with np.errstate(invalid="ignore"):  # inf - inf, masked by the equality
        diff = np.where(new == prev, 0.0, np.abs(new - prev))
    return float(np.max(diff, initial=0.0))


def three_block_entropic(a, b, C, alpha: float, eps: float, tol: float = 1e-13,
                         max_iter: int = 100_000):
    """Entropic plan by the three-block Dykstra loop in log form: each sweep
    damps the rows onto their caps, then the columns onto theirs, then
    rescales the total to alpha (Benamou, Carlier, Cuturi, Nenna and Peyre,
    2015).  Every cap is a block of its own, so the column caps and the total
    mass are met one after the other; the loop converges to the same KL
    projection as a two-block loop that meets them together.  Returns the
    plan and whether the log scalings changed by less than tol within
    max_iter sweeps.

    Each shifted matrix is built from the log kernel and the other two
    scalings, so the -inf scalings of zero caps never meet an -inf plan entry
    (-inf - -inf is NaN).
    """
    a, b, C, alpha = _check_inputs(a, b, C, alpha)
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    log_alpha = np.log(alpha)
    L0 = -C / eps
    L0 = L0 + (log_alpha - logsumexp(L0))
    log_u, log_v, log_s = np.zeros(len(a)), np.zeros(len(b)), 0.0
    for _ in range(max_iter):
        u_prev, v_prev, s_prev = log_u, log_v, log_s
        shifted = L0 + log_v[None, :] + log_s
        log_u = np.minimum(log_a - logsumexp(shifted, axis=1), 0.0)
        log_u = np.where(np.isnan(log_u), 0.0, log_u)
        shifted = L0 + log_u[:, None] + log_s
        log_v = np.minimum(log_b - logsumexp(shifted, axis=0), 0.0)
        log_v = np.where(np.isnan(log_v), 0.0, log_v)
        shifted = L0 + log_u[:, None] + log_v[None, :]
        log_s = log_alpha - logsumexp(shifted)
        change = max(log_scaling_change(log_u, u_prev),
                     log_scaling_change(log_v, v_prev),
                     abs(log_s - s_prev))
        if change < tol:
            return np.exp(shifted + log_s), True
    return np.exp(shifted + log_s), False


def brute_force_partial_ot(a, b, C, alpha: float):
    """Test oracle: enumerate feasibility-polytope vertices of tiny instances.

    Every vertex activates the mass equality plus a choice of m*n - 1 further
    constraints among nonnegativity and the marginal caps; the cheapest
    feasible vertex is optimal for this linear objective.
    """
    a, b, C, alpha = _check_inputs(a, b, C, alpha)
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
