"""Exact and entropic solvers for fixed-mass partial transport.

The problem: minimize sum(C * P) over nonnegative plans P with row sums
dominated by ``a``, column sums dominated by ``b``, and total mass exactly
``alpha``.  The exact path reduces to a balanced transportation problem by
appending one dummy row and column.  It solves that problem over a shortlist
of cells (the shortlist method of Gottschlich and Schuhmacher, 2014) and
certifies the result on the full matrix by its reduced costs.  HiGHS solves
each sparse LP through the binding scipy's own LP interface calls, without
that interface's per-call input and option handling.  ``_scipy_ext`` loads
the binding from its extension file alone, so importing this module skips
the start-up cost of scipy's optimize package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy_ext import highs as _highs

__all__ = [
    "TransportPlan",
    "SolverConfig",
    "exact_partial_ot",
    "entropic_partial_ot",
]

EXACT_FEAS_TOL = 1e-9
ENTROPIC_FEAS_TOL = 1e-6

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# cheapest cells of each row and of each column on the transportation LP's
# first shortlist, and most negative reduced-cost cells per row added on each
# later round
_SHORTLIST_K = 6


@dataclass(frozen=True)
class TransportPlan:
    """A coupling matrix together with the caps and mass it must respect.

    ``n_iter`` is the solver's iteration count: entropic sweeps, or for exact
    plans HiGHS's ``simplex_iteration_count`` summed over the shortlist's LP
    rounds.  When the shortlist holds every cell there is one round, and the
    count is the ``nit`` that scipy's ``method="highs"`` LP interface reports
    on the dense LP.  ``row_sums`` and ``col_sums`` are computed once, at
    construction, so the matrix must not change afterwards.
    """

    matrix: np.ndarray
    row_caps: np.ndarray
    col_caps: np.ndarray
    mass: float
    converged: bool = True
    n_iter: int = 0
    row_sums: np.ndarray = field(init=False, repr=False, compare=False)
    col_sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "row_caps", np.asarray(self.row_caps, dtype=float))
        object.__setattr__(self, "col_caps", np.asarray(self.col_caps, dtype=float))
        object.__setattr__(self, "row_sums", matrix.sum(axis=1))
        object.__setattr__(self, "col_sums", matrix.sum(axis=0))

    def max_violation(self) -> float:
        """Largest constraint violation: negativity, cap excess, or mass error;
        infinite when an entry is not finite."""
        p, row_sums = self.matrix, self.row_sums
        total = float(row_sums.sum())
        # a non-finite entry leaves its row sum, and so the total, non-finite
        if not math.isfinite(total):
            return np.inf
        mass_err = abs(total - self.mass)
        if not p.size:
            return mass_err
        return max(mass_err, float(-p.min()), float((row_sums - self.row_caps).max()),
                   float((self.col_sums - self.col_caps).max()))

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
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.isfinite(C).all():
        raise ValueError("cost matrix must be finite")
    return C


def _check_inputs(a, b, C, alpha: float):
    """Finite costs, finite nonnegative marginals of matching lengths and a
    positive alpha within the smaller marginal mass; alpha is clipped to
    that mass."""
    C = _cost_entries(C)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mass_a, mass_b = a.sum(), b.sum()
    # a NaN or infinite entry leaves its sum non-finite; only a sum that
    # overflows needs the entrywise test
    if not ((math.isfinite(mass_a) or np.isfinite(a).all())
            and (math.isfinite(mass_b) or np.isfinite(b).all())):
        raise ValueError("marginal masses must be finite")
    if a.min(initial=0.0) < 0 or b.min(initial=0.0) < 0:
        raise ValueError("marginal masses must be nonnegative")
    if not alpha > 0:
        raise ValueError("transported mass alpha must be positive")
    limit = min(mass_a, mass_b)
    if alpha > limit + 1e-12:
        raise ValueError(f"infeasible: alpha={alpha} exceeds min marginal mass {limit}")
    if a.shape[0] != C.shape[0] or b.shape[0] != C.shape[1]:
        raise ValueError("marginal lengths do not match the cost matrix")
    return a, b, C, min(alpha, limit)


def _transport_lp(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Balanced transportation LP with equality marginals; returns the plan,
    carrying the simplex iterations of all its LP rounds, and the row and
    column duals.

    The first round solves over a shortlist: the _SHORTLIST_K cheapest cells
    of each row and of each column, plus a north-west-corner support that
    keeps the sparse LP feasible.  Its duals f and g certify the plan on the
    full LP when every cell left out of the LP has reduced cost
    C - f - g >= -EXACT_FEAS_TOL; HiGHS's optimal status covers the cells in
    it.  The certified f and g are optimal duals of the full LP.  Otherwise
    each row's _SHORTLIST_K most negative cells join the LP, and HiGHS
    solves it again from its last optimal basis.

    When _SHORTLIST_K >= min(m, n) the shortlist holds every cell, and HiGHS
    gets the model, options and column order that scipy's ``method="highs"``
    LP interface would give it on the dense LP, so it returns the same
    optimal vertex and duals.
    """
    if not (np.all(np.isfinite(C)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("transportation LP costs and masses must be finite")
    m, n = C.shape
    keep = _cheapest(C, axis=1) | _cheapest(C, axis=0)
    keep[_north_west_corner(a, b)] = True
    rows, cols = np.nonzero(keep)
    solver = _lp_solver(a, b, C, rows, cols)
    n_iter = 0
    while True:
        x, f, g, iters = _run(solver, m)
        n_iter += iters
        reduced = C - f[:, None] - g[None, :]
        missing = (reduced < -EXACT_FEAS_TOL) & ~keep
        if not missing.any():
            break
        new_rows, new_cols = np.nonzero(_cheapest(np.where(missing, reduced, np.inf), axis=1)
                                        & missing)
        keep[new_rows, new_cols] = True
        # the new cells enter nonbasic at zero: the last basis stays primal
        # feasible, and HiGHS restarts from it
        starts, index = _cell_columns(m, new_rows, new_cols)
        k = len(new_rows)
        solver.addCols(k, C[new_rows, new_cols], np.zeros(k), np.full(k, _highs.kHighsInf),
                       2 * k, starts[:-1], index, np.ones(2 * k))
        rows, cols = np.concatenate([rows, new_rows]), np.concatenate([cols, new_cols])
    matrix = np.zeros((m, n))
    matrix[rows, cols] = x
    return TransportPlan(matrix, a, b, float(a.sum()), n_iter=n_iter), f, g


def _cheapest(C: np.ndarray, axis: int) -> np.ndarray:
    """Mask of the _SHORTLIST_K smallest entries along ``axis``; all of them
    when the axis is no longer."""
    keep = np.zeros(C.shape, dtype=bool)
    if C.shape[axis] <= _SHORTLIST_K:
        keep[:] = True
        return keep
    idx = np.argpartition(C, _SHORTLIST_K - 1, axis=axis)
    np.put_along_axis(keep, np.take(idx, np.arange(_SHORTLIST_K), axis=axis), True, axis=axis)
    return keep


def _north_west_corner(a: np.ndarray, b: np.ndarray):
    """Row and column indices of the north-west-corner plan's support.

    Row i holds the mass interval (A_{i-1}, A_i] of the cumulative sums A of
    ``a``, and column j the interval (B_{j-1}, B_j].  Each breakpoint of the
    merged sums ends an interval shared by one row and one column, the cell
    that carries it; a rounding excess in the last sum maps to the last
    index.
    """
    ends_a, ends_b = np.cumsum(a), np.cumsum(b)
    breaks = np.concatenate([ends_a, ends_b])
    rows = np.minimum(np.searchsorted(ends_a, breaks), len(a) - 1)
    cols = np.minimum(np.searchsorted(ends_b, breaks), len(b) - 1)
    return rows, cols


def _cell_columns(m: int, rows: np.ndarray, cols: np.ndarray):
    """Column starts and row indices of the cells' CSC constraint columns:
    cell (rows[k], cols[k]) has ones in constraint rows rows[k] and
    m + cols[k]."""
    index = np.empty(2 * len(rows), dtype=np.int32)
    index[0::2] = rows
    index[1::2] = m + cols
    return np.arange(0, 2 * len(rows) + 1, 2, dtype=np.int32), index


def _lp_solver(a, b, C, rows, cols):
    """A HiGHS solver holding the transportation LP restricted to the cells
    (rows[k], cols[k]), taken in that order.

    The options are the ones scipy's ``method="highs"`` LP interface sets;
    HiGHS's own presolve default is "choose".
    """
    m, n = C.shape
    n_var = len(rows)
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_var
    lp.num_row_ = lp.a_matrix_.num_row_ = m + n
    lp.col_cost_ = C[rows, cols]
    lp.col_lower_ = np.zeros(n_var)
    lp.col_upper_ = np.full(n_var, _highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = np.concatenate([a, b])
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_ = _cell_columns(m, rows, cols)
    lp.a_matrix_.value_ = np.ones(2 * n_var)

    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    for key, value in _LP_OPTIONS.items():
        setattr(options, key, value)
    solver = _highs._Highs()
    solver.passOptions(options)
    if solver.passModel(lp) == _highs.HighsStatus.kError:
        raise RuntimeError("transportation LP failed: HiGHS rejected the model")
    return solver


def _run(solver, m: int):
    """Solve the solver's LP: the cell values, the row and column duals and
    the simplex iteration count of this run."""
    solver.run()
    status = solver.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"transportation LP failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    duals = np.array(solution.row_dual)
    return (np.clip(np.array(solution.col_value), 0.0, None), duals[:m], duals[m:],
            int(solver.getInfo().simplex_iteration_count))


def exact_partial_ot(a, b, C, alpha: float):
    """Optimal plan and cost of the fixed-mass partial transport problem.

    Appends a dummy row of mass total(b) - alpha and a dummy column of mass
    total(a) - alpha, with zero cost to the dummies, then solves the balanced
    problem exactly.  Mass through the dummy-dummy cell would let the real
    cells move more than alpha, so that cell costs 2(m+n) times the largest
    cost, plus one.  That penalty holds only on costs >= 0; costs below zero
    are first shifted up by -min(C).  Every feasible plan moves mass alpha,
    so the shift keeps the optimal plans, and the cost is reported on C.
    """
    a, b, C, alpha = _check_inputs(a, b, C, alpha)
    m, n = C.shape
    shifted = C - min(float(C.min()), 0.0)
    a_ext = np.append(a, b.sum() - alpha)
    b_ext = np.append(b, a.sum() - alpha)
    C_ext = np.zeros((m + 1, n + 1))
    C_ext[:m, :n] = shifted
    C_ext[m, n] = 2.0 * (m + n) * float(shifted.max()) + 1.0

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


def entropic_partial_ot(a, b, C, alpha: float, cfg: SolverConfig | None = None) -> TransportPlan:
    """Approximate plan via Dykstra-corrected multiplicative scaling of exp(-C/eps).

    The kernel K is built once, in one buffer: -C/eps less its largest entry,
    one exponential, then a rescaling to total mass alpha.  The plan is
    s * diag(u) K diag(v) for linear scalings u of the rows, v of the columns
    and s of the total: the iterative Bregman projections of Benamou,
    Carlier, Cuturi, Nenna and Peyre (2015), over two constraint blocks.
    Each sweep undoes the previous cycle's scaling for a block, then
    re-projects.  First the rows are damped onto their caps.  Then the
    column caps and the total mass are met together, exactly: from the
    column sums c of diag(u) K, the water level t with
    sum_j min(t c_j, b_j) = alpha gives s = t and v_j = min(1, b_j / (t c_j)),
    so each column either keeps the common level or fills its cap.
    A zero cap forces its row or column of the plan to zero, so the sweeps
    run on the block of rows and columns with positive caps, where every
    scaling is positive, and the block plan is scattered into a zero matrix;
    when every cap is positive the block is K itself.  A sweep is two
    matrix-vector products with K, until a kernel sum of a row or a column,
    or a scaling, reads below float range (tiny/eps).  Only then is the log
    kernel log K built from C, written over K; that sweep is redone, and
    every later one run, as log-sum-exps over it.  The plan is K scaled in
    place.  Stops when the log scalings change by less than tol;
    non-convergence within max_iter is flagged on the plan, not raised, and
    so is a log-form sweep that stops with log scalings too large to resolve
    tol.  ``n_iter`` counts sweeps.  Raises ValueError when eps is so small that
    -C/eps overflows to +inf in any cell, or to -inf in every cell that can
    carry mass.
    """
    cfg = cfg or SolverConfig()
    a, b, C, alpha = _check_inputs(a, b, C, alpha)
    with np.errstate(over="ignore"):  # overflowed cells carry no mass
        K = C / -cfg.eps
    top = K.max()
    every_cap_positive = a.min() > 0 and b.min() > 0
    if not every_cap_positive:
        rows, cols = a > 0, b > 0
    # alpha > 0 leaves a positive cap on some row and some column; when every
    # cap is positive, a finite largest entry is a cell that can carry mass
    if not (-np.inf < top < np.inf
            and (every_cap_positive or np.isfinite(K[np.ix_(rows, cols)]).any())):
        raise ValueError(f"eps={cfg.eps} is too small for these costs: -C/eps overflows to "
                         "+inf in some cell, or to -inf in every cell with a positive row "
                         "and column cap")
    K -= top
    np.exp(K, out=K)
    total = K.sum()
    K *= alpha / total

    if every_cap_positive:
        block_a, block_b = a, b
    else:
        K = K[np.ix_(rows, cols)]
        block_a, block_b = a[rows], b[cols]

    def log_kernel(out):
        """log K, the log-sum-exp-normalised -C/eps plus log(alpha), in ``out``."""
        with np.errstate(over="ignore"):
            np.divide(C if every_cap_positive else C[np.ix_(rows, cols)], -cfg.eps, out=out)
        out += np.log(alpha) - (np.log(total) + top)
        return out

    matrix, n_iter, converged = _sweeps(K, log_kernel, block_a, block_b, alpha, cfg)
    if not every_cap_positive:
        full = np.zeros(C.shape)
        full[np.ix_(rows, cols)] = matrix
        matrix = full
    plan = TransportPlan(matrix, a, b, alpha, converged=converged, n_iter=n_iter)
    if converged:
        plan.validate(ENTROPIC_FEAS_TOL)
    return plan


# kernel sums and scalings below this have lost the precision of a double
_KERNEL_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _sweeps(K, log_kernel, a, b, alpha: float, cfg: SolverConfig):
    """The plan on the positive-cap block, the sweep count and whether
    successive log scalings became stationary within max_iter.

    ``K`` is the positive-cap block of the kernel, so ``a`` and ``b`` are
    positive.  Sweeps run on K and linear scalings until the first one that
    leaves float range; ``log_kernel`` then writes log K over K, and that sweep
    is redone, and every later one run, in log form.  The plan overwrites K.
    """
    m = len(a)
    # the row scalings u = uv[:m] and the column scalings v = uv[m:]
    uv, s = np.ones(m + len(b)), 1.0
    for it in range(cfg.max_iter):
        new = _kernel_sweep(K, a, b, alpha, uv[m:], s)
        if new is None:
            return _log_sweeps(log_kernel(K), np.log(a), np.log(b), np.log(alpha),
                               np.log(uv[:m]), np.log(uv[m:]), math.log(s), it, cfg)
        new_uv, new_s = new
        ratio = new_uv / uv
        change = max(math.log(ratio.max()), -math.log(ratio.min()), abs(math.log(new_s / s)))
        uv, s = new
        if change < cfg.tol:
            n_iter, converged = it + 1, True
            break
    else:
        n_iter, converged = cfg.max_iter, False
    # scalings are at most 1, and a row or column pass by all ones is skipped
    if uv[:m].min() < 1.0:
        K *= uv[:m, None]
    K *= uv[m:] * s if uv[m:].min() < 1.0 else s
    return K, n_iter, converged


def _kernel_sweep(K, a, b, alpha, v, s):
    """One sweep from the column scalings ``v`` and the total scaling ``s``,
    as two matrix-vector products with the positive-cap block K: the new row
    and column scalings in one array, and the new total scaling.  None when
    a row or column sum or a new scaling falls below _KERNEL_FLOOR."""
    m = len(a)
    new = np.empty(m + len(b))
    row_sums = K @ v
    if row_sums.min() < _KERNEL_FLOOR:
        return None
    u = np.minimum(a / (s * row_sums), 1.0, out=new[:m])
    col_sums = u @ K
    if col_sums.min() < _KERNEL_FLOOR:
        return None
    level = b / col_sums
    t = _water_level(col_sums, level, b, alpha, s)
    np.minimum(level / t, 1.0, out=new[m:])
    if new.min() < _KERNEL_FLOOR:
        return None
    return new, t


def _water_level(c, level, b, alpha: float, guess: float) -> float:
    """The t > 0 with sum_j min(t c_j, b_j) = alpha, for column sums c > 0,
    their caps b and ``level`` = b / c, the t at which each column fills.

    The sum is piecewise linear and increasing in t.  The columns whose
    level lies below ``guess``, the previous sweep's t, are taken as the
    full ones, and the others share what their caps leave of alpha: with no
    full column, t = alpha / sum(c).  When the t this gives fills as many
    columns, it fills the same ones, those of lowest level, and it is the
    answer.  Failing that, _log_water_level sorts the levels.
    """
    full = level < guess
    n_full = np.count_nonzero(full)
    if n_full == 0:
        t = alpha / c.sum()
        if t <= level.min():
            return t
    elif n_full < len(c):
        t = (alpha - b @ full) / (c @ ~full)
        if t > 0 and np.count_nonzero(level < t) == n_full:
            return t
    return math.exp(_log_water_level(np.log(c), np.log(b), math.log(alpha)))


def _log_water_level(log_c, log_b, log_alpha: float) -> float:
    """log t for the water level of _water_level, from log column sums and
    log caps, so that t may lie far outside float range.

    With the columns sorted by level and the first k of them full, the sum
    at the k-th level is their caps plus that level times the other
    columns' sum; t lies between the level before the first k at which this
    reaches alpha and that level.  When none does, alpha is the whole
    column mass, and t is the largest level.  A column of log sum -inf
    never fills and carries nothing.
    """
    live = log_c > -np.inf
    if not live.all():
        log_c, log_b = log_c[live], log_b[live]
    level = log_b - log_c
    order = np.argsort(level)
    level, log_c, b = level[order], log_c[order], np.exp(log_b[order])
    # the sum of c from column k on, and the caps of the columns before k
    log_rest = np.logaddexp.accumulate(log_c[::-1])[::-1]
    filled = np.cumsum(b) - b
    alpha = math.exp(log_alpha)
    with np.errstate(over="ignore"):
        reach = filled + np.exp(level + log_rest)
    k = int(np.argmax(reach >= alpha))
    if not reach[k] >= alpha:
        return float(level[-1])
    log_t = (math.log(alpha - filled[k]) if alpha > filled[k] else -np.inf) - log_rest[k]
    # rounding may leave the interval the answer lies in
    return float(min(max(log_t, level[k - 1] if k else -np.inf), level[k]))


def _log_sweeps(L0, log_a, log_b, log_alpha, log_u, log_v, log_s, start: int,
                cfg: SolverConfig):
    """Sweeps ``start`` onwards in log form over the log kernel L0, from the
    log scalings of the last kernel sweep; returns what ``_sweeps`` does, the
    plan overwriting L0.

    A log scaling of size x is stored to about x * 2^-52.  When that exceeds
    tol, as when -C/eps spans many orders of float range, a sweep that
    leaves the scalings unchanged certifies nothing: the loop stops there
    and flags the plan as not converged, as it would at max_iter."""
    n_iter, converged = cfg.max_iter, False
    for it in range(start, cfg.max_iter):
        new_u, new_v, new_s = _log_sweep(L0, log_a, log_b, log_alpha, log_u, log_v, log_s)
        change = max(np.max(np.abs(new_u - log_u)), np.max(np.abs(new_v - log_v)),
                     abs(new_s - log_s))
        log_u, log_v, log_s = new_u, new_v, new_s
        if change < cfg.tol:
            size = max(-log_u.min(), -log_v.min(), abs(log_s))
            n_iter, converged = it + 1, bool(size * np.finfo(float).eps < cfg.tol)
            break
    L0 += log_u[:, None]
    L0 += log_v + log_s
    return np.exp(L0, out=L0), n_iter, converged


def _log_sweep(L0, log_a, log_b, log_alpha, log_u, log_v, log_s):
    """The same sweep as log-sum-exps over L0, for kernel sums that underflow.

    A row or column whose cells all overflowed has a log-sum-exp of -inf and
    takes the log scaling 0, the cap of the damping."""
    log_u = np.minimum(log_a - log_s - _logsumexp(L0 + log_v[None, :], axis=1), 0.0)
    log_c = _logsumexp(L0 + log_u[:, None], axis=0)
    log_t = _log_water_level(log_c, log_b, log_alpha)
    return log_u, np.minimum(log_b - log_t - log_c, 0.0), log_t
