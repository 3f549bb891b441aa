"""Exact and entropic solvers for fixed-mass partial transport.

The problem: minimize sum(C * P) over nonnegative plans P with row sums
dominated by ``a``, column sums dominated by ``b``, and total mass exactly
``alpha``.  The exact path reduces to a balanced transportation problem by
appending one dummy row and column.  It solves that problem over a shortlist
of cells (the shortlist method of Gottschlich and Schuhmacher, 2014) and
certifies the result on the full matrix by its reduced costs.  HiGHS solves
each sparse LP through the binding scipy's own LP interface calls, without
that interface's per-call input and option handling: each thread keeps one
solver, with its options set once, and hands it each LP as arrays.  An LP
whose shortlist leaves cells out runs without HiGHS's presolve, which costs
such a sparse model more than it saves; the dense model runs with presolve,
as scipy's interface runs it.  Where costs tie, an LP has several optimal
plans, and which one HiGHS returns depends on its model and on presolve:
the cost does not.
``_scipy_ext`` loads the binding from its extension file alone, so importing
this module skips the start-up cost of scipy's optimize package.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

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
# one HiGHS solver per thread, made on the thread's first LP (see _lp_solver)
_THREAD = threading.local()
# cheapest cells of each row and of each column on the transportation LP's
# first shortlist, and most negative reduced-cost cells per row added on each
# later round
_SHORTLIST_K = 6


@dataclass(frozen=True, init=False)
class TransportPlan:
    """A coupling matrix together with the caps and mass it must respect.

    ``n_iter`` is the solver's iteration count: entropic sweeps begun, or for
    exact plans HiGHS's ``simplex_iteration_count`` summed over the
    shortlist's LP rounds.  When the shortlist holds every cell there is one
    round, and the count is the ``nit`` that scipy's ``method="highs"`` LP
    interface reports on the dense LP.  ``residual`` is the entropic stopping
    residual of the plan (see entropic_partial_ot); NaN when no entropic
    solve measured it.  ``row_sums``, ``col_sums`` and the violation are
    measured once, at construction, so the matrix must not change
    afterwards.
    """

    matrix: np.ndarray
    row_caps: np.ndarray
    col_caps: np.ndarray
    mass: float
    converged: bool = True
    n_iter: int = 0
    residual: float = math.nan
    row_sums: np.ndarray = field(init=False, repr=False, compare=False)
    col_sums: np.ndarray = field(init=False, repr=False, compare=False)
    _violation: float = field(init=False, repr=False, compare=False)

    def __init__(self, matrix, row_caps, col_caps, mass: float, converged: bool = True,
                 n_iter: int = 0, residual: float = math.nan):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        row_caps = np.asarray(row_caps, dtype=float)
        col_caps = np.asarray(col_caps, dtype=float)
        mass = float(mass)
        row_sums, col_sums = matrix.sum(axis=1), matrix.sum(axis=0)
        total = float(row_sums.sum())
        # a non-finite entry leaves its row sum, and so the total, non-finite
        if not math.isfinite(total):
            violation = np.inf
        else:
            violation = abs(total - mass)
            if matrix.size:
                violation = max(violation, float(-matrix.min()),
                                float((row_sums - row_caps).max()),
                                float((col_sums - col_caps).max()))
        # a frozen dataclass's fields are set past its __setattr__
        vars(self).update(matrix=matrix, row_caps=row_caps, col_caps=col_caps, mass=mass,
                          converged=converged, n_iter=n_iter, residual=residual,
                          row_sums=row_sums, col_sums=col_sums, _violation=violation)

    def max_violation(self) -> float:
        """Largest constraint violation: negativity, cap excess, or mass error;
        infinite when an entry is not finite."""
        return self._violation

    def validate(self, tol: float = EXACT_FEAS_TOL) -> None:
        v = self.max_violation()
        if v > tol:
            raise ValueError(f"infeasible transport plan: violation {v:.3e} > {tol:.0e}")

    def cost(self, C) -> float:
        C = _cost_entries(C)
        if C.shape != self.matrix.shape:
            raise ValueError(f"cost shape {C.shape} does not match the plan's {self.matrix.shape}")
        return float(np.vdot(C, self.matrix))


@dataclass(frozen=True)
class SolverConfig:
    """Entropic solver knobs; defaults follow the standard preset.  ``tol``
    bounds the stopping residual, at most ENTROPIC_FEAS_TOL, so that a
    converged plan passes its feasibility check."""

    eps: float = 7.0
    max_iter: int = 5000
    tol: float = 1e-7

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("solver max_iter must be at least 1")
        if not 0 < self.tol <= ENTROPIC_FEAS_TOL:
            raise ValueError(f"solver tol must lie in (0, {ENTROPIC_FEAS_TOL:g}], got {self.tol}")


def _cost_entries(C) -> np.ndarray:
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.isfinite(C).all():
        raise ValueError("cost matrix must be finite")
    return C


def _check_inputs(a, b, C, alpha: float):
    """Finite costs, finite nonnegative marginals of matching lengths and a
    positive alpha within the smaller marginal mass; alpha is clipped to
    that mass.  The marginals are copied, so that a plan's caps stay its
    own when the caller changes its arrays."""
    C = _cost_entries(C)
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
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
    """Balanced transportation LP with equality marginals; returns the plan's
    matrix, the simplex iterations of all its LP rounds, and the row and
    column duals.

    The first round solves over a shortlist: the _SHORTLIST_K cheapest cells
    of each row and of each column, plus a north-west-corner support that
    keeps the sparse LP feasible.  Its duals f and g certify the plan on the
    full LP when every cell left out of the LP has reduced cost
    C - f - g >= -EXACT_FEAS_TOL; HiGHS's optimal status covers the cells in
    it.  The certified f and g are optimal duals of the full LP.  Otherwise
    each row's _SHORTLIST_K most negative cells join the LP, and HiGHS
    solves it again from its last optimal basis.  Every round runs on this
    thread's one HiGHS solver (see _lp_solver); the first round hands it the
    shortlist LP as arrays, replacing the model, basis and solution of any
    earlier LP, so no solve depends on the ones before it.

    When _SHORTLIST_K >= min(m, n) the shortlist holds every cell, and HiGHS
    gets the model, options and column order that scipy's ``method="highs"``
    LP interface would give it on the dense LP, so it returns the same
    optimal vertex and duals.  Any other LP runs without presolve (see
    _lp_solver), and where costs tie it may return another optimal plan
    than the dense LP would, at the same cost.
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
                       2 * k, starts, index, np.ones(2 * k))
        rows, cols = np.concatenate([rows, new_rows]), np.concatenate([cols, new_cols])
    matrix = np.zeros((m, n))
    matrix[rows, cols] = x
    return matrix, n_iter, f, g


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
    """Column starts and row indices of the cells' CSC constraint columns,
    the starts without the end of the last column: cell (rows[k], cols[k])
    has ones in constraint rows rows[k] and m + cols[k]."""
    index = np.empty(2 * len(rows), dtype=np.int32)
    index[0::2] = rows
    index[1::2] = m + cols
    return np.arange(0, 2 * len(rows), 2, dtype=np.int32), index


def _lp_solver(a, b, C, rows, cols):
    """This thread's HiGHS solver, holding the transportation LP restricted to
    the cells (rows[k], cols[k]), taken in that order.

    Each thread keeps one solver, whose options are set once: the ones
    scipy's ``method="highs"`` LP interface sets, all but presolve, which
    each call sets for its LP and which holds for all of that LP's rounds.
    The dense model, whose cells are all m * n, runs with presolve "on", as
    scipy's interface runs it, so it returns ``linprog``'s plan, duals and
    iteration count, and the duals that ARPM reads stay those.  An LP whose
    cells leave some out runs with presolve "off": on these sparse models
    HiGHS's dual simplex then reaches the same optimum in about half the
    time.  Each call hands the model over as arrays, which replaces the last
    model together with its basis and solution.
    """
    solver = getattr(_THREAD, "solver", None)
    if solver is None:
        options = _highs.HighsOptions()
        options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.output_flag = options.log_to_console = False
        for key, value in _LP_OPTIONS.items():
            setattr(options, key, value)
        solver = _THREAD.solver = _highs._Highs()
        solver.passOptions(options)
    m, n = C.shape
    n_var = len(rows)
    solver.setOptionValue("presolve", "on" if n_var == m * n else "off")
    starts, index = _cell_columns(m, rows, cols)
    marginals = np.concatenate([a, b])
    if solver.passModel(n_var, m + n, 2 * n_var, _highs.MatrixFormat.kColwise,
                        _highs.ObjSense.kMinimize, 0.0, C[rows, cols], np.zeros(n_var),
                        np.full(n_var, _highs.kHighsInf), marginals, marginals, starts,
                        index, np.ones(2 * n_var),
                        np.zeros(n_var, dtype=np.int32)) == _highs.HighsStatus.kError:
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
            solver.getInfoValue("simplex_iteration_count")[1])


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

    matrix, n_iter, _, _ = _transport_lp(a_ext, b_ext, C_ext)
    plan = TransportPlan(matrix[:m, :n], a, b, alpha, n_iter=n_iter)
    plan.validate(EXACT_FEAS_TOL)
    return plan, float(np.vdot(C, plan.matrix))


def entropic_partial_ot(a, b, C, alpha: float, cfg: SolverConfig | None = None) -> TransportPlan:
    """Approximate plan via Dykstra-corrected multiplicative scaling of exp(-C/eps).

    The kernel K is built once, in one buffer: -C/eps less its largest entry,
    one exponential, then a rescaling to total mass alpha.  The plan is
    s * diag(u) K diag(v) for scalings u of the rows, v of the columns and s
    of the total: the iterative Bregman projections of Benamou, Carlier,
    Cuturi, Nenna and Peyre (2015), over two constraint blocks.  Each sweep
    damps the rows onto their caps, then meets the column caps and the total
    mass together, exactly: from the column sums c of diag(u) K, the water
    level t with sum_j min(t c_j, b_j) = alpha gives s = t and
    v_j = min(1, b_j / (t c_j)).  A zero cap forces its row or column of the
    plan to zero, so the sweeps run on the block of rows and columns with
    positive caps, and the block plan is scattered into a zero matrix; when
    every cap is positive the block is K itself.  A sweep is two
    matrix-vector products with K.  One that meets a kernel sum or a scaling
    out of float range runs from the costs instead, and its scalings are
    absorbed into K (Schmitzer, 2019; Chizat, Peyre, Schmitzer and Vialard,
    2018), so that the next runs as products again.  The plan is K scaled in
    place.

    Each sweep begins by checking the current plan.  Its residual is the
    largest of the cap excesses, the mass error and, for each row or column
    whose scaling sits below its cap, the gap between its sum and its cap:
    how far the plan is from the conditions the entropic optimum meets.  The
    solve stops at the first check within tol, and ``n_iter`` counts the
    sweeps begun, that check's included; the plan carries its residual.  Not
    converging within max_iter sweeps is flagged on the plan, not raised,
    and so are absorbed log scalings too large to resolve tol.  Raises
    ValueError when eps is so small that -C/eps overflows to +inf in any
    cell, or to -inf in every cell that can carry mass.
    """
    return _entropic(*_check_inputs(a, b, C, alpha), cfg or SolverConfig())


def _entropic(a, b, C, alpha: float, cfg: SolverConfig, *,
              caps_positive: bool = False) -> TransportPlan:
    """entropic_partial_ot on checked inputs: 1-d float arrays of finite
    nonnegative caps that admit the mass alpha > 0, and a 2-d float array
    of finite costs of matching shape.  ``caps_positive`` vouches that
    every cap is positive, which is then not tested."""
    # overflowed cells carry no mass; in the sweeps, a kernel sum of 0 or a
    # quotient past float range stands for its limit
    with np.errstate(divide="ignore", over="ignore"):
        K = C / -cfg.eps
        top = K.max()
        every_cap_positive = caps_positive or (a.min() > 0 and b.min() > 0)
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
            np.divide(C if every_cap_positive else C[np.ix_(rows, cols)], -cfg.eps, out=out)
            out += np.log(alpha) - (np.log(total) + top)
            return out

        matrix, n_iter, converged, residual = _sweeps(K, log_kernel, block_a, block_b, alpha, cfg)
    if not every_cap_positive:
        full = np.zeros(C.shape)
        full[np.ix_(rows, cols)] = matrix
        matrix = full
    plan = TransportPlan(matrix, a, b, alpha, converged, n_iter, residual)
    if converged:
        plan.validate(ENTROPIC_FEAS_TOL)
    return plan


# relative scalings and caps stay below the ceiling, so that kernel entries
# lost to underflow stay negligible; kernel sums, with scalings up to it, and
# scalings below the floor have lost the precision of a double
_SCALING_CEIL = 2.0 ** 64
_KERNEL_FLOOR = _SCALING_CEIL * np.finfo(float).tiny / np.finfo(float).eps


def _sweeps(K, log_kernel, a, b, alpha: float, cfg: SolverConfig):
    """The plan on the positive-cap block K, written over K; the sweeps
    begun; whether a check met tol within max_iter sweeps; and the plan's
    residual.

    The plan is s diag(u) K diag(v) for relative scalings u, v and s; the
    cumulative log scalings add those absorbed into K, at most 0 for rows
    and columns, so the cap 1 on a cumulative scaling caps the relative one
    at exp(-absorbed).  Each check reads the row sums from the product K v
    that its sweep starts from.  The columns and the mass are read once, on
    the kernel itself: every sweep's water level meets the column caps and
    the mass, and an absorption rebuilds K from log scalings of size L,
    whose plan then meets them to a relative L 2^-52.  When L 2^-52 exceeds
    tol, no check could vouch for the columns, so such an absorption ends
    the solve, flagged, with the residual of its whole plan.  The plan that
    max_iter sweeps leave is checked too, for its residual.
    """
    m = len(a)
    # nothing is absorbed yet, and every cap is 1
    uv, s, absorbed, h = _ones(m + len(b)), 1.0, 0.0, 0.0
    cap = uv
    # the first check, on the kernel itself, with every scaling at its cap
    Kv, col_sums = K @ uv[m:], uv[:m] @ K
    residual = max(float((Kv - a).max()), float((col_sums - b).max()),
                   abs(float(col_sums.sum()) - alpha))
    for it in range(cfg.max_iter + 1):
        if residual <= cfg.tol or it == cfg.max_iter:
            break
        new = _kernel_sweep(K, a, b, alpha, Kv, s, cap)
        if new is not None:
            uv, s = new
        else:
            logs, log_s = np.log(uv) + absorbed, math.log(s) + h
            absorbed, h = _absorbing_sweep(K, log_kernel, a, b, alpha, logs[m:], log_s)
            _absorb(K, log_kernel, absorbed[:m], absorbed[m:] + h)
            if max(-absorbed.min(), abs(h)) * np.finfo(float).eps >= cfg.tol:
                residual = max(_excess(K.sum(axis=1), a, absorbed[:m] < 0),
                               _excess(K.sum(axis=0), b, absorbed[m:] < 0), abs(K.sum() - alpha))
                return K, it + 1, False, residual
            uv, s = _ones(m + len(b)), 1.0
            # a cap cut above the ceiling binds only out of range
            cap = np.exp(np.minimum(-absorbed, math.log(_SCALING_CEIL) + 1.0))
        # the next sweep's check
        Kv = K @ uv[m:]
        row_sums = Kv * uv[:m]
        row_sums *= s
        residual = _excess(row_sums, a, uv[:m] < cap[:m])
    # with no sweep run, K is the plan; otherwise a pass by all ones is skipped
    if it:
        if (uv[:m] != 1.0).any():
            K *= uv[:m, None]
        K *= uv[m:] * s if (uv[m:] != 1.0).any() else s
    # the last check, after max_iter sweeps, only measures the plan
    return K, min(it + 1, cfg.max_iter), it < cfg.max_iter, residual


@lru_cache
def _ones(n: int) -> np.ndarray:
    """All ones, the scalings and caps before any sweep; built once per
    length, and read-only, since the sweeps replace scalings and never
    write them."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _excess(sums, caps, free) -> float:
    """The largest excess of ``sums`` over ``caps``, or 0; where ``free``,
    a scaling sits below its cap, and a shortfall counts too."""
    gap = sums - caps
    np.abs(gap, out=gap, where=free)
    return float(gap.max(initial=0.0))


def _kernel_sweep(K, a, b, alpha, Kv, s, cap):
    """One sweep from ``Kv``, the product of K with the column scalings, and
    the total scaling ``s``, with one more matrix-vector product: the new
    row and column scalings, capped by ``cap``, in one array, and the new
    total scaling.  None when the columns whose sums are in range cannot
    meet alpha, or a new scaling leaves [_KERNEL_FLOOR, _SCALING_CEIL).

    A row or column sum below _KERNEL_FLOOR is imprecise, but so small that
    any scaling in range leaves its row or column at its cap, with a mass
    below rounding; a row sum of 0 makes its quotient infinite."""
    m = len(a)
    new = np.empty(m + len(b))
    u = np.minimum(a / (s * Kv), cap[:m], out=new[:m])
    col_sums = u @ K
    live = slice(None)
    if col_sums.min() < _KERNEL_FLOOR:
        live = col_sums >= _KERNEL_FLOOR
        if b[live].sum() < alpha:
            return None
    # the column sums of diag(cumulative u) K0, relative to the absorbed total
    col_sums *= cap[m:]
    level = b / col_sums
    t = _water_level(col_sums[live], level[live], b[live], alpha, s)
    np.minimum(level / t, 1.0, out=new[m:])
    new[m:] *= cap[m:]
    if not (_KERNEL_FLOOR <= min(new.min(), t) and max(new.max(), t) < _SCALING_CEIL):
        return None
    return new, t


def _absorbing_sweep(K, log_kernel, a, b, alpha: float, log_v, log_s):
    """The sweep of _kernel_sweep from the last sweep's cumulative log column
    and total scalings, with the kernel sums taken from the costs over K's
    buffer: the new cumulative log scalings of the rows and columns, in one
    array, and of the total."""
    log_u = np.minimum(np.log(a) - _absorb(K, log_kernel, 0.0, log_v + log_s, 1), 0.0)
    log_c = _absorb(K, log_kernel, log_u, 0.0, 0)
    log_b = np.log(b)
    log_t = _log_water_level(log_c, log_b, math.log(alpha))
    return np.concatenate([log_u, np.minimum(log_b - log_t - log_c, 0.0)]), log_t


def _absorb(K, log_kernel, row, col, axis: int | None = None):
    """Rebuild K from the costs as exp(log K0 + row_i + col_j), over its buffer.
    With an ``axis``, each slice along it is first shifted to peak at 1, and
    the log sums of the unshifted slices, -inf where all cells overflowed,
    are returned."""
    L = log_kernel(K)
    L += np.reshape(row, (-1, 1))
    L += col
    if axis is not None:
        top = L.max(axis=axis, keepdims=True)
        top[top == -np.inf] = 0.0
        L -= top
    np.exp(L, out=L)
    return None if axis is None else np.log(L.sum(axis=axis)) + top.ravel()


def _water_level(c, level, b, alpha: float, guess: float) -> float:
    """The t > 0 with sum_j min(t c_j, b_j) = alpha, for column sums c > 0,
    their caps b and ``level`` = b / c, the t at which each column fills.

    The sum is piecewise linear and increasing in t.  The columns whose
    level lies below ``guess``, the previous sweep's t, are taken as the
    full ones, and the others share what their caps leave of alpha, all of
    it when no column is full.  When the t this gives fills as many
    columns, it fills the same ones, those of lowest level, and it is the
    answer.  Failing that, _log_water_level sorts the levels.
    """
    full = level < guess
    n_full = np.count_nonzero(full)
    if n_full < len(c):
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
