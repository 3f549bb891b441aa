"""Constructive source/target weights from transport plans and competing schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import feature_cost_matrix
from .pot import TransportPlan, _transport_lp, exact_partial_ot

__all__ = [
    "WeightVector",
    "ArpmConfig",
    "marginal_weights",
    "tv_term",
    "scheme_uniform",
    "scheme_ba3us",
    "scheme_arpm",
    "gamma_constrained_weights",
    "weight_histogram",
]

HIST_BINS = 20  # equal-width bins of [0, 1] in every weights_hist.csv
ARPM_STEPS = 30  # projected-subgradient steps per scheme_arpm call


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative per-sample weights."""

    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.values, dtype=float)
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "values", w)

    @property
    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class ArpmConfig:
    """Chi-square-ball weighting: the ball's radius parameter rho."""

    rho: float = 5.0

    def __post_init__(self):
        if not self.rho >= 0:
            raise ValueError("arpm rho must be nonnegative")


def marginal_weights(plan: TransportPlan):
    """Row and column sums of a coupling; both sum to the plan mass."""
    return WeightVector(plan.row_sums), WeightVector(plan.col_sums)


def tv_term(q: WeightVector | np.ndarray, alpha: float, n_t: int) -> float:
    """Total-variation correction (1/2) sum_j |1/n_t - q_j/alpha|."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    q = q.values if isinstance(q, WeightVector) else np.asarray(q, dtype=float)
    if q.shape[0] != n_t:
        raise ValueError("q must have one entry per target sample")
    return 0.5 * float(np.abs(1.0 / n_t - q / alpha).sum())


def scheme_uniform(n_s: int) -> WeightVector:
    if n_s < 1:
        raise ValueError("n_s must be at least 1")
    return WeightVector(np.full(n_s, 1.0 / n_s))


def scheme_ba3us(target_predictions, source_labels, n_t: int) -> WeightVector:
    """Weight of source sample i: fraction of target predictions equal to y_i."""
    preds = np.asarray(target_predictions)
    labels = np.asarray(source_labels)
    classes, counts = np.unique(preds, return_counts=True)
    freq = dict(zip(classes.tolist(), counts.tolist()))
    values = np.array([freq.get(y, 0) for y in labels.tolist()], dtype=float) / n_t
    return WeightVector(values)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def _project_delta(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact Euclidean projection onto the simplex intersect the L2 ball around uniform.

    With a multiplier mu >= 0 on the ball, the KKT conditions give
    x = P_simplex(u + t (v - u)) for t = 1/(1 + mu), and since simplex
    projection ignores constant shifts this is P_simplex(t v).  Its distance
    to u never decreases in t, so the projection is at the largest t in [0, 1]
    that stays in the ball.  On the support of the k largest entries of v,
    ||P_simplex(t v) - u||^2 = 1/k - 1/n + t^2 D_k, where D_k is the sum of
    squared deviations of those entries from their mean, so t solves a
    quadratic once the support at the answer is known.  Entries clipped by
    the simplex projection are exact zeros, and a point already in the set is
    returned as it is.
    """
    n = v.shape[0]
    r2 = radius * radius
    if np.all(v >= 0) and abs(v.sum() - 1.0) <= 1e-12 and float(((v - 1.0 / n) ** 2).sum()) <= r2:
        return v
    s = np.sort(v)[::-1]
    k = np.arange(1, n + 1)
    mean = np.cumsum(s) / k
    # Built from nonnegative increments, so ties give exact zeros and both
    # sequences stay nondecreasing in floating point.  spread[k-1] = D_k, and
    # entry k leaves the support of P_simplex(t v) at t = 1 / drop[k-1].
    spread = np.concatenate(([0.0], np.cumsum(k[:-1] / k[1:] * (s[1:] - mean[:-1]) ** 2)))
    drop = np.concatenate(([0.0], np.cumsum(k[:-1] * (s[:-1] - s[1:]))))
    # entry k + 1 is still in the support at the answer iff the distance at
    # its drop point, 1/k - 1/n + D_k / drop^2, exceeds the radius
    stays = (drop[1:] == 0) | (spread[:-1] > (r2 - 1.0 / k[:-1] + 1.0 / n) * drop[1:] ** 2)
    kept = 1 + int(np.argmin(np.append(stays, False)))
    slack = max(r2 - 1.0 / kept + 1.0 / n, 0.0)
    t = 1.0 if spread[kept - 1] <= slack else float(np.sqrt(slack / spread[kept - 1]))
    return _project_simplex(t * v)


def _w1_to_uniform_target(p_hat: np.ndarray, dist: np.ndarray):
    """Balanced OT value of p_hat against the uniform target, plus row duals.

    The row duals are the c-transform f_i = min_j (dist_ij - g_j) of the
    column duals g that the LP returns.  Together with g they form an optimal
    dual pair.  f equals the LP's own row dual on every atom with mass.  On an
    empty atom it is the cost of the cheapest target atom that atom could
    serve at the prices g, where the LP's own row dual is whichever of many
    optimal values the solver's vertex happens to give.
    """
    n_t = dist.shape[1]
    b = np.full(n_t, 1.0 / n_t)
    matrix, _, _, col_duals = _transport_lp(p_hat, b, dist)
    return float(np.vdot(dist, matrix)), (dist - col_duals).min(axis=1)


def scheme_arpm(source_feats, target_feats, cfg: ArpmConfig) -> WeightVector:
    """Minimizer of W1 to the uniform target over the chi-square ball, best found.

    The feasible set is the simplex intersect the L2 ball of radius
    sqrt(rho / n_s) around uniform.  Three kinds of candidate are compared
    and the one of least W1 is returned:

    - uniform, so the result is never worse than uniform;
    - the nearest-source weighting, which sends each target atom to its
      nearest source atom, projected onto the feasible set;
    - the iterates of ``ARPM_STEPS`` projected subgradient steps from
      uniform, whose subgradients are the row duals of
      ``_w1_to_uniform_target``.  Step k (from 1) moves a distance
      radius / sqrt(k) along the duals centred on the simplex, so the steps
      are scaled to the ball whatever the scale of the costs.  Constant duals
      mean the current point is optimal, and the loop stops there.

    The nearest-source weighting minimizes W1 over the whole simplex, so
    whenever it lies in the ball (always for rho >= n_s - 1) it is the exact
    minimizer, and it is returned as it is, with no LP solved.  When the ball
    binds the result is the best candidate seen, with no optimality
    certificate.
    """
    dist = feature_cost_matrix(source_feats, target_feats, 1.0)
    n_s = dist.shape[0]
    uniform = np.full(n_s, 1.0 / n_s)
    if cfg.rho == 0.0:
        return WeightVector(uniform)

    radius = float(np.sqrt(cfg.rho / n_s))
    nearest = np.bincount(dist.argmin(axis=0), minlength=n_s) / dist.shape[1]
    projected = _project_delta(nearest, radius)
    # _project_delta returns a point of the feasible set as it is
    if projected is nearest:
        return WeightVector(nearest)
    best_val, duals = _w1_to_uniform_target(uniform, dist)
    best = p = uniform
    val, _ = _w1_to_uniform_target(projected, dist)
    if val < best_val:
        best_val, best = val, projected
    for step in range(ARPM_STEPS):
        if np.ptp(duals) == 0.0:
            break
        direction = duals - duals.mean()
        length = radius / np.sqrt(step + 1.0)
        p = _project_delta(p - length / np.linalg.norm(direction) * direction, radius)
        val, duals = _w1_to_uniform_target(p, dist)
        if val < best_val:
            best_val, best = val, p
    return WeightVector(best)


def gamma_constrained_weights(source_feats, target_feats, beta: float,
                              alpha: float = 1.0) -> WeightVector:
    """Row sums of the optimal mass-alpha partial plan from the 1/beta-inflated
    uniform source onto the uniform target, under the feature distance.

    At alpha = 1 these weights minimize W1 to the uniform target over the
    capped simplex p_i <= 1/(beta*n_s).
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    dist = feature_cost_matrix(source_feats, target_feats, 1.0)
    n_s, n_t = dist.shape
    a = np.full(n_s, 1.0 / (beta * n_s))
    b = np.full(n_t, 1.0 / n_t)
    plan, _ = exact_partial_ot(a, b, dist, alpha)
    return WeightVector(plan.row_sums)


def weight_histogram(normalized_values) -> np.ndarray:
    """Counts over HIST_BINS equal-width bins of [0, 1]; values are clipped into range."""
    v = np.clip(np.asarray(normalized_values, dtype=float), 0.0, 1.0)
    counts, _ = np.histogram(v, bins=HIST_BINS, range=(0.0, 1.0))
    return counts
