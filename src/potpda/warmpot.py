"""Minibatch trainer: weighted source loss plus a partial-transport alignment term.

Each step solves the entropic partial transport between the 1/beta-inflated
batch-source atoms and the batch-target atoms under a feature-plus-label cost,
freezes the plan, and takes one SGD step through the weighted cross-entropy
and the alignment cost.  Gradients are exact for the fixed-plan objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._scipy_ext import cdist_euclidean
from .measures import PdaDataset
from .pot import ENTROPIC_FEAS_TOL, SolverConfig, TransportPlan, _entropic
# the training step solves through the private core; the public solver stays
# bound here, where perfbench's traced run looks it up
from .pot import entropic_partial_ot  # noqa: F401
from .weights import WeightVector, ArpmConfig, scheme_arpm, scheme_ba3us

__all__ = [
    "SCHEMES",
    "TrainConfig",
    "ModelParams",
    "alpha_schedule",
    "warmpot_objective",
    "warmpot_step",
    "fixed_plan_value",
    "fixed_plan_gradients",
    "class_labels",
    "train",
]

ALPHA_START = 0.01
SCHEMES = ("warmpot", "uniform", "ba3us", "arpm")
# feature pairs closer than this times the batch's largest feature distance
# take their alignment gradient from their differences (see _gradients)
CLOSE_PAIR_RTOL = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """All trainer hyperparameters.  Defaults follow the standard preset."""

    alpha_max: float = 0.8
    ramp_iters: int = 2500
    total_iters: int = 5000
    beta: float = 0.35
    eta1: float = 0.125
    eta2: float = 1.75
    eps: float = SolverConfig.eps
    lr: float = 0.001
    batch_size: int = 65
    seed: int = 0
    weight_scheme: str = "warmpot"  # one of SCHEMES
    arpm_rho: float = ArpmConfig.rho
    solver_max_iter: int = SolverConfig.max_iter
    solver_tol: float = SolverConfig.tol

    def __post_init__(self):
        if not 0 < self.alpha_max <= 1:
            raise ValueError("alpha_max must lie in (0, 1]")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.ramp_iters < 1 or self.total_iters < 1:
            raise ValueError("iteration counts must be positive")
        if self.ramp_iters > self.total_iters:
            raise ValueError("ramp_iters cannot exceed total_iters")
        # float rules are written as "not <valid>" here and in the other configs so NaN fails
        if not (self.eta1 >= 0 and self.eta2 >= 0):
            raise ValueError("eta1 and eta2 must be nonnegative")
        if not self.lr >= 0:
            raise ValueError("lr must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.weight_scheme not in SCHEMES:
            raise ValueError(f"weight_scheme must be one of {', '.join(SCHEMES)}")
        # eps, solver_max_iter and solver_tol build the SolverConfig, and
        # arpm_rho the ArpmConfig, each once and under its own rules
        object.__setattr__(self, "_solver", SolverConfig(eps=self.eps, max_iter=self.solver_max_iter,
                                                         tol=self.solver_tol))
        object.__setattr__(self, "arpm", ArpmConfig(rho=self.arpm_rho))

    def solver(self) -> SolverConfig:
        return self._solver


# the parameter blocks, in their order in the flat vector
_BLOCKS = ("W_f", "W_g", "bias")


def _block(index: int) -> property:
    """The read-only property of the index-th parameter block, a view of the
    flat vector."""
    return property(lambda self: self._blocks[index])


def _split(flat: np.ndarray, shapes: tuple) -> tuple:
    """Views of ``flat`` as consecutive blocks of the given shapes."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return tuple(views)


class ModelParams:
    """Linear feature map plus linear-softmax classifier.

    W_f, W_g and bias are views of one flat vector ``theta``, in that order,
    so an SGD step is one vector update.  The blocks cannot be assigned: a
    block changes by a write through its view, or in new params.
    """

    W_f, W_g, bias = _block(0), _block(1), _block(2)

    def __init__(self, W_f, W_g, bias):
        blocks = (np.atleast_2d(np.asarray(W_f, dtype=float)),
                  np.atleast_2d(np.asarray(W_g, dtype=float)),
                  np.atleast_1d(np.asarray(bias, dtype=float)))
        self._adopt(np.concatenate([block.ravel() for block in blocks]),
                    tuple(block.shape for block in blocks))

    @classmethod
    def _from_flat(cls, theta: np.ndarray, shapes: tuple) -> "ModelParams":
        """Params over ``theta`` itself, in blocks of ``shapes``."""
        params = cls.__new__(cls)
        params._adopt(theta, shapes)
        return params

    def _adopt(self, theta: np.ndarray, shapes: tuple) -> None:
        if not np.isfinite(theta).all():
            raise ValueError("model parameters must be finite")
        self.theta, self.shapes = theta, shapes
        self._blocks = _split(theta, shapes)

    def __repr__(self) -> str:
        return f"ModelParams(W_f={self.W_f!r}, W_g={self.W_g!r}, bias={self.bias!r})"

    @classmethod
    def init(cls, d: int, n_classes: int, rng: np.random.Generator) -> "ModelParams":
        """Square near-identity feature map and a zero classifier head.

        With uniform initial predictions the label part of the alignment cost
        is constant, so the first plans couple by raw input geometry; a
        confident random head would lock in arbitrary early couplings through
        the prediction-dependent cost.
        """
        W_f = np.eye(d) + rng.normal(scale=0.01, size=(d, d))
        return cls(W_f, np.zeros((n_classes, d)), np.zeros(n_classes))

    def copy(self) -> "ModelParams":
        return ModelParams._from_flat(self.theta.copy(), self.shapes)

    def features(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.W_f.T

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        return _class_probabilities(self, self.features(x)).T

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.probabilities(x).argmax(axis=1)


def _class_logits(params: ModelParams, feats: np.ndarray) -> np.ndarray:
    """Logits less each sample's largest, with one column per sample and one
    row per class, so the max and the sum over classes run along contiguous
    rows."""
    z = params.W_g @ feats.T + params.bias[:, None]
    z -= z.max(axis=0)
    return z


def _class_probabilities(params: ModelParams, feats: np.ndarray) -> np.ndarray:
    """Softmax predictions, laid out as _class_logits."""
    z = _class_logits(params, feats)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def alpha_schedule(iteration: int, cfg: TrainConfig) -> float:
    """Linear ramp from 0.01 to alpha_max over ramp_iters, then constant."""
    if not 0 <= iteration < cfg.total_iters:
        raise ValueError("iteration out of range")
    frac = min(iteration / cfg.ramp_iters, 1.0)
    return ALPHA_START + (cfg.alpha_max - ALPHA_START) * frac


class _Forward(NamedTuple):
    """One evaluation of the model on a minibatch.

    Holds everything the plan solve, the objective value and the gradients
    read, so a training step maps its inputs through the model once: the
    ``n_s`` source rows and then the target rows of ``x``, stacked in one
    array.  ``probs`` has one column per stacked row, and ``dist_max`` is
    the largest entry of ``dist``.
    """

    x: np.ndarray
    bs_y: np.ndarray
    n_s: int
    feats: np.ndarray
    probs: np.ndarray
    dist: np.ndarray
    dist_max: float
    src_losses: np.ndarray
    cost: np.ndarray


def _forward(params: ModelParams, x: np.ndarray, bs_y: np.ndarray, n_s: int,
             cfg: TrainConfig) -> _Forward:
    """Features and softmaxes of the stacked source and target batches,
    feature distances, per-sample source losses and the feature-plus-label
    alignment cost.  ``x`` is a 2-d float array whose first ``n_s`` rows are
    the source batch and ``bs_y`` their integer labels, as _batch gives
    them."""
    feats = params.features(x)
    z = _class_logits(params, feats)
    probs = np.exp(z)
    total = probs.sum(axis=0)
    probs /= total
    # the cross-entropy as log-sum-exp less the logit: exact where the
    # softmax entry underflows, so it has the gradient _gradients takes
    nll = np.log(total) - z
    dist = cdist_euclidean(feats[:n_s], feats[n_s:])
    dist_max = dist.max(initial=0.0)
    # features past float range give infinite distances without raising
    if not math.isfinite(dist_max):
        raise FloatingPointError(
            f"non-finite feature distance: max|feat|={np.abs(feats).max():.3e}")
    # cross-entropy of each source one-hot label against each target
    # prediction, scaled per class before it is spread over the batch
    cost = (cfg.eta2 * nll[:, n_s:])[bs_y]
    cost += cfg.eta1 * dist
    return _Forward(x, bs_y, n_s, feats, probs, dist, dist_max, nll[bs_y, np.arange(n_s)], cost)


def _batch(bs_x, bs_y, bt_x) -> tuple:
    """A minibatch as _forward reads it: the source inputs stacked over the
    target inputs in one 2-d float array, integer source labels and the
    number of source rows."""
    bs_x = np.atleast_2d(np.asarray(bs_x, dtype=float))
    x = np.concatenate([bs_x, np.atleast_2d(np.asarray(bt_x, dtype=float))])
    return x, np.asarray(bs_y, dtype=int), len(bs_x)


@lru_cache
def _marginals(n_s: int, n_t: int, beta: float):
    """The minibatch plan's caps, the 1/beta-inflated uniform source and the
    uniform target, and the largest mass they admit; built once per batch
    shape, and read-only.  Finite and positive, they need no check per
    solve."""
    a = np.full(n_s, 1.0 / (beta * n_s))
    b = np.full(n_t, 1.0 / n_t)
    a.flags.writeable = b.flags.writeable = False
    return a, b, min(a.sum(), b.sum())


@lru_cache
def _one_hot_table(n_classes: int) -> np.ndarray:
    """Column y is the one-hot label y; built once per class count and read-only."""
    table = np.eye(n_classes)
    table.flags.writeable = False
    return table


def _solve(fwd: _Forward, alpha: float, cfg: TrainConfig) -> TransportPlan:
    """Entropic partial plan of the minibatch; its row sums are the source weights."""
    n_bs, n_bt = fwd.cost.shape
    if n_bs == 0 or n_bt == 0:
        raise ValueError("batches must be nonempty")
    if not alpha > 0:
        raise ValueError("transported mass alpha must be positive")
    # the costs are nonnegative, so a NaN or an inf shows in the largest
    if not math.isfinite(fwd.cost.max()):
        raise ValueError("cost matrix must be finite")
    a, b, mass_limit = _marginals(n_bs, n_bt, cfg.beta)
    return _entropic(a, b, fwd.cost, min(alpha, mass_limit), cfg.solver(), caps_positive=True)


def _value(fwd: _Forward, plan_matrix: np.ndarray, source_weights: np.ndarray) -> float:
    return float(source_weights @ fwd.src_losses) + float(np.vdot(plan_matrix, fwd.cost))


def _gradients(params: ModelParams, fwd: _Forward, plan_matrix: np.ndarray, col_mass: np.ndarray,
               source_weights: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Gradient of the fixed-plan objective, laid out as ``params.theta``;
    ``col_mass`` is the plan's column sums.  The logit, feature and parameter
    gradients are each formed once over the stacked source and target rows,
    the parameter blocks straight into the flat vector."""
    n_s = fwd.n_s
    labels = _one_hot_table(params.W_g.shape[0])[:, fwd.bs_y]
    feats_s, feats_t = fwd.feats[:n_s], fwd.feats[n_s:]
    grad = np.empty_like(params.theta)
    dW_f, dW_g, dbias = _split(grad, params.shapes)

    # non-finite inputs are caught by the explicit check at the end
    with np.errstate(invalid="ignore", over="ignore"):
        # logit gradients, one column per stacked row
        dz = np.empty_like(fwd.probs)
        # weighted source cross-entropy: dz[:, i] = w_i (p_s[i] - onehot_i)
        np.multiply(fwd.probs[:, :n_s] - labels, source_weights, out=dz[:, :n_s])
        # label part of the alignment cost:
        # dz[:, n_s + j] = eta2 (colmass_j p_t[j] - sum_i plan_ij onehot_i)
        np.multiply(cfg.eta2, fwd.probs[:, n_s:] * col_mass - labels @ plan_matrix,
                    out=dz[:, n_s:])
        np.matmul(dz, fwd.feats, out=dW_g)
        dz.sum(axis=1, out=dbias)
        dfeats = dz.T @ params.W_g

        # feature part of the alignment cost: with s_ij = eta1 plan_ij / dist_ij,
        # sum_j s_ij (fs_i - ft_j) and sum_i s_ij (fs_i - ft_j) as matrix
        # products, each with eta1 times the features and a column of eta1
        # that gives the sums of s.  The products leave a rounding residue of
        # about eta1 plan_ij |f| 2^-52 / dist_ij from two cancelling terms, so
        # close pairs are taken out of s and summed from their differences
        # fs_i - ft_j below; coincident features take the subgradient 0 there
        scale = plan_matrix / np.maximum(fwd.dist, 1e-12)
        # close pairs are rare, so their mask is built only when the nearest
        # pair is one
        close_tol = CLOSE_PAIR_RTOL * fwd.dist_max
        close = fwd.dist <= close_tol if fwd.dist.min(initial=np.inf) <= close_tol else None
        if close is not None:
            scale[close] = 0.0
        k = fwd.feats.shape[1]
        feats_eta = np.empty((len(fwd.feats), k + 1))
        np.multiply(fwd.feats, cfg.eta1, out=feats_eta[:, :k])
        feats_eta[:, k] = cfg.eta1
        to_t, to_s = scale @ feats_eta[n_s:], scale.T @ feats_eta[:n_s]
        dfeats[:n_s] += to_t[:, k:] * feats_s - to_t[:, :k]
        dfeats[n_s:] += to_s[:, k:] * feats_t - to_s[:, :k]
        if close is not None:
            rows, cols = np.nonzero(close)
            close_scale = cfg.eta1 * plan_matrix[close] / np.maximum(fwd.dist[close], 1e-12)
            pull = close_scale[:, None] * (feats_s[rows] - feats_t[cols])
            np.add.at(dfeats, rows, pull)
            np.add.at(dfeats, n_s + cols, -pull)

        np.matmul(dfeats.T, fwd.x, out=dW_f)
    if not np.isfinite(grad).all():
        name = next(name for name, block in zip(_BLOCKS, (dW_f, dW_g, dbias))
                    if not np.isfinite(block).all())
        raise FloatingPointError(
            f"non-finite gradient in {name}: "
            f"|plan|={plan_matrix.sum():.3e} max|feat|={np.abs(feats_s).max():.3e}")
    return grad


def warmpot_objective(bs_x, bs_y, bt_x, params: ModelParams, alpha: float, cfg: TrainConfig):
    """Solve the minibatch alignment problem and evaluate the full objective.

    Returns (value, plan, source weights).  The weights are the plan's row
    sums; alpha is clamped to the feasible batch mass when necessary.
    """
    fwd = _forward(params, *_batch(bs_x, bs_y, bt_x), cfg)
    plan = _solve(fwd, alpha, cfg)
    return _value(fwd, plan.matrix, plan.row_sums), plan, WeightVector(plan.row_sums)


def fixed_plan_value(params: ModelParams, bs_x, bs_y, bt_x, plan_matrix: np.ndarray,
                     source_weights: np.ndarray, cfg: TrainConfig) -> float:
    """Objective with the plan and source weights frozen; the function the
    gradient step differentiates."""
    return _value(_forward(params, *_batch(bs_x, bs_y, bt_x), cfg), plan_matrix, source_weights)


def fixed_plan_gradients(params: ModelParams, bs_x, bs_y, bt_x, plan_matrix: np.ndarray,
                         source_weights: np.ndarray, cfg: TrainConfig) -> dict:
    """Exact gradients of fixed_plan_value for every parameter block."""
    plan_matrix = np.asarray(plan_matrix, dtype=float)
    grad = _gradients(params, _forward(params, *_batch(bs_x, bs_y, bt_x), cfg), plan_matrix,
                      plan_matrix.sum(axis=0), np.asarray(source_weights, dtype=float), cfg)
    return dict(zip(_BLOCKS, _split(grad, params.shapes)))


def warmpot_step(params: ModelParams, bs_x, bs_y, bt_x, alpha: float, cfg: TrainConfig,
                 source_weights: np.ndarray | None = None):
    """One alternating step: solve, freeze the plan, descend.

    ``source_weights`` overrides the plan-derived weights (used by the
    competing weighting schemes); the alignment term is unchanged.
    Returns new params, leaving ``params`` as they were, and the step's
    trace record in trace.csv's column order, ending with ``p_hat``, the
    plan's row sums.  A plan that breaks its caps or misses its mass by more
    than ENTROPIC_FEAS_TOL raises FloatingPointError: such plans come from
    costs that span too many eps, as the parameters diverge.
    """
    grad, record = _step(params, *_batch(bs_x, bs_y, bt_x), alpha, cfg, source_weights)
    return ModelParams._from_flat(params.theta - cfg.lr * grad, params.shapes), record


def _step(params: ModelParams, x: np.ndarray, bs_y: np.ndarray, n_s: int, alpha: float,
          cfg: TrainConfig, source_weights: np.ndarray | None):
    """warmpot_step on a batch as _batch gives it, up to the update: the
    gradient that the step subtracts lr times from ``params.theta``, and the
    trace record.  train runs it on the arrays it builds and updates its own
    theta in place."""
    fwd = _forward(params, x, bs_y, n_s, cfg)
    plan = _solve(fwd, alpha, cfg)
    mass = float(plan.row_sums.sum())
    violation = plan.max_violation()
    if violation > ENTROPIC_FEAS_TOL:
        raise FloatingPointError(
            f"entropic plan mass {mass:.3e} against alpha {plan.mass:.3e}, constraint violation "
            f"{violation:.3e}: max cost {fwd.cost.max():.3e} at eps {cfg.eps:.3e}")
    weights = plan.row_sums if source_weights is None else np.asarray(source_weights, dtype=float)
    value = _value(fwd, plan.matrix, weights)
    return _gradients(params, fwd, plan.matrix, plan.col_sums, weights, cfg), {
        "alpha": plan.mass,
        "objective": value,
        "plan_mass": mass,
        "solver_converged": int(plan.converged),
        "solver_iters": plan.n_iter,
        "solver_residual": plan.residual,
        "p_hat": plan.row_sums,
    }


def _scheme_weights_full(scheme: str, ds: PdaDataset, params: ModelParams,
                         cfg: TrainConfig) -> np.ndarray | None:
    """Full-dataset weights for the non-constructive schemes; None means the
    plan-derived weights are used per batch."""
    if scheme == "warmpot":
        return None
    if scheme == "uniform":
        return np.full(ds.n_s, 1.0 / ds.n_s)
    if scheme == "ba3us":
        preds = params.predict(ds.target_x)
        return scheme_ba3us(preds, ds.source_y, ds.n_t).values
    if scheme == "arpm":
        feats_s = params.features(ds.source_x)
        feats_t = params.features(ds.target_x)
        return scheme_arpm(feats_s, feats_t, cfg.arpm).values
    raise ValueError(f"unknown weight scheme {scheme!r}")


def _batch_weights(raw: np.ndarray) -> np.ndarray:
    """A batch's full-dataset weights normalised to sum 1; uniform when they
    sum to zero."""
    total = raw.sum()
    return raw / total if total > 0 else np.full(len(raw), 1.0 / len(raw))


def class_labels(labels) -> np.ndarray:
    """Labels as class indices; the classifier head has one row per index up
    to the largest, so labels must be nonnegative integers that fit in int64."""
    y = np.asarray(labels)
    if not (np.issubdtype(y.dtype, np.number) and (y >= 0).all() and (y < 2.0**63).all()
            and (y == np.floor(y)).all()):
        raise ValueError("labels must be nonnegative integers")
    return y.astype(int)


def _source_classes(labels) -> np.ndarray:
    """Source labels as the class indices that size the classifier head.
    Besides class_labels' rule, the largest must lie below the number of
    source rows: a larger one leaves a head row with no sample, and one far
    larger sizes a head past any memory."""
    y = class_labels(labels)
    if y.max() >= len(y):
        raise ValueError(f"labels must lie below the number of source rows, {len(y)}; "
                         f"the largest is {y.max()}")
    return y


def train(ds: PdaDataset, cfg: TrainConfig):
    """Run the full schedule; deterministic for a fixed seed and config.

    Returns the final params and a per-iteration trace.  Each step runs
    warmpot_step's computation on arrays train builds and updates the
    params' theta in place.  When the dataset carries hidden target labels,
    the trace records the share of source weight on classes absent from the
    target.  Source or hidden target labels that are not nonnegative
    integers, and a source label not below the number of source rows, raise
    ValueError; parameters that diverge raise FloatingPointError naming the
    iteration.
    """
    source_y = _source_classes(ds.source_y)
    outlier_mask = None
    if ds.target_y_hidden is not None:
        outlier_mask = ~np.isin(source_y, class_labels(ds.target_y_hidden))
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams.init(ds.dim, int(source_y.max()) + 1, rng)

    scheme_full = _scheme_weights_full(cfg.weight_scheme, ds, params, cfg)
    # uniform weights never change, so their batch weights are built once;
    # the other schemes' weights follow the model
    fixed = cfg.weight_scheme == "uniform"
    batch_weights = _batch_weights(np.full(cfg.batch_size, scheme_full[0])) if fixed else None
    refresh = scheme_full is not None and not fixed
    n_s, n_t = ds.n_s, ds.n_t
    replace_s, replace_t = cfg.batch_size > n_s, cfg.batch_size > n_t
    # each batch is one gather from the source rows stacked over the target rows
    stacked = np.concatenate([ds.source_x, ds.target_x])
    trace = []
    # an overflow or an invalid operation means the parameters have diverged;
    # it raises where it happens, and the error names the step
    with np.errstate(over="raise", invalid="raise"):
        try:
            for it in range(cfg.total_iters):
                alpha = alpha_schedule(it, cfg)
                si = rng.choice(n_s, size=cfg.batch_size, replace=replace_s)
                ti = rng.choice(n_t, size=cfg.batch_size, replace=replace_t)

                if refresh:
                    if it > 0:
                        scheme_full = _scheme_weights_full(cfg.weight_scheme, ds, params, cfg)
                    batch_weights = _batch_weights(scheme_full[si])

                x = stacked.take(np.concatenate([si, ti + n_s]), axis=0)
                grad, record = _step(params, x, source_y[si], cfg.batch_size, alpha, cfg,
                                     batch_weights)
                params.theta -= cfg.lr * grad
                row = {"iter": it, **record}
                p = row.pop("p_hat")
                if outlier_mask is not None:
                    total = row["plan_mass"]
                    row["outlier_weight_share"] = float(p[outlier_mask[si]].sum() / total) if total > 0 else 0.0
                trace.append(row)
        except FloatingPointError as exc:
            raise FloatingPointError(f"training diverged at iteration {it}: {exc}") from exc
    return params, trace
