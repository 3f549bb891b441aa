"""Minibatch trainer: weighted source loss plus a partial-transport alignment term.

Each step solves the entropic partial transport between the 1/beta-inflated
batch-source atoms and the batch-target atoms under a feature-plus-label cost,
freezes the plan, and takes one SGD step through the weighted cross-entropy
and the alignment cost.  Gradients are exact for the fixed-plan objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .measures import PdaDataset
from .pot import SolverConfig, entropic_partial_ot
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
    feat_dim: int = 0  # 0 keeps the input dimension
    weight_scheme: str = "warmpot"  # one of SCHEMES
    weight_update_every: int = 1
    arpm: ArpmConfig = field(default_factory=ArpmConfig)
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
        if self.feat_dim < 0:
            raise ValueError("feat_dim must be nonnegative")
        if self.weight_scheme not in SCHEMES:
            raise ValueError(f"weight_scheme must be one of {', '.join(SCHEMES)}")
        if self.weight_update_every < 1:
            raise ValueError("weight_update_every must be positive")
        self.solver()  # eps, solver_max_iter and solver_tol follow SolverConfig's rules

    def solver(self) -> SolverConfig:
        return SolverConfig(eps=self.eps, max_iter=self.solver_max_iter, tol=self.solver_tol)


@dataclass
class ModelParams:
    """Linear feature map plus linear-softmax classifier."""

    W_f: np.ndarray
    W_g: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.W_f = np.atleast_2d(np.asarray(self.W_f, dtype=float))
        self.W_g = np.atleast_2d(np.asarray(self.W_g, dtype=float))
        self.bias = np.atleast_1d(np.asarray(self.bias, dtype=float))
        for block in (self.W_f, self.W_g, self.bias):
            if not np.all(np.isfinite(block)):
                raise ValueError("model parameters must be finite")

    @classmethod
    def init(cls, d: int, k: int, n_classes: int, rng: np.random.Generator) -> "ModelParams":
        """Near-identity feature map and a zero classifier head.

        With uniform initial predictions the label part of the alignment cost
        is constant, so the first plans couple by raw input geometry; a
        confident random head would lock in arbitrary early couplings through
        the prediction-dependent cost.
        """
        W_f = np.eye(k, d) + rng.normal(scale=0.01, size=(k, d))
        return cls(W_f, np.zeros((n_classes, k)), np.zeros(n_classes))

    def copy(self) -> "ModelParams":
        return ModelParams(self.W_f.copy(), self.W_g.copy(), self.bias.copy())

    def features(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.W_f.T

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        return _softmax(self.features(x) @ self.W_g.T + self.bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.probabilities(x).argmax(axis=1)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def alpha_schedule(iteration: int, cfg: TrainConfig) -> float:
    """Linear ramp from 0.01 to alpha_max over ramp_iters, then constant."""
    if not 0 <= iteration < cfg.total_iters:
        raise ValueError("iteration out of range")
    frac = min(iteration / cfg.ramp_iters, 1.0)
    return ALPHA_START + (cfg.alpha_max - ALPHA_START) * frac


@dataclass(frozen=True)
class _Forward:
    """One evaluation of the model on a minibatch.

    Holds everything the plan solve, the objective value and the gradients
    read, so a training step maps each input through the model once.
    """

    bs_x: np.ndarray
    bs_y: np.ndarray
    bt_x: np.ndarray
    feats_s: np.ndarray
    feats_t: np.ndarray
    probs_s: np.ndarray
    probs_t: np.ndarray
    dist: np.ndarray
    src_losses: np.ndarray
    cost: np.ndarray


def _forward(params: ModelParams, bs_x, bs_y, bt_x, cfg: TrainConfig) -> _Forward:
    """Features, softmaxes, feature distances, per-sample source losses and
    the feature-plus-label alignment cost."""
    bs_x = np.atleast_2d(np.asarray(bs_x, dtype=float))
    bt_x = np.atleast_2d(np.asarray(bt_x, dtype=float))
    bs_y = np.asarray(bs_y, dtype=int)
    feats_s = params.features(bs_x)
    feats_t = params.features(bt_x)
    probs_s = _softmax(feats_s @ params.W_g.T + params.bias)
    probs_t = _softmax(feats_t @ params.W_g.T + params.bias)
    src_losses = -np.log(np.maximum(probs_s[np.arange(len(bs_y)), bs_y], 1e-300))
    dist = cdist(feats_s, feats_t)
    # cross-entropy of each source one-hot label against each target prediction
    ce = -np.log(np.maximum(probs_t[:, bs_y], 1e-300)).T
    cost = cfg.eta1 * dist + cfg.eta2 * ce
    return _Forward(bs_x, bs_y, bt_x, feats_s, feats_t, probs_s, probs_t, dist, src_losses, cost)


def _solve(fwd: _Forward, alpha: float, cfg: TrainConfig):
    """Entropic partial plan of the minibatch and its row sums as source weights."""
    n_bs, n_bt = fwd.cost.shape
    if n_bs == 0 or n_bt == 0:
        raise ValueError("batches must be nonempty")
    a = np.full(n_bs, 1.0 / (cfg.beta * n_bs))
    b = np.full(n_bt, 1.0 / n_bt)
    alpha_eff = min(alpha, a.sum(), b.sum())
    plan = entropic_partial_ot(a, b, fwd.cost, alpha_eff, cfg.solver())
    return plan, WeightVector(plan.matrix.sum(axis=1), "warmpot")


def _value(fwd: _Forward, plan_matrix: np.ndarray, source_weights: np.ndarray) -> float:
    return float(source_weights @ fwd.src_losses) + float((plan_matrix * fwd.cost).sum())


def _gradients(params: ModelParams, fwd: _Forward, plan_matrix: np.ndarray,
               source_weights: np.ndarray, cfg: TrainConfig) -> dict:
    n_classes = params.W_g.shape[0]
    onehot = np.eye(n_classes)[fwd.bs_y]

    # non-finite inputs are caught by the explicit check at the end
    with np.errstate(invalid="ignore", over="ignore"):
        # weighted source cross-entropy: dz_s[i] = w_i (p_s[i] - onehot_i)
        dz_s = source_weights[:, None] * (fwd.probs_s - onehot)
        # label part of the alignment cost:
        # dz_t[j] = eta2 (colmass_j p_t[j] - sum_i plan_ij onehot_i)
        col_mass = plan_matrix.sum(axis=0)
        dz_t = cfg.eta2 * (col_mass[:, None] * fwd.probs_t - plan_matrix.T @ onehot)

        dW_g = dz_s.T @ fwd.feats_s + dz_t.T @ fwd.feats_t
        dbias = dz_s.sum(axis=0) + dz_t.sum(axis=0)
        dfeats_s = dz_s @ params.W_g
        dfeats_t = dz_t @ params.W_g

        # feature part of the alignment cost: subgradient 0 at coincident
        # features, where the difference tensor gives an exact zero
        diff = fwd.feats_s[:, None, :] - fwd.feats_t[None, :, :]
        scale = cfg.eta1 * plan_matrix / np.maximum(fwd.dist, 1e-12)
        dfeats_s += np.einsum("ij,ijk->ik", scale, diff)
        dfeats_t -= np.einsum("ij,ijk->jk", scale, diff)

        dW_f = dfeats_s.T @ fwd.bs_x + dfeats_t.T @ fwd.bt_x
    grads = {"W_f": dW_f, "W_g": dW_g, "bias": dbias}
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in {name}: "
                f"|plan|={plan_matrix.sum():.3e} max|feat|={np.abs(fwd.feats_s).max():.3e}")
    return grads


def warmpot_objective(bs_x, bs_y, bt_x, params: ModelParams, alpha: float, cfg: TrainConfig):
    """Solve the minibatch alignment problem and evaluate the full objective.

    Returns (value, plan, source weights).  The weights are the plan's row
    sums; alpha is clamped to the feasible batch mass when necessary.
    """
    fwd = _forward(params, bs_x, bs_y, bt_x, cfg)
    plan, p_hat = _solve(fwd, alpha, cfg)
    return _value(fwd, plan.matrix, p_hat.values), plan, p_hat


def fixed_plan_value(params: ModelParams, bs_x, bs_y, bt_x, plan_matrix: np.ndarray,
                     source_weights: np.ndarray, cfg: TrainConfig) -> float:
    """Objective with the plan and source weights frozen; the function the
    gradient step differentiates."""
    return _value(_forward(params, bs_x, bs_y, bt_x, cfg), plan_matrix, source_weights)


def fixed_plan_gradients(params: ModelParams, bs_x, bs_y, bt_x, plan_matrix: np.ndarray,
                         source_weights: np.ndarray, cfg: TrainConfig) -> dict:
    """Exact gradients of fixed_plan_value for every parameter block."""
    return _gradients(params, _forward(params, bs_x, bs_y, bt_x, cfg), plan_matrix,
                      source_weights, cfg)


def warmpot_step(params: ModelParams, bs_x, bs_y, bt_x, alpha: float, cfg: TrainConfig,
                 source_weights: np.ndarray | None = None):
    """One alternating step: solve, freeze the plan, descend.

    ``source_weights`` overrides the plan-derived weights (used by the
    competing weighting schemes); the alignment term is unchanged.
    Returns the updated params and a metrics record.
    """
    fwd = _forward(params, bs_x, bs_y, bt_x, cfg)
    plan, p_hat = _solve(fwd, alpha, cfg)
    weights = p_hat.values if source_weights is None else np.asarray(source_weights, dtype=float)
    value = _value(fwd, plan.matrix, weights)
    grads = _gradients(params, fwd, plan.matrix, weights, cfg)
    new = params.copy()
    new.W_f -= cfg.lr * grads["W_f"]
    new.W_g -= cfg.lr * grads["W_g"]
    new.bias -= cfg.lr * grads["bias"]
    info = {
        "objective": value,
        "plan_mass": float(plan.matrix.sum()),
        "solver_converged": plan.converged,
        "alpha": plan.mass,
        "p_hat": p_hat.values,
    }
    return new, info


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


def class_labels(source_y) -> np.ndarray:
    """Source labels as class indices; the classifier head has one row per
    index up to the largest, so labels must be nonnegative integers."""
    y = np.asarray(source_y)
    if not (np.issubdtype(y.dtype, np.number) and np.all(y >= 0) and np.all(y == np.floor(y))):
        raise ValueError("source labels must be nonnegative integers")
    return y.astype(int)


def train(ds: PdaDataset, cfg: TrainConfig):
    """Run the full schedule; deterministic for a fixed seed and config.

    Returns the final params and a per-iteration trace.  When the dataset
    carries hidden target labels, the trace records the share of source weight
    on classes absent from the target.  Source labels that are not
    nonnegative integers raise ValueError.
    """
    source_y = class_labels(ds.source_y)
    rng = np.random.default_rng(cfg.seed)
    n_classes = int(source_y.max()) + 1
    k = cfg.feat_dim or ds.dim
    params = ModelParams.init(ds.dim, k, n_classes, rng)

    outlier_mask = None
    if ds.target_y_hidden is not None:
        shared = set(np.unique(np.asarray(ds.target_y_hidden, dtype=int)).tolist())
        outlier_mask = np.array([y not in shared for y in source_y])

    scheme_full = _scheme_weights_full(cfg.weight_scheme, ds, params, cfg)
    trace = []
    for it in range(cfg.total_iters):
        alpha = alpha_schedule(it, cfg)
        si = rng.choice(ds.n_s, size=cfg.batch_size, replace=cfg.batch_size > ds.n_s)
        ti = rng.choice(ds.n_t, size=cfg.batch_size, replace=cfg.batch_size > ds.n_t)
        bs_x, bs_y, bt_x = ds.source_x[si], source_y[si], ds.target_x[ti]

        if cfg.weight_scheme != "warmpot" and it % cfg.weight_update_every == 0 and it > 0:
            scheme_full = _scheme_weights_full(cfg.weight_scheme, ds, params, cfg)
        batch_weights = None
        if scheme_full is not None:
            raw = scheme_full[si]
            total = raw.sum()
            batch_weights = raw / total if total > 0 else np.full(len(si), 1.0 / len(si))

        params, info = warmpot_step(params, bs_x, bs_y, bt_x, alpha, cfg, batch_weights)
        row = {
            "iter": it,
            "alpha": info["alpha"],
            "objective": info["objective"],
            "plan_mass": info["plan_mass"],
            "solver_converged": int(info["solver_converged"]),
        }
        if outlier_mask is not None:
            p = info["p_hat"]
            total = p.sum()
            row["outlier_weight_share"] = float(p[outlier_mask[si]].sum() / total) if total > 0 else 0.0
        trace.append(row)
    return params, trace
