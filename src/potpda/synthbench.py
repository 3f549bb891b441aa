"""Synthetic partial-adaptation tasks and the desk-scale ablation harness."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .measures import PdaDataset
from .pot import entropic_partial_ot  # noqa: F401 - wrapped by name in perfbench/spans.py
from . import warmpot
from .warmpot import ModelParams, TrainConfig, train
from .weights import WeightVector, weight_histogram

__all__ = [
    "TaskSpec",
    "BenchResult",
    "generate_pda_task",
    "outlier_weight_share",
    "target_accuracy",
    "final_source_weights",
    "run_ablation",
]


@dataclass(frozen=True)
class TaskSpec:
    """Gaussian-blob task: K source classes, the first `shared` live in the target."""

    K: int = 5
    shared: int = 3
    d: int = 4
    n_s: int = 200
    n_t: int = 120
    separation: float = 4.0
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.shared <= self.K:
            raise ValueError("need 1 <= shared <= K")
        if self.d < 1:
            raise ValueError("dimension d must be at least 1")
        if self.n_s < self.shared or self.n_t < self.shared:
            raise ValueError("sample counts must be at least the shared class count")
        if not self.separation > 0:
            raise ValueError("separation must be positive")
        if not self.noise > 0:
            raise ValueError("noise must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class BenchResult:
    """One ablation row: accuracy statistics and weight diagnostics per variant."""

    label: str
    accuracies: tuple
    acc_mean: float
    acc_std: float
    outlier_share: float
    outlier_shares: tuple
    histogram: np.ndarray
    failures: tuple = ()
    solver_nonconverged: int | None = None


def _draw_centers(spec: TaskSpec, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample K centers with pairwise distance >= separation."""
    box = spec.separation * spec.K
    centers = np.empty((spec.K, spec.d))
    placed = 0
    for _ in range(100_000):
        c = rng.uniform(0.0, box, size=spec.d)
        if (np.linalg.norm(centers[:placed] - c, axis=1) >= spec.separation).all():
            centers[placed] = c
            placed += 1
            if placed == spec.K:
                return centers
    raise RuntimeError("could not place class centers; lower K or separation")


def generate_pda_task(spec: TaskSpec) -> PdaDataset:
    """Source covers all K classes; the target only the first `shared`.

    Labels are round-robin (balanced up to one sample), features are the class
    center plus isotropic noise.  Deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    centers = _draw_centers(spec, rng)
    source_y = rng.permutation(np.arange(spec.n_s) % spec.K)
    target_y = rng.permutation(np.arange(spec.n_t) % spec.shared)
    source_x = centers[source_y] + rng.normal(scale=spec.noise, size=(spec.n_s, spec.d))
    target_x = centers[target_y] + rng.normal(scale=spec.noise, size=(spec.n_t, spec.d))
    return PdaDataset(source_x, source_y, target_x, target_y)


def outlier_weight_share(weights: WeightVector | np.ndarray, source_labels, shared: int) -> float:
    """Fraction of total source weight on classes the target never contains."""
    w = weights.values if isinstance(weights, WeightVector) else np.asarray(weights, dtype=float)
    labels = np.asarray(source_labels)
    total = float(w.sum())
    if not total > 0:
        raise ValueError("total weight is zero")
    return float(w[labels >= shared].sum() / total)


def target_accuracy(params: ModelParams, ds: PdaDataset) -> float:
    if ds.target_y_hidden is None:
        raise ValueError("accuracy needs hidden target labels")
    return float(np.mean(params.predict(ds.target_x) == np.asarray(ds.target_y_hidden)))


def final_source_weights(params: ModelParams, ds: PdaDataset, cfg: TrainConfig):
    """End-of-training full-dataset plan weights, raw and cap-normalized."""
    # looked up on its module, where perfbench's traced run wraps it
    _, _, p_hat = warmpot.warmpot_objective(ds.source_x, ds.source_y, ds.target_x, params,
                                            cfg.alpha_max, cfg)
    return p_hat, np.clip(p_hat.values * cfg.beta * ds.n_s, 0.0, 1.0)


def run_ablation(spec: TaskSpec, variants: Sequence[tuple[str, TrainConfig]],
                 seeds: Sequence[int]) -> list[BenchResult]:
    """Train one model per (variant, seed) pair; one row per variant, in order.

    A variant is a label and the TrainConfig it trains with.  Each seed seeds
    both the task and the training run, so data and batches are paired across
    variants.  A seed that fails leaves a marker naming the exception type
    instead of aborting the table; statistics over no finished seed are NaN,
    and `solver_nonconverged` (steps whose plan was flagged not converged,
    summed over the seeds whose training finished) is then None."""
    results = []
    for label, cfg in variants:
        accs, shares, failures = [], [], []
        histogram = nonconverged = None
        for seed in seeds:
            ds = generate_pda_task(replace(spec, seed=seed))
            run_cfg = replace(cfg, seed=seed)
            try:
                params, trace = train(ds, run_cfg)
                nonconverged = (nonconverged or 0) + sum(1 - r["solver_converged"] for r in trace)
                accs.append(target_accuracy(params, ds))
                weights, normalized = final_source_weights(params, ds, run_cfg)
                shares.append(outlier_weight_share(weights, ds.source_y, spec.shared))
                if histogram is None:
                    histogram = weight_histogram(normalized)
            except Exception as exc:  # noqa: BLE001 - failure markers, not crashes
                failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        acc_arr = np.asarray(accs, dtype=float)
        results.append(BenchResult(
            label=label,
            accuracies=tuple(accs),
            acc_mean=float(acc_arr.mean()) if accs else float("nan"),
            acc_std=float(acc_arr.std()) if accs else float("nan"),
            outlier_share=float(np.mean(shares)) if shares else float("nan"),
            outlier_shares=tuple(shares),
            histogram=histogram if histogram is not None else weight_histogram([]),
            failures=tuple(failures),
            solver_nonconverged=nonconverged,
        ))
    return results
