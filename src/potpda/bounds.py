"""Evaluators for the empirical target-loss bounds and their PAC-Bayes wrapper.

All classifier minima run over finite, certificate-checked candidate sets, so
every min/max is exact.  The difficulty terms need the hidden target labels
and are therefore oracle-only: they exist to verify the bounds at desk scale,
not to be reported in production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    Hypothesis,
    LinearFeatureMap,
    LipschitzClassifier,
    LossSpec,
    PdaDataset,
    clipped_abs_loss,
    empirical_feature_measure,
    feature_cost_matrix,
    joint_cost_matrix,
)
from .pot import exact_partial_ot
from .weights import marginal_weights, tv_term

__all__ = [
    "FiniteClassifierSet",
    "BoundReport",
    "PacBayesConfig",
    "difficulty_term",
    "feature_bound_report",
    "min_decomposition_gap",
    "joint_bound_report",
    "loss_difference_check",
    "pac_bayes_rhs",
    "optimal_lambda",
    "random_bound_instance",
    "bound_check",
    "pac_bayes_experiment",
]

# bias range of the candidate grid built by FiniteClassifierSet.build
CANDIDATE_BIAS_LOW = -0.5
CANDIDATE_BIAS_HIGH = 1.5


@dataclass(frozen=True)
class FiniteClassifierSet:
    """Finite family of scalar classifiers, each certified ||v|| <= gamma."""

    candidates: tuple[LipschitzClassifier, ...]
    gamma: float

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("classifier set must be nonempty")
        for g in self.candidates:
            if float(np.linalg.norm(g.v)) > self.gamma + 1e-9:
                raise ValueError("candidate violates the Lipschitz certificate")

    def __len__(self) -> int:
        return len(self.candidates)

    def stacked(self):
        vs = np.stack([g.v for g in self.candidates])
        bs = np.array([g.b for g in self.candidates])
        return vs, bs

    def with_candidate(self, g: LipschitzClassifier) -> "FiniteClassifierSet":
        gamma = max(self.gamma, float(np.linalg.norm(g.v)))
        return FiniteClassifierSet(self.candidates + (g,), gamma)

    @classmethod
    def build(cls, gamma: float, feat_dim: int, size: int,
              rng: np.random.Generator) -> "FiniteClassifierSet":
        """Grid of candidates: random unit directions crossed with magnitude
        and bias levels, normalized so every candidate is certified."""
        n_levels = max(2, int(round(math.sqrt(size))))
        magnitudes = np.linspace(gamma / n_levels, gamma, n_levels)
        biases = np.linspace(CANDIDATE_BIAS_LOW, CANDIDATE_BIAS_HIGH, n_levels)
        cands = []
        while len(cands) < size:
            direction = rng.normal(size=feat_dim)
            direction /= max(np.linalg.norm(direction), 1e-12)
            for mag in magnitudes:
                for bias in biases:
                    cands.append(LipschitzClassifier(mag * direction, float(bias), gamma))
                    if len(cands) == size:
                        return cls(tuple(cands), gamma)
        return cls(tuple(cands), gamma)


@dataclass(frozen=True)
class BoundReport:
    """Itemized right-hand side of a target-loss bound plus the oracle left side."""

    weighted_source_loss: float
    pw_term: float
    tv_term: float
    difficulty_term: float
    rhs_total: float
    lhs_empirical_target_loss: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        parts = (self.weighted_source_loss, self.pw_term, self.tv_term, self.difficulty_term)
        if any(t < -1e-12 for t in parts):
            raise ValueError("bound terms must be nonnegative")
        if abs(self.rhs_total - sum(parts)) > 1e-12:
            raise ValueError("rhs_total must equal the sum of its terms")

    @property
    def slack(self) -> float:
        return self.rhs_total - self.lhs_empirical_target_loss


@dataclass(frozen=True)
class PacBayesConfig:
    """High-probability wrapper parameters for a finite hypothesis family."""

    lam: float
    delta: float
    n_t: int
    kl: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")
        if self.kl < 0:
            raise ValueError("KL divergence must be nonnegative")


def _candidate_losses(G: FiniteClassifierSet, feats: np.ndarray, labels: np.ndarray,
                      loss: LossSpec) -> np.ndarray:
    """Loss of every candidate on every sample, shape (n_candidates, n_samples)."""
    vs, bs = G.stacked()
    preds = np.clip(feats @ vs.T + bs[None, :], 0.0, 1.0)
    return loss.elementwise(preds, labels[:, None]).T


def _pooled(ds: PdaDataset):
    if ds.target_y_hidden is None:
        raise ValueError("bound evaluation needs hidden target labels")
    inputs = np.vstack([ds.source_x, ds.target_x])
    labels = np.concatenate([np.asarray(ds.source_y, dtype=float),
                             np.asarray(ds.target_y_hidden, dtype=float)])
    return inputs, labels


def difficulty_term(f: LinearFeatureMap, G: FiniteClassifierSet, inputs, labels,
        loss: LossSpec) -> float:
    """Smallest worst-case loss any candidate achieves on the pooled data."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    labels = np.asarray(labels, dtype=float)
    if inputs.shape[0] == 0:
        raise ValueError("difficulty term needs at least one sample")
    losses = _candidate_losses(G, f(inputs), labels, loss)
    return float(losses.max(axis=1).min())


def _check_hypothesis(w: Hypothesis, gamma: float) -> LipschitzClassifier:
    g = w.classifier
    if not isinstance(g, LipschitzClassifier) or not g.is_certified():
        raise ValueError("Lipschitz certificate missing")
    if float(np.linalg.norm(g.v)) > gamma + 1e-9:
        raise ValueError("Lipschitz certificate missing")
    return g


def _feature_bound_terms(f: LinearFeatureMap, ds: PdaDataset, alpha: float, beta: float,
                         gamma: float, G: FiniteClassifierSet, loss: LossSpec):
    """What the feature-based bound shares across classifier heads on one sample.

    Returns the plan's source weights, the source features and the terms
    (2/alpha PW, TV correction, twice the difficulty term).
    """
    masses_s, feats_s = empirical_feature_measure(ds.source_x, f, 1.0 / beta)
    masses_t, feats_t = empirical_feature_measure(ds.target_x, f, 1.0)
    C = feature_cost_matrix(feats_s, feats_t, gamma)
    plan, pw = exact_partial_ot(masses_s, masses_t, C, alpha)
    p, q = marginal_weights(plan)
    inputs, labels = _pooled(ds)
    lf = difficulty_term(f, G, inputs, labels, loss)
    return p, feats_s, (2.0 / alpha * pw, tv_term(q, alpha, ds.n_t), 2.0 * lf)


def feature_bound_report(w: Hypothesis, ds: PdaDataset, alpha: float, beta: float,
                 gamma: float, G: FiniteClassifierSet,
                 loss: LossSpec | None = None) -> BoundReport:
    """Feature-based bound: weighted source loss + (2/alpha) partial transport
    of the 1/beta-inflated source features + TV correction + twice the
    difficulty term.  The left side is evaluated from hidden labels."""
    loss = loss or clipped_abs_loss()
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise ValueError("alpha and beta must lie in (0, 1]")
    _check_hypothesis(w, gamma)
    p, _, shared = _feature_bound_terms(w.feature_map, ds, alpha, beta, gamma, G, loss)
    src_losses = loss.elementwise(w.predict(ds.source_x), np.asarray(ds.source_y, dtype=float))
    tgt_losses = loss.elementwise(w.predict(ds.target_x), np.asarray(ds.target_y_hidden, dtype=float))
    terms = (float((p.values / alpha) @ src_losses), *shared)
    return BoundReport(*terms, rhs_total=sum(terms),
                       lhs_empirical_target_loss=float(tgt_losses.mean()),
                       params={"alpha": alpha, "beta": beta, "gamma": gamma})


def min_decomposition_gap(f: LinearFeatureMap, G: FiniteClassifierSet, p_hat, q_hat, alpha: float,
            source_x, source_y, target_x, target_y_hidden, loss: LossSpec) -> float:
    """Gap between the joint candidate minimum of the weighted source and
    target losses and the sum of the two separate minima; nonnegative."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    p_hat = np.asarray(p_hat, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    A = _candidate_losses(G, f(np.atleast_2d(source_x)), np.asarray(source_y, dtype=float), loss) @ (p_hat / alpha)
    B = _candidate_losses(G, f(np.atleast_2d(target_x)), np.asarray(target_y_hidden, dtype=float), loss) @ (q_hat / alpha)
    xi = float((A + B).min() - (A.min() + B.min()))
    return max(xi, 0.0)


def joint_bound_report(w: Hypothesis, ds: PdaDataset, alpha: float, beta: float,
                 gamma: float, zeta: float, G: FiniteClassifierSet,
                 loss: LossSpec | None = None) -> BoundReport:
    """Joint-distribution bound: the transport cost couples features with the
    label distance to the hypothesis's own target predictions.

    The candidate minima run over G extended with the hypothesis's classifier;
    the decomposition of the joint minimum is only an upper bound when the
    family contains it.
    """
    loss = loss or clipped_abs_loss()
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise ValueError("alpha and beta must lie in (0, 1]")
    g = _check_hypothesis(w, gamma)
    f = w.feature_map
    G_full = G.with_candidate(g)

    masses_s, feats_s = empirical_feature_measure(ds.source_x, f, 1.0 / beta)
    masses_t, feats_t = empirical_feature_measure(ds.target_x, f, 1.0)
    predicted = w.predict(ds.target_x)
    C = joint_cost_matrix(feats_s, ds.source_y, feats_t, predicted, zeta * gamma, loss)
    plan, pw = exact_partial_ot(masses_s, masses_t, C, alpha)
    p_hat, q_hat = marginal_weights(plan)

    src_losses = loss.elementwise(w.predict(ds.source_x), np.asarray(ds.source_y, dtype=float))
    weighted = float((p_hat.values / alpha) @ src_losses)
    tv = tv_term(q_hat, alpha, ds.n_t)

    if ds.target_y_hidden is None:
        raise ValueError("bound evaluation needs hidden target labels")
    hidden = np.asarray(ds.target_y_hidden, dtype=float)
    B = _candidate_losses(G_full, f(ds.target_x), hidden, loss) @ (q_hat.values / alpha)
    xi = min_decomposition_gap(f, G_full, p_hat.values, q_hat.values, alpha,
                 ds.source_x, ds.source_y, ds.target_x, hidden, loss)
    l_hat = float(B.min()) + xi

    tgt_losses = loss.elementwise(predicted, hidden)
    terms = (weighted, pw / alpha, tv, l_hat)
    return BoundReport(*terms, rhs_total=sum(terms),
                       lhs_empirical_target_loss=float(tgt_losses.mean()),
                       params={"alpha": alpha, "beta": beta, "gamma": gamma, "zeta": zeta})


def loss_difference_check(w: Hypothesis, G: FiniteClassifierSet, inputs, labels,
                   loss: LossSpec | None = None) -> float:
    """Largest violation, over all sample pairs, of the loss-difference bound
    |l(w(x),y) - l(w(x~),y~)| <= 2*gamma*||f(x)-f(x~)|| + 2*L_f.

    Nonpositive (up to float noise) whenever the certificates hold.
    """
    loss = loss or clipped_abs_loss()
    gamma = w.classifier.gamma
    g = _check_hypothesis(w, gamma)
    f = w.feature_map
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    labels = np.asarray(labels, dtype=float)
    feats = f(inputs)
    point_losses = loss.elementwise(g(feats), labels)
    lf = difficulty_term(f, G, inputs, labels, loss)
    pair_gap = np.abs(point_losses[:, None] - point_losses[None, :])
    feat_dist = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=2)
    return float((pair_gap - 2.0 * gamma * feat_dist - 2.0 * lf).max())


def pac_bayes_rhs(mean_R: float, cfg: PacBayesConfig) -> float:
    """High-probability bound on the posterior-average population target loss."""
    return mean_R + cfg.lam / (8.0 * cfg.n_t) + (cfg.kl + math.log(1.0 / cfg.delta)) / cfg.lam


def optimal_lambda(n_t: int, kl: float, delta: float) -> float:
    """Minimizer of the two penalty terms of the wrapper in lambda."""
    return math.sqrt(8.0 * n_t * (kl + math.log(1.0 / delta)))


def random_bound_instance(rng: np.random.Generator, n_max: int = 30, d_max: int = 3,
                          n_candidates: int = 25):
    """Random certified instance for bound validity sweeps.

    Returns (hypothesis, dataset-with-hidden-labels, alpha, beta, gamma, G)
    with labels produced by a noisy Lipschitz labeler, so the data are neither
    realizable nor adversarial.
    """
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(1, d + 1))
    n_s = int(rng.integers(2, n_max + 1))
    n_t = int(rng.integers(2, n_max + 1))
    f = LinearFeatureMap(rng.normal(size=(k, d)))
    gamma = float(rng.uniform(0.5, 3.0))
    v = rng.normal(size=k)
    v *= rng.uniform(0.2, 1.0) * gamma / max(np.linalg.norm(v), 1e-12)
    w = Hypothesis(f, LipschitzClassifier(v, float(rng.uniform(-0.5, 1.5)), gamma))

    source_x = rng.normal(size=(n_s, d))
    target_x = rng.normal(size=(n_t, d)) + rng.normal(scale=0.5, size=d)
    labeler_v = rng.normal(size=k)
    labeler_v *= gamma / max(np.linalg.norm(labeler_v), 1e-12)

    def make_labels(x):
        clean = np.clip(f(x) @ labeler_v + 0.5, 0.0, 1.0)
        return np.clip(clean + rng.normal(scale=0.1, size=len(clean)), 0.0, 1.0)

    ds = PdaDataset(source_x, make_labels(source_x), target_x, make_labels(target_x))
    alpha = float(rng.uniform(1e-3, 1.0))
    beta = float(rng.uniform(1e-3, 1.0))
    G = FiniteClassifierSet.build(gamma, k, n_candidates, rng)
    return w, ds, alpha, beta, gamma, G


def bound_check(theorem: int, trials: int, seed: int, n_max: int = 30,
                tol: float = 1e-9) -> dict:
    """Run random-instance validity sweeps; returns violation counts and the
    per-trial slack records."""
    if theorem not in (1, 2):
        raise ValueError("theorem must be 1 or 2")
    rng = np.random.default_rng(seed)
    records = []
    violations = 0
    for trial in range(trials):
        w, ds, alpha, beta, gamma, G = random_bound_instance(rng, n_max=n_max, n_candidates=24)
        if theorem == 1:
            report = feature_bound_report(w, ds, alpha, beta, gamma, G)
        else:
            report = joint_bound_report(w, ds, alpha, beta, gamma, 1.0, G)
        if report.slack < -tol:
            violations += 1
        records.append({
            "trial": trial,
            "n_s": ds.n_s,
            "n_t": ds.n_t,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "lhs": report.lhs_empirical_target_loss,
            "rhs": report.rhs_total,
            "slack": report.slack,
        })
    slacks = [r["slack"] for r in records]
    return {
        "theorem": theorem,
        "trials": trials,
        "violations": violations,
        "max_slack": max(slacks),
        "min_slack": min(slacks),
        "records": records,
    }


def pac_bayes_experiment(trials: int, delta: float, seed: int, n_s: int = 20,
                         n_t: int = 15, n_hypotheses: int = 8, alpha: float = 0.8,
                         beta: float = 0.5, posterior_temp: float = 10.0) -> dict:
    """Monte-Carlo validity check of the wrapped feature-based bound.

    The world is a fixed finite-support labeled population for each domain, so
    the population target loss of every hypothesis is exact.  Each trial draws
    fresh source/target samples, forms a source-loss-softmax posterior (which
    never sees target labels), and tests the wrapped bound at confidence delta.
    """
    world_rng = np.random.default_rng(seed)
    d = k = 2
    f = LinearFeatureMap(world_rng.normal(size=(k, d)))
    gamma = 1.5
    G = FiniteClassifierSet.build(gamma, k, n_hypotheses, world_rng)
    loss = clipped_abs_loss()

    pool_n = 400
    labeler_v = world_rng.normal(size=k)
    labeler_v *= gamma / np.linalg.norm(labeler_v)

    def make_pool(shift):
        x = world_rng.normal(size=(pool_n, d)) + shift
        y = np.clip(f(x) @ labeler_v + 0.5 + world_rng.normal(scale=0.1, size=pool_n), 0.0, 1.0)
        return x, y

    src_pool_x, src_pool_y = make_pool(0.0)
    tgt_pool_x, tgt_pool_y = make_pool(world_rng.normal(scale=0.3, size=d))

    # Exact population target loss per hypothesis (uniform over the pool).
    tgt_pool_feats = f(tgt_pool_x)
    pop_losses = _candidate_losses(G, tgt_pool_feats, tgt_pool_y, loss).mean(axis=1)

    lam = optimal_lambda(n_t, math.log(n_hypotheses), delta)
    trial_rng = np.random.default_rng(seed + 1)
    violations = 0
    for _ in range(trials):
        si = trial_rng.integers(0, pool_n, size=n_s)
        ti = trial_rng.integers(0, pool_n, size=n_t)
        ds = PdaDataset(src_pool_x[si], src_pool_y[si], tgt_pool_x[ti], tgt_pool_y[ti])

        p, feats_s, shared = _feature_bound_terms(f, ds, alpha, beta, gamma, G, loss)
        src_cand = _candidate_losses(G, feats_s, np.asarray(ds.source_y, dtype=float), loss)
        R = src_cand @ (p.values / alpha) + sum(shared)

        posterior = np.exp(-posterior_temp * src_cand.mean(axis=1))
        posterior /= posterior.sum()
        kl = float(np.sum(posterior * np.log(np.maximum(posterior * n_hypotheses, 1e-300))))
        cfg = PacBayesConfig(lam=lam, delta=delta, n_t=n_t, kl=kl)
        bound = pac_bayes_rhs(float(posterior @ R), cfg)
        if float(posterior @ pop_losses) > bound + 1e-12:
            violations += 1
    return {
        "trials": trials,
        "delta": delta,
        "violations": violations,
        "violation_rate": violations / trials,
        "lambda": lam,
    }
