"""Evaluators for the empirical target-loss bounds and their PAC-Bayes wrapper.

All classifier minima run over finite, certificate-checked candidate sets, so
every min/max is exact.  Both bound reports share one plan step: the two
empirical feature measures, a ground cost, the exact partial plan and its
marginal weights.  The difficulty terms need the hidden target labels and are
therefore oracle-only: they exist to verify the bounds at desk scale, not to
be reported in production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    CERT_TOL,
    Hypothesis,
    LinearFeatureMap,
    LipschitzClassifier,
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
# random_bound_instance's default sample-size cap, input-dimension cap and candidate count
INSTANCE_N_MAX = 30
INSTANCE_D_MAX = 3
INSTANCE_CANDIDATES = 24
# bound_check counts a slack below -CHECK_TOL as a violation
CHECK_TOL = 1e-9
# pac_bayes_experiment's sample sizes, family size, alignment knobs and posterior temperature
PAC_N_S = 20
PAC_N_T = 15
PAC_N_HYPOTHESES = 8
PAC_ALPHA = 0.8
PAC_BETA = 0.5
PAC_POSTERIOR_TEMP = 10.0


def _row_norms(V: np.ndarray) -> np.ndarray:
    # the row-wise dot product gives np.linalg.norm of each row bit for bit
    return np.sqrt(np.vecdot(V, V))


@dataclass(frozen=True)
class FiniteClassifierSet:
    """Finite family of scalar heads t -> clamp(<V[m], t> + b[m], 0, 1), each
    certified ||V[m]|| <= gamma."""

    V: np.ndarray
    b: np.ndarray
    gamma: float

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if V.ndim != 2 or b.shape != V.shape[:1]:
            raise ValueError("need a (candidates, features) V and one bias per candidate")
        if V.shape[0] == 0:
            raise ValueError("classifier set must be nonempty")
        if np.any(_row_norms(V) > self.gamma + CERT_TOL):
            raise ValueError("candidate violates the Lipschitz certificate")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "b", b)

    def with_candidate(self, g: LipschitzClassifier) -> "FiniteClassifierSet":
        gamma = max(self.gamma, float(np.linalg.norm(g.v)))
        return FiniteClassifierSet(np.vstack([self.V, g.v]), np.append(self.b, g.b), gamma)

    @classmethod
    def build(cls, gamma: float, feat_dim: int, size: int,
              rng: np.random.Generator) -> "FiniteClassifierSet":
        """Grid of candidates: random unit directions crossed with magnitude
        and bias levels (bias fastest), normalized so every candidate is
        certified.  Draws one direction per magnitude-by-bias block."""
        n_levels = max(2, int(round(math.sqrt(size))))
        magnitudes = np.linspace(gamma / n_levels, gamma, n_levels)
        biases = np.linspace(CANDIDATE_BIAS_LOW, CANDIDATE_BIAS_HIGH, n_levels)
        n_dirs = -(-size // n_levels**2)
        directions = rng.normal(size=(n_dirs, feat_dim))
        directions /= np.maximum(_row_norms(directions), 1e-12)[:, None]
        scaled = (magnitudes[:, None] * directions[:, None, :]).reshape(-1, feat_dim)
        V = np.repeat(scaled, n_levels, axis=0)[:size]
        b = np.tile(biases, n_dirs * n_levels)[:size]
        return cls(V, b, gamma)


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
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")
        if not self.kl >= 0:
            raise ValueError("KL divergence must be nonnegative")


def _candidate_losses(G: FiniteClassifierSet, feats: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Loss of every candidate on every sample, shape (n_candidates, n_samples)."""
    preds = np.clip(feats @ G.V.T + G.b, 0.0, 1.0)
    return clipped_abs_loss(preds, labels[:, None]).T


def difficulty_term(f: LinearFeatureMap, G: FiniteClassifierSet, inputs, labels) -> float:
    """Smallest worst-case loss any candidate achieves on the pooled data."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    labels = np.asarray(labels, dtype=float)
    if inputs.shape[0] == 0:
        raise ValueError("difficulty term needs at least one sample")
    losses = _candidate_losses(G, f(inputs), labels)
    return float(losses.max(axis=1).min())


def _check_hypothesis(w: Hypothesis, gamma: float) -> LipschitzClassifier:
    g = w.classifier
    if not (isinstance(g, LipschitzClassifier) and g.is_certified()
            and float(np.linalg.norm(g.v)) <= gamma + CERT_TOL):
        raise ValueError("Lipschitz certificate missing")
    return g


def _plan(f: LinearFeatureMap, ds: PdaDataset, alpha: float, beta: float, cost):
    """The plan step of both bounds: after the hidden-label and range checks,
    the exact mass-alpha plan from the 1/beta-inflated source features onto the
    target features under ``cost(feats_s, feats_t)``.  Returns both feature
    arrays, the plan's cost and its two marginal weight vectors."""
    if ds.target_y_hidden is None:
        raise ValueError("bound evaluation needs hidden target labels")
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise ValueError("alpha and beta must lie in (0, 1]")
    masses_s, feats_s = empirical_feature_measure(ds.source_x, f, 1.0 / beta)
    masses_t, feats_t = empirical_feature_measure(ds.target_x, f, 1.0)
    plan, pw = exact_partial_ot(masses_s, masses_t, cost(feats_s, feats_t), alpha)
    p, q = marginal_weights(plan)
    return feats_s, feats_t, pw, p, q


def _report(w: Hypothesis, ds: PdaDataset, alpha: float, p, rest: tuple,
            params: dict) -> BoundReport:
    """The weighted source loss of w followed by the other right-hand terms;
    the left side is w's mean loss on the hidden target labels."""
    src_losses = clipped_abs_loss(w.predict(ds.source_x), ds.source_y)
    tgt_losses = clipped_abs_loss(w.predict(ds.target_x), ds.target_y_hidden)
    terms = (float((p.values / alpha) @ src_losses), *rest)
    return BoundReport(*terms, rhs_total=sum(terms),
                       lhs_empirical_target_loss=float(tgt_losses.mean()), params=params)


def _feature_bound_terms(f: LinearFeatureMap, ds: PdaDataset, alpha: float, beta: float,
                         gamma: float, G: FiniteClassifierSet):
    """What the feature-based bound shares across classifier heads on one sample.

    Returns the plan's source weights, the source features and the terms
    (2/alpha PW, TV correction, twice the difficulty term).
    """
    feats_s, _, pw, p, q = _plan(f, ds, alpha, beta,
                                 lambda fs, ft: feature_cost_matrix(fs, ft, gamma))
    lf = difficulty_term(f, G, np.vstack([ds.source_x, ds.target_x]),
                         np.concatenate([ds.source_y, ds.target_y_hidden]))
    return p, feats_s, (2.0 / alpha * pw, tv_term(q, alpha, ds.n_t), 2.0 * lf)


def feature_bound_report(w: Hypothesis, ds: PdaDataset, alpha: float, beta: float,
                 gamma: float, G: FiniteClassifierSet) -> BoundReport:
    """Feature-based bound: weighted source loss + (2/alpha) partial transport
    of the 1/beta-inflated source features + TV correction + twice the
    difficulty term.  The left side is evaluated from hidden labels."""
    _check_hypothesis(w, gamma)
    p, _, rest = _feature_bound_terms(w.feature_map, ds, alpha, beta, gamma, G)
    return _report(w, ds, alpha, p, rest, {"alpha": alpha, "beta": beta, "gamma": gamma})


def min_decomposition_gap(f: LinearFeatureMap, G: FiniteClassifierSet, p_hat, q_hat, alpha: float,
            source_x, source_y, target_x, target_y_hidden) -> float:
    """Gap between the joint candidate minimum of the weighted source and
    target losses and the sum of the two separate minima; nonnegative."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    p_hat = np.asarray(p_hat, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    A = _candidate_losses(G, f(np.atleast_2d(source_x)), np.asarray(source_y, dtype=float)) @ (p_hat / alpha)
    B = _candidate_losses(G, f(np.atleast_2d(target_x)), np.asarray(target_y_hidden, dtype=float)) @ (q_hat / alpha)
    xi = float((A + B).min() - (A.min() + B.min()))
    return max(xi, 0.0)


def joint_bound_report(w: Hypothesis, ds: PdaDataset, alpha: float, beta: float,
                 gamma: float, zeta: float, G: FiniteClassifierSet) -> BoundReport:
    """Joint-distribution bound: the transport cost couples features with the
    label distance to the hypothesis's own target predictions.

    The candidate minima run over G extended with the hypothesis's classifier;
    the decomposition of the joint minimum is only an upper bound when the
    family contains it.
    """
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    g = _check_hypothesis(w, gamma)
    f = w.feature_map
    G_full = G.with_candidate(g)
    feats_s, feats_t, pw, p_hat, q_hat = _plan(
        f, ds, alpha, beta,
        lambda fs, ft: joint_cost_matrix(fs, ds.source_y, ft, g(ft), zeta * gamma))

    hidden = np.asarray(ds.target_y_hidden, dtype=float)
    B = _candidate_losses(G_full, feats_t, hidden) @ (q_hat.values / alpha)
    xi = min_decomposition_gap(f, G_full, p_hat.values, q_hat.values, alpha,
                 ds.source_x, ds.source_y, ds.target_x, hidden)
    rest = (pw / alpha, tv_term(q_hat, alpha, ds.n_t), float(B.min()) + xi)
    return _report(w, ds, alpha, p_hat, rest,
                   {"alpha": alpha, "beta": beta, "gamma": gamma, "zeta": zeta})


def loss_difference_check(w: Hypothesis, G: FiniteClassifierSet, inputs, labels) -> float:
    """Largest violation, over all sample pairs, of the loss-difference bound
    |l(w(x),y) - l(w(x~),y~)| <= 2*gamma*||f(x)-f(x~)|| + 2*L_f.

    Nonpositive (up to float noise) whenever the certificates hold.
    """
    gamma = w.classifier.gamma
    g = _check_hypothesis(w, gamma)
    f = w.feature_map
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    labels = np.asarray(labels, dtype=float)
    feats = f(inputs)
    point_losses = clipped_abs_loss(g(feats), labels)
    lf = difficulty_term(f, G, inputs, labels)
    pair_gap = np.abs(point_losses[:, None] - point_losses[None, :])
    feat_dist = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=2)
    return float((pair_gap - 2.0 * gamma * feat_dist - 2.0 * lf).max())


def pac_bayes_rhs(mean_R: float, cfg: PacBayesConfig) -> float:
    """High-probability bound on the posterior-average population target loss."""
    return mean_R + cfg.lam / (8.0 * cfg.n_t) + (cfg.kl + math.log(1.0 / cfg.delta)) / cfg.lam


def optimal_lambda(n_t: int, kl: float, delta: float) -> float:
    """Minimizer of the two penalty terms of the wrapper in lambda."""
    return math.sqrt(8.0 * n_t * (kl + math.log(1.0 / delta)))


class _RealLabelDataset(PdaDataset):
    """A dataset whose labels are real values in [0, 1] on both sides, so
    the class-label subset check does not apply, even when the clipped
    labels all come out 0 or 1."""

    _class_labels = False


def random_bound_instance(rng: np.random.Generator, n_max: int = INSTANCE_N_MAX,
                          n_candidates: int = INSTANCE_CANDIDATES):
    """Random certified instance for bound validity sweeps.

    Returns (hypothesis, dataset-with-hidden-labels, alpha, beta, gamma, G)
    with labels produced by a noisy Lipschitz labeler, so the data are neither
    realizable nor adversarial.
    """
    d = int(rng.integers(1, INSTANCE_D_MAX + 1))
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

    ds = _RealLabelDataset(source_x, make_labels(source_x), target_x, make_labels(target_x))
    alpha = float(rng.uniform(1e-3, 1.0))
    beta = float(rng.uniform(1e-3, 1.0))
    G = FiniteClassifierSet.build(gamma, k, n_candidates, rng)
    return w, ds, alpha, beta, gamma, G


def bound_check(theorem: int, trials: int, seed: int) -> dict:
    """Run random-instance validity sweeps; returns violation counts and the
    per-trial slack records."""
    if theorem not in (1, 2):
        raise ValueError("theorem must be 1 or 2")
    rng = np.random.default_rng(seed)
    records = []
    violations = 0
    for trial in range(trials):
        w, ds, alpha, beta, gamma, G = random_bound_instance(rng)
        if theorem == 1:
            report = feature_bound_report(w, ds, alpha, beta, gamma, G)
        else:
            report = joint_bound_report(w, ds, alpha, beta, gamma, 1.0, G)
        if report.slack < -CHECK_TOL:
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


def pac_bayes_experiment(trials: int, delta: float, seed: int) -> dict:
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
    G = FiniteClassifierSet.build(gamma, k, PAC_N_HYPOTHESES, world_rng)

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
    pop_losses = _candidate_losses(G, tgt_pool_feats, tgt_pool_y).mean(axis=1)

    lam = optimal_lambda(PAC_N_T, math.log(PAC_N_HYPOTHESES), delta)
    trial_rng = np.random.default_rng(seed + 1)
    violations = 0
    for _ in range(trials):
        si = trial_rng.integers(0, pool_n, size=PAC_N_S)
        ti = trial_rng.integers(0, pool_n, size=PAC_N_T)
        ds = _RealLabelDataset(src_pool_x[si], src_pool_y[si], tgt_pool_x[ti], tgt_pool_y[ti])

        p, feats_s, shared = _feature_bound_terms(f, ds, PAC_ALPHA, PAC_BETA, gamma, G)
        src_cand = _candidate_losses(G, feats_s, np.asarray(ds.source_y, dtype=float))
        R = src_cand @ (p.values / PAC_ALPHA) + sum(shared)

        posterior = np.exp(-PAC_POSTERIOR_TEMP * src_cand.mean(axis=1))
        posterior /= posterior.sum()
        kl = float(np.sum(posterior * np.log(np.maximum(posterior * PAC_N_HYPOTHESES, 1e-300))))
        cfg = PacBayesConfig(lam=lam, delta=delta, n_t=PAC_N_T, kl=kl)
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
