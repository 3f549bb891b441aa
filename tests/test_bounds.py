"""Bound evaluators: difficulty terms, both bound right-hand sides, the
pairwise loss-difference inequality, and the PAC-Bayes wrapper."""

import math

import numpy as np
import pytest

from potpda.bounds import (
    CANDIDATE_BIAS_HIGH,
    CANDIDATE_BIAS_LOW,
    FiniteClassifierSet,
    BoundReport,
    PacBayesConfig,
    bound_check,
    difficulty_term,
    loss_difference_check,
    optimal_lambda,
    pac_bayes_experiment,
    pac_bayes_rhs,
    random_bound_instance,
    feature_bound_report,
    joint_bound_report,
    min_decomposition_gap,
)
from potpda.measures import (
    Hypothesis,
    LinearFeatureMap,
    LipschitzClassifier,
    PdaDataset,
    empirical_feature_measure,
    feature_cost_matrix,
    joint_cost_matrix,
)
from potpda.synthbench import outlier_weight_share
from potpda.weights import tv_term


def make_set(classifiers, gamma):
    return FiniteClassifierSet(np.stack([g.v for g in classifiers]),
                               np.array([g.b for g in classifiers]), gamma)


def heads(G):
    """The set's candidates as classifier objects."""
    return [LipschitzClassifier(v, b, G.gamma) for v, b in zip(G.V, G.b)]


class TestLf:
    def test_realizable_data_gives_zero(self):
        rng = np.random.default_rng(0)
        f = LinearFeatureMap(rng.normal(size=(2, 3)))
        truth = LipschitzClassifier(np.array([0.4, -0.2]), 0.5, gamma=1.0)
        x = rng.normal(size=(12, 3))
        labels = truth(f(x))
        G = make_set([truth, LipschitzClassifier(np.array([1.0, 0.0]), 0.0, 1.0)], 1.0)
        assert difficulty_term(f, G, x, labels) == pytest.approx(0.0, abs=1e-12)

    def test_singleton_is_plain_max(self):
        rng = np.random.default_rng(1)
        f = LinearFeatureMap(np.eye(2))
        g = LipschitzClassifier(np.array([0.3, 0.1]), 0.2, gamma=1.0)
        x = rng.normal(size=(9, 2))
        y = rng.uniform(0, 1, 9)
        expected = max(min(abs(p - t), 1.0) for p, t in zip(g(f(x)), y))
        assert difficulty_term(f, make_set([g], 1.0), x, y) == pytest.approx(expected, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        f = LinearFeatureMap(rng.normal(size=(2, 2)))
        gamma = 1.5
        cands = [LipschitzClassifier(rng.normal(size=2) * 0.5, rng.uniform(-1, 1), gamma)
                 for _ in range(5)]
        G = make_set(cands, gamma)
        x = rng.normal(size=(10, 2))
        y = rng.uniform(0, 1, 10)
        feats = f(x)
        oracle = min(max(min(abs(float(g(feats[i:i + 1])[0]) - y[i]), 1.0)
                         for i in range(10)) for g in cands)
        assert difficulty_term(f, G, x, y) == pytest.approx(oracle, abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            FiniteClassifierSet(np.empty((0, 2)), np.empty(0), 1.0)


def loop_grid(gamma, feat_dim, size, rng):
    """Per-direction loop over the candidate grid: one unit direction per
    magnitude-by-bias block, bias fastest, stopping at `size` candidates."""
    n_levels = max(2, int(round(math.sqrt(size))))
    magnitudes = np.linspace(gamma / n_levels, gamma, n_levels)
    biases = np.linspace(CANDIDATE_BIAS_LOW, CANDIDATE_BIAS_HIGH, n_levels)
    vs, bs = [], []
    while len(vs) < size:
        direction = rng.normal(size=feat_dim)
        direction /= max(np.linalg.norm(direction), 1e-12)
        for mag in magnitudes:
            for bias in biases:
                if len(vs) < size:
                    vs.append(mag * direction)
                    bs.append(float(bias))
    return np.stack(vs), np.array(bs)


class TestBuild:
    @pytest.mark.parametrize("gamma, feat_dim, size",
                             [(1.5, 2, 8), (2.0, 3, 24), (0.7, 1, 25), (1.0, 5, 40),
                              (3.0, 16, 7), (2.5, 33, 100)])
    def test_matches_per_direction_loop(self, gamma, feat_dim, size):
        rng_grid, rng_loop = np.random.default_rng(size), np.random.default_rng(size)
        G = FiniteClassifierSet.build(gamma, feat_dim, size, rng_grid)
        V, b = loop_grid(gamma, feat_dim, size, rng_loop)
        np.testing.assert_array_equal(G.V, V)
        np.testing.assert_array_equal(G.b, b)
        assert G.gamma == gamma
        # the same number of draws: the generators stay in step
        assert rng_grid.normal() == rng_loop.normal()

    def test_uncertified_candidate_rejected(self):
        with pytest.raises(ValueError, match="Lipschitz certificate"):
            FiniteClassifierSet(np.array([[0.6, 0.8], [3.0, 4.0]]), np.zeros(2), 1.0)


def identical_domain_instance(rng, n=8):
    """Source and target coincide; the hypothesis labels the data perfectly."""
    f = LinearFeatureMap(rng.normal(size=(2, 3)))
    g = LipschitzClassifier(np.array([0.3, -0.2]), 0.5, gamma=1.0)
    w = Hypothesis(f, g)
    x = rng.normal(size=(n, 3))
    labels = w.predict(x)
    ds = PdaDataset(x, labels, x, labels)
    G = make_set([g], 1.0)
    return w, ds, G


class TestHiddenLabels:
    @pytest.mark.parametrize("theorem", (1, 2))
    def test_checked_before_any_solve(self, monkeypatch, theorem):
        def no_solve(*args, **kwargs):
            raise AssertionError("the plan was solved before the hidden-label check")

        monkeypatch.setattr("potpda.bounds.exact_partial_ot", no_solve)
        rng = np.random.default_rng(18)
        w, ds, alpha, beta, gamma, G = random_bound_instance(rng, n_max=10)
        unlabeled = PdaDataset(ds.source_x, ds.source_y, ds.target_x)
        with pytest.raises(ValueError, match="^bound evaluation needs hidden target labels$"):
            if theorem == 1:
                feature_bound_report(w, unlabeled, alpha, beta, gamma, G)
            else:
                joint_bound_report(w, unlabeled, alpha, beta, gamma, 1.0, G)


class TestTheorem1:
    def test_identical_domains_perfect_hypothesis(self):
        rng = np.random.default_rng(3)
        w, ds, G = identical_domain_instance(rng)
        report = feature_bound_report(w, ds, 1.0, 1.0, 1.0, G)
        assert report.lhs_empirical_target_loss == pytest.approx(0.0, abs=1e-12)
        assert report.weighted_source_loss == pytest.approx(0.0, abs=1e-9)
        assert report.pw_term == pytest.approx(0.0, abs=1e-9)
        assert report.tv_term == pytest.approx(0.0, abs=1e-9)
        assert report.rhs_total == pytest.approx(2 * difficulty_term(w.feature_map, G, ds.source_x,
                                                         ds.source_y), abs=1e-9)

    def test_paper_alignment_parameters_accepted(self):
        rng = np.random.default_rng(4)
        w, ds, _, _, gamma, G = random_bound_instance(rng)
        report = feature_bound_report(w, ds, 0.8, 0.35, gamma, G)
        assert report.params["alpha"] == 0.8 and report.params["beta"] == 0.35

    def test_rhs_dominates_lhs_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            w, ds, alpha, beta, gamma, G = random_bound_instance(rng, n_max=20)
            report = feature_bound_report(w, ds, alpha, beta, gamma, G)
            assert report.slack >= -1e-9

    def test_uncertified_hypothesis_rejected(self):
        rng = np.random.default_rng(6)
        w, ds, alpha, beta, gamma, G = random_bound_instance(rng)
        bad = Hypothesis(w.feature_map,
                         LipschitzClassifier(w.classifier.v * 100.0, 0.0, gamma))
        with pytest.raises(ValueError, match="Lipschitz certificate missing"):
            feature_bound_report(bad, ds, alpha, beta, gamma, G)

    def test_relaxing_the_minimizer_only_loosens(self):
        # replacing the difficulty-term minimum by any single candidate's
        # worst case can only grow the right-hand side
        rng = np.random.default_rng(7)
        w, ds, alpha, beta, gamma, G = random_bound_instance(rng, n_max=12)
        full = feature_bound_report(w, ds, alpha, beta, gamma, G)
        for g in heads(G)[:5]:
            single = feature_bound_report(w, ds, alpha, beta, gamma, make_set([g], G.gamma))
            assert single.rhs_total >= full.rhs_total - 1e-12


class TestXiTerm:
    def test_singleton_set_zero(self):
        rng = np.random.default_rng(8)
        f = LinearFeatureMap(np.eye(2))
        g = LipschitzClassifier(np.array([0.5, 0.0]), 0.0, 1.0)
        val = min_decomposition_gap(f, make_set([g], 1.0), np.array([0.5, 0.5]), np.array([0.4, 0.6]),
                      1.0, rng.normal(size=(2, 2)), [0.1, 0.9],
                      rng.normal(size=(2, 2)), [0.2, 0.8])
        assert val == 0.0

    def test_shared_minimizer_zero(self):
        rng = np.random.default_rng(9)
        f = LinearFeatureMap(rng.normal(size=(2, 2)))
        x_s = rng.normal(size=(6, 2))
        x_t = rng.normal(size=(5, 2))
        best = LipschitzClassifier(np.array([0.3, 0.2]), 0.4, 1.0)
        y_s = best(f(x_s))
        y_t = best(f(x_t))
        worse = LipschitzClassifier(np.array([-0.9, 0.1]), 0.0, 1.0)
        val = min_decomposition_gap(f, make_set([best, worse], 1.0), np.full(6, 1 / 6), np.full(5, 0.2),
                      1.0, x_s, y_s, x_t, y_t)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_triple_enumeration(self):
        rng = np.random.default_rng(10)
        f = LinearFeatureMap(rng.normal(size=(2, 2)))
        gamma = 1.2
        cands = [LipschitzClassifier(rng.normal(size=2) * 0.4, rng.uniform(-0.5, 1), gamma)
                 for _ in range(4)]
        x_s, y_s = rng.normal(size=(5, 2)), rng.uniform(0, 1, 5)
        x_t, y_t = rng.normal(size=(4, 2)), rng.uniform(0, 1, 4)
        p_hat = rng.random(5)
        q_hat = rng.random(4)
        alpha = 0.7

        def weighted(g, x, y, wts):
            preds = g(f(x))
            return sum(wt * min(abs(p - t), 1.0) for wt, p, t in zip(wts, preds, y)) / alpha

        a_vals = [weighted(g, x_s, y_s, p_hat) for g in cands]
        b_vals = [weighted(g, x_t, y_t, q_hat) for g in cands]
        oracle = min(a + b for a, b in zip(a_vals, b_vals)) - (min(a_vals) + min(b_vals))
        val = min_decomposition_gap(f, make_set(cands, gamma), p_hat, q_hat, alpha,
                      x_s, y_s, x_t, y_t)
        assert val == pytest.approx(max(oracle, 0.0), abs=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = LinearFeatureMap(rng.normal(size=(2, 2)))

            def rand_classifier():
                v = rng.normal(size=2)
                v *= rng.uniform(0.1, 1.0) / np.linalg.norm(v)
                return LipschitzClassifier(v, rng.uniform(-1, 1), 1.0)

            cands = [rand_classifier() for _ in range(rng.integers(1, 6))]
            val = min_decomposition_gap(f, make_set(cands, 1.0), rng.random(4), rng.random(3), 0.5,
                          rng.normal(size=(4, 2)), rng.uniform(0, 1, 4),
                          rng.normal(size=(3, 2)), rng.uniform(0, 1, 3))
            assert val >= 0.0


class TestTheorem2:
    def test_identical_domains_perfect_hypothesis(self):
        rng = np.random.default_rng(12)
        w, ds, G = identical_domain_instance(rng)
        report = joint_bound_report(w, ds, 1.0, 1.0, 1.0, 1.0, G)
        assert report.lhs_empirical_target_loss == pytest.approx(0.0, abs=1e-12)
        assert report.weighted_source_loss == pytest.approx(0.0, abs=1e-9)
        assert report.pw_term == pytest.approx(0.0, abs=1e-9)
        assert report.tv_term == pytest.approx(0.0, abs=1e-9)
        assert report.difficulty_term == pytest.approx(0.0, abs=1e-9)

    def test_rhs_dominates_lhs_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            w, ds, alpha, beta, gamma, G = random_bound_instance(rng, n_max=20, n_candidates=10)
            report = joint_bound_report(w, ds, alpha, beta, gamma, 1.0, G)
            assert report.slack >= -1e-9

    def test_report_terms_sum(self):
        rng = np.random.default_rng(14)
        w, ds, alpha, beta, gamma, G = random_bound_instance(rng)
        report = joint_bound_report(w, ds, alpha, beta, gamma, 1.0, G)
        total = (report.weighted_source_loss + report.pw_term + report.tv_term
                 + report.difficulty_term)
        assert report.rhs_total == pytest.approx(total, abs=1e-12)


class TestLossDifferenceCheck:
    def test_never_violated_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            w, ds, _, _, _, G = random_bound_instance(rng, n_max=15)
            inputs = np.vstack([ds.source_x, ds.target_x])
            labels = np.concatenate([ds.source_y, ds.target_y_hidden])
            assert loss_difference_check(w, G, inputs, labels) <= 1e-9

    def test_identical_pair_has_nonnegative_slack(self):
        rng = np.random.default_rng(16)
        f = LinearFeatureMap(np.eye(2))
        g = LipschitzClassifier(np.array([0.5, 0.2]), 0.1, 1.0)
        w = Hypothesis(f, g)
        x = np.tile(rng.normal(size=(1, 2)), (2, 1))
        y = np.array([0.4, 0.4])
        assert loss_difference_check(w, make_set([g], 1.0), x, y) <= 0.0 + 1e-12

    def test_inflating_gamma_loosens_the_bound(self):
        rng = np.random.default_rng(17)
        w, ds, _, _, gamma, G = random_bound_instance(rng, n_max=10)
        inputs = np.vstack([ds.source_x, ds.target_x])
        labels = np.concatenate([ds.source_y, ds.target_y_hidden])
        tight = loss_difference_check(w, G, inputs, labels)
        inflated = Hypothesis(w.feature_map,
                              LipschitzClassifier(w.classifier.v, w.classifier.b,
                                                  w.classifier.gamma * 10))
        G_inflated = FiniteClassifierSet(G.V, G.b, G.gamma * 10)
        loose = loss_difference_check(inflated, G_inflated, inputs, labels)
        assert loose <= tight + 1e-12


class TestPacBayes:
    def test_arithmetic_example(self):
        cfg = PacBayesConfig(lam=2.0, delta=math.exp(-2.0), n_t=1, kl=0.0)
        assert pac_bayes_rhs(0.0, cfg) == pytest.approx(1.25)

    def test_optimal_lambda_penalty(self):
        # kl + ln(1/delta) = 1 with n_t = 2 gives lambda* = 4 and penalty 1/2
        lam = optimal_lambda(2, 0.0, math.exp(-1.0))
        assert lam == pytest.approx(4.0)
        cfg = PacBayesConfig(lam=lam, delta=math.exp(-1.0), n_t=2, kl=0.0)
        assert pac_bayes_rhs(0.0, cfg) == pytest.approx(0.5)

    def test_convex_in_lambda_with_closed_form_minimizer(self):
        n_t, kl, delta = 7, 0.3, 0.05
        lams = np.linspace(0.5, 60, 400)
        vals = [pac_bayes_rhs(0.0, PacBayesConfig(l, delta, n_t, kl)) for l in lams]
        diffs2 = np.diff(vals, 2)
        assert np.all(diffs2 >= -1e-9)
        assert lams[int(np.argmin(vals))] == pytest.approx(
            optimal_lambda(n_t, kl, delta), abs=lams[1] - lams[0])

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            PacBayesConfig(lam=1.0, delta=1.5, n_t=3)

    def test_monte_carlo_violation_rate(self):
        result = pac_bayes_experiment(trials=150, delta=0.1, seed=77)
        assert result["violation_rate"] <= 0.15

    def test_experiment_fast_path_matches_full_evaluator(self):
        # the Monte-Carlo harness shares the transport solve across the
        # hypothesis family; its per-hypothesis bound must equal the full
        # evaluator run one hypothesis at a time
        rng = np.random.default_rng(55)
        f = LinearFeatureMap(rng.normal(size=(2, 2)))
        gamma = 1.5
        G = FiniteClassifierSet.build(gamma, 2, 4, rng)
        alpha, beta = 0.8, 0.5
        x_s = rng.normal(size=(12, 2))
        x_t = rng.normal(size=(9, 2))
        labeler = heads(G)[0]
        ds = PdaDataset(x_s, labeler(f(x_s)), x_t, labeler(f(x_t)))

        from potpda.bounds import _candidate_losses, difficulty_term
        from potpda.measures import empirical_feature_measure, feature_cost_matrix
        from potpda.pot import exact_partial_ot
        from potpda.weights import marginal_weights, tv_term

        masses_s, feats_s = empirical_feature_measure(ds.source_x, f, 1.0 / beta)
        masses_t, feats_t = empirical_feature_measure(ds.target_x, f, 1.0)
        C = feature_cost_matrix(feats_s, feats_t, gamma)
        plan, pw = exact_partial_ot(masses_s, masses_t, C, alpha)
        p, q = marginal_weights(plan)
        inputs = np.vstack([ds.source_x, ds.target_x])
        labels = np.concatenate([ds.source_y, ds.target_y_hidden])
        shared = (2.0 / alpha * pw + tv_term(q, alpha, ds.n_t)
                  + 2.0 * difficulty_term(f, G, inputs, labels))
        src_cand = _candidate_losses(G, feats_s, np.asarray(ds.source_y, dtype=float))
        fast = src_cand @ (p.values / alpha) + shared

        for m, g in enumerate(heads(G)):
            report = theorem_report = feature_bound_report(Hypothesis(f, g), ds,
                                                           alpha, beta, gamma, G)
            assert fast[m] == pytest.approx(theorem_report.rhs_total, abs=1e-10)


class TestBoundCheckHarness:
    def test_no_violations_small_run(self):
        for theorem in (1, 2):
            res = bound_check(theorem, 25, seed=3)
            assert res["violations"] == 0
            assert res["min_slack"] >= -1e-9
            assert len(res["records"]) == 25

    def test_bad_theorem_rejected(self):
        with pytest.raises(ValueError):
            bound_check(3, 1, seed=0)

    def test_instance_whose_clipped_labels_are_all_zero_or_one(self):
        # trial 3 at seed 469: the labels are real values, so a target label
        # of 0 that no source sample has is no unseen class
        rng = np.random.default_rng(469)
        for _ in range(4):
            _, ds, *_ = random_bound_instance(rng)
        assert set(ds.source_y) == {1.0}
        assert set(ds.target_y_hidden) == {0.0, 1.0}

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_saturated_labels_run_without_violation(self, theorem):
        res = bound_check(theorem, 25, seed=469)
        assert res["violations"] == 0
        assert len(res["records"]) == 25


class TestSampleOrder:
    # the reports read the plan's marginals, which may come from any optimal
    # vertex of the LP; permuting the samples reorders the LP's cells, and
    # so may move the solver to another vertex
    def test_reports_do_not_depend_on_the_order_of_the_samples(self):
        rng = np.random.default_rng(47)
        terms = ("weighted_source_loss", "pw_term", "tv_term", "difficulty_term", "rhs_total")
        for _ in range(50):
            w, ds, alpha, beta, gamma, G = random_bound_instance(rng)
            rows, cols = rng.permutation(ds.n_s), rng.permutation(ds.n_t)
            permuted = type(ds)(ds.source_x[rows], ds.source_y[rows], ds.target_x[cols],
                                ds.target_y_hidden[cols])
            for report in (lambda d: feature_bound_report(w, d, alpha, beta, gamma, G),
                           lambda d: joint_bound_report(w, d, alpha, beta, gamma, 1.0, G)):
                before, after = report(ds), report(permuted)
                for term in terms:
                    assert getattr(after, term) == pytest.approx(getattr(before, term), abs=1e-12)


class TestBoundReportType:
    def test_sum_invariant_enforced(self):
        with pytest.raises(ValueError, match="sum of its terms"):
            BoundReport(0.1, 0.1, 0.1, 0.1, rhs_total=1.0, lhs_empirical_target_loss=0.0)


NAN = float("nan")


# each guard raises before it reads any other argument
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PacBayesConfig(lam=NAN, delta=0.1, n_t=10), "lambda must be positive",
                 id="PacBayesConfig.lam"),
    pytest.param(lambda: PacBayesConfig(lam=1.0, delta=0.1, n_t=10, kl=NAN),
                 "KL divergence must be nonnegative", id="PacBayesConfig.kl"),
    pytest.param(lambda: min_decomposition_gap(None, None, None, None, NAN, None, None, None, None),
                 "alpha must be positive", id="min_decomposition_gap.alpha"),
    pytest.param(lambda: joint_bound_report(None, None, 0.5, 0.5, 1.0, NAN, None),
                 "zeta must be positive", id="joint_bound_report.zeta"),
    pytest.param(lambda: LipschitzClassifier(np.ones(2), 0.0, NAN), "gamma must be positive",
                 id="LipschitzClassifier.gamma"),
    pytest.param(lambda: empirical_feature_measure(np.ones((2, 2)), LinearFeatureMap(np.eye(2)), NAN),
                 "scale must be positive", id="empirical_feature_measure.scale"),
    pytest.param(lambda: feature_cost_matrix(np.zeros((1, 2)), np.ones((1, 2)), NAN),
                 "gamma must be positive", id="feature_cost_matrix.gamma"),
    pytest.param(lambda: joint_cost_matrix(np.zeros((1, 2)), [0.0], np.ones((1, 2)), [1.0], NAN),
                 "zeta_gamma must be nonnegative", id="joint_cost_matrix.zeta_gamma"),
    pytest.param(lambda: tv_term(np.full(2, 0.5), NAN, 2), "alpha must be positive",
                 id="tv_term.alpha"),
    pytest.param(lambda: outlier_weight_share(np.array([NAN, 1.0]), [0, 1], 1),
                 "total weight is zero", id="outlier_weight_share.total")])
def test_nan_parameters_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
