"""Plan-derived weights, the TV correction, and the competing weighting schemes."""


import numpy as np
import pytest

from potpda.pot import TransportPlan, _transport_lp, exact_partial_ot
from potpda.synthbench import TaskSpec, generate_pda_task
from potpda.weights import (
    ArpmConfig,
    gamma_constrained_weights,
    marginal_weights,
    scheme_arpm,
    scheme_ba3us,
    scheme_uniform,
    tv_term,
    weight_histogram,
    _project_delta,
    _w1_to_uniform_target,
)
from scipy.spatial.distance import cdist


def derived_plan():
    plan, _ = exact_partial_ot([0.6, 0.4], [0.5, 0.5], [[1.0, 2.0], [3.0, 0.0]], 0.5)
    return plan


class TestMarginalWeights:
    def test_uniform_plan(self):
        m, n, alpha = 4, 5, 0.7
        plan = TransportPlan(np.full((m, n), alpha / (m * n)), np.ones(m), np.ones(n), alpha)
        p, q = marginal_weights(plan)
        np.testing.assert_allclose(p.values, alpha / m)
        np.testing.assert_allclose(q.values, alpha / n)

    def test_derived_instance(self):
        p, q = marginal_weights(derived_plan())
        np.testing.assert_allclose(p.values, [0.1, 0.4], atol=1e-9)
        np.testing.assert_allclose(q.values, [0.1, 0.4], atol=1e-9)

    def test_sums_equal_plan_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, n = rng.integers(2, 8, size=2)
            a = (1.0 / 0.4) * np.full(m, 1.0 / m)
            b = np.full(n, 1.0 / n)
            C = rng.random((m, n))
            alpha = rng.uniform(0.1, 1.0)
            plan, _ = exact_partial_ot(a, b, C, alpha)
            p, q = marginal_weights(plan)
            assert p.total == pytest.approx(alpha, abs=1e-9)
            assert q.total == pytest.approx(alpha, abs=1e-9)
            assert np.all(p.values <= a + 1e-9)
            assert np.all(q.values <= b + 1e-9)

    def test_full_target_mass_gives_uniform_q(self):
        # moving the whole unit of target mass forces every column to its cap
        rng = np.random.default_rng(3)
        m, n = 6, 4
        a = (1.0 / 0.5) * np.full(m, 1.0 / m)
        b = np.full(n, 1.0 / n)
        plan, _ = exact_partial_ot(a, b, rng.random((m, n)), 1.0)
        _, q = marginal_weights(plan)
        np.testing.assert_allclose(q.values, 1.0 / n, atol=1e-9)


class TestTvTerm:
    def test_balanced_q_vanishes(self):
        assert tv_term(np.full(5, 0.7 / 5), 0.7, 5) == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula_arithmetic(self):
        assert tv_term(np.array([0.5, 0.0]), 0.5, 2) == pytest.approx(0.5)

    def test_matches_explicit_distribution_tv(self):
        rng = np.random.default_rng(1)
        alpha, n_t = 0.6, 7
        q = rng.random(n_t)
        q *= alpha / q.sum()
        # independent route: build both distributions explicitly and take
        # half the L1 distance between them
        uniform = np.full(n_t, 1.0 / n_t)
        reweighted = q / alpha
        expected = 0.5 * np.abs(uniform - reweighted).sum()
        assert tv_term(q, alpha, n_t) == pytest.approx(expected, abs=1e-12)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            tv_term(np.array([0.1]), 0.0, 1)


class TestSchemeUniform:
    def test_four(self):
        np.testing.assert_allclose(scheme_uniform(4).values, 0.25)

    def test_single(self):
        np.testing.assert_allclose(scheme_uniform(1).values, [1.0])

    def test_sums_to_one(self):
        for n in (2, 7, 23):
            assert scheme_uniform(n).total == pytest.approx(1.0, abs=1e-12)


class TestSchemeBa3us:
    def test_prediction_count_example(self):
        wv = scheme_ba3us([0, 0, 1, 2], [0, 1], 4)
        np.testing.assert_allclose(wv.values, [0.5, 0.25])

    def test_unpredicted_class_gets_zero(self):
        wv = scheme_ba3us([0, 0], [0, 3], 2)
        np.testing.assert_allclose(wv.values, [1.0, 0.0])

    def test_matches_histogram_oracle(self):
        rng = np.random.default_rng(8)
        preds = rng.integers(0, 6, size=50)
        labels = rng.integers(0, 6, size=30)
        counts = np.bincount(preds, minlength=6)
        expected = counts[labels] / 50
        np.testing.assert_allclose(scheme_ba3us(preds, labels, 50).values, expected)


class TestSchemeArpm:
    def test_rho_zero_is_exactly_uniform(self):
        rng = np.random.default_rng(2)
        wv = scheme_arpm(rng.normal(size=(5, 2)), rng.normal(size=(4, 2)),
                         ArpmConfig(rho=0.0))
        np.testing.assert_array_equal(wv.values, np.full(5, 0.2))

    def test_never_worse_than_uniform(self):
        rng = np.random.default_rng(4)
        fs, ft = rng.normal(size=(6, 2)), rng.normal(size=(5, 2))
        dist = cdist(fs, ft)
        uniform_val, _ = _w1_to_uniform_target(np.full(6, 1 / 6), dist)
        wv = scheme_arpm(fs, ft, ArpmConfig(rho=2.0))
        val, _ = _w1_to_uniform_target(wv.values, dist)
        assert val <= uniform_val + 1e-12

    def test_reaches_zero_on_shared_support(self):
        # source atoms sit exactly on the target atoms; weighting the source
        # by the target frequencies gives a zero-cost matching
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        target = pts[[0, 0, 1]]
        wv = scheme_arpm(pts, target, ArpmConfig(rho=50.0))
        val, _ = _w1_to_uniform_target(wv.values, cdist(pts, target))
        assert val <= 1e-3
        np.testing.assert_allclose(wv.values, [2 / 3, 1 / 3, 0.0], atol=0.05)

    def test_within_one_percent_of_grid_oracle(self):
        rng = np.random.default_rng(6)
        fs, ft = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        dist = cdist(fs, ft)
        rho = 0.4
        radius = np.sqrt(rho / 3)
        best = np.inf
        step = 0.02
        for p0 in np.arange(0, 1 + step, step):
            for p1 in np.arange(0, 1 - p0 + step, step):
                p = np.array([p0, p1, 1.0 - p0 - p1])
                if p[2] < -1e-12:
                    continue
                p = np.clip(p, 0.0, None)
                p /= p.sum()
                if np.linalg.norm(p - 1 / 3) > radius:
                    continue
                val, _ = _w1_to_uniform_target(p, dist)
                best = min(best, val)
        wv = scheme_arpm(fs, ft, ArpmConfig(rho=rho))
        val, _ = _w1_to_uniform_target(wv.values, dist)
        assert val <= best * 1.01 + 1e-9

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            ArpmConfig(rho=-1.0)

    def test_duals_are_directional_derivatives_of_the_value(self):
        # the subgradient step relies on the row duals being sensitivities of
        # the transport value in the source marginal
        rng = np.random.default_rng(12)
        fs, ft = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
        dist = cdist(fs, ft)
        p = np.array([0.31, 0.22, 0.27, 0.20])
        val, duals = _w1_to_uniform_target(p, dist)
        h = 1e-6
        for _ in range(3):
            d = rng.normal(size=4)
            d -= d.mean()  # stay on the simplex hyperplane
            plus, _ = _w1_to_uniform_target(p + h * d, dist)
            minus, _ = _w1_to_uniform_target(p - h * d, dist)
            numeric = (plus - minus) / (2 * h)
            assert numeric == pytest.approx(float(duals @ d), abs=1e-4)

    def test_project_delta_meets_the_projection_optimality_condition(self):
        # x is the projection of v onto simplex ∩ ball(u, r) iff, for some
        # mu >= 0 that is 0 off the sphere, z = v - x - mu (x - u) is constant
        # on the support of x and no larger off it
        rng = np.random.default_rng(13)
        for trial in range(300):
            n = int(rng.integers(2, 30))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
            if trial % 3 == 0:
                v[rng.integers(0, n, size=n // 2)] = v[0]  # ties
            radius = np.sqrt(rng.uniform(0.01, 1.5 * n) / n)
            x = _project_delta(v, radius)
            u = 1.0 / n
            assert x.min() >= 0.0 and x.sum() == pytest.approx(1.0, abs=1e-12)
            dist = np.linalg.norm(x - u)
            assert dist <= radius + 1e-12
            assert not np.any((x > 0) & (x < 1e-10))
            on = x > 0
            if dist < radius - 1e-9:
                mu, level = 0.0, (v - x)[on].mean()
            else:
                basis = np.column_stack([x[on] - u, np.ones(on.sum())])
                (mu, level), *_ = np.linalg.lstsq(basis, (v - x)[on], rcond=None)
            z = v - x - mu * (x - u)
            assert mu >= -1e-9
            np.testing.assert_allclose(z[on], level, atol=1e-9)
            assert np.all(z[~on] <= level + 1e-9)

    def test_project_delta_returns_feasible_points_unchanged(self):
        # a simplex projection of a histogram can turn its zeros into
        # sub-tolerance residues, which the LP then mishandles
        rng = np.random.default_rng(15)
        for _ in range(50):
            n, m = rng.integers(3, 60), rng.integers(1, 50)
            p = np.bincount(rng.integers(0, n, size=m), minlength=n) / m
            np.testing.assert_array_equal(_project_delta(p, 1.0), p)

    def test_empty_atom_dual_is_the_c_transform(self):
        # the LP's own row dual on an empty atom is not unique; the returned
        # one must be min_j (C_ij - g_j), which with g is an optimal dual pair
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        dist = cdist(pts, pts[[0, 0, 1]])
        p = np.array([2 / 3, 1 / 3, 0.0])
        b = np.full(3, 1 / 3)
        val, duals = _w1_to_uniform_target(p, dist)
        *_, g = _transport_lp(p, b, dist)
        assert duals[2] == pytest.approx(float((dist[2] - g).min()), abs=1e-9)
        assert duals[2] == pytest.approx(np.sqrt(18.0), abs=1e-9)
        assert np.all(duals[:, None] + g[None, :] <= dist + 1e-9)
        assert float(p @ duals + b @ g) == pytest.approx(val, abs=1e-9)

    def test_slack_ball_gives_the_nearest_source_optimum(self):
        # for rho >= n_s - 1 the ball holds the whole simplex, and sending each
        # target atom to its nearest source atom is optimal
        rng = np.random.default_rng(14)
        for _ in range(5):
            n_s, n_t = rng.integers(3, 9, size=2)
            fs, ft = rng.normal(size=(n_s, 2)), rng.normal(size=(n_t, 2))
            dist = cdist(fs, ft)
            wv = scheme_arpm(fs, ft, ArpmConfig(rho=float(n_s - 1)))
            val, _ = _w1_to_uniform_target(wv.values, dist)
            assert val == pytest.approx(float(dist.min(axis=0).mean()), abs=1e-9)

    def test_default_config_solves_the_default_task(self):
        # the ball is slack here; iterates with sub-tolerance residues once
        # made the LP solver report a feasible transport problem infeasible
        ds = generate_pda_task(TaskSpec(seed=0))
        dist = cdist(ds.source_x, ds.target_x)
        wv = scheme_arpm(ds.source_x, ds.target_x, ArpmConfig())
        assert wv.total == pytest.approx(1.0, abs=1e-9)
        val, _ = _w1_to_uniform_target(wv.values, dist)
        assert val == pytest.approx(float(dist.min(axis=0).mean()), abs=1e-9)

    def test_slack_ball_solves_no_lp(self, monkeypatch):
        # the ball holds the nearest-source weighting, the minimizer over the
        # whole simplex, so no candidate needs pricing
        import potpda.weights as weights

        calls = []
        w1 = weights._w1_to_uniform_target

        def counted(*args):
            calls.append(args)
            return w1(*args)

        monkeypatch.setattr(weights, "_w1_to_uniform_target", counted)
        ds = generate_pda_task(TaskSpec(seed=0))
        wv = scheme_arpm(ds.source_x, ds.target_x, ArpmConfig())
        assert not calls
        nearest = cdist(ds.source_x, ds.target_x).argmin(axis=0)
        np.testing.assert_array_equal(wv.values, np.bincount(nearest, minlength=ds.n_s) / ds.n_t)

    def test_binding_ball_on_the_default_task(self):
        # at rho = 1 the nearest-source weighting lies outside the ball, so
        # the subgradient steps decide the result; its W1, the minimum over
        # the whole simplex, bounds the ball's minimum from below
        ds = generate_pda_task(TaskSpec(seed=0))
        dist = cdist(ds.source_x, ds.target_x)
        wv = scheme_arpm(ds.source_x, ds.target_x, ArpmConfig(rho=1.0))
        assert np.linalg.norm(wv.values - 1 / ds.n_s) <= np.sqrt(1.0 / ds.n_s) + 1e-12
        val, _ = _w1_to_uniform_target(wv.values, dist)
        assert val <= 1.3 * float(dist.min(axis=0).mean())

    def test_identical_source_atoms_stop_at_uniform(self):
        # every source atom has the same row duals, so the centred duals
        # vanish and there is no direction to normalise; uniform is optimal
        rng = np.random.default_rng(16)
        fs, ft = np.tile([1.0, -2.0], (4, 1)), rng.normal(size=(3, 2))
        wv = scheme_arpm(fs, ft, ArpmConfig(rho=0.5))
        assert wv.values.min() >= 0.0 and wv.total == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(wv.values - 0.25) <= np.sqrt(0.5 / 4) + 1e-12
        val, _ = _w1_to_uniform_target(wv.values, cdist(fs, ft))
        assert val == pytest.approx(float(cdist(fs, ft)[0].mean()), abs=1e-12)


class TestGammaConstrainedWeights:
    def test_beta_one_forces_uniform(self):
        rng = np.random.default_rng(5)
        wv = gamma_constrained_weights(rng.normal(size=(4, 2)), rng.normal(size=(3, 2)), 1.0)
        np.testing.assert_allclose(wv.values, 0.25, atol=1e-9)

    def test_matches_marginal_weights_of_unit_mass_plan(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_s, n_t = rng.integers(2, 6, size=2)
            beta = rng.uniform(max(0.3, 1.0 / n_s), 1.0)
            fs, ft = rng.normal(size=(n_s, 2)), rng.normal(size=(n_t, 2))
            dist = cdist(fs, ft)
            a = np.full(n_s, 1.0 / (beta * n_s))
            b = np.full(n_t, 1.0 / n_t)
            plan, plan_cost = exact_partial_ot(a, b, dist, 1.0)
            p, _ = marginal_weights(plan)
            wv = gamma_constrained_weights(fs, ft, beta)
            val_plan, _ = _w1_to_uniform_target(p.values, dist)
            val_gamma, _ = _w1_to_uniform_target(wv.values, dist)
            assert val_plan == pytest.approx(val_gamma, abs=1e-6)
            assert val_plan == pytest.approx(plan_cost, abs=1e-6)

    def test_matches_capped_grid_oracle(self):
        rng = np.random.default_rng(9)
        fs, ft = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        dist = cdist(fs, ft)
        beta = 0.5
        cap = 1.0 / (beta * 3)
        best = np.inf
        step = 0.02
        for p0 in np.arange(0, min(1, cap) + step, step):
            for p1 in np.arange(0, min(1 - p0, cap) + step, step):
                p2 = 1.0 - p0 - p1
                if p2 < -1e-12 or p2 > cap:
                    continue
                p = np.clip(np.array([p0, p1, p2]), 0.0, None)
                p /= p.sum()
                if np.any(p > cap + 1e-12):
                    continue
                val, _ = _w1_to_uniform_target(p, dist)
                best = min(best, val)
        wv = gamma_constrained_weights(fs, ft, beta)
        val, _ = _w1_to_uniform_target(wv.values, dist)
        assert val <= best + 1e-9
        assert best - val <= 0.01 * max(val, 1e-9) + 0.05

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_single_source_row_carries_the_whole_mass(self, alpha):
        # beta <= 1 puts the cap 1/(beta*n_s) at or above 1/n_s, so the
        # capped simplex is never empty; with one row the cap is above 1
        wv = gamma_constrained_weights([[0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]], 0.35, alpha)
        np.testing.assert_allclose(wv.values, [alpha], rtol=0, atol=1e-12)


class TestWeightHistogram:
    def test_counts_sum_to_sample_count(self):
        rng = np.random.default_rng(10)
        vals = rng.random(137)
        assert weight_histogram(vals).sum() == 137

    def test_twenty_bins(self):
        assert len(weight_histogram(np.array([0.0, 1.0]))) == 20
