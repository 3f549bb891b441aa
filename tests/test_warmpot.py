"""Trainer: schedule, objective, fixed-plan gradients, determinism."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from potpda import warmpot
from potpda.measures import PdaDataset
from potpda.pot import TransportPlan, entropic_partial_ot
from potpda.synthbench import TaskSpec, generate_pda_task
from potpda.warmpot import (
    ModelParams,
    TrainConfig,
    _batch,
    _forward,
    _gradients,
    _solve,
    alpha_schedule,
    fixed_plan_gradients,
    fixed_plan_value,
    train,
    warmpot_objective,
    warmpot_step,
)


def small_batch(rng, n_s=5, n_t=6, d=3, n_classes=4):
    bs_x = rng.normal(size=(n_s, d))
    bs_y = rng.integers(0, n_classes, n_s)
    bt_x = rng.normal(size=(n_t, d))
    params = ModelParams(rng.normal(scale=0.4, size=(2, d)),
                         rng.normal(scale=0.4, size=(n_classes, 2)),
                         rng.normal(scale=0.1, size=n_classes))
    return bs_x, bs_y, bt_x, params


FAST = dict(solver_tol=1e-9, solver_max_iter=3000)


def central_differences(params, name, value, h=1e-5):
    """Central-difference gradient of ``value(params)`` in one parameter block."""
    block = getattr(params, name)
    numeric = np.zeros_like(block)
    for idx in np.ndindex(block.shape):
        plus, minus = params.copy(), params.copy()
        getattr(plus, name)[idx] += h
        getattr(minus, name)[idx] -= h
        numeric[idx] = (value(plus) - value(minus)) / (2 * h)
    return numeric


def difference_tensor_gradients(params, fwd, plan_matrix, source_weights, cfg):
    """Oracle for the trainer's gradients: the feature part contracts the
    (m, n, k) difference tensor fs_i - ft_j, which is exactly zero at
    coincident features."""
    bs_x, bt_x = fwd.x[:fwd.n_s], fwd.x[fwd.n_s:]
    feats_s, feats_t = params.features(bs_x), params.features(bt_x)
    onehot = np.eye(params.W_g.shape[0])[fwd.bs_y]
    dz_s = source_weights[:, None] * (params.probabilities(bs_x) - onehot)
    dz_t = cfg.eta2 * (plan_matrix.sum(axis=0)[:, None] * params.probabilities(bt_x)
                       - plan_matrix.T @ onehot)
    diff = feats_s[:, None, :] - feats_t[None, :, :]
    scale = cfg.eta1 * plan_matrix / np.maximum(fwd.dist, 1e-12)
    dfeats_s = dz_s @ params.W_g + np.einsum("ij,ijk->ik", scale, diff)
    dfeats_t = dz_t @ params.W_g - np.einsum("ij,ijk->jk", scale, diff)
    return {"W_f": dfeats_s.T @ bs_x + dfeats_t.T @ bt_x,
            "W_g": dz_s.T @ feats_s + dz_t.T @ feats_t,
            "bias": dz_s.sum(axis=0) + dz_t.sum(axis=0)}


class TestAlphaSchedule:
    def test_starts_at_ramp_floor(self):
        assert alpha_schedule(0, TrainConfig()) == pytest.approx(0.01)

    def test_reaches_alpha_max_at_ramp_end(self):
        cfg = TrainConfig()
        assert alpha_schedule(cfg.ramp_iters, cfg) == pytest.approx(0.8)
        assert alpha_schedule(cfg.total_iters - 1, cfg) == pytest.approx(0.8)

    def test_midpoint_interpolation(self):
        cfg = TrainConfig()
        assert alpha_schedule(cfg.ramp_iters // 2, cfg) == pytest.approx(0.405)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_schedule(TrainConfig().total_iters, TrainConfig())


class TestWarmpotObjective:
    def test_value_matches_recomputation_from_artifacts(self):
        rng = np.random.default_rng(0)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, eps=2.0, **FAST)
        value, plan, p_hat = warmpot_objective(bs_x, bs_y, bt_x, params, 0.5, cfg)

        feats_s = params.features(bs_x)
        feats_t = params.features(bt_x)
        probs_t = params.probabilities(bt_x)
        probs_s = params.probabilities(bs_x)
        ce_matrix = -np.log(probs_t[:, bs_y]).T
        cost = cfg.eta1 * cdist(feats_s, feats_t) + cfg.eta2 * ce_matrix
        src_losses = -np.log(probs_s[np.arange(5), bs_y])
        expected = float(p_hat.values @ src_losses) + float((plan.matrix * cost).sum())
        assert value == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(p_hat.values, plan.matrix.sum(axis=1))

    def test_eta2_zero_collapses_to_feature_alignment(self):
        rng = np.random.default_rng(1)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, eta2=0.0, eps=2.0, **FAST)
        _, plan, _ = warmpot_objective(bs_x, bs_y, bt_x, params, 0.5, cfg)
        D = cfg.eta1 * cdist(params.features(bs_x), params.features(bt_x))
        a = np.full(5, 1.0 / (cfg.beta * 5))
        b = np.full(6, 1.0 / 6)
        reference = entropic_partial_ot(a, b, D, 0.5, cfg.solver())
        assert (plan.matrix * D).sum() == pytest.approx(
            (reference.matrix * D).sum(), abs=1e-9)

    def test_identical_batches_confident_model_near_zero(self):
        # matching atoms cost nothing, so at small eps the objective vanishes.
        # Head row y is 5 x_y, and the four atoms point in four directions,
        # so each atom's own class gets a logit 45 above every other
        x = 3.0 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.arange(4)
        params = ModelParams(np.eye(2), x * 5.0, np.zeros(4))
        cfg = TrainConfig(batch_size=4, eps=0.05, beta=1.0, **FAST)
        value, plan, _ = warmpot_objective(x, y, x, params, 1.0, cfg)
        assert plan.converged
        assert value < 1e-2

    def test_plan_feasibility_per_minibatch(self):
        rng = np.random.default_rng(3)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, eps=2.0, beta=0.35, **FAST)
        for alpha in (0.01, 0.3, 0.8, 1.0):
            _, plan, _ = warmpot_objective(bs_x, bs_y, bt_x, params, alpha, cfg)
            assert plan.matrix.sum() == pytest.approx(alpha, abs=1e-8)
            assert np.all(plan.matrix.sum(axis=1) <= 1.0 / (cfg.beta * 5) + 1e-6)

    def test_empty_batch_rejected(self):
        params = ModelParams(np.eye(2), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            warmpot_objective(np.zeros((0, 2)), np.zeros(0, dtype=int),
                              np.zeros((3, 2)), params, 0.5, TrainConfig())


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(5):
            bs_x, bs_y, bt_x, params = small_batch(rng)
            cfg = TrainConfig(batch_size=5, eps=2.0, **FAST)
            _, plan, p_hat = warmpot_objective(bs_x, bs_y, bt_x, params, 0.5, cfg)
            grads = fixed_plan_gradients(params, bs_x, bs_y, bt_x, plan.matrix,
                                         p_hat.values, cfg)
            for name in ("W_f", "W_g", "bias"):
                numeric = central_differences(
                    params, name,
                    lambda p: fixed_plan_value(p, bs_x, bs_y, bt_x, plan.matrix, p_hat.values, cfg),
                    h)
                rel = np.abs(grads[name] - numeric).max() / max(np.abs(numeric).max(), 1e-12)
                assert rel <= 1e-4, f"{name}: rel error {rel:.2e}"

    def test_matches_central_differences_where_softmax_entries_underflow(self):
        # head weights of +-400 drive target softmax entries to 0 in double;
        # with eta1 = 0 and zero source weights only the label cost moves W_g
        rng = np.random.default_rng(3)
        bs_x, bs_y, bt_x = rng.normal(size=(4, 3)), rng.integers(0, 4, 4), rng.normal(size=(3, 3))
        params = ModelParams(np.eye(2, 3), 400.0 * rng.choice([-1.0, 1.0], size=(4, 2)),
                             np.zeros(4))
        cfg = TrainConfig(batch_size=4, eta1=0.0, eps=2.0)
        plan, weights = np.full((4, 3), 0.05), np.zeros(4)
        assert params.probabilities(bt_x).min() == 0.0
        grads = fixed_plan_gradients(params, bs_x, bs_y, bt_x, plan, weights, cfg)
        numeric = central_differences(
            params, "W_g", lambda p: fixed_plan_value(p, bs_x, bs_y, bt_x, plan, weights, cfg))
        np.testing.assert_allclose(grads["W_g"], numeric, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("targets", ["distinct", "coincident", "nearly coincident"])
    def test_matches_the_difference_tensor_oracle(self, targets):
        # a training batch against distinct targets, against itself, where
        # every diagonal pair of features coincides, and against itself plus
        # noise, where diagonal pairs lie about 5e-13 apart and matrix
        # products of the features would lose their differences to rounding
        ds = generate_pda_task(TaskSpec(n_s=200, n_t=150, seed=12))
        rng = np.random.default_rng(12)
        cfg = TrainConfig(batch_size=64, eps=2.0, **FAST)
        init = ModelParams.init(ds.dim, int(ds.source_y.max()) + 1, rng)
        params = ModelParams(init.W_f, rng.normal(scale=0.5, size=init.W_g.shape), init.bias)
        si = rng.choice(ds.n_s, 64, replace=False)
        bs_x, bs_y = ds.source_x[si], ds.source_y[si]
        if targets == "distinct":
            bt_x = ds.target_x[rng.choice(ds.n_t, 64, replace=False)]
        elif targets == "coincident":
            bt_x = bs_x
        else:
            bt_x = bs_x + rng.normal(scale=1e-12, size=bs_x.shape)
        fwd = _forward(params, *_batch(bs_x, bs_y, bt_x), cfg)
        assert np.any(fwd.dist == 0) == (targets == "coincident")
        assert (fwd.dist.min() < 1e-12) == (targets != "distinct")
        plan = _solve(fwd, 0.8, cfg)
        grad = _gradients(params, fwd, plan.matrix, plan.col_sums, plan.row_sums, cfg)
        grads = ModelParams._from_flat(grad, params.shapes)
        expected = difference_tensor_gradients(params, fwd, plan.matrix, plan.row_sums, cfg)
        for name in ("W_f", "W_g", "bias"):
            np.testing.assert_allclose(getattr(grads, name), expected[name], rtol=0, atol=1e-12)

    def test_pure_weighted_cross_entropy_when_alignment_off(self):
        rng = np.random.default_rng(5)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, eta1=0.0, eta2=0.0, eps=2.0, **FAST)
        _, plan, p_hat = warmpot_objective(bs_x, bs_y, bt_x, params, 0.5, cfg)
        grads = fixed_plan_gradients(params, bs_x, bs_y, bt_x, plan.matrix,
                                     p_hat.values, cfg)
        # independent closed form of the weighted softmax cross-entropy gradient
        feats = params.features(bs_x)
        probs = params.probabilities(bs_x)
        onehot = np.eye(4)[bs_y]
        dz = p_hat.values[:, None] * (probs - onehot)
        np.testing.assert_allclose(grads["W_g"], dz.T @ feats, atol=1e-12)
        np.testing.assert_allclose(grads["bias"], dz.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(grads["W_f"], (dz @ params.W_g).T @ bs_x, atol=1e-12)

    def test_nonfinite_gradient_raises_with_diagnostics(self):
        rng = np.random.default_rng(6)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, **FAST)
        bad_plan = np.full((5, 6), np.inf)
        with pytest.raises(FloatingPointError, match="non-finite gradient in W_f"):
            fixed_plan_gradients(params, bs_x, bs_y, bt_x, bad_plan, np.ones(5), cfg)


class TestModelParams:
    def test_blocks_are_views_of_one_flat_vector(self):
        rng = np.random.default_rng(13)
        _, _, _, params = small_batch(rng)
        np.testing.assert_array_equal(
            params.theta, np.concatenate([params.W_f.ravel(), params.W_g.ravel(), params.bias]))
        params.W_f[1, 2] = 7.0
        assert params.theta[5] == 7.0

    @pytest.mark.parametrize("name", ["W_f", "W_g", "bias"])
    def test_blocks_cannot_be_assigned(self, name):
        # a view taken before the assignment still reaches theta
        rng = np.random.default_rng(14)
        _, _, _, params = small_batch(rng)
        theta, W_f = params.theta, params.W_f
        with pytest.raises(AttributeError):
            setattr(params, name, np.ones_like(getattr(params, name)))
        W_f[0, 0] = 7.0
        assert params.theta is theta and params.theta[0] == 7.0

    def test_non_finite_block_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            ModelParams(np.eye(2), np.full((2, 2), np.inf), np.zeros(2))

    def test_copy_owns_its_vector(self):
        params = ModelParams(np.eye(2), np.zeros((2, 2)), np.zeros(2))
        copy = params.copy()
        copy.W_f[0, 0] = 3.0
        assert params.W_f[0, 0] == 1.0


class TestWarmpotStep:
    def test_zero_learning_rate_keeps_params(self):
        rng = np.random.default_rng(7)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, lr=0.0, eps=2.0, **FAST)
        new, _ = warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg)
        np.testing.assert_array_equal(new.W_f, params.W_f)
        np.testing.assert_array_equal(new.W_g, params.W_g)
        np.testing.assert_array_equal(new.bias, params.bias)

    def test_descends_the_fixed_plan_objective(self):
        rng = np.random.default_rng(8)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, lr=0.01, eps=2.0, **FAST)
        _, plan, p_hat = warmpot_objective(bs_x, bs_y, bt_x, params, 0.5, cfg)
        before = fixed_plan_value(params, bs_x, bs_y, bt_x, plan.matrix, p_hat.values, cfg)
        new, _ = warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg)
        after = fixed_plan_value(new, bs_x, bs_y, bt_x, plan.matrix, p_hat.values, cfg)
        assert after < before

    def test_features_past_float_range_raise_floating_point_error(self):
        # the compiled distance kernel returns inf for features of 1e160
        # without a numpy floating-point error
        rng = np.random.default_rng(10)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        params = ModelParams(1e160 * np.eye(2, 3), params.W_g, params.bias)
        cfg = TrainConfig(batch_size=5, eps=2.0, **FAST)
        with pytest.raises(FloatingPointError, match="non-finite feature distance"):
            warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg)

    def test_plan_missing_its_mass_raises_floating_point_error(self):
        # costs of 1e20 at eps 2 need log scalings that a double stores to
        # about 1e4: the flagged plan's mass is far from alpha
        rng = np.random.default_rng(10)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        params = ModelParams(1e20 * np.eye(2, 3), params.W_g, params.bias)
        cfg = TrainConfig(batch_size=5, eps=2.0, **FAST)
        with pytest.raises(FloatingPointError, match="entropic plan mass .* against alpha 5.000e-01"):
            warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg)

    def test_plan_breaking_a_cap_raises_floating_point_error(self, monkeypatch):
        # a flagged plan that meets its mass but puts all of it on one row,
        # past that row's cap 1/(beta n_s) = 0.571
        import potpda.warmpot as warmpot

        def one_row(a, b, C, alpha, cfg, **_):
            matrix = np.zeros(C.shape)
            matrix[0] = alpha / C.shape[1]
            return TransportPlan(matrix, a, b, alpha, converged=False, n_iter=cfg.max_iter)

        monkeypatch.setattr(warmpot, "_entropic", one_row)
        rng = np.random.default_rng(10)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, eps=2.0, **FAST)
        with pytest.raises(FloatingPointError,
                           match="mass 8.000e-01 against alpha 8.000e-01, constraint violation 2.286e-01"):
            warmpot_step(params, bs_x, bs_y, bt_x, 0.8, cfg)

    def test_one_forward_pass_per_step(self, monkeypatch):
        # one model evaluation, on the source rows stacked over the target rows
        rng = np.random.default_rng(9)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, eps=2.0, **FAST)
        features = ModelParams.features
        calls = []

        def counted(self, x):
            calls.append(np.array(x))
            return features(self, x)

        monkeypatch.setattr(ModelParams, "features", counted)
        for weights in (None, np.full(5, 0.2)):
            calls.clear()
            warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg, weights)
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], np.vstack([bs_x, bt_x]))

    def test_override_weights_follow_the_fixed_plan_functions(self):
        rng = np.random.default_rng(10)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, lr=0.05, eps=2.0, **FAST)
        weights = rng.dirichlet(np.ones(5))
        new, info = warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg, weights)
        _, plan, p_hat = warmpot_objective(bs_x, bs_y, bt_x, params, 0.5, cfg)
        np.testing.assert_array_equal(info["p_hat"], p_hat.values)
        assert info["objective"] == fixed_plan_value(params, bs_x, bs_y, bt_x, plan.matrix,
                                                     weights, cfg)
        grads = fixed_plan_gradients(params, bs_x, bs_y, bt_x, plan.matrix, weights, cfg)
        for name in ("W_f", "W_g", "bias"):
            np.testing.assert_array_equal(getattr(new, name),
                                          getattr(params, name) - cfg.lr * grads[name])

    @pytest.mark.parametrize("override", [False, True])
    def test_leaves_the_callers_params_unchanged(self, override):
        rng = np.random.default_rng(15)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        cfg = TrainConfig(batch_size=5, lr=0.05, eps=2.0, **FAST)
        theta, before = params.theta, params.theta.copy()
        weights = rng.dirichlet(np.ones(5)) if override else None
        new, _ = warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg, weights)
        assert params.theta is theta
        np.testing.assert_array_equal(params.theta, before)
        assert new is not params and not np.shares_memory(new.theta, params.theta)
        assert np.any(new.theta != before)

    def test_update_past_float_range_raises(self):
        # inputs of size 100 give gradient entries past 2, so a step of lr
        # 1e308 overflows theta: numpy's overflow error where it raises, as
        # in train, and otherwise the params' finiteness check; either way
        # the caller's params are as they were
        rng = np.random.default_rng(16)
        bs_x, bs_y, bt_x, params = small_batch(rng)
        bs_x, bt_x = 100 * bs_x, 100 * bt_x
        cfg = TrainConfig(batch_size=5, lr=1e308, eps=2.0, **FAST)
        before = params.theta.copy()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            warmpot_step(params, bs_x, bs_y, bt_x, 0.5, cfg)
        np.testing.assert_array_equal(params.theta, before)


def train_by_public_steps(ds, cfg):
    """Oracle for train: its schedule, draws and scheme weights, each step a
    public warmpot_step on the batch's own arrays, under train's error
    state."""
    source_y = ds.source_y.astype(int)
    outliers = None if ds.target_y_hidden is None else ~np.isin(source_y, ds.target_y_hidden)
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams.init(ds.dim, int(source_y.max()) + 1, rng)
    full = warmpot._scheme_weights_full(cfg.weight_scheme, ds, params, cfg)
    trace = []
    for it in range(cfg.total_iters):
        alpha = alpha_schedule(it, cfg)
        si = rng.choice(ds.n_s, size=cfg.batch_size, replace=cfg.batch_size > ds.n_s)
        ti = rng.choice(ds.n_t, size=cfg.batch_size, replace=cfg.batch_size > ds.n_t)
        if it > 0 and cfg.weight_scheme in ("ba3us", "arpm"):
            full = warmpot._scheme_weights_full(cfg.weight_scheme, ds, params, cfg)
        weights = None if full is None else warmpot._batch_weights(full[si])
        with np.errstate(over="raise", invalid="raise"):
            params, record = warmpot_step(params, ds.source_x[si], source_y[si], ds.target_x[ti],
                                          alpha, cfg, weights)
        row = {"iter": it, **record}
        p = row.pop("p_hat")
        if outliers is not None:
            row["outlier_weight_share"] = float(p[outliers[si]].sum() / p.sum())
        trace.append(row)
    return params, trace


class TestTrain:
    def test_deterministic_trace(self):
        spec = TaskSpec(n_s=40, n_t=30, seed=5)
        ds = generate_pda_task(spec)
        cfg = TrainConfig(total_iters=25, ramp_iters=10, batch_size=16, lr=0.02,
                          eps=2.0, seed=11, solver_tol=1e-7, solver_max_iter=500)
        params1, trace1 = train(ds, cfg)
        params2, trace2 = train(ds, cfg)
        assert trace1 == trace2
        np.testing.assert_array_equal(params1.W_f, params2.W_f)
        np.testing.assert_array_equal(params1.W_g, params2.W_g)

    @pytest.mark.parametrize("scheme, steps", [("warmpot", 40), ("uniform", 40), ("ba3us", 5)])
    @pytest.mark.parametrize("hidden", [True, False])
    def test_matches_a_loop_of_public_steps_bit_for_bit(self, scheme, steps, hidden):
        # train updates its own theta in place and gathers each batch from
        # its stacked inputs; every trace row and the final theta must be
        # those of warmpot_step on the same draws
        ds = generate_pda_task(TaskSpec(n_s=90, n_t=60, seed=7))
        if not hidden:
            ds = PdaDataset(ds.source_x, ds.source_y, ds.target_x)
        cfg = TrainConfig(total_iters=steps, ramp_iters=steps // 2, batch_size=32, lr=0.03,
                          eps=2.0, seed=3, weight_scheme=scheme)
        params, trace = train(ds, cfg)
        expected_params, expected_trace = train_by_public_steps(ds, cfg)
        assert trace == expected_trace
        assert ("outlier_weight_share" in trace[0]) == hidden
        assert params.theta.tobytes() == expected_params.theta.tobytes()

    def test_trace_alpha_endpoints(self):
        spec = TaskSpec(n_s=30, n_t=20, seed=2)
        ds = generate_pda_task(spec)
        cfg = TrainConfig(total_iters=30, ramp_iters=15, batch_size=8, lr=0.02,
                          eps=2.0, seed=1, solver_tol=1e-6, solver_max_iter=300)
        _, trace = train(ds, cfg)
        assert trace[0]["alpha"] == pytest.approx(0.01)
        assert trace[-1]["alpha"] == pytest.approx(cfg.alpha_max)

    def test_scheme_override_changes_run(self):
        spec = TaskSpec(n_s=30, n_t=20, seed=3)
        ds = generate_pda_task(spec)
        base = dict(total_iters=15, ramp_iters=5, batch_size=8, lr=0.02, eps=2.0,
                    seed=1, solver_tol=1e-6, solver_max_iter=300)
        _, trace_w = train(ds, TrainConfig(weight_scheme="warmpot", **base))
        _, trace_u = train(ds, TrainConfig(weight_scheme="uniform", **base))
        assert trace_w != trace_u

    def test_ba3us_and_arpm_schemes_run(self):
        spec = TaskSpec(n_s=20, n_t=15, seed=4)
        ds = generate_pda_task(spec)
        base = dict(total_iters=6, ramp_iters=3, batch_size=8, lr=0.02, eps=2.0,
                    seed=1, solver_tol=1e-6, solver_max_iter=300,
                    arpm_rho=1.0)
        for scheme in ("ba3us", "arpm"):
            params, trace = train(ds, TrainConfig(weight_scheme=scheme, **base))
            assert len(trace) == 6
            assert np.all(np.isfinite(params.W_f))

    def test_uniform_scheme_builds_its_weights_once(self, monkeypatch):
        # uniform weights never change; ba3us weights are rebuilt every step
        import potpda.warmpot as warmpot

        calls = []
        full_weights = warmpot._scheme_weights_full

        def counted(scheme, *args):
            calls.append(scheme)
            return full_weights(scheme, *args)

        monkeypatch.setattr(warmpot, "_scheme_weights_full", counted)
        ds = generate_pda_task(TaskSpec(n_s=30, n_t=20, seed=3))
        base = dict(total_iters=15, ramp_iters=5, batch_size=8, lr=0.02, eps=2.0, seed=1)
        train(ds, TrainConfig(weight_scheme="uniform", **base))
        assert calls == ["uniform"]
        calls.clear()
        train(ds, TrainConfig(weight_scheme="ba3us", **base))
        assert calls == ["ba3us"] * 15

    def test_batches_with_rows_under_their_caps_take_at_most_two_sweeps(self, monkeypatch):
        # at the benchmark's training flags no row cap binds on most batches;
        # where a column cap does, the first sweep's water level meets every
        # constraint and the second finds the scalings unchanged.  The
        # three-block loop took 5-51 sweeps on these batches
        import potpda.warmpot as warmpot

        plans = []
        solve = warmpot._entropic

        def recording(*args, **kwargs):
            plans.append(solve(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(warmpot, "_entropic", recording)
        train(generate_pda_task(TaskSpec(seed=3)),
              TrainConfig(total_iters=200, ramp_iters=100, batch_size=64, lr=0.03, eps=2.0))
        binding = [p for p in plans
                   if (p.row_sums < 0.999 * p.row_caps).all() and (p.col_sums > 0.999 * p.col_caps).any()]
        assert len(binding) >= 20
        assert all(p.converged and p.n_iter <= 2 for p in binding)

    @pytest.mark.parametrize("label", [-1, 1.5])
    def test_labels_that_are_not_class_indices_rejected(self, label):
        # a head sized max(label) + 1 would wrap -1 onto the last class and
        # truncate 1.5 onto class 1
        ds = generate_pda_task(TaskSpec(n_s=20, n_t=15, seed=4))
        y = ds.source_y.astype(float)
        y[y == 2] = label
        bad = PdaDataset(ds.source_x, y if label % 1 else y.astype(int), ds.target_x)
        with pytest.raises(ValueError, match="nonnegative integers"):
            train(bad, TrainConfig(total_iters=2, ramp_iters=1, batch_size=8))

    @pytest.mark.parametrize("label", [np.inf, 1e300, 2.0**63])
    def test_labels_past_int64_rejected(self, label):
        # integral-looking floats that int64 cannot hold would cast to -2**63
        ds = generate_pda_task(TaskSpec(n_s=20, n_t=15, seed=4))
        y = ds.source_y.astype(float)
        y[y == 2] = label
        bad = PdaDataset(ds.source_x, y, ds.target_x)
        with pytest.raises(ValueError, match="nonnegative integers"):
            train(bad, TrainConfig(total_iters=2, ramp_iters=1, batch_size=8))

    @pytest.mark.parametrize("label", [20, 1e15])
    def test_labels_past_the_source_rows_rejected(self, label):
        # a head row per class up to the largest label: 1e15 would size the
        # head at 28 PiB, 20 leaves rows with no sample among 20 source rows
        ds = generate_pda_task(TaskSpec(n_s=20, n_t=15, seed=4))
        y = ds.source_y.astype(float)
        y[y == 2] = label
        bad = PdaDataset(ds.source_x, y, ds.target_x)
        with pytest.raises(ValueError, match="below the number of source rows, 20"):
            train(bad, TrainConfig(total_iters=2, ramp_iters=1, batch_size=8))

    def test_hidden_labels_that_are_not_class_indices_rejected(self):
        # float hidden labels skip the dataset's subset check, and the outlier
        # mask would truncate each 0.5-shifted label onto its own class
        ds = generate_pda_task(TaskSpec(n_s=20, n_t=15, seed=4))
        bad = PdaDataset(ds.source_x, ds.source_y, ds.target_x, ds.target_y_hidden + 0.5)
        with pytest.raises(ValueError, match="nonnegative integers"):
            train(bad, TrainConfig(total_iters=2, ramp_iters=1, batch_size=8))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(ramp_iters=10, total_iters=5)
        with pytest.raises(ValueError):
            TrainConfig(alpha_max=1.5)
        with pytest.raises(ValueError):
            TrainConfig(beta=0.0)

    @pytest.mark.parametrize("field, value", [
        ("weight_scheme", "bogus"), ("solver_max_iter", 0),
        ("solver_tol", 0.0), ("solver_tol", -1.0), ("solver_tol", 1e-5), ("eps", float("nan")),
        ("lr", float("nan")), ("eta1", float("nan")), ("seed", -1),
    ])
    def test_config_rejects_what_the_command_line_rejects(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})
